"""Bit-packed engine tests: transposition properties, SoA lowering and its
wave schedule, group-kernel gate semantics, and cross-backend
byte-identity on ragged batches.

The systematic cross-backend grid lives in ``tests/differential/``; this
module owns the engine-local properties that grid cannot see — the
pack/unpack transposition contract (tail lanes of ragged batches, packed
XOR vs uint8 XOR), exhaustive group-kernel truth tables, the SoA lowering
and schedule invariants (SSA columns, waves, unit-keyed lanes, dispatch
budgets), and the skip-sampled fault stream's engine-local properties
(reproducible, batch-composition-invariant, statistically faithful).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.campaign.workloads import get_campaign_workload
from repro.core.backend import BitpackedBackend, derive_seed, make_backend
from repro.core.batched import GATE_NAMES, compile_plan, sample_input_matrix
from repro.core.bitpacked import (
    WORD_BITS,
    _group_kernel,
    lane_mask,
    n_words,
    pack_trials,
    run_packed,
    unpack_trials,
)
from repro.core.soa import (
    KIND_ECIM,
    KIND_GATE,
    KIND_PRESET,
    KIND_READ,
    KIND_TRIM,
    lower_plan,
)
from repro.errors import GateOperandError, ProtectionError
from repro.pim.faults import FaultModelSpec
from repro.pim.gates import GateType
from repro.pim.vector import TABLE_MAX_INPUTS, truth_table, vector_gate_output

OUTCOME_FIELDS = (
    "outputs_correct",
    "detected",
    "corrections",
    "uncorrectable_levels",
    "faults_injected",
)


def _assert_outcomes_equal(left, right, context):
    for field in OUTCOME_FIELDS:
        assert np.array_equal(getattr(left, field), getattr(right, field)), (
            context,
            field,
        )


# ---------------------------------------------------------------------- #
# Pack / unpack transposition properties
# ---------------------------------------------------------------------- #
class TestPackUnpack:
    @given(
        batch=st.integers(min_value=1, max_value=300),
        cols=st.integers(min_value=1, max_value=24),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_round_trip_over_ragged_batches(self, batch, cols, seed):
        bits = np.random.default_rng(seed).integers(
            0, 2, size=(batch, cols), dtype=np.uint8
        )
        planes = pack_trials(bits)
        assert planes.shape == (n_words(batch), cols)
        assert planes.dtype == np.uint64
        assert np.array_equal(unpack_trials(planes, batch), bits)

    @given(
        batch=st.integers(min_value=1, max_value=300),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_tail_lanes_pack_to_zero(self, batch, seed):
        # Trials >= B must never contribute set bits: packed fault masks rely
        # on this to keep garbage tail lanes from leaking into outcomes.
        bits = np.random.default_rng(seed).integers(
            0, 2, size=(batch, 5), dtype=np.uint8
        )
        planes = pack_trials(bits)
        assert np.all(planes & ~lane_mask(batch)[:, None] == 0)

    def test_lane_mask_shape_and_tail(self):
        assert lane_mask(64).tolist() == [2**64 - 1]
        assert lane_mask(1).tolist() == [1]
        ragged = lane_mask(70)
        assert ragged.shape == (2,)
        assert ragged[0] == np.uint64(2**64 - 1)
        assert ragged[1] == np.uint64(0b111111)

    def test_trial_to_lane_mapping(self):
        # Trial t lives at bit (t & 63) of word (t >> 6), per column.
        batch = 130
        for trial in (0, 1, 63, 64, 127, 128, 129):
            bits = np.zeros((batch, 2), dtype=np.uint8)
            bits[trial, 1] = 1
            planes = pack_trials(bits)
            assert planes[trial >> 6, 1] == np.uint64(1) << np.uint64(trial & 63)
            assert planes[:, 0].sum() == 0

    @given(
        batch=st.integers(min_value=1, max_value=200),
        cols=st.integers(min_value=1, max_value=12),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_packed_xor_equals_uint8_xor(self, batch, cols, seed):
        # XOR in the packed domain must be the same operation as XOR on the
        # unpacked (B, k) bit matrix.
        rng = np.random.default_rng(seed)
        state = rng.integers(0, 2, size=(batch, cols), dtype=np.uint8)
        mask = rng.integers(0, 2, size=(batch, cols), dtype=np.uint8)
        packed = pack_trials(state)
        packed ^= pack_trials(mask)
        assert np.array_equal(unpack_trials(packed, batch), state ^ mask)

    def test_pack_rejects_non_matrix(self):
        with pytest.raises(ProtectionError):
            pack_trials(np.zeros(4, dtype=np.uint8))

    def test_unpack_rejects_oversized_batch(self):
        with pytest.raises(ProtectionError):
            unpack_trials(np.zeros((1, 3), dtype=np.uint64), 65)


# ---------------------------------------------------------------------- #
# Group kernels
# ---------------------------------------------------------------------- #
def _valid_tables(fan_ins):
    """Every valid native (gate, fan-in, threshold) over ``fan_ins``."""
    for k in fan_ins:
        yield (GateType.NOR, k, None)
        yield (GateType.NAND, k, None)
        if k == 1:
            yield (GateType.NOT, k, None)
            yield (GateType.COPY, k, None)
        if k % 2:
            yield (GateType.MAJ, k, None)
        for threshold in range(1, k + 1):
            yield (GateType.THR, k, threshold)


def _table_id(table):
    gate, k, threshold = table
    return f"{gate}{k}" + ("" if threshold is None else f"t{threshold}")


#: Operand block shapes (W words, g firings) every kernel is checked at.
KERNEL_SHAPES = ((1, 1), (1, 5), (3, 1), (3, 5))


def _kernel_bits(table, combos, words, gates):
    """Run one kernel on ``combos`` (input-combination indices) laid out as
    ``(W, g, k)`` operand blocks; returns the output bit of every combo."""
    gate, k, threshold = table
    kernel = _group_kernel(gate, k, threshold)
    block = words * WORD_BITS * gates
    padded = np.resize(combos, -(-combos.shape[0] // block) * block)
    outputs = []
    for start in range(0, padded.shape[0], block):
        chunk = padded[start:start + block].reshape(gates, words * WORD_BITS).T
        bits = ((chunk[..., None] >> np.arange(k)) & 1).astype(np.uint8)
        operands = pack_trials(bits.reshape(words * WORD_BITS, gates * k))
        out = kernel(operands.reshape(words, gates, k))
        assert out.shape == (words, gates)
        outputs.append(unpack_trials(out, words * WORD_BITS).T.reshape(-1))
    return np.concatenate(outputs)[: combos.shape[0]]


class TestGroupKernels:
    """Every native gate at every fan-in the engine can meet, against the
    scalar model's truth tables (fan-in 1-12) and the arithmetic vector
    semantics beyond them (fan-in 13-16)."""

    @pytest.mark.parametrize(
        "table", list(_valid_tables(range(1, TABLE_MAX_INPUTS + 1))), ids=_table_id
    )
    def test_kernel_matches_truth_table(self, table):
        gate, k, threshold = table
        expected = truth_table(gate, k, threshold)
        combos = np.arange(1 << k)
        for words, gates in KERNEL_SHAPES:
            got = _kernel_bits(table, combos, words, gates)
            assert np.array_equal(got, expected), (words, gates)

    @pytest.mark.parametrize("k", range(TABLE_MAX_INPUTS + 1, 17))
    def test_wide_kernels_match_vector_semantics(self, k):
        combos = np.random.default_rng(k).integers(0, 1 << k, size=700)
        # Every popcount a threshold can split on, not just random ones.
        combos = np.concatenate((combos, (1 << np.arange(k + 1)) - 1))
        bits = ((combos[:, None] >> np.arange(k)) & 1).astype(np.uint8)
        for table in _valid_tables([k]):
            gate, _, threshold = table
            expected = vector_gate_output(gate, bits, threshold)
            for words, gates in KERNEL_SHAPES:
                got = _kernel_bits(table, combos, words, gates)
                assert np.array_equal(got, expected), (table, words, gates)

    @pytest.mark.parametrize(
        "table",
        [
            ("thr", 4, 0),
            ("thr", 4, 5),
            ("maj", 4, None),
            ("not", 2, None),
            ("copy", 2, None),
            ("nor", 0, None),
            ("xor", 2, None),
        ],
        ids=_table_id,
    )
    def test_invalid_tables_are_rejected(self, table):
        with pytest.raises(GateOperandError):
            _group_kernel(*table)

    def test_default_threshold_is_three(self):
        combos = np.arange(16)
        assert np.array_equal(
            _kernel_bits(("thr", 4, None), combos, 1, 1), truth_table("thr", 4, 3)
        )


# ---------------------------------------------------------------------- #
# SoA lowering invariants
# ---------------------------------------------------------------------- #
def _assert_schedule_invariants(soa):
    """The wave schedule is a valid reordering of the tape: every gate in
    one group, groups read only what earlier groups wrote, lanes tile each
    block once, and state columns map back to the plan's columns."""
    n_cols, n_gates = soa.n_cols, soa.n_gate_steps
    group_ptr, out_ptr = soa.group_ptr, soa.gate_out_ptr
    gate_steps = np.flatnonzero(soa.step_kind == KIND_GATE)
    slots = soa.step_slot[gate_steps]
    # Every gate step lies in exactly one group: slots are a permutation of
    # the gate tape, the groups tile it, and each step's unit is its group.
    assert np.array_equal(np.sort(slots), np.arange(n_gates))
    assert group_ptr[0] == 0 and group_ptr[-1] == n_gates
    assert np.all(np.diff(group_ptr) > 0)
    group_of_slot = np.searchsorted(group_ptr, np.arange(n_gates), side="right") - 1
    units = soa.unit_of_step[gate_steps]
    assert np.all(soa.unit_kind[units] == KIND_GATE)
    assert np.array_equal(soa.unit_slot[units], group_of_slot[slots])
    assert np.array_equal(soa.gate_table_id, soa.group_table[group_of_slot])
    assert np.array_equal(soa.gate_step_index[slots], gate_steps)
    # Each group and barrier is exactly one unit, barriers in tape order.
    group_units = np.flatnonzero(soa.unit_kind == KIND_GATE)
    assert np.array_equal(soa.unit_slot[group_units], np.arange(group_ptr.shape[0] - 1))
    barrier_steps = np.flatnonzero(soa.step_kind != KIND_GATE)
    assert np.all(np.diff(soa.unit_of_step[barrier_steps]) > 0)
    assert soa.n_units == group_units.shape[0] + barrier_steps.shape[0]
    # No group reads an SSA column written by itself or a later group.
    reader = np.repeat(group_of_slot, np.diff(soa.gate_in_ptr))
    fresh = soa.gate_in_cols >= n_cols
    writer_slot = np.searchsorted(out_ptr, soa.gate_in_cols[fresh] - n_cols, side="right") - 1
    assert np.all(group_of_slot[writer_slot] < reader[fresh])
    # ... and every gate runs after the barriers before it, before the ones after.
    segment = np.cumsum(soa.step_kind != KIND_GATE)
    unit_segment = np.maximum.accumulate(
        np.bincount(soa.unit_of_step[barrier_steps], weights=segment[barrier_steps],
                    minlength=soa.n_units)
    )
    assert np.array_equal(unit_segment[units], segment[gate_steps])
    # Lane offsets tile each group's output block exactly once.
    widths = np.diff(out_ptr)[slots]
    lanes = np.repeat(soa.lane_offset_of_step[gate_steps], widths) + (
        np.arange(widths.sum()) - np.repeat(np.cumsum(widths) - widths, widths)
    )
    lane_units = np.repeat(units, widths)
    order = np.lexsort((lanes, lane_units))
    block_width = np.diff(out_ptr[group_ptr])
    block_start = np.repeat(np.cumsum(block_width) - block_width, block_width)
    assert np.array_equal(lanes[order], np.arange(lanes.shape[0]) - block_start)
    # A group's lane repeat names the firing each output lane belongs to.
    lane_slot = np.searchsorted(out_ptr, np.arange(out_ptr[-1]), side="right") - 1
    assert np.array_equal(
        soa.gate_out_lane_gate, lane_slot - group_ptr[group_of_slot[lane_slot]]
    )
    # State columns map back to the plan's physical columns: every gate
    # slot reads and writes its tape firing's columns, every barrier its
    # step's.
    plan = soa.plan
    assert soa.n_state_cols == n_cols + out_ptr[-1]
    assert np.array_equal(soa.phys[:n_cols], np.arange(n_cols))
    tape_slots = soa.step_slot[gate_steps]  # wave slot of each tape-order firing
    _assert_chunks_map(
        soa.phys, _chunks(soa.gate_in_ptr, soa.gate_in_cols, tape_slots),
        _chunks(plan.gate_in_ptr, plan.gate_in_cols),
    )
    _assert_chunks_map(
        soa.phys, _chunks(out_ptr, n_cols + np.arange(out_ptr[-1]), tape_slots),
        _chunks(plan.gate_out_ptr, plan.gate_out_cols),
    )
    for tape in ("preset", "read", "ecim_data", "ecim_parity", "ecim_cover", "trim_data"):
        ptr, cols = getattr(soa, tape + "_ptr"), getattr(soa, tape + "_cols")
        _assert_chunks_map(
            soa.phys, _chunks(ptr, cols),
            _chunks(getattr(plan, tape + "_ptr"), getattr(plan, tape + "_cols")),
        )
    _assert_chunks_map(
        soa.phys, [cols for groups in soa.trim_copy_groups for cols in groups],
        _chunks(plan.trim_copy_ptr, plan.trim_copy_cols),
    )
    assert np.array_equal(soa.phys[soa.output_state_cols], soa.plan.output_cols)


def _chunks(ptr, cols, order=None):
    """The chunks of one CSR list, optionally in the given chunk order."""
    chunks = [cols[lo:hi] for lo, hi in zip(ptr[:-1].tolist(), ptr[1:].tolist())]
    return chunks if order is None else [chunks[i] for i in order]


def _assert_chunks_map(phys, state_chunks, plan_chunks):
    assert len(state_chunks) == len(plan_chunks)
    for state, expected in zip(state_chunks, plan_chunks):
        assert np.array_equal(phys[state], expected)


class TestSoaLowering:
    @pytest.fixture(scope="class", params=["unprotected", "ecim", "trim"])
    def soa(self, request):
        netlist = get_campaign_workload("dot2").netlist
        return lower_plan(compile_plan(netlist, request.param))

    def test_dispatch_covers_every_step(self, soa):
        assert np.array_equal(soa.step_kind, soa.plan.step_kind)
        kinds = set(soa.step_kind.tolist())
        assert kinds <= {KIND_GATE, KIND_PRESET, KIND_READ, KIND_ECIM, KIND_TRIM}
        assert soa.n_gate_steps == int((soa.step_kind == KIND_GATE).sum())

    def test_gate_tape_mirrors_plan_firings(self, soa):
        plan = soa.plan
        slots = soa.step_slot[soa.step_kind == KIND_GATE]  # tape-order firing → slot
        assert np.array_equal(soa.gate_op_index[slots], plan.gate_op_index)
        assert np.array_equal(soa.gate_is_metadata[slots], plan.gate_is_metadata)
        in_widths = np.diff(plan.gate_in_ptr)
        for firing, slot in enumerate(slots.tolist()):
            table = soa.tables[soa.gate_table_id[slot]]
            assert table[0] == GATE_NAMES[plan.gate_code[firing]]
            assert table[1] == in_widths[firing]
        assert np.array_equal(np.diff(soa.gate_out_ptr)[slots], np.diff(plan.gate_out_ptr))

    def test_schedule_invariants(self, soa):
        _assert_schedule_invariants(soa)

    def test_ecim_cover_lists_follow_a_t(self, soa):
        for check, a_t in enumerate(soa.plan.ecim_a_t):
            data = soa.ecim_data_cols[soa.ecim_data_ptr[check]:soa.ecim_data_ptr[check + 1]]
            first_bit = soa.ecim_parity_ptr[check]
            for bit in range(a_t.shape[1]):
                lo, hi = soa.ecim_cover_ptr[first_bit + bit:first_bit + bit + 2]
                expected = data[np.flatnonzero(a_t[:, bit])]
                assert np.array_equal(soa.ecim_cover_cols[lo:hi], expected)

    def test_tables_are_deduplicated(self, soa):
        assert len(soa.tables) == len(set(soa.tables))
        assert len(soa.tables) < soa.n_gate_steps  # real plans repeat gates

    def test_site_tables_partition_gate_outputs(self, soa):
        total_outputs = int(soa.gate_out_ptr[-1])
        assert soa.n_gate_output_sites == total_outputs
        assert soa.gate_sites.size + soa.meta_sites.size == total_outputs
        # The preset class: one count-only preset per gate output, plus the
        # state-changing preset-step cells.
        assert soa.preset_sites.size == total_outputs + int(soa.preset_ptr[-1])
        assert int((~soa.preset_sites.applied).sum()) == total_outputs
        assert soa.read_sites.size == int(soa.read_ptr[-1])

    def test_call_ranks_order_every_injector_call(self, soa):
        # The merge key: each class is in call order, and the four classes
        # together number every injector call of one execution exactly once.
        classes = (soa.gate_sites, soa.meta_sites, soa.preset_sites, soa.read_sites)
        for sites in classes:
            assert np.all(np.diff(sites.call) > 0)
        calls = np.sort(np.concatenate([sites.call for sites in classes]))
        assert np.array_equal(calls, np.arange(calls.shape[0]))

    def test_buffers_are_frozen(self, soa):
        with pytest.raises(ValueError):
            soa.step_kind[0] = 0
        with pytest.raises(ValueError):
            soa.gate_in_cols[0] = 0
        with pytest.raises(ValueError):
            soa.unit_of_step[0] = 0

    def test_in_place_firings_read_the_previous_version(self):
        # A firing that overwrites one of its own input columns reads the
        # value from before the step, and a later reader in the same segment
        # sees the new one: NOR(a, b) into a's column, then NOT in place.
        from repro.compiler.netlist import Netlist
        from repro.core.batched import ExecutionPlan

        netlist = Netlist("in-place-or")
        a, b = netlist.add_inputs(2)
        netlist.mark_output(netlist.add_gate("not", [netlist.add_gate("nor", [a, b])]))
        cols = lambda *c: np.asarray(c, dtype=np.intp)  # noqa: E731
        plan = ExecutionPlan(
            scheme="unprotected", multi_output=True, n_cols=3, netlist=netlist,
            input_cols=cols(0, 1), output_cols=cols(0), const1_col=2, n_gate_ops=2,
            step_kind=np.full(2, KIND_GATE, dtype=np.int8),
            gate_code=np.array([GATE_NAMES.index("nor"), GATE_NAMES.index("not")], np.int8),
            gate_threshold=np.array([-1, -1], dtype=np.int64),
            gate_op_index=np.arange(2, dtype=np.int64),
            gate_is_metadata=np.zeros(2, dtype=bool),
            gate_logic_level=cols(1, 2),
            gate_in_ptr=cols(0, 2, 3), gate_in_cols=cols(0, 1, 0),
            gate_out_ptr=cols(0, 1, 2), gate_out_cols=cols(0, 0),
        )
        soa = lower_plan(plan)
        _assert_schedule_invariants(soa)
        assert soa.n_units == 2
        combos = np.array([[0, 0], [0, 1], [1, 0], [1, 1]], dtype=np.uint8)
        result = run_packed(soa, combos)
        assert result.outputs[:, 0].tolist() == [0, 1, 1, 1]
        assert result.outputs_correct.all()

    #: Dispatch budgets of the mlp16 schedules: fusion must not silently
    #: degrade (the per-step tapes are 5,112 / 39,534 / 5,432 steps long).
    MLP16_UNIT_BUDGETS = {"unprotected": 200, "ecim": 6500, "trim": 500}

    @pytest.mark.parametrize("scheme", sorted(MLP16_UNIT_BUDGETS))
    def test_mlp16_dispatch_budget(self, scheme):
        netlist = get_campaign_workload("mlp16").netlist
        soa = lower_plan(compile_plan(netlist, scheme))
        assert soa.n_units <= self.MLP16_UNIT_BUDGETS[scheme], soa.n_units
        _assert_schedule_invariants(soa)


# ---------------------------------------------------------------------- #
# Engine byte-identity on ragged batches
# ---------------------------------------------------------------------- #
class TestRaggedBatchParity:
    """The differential grid runs B=16; these pin the word-boundary batch
    sizes (B % 64 == 0, == 1, and mid-word) against the scalar oracle.

    A trial's outcome depends only on its own inputs and seeds, so one
    scalar run over the largest batch is the reference for every prefix."""

    MAX_BATCH = 130

    @pytest.fixture(scope="class")
    def cell(self):
        netlist = get_campaign_workload("dot2").netlist
        seeds = [derive_seed("ragged", trial, "faults") for trial in range(self.MAX_BATCH)]
        matrix = sample_input_matrix(netlist, seeds)
        scalar = make_backend("scalar", netlist, "ecim")
        bitpacked = make_backend("bitpacked", netlist, "ecim")
        references = {}

        def reference(name, **kwargs):
            if name not in references:
                references[name] = scalar.run_trials(matrix, **kwargs)
            return references[name]

        return bitpacked, matrix, seeds, reference

    @staticmethod
    def _assert_prefix_equal(reference, candidate, batch, context):
        for field in OUTCOME_FIELDS:
            assert np.array_equal(
                getattr(reference, field)[:batch], getattr(candidate, field)
            ), (context, batch, field)

    # Every rate class of the exact stochastic schedule at once: gate,
    # metadata, presets (count-only on gate outputs, state-changing on
    # preset steps) and memory reads.
    ALL_RATES = FaultModelSpec.stochastic(
        gate_error_rate=0.03,
        memory_error_rate=0.01,
        preset_error_rate=0.01,
        metadata_error_rate=0.04,
    )

    @pytest.mark.parametrize("batch", [1, 63, 64, 65, 128, 130])
    def test_declarative_stochastic_byte_identical(self, cell, batch):
        bitpacked, matrix, seeds, reference = cell
        kwargs = dict(fault_model=self.ALL_RATES, fault_seeds=seeds)
        candidate = bitpacked.run_trials(
            matrix[:batch], fault_model=self.ALL_RATES, fault_seeds=seeds[:batch]
        )
        self._assert_prefix_equal(reference("stochastic", **kwargs), candidate, batch, "stochastic")

    # Classes at rate 1 hit every call without drawing, beside classes
    # that draw: the replay must skip exactly those classes in the merge.
    CERTAIN_RATES = FaultModelSpec.stochastic(
        gate_error_rate=0.05,
        memory_error_rate=1.0,
        preset_error_rate=0.02,
        metadata_error_rate=1.0,
    )

    @pytest.mark.parametrize("batch", [1, 65])
    def test_certain_classes_beside_drawn_ones_byte_identical(self, cell, batch):
        bitpacked, matrix, seeds, reference = cell
        kwargs = dict(fault_model=self.CERTAIN_RATES, fault_seeds=seeds)
        candidate = bitpacked.run_trials(
            matrix[:batch], fault_model=self.CERTAIN_RATES, fault_seeds=seeds[:batch]
        )
        assert candidate.faults_injected.sum() > 0
        self._assert_prefix_equal(reference("certain", **kwargs), candidate, batch, "certain")

    @pytest.mark.parametrize("batch", [63, 64, 65])
    def test_burst_byte_identical(self, cell, batch):
        bitpacked, matrix, seeds, reference = cell
        spec = FaultModelSpec.burst(
            burst_length=3, correlation_window=6, gate_error_rate=0.02,
            memory_error_rate=0.01,
        )
        candidate = bitpacked.run_trials(
            matrix[:batch], fault_model=spec, fault_seeds=seeds[:batch]
        )
        full = reference("burst", fault_model=spec, fault_seeds=seeds)
        self._assert_prefix_equal(full, candidate, batch, "burst")

    def test_kflip_plans_byte_identical(self, cell):
        import random

        bitpacked, matrix, seeds, reference = cell
        sites = bitpacked.plan.gate_fault_sites()
        plans = []
        for seed in seeds:
            entry = {}
            for op, pos in random.Random(seed).sample(sites, 2):
                entry.setdefault(op, []).append(pos)
            plans.append(entry)
        batch = 70
        candidate = bitpacked.run_trials(matrix[:batch], fault_plan=plans[:batch])
        full = reference("plan", fault_plan=plans)
        self._assert_prefix_equal(full, candidate, batch, "plan")


# ---------------------------------------------------------------------- #
# Skip-sampled fault stream
# ---------------------------------------------------------------------- #
class TestSkipSampledStream:
    @pytest.fixture(scope="class")
    def backend(self):
        netlist = get_campaign_workload("dot2").netlist
        return make_backend("bitpacked", netlist, "ecim")

    def test_reproducible_for_fixed_seeds(self, backend):
        seeds = [derive_seed("legacy", t, "faults") for t in range(100)]
        matrix = sample_input_matrix(backend.netlist, seeds)
        model = FaultModelSpec.stochastic(gate_error_rate=2e-3, memory_error_rate=1e-3)
        first = backend.run_trials(matrix, fault_model=model, fault_seeds=seeds)
        again = backend.run_trials(matrix, fault_model=model, fault_seeds=seeds)
        _assert_outcomes_equal(first, again, "repro")

    def test_batch_composition_invariance(self, backend):
        # A trial's outcome depends only on its own seeds, never on shard
        # size or neighbours — the property that makes sharded campaigns
        # placement-independent.
        seeds = [derive_seed("legacy-invar", t, "faults") for t in range(130)]
        matrix = sample_input_matrix(backend.netlist, seeds)
        model = FaultModelSpec.stochastic(gate_error_rate=5e-3, memory_error_rate=1e-3)
        whole = backend.run_trials(matrix, fault_model=model, fault_seeds=seeds)
        for lo, hi in ((0, 1), (17, 18), (60, 70), (100, 130)):
            part = backend.run_trials(
                matrix[lo:hi], fault_model=model, fault_seeds=seeds[lo:hi]
            )
            for field in OUTCOME_FIELDS:
                assert np.array_equal(
                    getattr(part, field), getattr(whole, field)[lo:hi]
                ), (lo, hi, field)

    def test_fault_rate_statistically_faithful(self, backend):
        # Skip sampling must hit each site i.i.d. at the class rate: mean
        # fault count over many trials lands near sites x rate (within 5
        # sigma of the binomial).
        rate = 1e-3
        trials = 4000
        seeds = [derive_seed("legacy-stats", t, "faults") for t in range(trials)]
        matrix = sample_input_matrix(backend.netlist, seeds)
        outcomes = backend.run_trials(
            matrix,
            fault_model=FaultModelSpec.stochastic(gate_error_rate=rate, memory_error_rate=0.0),
            fault_seeds=seeds,
        )
        # metadata_error_rate falls back to the gate rate, so every gate
        # output (metadata included) is a site at this rate.
        sites = backend.soa.n_gate_output_sites
        expected = trials * sites * rate
        sigma = (trials * sites * rate * (1 - rate)) ** 0.5
        observed = int(outcomes.faults_injected.sum())
        assert abs(observed - expected) < 5 * sigma, (observed, expected)

    def test_rate_one_hits_every_site(self, backend):
        seeds = [derive_seed("legacy-sat", t) for t in range(3)]
        matrix = sample_input_matrix(backend.netlist, seeds)
        outcomes = backend.run_trials(
            matrix,
            fault_model=FaultModelSpec.stochastic(gate_error_rate=1.0, memory_error_rate=0.0),
            fault_seeds=seeds,
        )
        # Gate and (fallback-rate) metadata outputs all flip, every trial.
        assert np.all(outcomes.faults_injected == backend.soa.n_gate_output_sites)


# ---------------------------------------------------------------------- #
# Backend surface
# ---------------------------------------------------------------------- #
class TestBitpackedBackendSurface:
    def test_make_backend_dispatch_and_lazy_soa(self):
        netlist = get_campaign_workload("and2").netlist
        backend = make_backend("bitpacked", netlist, "ecim")
        assert isinstance(backend, BitpackedBackend)
        assert backend._soa is None  # lowered lazily
        assert backend.soa.plan is backend.plan
        assert backend._soa is not None

    def test_sites_identical_to_scalar(self):
        netlist = get_campaign_workload("dot2").netlist
        scalar = make_backend("scalar", netlist, "trim")
        bitpacked = make_backend("bitpacked", netlist, "trim")
        assert scalar.enumerate_sites() == bitpacked.enumerate_sites()

    def test_run_packed_rejects_bad_matrix(self):
        netlist = get_campaign_workload("and2").netlist
        soa = lower_plan(compile_plan(netlist, "ecim"))
        with pytest.raises(ProtectionError):
            run_packed(soa, np.zeros((4, 99), dtype=np.uint8))
        with pytest.raises(ProtectionError):
            run_packed(soa, np.zeros((0, soa.n_inputs), dtype=np.uint8))

    def test_run_packed_takes_one_fault_source(self):
        netlist = get_campaign_workload("and2").netlist
        soa = lower_plan(compile_plan(netlist, "ecim"))
        matrix = np.ones((2, soa.n_inputs), dtype=np.uint8)
        with pytest.raises(ProtectionError, match="one fault source"):
            run_packed(
                soa, matrix, fault_model=FaultModelSpec.stochastic(0.1),
                fault_seeds=[1, 2], fault_plan=[{0: 0}, {}],
            )
        with pytest.raises(ProtectionError, match="one fault source"):
            run_packed(
                soa, matrix, fault_plan=[{0: 0}, {}],
                fault_model=FaultModelSpec.stuck_at((0,), 1),
            )

    def test_word_bits_is_sixty_four(self):
        assert WORD_BITS == 64
        assert n_words(1) == 1
        assert n_words(64) == 1
        assert n_words(65) == 2
