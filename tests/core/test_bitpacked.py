"""Bit-packed engine tests: transposition properties, SoA lowering, word-op
gate semantics, and cross-backend byte-identity on ragged batches.

The systematic cross-backend grid lives in ``tests/differential/``; this
module owns the engine-local properties that grid cannot see — the
pack/unpack transposition contract (tail lanes of ragged batches, packed
XOR vs uint8 XOR), the SoA lowering invariants, and the skip-sampled
fault stream's engine-local properties (reproducible,
batch-composition-invariant, statistically faithful).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.campaign.workloads import get_campaign_workload
from repro.core.backend import BitpackedBackend, derive_seed, make_backend
from repro.core.batched import compile_plan, sample_input_matrix
from repro.core.bitpacked import (
    WORD_BITS,
    _gate_words,
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
from repro.errors import ProtectionError
from repro.pim.faults import FaultModelSpec
from repro.pim.vector import truth_table

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
# Word-op gate programs
# ---------------------------------------------------------------------- #
class TestGateWordPrograms:
    @pytest.mark.parametrize("gate", ["nor", "nand", "maj", "thr"])
    @pytest.mark.parametrize("n_inputs", [2, 3, 4])
    def test_word_programs_match_truth_tables(self, gate, n_inputs):
        if gate == "maj" and n_inputs % 2 == 0:
            pytest.skip("majority needs an odd fan-in")
        if gate == "thr" and n_inputs < 3:
            pytest.skip("the default THR threshold of 3 needs fan-in >= 3")
        table = truth_table(gate, n_inputs, 3 if gate == "thr" else None)
        # All input combinations at once, one trial per combination.
        combos = np.array(
            [[(i >> j) & 1 for j in range(n_inputs)] for i in range(1 << n_inputs)],
            dtype=np.uint8,
        )
        operands = pack_trials(combos)
        out = _gate_words(gate, operands, None)
        got = unpack_trials(out[:, None], combos.shape[0])[:, 0]
        assert np.array_equal(got, table)

    @pytest.mark.parametrize("gate", ["not", "copy"])
    def test_unary_programs(self, gate):
        bits = np.array([[0], [1], [1], [0]], dtype=np.uint8)
        out = _gate_words(gate, pack_trials(bits), None)
        got = unpack_trials(out[:, None], 4)[:, 0]
        expected = bits[:, 0] if gate == "copy" else 1 - bits[:, 0]
        assert np.array_equal(got, expected)


# ---------------------------------------------------------------------- #
# SoA lowering invariants
# ---------------------------------------------------------------------- #
class TestSoaLowering:
    @pytest.fixture(scope="class", params=["ecim", "trim"])
    def soa(self, request):
        netlist = get_campaign_workload("dot2").netlist
        return lower_plan(compile_plan(netlist, request.param))

    def test_dispatch_covers_every_step(self, soa):
        assert soa.n_steps == len(soa.plan.steps)
        kinds = set(soa.step_kind.tolist())
        assert kinds <= {KIND_GATE, KIND_PRESET, KIND_READ, KIND_ECIM, KIND_TRIM}
        # Slots are dense per kind: the last slot of each kind indexes its
        # tape's final entry.
        assert soa.n_gate_steps == int((soa.step_kind == KIND_GATE).sum())

    def test_gate_tape_mirrors_plan_steps(self, soa):
        from repro.core.batched import GateStep

        gate_steps = [s for s in soa.plan.steps if isinstance(s, GateStep)]
        assert soa.n_gate_steps == len(gate_steps)
        for slot, step in enumerate(gate_steps):
            assert np.array_equal(
                soa.gate_in_cols[soa.gate_in_ptr[slot]:soa.gate_in_ptr[slot + 1]],
                step.input_cols,
            )
            assert np.array_equal(
                soa.gate_out_cols[soa.gate_out_ptr[slot]:soa.gate_out_ptr[slot + 1]],
                step.output_cols,
            )
            assert soa.gate_op_index[slot] == step.op_index
            assert soa.gate_is_metadata[slot] == step.is_metadata
            table = soa.tables[soa.gate_table_id[slot]]
            assert table[0] == step.gate
            assert table[1] == step.input_cols.shape[0]

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
            soa.gate_out_cols[0] = 0


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
