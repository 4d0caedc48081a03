"""Compiled instruction tapes (``repro/core/batched.py``), run on the
bit-packed tape engine, vs the scalar executors.

The contract under test:

* fault-free executions match the scalar executors **exactly**, per trial;
* exhaustive deterministic single-fault executions match the scalar
  :class:`DeterministicFaultInjector` path exactly, per site — and uphold
  the SEP guarantee (no silent corruption) under ECiM/TRiM;
* stochastic executions are reproducible for a fixed seed and invariant to
  batch composition.
"""

import itertools
import random

import numpy as np
import pytest

from repro.campaign.workloads import get_campaign_workload, sample_inputs
from repro.core.batched import (
    GATE_NAMES,
    KIND_ECIM,
    KIND_PRESET,
    KIND_READ,
    KIND_TRIM,
    compile_plan,
    sample_input_matrix,
)
from repro.core.bitpacked import bitpacked_golden_outputs, pack_trials, run_packed
from repro.core.executor import EcimExecutor, TrimExecutor, UnprotectedExecutor
from repro.errors import ProtectionError
from repro.pim.faults import DeterministicFaultInjector, FaultModelSpec
from repro.core.soa import lower_plan
from repro.pim.operations import NullTrace, OperationKind

EXECUTORS = {
    "unprotected": UnprotectedExecutor,
    "ecim": EcimExecutor,
    "trim": TrimExecutor,
}


def run_tape(plan, matrix, fault_model=None, fault_seeds=None, fault_plan=None):
    """Interpret a compiled tape on the bit-packed engine."""
    return run_packed(
        lower_plan(plan),
        matrix,
        fault_seeds=fault_seeds,
        fault_plan=fault_plan,
        fault_model=fault_model,
    )


def scalar_report(netlist, scheme, multi_output, inputs, injector=None):
    cls = EXECUTORS[scheme]
    kwargs = {} if scheme == "unprotected" else {"multi_output": multi_output}
    executor = cls(netlist, fault_injector=injector, **kwargs)
    executor.array.trace = NullTrace()
    return executor.run(inputs)


def assert_trial_matches(result, row, report, netlist, context):
    assert list(result.outputs[row]) == [report.outputs[s] for s in netlist.outputs], context
    assert list(result.golden[row]) == [report.golden_outputs[s] for s in netlist.outputs], context
    assert bool(result.detected[row]) == report.detected, context
    assert int(result.corrections[row]) == report.corrections, context
    assert int(result.uncorrectable_levels[row]) == report.uncorrectable_levels, context


class TestGolden:
    @pytest.mark.parametrize("workload", ["and2", "dot2", "mac4"])
    def test_packed_golden_matches_netlist_evaluation(self, workload):
        netlist = get_campaign_workload(workload).netlist
        matrix = sample_input_matrix(netlist, list(range(70)))
        golden = bitpacked_golden_outputs(netlist, pack_trials(matrix), matrix.shape[0])
        for row in range(matrix.shape[0]):
            expected = netlist.evaluate_outputs(dict(zip(netlist.inputs, map(int, matrix[row]))))
            assert list(golden[row]) == [expected[s] for s in netlist.outputs]

    def test_sample_input_matrix_matches_scalar_sampler(self):
        netlist = get_campaign_workload("dot2").netlist
        seeds = [101, 202, 303]
        matrix = sample_input_matrix(netlist, seeds)
        for row, seed in enumerate(seeds):
            scalar = sample_inputs(netlist, random.Random(seed))
            assert list(matrix[row]) == [scalar[s] for s in netlist.inputs]


class TestFaultFreeExactMatch:
    @pytest.mark.parametrize("workload", ["and2", "dot2"])
    @pytest.mark.parametrize(
        "scheme,multi_output",
        [("unprotected", True), ("ecim", True), ("ecim", False), ("trim", True), ("trim", False)],
    )
    def test_outputs_checks_and_corrections_match_scalar(self, workload, scheme, multi_output):
        netlist = get_campaign_workload(workload).netlist
        plan = compile_plan(netlist, scheme, multi_output=multi_output)
        seeds = list(range(12))
        matrix = sample_input_matrix(netlist, seeds)
        result = run_tape(plan, matrix)
        for row, seed in enumerate(seeds):
            report = scalar_report(
                netlist, scheme, multi_output, sample_inputs(netlist, random.Random(seed))
            )
            assert_trial_matches(result, row, report, netlist, (workload, scheme, multi_output, row))
        assert not result.detected.any()
        assert result.outputs_correct.all()


def _scalar_trace(netlist, scheme, multi_output):
    """The scalar executor's operation trace of one fault-free run, split
    into gate firings and architectural barriers: a preset immediately
    followed by a gate firing on the same columns is that gate's own output
    preset, every other preset or read is a tape barrier."""
    kwargs = {} if scheme == "unprotected" else {"multi_output": multi_output}
    executor = EXECUTORS[scheme](netlist, **kwargs)
    executor.run({signal: 0 for signal in netlist.inputs})
    records = list(executor.array.trace)
    gates, barriers = [], []
    for index, record in enumerate(records):
        if record.kind == OperationKind.GATE:
            gates.append(record)
        elif record.kind in (OperationKind.PRESET, OperationKind.READ):
            following = records[index + 1] if index + 1 < len(records) else None
            if (
                record.kind == OperationKind.PRESET
                and following is not None
                and following.kind == OperationKind.GATE
                and following.outputs == record.columns
            ):
                continue
            barriers.append(record)
    return executor, gates, barriers


def _chunk(ptr, cols, index):
    return tuple(cols[ptr[index]:ptr[index + 1]].tolist())


class TestTapeMatchesScalarTrace:
    """The compiled array tape against an independent oracle: the operation
    trace of the scalar executor's own run (which never reads the tape)."""

    @pytest.mark.parametrize("workload", ["and2", "dot2", "mlp16"])
    @pytest.mark.parametrize("scheme", ["unprotected", "ecim", "trim"])
    @pytest.mark.parametrize("multi_output", [True, False], ids=["mo", "so"])
    def test_gate_firings_and_barriers_match(self, workload, scheme, multi_output):
        netlist = get_campaign_workload(workload).netlist
        plan = compile_plan(netlist, scheme, multi_output=multi_output)
        executor, gates, barriers = _scalar_trace(netlist, scheme, multi_output)

        # Gate firings: operation index, gate, columns, metadata flag, level.
        assert plan.n_gate_ops == len(gates) == plan.gate_code.shape[0]
        assert plan.gate_op_index.tolist() == list(range(len(gates)))
        assert [GATE_NAMES[code] for code in plan.gate_code.tolist()] == [
            record.gate for record in gates
        ]
        assert plan.gate_is_metadata.tolist() == [record.is_metadata for record in gates]
        assert plan.gate_logic_level.tolist() == [record.logic_level for record in gates]
        for firing, record in enumerate(gates):
            assert _chunk(plan.gate_in_ptr, plan.gate_in_cols, firing) == record.inputs
            assert _chunk(plan.gate_out_ptr, plan.gate_out_cols, firing) == record.outputs
        assert plan.gate_fault_sites() == [
            (op, position)
            for op, record in enumerate(gates)
            for position in range(len(record.outputs))
        ]

        # Barriers in tape order: presets with their columns and value,
        # reads with their width (checks leave no trace record).
        traced = [step for step in plan.step_kind.tolist() if step in (KIND_PRESET, KIND_READ)]
        assert len(traced) == len(barriers)
        presets = reads = 0
        for step, record in zip(traced, barriers):
            if step == KIND_PRESET:
                assert record.kind == OperationKind.PRESET
                assert _chunk(plan.preset_ptr, plan.preset_cols, presets) == record.columns
                assert plan.preset_values[presets] == record.value
                presets += 1
            else:
                assert record.kind == OperationKind.READ
                assert plan.read_ptr[reads + 1] - plan.read_ptr[reads] == record.n_bits
                reads += 1
        assert presets == plan.preset_values.shape[0]
        assert reads == plan.read_ptr.shape[0] - 1

        # One check per logic level.
        n_levels = len(netlist.levelize())
        expected = {"unprotected": (0, 0), "ecim": (n_levels, 0), "trim": (0, n_levels)}
        assert (
            int((plan.step_kind == KIND_ECIM).sum()),
            int((plan.step_kind == KIND_TRIM).sum()),
        ) == expected[scheme]
        if scheme == "ecim":
            self._assert_ecim_checks_follow_code(plan, executor)

    @staticmethod
    def _assert_ecim_checks_follow_code(plan, executor):
        """Each check's data columns are its level's outputs, and each
        syndrome bit covers exactly the data bits the code says it does."""
        gates = executor.netlist.gates
        for check, indices in enumerate(executor.netlist.levelize()):
            data = _chunk(plan.ecim_data_ptr, plan.ecim_data_cols, check)
            assert data == tuple(executor.column_of[gates[i].output] for i in indices)
            code = executor.level_code(len(indices))
            first_bit = plan.ecim_parity_ptr[check]
            assert plan.ecim_parity_ptr[check + 1] - first_bit == code.n_parity
            covered = {
                bit: set(_chunk(plan.ecim_cover_ptr, plan.ecim_cover_cols, first_bit + bit))
                for bit in range(code.n_parity)
            }
            for data_bit, column in enumerate(data):
                bits = {bit for bit, cols in covered.items() if column in cols}
                assert bits == set(code.parity_bits_affected_by(data_bit))


class TestExhaustiveSingleFault:
    @pytest.mark.parametrize(
        "scheme,multi_output",
        [("ecim", True), ("ecim", False), ("trim", True), ("trim", False)],
    )
    def test_every_site_matches_scalar_and_sep_holds(self, scheme, multi_output):
        netlist = get_campaign_workload("and2").netlist
        plan = compile_plan(netlist, scheme, multi_output=multi_output)
        sites = plan.gate_fault_sites()
        assert sites, "plan must expose injectable gate sites"
        combos = list(itertools.product((0, 1), repeat=len(netlist.inputs)))
        trials = [(combo, site) for combo in combos for site in sites]
        matrix = np.array([combo for combo, _ in trials], dtype=np.uint8)
        fault_plan = [{op: position} for _, (op, position) in trials]
        result = run_tape(plan, matrix, fault_plan=fault_plan)
        for row, (combo, (op, position)) in enumerate(trials):
            report = scalar_report(
                netlist,
                scheme,
                multi_output,
                dict(zip(netlist.inputs, combo)),
                injector=DeterministicFaultInjector(target_output_positions={op: position}),
            )
            assert_trial_matches(
                result, row, report, netlist, (scheme, multi_output, combo, op, position)
            )
        # The SEP guarantee, tape form: any single fault anywhere is
        # corrected or detected — never a silent corruption.
        assert not (~result.outputs_correct & ~result.detected).any()

    def test_out_of_range_fault_positions_inject_nothing(self):
        # Scalar DeterministicFaultInjector never fires for a position its
        # output counter cannot reach; the tape engine must match (in
        # particular a negative position must not wrap to the last output).
        netlist = get_campaign_workload("and2").netlist
        plan = compile_plan(netlist, "trim")
        matrix = np.array([[1, 1], [1, 1], [1, 1]], dtype=np.uint8)
        result = run_tape(plan, matrix, fault_plan=[{0: -1}, {0: 99}, {}])
        assert result.faults_injected.sum() == 0
        assert result.outputs_correct.all()
        assert not result.detected.any()

    def test_unprotected_single_faults_are_silent(self):
        netlist = get_campaign_workload("and2").netlist
        plan = compile_plan(netlist, "unprotected")
        sites = plan.gate_fault_sites()
        matrix = np.tile(np.array([[1, 1]], dtype=np.uint8), (len(sites), 1))
        result = run_tape(plan, matrix, fault_plan=[{op: pos} for op, pos in sites])
        assert not result.detected.any()
        # Flipping the final AND output on inputs (1, 1) must corrupt it.
        assert not result.outputs_correct.all()
        assert (~result.outputs_correct & ~result.detected).sum() > 0


class TestStochasticDeterminism:
    def _spec(self, batch):
        netlist = get_campaign_workload("dot2").netlist
        plan = compile_plan(netlist, "ecim")
        input_seeds = list(range(1000, 1000 + batch))
        fault_seeds = list(range(2000, 2000 + batch))
        matrix = sample_input_matrix(netlist, input_seeds)
        return plan, matrix, fault_seeds

    def test_same_seeds_same_outcomes(self):
        plan, matrix, fault_seeds = self._spec(50)
        model = FaultModelSpec.stochastic(gate_error_rate=1e-2)
        first = run_tape(plan, matrix, model, fault_seeds)
        second = run_tape(plan, matrix, model, fault_seeds)
        assert np.array_equal(first.outputs, second.outputs)
        assert np.array_equal(first.faults_injected, second.faults_injected)
        assert np.array_equal(first.detected, second.detected)

    def test_outcomes_invariant_to_batch_composition(self):
        # A trial's fault stream is keyed by its own seed, so splitting the
        # batch differently must not change any per-trial outcome.
        plan, matrix, fault_seeds = self._spec(40)
        model = FaultModelSpec.stochastic(gate_error_rate=1e-2, memory_error_rate=1e-3)
        whole = run_tape(plan, matrix, model, fault_seeds)
        split_at = 13
        front = run_tape(plan, matrix[:split_at], model, fault_seeds[:split_at])
        back = run_tape(plan, matrix[split_at:], model, fault_seeds[split_at:])
        assert np.array_equal(whole.outputs, np.vstack([front.outputs, back.outputs]))
        assert np.array_equal(
            whole.faults_injected,
            np.concatenate([front.faults_injected, back.faults_injected]),
        )
        assert np.array_equal(whole.detected, np.concatenate([front.detected, back.detected]))

    def test_different_seeds_differ(self):
        plan, matrix, fault_seeds = self._spec(60)
        model = FaultModelSpec.stochastic(gate_error_rate=1e-2)
        a = run_tape(plan, matrix, model, fault_seeds)
        b = run_tape(plan, matrix, model, [s + 10_000 for s in fault_seeds])
        assert not np.array_equal(a.faults_injected, b.faults_injected)


class TestValidation:
    def test_unknown_scheme_rejected(self):
        netlist = get_campaign_workload("and2").netlist
        with pytest.raises(ProtectionError):
            compile_plan(netlist, "parity")

    def test_input_shape_checked(self):
        netlist = get_campaign_workload("and2").netlist
        plan = compile_plan(netlist, "unprotected")
        with pytest.raises(ProtectionError):
            run_tape(plan, np.zeros((4, 7), dtype=np.uint8))

    def test_missing_fault_seeds_rejected(self):
        netlist = get_campaign_workload("and2").netlist
        plan = compile_plan(netlist, "unprotected")
        with pytest.raises(ProtectionError):
            run_tape(
                plan,
                np.zeros((4, 2), dtype=np.uint8),
                FaultModelSpec.stochastic(gate_error_rate=0.1),
            )

    def test_empty_batch_rejected(self):
        netlist = get_campaign_workload("and2").netlist
        plan = compile_plan(netlist, "unprotected")
        with pytest.raises(ProtectionError):
            run_tape(plan, np.zeros((0, 2), dtype=np.uint8))
