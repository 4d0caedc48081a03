"""Exhaustive equivalence of the vectorized gate semantics vs the scalar
model: every native GateType, every feasible input width, every input
combination, both the truth-table path and the wide-gate fallback."""

import itertools

import numpy as np
import pytest

from repro.errors import GateOperandError
from repro.pim.gates import GateType, gate_output, thr
from repro.pim.vector import (
    TABLE_MAX_INPUTS,
    truth_table,
    vector_gate_output,
)
from repro.pim.vector import _direct_eval


def all_combos(n):
    return np.array(list(itertools.product((0, 1), repeat=n)), dtype=np.uint8)


def valid_widths(gate):
    if gate in (GateType.NOT, GateType.COPY):
        return [1]
    if gate == GateType.MAJ:
        return [1, 3, 5]
    if gate == GateType.THR:
        # The scalar default threshold is 3, which needs >= 3 inputs;
        # narrower THR instances are covered with explicit thresholds below.
        return [3, 4, 5]
    return [1, 2, 3, 4, 5]


class TestExhaustiveEquivalence:
    @pytest.mark.parametrize("gate", GateType.NATIVE)
    def test_matches_gate_output_on_every_combination(self, gate):
        for n in valid_widths(gate):
            combos = all_combos(n)
            batched = vector_gate_output(gate, combos)
            for row, bits in enumerate(combos):
                assert batched[row] == gate_output(gate, list(int(b) for b in bits)), (
                    gate, n, list(bits),
                )

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_thr_matches_for_every_threshold(self, n):
        combos = all_combos(n)
        for threshold in range(1, n + 1):
            batched = vector_gate_output(GateType.THR, combos, threshold=threshold)
            for row, bits in enumerate(combos):
                assert batched[row] == thr(list(int(b) for b in bits), threshold=threshold)

    def test_thr_default_threshold_is_three(self):
        # Mirrors PimArray.execute_gate / Netlist.evaluate: THR with no
        # explicit threshold means the paper's 4-input threshold-3 gate.
        combos = all_combos(4)
        assert np.array_equal(
            vector_gate_output(GateType.THR, combos),
            vector_gate_output(GateType.THR, combos, threshold=3),
        )

    @pytest.mark.parametrize("gate", GateType.NATIVE)
    def test_table_path_equals_direct_fallback(self, gate):
        for n in valid_widths(gate):
            combos = all_combos(n)
            threshold = 3 if gate == GateType.THR and n >= 3 else (n if gate == GateType.THR else None)
            assert np.array_equal(
                truth_table(gate, n, threshold)[
                    combos.astype(np.int64) @ (1 << np.arange(n, dtype=np.int64))
                ],
                _direct_eval(gate, combos, threshold),
            )


class TestWideGates:
    def test_wide_nor_uses_fallback(self):
        n = TABLE_MAX_INPUTS + 3
        matrix = np.zeros((4, n), dtype=np.uint8)
        matrix[1, 0] = 1
        matrix[2] = 1
        assert list(vector_gate_output(GateType.NOR, matrix)) == [1, 0, 0, 1]

    def test_truth_table_refuses_wide_gates(self):
        with pytest.raises(GateOperandError):
            truth_table(GateType.NOR, TABLE_MAX_INPUTS + 1)


class TestValidation:
    def test_not_rejects_multiple_inputs(self):
        with pytest.raises(GateOperandError):
            vector_gate_output(GateType.NOT, np.zeros((2, 2), dtype=np.uint8))

    def test_unknown_gate_rejected(self):
        with pytest.raises(GateOperandError):
            truth_table("xor", 2)

    def test_one_dimensional_input_treated_as_single_column(self):
        assert list(vector_gate_output(GateType.NOT, np.array([0, 1, 0], dtype=np.uint8))) == [1, 0, 1]

    def test_table_is_read_only_and_cached(self):
        table = truth_table(GateType.NOR, 2)
        assert table is truth_table(GateType.NOR, 2)
        with pytest.raises(ValueError):
            table[0] = 0
