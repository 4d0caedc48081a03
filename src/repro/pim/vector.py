"""Vectorized semantics of the in-array gates.

The scalar gate model (:mod:`repro.pim.gates`) evaluates one gate on one
Python-int operand list at a time — exactly right for the behavioural array,
far too slow for Monte-Carlo campaigns that execute the same gate schedule
thousands of times.  This module provides the vectorized counterpart: every
native gate becomes a *truth-table lookup* over a ``(B, n_inputs)`` bit
matrix, producing all B trials' outputs in one numpy operation.  The
bit-packed tape engine (:mod:`repro.core.bitpacked`) evaluates the same
semantics as bit-sliced group kernels, which its tests check exhaustively
against these truth tables (and against :func:`vector_gate_output` for
gates wider than :data:`TABLE_MAX_INPUTS`).

The truth tables themselves are generated by calling the scalar
:func:`~repro.pim.gates.gate_output` on every input combination, so the
vectorized semantics are correct *by construction* and exhaustively
cross-checked against the scalar model in ``tests/pim/test_vector.py``.
Gates wider than :data:`TABLE_MAX_INPUTS` (none of the shipped netlists come
close) fall back to direct arithmetic forms with identical semantics.

Input bit matrices are expected to contain only 0/1 values (dtype ``uint8``);
callers guarantee this invariant, so no per-element validation is performed
on the hot path.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Optional, Sequence

import numpy as np

from repro.errors import GateOperandError
from repro.pim.gates import GateType, gate_output, thr

__all__ = [
    "TABLE_MAX_INPUTS",
    "truth_table",
    "vector_gate_output",
]

#: Widest gate for which a dense 2^n truth table is materialised; beyond this
#: the direct arithmetic fallback is used (the shipped netlists max out at
#: 4-input THR gates, so the tables stay tiny).
TABLE_MAX_INPUTS = 12


def _effective_threshold(gate: str, n_inputs: int, threshold: Optional[int]) -> Optional[int]:
    """THR defaults to the paper's threshold of 3, mirroring the behavioural
    array (:meth:`PimArray.execute_gate`) and :meth:`Netlist.evaluate`."""
    if gate != GateType.THR:
        return None
    return 3 if threshold is None else int(threshold)


@lru_cache(maxsize=None)
def truth_table(gate: str, n_inputs: int, threshold: Optional[int] = None) -> np.ndarray:
    """Dense truth table of one gate: index ``i`` holds the output for the
    input combination whose bit ``j`` (value ``(i >> j) & 1``) is input ``j``.

    Built by evaluating the scalar gate model on every combination, then
    frozen (read-only) and cached per ``(gate, n_inputs, threshold)``.
    """
    gate = gate.lower()
    if gate not in GateType.NATIVE:
        raise GateOperandError(f"not a native in-array gate: {gate!r}")
    if n_inputs < 1:
        raise GateOperandError("a gate needs at least one input")
    if n_inputs > TABLE_MAX_INPUTS:
        raise GateOperandError(
            f"refusing to materialise a 2^{n_inputs} truth table "
            f"(TABLE_MAX_INPUTS = {TABLE_MAX_INPUTS})"
        )
    thr_value = _effective_threshold(gate, n_inputs, threshold)
    table = np.empty(1 << n_inputs, dtype=np.uint8)
    for index in range(1 << n_inputs):
        bits = [(index >> j) & 1 for j in range(n_inputs)]
        if gate == GateType.THR:
            table[index] = thr(bits, threshold=thr_value)
        else:
            table[index] = gate_output(gate, bits)
    table.setflags(write=False)
    return table


def _direct_eval(
    gate: str, inputs: np.ndarray, threshold: Optional[int]
) -> np.ndarray:
    """Arithmetic fallback for gates too wide for a dense table."""
    n = inputs.shape[1]
    ones = inputs.sum(axis=1, dtype=np.int64)
    if gate == GateType.NOR:
        return (ones == 0).astype(np.uint8)
    if gate == GateType.NAND:
        return (ones < n).astype(np.uint8)
    if gate == GateType.THR:
        thr_value = _effective_threshold(gate, n, threshold)
        if not 1 <= thr_value <= n:
            raise GateOperandError(f"threshold must be within 1..{n}, got {thr_value}")
        return ((n - ones) >= thr_value).astype(np.uint8)
    if gate == GateType.MAJ:
        if n % 2 == 0:
            raise GateOperandError("majority vote requires an odd number of inputs")
        return (ones * 2 > n).astype(np.uint8)
    if gate in (GateType.NOT, GateType.COPY):
        if n != 1:
            raise GateOperandError(f"{gate.upper()} takes exactly one input")
        column = inputs[:, 0]
        return (column ^ 1).astype(np.uint8) if gate == GateType.NOT else column.astype(np.uint8)
    raise GateOperandError(f"unknown gate type: {gate!r}")


def vector_gate_output(
    gate: str,
    inputs: Sequence,
    threshold: Optional[int] = None,
) -> np.ndarray:
    """Evaluate one gate for all B trials at once.

    ``inputs`` is a ``(B, n_inputs)`` bit matrix (or anything ``np.asarray``
    turns into one); returns the ``(B,)`` uint8 output vector.  Semantically
    identical to calling :func:`~repro.pim.gates.gate_output` per row, with
    THR honouring an explicit ``threshold`` the way the behavioural array
    does.
    """
    gate = gate.lower()
    matrix = np.asarray(inputs, dtype=np.uint8)
    if matrix.ndim == 1:
        matrix = matrix[:, None]
    if matrix.ndim != 2:
        raise GateOperandError(f"expected a (B, n_inputs) bit matrix, got shape {matrix.shape}")
    n = matrix.shape[1]
    if n == 0:
        raise GateOperandError("a gate needs at least one input")
    if gate in (GateType.NOT, GateType.COPY) and n != 1:
        raise GateOperandError(f"{gate.upper()} takes exactly one input")
    if n > TABLE_MAX_INPUTS:
        return _direct_eval(gate, matrix, threshold)
    table = truth_table(gate, n, _effective_threshold(gate, n, threshold))
    weights = (1 << np.arange(n, dtype=np.int64))
    packed = matrix.astype(np.int64) @ weights
    return table[packed]
