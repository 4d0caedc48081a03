"""Plan compiler: lower netlist executions to instruction tapes, plus the
fault-injection state the bit-packed tape engine shares.

The scalar executors (:mod:`repro.core.executor`) walk the full Python object
model per trial — a cell dict per bit, a method call per gate output — which
caps fault-injection campaigns at tens of trials per second.  The key
observation is that their *control flow is data-independent*: for a fixed
(netlist, scheme, gate style) the exact sequence of presets, gate firings,
checker reads and check decisions is the same for every trial; only the cell
values and injected faults differ.  :func:`compile_plan` exploits that: it
instantiates the corresponding scalar executor purely for its column layout
and lowers its ``run()`` schedule into a flat tape of steps with precomputed
site indices:

* :class:`GateStep` — one in-array gate firing, carrying the same global
  operation index the scalar array would assign, so deterministic fault
  plans target identical sites;
* :class:`PresetStep` / :class:`ReadStep` — architectural presets and
  checker-transfer reads (the points where preset and idle-cell memory
  errors strike);
* :class:`EcimCheckStep` — a GF(2) syndrome operator
  (``S = data @ A[: , :d]^T ⊕ parity``) plus a dense syndrome→position
  lookup table derived from the code's parity-check matrix
  (:mod:`repro.ecc`);
* :class:`TrimCheckStep` — a majority vote across the redundant copies.

The tape is lowered once more to structure-of-arrays form
(:mod:`repro.core.soa`) and interpreted 64 trials per word by
:mod:`repro.core.bitpacked`, the one tape engine; the scalar object model
stays the oracle it must match.  This module also keeps the engine's
result record :class:`BatchResult` and the stuck-cell table
:class:`_StuckCells`.  Input sampling is shared bit-for-bit with the scalar
path via :func:`sample_input_matrix`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.compiler.netlist import Netlist
from repro.core.executor import EcimExecutor, TrimExecutor, UnprotectedExecutor
from repro.errors import PimError, ProtectionError
from repro.pim.faults import FaultModelSpec
from repro.pim.gates import GateType

__all__ = [
    "GateStep",
    "PresetStep",
    "ReadStep",
    "EcimCheckStep",
    "TrimCheckStep",
    "ExecutionPlan",
    "BatchResult",
    "compile_plan",
    "sample_input_matrix",
]


def _cols(columns: Sequence[int]) -> np.ndarray:
    return np.asarray(list(columns), dtype=np.intp)


@dataclass(eq=False, frozen=True)
class GateStep:
    """One in-array gate firing: evaluate, inject, commit."""

    op_index: int
    gate: str
    input_cols: np.ndarray
    output_cols: np.ndarray
    threshold: Optional[int]
    is_metadata: bool
    logic_level: int = 0


@dataclass(eq=False, frozen=True)
class PresetStep:
    """Architectural preset of explicit cells (ECiM parity-bank reset)."""

    columns: np.ndarray
    value: int


@dataclass(eq=False, frozen=True)
class ReadStep:
    """Checker-transfer read: the point where memory errors strike stored
    bits (corruption is committed back to the state, as in
    :meth:`PimArray.read_row`)."""

    columns: np.ndarray


@dataclass(eq=False, frozen=True)
class EcimCheckStep:
    """Batched syndrome decode for one logic level.

    ``a_t`` is ``A[:, :d]^T`` so the syndrome of the zero-padded shortened
    codeword reduces to ``(data @ a_t + parity) mod 2``.  ``lut`` is the
    dense decode table: row ``s`` lists the codeword positions the decoder
    flips for packed syndrome ``s``, padded with ``-1`` — one column for a
    single-error code (Hamming), ``t`` columns for a t-error-correcting code
    (BCH-t), whose rows hold full error *patterns*.  An all ``-1`` row for a
    non-zero syndrome means detected-but-uncorrectable, exactly the
    semantics of the scalar decoders in :mod:`repro.ecc`."""

    data_cols: np.ndarray
    parity_cols: np.ndarray
    a_t: np.ndarray
    weights: np.ndarray
    lut: np.ndarray


@dataclass(eq=False, frozen=True)
class TrimCheckStep:
    """Batched majority vote for one logic level."""

    data_cols: np.ndarray
    copy_col_groups: Tuple[np.ndarray, ...]
    n_copies: int


PlanStep = object  # GateStep | PresetStep | ReadStep | EcimCheckStep | TrimCheckStep


@dataclass(eq=False, frozen=True)
class ExecutionPlan:
    """A compiled, scheme-specific instruction tape for one netlist."""

    scheme: str
    multi_output: bool
    n_cols: int
    netlist: Netlist
    input_cols: np.ndarray
    output_cols: np.ndarray
    const1_col: int
    steps: Tuple[PlanStep, ...]
    n_gate_ops: int

    @property
    def n_inputs(self) -> int:
        return int(self.input_cols.shape[0])

    @property
    def n_outputs(self) -> int:
        return int(self.output_cols.shape[0])

    def gate_fault_sites(self) -> List[Tuple[int, int]]:
        """Every (operation index, output position) a single logic fault can
        strike — the site enumeration exhaustive SEP sweeps iterate."""
        sites = []
        for step in self.steps:
            if isinstance(step, GateStep):
                for position in range(step.output_cols.shape[0]):
                    sites.append((step.op_index, position))
        return sites


# ---------------------------------------------------------------------- #
# Plan compilation
# ---------------------------------------------------------------------- #
def _base_plan_fields(executor) -> Dict[str, object]:
    netlist = executor.netlist
    return dict(
        n_cols=executor.array.cols,
        netlist=netlist,
        input_cols=_cols(executor.column_of[s] for s in netlist.inputs),
        output_cols=_cols(executor.column_of[s] for s in netlist.outputs),
        const1_col=executor.const1_col,
    )


def _compile_unprotected(executor: UnprotectedExecutor) -> Tuple[Tuple[PlanStep, ...], int]:
    steps: List[PlanStep] = []
    op = 0
    for level, gate_indices in enumerate(executor._levels, start=1):
        for gate_index in gate_indices:
            node = executor.netlist.gates[gate_index]
            steps.append(
                GateStep(
                    op_index=op,
                    gate=node.gate,
                    input_cols=_cols(executor.column_of[s] for s in node.inputs),
                    output_cols=_cols([executor.column_of[node.output]]),
                    threshold=node.threshold,
                    is_metadata=False,
                    logic_level=level,
                )
            )
            op += 1
    return tuple(steps), op


def _code_correction_capability(code) -> int:
    """Correctable errors per codeword: ``t`` for BCH-style codes, 1 for
    plain single-error-correcting linear codes."""
    capability = getattr(code, "correctable_errors", None)
    return int(capability()) if callable(capability) else 1


def _multi_error_decode_lut(code, t: int) -> np.ndarray:
    """Dense syndrome → error-pattern table for all patterns of weight <= t.

    Row ``s`` holds the codeword positions flipped for packed binary
    syndrome ``s`` (padded with -1).  Because a t-error-correcting code has
    designed distance >= 2t + 1, every weight-<=t pattern has a distinct
    syndrome, so this lookup is exactly bounded-distance decoding — the same
    correction the algebraic :meth:`~repro.ecc.bch.BchCode.decode` performs.
    Colliding syndromes (a code weaker than advertised) are dropped back to
    -1, inheriting the collision semantics of
    :class:`~repro.ecc.linear.SystematicLinearCode`.
    """
    from itertools import combinations

    r = code.n_parity
    n = code.k + r
    # Column syndromes of H = [A | I_r], packed as integers.
    a = code.a_matrix.astype(np.int64)
    column_syndromes = [
        int(sum(int(a[i, p]) << i for i in range(r))) if p < code.k else 1 << (p - code.k)
        for p in range(n)
    ]
    lut = np.full((1 << r, t), -1, dtype=np.int64)
    collided = set()
    for weight in range(1, t + 1):
        for pattern in combinations(range(n), weight):
            packed = 0
            for position in pattern:
                packed ^= column_syndromes[position]
            if packed == 0 or packed in collided:
                continue
            if lut[packed, 0] >= 0:
                lut[packed] = -1
                collided.add(packed)
                continue
            lut[packed, :weight] = pattern
    return lut


def _ecim_check_step(code, data_cols: Sequence[int], parity_cols: Sequence[int]) -> EcimCheckStep:
    d = len(data_cols)
    r = code.n_parity
    t = _code_correction_capability(code)
    a_t = code.a_matrix[:, :d].T.astype(np.int64)
    weights = (1 << np.arange(r, dtype=np.int64))
    # Dense form of the code's own decode table: absent syndromes stay -1
    # (detected but uncorrectable), so batched decoding inherits the scalar
    # checker's semantics from the single implementation in repro.ecc.
    if t == 1 and hasattr(code, "single_error_syndrome_table"):
        lut = np.full((1 << r, 1), -1, dtype=np.int64)
        for syndrome, position in code.single_error_syndrome_table().items():
            packed = sum(bit << j for j, bit in enumerate(syndrome))
            lut[packed, 0] = position
    else:
        lut = _multi_error_decode_lut(code, t)
    return EcimCheckStep(
        data_cols=_cols(data_cols),
        parity_cols=_cols(parity_cols),
        a_t=a_t,
        weights=weights,
        lut=lut,
    )


def _compile_ecim(executor: EcimExecutor) -> Tuple[Tuple[PlanStep, ...], int]:
    netlist = executor.netlist
    multi_output = executor.multi_output
    steps: List[PlanStep] = []
    op = 0
    scratch1, scratch2 = executor._xor_scratch_cols()
    for level, gate_indices in enumerate(executor._levels, start=1):
        nodes = [netlist.gates[i] for i in gate_indices]
        code = executor._code_factory(max(1, len(nodes)))
        r = code.n_parity
        parity_bank = [0] * r
        for i in range(r):
            steps.append(
                PresetStep(
                    columns=_cols([executor._parity_col(0, i), executor._parity_col(1, i)]),
                    value=0,
                )
            )
        for data_bit, node in enumerate(nodes):
            covered = code.parity_bits_affected_by(data_bit)
            input_cols = [executor.column_of[s] for s in node.inputs]
            data_col = executor.column_of[node.output]
            if multi_output:
                outputs = [data_col] + [executor._staging_col(i) for i in covered]
                steps.append(
                    GateStep(op, node.gate, _cols(input_cols), _cols(outputs),
                             node.threshold, False, level)
                )
                op += 1
            else:
                steps.append(
                    GateStep(op, node.gate, _cols(input_cols), _cols([data_col]),
                             node.threshold, False, level)
                )
                op += 1
                for i in covered:
                    steps.append(
                        GateStep(
                            op, node.gate, _cols(input_cols),
                            _cols([executor._staging_col(i)]), node.threshold, True, level,
                        )
                    )
                    op += 1
            for i in covered:
                source_bank = parity_bank[i]
                target_bank = 1 - source_bank
                r_col = executor._staging_col(i)
                parity_col = executor._parity_col(source_bank, i)
                target_col = executor._parity_col(target_bank, i)
                if multi_output:
                    steps.append(
                        GateStep(op, GateType.NOR, _cols([r_col, parity_col]),
                                 _cols([scratch1, scratch2]), None, True, level)
                    )
                    op += 1
                else:
                    steps.append(
                        GateStep(op, GateType.NOR, _cols([r_col, parity_col]),
                                 _cols([scratch1]), None, True, level)
                    )
                    op += 1
                    steps.append(
                        GateStep(op, GateType.COPY, _cols([scratch1]), _cols([scratch2]),
                                 None, True, level)
                    )
                    op += 1
                steps.append(
                    GateStep(op, GateType.THR, _cols([r_col, parity_col, scratch1, scratch2]),
                             _cols([target_col]), None, True, level)
                )
                op += 1
                parity_bank[i] = target_bank
        data_cols = [executor.column_of[node.output] for node in nodes]
        parity_cols = [executor._parity_col(parity_bank[i], i) for i in range(r)]
        steps.append(ReadStep(_cols(data_cols)))
        steps.append(ReadStep(_cols(parity_cols)))
        steps.append(_ecim_check_step(code, data_cols, parity_cols))
    return tuple(steps), op


def _compile_trim(executor: TrimExecutor) -> Tuple[Tuple[PlanStep, ...], int]:
    netlist = executor.netlist
    multi_output = executor.multi_output
    n_copies = executor.n_copies
    steps: List[PlanStep] = []
    op = 0
    for level, gate_indices in enumerate(executor._levels, start=1):
        nodes = [netlist.gates[i] for i in gate_indices]
        for position, node in enumerate(nodes):
            input_cols = [executor.column_of[s] for s in node.inputs]
            data_col = executor.column_of[node.output]
            copy_cols = [executor._copy_col(c, position) for c in range(n_copies - 1)]
            if multi_output:
                steps.append(
                    GateStep(op, node.gate, _cols(input_cols),
                             _cols([data_col] + copy_cols), node.threshold, False, level)
                )
                op += 1
            else:
                steps.append(
                    GateStep(op, node.gate, _cols(input_cols), _cols([data_col]),
                             node.threshold, False, level)
                )
                op += 1
                for col in copy_cols:
                    steps.append(
                        GateStep(op, node.gate, _cols(input_cols), _cols([col]),
                                 node.threshold, True, level)
                    )
                    op += 1
        data_cols = [executor.column_of[node.output] for node in nodes]
        steps.append(ReadStep(_cols(data_cols)))
        copy_groups = []
        for c in range(n_copies - 1):
            cols = [executor._copy_col(c, position) for position in range(len(nodes))]
            steps.append(ReadStep(_cols(cols)))
            copy_groups.append(_cols(cols))
        steps.append(TrimCheckStep(_cols(data_cols), tuple(copy_groups), n_copies))
    return tuple(steps), op


def compile_plan(
    netlist: Netlist,
    scheme: str,
    multi_output: bool = True,
    code_factory=None,
    n_copies: int = 3,
) -> ExecutionPlan:
    """Lower one (netlist, scheme, gate style) into an instruction tape.

    The scalar executor is instantiated once to reuse its column layout and
    level schedule verbatim; nothing is ever executed on its array.
    """
    scheme = scheme.strip().lower()
    if scheme == "unprotected":
        executor = UnprotectedExecutor(netlist)
        steps, n_ops = _compile_unprotected(executor)
    elif scheme == "ecim":
        kwargs = {} if code_factory is None else {"code_factory": code_factory}
        executor = EcimExecutor(netlist, multi_output=multi_output, **kwargs)
        steps, n_ops = _compile_ecim(executor)
    elif scheme == "trim":
        executor = TrimExecutor(netlist, multi_output=multi_output, n_copies=n_copies)
        steps, n_ops = _compile_trim(executor)
    else:
        raise ProtectionError(f"unknown protection scheme {scheme!r}")
    return ExecutionPlan(
        scheme=scheme,
        multi_output=multi_output,
        steps=steps,
        n_gate_ops=n_ops,
        **_base_plan_fields(executor),
    )


# ---------------------------------------------------------------------- #
# Input sampling
# ---------------------------------------------------------------------- #
def sample_input_matrix(netlist: Netlist, seeds: Sequence[int]) -> np.ndarray:
    """Per-trial uniform input assignments, bit-identical to the scalar
    path's :func:`repro.campaign.workloads.sample_inputs` for the same
    per-trial seeds."""
    matrix = np.empty((len(seeds), len(netlist.inputs)), dtype=np.uint8)
    for row, seed in enumerate(seeds):
        rng = random.Random(seed)
        for position in range(matrix.shape[1]):
            matrix[row, position] = rng.getrandbits(1)
    return matrix


# ---------------------------------------------------------------------- #
# Batch outcomes and shared fault-injection state
# ---------------------------------------------------------------------- #
@dataclass(eq=False, frozen=True)
class BatchResult:
    """Per-trial outcome vectors of one interpreted batch."""

    outputs: np.ndarray              # (B, n_outputs) uint8
    golden: np.ndarray               # (B, n_outputs) uint8
    detected: np.ndarray             # (B,) bool — any check fired
    corrections: np.ndarray          # (B,) int64 — checker write-back count
    uncorrectable_levels: np.ndarray  # (B,) int64
    faults_injected: np.ndarray      # (B,) int64

    @property
    def n_trials(self) -> int:
        return int(self.outputs.shape[0])

    @property
    def outputs_correct(self) -> np.ndarray:
        return (self.outputs == self.golden).all(axis=1)


class _StuckCells:
    """Vectorised :class:`~repro.pim.faults.StuckAtFaultInjector` semantics.

    The stuck value re-applies at exactly the scalar injector's touch
    points: after every gate-output commit to an afflicted cell and at every
    checker-transfer read (which writes the stuck value back, like
    :meth:`PimArray.read_row`).  Architectural presets and checker
    correction write-backs bypass the injector on both backends.
    """

    def __init__(self, spec: FaultModelSpec, n_cols: int) -> None:
        try:
            # The one shared bounds rule with the scalar backend.
            spec.validate_columns(n_cols, layout="plan")
        except PimError as error:
            raise ProtectionError(str(error)) from None
        columns = np.asarray(spec.stuck_columns, dtype=np.intp)
        self.value = int(spec.stuck_polarity)
        self.is_stuck = np.zeros(n_cols, dtype=bool)
        self.is_stuck[columns] = True
