"""Plan compiler: lower netlist executions to flat array instruction tapes,
plus the fault-injection state the bit-packed tape engine shares.

The scalar executors (:mod:`repro.core.executor`) walk the full Python object
model per trial — a cell dict per bit, a method call per gate output — which
caps fault-injection campaigns at tens of trials per second.  The key
observation is that their *control flow is data-independent*: for a fixed
(netlist, scheme, gate style) the exact sequence of presets, gate firings,
checker reads and check decisions is the same for every trial; only the cell
values and injected faults differ.  :func:`compile_plan` exploits that: it
instantiates the corresponding scalar executor purely for its column layout,
level schedule and per-level codes, and emits the schedule its ``run()``
follows as one :class:`ExecutionPlan` of flat arrays — no per-step Python
objects.  ``step_kind`` holds one ``KIND_*`` code per tape step, and the
steps of each kind index that kind's arrays in tape order:

* the **gate tape** — per firing its gate (``gate_code`` into
  :data:`GATE_NAMES`), threshold (-1: the gate's default), the global
  operation index the scalar array assigns (so deterministic fault plans
  target identical sites), metadata flag and logic level, with CSR input
  and output columns;
* the **preset** and **read** tapes — architectural presets (the ECiM
  parity-bank reset) and checker-transfer reads, the points where preset
  and memory errors strike;
* the **ECiM check tape** — per logic level the data and parity columns,
  each syndrome bit's covering data columns, the level code's
  ``A[:, :d]^T`` and its dense syndrome → error-pattern decode table
  (:mod:`repro.ecc`);
* the **TRiM vote tape** — per logic level the data columns, the
  redundant-copy column groups and the copy count.

Each scheme has one emitter that lays out every level at once with array
arithmetic.  The netlist's gates are read once, in execution order
(:class:`_Levels`); every gate then fires one fixed-shape block of the gate
tape.  ECiM reads each level width's code once (memoised on the executor),
takes its (data bit, parity bit) cover pairs with ``np.nonzero(A.T)`` and
places each gate's block — the data firing (single-output style: plus one
re-execution per covered parity bit), then NOR (+ COPY) + THR per cover
pair — by cumulative counts; a parity bit's source and target bank
alternate with its running cover count.

The tape is lowered to the wave schedule of :mod:`repro.core.soa` and
interpreted 64 trials per word by :mod:`repro.core.bitpacked`, the one tape
engine; the scalar object model stays the oracle it must match.  This
module also keeps the engine's result record :class:`BatchResult` and the
stuck-cell table :class:`_StuckCells`.  Input sampling is shared bit-for-bit
with the scalar path via :func:`sample_input_matrix`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from itertools import chain
from typing import Dict, List, Sequence, Tuple, Union

import numpy as np

from repro.compiler.netlist import Netlist
from repro.core.executor import EcimExecutor, TrimExecutor, UnprotectedExecutor
from repro.errors import PimError, ProtectionError
from repro.pim.faults import FaultModelSpec
from repro.pim.gates import GateType

__all__ = [
    "KIND_GATE",
    "KIND_PRESET",
    "KIND_READ",
    "KIND_ECIM",
    "KIND_TRIM",
    "GATE_NAMES",
    "ExecutionPlan",
    "BatchResult",
    "compile_plan",
    "sample_input_matrix",
]

#: Step-kind codes of ``step_kind`` (and of the lowered plan's ``unit_kind``,
#: where a KIND_GATE unit is one gate group).
KIND_GATE, KIND_PRESET, KIND_READ, KIND_ECIM, KIND_TRIM = range(5)

#: The tape's gate vocabulary: firing ``f`` fires ``GATE_NAMES[gate_code[f]]``.
GATE_NAMES: Tuple[str, ...] = GateType.NATIVE
_GATE_CODE = {name: code for code, name in enumerate(GATE_NAMES)}
_NOR, _COPY, _THR = (_GATE_CODE[g] for g in (GateType.NOR, GateType.COPY, GateType.THR))


def _frozen(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array


def _ptr(widths: np.ndarray) -> np.ndarray:
    """CSR pointer of consecutive chunks of the given widths."""
    ptr = np.zeros(widths.shape[0] + 1, dtype=np.intp)
    np.cumsum(widths, out=ptr[1:])
    return ptr


def _ranges(starts: np.ndarray, widths: np.ndarray) -> np.ndarray:
    """Flat indices of the ranges ``[start, start + width)``, concatenated."""
    ends = np.cumsum(widths, dtype=np.intp)
    total = int(ends[-1]) if ends.shape[0] else 0
    return np.repeat(starts - (ends - widths), widths) + np.arange(total)


def _concat(arrays: List[np.ndarray]) -> np.ndarray:
    return np.concatenate(arrays) if arrays else np.zeros(0, dtype=np.intp)


#: One CSR part: ``(positions, widths, cols)`` — the chunks it fills, their
#: widths and their columns, concatenated in ``positions`` order.
CsrPart = Tuple[np.ndarray, np.ndarray, np.ndarray]


def _place(n_chunks: int, parts: Sequence[CsrPart]) -> Tuple[np.ndarray, np.ndarray]:
    """Assemble one ``(ptr, cols)`` CSR list of ``n_chunks`` chunks."""
    widths = np.zeros(n_chunks, dtype=np.intp)
    for positions, part_widths, _ in parts:
        widths[positions] = part_widths
    ptr = _ptr(widths)
    cols = np.empty(ptr[-1], dtype=np.intp)
    for positions, part_widths, part_cols in parts:
        cols[_ranges(ptr[positions], part_widths)] = part_cols
    return ptr, cols


def _columns(*columns: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """``(widths, cols)`` of chunks that each list one entry of every
    argument, in argument order."""
    stacked = np.stack(columns, axis=1)
    return np.full(stacked.shape[0], stacked.shape[1], dtype=np.intp), stacked.ravel()


def _no_ptr() -> np.ndarray:
    return np.zeros(1, dtype=np.intp)


def _no_cols() -> np.ndarray:
    return np.zeros(0, dtype=np.intp)


@dataclass(eq=False, frozen=True)
class ExecutionPlan:
    """A compiled, scheme-specific instruction tape for one netlist, as flat
    read-only arrays.  ``*_ptr``/``*_cols`` pairs are CSR lists of plan
    columns, one chunk per entry of their tape."""

    scheme: str
    multi_output: bool
    n_cols: int
    netlist: Netlist
    input_cols: np.ndarray
    output_cols: np.ndarray
    const1_col: int
    n_gate_ops: int

    step_kind: np.ndarray          # (n_steps,) int8 KIND_* code

    # Gate firings in tape order.
    gate_code: np.ndarray          # (n_gates,) int8 → GATE_NAMES
    gate_threshold: np.ndarray     # (n_gates,) int64, -1: the gate's default
    gate_op_index: np.ndarray      # (n_gates,) int64
    gate_is_metadata: np.ndarray   # (n_gates,) bool
    gate_logic_level: np.ndarray   # (n_gates,) intp, 1-based
    gate_in_ptr: np.ndarray
    gate_in_cols: np.ndarray
    gate_out_ptr: np.ndarray
    gate_out_cols: np.ndarray

    # Preset tape: every listed cell is set to its step's value.
    preset_values: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.uint8))
    preset_ptr: np.ndarray = field(default_factory=_no_ptr)
    preset_cols: np.ndarray = field(default_factory=_no_cols)

    # Read tape (checker transfers).
    read_ptr: np.ndarray = field(default_factory=_no_ptr)
    read_cols: np.ndarray = field(default_factory=_no_cols)

    # ECiM check tape.  Syndrome bit b of check c is chunk
    # ecim_parity_ptr[c] + b of the cover lists: the data columns it covers.
    # ``ecim_a_t[c]`` is the level code's A[:, :d]^T, (d, r) int64, so the
    # syndrome is (data @ a_t + parity) mod 2; ``ecim_lut[c]`` row s lists
    # the codeword positions the decoder flips for packed syndrome s, -1
    # padded: one column for a single-error code (Hamming), t for BCH-t.  An
    # all -1 row for a non-zero syndrome means detected but uncorrectable,
    # exactly the scalar decoders' semantics.  Levels of one width share
    # one matrix and one table.
    ecim_data_ptr: np.ndarray = field(default_factory=_no_ptr)
    ecim_data_cols: np.ndarray = field(default_factory=_no_cols)
    ecim_parity_ptr: np.ndarray = field(default_factory=_no_ptr)
    ecim_parity_cols: np.ndarray = field(default_factory=_no_cols)
    ecim_cover_ptr: np.ndarray = field(default_factory=_no_ptr)
    ecim_cover_cols: np.ndarray = field(default_factory=_no_cols)
    ecim_a_t: Tuple[np.ndarray, ...] = ()
    ecim_lut: Tuple[np.ndarray, ...] = ()

    # TRiM vote tape: vote c compares its data columns with the copy groups
    # sum(trim_n_copies[:c] - 1) .. of the copy CSR (n_copies - 1 groups).
    trim_data_ptr: np.ndarray = field(default_factory=_no_ptr)
    trim_data_cols: np.ndarray = field(default_factory=_no_cols)
    trim_copy_ptr: np.ndarray = field(default_factory=_no_ptr)
    trim_copy_cols: np.ndarray = field(default_factory=_no_cols)
    trim_n_copies: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64))

    @property
    def n_inputs(self) -> int:
        return int(self.input_cols.shape[0])

    @property
    def n_outputs(self) -> int:
        return int(self.output_cols.shape[0])

    def gate_fault_sites(self) -> List[Tuple[int, int]]:
        """Every (operation index, output position) a single logic fault can
        strike — the site enumeration exhaustive SEP sweeps iterate."""
        widths = np.diff(self.gate_out_ptr)
        ops = np.repeat(self.gate_op_index, widths)
        positions = np.arange(ops.shape[0]) - np.repeat(self.gate_out_ptr[:-1], widths)
        return list(zip(ops.tolist(), positions.tolist()))


# ---------------------------------------------------------------------- #
# Plan compilation
# ---------------------------------------------------------------------- #
def _gate_arrays(nodes) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """``(code, threshold, in_ptr, in_signals, out_signals)`` of a sequence
    of netlist gates: the one pass of per-gate Python every compile makes."""
    n = len(nodes)
    code = np.fromiter((_GATE_CODE[node.gate] for node in nodes), dtype=np.int8, count=n)
    threshold = np.fromiter(
        (-1 if node.threshold is None else node.threshold for node in nodes),
        dtype=np.int64,
        count=n,
    )
    inputs = [node.inputs for node in nodes]
    in_ptr = _ptr(np.fromiter(map(len, inputs), dtype=np.intp, count=n))
    in_signals = np.fromiter(chain.from_iterable(inputs), dtype=np.intp, count=in_ptr[-1])
    out_signals = np.fromiter((node.output for node in nodes), dtype=np.intp, count=n)
    return code, threshold, in_ptr, in_signals, out_signals


def _signal_cols(executor, signals) -> np.ndarray:
    """The executor's ``column_of``, vectorised: signals keep their id,
    the two constants map to their columns."""
    signals = np.asarray(signals, dtype=np.intp)
    constant = np.where(
        signals == Netlist.CONST_ZERO, executor.const0_col, executor.const1_col
    )
    return np.where(signals >= 0, signals, constant)


@dataclass(eq=False, frozen=True)
class _Levels:
    """The netlist's gates in execution order — level by level, as the
    scalar executor fires them — with their plan columns."""

    sizes: np.ndarray      # (n_levels,) gates per level
    level_ptr: np.ndarray  # (n_levels + 1,) first gate of each level
    level: np.ndarray      # (n,) 1-based logic level
    position: np.ndarray  # (n,) position within the level
    code: np.ndarray      # (n,) int8 → GATE_NAMES
    threshold: np.ndarray  # (n,) int64, -1 for the default
    in_ptr: np.ndarray
    in_cols: np.ndarray
    out_cols: np.ndarray  # (n,) the gate's data column


def _levels(executor) -> _Levels:
    levels = executor._levels
    sizes = np.fromiter(map(len, levels), dtype=np.intp, count=len(levels))
    gates = executor.netlist.gates
    nodes = [gates[i] for i in chain.from_iterable(levels)]
    code, threshold, in_ptr, in_signals, out_signals = _gate_arrays(nodes)
    level_ptr = _ptr(sizes)
    return _Levels(
        sizes=sizes,
        level_ptr=level_ptr,
        level=np.repeat(np.arange(1, sizes.shape[0] + 1), sizes),
        position=np.arange(len(nodes)) - np.repeat(level_ptr[:-1], sizes),
        code=code,
        threshold=threshold,
        in_ptr=in_ptr,
        in_cols=_signal_cols(executor, in_signals),
        out_cols=_signal_cols(executor, out_signals),
    )


@dataclass(eq=False, frozen=True)
class _Firings:
    """Gate firings of one role, at gate-tape positions ``at``: their gate
    and threshold (per firing or shared), metadata flag and columns."""

    at: np.ndarray
    code: Union[int, np.ndarray]
    threshold: Union[int, np.ndarray]
    is_metadata: bool
    ins: Tuple[np.ndarray, np.ndarray]   # (widths, cols)
    outs: Tuple[np.ndarray, np.ndarray]


def _node_firings(levels: _Levels, gates, at, is_metadata, outs) -> _Firings:
    """Firings of the given netlist gates (indices into ``levels``) on
    their own inputs."""
    widths = np.diff(levels.in_ptr)[gates]
    return _Firings(
        at=at,
        code=levels.code[gates],
        threshold=levels.threshold[gates],
        is_metadata=is_metadata,
        ins=(widths, levels.in_cols[_ranges(levels.in_ptr[gates], widths)]),
        outs=outs,
    )


def _gate_tape(logic_level: np.ndarray, parts: Sequence[_Firings]) -> Dict[str, np.ndarray]:
    """The gate-tape fields of a plan whose firings ``parts`` tile the tape;
    firing ``f`` is operation ``f``."""
    n = logic_level.shape[0]
    code = np.empty(n, dtype=np.int8)
    threshold = np.empty(n, dtype=np.int64)
    is_metadata = np.empty(n, dtype=bool)
    for part in parts:
        code[part.at] = part.code
        threshold[part.at] = part.threshold
        is_metadata[part.at] = part.is_metadata
    in_ptr, in_cols = _place(n, [(part.at, *part.ins) for part in parts])
    out_ptr, out_cols = _place(n, [(part.at, *part.outs) for part in parts])
    return dict(
        gate_code=code,
        gate_threshold=threshold,
        gate_op_index=np.arange(n, dtype=np.int64),
        gate_is_metadata=is_metadata,
        gate_logic_level=logic_level,
        gate_in_ptr=in_ptr,
        gate_in_cols=in_cols,
        gate_out_ptr=out_ptr,
        gate_out_cols=out_cols,
    )


def _step_kinds(n_levels: int, *runs) -> np.ndarray:
    """``step_kind`` of a tape whose every level is the same sequence of
    ``(kind, count)`` runs; a count is per level or shared."""
    kinds = np.tile(np.array([kind for kind, _ in runs], dtype=np.int8), n_levels)
    counts = np.stack(
        [np.broadcast_to(np.asarray(count, dtype=np.intp), (n_levels,)) for _, count in runs],
        axis=1,
    )
    return np.repeat(kinds, counts.ravel())


def _emit_unprotected(executor: UnprotectedExecutor, levels: _Levels) -> Dict[str, object]:
    every = np.arange(levels.level.shape[0])
    return dict(
        step_kind=_step_kinds(levels.sizes.shape[0], (KIND_GATE, levels.sizes)),
        **_gate_tape(
            levels.level, [_node_firings(levels, every, every, False, _columns(levels.out_cols))]
        ),
    )


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


def _decode_lut(code) -> np.ndarray:
    """Dense form of the code's own decode table: absent syndromes stay -1
    (detected but uncorrectable), so batched decoding inherits the scalar
    checker's semantics from the single implementation in repro.ecc."""
    t = _code_correction_capability(code)
    if t == 1 and hasattr(code, "single_error_syndrome_table"):
        lut = np.full((1 << code.n_parity, 1), -1, dtype=np.int64)
        for syndrome, position in code.single_error_syndrome_table().items():
            lut[sum(bit << j for j, bit in enumerate(syndrome)), 0] = position
        return lut
    return _multi_error_decode_lut(code, t)


@dataclass(eq=False, frozen=True)
class _LevelCode:
    """The code of one level width, read once.  Cover pairs run data bit
    by data bit, parity bits ascending (the scalar executor's order)."""

    n_parity: int
    pair_data: np.ndarray    # (m,) data bit of each cover pair
    pair_bit: np.ndarray     # (m,) parity bit of each cover pair
    pair_bank: np.ndarray    # (m,) bank holding the parity bit before the pair's XOR
    final_bank: np.ndarray   # (r,) bank holding each parity bit after the level
    cover_width: np.ndarray  # (r,) data bits each parity bit covers
    cover_data: np.ndarray   # (m,) the covered data bits, parity bit by parity bit
    a_t: np.ndarray          # (d, r) int64
    lut: np.ndarray          # (2^r, t) int64


def _level_code(code, width: int) -> _LevelCode:
    a_t = code.a_matrix[:, :width].T.astype(np.int64)
    r = code.n_parity
    pair_data, pair_bit = np.nonzero(a_t)
    by_bit = np.argsort(pair_bit, kind="stable")
    cover_width = np.bincount(pair_bit, minlength=r)
    # A parity bit's XORs ping-pong between its two banks: the k-th pair
    # on a bit reads bank k mod 2 and writes the other.
    running = np.empty(pair_bit.shape[0], dtype=np.intp)
    running[by_bit] = np.arange(by_bit.shape[0]) - np.repeat(_ptr(cover_width)[:-1], cover_width)
    return _LevelCode(
        n_parity=r,
        pair_data=pair_data,
        pair_bit=pair_bit,
        pair_bank=running & 1,
        final_bank=cover_width & 1,
        cover_width=cover_width,
        cover_data=pair_data[by_bit],
        a_t=_frozen(a_t),
        lut=_frozen(_decode_lut(code)),
    )


def _emit_ecim(executor: EcimExecutor, levels: _Levels) -> Dict[str, object]:
    n_levels = levels.sizes.shape[0]
    by_width: Dict[int, _LevelCode] = {}
    codes = []
    for width in levels.sizes.tolist():
        if width not in by_width:
            by_width[width] = _level_code(executor.level_code(width), width)
        codes.append(by_width[width])
    level_ptr = levels.level_ptr
    n_parity = np.array([code.n_parity for code in codes], dtype=np.intp)
    n_pairs = np.array([code.pair_data.shape[0] for code in codes], dtype=np.intp)
    pair_level_start = np.repeat(level_ptr[:-1], n_pairs)

    # Every (gate, parity bit) cover pair of the tape, gate by gate.
    pair_gate = _concat([code.pair_data for code in codes]) + pair_level_start
    pair_bit = _concat([code.pair_bit for code in codes])
    pair_bank = _concat([code.pair_bank for code in codes])
    n_gates = levels.level.shape[0]
    covers = np.bincount(pair_gate, minlength=n_gates)
    nth = np.arange(pair_gate.shape[0]) - np.repeat(_ptr(covers)[:-1], covers)

    # Each gate's block: its data firing, in single-output style one
    # re-execution into each covered bit's staging cell, then one XOR
    # chain link per covered bit (NOR, single-output COPY, THR).
    multi_output = executor.multi_output
    link = 2 if multi_output else 3
    block = 1 + covers * (link if multi_output else link + 1)
    block_ptr = _ptr(block)
    start = block_ptr[:-1]
    link_at = start[pair_gate] + 1 + nth * link
    if not multi_output:
        link_at += covers[pair_gate]
    staging = executor._staging_col(pair_bit)
    source = executor._parity_col(pair_bank, pair_bit)
    scratch1, scratch2 = (
        np.full(pair_gate.shape[0], col, dtype=np.intp) for col in executor._xor_scratch_cols()
    )
    every = np.arange(n_gates)
    if multi_output:
        out_ptr = _ptr(1 + covers)
        outs = np.empty(out_ptr[-1], dtype=np.intp)
        outs[out_ptr[:-1]] = levels.out_cols
        outs[out_ptr[pair_gate] + 1 + nth] = staging
        parts = [
            _node_firings(levels, every, start, False, (1 + covers, outs)),
            _Firings(
                link_at, _NOR, -1, True, _columns(staging, source), _columns(scratch1, scratch2)
            ),
        ]
    else:
        parts = [
            _node_firings(levels, every, start, False, _columns(levels.out_cols)),
            _node_firings(levels, pair_gate, start[pair_gate] + 1 + nth, True, _columns(staging)),
            _Firings(link_at, _NOR, -1, True, _columns(staging, source), _columns(scratch1)),
            _Firings(link_at + 1, _COPY, -1, True, _columns(scratch1), _columns(scratch2)),
        ]
    parts.append(
        _Firings(
            link_at + link - 1, _THR, -1, True,
            _columns(staging, source, scratch1, scratch2),
            _columns(executor._parity_col(1 - pair_bank, pair_bit)),
        )
    )

    # Barriers: each level opens with a reset of both banks of every parity
    # bit and closes with the data and parity reads and the check.
    parity_ptr = _ptr(n_parity)
    bit = np.arange(parity_ptr[-1]) - np.repeat(parity_ptr[:-1], n_parity)
    final_bank = _concat([code.final_bank for code in codes])
    parity_cols = executor._parity_col(final_bank, bit)
    preset_widths, preset_cols = _columns(
        executor._parity_col(0, bit), executor._parity_col(1, bit)
    )
    every_level = np.arange(n_levels)
    read_ptr, read_cols = _place(
        2 * n_levels,
        [
            (2 * every_level, levels.sizes, levels.out_cols),
            (2 * every_level + 1, n_parity, parity_cols),
        ],
    )
    cover_width = _concat([code.cover_width for code in codes])
    cover_gate = _concat([code.cover_data for code in codes]) + pair_level_start
    return dict(
        step_kind=_step_kinds(
            n_levels,
            (KIND_PRESET, n_parity),
            (KIND_GATE, np.diff(block_ptr[level_ptr])),
            (KIND_READ, 2),
            (KIND_ECIM, 1),
        ),
        **_gate_tape(np.repeat(levels.level, block), parts),
        preset_values=np.zeros(bit.shape[0], dtype=np.uint8),
        preset_ptr=_ptr(preset_widths),
        preset_cols=preset_cols,
        read_ptr=read_ptr,
        read_cols=read_cols,
        ecim_data_ptr=level_ptr,
        ecim_data_cols=levels.out_cols,
        ecim_parity_ptr=parity_ptr,
        ecim_parity_cols=parity_cols,
        ecim_cover_ptr=_ptr(cover_width),
        ecim_cover_cols=levels.out_cols[cover_gate],
        ecim_a_t=tuple(code.a_t for code in codes),
        ecim_lut=tuple(code.lut for code in codes),
    )


def _emit_trim(executor: TrimExecutor, levels: _Levels) -> Dict[str, object]:
    n_copies = executor.n_copies
    n_levels = levels.sizes.shape[0]
    every = np.arange(levels.level.shape[0])
    copies = [executor._copy_col(c, levels.position) for c in range(n_copies - 1)]
    if executor.multi_output:
        block = 1
        parts = [_node_firings(levels, every, every, False, _columns(levels.out_cols, *copies))]
    else:
        # The data firing, then one re-execution per redundant copy.
        block = n_copies
        at = every * n_copies
        parts = [_node_firings(levels, every, at, False, _columns(levels.out_cols))]
        parts += [
            _node_firings(levels, every, at + 1 + c, True, _columns(cols))
            for c, cols in enumerate(copies)
        ]
    # Each level closes with a read of the data and of every copy, then
    # the vote.
    every_level = np.arange(n_levels)
    read_ptr, read_cols = _place(
        n_levels * n_copies,
        [
            (every_level * n_copies + c, levels.sizes, cols)
            for c, cols in enumerate([levels.out_cols] + copies)
        ],
    )
    copy_ptr, copy_cols = _place(
        n_levels * (n_copies - 1),
        [
            (every_level * (n_copies - 1) + c, levels.sizes, cols)
            for c, cols in enumerate(copies)
        ],
    )
    return dict(
        step_kind=_step_kinds(
            n_levels, (KIND_GATE, levels.sizes * block), (KIND_READ, n_copies), (KIND_TRIM, 1)
        ),
        **_gate_tape(np.repeat(levels.level, block), parts),
        read_ptr=read_ptr,
        read_cols=read_cols,
        trim_data_ptr=levels.level_ptr,
        trim_data_cols=levels.out_cols,
        trim_copy_ptr=copy_ptr,
        trim_copy_cols=copy_cols,
        trim_n_copies=np.full(n_levels, n_copies, dtype=np.int64),
    )


def compile_plan(
    netlist: Netlist,
    scheme: str,
    multi_output: bool = True,
    code_factory=None,
    n_copies: int = 3,
) -> ExecutionPlan:
    """Lower one (netlist, scheme, gate style) into an instruction tape.

    The scalar executor is instantiated once to reuse its column layout,
    level schedule and per-level codes verbatim; nothing is ever executed
    on its array.
    """
    scheme = scheme.strip().lower()
    if scheme == "unprotected":
        executor = UnprotectedExecutor(netlist)
        emit = _emit_unprotected
    elif scheme == "ecim":
        kwargs = {} if code_factory is None else {"code_factory": code_factory}
        executor = EcimExecutor(netlist, multi_output=multi_output, **kwargs)
        emit = _emit_ecim
    elif scheme == "trim":
        executor = TrimExecutor(netlist, multi_output=multi_output, n_copies=n_copies)
        emit = _emit_trim
    else:
        raise ProtectionError(f"unknown protection scheme {scheme!r}")
    tape = emit(executor, _levels(executor))
    for value in tape.values():
        if isinstance(value, np.ndarray):
            _frozen(value)
    return ExecutionPlan(
        scheme=scheme,
        multi_output=multi_output,
        n_cols=executor.array.cols,
        netlist=netlist,
        input_cols=_frozen(_signal_cols(executor, netlist.inputs)),
        output_cols=_frozen(_signal_cols(executor, netlist.outputs)),
        const1_col=executor.const1_col,
        n_gate_ops=int(tape["gate_code"].shape[0]),
        **tape,
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
