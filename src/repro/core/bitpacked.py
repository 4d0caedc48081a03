"""Bit-packed trial engine: 64 trials per uint64 word over the SoA tape.

This is the one tape engine; the scalar object model
(:mod:`repro.core.executor`) is the oracle it must match.  The engine packs
the ``(B, n_cols)`` trial state into uint64 **bitplanes** of shape
``(ceil(B/64), n_cols)`` — trial ``t`` lives at bit ``t & 63`` of word
``t >> 6`` in every column — and evaluates each gate firing as a handful of
branch-free AND/OR/XOR/NOT word ops over all 64 trials of a word at once.
The interpreter dispatches on the dense :class:`~repro.core.soa.SoaPlan`
buffers, not on Python step objects.

Every fault source except stuck-at is first turned into one form — sparse
per-step flip events (:class:`_StepEvents`), grouped by tape step — which
the interpreter XORs into the gate output block or the preset/read
columns.  Every source is **byte-identical** to the scalar backend from
shared per-trial seeds (enforced by ``tests/differential/`` and
``tests/golden/``):

* deterministic ``fault_plan`` flips map straight to events;
* the stochastic fault stream (:mod:`repro.pim.faults`: one
  ``random.Random(seed)`` per trial, one lazy geometric countdown per
  injector call class) is replayed in O(hits) per trial by jumping each
  class from draw to draw over its :class:`~repro.core.soa.SiteClass`
  table and serving the draws in scalar call order — a cell at rate 1e-3
  draws a handful of uniforms per trial, not one per site;
* burst flip decisions are data-independent, so the :class:`_BurstInjection`
  state machine walks the tape over per-trial countdowns and emits the
  scalar injector's flips;
* stuck-at re-applies its stuck value at the scalar injector's touch
  points instead.

Tail lanes (trial indices >= B in the last word) hold whatever the word
ops produce; every per-trial reduction unpacks through
:func:`unpack_trials`, which slices them away, and flip events only ever
name real trials, so they can never leak into outcomes.
"""

from __future__ import annotations

import heapq
import math
import random
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro.compiler.netlist import Netlist
from repro.core.batched import BatchResult, _StuckCells
from repro.core.faultplan import FaultPlanArrays
from repro.core.soa import (
    KIND_ECIM,
    KIND_GATE,
    KIND_PRESET,
    KIND_READ,
    KIND_TRIM,
    SiteClass,
    SoaPlan,
)
from repro.errors import ProtectionError
from repro.pim.faults import FaultModel, FaultModelSpec, geometric_gap
from repro.pim.gates import GateType
from repro.pim.vector import TABLE_MAX_INPUTS, truth_table, vector_gate_output

__all__ = [
    "WORD_BITS",
    "n_words",
    "lane_mask",
    "pack_trials",
    "unpack_trials",
    "bitpacked_golden_outputs",
    "run_packed",
]

#: Trials per state word.
WORD_BITS = 64

_FULL = np.uint64(0xFFFFFFFFFFFFFFFF)
_ONE = np.uint64(1)


# ---------------------------------------------------------------------- #
# Pack / unpack transposition helpers
# ---------------------------------------------------------------------- #
def n_words(batch: int) -> int:
    """Words needed to hold one bit per trial of a B-trial batch."""
    return (int(batch) + WORD_BITS - 1) // WORD_BITS


def lane_mask(batch: int) -> np.ndarray:
    """Per-word valid-lane mask of a B-trial batch: bit ``t & 63`` of word
    ``t >> 6`` is set iff trial ``t < B`` — all-ones except (for ragged B)
    the tail of the last word."""
    if batch < 1:
        raise ProtectionError("a batch needs at least one trial")
    mask = np.full(n_words(batch), _FULL, dtype=np.uint64)
    tail = batch % WORD_BITS
    if tail:
        mask[-1] = (_ONE << np.uint64(tail)) - _ONE
    return mask

def pack_trials(bits: np.ndarray) -> np.ndarray:
    """Transpose a ``(B, k)`` 0/1 uint8 matrix into ``(ceil(B/64), k)``
    uint64 bitplanes (trial ``t`` → bit ``t & 63`` of word ``t >> 6``).

    Tail lanes of a ragged batch (B % 64 != 0) are zero-filled.  Exact
    inverse of :func:`unpack_trials` for any B.
    """
    bits = np.asarray(bits, dtype=np.uint8)
    if bits.ndim != 2:
        raise ProtectionError(f"expected a (B, k) bit matrix, got shape {bits.shape}")
    batch = bits.shape[0]
    words = n_words(batch)
    # packbits(axis=0, little): byte b of a column holds trials 8b..8b+7 at
    # bits 0..7 — already the low-to-high lane order within each word.
    packed_bytes = np.packbits(bits, axis=0, bitorder="little")
    padded = np.zeros((words * 8, bits.shape[1]), dtype=np.uint8)
    padded[: packed_bytes.shape[0]] = packed_bytes
    # Assemble 8 consecutive bytes little-endian into each word without
    # assuming host endianness.
    planes = np.zeros((words, bits.shape[1]), dtype=np.uint64)
    for byte in range(8):
        planes |= padded[byte::8].astype(np.uint64) << np.uint64(8 * byte)
    return planes


def unpack_trials(planes: np.ndarray, batch: int) -> np.ndarray:
    """Transpose ``(W, k)`` uint64 bitplanes back to a ``(batch, k)`` 0/1
    uint8 matrix, dropping the tail lanes beyond ``batch``."""
    planes = np.asarray(planes, dtype=np.uint64)
    if planes.ndim != 2:
        raise ProtectionError(f"expected (W, k) bitplanes, got shape {planes.shape}")
    if batch > planes.shape[0] * WORD_BITS:
        raise ProtectionError(
            f"{planes.shape[0]} words hold {planes.shape[0] * WORD_BITS} trials, "
            f"not {batch}"
        )
    as_bytes = np.empty((planes.shape[0] * 8, planes.shape[1]), dtype=np.uint8)
    for byte in range(8):
        as_bytes[byte::8] = (planes >> np.uint64(8 * byte)).astype(np.uint8)
    return np.unpackbits(as_bytes, axis=0, bitorder="little")[:batch]


def _unpack_flags(word_column: np.ndarray, batch: int) -> np.ndarray:
    """One (W,) word column → (batch,) bool vector."""
    return unpack_trials(word_column[:, None], batch)[:, 0].astype(bool)


# ---------------------------------------------------------------------- #
# Gate firings as word-op programs
# ---------------------------------------------------------------------- #
_PROGRAMS: Dict[Tuple[str, int, Optional[int]], Callable] = {}


def _minterm_program(gate: str, n_inputs: int, threshold: Optional[int]) -> Callable:
    """Generic branch-free form of one truth table: OR of AND-minterms over
    the (complemented) operand planes, inverting via the complement table
    when that halves the term count.  Exact for every native gate because
    the table itself comes from the scalar gate model."""
    table = truth_table(gate, n_inputs, threshold)
    invert = int(table.sum()) > table.size // 2
    minterms = np.nonzero(table == 0 if invert else table != 0)[0]

    def program(operands: np.ndarray) -> np.ndarray:
        acc: Optional[np.ndarray] = None
        for index in minterms:
            term: Optional[np.ndarray] = None
            for j in range(n_inputs):
                plane = operands[:, j] if (index >> j) & 1 else ~operands[:, j]
                term = plane if term is None else term & plane
            acc = term if acc is None else acc | term
        if acc is None:
            acc = np.zeros(operands.shape[0], dtype=np.uint64)
        return ~acc if invert else acc

    return program


def _wide_gate_program(gate: str, threshold: Optional[int]) -> Callable:
    """Fallback for firings wider than TABLE_MAX_INPUTS: bounce through the
    uint8 vector semantics (identical by construction, never hit by the
    shipped netlists)."""

    def program(operands: np.ndarray) -> np.ndarray:
        lanes = operands.shape[0] * WORD_BITS
        bits = unpack_trials(operands, lanes)
        return pack_trials(vector_gate_output(gate, bits, threshold)[:, None])[:, 0]

    return program


def _word_program(gate: str, n_inputs: int, threshold: Optional[int]) -> Callable:
    """Compile (and cache) one gate firing as a word-op program mapping
    ``(W, n_inputs)`` operand planes to the ``(W,)`` output plane."""
    key = (gate, n_inputs, threshold)
    program = _PROGRAMS.get(key)
    if program is not None:
        return program
    if n_inputs > TABLE_MAX_INPUTS:
        program = _wide_gate_program(gate, threshold)
    elif gate == GateType.COPY:
        program = lambda operands: operands[:, 0]  # noqa: E731
    elif gate == GateType.NOT:
        program = lambda operands: ~operands[:, 0]  # noqa: E731
    elif gate == GateType.NOR:
        program = lambda operands: ~np.bitwise_or.reduce(operands, axis=1)  # noqa: E731
    elif gate == GateType.NAND:
        program = lambda operands: ~np.bitwise_and.reduce(operands, axis=1)  # noqa: E731
    elif gate == GateType.MAJ and n_inputs == 3:
        program = lambda o: (  # noqa: E731
            (o[:, 0] & o[:, 1]) | (o[:, 0] & o[:, 2]) | (o[:, 1] & o[:, 2])
        )
    else:
        program = _minterm_program(gate, n_inputs, threshold)
    _PROGRAMS[key] = program
    return program


def _gate_words(gate: str, operands: np.ndarray, threshold: Optional[int]) -> np.ndarray:
    """Evaluate one firing on packed operand planes (THR normalising its
    default threshold exactly like :func:`~repro.pim.vector.truth_table`)."""
    if gate == GateType.THR:
        threshold = 3 if threshold is None else int(threshold)
    else:
        threshold = None
    return _word_program(gate, operands.shape[1], threshold)(operands)


# ---------------------------------------------------------------------- #
# Packed golden model
# ---------------------------------------------------------------------- #
def bitpacked_golden_outputs(
    netlist: Netlist, input_planes: np.ndarray, batch: int
) -> np.ndarray:
    """Fault-free netlist outputs for all B trials, evaluated entirely in
    the packed domain — byte-identical to
    :meth:`~repro.compiler.netlist.Netlist.evaluate_outputs` because the
    word programs come from the scalar gate model's truth tables."""
    words = input_planes.shape[0]
    values: Dict[int, np.ndarray] = {
        Netlist.CONST_ZERO: np.zeros(words, dtype=np.uint64),
        Netlist.CONST_ONE: np.full(words, _FULL, dtype=np.uint64),
    }
    for position, signal in enumerate(netlist.inputs):
        values[signal] = input_planes[:, position]
    for node in netlist.gates:
        operands = np.stack([values[s] for s in node.inputs], axis=1)
        values[node.output] = _gate_words(node.gate, operands, node.threshold)
    golden_planes = np.stack([values[s] for s in netlist.outputs], axis=1)
    return unpack_trials(golden_planes, batch)


# ---------------------------------------------------------------------- #
# Fault-injection schedules
# ---------------------------------------------------------------------- #
class _StepEvents:
    """Sparse flip events of one tape step in packed coordinates: trial
    word, lane (the step's output position or column position) and the
    trial's bit within its word."""

    __slots__ = ("words", "lanes", "bits")

    def __init__(self, words: np.ndarray, lanes: np.ndarray, bits: np.ndarray) -> None:
        self.words = words
        self.lanes = lanes
        self.bits = bits

    def apply(self, planes: np.ndarray, columns: Optional[np.ndarray] = None) -> None:
        """XOR the events into ``planes`` — a gate's ``(W, n_outputs)``
        output block, or the state through the step's ``columns``."""
        lanes = self.lanes if columns is None else columns[self.lanes]
        np.bitwise_xor.at(planes, (self.words, lanes), self.bits)


def _group_events(
    trials: np.ndarray, steps: np.ndarray, lanes: np.ndarray
) -> Dict[int, _StepEvents]:
    """Group parallel (trial, tape step, lane) flip events by tape step with
    one stable argsort — the single sparse form every schedule emits."""
    order = np.argsort(steps, kind="stable")
    steps = steps[order]
    trials = trials[order].astype(np.uint64)
    words = (trials >> np.uint64(6)).astype(np.intp)
    bits = _ONE << (trials & np.uint64(63))
    lanes = lanes[order].astype(np.intp, copy=False)
    bounds = np.concatenate(([0], np.flatnonzero(np.diff(steps)) + 1, [steps.size]))
    return {
        int(steps[lo]): _StepEvents(words[lo:hi], lanes[lo:hi], bits[lo:hi])
        for lo, hi in zip(bounds[:-1], bounds[1:])
        if hi > lo
    }


def _deterministic_schedule(
    soa: SoaPlan, plan_arrays: FaultPlanArrays, batch: int
) -> Tuple[Dict[int, _StepEvents], np.ndarray]:
    """Per-step packed XOR events of a whole batch of deterministic plans.

    A handful of numpy passes replaces per-step, per-entry targeting: map
    plan operations to gate slots, drop unknown operations and
    out-of-range positions (both inject nothing, exactly as on the scalar
    injector), count the surviving flips per trial with one bincount, and
    group the events by tape step.
    """
    trials = plan_arrays.trial_of_entry().astype(np.int64, copy=False)
    ops = plan_arrays.op_index
    positions = plan_arrays.position
    slot_table = soa.gate_slot_of_op
    known = (ops >= 0) & (ops < slot_table.shape[0])
    slots = np.where(known, slot_table[np.where(known, ops, 0)], -1)
    widths = np.diff(soa.gate_out_ptr)
    valid = (slots >= 0) & (positions >= 0)
    valid &= positions < widths[np.where(valid, slots, 0)]
    trials, slots, positions = trials[valid], slots[valid], positions[valid]
    faults = np.bincount(trials, minlength=batch).astype(np.int64, copy=False)
    return _group_events(trials, soa.gate_step_index[slots], positions), faults


def _require_seeds(kind: str, fault_seeds, batch: int) -> None:
    if fault_seeds is None or len(fault_seeds) != batch:
        raise ProtectionError(
            f"{kind} fault injection needs one fault seed per trial "
            f"(got {None if fault_seeds is None else len(fault_seeds)} "
            f"for {batch} trials)"
        )


def _stream_classes(soa: SoaPlan, model: FaultModel) -> List[Tuple[SiteClass, float]]:
    """The injector call classes ``model`` draws on, with their rates.
    Classes without sites or at rate 0 draw nothing and are left out."""
    candidates = (
        (soa.gate_sites, model.gate_error_rate),
        (soa.meta_sites, model.effective_metadata_error_rate),
        (soa.preset_sites, model.preset_error_rate),
        (soa.read_sites, model.memory_error_rate),
    )
    return [(sites, rate) for sites, rate in candidates if sites.size and rate > 0.0]


def _stream_hits(
    soa: SoaPlan, model: FaultModel, fault_seeds: Sequence[int], batch: int
) -> List[Tuple[SiteClass, np.ndarray, np.ndarray]]:
    """Every hit of the stochastic fault stream, as ``(class, trials,
    positions)`` per call class — O(hits) per trial.

    The scalar injector runs one :class:`~repro.pim.faults.GeometricCountdown`
    per call class over one ``random.Random(seed)``; a class draws at its
    first call and at its first call after each hit.  The replay jumps each
    class from draw to draw over its :class:`~repro.core.soa.SiteClass`
    table and serves the classes' draws in scalar call order (smallest
    ``call`` rank first), so it consumes the trial's generator exactly like
    the scalar walk.  Classes at rate >= 1 hit every site without drawing.
    """
    hits: List[Tuple[SiteClass, np.ndarray, np.ndarray]] = []
    drawn = []
    for sites, rate in _stream_classes(soa, model):
        if rate >= 1.0:
            hits.append((
                sites,
                np.repeat(np.arange(batch), sites.size),
                np.tile(np.arange(sites.size), batch),
            ))
        else:
            calls = memoryview(sites.call)  # Python ints on indexing, no copy
            drawn.append((sites, sites.size, calls, math.log1p(-rate), [], []))
    for trial, seed in enumerate(fault_seeds):
        draw = random.Random(seed).random
        # (call rank of the class's next draw, class, site position)
        heads = [(entry[2][0], index, 0) for index, entry in enumerate(drawn)]
        heapq.heapify(heads)
        while heads:
            _, index, position = heads[0]
            _, size, calls, log_miss, hit_trials, hit_positions = drawn[index]
            position += geometric_gap(draw(), log_miss)
            if position + 1 < size:
                heapq.heapreplace(heads, (calls[position + 1], index, position + 1))
            else:
                heapq.heappop(heads)
            if position < size:
                hit_trials.append(trial)
                hit_positions.append(position)
    for sites, _, _, _, hit_trials, hit_positions in drawn:
        hits.append((
            sites,
            np.asarray(hit_trials, dtype=np.intp),
            np.asarray(hit_positions, dtype=np.intp),
        ))
    return hits


def _exact_stochastic_schedule(
    soa: SoaPlan, model: FaultModel, fault_seeds: Optional[Sequence[int]], batch: int
) -> Tuple[Dict[int, _StepEvents], np.ndarray]:
    """Sparse per-step flip events of the stochastic fault stream
    (:func:`_stream_hits`).  Every hit counts as a fault; count-only hits
    (presets on gate outputs) emit no event."""
    faults = np.zeros(batch, dtype=np.int64)
    if not _stream_classes(soa, model):
        return {}, faults
    _require_seeds("stochastic", fault_seeds, batch)
    trials, steps, lanes = [], [], []
    for sites, hit_trials, positions in _stream_hits(soa, model, fault_seeds, batch):
        faults += np.bincount(hit_trials, minlength=batch)
        keep = sites.applied[positions]
        trials.append(hit_trials[keep])
        steps.append(sites.step[positions[keep]])
        lanes.append(sites.lane[positions[keep]])
    events = _group_events(np.concatenate(trials), np.concatenate(steps), np.concatenate(lanes))
    return events, faults


#: A countdown gap no execution reaches: larger gaps are clamped to it so
#: the per-trial gap arrays stay int64.
_NEVER = 1 << 62


class _BatchCountdown:
    """:class:`~repro.pim.faults.GeometricCountdown` of one call class for
    every trial of a batch: a per-trial gap (-1 until the class's next draw)
    and the trials' own generators, drawn only where a gap is due."""

    def __init__(self, rate: float, draws: Sequence[Callable[[], float]]) -> None:
        self.rate = rate
        self.log_miss = math.log1p(-rate) if 0.0 < rate < 1.0 else 0.0
        self.draws = draws
        self.gap = np.full(len(draws), -1, dtype=np.int64)

    def hit(self, trials: np.ndarray) -> np.ndarray:
        """One call of the class by each of ``trials``; returns which hit."""
        if not self.log_miss:
            return np.full(trials.shape[0], self.rate >= 1.0)
        gap = self.gap[trials]
        for index in np.flatnonzero(gap < 0):
            gap[index] = min(
                geometric_gap(self.draws[trials[index]](), self.log_miss), _NEVER
            )
        hit = gap == 0
        self.gap[trials] = np.where(hit, -1, gap - 1)
        return hit


class _BurstInjection:
    """Vectorised :class:`~repro.pim.faults.BurstFaultInjector` semantics.

    Per-trial state mirrors the scalar injector exactly: ``remaining`` burst
    flips, the operation index the burst ``expires`` at, and the gate,
    metadata and memory countdowns over the trial's own generator.  A trial
    inside a burst flips without drawing, so only idle trials advance their
    output countdowns.  Bursts wrap across gate firings (and hence across
    the row's output cells) the same way the scalar injector carries
    ``_burst_remaining`` into later operations until the correlation window
    expires.
    """

    def __init__(self, spec: FaultModelSpec, fault_seeds: Sequence[int]) -> None:
        batch = len(fault_seeds)
        draws = [random.Random(seed).random for seed in fault_seeds]
        rate = spec.gate_error_rate or 0.0
        self.gate = _BatchCountdown(rate, draws)
        self.meta = _BatchCountdown(rate, draws)
        self.memory = _BatchCountdown(spec.memory_error_rate or 0.0, draws)
        self.burst_length = spec.burst_length
        self.window = spec.correlation_window
        self.remaining = np.zeros(batch, dtype=np.int64)
        self.expires = np.full(batch, -1, dtype=np.int64)

    def gate_output(self, op_index: int, is_metadata: bool) -> np.ndarray:
        """One output cell of firing ``op_index`` in every trial; returns
        the trials whose cell flips."""
        in_burst = (self.remaining > 0) & (op_index <= self.expires)
        self.remaining[in_burst] -= 1
        idle = np.flatnonzero(~in_burst)
        started = idle[(self.meta if is_metadata else self.gate).hit(idle)]
        self.remaining[started] = self.burst_length - 1
        self.expires[started] = op_index + self.window
        in_burst[started] = True
        return np.flatnonzero(in_burst)


def _burst_schedule(
    soa: SoaPlan, spec: FaultModelSpec, fault_seeds: Sequence[int], batch: int
) -> Tuple[Dict[int, _StepEvents], np.ndarray]:
    """Pre-play the burst state machine over the tape: burst flip decisions
    are data-independent (they depend only on the per-trial streams and the
    operation schedule), so walking :class:`_BurstInjection` through the
    scalar call order yields the scalar injector's flips, which become
    sparse events like every other schedule's.  Bursts never touch presets,
    and memory errors strike reads independently of bursts."""
    _require_seeds("burst", fault_seeds, batch)
    burst = _BurstInjection(spec, fault_seeds)
    everyone = np.arange(batch)
    hit_trials, hit_steps, hit_lanes = [], [], []
    for index in range(soa.n_steps):
        kind = soa.step_kind[index]
        slot = soa.step_slot[index]
        if kind == KIND_GATE and burst.gate.rate > 0.0:
            op_index = int(soa.gate_op_index[slot])
            is_metadata = bool(soa.gate_is_metadata[slot])
            lanes = range(int(soa.gate_out_ptr[slot + 1] - soa.gate_out_ptr[slot]))
            flipped = [burst.gate_output(op_index, is_metadata) for _ in lanes]
        elif kind == KIND_READ and burst.memory.rate > 0.0:
            lanes = range(int(soa.read_ptr[slot + 1] - soa.read_ptr[slot]))
            flipped = [everyone[burst.memory.hit(everyone)] for _ in lanes]
        else:
            continue
        for lane, trials in zip(lanes, flipped):
            if trials.shape[0]:
                hit_trials.append(trials)
                hit_steps.append(np.full(trials.shape[0], index))
                hit_lanes.append(np.full(trials.shape[0], lane))
    if not hit_trials:
        return {}, np.zeros(batch, dtype=np.int64)
    trials = np.concatenate(hit_trials)
    events = _group_events(trials, np.concatenate(hit_steps), np.concatenate(hit_lanes))
    return events, np.bincount(trials, minlength=batch).astype(np.int64, copy=False)


# ---------------------------------------------------------------------- #
# Packed interpretation
# ---------------------------------------------------------------------- #
def _stuck_word_apply(
    state: np.ndarray,
    columns: np.ndarray,
    is_stuck: np.ndarray,
    value_word: np.uint64,
    batch: int,
) -> np.ndarray:
    """Packed :class:`_StuckCells` semantics: force afflicted cells among
    ``columns`` to the stuck value, returning per-trial counts of bits that
    actually changed (only real trial lanes count)."""
    hit = is_stuck[columns]
    if not hit.any():
        return np.zeros(batch, dtype=np.int64)
    stuck_cols = columns[hit]
    diff = state[:, stuck_cols] ^ value_word
    counts = unpack_trials(diff, batch).sum(axis=1, dtype=np.int64)
    state[:, stuck_cols] = value_word
    return counts


def run_packed(
    soa: SoaPlan,
    input_matrix: np.ndarray,
    fault_seeds: Optional[Sequence[int]] = None,
    fault_plan: "Union[Sequence[Mapping[int, int]], FaultPlanArrays, None]" = None,
    fault_model: Optional[FaultModelSpec] = None,
) -> BatchResult:
    """Interpret the SoA tape for all B trials, 64 per word.

    ``input_matrix`` is a ``(B, n_inputs)`` bit matrix in ``netlist.inputs``
    order.  At most one fault source drives a batch:

    * ``fault_plan`` — deterministic flips, per trial a mapping of global
      gate-operation index to the output position(s) to flip, or one
      :class:`~repro.core.faultplan.FaultPlanArrays` batch;
    * ``fault_model`` — a declarative
      :class:`~repro.pim.faults.FaultModelSpec` (stochastic / burst /
      stuck-at), with one ``fault_seeds`` entry per trial when it draws.

    Both are byte-identical to the scalar injectors (see the module
    docstring for how each becomes flip events).
    """
    plan = soa.plan
    matrix = np.asarray(input_matrix, dtype=np.uint8)
    if matrix.ndim != 2 or matrix.shape[1] != plan.n_inputs:
        raise ProtectionError(
            f"input matrix must be (B, {plan.n_inputs}), got shape {matrix.shape}"
        )
    batch = matrix.shape[0]
    if batch == 0:
        raise ProtectionError("a batch needs at least one trial")
    if fault_model is not None and fault_plan is not None:
        raise ProtectionError(
            "a batch takes one fault source: a fault_plan or a fault_model"
        )

    stuck: Optional[_StuckCells] = None
    events: Dict[int, _StepEvents] = {}
    faults = np.zeros(batch, dtype=np.int64)
    if fault_model is not None:
        if fault_model.kind == "stochastic":
            events, faults = _exact_stochastic_schedule(
                soa, fault_model.rate_model(), fault_seeds, batch
            )
        elif fault_model.kind == "stuck-at":
            stuck = _StuckCells(fault_model, plan.n_cols)
        elif not fault_model.is_error_free:  # burst
            events, faults = _burst_schedule(soa, fault_model, fault_seeds, batch)
    elif fault_plan is not None:
        if len(fault_plan) != batch:
            raise ProtectionError("fault_plan must supply one entry per trial")
        events, faults = _deterministic_schedule(
            soa, FaultPlanArrays.coerce(fault_plan), batch
        )

    words = n_words(batch)
    state = np.zeros((words, plan.n_cols), dtype=np.uint64)
    state[:, plan.const1_col] = _FULL
    input_planes = pack_trials(matrix)
    state[:, plan.input_cols] = input_planes

    detected = np.zeros(batch, dtype=bool)
    corrections = np.zeros(batch, dtype=np.int64)
    uncorrectable = np.zeros(batch, dtype=np.int64)
    programs = [_word_program(*key) for key in soa.tables]
    stuck_value = np.uint64(0)
    if stuck is not None:
        stuck_value = _FULL if stuck.value else np.uint64(0)

    step_kind, step_slot = soa.step_kind, soa.step_slot
    gate_in_ptr, gate_in_cols = soa.gate_in_ptr, soa.gate_in_cols
    gate_out_ptr, gate_out_cols = soa.gate_out_ptr, soa.gate_out_cols

    for index in range(soa.n_steps):
        kind = step_kind[index]
        slot = step_slot[index]
        if kind == KIND_GATE:
            in_cols = gate_in_cols[gate_in_ptr[slot]:gate_in_ptr[slot + 1]]
            out_lo, out_hi = gate_out_ptr[slot], gate_out_ptr[slot + 1]
            out_cols = gate_out_cols[out_lo:out_hi]
            ideal = programs[soa.gate_table_id[slot]](state[:, in_cols])
            if stuck is not None:
                state[:, out_cols] = ideal[:, None]
                faults += _stuck_word_apply(
                    state, out_cols, stuck.is_stuck, stuck_value, batch
                )
                continue
            step_events = events.get(index)
            if step_events is None:
                state[:, out_cols] = ideal[:, None]
                continue
            block = np.repeat(ideal[:, None], out_hi - out_lo, axis=1)
            step_events.apply(block)
            state[:, out_cols] = block
        elif kind == KIND_PRESET:
            columns = soa.preset_cols[soa.preset_ptr[slot]:soa.preset_ptr[slot + 1]]
            state[:, columns] = _FULL if soa.preset_values[slot] else np.uint64(0)
            step_events = events.get(index)
            if step_events is not None:
                step_events.apply(state, columns)
        elif kind == KIND_READ:
            columns = soa.read_cols[soa.read_ptr[slot]:soa.read_ptr[slot + 1]]
            if stuck is not None:
                faults += _stuck_word_apply(
                    state, columns, stuck.is_stuck, stuck_value, batch
                )
                continue
            step_events = events.get(index)
            if step_events is not None:
                step_events.apply(state, columns)
        elif kind == KIND_ECIM:
            data_cols = soa.ecim_data_cols[
                soa.ecim_data_ptr[slot]:soa.ecim_data_ptr[slot + 1]
            ]
            parity_cols = soa.ecim_parity_cols[
                soa.ecim_parity_ptr[slot]:soa.ecim_parity_ptr[slot + 1]
            ]
            a_t = soa.ecim_a_t[slot]
            data_planes = state[:, data_cols]
            syndrome_planes = state[:, parity_cols].copy()
            for bit in range(syndrome_planes.shape[1]):
                covering = np.flatnonzero(a_t[:, bit])
                if covering.size:
                    syndrome_planes[:, bit] ^= np.bitwise_xor.reduce(
                        data_planes[:, covering], axis=1
                    )
            syndrome = unpack_trials(syndrome_planes, batch).astype(np.int64)
            packed = syndrome @ soa.ecim_weights[slot]
            fired = packed != 0
            detected |= fired
            patterns = soa.ecim_lut[soa.ecim_lut_offset[slot] + packed]
            valid = patterns >= 0
            uncorrectable += fired & ~valid.any(axis=1)
            d = data_cols.shape[0]
            is_data = valid & (patterns < d)
            corrections += is_data.sum(axis=1, dtype=np.int64)
            rows, pattern_slots = np.nonzero(is_data)
            if rows.size:
                np.bitwise_xor.at(
                    state,
                    ((rows >> 6).astype(np.intp), data_cols[patterns[rows, pattern_slots]]),
                    _ONE << (rows.astype(np.uint64) & np.uint64(63)),
                )
        elif kind == KIND_TRIM:
            data_cols = soa.trim_data_cols[
                soa.trim_data_ptr[slot]:soa.trim_data_ptr[slot + 1]
            ]
            groups = soa.trim_copy_groups[slot]
            n_copies = int(soa.trim_n_copies[slot])
            data_planes = state[:, data_cols]
            if n_copies == 3 and len(groups) == 2:
                copy1 = state[:, groups[0]]
                copy2 = state[:, groups[1]]
                voted = (
                    (data_planes & copy1) | (data_planes & copy2) | (copy1 & copy2)
                )
                disagree = (data_planes ^ copy1) | (data_planes ^ copy2)
                detected |= _unpack_flags(
                    np.bitwise_or.reduce(disagree, axis=1), batch
                )
                corrections += unpack_trials(data_planes ^ voted, batch).sum(
                    axis=1, dtype=np.int64
                )
                state[:, data_cols] = voted
            else:
                copies = [unpack_trials(data_planes, batch)] + [
                    unpack_trials(state[:, cols], batch) for cols in groups
                ]
                total = np.sum(copies, axis=0, dtype=np.int64)
                voted_bits = (total * 2 > n_copies).astype(np.uint8)
                disagree = (total != 0) & (total != n_copies)
                detected |= disagree.any(axis=1)
                corrections += (copies[0] != voted_bits).sum(axis=1, dtype=np.int64)
                state[:, data_cols] = pack_trials(voted_bits)
        else:  # pragma: no cover - defensive
            raise ProtectionError(f"unknown SoA step kind {int(kind)}")

    return BatchResult(
        outputs=unpack_trials(state[:, plan.output_cols], batch),
        golden=bitpacked_golden_outputs(plan.netlist, input_planes, batch),
        detected=detected,
        corrections=corrections,
        uncorrectable_levels=uncorrectable,
        faults_injected=faults,
    )
