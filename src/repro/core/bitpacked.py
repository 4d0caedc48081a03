"""Bit-packed trial engine: 64 trials per uint64 word over the SoA wave
schedule.

This is the one tape engine; the scalar object model
(:mod:`repro.core.executor`) is the oracle it must match.  The engine packs
the trial state into uint64 **bitplanes** of shape ``(ceil(B/64),
n_state_cols)`` — trial ``t`` lives at bit ``t & 63`` of word ``t >> 6`` in
every column, and every gate output cell has its own SSA state column
(:mod:`repro.core.soa`).  It walks the plan's **units** in order, not its
tape steps:

* a gate group (the gates of one wave between two barriers that share a
  truth table) gathers its operands as one ``(W, g, k)`` block, evaluates
  them with one bit-sliced kernel of :data:`_GROUP_KERNELS`, repeats lanes
  for multi-output firings, XORs in the unit's flip events, re-forces stuck
  cells (``is_stuck[phys]``) and writes its contiguous block of SSA
  columns;
* a barrier (preset, read, ECiM check, TRiM vote) runs as one step on the
  state columns live at its place in the tape.

The fault-free reference runs the same kernels over the netlist grouped by
(logic level, truth table) (:class:`~repro.core.soa.GoldenSchedule`).

Every fault source except stuck-at is first turned into one form — sparse
flip events keyed by (unit, lane in the unit's block)
(:class:`_UnitEvents`) — which the interpreter XORs into the group's
output block or the preset/read columns.  Every source is
**byte-identical** to the scalar backend from shared per-trial seeds
(enforced by ``tests/differential/`` and ``tests/golden/``):

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
from functools import lru_cache, partial
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
    GoldenSchedule,
    SiteClass,
    SoaPlan,
    golden_schedule,
)
from repro.errors import GateOperandError, ProtectionError
from repro.pim.faults import FaultModel, FaultModelSpec, geometric_gap
from repro.pim.gates import GateType

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
# Group kernels: one truth table over a (W, g, k) operand block
# ---------------------------------------------------------------------- #
@lru_cache(maxsize=None)
def _tally_updates(k: int, count: int) -> Tuple[Tuple[int, int], ...]:
    """The ``(input, tally)`` updates of :func:`_at_least` after input 0:
    input ``j`` carries into tally ``i`` from the top down, and tallies that
    can no longer reach ``count`` with the inputs left are skipped."""
    return tuple(
        (j, i)
        for j in range(1, k)
        for i in range(min(j, count - 1), max(0, count - k + j) - 1, -1)
    )


def _at_least(operands: np.ndarray, count: int) -> np.ndarray:
    """Lanes with at least ``count`` of the ``k`` operand planes set, as a
    bit-sliced saturating counter: after input ``j``, ``tally[i]`` holds the
    lanes with more than ``i`` ones among inputs ``0..j``."""
    planes = [operands[..., j] for j in range(operands.shape[-1])]
    tally = planes[:1]
    for j, i in _tally_updates(len(planes), count):
        carry = tally[i - 1] & planes[j] if i else planes[j]
        if i == len(tally):
            tally.append(carry)
        else:
            tally[i] = tally[i] | carry
    return tally[count - 1]


#: Bit-sliced form of every native gate over ``(..., k)`` operand planes
#: (the last axis holds a firing's inputs), at any fan-in.  ``threshold``
#: is THR's normalised threshold and ``None`` for every other gate.
_GROUP_KERNELS: Dict[str, Callable[[np.ndarray, Optional[int]], np.ndarray]] = {
    GateType.NOR: lambda o, threshold: ~np.bitwise_or.reduce(o, axis=-1),
    GateType.NAND: lambda o, threshold: ~np.bitwise_and.reduce(o, axis=-1),
    GateType.NOT: lambda o, threshold: ~o[..., 0],
    GateType.COPY: lambda o, threshold: o[..., 0],
    # THR: 1 iff at least `threshold` zeros, i.e. not k - threshold + 1 ones.
    GateType.THR: lambda o, threshold: ~_at_least(o, o.shape[-1] - threshold + 1),
    GateType.MAJ: lambda o, threshold: _at_least(o, (o.shape[-1] + 1) // 2),
}


def _group_kernel(
    gate: str, n_inputs: int, threshold: Optional[int]
) -> Callable[[np.ndarray], np.ndarray]:
    """The kernel of one truth table ``(gate, n_inputs, threshold)``, with
    the scalar gate model's operand rules checked once up front."""
    if gate not in _GROUP_KERNELS:
        raise GateOperandError(f"not a native in-array gate: {gate!r}")
    if n_inputs < 1:
        raise GateOperandError("a gate needs at least one input")
    if gate in (GateType.NOT, GateType.COPY) and n_inputs != 1:
        raise GateOperandError(f"{gate.upper()} takes exactly one input")
    if gate == GateType.MAJ and n_inputs % 2 == 0:
        raise GateOperandError("majority vote requires an odd number of inputs")
    if gate == GateType.THR:
        threshold = 3 if threshold is None else int(threshold)
        if not 1 <= threshold <= n_inputs:
            raise GateOperandError(
                f"threshold must be within 1..{n_inputs}, got {threshold}"
            )
    return partial(_GROUP_KERNELS[gate], threshold=threshold)


# ---------------------------------------------------------------------- #
# Packed golden model
# ---------------------------------------------------------------------- #
def _golden_planes(schedule: GoldenSchedule, input_planes: np.ndarray) -> np.ndarray:
    """Run a :class:`~repro.core.soa.GoldenSchedule` on packed inputs:
    one kernel call per (logic level, truth table) group."""
    words = input_planes.shape[0]
    values = np.zeros((words, schedule.n_values), dtype=np.uint64)
    values[:, schedule.n_values - 1] = _FULL  # CONST_ONE
    values[:, schedule.input_cols] = input_planes
    kernels = [_group_kernel(*key) for key in schedule.tables]
    bounds = schedule.group_ptr.tolist()
    in_bounds = schedule.in_ptr[schedule.group_ptr].tolist()
    for group, table in enumerate(schedule.group_table.tolist()):
        lo, hi = bounds[group], bounds[group + 1]
        operands = values[:, schedule.in_cols[in_bounds[group]:in_bounds[group + 1]]]
        values[:, schedule.out_cols[lo:hi]] = kernels[table](
            operands.reshape(words, hi - lo, -1)
        )
    return values[:, schedule.output_cols]


def bitpacked_golden_outputs(
    netlist: Netlist, input_planes: np.ndarray, batch: int
) -> np.ndarray:
    """Fault-free netlist outputs for all B trials, evaluated entirely in
    the packed domain, one kernel call per (logic level, truth table) —
    byte-identical to :meth:`~repro.compiler.netlist.Netlist.evaluate_outputs`
    because the kernels implement the scalar gate model's semantics."""
    return unpack_trials(_golden_planes(golden_schedule(netlist), input_planes), batch)


# ---------------------------------------------------------------------- #
# Fault-injection schedules
# ---------------------------------------------------------------------- #
class _UnitEvents:
    """Sparse flip events of one unit in packed coordinates: trial word,
    block lane (the lane in a gate group's output block, or the barrier
    step's column position) and the trial's bit within its word."""

    __slots__ = ("words", "lanes", "bits")

    def __init__(self, words: np.ndarray, lanes: np.ndarray, bits: np.ndarray) -> None:
        self.words = words
        self.lanes = lanes
        self.bits = bits

    def apply(self, planes: np.ndarray, columns: Optional[np.ndarray] = None) -> None:
        """XOR the events into ``planes`` — a gate group's ``(W, lanes)``
        output block, or the state through a barrier step's ``columns``."""
        lanes = self.lanes if columns is None else columns[self.lanes]
        np.bitwise_xor.at(planes, (self.words, lanes), self.bits)


def _group_events(
    soa: SoaPlan, trials: np.ndarray, steps: np.ndarray, lanes: np.ndarray
) -> Dict[int, _UnitEvents]:
    """Key parallel (trial, tape step, lane) flip events by (unit, block
    lane) in one vectorised remap, grouped per unit with one stable argsort
    — the single sparse form every schedule emits."""
    units = soa.unit_of_step[steps]
    order = np.argsort(units, kind="stable")
    units = units[order]
    trials = trials[order].astype(np.uint64)
    words = (trials >> np.uint64(6)).astype(np.intp)
    bits = _ONE << (trials & np.uint64(63))
    lanes = soa.lane_offset_of_step[steps[order]] + lanes[order]
    bounds = np.concatenate(([0], np.flatnonzero(np.diff(units)) + 1, [units.size]))
    return {
        int(units[lo]): _UnitEvents(words[lo:hi], lanes[lo:hi], bits[lo:hi])
        for lo, hi in zip(bounds[:-1], bounds[1:])
        if hi > lo
    }


def _deterministic_schedule(
    soa: SoaPlan, plan_arrays: FaultPlanArrays, batch: int
) -> Tuple[Dict[int, _UnitEvents], np.ndarray]:
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
    return _group_events(soa, trials, soa.gate_step_index[slots], positions), faults


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
) -> Tuple[Dict[int, _UnitEvents], np.ndarray]:
    """Sparse flip events of the stochastic fault stream
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
    events = _group_events(
        soa, np.concatenate(trials), np.concatenate(steps), np.concatenate(lanes)
    )
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
) -> Tuple[Dict[int, _UnitEvents], np.ndarray]:
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
    events = _group_events(soa, trials, np.concatenate(hit_steps), np.concatenate(hit_lanes))
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


def _ecim_check(
    soa: SoaPlan, state: np.ndarray, slot: int, batch: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One ECiM syndrome decode and write-back; returns per-trial (fired,
    corrections, uncorrectable) contributions."""
    data_cols = soa.ecim_data_cols[soa.ecim_data_ptr[slot]:soa.ecim_data_ptr[slot + 1]]
    parity_lo, parity_hi = soa.ecim_parity_ptr[slot], soa.ecim_parity_ptr[slot + 1]
    syndrome_planes = state[:, soa.ecim_parity_cols[parity_lo:parity_hi]]
    cover_ptr = soa.ecim_cover_ptr[parity_lo:parity_hi + 1]
    covered = np.flatnonzero(np.diff(cover_ptr))
    if covered.size:
        cover = soa.ecim_cover_cols[cover_ptr[0]:cover_ptr[-1]]
        syndrome_planes[:, covered] ^= np.bitwise_xor.reduceat(
            state[:, cover], cover_ptr[covered] - cover_ptr[0], axis=1
        )
    syndrome = unpack_trials(syndrome_planes, batch).astype(np.int64)
    packed = syndrome @ soa.ecim_weights[slot]
    fired = packed != 0
    patterns = soa.ecim_lut[soa.ecim_lut_offset[slot] + packed]
    valid = patterns >= 0
    is_data = valid & (patterns < data_cols.shape[0])
    rows, pattern_slots = np.nonzero(is_data)
    if rows.size:
        np.bitwise_xor.at(
            state,
            ((rows >> 6).astype(np.intp), data_cols[patterns[rows, pattern_slots]]),
            _ONE << (rows.astype(np.uint64) & np.uint64(63)),
        )
    return fired, is_data.sum(axis=1, dtype=np.int64), fired & ~valid.any(axis=1)


def _trim_vote(
    soa: SoaPlan, state: np.ndarray, slot: int, batch: int
) -> Tuple[np.ndarray, np.ndarray]:
    """One TRiM majority vote and write-back; returns per-trial (disagreed,
    corrections) contributions."""
    data_cols = soa.trim_data_cols[soa.trim_data_ptr[slot]:soa.trim_data_ptr[slot + 1]]
    groups = soa.trim_copy_groups[slot]
    n_copies = int(soa.trim_n_copies[slot])
    data_planes = state[:, data_cols]
    if n_copies == 3 and len(groups) == 2:
        copy1 = state[:, groups[0]]
        copy2 = state[:, groups[1]]
        voted = (data_planes & copy1) | (data_planes & copy2) | (copy1 & copy2)
        disagree = (data_planes ^ copy1) | (data_planes ^ copy2)
        state[:, data_cols] = voted
        return (
            _unpack_flags(np.bitwise_or.reduce(disagree, axis=1), batch),
            unpack_trials(data_planes ^ voted, batch).sum(axis=1, dtype=np.int64),
        )
    copies = [unpack_trials(data_planes, batch)] + [
        unpack_trials(state[:, cols], batch) for cols in groups
    ]
    total = np.sum(copies, axis=0, dtype=np.int64)
    voted_bits = (total * 2 > n_copies).astype(np.uint8)
    state[:, data_cols] = pack_trials(voted_bits)
    disagree = (total != 0) & (total != n_copies)
    return disagree.any(axis=1), (copies[0] != voted_bits).sum(axis=1, dtype=np.int64)


def run_packed(
    soa: SoaPlan,
    input_matrix: np.ndarray,
    fault_seeds: Optional[Sequence[int]] = None,
    fault_plan: "Union[Sequence[Mapping[int, int]], FaultPlanArrays, None]" = None,
    fault_model: Optional[FaultModelSpec] = None,
) -> BatchResult:
    """Interpret the SoA wave schedule for all B trials, 64 per word.

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
    events: Dict[int, _UnitEvents] = {}
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
    n_cols = soa.n_cols
    state = np.zeros((words, soa.n_state_cols), dtype=np.uint64)
    state[:, plan.const1_col] = _FULL
    input_planes = pack_trials(matrix)
    state[:, plan.input_cols] = input_planes

    detected = np.zeros(batch, dtype=bool)
    corrections = np.zeros(batch, dtype=np.int64)
    uncorrectable = np.zeros(batch, dtype=np.int64)
    kernels = [_group_kernel(*key) for key in soa.tables]
    group_kernels = [kernels[table] for table in soa.group_table.tolist()]
    group_sizes = np.diff(soa.group_ptr).tolist()
    group_out_ptr = soa.gate_out_ptr[soa.group_ptr]
    stuck_value = np.uint64(0)
    stuck_groups = set()
    if stuck is not None:
        stuck_value = _FULL if stuck.value else np.uint64(0)
        is_stuck = stuck.is_stuck[soa.phys]
        stuck_cells = np.flatnonzero(is_stuck[n_cols:])
        stuck_groups = set(
            (np.searchsorted(group_out_ptr, stuck_cells, side="right") - 1).tolist()
        )

    in_bounds = soa.gate_in_ptr[soa.group_ptr].tolist()
    out_bounds = group_out_ptr.tolist()
    in_cols, lane_gate = soa.gate_in_cols, soa.gate_out_lane_gate

    for unit, (kind, slot) in enumerate(zip(soa.unit_kind.tolist(), soa.unit_slot.tolist())):
        if kind == KIND_GATE:
            gates = group_sizes[slot]
            lo, hi = out_bounds[slot], out_bounds[slot + 1]
            operands = state[:, in_cols[in_bounds[slot]:in_bounds[slot + 1]]]
            block = group_kernels[slot](operands.reshape(words, gates, -1))
            if hi - lo != gates:
                block = block[:, lane_gate[lo:hi]]
            unit_events = events.get(unit)
            if unit_events is not None:
                unit_events.apply(block)
            state[:, n_cols + lo:n_cols + hi] = block
            if slot in stuck_groups:
                faults += _stuck_word_apply(
                    state, np.arange(n_cols + lo, n_cols + hi), is_stuck, stuck_value, batch
                )
        elif kind == KIND_PRESET:
            columns = soa.preset_cols[soa.preset_ptr[slot]:soa.preset_ptr[slot + 1]]
            state[:, columns] = _FULL if soa.preset_values[slot] else np.uint64(0)
            unit_events = events.get(unit)
            if unit_events is not None:
                unit_events.apply(state, columns)
        elif kind == KIND_READ:
            columns = soa.read_cols[soa.read_ptr[slot]:soa.read_ptr[slot + 1]]
            if stuck is not None:
                faults += _stuck_word_apply(state, columns, is_stuck, stuck_value, batch)
                continue
            unit_events = events.get(unit)
            if unit_events is not None:
                unit_events.apply(state, columns)
        elif kind == KIND_ECIM:
            fired, fixed, failed = _ecim_check(soa, state, slot, batch)
            detected |= fired
            corrections += fixed
            uncorrectable += failed
        elif kind == KIND_TRIM:
            disagreed, fixed = _trim_vote(soa, state, slot, batch)
            detected |= disagreed
            corrections += fixed
        else:  # pragma: no cover - defensive
            raise ProtectionError(f"unknown SoA unit kind {int(kind)}")

    return BatchResult(
        outputs=unpack_trials(state[:, soa.output_state_cols], batch),
        golden=unpack_trials(_golden_planes(soa.golden, input_planes), batch),
        detected=detected,
        corrections=corrections,
        uncorrectable_levels=uncorrectable,
        faults_injected=faults,
    )
