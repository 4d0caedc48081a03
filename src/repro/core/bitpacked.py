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
columns.  Equivalence contract (enforced by ``tests/differential/`` and
``tests/golden/``):

* fault-free, deterministic ``fault_plan`` and declarative ``fault_model``
  executions (stochastic / burst / stuck-at) are **byte-identical** to the
  scalar backend from shared per-trial seeds — stochastic hits come from
  one compare of the per-trial Philox streams against a per-draw rate
  vector, in the scalar injector's draw order; burst flip decisions are
  data-independent, so they are replayed through the
  :class:`~repro.core.batched._BurstInjection` state machine;
* legacy ``model=FaultModel(...)`` executions are *statistically*
  equivalent and reproducible per trial seed (each backend owns its
  legacy stream discipline).  Here the discipline is **geometric
  skip-sampling**: per trial, per fault class, a ``random.Random(seed)``
  walk emits the gaps between Bernoulli hits directly
  (``gap = floor(log1p(-u) / log1p(-p))``), so a campaign cell at rate
  1e-3 samples ~2 flips instead of ~1700 uniforms per trial — which is
  what keeps the engine compute-bound instead of RNG-bound.

Tail lanes (trial indices >= B in the last word) hold whatever the word
ops produce; every per-trial reduction unpacks through
:func:`unpack_trials`, which slices them away, and flip events only ever
name real trials, so they can never leak into outcomes.
"""

from __future__ import annotations

import math
import random
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro.compiler.netlist import Netlist
from repro.core.batched import (
    BatchResult,
    _BurstInjection,
    _StuckCells,
    _uniform_streams,
)
from repro.core.faultplan import FaultPlanArrays
from repro.core.soa import (
    KIND_ECIM,
    KIND_GATE,
    KIND_PRESET,
    KIND_READ,
    KIND_TRIM,
    SoaPlan,
)
from repro.errors import ProtectionError
from repro.pim.faults import FaultModel, FaultModelSpec
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


def _fault_classes(
    soa: SoaPlan, model: FaultModel
) -> List[Tuple[np.ndarray, np.ndarray, float, bool]]:
    """The stochastic fault classes ``model`` draws on ``soa``, in the fixed
    order one legacy trial walk samples them.

    Each entry is ``(site steps, site lanes, rate, applied)``: the (tape
    step, lane) of every site of the class, its Bernoulli rate, and whether
    a hit flips state (presets on gate outputs are overwritten by the
    firing itself, so that class only counts fault events).  Classes
    without sites or at rate 0 draw nothing and are left out.
    """
    preset = model.preset_error_rate
    candidates = (
        (soa.gate_site_step, soa.gate_site_lane, model.gate_error_rate, True),
        (soa.meta_site_step, soa.meta_site_lane, model.effective_metadata_error_rate, True),
        (
            np.concatenate((soa.gate_site_step, soa.meta_site_step)),
            np.concatenate((soa.gate_site_lane, soa.meta_site_lane)),
            preset,
            False,
        ),
        (soa.preset_site_step, soa.preset_site_lane, preset, True),
        (soa.read_site_step, soa.read_site_lane, model.memory_error_rate, True),
    )
    return [entry for entry in candidates if entry[0].shape[0] and entry[2] > 0.0]


#: Working-set budget of one chunk of the exact stochastic schedule's
#: ``(rows, n_draws)`` uniform block: bounds peak memory whatever the shard
#: size, with no effect on the draws themselves.
_STREAM_CHUNK_BYTES = 1 << 22


def _exact_stochastic_schedule(
    soa: SoaPlan, model: FaultModel, fault_seeds: Optional[Sequence[int]], batch: int
) -> Tuple[Dict[int, _StepEvents], np.ndarray]:
    """Sparse per-step flip events from the shared per-trial Philox streams
    — the byte-identity path of the declarative stochastic model.

    A trial's stream is consumed in tape order: per gate firing, one
    preset draw per output cell (count-only) and then one flip draw per
    output at the firing's gate or metadata rate; per preset or read step,
    one draw per cell.  Every draw column therefore has a fixed site and
    rate, so the schedule is one compare of the stream block against the
    per-column rate vector followed by ``np.nonzero``, chunked over trials.
    """
    faults = np.zeros(batch, dtype=np.int64)
    classes = _fault_classes(soa, model)
    if not classes:
        return {}, faults
    _require_seeds("stochastic", fault_seeds, batch)
    sizes = [entry[0].shape[0] for entry in classes]
    steps = np.concatenate([entry[0] for entry in classes])
    lanes = np.concatenate([entry[1] for entry in classes])
    rates = np.repeat([entry[2] for entry in classes], sizes)
    applied = np.repeat([entry[3] for entry in classes], sizes)
    # Draw order: tape step, then count-only gate presets before the flips
    # of the same firing, then lane.
    order = np.lexsort((lanes, applied, steps))
    steps, lanes, rates, applied = steps[order], lanes[order], rates[order], applied[order]
    n_draws = steps.shape[0]
    chunk = max(1, _STREAM_CHUNK_BYTES // (8 * n_draws))
    hit_trials, hit_draws = [], []
    for start in range(0, batch, chunk):
        stop = min(start + chunk, batch)
        streams = _uniform_streams(fault_seeds[start:stop], n_draws)
        rows, draws = np.nonzero(streams < rates)
        faults[start:stop] = np.bincount(rows, minlength=stop - start)
        keep = applied[draws]
        hit_trials.append(rows[keep] + start)
        hit_draws.append(draws[keep])
    draws = np.concatenate(hit_draws)
    return _group_events(np.concatenate(hit_trials), steps[draws], lanes[draws]), faults


def _burst_schedule(
    soa: SoaPlan, spec: FaultModelSpec, fault_seeds: Sequence[int], batch: int
) -> Tuple[Dict[int, _StepEvents], np.ndarray]:
    """Pre-play the burst state machine against zero blocks: burst flip
    decisions are data-independent (they depend only on the per-trial
    streams and the operation schedule), so replaying
    :class:`_BurstInjection` yields the scalar injector's flips, which
    become sparse events like every other schedule's."""
    draws = 0
    if (spec.gate_error_rate or 0.0) > 0.0:
        draws += soa.n_gate_output_sites
    if (spec.memory_error_rate or 0.0) > 0.0:
        draws += int(soa.read_cols.shape[0])
    _require_seeds("burst", fault_seeds, batch)
    burst = _BurstInjection(spec, _uniform_streams(fault_seeds, draws))
    faults = np.zeros(batch, dtype=np.int64)
    hit_trials, hit_steps, hit_lanes = [], [], []
    for index in range(soa.n_steps):
        kind = soa.step_kind[index]
        slot = soa.step_slot[index]
        if kind == KIND_GATE:
            n_out = int(soa.gate_out_ptr[slot + 1] - soa.gate_out_ptr[slot])
            block = np.zeros((batch, n_out), dtype=np.uint8)
            faults += burst.corrupt_gate_outputs(int(soa.gate_op_index[slot]), block)
        elif kind == KIND_READ:
            n_cells = int(soa.read_ptr[slot + 1] - soa.read_ptr[slot])
            block = np.zeros((batch, n_cells), dtype=np.uint8)
            faults += burst.corrupt_stored_bits(block, np.arange(n_cells))
        else:
            continue
        trials, lanes = np.nonzero(block)
        if trials.shape[0]:
            hit_trials.append(trials)
            hit_steps.append(np.full(trials.shape[0], index))
            hit_lanes.append(lanes)
    if not hit_trials:
        return {}, faults
    events = _group_events(
        np.concatenate(hit_trials), np.concatenate(hit_steps), np.concatenate(hit_lanes)
    )
    return events, faults


def _skip_sample(rng: random.Random, n_sites: int, rate: float) -> List[int]:
    """Positions of the Bernoulli(rate) hits among ``n_sites`` iid sites,
    via geometric gaps — exact in distribution, O(hits) draws."""
    if rate >= 1.0:
        return list(range(n_sites))
    hits: List[int] = []
    log_miss = math.log1p(-rate)
    position = 0
    while True:
        gap = int(math.log1p(-rng.random()) / log_miss)
        position += gap
        if position >= n_sites:
            return hits
        hits.append(position)
        position += 1


def _legacy_schedule(
    soa: SoaPlan, model: FaultModel, fault_seeds: Optional[Sequence[int]], batch: int
) -> Tuple[Dict[int, _StepEvents], np.ndarray]:
    """Sparse per-step flip events of the legacy stochastic model.

    Each site is an independent Bernoulli at its class rate, and every
    trial's ``random.Random(seed)`` walk depends only on its own seed, so
    the schedule is batch-composition-invariant.  The raw streams differ
    from the scalar engine's (the legacy-model contract: each engine owns
    its stream discipline; declarative models are the byte-identical
    layer).
    """
    faults = np.zeros(batch, dtype=np.int64)
    classes = _fault_classes(soa, model)
    if not classes:
        return {}, faults
    _require_seeds("stochastic", fault_seeds, batch)
    walk = [(entry[0].shape[0], entry[2]) for entry in classes]
    hits: List[Tuple[List[int], List[int]]] = [([], []) for _ in classes]
    for trial, seed in enumerate(fault_seeds):
        rng = random.Random(seed)
        for (n_sites, rate), (trials, sites) in zip(walk, hits):
            positions = _skip_sample(rng, n_sites, rate)
            if positions:
                faults[trial] += len(positions)
                trials.extend([trial] * len(positions))
                sites.extend(positions)
    applied = [
        (np.asarray(trials, dtype=np.int64), steps[sites], lanes[sites])
        for (steps, lanes, _, flips), (trials, sites) in zip(classes, hits)
        if flips and trials
    ]
    if not applied:
        return {}, faults
    trials, steps, lanes = (np.concatenate(parts) for parts in zip(*applied))
    return _group_events(trials, steps, lanes), faults


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
    model: Optional[FaultModel] = None,
    fault_seeds: Optional[Sequence[int]] = None,
    fault_plan: "Union[Sequence[Mapping[int, int]], FaultPlanArrays, None]" = None,
    fault_model: Optional[FaultModelSpec] = None,
) -> BatchResult:
    """Interpret the SoA tape for all B trials, 64 per word.

    ``input_matrix`` is a ``(B, n_inputs)`` bit matrix in ``netlist.inputs``
    order.  At most one fault source drives a batch:

    * ``model`` — the legacy stochastic :class:`~repro.pim.faults.FaultModel`
      with one ``fault_seeds`` entry per trial (geometric skip-sampling);
    * ``fault_plan`` — deterministic flips, per trial a mapping of global
      gate-operation index to the output position(s) to flip, or one
      :class:`~repro.core.faultplan.FaultPlanArrays` batch;
    * ``fault_model`` — a declarative
      :class:`~repro.pim.faults.FaultModelSpec` (stochastic / burst /
      stuck-at), byte-identical to the scalar injectors from the same
      per-trial seeds.

    Every source except stuck-at (which re-applies its stuck value at the
    scalar injector's touch points) is first turned into sparse per-step
    flip events; see the module docstring for which sources are
    byte-identical across backends and which are statistically equivalent.
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
    stochastic = model is not None and not model.is_error_free
    if (fault_model is not None) + stochastic + (fault_plan is not None) > 1:
        raise ProtectionError(
            "a batch takes one fault source: a stochastic model, a "
            "fault_plan or a fault_model"
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
    elif stochastic:
        events, faults = _legacy_schedule(soa, model, fault_seeds, batch)
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
