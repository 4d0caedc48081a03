"""Structure-of-arrays lowering of :class:`~repro.core.batched.ExecutionPlan`.

The compiled tape is already flat arrays in tape order
(:mod:`repro.core.batched`), but one Python iteration per step is itself the
cost at campaign shard sizes, where a gate firing touches a handful of
uint64 words.  :func:`lower_plan` therefore turns the tape, once, into a
wave schedule that lets the bit-packed engine (:mod:`repro.core.bitpacked`)
run many firings per dispatch:

* **SSA state columns.**  Every gate output cell gets a fresh state column
  (``n_cols + cell``); ``phys`` maps each state column back to the plan's
  physical column (the identity below ``n_cols``), which is where stuck-at
  cells and the fault-site tables live.  Every column a step reads is
  renamed to the last version written before it, so scratch-column reuse
  (ECiM's XOR chains) leaves no write-after-read or write-after-write
  hazards, only true data dependencies.
* **Waves.**  Preset, read, ECiM-check and TRiM-vote steps are *barriers*
  that stay in tape order.  Between two barriers every gate sits in the wave
  one past its latest producer in the same segment, and each wave's gates
  are grouped by truth table.  One group — gates of one (segment, wave,
  table) — is one dispatch: gather ``state[:, in_cols]`` as ``(W, g, k)``,
  one word-op kernel, scatter to its contiguous block of SSA columns.
* **The gate tape** is stored in that group order: gate slot ``s`` is the
  ``s``-th firing of the wave schedule.  CSR ``gate_in_ptr``/``gate_in_cols``
  (state columns) and ``gate_out_ptr`` (the outputs of slot ``s`` are state
  columns ``n_cols + gate_out_ptr[s] ..``) sit beside per-firing operation
  index, metadata flag and a ``gate_table_id`` into the
  deduplicated truth-table registry ``tables`` (one entry per distinct
  ``(gate, n_inputs, threshold)``).  ``group_ptr`` splits the slots into
  groups, ``group_table`` names each group's table, and
  ``gate_out_lane_gate`` gives each output lane its firing within the group
  (the lane repeat of multi-output gates).
* **Units** are what the engine walks: one per group and one per barrier
  (``unit_kind``/``unit_slot``).  ``unit_of_step`` and
  ``lane_offset_of_step`` place every tape step in its unit's block, so a
  fault event keyed by (tape step, lane) becomes (unit, block lane) in one
  vectorised remap.
* the **preset** and **read** tapes (CSR state-column lists, preset values);
* the **ECiM tape**: CSR data/parity column lists, each syndrome bit's
  covering data columns (``ecim_cover_ptr``/``ecim_cover_cols``, the
  check's ``A^T`` as column lists), per-check ``weights``, and all decode tables
  concatenated into one ``ecim_lut`` buffer addressed by per-check
  ``ecim_lut_offset`` as ``lut[offset + packed_syndrome]``;
* the **TRiM tape**: CSR data column lists plus the redundant-copy column
  groups and copy counts per vote;
* the **fault-stream site tables** (:class:`SiteClass`) — for each of the
  four injector call classes (gate outputs, metadata outputs, presets,
  reads) every call of one execution in scalar call order, with its (tape
  step, lane) and its rank among all calls.  These are what lets the
  skip-sampled fault stream (:mod:`repro.core.bitpacked`) land its hits on
  the right step, and merge the classes' draws in the scalar injector's
  order, without replaying the tape.

The schedule is built with vectorised numpy (renaming by one sort and a
``searchsorted``, waves by peeling the same-segment producer edges one
wave per pass); only the per-check decode tables are visited one by one.
``golden`` is the netlist's fault-free :class:`GoldenSchedule`, its gates
grouped by (logic level, truth table).  Lowering is pure bookkeeping: the
SoA plan references the original :class:`ExecutionPlan` (``soa.plan``) for
netlist/layout metadata, and every array is read-only so one lowered plan
can serve any number of concurrent batches.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

import numpy as np

from repro.compiler.netlist import Netlist
from repro.core.batched import (
    GATE_NAMES,
    KIND_ECIM,
    KIND_GATE,
    KIND_PRESET,
    KIND_READ,
    KIND_TRIM,
    _THR,
    ExecutionPlan,
    _frozen,
    _gate_arrays,
    _ptr,
    _ranges,
)

__all__ = [
    "KIND_GATE",
    "KIND_PRESET",
    "KIND_READ",
    "KIND_ECIM",
    "KIND_TRIM",
    "GoldenSchedule",
    "SiteClass",
    "SoaPlan",
    "golden_schedule",
    "lower_plan",
]


def _gather_ranges(ptr: np.ndarray, order: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Reorder the chunks of a CSR pointer: returns the new pointer and, per
    new flat position, the old flat position it comes from."""
    widths = ptr[1:][order] - ptr[:-1][order]
    return _ptr(widths), _ranges(ptr[:-1][order], widths)


TableKey = Tuple[str, int, Optional[int]]


def _table_ids(
    code: np.ndarray, n_inputs: np.ndarray, threshold: np.ndarray
) -> Tuple[Tuple[TableKey, ...], np.ndarray]:
    """Deduplicate firings into the truth-table registry (first-appearance
    order) and each firing's table id.  A table is ``(gate, n_inputs,
    threshold)``: THR normalises its default threshold (-1, the paper's 3)
    so e.g. ``thr/None`` and ``thr/3`` share a table id, every other gate
    carries no threshold at all."""
    norm = np.where(code == _THR, np.where(threshold < 0, 3, threshold), -1)
    key = (code.astype(np.int64) << 42) | (n_inputs.astype(np.int64) << 21) | (norm + 1)
    _, first, inverse = np.unique(key, return_index=True, return_inverse=True)
    by_appearance = np.argsort(first)
    table_of = np.empty(first.shape[0], dtype=np.intp)
    table_of[by_appearance] = np.arange(first.shape[0])
    firsts = first[by_appearance]
    tables = tuple(
        (GATE_NAMES[gate], width, None if level < 0 else level)
        for gate, width, level in zip(
            code[firsts].tolist(), n_inputs[firsts].tolist(), norm[firsts].tolist()
        )
    )
    return tables, table_of[inverse.reshape(-1)]


@dataclass(eq=False, frozen=True)
class SiteClass:
    """Every call of one injector call class in one execution, in scalar
    call order.

    ``step`` and ``lane`` place a call on the tape (the lane indexes the
    step's own column list: gate output position, preset or read column
    position).  ``call`` is its rank among *all* injector calls of the
    execution — the key that merges the classes' draws into one stream.
    ``applied`` is False where a hit only counts: a preset on a gate output
    is overwritten by the firing itself.
    """

    step: np.ndarray     # (n,) int32
    lane: np.ndarray     # (n,) int32
    call: np.ndarray     # (n,) int32, increasing
    applied: np.ndarray  # (n,) bool

    @property
    def size(self) -> int:
        return int(self.step.shape[0])


@dataclass(eq=False, frozen=True)
class SoaPlan:
    """One :class:`ExecutionPlan` lowered to contiguous per-kind buffers and
    a wave schedule over SSA state columns."""

    plan: ExecutionPlan
    golden: GoldenSchedule

    # Whole-tape map: step i is kind step_kind[i], entry step_slot[i] of
    # that kind's arrays.
    step_kind: np.ndarray   # (n_steps,) int8
    step_slot: np.ndarray   # (n_steps,) intp

    # State columns: phys[c] is the plan column behind state column c.
    phys: np.ndarray               # (n_state_cols,) int32
    output_state_cols: np.ndarray  # (n_outputs,) final version of each output

    # Gate tape in wave-schedule order (CSR over firings, state columns).
    tables: Tuple[TableKey, ...]
    gate_table_id: np.ndarray     # (n_gates,) intp → tables
    gate_op_index: np.ndarray     # (n_gates,) int64
    gate_is_metadata: np.ndarray  # (n_gates,) bool
    gate_in_ptr: np.ndarray
    gate_in_cols: np.ndarray
    gate_out_ptr: np.ndarray      # outputs of slot s: n_cols + [ptr[s], ptr[s+1])
    gate_out_lane_gate: np.ndarray  # (n_out,) int32: firing of each lane in its group

    # Gate groups: slots group_ptr[j]..group_ptr[j+1] share table group_table[j].
    group_ptr: np.ndarray         # (n_groups + 1,) intp
    group_table: np.ndarray       # (n_groups,) intp → tables

    # Units, in execution order: a gate group or one barrier step.
    unit_kind: np.ndarray            # (n_units,) int8
    unit_slot: np.ndarray            # (n_units,) intp: group or step slot
    unit_of_step: np.ndarray         # (n_steps,) int32
    lane_offset_of_step: np.ndarray  # (n_steps,) int32: first lane in the unit block

    # Preset tape.
    preset_values: np.ndarray     # (n_presets,) uint8
    preset_ptr: np.ndarray
    preset_cols: np.ndarray

    # Read tape.
    read_ptr: np.ndarray
    read_cols: np.ndarray

    # ECiM check tape: CSR column lists, the covering data columns of every
    # syndrome bit (the GF(2) operator A^T as lists: bit b of check c is row
    # ecim_parity_ptr[c] + b of ecim_cover_ptr), per-check syndrome weights
    # and one concatenated decode table addressed as lut[offset[c] + syndrome].
    ecim_data_ptr: np.ndarray
    ecim_data_cols: np.ndarray
    ecim_parity_ptr: np.ndarray
    ecim_parity_cols: np.ndarray
    ecim_cover_ptr: np.ndarray
    ecim_cover_cols: np.ndarray
    ecim_weights: Tuple[np.ndarray, ...]  # per check, (r,) int64
    ecim_lut: np.ndarray                  # (sum 2^r, t_max) int64, -1 padded
    ecim_lut_offset: np.ndarray           # (n_checks,) intp

    # TRiM vote tape.
    trim_data_ptr: np.ndarray
    trim_data_cols: np.ndarray
    trim_copy_groups: Tuple[Tuple[np.ndarray, ...], ...]
    trim_n_copies: np.ndarray             # (n_checks,) int64

    # Fault-stream site tables, one per injector call class.
    gate_sites: SiteClass
    meta_sites: SiteClass
    preset_sites: SiteClass  # gate-output presets and preset-step cells
    read_sites: SiteClass
    #: Inverse gate maps for array-native deterministic plans
    #: (:mod:`repro.core.faultplan`): tape step index of each gate slot,
    #: and gate slot of each global operation index (-1 for indices no
    #: firing carries — those plan entries inject nothing, like the dict
    #: path).
    gate_step_index: np.ndarray   # (n_gates,) intp
    gate_slot_of_op: np.ndarray   # (max_op + 1,) intp, -1 padded

    # ------------------------------------------------------------------ #
    # Plan metadata passthrough
    # ------------------------------------------------------------------ #
    @property
    def n_gate_output_sites(self) -> int:
        """Gate-output cells of one execution, metadata included."""
        return self.gate_sites.size + self.meta_sites.size

    @property
    def n_steps(self) -> int:
        return int(self.step_kind.shape[0])

    @property
    def n_gate_steps(self) -> int:
        return int(self.gate_table_id.shape[0])

    @property
    def n_units(self) -> int:
        """Dispatches of one execution: gate groups plus barrier steps."""
        return int(self.unit_kind.shape[0])

    @property
    def n_cols(self) -> int:
        return self.plan.n_cols

    @property
    def n_state_cols(self) -> int:
        """Plan columns plus one SSA column per gate output cell."""
        return int(self.phys.shape[0])

    @property
    def n_inputs(self) -> int:
        return self.plan.n_inputs

    @property
    def n_outputs(self) -> int:
        return self.plan.n_outputs


def _site_class(step, lane, call, applied=None) -> SiteClass:
    """Freeze one class's columns (int32: the tables of the biggest plans
    run to ~10^5 sites per worker); every hit applies unless ``applied``
    says otherwise."""
    if applied is None:
        applied = np.ones(step.shape[0], dtype=bool)
    return SiteClass(
        step=_frozen(step.astype(np.int32)),
        lane=_frozen(lane.astype(np.int32)),
        call=_frozen(call.astype(np.int32)),
        applied=_frozen(applied),
    )


def _site_classes(
    kinds: np.ndarray,
    slots: np.ndarray,
    gate_is_metadata: np.ndarray,
    gate_out_ptr: np.ndarray,
    preset_ptr: np.ndarray,
    read_ptr: np.ndarray,
) -> Tuple[SiteClass, SiteClass, SiteClass, SiteClass]:
    """The four injector call classes of one execution, in scalar call
    order: every gate firing presets its outputs and then produces them,
    and every preset or read step touches its cells in column order."""
    gate, preset, read = kinds == KIND_GATE, kinds == KIND_PRESET, kinds == KIND_READ
    width = np.zeros(kinds.shape[0], dtype=np.int64)
    width[gate] = np.diff(gate_out_ptr)[slots[gate]]
    width[preset] = np.diff(preset_ptr)[slots[preset]]
    width[read] = np.diff(read_ptr)[slots[read]]
    calls = np.where(gate, 2 * width, width)
    first_call = np.cumsum(calls) - calls

    def cells(mask):
        steps = np.flatnonzero(mask)
        counts = width[steps]
        step = np.repeat(steps, counts)
        lane = np.arange(step.shape[0]) - np.repeat(np.cumsum(counts) - counts, counts)
        return step, lane

    out_step, out_lane = cells(gate)
    out_call = first_call[out_step] + width[out_step] + out_lane
    is_meta = gate_is_metadata[slots[out_step]]
    cell_step, cell_lane = cells(preset)
    read_step, read_lane = cells(read)
    # Presets on gate outputs (count-only: the firing overwrites them) and
    # preset-step cells form one class; call ranks are unique, so sorting
    # by them interleaves the two in tape order.
    preset_step = np.concatenate((out_step, cell_step))
    preset_lane = np.concatenate((out_lane, cell_lane))
    preset_call = np.concatenate(
        (first_call[out_step] + out_lane, first_call[cell_step] + cell_lane)
    )
    preset_applied = np.arange(preset_step.shape[0]) >= out_step.shape[0]
    order = np.argsort(preset_call)
    return (
        _site_class(out_step[~is_meta], out_lane[~is_meta], out_call[~is_meta]),
        _site_class(out_step[is_meta], out_lane[is_meta], out_call[is_meta]),
        _site_class(
            preset_step[order], preset_lane[order], preset_call[order], preset_applied[order]
        ),
        _site_class(read_step, read_lane, first_call[read_step] + read_lane),
    )


# ---------------------------------------------------------------------- #
# Wave schedule
# ---------------------------------------------------------------------- #
def _renamer(
    out_cols: np.ndarray, out_steps: np.ndarray, n_cols: int, n_steps: int
) -> Callable[[np.ndarray, np.ndarray], np.ndarray]:
    """SSA renaming: gate output cell ``i`` (in ``out_cols`` order) writes
    state column ``n_cols + i``.  The returned function maps physical
    columns read at given tape steps to the state column holding their
    value there — the last cell written to that column at an earlier step,
    or the column itself if none was."""
    stride = n_steps + 1
    keys = out_cols.astype(np.int64) * stride + out_steps
    order = np.argsort(keys, kind="stable")
    keys = keys[order]

    def version(cols: np.ndarray, steps: np.ndarray) -> np.ndarray:
        cols = np.asarray(cols, dtype=np.intp)
        if not keys.size:
            return cols
        last = np.searchsorted(keys, cols * stride + steps) - 1
        clipped = np.maximum(last, 0)
        written = (last >= 0) & (keys[clipped] // stride == cols)
        return np.where(written, n_cols + order[clipped], cols)

    return version


def _wave_levels(n_gates: int, consumer: np.ndarray, producer: np.ndarray) -> np.ndarray:
    """Wave of every gate: one past the latest of its producers (0 without
    any).  Kahn's peeling over the producer edges: each pass settles one
    whole wave and only touches the out-edges of that wave, so the cost is
    one pass per wave of the deepest segment plus O(edges) in total."""
    level = np.zeros(n_gates, dtype=np.int64)
    if not consumer.size:
        return level
    by_producer = np.argsort(producer, kind="stable")
    targets = consumer[by_producer]
    edge_ptr = _ptr(np.bincount(producer, minlength=n_gates))
    waiting = np.bincount(consumer, minlength=n_gates)
    wave, depth = np.flatnonzero(waiting == 0), 0
    while wave.size:
        level[wave] = depth
        _, edges = _gather_ranges(edge_ptr, wave)
        ready, count = np.unique(targets[edges], return_counts=True)
        waiting[ready] -= count
        wave, depth = ready[waiting[ready] == 0], depth + 1
    return level


@dataclass(eq=False, frozen=True)
class GoldenSchedule:
    """Fault-free evaluation of one netlist, its gates grouped by (logic
    level, truth table) so each group is one kernel call.

    Signal ``s`` lives in value column ``s``; the two constants follow the
    last signal (``CONST_ZERO`` then ``CONST_ONE``).  Group ``j`` holds the
    gates ``group_ptr[j]..group_ptr[j+1]`` of the flat ``in_cols`` (row-major
    ``(g, k)``) and ``out_cols`` buffers."""

    n_values: int
    input_cols: np.ndarray   # (n_inputs,) netlist input signals
    output_cols: np.ndarray  # (n_outputs,) netlist output signals
    tables: Tuple[TableKey, ...]
    group_ptr: np.ndarray    # (n_groups + 1,) intp
    group_table: np.ndarray  # (n_groups,) intp → tables
    in_ptr: np.ndarray       # (n_gates + 1,) intp, group order
    in_cols: np.ndarray
    out_cols: np.ndarray     # (n_gates,) one output signal per gate, group order


def golden_schedule(netlist: Netlist) -> GoldenSchedule:
    """Group a netlist's gates by (logic level, truth table)."""
    nodes = netlist.gates
    n_signals = netlist.n_signals
    code, threshold, in_ptr, in_signals, outputs = _gate_arrays(nodes)
    tables, table_ids = _table_ids(code, np.diff(in_ptr), threshold)
    level = np.zeros(len(nodes), dtype=np.intp)
    for depth, indices in enumerate(netlist.levelize()):
        level[indices] = depth

    def value_cols(signals: np.ndarray) -> np.ndarray:
        constant = np.where(signals == Netlist.CONST_ZERO, n_signals, n_signals + 1)
        return np.where(signals >= 0, signals, constant)

    order = np.lexsort((table_ids, level))
    changes = (np.diff(level[order]) != 0) | (np.diff(table_ids[order]) != 0)
    group_starts = np.flatnonzero(np.concatenate(([len(nodes) > 0], changes)))
    new_in_ptr, in_source = _gather_ranges(in_ptr, order)
    return GoldenSchedule(
        n_values=n_signals + 2,
        input_cols=_frozen(np.asarray(netlist.inputs, dtype=np.intp)),
        output_cols=_frozen(value_cols(np.asarray(netlist.outputs, dtype=np.intp))),
        tables=tables,
        group_ptr=_frozen(np.append(group_starts, len(nodes)).astype(np.intp)),
        group_table=_frozen(table_ids[order[group_starts]]),
        in_ptr=_frozen(new_in_ptr),
        in_cols=_frozen(value_cols(in_signals[in_source])),
        out_cols=_frozen(outputs[order]),
    )


@dataclass(eq=False, frozen=True)
class _WaveSchedule:
    """What :func:`_wave_schedule` hands back to :func:`lower_plan`."""

    order: np.ndarray           # wave-order slot → tape-order gate
    gate_slot: np.ndarray       # tape-order gate → wave-order slot
    gate_in_ptr: np.ndarray
    gate_in_cols: np.ndarray
    gate_out_ptr: np.ndarray
    lane_gate: np.ndarray
    phys: np.ndarray
    group_ptr: np.ndarray
    group_table: np.ndarray
    unit_kind: np.ndarray
    unit_slot: np.ndarray
    unit_of_step: np.ndarray
    lane_offset_of_step: np.ndarray
    #: State columns of physical columns read at given tape steps.
    state_cols: Callable[[np.ndarray, np.ndarray], np.ndarray]


def _wave_schedule(
    n_cols: int,
    kinds: np.ndarray,
    slots: np.ndarray,
    table_ids: np.ndarray,
    in_ptr: np.ndarray,
    in_phys: np.ndarray,
    out_ptr: np.ndarray,
    out_phys: np.ndarray,
) -> _WaveSchedule:
    """SSA-rename the gate tape (in tape order, with physical columns) and
    pack it into waves, groups and units."""
    n_steps = kinds.shape[0]
    gate_step = np.flatnonzero(kinds == KIND_GATE)
    n_gates = gate_step.shape[0]
    in_width, out_width = np.diff(in_ptr), np.diff(out_ptr)

    # Renaming, then each gate's producers in its own segment (the run of
    # gates between two barriers).
    version = _renamer(out_phys, np.repeat(gate_step, out_width), n_cols, n_steps)
    in_state = version(in_phys, np.repeat(gate_step, in_width))
    segment = np.cumsum(kinds != KIND_GATE)
    gate_segment = segment[gate_step]
    fresh = in_state >= n_cols
    producer = np.repeat(np.arange(n_gates), out_width)[in_state[fresh] - n_cols]
    consumer = np.repeat(np.arange(n_gates), in_width)[fresh]
    same = gate_segment[producer] == gate_segment[consumer]
    level = _wave_levels(n_gates, consumer[same], producer[same])
    del fresh, producer, consumer, same

    # Wave order: gates sorted by (segment, wave, table), tape order within.
    order = np.lexsort((table_ids, level, gate_segment))
    changed = np.diff(gate_segment[order]) != 0
    changed |= np.diff(level[order]) != 0
    changed |= np.diff(table_ids[order]) != 0
    group_starts = np.flatnonzero(np.concatenate(([n_gates > 0], changed)))
    del level, changed
    n_groups = group_starts.shape[0]
    group_ptr = np.append(group_starts, n_gates).astype(np.intp)
    group_sizes = np.diff(group_ptr)
    group_of_slot = np.repeat(np.arange(n_groups), group_sizes)
    gate_slot = np.empty(n_gates, dtype=np.intp)
    gate_slot[order] = np.arange(n_gates)

    # Renumber the SSA columns into wave order, so each group writes one
    # contiguous block of state columns.
    gate_out_ptr, old_cell = _gather_ranges(out_ptr, order)
    cell_base = np.empty(n_cols + old_cell.shape[0], dtype=np.intp)
    cell_base[:n_cols] = np.arange(n_cols)
    cell_base[n_cols + old_cell] = n_cols + np.arange(old_cell.shape[0])
    gate_in_ptr, in_source = _gather_ranges(in_ptr, order)
    gate_in_cols = cell_base[in_state[in_source]]
    del in_state, in_source
    phys = np.concatenate((np.arange(n_cols), out_phys[old_cell])).astype(np.int32)
    lane_gate = np.repeat(
        (np.arange(n_gates) - np.repeat(group_ptr[:-1], group_sizes)).astype(np.int32),
        np.diff(gate_out_ptr),
    )

    # Units: each barrier runs before the groups of the segment it opens.
    barrier_step = np.flatnonzero(kinds != KIND_GATE)
    n_barriers = barrier_step.shape[0]
    unit_segment = np.concatenate((segment[barrier_step], gate_segment[order[group_starts]]))
    is_group = np.arange(n_barriers + n_groups) >= n_barriers
    unit_order = np.lexsort((is_group, unit_segment))
    unit_of_entry = np.empty(unit_order.shape[0], dtype=np.int32)
    unit_of_entry[unit_order] = np.arange(unit_order.shape[0])
    unit_of_step = np.empty(n_steps, dtype=np.int32)
    unit_of_step[barrier_step] = unit_of_entry[:n_barriers]
    unit_of_step[gate_step] = unit_of_entry[n_barriers + group_of_slot[gate_slot]]
    lane_offset_of_step = np.zeros(n_steps, dtype=np.int32)
    lane_offset_of_step[gate_step] = (
        gate_out_ptr[gate_slot] - gate_out_ptr[group_ptr[group_of_slot[gate_slot]]]
    )
    unit_kind = np.concatenate((kinds[barrier_step], np.full(n_groups, KIND_GATE, np.int8)))
    unit_slot = np.concatenate((slots[barrier_step], np.arange(n_groups)))

    return _WaveSchedule(
        order=order,
        gate_slot=gate_slot,
        gate_in_ptr=gate_in_ptr,
        gate_in_cols=gate_in_cols,
        gate_out_ptr=gate_out_ptr,
        lane_gate=lane_gate,
        phys=phys,
        group_ptr=group_ptr,
        group_table=table_ids[order[group_starts]],
        unit_kind=unit_kind[unit_order],
        unit_slot=unit_slot[unit_order],
        unit_of_step=unit_of_step,
        lane_offset_of_step=lane_offset_of_step,
        state_cols=lambda cols, steps: cell_base[version(cols, steps)],
    )


def lower_plan(plan: ExecutionPlan) -> SoaPlan:
    """Lower one compiled instruction tape into its SoA form and wave
    schedule."""
    kinds = plan.step_kind
    n_steps = kinds.shape[0]
    # Slots count each kind's steps in tape order; gate slots are
    # renumbered into wave order once the schedule exists.
    slot_array = np.zeros(n_steps, dtype=np.intp)
    step_of = {}
    for kind in (KIND_GATE, KIND_PRESET, KIND_READ, KIND_ECIM, KIND_TRIM):
        step_of[kind] = np.flatnonzero(kinds == kind)
        slot_array[step_of[kind]] = np.arange(step_of[kind].shape[0])

    tables, table_ids = _table_ids(
        plan.gate_code, np.diff(plan.gate_in_ptr), plan.gate_threshold
    )
    gate_sites, meta_sites, preset_sites, read_sites = _site_classes(
        kinds, slot_array, plan.gate_is_metadata, plan.gate_out_ptr, plan.preset_ptr,
        plan.read_ptr,
    )
    schedule = _wave_schedule(
        plan.n_cols, kinds, slot_array, table_ids, plan.gate_in_ptr, plan.gate_in_cols,
        plan.gate_out_ptr, plan.gate_out_cols,
    )
    order = schedule.order
    slot_array[step_of[KIND_GATE]] = schedule.gate_slot

    def barrier_cols(ptr, cols, steps):
        """Barrier columns read the versions live at their step."""
        return _frozen(schedule.state_cols(cols, np.repeat(steps, np.diff(ptr))))

    # Each syndrome bit's covering data columns are read at its check.
    n_parity = np.diff(plan.ecim_parity_ptr)
    cover_step = np.repeat(step_of[KIND_ECIM], n_parity)
    weights: Dict[int, np.ndarray] = {}
    for r in set(n_parity.tolist()):
        weights[r] = _frozen(1 << np.arange(r, dtype=np.int64))
    n_groups = plan.trim_n_copies - 1
    copy_step = np.repeat(step_of[KIND_TRIM], n_groups)
    copy_cols = iter(
        np.split(
            barrier_cols(plan.trim_copy_ptr, plan.trim_copy_cols, copy_step),
            plan.trim_copy_ptr[1:-1],
        )
    )
    trim_copy_groups = tuple(
        tuple(next(copy_cols) for _ in range(groups)) for groups in n_groups.tolist()
    )

    # Concatenate the per-check decode tables (-1 padded to the widest
    # correction capability) so a flat interpreter can address row
    # ``lut[offset[c] + packed_syndrome]``.
    luts = plan.ecim_lut
    t_max = max((lut.shape[1] for lut in luts), default=1)
    lut_rows = np.fromiter((lut.shape[0] for lut in luts), dtype=np.intp, count=len(luts))
    ecim_lut_offset = _ptr(lut_rows)
    ecim_lut = np.full((ecim_lut_offset[-1], t_max), -1, dtype=np.int64)
    for lut, row in zip(luts, ecim_lut_offset.tolist()):
        ecim_lut[row:row + lut.shape[0], : lut.shape[1]] = lut

    op_array = plan.gate_op_index[order]
    slot_of_op = np.full(
        int(op_array.max()) + 1 if op_array.size else 0, -1, dtype=np.intp
    )
    if op_array.size:
        slot_of_op[op_array] = np.arange(op_array.shape[0], dtype=np.intp)

    return SoaPlan(
        plan=plan,
        golden=golden_schedule(plan.netlist),
        step_kind=_frozen(kinds),
        step_slot=_frozen(slot_array),
        phys=_frozen(schedule.phys),
        output_state_cols=_frozen(
            schedule.state_cols(plan.output_cols, np.full(plan.n_outputs, n_steps))
        ),
        tables=tables,
        gate_table_id=_frozen(table_ids[order]),
        gate_op_index=_frozen(op_array),
        gate_is_metadata=_frozen(plan.gate_is_metadata[order]),
        gate_in_ptr=_frozen(schedule.gate_in_ptr),
        gate_in_cols=_frozen(schedule.gate_in_cols),
        gate_out_ptr=_frozen(schedule.gate_out_ptr),
        gate_out_lane_gate=_frozen(schedule.lane_gate),
        group_ptr=_frozen(schedule.group_ptr),
        group_table=_frozen(schedule.group_table),
        unit_kind=_frozen(schedule.unit_kind),
        unit_slot=_frozen(schedule.unit_slot),
        unit_of_step=_frozen(schedule.unit_of_step),
        lane_offset_of_step=_frozen(schedule.lane_offset_of_step),
        preset_values=plan.preset_values,
        preset_ptr=plan.preset_ptr,
        preset_cols=barrier_cols(plan.preset_ptr, plan.preset_cols, step_of[KIND_PRESET]),
        read_ptr=plan.read_ptr,
        read_cols=barrier_cols(plan.read_ptr, plan.read_cols, step_of[KIND_READ]),
        ecim_data_ptr=plan.ecim_data_ptr,
        ecim_data_cols=barrier_cols(
            plan.ecim_data_ptr, plan.ecim_data_cols, step_of[KIND_ECIM]
        ),
        ecim_parity_ptr=plan.ecim_parity_ptr,
        ecim_parity_cols=barrier_cols(
            plan.ecim_parity_ptr, plan.ecim_parity_cols, step_of[KIND_ECIM]
        ),
        ecim_cover_ptr=plan.ecim_cover_ptr,
        ecim_cover_cols=barrier_cols(plan.ecim_cover_ptr, plan.ecim_cover_cols, cover_step),
        ecim_weights=tuple(weights[r] for r in n_parity.tolist()),
        ecim_lut=_frozen(ecim_lut),
        ecim_lut_offset=_frozen(ecim_lut_offset[:-1]),
        trim_data_ptr=plan.trim_data_ptr,
        trim_data_cols=barrier_cols(
            plan.trim_data_ptr, plan.trim_data_cols, step_of[KIND_TRIM]
        ),
        trim_copy_groups=trim_copy_groups,
        trim_n_copies=plan.trim_n_copies,
        gate_sites=gate_sites,
        meta_sites=meta_sites,
        preset_sites=preset_sites,
        read_sites=read_sites,
        gate_step_index=_frozen(step_of[KIND_GATE][order]),
        gate_slot_of_op=_frozen(slot_of_op),
    )
