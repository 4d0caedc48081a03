"""Gate-level netlists with explicit logic levels.

The PiM compiler flow (Section II-B) lowers multi-bit operations into Boolean
gates from the PiM library — here NOR/NOT/COPY/THR — organised into *logic
levels*: sets of gates with no data dependences among them.  Logic levels
matter architecturally because ECiM/TRiM perform their error checks at logic
level granularity (Section IV-B), and because gates within one level can be
executed concurrently across partitions.

A :class:`Netlist` is a DAG of :class:`GateNode` objects over integer signal
ids.  It supports functional evaluation (the behavioural reference), logic
levelisation, per-level statistics, and liveness analysis (the input the
greedy scratch allocator needs).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import SynthesisError
from repro.pim.gates import GateType, gate_output

__all__ = ["GateNode", "NetlistStats", "LevelStats", "Netlist"]


@dataclass(frozen=True)
class GateNode:
    """One gate in the netlist.

    ``output`` is the signal id the gate produces.  ``n_outputs`` records how
    many physical output cells the gate drives when mapped with multi-output
    gates (the extra outputs carry identical values and are consumed by the
    protection metadata, not by other netlist gates).
    ``threshold`` only applies to THR gates.
    """

    index: int
    gate: str
    inputs: Tuple[int, ...]
    output: int
    threshold: Optional[int] = None
    n_outputs: int = 1

    def __post_init__(self) -> None:
        if self.gate not in GateType.NATIVE:
            raise SynthesisError(f"netlist gate must be a native PiM gate, got {self.gate!r}")
        if not self.inputs:
            raise SynthesisError("a gate node needs at least one input signal")
        if self.n_outputs < 1:
            raise SynthesisError("n_outputs must be >= 1")


@dataclass(frozen=True)
class LevelStats:
    """Aggregate statistics for one logic level."""

    level: int
    n_gates: int
    n_nor_like: int
    n_thr: int
    n_gate_outputs: int
    output_signals: int


@dataclass(frozen=True)
class NetlistStats:
    """Aggregate statistics for a whole netlist."""

    n_inputs: int
    n_outputs: int
    n_gates: int
    n_levels: int
    gates_by_type: Dict[str, int]
    max_level_width: int
    total_gate_outputs: int
    levels: Tuple[LevelStats, ...]

    @property
    def average_level_width(self) -> float:
        if self.n_levels == 0:
            return 0.0
        return self.n_gates / self.n_levels


class Netlist:
    """A combinational netlist over NOR/NOT/COPY/THR gates."""

    CONST_ZERO = -1
    CONST_ONE = -2

    def __init__(self, name: str = "netlist") -> None:
        self.name = name
        self._next_signal = 0
        self._inputs: List[int] = []
        self._input_names: Dict[int, str] = {}
        self._outputs: List[int] = []
        self._output_names: Dict[int, str] = {}
        self._gates: List[GateNode] = []
        self._producer: Dict[int, int] = {}  # signal -> gate index
        self._levels_cache: Optional[List[List[int]]] = None
        self._gates_cache: Optional[Tuple[GateNode, ...]] = None

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    def new_signal(self) -> int:
        signal = self._next_signal
        self._next_signal += 1
        return signal

    def add_input(self, name: Optional[str] = None) -> int:
        signal = self.new_signal()
        self._inputs.append(signal)
        self._input_names[signal] = name or f"in{len(self._inputs) - 1}"
        return signal

    def add_inputs(self, count: int, prefix: str = "in") -> List[int]:
        return [self.add_input(f"{prefix}{i}") for i in range(count)]

    def _check_signal(self, signal: int) -> None:
        if signal in (self.CONST_ZERO, self.CONST_ONE):
            return
        if not 0 <= signal < self._next_signal:
            raise SynthesisError(f"unknown signal id {signal}")
        if signal not in self._producer and signal not in self._inputs:
            raise SynthesisError(f"signal {signal} has no producer and is not an input")

    def add_gate(
        self,
        gate: str,
        inputs: Sequence[int],
        threshold: Optional[int] = None,
        n_outputs: int = 1,
    ) -> int:
        """Append a gate; returns the newly created output signal id."""
        gate = gate.lower()
        for signal in inputs:
            self._check_signal(signal)
        output = self.new_signal()
        node = GateNode(
            index=len(self._gates),
            gate=gate,
            inputs=tuple(inputs),
            output=output,
            threshold=threshold,
            n_outputs=n_outputs,
        )
        self._gates.append(node)
        self._producer[output] = node.index
        self._levels_cache = None
        self._gates_cache = None
        return output

    def mark_output(self, signal: int, name: Optional[str] = None) -> None:
        self._check_signal(signal)
        if signal in self._outputs:
            return
        self._outputs.append(signal)
        self._output_names[signal] = name or f"out{len(self._outputs) - 1}"

    # ------------------------------------------------------------------ #
    # Accessors
    # ------------------------------------------------------------------ #
    @property
    def inputs(self) -> Tuple[int, ...]:
        return tuple(self._inputs)

    @property
    def outputs(self) -> Tuple[int, ...]:
        return tuple(self._outputs)

    @property
    def gates(self) -> Tuple[GateNode, ...]:
        """Every gate in topological (append) order.  The tuple is cached
        until the next structural change, so indexing it per gate stays
        O(1)."""
        if self._gates_cache is None:
            self._gates_cache = tuple(self._gates)
        return self._gates_cache

    @property
    def n_signals(self) -> int:
        return self._next_signal

    def input_name(self, signal: int) -> str:
        return self._input_names[signal]

    def output_name(self, signal: int) -> str:
        return self._output_names[signal]

    def producer_of(self, signal: int) -> Optional[GateNode]:
        index = self._producer.get(signal)
        return self._gates[index] if index is not None else None

    def consumers_of(self, signal: int) -> List[GateNode]:
        return [g for g in self._gates if signal in g.inputs]

    # ------------------------------------------------------------------ #
    # Logic levels
    # ------------------------------------------------------------------ #
    def levelize(self) -> List[List[int]]:
        """Group gate indices by logic level (level 1 = depends on inputs only).

        The result is cached; structural modifications invalidate the cache.
        """
        if self._levels_cache is not None:
            return [list(level) for level in self._levels_cache]
        signal_level: Dict[int, int] = {s: 0 for s in self._inputs}
        signal_level[self.CONST_ZERO] = 0
        signal_level[self.CONST_ONE] = 0
        gate_level: Dict[int, int] = {}
        for node in self._gates:  # gates are appended in topological order
            level = 1 + max(signal_level[s] for s in node.inputs)
            gate_level[node.index] = level
            signal_level[node.output] = level
        n_levels = max(gate_level.values(), default=0)
        levels: List[List[int]] = [[] for _ in range(n_levels)]
        for index, level in gate_level.items():
            levels[level - 1].append(index)
        self._levels_cache = [list(level) for level in levels]
        return [list(level) for level in levels]

    @property
    def depth(self) -> int:
        """Number of logic levels."""
        return len(self.levelize())

    # ------------------------------------------------------------------ #
    # Functional evaluation
    # ------------------------------------------------------------------ #
    def evaluate(self, input_values: Dict[int, int]) -> Dict[int, int]:
        """Evaluate every signal given input assignments (the golden model)."""
        values: Dict[int, int] = {self.CONST_ZERO: 0, self.CONST_ONE: 1}
        for signal in self._inputs:
            if signal not in input_values:
                raise SynthesisError(f"missing value for input signal {signal}")
            value = int(input_values[signal])
            if value not in (0, 1):
                raise SynthesisError("input values must be bits")
            values[signal] = value
        for node in self._gates:
            operand_values = [values[s] for s in node.inputs]
            if node.gate == GateType.THR:
                from repro.pim.gates import thr as thr_gate

                threshold = node.threshold if node.threshold is not None else 3
                values[node.output] = thr_gate(operand_values, threshold=threshold)
            else:
                values[node.output] = gate_output(node.gate, operand_values)
        return values

    def evaluate_outputs(self, input_values: Dict[int, int]) -> Dict[int, int]:
        """Evaluate and return only the marked output signals."""
        values = self.evaluate(input_values)
        return {signal: values[signal] for signal in self._outputs}

    # ------------------------------------------------------------------ #
    # Statistics and liveness
    # ------------------------------------------------------------------ #
    def stats(self) -> NetlistStats:
        levels = self.levelize()
        gates_by_type: Dict[str, int] = {}
        for node in self._gates:
            gates_by_type[node.gate] = gates_by_type.get(node.gate, 0) + 1
        level_stats: List[LevelStats] = []
        for level_index, gate_indices in enumerate(levels, start=1):
            nodes = [self._gates[i] for i in gate_indices]
            level_stats.append(
                LevelStats(
                    level=level_index,
                    n_gates=len(nodes),
                    n_nor_like=sum(1 for n in nodes if n.gate != GateType.THR),
                    n_thr=sum(1 for n in nodes if n.gate == GateType.THR),
                    n_gate_outputs=sum(n.n_outputs for n in nodes),
                    output_signals=len(nodes),
                )
            )
        return NetlistStats(
            n_inputs=len(self._inputs),
            n_outputs=len(self._outputs),
            n_gates=len(self._gates),
            n_levels=len(levels),
            gates_by_type=gates_by_type,
            max_level_width=max((len(level) for level in levels), default=0),
            total_gate_outputs=sum(n.n_outputs for n in self._gates),
            levels=tuple(level_stats),
        )

    def last_use(self) -> Dict[int, int]:
        """Map each signal to the index of the last gate that reads it.

        Output signals and inputs that are never read map to ``len(gates)``
        (i.e. they stay live until the end); this is the liveness information
        the greedy scratch allocator consumes.
        """
        last: Dict[int, int] = {}
        for signal in self._inputs:
            last[signal] = -1
        for node in self._gates:
            last.setdefault(node.output, node.index)
            for signal in node.inputs:
                if signal in (self.CONST_ZERO, self.CONST_ONE):
                    continue
                last[signal] = node.index
        horizon = len(self._gates)
        for signal in self._outputs:
            last[signal] = horizon
        return last

    def validate(self) -> None:
        """Structural sanity checks (acyclicity is implied by construction)."""
        for node in self._gates:
            for signal in node.inputs:
                self._check_signal(signal)
        for signal in self._outputs:
            self._check_signal(signal)
        if not self._outputs:
            raise SynthesisError(f"netlist {self.name!r} has no marked outputs")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Netlist {self.name!r}: {len(self._inputs)} inputs, "
            f"{len(self._gates)} gates, {len(self._outputs)} outputs>"
        )
