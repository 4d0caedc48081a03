"""Bit-accurate executors: run a netlist in a PiM array row, with or without
protection.

These executors are the behavioural counterpart of the analytic cost models:
they place a compiled netlist into one row of a :class:`~repro.pim.array.PimArray`,
fire the in-array gates level by level, maintain the protection metadata *in
the array* exactly as Sections IV-C/IV-D describe, and invoke the external
Checker at logic-level granularity.  Because every gate output passes through
the array's fault injector, they are the vehicle for validating the single
error protection (SEP) guarantee (Fig. 6) and for all fault-injection tests.

Three executors are provided:

* :class:`UnprotectedExecutor` — plain execution, no metadata, no checks.
* :class:`EcimExecutor` — per logic level, a (shortened) Hamming code over
  the level's gate outputs is maintained in dedicated parity columns.  Each
  computation gate is issued as a multi-output gate whose extra outputs
  (one *independent* copy per covered parity bit, the ``r_ij`` of Fig. 6)
  land next to the parity columns; every copy is folded into its parity bit
  with the in-array 2-step XOR (``NOR22`` + ``THR``).  At the end of the
  level the data + parity bits are read out, the syndrome is computed by the
  :class:`~repro.core.checker.EcimChecker`, and corrected data is written
  back before the next level starts.
* :class:`TrimExecutor` — each gate is issued as a 3-output gate (or three
  independent firings in single-output mode); the
  :class:`~repro.core.checker.TrimChecker` votes per logic level and writes
  the majority back.

Column layout within the row::

    [ inputs | gate outputs ... | const0 const1 | metadata region ... ]

The executors allocate one column per signal (no scratch reuse): they target
functional validation on small circuits, while large-workload costs are
handled analytically by :mod:`repro.eval.models`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.compiler.netlist import GateNode, Netlist
from repro.core.checker import CheckResult, EcimChecker, TrimChecker
from repro.ecc.hamming import HammingCode
from repro.errors import ProtectionError
from repro.pim.array import PimArray
from repro.pim.gates import GateType
from repro.pim.technology import STT_MRAM, TechnologyParameters

__all__ = [
    "ExecutionReport",
    "UnprotectedExecutor",
    "EcimExecutor",
    "TrimExecutor",
    "EXECUTORS_BY_SCHEME",
]


@dataclass
class ExecutionReport:
    """Summary of one protected (or unprotected) netlist execution."""

    outputs: Dict[int, int]
    golden_outputs: Dict[int, int]
    checks: List[CheckResult] = field(default_factory=list)
    corrections: int = 0
    uncorrectable_levels: int = 0

    @property
    def outputs_correct(self) -> bool:
        return self.outputs == self.golden_outputs

    @property
    def errors_detected(self) -> int:
        return sum(1 for c in self.checks if c.error_detected)

    # ------------------------------------------------------------------ #
    # Outcome classification (each run falls in exactly one category —
    # the taxonomy campaign aggregation and the paper's coverage
    # discussion are built on).
    # ------------------------------------------------------------------ #
    @property
    def detected(self) -> bool:
        """True when at least one logic-level check fired."""
        return self.errors_detected > 0

    @property
    def clean(self) -> bool:
        """Correct outputs and no check ever fired."""
        return self.outputs_correct and not self.detected

    @property
    def recovered(self) -> bool:
        """Correct outputs after at least one detection."""
        return self.outputs_correct and self.detected

    @property
    def detected_corruption(self) -> bool:
        """Wrong outputs, but the scheme knew: some check fired."""
        return not self.outputs_correct and self.detected

    @property
    def silent_corruption(self) -> bool:
        """Wrong outputs and no check fired — the failure mode ECiM/TRiM
        exist to eliminate."""
        return not self.outputs_correct and not self.detected


class _BaseExecutor:
    """Shared column-layout and gate-firing machinery."""

    def __init__(
        self,
        netlist: Netlist,
        array: Optional[PimArray] = None,
        row: int = 0,
        technology: TechnologyParameters = STT_MRAM,
        metadata_columns: int = 0,
        fault_injector=None,
    ) -> None:
        netlist.validate()
        self.netlist = netlist
        self.row = row
        required = netlist.n_signals + 2 + metadata_columns
        if array is None:
            array = PimArray(
                rows=max(4, row + 1),
                cols=required,
                technology=technology,
                fault_injector=fault_injector,
            )
        if array.cols < required:
            raise ProtectionError(
                f"array has {array.cols} columns but the execution needs {required}"
            )
        self.array = array
        # Column layout: one column per signal id, then the two constants.
        self.column_of: Dict[int, int] = {s: s for s in range(netlist.n_signals)}
        self.const0_col = netlist.n_signals
        self.const1_col = netlist.n_signals + 1
        self.column_of[Netlist.CONST_ZERO] = self.const0_col
        self.column_of[Netlist.CONST_ONE] = self.const1_col
        self.metadata_base = netlist.n_signals + 2
        self._levels = netlist.levelize()

    # ------------------------------------------------------------------ #
    # Reuse
    # ------------------------------------------------------------------ #
    def reset(self, fault_injector=None) -> None:
        """Prepare this executor for another :meth:`run` on the same netlist.

        Re-running without a reset leaks state between trials: the array's
        operation trace grows without bound and the global operation index
        keeps advancing, so operation-indexed injectors
        (:class:`~repro.pim.faults.DeterministicFaultInjector`,
        :class:`~repro.pim.faults.BurstFaultInjector`) would target different
        sites on every repetition.  ``reset`` rewinds the array-side state
        while keeping the compiled column layout, which is what makes
        repeated Monte-Carlo trials cost one execution instead of one
        compilation + execution.

        The *injector's own* state (its fault log, RNG position, consumed
        deterministic targets) is not rewound — it cannot be, in general.
        Pass ``fault_injector`` to install a fresh injector for the next run
        (a new seeded injector per trial for reproducible fault streams, or
        :class:`~repro.pim.faults.NoFaultInjector` to return to error-free
        execution); without it the retained injector simply continues its
        stream.
        """
        self.array.reset(fault_injector=fault_injector)

    # ------------------------------------------------------------------ #
    # Setup
    # ------------------------------------------------------------------ #
    def _load_inputs(self, input_values: Dict[int, int]) -> None:
        for signal in self.netlist.inputs:
            if signal not in input_values:
                raise ProtectionError(f"missing value for input signal {signal}")
            self.array.write_cell(self.row, self.column_of[signal], int(input_values[signal]))
        self.array.write_cell(self.row, self.const0_col, 0)
        self.array.write_cell(self.row, self.const1_col, 1)

    def _golden(self, input_values: Dict[int, int]) -> Dict[int, int]:
        return self.netlist.evaluate_outputs(input_values)

    def _read_outputs(self) -> Dict[int, int]:
        return {
            signal: self.array.read_cell(self.row, self.column_of[signal])
            for signal in self.netlist.outputs
        }

    def _fire_gate(
        self,
        node: GateNode,
        level: int,
        extra_output_cols: Sequence[int] = (),
        is_metadata: bool = False,
        output_override: Optional[Sequence[int]] = None,
    ) -> None:
        """Fire one netlist gate on the array, with optional extra outputs.

        ``output_override`` redirects the gate's outputs to explicit columns
        (used when re-executing a gate to produce an independent redundant
        copy without touching the primary data column).
        """
        input_cols = [self.column_of[s] for s in node.inputs]
        if output_override is not None:
            output_cols = list(output_override)
        else:
            output_cols = [self.column_of[node.output]] + list(extra_output_cols)
        self.array.execute_gate(
            node.gate,
            self.row,
            input_cols,
            output_cols,
            logic_level=level,
            is_metadata=is_metadata,
            threshold=node.threshold,
        )


class UnprotectedExecutor(_BaseExecutor):
    """Execute a netlist with no protection (the baseline)."""

    def __init__(
        self,
        netlist: Netlist,
        array: Optional[PimArray] = None,
        row: int = 0,
        technology: TechnologyParameters = STT_MRAM,
        fault_injector=None,
    ) -> None:
        super().__init__(
            netlist,
            array,
            row,
            technology,
            metadata_columns=0,
            fault_injector=fault_injector,
        )

    def run(self, input_values: Dict[int, int]) -> ExecutionReport:
        self._load_inputs(input_values)
        for level_number, gate_indices in enumerate(self._levels, start=1):
            for gate_index in gate_indices:
                self._fire_gate(self.netlist.gates[gate_index], level_number)
        return ExecutionReport(
            outputs=self._read_outputs(),
            golden_outputs=self._golden(input_values),
        )


class EcimExecutor(_BaseExecutor):
    """ECiM: in-memory Hamming parity per logic level + external syndrome checker."""

    def __init__(
        self,
        netlist: Netlist,
        array: Optional[PimArray] = None,
        row: int = 0,
        technology: TechnologyParameters = STT_MRAM,
        multi_output: bool = True,
        code_factory=None,
        fault_injector=None,
    ) -> None:
        self.multi_output = multi_output
        self._code_factory = code_factory if code_factory is not None else HammingCode
        self._codes: Dict[int, object] = {}
        # Metadata region: per level we need, at worst,
        #   r parity ping-pong cells (2r) + r independent r_ij staging cells +
        #   2 XOR scratch cells, where r = parity bits of the widest level.
        widest = max((len(level) for level in netlist.levelize()), default=1)
        r_max = self.level_code(widest).n_parity
        metadata_columns = 2 * r_max + r_max + 2
        super().__init__(
            netlist, array, row, technology, metadata_columns, fault_injector=fault_injector
        )
        self._r_max = r_max

    def level_code(self, n_data_bits: int):
        """The code protecting a level of ``n_data_bits`` gate outputs, built
        once per width: levels of equal width share one code, across levels
        and across runs (the plan compiler reads it too)."""
        n_data_bits = max(1, n_data_bits)
        code = self._codes.get(n_data_bits)
        if code is None:
            code = self._codes[n_data_bits] = self._code_factory(n_data_bits)
        return code

    # Metadata column layout (relative to metadata_base):
    #   [0 .. r-1]        parity bank A
    #   [r .. 2r-1]       parity bank B (ping-pong target)
    #   [2r .. 3r-1]      r_ij staging cells (one per parity bit)
    #   [3r, 3r+1]        XOR scratch (NOR22 outputs)
    def _parity_col(self, bank: int, index: int) -> int:
        return self.metadata_base + bank * self._r_max + index

    def _staging_col(self, index: int) -> int:
        return self.metadata_base + 2 * self._r_max + index

    def _xor_scratch_cols(self) -> Tuple[int, int]:
        return (
            self.metadata_base + 3 * self._r_max,
            self.metadata_base + 3 * self._r_max + 1,
        )

    def _xor_into_parity(
        self,
        r_col: int,
        parity_col: int,
        target_col: int,
        level: int,
    ) -> None:
        """In-array XOR: target = r XOR parity (2-step or 3-step form)."""
        s1_col, s2_col = self._xor_scratch_cols()
        if self.multi_output:
            self.array.execute_gate(
                GateType.NOR,
                self.row,
                [r_col, parity_col],
                [s1_col, s2_col],
                logic_level=level,
                is_metadata=True,
            )
        else:
            self.array.execute_gate(
                GateType.NOR,
                self.row,
                [r_col, parity_col],
                [s1_col],
                logic_level=level,
                is_metadata=True,
            )
            self.array.execute_gate(
                GateType.COPY,
                self.row,
                [s1_col],
                [s2_col],
                logic_level=level,
                is_metadata=True,
            )
        self.array.execute_gate(
            GateType.THR,
            self.row,
            [r_col, parity_col, s1_col, s2_col],
            [target_col],
            logic_level=level,
            is_metadata=True,
        )

    def run(self, input_values: Dict[int, int]) -> ExecutionReport:
        self._load_inputs(input_values)
        report = ExecutionReport(outputs={}, golden_outputs=self._golden(input_values))

        for level_number, gate_indices in enumerate(self._levels, start=1):
            nodes = [self.netlist.gates[i] for i in gate_indices]
            code = self.level_code(len(nodes))
            checker = EcimChecker(code)
            r = code.n_parity

            # Reset the parity bank for this level (parity of all-zero data).
            parity_bank = [0] * r  # which bank currently holds parity bit i
            for i in range(r):
                self.array.preset_cells(
                    self.row,
                    [self._parity_col(0, i), self._parity_col(1, i)],
                    0,
                    logic_level=level_number,
                    is_metadata=True,
                )

            for data_bit, node in enumerate(nodes):
                covered = code.parity_bits_affected_by(data_bit)
                if self.multi_output:
                    extra_cols = [self._staging_col(i) for i in covered]
                    self._fire_gate(node, level_number, extra_output_cols=extra_cols)
                else:
                    # Single-output mode: fire the data gate, then produce
                    # each independent r_ij by re-executing the gate into the
                    # staging cell (a plain copy of the data output would not
                    # preserve the independence the SEP argument needs).
                    self._fire_gate(node, level_number)
                    for i in covered:
                        self._fire_gate(
                            node,
                            level_number,
                            is_metadata=True,
                            output_override=[self._staging_col(i)],
                        )
                # Fold each independent copy into its parity bit.
                for i in covered:
                    source_bank = parity_bank[i]
                    target_bank = 1 - source_bank
                    self._xor_into_parity(
                        r_col=self._staging_col(i),
                        parity_col=self._parity_col(source_bank, i),
                        target_col=self._parity_col(target_bank, i),
                        level=level_number,
                    )
                    parity_bank[i] = target_bank

            # Logic-level check: read data + parity, decode, write back.
            data_cols = [self.column_of[node.output] for node in nodes]
            parity_cols = [self._parity_col(parity_bank[i], i) for i in range(r)]
            data_bits = self.array.read_row(self.row, data_cols, logic_level=level_number)
            parity_bits = self.array.read_row(self.row, parity_cols, logic_level=level_number)
            check = checker.check_level(data_bits, parity_bits)
            report.checks.append(check)
            if check.uncorrectable:
                report.uncorrectable_levels += 1
            if check.corrected_positions:
                corrected_cols = [data_cols[p] for p in check.corrected_positions]
                corrected_vals = [check.corrected_data[p] for p in check.corrected_positions]
                self.array.write_row(
                    self.row, corrected_cols, corrected_vals, logic_level=level_number
                )
                report.corrections += len(check.corrected_positions)

        report.outputs = self._read_outputs()
        return report


class TrimExecutor(_BaseExecutor):
    """TRiM: triple-redundant in-memory computation + external majority voter."""

    def __init__(
        self,
        netlist: Netlist,
        array: Optional[PimArray] = None,
        row: int = 0,
        technology: TechnologyParameters = STT_MRAM,
        multi_output: bool = True,
        n_copies: int = 3,
        fault_injector=None,
    ) -> None:
        if n_copies < 3 or n_copies % 2 == 0:
            raise ProtectionError("TRiM requires an odd number of copies >= 3")
        self.multi_output = multi_output
        self.n_copies = n_copies
        widest = max((len(level) for level in netlist.levelize()), default=1)
        metadata_columns = (n_copies - 1) * widest
        super().__init__(
            netlist, array, row, technology, metadata_columns, fault_injector=fault_injector
        )
        self._widest = widest
        self.checker = TrimChecker(n_copies)

    def _copy_col(self, copy_index: int, position: int) -> int:
        return self.metadata_base + copy_index * self._widest + position

    def run(self, input_values: Dict[int, int]) -> ExecutionReport:
        self._load_inputs(input_values)
        report = ExecutionReport(outputs={}, golden_outputs=self._golden(input_values))

        for level_number, gate_indices in enumerate(self._levels, start=1):
            nodes = [self.netlist.gates[i] for i in gate_indices]
            for position, node in enumerate(nodes):
                copy_cols = [self._copy_col(c, position) for c in range(self.n_copies - 1)]
                if self.multi_output:
                    self._fire_gate(node, level_number, extra_output_cols=copy_cols)
                else:
                    self._fire_gate(node, level_number)
                    input_cols = [self.column_of[s] for s in node.inputs]
                    for col in copy_cols:
                        # threshold must travel with the re-execution: a THR
                        # gate copied at a different threshold is not a copy,
                        # and the majority vote would write its wrong value
                        # back over the correct primary.
                        self.array.execute_gate(
                            node.gate,
                            self.row,
                            input_cols,
                            [col],
                            logic_level=level_number,
                            is_metadata=True,
                            threshold=node.threshold,
                        )

            # Logic-level vote.
            data_cols = [self.column_of[node.output] for node in nodes]
            primary = self.array.read_row(self.row, data_cols, logic_level=level_number)
            copies = [primary]
            for c in range(self.n_copies - 1):
                copy_cols = [self._copy_col(c, position) for position in range(len(nodes))]
                copies.append(self.array.read_row(self.row, copy_cols, logic_level=level_number))
            check = self.checker.check_level(copies)
            report.checks.append(check)
            if check.corrected_positions:
                corrected_cols = [data_cols[p] for p in check.corrected_positions]
                corrected_vals = [check.corrected_data[p] for p in check.corrected_positions]
                self.array.write_row(
                    self.row, corrected_cols, corrected_vals, logic_level=level_number
                )
                report.corrections += len(check.corrected_positions)

        report.outputs = self._read_outputs()
        return report


#: Executor class per protection-scheme name — the scheme vocabulary shared
#: by the execution backends (:mod:`repro.core.backend`), the tape compiler
#: (:func:`repro.core.batched.compile_plan`) and the campaign grid.
EXECUTORS_BY_SCHEME = {
    "unprotected": UnprotectedExecutor,
    "ecim": EcimExecutor,
    "trim": TrimExecutor,
}
