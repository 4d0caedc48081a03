"""Cross-backend differential harness: shared grid, factories and fixtures.

This package is the single systematic scalar-vs-tape equivalence surface
(ISSUE 5): every *(workload x scheme x gate-style x fault-model)* cell is
compiled once per session and every registered candidate backend must
produce **byte-identical** :class:`~repro.core.backend.TrialOutcomes`
against the scalar reference from shared per-trial seeds — counters and all
five per-trial vectors.

Registering a new execution backend (e.g. a GPU tape interpreter) in the
harness takes one line: add a ``name -> factory(netlist, scheme,
multi_output)`` entry to :data:`BACKEND_FACTORIES` and the full differential
grid applies to it automatically.  Besides the bare ``bitpacked`` engine the
registry holds ``bitpacked-sharded`` (:class:`ShardedBackend`), which runs
every batch as ragged shards and must still match the reference trial for
trial.

The five fault models of the grid mirror the scalar injector family:

* ``stochastic`` — independent Bernoulli flips (gate + memory + preset +
  metadata rates), one skip-sampled fault stream shared across backends;
* ``burst`` — correlated bursts (trigger rate, length, correlation window)
  plus independent memory errors;
* ``stuck-at`` — permanent stuck-at-1 faults on a data output column and
  the last metadata column of the cell's layout;
* ``stuck-at-0`` — the same two columns stuck at 0;
* ``plan`` — deterministic two-flip plans per trial, drawn from the trial's
  fault seed over the backend-enumerated site list.

Rates are deliberately high so that a significant fraction of trials
injects faults — a differential test on an all-clean batch proves nothing.
"""

import itertools
import random

import numpy as np

from repro.campaign.workloads import get_campaign_workload
from repro.core.backend import (
    ExecutionBackend,
    TrialOutcomes,
    derive_seed,
    make_backend,
)
from repro.core.batched import sample_input_matrix
from repro.core.faultplan import FaultPlanArrays
from repro.pim.faults import FaultModelSpec

#: The oracle every candidate is measured against.
REFERENCE_BACKEND = "scalar"


class ShardedBackend(ExecutionBackend):
    """A candidate that splits every batch into ragged shards, runs each on
    an inner backend and concatenates the outcomes.

    A trial's outcome must depend only on its own inputs, seed or plan —
    never on its lane within a packed word or on the trials it shares a
    batch with.  Campaign shard-size and worker-count invariance rests on
    that, so the sharded form must match the reference trial for trial.
    The shard sizes cycle through :attr:`SHARD_SIZES`, which puts trials at
    shifting lane offsets and includes one multi-word shard for the larger
    (site-sweep) batches.
    """

    name = "sharded"
    SHARD_SIZES = (1, 3, 70)

    def __init__(self, inner: ExecutionBackend) -> None:
        self.inner = inner
        self.netlist = inner.netlist
        self.scheme = inner.scheme
        self.multi_output = inner.multi_output

    def _bounds(self, n_trials):
        bounds, start, turn = [], 0, 0
        while start < n_trials:
            stop = min(n_trials, start + self.SHARD_SIZES[turn % len(self.SHARD_SIZES)])
            bounds.append((start, stop))
            start, turn = stop, turn + 1
        return bounds

    @staticmethod
    def _shard_plan(fault_plan, start, stop):
        if fault_plan is None:
            return None
        if isinstance(fault_plan, FaultPlanArrays):
            lo, hi = int(fault_plan.trial_ptr[start]), int(fault_plan.trial_ptr[stop])
            return FaultPlanArrays(
                trial_ptr=fault_plan.trial_ptr[start : stop + 1] - lo,
                op_index=fault_plan.op_index[lo:hi],
                position=fault_plan.position[lo:hi],
            )
        return list(fault_plan[start:stop])

    def run_trials(
        self,
        inputs,
        *,
        n_trials=None,
        fault_plan=None,
        fault_seeds=None,
        fault_model=None,
        capture_outputs=False,
    ):
        matrix = self._input_matrix(inputs, n_trials)
        self._validate_fault_args(matrix.shape[0], fault_plan, fault_seeds, fault_model)
        shards = [
            self.inner.run_trials(
                matrix[start:stop],
                fault_plan=self._shard_plan(fault_plan, start, stop),
                fault_seeds=None if fault_seeds is None else list(fault_seeds[start:stop]),
                fault_model=fault_model,
                capture_outputs=capture_outputs,
            )
            for start, stop in self._bounds(matrix.shape[0])
        ]
        return TrialOutcomes(
            outputs_correct=np.concatenate([s.outputs_correct for s in shards]),
            detected=np.concatenate([s.detected for s in shards]),
            corrections=np.concatenate([s.corrections for s in shards]),
            uncorrectable_levels=np.concatenate([s.uncorrectable_levels for s in shards]),
            faults_injected=np.concatenate([s.faults_injected for s in shards]),
            outputs=np.concatenate([s.outputs for s in shards]) if capture_outputs else None,
        )

    def enumerate_sites(self, input_values=None):
        return self.inner.enumerate_sites(input_values)


#: Candidate backends under differential test.  A future backend joins the
#: whole grid by registering a factory here.
BACKEND_FACTORIES = {
    "bitpacked": lambda netlist, scheme, multi_output: make_backend(
        "bitpacked", netlist, scheme, multi_output=multi_output
    ),
    "bitpacked-sharded": lambda netlist, scheme, multi_output: ShardedBackend(
        make_backend("bitpacked", netlist, scheme, multi_output=multi_output)
    ),
}

WORKLOADS = ("and2", "dot2", "fft4")
SCHEMES = ("unprotected", "ecim", "trim")
GATE_STYLES = (True, False)  # multi-output vs single-output
MODEL_KINDS = ("stochastic", "burst", "stuck-at", "stuck-at-0", "plan")
TRIALS = 16
SEED = 2024

#: Per-workload trial budgets.  The application netlists are orders of
#: magnitude bigger than the arithmetic kernels (mlp16 is 5112 gates; the
#: scalar reference costs ~1 s/trial on it), so mlp16 runs a reduced batch
#: — still enough that every grid fault model injects into every trial.
TRIAL_COUNTS = {"mlp16": 4}

#: The grid, with human-readable pytest ids.  The full product covers the
#: cheap workloads (fft4's 200-gate netlist rides along at full width);
#: ``unprotected`` tapes fuse into the widest gate waves, so they are
#: checked too, in one gate style (both compile the same unprotected tape).
#: mlp16 joins as two runtime-bounded cells, ECiM and TRiM, that still
#: exercise every fault model and every candidate backend.
GRID = tuple(
    cell
    for cell in itertools.product(WORKLOADS, SCHEMES, GATE_STYLES)
    if cell[1] != "unprotected" or cell[2]
) + (
    ("mlp16", "ecim", True),
    ("mlp16", "trim", True),
)


def _grid_id(cell):
    workload, scheme, multi_output = cell
    return f"{workload}-{scheme}-{'mo' if multi_output else 'so'}"


class DifferentialCell:
    """One compiled grid cell: reference + candidate backends and the shared
    per-trial inputs/seeds every fault model reuses."""

    def __init__(self, workload, scheme, multi_output):
        self.workload = workload
        self.scheme = scheme
        self.multi_output = multi_output
        netlist = get_campaign_workload(workload).netlist
        self.reference = make_backend(
            REFERENCE_BACKEND, netlist, scheme, multi_output=multi_output
        )
        self.candidates = {
            name: build(netlist, scheme, multi_output)
            for name, build in BACKEND_FACTORIES.items()
        }
        self.trials = TRIAL_COUNTS.get(workload, TRIALS)
        self.input_seeds = [
            derive_seed(SEED, workload, scheme, multi_output, trial, "inputs")
            for trial in range(self.trials)
        ]
        self.fault_seeds = [
            derive_seed(SEED, workload, scheme, multi_output, trial, "faults")
            for trial in range(self.trials)
        ]
        self.inputs = sample_input_matrix(netlist, self.input_seeds)
        # Column layout is shared between backends (the tape compiler reuses
        # the scalar executor's layout verbatim), so the compiled plan is the
        # cheap way to pick valid stuck columns for both.
        plan = self.candidates["bitpacked"].plan
        self.stuck_columns = (int(plan.output_cols[0]), plan.n_cols - 1)
        self._sites = None
        self._reference_outcomes = {}
        self._candidate_outcomes = {}

    @property
    def sites(self):
        if self._sites is None:
            self._sites = self.reference.enumerate_sites()
        return self._sites

    def reference_outcomes(self, kind):
        """The scalar reference :class:`TrialOutcomes` for one fault model,
        computed once per cell: the reference run is deterministic, and on
        the big application netlists it dominates the grid's runtime."""
        if kind not in self._reference_outcomes:
            self._reference_outcomes[kind] = self.reference.run_trials(
                self.inputs, **self.run_kwargs(kind)
            )
        return self._reference_outcomes[kind]

    def candidate_outcomes(self, name, kind):
        """One candidate's first :class:`TrialOutcomes` for one fault model,
        likewise computed once per cell; the reproducibility tests compare
        it against a fresh run."""
        key = (name, kind)
        if key not in self._candidate_outcomes:
            self._candidate_outcomes[key] = self.candidates[name].run_trials(
                self.inputs, **self.run_kwargs(kind)
            )
        return self._candidate_outcomes[key]

    def run_kwargs(self, kind):
        """The ``run_trials`` keyword set realising one fault model."""
        if kind == "stochastic":
            return dict(
                fault_model=FaultModelSpec.stochastic(
                    gate_error_rate=0.02,
                    memory_error_rate=0.01,
                    preset_error_rate=0.005,
                    metadata_error_rate=0.03,
                ),
                fault_seeds=self.fault_seeds,
            )
        if kind == "burst":
            return dict(
                fault_model=FaultModelSpec.burst(
                    burst_length=3,
                    correlation_window=5,
                    gate_error_rate=0.01,
                    memory_error_rate=0.005,
                ),
                fault_seeds=self.fault_seeds,
            )
        if kind in ("stuck-at", "stuck-at-0"):
            polarity = 0 if kind == "stuck-at-0" else 1
            return dict(
                fault_model=FaultModelSpec.stuck_at(
                    self.stuck_columns, stuck_polarity=polarity
                )
            )
        if kind == "plan":
            return dict(fault_plan=self._two_flip_plans())
        raise ValueError(f"unknown differential fault-model kind {kind!r}")

    def _two_flip_plans(self):
        """Deterministic two-flip plans per trial, campaign-style: uniform
        site pairs drawn from each trial's fault seed."""
        plans = []
        for seed in self.fault_seeds:
            chosen = random.Random(seed).sample(range(len(self.sites)), 2)
            entry = {}
            for index in chosen:
                site = self.sites[index]
                entry.setdefault(site.operation_index, []).append(site.output_position)
            plans.append({op: tuple(positions) for op, positions in entry.items()})
        return plans


_CELL_CACHE = {}


def get_cell(workload, scheme, multi_output) -> DifferentialCell:
    """Session-level cell cache: each grid cell compiles exactly once no
    matter how many fault models and candidates exercise it."""
    key = (workload, scheme, multi_output)
    if key not in _CELL_CACHE:
        _CELL_CACHE[key] = DifferentialCell(*key)
    return _CELL_CACHE[key]


def assert_outcomes_identical(reference, candidate, context=""):
    """Byte-identical :class:`TrialOutcomes`: summed counters AND every
    per-trial vector."""
    assert reference.counts() == candidate.counts(), context
    for field in (
        "outputs_correct",
        "detected",
        "corrections",
        "uncorrectable_levels",
        "faults_injected",
    ):
        assert np.array_equal(
            getattr(reference, field), getattr(candidate, field)
        ), f"{context}: per-trial {field} vectors differ"
