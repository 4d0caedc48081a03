"""In-memory span tracing around the layer entry points of ``repro``.

The benchmark measures layers from the outside: :func:`install` replaces each
entry point listed in :data:`LAYERS` with a wrapper that records a span
(name, start, end, parent) and the layer's work counts, then calls the
original.  Nothing under ``src/`` changes, and the wrappers consume no
randomness, so a traced campaign produces the same counters as an untraced
one.  Spans stay in memory; :meth:`Tracer.summary` reduces them to per-layer
self time (a span's duration minus its direct children's) once the run ends.

Only the process that installed the wrappers is traced: spans recorded in
pool workers are lost with them, so the per-layer split comes from serial
runs.
"""

from __future__ import annotations

import importlib
import os
import time
from typing import Callable, Dict, Iterable, List, Optional, Tuple

Counter = Callable[[tuple, dict, object], Dict[str, float]]


def _one(suffix: str) -> Counter:
    return lambda args, kwargs, result: {suffix: 1}


def _sample_rows(args, kwargs, result):
    return {"rows": len(result)}


def _engine_counts(args, kwargs, result):
    backend = args[0]
    return {
        "calls": 1,
        "trials": len(result.outputs_correct),
        "faults_injected": int(result.faults_injected.sum()),
        # The SoA tape exists once run_trials returns (lowered on first use).
        "tape_steps": len(backend.soa.step_kind),
    }


def _application_trials(args, kwargs, result):
    return {"trials": len(args[1])}


def _shards_executed(args, kwargs, result):
    return {"shards_executed": len(args[1])}


def _cells(args, kwargs, result):
    return {"cells": len(result)}


def _sites(args, kwargs, result):
    return {"sites": len(result)}


def _combinations(args, kwargs, result):
    return {"combinations": result.total_combinations}


def _appended_bytes() -> Counter:
    sizes: Dict[str, int] = {}

    def counter(args, kwargs, result):
        path = args[0].path
        size = os.path.getsize(path)
        grown, sizes[path] = size - sizes.get(path, 0), size
        return {"bytes": grown}

    return counter


#: ``(module, attribute path, layer, counter)`` of every traced entry point.
#: Functions a caller imported by name are patched where that caller looks
#: them up (``repro.campaign.worker.trial_seed``, not ``repro.campaign.spec``).
LAYERS: Tuple[Tuple[str, str, str, Optional[Counter]], ...] = (
    ("repro.campaign.runner", "drain_tasks",
     "campaign.runner.pool_wait", _shards_executed),
    ("repro.campaign.runner", "run_shard",
     "campaign.worker.run_shard", None),
    ("repro.campaign.runner", "build_cell_reports",
     "campaign.aggregate.build_cell_reports", _cells),
    ("repro.campaign.worker", "trial_seed",
     "campaign.spec.trial_seed", _one("calls")),
    ("repro.campaign.worker", "sample_input_matrix",
     "core.batched.sample_input_matrix", _sample_rows),
    ("repro.campaign.worker", "make_backend",
     "core.backend.make_backend", _one("calls")),
    ("repro.core.backend", "make_backend",
     "core.backend.make_backend", _one("calls")),
    ("repro.core.backend", "compile_plan",
     "core.batched.compile_plan", _one("plans")),
    ("repro.core.backend", "lower_plan",
     "core.soa.lower_plan", _one("plans")),
    ("repro.core.backend", "BitpackedBackend.run_trials",
     "core.bitpacked.run_trials", _engine_counts),
    ("repro.core.backend", "BatchedBackend.enumerate_sites",
     "core.sep.enumerate_sites", _sites),
    ("repro.core.bitpacked", "_legacy_schedule",
     "core.bitpacked.fault_schedule", None),
    ("repro.core.bitpacked", "_exact_stochastic_schedule",
     "core.bitpacked.fault_schedule", None),
    ("repro.core.bitpacked", "_deterministic_schedule",
     "core.bitpacked.fault_schedule", None),
    ("repro.campaign.worker", "application_counts",
     "campaign.application.application_counts", _application_trials),
    ("repro.campaign.checkpoint", "CheckpointStore.append",
     "campaign.checkpoint.append", _appended_bytes()),
    ("repro.store.database", "ResultsStore.record_shard",
     "store.database.record_shard", _one("shards")),
    ("repro.core.sep", "exhaustive_multi_fault_injection",
     "core.sep.sweep", _combinations),
)


class Tracer:
    """Records nested spans of one thread and the counts attached to them."""

    def __init__(self) -> None:
        #: ``(name, start_ns, end_ns, parent span index or -1)``
        self.spans: List[Tuple[str, int, int, int]] = []
        self.counts: Dict[str, float] = {}
        self._stack: List[int] = []

    def enter(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append((name, time.perf_counter_ns(), 0, parent))
        self._stack.append(index)
        return index

    def leave(self, index: int) -> None:
        name, start, _, parent = self.spans[index]
        self.spans[index] = (name, start, time.perf_counter_ns(), parent)
        self._stack.pop()

    def count(self, layer: str, values: Dict[str, float]) -> None:
        for suffix, value in values.items():
            key = f"{layer}_{suffix}"
            self.counts[key] = self.counts.get(key, 0) + value

    def wrap(self, layer: str, function: Callable, counter: Optional[Counter]) -> Callable:
        def traced(*args, **kwargs):
            index = self.enter(layer)
            try:
                result = function(*args, **kwargs)
            finally:
                self.leave(index)
            if counter is not None:
                self.count(layer, counter(args, kwargs, result))
            return result

        return traced

    def summary(self) -> Tuple[Dict[str, float], float]:
        """Per-layer self seconds, and the share of the root spans' time
        that child spans cover (``trace.span_coverage``)."""
        child_ns = [0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        self_s: Dict[str, float] = {}
        root_ns = root_self_ns = 0
        for (name, start, end, parent), covered in zip(self.spans, child_ns):
            self_s[name] = self_s.get(name, 0.0) + (end - start - covered) / 1e9
            if parent < 0:
                root_ns += end - start
                root_self_ns += end - start - covered
        coverage = 1.0 - root_self_ns / root_ns if root_ns else 0.0
        return self_s, coverage


def install(tracer: Tracer, only: Optional[Iterable[str]] = None) -> List[str]:
    """Wrap the entry points of :data:`LAYERS` (those of the ``only`` layers,
    when given) in ``tracer`` spans; returns the entry points not found.

    Call after importing ``repro`` and before the traced work starts.  The
    wrappers stay installed for the rest of the process.  A pooled campaign
    pickles ``run_shard`` by reference into its workers, which a wrapper
    cannot survive, so trace it with ``only={"campaign.runner.pool_wait"}``.
    An entry point that a later version moved leaves its layer at zero, and
    is reported, instead of failing the run.
    """
    missing = []
    for module_name, path, layer, counter in LAYERS:
        if only is not None and layer not in only:
            continue
        owner = importlib.import_module(module_name)
        *parents, attribute = path.split(".")
        for parent in parents:
            owner = getattr(owner, parent, None)
        original = getattr(owner, attribute, None)
        if original is None:
            missing.append(f"{module_name}.{path}")
            continue
        setattr(owner, attribute, tracer.wrap(layer, original, counter))
    return missing
