"""Campaign benchmark: end-to-end throughput and set-up of ``repro``, one
workload per invocation, plus a traced per-layer split.

Usage, from the repository root::

    python3 perfbench/run.py --workload dot2-default --seed 1 --seconds 25 --trace 0

Every repetition runs in a fresh process (``rep.py``), so each campaign pays
pool start-up and the cold compile in every worker, and each set-up
measurement starts from ``import repro``.  Within the ``--seconds`` window it
alternates repetitions and reports medians.

``--trace 0`` reports the end-to-end metrics: ``trials_per_s`` (trials per
wall second of the whole ``run_campaign`` call, or of the exhaustive sweep,
where a trial is one injected fault combination), ``setup_s`` (import plus
building and lowering every backend the workload uses) and ``peak_rss_mb``
(largest peak resident set of a campaign process or one of its pool workers).
``--trace 1`` alternates untraced and traced serial repetitions and reports
per-layer self time and work counts, the share of wall time the spans cover
and the traced-to-untraced throughput ratio.  On a pooled workload the
runner's wait on its workers (``campaign.runner.pool_wait_s``) comes from one
extra pooled repetition traced in the parent process only.

Correctness checks, all counted against the shards (or sweep chunks)
attempted: counters identical across every repetition of one invocation
(traced, untraced, serial and pooled alike); on ``dot2-default`` the
``repro query`` rows equal the in-process cell reports; on
``dot2-stochastic`` seed-chosen trial slices of every cell match the
``scalar`` oracle byte for byte; on ``dot2-sweep2`` no budget violation and
no silent corruption under ECiM and TRiM.  Any failure makes the result
``correct: false`` and the exit code 1.  The last line of standard output is
the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Optional

import workloads as bench

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REP = HERE / "rep.py"

#: Fewest repetitions of each kind behind a median, even past the window.
MIN_REPS = 3
#: Wall-clock cap of one repetition process.
REP_TIMEOUT_S = 60
#: No new repetition starts this long after the benchmark started.
HARD_STOP_S = 120

END_TO_END = {
    "trials_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

#: Per-layer metric -> unit; values are self time (``_s``) or work counts.
PER_LAYER = {
    "campaign.spec.trial_seed_s": "s",
    "campaign.spec.trial_seed_calls": "count",
    "core.batched.sample_input_matrix_s": "s",
    "core.batched.sample_input_matrix_rows": "count",
    "core.backend.make_backend_s": "s",
    "core.backend.make_backend_calls": "count",
    "core.batched.compile_plan_s": "s",
    "core.batched.compile_plan_plans": "count",
    "core.soa.lower_plan_s": "s",
    "core.soa.lower_plan_plans": "count",
    "core.bitpacked.run_trials_s": "s",
    "core.bitpacked.run_trials_calls": "count",
    "core.bitpacked.run_trials_trials": "count",
    "core.bitpacked.run_trials_faults_injected": "count",
    "core.bitpacked.run_trials_ns_per_trial": "ns",
    "core.bitpacked.fault_schedule_s": "s",
    "core.soa.tape_steps_dispatched": "count",
    "campaign.application.application_counts_s": "s",
    "campaign.application.application_counts_trials": "count",
    "campaign.checkpoint.append_s": "s",
    "campaign.checkpoint.append_bytes": "bytes",
    "store.database.record_shard_s": "s",
    "store.database.record_shard_shards": "count",
    "campaign.aggregate.build_cell_reports_s": "s",
    "campaign.aggregate.build_cell_reports_cells": "count",
    "campaign.runner.pool_wait_s": "s",
    "campaign.runner.pool_wait_shards_executed": "count",
    "campaign.worker.run_shard_s": "s",
    "core.sep.enumerate_sites_s": "s",
    "core.sep.enumerate_sites_sites": "count",
    "core.sep.sweep_s": "s",
    "core.sep.sweep_combinations": "count",
    "trace.span_coverage": "ratio",
    "trace.overhead": "ratio",
}


class RepFailed(RuntimeError):
    """A repetition process crashed, timed out or printed no result."""


class Session:
    """Runs the repetitions of one invocation and keeps the failure tally."""

    def __init__(self, workload: bench.Workload, seed: int, scratch: Path) -> None:
        self.workload = workload
        self.seed = seed
        self.scratch = scratch
        self.attempted = 0
        self.failed = 0
        self.errors: list = []
        #: Merged counters of the first measured repetition.
        self.reference: Optional[str] = None
        self._reps = 0

    def rep(self, mode: str, **extra) -> dict:
        self._reps += 1
        args = {"mode": mode, "workload": self.workload.name, "seed": self.seed, **extra}
        if mode == "run":
            args["tmp"] = str(self.scratch / f"rep-{self._reps}")
            os.makedirs(args["tmp"])
        process = subprocess.Popen(
            [sys.executable, str(REP), json.dumps(args)],
            cwd=ROOT,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            start_new_session=True,
        )
        try:
            stdout, stderr = process.communicate(timeout=REP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(process.pid, signal.SIGKILL)
            process.communicate()
            raise RepFailed(f"{mode} repetition exceeded {REP_TIMEOUT_S} s") from None
        finally:
            # Pool workers share the repetition's process group; none may
            # outlive it.
            try:
                os.killpg(process.pid, signal.SIGKILL)
            except (ProcessLookupError, PermissionError):
                pass
        lines = stdout.strip().splitlines()
        if process.returncode != 0 or not lines:
            raise RepFailed(
                f"{mode} repetition exited with {process.returncode}:\n{stderr[-4000:]}"
            )
        return json.loads(lines[-1])

    def tally(self, result: dict) -> dict:
        """Count a measured or checking repetition's units and failures."""
        self.attempted += result["units"]
        failed = result.get("failed_units", 0)
        if result["errors"] and not failed:
            failed = result["units"]
        if "counters" in result:
            if self.reference is None:
                self.reference = result["counters"]
            elif result["counters"] != self.reference:
                self.errors.append("counters differ from the first repetition's")
                failed = result["units"]
        self.failed += failed
        self.errors.extend(result["errors"])
        return result


def _median(values) -> float:
    return statistics.median(values)


def _git_revision() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            check=True, timeout=30,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def measure(session: Session, seconds: float, trace: bool, started: float) -> dict:
    workload = session.workload
    deadline = time.monotonic() + seconds
    runs, traced, setups = [], [], []
    pooled = workload.workers > 1
    if trace:
        # One repetition in the workload's own configuration first; the
        # serial repetitions' counters must match it.  Pooled, it is traced
        # for the runner's wait on its workers: spans inside the workers are
        # lost with them, the parent's are not.
        first = session.tally(session.rep("run", workers=workload.workers, trace=pooled))
        if not pooled:
            runs.append(first)
    rounds = 0
    while True:
        round_started = time.monotonic()
        if trace:
            runs.append(session.tally(session.rep("run", workers=0, trace=False)))
            traced.append(session.tally(session.rep("run", workers=0, trace=True)))
        else:
            setups.append(session.rep("setup")["setup_s"])
            runs.append(session.tally(session.rep("run", workers=workload.workers, trace=False)))
        rounds += 1
        now = time.monotonic()
        # Stop once the next round would more likely end past the window
        # than inside it.
        if now - started > HARD_STOP_S:
            break
        if rounds >= MIN_REPS and now + (now - round_started) / 2 > deadline:
            break
    if workload.oracle_trials:
        session.tally(session.rep("oracle"))

    untraced_tps = _median([r["trials"] / r["wall_s"] for r in runs])
    if not trace:
        return {
            "metrics": {
                "trials_per_s": untraced_tps,
                "setup_s": _median(setups),
                "peak_rss_mb": _median([r["peak_rss_mb"] for r in runs]),
            },
            "samples": {"run": len(runs), "setup": len(setups)},
        }
    layers = {
        name: _median([r["layers"].get(name, 0) for r in traced])
        for name in PER_LAYER
        if name != "trace.overhead"
    }
    if pooled:
        for name in ("campaign.runner.pool_wait_s", "campaign.runner.pool_wait_shards_executed"):
            layers[name] = first["layers"].get(name, 0)
    layers["trace.overhead"] = (
        _median([r["trials"] / r["wall_s"] for r in traced]) / untraced_tps
    )
    return {
        "metrics": layers,
        "untraced": sorted({name for r in traced for name in r["untraced"]}),
        "samples": {"run": len(runs), "traced": len(traced)},
        "profile": profile(workload, layers, _median([r["wall_s"] for r in traced])),
    }


#: Layer groups of the printed profile, as shares of a traced run's wall time.
PROFILE_GROUPS = {
    "seeds": ("campaign.spec.trial_seed_s",),
    "inputs": ("core.batched.sample_input_matrix_s",),
    "compile+lower": ("core.batched.compile_plan_s", "core.soa.lower_plan_s"),
    "fault schedule": ("core.bitpacked.fault_schedule_s",),
    "engine": ("core.bitpacked.run_trials_s",),
    "scoring": ("campaign.application.application_counts_s",),
    "record": ("campaign.checkpoint.append_s", "store.database.record_shard_s"),
}


def profile(workload: bench.Workload, layers: dict, wall_s: float) -> str:
    """The traced split, and whether it bears out the profile the ROADMAP
    records from cProfile: the tape engine is a small share of a dot2
    campaign, and compile plus lowering a large share of a serial mlp16
    campaign.  Reported, not enforced: an optimisation may rightly move
    these shares."""
    shares = {
        group: sum(layers[name] for name in names) / wall_s
        for group, names in PROFILE_GROUPS.items()
    }
    line = ", ".join(f"{group} {share:.2f}" for group, share in shares.items())
    if workload.kind == "campaign" and workload.name.startswith("dot2-"):
        expectation, holds = "engine share below 0.25", shares["engine"] < 0.25
    elif workload.name == "mlp16-app":
        expectation, holds = "compile+lower share above 0.2", shares["compile+lower"] > 0.2
    else:
        return line
    return f"{line}; ROADMAP expectation ({expectation}) {'holds' if holds else 'does not hold'}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(bench.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.monotonic()

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # Turn SIGTERM into SystemExit so the clean-up below still runs and no
    # repetition process outlives this one.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    workload = bench.WORKLOADS[args.workload]
    scratch = ROOT / ".perfbench_tmp" / f"{os.getpid()}"
    scratch.mkdir(parents=True)
    session = Session(workload, args.seed, scratch)
    try:
        versions = session.rep("warm")
        outcome = measure(session, args.seconds, bool(args.trace), started)
    except RepFailed as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            scratch.parent.rmdir()
        except OSError:
            pass

    manifest = {
        "workload": workload.name,
        "params": workload.params,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "backend": bench.BACKEND,
        "workers": 0 if args.trace else workload.workers,
        "repro_version": versions["repro"],
        "git_revision": _git_revision(),
        "python": platform.python_version(),
        "numpy": versions["numpy"],
        "nproc": os.cpu_count(),
        "samples": outcome["samples"],
    }
    print("manifest " + json.dumps(manifest, sort_keys=True, default=list))
    units = PER_LAYER if args.trace else END_TO_END
    metrics = {name: {"value": outcome["metrics"][name], "unit": units[name]} for name in units}
    for name, entry in metrics.items():
        print(f"{name} = {entry['value']:.6g} {entry['unit']}")
    failed_frac = session.failed / session.attempted
    print(f"failed_frac = {failed_frac:g} ({session.failed} of {session.attempted} shards)")
    if args.trace:
        print("profile (share of traced wall time): " + outcome["profile"])
        if outcome["untraced"]:
            print("entry points not found, their layers read 0: " + ", ".join(outcome["untraced"]))
    for error in session.errors:
        print(f"check failed: {error}")
    correct = session.failed == 0 and not session.errors
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": session.attempted,
                "failed": session.failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
