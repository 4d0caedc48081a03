"""One measured repetition of a benchmark workload, in a fresh process.

``python perfbench/rep.py '<json>'`` runs one of four modes and prints one
JSON object as its last line of standard output:

``warm``
    Import ``repro`` once so that later processes read compiled bytecode,
    and report the versions the run manifest records.
``setup``
    Cold set-up: seconds from interpreter start through ``import repro`` and
    building and lowering every backend the workload uses.
``run``
    One whole campaign (``run_campaign``) or exhaustive sweep, timed from a
    process in which nothing has been compiled yet, so pool start-up and the
    cold compile in every worker are part of the figure.  With ``trace`` the
    layer entry points are wrapped in spans first (see ``spans.py``).
``oracle``
    Re-run a seed-chosen slice of trials of every cell on the ``scalar``
    oracle backend and on the benchmark backend, and compare the shard
    results byte for byte.

``run.py`` starts every repetition as its own process; this file is not
meant to be run by hand except for debugging.
"""

import time

START = time.perf_counter()

import json  # noqa: E402
import math  # noqa: E402
import multiprocessing  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads as bench  # noqa: E402


def _canonical(value) -> str:
    return json.dumps(value, sort_keys=True)


def warm(args):
    import numpy

    import repro
    import repro.campaign.runner  # noqa: F401
    import repro.core.sep  # noqa: F401
    import repro.store.query  # noqa: F401

    return {"repro": repro.__version__, "numpy": numpy.__version__}


def setup(args):
    import repro  # noqa: F401
    import repro.campaign.runner  # noqa: F401
    import repro.core.sep  # noqa: F401
    from repro.campaign.workloads import get_campaign_workload
    from repro.core.backend import make_backend

    workload = bench.WORKLOADS[args["workload"]]
    for name, scheme, multi_output in bench.backend_keys(workload, args["seed"]):
        backend = make_backend(
            bench.BACKEND, get_campaign_workload(name).netlist, scheme, multi_output=multi_output
        )
        backend.soa  # compiles the plan and lowers it to the SoA tape
    return {"setup_s": time.perf_counter() - START}


def _peak_rss_mb() -> float:
    """Largest peak resident set of this process and its finished children."""
    for child in multiprocessing.active_children():
        child.join()
    return max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    ) / 1024.0


def _query_errors(db_path, result) -> list:
    """Differences between ``repro query`` rows and the in-process reports."""
    from repro.store.database import ResultsStore
    from repro.store.query import run_query

    store = ResultsStore(db_path)
    try:
        _, rows = run_query(store)
    finally:
        store.close()
    reports = {
        (r.cell.workload, r.cell.scheme, r.cell.technology, r.cell.gate_error_rate): r
        for r in result.reports
    }
    if len(rows) != len(reports):
        return [f"query returned {len(rows)} rows for {len(reports)} cells"]
    errors = []
    for row in rows:
        key = (row["workload"], row["scheme"], row["technology"], row["gate_error_rate"])
        report = reports.get(key)
        if report is None:
            errors.append(f"query row {key} has no campaign cell")
            continue
        expected = {
            "trials": report.trials,
            "coverage": report.coverage,
            "coverage_ci_low": report.coverage_interval[0],
            "coverage_ci_high": report.coverage_interval[1],
            "silent_corruption_rate": report.silent_corruption_rate,
            "silent_ci_low": report.silent_corruption_interval[0],
            "silent_ci_high": report.silent_corruption_interval[1],
            "detected_rate": report.detected_rate,
            "recovered_rate": report.recovered_rate,
            "detected_corruption_rate": report.detected_corruption_rate,
            "faults_per_trial_avg": report.average_faults_per_trial,
        }
        for column, value in expected.items():
            if row[column] != value:
                errors.append(f"query {key} {column}: {row[column]!r} != report {value!r}")
    return errors


def _campaign(workload, args, tracer):
    from repro.campaign import runner

    spec = bench.campaign_spec(workload, args["seed"])
    record = {}
    if workload.record:
        tmp = Path(args["tmp"])
        record = {"checkpoint": tmp / "checkpoint.jsonl", "db": tmp / "results.sqlite"}
    root = tracer.enter("bench.run") if tracer else None
    started = time.perf_counter()
    result = runner.run_campaign(spec, workers=args["workers"], **record)
    wall = time.perf_counter() - started
    if tracer:
        tracer.leave(root)
    out = {
        "trials": result.total_trials,
        "wall_s": wall,
        "units": result.executed_shards,
        "counters": _canonical(
            {"counts": result.counts_by_cell, "application": result.application_by_cell}
        ),
        "peak_rss_mb": _peak_rss_mb(),
        "errors": [],
    }
    if workload.record:
        out["errors"] = _query_errors(record["db"], result)
    return out


def _sweep(workload, args, tracer):
    from repro.campaign.workloads import get_campaign_workload
    from repro.core import backend as core_backend
    from repro.core import sep

    params = workload.params
    root = tracer.enter("bench.run") if tracer else None
    started = time.perf_counter()
    netlist = get_campaign_workload(params["workload"]).netlist
    inputs = bench.sweep_inputs(netlist, args["seed"])
    rows = {}
    for scheme in params["schemes"]:
        backend = core_backend.make_backend(bench.BACKEND, netlist, scheme)
        sites = bench.sweep_sites(
            backend.enumerate_sites(inputs), args["seed"], scheme, params["max_sites"]
        )
        analysis = sep.exhaustive_multi_fault_injection(
            backend, inputs, k=params["k"], sites=sites,
            chunk_size=bench.SWEEP_CHUNK, keep_outcomes=False,
        )
        rows[scheme] = analysis.coverage_row()
    wall = time.perf_counter() - started
    if tracer:
        tracer.leave(root)
    errors = [
        f"{scheme}: {row['budget_violations']} budget violations, {row['silent']} silent"
        for scheme, row in rows.items()
        if row["budget_violations"] or row["silent"]
    ]
    chunks = [math.ceil(row["combinations"] / bench.SWEEP_CHUNK) for row in rows.values()]
    return {
        "trials": sum(row["combinations"] for row in rows.values()),
        "wall_s": wall,
        "units": sum(chunks),
        "counters": _canonical(rows),
        "peak_rss_mb": _peak_rss_mb(),
        # A failed guarantee fails every chunk of its scheme's sweep.
        "failed_units": sum(
            n for n, row in zip(chunks, rows.values())
            if row["budget_violations"] or row["silent"]
        ),
        "errors": errors,
    }


def _layer_metrics(tracer) -> dict:
    self_s, coverage = tracer.summary()
    counts = tracer.counts
    engine_trials = counts.get("core.bitpacked.run_trials_trials", 0)
    engine_s = self_s.get("core.bitpacked.run_trials", 0.0) + self_s.get(
        "core.bitpacked.fault_schedule", 0.0
    )
    metrics = {f"{layer}_s": seconds for layer, seconds in self_s.items() if layer != "bench.run"}
    metrics.update(counts)
    metrics["core.soa.tape_steps_dispatched"] = metrics.pop(
        "core.bitpacked.run_trials_tape_steps", 0
    )
    metrics["core.bitpacked.run_trials_ns_per_trial"] = (
        engine_s * 1e9 / engine_trials if engine_trials else 0.0
    )
    metrics["trace.span_coverage"] = coverage
    return metrics


def run(args):
    workload = bench.WORKLOADS[args["workload"]]
    tracer = None
    if args["trace"]:
        import spans

        tracer = spans.Tracer()
        only = {"campaign.runner.pool_wait"} if args["workers"] > 1 else None
        missing = spans.install(tracer, only=only)
    measure = _sweep if workload.kind == "sweep" else _campaign
    out = measure(workload, args, tracer)
    if tracer:
        out["layers"] = _layer_metrics(tracer)
        out["untraced"] = missing
    return out


def oracle(args):
    from repro.campaign.spec import ShardTask
    from repro.campaign.worker import run_shard

    workload = bench.WORKLOADS[args["workload"]]
    spec = bench.campaign_spec(workload, args["seed"])
    rng = random.Random(f"perfbench-oracle-{args['seed']}")
    mismatches = []
    shards = spec.shards()
    for cell in spec.cells():
        shard = rng.choice([s for s in shards if s.cell.key == cell.key])
        n_trials = min(workload.oracle_trials, shard.n_trials)
        start = shard.start_trial + rng.randrange(shard.n_trials - n_trials + 1)
        results = {
            backend: _canonical(
                run_shard(
                    ShardTask(
                        cell=cell,
                        shard_index=shard.shard_index,
                        start_trial=start,
                        n_trials=n_trials,
                        campaign_seed=spec.seed,
                        backend=backend,
                    )
                ).to_dict()
            )
            for backend in ("scalar", bench.BACKEND)
        }
        if results["scalar"] != results[bench.BACKEND]:
            mismatches.append(
                f"{cell.key} trials {start}..{start + n_trials - 1}: "
                f"scalar {results['scalar']} != {bench.BACKEND} {results[bench.BACKEND]}"
            )
    return {"units": len(spec.cells()), "failed_units": len(mismatches), "errors": mismatches}


MODES = {"warm": warm, "setup": setup, "run": run, "oracle": oracle}


if __name__ == "__main__":
    arguments = json.loads(sys.argv[1])
    print(json.dumps(MODES[arguments["mode"]](arguments)))
