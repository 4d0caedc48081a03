"""Multi-fault sweep bench: array fault plans vs the dict-plan reference.

The k=2 exhaustive sweep of the ISSUE 8 acceptance cell — and2 under
BCH-t2 ECiM, 63 sites, all C(63, 2) = 1953 pairs — is timed twice per
engine:

* the **array path** — what :func:`exhaustive_multi_fault_injection` runs
  today: combination ranks unranked into a ``(chunk, k)`` site matrix, one
  CSR :class:`~repro.core.faultplan.FaultPlanArrays` batch per shard, numpy
  reductions into counters;
* the **dict reference** — the pre-vectorization pipeline, rebuilt here
  from the kept :func:`repro.core.sep._combination_fault_plan`:
  ``itertools.combinations`` enumeration, one Python dict plan and one
  ``MultiFaultOutcome`` per combination, per-trial ``record()`` folds.

Both must produce identical coverage rows (the ISSUE 8 byte-identity
acceptance), and on the tape engines the array path must be at least
:data:`ARRAY_FLOOR` x faster end to end (the ISSUE 8 speedup acceptance;
typical observed: ~8x on the bitpacked engine).  The scalar engine executes
trials one at a time either way, so its test only pins coverage identity.
"""

import time
from itertools import combinations

from conftest import emit

from repro.campaign.workloads import get_campaign_workload
from repro.core.backend import make_backend
from repro.core.sep import (
    MultiFaultAnalysis,
    MultiFaultOutcome,
    _chunked,
    _combination_fault_plan,
    exhaustive_multi_fault_injection,
)
from repro.ecc.bch import bch_code_factory

K = 2
CHUNK = 4096
#: Sweep repetitions per timing (the tape-engine sweeps are milliseconds).
ROUNDS = {"scalar": 1, "bitpacked": 5}

#: Asserted end-to-end floor of the array-plan sweep over the dict-plan
#: reference on the tape engines (ISSUE 8 acceptance criterion).
ARRAY_FLOOR = 3.0

_OBSERVED = {}


def _sweep_case(name):
    """The acceptance cell: and2 + BCH-t2 ECiM (63 sites, 1953 pairs)."""
    netlist = get_campaign_workload("and2").netlist
    backend = make_backend(name, netlist, "ecim", code_factory=bch_code_factory(2))
    inputs = {signal: 1 for signal in netlist.inputs}
    return backend, inputs, backend.enumerate_sites(inputs)


def _dict_plan_sweep(backend, inputs, sites, chunk_size=CHUNK):
    """The pre-vectorization sweep, kept as the bench's reference: dict
    plans and Python-object outcomes, one per combination."""
    analysis = MultiFaultAnalysis(k=K, correction_budget=1)
    for chunk in _chunked(combinations(sites, K), chunk_size):
        plans = [_combination_fault_plan(combo) for combo in chunk]
        outcomes = backend.run_trials([inputs] * len(chunk), fault_plan=plans)
        for trial, combo in enumerate(chunk):
            analysis.record(
                MultiFaultOutcome(
                    sites=tuple(combo),
                    final_outputs_correct=bool(outcomes.outputs_correct[trial]),
                    error_detected=bool(outcomes.detected[trial]),
                    corrections=int(outcomes.corrections[trial]),
                    uncorrectable_levels=int(outcomes.uncorrectable_levels[trial]),
                ),
                keep_outcome=False,
            )
    return analysis


def _bench_sweep(benchmark, name):
    """Time the array-path sweep; run the dict reference alongside it and
    pin coverage-row identity between the two pipelines."""
    backend, inputs, sites = _sweep_case(name)
    rounds = ROUNDS[name]
    started = time.perf_counter()
    for _ in range(rounds):
        reference = _dict_plan_sweep(backend, inputs, sites)
    dict_elapsed = (time.perf_counter() - started) / rounds
    analysis = benchmark.pedantic(
        exhaustive_multi_fault_injection,
        args=(backend, inputs),
        kwargs=dict(sites=sites, k=K, chunk_size=CHUNK, keep_outcomes=False),
        rounds=rounds,
        iterations=1,
    )
    assert analysis.coverage_row() == reference.coverage_row()
    assert analysis.sep_guaranteed  # BCH-t2 corrects every and2 pair
    array_elapsed = benchmark.stats.stats.mean
    combos = analysis.total_combinations
    _OBSERVED[name] = combos / array_elapsed
    return combos, dict_elapsed / array_elapsed


def _render(name, combos, speedup):
    return (
        f"{name} engine, k={K} sweep (and2, bch-t2): {combos} combinations, "
        f"{_OBSERVED[name]:.0f} combos/sec, {speedup:.1f}x over dict plans"
    )


def test_scalar_multifault_sweep(benchmark):
    # Scalar runs trials one at a time whatever the plan encoding, so this
    # test pins coverage identity and a baseline, not a speedup.
    combos, speedup = _bench_sweep(benchmark, "scalar")
    emit({"rendered": _render("scalar", combos, speedup)})


def test_bitpacked_multifault_sweep(benchmark):
    combos, speedup = _bench_sweep(benchmark, "bitpacked")
    assert speedup >= ARRAY_FLOOR, (
        f"array-plan sweep must be >={ARRAY_FLOOR:.0f}x the dict-plan "
        f"reference on the bit-packed engine, got {speedup:.1f}x"
    )
    emit({"rendered": _render("bitpacked", combos, speedup)})
