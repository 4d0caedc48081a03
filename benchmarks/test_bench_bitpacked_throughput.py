"""Bit-packed tape engine bench: trials/sec vs the scalar executor walk on
the same cells.

Not a paper artefact.  Two shapes, matching how campaigns actually spend
time:

* the dot2 + ECiM Monte-Carlo shard (stochastic model at 1e-3),
  benched at the engine level — one ``run_trials`` call over precomputed
  per-trial seeds and inputs, so the numbers isolate the interpreters.
  Geometric skip-sampling draws O(hits) uniforms per trial and every gate
  is a word op over 64 trials.  The scalar side is timed on a smaller
  slice of the same cell (its cost is linear in trials — each trial is an
  independent ``reset()`` + ``run()`` — so trials/sec is directly
  comparable).  The asserted floor is :data:`SCALAR_FLOOR`; the typical
  observed ratio is two to three orders of magnitude;
* a dot2 k=2 multi-fault shard through the full campaign path, where
  per-trial Python plan construction dominates; it is timed and pinned in
  the baseline, with no ratio asserted.
"""

from conftest import emit

from repro.campaign import CampaignSpec, run_campaign
from repro.campaign.workloads import get_campaign_workload
from repro.campaign.worker import clear_executor_cache
from repro.core.backend import derive_seed, make_backend
from repro.core.batched import sample_input_matrix
from repro.pim.faults import FaultModelSpec

SCALAR_TRIALS = 120
BITPACKED_TRIALS = 20_000
KFLIP_TRIALS = 2000

#: The asserted floor of the bit-packed engine over the scalar executor walk
#: on the Monte-Carlo shard.
SCALAR_FLOOR = 10.0

#: The Monte-Carlo cell: dot2 + ECiM under the stochastic model.
_MODEL = FaultModelSpec.stochastic(gate_error_rate=1e-3, memory_error_rate=0.0)
_SEED = 23

_KFLIP_CELL = dict(
    workloads=("dot2",),
    schemes=("ecim",),
    technologies=("stt",),
    gate_error_rates=(1e-3,),
    faults_per_trial=2,
    seed=31,
    name="bitpacked-kflip-bench",
)

#: trials/sec per engine, filled in file order (scalar -> bitpacked) and
#: consumed by the later test's ratio assertion.
_OBSERVED = {}


def _bench_engine(benchmark, name, trials):
    """Time one warmed run_trials call on the dot2+ECiM Monte-Carlo shard."""
    netlist = get_campaign_workload("dot2").netlist
    backend = make_backend(name, netlist, "ecim")
    seeds = [derive_seed(_SEED, "bench", trial, "faults") for trial in range(trials)]
    inputs = sample_input_matrix(
        netlist, [derive_seed(_SEED, "bench", trial, "inputs") for trial in range(trials)]
    )
    backend.run_trials(inputs[:2], fault_model=_MODEL, fault_seeds=seeds[:2])  # warm caches
    outcomes = benchmark.pedantic(
        backend.run_trials,
        args=(inputs,),
        kwargs={"fault_model": _MODEL, "fault_seeds": seeds},
        rounds=1,
        iterations=1,
    )
    assert outcomes.n_trials == trials
    assert outcomes.counts()["silent_corruption"] == 0
    return trials / benchmark.stats.stats.mean


def test_scalar_monte_carlo_throughput(benchmark):
    _OBSERVED["scalar"] = _bench_engine(benchmark, "scalar", SCALAR_TRIALS)
    emit({"rendered": f"scalar engine: {_OBSERVED['scalar']:.0f} trials/sec (dot2, ecim)"})


def test_bitpacked_monte_carlo_throughput(benchmark):
    bitpacked = _bench_engine(benchmark, "bitpacked", BITPACKED_TRIALS)
    lines = [
        f"bitpacked engine: {bitpacked:.0f} trials/sec "
        f"(dot2, ecim, {BITPACKED_TRIALS}-trial shard)"
    ]
    if "scalar" in _OBSERVED:
        speedup = bitpacked / _OBSERVED["scalar"]
        lines.append(f"speedup over scalar: {speedup:.0f}x")
        assert speedup >= SCALAR_FLOOR, (
            f"bitpacked engine must be >={SCALAR_FLOOR:.0f}x the scalar "
            f"engine on the Monte-Carlo shard, got {speedup:.1f}x"
        )
    emit({"rendered": "\n".join(lines)})


def _run(benchmark, backend, trials, cell):
    """Time one full campaign (spec -> shards -> counters) on ``backend``."""
    spec = CampaignSpec(backend=backend, trials=trials, shard_size=trials, **cell)
    clear_executor_cache()
    result = benchmark.pedantic(
        run_campaign, args=(spec,), kwargs={"workers": 0}, rounds=1, iterations=1
    )
    assert result.total_trials == trials
    return trials / benchmark.stats.stats.mean


def test_bitpacked_kflip_throughput(benchmark):
    bitpacked = _run(benchmark, "bitpacked", KFLIP_TRIALS, _KFLIP_CELL)
    emit({"rendered": f"bitpacked engine, k=2 plans: {bitpacked:.0f} trials/sec"})
