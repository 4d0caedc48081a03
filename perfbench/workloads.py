"""The benchmark's workloads: what each one runs, and why it was chosen.

Every workload uses the ``bitpacked`` backend and takes all of its
randomness from the benchmark's ``--seed``: the campaign seed of the three
campaigns, and the input vector and swept fault sites of ``dot2-sweep2``.
Sizes are fixed so that one run of a workload takes one to three seconds on
a two-core host, which leaves room for several runs per measurement window.

This module imports ``repro`` only inside functions, so ``run.py`` can load
it before it has checked that the sources are present.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

BACKEND = "bitpacked"
SCHEMES = ("unprotected", "ecim", "trim")

#: Fault combinations per exhaustive-sweep chunk (the sweep's default).
SWEEP_CHUNK = 4096


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "campaign" or "sweep"
    #: CampaignSpec keyword arguments (campaigns) or sweep parameters.
    params: Dict[str, object] = field(default_factory=dict)
    #: Pool workers of the untraced run (0 or 1 runs shards in-process).
    workers: int = 0
    #: Record every shard into a JSONL checkpoint and a results database.
    record: bool = False
    #: Trials per cell re-run on the scalar oracle backend, 0 for none.
    oracle_trials: int = 0


#: Why each workload was chosen is recorded in ``BENCHMARK.json``; the
#: comments below say which layers each one isolates.
WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        # The plain campaign users run (CLI shard size, serial, checkpoint and
        # db): per-trial seeds, input sampling and per-shard records weigh most.
        Workload(
            name="dot2-default",
            kind="campaign",
            params=dict(
                workloads=("dot2",),
                schemes=SCHEMES,
                gate_error_rates=(1e-3, 1e-2),
                trials=2500,
                shard_size=250,
            ),
            record=True,
        ),
        # The fault model every engine replays byte for byte: the dense Philox
        # schedule dominates; large shards and no records bypass the record
        # layer.  RNG work here must not slow dot2-default down.
        Workload(
            name="dot2-stochastic",
            kind="campaign",
            params=dict(
                workloads=("dot2",),
                schemes=SCHEMES,
                gate_error_rates=(1e-3, 1e-2),
                trials=4000,
                shard_size=2000,
                fault_model="stochastic",
            ),
            oracle_trials=8,
        ),
        # Application scoring over a pool: tape dispatch (39.5k steps per ECiM
        # call) and each worker's cold compile and lowering dominate, while
        # seeds, inputs and records cost almost nothing.
        Workload(
            name="mlp16-app",
            kind="campaign",
            params=dict(
                workloads=("mlp16",),
                schemes=SCHEMES,
                gate_error_rates=(1e-3,),
                trials=256,
                shard_size=128,
                application=True,
            ),
            workers=max(1, min(2, os.cpu_count() or 1)),
        ),
        # The exhaustive 2-fault sweep: the only workload through core.sep,
        # core.faultplan and the engine's deterministic-plan path.  ECiM sweeps
        # a seed-chosen 500 of its 1702 sites (124,750 pairs) so one run stays
        # near a second; TRiM sweeps all 498 of its sites.
        Workload(
            name="dot2-sweep2",
            kind="sweep",
            params=dict(workload="dot2", schemes=("ecim", "trim"), k=2, max_sites=500),
        ),
    )
}


def campaign_spec(workload: Workload, seed: int):
    """The :class:`~repro.campaign.spec.CampaignSpec` one campaign run executes."""
    from repro.campaign.spec import CampaignSpec

    return CampaignSpec(
        name=workload.name, seed=seed, backend=BACKEND, **workload.params
    )


def backend_keys(workload: Workload, seed: int) -> List[Tuple[str, str, bool]]:
    """Distinct ``(netlist, scheme, multi_output)`` backends the workload
    builds — one per campaign worker-cache entry, one per swept scheme."""
    if workload.kind == "sweep":
        netlist = workload.params["workload"]
        return [(netlist, scheme, True) for scheme in workload.params["schemes"]]
    cells = campaign_spec(workload, seed).cells()
    return list(dict.fromkeys((c.workload, c.scheme, c.multi_output) for c in cells))


def sweep_inputs(netlist, seed: int) -> Dict[int, int]:
    """The seed's input vector of the swept netlist."""
    rng = random.Random(f"perfbench-sweep-inputs-{seed}")
    return {signal: rng.getrandbits(1) for signal in netlist.inputs}


def sweep_sites(sites: list, seed: int, scheme: str, max_sites: int) -> list:
    """The seed's subset of at most ``max_sites`` fault sites, in enumeration
    order; every 2-combination of the subset is injected."""
    if len(sites) <= max_sites:
        return list(sites)
    rng = random.Random(f"perfbench-sweep-sites-{seed}-{scheme}")
    return [sites[i] for i in sorted(rng.sample(range(len(sites)), max_sites))]
