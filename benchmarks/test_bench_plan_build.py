"""Plan-build layer bench: cold compile + SoA lowering of mlp16's three plans.

Not a paper artefact.  Every campaign worker process pays this once per
(workload, scheme, gate style) before its first trial, so on application
campaigns it is a fixed per-process cost next to the interpreter.  One
round compiles the unprotected, ECiM and TRiM tapes of the mlp16 netlist
from scratch (fresh executors, so no per-level code survives between
rounds) and lowers each to its wave schedule.  The netlist itself is built
once, outside the timed region: synthesis is a separate layer.
"""

from conftest import emit

from repro.campaign.workloads import get_campaign_workload
from repro.core.batched import compile_plan
from repro.core.soa import lower_plan

SCHEMES = ("unprotected", "ecim", "trim")
ROUNDS = 5


def _build_plans(netlist):
    return [lower_plan(compile_plan(netlist, scheme)) for scheme in SCHEMES]


def test_mlp16_plan_build(benchmark):
    netlist = get_campaign_workload("mlp16").netlist
    plans = benchmark.pedantic(_build_plans, args=(netlist,), rounds=ROUNDS, iterations=1)
    assert [soa.plan.scheme for soa in plans] == list(SCHEMES)
    steps = sum(soa.n_steps for soa in plans)
    rendered = (
        f"mlp16 compile + lower, three plans ({steps} tape steps): "
        f"{benchmark.stats.stats.median * 1e3:.0f} ms median of {ROUNDS} cold builds"
    )
    emit({"rendered": rendered})
