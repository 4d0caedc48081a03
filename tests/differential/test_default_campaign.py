"""The default campaign path (no ``fault_model``) is byte-identical across
backends and worker counts.

A campaign without a ``fault_model`` runs the plain stochastic model at the
cell's swept rates, through the same fault stream every engine replays —
so its counters, not just their distribution, must match between the
scalar oracle and the bitpacked engine, serially and over a process pool.
"""

import pytest

from repro.campaign import CampaignSpec, run_campaign

#: Rates high enough that most trials inject faults, including memory
#: errors on the checked schemes' reads.
DEFAULT_SPEC = dict(
    workloads=("and2", "dot2"),
    schemes=("unprotected", "ecim", "trim"),
    gate_error_rates=(1e-2, 5e-2),
    memory_error_rate=1e-2,
    trials=24,
    shard_size=10,
    seed=11,
    name="default-campaign-identity",
)


@pytest.fixture(scope="module")
def reference():
    """The serial scalar oracle run."""
    return run_campaign(CampaignSpec(backend="scalar", **DEFAULT_SPEC), workers=0)


@pytest.mark.parametrize("backend, workers", [("scalar", 2), ("bitpacked", 0), ("bitpacked", 2)])
def test_default_campaign_counters_identical(reference, backend, workers):
    result = run_campaign(CampaignSpec(backend=backend, **DEFAULT_SPEC), workers=workers)
    assert result.counts_by_cell == reference.counts_by_cell


def test_default_campaign_injects(reference):
    # An all-clean campaign would prove nothing: most trials must be faulty.
    cells = reference.counts_by_cell.values()
    faulty = sum(counts["faulty_trials"] for counts in cells)
    trials = sum(counts["trials"] for counts in cells)
    assert faulty > trials / 2
