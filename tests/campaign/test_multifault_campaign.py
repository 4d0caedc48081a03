"""Tests for deterministic multi-fault (``faults_per_trial``) campaigns.

Because k-flip plans execute bit-exactly on both backends and site
enumeration is backend-invariant (a PR-3 contract), a ``faults_per_trial``
campaign is the one stochastic-looking configuration whose counters are
byte-identical between the scalar and bitpacked engines — which is exactly
what these tests pin down, alongside seeding determinism and the injected
fault accounting.
"""

import pytest

from repro.campaign.spec import CampaignSpec, ShardTask
from repro.campaign.worker import clear_executor_cache, run_shard
from repro.errors import EvaluationError


def multifault_spec(**overrides):
    defaults = dict(
        workloads=("and2",),
        schemes=("ecim", "trim"),
        technologies=("stt",),
        gate_error_rates=(1e-3,),
        trials=24,
        shard_size=8,
        seed=7,
        faults_per_trial=2,
    )
    defaults.update(overrides)
    return CampaignSpec(**defaults)


def run_all_shards(spec):
    clear_executor_cache()
    results = {}
    for task in spec.shards():
        result = run_shard(task)
        key = (result.cell_key, result.shard_index)
        assert key not in results
        results[key] = dict(result.counts)
    return results


class TestMultiFaultShards:
    def test_exact_fault_count_per_trial(self):
        spec = multifault_spec()
        for counts in run_all_shards(spec).values():
            assert counts["faults_injected"] == 2 * counts["trials"]
            assert counts["faulty_trials"] == counts["trials"]

    def test_scalar_and_bitpacked_counters_are_identical(self):
        scalar = run_all_shards(multifault_spec(backend="scalar"))
        bitpacked = run_all_shards(multifault_spec(backend="bitpacked"))
        assert scalar.keys() == bitpacked.keys()
        for key in scalar:
            assert scalar[key] == bitpacked[key], key

    def test_reruns_are_deterministic(self):
        spec = multifault_spec(backend="bitpacked")
        assert run_all_shards(spec) == run_all_shards(spec)

    def test_k1_differs_from_k2(self):
        one = run_all_shards(multifault_spec(faults_per_trial=1))
        two = run_all_shards(multifault_spec())
        assert {k[0].rsplit("|", 1)[0] for k in one} == {
            k[0].rsplit("|", 1)[0] for k in two
        }
        def total_faults(results):
            return sum(c["faults_injected"] for c in results.values())

        assert 2 * total_faults(one) == total_faults(two)

    def test_k_beyond_site_count_fails_cleanly(self):
        spec = multifault_spec(faults_per_trial=10_000)
        with pytest.raises(EvaluationError):
            run_shard(spec.shards()[0])

    def test_shard_task_round_trip_keeps_faults_per_trial(self):
        task = multifault_spec().shards()[0]
        assert isinstance(task, ShardTask)
        assert task.cell.faults_per_trial == 2
