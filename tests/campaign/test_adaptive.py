"""Tests for the rare-event estimator stack (``repro.campaign.adaptive``).

Covers the estimator grammar, the stratified allocation/plan machinery, the
importance-sampling likelihood ratios, and the statistical contracts the
ISSUE pins: estimator agreement with uniform sampling at moderate rates on
every backend, unbiasedness of the Horvitz-Thompson estimator across seeds,
byte-identical stratified counters across backends, and the >= 10x
variance-reduction gain at a 1e-5 rate on dot2+ECiM.
"""

import numpy as np
import pytest

from repro.campaign import CampaignSpec, run_campaign, site_count
from repro.campaign.adaptive.grammar import EstimatorSpec, parse_estimator
from repro.campaign.adaptive.importance import WEIGHT_KEYS, likelihood_ratios
from repro.campaign.adaptive.strata import (
    allocate_trials,
    stratum_labels,
    stratum_probabilities,
)
from repro.errors import EvaluationError
from repro.stats import interval_halfwidth, wilson_interval

BACKENDS = ("scalar", "bitpacked")


def small_spec(**overrides):
    defaults = dict(
        workloads=("and2",),
        schemes=("unprotected",),
        technologies=("rram",),
        gate_error_rates=(1e-2,),
        trials=600,
        shard_size=200,
        seed=5,
        name="adaptive-unit",
    )
    defaults.update(overrides)
    return CampaignSpec(**defaults)


class TestGrammar:
    @pytest.mark.parametrize(
        "text,canonical",
        [
            ("uniform", "uniform"),
            ("uniform:metric=correct", "uniform:metric=correct"),
            ("importance:rate=1e-3", "importance:rate=0.001"),
            ("importance:rate=0.001,metric=silent_corruption", "importance:rate=0.001"),
            ("importance:metric=detected,rate=1e-2", "importance:rate=0.01,metric=detected"),
            ("stratified", "stratified"),
            ("stratified:k_max=3,allocation=proportional", "stratified"),
            (
                "stratified:allocation=neyman,pilot=100,k_max=2",
                "stratified:k_max=2,allocation=neyman,pilot=100",
            ),
        ],
    )
    def test_canonical_round_trip(self, text, canonical):
        spec = parse_estimator(text)
        assert spec.to_string() == canonical
        assert parse_estimator(canonical) == spec

    @pytest.mark.parametrize(
        "text",
        [
            "bogus",
            "importance",  # rate is mandatory
            "importance:rate=0",
            "importance:rate=1.0",
            "importance:rate=1e-3,k_max=2",  # stratified-only key
            "stratified:rate=1e-3",  # importance-only key
            "stratified:k_max=0",
            "stratified:allocation=optimal",
            "uniform:metric=accuracy",
            "uniform:",
            "importance:rate=1e-3,rate=1e-2",  # duplicate key
        ],
    )
    def test_invalid_strings_raise(self, text):
        with pytest.raises(EvaluationError):
            parse_estimator(text)

    def test_spec_is_frozen_and_validated(self):
        with pytest.raises(EvaluationError):
            EstimatorSpec(kind="importance")  # no rate
        with pytest.raises(EvaluationError):
            EstimatorSpec(kind="stratified", pilot=0)


class TestStrata:
    def test_probabilities_sum_to_one(self):
        for n_sites, rate in [(3, 1e-2), (27, 1e-3), (1702, 1e-5), (10, 0.0)]:
            pi = stratum_probabilities(n_sites, rate, 3)
            assert len(pi) == 5
            assert sum(pi) == pytest.approx(1.0)
            assert all(p >= 0 for p in pi)

    def test_zero_rate_concentrates_at_zero_faults(self):
        pi = stratum_probabilities(100, 0.0, 2)
        assert pi[0] == 1.0 and sum(pi[1:]) == 0.0

    def test_allocation_sums_and_min_one_repair(self):
        pi = stratum_probabilities(27, 1e-3, 2)
        allocation = allocate_trials(pi, 100)
        assert sum(allocation) == 100
        # Every positive-probability stratum gets at least one trial even
        # when its share rounds to zero.
        assert all(n >= 1 for n, p in zip(allocation, pi) if p > 0)

    def test_allocation_is_deterministic(self):
        pi = stratum_probabilities(166, 1e-2, 3)
        assert allocate_trials(pi, 73) == allocate_trials(pi, 73)

    def test_labels(self):
        assert stratum_labels(2) == ("k=0", "k=1", "k=2", "k>2")


class TestLikelihoodRatios:
    def test_equal_rates_give_unit_weights(self):
        counts = np.array([0, 1, 5, 27], dtype=np.int64)
        assert likelihood_ratios(counts, 27, 1e-2, 1e-2).tolist() == [1.0] * 4

    def test_matches_direct_bernoulli_ratio(self):
        p, q, n = 1e-3, 1e-2, 27
        counts = np.array([0, 1, 2], dtype=np.int64)
        weights = likelihood_ratios(counts, n, p, q)
        for f, w in zip(counts, weights):
            direct = (p / q) ** f * ((1 - p) / (1 - q)) ** (n - f)
            assert w == pytest.approx(direct, rel=1e-12)

    def test_zero_target_rate(self):
        counts = np.array([0, 1], dtype=np.int64)
        weights = likelihood_ratios(counts, 10, 0.0, 1e-2)
        assert weights[1] == 0.0 and weights[0] > 1.0

    def test_invalid_rates_raise(self):
        counts = np.array([0], dtype=np.int64)
        with pytest.raises(EvaluationError):
            likelihood_ratios(counts, 10, 1e-2, 0.0)
        with pytest.raises(EvaluationError):
            likelihood_ratios(counts, 10, 1.0, 1e-2)


class TestSiteCount:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_matches_bernoulli_draws_at_rate_one(self, backend):
        # At gate error rate 1.0 every enumerated site flips in every trial,
        # so faults_injected per trial IS the per-trial Bernoulli draw count
        # the likelihood ratio divides by.
        spec = small_spec(gate_error_rates=(1.0,), trials=4, shard_size=4, backend=backend)
        result = run_campaign(spec, workers=0)
        cell = spec.cells()[0]
        counts = result.counts_by_cell[cell.key]
        assert counts["faults_injected"] == 4 * site_count(cell, backend)


class TestEstimatorCampaigns:
    def interval(self, estimator, backend, **overrides):
        spec = small_spec(backend=backend, estimator=estimator, **overrides)
        report = run_campaign(spec, workers=0).reports[0]
        return report.estimate("silent_corruption")

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_all_estimators_agree_with_uniform_at_moderate_rate(self, backend):
        # The acceptance contract: at 1e-2 on and2 the importance (mild
        # tilt) and stratified estimates must land inside overlapping 95%
        # CIs with plain uniform sampling, on every backend.
        _, uniform = self.interval(None, backend)
        for estimator in ("importance:rate=0.03", "stratified:k_max=2"):
            _, interval = self.interval(estimator, backend)
            assert interval[0] <= uniform[1] and uniform[0] <= interval[1], (
                estimator,
                interval,
                uniform,
            )

    def test_uniform_estimator_string_matches_legacy_counters(self):
        # 'uniform' routes through the adaptive driver but must reproduce
        # the fixed driver's counters byte for byte.
        plain = run_campaign(small_spec(), workers=0)
        named = run_campaign(small_spec(estimator="uniform"), workers=0)
        assert named.counts_by_cell == plain.counts_by_cell

    def test_stratified_counters_identical_across_backends(self):
        # Stratified plans are deterministic CSR fault plans, so both
        # engines must produce byte-identical counters AND strata.
        results = [
            run_campaign(small_spec(backend=b, estimator="stratified:k_max=2"), workers=0)
            for b in BACKENDS
        ]
        for other in results[1:]:
            assert other.counts_by_cell == results[0].counts_by_cell
            assert other.strata_by_cell == results[0].strata_by_cell

    def test_worker_count_invariance_with_weights(self):
        spec = small_spec(estimator="importance:rate=0.03")
        serial = run_campaign(spec, workers=0)
        pooled = run_campaign(spec, workers=2)
        assert serial.counts_by_cell == pooled.counts_by_cell
        assert serial.weights_by_cell == pooled.weights_by_cell

    def test_importance_is_unbiased_across_seeds(self):
        # Horvitz-Thompson unbiasedness, empirically: the mean of 12
        # independent tilted estimates must sit within a few percent of a
        # 20000-trial uniform reference.
        def estimate(estimator, seed, trials):
            spec = small_spec(
                gate_error_rates=(0.02,),
                trials=trials,
                shard_size=trials,
                seed=seed,
                backend="bitpacked",
                estimator=estimator,
            )
            return run_campaign(spec, workers=0).reports[0].estimate("silent_corruption")[0]

        tilted = [estimate("importance:rate=0.05", seed, 400) for seed in range(12)]
        truth = estimate(None, 999, 20000)
        assert np.mean(tilted) == pytest.approx(truth, rel=0.15)

    def test_rare_event_gain_is_at_least_10x(self):
        # The tentpole claim: at a 1e-5 rate on dot2+ECiM the importance
        # campaign's CI half-width would take uniform sampling >= 10x the
        # trial budget to match.
        trials = 2000
        spec = CampaignSpec(
            name="rare",
            workloads=("dot2",),
            schemes=("ecim",),
            technologies=("stt",),
            gate_error_rates=(1e-5,),
            trials=trials,
            shard_size=1000,
            seed=0,
            backend="bitpacked",
            estimator="importance:rate=1e-3,metric=detected_corruption",
        )
        report = run_campaign(spec, workers=0).reports[0]
        mean, interval = report.estimate("detected_corruption")
        halfwidth = interval_halfwidth(interval)
        assert 0.0 < mean < 1e-4  # the event really is rare
        assert halfwidth > 0.0

        def uniform_halfwidth(n):
            return interval_halfwidth(wilson_interval(round(mean * n), n))

        assert uniform_halfwidth(10 * trials) > halfwidth

    def test_effective_sample_size_reported(self):
        spec = small_spec(estimator="importance:rate=0.03")
        report = run_campaign(spec, workers=0).reports[0]
        assert report.effective_sample_size is not None
        assert 0 < report.effective_sample_size <= spec.trials
        uniform = run_campaign(small_spec(), workers=0).reports[0]
        assert uniform.effective_sample_size is None

    def test_neyman_runs_pilot_plus_main_round(self):
        spec = small_spec(
            trials=200, shard_size=100,
            estimator="stratified:k_max=2,allocation=neyman,pilot=100",
        )
        result = run_campaign(spec, workers=0)
        assert result.rounds == 2
        assert result.total_trials == 300  # 100 pilot + 200 main


class TestSpecThreading:
    def test_unset_estimator_keeps_hash_and_dict(self):
        explicit = small_spec(estimator=None)
        assert "estimator" not in explicit.to_dict()
        assert explicit.spec_hash() == small_spec().spec_hash()

    def test_estimator_changes_hash_and_round_trips(self):
        tilted = small_spec(estimator="importance:rate=1e-3")
        assert tilted.spec_hash() != small_spec().spec_hash()
        assert tilted.to_dict()["estimator"] == "importance:rate=0.001"
        assert CampaignSpec.from_dict(tilted.to_dict()) == tilted

    def test_estimator_is_canonicalised_on_construction(self):
        spec = small_spec(estimator="importance:metric=silent_corruption,rate=1e-3")
        assert spec.estimator == "importance:rate=0.001"

    def test_estimator_conflicts_are_rejected(self):
        with pytest.raises(EvaluationError):
            small_spec(estimator="importance:rate=1e-3", faults_per_trial=2)
        with pytest.raises(EvaluationError):
            small_spec(estimator="importance:rate=1e-3", fault_model="burst:length=3,window=8")
        with pytest.raises(EvaluationError):
            small_spec(estimator="stratified", memory_error_rate=1e-3)

    def test_invalid_estimator_string_is_rejected(self):
        with pytest.raises(EvaluationError, match="estimator"):
            small_spec(estimator="bogus:rate=1")

    def test_weight_keys_are_stable(self):
        # The checkpoint format and the store's migration-2 columns both pin
        # this exact tuple; growing it requires a new schema migration.
        assert WEIGHT_KEYS == (
            "weight_sum",
            "weight_sq_sum",
            "w_correct",
            "w_correct_sq",
            "w_detected",
            "w_detected_sq",
            "w_detected_corruption",
            "w_detected_corruption_sq",
            "w_silent_corruption",
            "w_silent_corruption_sq",
        )
