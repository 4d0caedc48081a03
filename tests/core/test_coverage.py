"""Tests for the multi-error coverage analysis."""

import pytest

from repro.core.coverage import (
    binomial_tail,
    coverage_table,
    expected_uncorrectable_levels,
    level_failure_probability,
    monte_carlo_coverage,
    run_survival_probability,
)
from repro.core.backend import BACKEND_NAMES, make_backend
from repro.core.executor import EcimExecutor, UnprotectedExecutor
from repro.core.sep import and_gate_example_netlist
from repro.errors import EvaluationError
from repro.pim.faults import FaultModelSpec


class TestBinomialTail:
    def test_zero_probability(self):
        assert binomial_tail(100, 0.0, 1) == 0.0

    def test_certain_errors(self):
        assert binomial_tail(10, 1.0, 5) == pytest.approx(1.0)

    def test_known_value(self):
        # P[X > 1] for X ~ Bin(2, 0.5) = P[X = 2] = 0.25.
        assert binomial_tail(2, 0.5, 1) == pytest.approx(0.25)

    def test_k_at_least_n_gives_zero(self):
        assert binomial_tail(3, 0.2, 3) == 0.0

    def test_small_rate_dominated_by_first_excess_term(self):
        n, p = 200, 1e-5
        # P[X > 1] ~ C(n,2) p^2
        approximation = (n * (n - 1) / 2) * p**2
        assert binomial_tail(n, p, 1) == pytest.approx(approximation, rel=0.05)

    def test_invalid_parameters(self):
        with pytest.raises(EvaluationError):
            binomial_tail(-1, 0.5, 0)
        with pytest.raises(EvaluationError):
            binomial_tail(10, 1.5, 0)


class TestAnalyticCoverage:
    SITES = [32] * 40  # 40 logic levels of 32 protected sites each

    def test_stronger_codes_survive_better(self):
        rate = 1e-3
        s1 = run_survival_probability(self.SITES, rate, correctable_errors=1)
        s2 = run_survival_probability(self.SITES, rate, correctable_errors=2)
        s3 = run_survival_probability(self.SITES, rate, correctable_errors=3)
        assert s1 < s2 < s3

    def test_lower_rates_survive_better(self):
        assert run_survival_probability(self.SITES, 1e-5) > run_survival_probability(
            self.SITES, 1e-3
        )

    def test_single_error_correction_handles_realistic_rates(self):
        # At memory-class error rates, SEP is effectively sufficient.
        assert run_survival_probability(self.SITES, 1e-7, 1) > 0.999999

    def test_expected_bad_levels_consistent_with_failure_probability(self):
        rate = 5e-3
        expected = expected_uncorrectable_levels(self.SITES, rate, 1)
        single = level_failure_probability(32, rate, 1)
        assert expected == pytest.approx(40 * single)

    def test_coverage_table_structure(self):
        rows = coverage_table(self.SITES, gate_error_rates=(1e-4, 1e-3), correction_strengths=(1, 2))
        assert len(rows) == 2
        for row in rows:
            assert row["survival_t2"] >= row["survival_t1"]
            assert 0.0 <= row["survival_t1"] <= 1.0


class TestMonteCarloCoverage:
    def _make_inputs(self, rng):
        netlist = and_gate_example_netlist()
        return {netlist.inputs[0]: rng.randint(0, 1), netlist.inputs[1]: rng.randint(0, 1)}

    def test_zero_rate_gives_full_coverage(self):
        result = monte_carlo_coverage(
            lambda injector: EcimExecutor(and_gate_example_netlist(), fault_injector=injector),
            self._make_inputs,
            gate_error_rate=0.0,
            trials=10,
        )
        assert result.coverage == pytest.approx(1.0)
        assert result.total_faults_injected == 0

    def test_protected_executor_retains_coverage_despite_more_exposure(self):
        # ECiM issues ~10x more gate operations than the unprotected run
        # (metadata updates), so at the same per-operation error rate it is
        # exposed to far more faults — and still keeps its outputs correct in
        # the vast majority of runs thanks to the per-level correction.
        rate = 0.02
        ecim = monte_carlo_coverage(
            lambda injector: EcimExecutor(and_gate_example_netlist(), fault_injector=injector),
            self._make_inputs,
            gate_error_rate=rate,
            trials=40,
            seed=5,
        )
        unprotected = monte_carlo_coverage(
            lambda injector: UnprotectedExecutor(and_gate_example_netlist(), fault_injector=injector),
            self._make_inputs,
            gate_error_rate=rate,
            trials=40,
            seed=5,
        )
        assert ecim.total_faults_injected > unprotected.total_faults_injected
        assert ecim.coverage >= 0.85
        assert ecim.total_corrections > 0

    def test_statistics_accumulate(self):
        result = monte_carlo_coverage(
            lambda injector: EcimExecutor(and_gate_example_netlist(), fault_injector=injector),
            self._make_inputs,
            gate_error_rate=0.05,
            trials=20,
            seed=9,
        )
        assert result.trials == 20
        assert result.average_faults_per_run > 0.0

    def test_invalid_trials(self):
        with pytest.raises(EvaluationError):
            monte_carlo_coverage(lambda injector: None, self._make_inputs, 0.1, trials=0)


class TestMonteCarloBackends:
    """Coverage runs speak the ExecutionBackend protocol and reproduce from a
    single int seed on either backend (the campaign seeding discipline)."""

    def _make_inputs(self, rng):
        netlist = and_gate_example_netlist()
        return {netlist.inputs[0]: rng.randint(0, 1), netlist.inputs[1]: rng.randint(0, 1)}

    @pytest.mark.parametrize("backend", BACKEND_NAMES)
    def test_reproducible_from_single_seed(self, backend):
        kwargs = dict(gate_error_rate=0.03, trials=30, seed=11)
        runs = [
            monte_carlo_coverage(
                make_backend(backend, and_gate_example_netlist(), "ecim"),
                self._make_inputs,
                **kwargs,
            )
            for _ in range(2)
        ]
        assert runs[0] == runs[1]
        assert runs[0].total_faults_injected > 0

    @pytest.mark.parametrize("backend", BACKEND_NAMES)
    def test_trial_seeds_are_independent_streams(self, backend):
        # Dropping the trial count must not change the earlier trials'
        # outcomes-per-seed structure: a 20-trial run injects at most as many
        # faults as the 40-trial run at the same seed, never a reshuffle that
        # produces more.
        common = dict(gate_error_rate=0.05, seed=4)
        netlist = and_gate_example_netlist()
        short = monte_carlo_coverage(
            make_backend(backend, netlist, "ecim"), self._make_inputs, trials=20, **common
        )
        long = monte_carlo_coverage(
            make_backend(backend, netlist, "ecim"), self._make_inputs, trials=40, **common
        )
        assert short.total_faults_injected <= long.total_faults_injected

    def test_zero_rate_identical_across_backends(self):
        # Fault-free coverage is a deterministic function of the input
        # sampler, which both backends share bit-for-bit.
        results = [
            monte_carlo_coverage(
                make_backend(backend, and_gate_example_netlist(), "trim"),
                self._make_inputs,
                gate_error_rate=0.0,
                trials=25,
                seed=2,
            )
            for backend in BACKEND_NAMES
        ]
        assert results[0] == results[1]
        assert results[0].coverage == pytest.approx(1.0)

    @pytest.mark.parametrize("backend", BACKEND_NAMES)
    def test_custom_fault_model_override(self, backend):
        result = monte_carlo_coverage(
            make_backend(backend, and_gate_example_netlist(), "ecim"),
            self._make_inputs,
            gate_error_rate=0.0,
            trials=25,
            seed=6,
            fault_model=FaultModelSpec.stochastic(memory_error_rate=0.1),
        )
        assert result.total_faults_injected > 0
