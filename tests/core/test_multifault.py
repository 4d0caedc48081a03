"""Tests for the exhaustive multi-fault (k-flip) sweep engine.

Pins down the three contracts the multi-fault subsystem rests on:

* **k = 1 degeneracy** — a k = 1 multi-fault sweep equals the classic
  single-fault sweep byte-for-byte, per site and per outcome, on both
  backends (the acceptance criterion for the per-k coverage table).
* **Backend parity at k = 2** — scalar and bitpacked k-flip executions are
  bit-exact on the Fig. 6 AND example and on a synthesized dot-2x1 block,
  under both ECiM and TRiM.
* **Budget-vs-t (Fig. 8)** — a BCH t = 2 ECiM corrects every k = 2 pair,
  including the ones Hamming-protected ECiM provably misses, and no
  combination within the per-level correction budget ever corrupts the
  outputs.
"""

import pytest

from repro.core.backend import BACKEND_NAMES, make_backend
from repro.core.sep import (
    and_gate_example_netlist,
    exhaustive_multi_fault_injection,
    exhaustive_single_fault_injection,
    multi_fault_coverage_table,
)
from repro.ecc.bch import bch_code_factory, smallest_bch_code
from repro.errors import ProtectionError
from repro.workloads.matmul import dot_product_netlist

AND2 = and_gate_example_netlist()
AND2_INPUTS = {AND2.inputs[0]: 1, AND2.inputs[1]: 1}
ALL_AND2_INPUTS = [
    {AND2.inputs[0]: a, AND2.inputs[1]: b} for a in (0, 1) for b in (0, 1)
]

DOT21 = dot_product_netlist(2, 1)
DOT21_INPUTS = {signal: 1 for signal in DOT21.inputs}

#: Stride keeping the scalar side of the dot-2x1 cross-checks affordable
#: while still covering early, middle and late sites of the schedule.
SITE_STRIDE = 50


def _outcome_tuples(analysis):
    return [
        (
            outcome.sites,
            outcome.final_outputs_correct,
            outcome.error_detected,
            outcome.corrections,
            outcome.uncorrectable_levels,
        )
        for outcome in analysis.outcomes
    ]


class TestSingleFaultDegeneracy:
    """k = 1 multi-fault sweeps equal the single-fault sweep byte-for-byte."""

    @pytest.mark.parametrize("backend_name", BACKEND_NAMES)
    @pytest.mark.parametrize("scheme", ["ecim", "trim"])
    @pytest.mark.parametrize("inputs", ALL_AND2_INPUTS, ids=lambda v: str(sorted(v.values())))
    def test_k1_equals_single_fault_sweep(self, backend_name, scheme, inputs):
        backend = make_backend(backend_name, AND2, scheme)
        single = exhaustive_single_fault_injection(backend, inputs)
        multi = exhaustive_multi_fault_injection(backend, inputs, k=1)
        assert multi.as_single_fault_analysis().outcomes == single.outcomes

    @pytest.mark.parametrize("backend_name", BACKEND_NAMES)
    def test_k1_coverage_row_matches_single_sweep_counts(self, backend_name):
        backend = make_backend(backend_name, AND2, "ecim")
        single = exhaustive_single_fault_injection(backend, AND2_INPUTS)
        table = multi_fault_coverage_table(backend, AND2_INPUTS, max_faults=2)
        row = table[0].coverage_row()
        assert row["k"] == 1
        assert row["combinations"] == single.total_sites
        assert row["sep_guaranteed"] + row["code_corrected"] == single.protected_sites
        assert table[0].sep_guaranteed == single.sep_guaranteed

    def test_k1_chunking_is_invisible(self):
        backend = make_backend("bitpacked", AND2, "ecim")
        whole = exhaustive_multi_fault_injection(backend, AND2_INPUTS, k=2)
        chunked = exhaustive_multi_fault_injection(backend, AND2_INPUTS, k=2, chunk_size=7)
        assert _outcome_tuples(whole) == _outcome_tuples(chunked)


class TestBackendParity:
    """Scalar and bitpacked k = 2 executions are bit-exact, per combination."""

    @pytest.mark.parametrize("scheme", ["ecim", "trim"])
    def test_and2_k2_scalar_equals_bitpacked(self, scheme):
        analyses = [
            exhaustive_multi_fault_injection(make_backend(name, AND2, scheme), AND2_INPUTS, k=2)
            for name in ("scalar", "bitpacked")
        ]
        assert analyses[0].total_combinations > 0
        assert _outcome_tuples(analyses[0]) == _outcome_tuples(analyses[1])

    @pytest.mark.parametrize("scheme", ["ecim", "trim"])
    def test_dot21_k2_scalar_equals_bitpacked(self, scheme):
        scalar = make_backend("scalar", DOT21, scheme)
        bitpacked = make_backend("bitpacked", DOT21, scheme)
        sites = scalar.enumerate_sites(DOT21_INPUTS)
        assert sites == bitpacked.enumerate_sites(DOT21_INPUTS)
        subset = sites[::SITE_STRIDE]
        assert len(subset) >= 3
        results = [
            exhaustive_multi_fault_injection(backend, DOT21_INPUTS, k=2, sites=subset)
            for backend in (scalar, bitpacked)
        ]
        assert results[0].total_combinations == len(subset) * (len(subset) - 1) // 2
        assert _outcome_tuples(results[0]) == _outcome_tuples(results[1])

    def test_two_flips_in_one_firing_count_two_faults(self):
        # A multi-output ECiM gate firing exposes several output positions
        # under one operation index; a pair within that firing must inject
        # two faults (not one) on both backends and agree on the outcome.
        backends = {
            name: make_backend(name, AND2, "ecim") for name in ("scalar", "bitpacked")
        }
        sites = backends["scalar"].enumerate_sites(AND2_INPUTS)
        by_op = {}
        for site in sites:
            by_op.setdefault(site.operation_index, []).append(site)
        pair = next(group for group in by_op.values() if len(group) >= 2)[:2]
        outcomes = {}
        for name, backend in backends.items():
            analysis = exhaustive_multi_fault_injection(
                backend, AND2_INPUTS, k=2, sites=pair
            )
            assert analysis.total_combinations == 1
            outcomes[name] = _outcome_tuples(analysis)
        assert outcomes["scalar"] == outcomes["bitpacked"]


class TestBudgetVsCodeStrength:
    """The Fig. 8 claim as a computed artefact: BCH-t recovers multi-fault
    coverage the single-error budget loses."""

    @pytest.mark.parametrize("backend_name", BACKEND_NAMES)
    def test_bch_t2_corrects_pairs_hamming_misses(self, backend_name):
        hamming = exhaustive_multi_fault_injection(
            make_backend(backend_name, AND2, "ecim"), AND2_INPUTS, k=2
        )
        bch = exhaustive_multi_fault_injection(
            make_backend(backend_name, AND2, "ecim", code_factory=bch_code_factory(2)),
            AND2_INPUTS,
            k=2,
            correction_budget=2,
        )
        # Hamming-protected ECiM provably misses some double faults...
        hamming_missed = hamming.total_combinations - hamming.corrected_combinations
        assert hamming_missed > 0
        assert hamming.coverage < 1.0
        # ...while BCH t=2 corrects every pair: with a per-level budget of 2,
        # all k=2 combinations are within budget, so full coverage is the
        # *guarantee*, not luck.
        assert bch.sep_guaranteed
        assert bch.coverage == 1.0
        assert bch.silent_combinations == bch.detected_combinations == 0

    @pytest.mark.parametrize("backend_name", BACKEND_NAMES)
    def test_within_budget_combinations_never_corrupt(self, backend_name):
        for code_factory, budget in ((None, 1), (bch_code_factory(2), 2)):
            backend = make_backend(
                backend_name, AND2, "ecim", code_factory=code_factory
            )
            for k in (1, 2):
                analysis = exhaustive_multi_fault_injection(
                    backend, AND2_INPUTS, k=k, correction_budget=budget
                )
                assert analysis.budget_violations == 0

    def test_bch_scalar_equals_bitpacked(self):
        # The bitpacked multi-error decode LUT must mirror the algebraic
        # Berlekamp-Massey decoder per combination, not just in aggregate.
        results = [
            exhaustive_multi_fault_injection(
                make_backend(name, AND2, "ecim", code_factory=bch_code_factory(2)),
                AND2_INPUTS,
                k=2,
                correction_budget=2,
            )
            for name in ("scalar", "bitpacked")
        ]
        assert _outcome_tuples(results[0]) == _outcome_tuples(results[1])


class TestApiContracts:
    def test_k_must_be_positive(self):
        backend = make_backend("bitpacked", AND2, "ecim")
        with pytest.raises(ProtectionError):
            exhaustive_multi_fault_injection(backend, AND2_INPUTS, k=0)

    def test_k_beyond_site_count_fails_loudly(self):
        backend = make_backend("bitpacked", AND2, "ecim")
        n_sites = len(backend.enumerate_sites(AND2_INPUTS))
        with pytest.raises(ProtectionError):
            exhaustive_multi_fault_injection(backend, AND2_INPUTS, k=n_sites + 1)

    def test_chunk_size_must_be_positive(self):
        backend = make_backend("bitpacked", AND2, "ecim")
        with pytest.raises(ProtectionError):
            exhaustive_multi_fault_injection(backend, AND2_INPUTS, k=1, chunk_size=0)

    def test_as_single_fault_analysis_rejects_k2(self):
        backend = make_backend("bitpacked", AND2, "ecim")
        analysis = exhaustive_multi_fault_injection(backend, AND2_INPUTS, k=2)
        with pytest.raises(ProtectionError):
            analysis.as_single_fault_analysis()

    def test_keep_outcomes_false_keeps_counters_only(self):
        backend = make_backend("bitpacked", AND2, "ecim")
        kept = exhaustive_multi_fault_injection(backend, AND2_INPUTS, k=2)
        counted = exhaustive_multi_fault_injection(
            backend, AND2_INPUTS, k=2, keep_outcomes=False
        )
        assert counted.outcomes == []
        assert counted.coverage_row() == kept.coverage_row()

    def test_code_factory_rejected_off_ecim(self):
        for name in BACKEND_NAMES:
            with pytest.raises(ProtectionError):
                make_backend(name, AND2, "trim", code_factory=bch_code_factory(2))

    def test_smallest_bch_code_covers_width(self):
        code = smallest_bch_code(2, 2)
        assert code.k >= 2 and code.t == 2
        wider = smallest_bch_code(8, 2)
        assert wider.k >= 8
        assert wider.n > code.n
