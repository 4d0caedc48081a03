"""The scalar/tape RNG contract.

``derive_seed`` keys every per-trial stream by name — ``"inputs"`` drives
input sampling only, ``"faults"`` drives everything fault-related
(stochastic flip positions, burst trigger offsets, k-flip site choice;
stuck cells are deterministic and consume no stream).  These tests pin the
contract documented in :func:`repro.core.backend.derive_seed`:

* distinct stream names derive statistically independent (here: pairwise
  distinct) seeds, for the same trial identity;
* input sampling is invariant to the fault model — swapping models, or
  injecting nothing at all, never perturbs a trial's inputs;
* the shared Philox primitive consumed by both backends produces one and
  the same uniform sequence whether drawn scalar-style (``PhiloxRandom``,
  one call at a time) or tape-style (one block per trial).
"""

import numpy as np
import pytest

from repro.campaign.spec import trial_seed
from repro.core.backend import derive_seed
from repro.core.batched import _uniform_streams, sample_input_matrix
from repro.pim.faults import FaultModelSpec, PhiloxRandom

from differential_harness import MODEL_KINDS, get_cell


class TestStreamIndependence:
    def test_named_streams_never_collide(self):
        seeds = {
            (trial, stream): derive_seed(7, "cell", trial, stream)
            for trial in range(200)
            for stream in ("inputs", "faults")
        }
        # Pairwise distinct across trials AND across stream names.
        assert len(set(seeds.values())) == len(seeds)

    def test_campaign_trial_seed_separates_the_same_streams(self):
        assert trial_seed(0, "k", 3, "inputs") != trial_seed(0, "k", 3, "faults")

    def test_stream_only_differs_in_last_component(self):
        # The stream name is the sole discriminator between a trial's input
        # and fault randomness; everything upstream is shared identity.
        a = derive_seed(1, "cell", 9, "inputs")
        b = derive_seed(1, "cell", 9, "faults")
        assert a != b
        assert derive_seed(1, "cell", 9, "inputs") == a  # and stable


class TestInputsInvariantToFaultModel:
    @pytest.mark.parametrize("backend_name", ["scalar", "bitpacked"])
    def test_inputs_identical_under_every_fault_model(self, backend_name):
        """Consuming (or not consuming) the fault stream must never shift
        input sampling: the same input seeds give the same matrix, and a
        faulty batch leaves the caller's matrix untouched."""
        cell = get_cell("dot2", "ecim", True)
        backend = cell.reference if backend_name == "scalar" else cell.candidates["bitpacked"]
        before = cell.inputs.copy()
        for kind in MODEL_KINDS:
            backend.run_trials(cell.inputs, **cell.run_kwargs(kind))
            assert np.array_equal(cell.inputs, before)
        resampled = sample_input_matrix(backend.netlist, cell.input_seeds)
        assert np.array_equal(resampled, before)

    def test_fault_free_outcomes_unchanged_after_faulty_batches(self):
        cell = get_cell("and2", "trim", True)
        baseline = cell.reference.run_trials(cell.inputs).counts()
        for kind in MODEL_KINDS:
            cell.reference.run_trials(cell.inputs, **cell.run_kwargs(kind))
        assert cell.reference.run_trials(cell.inputs).counts() == baseline


class TestSharedPhiloxPrimitive:
    def test_scalar_and_bitpacked_draws_are_one_stream(self):
        # The mechanism behind byte-identical fault models: PhiloxRandom
        # (scalar injectors) and _uniform_streams (the tape engine) consume the
        # very same counter-based sequence for one trial seed.
        seeds = [derive_seed(11, t, "faults") for t in range(5)]
        block = _uniform_streams(seeds, 64)
        for row, seed in enumerate(seeds):
            rng = PhiloxRandom(seed)
            sequential = np.array([rng.random() for _ in range(64)])
            assert np.array_equal(block[row], sequential)

    def test_distinct_seeds_produce_distinct_streams(self):
        a = np.array([PhiloxRandom(1).random() for _ in range(8)])
        b = np.array([PhiloxRandom(2).random() for _ in range(8)])
        assert not np.array_equal(a, b)

    def test_stuck_at_needs_no_stream(self):
        spec = FaultModelSpec.stuck_at((3,), 1)
        assert not spec.needs_seeds
        # And the stochastic kinds refuse to run seedless.
        with pytest.raises(Exception):
            FaultModelSpec.burst(2, 4, gate_error_rate=0.1).make_injector(seed=None)
