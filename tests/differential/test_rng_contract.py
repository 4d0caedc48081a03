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
* there is one fault stream: a scalar injector walked call by call hits
  exactly the sites the tape engine's O(hits) replay
  (:func:`repro.core.bitpacked._stream_hits`) lands on, because the SoA call
  ranks it merges by are the order the scalar executor calls its injector.
"""

import numpy as np
import pytest

from repro.campaign.spec import trial_seed
from repro.campaign.workloads import get_campaign_workload
from repro.core.backend import derive_seed, make_backend
from repro.core.batched import sample_input_matrix
from repro.core.bitpacked import _stream_hits
from repro.pim.faults import (
    FaultModel,
    FaultModelSpec,
    NoFaultInjector,
    StochasticFaultInjector,
)

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


class _CallRecorder(NoFaultInjector):
    """Records the class of every injector call one scalar execution makes."""

    def __init__(self):
        super().__init__()
        self.calls = []

    def corrupt_gate_output(self, value, site, operation_index, is_metadata=False):
        self.calls.append("meta" if is_metadata else "gate")
        return value

    def corrupt_stored_bit(self, value, site):
        self.calls.append("read")
        return value

    def corrupt_preset(self, value, site, operation_index):
        self.calls.append("preset")
        return value


def _site_classes(soa):
    return {
        "gate": soa.gate_sites,
        "meta": soa.meta_sites,
        "preset": soa.preset_sites,
        "read": soa.read_sites,
    }


def _call_sequence(soa):
    """Every injector call of one execution, as ``(class, position)`` in the
    order the SoA call ranks put them."""
    ranked = sorted(
        (int(rank), name, position)
        for name, sites in _site_classes(soa).items()
        for position, rank in enumerate(sites.call)
    )
    return [(name, position) for _, name, position in ranked]


def _scalar_walk(soa, model, seed):
    """Drive a scalar injector through one execution's calls, call by call,
    and return each class's hit positions."""
    injector = StochasticFaultInjector(model, seed=seed)
    site = (0, 0, 0)
    call = {
        "gate": lambda: injector.corrupt_gate_output(0, site, 0),
        "meta": lambda: injector.corrupt_gate_output(0, site, 0, is_metadata=True),
        "preset": lambda: injector.corrupt_preset(0, site, 0),
        "read": lambda: injector.corrupt_stored_bit(0, site),
    }
    hits = {name: [] for name in call}
    for name, position in _call_sequence(soa):
        if call[name]():
            hits[name].append(position)
    return hits


STREAM_CASES = (
    ("dot2", "ecim", True),
    ("dot2", "ecim", False),
    ("fft4", "trim", True),
)


class TestOneFaultStream:
    """The scalar injector's call-by-call walk and the tape engine's O(hits)
    replay consume one stream: same draws, same hits."""

    @pytest.mark.parametrize("workload, scheme, multi_output", STREAM_CASES)
    def test_call_ranks_follow_the_scalar_executor(self, workload, scheme, multi_output):
        # The merge key is right only if the SoA call ranks reproduce the
        # order in which the scalar executor really calls its injector.
        netlist = get_campaign_workload(workload).netlist
        soa = make_backend("bitpacked", netlist, scheme, multi_output=multi_output).soa
        executor = make_backend("scalar", netlist, scheme, multi_output=multi_output).executor
        recorder = _CallRecorder()
        executor.reset(fault_injector=recorder)
        executor.run({signal: 1 for signal in netlist.inputs})
        assert recorder.calls == [name for name, _ in _call_sequence(soa)]

    @pytest.mark.parametrize(
        "model",
        [
            FaultModel(0.02, 0.01, 0.005, 0.03),
            FaultModel(0.05, 1.0, 0.0, 0.2),
            FaultModel(1e-3),
        ],
        ids=["all-classes", "certain-memory", "gate-only"],
    )
    def test_scalar_walk_equals_tape_replay(self, model):
        backend = get_cell("dot2", "ecim", True).candidates["bitpacked"]
        seeds = [derive_seed(17, trial, "faults") for trial in range(24)]
        replay = {
            name: {trial: [] for trial in range(len(seeds))}
            for name in ("gate", "meta", "preset", "read")
        }
        names = {id(sites): name for name, sites in _site_classes(backend.soa).items()}
        for sites, trials, positions in _stream_hits(backend.soa, model, seeds, len(seeds)):
            for trial, position in zip(trials.tolist(), positions.tolist()):
                replay[names[id(sites)]][trial].append(position)
        total = 0
        for trial, seed in enumerate(seeds):
            walked = _scalar_walk(backend.soa, model, seed)
            for name, positions in walked.items():
                assert replay[name][trial] == positions, (name, trial)
                total += len(positions)
        assert total > 0

    def test_distinct_seeds_produce_distinct_streams(self):
        backend = get_cell("dot2", "ecim", True).candidates["bitpacked"]
        model = FaultModel(0.05)
        assert _scalar_walk(backend.soa, model, 1) != _scalar_walk(backend.soa, model, 2)

    def test_stuck_at_needs_no_stream(self):
        spec = FaultModelSpec.stuck_at((3,), 1)
        assert not spec.needs_seeds
        # And the stochastic kinds refuse to run seedless.
        with pytest.raises(Exception):
            FaultModelSpec.burst(2, 4, gate_error_rate=0.1).make_injector(seed=None)
