"""The skip-sampled fault stream realises the paper's fault model.

Every engine replays one stream, so byte-identity alone cannot show that
the stream is *right*.  These tests check its distribution against the
Bernoulli model it implements, on both backends (the scalar oracle at
fewer trials, on a smaller netlist):

* each call class's per-site hit counts over T trials are within 5 sigma
  of ``T * p``, and so is each class's pooled count;
* faults per trial have the mean and variance of the sum of per-class
  Binomial(n_c, p_c) — the distribution the importance-sampling weights
  assume;
* burst triggers on outputs outside a burst come at ``gate_error_rate``.
"""

import math

import numpy as np
import pytest

from repro.campaign.workloads import get_campaign_workload
from repro.core.backend import derive_seed, make_backend
from repro.core.batched import sample_input_matrix
from repro.core.bitpacked import _burst_schedule, _stream_hits
from repro.pim.faults import (
    FaultKind,
    FaultModel,
    FaultModelSpec,
    StochasticFaultInjector,
)

CLASSES = ("gate", "meta", "preset", "read")

#: Every call class at its own rate.
MODEL = FaultModel(
    gate_error_rate=0.02,
    memory_error_rate=0.02,
    preset_error_rate=0.01,
    metadata_error_rate=0.03,
)
RATES = {
    "gate": MODEL.gate_error_rate,
    "meta": MODEL.effective_metadata_error_rate,
    "preset": MODEL.preset_error_rate,
    "read": MODEL.memory_error_rate,
}
BURST = FaultModelSpec.burst(
    burst_length=3, correlation_window=5, gate_error_rate=0.01, memory_error_rate=0.0
)

#: (backend, workload, trials): the scalar oracle walks every call in
#: Python, so it runs fewer trials on a smaller netlist.
CASES = (("bitpacked", "dot2", 20_000), ("scalar", "and2", 2_000))

SIGMAS = 5.0


def _seeds(workload, trials, stream):
    return [derive_seed(41, workload, trial, stream) for trial in range(trials)]


class _RecordingInjector(StochasticFaultInjector):
    """Counts each call class's calls and records the positions it hits."""

    def __init__(self, model, seed):
        super().__init__(model, seed=seed)
        self.calls = dict.fromkeys(CLASSES, 0)
        self.hits = {name: [] for name in CLASSES}

    def _record(self, name, value, corrupted):
        if corrupted != value:
            self.hits[name].append(self.calls[name])
        self.calls[name] += 1
        return corrupted

    def corrupt_gate_output(self, value, site, operation_index, is_metadata=False):
        corrupted = super().corrupt_gate_output(value, site, operation_index, is_metadata)
        return self._record("meta" if is_metadata else "gate", value, corrupted)

    def corrupt_preset(self, value, site, operation_index):
        return self._record("preset", value, super().corrupt_preset(value, site, operation_index))

    def corrupt_stored_bit(self, value, site):
        return self._record("read", value, super().corrupt_stored_bit(value, site))


def _stochastic_hits(backend_name, workload, trials):
    """Per class: ``(n_sites, (trial, position) hit arrays)`` over ``trials``."""
    netlist = get_campaign_workload(workload).netlist
    seeds = _seeds(workload, trials, "faults")
    if backend_name == "bitpacked":
        soa = make_backend("bitpacked", netlist, "ecim").soa
        tables = (soa.gate_sites, soa.meta_sites, soa.preset_sites, soa.read_sites)
        name_of = {id(sites): name for name, sites in zip(CLASSES, tables)}
        return {
            name_of[id(sites)]: (sites.size, (hit_trials, positions))
            for sites, hit_trials, positions in _stream_hits(soa, MODEL, seeds, trials)
        }
    executor = make_backend("scalar", netlist, "ecim", null_trace=True).executor
    inputs = sample_input_matrix(netlist, _seeds(workload, trials, "inputs"))
    collected = {name: ([], []) for name in CLASSES}
    sizes = None
    for trial, (row, seed) in enumerate(zip(inputs, seeds)):
        injector = _RecordingInjector(MODEL, seed)
        executor.reset(fault_injector=injector)
        executor.run(dict(zip(netlist.inputs, (int(bit) for bit in row))))
        sizes = injector.calls
        for name in CLASSES:
            collected[name][0].extend([trial] * len(injector.hits[name]))
            collected[name][1].extend(injector.hits[name])
    return {
        name: (sizes[name], tuple(np.asarray(part, dtype=np.intp) for part in collected[name]))
        for name in CLASSES
    }


def _binomial_z(observed, n, p):
    return (observed - n * p) / math.sqrt(n * p * (1.0 - p))


@pytest.fixture(scope="module", params=CASES, ids=lambda case: f"{case[0]}-{case[1]}")
def stochastic_case(request):
    backend_name, workload, trials = request.param
    return trials, _stochastic_hits(backend_name, workload, trials)


class TestStochasticStream:
    def test_per_site_hit_counts_within_five_sigma(self, stochastic_case):
        trials, hits = stochastic_case
        for name, (n_sites, (_, positions)) in hits.items():
            counts = np.bincount(positions, minlength=n_sites)
            z = _binomial_z(counts, trials, RATES[name])
            assert np.abs(z).max() < SIGMAS, (name, float(np.abs(z).max()))

    def test_pooled_class_counts_within_five_sigma(self, stochastic_case):
        trials, hits = stochastic_case
        for name, (n_sites, (_, positions)) in hits.items():
            z = _binomial_z(positions.shape[0], trials * n_sites, RATES[name])
            assert abs(z) < SIGMAS, (name, z)

    def test_faults_per_trial_match_the_binomial_sum(self, stochastic_case):
        trials, hits = stochastic_case
        per_trial = sum(
            np.bincount(hit_trials, minlength=trials) for _, (hit_trials, _) in hits.values()
        )
        # Sum over classes of independent Binomial(n_c, p_c): its mean,
        # variance and fourth cumulant (for the standard error of the
        # sample variance).
        mean = sum(n * RATES[name] for name, (n, _) in hits.items())
        variance = sum(n * RATES[name] * (1 - RATES[name]) for name, (n, _) in hits.items())
        kappa4 = sum(
            n * RATES[name] * (1 - RATES[name]) * (1 - 6 * RATES[name] * (1 - RATES[name]))
            for name, (n, _) in hits.items()
        )
        mean_z = (per_trial.mean() - mean) / math.sqrt(variance / trials)
        variance_z = (per_trial.var(ddof=1) - variance) / math.sqrt(
            (kappa4 + 2 * variance**2) / trials
        )
        assert abs(mean_z) < SIGMAS, mean_z
        assert abs(variance_z) < SIGMAS, variance_z


def _burst_triggers(flip_ops_per_trial, n_output_calls):
    """Split each trial's gate-output flips (operation indices, in call
    order) into burst triggers and continuations; returns ``(triggers,
    idle calls)``.  Inside a burst every call flips, so the flips alone
    determine the burst state, and every other call is an idle one."""
    triggers = idle = 0
    for ops in flip_ops_per_trial:
        remaining, expires, continuations = 0, -1, 0
        for op in ops:
            if remaining > 0 and op <= expires:
                remaining -= 1
                continuations += 1
            else:
                triggers += 1
                remaining = BURST.burst_length - 1
                expires = op + BURST.correlation_window
        idle += n_output_calls - continuations
    return triggers, idle


def _burst_flip_ops(backend_name, workload, trials):
    netlist = get_campaign_workload(workload).netlist
    seeds = _seeds(workload, trials, "faults")
    bitpacked = make_backend("bitpacked", netlist, "ecim")
    soa = bitpacked.soa
    if backend_name == "bitpacked":
        events, _ = _burst_schedule(soa, BURST, seeds, trials)
        flips = []  # (trial, step, lane, operation index)
        for unit, unit_events in events.items():
            # Map each lane of the gate group's output block back to its
            # firing's tape step and output lane.
            block = soa.gate_out_ptr[soa.group_ptr[soa.unit_slot[unit]]] + unit_events.lanes
            slots = np.searchsorted(soa.gate_out_ptr, block, side="right") - 1
            steps = soa.gate_step_index[slots]
            lanes = unit_events.lanes - soa.lane_offset_of_step[steps]
            for word, bit, slot, step, lane in zip(
                unit_events.words.tolist(), unit_events.bits.tolist(),
                slots.tolist(), steps.tolist(), lanes.tolist(),
            ):
                op = int(soa.gate_op_index[slot])
                flips.append((word * 64 + bit.bit_length() - 1, step, lane, op))
        per_trial = [[] for _ in range(trials)]
        for trial, _, _, op in sorted(flips):  # scalar call order per trial
            per_trial[trial].append(op)
        return per_trial, soa.n_gate_output_sites
    executor = make_backend("scalar", netlist, "ecim", null_trace=True).executor
    inputs = sample_input_matrix(netlist, _seeds(workload, trials, "inputs"))
    per_trial = []
    for row, seed in zip(inputs, seeds):
        injector = BURST.make_injector(seed=seed)
        executor.reset(fault_injector=injector)
        executor.run(dict(zip(netlist.inputs, (int(bit) for bit in row))))
        per_trial.append([
            event.operation_index
            for event in injector.log.events
            if event.kind in (FaultKind.LOGIC, FaultKind.METADATA)
        ])
    return per_trial, soa.n_gate_output_sites


@pytest.mark.parametrize(
    "backend_name, workload, trials", CASES, ids=[f"{case[0]}-{case[1]}" for case in CASES]
)
def test_burst_triggers_on_idle_outputs_at_the_gate_rate(backend_name, workload, trials):
    per_trial, n_output_calls = _burst_flip_ops(backend_name, workload, trials)
    triggers, idle = _burst_triggers(per_trial, n_output_calls)
    assert triggers > 0
    z = _binomial_z(triggers, idle, BURST.gate_error_rate)
    assert abs(z) < SIGMAS, (triggers, idle, z)
