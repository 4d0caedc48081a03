"""Campaign integration of the declarative fault-model layer (ISSUE 5).

The ``fault_model`` spec field plugs the unified
:class:`~repro.pim.faults.FaultModelSpec` layer into the campaign grid.
Pinned here:

* spec/cell plumbing — canonicalisation of the grammar string, key suffixes,
  exclusivity with ``faults_per_trial``;
* resume compatibility — an *unset* field leaves the canonical dict, cell
  keys and ``spec_hash`` byte-identical to pre-field specs, so every old
  checkpoint resumes unchanged (the acceptance criterion);
* worker dispatch — fault-model shards produce byte-identical counters on
  the scalar and bitpacked backends (burst and stuck-at both), because the
  layer shares one Philox stream per trial across backends.
"""

import pytest

from repro.campaign.checkpoint import CheckpointStore
from repro.campaign.runner import run_campaign
from repro.campaign.spec import CampaignCell, CampaignSpec
from repro.campaign.worker import clear_executor_cache, run_shard
from repro.errors import EvaluationError


def fault_model_spec(fault_model="burst:length=3,window=6", **overrides):
    defaults = dict(
        workloads=("and2",),
        schemes=("ecim", "trim"),
        technologies=("stt",),
        gate_error_rates=(5e-3,),
        trials=24,
        shard_size=8,
        seed=11,
        fault_model=fault_model,
    )
    defaults.update(overrides)
    return CampaignSpec(**defaults)


def run_all_shards(spec):
    clear_executor_cache()
    results = {}
    for task in spec.shards():
        result = run_shard(task)
        results[(result.cell_key, result.shard_index)] = dict(result.counts)
    return results


class TestSpecField:
    def test_canonicalised_on_construction(self):
        spec = fault_model_spec(fault_model="stuckat:cells=9+2,polarity=1")
        assert spec.fault_model == "stuck-at:cells=2+9,value=1"

    def test_equivalent_spellings_hash_identically(self):
        a = fault_model_spec(fault_model="stuckat:cells=9+2,polarity=1")
        b = fault_model_spec(fault_model="stuck-at:value=1,cells=2+9")
        assert a.spec_hash() == b.spec_hash()

    def test_malformed_model_fails_fast(self):
        with pytest.raises(EvaluationError, match="fault_model"):
            fault_model_spec(fault_model="gaussian:sigma=2")

    def test_exclusive_with_faults_per_trial(self):
        with pytest.raises(EvaluationError, match="exclusive"):
            fault_model_spec(faults_per_trial=2)

    def test_cell_key_suffix_only_when_set(self):
        with_model = fault_model_spec().cells()[0]
        without = fault_model_spec(fault_model=None).cells()[0]
        assert with_model.key.endswith("|fm=burst:length=3,window=6")
        assert "fm=" not in without.key

    def test_cell_validates_model_too(self):
        with pytest.raises(EvaluationError):
            CampaignCell("and2", "ecim", "stt", 1e-3, fault_model="nope")


class TestResumeCompatibility:
    """Acceptance: campaigns resume old checkpoints unchanged when the
    field is unset."""

    def test_unset_field_leaves_canonical_dict_and_hash_unchanged(self):
        spec = fault_model_spec(fault_model=None)
        data = spec.to_dict()
        assert "fault_model" not in data
        # A pre-field spec dict (no fault_model key at all) round-trips to
        # the same hash — the resume-compatibility key.
        assert CampaignSpec.from_dict(data).spec_hash() == spec.spec_hash()

    def test_set_field_hashes_into_its_own_namespace(self):
        assert fault_model_spec().spec_hash() != fault_model_spec(fault_model=None).spec_hash()

    def test_json_roundtrip_preserves_model(self):
        spec = fault_model_spec()
        loaded = CampaignSpec.from_json(spec.to_json())
        assert loaded.fault_model == spec.fault_model
        assert loaded.spec_hash() == spec.spec_hash()

    def test_checkpointed_fault_model_campaign_resumes(self, tmp_path):
        spec = fault_model_spec(backend="bitpacked")
        path = tmp_path / "ckpt.jsonl"
        first = run_campaign(spec, workers=0, checkpoint=str(path))
        resumed = run_campaign(spec, workers=0, checkpoint=str(path))
        assert resumed.summary()["resumed_shards"] == len(spec.shards())
        assert resumed.summary()["executed_shards"] == 0
        for a, b in zip(first.reports, resumed.reports):
            assert a.cell.key == b.cell.key
            assert dict(a.counts) == dict(b.counts)
        store = CheckpointStore(str(path))
        assert len(store.load(spec.spec_hash())) == len(spec.shards())


class TestWorkerDispatch:
    @pytest.mark.parametrize(
        "fault_model",
        ["burst:length=3,window=6", "stuck-at:cells=3+6,value=1", "stochastic:preset=0.002"],
        ids=["burst", "stuck-at", "stochastic"],
    )
    def test_scalar_and_bitpacked_counters_are_byte_identical(self, fault_model):
        scalar = run_all_shards(fault_model_spec(fault_model, backend="scalar"))
        bitpacked = run_all_shards(fault_model_spec(fault_model, backend="bitpacked"))
        assert scalar.keys() == bitpacked.keys()
        for key in scalar:
            assert scalar[key] == bitpacked[key], key

    def test_burst_rate_inherits_the_swept_cell_rate(self):
        # The grammar string leaves the trigger rate unset, so cells at
        # different grid rates must produce different fault pressure.
        quiet = run_all_shards(fault_model_spec(gate_error_rates=(1e-4,), schemes=("ecim",)))
        loud = run_all_shards(fault_model_spec(gate_error_rates=(5e-2,), schemes=("ecim",)))
        assert sum(c["faults_injected"] for c in quiet.values()) < sum(
            c["faults_injected"] for c in loud.values()
        )

    def test_stuck_at_injects_without_seeds_and_deterministically(self):
        spec = fault_model_spec("stuck-at:cells=3+6,value=1", schemes=("trim",))
        first = run_all_shards(spec)
        again = run_all_shards(spec)
        assert first == again
        assert all(c["faults_injected"] > 0 for c in first.values())

    def test_reruns_are_deterministic(self):
        spec = fault_model_spec(backend="bitpacked")
        assert run_all_shards(spec) == run_all_shards(spec)
