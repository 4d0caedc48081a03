"""Campaign integration of the bitpacked tape backend.

Covers the spec surface (``backend`` field, the fault-stream contract in
the spec hash, the retired ``batched`` backend and ``engine`` alias), the
worker dispatch, exact scalar equality on fault-free and stochastic cells,
and the SEP acceptance sweep.
"""

import numpy as np
import pytest

from repro.campaign import (
    CampaignSpec,
    run_campaign,
    run_shard,
)
from repro.campaign.aggregate import COUNT_KEYS
from repro.campaign.checkpoint import CheckpointStore
from repro.campaign.spec import CAMPAIGN_BACKENDS, RNG_CONTRACT, ShardTask
from repro.campaign.worker import clear_executor_cache
from repro.campaign.workloads import get_campaign_workload
from repro.core.backend import make_backend
from repro.core.batched import sample_input_matrix
from repro.errors import EvaluationError
from repro.pim.faults import FaultModelSpec


def spec(backend="bitpacked", **overrides):
    defaults = dict(
        workloads=("and2",),
        schemes=("unprotected", "ecim", "trim"),
        technologies=("stt",),
        gate_error_rates=(1e-2,),
        trials=60,
        shard_size=20,
        seed=7,
        backend=backend,
        name="bitpacked-backend-test",
    )
    defaults.update(overrides)
    return CampaignSpec(**defaults)


class TestSpecSurface:
    def test_backends_constant(self):
        assert CAMPAIGN_BACKENDS == ("scalar", "bitpacked")

    def test_default_backend_is_scalar(self):
        assert CampaignSpec(workloads=("and2",)).backend == "scalar"

    def test_unknown_backend_rejected(self):
        with pytest.raises(EvaluationError):
            CampaignSpec(workloads=("and2",), backend="vectorised")
        with pytest.raises(EvaluationError):
            ShardTask(
                cell=spec().cells()[0], shard_index=0, start_trial=0,
                n_trials=1, campaign_seed=0, backend="vectorised",
            )

    def test_backend_propagates_to_shards(self):
        assert all(task.backend == "bitpacked" for task in spec().shards())
        assert all(task.backend == "scalar" for task in spec(backend="scalar").shards())

    def test_scalar_hash_unchanged_by_backend_field(self):
        # A spec file without the backend field means the scalar default,
        # and hashes like a spec that spells it out.
        base = spec(backend="scalar")
        data = base.to_dict()
        assert data["backend"] == "scalar"
        del data["backend"]
        assert CampaignSpec.from_dict(data).spec_hash() == base.spec_hash()

    def test_bitpacked_hash_differs_from_scalar(self):
        assert spec().spec_hash() != spec(backend="scalar").spec_hash()

    def test_spec_hash_canonical_form_pins_the_rng_contract(self):
        # The canonical form carries RNG_CONTRACT and the backend as a plain
        # key; these digests move only with the contract or the spec schema.
        assert RNG_CONTRACT == 2
        assert CampaignSpec(workloads=("and2",)).spec_hash() == "12c8f329f4b2464d"
        assert (
            CampaignSpec(workloads=("and2",), backend="bitpacked").spec_hash()
            == "350e7aa7269482c0"
        )
        burst = dict(
            workloads=("dot2", "and2"), gate_error_rates=(1e-3,), trials=100, seed=3,
            fault_model="burst:length=2,window=4",
        )
        assert CampaignSpec(**burst).spec_hash() == "f74465c9c076588c"
        assert CampaignSpec(backend="bitpacked", **burst).spec_hash() == "cbdf7681cc3a6f0a"

    def test_pre_contract_checkpoint_records_are_rerun(self, tmp_path):
        # A record drawn under the previous fault stream carries that
        # contract's spec hash ("07608ed0d51d9f75" for this spec): the resume
        # filter skips it and the shard re-runs, so counters drawn from two
        # streams never mix.
        small = spec(backend="scalar", schemes=("ecim",), trials=20, shard_size=20)
        fresh = run_campaign(small, workers=0)
        stale = run_shard(small.shards()[0])
        stale.counts["silent_corruption"] += 7
        path = tmp_path / "contract1.jsonl"
        CheckpointStore(path).append("07608ed0d51d9f75", stale)
        resumed = run_campaign(small, workers=0, checkpoint=path)
        assert resumed.resumed_shards == 0
        assert resumed.executed_shards == 1
        assert resumed.counts_by_cell == fresh.counts_by_cell

    def test_backend_round_trips_through_json(self):
        assert CampaignSpec.from_json(spec().to_json()).backend == "bitpacked"


class TestRetiredNames:
    """The uint8 ``batched`` backend and the ``engine`` alias are gone:
    batched-era spec files and checkpoints are refused loudly."""

    def test_batched_backend_rejected_with_choices(self):
        with pytest.raises(EvaluationError, match=r"'batched'.*'scalar', 'bitpacked'"):
            CampaignSpec(workloads=("and2",), backend="batched")
        with pytest.raises(EvaluationError, match="'batched'"):
            ShardTask(
                cell=spec().cells()[0], shard_index=0, start_trial=0,
                n_trials=1, campaign_seed=0, backend="batched",
            )

    def test_engine_keyword_is_not_a_field(self):
        with pytest.raises(TypeError):
            CampaignSpec(workloads=("and2",), engine="bitpacked")
        with pytest.raises(TypeError):
            ShardTask(
                cell=spec().cells()[0], shard_index=0, start_trial=0,
                n_trials=1, campaign_seed=0, engine="bitpacked",
            )

    def test_engine_spec_files_fail_as_unknown_fields(self):
        with pytest.raises(EvaluationError, match=r"unknown campaign spec fields: \['engine'\]"):
            CampaignSpec.from_dict({"workloads": ["and2"], "engine": "bitpacked"})

    def test_batched_spec_files_are_refused(self):
        with pytest.raises(EvaluationError, match="'batched'"):
            CampaignSpec.from_dict({"workloads": ["and2"], "backend": "batched"})

    def test_engine_key_not_serialised(self):
        assert "engine" not in spec().to_dict()


class TestWorkerDispatch:
    def test_unknown_technology_rejected_like_scalar(self):
        # The tape plan never consumes technology parameters, but a
        # typo'd --technologies must not silently succeed on one backend
        # and fail on the other.
        from repro.errors import TechnologyError

        clear_executor_cache()
        cell = spec().cells()[0]
        bogus = type(cell)(
            workload=cell.workload, scheme=cell.scheme, technology="sst",
            gate_error_rate=cell.gate_error_rate,
        )
        task = ShardTask(
            cell=bogus, shard_index=0, start_trial=0, n_trials=5,
            campaign_seed=0, backend="bitpacked",
        )
        with pytest.raises(TechnologyError):
            run_shard(task)

    def test_counts_schema_matches_campaign_keys(self):
        task = spec().shards()[0]
        result = run_shard(task)
        assert set(result.counts) == set(COUNT_KEYS)
        assert result.counts["trials"] == task.n_trials

    def test_bitpacked_shard_deterministic(self):
        task = spec().shards()[0]
        clear_executor_cache()
        first = run_shard(task)
        again = run_shard(task)  # now served by the cached plan
        assert first == again

    def test_shard_size_does_not_change_bitpacked_aggregates(self):
        coarse = run_campaign(spec(shard_size=60), workers=0)
        fine = run_campaign(spec(shard_size=7), workers=0)
        assert coarse.counts_by_cell == fine.counts_by_cell

    def test_serial_matches_two_workers(self):
        serial = run_campaign(spec(), workers=0)
        parallel = run_campaign(spec(), workers=2)
        assert serial.counts_by_cell == parallel.counts_by_cell


class TestScalarAgreement:
    def test_fault_free_cells_match_scalar_exactly(self):
        # With no faults both backends are deterministic functions of the
        # shared input sampler, so every counter must agree bit-for-bit.
        kwargs = dict(gate_error_rates=(0.0,), trials=40, shard_size=10)
        bitpacked = run_campaign(spec(**kwargs), workers=0)
        scalar = run_campaign(spec(backend="scalar", **kwargs), workers=0)
        assert bitpacked.counts_by_cell == scalar.counts_by_cell
        for report in bitpacked.reports:
            assert report.counts["correct"] == report.counts["trials"]

    def test_stochastic_cells_match_scalar_exactly(self):
        # One fault stream: the default stochastic cells draw the same
        # faults on both backends, so every counter agrees bit-for-bit.
        kwargs = dict(
            workloads=("dot2",), schemes=("ecim",), gate_error_rates=(1e-2,),
            trials=60, shard_size=25,
        )
        bitpacked = run_campaign(spec(**kwargs), workers=0)
        scalar = run_campaign(spec(backend="scalar", **kwargs), workers=0)
        assert bitpacked.reports[0].counts["faults_injected"] > 0
        assert bitpacked.counts_by_cell == scalar.counts_by_cell


class TestSepAcceptance:
    def test_dot2_grid_zero_silent_corruption_under_protection(self):
        # The acceptance sweep: ECiM and TRiM on dot2 across the swept error
        # rates, bitpacked backend — silent corruption must be zero everywhere,
        # while the unprotected baseline shows why protection is needed.
        result = run_campaign(
            spec(
                workloads=("dot2",),
                schemes=("unprotected", "ecim", "trim"),
                gate_error_rates=(1e-3, 1e-2),
                trials=200,
                shard_size=100,
            ),
            workers=0,
        )
        for report in result.reports:
            if report.cell.scheme in ("ecim", "trim"):
                assert report.counts["silent_corruption"] == 0, report.cell
            else:
                assert report.counts["detected"] == 0
        unprotected_hi = [
            r for r in result.reports
            if r.cell.scheme == "unprotected" and r.cell.gate_error_rate == 1e-2
        ][0]
        assert unprotected_hi.counts["silent_corruption"] > 0


class TestCheckpointInterop:
    def test_bitpacked_campaign_resumes_own_checkpoint(self, tmp_path):
        path = tmp_path / "ckpt.jsonl"
        full = run_campaign(spec(), workers=0, checkpoint=path)
        assert full.resumed_shards == 0
        again = run_campaign(spec(), workers=0, checkpoint=path)
        assert again.resumed_shards == len(spec().shards())
        assert again.counts_by_cell == full.counts_by_cell

    def test_bitpacked_checkpoint_not_consumed_by_scalar_run(self, tmp_path):
        path = tmp_path / "ckpt.jsonl"
        run_campaign(spec(), workers=0, checkpoint=path)
        scalar = run_campaign(spec(backend="scalar"), workers=0, checkpoint=path)
        assert scalar.resumed_shards == 0


class TestBitpackedMemoryErrors:
    def test_memory_rate_changes_outcomes_only_for_checked_schemes(self):
        # Memory errors strike checker-transfer reads; the unprotected
        # executor performs none, so its counters must be invariant.
        netlist = get_campaign_workload("dot2").netlist
        seeds = list(range(80))
        matrix = sample_input_matrix(netlist, seeds)
        memory = FaultModelSpec.stochastic(gate_error_rate=0.0, memory_error_rate=0.05)

        unprotected = make_backend("bitpacked", netlist, "unprotected")
        clean = unprotected.run_trials(matrix, capture_outputs=True)
        noisy = unprotected.run_trials(
            matrix, fault_model=memory, fault_seeds=seeds, capture_outputs=True
        )
        assert np.array_equal(clean.outputs, noisy.outputs)
        assert noisy.counts()["faults_injected"] == 0

        ecim = make_backend("bitpacked", netlist, "ecim")
        noisy_e = ecim.run_trials(matrix, fault_model=memory, fault_seeds=seeds)
        assert noisy_e.counts()["faults_injected"] > 0
        assert noisy_e.counts()["detected"] > 0
