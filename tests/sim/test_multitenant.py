"""Sharded multi-tenant runner: determinism, jobs parity, manifests."""

import json
import warnings

import pytest

from repro.sim.multitenant import (
    MultiTenantConfig,
    MultiTenantMachine,
    build_shard_specs,
    run_multi_tenant,
    run_shard,
    shard_id,
    shard_tenants,
)

QUICK = dict(
    tenants=8,
    shards=2,
    rounds=2,
    accesses_per_round=300,
    numa_nodes=2,
    seed=21,
)


@pytest.fixture(autouse=True)
def clean_warn_state():
    """Warn-once state is class-level: isolate it per test."""
    MultiTenantMachine.reset_warned()
    yield
    MultiTenantMachine.reset_warned()


def _config(tmp_path, jobs=1, **overrides):
    kwargs = {**QUICK, **overrides}
    return MultiTenantConfig(
        jobs=jobs, out_dir=str(tmp_path / f"ten-j{jobs}"), **kwargs
    )


class TestSharding:
    def test_round_robin_partitions_tenants_exactly(self):
        config = MultiTenantConfig(tenants=10, shards=3)
        owned = [shard_tenants(config, s) for s in range(3)]
        assert sorted(t for ids in owned for t in ids) == list(range(10))
        assert owned[0] == [0, 3, 6, 9]

    def test_shard_ids_and_seeds_stable_and_distinct(self, tmp_path):
        config = _config(tmp_path)
        specs = build_shard_specs(config)
        assert [s.unit_id for s in specs] == [
            shard_id(config, s) for s in range(config.shards)
        ]
        assert len({s.seed for s in specs}) == len(specs)
        assert [s.seed for s in specs] == [
            s.seed for s in build_shard_specs(config)
        ]

    def test_empty_shards_are_skipped(self, tmp_path):
        config = _config(tmp_path, tenants=1, shards=4)
        assert len(build_shard_specs(config)) == 1

    def test_rejects_degenerate_configs(self, tmp_path):
        with pytest.raises(ValueError, match="tenant"):
            run_multi_tenant(_config(tmp_path, tenants=0))
        with pytest.raises(ValueError, match="shard"):
            run_multi_tenant(_config(tmp_path, shards=0))


class TestDeterminism:
    def test_jobs_parity_byte_identical_manifests(self, tmp_path):
        run_multi_tenant(_config(tmp_path, jobs=1))
        run_multi_tenant(_config(tmp_path, jobs=4))
        serial = (tmp_path / "ten-j1" / "tenants_manifest.json").read_text()
        parallel = (tmp_path / "ten-j4" / "tenants_manifest.json").read_text()
        assert serial == parallel

    def test_shard_record_is_a_pure_function_of_its_args(self):
        kwargs = dict(
            shard=0,
            tenant_ids=[0, 2, 4],
            policy="Trident",
            seed=77,
            rounds=2,
            accesses_per_round=200,
            churn_prob=0.5,
            max_segments=4,
            regions_per_tenant=1.5,
            numa_nodes=2,
            numa_remote_multiplier=1.4,
            pt_replication=False,
            audit=False,
        )
        a = json.dumps(run_shard(**kwargs), sort_keys=True)
        b = json.dumps(run_shard(**kwargs), sort_keys=True)
        assert a == b

    def test_seed_actually_changes_the_run(self, tmp_path):
        first = run_multi_tenant(_config(tmp_path, seed=21))
        second = run_multi_tenant(
            _config(tmp_path / "other", seed=22)
        )
        assert first["totals"] != second["totals"]


class TestManifest:
    def test_totals_and_numa_sections(self, tmp_path):
        manifest = run_multi_tenant(_config(tmp_path, audit=True))
        totals = manifest["totals"]
        assert totals["tenants"] == QUICK["tenants"]
        assert totals["accesses"] == (
            QUICK["tenants"] * QUICK["rounds"] * QUICK["accesses_per_round"]
        )
        assert totals["faults"] > 0
        assert totals["audit_checks"] > 0
        assert totals["audit_violations"] == 0
        assert len(totals["mean_node_fmfi"]) == 2
        assert len(totals["node_free_frames"]) == 2
        for record in manifest["shards"]:
            machine = record["machine"]
            assert set(machine["numa_counters"]) >= {
                "numa_alloc_local_total",
                "numa_alloc_remote_total",
            }
            for tenant in record["tenants"]:
                assert tenant["home_node"] == tenant["tenant"] % 2

    def test_environment_facts_excluded_from_manifest(self, tmp_path):
        manifest = run_multi_tenant(_config(tmp_path))
        assert "jobs" not in manifest["config"]
        assert "out_dir" not in manifest["config"]
        assert "timeout_s" not in manifest["config"]
        assert str(tmp_path) not in json.dumps(manifest)

    def test_flat_run_has_no_numa_keys(self, tmp_path):
        manifest = run_multi_tenant(_config(tmp_path, numa_nodes=1))
        assert "mean_node_fmfi" not in manifest["totals"]
        for record in manifest["shards"]:
            assert "numa_counters" not in record["machine"]
            assert "node_fmfi" not in record["machine"]


class TestOversubscriptionWarning:
    def _build(self):
        # 64 tenants on a shard sized for far fewer: peak demand clears
        # the 90% threshold and the constructor warns.
        return MultiTenantMachine(
            list(range(64)), seed=1, regions_per_tenant=0.2
        )

    def test_warns_once_per_shape_not_per_machine(self):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            self._build()
            self._build()  # same shape: silenced by the warn-once key
        runtime = [
            w for w in caught if issubclass(w.category, RuntimeWarning)
        ]
        assert len(runtime) == 1
        assert "oversubscribed" in str(runtime[0].message)

    def test_reset_allows_the_shape_to_warn_again(self):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            self._build()
            MultiTenantMachine.reset_warned()
            self._build()
        runtime = [
            w for w in caught if issubclass(w.category, RuntimeWarning)
        ]
        assert len(runtime) == 2

    def test_right_sized_shard_stays_silent(self):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            MultiTenantMachine([0, 1], seed=1)
        assert not [
            w for w in caught if issubclass(w.category, RuntimeWarning)
        ]

    def test_empty_shard_rejected(self):
        with pytest.raises(ValueError, match="tenants"):
            MultiTenantMachine([])


class TestAuditedChurn:
    def test_two_node_audited_run_is_clean(self, tmp_path):
        """The acceptance loop in miniature: churn + NUMA + audit."""
        record = run_shard(
            shard=0,
            tenant_ids=[0, 1, 2, 3],
            policy="Trident",
            seed=5,
            rounds=3,
            accesses_per_round=400,
            churn_prob=0.8,
            max_segments=3,
            regions_per_tenant=1.5,
            numa_nodes=2,
            numa_remote_multiplier=1.5,
            pt_replication=True,
            audit=True,
        )
        machine = record["machine"]
        assert machine["audit_violations"] == 0
        assert machine["audit_checks"] > 0
        counters = machine["numa_counters"]
        assert counters["numa_replica_updates_total"] == machine["faults"]
        assert counters["numa_remote_walk_penalty_ns_total"] == 0
