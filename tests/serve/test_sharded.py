"""Tests for the serving path: route → serve → merge, at any shard count."""

import pytest

from repro.core.obj import reset_object_ids
from repro.serve.ledger import FrozenServeLedger
from repro.serve.loadgen import LoadGenSpec, run_loadgen
from repro.serve.protocol import ServeError
from repro.serve.sharded import (
    build_shard_gateway,
    merged_rows,
    run_shard_serve,
    shard_serve_seed,
)
from repro.sim.parallel import RunSpec
from repro.units import MINUTES_PER_DAY, gib


def flash_spec(**kwargs):
    kwargs.setdefault("workload", "flashcrowd")
    kwargs.setdefault("horizon_days", 10.0)
    kwargs.setdefault("scale", 0.02)
    kwargs.setdefault("burst_factor", 3.0)
    kwargs.setdefault("clients", 8)
    kwargs.setdefault("nodes", 4)
    kwargs.setdefault("shards", 2)
    kwargs.setdefault("seed", 7)
    kwargs.setdefault("high_water", 4)
    kwargs.setdefault("window_minutes", 720.0)
    kwargs.setdefault("max_requests", 400)
    return LoadGenSpec(**kwargs)


def run_fresh(spec, **kwargs):
    reset_object_ids()
    return run_loadgen(spec, **kwargs)


class TestSeeds:
    def test_single_shard_keeps_base_seed(self):
        assert shard_serve_seed(42, 0, 1) == 42

    def test_shards_get_distinct_seeds(self):
        seeds = {shard_serve_seed(42, shard, 4) for shard in range(4)}
        assert len(seeds) == 4

    def test_seed_depends_on_shard_count(self):
        assert shard_serve_seed(42, 0, 2) != shard_serve_seed(42, 0, 4)


class TestBuildShardGateway:
    def test_node_names_keep_global_indexes(self):
        spec = flash_spec(nodes=4, shards=2)
        names = []
        for shard in range(2):
            gateway = build_shard_gateway(spec, shard)
            names.extend(sorted(gateway.cluster.nodes))
        assert names == ["node-000", "node-001", "node-002", "node-003"]

    def test_budget_pro_rated_by_node_share(self):
        spec = flash_spec(nodes=4, shards=2)
        fleet = spec.budget_gib_days * gib(1) * MINUTES_PER_DAY
        budgets = [
            build_shard_gateway(spec, shard).ledger.budget_per_period
            for shard in range(2)
        ]
        assert sum(budgets) == pytest.approx(fleet)
        single = build_shard_gateway(flash_spec(nodes=4, shards=1), 0)
        assert single.ledger.budget_per_period == pytest.approx(fleet)

    def test_rejects_out_of_range_shard(self):
        with pytest.raises(ServeError):
            run_shard_serve(flash_spec(shards=2), 2)


#: Ledger sha256 of single-gateway runs, recorded before one-shard runs
#: moved onto the route → serve → merge path.  Any drift means a
#: one-shard run no longer serves exactly what a lone gateway served.
SINGLE_GATEWAY_SHA256 = {
    "university-closed": (
        dict(
            workload="university", mode="closed", clients=8, nodes=4,
            horizon_days=10.0, scale=0.02, seed=7, max_requests=200,
        ),
        "bec55c7c6608ccf737913b68a33879ce82d151110c93dbfa839442feebb22d80",
    ),
    "downloads-open-queue-full": (
        dict(
            workload="downloads", mode="open", clients=1, nodes=1,
            horizon_days=20.0, queue_size=8, batch_max=4, open_burst=16,
            seed=7, max_requests=300,
        ),
        "da74861e26347da9289a19b49db1c8cb3fd2bd66fe37eeb9565a14f2f19df1ee",
    ),
    "diurnal-open-3-nodes": (
        dict(
            workload="diurnal", mode="open", clients=4, nodes=3,
            horizon_days=10.0, seed=7, max_requests=300,
        ),
        "c75e5211dbc262e322620869f0a61648834ca50986fd050ea64688eb45155246",
    ),
    "university-rate-limited": (
        dict(
            workload="university", mode="closed", clients=4, nodes=4,
            horizon_days=10.0, scale=0.02, seed=7, max_requests=300,
            rate_per_minute=0.01, rate_burst=2.0,
        ),
        "2d24f91145023d44ec438a658a37f9ce3aa7cc3274fab1e40aba681619a59dfa",
    ),
}


class TestSingleShardParity:
    def test_one_shard_matches_legacy_gateway(self):
        # shards=1 must be byte-for-byte the single-gateway deployment.
        for name, (kwargs, sha256) in SINGLE_GATEWAY_SHA256.items():
            report = run_fresh(LoadGenSpec(**kwargs))
            assert report.ledger.canonical_sha256() == sha256, name
            assert report.per_shard == (), name

    def test_pinned_specs_reach_their_paths(self):
        shed = run_fresh(LoadGenSpec(**SINGLE_GATEWAY_SHA256["downloads-open-queue-full"][0]))
        assert shed.shed_by_reason.get("queue-full", 0) > 0
        limited = run_fresh(LoadGenSpec(**SINGLE_GATEWAY_SHA256["university-rate-limited"][0]))
        assert limited.shed_by_reason.get("ratelimit", 0) > 0

    def test_one_shard_cluster_stats_are_the_clusters_own(self):
        spec = flash_spec(workload="university", shards=1, max_requests=200)
        reset_object_ids()
        outcome = run_shard_serve(spec, 0)
        report = run_fresh(spec)
        assert report.cluster.rejected > 0
        assert report.cluster == outcome.cluster


class TestMergedClusterMeans:
    def test_means_are_per_attempt_across_shards(self):
        spec = flash_spec(
            nodes=4, node_capacity_gib=0.25, shards=2, max_requests=400
        )
        outcomes = []
        for shard in range(2):
            reset_object_ids()
            outcomes.append(run_shard_serve(spec, shard))
        assert all(o.cluster.rejected > 0 for o in outcomes)
        report = run_fresh(spec)
        attempts = sum(o.cluster.placed + o.cluster.rejected for o in outcomes)
        rounds = sum(o.cluster.rounds_total for o in outcomes)
        probes = sum(o.cluster.probes_total for o in outcomes)
        assert report.cluster.mean_rounds == rounds / attempts
        assert report.cluster.mean_probes == probes / attempts


class TestMergedRun:
    def test_assigned_sums_to_requests(self):
        report = run_fresh(flash_spec())
        assert sum(row[2] for row in report.per_shard) == report.requests
        assert sum(report.responses_by_status.values()) == report.requests

    def test_flash_crowd_spills_and_coalesces(self):
        report = run_fresh(flash_spec())
        assert report.spilled > 0
        assert report.coalesced > 0
        assert isinstance(report.ledger, FrozenServeLedger)

    def test_merged_rows_deterministic_across_runs(self):
        spec = flash_spec()
        assert merged_rows(run_fresh(spec)) == merged_rows(run_fresh(spec))

    def test_open_loop_deterministic_with_coalescing(self):
        spec = flash_spec(mode="open")
        a, b = run_fresh(spec), run_fresh(spec)
        assert a.coalesced > 0
        assert a.ledger.canonical_sha256() == b.ledger.canonical_sha256()

    def test_jobs_do_not_change_artifacts(self):
        spec = flash_spec()
        inline = run_fresh(spec, jobs=1)
        workers = run_fresh(spec, jobs=2)
        assert merged_rows(inline) == merged_rows(workers)
        assert (
            inline.ledger.canonical_sha256() == workers.ledger.canonical_sha256()
        )

    def test_never_spill_keeps_crowd_on_target(self):
        overflow = run_fresh(flash_spec())
        never = run_fresh(flash_spec(spill="never"))
        assert never.spilled == 0
        by_shard = {row[0]: row[2] for row in never.per_shard}
        # Without spill the burst stays on the target shard's keyspace.
        assert by_shard[0] > max(v for s, v in by_shard.items() if s != 0)
        assert overflow.spilled > 0


class TestRegistryAdapters:
    def test_serve_shard_experiment_runs(self):
        from repro.experiments.registry import run_cli

        spec = RunSpec(
            experiment="serve-shard",
            params={
                "workload": "flashcrowd",
                "scale": 0.005,
                "clients": 4,
                "nodes": 4,
                "shards": 2,
                "shard": 1,
                "max_requests": 200,
                "high_water": 8,
                "window_minutes": 60.0,
            },
            seed=7,
            horizon_days=10.0,
        )
        outcome, rendered, (headers, rows) = run_cli(spec)
        assert outcome.shard == 1
        assert headers == ("kind", "key", "value")
        assert "serve shard 1/2" in rendered
        assert any(kind == "ledger" for kind, _k, _v in rows)

    def test_serve_flash_experiment_runs(self):
        from repro.experiments.registry import run_cli

        spec = RunSpec(
            experiment="serve-flash",
            params={"nodes": 4, "shards": 2, "max_requests": 200},
            seed=7,
            horizon_days=10.0,
        )
        report, rendered, (headers, rows) = run_cli(spec)
        assert report.requests > 0
        assert "shard(s)" in rendered
        assert ("ledger", "sha256", report.ledger.canonical_sha256()) in rows
