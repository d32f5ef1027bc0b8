"""Bench: Section 5.4 — the mega-university on a sharded cluster.

Two scales share this module:

* ``test_sec54_mega_reduced`` — the paper-scale university (2,000 nodes,
  2,321 courses) in four shards; runs in the default bench suite and
  pins its artifact checksum like every other benchmark.
* ``test_sec54_mega`` — the full mega-university (50,000 nodes, ~58k
  courses, millions of arrivals over 60 days).  It takes tens of minutes,
  so it only runs when ``RUN_MEGA=1`` is set (``make bench-mega``); its
  committed baseline is refreshed the same way.
"""

import os

import pytest

from benchmarks.conftest import run_once
from repro.experiments import sec54_mega as mod
from repro.sim.parallel import RunSpec


def _assert_saturation(result):
    """The mega-university shapes: pressure, saturation, determinism."""
    placed = [row[2] for row in result.epochs]
    rejected = [row[3] for row in result.epochs]
    densities = [row[7] for row in result.epochs]
    # Cumulative counters are monotone across epochs.
    assert placed == sorted(placed)
    assert rejected == sorted(rejected)
    # Tiny per-node capacity against the full catalogue: the cluster
    # saturates — most offers are rejected and density ends high.
    assert placed[-1] > 0
    assert rejected[-1] > placed[-1]
    assert 0.6 < densities[-1] <= 1.0
    # Shards partition the whole university: node/course slices add up.
    assert sum(s[1] for s in result.shard_summary) == result.nodes
    assert sum(s[2] for s in result.shard_summary) == result.courses
    assert sum(s[3] for s in result.shard_summary) == result.arrivals


def test_sec54_mega_reduced(benchmark, save_artifact):
    result = run_once(
        benchmark,
        mod.execute,
        RunSpec(
            "sec54-mega",
            params={
                "nodes": 2_000,
                "shards": 4,
                "node_capacity_gib": 2.0,
                "epoch_days": 5.0,
                "jobs": 1,
            },
            seed=11,
            horizon_days=30.0,
        ),
    )
    assert result.nodes == 2_000
    assert result.shards == 4
    assert len(result.epochs) == 6
    assert len(result.shard_rows) == 4 * 6
    _assert_saturation(result)
    save_artifact("sec54_mega_reduced", mod.render(result))


@pytest.mark.skipif(
    not os.environ.get("RUN_MEGA"),
    reason="full-scale mega-university (~20 min); set RUN_MEGA=1 (make bench-mega)",
)
def test_sec54_mega(benchmark, save_artifact):
    result = run_once(
        benchmark,
        mod.execute,
        RunSpec(
            "sec54-mega",
            params={
                "nodes": 50_000,
                "shards": 8,
                "node_capacity_gib": 2.0,
                "epoch_days": 5.0,
                "jobs": 1,
            },
            seed=11,
            horizon_days=60.0,
        ),
    )
    assert result.nodes == 50_000
    assert result.courses == 58_025
    assert len(result.epochs) == 12
    # The tentpole scale claim: multi-million objects offered.
    assert result.arrivals > 3_000_000
    _assert_saturation(result)
    save_artifact("sec54_mega", mod.render(result))
