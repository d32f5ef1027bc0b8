"""Extension bench: read availability under pressure.

Consumer-side metric the paper leaves implicit: when a student requests a
lecture, are its bytes still resident?  One undersized disk, four
variants.  The headline: the *annotation shape* — not the policy — decides
availability.  The Table 1 annotation (flat until term end) cannot steer
within-semester reclamation and loses recent-read traffic; a recency-
waning annotation recovers FIFO/LRU-level availability while keeping the
producer in control.
"""

from benchmarks.conftest import run_once
from repro.experiments import ext_reads as mod
from repro.sim.parallel import RunSpec


def test_ext_reads(benchmark, save_artifact):
    result = run_once(
        benchmark,
        mod.execute,
        RunSpec("ext-reads", params={"capacity_gib": 10.0}, seed=42),
    )

    stats = result.per_policy
    flat = stats["temporal/table1"]
    recency = stats["temporal/recency"]
    fifo = stats["palimpsest"]
    lru = stats["lru"]

    # The limitation: flat within-term annotations refuse late captures
    # and miss recent reads (never-stored dominates its misses).
    assert flat["hit_rate"] < 0.6
    assert flat["misses_never_stored"] > flat["misses_evicted"]

    # The fix: a recency-shaped annotation recovers baseline availability.
    assert recency["hit_rate"] > 0.75
    assert abs(recency["hit_rate"] - fifo["hit_rate"]) < 0.05

    # The baselines sit together (popularity is recency-driven).
    assert abs(fifo["hit_rate"] - lru["hit_rate"]) < 0.05

    # FIFO's misses, by contrast, come from silently swept old lectures.
    assert fifo["misses_evicted"] > 0

    save_artifact("ext_reads", mod.render(result))
