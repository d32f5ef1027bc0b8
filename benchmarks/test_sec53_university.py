"""Bench: Section 5.3 — university-wide capture over Besteffs."""

from benchmarks.conftest import run_once
from repro.experiments import sec53_university as mod
from repro.sim.parallel import RunSpec


def test_sec53_university(benchmark, save_artifact):
    result = run_once(
        benchmark,
        mod.execute,
        RunSpec(
            "sec53",
            params={"node_capacities_gib": (80, 120), "scale": 0.01},
            seed=7,
            horizon_days=500.0,
        ),
    )

    stats80 = result.stats[80]
    stats120 = result.stats[120]

    # The premise: annual demand exceeds what either cluster can hold, so
    # the system must reclaim continuously (at paper scale: ~300 TB/year
    # vs 160/240 TB of raw capacity).
    assert result.annual_demand_tib > result.capacity_tib[80]

    # Both clusters operate under pressure with high mean density.
    assert stats80.rejected > 0
    assert stats80.mean_density > 0.6
    assert 0.0 <= stats120.mean_density <= 1.0

    # More capacity: more placements, fewer rejections, lower density —
    # with unchanged annotations.
    assert stats120.placed > stats80.placed
    assert stats120.rejected < stats80.rejected
    assert stats120.mean_density <= stats80.mean_density + 0.02

    # Student storage stays squeezed at 80 GB/node and grows with capacity.
    student80 = result.by_creator[80].get("student", 0)
    student120 = result.by_creator[120].get("student", 0)
    university80 = result.by_creator[80].get("university", 0)
    assert student80 < university80 / 4
    assert student120 >= student80

    save_artifact("sec53", mod.render(result))
