"""Extension bench: desktop churn under the single-copy model.

Quantifies Section 4.1's reliability statement — Besteffs gives no more
durability than one copy on one desktop — and the expected fleet upgrade
("the university ... continuously replace[s] older desktops with newer
desktops that will likely host larger disks").
"""

from benchmarks.conftest import run_once
from repro.experiments import ext_churn as mod
from repro.sim.parallel import RunSpec


def test_ext_churn(benchmark, save_artifact):
    result = run_once(
        benchmark,
        mod.execute,
        RunSpec(
            "ext-churn",
            params={
                "nodes": 16,
                "node_capacity_gib": 8,
                "join_capacity_gib": 12,
                "churn_interval_days": 30.0,
                "leave_fraction": 0.10,
                "joins_per_interval": 2,
            },
            seed=7,
            horizon_days=365.0,
        ),
    )

    # Churn really loses data: single copies walk away with the desktops.
    assert result.lost_to_departures > 0
    assert result.lost_bytes_gib > 0

    # The fleet upgrade grows raw capacity (12 GiB joins > 8 GiB leaves).
    assert result.final_capacity_gib > result.initial_capacity_gib

    # Importance-driven reclamation remains the dominant removal cause —
    # churn loss is a tax, not the primary mechanism.
    assert result.preempted > result.lost_to_departures

    # The overlay was rebuilt once per churn interval.
    assert result.overlay_rebuilds >= int(result.horizon_days / result.churn_interval_days)

    save_artifact("ext_churn", mod.render(result))
