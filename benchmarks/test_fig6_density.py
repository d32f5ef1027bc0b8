"""Bench: Figure 6 — instantaneous storage importance density."""

from benchmarks.conftest import run_once
from repro.experiments import fig6_density as mod
from repro.sim.parallel import RunSpec


def test_fig6_density(benchmark, save_artifact):
    result = run_once(
        benchmark,
        mod.execute,
        RunSpec("fig6", params={"capacities_gib": (80, 120)}, seed=42, horizon_days=365.0),
    )

    for capacity, series in result.series.items():
        values = [d for _t, d in series]
        assert all(0.0 <= v <= 1.0 for v in values)
        # Density climbs from empty toward a pressure plateau.
        assert values[0] < 0.1
        assert result.plateau_density[capacity] > 0.5

    # The plateau is high under 80 GB pressure (the paper snapshots at
    # 0.8369) and visibly lower on the bigger disk.
    assert result.plateau_density[80] > 0.75
    assert result.plateau_density[80] > result.plateau_density[120]
    assert result.max_density[80] <= 1.0

    save_artifact("fig6", mod.render(result))
