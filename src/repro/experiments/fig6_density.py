"""Figure 6 — instantaneous storage importance density over time.

Under the temporal-importance policy the density climbs as the disk fills,
then plateaus below 1.0 under sustained pressure (some bytes are always in
their wane); the larger disk carries a visibly lower density — the signal
content creators read to pick annotations.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments.common import (
    POLICY_TEMPORAL,
    SingleAppSetup,
    run_single_app_scenario,
)
from repro.report.asciichart import ascii_plot
from repro.report.table import TextTable
from repro.units import to_days
from repro.sim.parallel import RunSpec

__all__ = ["Fig6Result", "execute", "run", "render"]


@dataclass(frozen=True)
class Fig6Result:
    """Density time-series per disk size."""

    series: dict[int, tuple[tuple[float, float], ...]]  # capacity -> [(t, density)]
    mean_density: dict[int, float]
    max_density: dict[int, float]
    #: Mean density over the final quarter (the pressure plateau).
    plateau_density: dict[int, float]


def _run(
    *,
    capacities_gib: tuple[int, ...] = (80, 120),
    horizon_days: float = 365.0,
    seed: int = 42,
) -> Fig6Result:
    """Run temporal-policy scenarios and extract density series."""
    series: dict[int, tuple[tuple[float, float], ...]] = {}
    means: dict[int, float] = {}
    maxima: dict[int, float] = {}
    plateaus: dict[int, float] = {}
    for capacity in capacities_gib:
        setup = SingleAppSetup(
            capacity_gib=capacity,
            horizon_days=horizon_days,
            seed=seed,
            policy=POLICY_TEMPORAL,
        )
        result = run_single_app_scenario(setup)
        density = tuple(result.recorder.density_series())
        series[capacity] = density
        values = [d for _t, d in density]
        means[capacity] = sum(values) / len(values) if values else 0.0
        maxima[capacity] = max(values) if values else 0.0
        tail = [d for t, d in density if t >= result.horizon_minutes * 0.75]
        plateaus[capacity] = sum(tail) / len(tail) if tail else 0.0
    return Fig6Result(
        series=series, mean_density=means, max_density=maxima, plateau_density=plateaus
    )


def render(result: Fig6Result) -> str:
    """Printable reproduction of Figure 6."""
    chart_series = {
        f"{capacity} GiB": [(to_days(t), d) for t, d in points]
        for capacity, points in sorted(result.series.items())
    }
    chart = ascii_plot(
        chart_series,
        title="Figure 6: instantaneous storage importance density",
        x_label="day",
        y_label="density",
    )
    table = TextTable(
        ["capacity (GiB)", "mean density", "max density", "plateau density"],
        title="Density summary",
    )
    for capacity in sorted(result.series):
        table.add_row(
            [
                capacity,
                round(result.mean_density[capacity], 4),
                round(result.max_density[capacity], 4),
                round(result.plateau_density[capacity], 4),
            ]
        )
    return chart + "\n\n" + table.render()


def execute(spec: RunSpec) -> Fig6Result:
    """Run this experiment from a :class:`RunSpec` (the stable entry point)."""
    return _run(**spec.call_kwargs())
