"""Figure 12 — storage importance density for the lecture scenario.

The density tracks the academic calendar (climbing through terms, easing
on breaks as annotations wane) and sits lower on the bigger disk: "as the
storage pressure eases, more objects are retained and the average
importance density becomes lower" — making it a usable feedback signal.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments.common import (
    POLICY_TEMPORAL,
    LectureSetup,
    run_lecture_scenario,
)
from repro.report.asciichart import ascii_plot
from repro.report.table import TextTable
from repro.units import to_days
from repro.sim.parallel import RunSpec

__all__ = ["Fig12Result", "execute", "run", "render"]


@dataclass(frozen=True)
class Fig12Result:
    """Lecture-scenario density time-series per disk size."""

    series: dict[int, tuple[tuple[float, float], ...]]
    mean_density: dict[int, float]
    plateau_density: dict[int, float]


def _run(
    *,
    capacities_gib: tuple[int, ...] = (80, 120),
    horizon_days: float = 5 * 365.0,
    seed: int = 42,
) -> Fig12Result:
    """Run the temporal lecture scenario per capacity and sample density."""
    series: dict[int, tuple[tuple[float, float], ...]] = {}
    means: dict[int, float] = {}
    plateaus: dict[int, float] = {}
    for capacity in capacities_gib:
        result = run_lecture_scenario(
            LectureSetup(
                capacity_gib=capacity,
                horizon_days=horizon_days,
                seed=seed,
                policy=POLICY_TEMPORAL,
            )
        )
        density = tuple(result.recorder.density_series())
        series[capacity] = density
        values = [d for _t, d in density]
        means[capacity] = sum(values) / len(values) if values else 0.0
        tail = [d for t, d in density if t >= result.horizon_minutes * 0.6]
        plateaus[capacity] = sum(tail) / len(tail) if tail else 0.0
    return Fig12Result(series=series, mean_density=means, plateau_density=plateaus)


def render(result: Fig12Result) -> str:
    """Printable reproduction of Figure 12."""
    chart_series = {
        f"{capacity} GiB": [(to_days(t), d) for t, d in points]
        for capacity, points in sorted(result.series.items())
    }
    chart = ascii_plot(
        chart_series,
        title="Figure 12: storage importance density, lecture capture",
        x_label="day",
        y_label="density",
    )
    table = TextTable(
        ["capacity (GiB)", "mean density", "plateau density"],
        title="Density summary (lecture scenario)",
    )
    for capacity in sorted(result.series):
        table.add_row(
            [
                capacity,
                round(result.mean_density[capacity], 4),
                round(result.plateau_density[capacity], 4),
            ]
        )
    return chart + "\n\n" + table.render()


def execute(spec: RunSpec) -> Fig12Result:
    """Run this experiment from a :class:`RunSpec` (the stable entry point)."""
    return _run(**spec.call_kwargs())
