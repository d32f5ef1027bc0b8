"""Figure 5 — Palimpsest time constant at hour/day/month windows.

The paper measures the time constant (capacity / arrival rate — the FIFO
sojourn an application must predict) over hourly, daily and monthly
analysis windows of the Section 5.1 workload, showing that hourly
estimates "varied considerably" and daily estimates are heteroscedastic;
only month-scale windows stabilise, by which time an unrefreshed object
may already be gone.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.heteroscedasticity import BreuschPaganResult, breusch_pagan
from repro.analysis.timeconstant import (
    WINDOW_DAY,
    WINDOW_HOUR,
    WINDOW_MONTH,
    TimeConstantSeries,
    estimate_time_constants,
)
from repro.experiments.common import (
    POLICY_PALIMPSEST,
    SingleAppSetup,
    run_single_app_scenario,
)
from repro.report.asciichart import ascii_plot
from repro.report.table import TextTable
from repro.units import gib, to_days
from repro.sim.parallel import RunSpec

__all__ = ["Fig5Result", "execute", "run", "render", "run_from_arrivals"]

WINDOWS = {"hour": WINDOW_HOUR, "day": WINDOW_DAY, "month": WINDOW_MONTH}


@dataclass(frozen=True)
class Fig5Result:
    """Time-constant series per analysis window plus diagnostics."""

    capacity_gib: int
    series: dict[str, TimeConstantSeries]
    stability: dict[str, dict[str, float]]
    #: Breusch–Pagan test on the daily series (the paper's
    #: heteroscedasticity observation); None if the series is too short.
    daily_bp: BreuschPaganResult | None


def run_from_arrivals(
    arrivals, capacity_bytes: int, capacity_gib: int
) -> Fig5Result:
    """Estimate all three windowed series from a recorded arrival stream."""
    series = {
        name: estimate_time_constants(arrivals, capacity_bytes, window)
        for name, window in WINDOWS.items()
    }
    stability = {name: s.stability() for name, s in series.items()}
    daily = series["day"]
    daily_bp = None
    if len(daily.points) >= 4:
        xs = [t for t, _tau in daily.points]
        ys = [to_days(tau) for _t, tau in daily.points]
        daily_bp = breusch_pagan(xs, ys)
    return Fig5Result(
        capacity_gib=capacity_gib, series=series, stability=stability, daily_bp=daily_bp
    )


def _run(
    *, capacity_gib: int = 80, horizon_days: float = 365.0, seed: int = 42
) -> Fig5Result:
    """Run the Palimpsest scenario and estimate its time constants."""
    setup = SingleAppSetup(
        capacity_gib=capacity_gib,
        horizon_days=horizon_days,
        seed=seed,
        policy=POLICY_PALIMPSEST,
    )
    result = run_single_app_scenario(setup)
    return run_from_arrivals(
        result.recorder.arrivals, gib(capacity_gib), capacity_gib
    )


def render(result: Fig5Result) -> str:
    """Printable reproduction of Figure 5."""
    chunks: list[str] = []
    for name, series in result.series.items():
        points = [(to_days(t), to_days(tau)) for t, tau in series.points]
        # The hourly series has thousands of points; thin it for the chart.
        step = max(1, len(points) // 500)
        chunks.append(
            ascii_plot(
                {f"tau ({name} windows)": points[::step]},
                title=(
                    f"Figure 5 [{name}]: Palimpsest time constant (days), "
                    f"{result.capacity_gib} GiB"
                ),
                x_label="day",
                y_label="tau (days)",
            )
        )
    table = TextTable(
        ["window", "n", "mean tau (d)", "std (d)", "CV", "empty windows"],
        title="Time-constant stability",
    )
    for name, stats in result.stability.items():
        table.add_row(
            [
                name,
                int(stats.get("n", 0)),
                round(stats.get("mean", 0.0), 2),
                round(stats.get("std", 0.0), 2),
                round(stats.get("cv", 0.0), 3),
                int(stats.get("empty_windows", 0)),
            ]
        )
    chunks.append(table.render())
    if result.daily_bp is not None:
        verdict = "heteroscedastic" if result.daily_bp.heteroscedastic() else "homoscedastic"
        chunks.append(
            f"Breusch-Pagan on daily taus: LM={result.daily_bp.lm_statistic:.2f}, "
            f"p={result.daily_bp.p_value:.4g} -> {verdict}"
        )
    return "\n\n".join(chunks)


def execute(spec: RunSpec) -> Fig5Result:
    """Run this experiment from a :class:`RunSpec` (the stable entry point)."""
    return _run(**spec.call_kwargs())
