"""Bench: Figure 2 — storage requirements over one year."""

from benchmarks.conftest import run_once
from repro.experiments import fig2_storage_requirements as mod
from repro.sim.parallel import RunSpec


def test_fig2_storage_requirements(benchmark, save_artifact):
    result = run_once(benchmark, mod.execute, RunSpec("fig2", seed=42, horizon_days=365.0))

    # Shape: demand accumulates monotonically, each quarter offers more
    # than the previous one, and the 80/120 GB disks fill well inside the
    # year (paper: "about 40 to 50 days" for this storage).
    totals = [total for _t, total in result.series]
    assert totals == sorted(totals)
    q = result.quarter_totals_gib
    assert q[0] < q[1] < q[2] < q[3]
    assert result.fill_day_80 is not None and 30 <= result.fill_day_80 <= 60
    assert result.fill_day_120 is not None and result.fill_day_120 > result.fill_day_80
    assert result.total_gib > 1000  # ~1.3 TiB of offered demand

    save_artifact("fig2", mod.render(result))
