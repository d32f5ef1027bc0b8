"""Bench: Figure 8 — lecture downloads per day (synthetic trace)."""

from benchmarks.conftest import run_once
from repro.experiments import fig8_downloads as mod
from repro.sim.parallel import RunSpec


def test_fig8_downloads(benchmark, save_artifact):
    result = run_once(benchmark, mod.execute, RunSpec("fig8", seed=0))

    cfg = result.config
    # The slashdot burst is the global peak ("we were briefly slash-dotted
    # during the spikes").
    assert cfg.slashdot_day <= result.peak_day < cfg.slashdot_day + cfg.slashdot_duration
    assert result.peak_downloads > 3 * result.mean_in_term

    # Demand tails off after the end of the semester.
    assert result.mean_after_term < result.mean_in_term / 2

    # Exam review windows carry more demand than quiet mid-term days.
    trace = dict(result.trace)
    exam = cfg.exam_days[-1]
    assert trace[exam] > trace[exam - 7]

    save_artifact("fig8", mod.render(result))
