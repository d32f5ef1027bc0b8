"""Unit-scale tests for the advisor feedback-loop experiment."""

import pytest

from repro.experiments import ext_advisor_loop
from repro.sim.parallel import RunSpec


class TestAdvisorLoop:
    @pytest.fixture(scope="class")
    def result(self):
        return ext_advisor_loop.execute(
            RunSpec("ext-advisor", params={"capacity_gib": 20}, seed=5, horizon_days=100.0),
        )

    def test_all_strategies_scored(self, result):
        assert set(result.per_strategy) == {
            "static-0.4", "static-0.7", "static-1.0", "adaptive"
        }
        for stats in result.per_strategy.values():
            assert 0.0 <= stats["admission_rate"] <= 1.0
            assert stats["offered"] > 0

    def test_static_admission_orders_by_importance(self, result):
        rates = [
            result.per_strategy[f"static-{p}"]["admission_rate"]
            for p in ("0.4", "0.7", "1.0")
        ]
        assert rates == sorted(rates)

    def test_adaptive_beats_timid_and_spends_less_than_paranoid(self, result):
        adaptive = result.per_strategy["adaptive"]
        assert (
            adaptive["admission_rate"]
            > result.per_strategy["static-0.4"]["admission_rate"]
        )
        assert adaptive["mean_importance"] < 1.0

    def test_render(self, result):
        rendered = ext_advisor_loop.render(result)
        assert "feedback loop" in rendered
        assert "adaptive" in rendered
