"""Unit tests for the run-spec API and the parallel sweep executor."""

import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.errors import ReproError
from repro.sim.parallel import (
    ObsOptions,
    RunSpec,
    execute_spec,
    expand_sweep,
    run_specs,
    seed_for,
)


class TestRunSpec:
    def test_params_normalise_to_sorted_tuple(self):
        from_mapping = RunSpec("fig6", params={"b": 2, "a": 1})
        from_pairs = RunSpec("fig6", params=(("a", 1), ("b", 2)))
        assert from_mapping == from_pairs
        assert from_mapping.params == (("a", 1), ("b", 2))
        assert hash(from_mapping) == hash(from_pairs)

    def test_duplicate_param_names_rejected(self):
        with pytest.raises(ReproError, match="duplicate"):
            RunSpec("fig6", params=(("a", 1), ("a", 2)))

    def test_empty_experiment_rejected(self):
        with pytest.raises(ReproError, match="non-empty"):
            RunSpec("")

    def test_negative_replica_rejected(self):
        with pytest.raises(ReproError, match="replica"):
            RunSpec("fig6", replica=-1)

    def test_round_trips_through_pickle(self):
        spec = RunSpec(
            "sec53",
            params={"scale": 0.05},
            seed=7,
            horizon_days=100.0,
            replica=3,
            obs=ObsOptions(metrics=True, scrape_interval_days=2.0),
        )
        assert pickle.loads(pickle.dumps(spec)) == spec

    def test_param_lookup(self):
        spec = RunSpec("fig6", params={"capacity_gib": 40})
        assert spec.param("capacity_gib") == 40
        assert spec.param("missing", "default") == "default"

    def test_call_kwargs_carries_params_seed_and_horizon(self):
        spec = RunSpec("fig6", params={"capacity_gib": 40}, seed=9, horizon_days=30.0)
        assert spec.call_kwargs() == {
            "capacity_gib": 40,
            "seed": 9,
            "horizon_days": 30.0,
        }

    def test_call_kwargs_omits_unset_horizon_and_optional_fields(self):
        spec = RunSpec("fig8", seed=5)
        assert spec.call_kwargs() == {"seed": 5}
        assert spec.call_kwargs(seed=False, horizon=False) == {}

    def test_slug_is_filesystem_safe_and_descriptive(self):
        spec = RunSpec(
            "fig6", params={"capacity_gib": 40}, horizon_days=30.0, replica=2
        )
        assert spec.slug() == "fig6-capacity_gib=40-h=30-r2"
        messy = RunSpec("fig6", params={"caps": (80, 120)})
        assert "/" not in messy.slug() and " " not in messy.slug()

    def test_with_overrides_renormalises(self):
        spec = RunSpec("fig6", seed=1)
        changed = spec.with_overrides(seed=2, params={"b": 2, "a": 1})
        assert changed.seed == 2
        assert changed.params == (("a", 1), ("b", 2))
        assert spec.seed == 1  # original untouched


class TestSeedFor:
    def test_replica_zero_returns_base_seed(self):
        assert seed_for(RunSpec("fig6", seed=42)) == 42
        assert seed_for(RunSpec("fig6", seed=0)) == 0

    def test_replicas_derive_distinct_stable_seeds(self):
        seeds = [seed_for(RunSpec("fig6", seed=42, replica=r)) for r in range(6)]
        assert len(set(seeds)) == 6
        again = [seed_for(RunSpec("fig6", seed=42, replica=r)) for r in range(6)]
        assert seeds == again  # no process-global state involved

    def test_derived_seed_depends_on_experiment_name(self):
        a = seed_for(RunSpec("fig6", seed=42, replica=1))
        b = seed_for(RunSpec("sec53", seed=42, replica=1))
        assert a != b

    def test_derived_seeds_are_63_bit_non_negative(self):
        for replica in range(1, 20):
            value = seed_for(RunSpec("fig6", seed=42, replica=replica))
            assert 0 <= value < 2**63


class TestExpandSweep:
    def test_grid_cross_product_in_sorted_key_order(self):
        specs = expand_sweep("fig6", grid={"b": [1, 2], "a": ["x"]})
        assert [s.params for s in specs] == [
            (("a", "x"), ("b", 1)),
            (("a", "x"), ("b", 2)),
        ]

    def test_seed_replicas_are_innermost(self):
        specs = expand_sweep("fig6", grid={"c": [1, 2]}, seeds=2, base_seed=5)
        assert [(s.param("c"), s.replica) for s in specs] == [
            (1, 0), (1, 1), (2, 0), (2, 1),
        ]
        assert all(s.seed == 5 for s in specs)

    def test_no_grid_yields_seed_replicas_only(self):
        specs = expand_sweep("fig8", seeds=3)
        assert [s.replica for s in specs] == [0, 1, 2]
        assert all(s.params == () for s in specs)

    def test_empty_value_list_rejected(self):
        with pytest.raises(ReproError, match="no values"):
            expand_sweep("fig6", grid={"a": []})

    def test_seeds_below_one_rejected(self):
        with pytest.raises(ReproError, match="seeds"):
            expand_sweep("fig6", seeds=0)

    def test_horizon_and_obs_propagate(self):
        obs = ObsOptions(metrics=True)
        specs = expand_sweep("fig6", horizon_days=30.0, obs=obs)
        assert specs[0].horizon_days == 30.0
        assert specs[0].obs == obs


class TestExecuteSpec:
    def test_success_outcome_carries_rendered_and_rows(self):
        outcome = execute_spec(RunSpec("table1"))
        assert outcome.ok
        assert outcome.error is None
        assert "Table 1" in outcome.rendered
        assert outcome.headers == ("term", "begin_doy", "t_persist", "t_wane_days")
        assert len(outcome.rows) > 0
        assert outcome.telemetry is None  # obs off by default
        assert outcome.wall_seconds >= 0.0

    def test_unknown_experiment_becomes_structured_error(self):
        outcome = execute_spec(RunSpec("nope"))
        assert not outcome.ok
        assert outcome.error.exc_type == "ReproError"
        assert "nope" in outcome.error.message
        assert "Traceback" in outcome.error.traceback

    def test_obs_spec_ships_telemetry_and_leaves_state_disabled(self):
        from repro import obs

        spec = RunSpec(
            "fig6",
            horizon_days=5.0,
            obs=ObsOptions(metrics=True, trace=True, scrape_interval_days=1.0),
        )
        outcome = execute_spec(spec)
        assert outcome.ok
        telemetry = outcome.telemetry
        assert telemetry["experiment"] == "fig6"
        assert "engine_events_total" in telemetry["metrics"]
        assert telemetry["spans"]["engine.run"]["count"] >= 1.0
        assert telemetry["timeseries"]["scrape_count"] >= 2
        assert not obs.is_enabled()

    def test_outcome_is_picklable(self):
        outcome = execute_spec(RunSpec("table1"))
        assert pickle.loads(pickle.dumps(outcome)).rendered == outcome.rendered


class TestRunSpecs:
    def test_jobs_below_one_rejected(self):
        with pytest.raises(ReproError, match="jobs"):
            run_specs([RunSpec("table1")], jobs=0)

    def test_inline_preserves_submission_order(self):
        specs = [RunSpec("table1"), RunSpec("fig8")]
        outcomes = run_specs(specs, jobs=1)
        assert [o.spec.experiment for o in outcomes] == ["table1", "fig8"]
        assert all(o.ok for o in outcomes)

    def test_on_outcome_fires_per_spec(self):
        seen = []
        run_specs([RunSpec("table1"), RunSpec("fig8")], jobs=1, on_outcome=seen.append)
        assert [o.spec.experiment for o in seen] == ["table1", "fig8"]

    def test_inline_failure_does_not_stop_later_specs(self):
        outcomes = run_specs([RunSpec("nope"), RunSpec("table1")], jobs=1)
        assert [o.ok for o in outcomes] == [False, True]

    def test_pool_matches_inline_and_captures_failures(self):
        specs = [RunSpec("table1"), RunSpec("nope"), RunSpec("fig8")]
        inline = run_specs(specs, jobs=1)
        pooled = run_specs(specs, jobs=2)
        assert [o.spec for o in pooled] == specs  # submission order kept
        assert [o.ok for o in pooled] == [True, False, True]
        assert [o.rendered for o in pooled] == [o.rendered for o in inline]
        assert pooled[1].error.exc_type == "ReproError"


class TestBrokenPool:
    def test_unguarded_script_is_told_about_the_main_guard(self, tmp_path):
        # Spawn workers re-import the main module; without a guard each
        # one re-runs the script, dies starting its own pool, and the
        # parent sees BrokenProcessPool.  The error must say why.
        script = tmp_path / "unguarded.py"
        script.write_text(
            "from repro.serve.loadgen import LoadGenSpec, run_loadgen\n"
            "spec = LoadGenSpec(shards=2, nodes=2, horizon_days=5.0, "
            "scale=0.005, max_requests=20)\n"
            "run_loadgen(spec, jobs=2)\n"
        )
        src = str(Path(repro.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p
        )
        proc = subprocess.run(
            [sys.executable, str(script)],
            cwd=tmp_path,
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode != 0
        last = proc.stderr.strip().splitlines()[-1]
        assert "BrokenProcessPool" in last
        assert 'if __name__ == "__main__":' in last
