"""Tests for the command-line interface."""

import json

import pytest

from repro import obs
from repro.cli import EXPERIMENTS, build_parser, main


class TestParser:
    def test_list_command(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in EXPERIMENTS:
            assert name in out

    def test_run_requires_known_experiment(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "fig99"])

    def test_missing_command_errors(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestRun:
    def test_run_table1(self, capsys):
        assert main(["run", "table1"]) == 0
        out = capsys.readouterr().out
        assert "== table1 ==" in out
        assert "120 - today" in out

    def test_run_fig8_with_csv(self, tmp_path, capsys):
        csv_path = tmp_path / "fig8.csv"
        assert main(["run", "fig8", "--csv", str(csv_path)]) == 0
        assert csv_path.exists()
        header = csv_path.read_text().splitlines()[0]
        assert header == "day,downloads"
        assert "csv written" in capsys.readouterr().out

    def test_run_fig2_short_horizon(self, capsys):
        assert main(["run", "fig2", "--horizon-days", "30", "--seed", "5"]) == 0
        assert "Figure 2" in capsys.readouterr().out

    def test_run_ext_mixed(self, capsys):
        assert main(["run", "ext-mixed", "--horizon-days", "90"]) == 0
        out = capsys.readouterr().out
        assert "archiver" in out and "cache" in out

    def test_run_ext_churn_with_csv(self, tmp_path, capsys):
        csv_path = tmp_path / "churn.csv"
        assert main([
            "run", "ext-churn", "--horizon-days", "90", "--csv", str(csv_path)
        ]) == 0
        assert csv_path.exists()
        assert "lost to departures" in capsys.readouterr().out

    def test_ext_experiments_are_listed(self, capsys):
        main(["list"])
        out = capsys.readouterr().out
        for name in ("ext-mixed", "ext-churn", "ext-refresh"):
            assert name in out


class TestObservability:
    """The --metrics-out / --trace / --log-* flags (acceptance criteria)."""

    @pytest.fixture(autouse=True)
    def _fresh_obs(self):
        obs.reset()
        yield
        obs.reset()

    def test_fig6_metrics_export_schema(self, tmp_path, capsys):
        out_path = tmp_path / "m.json"
        assert main([
            "run", "fig6", "--horizon-days", "60",
            "--metrics-out", str(out_path), "--trace",
        ]) == 0
        payload = json.loads(out_path.read_text())
        assert payload["experiment"] == "fig6"
        metrics = payload["metrics"]
        # Engine event counts.
        events = metrics["engine_events_total"]
        assert events["type"] == "counter"
        labels = {s["labels"]["label"] for s in events["series"]}
        assert "arrival" in labels and "density-probe" in labels
        # Store admission/eviction counters.
        admissions = metrics["store_admissions_total"]
        assert any(s["value"] > 0 for s in admissions["series"])
        evictions = metrics["store_evictions_total"]
        assert any(
            s["labels"]["reason"] == "preempted" and s["value"] > 0
            for s in evictions["series"]
        )
        # At least one histogram, including the preemption depth.
        depth = metrics["store_preemption_depth"]
        assert depth["type"] == "histogram"
        assert any(s["count"] > 0 for s in depth["series"])
        # --trace adds span aggregates.
        assert payload["spans"]["engine.run"]["count"] >= 1.0
        out = capsys.readouterr().out
        assert "Metrics summary" in out
        assert "span aggregates" in out
        assert "metrics written" in out

    def test_prometheus_text_export(self, tmp_path):
        out_path = tmp_path / "m.prom"
        assert main([
            "run", "fig6", "--horizon-days", "10", "--metrics-out", str(out_path),
        ]) == 0
        text = out_path.read_text()
        assert "# TYPE engine_events_total counter" in text
        assert 'engine_events_total{label="arrival"}' in text
        assert "# TYPE store_preemption_depth histogram" in text

    def test_log_file_collects_jsonl(self, tmp_path):
        log_path = tmp_path / "events.jsonl"
        assert main([
            "run", "fig6", "--horizon-days", "10",
            "--log-level", "info", "--log-file", str(log_path),
        ]) == 0
        records = [json.loads(line) for line in log_path.read_text().splitlines()]
        assert any(r["event"] == "run-start" for r in records)
        assert any(r["event"] == "run-end" for r in records)
        assert all("component" in r and "level" in r for r in records)

    def test_obs_flags_leave_state_disabled_afterwards(self, tmp_path):
        assert main([
            "run", "fig6", "--horizon-days", "10",
            "--metrics-out", str(tmp_path / "m.json"),
        ]) == 0
        assert not obs.is_enabled()

    def test_without_flags_obs_stays_off(self, capsys):
        assert main(["run", "fig6", "--horizon-days", "10"]) == 0
        assert len(obs.STATE.registry) == 0
        assert "Metrics summary" not in capsys.readouterr().out


def _stub_experiment(args):
    """Instant experiment used to exercise 'run all' plumbing."""
    from repro import obs

    if obs.is_enabled():
        obs.STATE.registry.counter("stub_runs_total", "Stub runs.").inc()
        if obs.STATE.timeseries is not None:
            obs.STATE.timeseries.maybe_scrape(0.0)
    return None, "stub output", [("col",), [(1,)]]


class TestRunAllMetrics:
    """'run all' writes one metrics file per experiment (suffixed paths)."""

    @pytest.fixture(autouse=True)
    def _fresh_obs(self):
        obs.reset()
        yield
        obs.reset()

    @pytest.fixture(autouse=True)
    def _stub_experiments(self, monkeypatch):
        monkeypatch.setattr(
            "repro.cli.EXPERIMENTS",
            {"stub-a": _stub_experiment, "stub-b": _stub_experiment},
        )

    def test_one_json_per_experiment(self, tmp_path, capsys):
        base = tmp_path / "metrics.json"
        assert main(["run", "all", "--metrics-out", str(base)]) == 0
        for name in ("stub-a", "stub-b"):
            path = tmp_path / f"metrics-{name}.json"
            assert path.exists(), name
            payload = json.loads(path.read_text())
            assert payload["experiment"] == name
            # Registries are reset between experiments: exactly one stub run.
            assert payload["metrics"]["stub_runs_total"]["series"][0]["value"] == 1.0
        assert not base.exists()  # only the suffixed files are written
        assert capsys.readouterr().out.count("metrics written") == 2

    def test_one_prom_per_experiment(self, tmp_path):
        base = tmp_path / "metrics.prom"
        assert main(["run", "all", "--metrics-out", str(base)]) == 0
        for name in ("stub-a", "stub-b"):
            text = (tmp_path / f"metrics-{name}.prom").read_text()
            assert "# TYPE stub_runs_total counter" in text

    def test_single_experiment_keeps_exact_path(self, tmp_path):
        base = tmp_path / "metrics.json"
        assert main(["run", "stub-a", "--metrics-out", str(base)]) == 0
        assert base.exists()


class TestDashboard:
    """--dashboard-out and the dashboard subcommand (acceptance criteria)."""

    @pytest.fixture(autouse=True)
    def _fresh_obs(self):
        obs.reset()
        yield
        obs.reset()

    def test_run_writes_self_contained_dashboard(self, tmp_path, capsys):
        dash = tmp_path / "dash.html"
        assert main([
            "run", "fig6", "--horizon-days", "60", "--dashboard-out", str(dash),
        ]) == 0
        html = dash.read_text()
        assert html.startswith("<!DOCTYPE html>")
        assert "http://" not in html and "https://" not in html
        assert "== fig6 ==" in html
        assert "Density over time" in html
        assert "Per-unit occupancy" in html
        assert "store_evictions_total" in html
        assert "dashboard written" in capsys.readouterr().out
        assert not obs.is_enabled()

    def test_scrape_interval_flag_sets_cadence(self, tmp_path):
        out_path = tmp_path / "m.json"
        assert main([
            "run", "fig6", "--horizon-days", "60",
            "--metrics-out", str(out_path),
            "--dashboard-out", str(tmp_path / "d.html"),
            "--scrape-interval-days", "10",
        ]) == 0
        payload = json.loads(out_path.read_text())
        ts = payload["timeseries"]
        assert ts["interval_minutes"] == 10 * 1440.0
        assert ts["scrape_count"] >= 2
        assert payload["profile"]["engine.step"]["count"] >= 1.0

    def test_dashboard_subcommand_rebuilds_from_run_dir(self, tmp_path, capsys):
        out_path = tmp_path / "m.json"
        assert main([
            "run", "fig6", "--horizon-days", "30",
            "--metrics-out", str(out_path),
        ]) == 0
        assert main(["dashboard", str(tmp_path)]) == 0
        html = (tmp_path / "dashboard.html").read_text()
        assert "== m ==" in html or "== fig6 ==" in html
        assert "Histogram percentiles" in html
        assert "dashboard written" in capsys.readouterr().out

    def test_dashboard_subcommand_accepts_single_file(self, tmp_path):
        out_path = tmp_path / "m.json"
        assert main([
            "run", "fig6", "--horizon-days", "30",
            "--metrics-out", str(out_path),
        ]) == 0
        assert main(["dashboard", str(out_path)]) == 0
        assert (tmp_path / "m.html").exists()

    def test_dashboard_subcommand_rejects_missing_path(self, tmp_path, capsys):
        assert main(["dashboard", str(tmp_path / "nope")]) == 2
        assert "not a file or directory" in capsys.readouterr().err

    def test_dashboard_subcommand_rejects_dir_without_payloads(self, tmp_path, capsys):
        (tmp_path / "notes.json").write_text('{"no_metrics": true}')
        assert main(["dashboard", str(tmp_path)]) == 2
        assert "no metrics JSON payloads" in capsys.readouterr().err

    def test_metrics_summary_gains_trend_column(self, tmp_path, capsys):
        assert main([
            "run", "fig6", "--horizon-days", "60",
            "--metrics-out", str(tmp_path / "m.json"),
        ]) == 0
        out = capsys.readouterr().out
        assert "trend" in out
        assert "p95=" in out


class TestParallelRun:
    def test_run_with_jobs_flag_matches_serial_stdout(self, capsys):
        assert main(["run", "table1"]) == 0
        serial = capsys.readouterr().out
        assert main(["run", "table1", "--jobs", "2"]) == 0
        parallel = capsys.readouterr().out
        assert parallel == serial

    def test_parallel_failure_reports_and_exits_nonzero(self, capsys):
        # fig7 needs its full default horizon to cross the density band; a
        # 5-day run fails fast — the parallel path must capture it as a
        # structured per-spec failure, not a traceback-and-abort.
        code = main(["run", "fig7", "--horizon-days", "5", "--jobs", "2"])
        captured = capsys.readouterr()
        assert code == 1
        assert "[fig7 failed" in captured.err
        assert "RuntimeError" in captured.err

    def test_parallel_metrics_merge_across_specs(self, tmp_path, capsys):
        out = tmp_path / "metrics.json"
        code = main(
            ["sweep", "fig6", "--seeds", "2", "--horizon-days", "5",
             "--jobs", "2", "--metrics-out", str(out)]
        )
        stdout = capsys.readouterr().out
        assert code == 0
        names = {p.name for p in tmp_path.iterdir()}
        assert "metrics-fig6-h=5.json" in names
        assert "metrics-fig6-h=5-r1.json" in names
        assert "metrics-merged.json" in names
        assert "== merged (all specs) ==" in stdout
        merged = json.loads((tmp_path / "metrics-merged.json").read_text())
        per_spec = json.loads((tmp_path / "metrics-fig6-h=5.json").read_text())
        # Merged counters fold both replicas' work together.
        merged_events = merged["metrics"]["engine_events_total"]["series"]
        spec_events = per_spec["metrics"]["engine_events_total"]["series"]
        total = lambda series: sum(row["value"] for row in series)  # noqa: E731
        assert total(merged_events) > total(spec_events)


class TestSweep:
    def test_sweep_writes_per_spec_csv_artifacts(self, tmp_path, capsys):
        csv_base = tmp_path / "sweep.csv"
        code = main(
            ["sweep", "fig8", "--seeds", "2", "--jobs", "2", "--csv", str(csv_base)]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert (tmp_path / "sweep-fig8.csv").exists()
        assert (tmp_path / "sweep-fig8-r1.csv").exists()
        assert "== fig8 ==" in out
        assert "== fig8-r1 ==" in out

    def test_sweep_param_grid_reaches_experiment_kwargs(self, capsys):
        # ``A:B`` coerces to a tuple, matching tuple-typed experiment
        # parameters like fig6's capacity list.
        code = main(
            ["sweep", "fig6", "--param", "capacities_gib=40:80",
             "--horizon-days", "5", "--seed", "3"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "capacities_gib=" in out  # spec slug names the swept param
        assert "40 GiB" in out and "80 GiB" in out  # both capacities simulated

    def test_sweep_rejects_malformed_param(self, capsys):
        assert main(["sweep", "fig6", "--param", "oops"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_sweep_rejects_duplicate_param(self, capsys):
        code = main(
            ["sweep", "fig6", "--param", "a=1", "--param", "a=2"]
        )
        assert code == 2
        assert "duplicate" in capsys.readouterr().err


class TestTraceExport:
    """--trace-out artifacts and the flamegraph subcommand."""

    @pytest.fixture(autouse=True)
    def _fresh_obs(self):
        obs.reset()
        yield
        obs.reset()

    def test_run_writes_trace_shard(self, tmp_path, capsys):
        from repro.obs.traceexport import TraceArchive, is_trace_file

        trace = tmp_path / "trace.jsonl"
        code = main(
            ["run", "fig6", "--horizon-days", "20", "--trace-out", str(trace)]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "trace shard written" in out
        assert is_trace_file(str(trace))
        archive = TraceArchive.read_jsonl(str(trace))
        assert len(archive) > 0
        labels = {r.label for r in archive.records}
        assert "spec.fig6" in labels and "engine.run" in labels
        assert not obs.is_enabled()

    def test_sweep_writes_per_spec_and_merged_shards(self, tmp_path, capsys):
        from repro.obs.traceexport import TraceArchive

        code = main(
            [
                "sweep", "fig6", "--seeds", "2", "--horizon-days", "10",
                "--jobs", "2", "--trace-out", str(tmp_path / "trace.jsonl"),
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "critical path" in out
        assert "straggler" in out
        shards = sorted(p.name for p in tmp_path.glob("*.jsonl"))
        assert "trace-merged.jsonl" in shards
        assert len(shards) == 3  # two per-spec shards + the merged fold
        merged = TraceArchive.read_jsonl(str(tmp_path / "trace-merged.jsonl"))
        assert len(merged.shards()) == 2
        # Every span of a sweep carries the shared sweep-level trace id.
        assert len({r.trace_id for r in merged.records}) == 1

    def test_flamegraph_subcommand_builds_html(self, tmp_path, capsys):
        code = main(
            [
                "sweep", "fig6", "--seeds", "2", "--horizon-days", "10",
                "--jobs", "2", "--trace-out", str(tmp_path / "trace.jsonl"),
            ]
        )
        assert code == 0
        capsys.readouterr()
        assert main(["flamegraph", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "critical path" in out
        assert "flamegraph written" in out
        html = (tmp_path / "flamegraph.html").read_text()
        assert html.startswith("<!DOCTYPE html>")
        assert "worker.run" in html

    def test_flamegraph_subcommand_accepts_single_shard(self, tmp_path, capsys):
        trace = tmp_path / "trace.jsonl"
        assert main(
            ["run", "fig6", "--horizon-days", "10", "--trace-out", str(trace)]
        ) == 0
        capsys.readouterr()
        assert main(["flamegraph", str(trace), "--out", str(tmp_path / "x.html")]) == 0
        assert (tmp_path / "x.html").exists()

    def test_flamegraph_subcommand_rejects_traceless_dir(self, tmp_path, capsys):
        (tmp_path / "other.jsonl").write_text('{"kind": "audit-header"}\n')
        assert main(["flamegraph", str(tmp_path)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_metrics_export_strips_trace_but_keeps_drop_counter(
        self, tmp_path, capsys
    ):
        metrics = tmp_path / "m.json"
        trace = tmp_path / "t.jsonl"
        assert main(
            [
                "run", "fig6", "--horizon-days", "10",
                "--metrics-out", str(metrics), "--trace-out", str(trace),
            ]
        ) == 0
        capsys.readouterr()
        payload = json.loads(metrics.read_text())
        # The span records live in the JSONL shard; the metrics JSON
        # stays lean but still surfaces the loss counter.
        assert "trace" not in payload
        assert payload["spans_dropped"] == 0
