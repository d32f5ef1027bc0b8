"""Command-line interface: run any experiment from the shell.

Usage::

    repro-sim list
    repro-sim run fig3 [--horizon-days 365] [--seed 42] [--csv out.csv]
    repro-sim run fig6 --metrics-out m.json --trace
    repro-sim run all --jobs 4
    repro-sim sweep fig6 --param capacities_gib=40:80,80:120 --seeds 3 --jobs 4

Each experiment prints the same tables/ASCII charts its driver renders;
``--csv`` additionally dumps the primary series for external plotting.

Every run is described by a :class:`repro.sim.parallel.RunSpec`; the
``EXPERIMENTS`` handlers adapt parsed arguments into specs and dispatch
through :mod:`repro.experiments.registry`.  ``--jobs N`` executes specs
in worker processes (``repro.sim.parallel.run_specs``): each worker
rebuilds a fresh observability STATE, runs its spec, and ships back a
picklable outcome — so artifacts are byte-identical to a serial run and
telemetry still lands in ``--metrics-out`` / the dashboard.  ``sweep``
cross-products ``--param NAME=V1,V2,...`` grids with ``--seeds N``
replicas into one spec per point.

Observability (see ``docs/observability.md``): ``--metrics-out FILE``
exports the :mod:`repro.obs` metrics registry after each experiment
(JSON, or Prometheus text for ``.prom`` files), ``--trace`` prints span
timings, and ``--log-level``/``--log-file`` emit structured JSONL events
(to stderr when no file is given).  ``--dashboard-out FILE`` installs a
time-series collector (scrape cadence ``--scrape-interval-days``) and
writes one self-contained HTML dashboard over every experiment run.  Any
of these flags enables the instrumentation layer; without them it is
entirely off.  ``repro-sim dashboard <run-dir>`` rebuilds a dashboard
later from the ``--metrics-out`` JSON files of a previous run.

Decision provenance and SLO alerts: ``--audit-out FILE`` records every
admit/reject/evict/expire/refresh decision (with the exact thresholds
compared) into a JSONL ledger — ``--audit-sample`` bounds its overhead —
and ``repro-sim explain <ledger-or-dir> <object-id>`` reconstructs one
object's timeline from it.  ``--alerts FILE`` evaluates declarative SLO
rules at every scrape; ``repro-sim alerts <run-dir> [--check]`` re-checks
a finished run's exports and exits 1 on violation (the CI gate).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Any, Callable

from repro.errors import ReproError
from repro.experiments.registry import names as _registry_names
from repro.report.csvout import write_csv
from repro.sim.parallel import (
    ObsOptions,
    RunOutcome,
    RunSpec,
    expand_sweep,
    run_specs,
)

__all__ = ["main", "EXPERIMENTS"]


def _spec_from_args(
    name: str, args: argparse.Namespace, *, obs: ObsOptions | None = None
) -> RunSpec:
    """Build the spec one CLI invocation describes."""
    return RunSpec(
        name,
        seed=getattr(args, "seed", 42),
        horizon_days=getattr(args, "horizon_days", None),
        obs=obs or ObsOptions(),
    )


def _make_handler(name: str) -> Callable[[argparse.Namespace], tuple[Any, str, list]]:
    """One ``handler(args) -> (result, rendered, [headers, rows])`` adapter.

    The handler contract predates the spec API and is kept stable —
    tests (and any external callers) invoke and monkeypatch these — but
    every handler is now a thin shim over the registry dispatch.
    """

    def handler(args: argparse.Namespace) -> tuple[Any, str, list]:
        from repro.experiments import registry

        return registry.run_cli(_spec_from_args(name, args))

    handler.__name__ = "_" + name.replace("-", "_")
    handler.__doc__ = f"Run {name} from parsed CLI arguments (registry shim)."
    return handler


EXPERIMENTS: dict[str, Callable[[argparse.Namespace], tuple[Any, str, list]]] = {
    name: _make_handler(name) for name in _registry_names()
}


def _add_run_flags(parser: argparse.ArgumentParser) -> None:
    """Flags shared by the ``run`` and ``sweep`` subcommands."""
    parser.add_argument(
        "--horizon-days",
        type=float,
        default=None,
        help="simulated horizon (defaults per experiment; paper scale is 5*365)",
    )
    parser.add_argument("--seed", type=int, default=42, help="workload RNG seed")
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="run specs in N worker processes (default: 1, inline)",
    )
    parser.add_argument(
        "--csv", type=str, default=None, help="also write the primary series to CSV"
    )
    parser.add_argument(
        "--metrics-out",
        type=str,
        default=None,
        metavar="FILE",
        help="export the metrics registry per experiment (JSON; .prom for "
        "Prometheus text)",
    )
    parser.add_argument(
        "--trace",
        action="store_true",
        help="record wall-clock spans and print them after each experiment",
    )
    parser.add_argument(
        "--trace-out",
        type=str,
        default=None,
        metavar="FILE",
        help="stream completed spans to a JSONL trace shard per spec (plus a "
        "-merged shard for multi-spec runs); feed the files (or their "
        "directory) to 'repro-sim flamegraph'",
    )
    parser.add_argument(
        "--dashboard-out",
        type=str,
        default=None,
        metavar="FILE",
        help="write a self-contained HTML dashboard (implies metrics + "
        "time-series collection)",
    )
    parser.add_argument(
        "--scrape-interval-days",
        type=float,
        default=1.0,
        metavar="DAYS",
        help="sim-time cadence for time-series scrapes (default: 1 day)",
    )
    parser.add_argument(
        "--audit-out",
        type=str,
        default=None,
        metavar="FILE",
        help="write the decision-provenance ledger as JSONL (per experiment, "
        "plus a -merged ledger for multi-spec runs); keep 'audit' in the "
        "filename so 'repro-sim explain' can discover it",
    )
    parser.add_argument(
        "--audit-sample",
        type=float,
        default=1.0,
        metavar="RATE",
        help="fraction of object ids audited, deterministic per id so "
        "sampled objects keep complete timelines (default: 1.0)",
    )
    parser.add_argument(
        "--alerts",
        dest="alert_rules",
        type=str,
        default=None,
        metavar="FILE",
        help="evaluate SLO alert rules from FILE at every scrape (JSON "
        "mapping or flat 'name: expr' lines)",
    )
    parser.add_argument(
        "--log-level",
        choices=["debug", "info", "warning", "error"],
        default=None,
        help="emit structured JSONL events at this level (default: off)",
    )
    parser.add_argument(
        "--log-file",
        type=str,
        default=None,
        metavar="FILE",
        help="append JSONL events to FILE (default: stderr; implies "
        "--log-level info)",
    )


def _add_serve_flags(parser: argparse.ArgumentParser) -> None:
    """Shared flags of the ``serve`` and ``loadgen`` subcommands."""
    parser.add_argument(
        "--workload",
        choices=["university", "downloads", "diurnal", "flashcrowd"],
        default="university",
        help="arrival stream replayed as request traffic; flashcrowd adds a "
        "hot-key burst aimed at one shard's keyspace (default: university)",
    )
    parser.add_argument(
        "--shards",
        type=int,
        default=1,
        metavar="N",
        help="gateway shards fronting the cluster; >1 routes requests "
        "deterministically and serves each shard separately (default: 1)",
    )
    parser.add_argument(
        "--spill",
        choices=["overflow", "never"],
        default="overflow",
        help="route past a saturated home shard to the least-loaded shard "
        "(overflow) or always home (never) (default: overflow)",
    )
    parser.add_argument(
        "--high-water",
        type=int,
        default=64,
        metavar="N",
        help="offered-load mark (requests in window) at which the home "
        "shard spills (default: 64)",
    )
    parser.add_argument(
        "--window-minutes",
        type=float,
        default=1440.0,
        metavar="MIN",
        help="sliding offered-load window, simulated minutes (default: 1440)",
    )
    parser.add_argument(
        "--no-coalesce",
        action="store_true",
        help="disable same-(principal, object) write coalescing per "
        "admission round",
    )
    parser.add_argument(
        "--hot-objects",
        type=int,
        default=8,
        metavar="N",
        help="flashcrowd: distinct hot object ids in the burst (default: 8)",
    )
    parser.add_argument(
        "--burst-factor",
        type=float,
        default=2.0,
        metavar="F",
        help="flashcrowd: burst volume as a multiple of the base stream "
        "(default: 2.0)",
    )
    parser.add_argument(
        "--target-shard",
        type=int,
        default=0,
        metavar="K",
        help="flashcrowd: shard whose keyspace the burst aims at (default: 0)",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="shard workers executed concurrently when --shards > 1; "
        "never affects outcomes (default: 1)",
    )
    parser.add_argument(
        "--nodes",
        type=int,
        default=4,
        metavar="N",
        help="Besteffs cluster size; 1 serves a single StorageUnit (default: 4)",
    )
    parser.add_argument(
        "--node-capacity-gib",
        type=float,
        default=2.0,
        metavar="GIB",
        help="capacity per node (default: 2.0)",
    )
    parser.add_argument(
        "--horizon-days",
        type=float,
        default=30.0,
        metavar="DAYS",
        help="simulated horizon replayed (default: 30)",
    )
    parser.add_argument("--seed", type=int, default=42, help="workload/placement seed")
    parser.add_argument(
        "--scale",
        type=float,
        default=0.01,
        metavar="F",
        help="university catalogue scale factor (default: 0.01)",
    )
    parser.add_argument(
        "--queue-size",
        type=int,
        default=256,
        metavar="N",
        help="bounded admission queue; beyond it requests shed (default: 256)",
    )
    parser.add_argument(
        "--batch-max",
        type=int,
        default=32,
        metavar="N",
        help="requests coalesced per placement round (default: 32)",
    )
    parser.add_argument(
        "--rate-per-minute",
        type=float,
        default=0.0,
        metavar="R",
        help="per-principal token-bucket rate in requests per simulated "
        "minute; 0 disables (default: 0)",
    )
    parser.add_argument(
        "--rate-burst",
        type=float,
        default=8.0,
        metavar="B",
        help="token-bucket burst capacity (default: 8)",
    )
    parser.add_argument(
        "--deadline-minutes",
        type=float,
        default=None,
        metavar="MIN",
        help="relative deadline stamped on every request; queued requests "
        "past it expire unadmitted (default: none)",
    )
    parser.add_argument(
        "--open-burst",
        type=int,
        default=16,
        metavar="N",
        help="open-loop requests submitted per scheduler tick (default: 16)",
    )
    parser.add_argument(
        "--max-requests",
        type=int,
        default=None,
        metavar="N",
        help="cap on replayed requests (default: the whole horizon)",
    )
    parser.add_argument(
        "--budget-gib-days",
        type=float,
        default=450.0,
        metavar="G",
        help="fair-share budget per principal per period, GiB-days of "
        "importance (default: 450)",
    )
    parser.add_argument(
        "--period-days",
        type=float,
        default=30.0,
        metavar="DAYS",
        help="fair-share accounting period (default: 30)",
    )
    parser.add_argument(
        "--metrics-out",
        type=str,
        default=None,
        metavar="FILE",
        help="write the run's obs metrics as JSON (or .prom text)",
    )
    parser.add_argument(
        "--ledger-out",
        type=str,
        default=None,
        metavar="FILE",
        help="write the canonical request/response JSONL ledger",
    )
    parser.add_argument(
        "--alerts",
        dest="alert_rules",
        type=str,
        default=None,
        metavar="FILE",
        help="evaluate SLO alert rules against the run's metrics",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="exit 1 when any --alerts rule fails (CI gate)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-sim",
        description=(
            "Reproduce the tables and figures of 'Automated Storage Reclamation "
            "Using Temporal Importance Annotations' (ICDCS 2007)."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("list", help="list available experiments")
    run_parser = sub.add_parser("run", help="run one experiment (or 'all')")
    run_parser.add_argument("experiment", choices=[*EXPERIMENTS, "all"])
    _add_run_flags(run_parser)
    sweep_parser = sub.add_parser(
        "sweep", help="cross-product a parameter grid x seed replicas"
    )
    sweep_parser.add_argument("experiment", choices=list(EXPERIMENTS))
    sweep_parser.add_argument(
        "--param",
        action="append",
        default=None,
        metavar="NAME=V1,V2,...",
        help="sweep one driver parameter over comma-separated values "
        "(repeatable; A:B makes a tuple value, e.g. capacities_gib=80:120)",
    )
    sweep_parser.add_argument(
        "--seeds",
        type=int,
        default=1,
        metavar="N",
        help="seed replicas per grid point (replica 0 uses --seed as-is)",
    )
    _add_run_flags(sweep_parser)
    dash_parser = sub.add_parser(
        "dashboard", help="rebuild an HTML dashboard from a run's metrics JSON"
    )
    dash_parser.add_argument(
        "run_dir",
        help="directory holding --metrics-out JSON exports (or one JSON file)",
    )
    dash_parser.add_argument(
        "--out",
        type=str,
        default=None,
        metavar="FILE",
        help="output HTML path (default: <run-dir>/dashboard.html)",
    )
    flame_parser = sub.add_parser(
        "flamegraph",
        help="build a flamegraph + timeline HTML from a run's --trace-out shards",
    )
    flame_parser.add_argument(
        "run_dir",
        help="a --trace-out JSONL shard, or a run directory holding them",
    )
    flame_parser.add_argument(
        "--out",
        type=str,
        default=None,
        metavar="FILE",
        help="output HTML path (default: <run-dir>/flamegraph.html)",
    )
    flame_parser.add_argument(
        "--top",
        type=int,
        default=10,
        metavar="K",
        help="spans listed in the critical-path summary (default: 10)",
    )
    explain_parser = sub.add_parser(
        "explain",
        help="reconstruct one object's decision timeline from an audit ledger",
    )
    explain_parser.add_argument(
        "run_dir",
        help="an --audit-out JSONL ledger, or a run directory holding them",
    )
    explain_parser.add_argument(
        "object_id",
        nargs="?",
        default=None,
        help="object to explain (omit to list the most eventful objects)",
    )
    explain_parser.add_argument(
        "--limit",
        type=int,
        default=40,
        metavar="N",
        help="objects shown when listing (default: 40)",
    )
    serve_parser = sub.add_parser(
        "serve",
        help="serve one workload through the async gateway front-end "
        "(open loop, single producer)",
    )
    _add_serve_flags(serve_parser)
    loadgen_parser = sub.add_parser(
        "loadgen",
        help="drive the gateway service with concurrent client sessions "
        "(closed or open loop)",
    )
    loadgen_parser.add_argument(
        "--mode",
        choices=["closed", "open"],
        default="closed",
        help="closed: each client awaits its response before the next "
        "request; open: submit at trace pace and let backpressure shed "
        "(default: closed)",
    )
    loadgen_parser.add_argument(
        "--clients",
        type=int,
        default=8,
        metavar="N",
        help="concurrent client sessions in closed mode (default: 8)",
    )
    _add_serve_flags(loadgen_parser)
    alerts_parser = sub.add_parser(
        "alerts", help="evaluate SLO alert rules against a run's metrics exports"
    )
    alerts_parser.add_argument(
        "run_dir",
        help="directory holding --metrics-out JSON exports (or one JSON file)",
    )
    alerts_parser.add_argument(
        "--rules",
        type=str,
        default=None,
        metavar="FILE",
        help="rules file (JSON mapping or flat 'name: expr' lines; "
        "default: built-in sanity invariants)",
    )
    alerts_parser.add_argument(
        "--check",
        action="store_true",
        help="exit 1 when any rule fails (CI gate)",
    )
    return parser


def _obs_options(args: argparse.Namespace) -> ObsOptions:
    """Translate CLI flags into per-spec observability options.

    Alert rules are loaded here, in the parent process, into picklable
    ``(name, expression)`` pairs so worker processes never touch the
    rules file (and a bad file fails fast, before any work is done).
    """
    requested = bool(
        args.metrics_out
        or args.trace
        or args.trace_out
        or args.log_level
        or args.log_file
        or args.dashboard_out
        or args.audit_out
        or args.alert_rules
    )
    if not requested:
        return ObsOptions()
    alert_pairs: tuple[tuple[str, str], ...] = ()
    if args.alert_rules:
        from repro.obs.alerts import load_rules

        alert_pairs = tuple((r.name, r.expr) for r in load_rules(args.alert_rules))
    return ObsOptions(
        metrics=True,
        trace=bool(args.trace),
        trace_export=bool(args.trace_out),
        scrape_interval_days=args.scrape_interval_days,
        log_level=args.log_level,
        log_file=args.log_file,
        audit=bool(args.audit_out),
        audit_sample=args.audit_sample,
        alert_rules=alert_pairs,
    )


def _with_trace_id(specs: list[RunSpec]) -> list[RunSpec]:
    """Tag every spec of one invocation with the shared sweep trace id.

    The id is a pure function of the spec slugs, so ``--jobs 1`` and
    ``--jobs 4`` runs of the same sweep tag their shards identically.
    """
    if not any(spec.obs.trace_export for spec in specs):
        return specs
    from dataclasses import replace as _replace

    from repro.obs.traceexport import trace_id_for

    trace_id = trace_id_for([spec.slug() for spec in specs])
    return [
        spec.with_overrides(obs=_replace(spec.obs, trace_id=trace_id))
        for spec in specs
    ]


def _coerce_param_value(text: str) -> Any:
    """``--param`` value literal: bool/int/float/str, ``A:B`` -> tuple."""
    if ":" in text:
        return tuple(_coerce_param_value(part) for part in text.split(":"))
    lowered = text.strip().lower()
    if lowered in {"true", "false"}:
        return lowered == "true"
    for cast in (int, float):
        try:
            return cast(text)
        except ValueError:
            continue
    return text


def _parse_param_grid(entries: list[str] | None) -> dict[str, list[Any]]:
    grid: dict[str, list[Any]] = {}
    for entry in entries or ():
        name, sep, values = entry.partition("=")
        name = name.strip()
        if not sep or not name or not values:
            raise ReproError(f"--param expects NAME=V1[,V2,...], got {entry!r}")
        if name in grid:
            raise ReproError(f"duplicate --param {name!r}")
        grid[name] = [_coerce_param_value(v) for v in values.split(",")]
    return grid


def _metrics_path(base: str, name: str, multiple: bool) -> str:
    if not multiple:
        return base
    root, ext = os.path.splitext(base)
    return f"{root}-{name}{ext or '.json'}"


def _audit_path(base: str, name: str, multiple: bool) -> str:
    if not multiple:
        return base
    root, ext = os.path.splitext(base)
    return f"{root}-{name}{ext or '.jsonl'}"


def _write_audit(path: str, ledger: Any) -> None:
    """Write one audit ledger as JSONL, creating parent directories."""
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        written = ledger.write_jsonl(fh)
    note = f" ({ledger.dropped} dropped by ring buffer)" if ledger.dropped else ""
    print(f"[audit ledger written to {path}: {written} records{note}]")


def _trace_path(base: str, name: str, multiple: bool) -> str:
    if not multiple:
        return base
    root, ext = os.path.splitext(base)
    return f"{root}-{name}{ext or '.jsonl'}"


def _write_trace(path: str, archive: Any) -> None:
    """Write one trace archive as JSONL, creating parent directories."""
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    written = archive.write_jsonl(path)
    note = (
        f" ({archive.dropped_spans} spans dropped by shard bounds)"
        if archive.dropped_spans
        else ""
    )
    print(f"[trace shard written to {path}: {written} spans{note}]")


def _write_metrics_payload(path: str, payload: dict[str, Any], trace: bool) -> None:
    """Write one telemetry payload as ``--metrics-out`` JSON or .prom text."""
    from repro.obs import MetricsRegistry

    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    if path.endswith(".prom"):
        registry = MetricsRegistry.from_dict(payload["metrics"])
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(registry.to_prometheus_text())
        return
    data = dict(payload)
    if not trace:
        # Span aggregates are verbose and gated on --trace; the loss
        # counter is one integer and always travels — silent span loss
        # is exactly what it exists to surface.
        data.pop("spans", None)
    if not data.get("profile"):
        data.pop("profile", None)
    # The audit ledger and trace shards travel in their own JSONL files
    # (--audit-out / --trace-out), not inside the metrics export; alerts
    # stay — they are small and the dashboard/alerts subcommands read
    # them from here.
    data.pop("audit", None)
    data.pop("trace", None)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=2)
        fh.write("\n")


def _write_metrics(path: str, experiment: str, trace: bool) -> None:
    """Serial-path export: snapshot the live obs STATE and write it."""
    from repro import obs

    _write_metrics_payload(path, obs.export_payload(experiment), trace)


def _csv_path(base: str, label: str, multiple: bool) -> str:
    return base if not multiple else f"{base.rstrip('.csv')}-{label}.csv"


def _load_payloads(run_dir: str) -> list[dict[str, Any]]:
    """Load the ``--metrics-out`` JSON payloads of a finished run.

    ``run_dir`` is either one JSON file or a directory of them; files
    that are unreadable or not metrics exports are skipped with a note.
    Raises :class:`ReproError` when nothing usable is found.
    """
    if os.path.isfile(run_dir):
        paths = [run_dir]
    elif os.path.isdir(run_dir):
        paths = sorted(
            os.path.join(run_dir, f)
            for f in os.listdir(run_dir)
            if f.endswith(".json")
        )
    else:
        raise ReproError(f"{run_dir!r} is not a file or directory")
    payloads = []
    for path in paths:
        try:
            with open(path, encoding="utf-8") as fh:
                data = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            print(f"[skipping {path}: {exc}]", file=sys.stderr)
            continue
        if isinstance(data, dict) and "metrics" in data:
            data.setdefault(
                "experiment", os.path.splitext(os.path.basename(path))[0]
            )
            payloads.append(data)
    if not payloads:
        raise ReproError(f"no metrics JSON payloads found under {run_dir!r}")
    return payloads


def _dashboard_from_dir(run_dir: str, out: str | None) -> int:
    """The ``dashboard`` subcommand: rebuild HTML from metrics JSON files."""
    from repro.report.dashboard import write_dashboard

    try:
        payloads = _load_payloads(run_dir)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if os.path.isfile(run_dir):
        default_out = os.path.splitext(run_dir)[0] + ".html"
    else:
        default_out = os.path.join(run_dir, "dashboard.html")
    target = write_dashboard(out or default_out, payloads)
    print(f"[dashboard written to {target}]")
    return 0


def _trace_files(run_dir: str) -> list[str]:
    """Locate the ``--trace-out`` JSONL shards of a finished run.

    ``run_dir`` is either one shard or a directory of them.  When a
    directory holds a ``-merged`` artifact only that file is used — it
    already folds every per-spec shard, and loading both would double
    count every span.
    """
    from repro.obs.traceexport import is_trace_file

    if os.path.isfile(run_dir):
        paths = [run_dir]
    elif os.path.isdir(run_dir):
        candidates = sorted(
            os.path.join(run_dir, f)
            for f in os.listdir(run_dir)
            if f.endswith(".jsonl")
        )
        paths = [p for p in candidates if is_trace_file(p)]
        merged = [p for p in paths if os.path.basename(p).split(".")[0].endswith("-merged")]
        if merged:
            paths = merged
    else:
        raise ReproError(f"{run_dir!r} is not a file or directory")
    if not paths:
        raise ReproError(f"no trace JSONL shards found under {run_dir!r}")
    return paths


def _flamegraph_cmd(args: argparse.Namespace) -> int:
    """The ``flamegraph`` subcommand: trace shards -> HTML + critical path."""
    from repro.report.flamegraph import (
        critical_path,
        load_trace_archives,
        render_critical_path,
        write_flamegraph,
    )

    try:
        archive = load_trace_archives(_trace_files(args.run_dir))
    except (OSError, ReproError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if os.path.isfile(args.run_dir):
        default_out = os.path.splitext(args.run_dir)[0] + ".html"
    else:
        default_out = os.path.join(args.run_dir, "flamegraph.html")
    target = write_flamegraph(args.out or default_out, archive)
    print(render_critical_path(critical_path(archive, top_k=args.top)))
    print()
    print(f"[flamegraph written to {target}]")
    return 0


def _explain_cmd(args: argparse.Namespace) -> int:
    """The ``explain`` subcommand: one object's decision timeline."""
    from repro.report.explain import explain_object, list_objects, load_run_ledger

    try:
        ledger = load_run_ledger(args.run_dir)
        if args.object_id is None:
            print(list_objects(ledger, limit=args.limit))
        else:
            print(explain_object(ledger, args.object_id))
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


def _alerts_cmd(args: argparse.Namespace) -> int:
    """The ``alerts`` subcommand: re-check SLO rules against a run's exports.

    Per-spec payloads are merged (``-merged`` exports are skipped to avoid
    double counting) and every rule is evaluated against the merged
    registry; with ``--check`` a failing rule exits 1 — the CI gate.
    """
    from repro.obs import MetricsRegistry
    from repro.obs.alerts import DEFAULT_RULES, AlertEngine, load_rules
    from repro.report.metrics import alerts_verdict_line
    from repro.report.table import TextTable

    try:
        payloads = _load_payloads(args.run_dir)
        if args.rules:
            engine = AlertEngine(rules=load_rules(args.rules))
        else:
            engine = AlertEngine.from_pairs(DEFAULT_RULES)
    except (OSError, ReproError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    registry = MetricsRegistry()
    merged = 0
    for payload in payloads:
        if payload.get("experiment") == "merged" and len(payloads) > 1:
            continue
        registry.merge(MetricsRegistry.from_dict(payload["metrics"]))
        merged += 1
    results = engine.evaluate(registry)
    table = TextTable(
        ["rule", "expression", "value", "verdict"],
        title=f"SLO alerts ({merged} payload{'s' if merged != 1 else ''})",
    )
    for result in results:
        table.add_row(
            [
                result.rule.name,
                result.rule.expr,
                "-" if result.value is None else f"{result.value:.6g}",
                result.verdict,
            ]
        )
    print(table.render())
    print(alerts_verdict_line(engine))
    if not engine.passed and args.check:
        return 1
    return 0


def _serve_cmd(args: argparse.Namespace, *, mode: str, clients: int) -> int:
    """The ``serve``/``loadgen`` subcommands: one serving experiment.

    ``serve`` is the open-loop single-producer special case of
    ``loadgen``; both build a deployment from the spec, replay the
    workload through the async service, and print the report.  Metrics
    export and in-run alert evaluation mirror the ``run`` subcommand.
    """
    from repro.serve.loadgen import LoadGenSpec, render_report, run_loadgen
    from repro.serve.protocol import ServeError

    obs_requested = bool(args.metrics_out or args.alert_rules)
    if obs_requested:
        from repro import obs

        obs.reset()
        obs.enable()
    try:
        spec = LoadGenSpec(
            workload=args.workload,
            mode=mode,
            clients=clients,
            nodes=args.nodes,
            node_capacity_gib=args.node_capacity_gib,
            horizon_days=args.horizon_days,
            seed=args.seed,
            scale=args.scale,
            queue_size=args.queue_size,
            batch_max=args.batch_max,
            rate_per_minute=args.rate_per_minute,
            rate_burst=args.rate_burst,
            deadline_minutes=args.deadline_minutes,
            open_burst=args.open_burst,
            budget_gib_days=args.budget_gib_days,
            period_days=args.period_days,
            max_requests=args.max_requests,
            shards=args.shards,
            spill=args.spill,
            high_water=args.high_water,
            window_minutes=args.window_minutes,
            coalesce=not args.no_coalesce,
            hot_objects=args.hot_objects,
            burst_factor=args.burst_factor,
            target_shard=args.target_shard,
        )
        try:
            report = run_loadgen(spec, jobs=args.jobs)
        except ServeError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        print(render_report(report))
        if args.ledger_out is not None:
            path = report.ledger.write_jsonl(args.ledger_out)
            print(f"[serve ledger written to {path}: {len(report.ledger)} entries]")
        failed = False
        if obs_requested:
            from repro import obs

            if args.metrics_out is not None:
                _write_metrics(args.metrics_out, args.command, trace=False)
                print(f"[metrics written to {args.metrics_out}]")
            if args.alert_rules:
                from repro.obs.alerts import AlertEngine, load_rules
                from repro.report.metrics import alerts_verdict_line

                engine = AlertEngine(rules=load_rules(args.alert_rules))
                engine.evaluate(obs.STATE.registry)
                print(alerts_verdict_line(engine))
                failed = not engine.passed
        return 1 if failed and args.check else 0
    finally:
        if obs_requested:
            from repro import obs

            obs.disable()


def _run_serial(names: list[str], args: argparse.Namespace) -> int:
    """The historical inline path: one experiment at a time, live obs STATE."""
    opts = _obs_options(args)
    obs_requested = opts.enabled
    if obs_requested:
        from repro import obs
        from repro.obs import TimeSeriesCollector

        obs.reset()
        obs.enable()
        if args.log_level or args.log_file:
            obs.configure_logging(
                args.log_level or "info", args.log_file or sys.stderr
            )
    dashboard_payloads: list[dict[str, Any]] = []
    trace_archives: list[Any] = []
    slug_for = {
        name: _spec_from_args(name, args).slug() for name in names
    }
    trace_id = ""
    if opts.trace_export:
        from repro.obs.traceexport import trace_id_for

        trace_id = trace_id_for(list(slug_for.values()))
    try:
        for name in names:
            if obs_requested:
                obs.STATE.registry.reset()
                obs.STATE.tracer.reset()
                obs.STATE.profiler.reset()
                obs.STATE.timeseries = TimeSeriesCollector(
                    interval_minutes=args.scrape_interval_days * 1440.0
                )
                if opts.audit:
                    from repro.obs.audit import AuditLedger

                    obs.STATE.audit = AuditLedger(sample=opts.audit_sample)
                if opts.alert_rules:
                    from repro.obs.alerts import AlertEngine

                    obs.STATE.alerts = AlertEngine.from_pairs(opts.alert_rules)
                if opts.trace_export:
                    from repro.obs.traceexport import SpanExporter

                    obs.STATE.tracer.exporter = SpanExporter(
                        trace_id=trace_id,
                        spec=slug_for[name],
                        shard=slug_for[name],
                    )
            _result, rendered, (headers, rows) = EXPERIMENTS[name](args)
            print(f"== {name} ==")
            print(rendered)
            print()
            if args.csv is not None:
                path = _csv_path(args.csv, name, len(names) > 1)
                write_csv(path, headers, rows)
                print(f"[csv written to {path}]")
            if obs_requested:
                from repro.report.metrics import metrics_summary

                if obs.STATE.alerts is not None:
                    # End-of-run evaluation so engine-less drives (and runs
                    # shorter than one scrape interval) still get a verdict.
                    obs.STATE.alerts.evaluate(obs.STATE.registry)
                print(
                    metrics_summary(
                        obs.STATE.registry,
                        timeseries=obs.STATE.timeseries,
                        alerts=obs.STATE.alerts,
                    )
                )
                print()
                if args.trace:
                    print(obs.STATE.tracer.render())
                    print()
                if args.metrics_out is not None:
                    path = _metrics_path(args.metrics_out, name, len(names) > 1)
                    _write_metrics(path, name, args.trace)
                    print(f"[metrics written to {path}]")
                if args.audit_out is not None and obs.STATE.audit is not None:
                    path = _audit_path(args.audit_out, name, len(names) > 1)
                    _write_audit(path, obs.STATE.audit)
                if args.trace_out is not None and obs.STATE.tracer.exporter is not None:
                    shard = obs.STATE.tracer.exporter.archive()
                    trace_archives.append(shard)
                    path = _trace_path(args.trace_out, slug_for[name], len(names) > 1)
                    _write_trace(path, shard)
                if args.dashboard_out is not None:
                    from repro.report.dashboard import collect_payload

                    dashboard_payloads.append(collect_payload(name))
        if args.trace_out is not None and len(trace_archives) > 1:
            from repro.obs.traceexport import TraceArchive
            from repro.report.flamegraph import critical_path, render_critical_path

            merged = TraceArchive.merged(trace_archives)
            _write_trace(_trace_path(args.trace_out, "merged", True), merged)
            print(render_critical_path(critical_path(merged)))
            print()
        if args.dashboard_out is not None and dashboard_payloads:
            from repro.report.dashboard import write_dashboard

            write_dashboard(args.dashboard_out, dashboard_payloads)
            print(f"[dashboard written to {args.dashboard_out}]")
    finally:
        if obs_requested:
            obs.STATE.logger.close()
            obs.disable()
    return 0


def _run_parallel(specs: list[RunSpec], args: argparse.Namespace, *, sweep: bool) -> int:
    """Execute specs via the pool and emit outcomes in submission order.

    Printed experiment output and CSV artifacts are byte-identical to
    the serial path; telemetry comes back as per-worker payloads, which
    are written per spec and additionally merged
    (:meth:`MetricsRegistry.merge` / :meth:`TimeSeriesCollector.merge`)
    into one cross-spec summary and ``-merged`` metrics file.
    """
    specs = _with_trace_id(specs)
    multiple = len(specs) > 1
    obs_on = any(spec.obs.enabled for spec in specs)
    outcomes = run_specs(specs, jobs=args.jobs)
    failures: list[RunOutcome] = []
    dashboard_payloads: list[dict[str, Any]] = []
    trace_archives: list[Any] = []
    merged_registry = None
    merged_timeseries = None
    merged_ledger = None
    if obs_on:
        from repro.obs import (
            MetricsRegistry,
            TimeSeriesCollector,
            render_aggregates,
        )
        from repro.report.metrics import metrics_summary

        merged_registry = MetricsRegistry()
    for outcome in outcomes:
        label = outcome.spec.slug() if sweep else outcome.spec.experiment
        print(f"== {label} ==")
        if not outcome.ok:
            failures.append(outcome)
            print(f"[failed: {outcome.error.render()}]")
            print()
            continue
        print(outcome.rendered)
        print()
        if args.csv is not None:
            path = _csv_path(args.csv, label, multiple)
            write_csv(path, list(outcome.headers), [list(row) for row in outcome.rows])
            print(f"[csv written to {path}]")
        if outcome.telemetry is None:
            continue
        registry = MetricsRegistry.from_dict(outcome.telemetry["metrics"])
        timeseries = None
        if "timeseries" in outcome.telemetry:
            timeseries = TimeSeriesCollector.from_dict(outcome.telemetry["timeseries"])
        ledger = None
        if "audit" in outcome.telemetry:
            from repro.obs.audit import AuditLedger

            ledger = AuditLedger.from_dict(outcome.telemetry["audit"])
        print(
            metrics_summary(
                registry,
                timeseries=timeseries,
                alerts=outcome.telemetry.get("alerts"),
            )
        )
        print()
        if args.trace:
            print(render_aggregates(outcome.telemetry.get("spans", {})))
            print()
        if args.metrics_out is not None:
            path = _metrics_path(args.metrics_out, label, multiple)
            _write_metrics_payload(path, outcome.telemetry, args.trace)
            print(f"[metrics written to {path}]")
        if args.audit_out is not None and ledger is not None:
            path = _audit_path(args.audit_out, label, multiple)
            _write_audit(path, ledger)
        if args.trace_out is not None and "trace" in outcome.telemetry:
            from repro.obs.traceexport import TraceArchive

            shard = TraceArchive.from_dict(outcome.telemetry["trace"])
            trace_archives.append(shard)
            _write_trace(_trace_path(args.trace_out, label, multiple), shard)
        if args.dashboard_out is not None:
            dashboard_payloads.append(outcome.telemetry)
        merged_registry.merge(registry)
        if timeseries is not None:
            if merged_timeseries is None:
                merged_timeseries = timeseries
            else:
                merged_timeseries.merge(timeseries)
        if ledger is not None:
            # Outcomes arrive in submission order, so the merged ledger is
            # deterministic regardless of --jobs.
            if merged_ledger is None:
                merged_ledger = ledger
            else:
                merged_ledger.merge(ledger)
    if obs_on and multiple and len(merged_registry):
        merged_alerts = None
        alert_pairs = next(
            (spec.obs.alert_rules for spec in specs if spec.obs.alert_rules), ()
        )
        if alert_pairs:
            # Re-evaluate the rules against the cross-spec registry: a rule
            # can pass on every shard yet fail in aggregate (or vice versa).
            from repro.obs.alerts import AlertEngine

            merged_alerts = AlertEngine.from_pairs(alert_pairs)
            merged_alerts.evaluate(merged_registry)
        print("== merged (all specs) ==")
        print(
            metrics_summary(
                merged_registry, timeseries=merged_timeseries, alerts=merged_alerts
            )
        )
        print()
        if args.metrics_out is not None:
            merged_payload: dict[str, Any] = {
                "experiment": "merged",
                "metrics": merged_registry.to_dict(),
            }
            if merged_timeseries is not None:
                merged_payload["timeseries"] = merged_timeseries.to_dict()
            if merged_alerts is not None:
                merged_payload["alerts"] = merged_alerts.to_dict()
            path = _metrics_path(args.metrics_out, "merged", True)
            _write_metrics_payload(path, merged_payload, trace=False)
            print(f"[metrics written to {path}]")
        if args.audit_out is not None and merged_ledger is not None:
            _write_audit(_audit_path(args.audit_out, "merged", True), merged_ledger)
    if args.trace_out is not None and len(trace_archives) > 1:
        from repro.obs.traceexport import TraceArchive
        from repro.report.flamegraph import critical_path, render_critical_path

        # Shards arrive in submission order and the merge re-sorts by a
        # total key, so the merged artifact is byte-stable regardless of
        # --jobs (wall-clock measurement fields aside; see
        # TraceArchive.canonical_bytes).
        merged_trace = TraceArchive.merged(trace_archives)
        _write_trace(_trace_path(args.trace_out, "merged", True), merged_trace)
        print(render_critical_path(critical_path(merged_trace)))
        print()
    if args.dashboard_out is not None and dashboard_payloads:
        from repro.report.dashboard import write_dashboard

        write_dashboard(args.dashboard_out, dashboard_payloads)
        print(f"[dashboard written to {args.dashboard_out}]")
    for outcome in failures:
        label = outcome.spec.slug() if sweep else outcome.spec.experiment
        print(f"[{label} failed: {outcome.error.render()}]", file=sys.stderr)
        if outcome.error.traceback:
            print(outcome.error.traceback, file=sys.stderr, end="")
    return 1 if failures else 0


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    if args.command == "list":
        for name in EXPERIMENTS:
            print(name)
        return 0
    if args.command == "dashboard":
        return _dashboard_from_dir(args.run_dir, args.out)
    if args.command == "flamegraph":
        return _flamegraph_cmd(args)
    if args.command == "explain":
        return _explain_cmd(args)
    if args.command == "alerts":
        return _alerts_cmd(args)
    if args.command == "serve":
        return _serve_cmd(args, mode="open", clients=1)
    if args.command == "loadgen":
        return _serve_cmd(args, mode=args.mode, clients=args.clients)
    if args.command == "sweep":
        try:
            grid = _parse_param_grid(args.param)
            specs = expand_sweep(
                args.experiment,
                grid=grid,
                seeds=args.seeds,
                base_seed=args.seed,
                horizon_days=args.horizon_days,
                obs=_obs_options(args),
            )
        except ReproError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        return _run_parallel(specs, args, sweep=True)

    names = list(EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    try:
        if args.jobs > 1:
            obs_opts = _obs_options(args)
            specs = [_spec_from_args(name, args, obs=obs_opts) for name in names]
            return _run_parallel(specs, args, sweep=False)
        return _run_serial(names, args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
