"""Benchmark entry point: run one workload for a time budget and report.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload serve-flash --seed 42 --seconds 60 --trace 0

Every repetition runs in a fresh interpreter (``perfbench/rep.py``), one
after another, until the next one would overrun ``--seconds``; at least
one always runs.

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``: the
median over the measured repetitions, with tracing off, scaled to the
reference host speed that ``calibrate.py`` defines (the raw medians are
printed beside them).  ``--trace 1`` alternates untraced and traced
repetitions at ``jobs=1`` and prints the per-layer metrics of the traced
repetition with the median wall (plus, for serve-flash, one repetition
at ``jobs=2`` with only the parent side of the shard pool traced).

Each repetition's output is checked: pinned hashes at the default seeds,
invariants at every seed, one hash across all repetitions of a run, and
for serve-flash the same ledger at ``jobs=1`` and ``jobs=2``.  A traced run
also replays the default seed once, so the pinned hash is checked
whatever seed it was given.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import calibrate  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

#: Fewest set-up and calibration samples per run: each measured
#: repetition gives one of each, and set-up-only repetitions make up the
#: rest, so both are medians even when a few calls fill the budget.
MIN_SETUP_SAMPLES = 8
#: Fewest measured repetitions per run, whatever the budget: one call
#: of sim-mega takes about a third of it.
MIN_REPS = 2
#: Longest a single repetition may take before the run is abandoned.
REP_TIMEOUT_S = 170.0
#: Allowed gap between the traced wall and the sum of the layer self
#: times plus the unattributed time (float rounding only).
PARTITION_TOLERANCE_S = 1e-6


class BenchError(Exception):
    """The benchmark could not produce a result."""


def run_rep(root: Path, workload: str, seed: int, mode: str, jobs: int | None = None) -> dict:
    """One repetition in a fresh interpreter; its JSON record."""
    work = root / ".perfbench"
    tmp = work / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    command = [sys.executable, str(HERE / "rep.py"), "--workload", workload,
               "--seed", str(seed), "--mode", mode, "--out", str(work)]
    if jobs is not None:
        command += ["--jobs", str(jobs)]
    env = dict(os.environ, TMPDIR=str(tmp))
    # A session of its own, so that a repetition that overruns is stopped
    # together with its pool workers.
    with subprocess.Popen(command, cwd=root, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True,
                          start_new_session=True) as process:
        try:
            stdout, stderr = process.communicate(timeout=REP_TIMEOUT_S)
        except subprocess.TimeoutExpired as exc:
            with contextlib.suppress(ProcessLookupError):
                os.killpg(process.pid, signal.SIGKILL)
            process.communicate()
            raise BenchError(
                f"{mode} repetition of {workload} ran past {REP_TIMEOUT_S:g}s") from exc
    if stderr:
        sys.stderr.write(stderr)
    lines = stdout.strip().splitlines()
    if process.returncode != 0 or not lines:
        raise BenchError(f"{mode} repetition of {workload} exited with {process.returncode}")
    return json.loads(lines[-1])


def e2e_values(rep: dict) -> dict[str, float]:
    """End-to-end metrics of one measured repetition (setup_s aside)."""
    wall = rep["wall_s"]
    return {
        "requests_per_s": rep["completed"] / wall,
        "arrivals_per_s": rep["store_decisions"] / wall,
        "latency_p50_ms": rep["latency_p50_s"] * 1e3,
        "latency_p99_ms": rep["latency_p99_s"] * 1e3,
        "cpu_s": rep["cpu_s"],
        "peak_rss_mib": rep["peak_rss_mib"],
    }


#: End-to-end rates and times: a host running slower than the reference
#: speed lowers the first and raises the second in proportion.
RATES = ("requests_per_s", "arrivals_per_s")
TIMES = ("latency_p50_ms", "latency_p99_ms", "cpu_s", "setup_s")


def at_reference(name: str, value: float, slowdown: float) -> float:
    """A run's median as it would read on a host at the reference speed."""
    if name in RATES:
        return value * slowdown
    if name in TIMES:
        return value / slowdown
    return value


def check(workload: str, seed: int, reps: list[dict]) -> list[str]:
    """Output checks over the repetitions that completed."""
    done = [rep for rep in reps if rep["ok"]]
    if not done:
        return [f"none of {len(reps)} repetition(s) completed"]
    problems = list(dict.fromkeys(p for rep in done for p in rep["problems"]))
    hashes = {rep["sha256"] for rep in done}
    if len(hashes) != 1:
        problems.append(f"repetitions disagree on the output: {sorted(hashes)}")
    if seed == workloads.DEFAULT_SEEDS[workload]:
        pinned = workloads.PINNED_SHA256[workload]
        if hashes != {pinned}:
            problems.append(f"output sha256 {sorted(hashes)} is not the pinned {pinned}")
    return problems


def print_mix(workload: str, seed: int, rep: dict) -> None:
    """The run's traffic mix beside the one recorded for the workload."""
    record = json.loads((HERE / "record.json").read_text())[workload]
    recorded = record["mix"]
    print(f"traffic mix (recorded at seed {record['seed']} | this run, seed {seed}):")
    for key, value in rep["mix"].items():
        print(f"  {key:<22} {json.dumps(recorded.get(key))} | {json.dumps(value)}")
    idle = [key for key in record["must_be_nonzero"] if not rep["mix"].get(key)]
    if idle:
        message = (f"DEGENERATE {workload}: {', '.join(idle)} fell to zero "
                   f"(see perfbench/record.json)")
        print(message)
        print(message, file=sys.stderr)


#: What a run produces: repetition records, metric values by name, and
#: the output checks that failed.
Outcome = tuple[list[dict], dict, list[str]]


def measure(root: Path, workload: str, seed: int, seconds: float) -> Outcome:
    """Measured repetitions for the budget; their metrics and failed checks."""
    start = perf_counter()
    problems: list[str] = []
    parity = None
    if workload == "serve-flash":
        parity = run_rep(root, workload, seed, "measure", jobs=1)
    reps: list[dict] = []
    measure_s = 0.0
    while True:
        rep_start = perf_counter()
        reps.append(run_rep(root, workload, seed, "measure"))
        measure_s += perf_counter() - rep_start
        if len(reps) >= MIN_REPS and perf_counter() - start + measure_s / len(reps) > seconds:
            break
    setup_reps: list[dict] = []
    while len(reps) + len(setup_reps) < MIN_SETUP_SAMPLES:
        setup_reps.append(run_rep(root, workload, seed, "setup"))
    setups = [rep["setup_s"] for rep in reps + setup_reps]
    calibs = [rep["calib_s"] for rep in reps + setup_reps + ([parity] if parity else [])]
    problems += check(workload, seed, reps)
    if parity is not None:
        problems += check(workload, seed, [parity])
        hashes = {rep["sha256"] for rep in reps + [parity] if rep["ok"]}
        if len(hashes) > 1:
            problems.append(f"ledgers differ between jobs=1 and jobs=2: {sorted(hashes)}")
    done = [e2e_values(rep) for rep in reps if rep["ok"]]
    raw = {name: statistics.median(v[name] for v in done) for name in done[0]} if done else {}
    raw["setup_s"] = statistics.median(setups)
    slowdown = statistics.median(calibs) / calibrate.REFERENCE_S
    metrics = {name: at_reference(name, value, slowdown) for name, value in raw.items()}
    print(f"{workload} seed {seed}: {len(reps)} measured repetition(s) at jobs="
          f"{workloads.MEASURED_JOBS[workload]}, {len(setups)} set-up samples")
    print(f"  host slowdown    {slowdown:.4f} (median calibration block "
          f"{statistics.median(calibs) * 1e3:.2f} ms over {len(calibs)} repetitions, "
          f"reference {calibrate.REFERENCE_S * 1e3:g} ms)")
    for name in metrics:
        values = [v[name] for v in done] if name != "setup_s" else setups
        # p99 swings by a quarter run to run on a shared 2-core box, so it
        # is printed here and tracked per layer, but not gated.
        note = "  (tracked, not gated)" if name == "latency_p99_ms" else ""
        print(f"  {name:<16} at reference {metrics[name]:.6g}  raw median {raw[name]:.6g}"
              f"  min {min(values):.6g}  max {max(values):.6g}{note}")
    if parity is not None:
        reps.append(parity)
    attempted = sum(rep["attempted"] for rep in reps)
    print(f"  failed_share     {sum(rep['failed'] for rep in reps) / attempted:.6g}"
          f" of {attempted} attempted")
    if done:
        sample = next(rep for rep in reps if rep["ok"])
        print(f"  latency over {sample['latency_samples']} samples per repetition")
        print_mix(workload, seed, sample)
    return reps, metrics, problems


def trace(root: Path, workload: str, seed: int, seconds: float) -> Outcome:
    """Untraced and traced repetitions at jobs=1; the per-layer metrics."""
    start = perf_counter()
    untraced: list[dict] = []
    traced: list[dict] = []
    while True:
        pair_start = perf_counter()
        untraced.append(run_rep(root, workload, seed, "measure", jobs=1))
        traced.append(run_rep(root, workload, seed, "trace", jobs=1))
        pair_s = perf_counter() - pair_start
        if perf_counter() - start + pair_s > seconds:
            break
    reps = untraced + traced
    pooled = None
    if workload == "serve-flash":
        pooled = run_rep(root, workload, seed, "pool", jobs=2)
        reps.append(pooled)
    problems = check(workload, seed, reps)
    default_seed = workloads.DEFAULT_SEEDS[workload]
    if seed != default_seed:
        # Invariants pass for any output; the pinned hash catches a wrong
        # answer that keeps them, so every traced run also replays the
        # default seed once.
        pinned = run_rep(root, workload, default_seed, "measure")
        problems += check(workload, default_seed, [pinned])
        reps.append(pinned)
    done = sorted((rep for rep in traced if rep["ok"]), key=lambda rep: rep["trace_wall_s"])
    if not done or not all(rep["ok"] for rep in untraced):
        return reps, {}, problems
    chosen = done[(len(done) - 1) // 2]
    metrics = dict(chosen["layers"])
    metrics.update(chosen["derived"])
    partition = [self_metric for _layer, self_metric, _calls in tracing.LAYERS]
    gap = sum(metrics[name] for name in partition) - chosen["trace_wall_s"]
    if abs(gap) > PARTITION_TOLERANCE_S:
        problems.append(f"layer self times miss the traced wall by {gap:.3g}s")
    untraced_wall = statistics.median(rep["wall_s"] for rep in untraced)
    serve = workload != "sim-mega"
    mix = chosen["mix"]
    requests = mix.get("requests", 0)
    metrics.update({
        "tail.latency_p99_ms": statistics.median(rep["latency_p99_s"] for rep in untraced) * 1e3,
        "trace.wall_s": chosen["trace_wall_s"],
        "trace.overhead_ratio": chosen["trace_wall_s"] / untraced_wall,
        "service.batches": mix.get("batches", 0),
        "service.batch_size_mean": requests / mix["batches"] if serve else 0.0,
        "service.coalesced_share": mix.get("coalesced", 0) / requests if serve else 0.0,
        "gateway.dedup_share": mix.get("deduped", 0) / requests if serve else 0.0,
        "fairness.transactions": mix.get("fairness_transactions", 0),
        "sharded.modelled_rps": 0.0,
        "sharded.shard_latency_p99_max_ms": 0.0,
        "parallel.run_specs_j2_s": 0.0,
        "parallel.worker_j2_s": 0.0,
        "ledger.merge_j2_s": 0.0,
    })
    if workload == "serve-flash":
        # A sharded report's wall is its slowest shard's serve loop and its
        # p99 the worst shard's: modelled figures, tracked only.
        metrics["sharded.modelled_rps"] = statistics.median(
            rep["modelled_rps"] for rep in untraced)
        metrics["sharded.shard_latency_p99_max_ms"] = metrics["tail.latency_p99_ms"]
        if pooled["ok"]:
            metrics["parallel.run_specs_j2_s"] = pooled["layers"]["parallel.run_specs_s"]
            metrics["parallel.worker_j2_s"] = pooled["counts"].get("parallel.worker_wall", 0.0)
            metrics["ledger.merge_j2_s"] = pooled["layers"]["ledger.merge_s"]
    print(f"{workload} seed {seed}: {len(untraced)} untraced + {len(traced)} traced "
          f"repetition(s) at jobs=1; layers of the median traced one "
          f"(spans in .perfbench/)")
    for name, value in metrics.items():
        print(f"  {name:<34} {value:.6g}")
    print_mix(workload, seed, chosen)
    return reps, metrics, problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Run one benchmark workload.")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=None,
                        help="workload seed (default: the workload's pinned seed)")
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    seed = workloads.DEFAULT_SEEDS[args.workload] if args.seed is None else args.seed

    root = Path.cwd()
    config_path = root / "BENCHMARK.json"
    if not (root / "src" / "repro" / "__init__.py").is_file() or not config_path.is_file():
        print(f"no program to benchmark: run from a checkout holding src/repro and "
              f"BENCHMARK.json (cwd is {root})", file=sys.stderr)
        return 2
    config = json.loads(config_path.read_text())
    declared = config["per_layer"] if args.trace else config["end_to_end"]

    try:
        runner = trace if args.trace else measure
        reps, values, problems = runner(root, args.workload, seed, args.seconds)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing and not problems:
        problems.append(f"metrics not produced: {', '.join(missing)}")
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": sum(rep["attempted"] for rep in reps),
        "failed": sum(rep["failed"] for rep in reps),
        "metrics": {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in declared if m["name"] in values
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
