"""One repetition of one workload, in a fresh interpreter.

``run.py`` starts this script once per repetition, so the peak resident
memory and the CPU time of pooled children that it reports belong to that
repetition alone.  It prints one JSON object as its last line.

Modes:

* ``setup``   -- imports and spec construction only (``setup_s``);
* ``measure`` -- the measured call with tracing off;
* ``trace``   -- the call with every layer wrapped (run it at ``jobs=1``
  so that in-shard layers are visible); spans go to ``--out``;
* ``pool``    -- the call with only the parent side of the shard pool
  wrapped (``run_specs`` and the ledger merge).

``setup`` and ``measure`` also time ``calibrate.measure`` (``calib_s``),
after set-up and before the call.

Usage: python3 perfbench/rep.py --workload W --seed N --mode M [--jobs J] [--out DIR]
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import sys
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent


def _percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile, as :mod:`repro.serve.loadgen` computes it."""
    rank = max(0, min(len(sorted_values) - 1, round(q * (len(sorted_values) - 1))))
    return sorted_values[rank]


def _capture_outcomes(workload: str, outcomes: list) -> None:
    """Record the shard pool's outcomes, so a failed worker is reported."""
    name = "repro.experiments.sec54_mega" if workload == "sim-mega" else "repro.serve.sharded"
    module = importlib.import_module(name)
    run_specs = module.run_specs

    def capturing(*args, **kwargs):
        result = run_specs(*args, **kwargs)
        outcomes.extend(result)
        return result

    module.run_specs = capturing


def _time_offers(samples: list[float]) -> None:
    """Time each cluster placement decision (sim-mega's request latency).

    The simulator has no request clock of its own; one timestamp pair
    around each ``BesteffsCluster.offer`` is its only instrumentation.
    """
    from repro.besteffs.cluster import BesteffsCluster

    offer = BesteffsCluster.offer

    def timed(self, *args, **kwargs):
        start = perf_counter()
        try:
            return offer(self, *args, **kwargs)
        finally:
            samples.append(perf_counter() - start)

    BesteffsCluster.offer = timed


def main(argv: list[str] | None = None) -> int:
    started = perf_counter()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "measure", "trace", "pool"), required=True)
    parser.add_argument("--jobs", type=int, default=None)
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads

    for module in workloads.SETUP_IMPORTS[args.workload]:
        importlib.import_module(module)
    spec = workloads.build_spec(args.workload, args.seed)
    jobs = workloads.MEASURED_JOBS[args.workload] if args.jobs is None else args.jobs
    setup_s = perf_counter() - started
    record: dict = {"workload": args.workload, "mode": args.mode, "jobs": jobs,
                    "setup_s": setup_s}
    if args.mode in ("setup", "measure"):
        import calibrate

        record["calib_s"] = calibrate.measure()
    if args.mode == "setup":
        print(json.dumps(record))
        return 0

    outcomes: list = []
    _capture_outcomes(args.workload, outcomes)
    offer_samples: list[float] = []
    tracer = None
    call = workloads.call
    if args.mode == "measure" and args.workload == "sim-mega":
        _time_offers(offer_samples)
    elif args.mode in ("trace", "pool"):
        import tracing

        tracer = tracing.LayerTracer()
        if args.mode == "trace":
            tracing.install_layers(tracer)
        else:
            tracing.install_pool_layers(tracer)
        call = tracer.traced(workloads.call, "root")

    self_before = resource.getrusage(resource.RUSAGE_SELF)
    children_before = resource.getrusage(resource.RUSAGE_CHILDREN)
    wall_start = perf_counter()
    try:
        result = call(args.workload, spec, jobs)
        error = None
    except Exception as exc:  # a failed run is reported, not raised
        result = None
        error = exc
    wall_s = perf_counter() - wall_start
    self_after = resource.getrusage(resource.RUSAGE_SELF)
    children_after = resource.getrusage(resource.RUSAGE_CHILDREN)
    if tracer is not None:
        tracer.uninstall()

    def cpu(usage) -> float:
        return usage.ru_utime + usage.ru_stime

    record.update(
        wall_s=wall_s,
        cpu_s=cpu(self_after) - cpu(self_before)
        + cpu(children_after) - cpu(children_before),
        # ru_maxrss is in KiB on Linux: this process plus its largest child.
        peak_rss_mib=(self_after.ru_maxrss + children_after.ru_maxrss) / 1024.0,
        errors=[o.error.render() for o in outcomes if not o.ok and o.error],
    )
    if error is not None:
        record["errors"].append("".join(traceback.format_exception(error)))
        for message in record["errors"]:
            print(message, file=sys.stderr)
        attempted = workloads.attempted_after_failure(args.workload, spec)
        failed_specs = sum(1 for o in outcomes if not o.ok)
        failed = failed_specs if args.workload == "sim-mega" and failed_specs else attempted
        record.update(ok=False, attempted=attempted, failed=failed)
        print(json.dumps(record))
        return 0

    digest = workloads.digest(args.workload, result)
    if offer_samples:
        offer_samples.sort()
        digest["latency_samples"] = len(offer_samples)
        digest["latency_p50_s"] = _percentile(offer_samples, 0.50)
        digest["latency_p99_s"] = _percentile(offer_samples, 0.99)
    record.update(ok=True, **digest)
    if tracer is not None:
        record["trace_wall_s"] = tracer.wall_s()
        record["layers"] = tracer.layer_metrics()
        record["derived"] = tracing.derived_metrics(tracer)
        record["counts"] = tracer.counts
        if args.out is not None:
            tracer.dump(args.out / f"spans-{args.workload}-{args.mode}-jobs{jobs}")
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
