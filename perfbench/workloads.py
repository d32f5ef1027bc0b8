"""The benchmark's two workloads: what each calls, and how its output is checked.

Each workload is one end-to-end call into the program's public API:

* ``serve-flash`` -- :func:`repro.serve.loadgen.run_loadgen` on the
  4-shard flash-crowd spec with ``jobs=2`` (route, per-shard serve in a
  process pool, ledger merge);
* ``sim-mega`` -- :func:`repro.experiments.sec54_mega.execute` at the
  reduced 2,000-node scale, shards run inline.

``digest`` turns a result into the counts the benchmark reports and the
list of output checks that failed.  For the default seeds the output
hashes are pinned; every seed is checked against the invariants below.
"""

from __future__ import annotations

import hashlib

WORKLOADS = ("serve-flash", "sim-mega")

DEFAULT_SEEDS = {"serve-flash": 42, "sim-mega": 11}

#: sha256 of the serve ledger (serve-flash) or of the rendered artifact
#: (sim-mega) at the default seed.  The serve-flash hash is the
#: 4-shard row of ``benchmarks/out/serve_scaling_outcomes.txt``; the
#: sim-mega hash is ``sec54_mega_reduced`` in ``BENCH_test_sec54_mega.json``.
PINNED_SHA256 = {
    "serve-flash": "4545c3a7ffce3feddc500a930718e31f31f4ea3451f125869ee09284e8a19e91",
    "sim-mega": "bed68a20341ff61bedc2e8748fc2c915999463fa8fd8f49f75e366696cbd1d97",
}

#: Shard-pool width of the measured call.
MEASURED_JOBS = {"serve-flash": 2, "sim-mega": 1}

#: Program modules each workload's call needs, imported during set-up so
#: that no import lands in the timed call (the shard executor imports the
#: experiment registry lazily).
SETUP_IMPORTS = {
    "serve-flash": ("repro.serve.sharded", "repro.experiments.registry"),
    "sim-mega": ("repro.experiments.sec54_mega", "repro.experiments.registry"),
}

#: Request statuses that mean the request was lost rather than decided.
FAILED_STATUSES = ("shed-backpressure", "expired-in-queue")


def build_spec(workload: str, seed: int):
    """The workload's spec for ``seed`` (construction only, no work)."""
    if workload == "serve-flash":
        from repro.serve.loadgen import LoadGenSpec

        # benchmarks/test_serve_scaling.py's flash-crowd spec at 4 shards.
        return LoadGenSpec(
            workload="flashcrowd", mode="closed", clients=16, nodes=8,
            node_capacity_gib=4.0, horizon_days=30.0, scale=0.05,
            burst_factor=3.0, shards=4, spill="overflow", high_water=16,
            window_minutes=720.0, seed=seed, batch_max=32,
        )
    if workload == "sim-mega":
        from repro.sim.parallel import RunSpec

        return RunSpec(
            experiment="sec54-mega",
            params={
                "nodes": 2000, "shards": 4, "node_capacity_gib": 2.0,
                "epoch_days": 5.0, "jobs": 1,
            },
            seed=seed,
            horizon_days=30.0,
        )
    raise ValueError(f"unknown workload {workload!r}; known: {', '.join(WORKLOADS)}")


def call(workload: str, spec, jobs: int):
    """The measured end-to-end call."""
    if workload == "sim-mega":
        from dataclasses import replace

        from repro.experiments import sec54_mega

        params = dict(spec.params)
        params["jobs"] = jobs
        return sec54_mega.execute(replace(spec, params=params))
    from repro.serve.loadgen import run_loadgen

    return run_loadgen(spec, jobs=jobs)


def attempted_after_failure(workload: str, spec) -> int:
    """Work units a call that raised had been asked to do.

    A serve call that raises answers none of its requests, so all of them
    count as lost; a sim-mega call is attempted as its shard specs.
    """
    if workload == "sim-mega":
        return dict(spec.params)["shards"]
    from repro.besteffs.auth import CapabilityRealm
    from repro.serve.loadgen import build_requests

    return len(build_requests(spec, CapabilityRealm(key=b"count-only")))


def _ledger_checks(ledger, requests: int, statuses: dict[str, int]) -> list[str]:
    """Every request is answered exactly once; status counts sum up."""
    problems = []
    entries = ledger.entry_dicts()
    seqs = [entry["seq"] for entry in entries]
    ids = {entry["request"]["request_id"] for entry in entries}
    if sorted(seqs) != list(range(requests)):
        problems.append(
            f"ledger sequence numbers are not exactly 0..{requests - 1} "
            f"({len(seqs)} entries)"
        )
    if len(ids) != requests:
        problems.append(f"{len(ids)} distinct request ids answered, expected {requests}")
    if sum(statuses.values()) != requests:
        problems.append(
            f"status counts sum to {sum(statuses.values())}, expected {requests}"
        )
    return problems


def _serve_digest(report) -> dict:
    statuses = dict(report.responses_by_status)
    cluster = report.cluster
    failed = sum(statuses.get(status, 0) for status in FAILED_STATUSES)
    problems = _ledger_checks(report.ledger, report.requests, statuses)
    if not 0.0 <= cluster.mean_density <= 1.0:
        problems.append(f"cluster density {cluster.mean_density} outside [0, 1]")
    if cluster.used_bytes > cluster.capacity_bytes:
        problems.append("cluster occupancy exceeds capacity")
    return {
        "sha256": report.ledger.canonical_sha256(),
        "attempted": report.requests,
        "failed": failed,
        "latency_samples": report.requests,
        "latency_p50_s": report.latency_p50_s,
        "latency_p99_s": report.latency_p99_s,
        "mix": {
            "requests": report.requests,
            "statuses": dict(sorted(statuses.items())),
            "shed": dict(sorted(report.shed_by_reason.items())),
            "placed": cluster.placed,
            "rejected_placement": cluster.rejected,
            # Nothing is deleted in these runs, so every placed object
            # that is no longer resident was preempted.
            "evicted": cluster.placed - cluster.resident_objects,
            "coalesced": report.coalesced,
            "deduped": report.deduped,
            "spilled": report.spilled,
            "fairness_transactions": report.fairness_transactions,
            "batches": report.batches,
            "density": round(cluster.mean_density, 4),
        },
        "completed": report.requests - failed,
        "store_decisions": cluster.placed + cluster.rejected,
        "modelled_rps": report.ops_per_sec,
        "problems": problems,
    }


def _mega_digest(result) -> dict:
    from repro.experiments import sec54_mega

    rendered = sec54_mega.render(result) + "\n"
    problems = []
    for column, name in ((2, "placed"), (3, "rejected"), (4, "evicted")):
        series = [row[column] for row in result.epochs]
        if series != sorted(series):
            problems.append(f"epoch counter {name} is not monotone: {series}")
    densities = [row[7] for row in result.epochs]
    if not all(0.0 <= d <= 1.0 for d in densities):
        problems.append(f"epoch density outside [0, 1]: {densities}")
    summary = result.shard_summary
    for index, name, total in (
        (1, "nodes", result.nodes),
        (2, "courses", result.courses),
    ):
        if sum(row[index] for row in summary) != total:
            problems.append(f"shard {name} do not sum to the total {total}")
    for row in result.epochs:
        epoch = row[0]
        slices = [r for r in result.shard_rows if r[1] == epoch]
        for column, name in ((3, "placed"), (4, "rejected"), (5, "evicted"), (6, "resident")):
            if sum(r[column] for r in slices) != row[column - 1]:
                problems.append(f"epoch {epoch}: shard {name} slices do not sum to the total")
    last = result.epochs[-1]
    return {
        "sha256": hashlib.sha256(rendered.encode("utf-8")).hexdigest(),
        "attempted": result.shards,
        "failed": 0,
        "mix": {
            "arrivals": result.arrivals,
            "placed": last[2],
            "rejected": last[3],
            "evicted": last[4],
            "resident": last[5],
            "density": round(last[7], 4),
        },
        "completed": result.arrivals,
        "store_decisions": result.arrivals,
        "problems": problems,
    }


def digest(workload: str, result) -> dict:
    """Counts, output hash and failed checks of one call's result."""
    if workload == "sim-mega":
        return _mega_digest(result)
    return _serve_digest(result)
