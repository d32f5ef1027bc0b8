"""Serving runs: route → per-shard serve → merge.

Every :class:`~repro.serve.loadgen.LoadGenSpec` runs here.  The Besteffs
cluster is partitioned into contiguous node slices
(:func:`repro.sim.shard.shard_slice`), each fronted by its own
:class:`~repro.serve.service.GatewayService`, and every request is routed
deterministically with :mod:`repro.serve.router`.  ``shards=1`` is one
slice holding the whole cluster, served through exactly the same code.
Each shard is a self-contained :class:`~repro.sim.parallel.RunSpec` run
("serve-shard" in the experiment registry), so the parallel executor
provides worker-process isolation and ``--jobs 1`` versus ``--jobs N`` is
byte-identical by construction.

A shard worker never receives the routing plan — it *recomputes* it:

1. regenerate the full request stream (seeded, so identical everywhere);
2. run :func:`~repro.serve.router.plan_routes` with the shared
   :class:`~repro.serve.router.RouterConfig` — a pure function of the
   ordered stream;
3. serve exactly the sub-stream routed to this shard, passing each
   request's **global** stream position as the ledger sequence number;
4. once the serve loop is over, dump each ledger entry exactly once
   (:meth:`~repro.serve.ledger.ServeLedger.keyed_lines`).

The parent then merges per-shard ledgers with
:func:`~repro.serve.ledger.merge_ledger_lines` — sorting by global seq —
into one run-wide :class:`~repro.serve.ledger.FrozenServeLedger` whose
canonical bytes are independent of shard scheduling and worker count.
Cluster counters merge as exact totals, so a one-shard report carries
its cluster's own :class:`~repro.besteffs.cluster.ClusterStats` bit for
bit.

Timing: each shard's ``serve_seconds`` wall clock is measured around the
serve loop only (stream regeneration and cluster build excluded), and the
merged report's ``wall_seconds`` is the *slowest* shard's serve wall.
Total requests over that wall is the fleet-capacity throughput — the wall
clock of a deployment running one worker per shard, which equals measured
end-to-end wall clock whenever cores >= shards.  Shards are executed
sequentially at ``jobs=1`` in the scaling benchmark precisely so each
shard's wall is contention-free on small machines.

Fairness note: each shard keeps its own
:class:`~repro.besteffs.fairness.FairShareLedger` (budgets are enforced
shard-locally), preserving the paper's no-central-components property.
Every shard's budget is the fleet budget pro-rated by its node share, so
the fleet-wide budget is invariant under the shard count — but a
principal whose traffic homes entirely on one shard can draw only that
shard's slice of it.
"""

from __future__ import annotations

import asyncio
import hashlib
from dataclasses import asdict, dataclass
from time import perf_counter

from repro.besteffs.auth import CapabilityRealm
from repro.besteffs.cluster import BesteffsCluster, ClusterStats
from repro.besteffs.fairness import FairShareLedger
from repro.besteffs.gateway import BesteffsGateway
from repro.besteffs.placement import PlacementConfig
from repro.obs import STATE as _OBS
from repro.serve.ledger import FrozenServeLedger, ServeLedger, merge_ledger_lines
from repro.serve.loadgen import (
    LoadGenReport,
    LoadGenSpec,
    _drive,
    _percentile,
    build_requests,
    retry_after_histogram,
)
from repro.serve.protocol import ServeError
from repro.serve.router import RouterConfig, plan_routes
from repro.serve.service import GatewayService
from repro.sim.parallel import RunSpec, run_specs, seed_for
from repro.sim.shard import shard_slice
from repro.units import MINUTES_PER_DAY, days, gib

__all__ = [
    "SHARD_ROW_HEADERS",
    "ShardServeOutcome",
    "build_shard_gateway",
    "execute",
    "execute_flash",
    "merged_rows",
    "render_shard",
    "run_shard_serve",
    "run_sharded",
    "shard_rows",
    "shard_serve_seed",
]

#: CSV header of the typed ``(kind, key, value)`` shard rows.
SHARD_ROW_HEADERS = ("kind", "key", "value")

#: Row kinds whose values are wall-clock measurements — excluded from any
#: determinism-checked artifact the parent assembles.
TIMING_KINDS = frozenset({"timing", "latency"})


def shard_serve_seed(seed: int, shard: int, shards: int) -> int:
    """Deterministic 63-bit seed of one serving shard's cluster RNG.

    ``shards == 1`` returns the base seed unchanged, which keeps every
    single-gateway ledger ever pinned byte-identical.  Multi-shard seeds
    derive from the shard coordinates alone — never from worker
    identity — mirroring :func:`repro.sim.shard.shard_seed`.
    """
    if shards == 1:
        return seed
    ident = f"serve|{seed}|{shards}|{shard}".encode()
    return int.from_bytes(hashlib.sha256(ident).digest()[:8], "big") >> 1


def build_shard_gateway(spec: LoadGenSpec, shard: int) -> BesteffsGateway:
    """Stand up shard ``shard``'s slice of the deployment a spec describes.

    Node names keep their *global* indexes (``node-007`` is the same brick
    whatever the shard count), and every shard mints capabilities from the
    same realm key, so a capability is valid at whichever shard routing
    picks.
    """
    node_start, node_count = shard_slice(spec.nodes, spec.shards, shard)
    if node_count < 1:
        raise ServeError(
            f"serving shard {shard}/{spec.shards} has no nodes "
            f"({spec.nodes} total); use fewer shards"
        )
    capacities = {
        f"node-{node_start + i:03d}": gib(spec.node_capacity_gib)
        for i in range(node_count)
    }
    cluster = BesteffsCluster(
        capacities,
        placement=PlacementConfig(x=min(4, node_count), m=2),
        seed=shard_serve_seed(spec.seed, shard, spec.shards),
    )
    realm = CapabilityRealm(key=b"repro-serve-loadgen")
    # Pro-rate the fleet budget by node share: summed over shards the
    # deployment enforces exactly ``budget_gib_days``, whatever the shard
    # count (node_count == spec.nodes at shards == 1).
    ledger = FairShareLedger(
        budget_per_period=(
            spec.budget_gib_days * gib(1) * MINUTES_PER_DAY * node_count / spec.nodes
        ),
        period_minutes=days(spec.period_days),
    )
    return BesteffsGateway(cluster, realm, ledger)


@dataclass(frozen=True)
class ShardServeOutcome:
    """Everything one serving shard reports back to the merge step."""

    shard: int
    shards: int
    nodes: int
    #: Requests the routing plan assigned to this shard.
    assigned: int
    #: Assigned requests that arrived here by spill (home was saturated).
    spilled_in: int
    responses_by_status: dict[str, int]
    shed_by_reason: dict[str, int]
    refusals: dict[str, int]
    batches: int
    queue_peak: int
    coalesced: int
    deduped: int
    fairness_transactions: int
    #: Wall clock of the serve loop only (stream regen/build excluded).
    serve_seconds: float
    latency_mean_s: float
    latency_p50_s: float
    latency_p95_s: float
    latency_p99_s: float
    cluster: ClusterStats
    #: ``(global seq, canonical entry line)`` pairs, sorted by seq.
    ledger_lines: tuple[tuple[int, str], ...]


def run_shard_serve(spec: LoadGenSpec, shard: int) -> ShardServeOutcome:
    """Serve one shard's sub-stream of the spec's traffic.

    Regenerates the full stream, replays the deterministic routing plan,
    and drives only the requests routed here — with their global sequence
    numbers — through a fresh :class:`GatewayService` over this shard's
    node slice.  ``spec.clients`` sessions drive *each* shard.
    """
    if not 0 <= shard < spec.shards:
        raise ServeError(f"shard must be in [0, {spec.shards}), got {shard}")
    gateway = build_shard_gateway(spec, shard)
    requests = build_requests(spec, gateway.realm)
    config = RouterConfig(
        shards=spec.shards,
        spill=spec.spill,
        high_water=spec.high_water,
        window_minutes=spec.window_minutes,
    )
    plan, _router = plan_routes(requests, config)
    numbered = [
        (seq, request)
        for seq, (request, decision) in enumerate(zip(requests, plan))
        if decision.shard == shard
    ]
    spilled_in = sum(
        1 for decision in plan if decision.shard == shard and decision.spilled
    )
    ledger = ServeLedger()
    service = GatewayService(gateway, config=spec.serve_config(), ledger=ledger)

    async def _run() -> float:
        await service.start()
        t0 = perf_counter()
        await _drive(service, numbered, spec.mode, spec.clients, spec.open_burst)
        await service.stop()
        return perf_counter() - t0

    serve_seconds = asyncio.run(_run())
    if _OBS.enabled:
        shard_label = str(shard)
        _OBS.registry.counter(
            "serve_shard_requests_total",
            "Requests served per gateway shard",
            labelnames=("shard",),
        ).inc(len(numbered), shard=shard_label)
        _OBS.registry.counter(
            "serve_shard_spilled_total",
            "Requests arriving at a shard by saturation spill",
            labelnames=("shard",),
        ).inc(spilled_in, shard=shard_label)
    lat = sorted(service.latencies_seconds)
    return ShardServeOutcome(
        shard=shard,
        shards=spec.shards,
        nodes=shard_slice(spec.nodes, spec.shards, shard)[1],
        assigned=len(numbered),
        spilled_in=spilled_in,
        responses_by_status=dict(service.responses_by_status),
        shed_by_reason=dict(service.shed_by_reason),
        refusals=dict(gateway.refusals),
        batches=service.batches,
        queue_peak=service.queue_peak,
        coalesced=service.coalesced_total,
        deduped=gateway.deduped_total,
        fairness_transactions=gateway.ledger.transactions,
        serve_seconds=serve_seconds,
        latency_mean_s=sum(lat) / len(lat) if lat else 0.0,
        latency_p50_s=_percentile(lat, 0.50),
        latency_p95_s=_percentile(lat, 0.95),
        latency_p99_s=_percentile(lat, 0.99),
        cluster=gateway.cluster.stats(now=service.clock),
        ledger_lines=tuple(ledger.keyed_lines()),
    )


def shard_rows(outcome: ShardServeOutcome) -> list[tuple]:
    """Flatten a shard outcome into picklable ``(kind, key, value)`` rows.

    This is the only form that crosses the worker boundary (the registry
    ships ``rows``, not result objects).  Kinds: ``stat`` (integers and
    cluster scalars), ``status``/``shed``/``refusal`` (counters),
    ``latency``/``timing`` (wall-clock; excluded from deterministic
    artifacts), ``ledger`` (global-seq-keyed canonical entry lines).
    """
    stats = outcome.cluster
    rows: list[tuple] = [
        ("stat", "shard", outcome.shard),
        ("stat", "shards", outcome.shards),
        ("stat", "nodes", outcome.nodes),
        ("stat", "assigned", outcome.assigned),
        ("stat", "spilled_in", outcome.spilled_in),
        ("stat", "batches", outcome.batches),
        ("stat", "queue_peak", outcome.queue_peak),
        ("stat", "coalesced", outcome.coalesced),
        ("stat", "deduped", outcome.deduped),
        ("stat", "fairness_transactions", outcome.fairness_transactions),
        ("stat", "capacity_bytes", stats.capacity_bytes),
        ("stat", "used_bytes", stats.used_bytes),
        ("stat", "resident", stats.resident_objects),
        ("stat", "placed", stats.placed),
        ("stat", "rejected", stats.rejected),
        ("stat", "weighted_density", stats.weighted_density),
        ("stat", "rounds_total", stats.rounds_total),
        ("stat", "probes_total", stats.probes_total),
    ]
    rows.extend(
        ("status", status, count)
        for status, count in sorted(outcome.responses_by_status.items())
    )
    rows.extend(
        ("shed", reason, count)
        for reason, count in sorted(outcome.shed_by_reason.items())
    )
    rows.extend(
        ("refusal", gate, count) for gate, count in sorted(outcome.refusals.items())
    )
    rows.extend(
        [
            ("latency", "mean_s", outcome.latency_mean_s),
            ("latency", "p50_s", outcome.latency_p50_s),
            ("latency", "p95_s", outcome.latency_p95_s),
            ("latency", "p99_s", outcome.latency_p99_s),
            ("timing", "serve_seconds", outcome.serve_seconds),
        ]
    )
    rows.extend(("ledger", f"{seq:012d}", line) for seq, line in outcome.ledger_lines)
    return rows


def _decode_rows(rows) -> dict:
    """Invert :func:`shard_rows` into per-kind mappings (ledger: pairs)."""
    decoded: dict[str, dict] = {
        kind: {}
        for kind in ("stat", "status", "shed", "refusal", "latency", "timing")
    }
    ledger: list[tuple[int, str]] = []
    for kind, key, value in rows:
        if kind == "ledger":
            ledger.append((int(key), value))
        else:
            decoded[kind][key] = value
    decoded["ledger"] = ledger
    return decoded


def render_shard(outcome: ShardServeOutcome) -> str:
    """Printable single-shard summary (standalone ``serve-shard`` runs)."""
    ledger = FrozenServeLedger(tuple(line for _seq, line in outcome.ledger_lines))
    lines = [
        f"serve shard {outcome.shard}/{outcome.shards}: {outcome.nodes} node(s), "
        f"{outcome.assigned} request(s) assigned "
        f"({outcome.spilled_in} spilled in)",
        f"  batches         {outcome.batches} (queue peak {outcome.queue_peak})",
        (
            f"  coalesced       {outcome.coalesced} sibling(s), "
            f"{outcome.deduped} deduped, "
            f"{outcome.fairness_transactions} ledger transaction(s)"
        ),
    ]
    for status, count in sorted(outcome.responses_by_status.items()):
        lines.append(f"  {status:<15} {count}")
    lines += [
        (
            f"  cluster         {outcome.cluster.placed} placed / "
            f"{outcome.cluster.rejected} rejected, "
            f"{outcome.cluster.resident_objects} resident"
        ),
        f"  serve wall      {outcome.serve_seconds:.3f}s",
        f"  ledger sha256   {ledger.canonical_sha256()}",
    ]
    return "\n".join(lines)


def _spec_params(spec: LoadGenSpec, shard: int) -> tuple[dict, int, float]:
    """Split a loadgen spec into registry params plus (seed, horizon)."""
    params = asdict(spec)
    seed = params.pop("seed")
    horizon = params.pop("horizon_days")
    params["shard"] = shard
    return params, seed, horizon


def run_sharded(spec: LoadGenSpec, *, jobs: int = 1) -> LoadGenReport:
    """Serve the spec's traffic across all shards and merge the outcome.

    Shard specs are submitted in shard-id order and
    :func:`~repro.sim.parallel.run_specs` preserves submission order, so
    the merged report — above all the seq-merged ledger — is a pure
    function of the spec; ``jobs`` touches wall-clock figures only.
    """
    specs = []
    for shard in range(spec.shards):
        params, seed, horizon = _spec_params(spec, shard)
        specs.append(
            RunSpec(
                experiment="serve-shard",
                params=params,
                seed=seed,
                horizon_days=horizon,
            )
        )
    outcomes = run_specs(specs, jobs=jobs)

    keyed_lines: list[tuple[int, str]] = []
    status_merged: dict[str, int] = {}
    shed_merged: dict[str, int] = {}
    refusal_merged: dict[str, int] = {}
    per_shard: list[tuple] = []
    requests = batches = coalesced = deduped = transactions = spilled = 0
    queue_peak = 0
    serve_walls: list[float] = []
    lat_weighted = 0.0
    lat_p50 = lat_p95 = lat_p99 = 0.0
    nodes = capacity = used = resident = placed = rejected = 0
    rounds = probes = 0
    weighted_density = 0.0
    for shard, outcome in enumerate(outcomes):
        if not outcome.ok:
            detail = outcome.error.render() if outcome.error else "unknown"
            raise ServeError(f"serving shard {shard} failed: {detail}")
        decoded = _decode_rows(outcome.rows or ())
        stat = decoded["stat"]
        assigned = stat["assigned"]
        admitted = decoded["status"].get("admitted", 0)
        requests += assigned
        spilled += stat["spilled_in"]
        batches += stat["batches"]
        queue_peak = max(queue_peak, stat["queue_peak"])
        coalesced += stat["coalesced"]
        deduped += stat["deduped"]
        transactions += stat["fairness_transactions"]
        for status, count in decoded["status"].items():
            status_merged[status] = status_merged.get(status, 0) + count
        for reason, count in decoded["shed"].items():
            shed_merged[reason] = shed_merged.get(reason, 0) + count
        for gate, count in decoded["refusal"].items():
            refusal_merged[gate] = refusal_merged.get(gate, 0) + count
        nodes += stat["nodes"]
        capacity += stat["capacity_bytes"]
        used += stat["used_bytes"]
        resident += stat["resident"]
        placed += stat["placed"]
        rejected += stat["rejected"]
        weighted_density += stat["weighted_density"]
        rounds += stat["rounds_total"]
        probes += stat["probes_total"]
        wall = decoded["timing"]["serve_seconds"]
        serve_walls.append(wall)
        lat_weighted += decoded["latency"]["mean_s"] * assigned
        lat_p50 = max(lat_p50, decoded["latency"]["p50_s"])
        lat_p95 = max(lat_p95, decoded["latency"]["p95_s"])
        lat_p99 = max(lat_p99, decoded["latency"]["p99_s"])
        keyed_lines.extend(decoded["ledger"])
        per_shard.append(
            (
                shard,
                stat["nodes"],
                assigned,
                stat["spilled_in"],
                admitted,
                stat["coalesced"],
                wall,
            )
        )
    ledger = merge_ledger_lines(keyed_lines)
    # Fleet-capacity wall: the slowest shard bounds a one-worker-per-shard
    # deployment, whatever machine executed the shards here.
    wall = max(serve_walls) if serve_walls else 0.0
    # The same expressions as BesteffsCluster.stats over exact totals:
    # means are per placement attempt, and one shard reproduces its own
    # cluster's stats bit for bit.
    attempts = placed + rejected
    cluster = ClusterStats(
        nodes=nodes,
        capacity_bytes=capacity,
        used_bytes=used,
        resident_objects=resident,
        placed=placed,
        rejected=rejected,
        mean_density=weighted_density / capacity if capacity else 0.0,
        mean_rounds=rounds / attempts if attempts else 0.0,
        mean_probes=probes / attempts if attempts else 0.0,
        weighted_density=weighted_density,
        rounds_total=rounds,
        probes_total=probes,
    )
    return LoadGenReport(
        spec=spec,
        requests=requests,
        responses_by_status=status_merged,
        shed_by_reason=shed_merged,
        refusals=refusal_merged,
        batches=batches,
        queue_peak=queue_peak,
        wall_seconds=wall,
        ops_per_sec=requests / wall if wall > 0 else 0.0,
        latency_mean_s=lat_weighted / requests if requests else 0.0,
        latency_p50_s=lat_p50,
        latency_p95_s=lat_p95,
        latency_p99_s=lat_p99,
        cluster=cluster,
        ledger=ledger,
        coalesced=coalesced,
        deduped=deduped,
        spilled=spilled,
        fairness_transactions=transactions,
        retry_after_histogram=retry_after_histogram(ledger),
        # One shard is the whole deployment: no per-shard table.
        per_shard=tuple(per_shard) if spec.shards > 1 else (),
    )


def merged_rows(report: LoadGenReport) -> list[tuple]:
    """Deterministic ``(kind, key, value)`` rows of a merged sharded run.

    Wall-clock kinds never appear here — this is the artifact surface the
    jobs-parity and determinism checks hash.
    """
    rows: list[tuple] = [
        ("stat", "requests", report.requests),
        ("stat", "batches", report.batches),
        ("stat", "coalesced", report.coalesced),
        ("stat", "deduped", report.deduped),
        ("stat", "spilled", report.spilled),
        ("stat", "fairness_transactions", report.fairness_transactions),
        ("stat", "placed", report.cluster.placed),
        ("stat", "rejected", report.cluster.rejected),
        ("stat", "resident", report.cluster.resident_objects),
        ("stat", "used_bytes", report.cluster.used_bytes),
    ]
    rows.extend(
        ("status", status, count)
        for status, count in sorted(report.responses_by_status.items())
    )
    rows.extend(
        ("shed", reason, count)
        for reason, count in sorted(report.shed_by_reason.items())
    )
    rows.extend(
        ("retry", label, count)
        for label, count in report.retry_after_histogram.items()
    )
    rows.extend(
        ("shard", f"{shard:03d}/assigned", assigned)
        for shard, _nodes, assigned, _sp, _adm, _co, _wall in report.per_shard
    )
    rows.extend(
        ("shard", f"{shard:03d}/spilled_in", spilled_in)
        for shard, _nodes, _assigned, spilled_in, _adm, _co, _wall in report.per_shard
    )
    rows.append(("ledger", "sha256", report.ledger.canonical_sha256()))
    rows.extend(
        ("ledger", f"{i:012d}", line) for i, line in enumerate(report.ledger.lines)
    )
    return rows


def execute(spec: RunSpec) -> ShardServeOutcome:
    """Run one serving shard from a :class:`RunSpec` (registry entry)."""
    kwargs = dict(spec.params)
    shard = int(kwargs.pop("shard", 0))
    kwargs.setdefault("max_requests", 400)  # interactive `run all` scale
    kwargs["seed"] = seed_for(spec)
    if spec.horizon_days is not None:
        kwargs["horizon_days"] = spec.horizon_days
    return run_shard_serve(LoadGenSpec(**kwargs), shard)


def execute_flash(spec: RunSpec) -> LoadGenReport:
    """Run the flash-crowd scaling scenario from a :class:`RunSpec`.

    Defaults are the *reduced* interactive scale (the scaling benchmark
    pins its own, larger spec): a four-shard, eight-node deployment under
    the slashdot burst, merged across shards.  ``jobs`` selects shard
    execution width and never reaches the artifacts.
    """
    kwargs = dict(spec.params)
    jobs = int(kwargs.pop("jobs", 1))
    kwargs.setdefault("workload", "flashcrowd")
    kwargs.setdefault("shards", 4)
    kwargs.setdefault("nodes", 8)
    kwargs.setdefault("clients", 4)
    kwargs.setdefault("scale", 0.005)
    kwargs.setdefault("high_water", 32)
    kwargs.setdefault("max_requests", 600)
    kwargs["seed"] = seed_for(spec)
    if spec.horizon_days is not None:
        kwargs["horizon_days"] = spec.horizon_days
    return run_sharded(LoadGenSpec(**kwargs), jobs=jobs)
