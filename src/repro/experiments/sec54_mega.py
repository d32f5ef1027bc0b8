"""Section 5.4 (extension) — the mega-university on a sharded cluster.

Scales the Section 5.3 scenario an order of magnitude past the paper: a
50,000-node deployment capturing a proportionally scaled course catalogue
(~58k courses, millions of arrivals over the horizon).  One event loop
cannot hold that comfortably, so the run is decomposed into independent
shards (:mod:`repro.sim.shard`): each shard simulates a contiguous slice
of nodes and courses on its own engine, emitting per-epoch digests at
barrier events, and this module merges the digests — in shard-id order,
integer counters adding and density folding as weighted mass over total
capacity — into the cluster-wide epoch table.

Determinism contract: the merged artifact is a pure function of the spec
(nodes, shards, capacity, epochs, horizon, seed).  ``jobs`` only selects
how shard specs are executed (inline or worker processes) and never
appears in the rendered artifact; ``--jobs 1`` and ``--jobs N`` produce
byte-identical output because shard seeds derive from shard ids and the
parallel executor preserves submission order.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ReproError
from repro.report.table import TextTable
from repro.sim.parallel import RunSpec, run_specs
from repro.sim.shard import mega_courses, shard_slice
from repro.units import gib, to_tib

__all__ = ["Sec54Result", "execute", "render", "run"]


@dataclass(frozen=True)
class Sec54Result:
    """Merged mega-university outcome."""

    nodes: int
    shards: int
    courses: int
    node_capacity_gib: float
    epoch_days: float
    horizon_days: float
    seed: int
    capacity_bytes: int
    arrivals: int
    dispatched: int
    #: Merged per-epoch rows: ``(epoch, day, placed, rejected, evicted,
    #: resident, used_tib, density, university_tib, student_tib)``.
    epochs: tuple[tuple, ...]
    #: Raw per-shard digest rows (shard-id order; ``DIGEST_HEADERS``).
    shard_rows: tuple[tuple, ...]
    #: ``(shard, nodes, courses, arrivals, dispatched)`` per shard.
    shard_summary: tuple[tuple[int, int, int, int, int], ...]


def _run(
    *,
    nodes: int = 2000,
    shards: int = 4,
    node_capacity_gib: float = 2.0,
    epoch_days: float = 5.0,
    horizon_days: float = 30.0,
    seed: int = 11,
    jobs: int = 1,
) -> Sec54Result:
    """Run all shards (inline or in worker processes) and merge digests.

    The defaults are the *reduced* scale — the paper's 2,000-node
    university in four shards, seconds to run — so ``repro run
    sec54-mega`` (and ``run all``) stay interactive.  The full mega
    scale (50,000 nodes, 8 shards, 60-day horizon, ~3.2 M arrivals) is
    what the committed ``BENCH_test_sec54_mega.json`` baseline pins; run
    it with ``make bench-mega``.
    """
    if shards < 1:
        raise ReproError(f"shards must be >= 1, got {shards}")
    specs = [
        RunSpec(
            experiment="sec54-shard",
            params={
                "shard": shard,
                "shards": shards,
                "nodes": nodes,
                "node_capacity_gib": node_capacity_gib,
                "epoch_days": epoch_days,
            },
            seed=seed,
            horizon_days=horizon_days,
        )
        for shard in range(shards)
    ]
    outcomes = run_specs(specs, jobs=jobs)
    shard_rows: list[tuple] = []
    summary: list[tuple[int, int, int, int, int]] = []
    arrivals = 0
    dispatched = 0
    # Merge keyed by epoch index; shard-id order within each epoch (the
    # outcomes arrive in submission = shard-id order), so float folds are
    # deterministic whatever the worker scheduling was.
    merged: dict[int, list] = {}
    n_epochs = int(horizon_days / epoch_days)
    for outcome in outcomes:
        if not outcome.ok:
            raise ReproError(
                f"shard {outcome.spec.param('shard')} failed: "
                f"{outcome.error.render() if outcome.error else 'unknown'}"
            )
        shard = outcome.spec.param("shard")
        rows = outcome.rows or ()
        if len(rows) != n_epochs:
            raise ReproError(
                f"shard {shard} reported {len(rows)} epochs, expected {n_epochs}"
            )
        shard_rows.extend(rows)
        placed = rejected = 0
        for row in rows:
            (_shard, epoch, t_minutes, placed, rejected, evicted, resident,
             used, weighted, uni, stu) = row
            acc = merged.get(epoch)
            if acc is None:
                merged[epoch] = [t_minutes, placed, rejected, evicted,
                                 resident, used, weighted, uni, stu]
            else:
                if acc[0] != t_minutes:
                    raise ReproError(
                        f"epoch {epoch} barrier time skew across shards"
                    )
                acc[1] += placed
                acc[2] += rejected
                acc[3] += evicted
                acc[4] += resident
                acc[5] += used
                acc[6] += weighted
                acc[7] += uni
                acc[8] += stu
        # Every arrival is exactly one placement attempt, and the shard's
        # event loop dispatches one pump and one barrier per epoch on top.
        shard_arrivals = placed + rejected
        shard_dispatched = shard_arrivals + 2 * n_epochs
        _start, shard_nodes = shard_slice(nodes, shards, shard)
        _cstart, shard_courses = shard_slice(mega_courses(nodes), shards, shard)
        summary.append(
            (shard, shard_nodes, shard_courses, shard_arrivals, shard_dispatched)
        )
        arrivals += shard_arrivals
        dispatched += shard_dispatched
    capacity_bytes = nodes * gib(node_capacity_gib)
    epochs_out = []
    for epoch in sorted(merged):
        t_minutes, placed, rejected, evicted, resident, used, weighted, uni, stu = (
            merged[epoch]
        )
        epochs_out.append(
            (
                epoch,
                t_minutes / 1440.0,
                placed,
                rejected,
                evicted,
                resident,
                to_tib(used),
                weighted / capacity_bytes,
                to_tib(uni),
                to_tib(stu),
            )
        )
    return Sec54Result(
        nodes=nodes,
        shards=shards,
        courses=mega_courses(nodes),
        node_capacity_gib=node_capacity_gib,
        epoch_days=epoch_days,
        horizon_days=horizon_days,
        seed=seed,
        capacity_bytes=capacity_bytes,
        arrivals=arrivals,
        dispatched=dispatched,
        epochs=tuple(epochs_out),
        shard_rows=tuple(shard_rows),
        shard_summary=tuple(summary),
    )


def render(result: Sec54Result) -> str:
    """Printable mega-university report.

    Deliberately independent of ``jobs`` (and any other execution detail):
    the artifact must hash identically for inline and worker-pool runs.
    """
    head = (
        f"Section 5.4 (mega-university): {result.courses} courses on "
        f"{result.nodes} nodes in {result.shards} shards "
        f"({result.node_capacity_gib:g} GiB/node, "
        f"{to_tib(result.capacity_bytes):.1f} TiB total); "
        f"{result.horizon_days:g}-day horizon in {result.epoch_days:g}-day "
        f"epochs; {result.arrivals} arrivals"
    )
    table = TextTable(
        [
            "epoch",
            "day",
            "placed",
            "rejected",
            "evicted",
            "resident",
            "used (TiB)",
            "density",
            "university (TiB)",
            "student (TiB)",
        ],
        title="Cluster-wide per-epoch outcomes (merged across shards)",
    )
    for (epoch, day, placed, rejected, evicted, resident, used_tib, density,
         uni_tib, stu_tib) in result.epochs:
        table.add_row(
            [
                epoch,
                round(day, 1),
                placed,
                rejected,
                evicted,
                resident,
                round(used_tib, 2),
                round(density, 4),
                round(uni_tib, 2),
                round(stu_tib, 2),
            ]
        )
    shard_table = TextTable(
        ["shard", "nodes", "courses", "arrivals"],
        title="Shard partition",
    )
    for shard, shard_nodes, shard_courses, shard_arrivals, _dispatched in (
        result.shard_summary
    ):
        shard_table.add_row([shard, shard_nodes, shard_courses, shard_arrivals])
    notes = [
        "Shards simulate disjoint node/course slices independently between",
        "epoch barriers; digests merge in shard-id order, so the table is",
        "identical for --jobs 1 and --jobs N.",
    ]
    return (
        head + "\n\n" + table.render() + "\n\n" + shard_table.render()
        + "\n\n" + "\n".join(notes)
    )


def execute(spec: RunSpec) -> Sec54Result:
    """Run the mega-university from a :class:`RunSpec`."""
    return _run(**spec.call_kwargs())
