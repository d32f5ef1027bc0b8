"""Layer spans for the traced run, recorded from outside the program.

The program's layers are timed by wrapping each layer's public function
where its caller looks it up (a module global such as
``repro.besteffs.placement.sample_nodes``, or a class attribute such as
``BesteffsNode.probe``).  Every wrapped call becomes one span: an id, the
id of the span that was open when it started, its layer and its start and
end.  Spans stay in memory and are written out by :meth:`LayerTracer.dump`
after the run.

A layer's self time is its span time minus the time of the spans nested
in it.  The root span is the measured call itself, so its self time is
the wall time no layer claimed, and the self times of all layers plus the
root's add up to the root's duration.

Only synchronous functions are wrapped: the serving layers run their
coroutines on one thread, and a synchronous call never interleaves with
another, so spans always nest.
"""

from __future__ import annotations

import json
from array import array
from pathlib import Path
from time import perf_counter

#: ``(layer, self-time metric, call-count metric or None)``.  The self-time
#: metrics of all rows partition the traced wall.
LAYERS = (
    ("root", "trace.unattributed_s", None),
    ("loadgen.build", "loadgen.build_s", "loadgen.build_calls"),
    ("router.plan", "router.plan_s", "router.plan_calls"),
    ("parallel.run_specs", "parallel.run_specs_s", None),
    ("parallel.worker", "parallel.worker_s", None),
    ("ledger.merge", "ledger.merge_s", None),
    ("ledger.record", "ledger.record_s", None),
    ("service", "service.self_s", None),
    ("gateway.handle_batch", "gateway.handle_batch_s", None),
    ("auth.authorize", "auth.authorize_s", "auth.authorize_calls"),
    ("fairness", "fairness.s", None),
    ("placement", "placement.s", "placement.offers"),
    ("walks.sample", "walks.sample_s", "walks.sample_calls"),
    ("probe", "probe.s", "probe.calls"),
    ("store.offer", "store.offer_s", "store.offer_calls"),
    ("victims.plan", "victims.plan_s", "victims.plan_calls"),
    ("density", "density.s", "density.calls"),
    ("engine", "engine.self_s", None),
)

_SPAN_FIELDS = ("span", "parent", "layer", "start_s", "end_s")


class LayerTracer:
    """Wraps layer entry points and accounts their spans."""

    def __init__(self) -> None:
        self.layers = [layer for layer, _self, _calls in LAYERS]
        self._ids = {layer: i for i, layer in enumerate(self.layers)}
        #: Flat ``_SPAN_FIELDS`` records, one per finished span.
        self.spans = array("d")
        self.self_s = [0.0] * len(self.layers)
        self.calls = [0] * len(self.layers)
        #: Work counts the wrappers read off return values.
        self.counts: dict[str, float] = {}
        self._open: list[list] = []  # [span id, seconds in child spans]
        self._next_id = 0
        self._patches: list[tuple[object, str, object]] = []

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def traced(self, function, layer: str, observe=None):
        """``function`` wrapped in a span of ``layer``.

        ``observe(result, args)`` runs after a call that returned, outside
        the span, to read work counts off the result.
        """
        layer_id = self._ids[layer]
        open_spans, spans = self._open, self.spans
        self_s, calls = self.self_s, self.calls

        def wrapper(*args, **kwargs):
            span_id = self._next_id
            self._next_id = span_id + 1
            parent = open_spans[-1][0] if open_spans else -1
            frame = [span_id, 0.0]
            open_spans.append(frame)
            start = perf_counter()
            try:
                result = function(*args, **kwargs)
            finally:
                end = perf_counter()
                open_spans.pop()
                duration = end - start
                if open_spans:
                    open_spans[-1][1] += duration
                self_s[layer_id] += duration - frame[1]
                calls[layer_id] += 1
                spans.extend((span_id, parent, layer_id, start, end))
            if observe is not None:
                observe(result, args)
            return result

        wrapper.__wrapped__ = function
        return wrapper

    def patch(self, owner, attr: str, value) -> None:
        """Replace ``owner.attr`` until :meth:`uninstall`."""
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def wrap(self, owner, attr: str, layer: str, observe=None) -> None:
        """Trace ``owner.attr`` (a module global or a class attribute)."""
        self.patch(owner, attr, self.traced(vars(owner)[attr], layer, observe))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def wall_s(self) -> float:
        """Duration of the root spans (the traced calls)."""
        root = self._ids["root"]
        spans = self.spans
        return sum(
            spans[i + 4] - spans[i + 3]
            for i in range(0, len(spans), len(_SPAN_FIELDS))
            if spans[i + 2] == root
        )

    def layer_metrics(self) -> dict[str, float]:
        """Self time and call count of every layer, by metric name."""
        metrics: dict[str, float] = {}
        for (layer, self_metric, calls_metric), seconds, calls in zip(
            LAYERS, self.self_s, self.calls
        ):
            metrics[self_metric] = seconds
            if calls_metric is not None:
                metrics[calls_metric] = calls
        return metrics

    def dump(self, stem: Path) -> None:
        """Write the spans as ``<stem>.f64`` (native float64 records of
        ``_SPAN_FIELDS``) with a ``<stem>.json`` header naming the fields
        and the layer ids."""
        stem.parent.mkdir(parents=True, exist_ok=True)
        header = {
            "fields": _SPAN_FIELDS,
            "layers": self.layers,
            "spans": len(self.spans) // len(_SPAN_FIELDS),
        }
        stem.with_suffix(".json").write_text(json.dumps(header) + "\n")
        with stem.with_suffix(".f64").open("wb") as out:
            self.spans.tofile(out)


class _ModuleProxy:
    """Stands in for a module whose ``run`` is wrapped; the rest delegates."""

    def __init__(self, module, run) -> None:
        self._module = module
        self.run = run

    def __getattr__(self, name: str):
        return getattr(self._module, name)


def install_layers(tracer: LayerTracer) -> None:
    """Wrap every layer's entry point where its caller looks it up."""
    import asyncio

    import repro.besteffs.cluster as cluster_mod
    import repro.besteffs.placement as placement_mod
    import repro.core.policies.temporal as temporal_mod
    import repro.serve.loadgen as loadgen_mod
    import repro.serve.sharded as sharded_mod
    import repro.sim.parallel as parallel_mod
    import repro.sim.shard as shard_mod
    from repro.besteffs.auth import CapabilityRealm
    from repro.besteffs.fairness import FairShareLedger
    from repro.besteffs.gateway import BesteffsGateway
    from repro.besteffs.node import BesteffsNode
    from repro.core.store import StorageUnit
    from repro.serve.ledger import ServeLedger
    from repro.serve.service import GatewayService
    from repro.sim.engine import SimulationEngine

    def routes(result, _args):
        plan, router = result
        tracer.count("router.routed", len(plan))
        tracer.count("router.spilled", router.spilled_total)

    def decision(result, _args):
        decision, _node = result
        tracer.count("placement.rounds", decision.rounds_used)
        tracer.count("probe.in_offers", decision.nodes_probed)
        if not decision.placed:
            tracer.count("probe.futile", decision.nodes_probed)

    def admission(result, _args):
        if result.admitted:
            tracer.count("store.admits")
            tracer.count("store.evictions", len(result.evictions))

    def charged_one(_result, _args):
        tracer.count("fairness.charged")

    def charged_many(_result, args):
        tracer.count("fairness.charged", len(args[2]))

    def refunded(_result, _args):
        tracer.count("fairness.refunds")

    def events(result, _args):
        tracer.count("engine.events", result)

    tracer.wrap(loadgen_mod, "build_requests", "loadgen.build")
    tracer.wrap(sharded_mod, "build_requests", "loadgen.build")
    tracer.wrap(sharded_mod, "plan_routes", "router.plan", routes)
    install_pool_layers(tracer)
    tracer.wrap(parallel_mod, "execute_spec", "parallel.worker")
    tracer.wrap(ServeLedger, "record", "ledger.record")
    service_run = tracer.traced(asyncio.run, "service")
    for module in (loadgen_mod, sharded_mod):
        tracer.patch(module, "asyncio", _ModuleProxy(asyncio, service_run))
    tracer.wrap(GatewayService, "_handle_batch", "service")
    tracer.wrap(GatewayService, "_finish", "service")
    tracer.wrap(BesteffsGateway, "handle_batch", "gateway.handle_batch")
    tracer.wrap(CapabilityRealm, "authorize_store", "auth.authorize")
    tracer.wrap(FairShareLedger, "charge", "fairness", charged_one)
    tracer.wrap(FairShareLedger, "charge_many", "fairness", charged_many)
    tracer.wrap(FairShareLedger, "refund", "fairness", refunded)
    tracer.wrap(cluster_mod, "choose_unit", "placement", decision)
    tracer.wrap(placement_mod, "sample_nodes", "walks.sample")
    tracer.wrap(BesteffsNode, "probe", "probe")
    tracer.wrap(StorageUnit, "offer", "store.offer", admission)
    tracer.wrap(temporal_mod, "plan_preemptive_admission", "victims.plan")
    tracer.wrap(shard_mod, "importance_density", "density")
    tracer.wrap(cluster_mod, "importance_density", "density")
    tracer.wrap(SimulationEngine, "run", "engine", events)


def install_pool_layers(tracer: LayerTracer) -> None:
    """Wrap the parent side of the shard pool: ``run_specs`` and the merge.

    Pooled workers start from a fresh import, so nothing inside them is
    traced; their own walls come back in the outcomes and are counted as
    ``parallel.worker_wall``.
    """
    import repro.experiments.sec54_mega as mega_mod
    import repro.serve.sharded as sharded_mod

    def outcomes(result, _args):
        tracer.count("parallel.worker_wall", sum(o.wall_seconds for o in result))

    tracer.wrap(sharded_mod, "run_specs", "parallel.run_specs", outcomes)
    tracer.wrap(mega_mod, "run_specs", "parallel.run_specs", outcomes)
    tracer.wrap(sharded_mod, "merge_ledger_lines", "ledger.merge")


def derived_metrics(tracer: LayerTracer) -> dict[str, float]:
    """Ratios over the counts the wrappers collected (0 where unused)."""
    counts = tracer.counts

    def ratio(numerator: str, denominator: float) -> float:
        return counts.get(numerator, 0) / denominator if denominator else 0.0

    offers = tracer.calls[tracer._ids["placement"]]
    return {
        "router.spill_share": ratio("router.spilled", counts.get("router.routed", 0)),
        "placement.rounds_per_offer": ratio("placement.rounds", offers),
        "probe.per_offer": ratio("probe.in_offers", offers),
        "probe.futile_share": ratio("probe.futile", counts.get("probe.in_offers", 0)),
        "store.evictions": counts.get("store.evictions", 0),
        "store.evictions_per_admit": ratio(
            "store.evictions", counts.get("store.admits", 0)
        ),
        "fairness.refund_share": ratio(
            "fairness.refunds", counts.get("fairness.charged", 0)
        ),
        "engine.events": counts.get("engine.events", 0),
    }
