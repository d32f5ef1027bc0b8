"""Curated public facade of the reproduction package.

Everything a library user needs sits behind one import::

    from repro.api import RunSpec, StorageUnit, TwoStepImportance, run_specs

The facade is intentionally small and explicit: each name here is a
stable entry point whose signature we keep compatible across PRs, while
the submodules underneath remain free to reorganise.  Three layers are
exposed:

* **core model** — annotated objects, importance functions, storage
  units and eviction policies (:mod:`repro.core`);
* **simulation** — the engine/recorder/runner trio for driving a
  scenario directly (:mod:`repro.sim`), plus the Besteffs cluster for
  distributed (Section 5.3) runs;
* **run-spec API** — :class:`RunSpec` and the parallel sweep executor
  (:mod:`repro.sim.parallel`), the single way to describe and execute a
  named experiment; ``run_experiment(RunSpec("fig6"))`` returns the same
  result object the experiment module's ``execute`` does;
* **serving** — the :mod:`repro.serve` request/response protocol
  (:class:`StoreRequest`/:class:`StoreResponse`), the synchronous
  :func:`serve` helper over a gateway, and the
  :class:`LoadGenSpec`/:func:`run_loadgen` load-generator pair, whose
  every run is a :func:`run_sharded` run (see ``docs/serving.md``).
"""

from __future__ import annotations

from repro.besteffs import (
    BesteffsCluster,
    BesteffsGateway,
    BesteffsNode,
    CapabilityRealm,
    ClusterStats,
    FairShareLedger,
)
from repro.core import (
    Annotation,
    EvictionPolicy,
    ImportanceFunction,
    PalimpsestPolicy,
    StorageUnit,
    StoreStats,
    StoredObject,
    TemporalImportancePolicy,
    TwoStepImportance,
    importance_density,
)
from repro.experiments.registry import run_experiment
from repro.obs.alerts import AlertEngine, AlertRule, load_rules
from repro.obs.audit import AuditLedger, AuditRecord
from repro.obs.traceexport import (
    SpanExporter,
    SpanRecord,
    TraceArchive,
    trace_id_for,
)
from repro.report.explain import explain_object, load_run_ledger
from repro.report.flamegraph import (
    CriticalPathResult,
    critical_path,
    render_flamegraph_html,
    write_flamegraph,
)
from repro.sim import Recorder, ScenarioResult, SimulationEngine, run_single_store
from repro.sim.parallel import (
    ObsOptions,
    RunError,
    RunOutcome,
    RunSpec,
    execute_spec,
    expand_sweep,
    run_specs,
    seed_for,
)
from repro.sim.runner import feed_arrivals
from repro.serve import (
    GatewayService,
    LoadGenReport,
    LoadGenSpec,
    RouterConfig,
    ServeConfig,
    StoreRequest,
    StoreResponse,
    StoreStatus,
    home_shard,
    plan_routes,
    run_loadgen,
    run_sharded,
    serve,
)

__all__ = [
    # core model
    "Annotation",
    "EvictionPolicy",
    "ImportanceFunction",
    "PalimpsestPolicy",
    "StorageUnit",
    "StoreStats",
    "StoredObject",
    "TemporalImportancePolicy",
    "TwoStepImportance",
    "importance_density",
    # simulation
    "BesteffsCluster",
    "BesteffsNode",
    "ClusterStats",
    "Recorder",
    "ScenarioResult",
    "SimulationEngine",
    "feed_arrivals",
    "run_single_store",
    # run-spec API
    "ObsOptions",
    "RunError",
    "RunOutcome",
    "RunSpec",
    "execute_spec",
    "expand_sweep",
    "run_experiment",
    "run_specs",
    "seed_for",
    # decision provenance + SLO alerts
    "AlertEngine",
    "AlertRule",
    "AuditLedger",
    "AuditRecord",
    "explain_object",
    "load_rules",
    "load_run_ledger",
    # distributed traces + flamegraphs
    "CriticalPathResult",
    "SpanExporter",
    "SpanRecord",
    "TraceArchive",
    "critical_path",
    "render_flamegraph_html",
    "trace_id_for",
    "write_flamegraph",
    # serving (repro.serve)
    "BesteffsGateway",
    "CapabilityRealm",
    "FairShareLedger",
    "GatewayService",
    "LoadGenReport",
    "LoadGenSpec",
    "RouterConfig",
    "ServeConfig",
    "StoreRequest",
    "StoreResponse",
    "StoreStatus",
    "home_shard",
    "plan_routes",
    "run_loadgen",
    "run_sharded",
    "serve",
]
