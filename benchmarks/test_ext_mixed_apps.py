"""Extension bench: different applications sharing one store.

The paper defers multi-application interference to future work
(Section 1); this bench runs it and checks the contract the annotations
imply: strict service ordering by importance, with the cheap classes
absorbing the pressure.
"""

from benchmarks.conftest import run_once
from repro.experiments import ext_mixed_apps as mod
from repro.sim.parallel import RunSpec


def test_ext_mixed_apps(benchmark, save_artifact):
    result = run_once(
        benchmark,
        mod.execute,
        RunSpec("ext-mixed", params={"capacity_gib": 40}, seed=42, horizon_days=365.0),
    )

    archiver = result.per_class["archiver"]
    reporter = result.per_class["reporter"]
    cache = result.per_class["cache"]

    # Service strictly follows the importance order under shared pressure.
    assert archiver["rejection_rate"] < reporter["rejection_rate"] < cache["rejection_rate"]

    # The top class keeps a solid fraction of its requested lifetime even
    # while the shared disk runs hot.
    assert archiver["mean_satisfaction"] > 0.4
    assert result.mean_density > 0.8

    # Nobody starves completely: even the cache class stores some objects.
    assert cache["admitted"] > 0

    save_artifact("ext_mixed_apps", mod.render(result))
