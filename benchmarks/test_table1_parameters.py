"""Bench: Table 1 — lifetime parameters for the lecture capture system."""

from benchmarks.conftest import run_once
from repro.experiments import table1_parameters as mod
from repro.sim.parallel import RunSpec


def test_table1_parameters(benchmark, save_artifact):
    result = run_once(benchmark, mod.execute, RunSpec("table1"))

    rows = {term: (begin, persist, wane) for term, begin, persist, wane in result.rows}
    # The regenerated table must match the published one exactly.
    assert rows == {
        "Spring": (8, "120 - today", 730.0),
        "Summer": (150, "210 - today", 365.0),
        "Fall": (248, "360 - today", 850.0),
    }

    # Every example annotation respects t_persist = term_end - today.
    for term, examples in result.examples.items():
        for doy, persist, _wane in examples:
            term_end = {"spring": 120, "summer": 210, "fall": 360}[term]
            assert persist == term_end - doy

    save_artifact("table1", mod.render(result))
