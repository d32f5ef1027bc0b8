"""Resident bookkeeping against a scan of the residents dict.

The store once mirrored its residents in an array-backed slab beside the
dict of objects.  The slab is gone: the dict is the only resident layout,
with an incremental per-creator byte tally kept by offer and eviction and
expiry sweeps served by the index's expired phase.  The slab-era twin
check stays: under both index settings, a store fed a randomized workload
must report exactly what a plain scan of its residents dict gives —
occupancy, per-creator bytes, and expired residents leaving in admission
order.  ``indexed=False`` runs the scan-everything reference index, so the
oracle the differential suites lean on is held to the same scan.
"""

import random

import pytest

from repro.core.obj import StoredObject
from repro.core.policies.temporal import TemporalImportancePolicy
from repro.core.store import StorageUnit
from tests.core.test_index_differential import random_lifetime
from tests.reference_index import reference_unit

CAPACITY = 50_000
CREATORS = ("university", "student", "archive")


def _scan_bytes_by_creator(store):
    scan = {}
    for obj in store._residents.values():
        scan[obj.creator] = scan.get(obj.creator, 0) + obj.size
    return scan


def _step(rng, step, now, store):
    action = rng.random()
    if action < 0.70:
        obj = StoredObject(
            size=rng.randint(100, 6000),
            t_arrival=now,
            lifetime=random_lifetime(rng),
            object_id=f"o-{step}",
            creator=rng.choice(CREATORS),
        )
        before = set(store._residents)
        res = store.offer(obj, now)
        after = set(store._residents)
        evicted = [r.obj.object_id for r in res.evictions]
        assert len(evicted) == len(set(evicted)), f"step {step}"
        expected = (before - set(evicted)) | ({obj.object_id} if res.admitted else set())
        assert after == expected, f"step {step}"
    elif action < 0.85:
        due = [oid for oid, o in store._residents.items() if o.is_expired_at(now)]
        records = store.reclaim_expired(now)
        assert [r.obj.object_id for r in records] == due, f"step {step}"
        assert all(r.reason == "expired" for r in records), f"step {step}"
        assert not any(oid in store for oid in due), f"step {step}"
    elif len(store):
        victim = rng.choice(sorted(store._residents))
        record = store.remove(victim, now)
        assert record.obj.object_id == victim, f"step {step}"
        assert victim not in store, f"step {step}"


@pytest.mark.parametrize("seed", [11, 404])
@pytest.mark.parametrize("indexed", [True, False])
def test_slab_layout_matches_dict_layout(seed, indexed):
    """Twin a store against a scan of its residents dict (both index settings)."""
    rng = random.Random(seed)
    make = StorageUnit if indexed else reference_unit
    store = make(CAPACITY, TemporalImportancePolicy(), name="dict")

    now = 0.0
    for step in range(900):
        now += rng.uniform(0.0, 25.0)
        _step(rng, step, now, store)
        assert store.used_bytes == sum(
            o.size for o in store._residents.values()
        ), f"step {step}"
        assert store.used_bytes <= CAPACITY, f"step {step}"
        assert store.bytes_by_creator() == _scan_bytes_by_creator(store), f"step {step}"
    assert [o.object_id for o in store.iter_residents()] == list(store._residents)
