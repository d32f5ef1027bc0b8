"""Unit tests for the storage unit (capacity, admission, records)."""

import pytest

from repro.core.importance import FixedLifetimeImportance
from repro.core.policies.temporal import TemporalImportancePolicy
from repro.core.store import StorageUnit
from repro.errors import CapacityError, UnknownObjectError
from repro.units import days, gib
from tests.conftest import make_obj


class TestConstruction:
    def test_rejects_non_positive_capacity(self):
        with pytest.raises(CapacityError):
            StorageUnit(0, TemporalImportancePolicy())
        with pytest.raises(CapacityError):
            StorageUnit(-5, TemporalImportancePolicy())

    def test_rejects_float_capacity(self):
        with pytest.raises(CapacityError):
            StorageUnit(1.5e9, TemporalImportancePolicy())

    def test_starts_empty(self, temporal_store):
        assert temporal_store.used_bytes == 0
        assert temporal_store.free_bytes == temporal_store.capacity_bytes
        assert len(temporal_store) == 0
        assert temporal_store.utilization() == 0.0


class TestOffer:
    def test_admits_into_free_space(self, temporal_store):
        result = temporal_store.offer(make_obj(1.0), 0.0)
        assert result.admitted
        assert result.plan.reason == "free-space"
        assert temporal_store.used_bytes == gib(1)
        assert temporal_store.accepted_count == 1

    def test_rejects_duplicate_ids(self, temporal_store):
        obj = make_obj(1.0)
        temporal_store.offer(obj, 0.0)
        with pytest.raises(CapacityError, match="already stored"):
            temporal_store.offer(obj, 1.0)

    def test_rejects_oversized_object(self, temporal_store):
        result = temporal_store.offer(make_obj(11.0), 0.0)
        assert not result.admitted
        assert result.plan.reason == "object-too-large"

    def test_rejection_has_no_side_effects(self, temporal_store):
        for _ in range(10):
            temporal_store.offer(make_obj(1.0), 0.0)
        residents_before = sorted(o.object_id for o in temporal_store.iter_residents())
        result = temporal_store.offer(make_obj(1.0), 0.0)  # same importance: full
        assert not result.admitted
        residents_after = sorted(o.object_id for o in temporal_store.iter_residents())
        assert residents_before == residents_after
        assert temporal_store.rejected_count == 1
        assert temporal_store.rejections[0].reason == "full-for-importance"

    def test_preemption_is_atomic(self, temporal_store):
        for _ in range(10):
            temporal_store.offer(make_obj(1.0, t_arrival=0.0), 0.0)
        now = days(20)  # residents waned to ~0.67
        result = temporal_store.offer(make_obj(2.0, t_arrival=now), now)
        assert result.admitted
        assert len(result.evictions) == 2
        assert temporal_store.used_bytes == gib(10)
        assert temporal_store.resident_count == 9

    def test_capacity_never_exceeded(self, temporal_store):
        now = 0.0
        for i in range(50):
            temporal_store.offer(make_obj(0.7, t_arrival=now), now)
            assert temporal_store.used_bytes <= temporal_store.capacity_bytes
            now += days(1)


class TestEvictionRecords:
    def test_preemption_record_fields(self, temporal_store):
        victim = make_obj(10.0, t_arrival=0.0)
        temporal_store.offer(victim, 0.0)
        now = days(22.5)  # importance exactly 0.5
        winner = make_obj(1.0, t_arrival=now)
        result = temporal_store.offer(winner, now)
        assert result.admitted
        record = result.evictions[0]
        assert record.obj is victim
        assert record.t_evicted == now
        assert record.importance_at_eviction == pytest.approx(0.5)
        assert record.achieved_lifetime == pytest.approx(days(22.5))
        assert record.requested_lifetime == days(30)
        assert record.reason == "preempted"
        assert record.preempted_by == winner.object_id
        assert record.unit == temporal_store.name

    def test_history_retention_toggle(self):
        store = StorageUnit(
            gib(2), TemporalImportancePolicy(), keep_history=False
        )
        store.offer(make_obj(1.0), 0.0)
        store.remove(next(store.iter_residents()).object_id, days(1))
        assert store.evictions == []  # history off
        assert store.evicted_count == 1  # counters always on

    def test_callbacks_fire(self, temporal_store):
        evicted, rejected = [], []
        temporal_store.on_eviction = evicted.append
        temporal_store.on_rejection = rejected.append
        temporal_store.offer(make_obj(10.0), 0.0)
        temporal_store.offer(make_obj(1.0), 0.0)  # rejected: full at same importance
        assert len(rejected) == 1
        temporal_store.offer(make_obj(1.0, t_arrival=days(20)), days(20))
        assert len(evicted) == 1


class TestRemoveAndSweep:
    def test_manual_remove(self, temporal_store):
        obj = make_obj(1.0)
        temporal_store.offer(obj, 0.0)
        record = temporal_store.remove(obj.object_id, days(3))
        assert record.reason == "manual"
        assert temporal_store.used_bytes == 0
        assert obj.object_id not in temporal_store

    def test_remove_unknown_raises(self, temporal_store):
        with pytest.raises(UnknownObjectError):
            temporal_store.remove("ghost", 0.0)

    def test_reclaim_expired_sweeps_only_expired(self, temporal_store):
        short = make_obj(
            1.0, lifetime=FixedLifetimeImportance(p=1.0, expire_after=days(1))
        )
        long = make_obj(
            1.0, lifetime=FixedLifetimeImportance(p=1.0, expire_after=days(100))
        )
        temporal_store.offer(short, 0.0)
        temporal_store.offer(long, 0.0)
        records = temporal_store.reclaim_expired(days(2))
        assert [r.obj.object_id for r in records] == [short.object_id]
        assert long.object_id in temporal_store

    def test_expired_ids_come_back_in_admission_order(self, temporal_store):
        # Admission order x, a, b, c; arrival order differs from it.
        for oid, t_arrival, expire in (
            ("x", 0.0, 5.0), ("a", 3.0, 7.0), ("b", 0.0, 10.0), ("c", 1.0, 9.0),
        ):
            temporal_store.offer(
                make_obj(
                    1.0,
                    t_arrival=t_arrival,
                    lifetime=FixedLifetimeImportance(p=0.5, expire_after=expire),
                    object_id=oid,
                ),
                t_arrival,
            )
        temporal_store.remove("x", 3.0)
        assert temporal_store.reclaim_expired(9.999) == ()
        records = temporal_store.reclaim_expired(10.0)
        assert [r.obj.object_id for r in records] == ["a", "b", "c"]

    def test_expired_objects_squat_without_pressure(self, temporal_store):
        obj = make_obj(1.0)
        temporal_store.offer(obj, 0.0)
        # Way past expiry, but nothing arrived: the object is still there.
        assert obj.object_id in temporal_store
        assert temporal_store.get(obj.object_id).is_expired_at(days(100))


class TestStats:
    def test_snapshot_reflects_counters_and_occupancy(self, temporal_store):
        temporal_store.offer(make_obj(1.0), 0.0)
        for _ in range(9):
            temporal_store.offer(make_obj(1.0), 0.0)
        temporal_store.offer(make_obj(1.0), 0.0)  # full at same importance
        stats = temporal_store.stats()
        assert stats.unit == temporal_store.name
        assert stats.capacity_bytes == temporal_store.capacity_bytes
        assert stats.used_bytes == gib(10)
        assert stats.resident_count == 10
        assert stats.accepted_count == 10
        assert stats.rejected_count == 1
        assert stats.bytes_accepted == gib(10)
        assert stats.bytes_rejected == gib(1)
        assert stats.offered_count == 11
        assert stats.free_bytes == 0
        assert stats.utilization == 1.0

    def test_snapshot_is_frozen_and_detached(self, temporal_store):
        temporal_store.offer(make_obj(1.0), 0.0)
        stats = temporal_store.stats()
        with pytest.raises(AttributeError):
            stats.used_bytes = 0
        temporal_store.offer(make_obj(1.0), 0.0)
        assert stats.used_bytes == gib(1)  # old snapshot unchanged
        assert temporal_store.stats().used_bytes == gib(2)

    def test_snapshot_counts_evictions(self, temporal_store):
        temporal_store.offer(make_obj(10.0, t_arrival=0.0), 0.0)
        now = days(22.5)
        temporal_store.offer(make_obj(1.0, t_arrival=now), now)
        stats = temporal_store.stats()
        assert stats.evicted_count == 1
        assert stats.bytes_evicted == gib(10)
        assert stats.accepted_count == stats.resident_count + stats.evicted_count


class TestQueries:
    def test_get_unknown_raises(self, temporal_store):
        with pytest.raises(UnknownObjectError):
            temporal_store.get("ghost")

    def test_touch_updates_last_access(self, temporal_store):
        obj = make_obj(1.0)
        temporal_store.offer(obj, 0.0)
        assert temporal_store.last_access(obj.object_id) == 0.0
        temporal_store.touch(obj.object_id, days(2))
        assert temporal_store.last_access(obj.object_id) == days(2)

    def test_touch_unknown_raises(self, temporal_store):
        with pytest.raises(UnknownObjectError):
            temporal_store.touch("ghost", 0.0)

    def test_bytes_by_creator_tracks_increments(self, temporal_store):
        temporal_store.offer(make_obj(1.0, object_id="a", creator="u"), 0.0)
        temporal_store.offer(make_obj(2.0, object_id="b", creator="s"), 0.0)
        temporal_store.offer(make_obj(3.0, object_id="c", creator="u"), 0.0)
        assert temporal_store.bytes_by_creator() == {"u": gib(4), "s": gib(2)}
        temporal_store.remove("a", 0.0)
        assert temporal_store.bytes_by_creator() == {"u": gib(3), "s": gib(2)}
        temporal_store.remove("c", 0.0)
        # Creators with no resident bytes left vanish from the tally.
        assert temporal_store.bytes_by_creator() == {"s": gib(2)}

    def test_bytes_by_creator_agrees_with_a_resident_scan(self, temporal_store):
        for i, creator in enumerate(("university", "student", "university")):
            temporal_store.offer(make_obj(1.0 + i, object_id=f"o{i}", creator=creator), 0.0)
        scan = {}
        for resident in temporal_store.iter_residents():
            scan[resident.creator] = scan.get(resident.creator, 0) + resident.size
        assert temporal_store.bytes_by_creator() == scan == {
            "university": gib(4), "student": gib(2),
        }

    def test_iter_residents_is_snapshot(self, temporal_store):
        temporal_store.offer(make_obj(1.0), 0.0)
        iterator = temporal_store.iter_residents()
        temporal_store.offer(make_obj(1.0), 0.0)
        assert len(list(iterator)) == 1  # snapshot taken at call time

    def test_peek_admission_does_not_mutate(self, temporal_store):
        temporal_store.offer(make_obj(10.0), 0.0)
        plan = temporal_store.peek_admission(make_obj(1.0, t_arrival=days(20)), days(20))
        assert plan.admit and plan.victims
        assert temporal_store.resident_count == 1  # still there

    def test_repr_mentions_policy_and_usage(self, temporal_store):
        temporal_store.offer(make_obj(1.0), 0.0)
        text = repr(temporal_store)
        assert "temporal-importance" in text
        assert "residents=1" in text
