"""Scan-everything stand-in for :class:`repro.core.index.ImportanceIndex`.

The differential oracle for the store's only acceleration structure.  It
answers the same questions by looking at every resident, the way the
paper states them:

* :meth:`greedy_victims` always declines, so
  :func:`~repro.core.admission.plan_preemptive_admission` falls back to
  sorting all residents in the paper's victim order;
* :meth:`exact_mass` / :meth:`closed_form_mass` are the correctly rounded
  ``fsum`` of ``importance * size`` over the residents;
* :meth:`expired_objects` filters the residents in admission order.

Twin-store suites install it on one store of each pair with
:func:`reference_unit`; whole-experiment parity runs patch it over
``repro.core.store.ImportanceIndex``.
"""

from __future__ import annotations

import math

from repro.core.obj import ObjectId, StoredObject
from repro.core.store import StorageUnit


class ReferenceIndex:
    """Same interface as ``ImportanceIndex``; every answer is a full scan."""

    def __init__(self) -> None:
        self._obj: dict[ObjectId, StoredObject] = {}

    def add(self, obj: StoredObject, now: float) -> None:
        assert obj.object_id not in self._obj, f"{obj.object_id!r} added twice"
        self._obj[obj.object_id] = obj

    def discard(self, object_id: ObjectId) -> None:
        self._obj.pop(object_id, None)

    def greedy_victims(self, now: float, needed: int) -> None:
        return None

    def exact_mass(self, now: float) -> float:
        return math.fsum(
            importance * obj.size
            for obj in self._obj.values()
            if (importance := obj.importance_at(now)) > 0.0
        )

    closed_form_mass = exact_mass

    def expired_objects(self, now: float) -> list[StoredObject]:
        return [obj for obj in self._obj.values() if obj.is_expired_at(now)]


def reference_unit(capacity_bytes: int, policy, **kwargs) -> StorageUnit:
    """A fresh :class:`StorageUnit` answering through :class:`ReferenceIndex`."""
    store = StorageUnit(capacity_bytes, policy, **kwargs)
    store.importance_index = ReferenceIndex()
    return store
