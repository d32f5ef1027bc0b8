"""Incremental importance index: phase sets + closed-form density mass.

The paper's temporal importance functions are *structured*: every resident
is, at any instant, in exactly one of three phases —

* **constant** — its age is within ``lifetime.stable_until``, so its
  current importance equals its initial importance ``p`` exactly;
* **waning** — past the stable prefix but not expired; importance must be
  re-evaluated per probe (linear for the two-step function);
* **expired** — importance identically zero.

Phase membership only changes at an object's two breakpoints, so instead of
re-sorting all residents per pressured arrival (``plan_preemptive_admission``)
and rescanning them per density probe, :class:`ImportanceIndex` keeps

* each resident's phase, plus the waning set and the expired set;
* a min-heap of upcoming phase-transition times; :meth:`advance` pops only
  the objects that crossed a breakpoint since the last call (amortised
  O(log n) per resident per lifetime — each object transitions at most
  twice);
* a :class:`DensityAccumulator` so the size-weighted importance mass is
  available in O(waning) exactly, or O(dynamic) via the closed form
  ``C + A - B * t``.

Victim selection is a lazy k-way merge over statically ordered resident
groups (:mod:`repro.core.victims`) fed by the expired phase.  The result is
provably the same greedy prefix the naive full sort produces (see
docs/performance.md for the argument), so plans — and therefore artifacts —
are byte-identical.

Floating-point discipline
-------------------------

The index is held to *bit-exact* agreement with the naive path:

* Transition times are scheduled two ulps **early** (never late): a popped
  object is re-classified against the same predicates
  (``is_expired_at`` / age vs ``stable_until``) the naive path evaluates,
  and re-armed one ulp ahead when the predicate has not flipped yet.  After
  :meth:`advance`, every resident's phase matches its predicate phase at
  ``now``.
* The exact mass keeps constant-phase terms as a Shewchuk non-overlapping
  expansion (the ``math.fsum`` trick, made incremental): adding or removing
  a term updates the expansion without rounding, so
  ``fsum(partials + waning terms)`` equals ``fsum`` over all per-object
  terms — exactly what the naive scan computes.
"""

from __future__ import annotations

import heapq
import math
from bisect import bisect_left, insort
from itertools import count
from typing import Iterable

from repro.core.obj import ObjectId, StoredObject
from repro.core.victims import GroupedResidents
from repro.errors import ReproError

__all__ = [
    "DensityAccumulator",
    "ImportanceIndex",
    "PHASE_CONSTANT",
    "PHASE_WANING",
    "PHASE_EXPIRED",
]

PHASE_CONSTANT = "constant"
PHASE_WANING = "waning"
PHASE_EXPIRED = "expired"


def _two_ulps_earlier(t: float) -> float:
    """Nudge a breakpoint two ulps toward -inf (schedule early, never late)."""
    return math.nextafter(math.nextafter(t, -math.inf), -math.inf)


class DensityAccumulator:
    """Incremental size-weighted importance mass.

    Tracks per-object terms ``importance * size`` in two compartments:

    * **constant** terms, exact: a Shewchuk non-overlapping float expansion
      (``_partials``) whose real-valued sum equals the real-valued sum of
      the registered terms.  :meth:`exact_mass` feeds the expansion plus
      any caller-supplied waning terms to :func:`math.fsum`, which is
      therefore bit-identical to ``fsum`` over the individual terms.
    * **linear** terms ``a - b * t`` (waning objects with a linear wane),
      approximate: plain running sums ``A``/``B`` refreshed periodically
      with ``fsum`` to bound drift.  :meth:`closed_form_mass` evaluates
      ``C + A - B * t`` in O(1).
    """

    def __init__(self) -> None:
        self._partials: list[float] = []
        self._const_terms: dict[ObjectId, float] = {}
        self._const_total: float | None = None
        self._linear: dict[ObjectId, tuple[float, float]] = {}
        self._a = 0.0
        self._b = 0.0
        self._linear_mutations = 0

    def __len__(self) -> int:
        return len(self._const_terms) + len(self._linear)

    # -- exact constant compartment ---------------------------------------

    def _grow(self, x: float) -> None:
        """Add ``x`` to the expansion without rounding (Shewchuk grow)."""
        partials = self._partials
        i = 0
        for y in partials:
            if abs(x) < abs(y):
                x, y = y, x
            hi = x + y
            lo = y - (hi - x)
            if lo:
                partials[i] = lo
                i += 1
            x = hi
        partials[i:] = [x]
        self._const_total = None

    def add_constant(self, object_id: ObjectId, term: float) -> None:
        """Register a constant-phase term (``p * size``, caller-rounded)."""
        if object_id in self._const_terms:
            raise ReproError(f"{object_id!r} already has a constant term")
        self._const_terms[object_id] = term
        self._grow(term)

    def remove_constant(self, object_id: ObjectId) -> None:
        """Drop a constant term (idempotent); cancels exactly."""
        term = self._const_terms.pop(object_id, None)
        if term is not None:
            self._grow(-term)

    # -- approximate linear compartment -----------------------------------

    def add_linear(self, object_id: ObjectId, a: float, b: float) -> None:
        """Register a waning term contributing ``a - b * now``."""
        if object_id in self._linear:
            raise ReproError(f"{object_id!r} already has a linear term")
        self._linear[object_id] = (a, b)
        self._a += a
        self._b += b
        self._note_linear_mutation()

    def remove_linear(self, object_id: ObjectId) -> None:
        """Drop a linear term (idempotent)."""
        coeffs = self._linear.pop(object_id, None)
        if coeffs is not None:
            self._a -= coeffs[0]
            self._b -= coeffs[1]
            self._note_linear_mutation()

    def _note_linear_mutation(self) -> None:
        # Running +/- sums accumulate rounding drift; re-derive them with
        # fsum once enough churn has passed to amortise the O(n) cost.
        self._linear_mutations += 1
        if self._linear_mutations >= 1024 and self._linear_mutations >= 4 * len(self._linear):
            self._a = math.fsum(a for a, _ in self._linear.values())
            self._b = math.fsum(b for _, b in self._linear.values())
            self._linear_mutations = 0

    # -- probes ------------------------------------------------------------

    def exact_mass(self, extra_terms: Iterable[float] = ()) -> float:
        """Correctly-rounded sum of constant terms plus ``extra_terms``.

        Bit-identical to ``math.fsum`` over the individual constant terms
        followed by ``extra_terms``, in any order.
        """
        terms = list(self._partials)
        terms.extend(extra_terms)
        return math.fsum(terms)

    def closed_form_mass(self, now: float, extra: float = 0.0) -> float:
        """O(1) approximate mass ``C + A - B * now`` (+ ``extra``), >= 0."""
        if self._const_total is None:
            self._const_total = math.fsum(self._partials)
        return max(0.0, self._const_total + (self._a - self._b * now) + extra)


class ImportanceIndex:
    """Residents partitioned by annotation phase, advanced lazily in time.

    The index mirrors a :class:`~repro.core.store.StorageUnit`'s resident
    set: the store calls :meth:`add` on admission and :meth:`discard` on any
    eviction, and read paths call :meth:`advance` (directly or via the
    probe methods) before trusting phase membership.  Time may regress
    (tests probe stores at arbitrary instants); the index then rebuilds
    from scratch rather than guessing.
    """

    def __init__(self) -> None:
        self.accumulator = DensityAccumulator()
        self._now = -math.inf
        self._seq = count()
        self._obj: dict[ObjectId, StoredObject] = {}
        self._phase: dict[ObjectId, str] = {}
        self._seq_of: dict[ObjectId, int] = {}
        # Waning / expired phases (constant-phase objects are the rest).
        self._waning: dict[ObjectId, StoredObject] = {}
        self._dynamic: dict[ObjectId, StoredObject] = {}  # non-linear wanes
        self._expired: dict[ObjectId, StoredObject] = {}
        #: Expired residents sorted by (t_arrival, object_id) — the exact
        #: victim order among expired objects (all share the key
        #: ``(0.0, 0.0)``), fed to the grouped merge as one ready stream.
        self._expired_sorted: list[tuple[float, ObjectId, StoredObject]] = []
        # Pending breakpoints: (scheduled time, admission seq, id).  Entries
        # are invalidated lazily — a popped entry whose seq no longer
        # matches the live object is skipped.
        self._heap: list[tuple[float, int, ObjectId]] = []
        #: Residents grouped by identical annotation; answers the greedy
        #: victim-prefix query lazily (see :mod:`repro.core.victims`).
        self.groups = GroupedResidents()
        #: Phase moves processed so far (monotonic; for tests/diagnostics).
        self.transitions = 0

    # -- introspection -----------------------------------------------------

    def __len__(self) -> int:
        return len(self._obj)

    def __contains__(self, object_id: ObjectId) -> bool:
        return object_id in self._obj

    def phase_of(self, object_id: ObjectId) -> str:
        """Current phase of a tracked object (advance first for freshness)."""
        try:
            return self._phase[object_id]
        except KeyError:
            raise ReproError(f"{object_id!r} is not indexed") from None

    @property
    def constant_count(self) -> int:
        return len(self._obj) - len(self._waning) - len(self._expired)

    @property
    def waning_count(self) -> int:
        return len(self._waning)

    @property
    def expired_count(self) -> int:
        return len(self._expired)

    # -- classification ----------------------------------------------------

    @staticmethod
    def _classify(obj: StoredObject, now: float) -> str:
        """Phase by the same predicates the naive path evaluates at ``now``."""
        if obj.is_expired_at(now):
            return PHASE_EXPIRED
        if obj.age_at(now) <= obj.lifetime.stable_until:
            return PHASE_CONSTANT
        return PHASE_WANING

    @staticmethod
    def _stable_end_abs(obj: StoredObject) -> float:
        stable = obj.lifetime.stable_until
        if math.isinf(stable):
            return math.inf
        return _two_ulps_earlier(obj.t_arrival + stable)

    @staticmethod
    def _expire_sched_abs(obj: StoredObject) -> float:
        expire = obj.lifetime.t_expire
        if math.isinf(expire):
            return math.inf
        return _two_ulps_earlier(obj.t_arrival + expire)

    # -- membership --------------------------------------------------------

    def add(self, obj: StoredObject, now: float) -> None:
        """Track a freshly admitted resident."""
        oid = obj.object_id
        if oid in self._obj:
            raise ReproError(f"{oid!r} is already indexed")
        self.advance(now)
        self._obj[oid] = obj
        self._seq_of[oid] = next(self._seq)
        self.groups.add(obj)
        self._place(oid, obj, self._classify(obj, now), now)

    def discard(self, object_id: ObjectId) -> None:
        """Stop tracking an object (idempotent) — call on any eviction."""
        obj = self._obj.pop(object_id, None)
        if obj is None:
            return
        self.groups.discard(object_id)
        self._remove_from_phase(object_id, obj)
        del self._seq_of[object_id]

    def _place(self, oid: ObjectId, obj: StoredObject, phase: str, now: float) -> None:
        self._phase[oid] = phase
        if phase == PHASE_CONSTANT:
            p = obj.lifetime.initial_importance
            if p > 0.0:
                self.accumulator.add_constant(oid, p * obj.size)
            self._arm(oid, self._stable_end_abs(obj), now)
        elif phase == PHASE_WANING:
            self._waning[oid] = obj
            coeffs = obj.lifetime.wane_coefficients()
            if coeffs is None:
                self._dynamic[oid] = obj
            else:
                # importance(now) = u - v * (now - t_arrival), so the term
                # importance * size contributes a - b*now with b = v*size.
                u, v = coeffs
                b = v * obj.size
                self.accumulator.add_linear(oid, u * obj.size + b * obj.t_arrival, b)
            self._arm(oid, self._expire_sched_abs(obj), now)
        else:
            self._expired[oid] = obj
            entry = (obj.t_arrival, oid, obj)
            stream = self._expired_sorted
            if not stream or (stream[-1][0], stream[-1][1]) < (entry[0], entry[1]):
                stream.append(entry)
            else:
                insort(stream, entry)

    def _remove_from_phase(self, oid: ObjectId, obj: StoredObject) -> str:
        phase = self._phase.pop(oid)
        if phase == PHASE_CONSTANT:
            self.accumulator.remove_constant(oid)
        elif phase == PHASE_WANING:
            del self._waning[oid]
            if self._dynamic.pop(oid, None) is None:
                self.accumulator.remove_linear(oid)
        else:
            del self._expired[oid]
            stream = self._expired_sorted
            i = bisect_left(stream, (obj.t_arrival, oid))
            if i >= len(stream) or stream[i][1] != oid:
                raise ReproError(f"{oid!r} missing from the expired stream")
            del stream[i]
        return phase

    def _arm(self, oid: ObjectId, t: float, now: float) -> None:
        if math.isinf(t):
            return
        if t <= now:
            t = math.nextafter(now, math.inf)
        heapq.heappush(self._heap, (t, self._seq_of[oid], oid))

    # -- time --------------------------------------------------------------

    def advance(self, now: float) -> None:
        """Process every breakpoint at or before ``now``.

        Afterwards each tracked object's phase equals its predicate phase
        at ``now``.  A regressing clock triggers a full rebuild.
        """
        if now < self._now:
            self._rebuild(now)
            return
        self._now = now
        heap = self._heap
        while heap and heap[0][0] <= now:
            _, seq, oid = heapq.heappop(heap)
            obj = self._obj.get(oid)
            if obj is None or self._seq_of[oid] != seq:
                continue  # entry from an evicted (possibly re-added) object
            old = self._phase[oid]
            new = self._classify(obj, now)
            if new == old:
                # Popped a hair before the predicate flips (breakpoints are
                # scheduled two ulps early): re-arm one ulp ahead and retry.
                if old == PHASE_CONSTANT:
                    self._arm(oid, self._stable_end_abs(obj), now)
                elif old == PHASE_WANING:
                    self._arm(oid, self._expire_sched_abs(obj), now)
                continue
            self._remove_from_phase(oid, obj)
            self._place(oid, obj, new, now)
            self.transitions += 1

    def _rebuild(self, now: float) -> None:
        objs = self._obj
        self.accumulator = DensityAccumulator()
        self._phase.clear()
        self._waning.clear()
        self._dynamic.clear()
        self._expired.clear()
        self._expired_sorted = []
        self._heap = []
        self._now = now
        # Time regressed: previously-skipped "expired prefixes" inside the
        # victim groups may be live again at the earlier instant.
        self.groups.reset_cursors()
        for oid, obj in objs.items():
            self._place(oid, obj, self._classify(obj, now), now)

    # -- read paths --------------------------------------------------------

    def greedy_victims(
        self, now: float, needed: int
    ) -> tuple[list[StoredObject], float, int] | None:
        """The exact greedy victim prefix for ``needed`` bytes, lazily.

        Advances the phase machinery to ``now`` (so the expired stream is
        current), then delegates to :meth:`GroupedResidents.greedy_victims`:
        a k-way merge over the expired stream, statically ordered annotation
        groups and integer-grid superfamilies that evaluates importance only
        for merge heads, returning ``(victims, highest, freed)`` with the
        victims in exact paper order.  Returns None when superfamily
        exactness cannot be guaranteed at this ``now`` (non-integer time or
        time before a family member's arrival) — callers fall back to
        sorting every resident.
        """
        self.advance(now)
        return self.groups.greedy_victims(
            now, needed, phases=self._phase, expired=self._expired_sorted
        )

    def expired_objects(self, now: float) -> list[StoredObject]:
        """Expired residents in admission order (matches a naive scan)."""
        self.advance(now)
        seq_of = self._seq_of
        return sorted(self._expired.values(), key=lambda o: seq_of[o.object_id])

    def exact_mass(self, now: float) -> float:
        """Size-weighted importance mass, bit-identical to the naive fsum."""
        self.advance(now)
        extra = []
        for obj in self._waning.values():
            importance = obj.importance_at(now)
            if importance > 0.0:
                extra.append(importance * obj.size)
        return self.accumulator.exact_mass(extra)

    def closed_form_mass(self, now: float) -> float:
        """O(1)+O(dynamic) approximate mass via ``C + A - B * now``."""
        self.advance(now)
        extra = 0.0
        for obj in self._dynamic.values():
            importance = obj.importance_at(now)
            if importance > 0.0:
                extra += importance * obj.size
        return self.accumulator.closed_form_mass(now, extra)

    # -- diagnostics -------------------------------------------------------

    def check(self, now: float) -> bool:
        """Verify every structural invariant at ``now`` (test helper)."""
        self.advance(now)
        n = len(self._obj)
        if n != len(self._phase) or n != len(self._seq_of):
            raise ReproError("index phase map does not cover the tracked objects")
        for phase, members in ((PHASE_WANING, self._waning), (PHASE_EXPIRED, self._expired)):
            if members.keys() != {oid for oid, ph in self._phase.items() if ph == phase}:
                raise ReproError(f"the {phase} set disagrees with the phase map")
        for oid, obj in self._obj.items():
            phase = self._phase[oid]
            if phase != self._classify(obj, now):
                raise ReproError(f"{oid!r} is tracked as {phase} but classifies otherwise")
            if phase == PHASE_CONSTANT:
                if obj.importance_at(now) != obj.lifetime.initial_importance:
                    raise ReproError(f"{oid!r} importance drifted inside its constant phase")
        stream = self._expired_sorted
        if len(stream) != len(self._expired) or any(
            stream[i][:2] >= stream[i + 1][:2] for i in range(len(stream) - 1)
        ):
            raise ReproError("expired stream is out of sync with the expired set")
        if any(oid not in self._expired for _, oid, _obj in stream):
            raise ReproError("expired stream holds a non-expired object")
        return True
