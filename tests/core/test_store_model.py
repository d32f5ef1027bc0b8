"""Stateful model test: a store and its scan-everything twin in lockstep.

A hypothesis :class:`RuleBasedStateMachine` drives one
:class:`~repro.core.store.StorageUnit` on the real importance index and
one on :class:`~tests.reference_index.ReferenceIndex` through the same
operations: offers of every annotation kind at integer and fractional
times, manual removals, expiry sweeps, forward time jumps and a single
clock regression.  Fractional times are the only input that makes the
index's victim merge decline, so they exercise the full-sort planner on
the indexed store too.

After every step the machine checks the paper's store invariants and
that both stores agree bit for bit:

* used bytes never exceed capacity;
* every preempted victim has importance 0 at eviction, or importance
  strictly below the incoming object's current importance;
* density stays in ``[0, 1]``;
* plans, evictions and densities are identical to the reference.
"""

import math

from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from repro.core.density import importance_density
from repro.core.importance import (
    ConstantImportance,
    DiracImportance,
    ExponentialWaneImportance,
    FixedLifetimeImportance,
    PiecewiseLinearImportance,
    ScaledImportance,
    StepWaneImportance,
    TwoStepImportance,
)
from repro.core.obj import StoredObject
from repro.core.policies.temporal import TemporalImportancePolicy
from repro.core.store import StorageUnit
from tests.core.test_index_differential import assert_evictions_equal, assert_plans_equal
from tests.reference_index import reference_unit

CAPACITY = 10_000

importances = st.sampled_from((0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0))
#: Annotation durations on the integer-minute grid or off it.
durations = st.one_of(
    st.integers(min_value=0, max_value=400).map(float),
    st.floats(min_value=0.0, max_value=400.0, allow_nan=False),
)
positive_durations = durations.map(lambda d: d or 1.0)


@st.composite
def piecewise(draw):
    gaps = draw(st.lists(st.integers(min_value=1, max_value=150), min_size=1, max_size=3))
    values = sorted(draw(st.lists(importances, min_size=len(gaps), max_size=len(gaps))))
    ages = [float(sum(gaps[: i + 1])) for i in range(len(gaps))]
    return PiecewiseLinearImportance(
        list(zip(ages, reversed(values))) + [(ages[-1] + 50.0, 0.0)]
    )


lifetimes = st.one_of(
    st.builds(ConstantImportance, p=importances),
    st.builds(DiracImportance),
    st.builds(FixedLifetimeImportance, p=importances, expire_after=durations),
    st.builds(TwoStepImportance, p=importances, t_persist=durations, t_wane=durations),
    st.builds(
        ExponentialWaneImportance, p=importances, t_persist=durations,
        t_wane=positive_durations,
    ),
    st.builds(
        StepWaneImportance, p=importances, t_persist=durations,
        t_wane=positive_durations, steps=st.integers(min_value=1, max_value=4),
    ),
    piecewise(),
    st.builds(
        ScaledImportance,
        st.builds(TwoStepImportance, p=importances, t_persist=durations, t_wane=durations),
        st.sampled_from((0.25, 0.5, 0.75)),
    ),
)


class StoreVersusReference(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.fast = StorageUnit(CAPACITY, TemporalImportancePolicy(), name="fast")
        self.naive = reference_unit(CAPACITY, TemporalImportancePolicy(), name="naive")
        self.now = 0.0
        self.regressed = False
        self.step = 0

    @rule(
        lifetime=lifetimes,
        size=st.integers(min_value=1_000, max_value=6_000),
        fraction=st.one_of(st.none(), st.floats(min_value=0.01, max_value=0.99)),
    )
    def offer(self, lifetime, size, fraction):
        # Integer offers land on the next whole minute, fractional ones
        # just past the current time.
        self.now = float(math.ceil(self.now)) if fraction is None else self.now + fraction
        self.step += 1
        obj = StoredObject(
            size=size, t_arrival=self.now, lifetime=lifetime, object_id=f"m-{self.step}"
        )
        incoming = obj.importance_at(self.now)
        assert_plans_equal(
            self.naive.peek_admission(obj, self.now),
            self.fast.peek_admission(obj, self.now),
            self.step,
        )
        res_n = self.naive.offer(obj, self.now)
        res_f = self.fast.offer(obj, self.now)
        assert res_n.admitted == res_f.admitted
        assert_plans_equal(res_n.plan, res_f.plan, self.step)
        assert_evictions_equal(res_n.evictions, res_f.evictions, self.step)
        for record in res_f.evictions:
            assert record.reason == "preempted"
            importance = record.importance_at_eviction
            assert importance == 0.0 or importance < incoming

    @precondition(lambda self: len(self.fast) > 0)
    @rule(pick=st.integers(min_value=0, max_value=10**6))
    def remove(self, pick):
        ids = list(self.fast._residents)
        victim = ids[pick % len(ids)]
        assert_evictions_equal(
            [self.naive.remove(victim, self.now)],
            [self.fast.remove(victim, self.now)],
            self.step,
        )

    @rule()
    def reclaim_expired(self):
        assert_evictions_equal(
            self.naive.reclaim_expired(self.now),
            self.fast.reclaim_expired(self.now),
            self.step,
        )

    @rule(minutes=st.integers(min_value=1, max_value=500))
    def jump_forward(self, minutes):
        self.now += minutes

    @precondition(lambda self: not self.regressed and self.now >= 1.0)
    @rule(back=st.floats(min_value=0.0, max_value=0.9))
    def regress_clock(self, back):
        self.regressed = True
        self.now = float(math.floor(self.now * back))

    @invariant()
    def stores_agree(self):
        for store in (self.fast, self.naive):
            assert 0 <= store.used_bytes <= CAPACITY
        assert list(self.naive._residents) == list(self.fast._residents)
        assert self.naive.used_bytes == self.fast.used_bytes
        d_fast = importance_density(self.fast, self.now)
        assert 0.0 <= d_fast <= 1.0
        assert d_fast == importance_density(self.naive, self.now)


StoreVersusReference.TestCase.settings = settings(
    max_examples=40,
    stateful_step_count=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
TestStoreVersusReference = StoreVersusReference.TestCase
