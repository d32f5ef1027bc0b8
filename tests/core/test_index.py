"""Unit tests for the incremental importance index (repro.core.index)."""

import math

import pytest

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
from repro.core.index import (
    PHASE_CONSTANT,
    PHASE_EXPIRED,
    PHASE_WANING,
    DensityAccumulator,
    ImportanceIndex,
)
from repro.core.obj import StoredObject
from repro.errors import ReproError
from tests.conftest import make_obj


class TestStableUntil:
    def test_constant_never_leaves_the_stable_prefix(self):
        assert ConstantImportance(p=0.7).stable_until == math.inf

    def test_dirac_is_trivially_stable(self):
        assert DiracImportance().stable_until == math.inf

    def test_fixed_lifetime_is_stable_to_the_cliff(self):
        fn = FixedLifetimeImportance(p=0.4, expire_after=100.0)
        assert fn.stable_until == 100.0

    def test_wane_shapes_are_stable_through_t_persist(self):
        for fn in (
            TwoStepImportance(p=0.8, t_persist=50.0, t_wane=30.0),
            ExponentialWaneImportance(p=0.8, t_persist=50.0, t_wane=30.0),
            StepWaneImportance(p=0.8, t_persist=50.0, t_wane=30.0),
        ):
            assert fn.stable_until == 50.0
            # The invariant the index relies on: exact equality inside it.
            assert fn.importance_at(50.0) == fn.initial_importance

    def test_piecewise_is_stable_to_its_first_knot(self):
        fn = PiecewiseLinearImportance([(10.0, 0.9), (20.0, 0.0)])
        assert fn.stable_until == 10.0

    def test_scaled_inherits_the_inner_prefix(self):
        inner = TwoStepImportance(p=0.8, t_persist=50.0, t_wane=30.0)
        fn = ScaledImportance(inner, 0.5)
        assert fn.stable_until == 50.0
        assert fn.importance_at(25.0) == fn.initial_importance


class TestWaneCoefficients:
    def test_two_step_wane_is_linear(self):
        fn = TwoStepImportance(p=0.8, t_persist=50.0, t_wane=40.0)
        u, v = fn.wane_coefficients()
        for age in (55.0, 70.0, 89.9):
            assert u - v * age == pytest.approx(fn.importance_at(age), rel=1e-12)

    def test_scaled_two_step_scales_the_coefficients(self):
        fn = ScaledImportance(TwoStepImportance(p=0.8, t_persist=50.0, t_wane=40.0), 0.5)
        u, v = fn.wane_coefficients()
        assert u - v * 70.0 == pytest.approx(fn.importance_at(70.0), rel=1e-12)

    def test_non_linear_wanes_decline(self):
        assert ExponentialWaneImportance(p=0.8, t_persist=1.0, t_wane=1.0).wane_coefficients() is None
        assert StepWaneImportance(p=0.8, t_persist=1.0, t_wane=1.0).wane_coefficients() is None
        assert ConstantImportance().wane_coefficients() is None
        assert TwoStepImportance(p=0.8, t_persist=1.0, t_wane=0.0).wane_coefficients() is None


class TestDensityAccumulator:
    def test_exact_mass_matches_fsum_and_cancels_exactly(self):
        acc = DensityAccumulator()
        terms = [0.1 * (i + 1) * 977 for i in range(200)]
        for i, term in enumerate(terms):
            acc.add_constant(f"o{i}", term)
        assert acc.exact_mass() == math.fsum(terms)
        assert acc.exact_mass([0.25, 1e-30]) == math.fsum(terms + [0.25, 1e-30])
        for i in range(len(terms)):
            acc.remove_constant(f"o{i}")
        assert acc.exact_mass() == 0.0

    def test_duplicate_registration_is_rejected(self):
        acc = DensityAccumulator()
        acc.add_constant("a", 1.0)
        with pytest.raises(ReproError):
            acc.add_constant("a", 2.0)
        acc.add_linear("b", 1.0, 0.5)
        with pytest.raises(ReproError):
            acc.add_linear("b", 1.0, 0.5)

    def test_closed_form_tracks_linear_terms(self):
        acc = DensityAccumulator()
        acc.add_constant("c", 10.0)
        acc.add_linear("w", 8.0, 0.5)  # 8 - 0.5 t
        assert acc.closed_form_mass(4.0) == pytest.approx(10.0 + 8.0 - 2.0)
        acc.remove_linear("w")
        assert acc.closed_form_mass(4.0) == pytest.approx(10.0)

    def test_closed_form_never_goes_negative(self):
        acc = DensityAccumulator()
        acc.add_linear("w", 1.0, 1.0)
        assert acc.closed_form_mass(100.0) == 0.0

    def test_linear_refresh_bounds_drift(self):
        acc = DensityAccumulator()
        # Heavy churn: add/remove many irrational-ish coefficients; the
        # periodic fsum refresh keeps the running sums near the truth.
        for i in range(3000):
            acc.add_linear(f"w{i}", 0.1 * (i % 97), 0.001 * (i % 89))
            if i % 2:
                acc.remove_linear(f"w{i}")
        survivors = [(0.1 * (i % 97), 0.001 * (i % 89)) for i in range(0, 3000, 2)]
        expect = math.fsum(a for a, _ in survivors) - math.fsum(b for _, b in survivors) * 7.0
        assert acc.closed_form_mass(7.0) == pytest.approx(expect, rel=1e-9)


def two_step_obj(oid, size, t_arrival, p=0.8, persist=100.0, wane=50.0):
    return StoredObject(
        size=size,
        t_arrival=t_arrival,
        lifetime=TwoStepImportance(p=p, t_persist=persist, t_wane=wane),
        object_id=oid,
    )


class TestImportanceIndexPhases:
    def test_object_walks_constant_waning_expired(self):
        index = ImportanceIndex()
        obj = two_step_obj("a", 10, t_arrival=0.0)
        index.add(obj, 0.0)
        assert index.phase_of("a") == PHASE_CONSTANT

        index.advance(100.0)  # still inside the stable prefix (age <= 100)
        assert index.phase_of("a") == PHASE_CONSTANT

        index.advance(100.5)
        assert index.phase_of("a") == PHASE_WANING

        index.advance(151.0)
        assert index.phase_of("a") == PHASE_EXPIRED
        assert index.transitions == 2
        assert index.check(151.0)

    def test_admission_mid_life_classifies_directly(self):
        index = ImportanceIndex()
        index.add(two_step_obj("w", 10, t_arrival=0.0), 120.0)
        assert index.phase_of("w") == PHASE_WANING
        index.add(two_step_obj("e", 10, t_arrival=0.0), 200.0)
        assert index.phase_of("e") == PHASE_EXPIRED

    def test_dirac_objects_are_expired_on_arrival(self):
        index = ImportanceIndex()
        index.add(make_obj(1.0, lifetime=DiracImportance(), object_id="d"), 0.0)
        assert index.phase_of("d") == PHASE_EXPIRED

    def test_constants_never_transition(self):
        index = ImportanceIndex()
        index.add(make_obj(1.0, lifetime=ConstantImportance(p=0.3), object_id="c"), 0.0)
        index.advance(1e12)
        assert index.phase_of("c") == PHASE_CONSTANT
        assert index.transitions == 0

    def test_breakpoints_are_never_processed_late(self):
        # Probe densely around the breakpoints: after advance(now) the
        # bucket must always match the predicates at exactly that now.
        index = ImportanceIndex()
        obj = two_step_obj("a", 10, t_arrival=0.123456789, persist=7.77, wane=3.33)
        index.add(obj, 0.2)
        for base in (0.123456789 + 7.77, 0.123456789 + 7.77 + 3.33):
            t = base
            for _ in range(5):
                t = math.nextafter(t, -math.inf)
            for _ in range(10):
                index.advance(t)
                assert index.check(t)
                t = math.nextafter(t, math.inf)

    def test_time_regression_rebuilds(self):
        index = ImportanceIndex()
        index.add(two_step_obj("a", 10, t_arrival=0.0), 0.0)
        index.advance(200.0)
        assert index.phase_of("a") == PHASE_EXPIRED
        index.advance(50.0)  # probing the past is allowed on read paths
        assert index.phase_of("a") == PHASE_CONSTANT
        assert index.check(50.0)

    def test_discard_and_reuse_of_an_id(self):
        index = ImportanceIndex()
        index.add(two_step_obj("a", 10, t_arrival=0.0), 0.0)
        index.discard("a")
        assert "a" not in index
        # Re-add the same id with a different lifetime: the stale heap entry
        # from the first incarnation must not corrupt the new one.
        index.add(make_obj(1.0, lifetime=ConstantImportance(p=0.5), object_id="a"), 0.0)
        index.advance(1e9)
        assert index.phase_of("a") == PHASE_CONSTANT
        assert index.check(1e9)

    def test_duplicate_add_is_rejected(self):
        index = ImportanceIndex()
        index.add(two_step_obj("a", 10, t_arrival=0.0), 0.0)
        with pytest.raises(ReproError):
            index.add(two_step_obj("a", 10, t_arrival=0.0), 0.0)


class TestExpiredObjects:
    def test_expired_objects_come_back_in_admission_order(self):
        index = ImportanceIndex()
        for oid, arrival in (("b", 5.0), ("a", 0.0), ("c", 10.0)):
            index.add(
                StoredObject(
                    size=10,
                    t_arrival=arrival,
                    lifetime=FixedLifetimeImportance(p=0.5, expire_after=20.0),
                    object_id=oid,
                ),
                arrival,
            )
        assert [o.object_id for o in index.expired_objects(100.0)] == ["b", "a", "c"]


class TestIndexMass:
    def test_exact_mass_is_bit_identical_to_the_naive_fsum(self):
        index = ImportanceIndex()
        objs = []
        for i in range(50):
            obj = two_step_obj(
                f"o{i}", 7 + 13 * i, t_arrival=1.7 * i, p=0.1 + (i % 9) * 0.1,
                persist=40.0 + i, wane=25.0,
            )
            objs.append(obj)
            index.add(obj, obj.t_arrival)
        for now in (90.0, 111.1, 143.7, 200.0, 400.0):
            naive = math.fsum(
                imp * o.size for o in objs if (imp := o.importance_at(now)) > 0.0
            )
            assert index.exact_mass(now) == naive

    def test_closed_form_tracks_the_exact_mass(self):
        index = ImportanceIndex()
        for i in range(50):
            index.add(two_step_obj(f"o{i}", 1000 + i, t_arrival=float(i)), float(i))
        for now in (50.0, 120.0, 140.0, 160.0):
            exact = index.exact_mass(now)
            assert index.closed_form_mass(now) == pytest.approx(exact, rel=1e-9, abs=1e-9)

    def test_mass_shrinks_on_discard(self):
        index = ImportanceIndex()
        index.add(make_obj(1.0, lifetime=ConstantImportance(p=0.5), object_id="a"), 0.0)
        index.add(make_obj(1.0, lifetime=ConstantImportance(p=0.25), object_id="b"), 0.0)
        before = index.exact_mass(0.0)
        index.discard("a")
        assert index.exact_mass(0.0) < before
        index.discard("b")
        assert index.exact_mass(0.0) == 0.0
