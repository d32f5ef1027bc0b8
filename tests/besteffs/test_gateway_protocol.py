"""Tests for the gateway's redesigned request/response surface.

The legacy ``store()`` behaviour is pinned in ``test_gateway.py``; this
module covers :meth:`BesteffsGateway.handle` — the protocol statuses,
retry-after hints, obs refusal counters, the read-only ``refusals`` shim,
the deprecation of ``store()``, and the refund path's ledger-balance
bit-exactness under a randomized request stream.
"""

import random

import pytest

from repro import obs
from repro.besteffs.auth import CapabilityRealm
from repro.besteffs.cluster import BesteffsCluster
from repro.besteffs.fairness import FairShareLedger, annotation_cost
from repro.besteffs.gateway import BesteffsGateway
from repro.besteffs.placement import PlacementConfig
from repro.core.importance import ConstantImportance
from repro.serve.protocol import StoreRequest, StoreStatus
from repro.units import days, gib
from tests.conftest import make_obj


def build_gateway(nodes=4, node_gib=2.0, budget_objects=3.01):
    cluster = BesteffsCluster(
        {f"n{i}": gib(node_gib) for i in range(nodes)},
        placement=PlacementConfig(x=min(4, nodes), m=2),
        seed=1,
    )
    realm = CapabilityRealm(b"protocol-gateway")
    ledger = FairShareLedger(
        budget_per_period=annotation_cost(make_obj(1.0)) * budget_objects,
        period_minutes=days(30),
    )
    return BesteffsGateway(cluster=cluster, realm=realm, ledger=ledger)


def request_for(gateway, size_gib=1.0, principal="camera-1", **cap_kwargs):
    cap = gateway.realm.mint(principal, **cap_kwargs)
    return StoreRequest(capability=cap, obj=make_obj(size_gib))


class TestHandleStatuses:
    def test_admitted(self):
        gateway = build_gateway()
        request = request_for(gateway)
        response = gateway.handle(request)
        assert response.status is StoreStatus.ADMITTED
        assert response.request_id == request.request_id
        assert response.stored
        assert response.decision is not None and response.decision.placed
        assert response.detail == f"placed on {response.decision.node_id}"
        assert response.cost_charged == annotation_cost(request.obj)
        assert response.retry_after is None

    def test_now_defaults_to_arrival_time(self):
        gateway = build_gateway()
        cap = gateway.realm.mint("camera-1")
        obj = make_obj(1.0, t_arrival=days(31))  # second budget period
        assert gateway.handle(StoreRequest(capability=cap, obj=obj)).stored
        assert gateway.ledger.spent("camera-1", days(31)) > 0.0
        assert gateway.ledger.spent("camera-1", 0.0) == 0.0

    def test_rejected_auth(self):
        gateway = build_gateway()
        request = request_for(
            gateway, principal="student", max_initial_importance=0.5
        )
        response = gateway.handle(request)
        assert response.status is StoreStatus.REJECTED_AUTH
        assert not response.stored
        assert response.refused_by == "auth"
        assert "ceiling" in response.detail
        assert response.cost_charged == 0.0
        assert response.retry_after is None
        assert gateway.ledger.spent("student", 0.0) == 0.0
        assert gateway.cluster.resident_count() == 0

    def test_rejected_fairness_hints_next_period(self):
        gateway = build_gateway(budget_objects=1.5)
        cap = gateway.realm.mint("camera-1")
        now = 100.0
        assert gateway.handle(
            StoreRequest(capability=cap, obj=make_obj(1.0)), now=now
        ).stored
        response = gateway.handle(
            StoreRequest(capability=cap, obj=make_obj(1.0)), now=now
        )
        assert response.status is StoreStatus.REJECTED_FAIRNESS
        assert response.refused_by == "fairness"
        assert "remain this period" in response.detail
        # Retrying makes sense once the budget refreshes.
        assert response.retry_after == days(30) - (now % days(30))

    def test_rejected_fairness_no_hint_for_persistent_objects(self):
        gateway = build_gateway()
        cap = gateway.realm.mint("camera-1")
        forever = make_obj(0.1, lifetime=ConstantImportance(0.8))
        response = gateway.handle(StoreRequest(capability=cap, obj=forever))
        assert response.status is StoreStatus.REJECTED_FAIRNESS
        assert "persistent" in response.detail
        assert response.retry_after is None  # retry is futile, say so

    def test_rejected_placement_refunds(self):
        gateway = build_gateway(budget_objects=100.0)
        cap = gateway.realm.mint("filler")
        while True:
            request = StoreRequest(capability=cap, obj=make_obj(1.0))
            if not gateway.handle(request).stored:
                break
        response = gateway.handle(request)  # frozen request is reusable
        assert response.status is StoreStatus.REJECTED_PLACEMENT
        assert response.detail == "cluster full for this object's importance"
        assert response.decision is not None and not response.decision.placed
        assert response.cost_charged == 0.0
        # The refund restored the balance to exactly the admitted total.
        admitted = gateway.cluster.resident_count()
        assert gateway.ledger.spent("filler", 0.0) == pytest.approx(
            annotation_cost(make_obj(1.0)) * admitted
        )


class TestRefusalCounters:
    def trip_all_gates(self, gateway):
        gateway.handle(
            request_for(gateway, principal="student", max_initial_importance=0.5)
        )
        cap = gateway.realm.mint("camera-1")
        gateway.handle(
            StoreRequest(
                capability=cap, obj=make_obj(0.1, lifetime=ConstantImportance(1.0))
            )
        )
        big = gateway.realm.mint("filler")
        for _ in range(64):
            if not gateway.handle(
                StoreRequest(capability=big, obj=make_obj(1.0))
            ).stored:
                break

    def test_refusals_shim_counts_per_gate(self):
        gateway = build_gateway(budget_objects=100.0)
        self.trip_all_gates(gateway)
        assert gateway.refusals["auth"] == 1
        assert gateway.refusals["fairness"] == 1
        assert gateway.refusals["placement"] == 1

    def test_refusals_shim_is_read_only(self):
        gateway = build_gateway()
        with pytest.raises(TypeError):
            gateway.refusals["auth"] = 99
        assert dict(gateway.refusals) == {"auth": 0, "fairness": 0, "placement": 0}

    def test_obs_counter_mirrors_the_shim(self):
        obs.reset()
        obs.enable()
        try:
            gateway = build_gateway(budget_objects=100.0)
            self.trip_all_gates(gateway)
            counter = obs.STATE.registry.get("gateway_refusals_total")
            assert counter is not None
            for gate in ("auth", "fairness", "placement"):
                assert counter.value(gate=gate) == gateway.refusals[gate]
        finally:
            obs.disable()
            obs.reset()

    def test_disabled_obs_registers_nothing(self):
        obs.reset()
        gateway = build_gateway()
        self.trip_all_gates(gateway)
        assert len(obs.STATE.registry) == 0


class TestRefundBitExactness:
    """The ledger balance must be *bit-exact* against a shadow replay.

    The refund path is ``bucket = max(0.0, bucket - cost)`` against a
    balance built by ``bucket = bucket + cost``; replaying the identical
    float operations in the identical order must land on the identical
    bits — any drift means the gateway charged and refunded different
    quantities, or reordered the arithmetic.
    """

    def test_randomized_stream_balances_exactly(self):
        rng = random.Random(20260807)
        # A cramped cluster and a tight budget so admissions, placement
        # refusals (charge-then-refund) and fairness refusals all occur;
        # every tenth object is too big for any single node, which forces
        # the charge-then-refund arm even while the budget still has room.
        gateway = build_gateway(nodes=2, node_gib=1.0, budget_objects=2.5)
        cap = gateway.realm.mint("noisy")
        statuses = set()
        shadow = 0.0
        for i in range(200):
            size = 1.5 if i % 10 == 3 else rng.uniform(0.05, 0.4)
            obj = make_obj(size, object_id=f"rand-{i}")
            cost = annotation_cost(obj)
            response = gateway.handle(StoreRequest(capability=cap, obj=obj))
            statuses.add(response.status)
            if response.status is StoreStatus.ADMITTED:
                shadow = shadow + cost
            elif response.status is StoreStatus.REJECTED_PLACEMENT:
                shadow = max(0.0, (shadow + cost) - cost)
            else:
                assert response.status is StoreStatus.REJECTED_FAIRNESS
            # Exact equality on every step, not approx: the refund path
            # must not smear the balance.
            assert gateway.ledger.spent("noisy", 0.0) == shadow
        # The stream must actually have exercised all three arms.
        assert StoreStatus.ADMITTED in statuses
        assert StoreStatus.REJECTED_PLACEMENT in statuses
        assert StoreStatus.REJECTED_FAIRNESS in statuses
