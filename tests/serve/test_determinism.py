"""Determinism pin: a seeded loadgen run maps to one byte-exact ledger.

The serving stack is only a faithful reproduction harness if outcome
state never depends on wall-clock scheduling.  These tests run the same
seeded spec twice (with fresh auto object-ids between runs) and demand
byte-identical canonical ledgers — the regression tripwire for anyone
who lets ``perf_counter`` or host ordering leak into the request path.
"""

import json

from repro.core.obj import reset_object_ids
from repro.serve.ledger import ServeLedger, merge_ledger_lines
from repro.serve.loadgen import LoadGenSpec, run_loadgen
from repro.serve.protocol import StoreRequest, StoreResponse, StoreStatus
from repro.besteffs.auth import CapabilityRealm
from tests.conftest import make_obj


def run_twice(spec):
    reset_object_ids()
    first = run_loadgen(spec)
    reset_object_ids()
    second = run_loadgen(spec)
    return first, second


class TestSeededReplays:
    def test_closed_loop_ledger_is_byte_identical(self):
        spec = LoadGenSpec(
            workload="university", mode="closed", clients=4, nodes=4,
            horizon_days=10.0, scale=0.005, seed=7, max_requests=80,
        )
        first, second = run_twice(spec)
        assert first.ledger.canonical_bytes() == second.ledger.canonical_bytes()
        assert first.ledger.canonical_sha256() == second.ledger.canonical_sha256()

    def test_open_loop_with_shedding_is_byte_identical(self):
        spec = LoadGenSpec(
            workload="downloads", mode="open", clients=1, nodes=1,
            horizon_days=20.0, seed=3, queue_size=8, batch_max=4,
            open_burst=16, max_requests=300,
        )
        first, second = run_twice(spec)
        # The run must actually shed for this pin to mean anything.
        assert first.shed_by_reason.get("queue-full", 0) > 0
        assert first.ledger.canonical_bytes() == second.ledger.canonical_bytes()

    def test_rate_limited_run_is_byte_identical(self):
        spec = LoadGenSpec(
            workload="university", mode="closed", clients=2, nodes=2,
            horizon_days=10.0, scale=0.005, seed=11, max_requests=80,
            rate_per_minute=0.05, rate_burst=2.0,
        )
        first, second = run_twice(spec)
        assert first.shed_by_reason.get("ratelimit", 0) > 0
        assert first.ledger.canonical_bytes() == second.ledger.canonical_bytes()


class TestCanonicalForm:
    def make_ledger(self):
        realm = CapabilityRealm(b"canonical-tests")
        cap = realm.mint("cam")
        ledger = ServeLedger()
        # Record out of submission order, as batching does.
        for seq in (1, 0):
            obj = make_obj(0.1, t_arrival=float(seq), object_id=f"obj-{seq}")
            ledger.record(
                StoreRequest(capability=cap, obj=obj),
                StoreResponse(
                    request_id=f"req-obj-{seq}",
                    status=StoreStatus.ADMITTED,
                    detail="placed on n0",
                ),
                t_submit=float(seq),
                t_decided=2.0,
                seq=seq,
            )
        # The writer only records; its frozen form owns the bytes.
        return merge_ledger_lines(ledger.keyed_lines())

    def test_header_line_and_entry_order(self):
        lines = self.make_ledger().canonical_bytes().decode().splitlines()
        assert json.loads(lines[0]) == {
            "format": "repro-serve-ledger/1",
            "entries": 2,
        }
        seqs = [json.loads(line)["seq"] for line in lines[1:]]
        assert seqs == [0, 1]  # sorted by submission seq, not append order

    def test_no_wallclock_fields_anywhere(self):
        lines = self.make_ledger().canonical_bytes().decode().splitlines()
        for line in lines[1:]:
            entry = json.loads(line)
            assert set(entry) == {
                "seq", "t_submit", "t_decided", "request", "response",
            }
            assert set(entry["request"]) == {
                "request_id", "principal", "object_id", "size", "creator",
                "t_arrival", "deadline",
            }
            assert set(entry["response"]) == {
                "request_id", "status", "detail", "node_id", "cost_charged",
                "retry_after",
            }

    def test_write_jsonl_is_the_canonical_bytes(self, tmp_path):
        ledger = self.make_ledger()
        path = ledger.write_jsonl(tmp_path / "out" / "ledger.jsonl")
        assert path.read_bytes() == ledger.canonical_bytes()

    def test_keys_are_sorted_within_each_line(self):
        for line in self.make_ledger().canonical_bytes().decode().splitlines():
            obj = json.loads(line)
            assert list(obj) == sorted(obj)
