"""The request/response JSONL ledger of a serving run.

Every request the service answers — admitted, rejected, shed or expired —
appends one entry pairing the request's canonical form with the
response's.  The ledger follows the trace archive's canonical-bytes
discipline (:mod:`repro.obs.traceexport`): one ``json.dumps(...,
sort_keys=True)`` object per line, entries ordered by submission
sequence, **simulation-time fields only**.  Wall-clock latencies live in
the obs histograms and the loadgen report, never here — so a seeded
closed-loop run writes a byte-identical ledger on every invocation (the
determinism pin in ``tests/serve/test_determinism.py``).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

from repro.serve.protocol import StoreRequest, StoreResponse

__all__ = ["ServeLedgerEntry", "ServeLedger", "FrozenServeLedger", "merge_ledger_lines"]

_FORMAT = "repro-serve-ledger/1"


@dataclass(frozen=True)
class ServeLedgerEntry:
    """One answered request: submit/decide sim-times plus both halves."""

    seq: int
    t_submit: float
    t_decided: float
    request: StoreRequest
    response: StoreResponse

    def to_dict(self) -> dict[str, object]:
        return {
            "seq": self.seq,
            "t_submit": self.t_submit,
            "t_decided": self.t_decided,
            "request": self.request.canonical_dict(),
            "response": self.response.canonical_dict(),
        }


@dataclass
class ServeLedger:
    """Append-only writer of every request/response pair of one service.

    Recording keeps the typed entries and serializes nothing, so the serve
    loop never pays for JSON.  Once the loop is over,
    :meth:`keyed_lines` dumps each entry exactly once; every hash, report
    and file is then built from those lines by :class:`FrozenServeLedger`.
    """

    _entries: list[ServeLedgerEntry] = field(default_factory=list)

    def record(
        self,
        request: StoreRequest,
        response: StoreResponse,
        *,
        t_submit: float,
        t_decided: float,
        seq: int | None = None,
    ) -> ServeLedgerEntry:
        """Append one pair; ``seq`` is the submission sequence number.

        When omitted it defaults to the append position, which is only
        correct for callers that record strictly in submission order (the
        service passes its own submit counter, since shed responses are
        recorded immediately while queued ones wait for their batch).
        """
        entry = ServeLedgerEntry(
            seq=len(self._entries) if seq is None else seq,
            t_submit=t_submit,
            t_decided=t_decided,
            request=request,
            response=response,
        )
        self._entries.append(entry)
        return entry

    def __len__(self) -> int:
        return len(self._entries)

    def keyed_lines(self) -> list[tuple[int, str]]:
        """``(seq, canonical JSON line)`` pairs sorted by submission seq.

        Entries are appended in decision order, which under batching can
        interleave; sorting by seq makes two runs that answered the same
        requests produce the same lines.  This is the picklable form a
        shard ships back for the parent's :func:`merge_ledger_lines`.
        """
        return [
            (e.seq, json.dumps(e.to_dict(), sort_keys=True))
            for e in sorted(self._entries, key=lambda e: e.seq)
        ]


@dataclass(frozen=True)
class FrozenServeLedger:
    """The run-wide, read-only ledger: the one canonical-bytes form.

    Every serving run records per-shard :class:`ServeLedger`\\ s whose
    entries carry *global* sequence numbers; the parent merges their
    :meth:`ServeLedger.keyed_lines` back into one ledger.  Only the
    canonical lines survive the merge (the typed request/response
    objects stay in the workers), which is exactly what reports, hashing
    and ``write_jsonl`` need.
    """

    lines: tuple[str, ...]

    def __len__(self) -> int:
        return len(self.lines)

    def canonical_bytes(self) -> bytes:
        """The run-invariant byte form: header line + one line per entry."""
        header = json.dumps(
            {"format": _FORMAT, "entries": len(self.lines)}, sort_keys=True
        )
        return ("\n".join([header, *self.lines]) + "\n").encode("utf-8")

    def canonical_sha256(self) -> str:
        return hashlib.sha256(self.canonical_bytes()).hexdigest()

    def entry_dicts(self) -> list[dict]:
        """Parsed entry objects, for report post-processing."""
        return [json.loads(line) for line in self.lines]

    def write_jsonl(self, path: str | Path) -> Path:
        """Write the canonical JSONL form to ``path`` and return it."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(self.canonical_bytes())
        return path


def merge_ledger_lines(
    keyed_lines: "list[tuple[int, str]]",
) -> FrozenServeLedger:
    """Merge ``(seq, line)`` pairs from any number of shards into one ledger.

    Sorting by the global sequence number makes the merge independent of
    shard count, shard order and worker scheduling: the same request
    stream produces byte-identical canonical bytes at any ``--jobs``.
    """
    ordered = sorted(keyed_lines, key=lambda pair: pair[0])
    seqs = [seq for seq, _line in ordered]
    if len(set(seqs)) != len(seqs):
        raise ValueError("duplicate ledger sequence numbers across shards")
    return FrozenServeLedger(lines=tuple(line for _seq, line in ordered))

