"""How fast the host runs the interpreter right now.

On a shared virtual machine the speed of a CPU-bound Python process
drifts by a fifth or more over minutes, as other tenants come and go: a
call that takes 1.7 s in one minute takes 2.6 s a few minutes later, with
its CPU time moving with its wall.  A median over one run cannot remove a
drift that lasts longer than the run.

``measure`` times a fixed pure-Python block, independent of the program
and made of the kinds of work the program does (objects, a heap, dicts,
sorting, sha256, canonical JSON), and returns the median block time.
``rep.py`` calls it in every set-up and measured repetition; ``run.py``
divides each end-to-end time, and multiplies each rate, by the run's
median block time over ``REFERENCE_S``, so that the metrics read as on a
host running at the reference speed, and prints the raw figures beside.
"""

from __future__ import annotations

import hashlib
import heapq
import json
import random
import statistics
from time import perf_counter

#: Median block time that defines the reference speed: a 2-vCPU Xeon
#: virtual machine at 2.0 GHz takes about this long when undisturbed.
REFERENCE_S = 0.033
#: Blocks per call; their median is the call's figure.
BLOCKS = 15
#: Items per block.
ITEMS = 7500


class _Item:
    __slots__ = ("key", "size", "owner")

    def __init__(self, key: int, size: float, owner: str) -> None:
        self.key = key
        self.size = size
        self.owner = owner


def _block(seed: int) -> int:
    rng = random.Random(seed)
    heap: list = []
    by_owner: dict[str, float] = {}
    live: dict[int, _Item] = {}
    digest = 0
    for key in range(ITEMS):
        item = _Item(key, rng.random(), f"owner-{rng.randrange(64)}")
        heapq.heappush(heap, (item.size, key, item))
        live[key] = item
        by_owner[item.owner] = by_owner.get(item.owner, 0.0) + item.size
        if len(heap) > 256:
            _size, old, gone = heapq.heappop(heap)
            del live[old]
            by_owner[gone.owner] -= gone.size
        if key % 8 == 0:
            body = json.dumps({"key": key, "owner": item.owner, "size": item.size},
                              sort_keys=True, separators=(",", ":"))
            digest ^= hashlib.sha256(body.encode()).digest()[0]
    ranked = sorted(live.values(), key=lambda it: (it.owner, -it.size))
    return digest ^ len(ranked) ^ len(by_owner)


def measure() -> float:
    """Median time of one calibration block, in seconds."""
    times = []
    for seed in range(BLOCKS):
        start = perf_counter()
        _block(seed)
        times.append(perf_counter() - start)
    return statistics.median(times)
