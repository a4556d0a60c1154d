"""Space-Saving [MAE06] — counter-based frequent-items baseline.

Keeps exactly S counters; a new item evicts the current *minimum*
counter and inherits its count plus one.  Guarantees, for S = ⌈1/ε⌉:

    f_e <= count_e <= f_e + min_count   and   min_count <= m/S <= εm,

i.e. a (one-sided-overestimate) εm-accurate tracker — the symmetric
counterpart to Misra-Gries' underestimates.  Included because the
paper's related-work compares counter-based schemes, and because its
*overestimates* make a useful contrast in the E9 accuracy tables.

Implementation: a dict of counters plus a min-heap holding exactly one
``(count_at_push, item)`` entry per counter, so memory is O(S).
Increments touch only the dict; an entry may lag its item's true count,
and eviction refreshes lagging entries at the top of the heap until the
top is current — that entry is the true ``(count, item)`` minimum.
Amortized O(log S) per item, charged sequentially (depth = work).
"""

from __future__ import annotations

import heapq
import math
from typing import Hashable, Iterable

import numpy as np

from repro.pram.cost import charge

__all__ = ["SpaceSaving"]


class SpaceSaving:
    """Space-Saving summary with capacity S = ⌈1/ε⌉ (or explicit)."""

    def __init__(self, eps: float | None = None, *, capacity: int | None = None) -> None:
        if (eps is None) == (capacity is None):
            raise ValueError("pass exactly one of eps / capacity")
        if capacity is None:
            if not 0 < eps <= 1:  # type: ignore[operator]
                raise ValueError(f"eps must be in (0, 1], got {eps}")
            capacity = math.ceil(1.0 / eps)  # type: ignore[arg-type]
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = int(capacity)
        self.counters: dict[Hashable, int] = {}
        #: One (count_at_push, item) per counter; count_at_push <= count.
        self._heap: list[tuple[int, Hashable]] = []
        self.stream_length = 0

    def update(self, item: Hashable) -> None:
        self.stream_length += 1
        charge(work=2, depth=2)  # sequential baseline (amortized heap ops)
        self._absorb((item,))

    def extend(self, batch: Iterable[Hashable] | np.ndarray) -> None:
        """Ingest a batch: the same state and the same work/depth total
        as one :meth:`update` per item, charged once for the batch."""
        if isinstance(batch, np.ndarray) and batch.dtype.kind != "O":
            items = batch.tolist()
        else:
            items = [x.item() if isinstance(x, np.generic) else x for x in batch]
        if not items:
            return
        self.stream_length += len(items)
        charge(work=2 * len(items), depth=2 * len(items))
        self._absorb(items)

    ingest = extend

    def _absorb(self, items: Iterable[Hashable]) -> None:
        counters, heap, capacity = self.counters, self._heap, self.capacity
        for item in items:
            if item in counters:
                counters[item] += 1
            elif len(counters) < capacity:
                counters[item] = 1
                heapq.heappush(heap, (1, item))
            else:
                # Refresh lagging entries until the top is current: it
                # is then the true minimum, since no entry overstates.
                count, victim = heap[0]
                while counters[victim] != count:
                    heapq.heapreplace(heap, (counters[victim], victim))
                    count, victim = heap[0]
                del counters[victim]
                counters[item] = count + 1
                heapq.heapreplace(heap, (count + 1, item))

    def __setstate__(self, state: dict) -> None:
        # Rebuild the heap from the counters so pickles written under an
        # older heap rule (stale duplicate entries) load into this one.
        self.__dict__.update(state)
        self._rebuild_heap()

    def _rebuild_heap(self) -> None:
        self._heap = [(count, item) for item, count in self.counters.items()]
        heapq.heapify(self._heap)

    def estimate(self, item: Hashable) -> int:
        """Overestimate: f_e <= est <= f_e + εm."""
        return self.counters.get(item, 0)

    def heavy_hitters(self, phi: float) -> dict[Hashable, int]:
        threshold = phi * self.stream_length
        return {e: c for e, c in self.counters.items() if c >= threshold}

    @property
    def space(self) -> int:
        return len(self.counters) + 2

    def merge(self, other: "SpaceSaving") -> None:
        """Fold another Space-Saving summary of the same capacity into
        this one (Cafaro et al.'s parallel merge, PAPERS.md).

        An untracked item's frequency in summary *i* is at most that
        summary's minimum counter (when full), so substituting the
        minimum preserves the one-sided overestimate; summing then
        keeps ``f_e <= ĉ_e <= f_e + ε(m₁+m₂)``, and keeping the top-S
        counters re-establishes the capacity bound.  Ties break
        deterministically on ``repr`` so merge trees are
        order-reproducible.
        """
        if self.capacity != other.capacity:
            raise ValueError(
                f"capacity mismatch: {self.capacity} != {other.capacity}"
            )
        total = len(self.counters) + len(other.counters)
        charge(work=max(1, total), depth=max(1, total))  # sequential baseline
        off_self = (
            min(self.counters.values())
            if len(self.counters) >= self.capacity
            else 0
        )
        off_other = (
            min(other.counters.values())
            if len(other.counters) >= other.capacity
            else 0
        )
        merged = {
            item: self.counters.get(item, off_self)
            + other.counters.get(item, off_other)
            for item in set(self.counters) | set(other.counters)
        }
        if len(merged) > self.capacity:
            ranked = sorted(merged.items(), key=lambda kv: (-kv[1], repr(kv[0])))
            merged = dict(ranked[: self.capacity])
        self.counters = merged
        self._rebuild_heap()
        self.stream_length += other.stream_length

    def fresh_clone(self) -> "SpaceSaving":
        """An empty summary with identical capacity — the per-shard
        accumulator for sharded ingest / merge trees."""
        return type(self)(capacity=self.capacity)


# ----------------------------------------------------------------------
from repro.engine.registry import Capabilities, register  # noqa: E402

register(
    SpaceSaving,
    summary="Space-Saving [MAE06], one-sided overestimates, S counters",
    input="items",
    caps=Capabilities(mergeable=True),
    build=lambda: SpaceSaving(eps=0.1),
    probe=lambda op: [op.estimate(i) for i in range(64)],
)
