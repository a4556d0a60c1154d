"""Item-at-a-time Misra-Gries [MG82] as a charged sequential baseline.

The algorithm itself lives in :mod:`repro.core.misra_gries` (Algorithm
1 is shared verbatim); this module wraps it with sequential cost
charging — every ``update`` bills one ledger step with depth = work —
so the E9/E12 work and depth comparisons against the minibatch-parallel
estimator are apples-to-apples.
"""

from __future__ import annotations

from typing import Hashable, Iterable

import numpy as np

from repro.core.misra_gries import MisraGriesSummary
from repro.pram.cost import charge

__all__ = ["SequentialMisraGries", "sequential_heavy_hitters"]


class SequentialMisraGries(MisraGriesSummary):
    """Misra-Gries with per-item sequential cost charging."""

    def update(self, item: Hashable) -> None:
        # A decrement-all round touches every counter; normal arrivals
        # are O(1).
        at_capacity = (
            item not in self.counters and len(self.counters) >= self.capacity
        )
        ops = 1 + (len(self.counters) if at_capacity else 0)
        charge(work=ops, depth=ops)
        super().update(item)

    def ingest(self, batch) -> None:
        self.extend(batch)

    def ingest_prepared(self, plan) -> None:
        # Deliberately bypass the parent's uncharged batch kernel: this
        # baseline exists to charge the sequential per-item cost, so a
        # shared batch plan must not skip the per-item update() loop.
        self.extend(plan.raw)


def sequential_heavy_hitters(
    stream: Iterable[Hashable] | np.ndarray, phi: float, eps: float
) -> dict[Hashable, int]:
    """One-shot sequential φ-heavy hitters via Misra-Gries.

    Reports items with estimate ≥ (φ − ε)·N, the same reduction the
    parallel trackers use.
    """
    if not 0 < eps < phi < 1:
        raise ValueError(f"need 0 < eps < phi < 1, got eps={eps}, phi={phi}")
    summary = SequentialMisraGries(eps=eps)
    summary.extend(stream)
    threshold = (phi - eps) * summary.stream_length
    return {e: c for e, c in summary.counters.items() if c >= threshold}


# ----------------------------------------------------------------------
from repro.engine.registry import Capabilities, register  # noqa: E402

register(
    SequentialMisraGries,
    summary="item-at-a-time Misra-Gries [MG82], depth=work charging",
    input="items",
    caps=Capabilities(
        mergeable=True, preparable=True, invariant_checked=True, concurrent=True
    ),
    build=lambda: SequentialMisraGries(eps=0.1),
    probe=lambda op: [op.estimate(i) for i in range(64)],
)
