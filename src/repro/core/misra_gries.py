"""Misra-Gries summaries and the parallel batch merge (§5.1–5.2).

:class:`MisraGriesSummary` is the classic sequential algorithm
(Algorithm 1, [MG82]): at most S = ⌈1/ε⌉ counters; on arrival either
increment, insert, or decrement *all* counters.  Lemma 5.1 gives
``f_e − m/S <= C_e <= f_e``.

:func:`mg_augment` is Lemma 5.3 — the paper's key parallel step: merge
an MG summary with a minibatch *histogram* into a new MG summary by
(1) adding corresponding counters, (2) selecting the cutoff ϕ so that
at most S combined counters exceed it, and (3) subtracting ϕ from all
counters and keeping the positive ones.  Subtracting ϕ is cost-
equivalent to ϕ rounds of decrement-all, each hitting ≥ S distinct
counters, so the Lemma 5.1 error argument carries over — but the whole
thing runs in O(S + p) work and O(log(S + p)) depth instead of
item-at-a-time.
"""

from __future__ import annotations

import math
from typing import Any, Hashable, Mapping

import numpy as np

from repro.pram.cost import charge
from repro.pram.plan import PreparedBatch
from repro.pram.primitives import log2ceil
from repro.pram.select import prune_cutoff
from repro.resilience.invariants import require
from repro.resilience.state import expect, header

__all__ = [
    "MisraGriesSummary",
    "mg_augment",
    "mg_augment_arrays",
    "capacity_for_eps",
]


def capacity_for_eps(eps: float) -> int:
    """S = ⌈1/ε⌉, the summary capacity for error parameter ε."""
    if not 0 < eps <= 1:
        raise ValueError(f"eps must be in (0, 1], got {eps}")
    return math.ceil(1.0 / eps)


class MisraGriesSummary:
    """Sequential Misra-Gries (Algorithm 1) — also the E8/E12 baseline.

    Parameters
    ----------
    eps:
        Error parameter; capacity is S = ⌈1/ε⌉.  (Pass ``capacity``
        instead to set S directly.)
    """

    def __init__(self, eps: float | None = None, *, capacity: int | None = None) -> None:
        if (eps is None) == (capacity is None):
            raise ValueError("pass exactly one of eps / capacity")
        if capacity is None:
            capacity = capacity_for_eps(eps)  # type: ignore[arg-type]
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = int(capacity)
        self.counters: dict[Hashable, int] = {}
        self.stream_length = 0

    def update(self, item: Hashable) -> None:
        """Process one stream element (Algorithm 1)."""
        self.stream_length += 1
        counters = self.counters
        if item in counters:
            counters[item] += 1
            return
        if len(counters) < self.capacity:
            counters[item] = 1
            return
        # Decrement every counter; drop those reaching zero.  The
        # arriving item is "cancelled" against the S decrements.
        dead = []
        for key in counters:
            counters[key] -= 1
            if counters[key] == 0:
                dead.append(key)
        for key in dead:
            del counters[key]

    def extend(self, items) -> None:
        for item in items:
            item = item.item() if isinstance(item, np.generic) else item
            self.update(item)

    def ingest(self, batch) -> None:
        """Batch ingest — bit-identical to :meth:`extend` (tested), via
        the prepared plan's encoding."""
        self.ingest_prepared(PreparedBatch(batch))

    def ingest_prepared(self, plan: PreparedBatch) -> None:
        """Algorithm 1 over an encoded batch.

        Like the per-item loop, this charges nothing: the sequential
        summary is the paper's *baseline*, not a parallel algorithm —
        the host just runs it faster.
        """
        if plan.size == 0:
            return
        codes, universe = plan.encoded()
        self.counters = _mg_ingest_codes(
            self.counters, self.capacity, codes, universe
        )
        self.stream_length += plan.size

    def estimate(self, item: Hashable) -> int:
        """C_e, satisfying ``f_e − m/S <= C_e <= f_e`` (Lemma 5.1)."""
        return self.counters.get(item, 0)

    @property
    def space(self) -> int:
        return len(self.counters) + 2

    def merge(self, other: "MisraGriesSummary") -> None:
        """Fold another MG summary of the same capacity into this one
        (mergeable summaries, [ACH+13]).

        The other summary's counters are a (deficient) histogram of its
        stream, so :func:`mg_augment` applies verbatim: combine, pick
        the cutoff ϕ, subtract.  Errors add — each input is at most
        m_i/S below truth and the prune subtracts at most
        (m₁+m₂)/S more — so the merged summary still satisfies
        Lemma 5.1's bound for the concatenated stream.
        """
        if self.capacity != other.capacity:
            raise ValueError(
                f"capacity mismatch: {self.capacity} != {other.capacity}"
            )
        self.counters = mg_augment(self.counters, other.counters, self.capacity)
        self.stream_length += other.stream_length

    def fresh_clone(self) -> "MisraGriesSummary":
        """An empty summary with identical configuration — the
        per-shard accumulator for sharded ingest / merge trees."""
        return type(self)(capacity=self.capacity)

    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        """Versioned serializable snapshot of the summary."""
        return {
            **header("misra_gries"),
            "capacity": self.capacity,
            "counters": dict(self.counters),
            "stream_length": self.stream_length,
        }

    def load_state(self, state: dict) -> None:
        """Restore a ``state_dict()`` snapshot in place."""
        expect(state, "misra_gries")
        self.capacity = int(state["capacity"])
        self.counters = dict(state["counters"])
        self.stream_length = int(state["stream_length"])

    def check_invariants(self) -> None:
        """Algorithm 1's structural invariants (Lemma 5.1 prerequisites)."""
        name = "MisraGriesSummary"
        require(self.capacity >= 1, name, f"capacity {self.capacity} < 1")
        require(
            len(self.counters) <= self.capacity,
            name,
            f"{len(self.counters)} counters exceed capacity {self.capacity}",
        )
        require(
            all(isinstance(c, int) and c >= 1 for c in self.counters.values()),
            name,
            "every counter must be a positive integer",
        )
        require(
            sum(self.counters.values()) <= self.stream_length,
            name,
            "counter mass exceeds stream length",
        )


def mg_augment(
    summary: Mapping[Hashable, int],
    histogram: Mapping[Hashable, int],
    capacity: int,
) -> dict[Hashable, int]:
    """Lemma 5.3: fold a minibatch histogram into an MG summary.

    Parameters
    ----------
    summary:
        Current MG summary F (item → counter), ≤ ``capacity`` entries.
    histogram:
        Minibatch histogram H (item → frequency), any size p.
    capacity:
        S = ⌈1/ε⌉.

    Returns
    -------
    A new summary with ≤ S entries whose counters still satisfy
    ``C_e ∈ [f_e − m/S, f_e]`` for the combined stream.

    Cost: O(S + p) work, O(log(S + p)) charged depth.
    """
    if capacity < 1:
        raise ValueError(f"capacity must be >= 1, got {capacity}")
    if len(summary) > capacity:
        raise ValueError(
            f"input summary has {len(summary)} entries > capacity {capacity}"
        )
    total = len(summary) + len(histogram)
    # Hash-join of the two count maps (paper: hash table of size O(S+p)).
    charge(work=max(1, total), depth=1 + log2ceil(max(2, total)) ** 2)
    combined: dict[Hashable, int] = dict(summary)
    for item, freq in histogram.items():
        if freq < 0:
            raise ValueError(f"negative histogram frequency for {item!r}")
        combined[item] = combined.get(item, 0) + freq

    if len(combined) <= capacity:
        return combined

    counts = np.fromiter(combined.values(), dtype=np.int64, count=len(combined))
    phi = prune_cutoff(counts, capacity)
    # Subtract ϕ everywhere; keep strictly positive counters.
    charge(work=max(1, len(combined)), depth=1)
    return {item: c - phi for item, c in combined.items() if c > phi}


def _merge_count_maps(
    summary: Mapping[int, int], keys: np.ndarray, freqs: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Combine a (small) summary dict with a histogram into sorted
    ``(uniq, merged)`` count arrays.

    When ``keys`` arrive already strictly increasing — the
    :meth:`~repro.pram.plan.PreparedBatch.sorted_hist_arrays` product —
    the ≤S summary entries are folded in by binary search + insertion
    instead of re-sorting the whole histogram per operator.  Both paths
    produce the identical arrays ``np.unique`` over the concatenation
    would (same sorted keys, same summed counts); the cheap sortedness
    probe keeps arbitrary callers on the general path.
    """
    is_sorted = keys.size == 0 or bool(np.all(keys[1:] > keys[:-1]))
    if is_sorted:
        if not summary:
            return keys, freqs
        skeys = np.fromiter(summary.keys(), dtype=np.int64, count=len(summary))
        sfreqs = np.fromiter(summary.values(), dtype=np.int64, count=len(summary))
        order = np.argsort(skeys)
        skeys, sfreqs = skeys[order], sfreqs[order]
        pos = np.searchsorted(keys, skeys)
        hit = pos < keys.size
        hit[hit] = keys[pos[hit]] == skeys[hit]
        merged = freqs.copy()
        merged[pos[hit]] += sfreqs[hit]
        if hit.all():
            return keys, merged
        miss = ~hit
        # Hand-rolled np.insert: target slots for the missing summary
        # keys are their search positions shifted by how many misses
        # precede them; everything else receives the histogram run.
        slots = pos[miss] + np.arange(np.count_nonzero(miss), dtype=np.int64)
        out_k = np.empty(keys.size + slots.size, dtype=np.int64)
        out_f = np.empty(out_k.size, dtype=np.int64)
        rest = np.ones(out_k.size, dtype=bool)
        rest[slots] = False
        out_k[slots] = skeys[miss]
        out_f[slots] = sfreqs[miss]
        out_k[rest] = keys
        out_f[rest] = merged
        return out_k, out_f
    if summary:
        keys = np.concatenate(
            [np.fromiter(summary.keys(), dtype=np.int64, count=len(summary)), keys]
        )
        freqs = np.concatenate(
            [np.fromiter(summary.values(), dtype=np.int64, count=len(summary)), freqs]
        )
    uniq, inverse = np.unique(keys, return_inverse=True)
    merged = np.bincount(inverse, weights=freqs, minlength=uniq.size).astype(np.int64)
    return uniq, merged


def mg_augment_arrays(
    summary: Mapping[int, int],
    keys: np.ndarray,
    freqs: np.ndarray,
    capacity: int,
) -> dict[int, int]:
    """Lemma 5.3 on an integer-keyed histogram in array form.

    Semantically identical to :func:`mg_augment` on the corresponding
    dict (tested), with the same charges — the hash-join runs as one
    ``unique``/``bincount`` pass instead of a per-entry Python loop.
    """
    if capacity < 1:
        raise ValueError(f"capacity must be >= 1, got {capacity}")
    if len(summary) > capacity:
        raise ValueError(
            f"input summary has {len(summary)} entries > capacity {capacity}"
        )
    total = len(summary) + int(keys.size)
    # Hash-join of the two count maps (paper: hash table of size O(S+p)).
    charge(work=max(1, total), depth=1 + log2ceil(max(2, total)) ** 2)
    if np.any(freqs < 0):
        raise ValueError("negative histogram frequency")
    uniq, merged = _merge_count_maps(summary, keys, freqs)

    if uniq.size <= capacity:
        # tolist() materializes Python ints in one C pass — same values
        # as per-element int(), without the numpy-scalar round-trips.
        return dict(zip(uniq.tolist(), merged.tolist()))

    phi = prune_cutoff(merged, capacity)
    # Subtract ϕ everywhere; keep strictly positive counters.
    charge(work=max(1, uniq.size), depth=1)
    keep = merged > phi
    return dict(zip(uniq[keep].tolist(), (merged[keep] - phi).tolist()))


def _mg_ingest_codes(
    counters: dict[Hashable, int],
    capacity: int,
    codes: np.ndarray,
    universe: Any,
) -> dict[Hashable, int]:
    """Exact Algorithm 1 over an encoded minibatch, one item at a time.

    The batch is decoded once, then every arrival increments, inserts,
    or — when an untracked item meets a full summary — decrements all
    counters and drops the ones reaching zero.  Each decrement round
    removes ``capacity + 1`` units of counter mass, so there are at most
    µ/(S+1) of them and the whole batch costs O(µ) dict operations.
    The result equals running :meth:`MisraGriesSummary.update` item by
    item; in particular it depends on arrival order exactly as the
    sequential algorithm does (which is why :func:`mg_augment`, an
    order-insensitive operator, cannot be used here).
    """
    if isinstance(universe, np.ndarray):
        items = universe[codes].tolist()
    else:
        items = [universe[code] for code in codes.tolist()]
    counters = dict(counters)
    for item in items:
        if item in counters:
            counters[item] += 1
        elif len(counters) < capacity:
            counters[item] = 1
        else:
            # The arriving item cancels against the S decrements and is
            # not counted.
            counters = {key: c - 1 for key, c in counters.items() if c > 1}
    return counters


# ----------------------------------------------------------------------
from repro.engine.registry import Capabilities, register  # noqa: E402

register(
    MisraGriesSummary,
    summary="sequential Misra-Gries summary, S=ceil(1/eps) counters (Alg. 1)",
    input="items",
    caps=Capabilities(
        mergeable=True, preparable=True, invariant_checked=True, concurrent=True
    ),
    build=lambda: MisraGriesSummary(eps=0.1),
    probe=lambda op: [op.estimate(i) for i in range(64)],
)
