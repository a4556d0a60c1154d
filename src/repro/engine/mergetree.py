"""k-ary merge trees over mergeable summaries.

A sharded ingest leaves S partial synopses to fold back into the
parent.  A flat left fold is S sequential ``merge`` calls, hence
charged depth Θ(S) for the fold phase even though every ``merge`` is
itself a shallow parallel region.  The mergeable-summaries property
([ACH+13], and the QPOPSS / Cafaro et al. parallel Space-Saving
architecture in PAPERS.md) licenses *any* merge order — so fold the
partials through a k-ary tree instead: each round groups k partials and
merges each group as one fork-join strand, shrinking S partials to
⌈S/k⌉ per round.

With per-merge depth d, the fold phase charges

    flat fold:   depth ≈ S · d
    k-ary tree:  depth ≈ ⌈log_k S⌉ · (k−1) · d  + d (final adoption)

— logarithmic in S for fixed arity, verified against the measured
ledger by ``benchmarks/bench_e17_mergetree.py``.  The *states* are
identical either way (merge order freedom), which the benchmark also
asserts cell-for-cell against single-pass serial ingest.

:func:`refold_partials` is the fold step of
:class:`repro.resilience.reshard.ElasticShardedIngestor`, the one
shard-and-fold path: its leaf strands ingest the shards, this tree
folds the partials, and the ingestor's base adopts the head.  Partials
travel as pickled operators, so any synopsis with ``fresh_clone`` +
``merge`` qualifies — including baselines without the resilience codec
(ExactCounters, SpaceSaving, SequentialCountMin).
"""

from __future__ import annotations

from functools import partial
from typing import Any, Sequence

from repro.pram.backend import Backend, fork_join

__all__ = ["refold_partials"]


def _merge_group(group: Sequence[Any]) -> Any:
    """Merge strand: fold one group of partials into its head.

    The k−1 merges run sequentially *within* the strand — that is the
    (k−1)·d per-round depth in the tree bound — while groups of the
    same round run as parallel strands."""
    head = group[0]
    for other in group[1:]:
        head.merge(other)
    return head


def refold_partials(
    partials: Sequence[Any],
    *,
    arity: int = 2,
    backend: Backend | None = None,
) -> Any:
    """Fold ``partials`` into one synopsis through k-ary tree rounds and
    return the folded head (``None`` for an empty list).

    The partials may be *heterogeneous in history* — fresh leaves from
    one minibatch, or long-lived per-shard accumulators holding many
    batches of state, or a mix: merge-order freedom makes the fold valid
    regardless.  There is no adopting operator — the caller owns the
    result and merges it where it belongs (the ingestor's base, or a
    benchmark's target sketch)."""
    if arity < 2:
        raise ValueError(f"arity must be >= 2, got {arity}")
    parts = list(partials)
    # Degenerate folds, spelled out so the charged depth is obvious:
    # S=0 folds nothing; S=1 needs no tree rounds at all.  Both paths
    # charge exactly what the general loop would — they exist for
    # clarity and as anchors for the regression tests in
    # tests/test_mergetree.py.
    if not parts:
        return None
    # arity >= S collapses the tree to a single round: one group, one
    # strand, arity no longer matters beyond that round.
    while len(parts) > 1:
        groups = [parts[i : i + arity] for i in range(0, len(parts), arity)]
        tasks = [partial(_merge_group, group) for group in groups]
        parts = fork_join(tasks, backend)
    return parts[0]
