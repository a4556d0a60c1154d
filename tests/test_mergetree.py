"""Regression tests for the k-ary merge tree's degenerate folds.

The general tree bound (⌈log_k S⌉ rounds × (k−1) merges) is exercised
by the merge-algebra sweep and bench_e17; these tests pin the *edges*
of the shard-and-fold path (``ElasticShardedIngestor`` leaves, then
``refold_partials`` on ``sync``) — S=0, S=1, arity ≥ S and idle shards
— to exact charged work/depth and exact final state, using a tiny
tracking operator whose every ingest charges (|batch|, 1) and every
merge charges (1, 1).  If someone reshapes the fold loop, these numbers
move and the tests say exactly where.  :class:`TestMergeTree` covers
the general case on a real Count-Min: tree fold ≡ flat fold ≡ serial
ingest in state, at logarithmic charged depth.
"""

from __future__ import annotations

from collections import Counter

import math
import pickle

import numpy as np
import pytest

from repro.engine import registry
from repro.engine.mergetree import refold_partials
from repro.pram.backend import ThreadBackend
from repro.pram.cost import charge, tracking
from repro.resilience.reshard import ElasticShardedIngestor
from repro.resilience.state import dumps
from repro.stream.generators import zipf_stream


class _Tally:
    """Minimal mergeable synopsis with unit-cost merges."""

    def __init__(self) -> None:
        self.counts: Counter = Counter()

    def ingest(self, batch) -> None:
        batch = np.asarray(batch)
        charge(work=int(batch.size), depth=1)
        self.counts.update(int(x) for x in batch)

    extend = ingest

    def merge(self, other: "_Tally") -> None:
        charge(work=1, depth=1)
        self.counts.update(other.counts)

    def fresh_clone(self) -> "_Tally":
        return _Tally()


def _serial_counts(stream) -> Counter:
    op = _Tally()
    op.ingest(stream)
    return op.counts


def _ingest_and_sync(op, stream, *, shards: int, arity: int = 2):
    """One whole-stream sharded ingest plus the fold that ``sync`` runs."""
    ingestor = ElasticShardedIngestor(op, shards=shards, arity=arity)
    ingestor.ingest(stream)
    return ingestor.sync()


class TestDegenerateFolds:
    def test_empty_batch_is_a_no_op(self):
        """S=0: an empty batch shards to zero partials; nothing merges,
        nothing is charged."""
        with tracking() as led:
            op = _ingest_and_sync(_Tally(), np.array([], dtype=np.int64), shards=4)
        assert op.counts == Counter()
        assert (led.work, led.depth) == (0, 0)

    def test_empty_partials_fold_to_identity(self):
        op = _Tally()
        op.ingest(np.arange(5))
        with tracking() as led:
            assert refold_partials([], arity=3) is None
        assert op.counts == _serial_counts(np.arange(5))
        assert (led.work, led.depth) == (0, 0)

    def test_single_shard_is_leaf_plus_adoption(self):
        """S=1: one leaf ingest (depth 1) and the final adoption merge
        (depth 1) — no tree rounds at all."""
        stream = np.arange(24) % 7
        with tracking() as led:
            op = _ingest_and_sync(_Tally(), stream, shards=1, arity=4)
        assert op.counts == _serial_counts(stream)
        assert (led.work, led.depth) == (len(stream) + 1, 2)

    def test_arity_at_least_shards_is_single_round(self):
        """arity ≥ S collapses the tree to one round: leaves (depth 1),
        one group of S folding with S−1 sequential merges (depth S−1),
        then the adoption merge (depth 1)."""
        stream = np.arange(60) % 11
        shards = 3
        with tracking() as led:
            op = _ingest_and_sync(_Tally(), stream, shards=shards, arity=8)
        assert op.counts == _serial_counts(stream)
        assert led.work == len(stream) + shards  # S−1 group merges + adoption
        assert led.depth == 1 + (shards - 1) + 1

    def test_general_fold_still_charges_the_tree_bound(self):
        """Guard that the explicit degenerate paths did not change the
        general case: S=4, arity=2 is two rounds of depth-1 merges plus
        the adoption merge."""
        stream = np.arange(80) % 13
        with tracking() as led:
            op = _ingest_and_sync(_Tally(), stream, shards=4, arity=2)
        assert op.counts == _serial_counts(stream)
        assert led.work == len(stream) + 4  # 2+1 group merges + adoption
        assert led.depth == 1 + 1 + 1 + 1  # leaves + 2 rounds + adoption

    def test_shards_smaller_than_batch_never_produce_empty_leaves(self):
        """More shards than items: array_split pads with empty chunks,
        whose shards stay idle, so only one partial carries state into
        the fold."""
        op = _Tally()
        ingestor = ElasticShardedIngestor(op, shards=8)
        ingestor.ingest(np.asarray([5]))
        assert ingestor.rescale(4).folded == 1
        assert op.counts == Counter({5: 1})

    def test_idle_shards_are_not_folded(self):
        """S=8 over one item: the leaf ingest (1, 1) and the adoption
        merge (1, 1).  The seven idle shards add no tree rounds."""
        ingestor = ElasticShardedIngestor(_Tally(), shards=8, arity=2)
        with tracking() as led:
            ingestor.ingest(np.asarray([5]))
            op = ingestor.sync()
        assert op.counts == Counter({5: 1})
        assert (led.work, led.depth) == (2, 2)


class TestValidation:
    def test_bad_arity(self):
        with pytest.raises(ValueError, match="arity must be >= 2"):
            refold_partials([_Tally()], arity=1)

    def test_bad_shards(self):
        with pytest.raises(ValueError, match="shards must be >= 1"):
            ElasticShardedIngestor(_Tally(), shards=0)

    def test_requires_mergeable(self):
        with pytest.raises(TypeError, match="mergeable"):
            ElasticShardedIngestor(object(), shards=1)


# ----------------------------------------------------------------------
# Merge tree: state parity with the flat fold, logarithmic fold depth
# ----------------------------------------------------------------------
def _cms():
    return registry.get("ParallelCountMin").build()


def _partials(batch, shards):
    """One fresh-clone partial per contiguous shard of ``batch``."""
    parts = []
    for shard in np.array_split(batch, shards):
        part = _cms().fresh_clone()
        part.ingest(shard)
        parts.append(part)
    return parts


class TestMergeTree:
    def test_tree_state_matches_flat_fold_and_serial_ingest(self):
        batch = zipf_stream(8_192, 256, 1.1, rng=11)
        serial = _cms()
        serial.ingest(batch)
        flat = _cms()
        for part in _partials(batch, 16):
            flat.merge(part)
        tree = _cms()
        tree.merge(refold_partials(_partials(batch, 16), arity=2))
        assert np.array_equal(serial.table, flat.table)
        assert np.array_equal(serial.table, tree.table)
        assert dumps(flat.state_dict()) == dumps(tree.state_dict())

    @pytest.mark.parametrize("arity", [2, 4])
    def test_fold_depth_is_logarithmic(self, arity):
        """Tree-fold depth obeys the (arity−1)·⌈log_arity S⌉ + 1 bound
        and sits strictly below the flat fold's Θ(S) for larger S."""
        batch = zipf_stream(8_192, 256, 1.1, rng=12)
        shards = 16
        partials = _partials(batch, shards)

        def fold_depth(fold):
            op = _cms()
            with tracking() as ledger:
                fold(op)
            return ledger.depth

        def flat_fold(op):
            for part in partials:
                op.merge(pickle.loads(pickle.dumps(part)))

        def tree_fold(op):
            copies = [pickle.loads(pickle.dumps(p)) for p in partials]
            op.merge(refold_partials(copies, arity=arity))

        flat, tree = fold_depth(flat_fold), fold_depth(tree_fold)
        rounds = math.ceil(math.log(shards, arity))
        per_merge = flat // shards  # every CMS merge charges equal depth
        assert tree <= ((arity - 1) * rounds + 1) * per_merge
        assert tree < flat

    def test_backend_choice_does_not_change_state(self):
        batch = zipf_stream(4_096, 128, 1.2, rng=13)
        serial = _ingest_and_sync(_cms(), batch, shards=8, arity=2)
        threaded = ElasticShardedIngestor(
            _cms(), shards=8, arity=2, backend=ThreadBackend(4)
        )
        threaded.ingest(batch)
        threaded = threaded.sync()
        assert dumps(serial.state_dict()) == dumps(threaded.state_dict())

    def test_arity_validated(self):
        with pytest.raises(ValueError, match="arity"):
            ElasticShardedIngestor(_cms(), shards=2, arity=1)

    def test_non_mergeable_rejected(self):
        op = registry.get("DGIMCounter").build()
        with pytest.raises(TypeError, match="mergeable"):
            ElasticShardedIngestor(op, shards=4)

    def test_empty_partials_leave_op_unchanged(self):
        op = _cms()
        before = dumps(op.state_dict())
        ElasticShardedIngestor(op, shards=4).sync()
        assert dumps(op.state_dict()) == before
