"""Regression tests for the k-ary merge tree's degenerate folds.

The general tree bound (⌈log_k S⌉ rounds × (k−1) merges) is exercised
by the merge-algebra sweep and bench_e17; these tests pin the *edges*
of the fold — S=0, S=1, and arity ≥ S — to exact charged work/depth and
exact final state, using a tiny tracking operator whose every ingest
charges (|batch|, 1) and every merge charges (1, 1).  If someone
reshapes the fold loop, these numbers move and the tests say exactly
where.  :class:`TestMergeTree` covers the general case on a real
Count-Min: tree fold ≡ flat fold ≡ serial ingest in state, at
logarithmic charged depth.
"""

from __future__ import annotations

from collections import Counter

import math
import pickle

import numpy as np
import pytest

from repro.engine import registry
from repro.engine.mergetree import merge_partials, merge_tree_ingest, shard_partials
from repro.pram.backend import ThreadBackend, shard_ingest
from repro.pram.cost import charge, tracking
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


class TestDegenerateFolds:
    def test_empty_batch_is_a_no_op(self):
        """S=0: an empty batch shards to zero partials; nothing merges,
        nothing is charged."""
        with tracking() as led:
            op = merge_tree_ingest(_Tally(), np.array([], dtype=np.int64), shards=4)
        assert op.counts == Counter()
        assert (led.work, led.depth) == (0, 0)

    def test_empty_partials_fold_to_identity(self):
        op = _Tally()
        op.ingest(np.arange(5))
        with tracking() as led:
            merge_partials(op, [], arity=3)
        assert op.counts == _serial_counts(np.arange(5))
        assert (led.work, led.depth) == (0, 0)

    def test_single_shard_is_leaf_plus_adoption(self):
        """S=1: one leaf ingest (depth 1) and the final adoption merge
        (depth 1) — no tree rounds at all."""
        stream = np.arange(24) % 7
        with tracking() as led:
            op = merge_tree_ingest(_Tally(), stream, shards=1, arity=4)
        assert op.counts == _serial_counts(stream)
        assert (led.work, led.depth) == (len(stream) + 1, 2)

    def test_arity_at_least_shards_is_single_round(self):
        """arity ≥ S collapses the tree to one round: leaves (depth 1),
        one group of S folding with S−1 sequential merges (depth S−1),
        then the adoption merge (depth 1)."""
        stream = np.arange(60) % 11
        shards = 3
        with tracking() as led:
            op = merge_tree_ingest(_Tally(), stream, shards=shards, arity=8)
        assert op.counts == _serial_counts(stream)
        assert led.work == len(stream) + shards  # S−1 group merges + adoption
        assert led.depth == 1 + (shards - 1) + 1

    def test_general_fold_still_charges_the_tree_bound(self):
        """Guard that the explicit degenerate paths did not change the
        general case: S=4, arity=2 is two rounds of depth-1 merges plus
        the adoption merge."""
        stream = np.arange(80) % 13
        with tracking() as led:
            op = merge_tree_ingest(_Tally(), stream, shards=4, arity=2)
        assert op.counts == _serial_counts(stream)
        assert led.work == len(stream) + 4  # 2+1 group merges + adoption
        assert led.depth == 1 + 1 + 1 + 1  # leaves + 2 rounds + adoption

    def test_shards_smaller_than_batch_never_produce_empty_leaves(self):
        """More shards than items: array_split pads with empty chunks,
        which the leaf phase must drop, landing in the S≤1 fold paths."""
        stream = np.asarray([5])
        parts = shard_partials(_Tally(), stream, shards=8)
        assert len(parts) == 1
        op = merge_tree_ingest(_Tally(), stream, shards=8, arity=2)
        assert op.counts == Counter({5: 1})


class TestValidation:
    def test_bad_arity(self):
        with pytest.raises(ValueError, match="arity must be >= 2"):
            merge_partials(_Tally(), [_Tally()], arity=1)

    def test_bad_shards(self):
        with pytest.raises(ValueError, match="shards must be >= 1"):
            shard_partials(_Tally(), np.arange(4), shards=0)

    def test_requires_mergeable(self):
        with pytest.raises(TypeError, match="mergeable"):
            merge_partials(object(), [])


# ----------------------------------------------------------------------
# Merge tree: state parity with the flat fold, logarithmic fold depth
# ----------------------------------------------------------------------
def _cms():
    return registry.get("ParallelCountMin").build()


class TestMergeTree:
    def test_tree_state_matches_flat_fold_and_serial_ingest(self):
        batch = zipf_stream(8_192, 256, 1.1, rng=11)
        serial = _cms()
        serial.ingest(batch)
        flat = shard_ingest(_cms(), batch, shards=16)
        tree = shard_ingest(_cms(), batch, shards=16, arity=2)
        assert np.array_equal(serial.table, flat.table)
        assert np.array_equal(serial.table, tree.table)
        assert dumps(flat.state_dict()) == dumps(tree.state_dict())

    @pytest.mark.parametrize("arity", [2, 4])
    def test_fold_depth_is_logarithmic(self, arity):
        """Tree-fold depth obeys the (arity−1)·⌈log_arity S⌉ + 1 bound
        and sits strictly below the flat fold's Θ(S) for larger S."""
        batch = zipf_stream(8_192, 256, 1.1, rng=12)
        shards = 16
        partials = shard_partials(_cms(), batch, shards=shards)

        def fold_depth(fold):
            op = _cms()
            with tracking() as ledger:
                fold(op)
            return ledger.depth

        def flat_fold(op):
            for part in partials:
                op.merge(pickle.loads(pickle.dumps(part)))

        def tree_fold(op):
            merge_partials(
                op, [pickle.loads(pickle.dumps(p)) for p in partials], arity=arity
            )

        flat, tree = fold_depth(flat_fold), fold_depth(tree_fold)
        rounds = math.ceil(math.log(shards, arity))
        per_merge = flat // shards  # every CMS merge charges equal depth
        assert tree <= ((arity - 1) * rounds + 1) * per_merge
        assert tree < flat

    def test_backend_choice_does_not_change_state(self):
        batch = zipf_stream(4_096, 128, 1.2, rng=13)
        serial = merge_tree_ingest(_cms(), batch, shards=8, arity=2)
        threaded = merge_tree_ingest(
            _cms(), batch, shards=8, arity=2, backend=ThreadBackend(4)
        )
        assert dumps(serial.state_dict()) == dumps(threaded.state_dict())

    def test_arity_validated(self):
        with pytest.raises(ValueError, match="arity"):
            merge_partials(_cms(), [], arity=1)

    def test_non_mergeable_rejected(self):
        op = registry.get("DGIMCounter").build()
        with pytest.raises(TypeError, match="mergeable"):
            merge_tree_ingest(op, np.ones(16, dtype=np.int64), shards=4)

    def test_empty_partials_leave_op_unchanged(self):
        op = _cms()
        before = dumps(op.state_dict())
        merge_partials(op, [])
        assert dumps(op.state_dict()) == before
