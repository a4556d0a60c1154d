"""Merge algebra for every mergeable registry entry.

Mergeable summaries [ACH+13] promise that ``merge`` composes partial
synopses as if their streams had been concatenated.  For that to hold
under *any* fold shape — flat left fold, the k-ary merge tree
(:mod:`repro.engine.mergetree`), or a racy work-stealing scheduler —
the operation must be commutative and associative, and ``fresh_clone``
must be its identity element.

Two strengths of "equal":

* **linear sketches** (Count-Min, Count-Sketch, exact counters) merge by
  cell-wise addition, so both algebra laws hold *state-exactly* — we
  assert canonical serialized bytes match;
* **capacity-bounded summaries** (Misra-Gries family, Space-Saving)
  re-apply their decrement/eviction rule at each merge, so different
  association orders may keep different counters.  There the law is
  *up to estimates*: every merge order must stay inside the summary's
  published error envelope around the exact frequencies — undercounts
  of at most n/S for MG, overcounts of at most n/S for Space-Saving.

The sweep iterates the registry, so a newly registered mergeable
operator is covered with no test edit.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.engine import registry
from repro.resilience.state import dumps
from repro.stream.generators import zipf_stream

MERGEABLE = [spec for spec in registry.specs() if spec.caps.mergeable]
IDS = [spec.name for spec in MERGEABLE]

#: Merges that are cell-wise linear, hence state-exact under any order.
STATE_EXACT = {
    "ParallelCountMin",
    "ParallelCountSketch",
    "SequentialCountMin",
    "ExactCounters",
}

#: Summaries whose estimates undercount truth (Misra-Gries family) vs
#: overcount it (Space-Saving); used to pick the error-envelope side.
UNDERCOUNTING = {
    "MisraGriesSummary",
    "ParallelFrequencyEstimator",
    "SequentialMisraGries",
}


def _streams() -> list[np.ndarray]:
    """Three skewed item streams over the probe universe [0, 64)."""
    return [zipf_stream(400, 64, 1.3, rng=100 + i) for i in range(3)]


def _ingested(spec, stream):
    op = spec.build()
    op.ingest(stream)
    return op


def _merged(a, b):
    """Non-destructive merge: ``a ⊕ b`` on pickled copies."""
    out = pickle.loads(pickle.dumps(a))
    out.merge(pickle.loads(pickle.dumps(b)))
    return out


def _state(op) -> bytes:
    if hasattr(op, "state_dict"):
        return dumps(op.state_dict())
    # Reference baselines without checkpoint support: their counter
    # structure IS their state (SequentialCountMin holds a table,
    # ExactCounters a hash map).
    if hasattr(op, "table"):
        return dumps({"table": op.table})
    return dumps({"counters": dict(op.counters), "n": op.stream_length})


def _exact_counts(streams) -> dict[int, int]:
    counts: dict[int, int] = {}
    for stream in streams:
        for item in stream.tolist():
            counts[item] = counts.get(item, 0) + 1
    return counts


def _assert_within_envelope(spec, op, streams):
    """Every probe estimate stays inside the summary's error envelope
    around the exact frequencies of the concatenated stream."""
    truth = _exact_counts(streams)
    total = sum(len(s) for s in streams)
    tol = total / op.capacity
    for item, est in enumerate(spec.probe(op)):
        true = truth.get(item, 0)
        if spec.name in UNDERCOUNTING:
            assert true - tol <= est <= true, (
                f"{spec.name}: estimate {est} for item {item} outside "
                f"[{true - tol}, {true}]"
            )
        elif est == 0:
            # Space-Saving dropped the item: only legal when its true
            # frequency is below the guarantee threshold n/S.
            assert true <= tol, (
                f"{spec.name}: item {item} untracked but true count "
                f"{true} > n/S = {tol}"
            )
        else:
            assert true <= est <= true + tol, (
                f"{spec.name}: estimate {est} for item {item} outside "
                f"[{true}, {true + tol}]"
            )


@pytest.mark.parametrize("spec", MERGEABLE, ids=IDS)
def test_fresh_clone_is_merge_identity(spec):
    """A ⊕ fresh_clone() == A, exactly, for every mergeable summary."""
    stream = _streams()[0]
    a = _ingested(spec, stream)
    merged = _merged(a, a.fresh_clone())
    assert spec.probe(merged) == spec.probe(a)
    if spec.name in STATE_EXACT:
        assert _state(merged) == _state(a)


@pytest.mark.parametrize("spec", MERGEABLE, ids=IDS)
def test_merge_commutes(spec):
    """A ⊕ B == B ⊕ A.

    Exact for every summary here: linear merges add cells, and the
    MG/Space-Saving merge rules are symmetric functions of the two
    counter maps (union-sum, then a rank-based decrement/eviction with
    deterministic tie-breaks).
    """
    s1, s2, _ = _streams()
    a, b = _ingested(spec, s1), _ingested(spec, s2)
    ab, ba = _merged(a, b), _merged(b, a)
    assert spec.probe(ab) == spec.probe(ba)
    if spec.name in STATE_EXACT:
        assert _state(ab) == _state(ba)


@pytest.mark.parametrize("spec", MERGEABLE, ids=IDS)
def test_merge_associates(spec):
    """(A ⊕ B) ⊕ C vs A ⊕ (B ⊕ C): state-exact for linear sketches,
    error-envelope-equivalent for capacity-bounded summaries."""
    s1, s2, s3 = _streams()
    a, b, c = (_ingested(spec, s) for s in (s1, s2, s3))
    left = _merged(_merged(a, b), c)
    right = _merged(a, _merged(b, c))
    if spec.name in STATE_EXACT:
        assert spec.probe(left) == spec.probe(right)
        assert _state(left) == _state(right)
    else:
        _assert_within_envelope(spec, left, (s1, s2, s3))
        _assert_within_envelope(spec, right, (s1, s2, s3))


@pytest.mark.parametrize("spec", MERGEABLE, ids=IDS)
def test_merge_tree_equals_flat_fold_estimates(spec):
    """Folding six partials through the k-ary merge tree answers like
    the flat left fold — the property the engine's merge tree (and any
    future scheduler reordering) rests on."""
    from repro.engine.mergetree import refold_partials

    streams = [zipf_stream(200, 64, 1.3, rng=200 + i) for i in range(6)]
    partials = [_ingested(spec, s) for s in streams]

    flat = spec.build()
    for part in partials:
        flat.merge(pickle.loads(pickle.dumps(part)))

    tree = spec.build()
    copies = [pickle.loads(pickle.dumps(p)) for p in partials]
    tree.merge(refold_partials(copies, arity=3))

    if spec.name in STATE_EXACT:
        assert _state(flat) == _state(tree)
    else:
        _assert_within_envelope(spec, flat, streams)
        _assert_within_envelope(spec, tree, streams)


@pytest.mark.parametrize("spec", MERGEABLE, ids=IDS)
def test_random_partitions_interleave_equivalently(spec):
    """K random (cut-set, merge-order) partitions of one concatenated
    stream fold back to the single-pass answer: state-identical for the
    linear sketches, error-envelope-bounded for the capacity-bounded
    family.  This is the property that licenses *any* scheduler
    interleaving, not just the fold shapes the engine happens to use
    today."""
    rng = np.random.default_rng(42)
    streams = _streams()
    concat = np.concatenate(streams)
    baseline = _ingested(spec, concat)
    for _ in range(5):
        n_parts = int(rng.integers(2, 7))
        cuts = np.sort(
            rng.choice(np.arange(1, len(concat)), size=n_parts - 1, replace=False)
        )
        partials = [_ingested(spec, chunk) for chunk in np.split(concat, cuts)]
        folded = spec.build()
        for index in rng.permutation(n_parts):
            folded.merge(partials[index])
        if spec.name in STATE_EXACT:
            assert _state(folded) == _state(baseline)
            assert spec.probe(folded) == spec.probe(baseline)
        else:
            _assert_within_envelope(spec, folded, streams)
