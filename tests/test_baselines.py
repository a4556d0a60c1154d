"""Tests for the sequential baselines (DGIM, Lee-Ting, Space-Saving,
Lossy Counting, sequential CMS, exact counters)."""

from __future__ import annotations

import heapq
import pickle
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import (
    DGIMCounter,
    ExactCounters,
    LeeTingCounter,
    LossyCounting,
    SequentialMisraGries,
    SpaceSaving,
    sequential_heavy_hitters,
)
from repro.pram.cost import tracking
from repro.stream.generators import bit_stream, minibatches, zipf_stream
from repro.stream.oracle import ExactInfiniteFrequencies, ExactWindowCounter


class TestDGIM:
    def test_validation(self):
        with pytest.raises(ValueError):
            DGIMCounter(0, 0.1)
        with pytest.raises(ValueError):
            DGIMCounter(10, 0.0)
        with pytest.raises(ValueError):
            DGIMCounter(10, 0.1).update(2)

    @given(
        st.integers(10, 150),
        st.sampled_from([0.5, 0.25, 0.1]),
        st.floats(0.0, 1.0),
        st.integers(0, 2**31 - 1),
    )
    @settings(max_examples=30)
    def test_relative_error(self, window, eps, density, seed):
        rng = np.random.default_rng(seed)
        bits = (rng.random(3 * window) < density).astype(np.int64)
        dgim = DGIMCounter(window, eps)
        oracle = ExactWindowCounter(window)
        dgim.extend(bits)
        oracle.extend(bits)
        m = oracle.query()
        assert abs(dgim.query() - m) <= eps * max(m, 1) + 1

    def test_space_logarithmic(self):
        dgim = DGIMCounter(1 << 14, 0.2)
        dgim.extend(np.ones(1 << 14, dtype=np.int64))
        # O(k log n) buckets.
        assert dgim.space <= 5 * (1 / 0.2) * 14 + 10

    def test_sequential_depth_equals_work(self):
        dgim = DGIMCounter(100, 0.5)
        with tracking() as led:
            dgim.extend(bit_stream(200, 0.5, rng=1))
        assert led.depth == led.work


class TestLeeTing:
    @given(
        st.integers(10, 150),
        st.floats(2.0, 30.0),
        st.floats(0.0, 1.0),
        st.integers(0, 2**31 - 1),
    )
    @settings(max_examples=30)
    def test_additive_error(self, window, lam, density, seed):
        rng = np.random.default_rng(seed)
        bits = (rng.random(2 * window) < density).astype(np.int64)
        lt = LeeTingCounter(window, lam)
        oracle = ExactWindowCounter(window)
        lt.extend(bits)
        oracle.extend(bits)
        m = oracle.query()
        assert m <= lt.query() <= m + lam

    def test_agrees_with_parallel_sbbc(self):
        """The SBBC is the parallelization of this counter: same γ, same
        stream ⇒ same value."""
        from repro.core.sbbc import SBBC
        from repro.pram.css import css_of_bits

        rng = np.random.default_rng(2)
        bits = (rng.random(500) < 0.4).astype(np.int64)
        lt = LeeTingCounter(100, 8.0)
        sbbc = SBBC(100, 8.0)
        lt.extend(bits)
        for chunk in minibatches(bits, 50):
            sbbc.advance(css_of_bits(chunk))
        assert lt.query() == sbbc.value()


class TestSpaceSaving:
    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            SpaceSaving()
        with pytest.raises(ValueError):
            SpaceSaving(eps=0.1, capacity=3)
        with pytest.raises(ValueError):
            SpaceSaving(capacity=0)

    def test_capacity_respected(self):
        ss = SpaceSaving(capacity=5)
        ss.extend(range(100))
        assert len(ss.counters) == 5

    @given(st.lists(st.integers(0, 30), max_size=400), st.integers(2, 20))
    def test_overestimate_bracket(self, items, capacity):
        ss = SpaceSaving(capacity=capacity)
        ss.extend(items)
        true = Counter(items)
        m = len(items)
        for item in set(items):
            est = ss.estimate(item)
            if item in ss.counters:
                assert est >= true[item]
                assert est <= true[item] + m / capacity
            else:
                assert true[item] <= m / capacity

    def test_heavy_hitters_contain_true(self):
        stream = zipf_stream(10_000, 1_000, 1.5, rng=3)
        ss = SpaceSaving(eps=0.01)
        ss.extend(stream)
        true = Counter(stream.tolist())
        for item, count in true.items():
            if count >= 0.05 * len(stream):
                assert item in ss.heavy_hitters(0.05)


_ss_streams = st.lists(st.integers(0, 12), max_size=300)

# One step of a mixed Space-Saving history: a single update, a batch
# extend, or a merge with a summary built from its own stream.
_ss_steps = st.lists(
    st.one_of(
        st.tuples(st.just("update"), st.integers(0, 12)),
        st.tuples(st.just("extend"), _ss_streams),
        st.tuples(st.just("merge"), _ss_streams),
    ),
    max_size=12,
)


class TestSpaceSavingBatchParity:
    """``extend`` is one charge per batch but otherwise exactly a
    per-item ``update`` loop: same counters, same stream length, same
    ledger work/depth totals, and one heap entry per counter."""

    @staticmethod
    def _run(ss: SpaceSaving, steps, batched: bool) -> tuple[int, int]:
        with tracking() as ledger:
            for kind, arg in steps:
                if kind == "update":
                    ss.update(arg)
                elif kind == "extend" and batched:
                    ss.extend(np.asarray(arg, dtype=np.int64))
                elif kind == "extend":
                    for item in arg:
                        ss.update(item)
                else:
                    other = SpaceSaving(capacity=ss.capacity)
                    other.extend(arg)
                    ss.merge(other)
                assert len(ss._heap) == len(ss.counters)
        return ledger.work, ledger.depth

    @given(_ss_streams, st.integers(1, 8))
    @settings(max_examples=80, deadline=None)
    def test_extend_equals_update_loop(self, items, capacity):
        batched = SpaceSaving(capacity=capacity)
        itemized = SpaceSaving(capacity=capacity)
        with tracking(record=True) as led_batched:
            batched.extend(np.asarray(items, dtype=np.int64))
        with tracking() as led_itemized:
            for item in items:
                itemized.update(item)
        assert batched.counters == itemized.counters
        assert batched.stream_length == itemized.stream_length == len(items)
        assert (led_batched.work, led_batched.depth) == (
            led_itemized.work,
            led_itemized.depth,
        )
        assert len(batched._heap) == len(batched.counters)
        # The one accounting difference: a single ledger entry per batch.
        assert len(led_batched.trace) == (1 if items else 0)

    @given(_ss_steps, st.integers(1, 6))
    @settings(max_examples=60, deadline=None)
    def test_mixed_update_extend_merge_sequences(self, steps, capacity):
        batched = SpaceSaving(capacity=capacity)
        itemized = SpaceSaving(capacity=capacity)
        assert self._run(batched, steps, True) == self._run(itemized, steps, False)
        assert batched.counters == itemized.counters
        assert batched.stream_length == itemized.stream_length

    def test_object_items_and_lists(self):
        stream = list("abracadabra" * 7)
        batched, itemized = SpaceSaving(capacity=3), SpaceSaving(capacity=3)
        batched.extend(np.asarray(stream, dtype=object))
        batched.extend(stream)
        for item in stream + stream:
            itemized.update(item)
        assert batched.counters == itemized.counters
        assert len(batched._heap) == len(batched.counters) == 3

    def test_empty_batch_adds_no_ledger_entry(self):
        ss = SpaceSaving(capacity=4)
        with tracking(record=True) as ledger:
            ss.extend(np.zeros(0, dtype=np.int64))
            ss.extend([])
        assert ledger.trace == [] and ss.stream_length == 0

    def test_pickle_with_stale_heap_entries_loads_and_evicts(self):
        """A pickle written under the old lazy-heap rule carries stale
        entries (every count an item ever had, plus evicted items);
        unpickling rebuilds the heap so eviction stays correct."""
        rng = np.random.default_rng(17)
        prefix = (rng.zipf(1.3, 2_000) % 50).astype(np.int64)
        suffix = (rng.zipf(1.3, 2_000) % 50).astype(np.int64)
        reference = SpaceSaving(capacity=6)
        reference.extend(prefix)

        relic = object.__new__(SpaceSaving)
        stale = [(c, item) for item, count in reference.counters.items()
                 for c in range(1, count + 1)]
        stale += [(1, item) for item in range(50) if item not in reference.counters]
        heapq.heapify(stale)
        relic.__dict__.update(
            capacity=reference.capacity,
            counters=dict(reference.counters),
            _heap=stale,
            stream_length=reference.stream_length,
        )
        loaded = pickle.loads(pickle.dumps(relic))
        assert len(loaded._heap) == len(loaded.counters)

        loaded.extend(suffix)
        reference.extend(suffix)
        assert loaded.counters == reference.counters
        assert loaded.stream_length == reference.stream_length
        assert len(loaded._heap) == len(loaded.counters)


class TestLossyCounting:
    def test_validation(self):
        with pytest.raises(ValueError):
            LossyCounting(0.0)

    @given(st.lists(st.integers(0, 30), max_size=400), st.sampled_from([0.5, 0.2, 0.1]))
    def test_underestimate_bracket(self, items, eps):
        lc = LossyCounting(eps)
        lc.extend(items)
        true = Counter(items)
        m = len(items)
        for item in set(items):
            est = lc.estimate(item)
            assert est <= true[item]
            assert est >= true[item] - eps * m - 1

    def test_space_stays_small_on_uniform(self):
        lc = LossyCounting(0.02)
        lc.extend(np.arange(20_000) % 5_000)
        # Lossy counting keeps O(ε⁻¹ log(εm)) entries.
        assert len(lc.entries) <= (1 / 0.02) * np.log2(0.02 * 20_000) * 4


class TestSequentialMG:
    def test_charged_sequentially(self):
        mg = SequentialMisraGries(capacity=4)
        with tracking() as led:
            mg.extend(range(50))
        assert led.depth == led.work
        assert led.work >= 50

    def test_heavy_hitters_helper(self):
        stream = np.concatenate([np.zeros(600, dtype=np.int64), np.arange(400)])
        found = sequential_heavy_hitters(stream, phi=0.5, eps=0.1)
        assert 0 in found

    def test_helper_validation(self):
        with pytest.raises(ValueError):
            sequential_heavy_hitters([1], phi=0.1, eps=0.2)


class TestExactCounters:
    def test_exactness(self):
        ec = ExactCounters()
        stream = zipf_stream(2_000, 100, 1.1, rng=4)
        ec.extend(stream)
        true = Counter(stream.tolist())
        for item in set(stream.tolist()):
            assert ec.estimate(item) == true[item]
        assert ec.space == len(true) + 1

    def test_heavy_hitters_exact(self):
        ec = ExactCounters()
        ec.extend([1, 1, 1, 2])
        assert ec.heavy_hitters(0.5) == {1: 3}
