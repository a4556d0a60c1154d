"""Tests for the discretized-stream pipeline driver."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.freq_infinite import ParallelFrequencyEstimator
from repro.core.basic_counting import ParallelBasicCounter
from repro.core.countmin import ParallelCountMin
from repro.engine import registry
from repro.pram.cost import CostLedger, tracking
from repro.pram.plan import PreparedBatch
from repro.resilience.reshard import ElasticShardedIngestor
from repro.resilience.state import dumps
from repro.stream.generators import bit_stream, zipf_stream
from repro.stream.minibatch import BatchReport, MinibatchDriver


class TestValidation:
    def test_needs_operators(self):
        with pytest.raises(ValueError):
            MinibatchDriver({})

    def test_query_every_positive(self):
        with pytest.raises(ValueError):
            MinibatchDriver({"x": ParallelFrequencyEstimator(0.1)}, query_every=0)

    def test_batch_size_positive(self):
        driver = MinibatchDriver({"x": ParallelFrequencyEstimator(0.1)})
        with pytest.raises(ValueError):
            driver.run(np.arange(10), 0)


class TestRun:
    def test_batch_chunking(self):
        driver = MinibatchDriver({"freq": ParallelFrequencyEstimator(0.1)})
        reports = driver.run(zipf_stream(1_000, 50, 1.1, rng=0), batch_size=300)
        assert [r.size for r in reports] == [300, 300, 300, 100]
        assert driver.total_items() == 1_000

    def test_max_batches(self):
        driver = MinibatchDriver({"freq": ParallelFrequencyEstimator(0.1)})
        reports = driver.run(np.arange(1_000) % 7, 100, max_batches=3)
        assert len(reports) == 3

    def test_cost_accounting(self):
        driver = MinibatchDriver({"freq": ParallelFrequencyEstimator(0.05)})
        driver.run(zipf_stream(2_000, 100, 1.2, rng=1), 500)
        assert driver.total_work() > 0
        assert driver.max_depth() > 0
        assert driver.max_depth() < driver.total_work()
        assert driver.mean_work_per_item() == pytest.approx(
            driver.total_work() / 2_000
        )

    def test_driver_ledger_sums_batch_deltas_under_ambient_ledger(self):
        """Under an ambient ledger (``repro --costs``, profiling) the
        driver's own ledger gains each batch's delta, not the ambient
        ledger's running total."""
        cms = ParallelCountMin(eps=0.01, delta=0.01, rng=np.random.default_rng(5))
        driver = MinibatchDriver({"cms": cms})
        with tracking() as ambient:
            reports = driver.run(zipf_stream(8 * 512, 300, 1.2, rng=6), 512)
        assert len(reports) == 8
        assert driver.ledger.work == sum(r.work for r in reports) == ambient.work
        assert driver.ledger.depth == sum(r.depth for r in reports)

    def test_multiple_operators_fan_out(self):
        freq = ParallelFrequencyEstimator(0.1)
        count = ParallelBasicCounter(100, 0.2)
        driver = MinibatchDriver({"freq": freq, "count": count})
        driver.run(bit_stream(400, 0.5, rng=2), 100)
        assert freq.stream_length == 400
        assert count.t == 400

    def test_queries_run_on_schedule(self):
        freq = ParallelFrequencyEstimator(0.1)
        driver = MinibatchDriver(
            {"freq": freq},
            query_every=2,
            queries={"len": lambda: freq.stream_length},
        )
        reports = driver.run(np.zeros(500, dtype=np.int64), 100)
        answered = [r for r in reports if r.query_results]
        assert len(answered) == 2  # batches 2 and 4 (1-indexed)
        assert answered[0].query_results["len"] == 200
        assert answered[1].query_results["len"] == 400

    def test_throughput_positive(self):
        driver = MinibatchDriver({"freq": ParallelFrequencyEstimator(0.1)})
        driver.run(zipf_stream(1_000, 10, 1.0, rng=3), 250)
        assert driver.throughput_items_per_sec() > 0

    def test_report_work_per_item(self):
        report = BatchReport(index=0, size=100, work=500, depth=10, seconds=0.1)
        assert report.work_per_item == 5.0
        empty = BatchReport(index=0, size=0, work=0, depth=0, seconds=0.0)
        assert empty.work_per_item == 0.0

    def test_reports_accumulate_across_runs(self):
        driver = MinibatchDriver({"freq": ParallelFrequencyEstimator(0.1)})
        driver.run(np.zeros(100, dtype=np.int64), 50)
        driver.run(np.zeros(100, dtype=np.int64), 50)
        assert len(driver.reports) == 4
        assert driver.reports[-1].index == 3


class TestHooks:
    """add_hook: runtime-only probes that fire after every processed
    minibatch (the fuzzer's mid-stream checkpoint relation rides on
    this)."""

    def test_hook_sees_every_batch_in_order(self):
        driver = MinibatchDriver({"freq": ParallelFrequencyEstimator(0.1)})
        seen = []
        driver.add_hook(lambda drv, report: seen.append(report.index))
        driver.run(np.arange(1_000) % 7, 300)
        assert seen == [0, 1, 2, 3]

    def test_hook_fires_after_operator_ingest(self):
        freq = ParallelFrequencyEstimator(0.1)
        driver = MinibatchDriver({"freq": freq})
        lengths = []
        driver.add_hook(lambda drv, report: lengths.append(freq.stream_length))
        driver.run(np.arange(600) % 5, 200)
        assert lengths == [200, 400, 600]

    def test_multiple_hooks_run_in_registration_order(self):
        driver = MinibatchDriver({"freq": ParallelFrequencyEstimator(0.1)})
        order = []
        driver.add_hook(lambda drv, report: order.append("a"))
        driver.add_hook(lambda drv, report: order.append("b"))
        driver.run(np.arange(100), 100)
        assert order == ["a", "b"]

    def test_hooks_survive_state_round_trip(self):
        driver = MinibatchDriver({"freq": ParallelFrequencyEstimator(0.1)})
        fired = []
        driver.add_hook(lambda drv, report: fired.append(report.index))
        state = driver.state_dict()
        driver.load_state(state)  # hooks are runtime-only, not state
        driver.run(np.arange(100), 50)
        assert fired == [0, 1]


# ----------------------------------------------------------------------
# Parity with an explicit per-batch loop
# ----------------------------------------------------------------------
_QUERY_EVERY = 3


def _ops(names: tuple[str, ...]) -> dict:
    """Registry-built operators (seeded, so two builds are identical)."""
    registry.load_all()
    return {name: registry.get(name).build() for name in names}


def _queries(ops: dict) -> dict:
    return {"cms0": lambda: ops["ParallelCountMin"].point_query(0)}


def _explicit_loop(ops, stream, batch_size, *, share_prework, shards):
    """The paper's minibatch step written out by hand: one plan per
    batch, then every operator's ingest in order (mergeable operators
    through a shard ingestor when ``shards`` is set), queries every
    ``_QUERY_EVERY`` batches.  Returns (report tuples, cumulative ledger)."""
    ingestors = {
        name: ElasticShardedIngestor(op, shards=shards, label=name)
        for name, op in ops.items()
        if shards is not None and hasattr(op, "merge")
    }
    queries = _queries(ops)
    ledger = CostLedger()
    reports = []
    for index, start in enumerate(range(0, len(stream), batch_size)):
        batch = stream[start : start + batch_size]
        query_point = (index + 1) % _QUERY_EVERY == 0
        with tracking() as batch_ledger:
            plan = PreparedBatch(batch) if share_prework else None
            for name, op in ops.items():
                if name in ingestors:
                    ingestors[name].ingest(batch, batch_id=index)
                elif plan is not None and hasattr(op, "ingest_prepared"):
                    op.ingest_prepared(plan)
                else:
                    op.ingest(batch)
            if query_point:
                for ing in ingestors.values():
                    ing.sync()
        ledger.charge(batch_ledger.work, batch_ledger.depth)
        results = {n: q() for n, q in queries.items()} if query_point else {}
        reports.append(
            (index, len(batch), batch_ledger.work, batch_ledger.depth, results)
        )
    with tracking(ledger):
        for ing in ingestors.values():
            ing.sync()
    return reports, ledger


def _states(ops: dict) -> dict[str, bytes]:
    return {name: dumps(op.state_dict()) for name, op in ops.items()}


class TestExplicitLoopParity:
    """The driver's per-batch executor equals the hand-written loop in
    reports, cumulative ledger and operator states — fused, unshared,
    and sharded alike — and sharding never changes a linear sketch."""

    @pytest.mark.parametrize(
        "names, share_prework, shards, fused",
        [
            (
                ("ParallelCountMin", "MisraGriesSummary",
                 "WorkEfficientSlidingFrequency"),
                True, None, True,
            ),
            (
                ("ParallelCountMin", "MisraGriesSummary",
                 "WorkEfficientSlidingFrequency"),
                False, None, False,
            ),
            (
                ("ParallelCountMin", "WorkEfficientSlidingFrequency"),
                True, 2, False,
            ),
        ],
        ids=["shared-fused", "unshared", "mixed-sharded"],
    )
    def test_driver_matches_explicit_loop(self, names, share_prework, shards, fused):
        stream = zipf_stream(3_000, 64, 1.2, rng=7)
        driver_ops = _ops(names)
        driver = MinibatchDriver(
            driver_ops,
            query_every=_QUERY_EVERY,
            queries=_queries(driver_ops),
            share_prework=share_prework,
            shards=shards,
        )
        assert driver.fuse_kernels is fused
        driver.run(stream, 256)

        loop_ops = _ops(names)
        loop_reports, loop_ledger = _explicit_loop(
            loop_ops, stream, 256, share_prework=share_prework, shards=shards
        )
        assert [
            (r.index, r.size, r.work, r.depth, r.query_results)
            for r in driver.reports
        ] == loop_reports
        assert dumps(driver.ledger.state_dict()) == dumps(loop_ledger.state_dict())
        assert _states(driver.operators) == _states(loop_ops)

        if shards is not None:
            unsharded = _ops(names)
            _explicit_loop(unsharded, stream, 256, share_prework=True, shards=None)
            assert _states(driver.operators) == _states(unsharded)
