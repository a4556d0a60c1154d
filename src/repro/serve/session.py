"""Per-tenant ingest/query session: queue → driver → snapshot.

One :class:`TenantSession` is one tenant's whole pipeline
(docs/serving.md):

* a **bounded queue** of submitted minibatch arrays, with a
  high-watermark backpressure gate — when the queue fills past the
  watermark, :meth:`submit` parks until the pump drains below the low
  watermark, which is what slows the connection's read loop down to
  the tenant's sustainable ingest rate;
* a per-tenant **token bucket** (items/sec quota, docs/serving.md) —
  :meth:`submit` sleeps out the bucket's throttle delay *before*
  enqueueing, so a tenant over quota backs its own socket up rather
  than starving neighbours;
* the **pump task**, which coalesces queued arrays up to the batch
  size, hands them to this tenant's registry-built operators through a
  :class:`~repro.stream.minibatch.MinibatchDriver`, and **publishes a
  snapshot** on the batch boundary — bumping the tenant's epoch;
* the **query surface**: every servable registry operator the tenant
  named at construction answers its canonical probe against the latest
  published snapshot (:mod:`repro.concurrent.epoch`), so queries never
  touch live state and never block ingest.

Shutdown is :meth:`drain`: stop accepting, pump the queue dry, publish
the final epoch, optionally write a checkpoint of the full driver
state, and report whether the dead-letter queue is empty — the clean-
drain contract the server's shutdown path and the CI smoke test assert.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass
from typing import Any, Awaitable, Callable, Mapping, Sequence

import numpy as np

from repro.engine import registry
from repro.observability.metrics import REGISTRY
from repro.resilience.checkpoint import CheckpointManager
from repro.concurrent.epoch import Snapshot, SnapshotStore
from repro.serve.quota import TokenBucket
from repro.stream.minibatch import MinibatchDriver

__all__ = ["TenantSession", "DrainReport"]

# Serve metrics, per tenant (catalog: docs/observability.md).
_M_INGEST = REGISTRY.counter(
    "repro_serve_ingest_total",
    "Stream items accepted into tenant ingest queues",
    labels=("tenant",),
)
_M_BATCHES = REGISTRY.counter(
    "repro_serve_batches_total",
    "Coalesced batches pumped through tenant drivers",
    labels=("tenant",),
)
_M_QUEUE_DEPTH = REGISTRY.gauge(
    "repro_serve_queue_depth",
    "Pending submissions in a tenant's bounded ingest queue",
    labels=("tenant",),
)
_M_EPOCH = REGISTRY.gauge(
    "repro_serve_epoch",
    "Latest published snapshot epoch per tenant",
    labels=("tenant",),
)
_M_QUERY_SECONDS = REGISTRY.histogram(
    "repro_serve_query_seconds",
    "Wall-clock seconds per snapshot query",
)
_M_THROTTLED = REGISTRY.counter(
    "repro_serve_throttled_seconds_total",
    "Quota throttle delay imposed on tenant submissions",
    labels=("tenant",),
)
_M_BACKPRESSURE = REGISTRY.counter(
    "repro_serve_backpressure_waits_total",
    "Submissions parked at the queue high watermark",
    labels=("tenant",),
)

#: Queue sentinel that tells the pump to exit after draining.
_SHUTDOWN = None


@dataclass(frozen=True)
class DrainReport:
    """Outcome of one tenant's graceful drain."""

    tenant: str
    items: int
    batches: int
    epoch: int
    checkpoint: str | None
    dead_letters: int

    @property
    def clean(self) -> bool:
        """A clean drain left nothing behind: every accepted item was
        folded and the dead-letter queue is empty."""
        return self.dead_letters == 0


class TenantSession:
    """One tenant's queue → driver → snapshot pipeline.

    Parameters
    ----------
    tenant:
        Tenant id (metric label, checkpoint tag, protocol handle).
    ops:
        Servable registry operator names this tenant owns; each is
        built fresh from its spec's seeded factory.  A pre-built
        ``{name: operator}`` mapping is also accepted (benchmarks
        construct thousands of sessions and want to pick sizes).
    quota_rate / quota_burst:
        Token-bucket items/sec quota; ``None`` disables throttling.
    queue_max:
        Bounded-queue capacity in *submissions* (arrays, not items).
    high_watermark:
        Queue depth at which :meth:`submit` starts parking; defaults to
        3/4 of ``queue_max``.  The pump releases parked submitters once
        depth falls to half the watermark.
    batch_size:
        Coalescing target for the driver hand-off.
    shards:
        Optional elastic shard count forwarded to the driver (mergeable
        operators only, docs/resilience.md).
    checkpoint_manager:
        Destination for the drain-time snapshot of full driver state.
    clock / sleep:
        Injectable time sources (tests drive quotas deterministically).
    """

    def __init__(
        self,
        tenant: str,
        ops: Sequence[str] | Mapping[str, Any],
        *,
        quota_rate: float | None = None,
        quota_burst: float | None = None,
        queue_max: int = 64,
        high_watermark: int | None = None,
        batch_size: int = 4096,
        shards: int | None = None,
        checkpoint_manager: CheckpointManager | None = None,
        clock: Callable[[], float] = time.monotonic,
        sleep: Callable[[float], Awaitable[None]] = asyncio.sleep,
    ) -> None:
        if queue_max < 1:
            raise ValueError(f"queue_max must be >= 1, got {queue_max}")
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        self.tenant = tenant
        if isinstance(ops, Mapping):
            self.operators = dict(ops)
        else:
            if not ops:
                raise ValueError("tenant needs at least one operator")
            self.operators = {}
            for name in ops:
                spec = registry.get(name)  # KeyError -> unknown-op
                if not spec.servable:
                    raise ValueError(f"operator {name} has no query probe")
                self.operators[name] = spec.build()
        self.driver = MinibatchDriver(self.operators, shards=shards)
        self.snapshots = SnapshotStore(self.operators, name=f"tenant:{tenant}")
        self.bucket = (
            TokenBucket(quota_rate, quota_burst, clock=clock)
            if quota_rate is not None
            else None
        )
        self.batch_size = int(batch_size)
        self.queue: asyncio.Queue = asyncio.Queue(maxsize=queue_max)
        self.high_watermark = (
            int(high_watermark)
            if high_watermark is not None
            else max(1, (3 * queue_max) // 4)
        )
        if not 1 <= self.high_watermark <= queue_max:
            raise ValueError(
                f"need 1 <= high_watermark <= queue_max, got "
                f"{self.high_watermark}/{queue_max}"
            )
        self.low_watermark = self.high_watermark // 2
        self.checkpoint_manager = checkpoint_manager
        self._sleep = sleep
        self._below_high = asyncio.Event()
        self._below_high.set()
        self._pump_task: asyncio.Task | None = None
        self._draining = False
        self.items_accepted = 0
        self.items_folded = 0
        self.batches_pumped = 0
        self.throttled_seconds = 0.0
        self.backpressure_waits = 0
        self.connections = 0

    # ------------------------------------------------------------------
    @property
    def epoch(self) -> int:
        return self.snapshots.epoch

    def start(self) -> None:
        """Launch the pump task (idempotent)."""
        if self._pump_task is None:
            self._pump_task = asyncio.get_running_loop().create_task(
                self._pump(), name=f"serve-pump-{self.tenant}"
            )

    # ------------------------------------------------------------------
    # Ingest path
    # ------------------------------------------------------------------
    async def submit(self, items: Sequence[int] | np.ndarray) -> int:
        """Quota-throttle, backpressure-gate, and enqueue one array of
        stream items.  Returns how many items were accepted."""
        if self._draining:
            raise RuntimeError(f"tenant {self.tenant} is draining")
        batch = np.asarray(items, dtype=np.int64)
        if batch.size == 0:
            return 0
        if self.bucket is not None:
            delay = self.bucket.request(int(batch.size))
            if delay > 0:
                self.throttled_seconds += delay
                _M_THROTTLED.inc(delay, tenant=self.tenant)
                await self._sleep(delay)
        if self.queue.qsize() >= self.high_watermark:
            # High watermark reached: park this submitter (and with it
            # the connection's read loop) until the pump drains the
            # queue down to the low watermark — backpressure, not drop.
            self._below_high.clear()
            self.backpressure_waits += 1
            _M_BACKPRESSURE.inc(tenant=self.tenant)
            await self._below_high.wait()
        await self.queue.put(batch)
        self.items_accepted += int(batch.size)
        _M_INGEST.inc(int(batch.size), tenant=self.tenant)
        _M_QUEUE_DEPTH.set(self.queue.qsize(), tenant=self.tenant)
        return int(batch.size)

    async def _pump(self) -> None:
        """Coalesce queued arrays to ~batch_size and run the driver,
        publishing a snapshot on every batch boundary."""
        while True:
            head = await self.queue.get()
            if head is _SHUTDOWN:
                self.queue.task_done()
                break
            chunks = [head]
            size = int(head.size)
            while size < self.batch_size:
                try:
                    nxt = self.queue.get_nowait()
                except asyncio.QueueEmpty:
                    break
                if nxt is _SHUTDOWN:
                    # Put the sentinel back so the outer loop exits once
                    # this final batch is folded and published.
                    self.queue.task_done()
                    self.queue.put_nowait(_SHUTDOWN)
                    break
                chunks.append(nxt)
                size += int(nxt.size)
            batch = chunks[0] if len(chunks) == 1 else np.concatenate(chunks)
            self.driver.run(batch, batch_size=self.batch_size)
            self.items_folded += int(batch.size)
            self.batches_pumped += 1
            _M_BATCHES.inc(tenant=self.tenant)
            self.snapshots.publish(items=self.items_folded)
            _M_EPOCH.set(self.epoch, tenant=self.tenant)
            for _ in chunks:
                self.queue.task_done()
            if self.queue.qsize() <= self.low_watermark:
                self._below_high.set()
            _M_QUEUE_DEPTH.set(self.queue.qsize(), tenant=self.tenant)

    # ------------------------------------------------------------------
    # Query path
    # ------------------------------------------------------------------
    def query(self, op_name: str) -> tuple[int, Any]:
        """Answer ``op_name``'s canonical probe against the latest
        published snapshot.  Returns ``(epoch, result)`` — the epoch
        identifies exactly which stream prefix the answer describes."""
        if op_name not in self.operators:
            raise KeyError(
                f"tenant {self.tenant} has no operator {op_name!r}; "
                f"owns {sorted(self.operators)}"
            )
        spec = registry.get(op_name)
        t0 = time.perf_counter()
        epoch, result = self.snapshots.query(
            lambda snap: spec.probe(snap[op_name])
        )
        _M_QUERY_SECONDS.observe(time.perf_counter() - t0)
        return epoch, result

    def read_snapshot(self) -> Snapshot:
        return self.snapshots.read()

    # ------------------------------------------------------------------
    def stats(self) -> dict[str, Any]:
        return {
            "tenant": self.tenant,
            "ops": sorted(self.operators),
            "epoch": self.epoch,
            "items_accepted": self.items_accepted,
            "items_folded": self.items_folded,
            "batches": self.batches_pumped,
            "queue_depth": self.queue.qsize(),
            "throttled_seconds": round(self.throttled_seconds, 6),
            "backpressure_waits": self.backpressure_waits,
            "shards": self.driver.shard_counts() or None,
        }

    # ------------------------------------------------------------------
    # Shutdown
    # ------------------------------------------------------------------
    async def drain(self) -> DrainReport:
        """Graceful shutdown: refuse new submissions, pump the queue
        dry, publish the final epoch, checkpoint, and account.

        The returned report's :attr:`DrainReport.clean` is the serve
        layer's acceptance contract: every accepted item folded and a
        dead-letter queue with nothing in it."""
        self._draining = True
        if self._pump_task is not None:
            await self.queue.put(_SHUTDOWN)
            await self._pump_task
            self._pump_task = None
        # Final epoch: even an empty queue publishes once more so the
        # drained state is the one readers see.
        self.snapshots.publish(items=self.items_folded)
        _M_EPOCH.set(self.epoch, tenant=self.tenant)
        _M_QUEUE_DEPTH.set(0, tenant=self.tenant)
        path: str | None = None
        serializable = all(
            hasattr(op, "state_dict") for op in self.operators.values()
        )
        if self.checkpoint_manager is not None and serializable:
            saved = self.checkpoint_manager.save(
                {"tenant": self.tenant, "driver": self.driver.state_dict()},
                batch_index=self.batches_pumped,
            )
            path = str(saved)
        dlq = self.driver.dead_letter
        return DrainReport(
            tenant=self.tenant,
            items=self.items_folded,
            batches=self.batches_pumped,
            epoch=self.epoch,
            checkpoint=path,
            dead_letters=len(dlq) if dlq is not None else 0,
        )
