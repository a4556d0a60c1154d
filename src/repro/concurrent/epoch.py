"""Epoch publication and snapshot-consistent reads: the shared layer.

Every layer that needs a consistency point shares this one
implementation: the serve tier's per-tenant sessions, the thread-local
buffered ingest path (:mod:`repro.concurrent.buffers`), and the
fuzzer's ``staleness`` relation.

The merge algebra guarantees (docs/serving.md, [ACH+13]) that after any
processed minibatch the driver's operator state *is* the exact serial
fold of everything ingested so far — shard partials included, because
``MinibatchDriver.run`` folds them before returning.  That makes a
batch boundary the natural consistency point: copy each operator's
state there and any number of readers can query the copy while the live
operator ingests the next batch, with every answer attributable to one
well-defined stream prefix.

:class:`SnapshotStore` keeps **two** buffers per operator and
alternates publishes between them (classic double buffering): the front
buffer is what :meth:`SnapshotStore.read` hands out; a publish writes
the live state into the *back* buffer, swaps the roles, and bumps the
**epoch** counter.  Readers therefore never block the ingest path and
the ingest path never mutates an object a current-epoch reader holds.

A reader that may suspend (or run off-loop, or on another thread)
between grabbing a snapshot and finishing its query uses
:meth:`SnapshotStore.query`, a seqlock: every publish makes a sequence
counter odd before it rewrites the back buffer and even again after the
swap, and the reader retries when the counter was odd or moved while
its probe ran — so it validates against publishes *started*, not only
finished.  Pure in-loop readers can call :meth:`SnapshotStore.read`
directly, since asyncio's single thread means no publish can interleave
with a synchronous probe.

Publication itself is serialized by an internal lock, so concurrent
publishers (the buffered ingest path flushes from worker threads) can
never interleave a half-written back buffer with a swap.  Readers take
no lock at all: ``read`` is one attribute load of an immutable
:class:`Snapshot`, and the epoch and sequence counters only ever move
forward while the lock is held — the contention test in
``tests/test_concurrent.py`` hammers exactly this pairing.
"""

from __future__ import annotations

import pickle
import threading
from dataclasses import dataclass
from typing import Any, Callable, Mapping

from repro.observability.metrics import REGISTRY

__all__ = ["Snapshot", "SnapshotStore"]

# Epoch-layer metrics (catalog: docs/observability.md).
_M_PUBLISHED = REGISTRY.counter(
    "repro_epoch_published_total",
    "Snapshot epochs published across all stores",
)
_M_EPOCH = REGISTRY.gauge(
    "repro_epoch_current",
    "Latest published epoch per named snapshot store",
    labels=("store",),
)


@dataclass(frozen=True)
class Snapshot:
    """One published consistency point: an epoch and the operator copies
    that hold the exact fold of the stream prefix at that epoch."""

    epoch: int
    operators: Mapping[str, Any]
    #: Items folded into the live operators when this epoch published.
    items: int

    def __contains__(self, name: str) -> bool:
        return name in self.operators

    def __getitem__(self, name: str) -> Any:
        return self.operators[name]


def _clone(op: Any) -> Any:
    """A state-carrying copy of ``op`` (buffer bootstrap)."""
    return pickle.loads(pickle.dumps(op))


class SnapshotStore:
    """Double-buffered, epoch-stamped snapshots over live operators.

    Parameters
    ----------
    operators:
        The live named operators (the ones the driver ingests into).
        Each needs either ``state_dict``/``load_state`` (preferred —
        publishes reuse the buffer clones allocation-free) or plain
        picklability (fallback — publishes re-pickle).
    name:
        Optional store label for the ``repro_epoch_current`` gauge
        (``tenant:<id>`` in the serve tier).  Unnamed stores skip the
        gauge, so throwaway stores never leak label cardinality.
    """

    def __init__(
        self, operators: Mapping[str, Any], *, name: str | None = None
    ) -> None:
        if not operators:
            raise ValueError("need at least one operator to snapshot")
        self._live = dict(operators)
        self.name = name
        self._codec_ok = all(
            hasattr(op, "state_dict") and hasattr(op, "load_state")
            for op in self._live.values()
        )
        self._buffers = (
            {name_: _clone(op) for name_, op in self._live.items()},
            {name_: _clone(op) for name_, op in self._live.items()},
        )
        self._front = 0
        self.epoch = 0
        #: Seqlock sequence: odd while a publish is rewriting a buffer.
        self._seq = 0
        #: Serializes publishers; readers never take it.
        self._publish_lock = threading.Lock()
        self._snapshot = Snapshot(
            epoch=0, operators=dict(self._buffers[0]), items=0
        )

    # ------------------------------------------------------------------
    def publish(self, *, items: int = 0) -> int:
        """Copy live state into the back buffer, swap, bump the epoch.

        Called by the ingest path on batch boundaries (driver, serve)
        or buffer-flush boundaries (:mod:`repro.concurrent.buffers`) —
        points where operator state equals the exact fold of a
        well-defined item multiset.  Publishers serialize on an
        internal lock; a publish never blocks :meth:`read`.  Returns
        the new epoch.
        """
        with self._publish_lock:
            self._seq += 1
            back = self._buffers[1 - self._front]
            if self._codec_ok:
                for name_, live in self._live.items():
                    back[name_].load_state(live.state_dict())
            else:
                for name_, live in self._live.items():
                    back[name_] = _clone(live)
            self._front = 1 - self._front
            epoch = self.epoch + 1
            # The new Snapshot becomes visible atomically (one store),
            # and only after the back buffer is fully rewritten.
            self._snapshot = Snapshot(
                epoch=epoch, operators=dict(back), items=items
            )
            self.epoch = epoch
            self._seq += 1
        _M_PUBLISHED.inc()
        if self.name is not None:
            _M_EPOCH.set(epoch, store=self.name)
        return epoch

    def read(self) -> Snapshot:
        """The latest published snapshot — a reference grab, never a
        copy, never blocking.  Valid until *two* further publishes."""
        return self._snapshot

    def query(self, fn: Callable[[Snapshot], Any], retries: int = 8) -> tuple[int, Any]:
        """Run ``fn(snapshot)`` with seqlock semantics: if a publish
        was in flight or started while ``fn`` ran (possible only for
        readers that suspend or run off-loop), the buffer ``fn`` read
        may have been rewritten — retry against the fresh snapshot.
        Returns ``(epoch, result)`` for the epoch the result is
        consistent with."""
        for _ in range(retries):
            seq = self._seq
            if seq & 1:
                continue
            snap = self.read()
            result = fn(snap)
            if self._seq == seq:
                return snap.epoch, result
        # Pathologically hot publisher: serialize against it so the
        # final read cannot be overwritten mid-probe; callers on the
        # event loop never get here.
        with self._publish_lock:
            snap = self.read()
            return snap.epoch, fn(snap)
