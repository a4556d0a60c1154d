"""Shared concurrency layer: epoch publication, snapshot-consistent
reads, and thread-local buffered ingest.

The epoch/snapshot machinery (:class:`SnapshotStore`, :class:`Snapshot`)
lives here so the serve tier and the buffered concurrent ingest path
(:class:`ConcurrentIngestor`) share one implementation and one
consistency model (docs/architecture.md)."""

from repro.concurrent.buffers import ConcurrentIngestor, LocalBuffer
from repro.concurrent.epoch import Snapshot, SnapshotStore

__all__ = ["Snapshot", "SnapshotStore", "LocalBuffer", "ConcurrentIngestor"]
