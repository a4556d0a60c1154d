"""repro.serve — the multi-tenant asyncio streaming front-end.

Each tenant owns a registry-built operator set behind a bounded ingest
queue and a :class:`~repro.stream.minibatch.MinibatchDriver`; queries
are answered from double-buffered, epoch-stamped snapshots published on
batch boundaries, so reads are snapshot-consistent while ingest keeps
running.  See docs/serving.md for the architecture and the ``serve/v1``
wire protocol.
"""

from repro.concurrent.epoch import Snapshot, SnapshotStore
from repro.serve.client import LineClient
from repro.serve.protocol import (
    LINE_LIMIT,
    PROTOCOL_VERSION,
    ProtocolError,
    parse_request,
    parse_response,
)
from repro.serve.quota import AdmissionController, AdmissionError, TokenBucket
from repro.serve.server import ServeConfig, StreamServer
from repro.serve.session import DrainReport, TenantSession

__all__ = [
    "AdmissionController",
    "AdmissionError",
    "DrainReport",
    "LINE_LIMIT",
    "LineClient",
    "PROTOCOL_VERSION",
    "ProtocolError",
    "ServeConfig",
    "Snapshot",
    "SnapshotStore",
    "StreamServer",
    "TenantSession",
    "TokenBucket",
    "parse_request",
    "parse_response",
]
