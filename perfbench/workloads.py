"""Seeded input generation for the three workloads.

Every input a run feeds the program is produced here from ``--seed``
alone, before any timing starts, and hashed: the same seed gives the
same bytes on every commit, which ``inputs_sha256`` in the diagnostics
line lets a comparison confirm.  Nothing here imports the program.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Shape:
    """The fixed parameters of one workload (see README.md for why)."""

    name: str
    #: True: driven through ``repro serve``; False: in-process driver.
    served: bool
    ops: tuple[str, ...]
    tenants: int
    batch: int
    universe: int
    #: Zipf exponent; ``None`` means uniform keys.
    alpha: float | None
    #: Batches in the pre-generated pool a closed loop cycles through.
    pool_batches: int = 0
    #: Open-loop INGEST batches per second (0 = closed loop).
    ingest_rate: float = 0.0
    #: Open-loop QUERY requests per second (0 = none).
    query_rate: float = 0.0
    #: Relative QUERY frequency of each operator in ``ops``.
    query_weights: tuple[float, ...] | None = None
    #: In-process probe after every this many batches (library only).
    query_every: int = 0


SHAPES = {
    "serve_ingest_hh": Shape(
        name="serve_ingest_hh",
        served=True,
        ops=("MisraGriesSummary", "SpaceSaving", "ParallelCountMin", "ParallelCountSketch"),
        tenants=1,
        batch=4096,
        universe=100_000,
        alpha=1.2,
        pool_batches=384,
        query_rate=50.0,
    ),
    "serve_query_fanout": Shape(
        name="serve_query_fanout",
        served=True,
        ops=("SpaceSaving", "ParallelCountMin"),
        tenants=256,
        batch=256,
        universe=10_000,
        alpha=1.1,
        # Half the rates at which p50/p90 stop repeating on a 2-vCPU VM,
        # so the load stays below that knee when the host runs the server
        # at half speed; at 40 batches/s + 200 queries/s it did not.
        ingest_rate=20.0,
        query_rate=100.0,
        # Space-Saving probes cost ~0.1 ms, Count-Min probes ~2 ms (on a
        # 2-vCPU VM): with a 3:1 mix p50 lies inside the first mode and
        # p90 inside the second, instead of on the edge between them.
        query_weights=(3.0, 1.0),
    ),
    "lib_small_batch": Shape(
        name="lib_small_batch",
        served=False,
        ops=("ParallelCountMin", "ParallelCountSketch", "WindowedCountMin"),
        tenants=1,
        batch=256,
        universe=1 << 20,
        alpha=None,
        # The run cycles this pool; its distinct keys bound the cost of
        # the post-run check_oracle pass (one point query per key).
        pool_batches=64,
        query_every=8,
    ),
}


def keys(rng: np.random.Generator, shape: Shape, n: int) -> np.ndarray:
    """``n`` int64 keys: bounded Zipf (key 0 hottest) or uniform."""
    if shape.alpha is None:
        return rng.integers(0, shape.universe, size=n, dtype=np.int64)
    weights = np.arange(1, shape.universe + 1, dtype=np.float64) ** -shape.alpha
    cdf = np.cumsum(weights)
    cdf /= cdf[-1]
    return np.searchsorted(cdf, rng.random(n), side="right").astype(np.int64)


def tenant_name(index: int) -> str:
    return f"t{index:03d}"


@dataclass
class Inputs:
    """Everything one run sends, fixed before the run starts."""

    shape: Shape
    #: Closed loop: the pool cycled in order.  Open loop: one batch per
    #: scheduled INGEST, in schedule order.
    batches: np.ndarray
    #: Open loop: due time (s from window start) and tenant index of
    #: each scheduled INGEST.
    ingest_due: np.ndarray
    ingest_tenants: np.ndarray
    #: Open loop: due time, tenant index and op index of each QUERY.
    query_due: np.ndarray
    query_tenants: np.ndarray
    query_ops: np.ndarray

    def sha256(self) -> str:
        digest = hashlib.sha256(self.shape.name.encode())
        for arr in (self.batches, self.ingest_tenants, self.query_tenants, self.query_ops):
            digest.update(np.ascontiguousarray(arr, dtype=np.int64).tobytes())
        for arr in (self.ingest_due, self.query_due):
            digest.update(np.ascontiguousarray(arr, dtype=np.float64).tobytes())
        return digest.hexdigest()


def _arrivals(rng: np.random.Generator, rate: float, seconds: float) -> np.ndarray:
    """Poisson arrivals conditioned on their count: ``rate * seconds``
    sorted uniform times.  Random gaps keep two open-loop streams from
    locking phase; the fixed count keeps the offered rate exact."""
    return np.sort(rng.uniform(0.0, seconds, size=int(round(rate * seconds))))


def generate(shape: Shape, seed: int, seconds: float) -> Inputs:
    """The run's inputs from ``seed``; open-loop schedules span ``seconds``."""
    rng = np.random.default_rng([seed, 0xBE7C])
    ingest_due = _arrivals(rng, shape.ingest_rate, seconds)
    n_batches = len(ingest_due) if shape.ingest_rate else shape.pool_batches
    batches = keys(rng, shape, n_batches * shape.batch).reshape(n_batches, shape.batch)
    ingest_tenants = rng.integers(0, shape.tenants, size=len(ingest_due), dtype=np.int64)
    query_due = _arrivals(rng, shape.query_rate, seconds)
    query_tenants = rng.integers(0, shape.tenants, size=len(query_due), dtype=np.int64)
    weights = np.asarray(shape.query_weights or [1.0] * len(shape.ops))
    query_ops = rng.choice(len(shape.ops), size=len(query_due), p=weights / weights.sum())
    return Inputs(
        shape, batches, ingest_due, ingest_tenants, query_due, query_tenants,
        query_ops.astype(np.int64),
    )
