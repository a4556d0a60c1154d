"""repro — Parallel Streaming Frequency-Based Aggregates (SPAA 2014).

A from-scratch reproduction of Tangwongsan, Tirthapura & Wu,
"Parallel Streaming Frequency-Based Aggregates", SPAA 2014
(DOI 10.1145/2612669.2612695).

Layout
------
``repro.pram``      work-depth (PRAM) runtime substrate: cost ledger,
                    data-parallel primitives, intSort, buildHist, CSS
``repro.engine``    unified synopsis engine: typed protocol + operator
                    registry, k-ary merge trees for sharded folds
``repro.stream``    discretized-stream machinery: generators, exact
                    oracles, minibatch pipeline driver
``repro.core``      the paper's algorithms: γ-snapshots, SBBC, basic
                    counting, Sum, Misra-Gries frequency estimation
                    (infinite + 3 sliding-window variants), heavy
                    hitters, parallel Count-Min sketch
``repro.baselines`` sequential and independent-data-structure
                    comparators (DGIM, Lee-Ting, MG, Space-Saving,
                    Lossy Counting, sequential CMS, p-way MG ensemble)
``repro.analysis``  per-theorem bounds, scaling fits, report tables

Quickstart
----------
>>> from repro.core import InfiniteHeavyHitters
>>> from repro.stream import zipf_stream, minibatches
>>> tracker = InfiniteHeavyHitters(phi=0.05, eps=0.01)
>>> for batch in minibatches(zipf_stream(100_000, rng=0), 4_096):
...     tracker.ingest(batch)
>>> 0 in tracker.query()
True
"""

from repro import analysis, baselines, core, engine, pram, stream

__version__ = "1.0.0"

__all__ = [
    "analysis",
    "baselines",
    "core",
    "engine",
    "pram",
    "stream",
    "__version__",
]
