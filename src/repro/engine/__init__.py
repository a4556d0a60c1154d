"""repro.engine — the unified synopsis engine (registry + merge trees).

Two coordinated pieces, one contract:

``repro.engine.registry``
    a runtime-checkable :class:`~repro.engine.registry.Synopsis`
    protocol with per-operator capability flags, plus a declarative
    registry of factories covering every operator `repro.core` and
    `repro.baselines` export.  The CLI, conformance sweeps, checkpoint
    audits, span catalog, and profiler all iterate it instead of
    hard-coding operator lists.
``repro.engine.mergetree``
    k-ary merge trees over mergeable summaries: the fold phase of a
    sharded ingest at O(log_k S) charged depth instead of Θ(S).

See ``docs/architecture.md`` for how the engine sits between the PRAM
substrate and the streaming/tooling layers.
"""

from repro.engine import registry
from repro.engine.mergetree import merge_partials, merge_tree_ingest, shard_partials
from repro.engine.registry import Capabilities, Synopsis, SynopsisSpec

__all__ = [
    "registry",
    "Synopsis",
    "Capabilities",
    "SynopsisSpec",
    "shard_partials",
    "merge_partials",
    "merge_tree_ingest",
]
