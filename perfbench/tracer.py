"""Per-layer timing from outside the program.

:class:`Tracer` replaces public functions of the program's layers with
wrappers defined here, so the traced run needs no tracing code inside
the program.  A wrapper records calls, inclusive time of the outermost
call per name, self time (span time minus the time of timed calls made
inside it), and optionally the items the call carried.  Time spent in
top-level timed calls is summed so the server's CPU outside every
timed call (``serve.server.unattributed_share``) can be derived.

A target function that no longer exists is listed in
:attr:`Tracer.absent`; its metrics read 0 and the run still succeeds.

:func:`layer_metrics` turns the raw counters into the per-layer metric
table of ``BENCHMARK.json``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
import time

import numpy as np

_now = time.perf_counter_ns

#: Module-level functions: (metric group, module, function name).
FUNCTIONS = [
    ("serve.protocol.parse_request", "repro.serve.protocol", "parse_request"),
    ("serve.protocol.encode_ok", "repro.serve.protocol", "encode_ok"),
]

#: Methods: (metric group, module, class, method names, kind, items).
#: kind is "timed", "async" (wall time only, never a parent span) or
#: "count"; items names how a call's item count is read (``arg`` = the
#: length of the first argument, ``result`` = the return value).
METHODS = [
    ("serve.session.submit", "repro.serve.session", "TenantSession", ("submit",), "async", "result"),
    ("serve.session.query", "repro.serve.session", "TenantSession", ("query",), "timed", None),
    ("stream.minibatch.run", "repro.stream.minibatch", "MinibatchDriver", ("run",), "timed", "arg"),
    ("engine.graph.execute", "repro.engine.graph", "DataflowGraph", ("execute",), "timed", None),
    ("engine.fusion.execute", "repro.engine.fusion", "FusedIngestPlan", ("execute",), "timed", "arg"),
    ("pram.plan.prepare", "repro.pram.plan", "PreparedBatch", ("__init__", "*"), "timed", None),
    ("pram.hashing.eval_folded", "repro.pram.hashing", "KWiseHash", ("eval_folded",), "timed", "arg"),
    ("pram.cost.charge", "repro.pram.cost", "CostLedger", ("charge",), "count", None),
    ("core.SBBC.advance", "repro.core.sbbc", "SBBC", ("advance",), "count", None),
    ("concurrent.epoch.publish", "repro.concurrent.epoch", "SnapshotStore", ("publish",), "timed", None),
    ("concurrent.epoch.query", "repro.concurrent.epoch", "SnapshotStore", ("query",), "timed", None),
]

#: Operator ingest entry points, one group per operator class.
INGEST_METHODS = ("ingest", "extend", "ingest_prepared", "ingest_fused")
OPERATORS = [
    ("core.MisraGriesSummary", "repro.core.misra_gries", "MisraGriesSummary"),
    ("baselines.SpaceSaving", "repro.baselines.space_saving", "SpaceSaving"),
    ("core.ParallelCountMin", "repro.core.countmin", "ParallelCountMin"),
    ("core.ParallelCountSketch", "repro.core.countsketch", "ParallelCountSketch"),
    ("core.WindowedCountMin", "repro.core.windowed_countmin", "WindowedCountMin"),
]

#: Per-layer metric -> (unit, better).  BENCHMARK.json lists the same;
#: README.md says which end-to-end metric and workload each should move.
LAYER_METRICS = {
    "serve.protocol.parse_request.us_per_call": ("us/call", "lower"),
    "serve.protocol.encode_ok.us_per_call": ("us/call", "lower"),
    "serve.server.cpu_share": ("ratio", "lower"),
    "serve.server.unattributed_share": ("ratio", "lower"),
    "serve.session.submit.wait_ms_p50": ("ms", "lower"),
    "serve.session.query.us_per_call": ("us/call", "lower"),
    "serve.session.coalesce_ratio": ("ratio", "higher"),
    "stream.minibatch.run.calls": ("count", "higher"),
    "stream.minibatch.run.self_ns_per_item": ("ns/item", "lower"),
    "stream.minibatch.run.ms_p90": ("ms", "lower"),
    "engine.graph.execute.self_us_per_batch": ("us/batch", "lower"),
    "engine.fusion.execute.ns_per_item": ("ns/item", "lower"),
    "pram.plan.prepare.ns_per_item": ("ns/item", "lower"),
    "pram.hashing.eval_folded.ns_per_key": ("ns/key", "lower"),
    "pram.cost.charge.calls_per_item": ("calls/item", "lower"),
    "core.MisraGriesSummary.ingest_ns_per_item": ("ns/item", "lower"),
    "baselines.SpaceSaving.ingest_ns_per_item": ("ns/item", "lower"),
    "core.ParallelCountMin.ingest_ns_per_item": ("ns/item", "lower"),
    "core.ParallelCountSketch.ingest_ns_per_item": ("ns/item", "lower"),
    "core.WindowedCountMin.ingest_ns_per_item": ("ns/item", "lower"),
    "core.SBBC.advance.calls_per_item": ("calls/item", "lower"),
    "concurrent.epoch.publish.calls": ("count", "higher"),
    "concurrent.epoch.publish.us_per_call": ("us/call", "lower"),
    "concurrent.epoch.query.us_per_call": ("us/call", "lower"),
    "observability.metrics.series": ("count", "lower"),
    "trace.overhead_share": ("ratio", "lower"),
}

#: Which wrapped group each metric reads; a metric whose group found no
#: function to wrap is reported absent.
_METRIC_GROUP = {
    "serve.protocol.parse_request.us_per_call": "serve.protocol.parse_request",
    "serve.protocol.encode_ok.us_per_call": "serve.protocol.encode_ok",
    "serve.session.submit.wait_ms_p50": "serve.session.submit",
    "serve.session.query.us_per_call": "serve.session.query",
    "serve.session.coalesce_ratio": "serve.session.submit",
    "stream.minibatch.run.calls": "stream.minibatch.run",
    "stream.minibatch.run.self_ns_per_item": "stream.minibatch.run",
    "stream.minibatch.run.ms_p90": "stream.minibatch.run",
    "engine.graph.execute.self_us_per_batch": "engine.graph.execute",
    "engine.fusion.execute.ns_per_item": "engine.fusion.execute",
    "pram.plan.prepare.ns_per_item": "pram.plan.prepare",
    "pram.hashing.eval_folded.ns_per_key": "pram.hashing.eval_folded",
    "pram.cost.charge.calls_per_item": "pram.cost.charge",
    "core.SBBC.advance.calls_per_item": "core.SBBC.advance",
    "concurrent.epoch.publish.calls": "concurrent.epoch.publish",
    "concurrent.epoch.publish.us_per_call": "concurrent.epoch.publish",
    "concurrent.epoch.query.us_per_call": "concurrent.epoch.query",
    **{f"{group}.ingest_ns_per_item": group for group, _, _ in OPERATORS},
}


class Tracer:
    """Counters behind the installed wrappers.

    ``stats[group]`` is ``[calls, self_ns, outer_ns, items]``; outer
    figures count only calls not nested in a call of the same group.
    ``samples[group]`` keeps outermost call durations (ns) for groups
    whose percentiles are reported.
    """

    KEEP_SAMPLES = ("stream.minibatch.run", "serve.session.submit")

    def __init__(self) -> None:
        self.stats: dict[str, list[int]] = {}
        self.samples: dict[str, list[int]] = {g: [] for g in self.KEEP_SAMPLES}
        self.top_ns = 0
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._depth: dict[str, int] = {}
        self._cpu0 = time.process_time_ns()

    # -- windowing -----------------------------------------------------
    def start_window(self) -> None:
        """Zero every counter; the window starts now."""
        for st in self.stats.values():
            st[:] = [0, 0, 0, 0]
        for samples in self.samples.values():
            samples.clear()
        self.top_ns = 0
        self._cpu0 = time.process_time_ns()

    def snapshot(self) -> dict:
        """The counters since :meth:`start_window`, JSON-ready."""
        return {
            "stats": {k: list(v) for k, v in self.stats.items()},
            "samples": {k: list(v) for k, v in self.samples.items()},
            "top_ns": self.top_ns,
            "cpu_ns": time.process_time_ns() - self._cpu0,
            "absent": sorted(set(self.absent)),
            "series": metric_series(),
        }

    def dump(self, path: str) -> None:
        tmp = f"{path}.tmp"
        with open(tmp, "w") as fh:
            json.dump(self.snapshot(), fh)
        os.replace(tmp, path)

    # -- wrappers ------------------------------------------------------
    def _wrap(self, group: str, fn, kind: str, items: str | None):
        st = self.stats.setdefault(group, [0, 0, 0, 0])
        keep = self.samples.get(group)
        stack, depth = self._stack, self._depth
        depth.setdefault(group, 0)
        tracer = self

        if kind == "count":
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                st[0] += 1
                return fn(*args, **kwargs)
            return counted

        if kind == "async":
            @functools.wraps(fn)
            async def timed_async(*args, **kwargs):
                t0 = _now()
                result = await fn(*args, **kwargs)
                dt = _now() - t0
                st[0] += 1
                st[2] += dt
                if items == "result" and result:
                    st[3] += 1
                if keep is not None:
                    keep.append(dt)
                return result
            return timed_async

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            outer = depth[group] == 0
            depth[group] += 1
            stack.append(0)
            t0 = _now()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = _now() - t0
                child = stack.pop()
                depth[group] -= 1
                st[0] += 1
                st[1] += dt - child
                if outer:
                    st[2] += dt
                    if items == "arg" and len(args) > 1:
                        st[3] += _length(args[1])
                    if keep is not None:
                        keep.append(dt)
                if stack:
                    stack[-1] += dt
                else:
                    tracer.top_ns += dt
        return timed

    def timed(self, group: str, fn):
        """``fn`` wrapped as a timed span of ``group`` — for benchmark
        code called from inside the program, so the caller's self time
        excludes it."""
        return self._wrap(group, fn, "timed", None)

    def install(self) -> None:
        """Wrap every target that exists; record the rest as absent."""
        for group, module, name in FUNCTIONS:
            mod = _import(module)
            fn = getattr(mod, name, None) if mod else None
            if not callable(fn):
                self.absent.append(group)
                continue
            wrapper = self._wrap(group, fn, "timed", None)
            # Replace every module-level alias, e.g. a name imported
            # with ``from repro.serve.protocol import parse_request``.
            for other in list(sys.modules.values()):
                if getattr(other, "__name__", "").startswith("repro") and getattr(other, name, None) is fn:
                    setattr(other, name, wrapper)
        for group, module, cls_name, names, kind, items in METHODS:
            self._install_methods(group, module, cls_name, names, kind, items)
        for group, module, cls_name in OPERATORS:
            self._install_methods(group, module, cls_name, INGEST_METHODS, "timed", "arg")

    def _install_methods(self, group, module, cls_name, names, kind, items) -> None:
        mod = _import(module)
        cls = getattr(mod, cls_name, None) if mod else None
        if not inspect.isclass(cls):
            self.absent.append(group)
            return
        if "*" in names:  # every public plain method of the class
            names = [n for n in names if n != "*"] + [
                n for n, v in vars(cls).items()
                if not n.startswith("_") and inspect.isfunction(v)
            ]
        wrapped = 0
        for name in names:
            fn = vars(cls).get(name)
            if not inspect.isfunction(fn):
                continue
            if kind == "async" and not inspect.iscoroutinefunction(fn):
                continue
            setattr(cls, name, self._wrap(group, fn, kind, items))
            wrapped += 1
        if not wrapped:
            self.absent.append(group)


def _length(value) -> int:
    try:
        return len(value)
    except TypeError:  # a scalar key
        return 1


def _import(module: str):
    try:
        return importlib.import_module(module)
    except ImportError:
        return None


def metric_series() -> int:
    """Label series held by the process-wide metrics registry."""
    mod = _import("repro.observability.metrics")
    registry = getattr(mod, "REGISTRY", None) if mod else None
    if registry is None:
        return 0
    return sum(len(metric.samples()) for metric in registry.collect())


def layer_metrics(
    snap: dict, *, served: bool, server_cpu_share: float, overhead_share: float
) -> tuple[dict, list[str]]:
    """The per-layer metric values of one traced window, and the names
    reported absent.  Server-only metrics read 0 when not ``served``."""
    stats = snap["stats"]

    def st(group: str) -> list[int]:
        return stats.get(group, [0, 0, 0, 0])

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    def us_per_call(group: str) -> float:
        return ratio(st(group)[2], st(group)[0] * 1e3)

    def ms_pct(group: str, q: float) -> float:
        samples = snap["samples"].get(group)
        return float(np.percentile(samples, q)) / 1e6 if samples else 0.0

    run = st("stream.minibatch.run")
    items = run[3]  # items handed to MinibatchDriver.run in the window
    values = {
        "serve.protocol.parse_request.us_per_call": us_per_call("serve.protocol.parse_request"),
        "serve.protocol.encode_ok.us_per_call": us_per_call("serve.protocol.encode_ok"),
        "serve.server.cpu_share": server_cpu_share,
        "serve.server.unattributed_share": 1.0 - ratio(snap["top_ns"], snap["cpu_ns"]) if served else 0.0,
        "serve.session.submit.wait_ms_p50": ms_pct("serve.session.submit", 50),
        "serve.session.query.us_per_call": us_per_call("serve.session.query"),
        "serve.session.coalesce_ratio": ratio(st("serve.session.submit")[3], run[0]),
        "stream.minibatch.run.calls": float(run[0]),
        "stream.minibatch.run.self_ns_per_item": ratio(run[1], items),
        "stream.minibatch.run.ms_p90": ms_pct("stream.minibatch.run", 90),
        "engine.graph.execute.self_us_per_batch": ratio(st("engine.graph.execute")[1], st("engine.graph.execute")[0] * 1e3),
        "engine.fusion.execute.ns_per_item": ratio(st("engine.fusion.execute")[1], st("engine.fusion.execute")[3]),
        "pram.plan.prepare.ns_per_item": ratio(st("pram.plan.prepare")[1], items),
        "pram.hashing.eval_folded.ns_per_key": ratio(st("pram.hashing.eval_folded")[2], st("pram.hashing.eval_folded")[3]),
        "pram.cost.charge.calls_per_item": ratio(st("pram.cost.charge")[0], items),
        "core.SBBC.advance.calls_per_item": ratio(st("core.SBBC.advance")[0], items),
        "concurrent.epoch.publish.calls": float(st("concurrent.epoch.publish")[0]),
        "concurrent.epoch.publish.us_per_call": us_per_call("concurrent.epoch.publish"),
        "concurrent.epoch.query.us_per_call": us_per_call("concurrent.epoch.query"),
        "observability.metrics.series": float(snap["series"]),
        "trace.overhead_share": overhead_share,
    }
    for group, _, _ in OPERATORS:
        values[f"{group}.ingest_ns_per_item"] = ratio(st(group)[1], st(group)[3])
    absent = sorted(
        name for name, group in _METRIC_GROUP.items() if group in set(snap["absent"])
    )
    return values, absent
