"""The in-process workload: ``MinibatchDriver`` called by one library user.

One process, one thread, closed loop: the caller hands the driver one
256-item batch at a time and, through the driver's own ``queries`` /
``query_every`` hook, probes one operator after every eighth batch —
the paper's model of queries answered between minibatches.  Here the
"ack" is the ingest part of ``driver.run`` and a query's latency is the
probe call itself.

The figures are taken over the window's quiet rounds.  On a shared host
the same code runs up to twice as slowly for seconds at a time, and a
whole window can fall into such a phase, so a mean or percentile over
every call mostly measures the host.  A round is the batches up to and
including the one whose ``driver.run`` made a probe; for each operator
the rounds with the least ingest time, ``QUIET_SHARE`` of its rounds,
are quiet.  The same share of every operator's rounds keeps the probe
mix of the window, so the query percentiles stay inside the same
operator's mode.  After each round the caller moves to the next CPU it
may run on, which gives a window more than one CPU's quiet moments to
find.
"""

from __future__ import annotations

import gc
import os
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from tracer import Tracer, layer_metrics
from workloads import Inputs

#: Set-ups before and again after the window of an untraced run
#: (operator build + driver construction); setup_s is the median of all
#: of them, so it samples the host at both ends of the run.
SETUP_REPEATS = 30
#: Batches ingested before the timed loop, so lazily built state (the
#: engine graph, fused-kernel workspaces) is in place when timing starts.
WARMUP_BATCHES = 16
#: Share of each operator's rounds that count as quiet, and the least
#: number of them per operator.
QUIET_SHARE = 1 / 20
QUIET_MIN = 10


def _vm_hwm_mib() -> float:
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM missing from /proc status")


class _Session:
    """Operators, their driver, and the probe the driver calls."""

    def __init__(self, inputs: Inputs) -> None:
        from repro.engine import registry
        from repro.stream.minibatch import MinibatchDriver

        registry.load_all()
        shape = inputs.shape
        self.specs = {name: registry.get(name) for name in shape.ops}
        self.ops = {name: spec.build() for name, spec in self.specs.items()}
        #: ``(batch index, operator index, ms)`` of every probe.
        self.probes: list[tuple[int, int, float]] = []
        #: Index of the batch ``driver.run`` is ingesting.
        self.batch_index = 0
        self._turn = 0
        self.driver = MinibatchDriver(
            self.ops, query_every=shape.query_every, queries={"probe": self._probe}
        )

    def _probe(self):
        turn = self._turn % len(self.ops)
        name = list(self.ops)[turn]
        self._turn += 1
        t0 = time.perf_counter()
        result = self.specs[name].probe(self.ops[name])
        self.probes.append((self.batch_index, turn, (time.perf_counter() - t0) * 1e3))
        return result


def _setup(inputs: Inputs, repeats: int) -> tuple[_Session, list[float]]:
    times = []
    for _ in range(repeats):
        # Each build starts from a collected heap, so the cyclic garbage
        # of the previous build is not charged to this one.
        gc.collect()
        t0 = time.perf_counter()
        session = _Session(inputs)
        times.append(time.perf_counter() - t0)
    return session, times


def _quiet(run_ms: np.ndarray, probes: list[tuple[int, int, float]], every: int) -> dict:
    """The quiet rounds of a window (see the module docstring): the
    ingest time of each of their batches (probe excluded) and their
    probes' latencies."""
    ingest_ms = run_ms.copy()
    for index, _, ms in probes:
        ingest_ms[index] -= ms
    # Only probes with a whole round before them.
    rounds = [p for p in probes if p[0] + 1 >= every]
    sums = np.concatenate([[0.0], np.cumsum(ingest_ms)])
    acks, queries = [], []
    for op in sorted({p[1] for p in rounds}):
        mine = [p for p in rounds if p[1] == op]
        cost = np.array([sums[p[0] + 1] - sums[p[0] + 1 - every] for p in mine])
        keep = max(QUIET_MIN, int(len(mine) * QUIET_SHARE))
        for j in np.argsort(cost, kind="stable")[:keep]:
            index, _, ms = mine[j]
            acks.append(ingest_ms[index + 1 - every:index + 1])
            queries.append(ms)
    return {"ack_ms": np.concatenate(acks), "query_ms": np.asarray(queries)}


def _window(inputs: Inputs, seconds: float, tracer: Tracer | None, repeats: int) -> dict:
    from repro.fuzz.oracles import check_oracle

    shape = inputs.shape
    session, setup_times = _setup(inputs, repeats)
    if tracer is not None:
        session.driver.queries["probe"] = tracer.timed("bench.probe", session._probe)
    pool = inputs.batches
    fed: list[int] = []
    for k in range(WARMUP_BATCHES):
        session.driver.run(pool[k % len(pool)].copy(), shape.batch)
        fed.append(k % len(pool))
    session.probes.clear()
    if tracer is not None:
        tracer.start_window()
    run_ms = []
    # The caller moves to the next CPU after every round, so one CPU
    # slowed by its neighbours on the host cannot own the whole window.
    cpus = sorted(os.sched_getaffinity(0))
    t_start = time.perf_counter()
    t_end = t_start + seconds
    now = t_start
    while now < t_end:
        k = len(fed) % len(pool)
        batch = pool[k].copy()  # a fresh array, as a caller's new batch is
        session.batch_index = len(run_ms)
        t0 = time.perf_counter()
        session.driver.run(batch, shape.batch)
        now = time.perf_counter()
        run_ms.append((now - t0) * 1e3)
        fed.append(k)
        if session.probes and session.probes[-1][0] == session.batch_index:
            os.sched_setaffinity(0, {cpus[len(session.probes) % len(cpus)]})
    os.sched_setaffinity(0, cpus)
    trace = tracer.snapshot() if tracer is not None else None
    rss = _vm_hwm_mib()

    # Correctness: every operator inside check_oracle's envelope for
    # everything it ingested, and nothing lost by the driver.
    stream = np.concatenate([pool[k] for k in fed])
    plan = SimpleNamespace(universe=shape.universe)
    attempted, failed, errors = len(run_ms) + len(session.probes), 0, []
    attempted += 1
    if session.driver.total_items() != len(stream):
        failed += 1
        errors.append(f"driver folded {session.driver.total_items()} of {len(stream)} items")
    for name, op in session.ops.items():
        attempted += 1
        violations = check_oracle(session.specs[name], op, stream, plan)
        if violations:
            failed += 1
            errors.append(f"{name}: {violations[0]}")
    quiet = _quiet(np.asarray(run_ms), session.probes, shape.query_every)
    return {
        "tally": SimpleNamespace(attempted=attempted, failed=failed, errors=errors, lateness_ms=[]),
        "items_per_s": quiet["ack_ms"].size * shape.batch / (quiet["ack_ms"].sum() / 1e3),
        "query_p50_ms": float(np.percentile(quiet["query_ms"], 50)),
        "query_p90_ms": float(np.percentile(quiet["query_ms"], 90)),
        "ingest_ack_p50_ms": float(np.percentile(quiet["ack_ms"], 50)),
        "samples": {
            "queries": len(session.probes), "acks": len(run_ms),
            "quiet_rounds": int(quiet["query_ms"].size),
            "window_items_per_s": len(run_ms) * shape.batch / (now - t_start),
        },
        "setup_s": setup_times,
        "peak_rss_mb": rss,
        "trace": trace,
    }


def run(root: Path, inputs: Inputs, seconds: float, trace: bool) -> dict:
    """One run of the library workload; see run.py for the result shape.

    Traced, ``seconds`` is each of two windows: an untraced one that
    gives the overhead base, then the traced one."""
    if not trace:
        raw = _window(inputs, seconds, None, SETUP_REPEATS)
        raw["setup_s"] += _setup(inputs, SETUP_REPEATS)[1]
        metrics = {name: raw[name] for name in (
            "items_per_s", "query_p50_ms", "query_p90_ms", "ingest_ack_p50_ms", "peak_rss_mb",
        )}
        metrics["setup_s"] = float(np.median(raw["setup_s"]))
        return {"tally": raw["tally"], "metrics": metrics, "absent": [], "samples": raw["samples"]}
    base = _window(inputs, seconds, None, 1)
    tracer = Tracer()
    tracer.install()
    traced = _window(inputs, seconds, tracer, 1)
    tally = traced["tally"]
    tally.attempted += base["tally"].attempted
    tally.failed += base["tally"].failed
    tally.errors += base["tally"].errors
    overhead = 1.0 - traced["items_per_s"] / base["items_per_s"]
    metrics, absent = layer_metrics(
        traced["trace"], served=False, server_cpu_share=0.0, overhead_share=overhead
    )
    return {"tally": tally, "metrics": metrics, "absent": absent, "samples": {
        "run_calls": traced["trace"]["stats"].get("stream.minibatch.run", [0])[0],
    }}
