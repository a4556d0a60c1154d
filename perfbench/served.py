"""The served workloads: ``repro serve`` driven over ``serve/v1`` TCP.

This process is the load generator: single-threaded asyncio, two
connections, separate from the server process.  The server is started
exactly as a user starts it (``python -m repro serve``) or, for the
traced window, through ``traced_serve.py``, which installs the layer
wrappers and then runs the same CLI entry.

Open-loop requests are timed from the moment they were due, so a
stalled server is charged for the wait it imposes on later requests;
how late the generator itself sent them is reported as
``gen.lateness_p99_ms`` and bounds whether the run is valid at all.
"""

from __future__ import annotations

import asyncio
import gc
import json
import os
import re
import signal
import sys
import time
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from tracer import layer_metrics
from workloads import Inputs, Shape, tenant_name

BANNER_RE = re.compile(r"^serving serve/v1 on (\S+):(\d+)$")
DRAIN_RE = re.compile(r"^drained (\S+): (\d+) items / \d+ batches, epoch \d+, (.*)$")

#: Set-ups per untraced run; setup_s is their median.
SETUP_REPEATS = 5
#: Seconds to wait for the server at any one step before failing.
STEP_TIMEOUT = 60.0


def _payload(batch: np.ndarray) -> bytes:
    body = " ".join(map(str, batch.tolist()))
    return f"INGEST {len(batch)}\n{body}\n".encode()


def _cpu_seconds(pid: int) -> float:
    with open(f"/proc/{pid}/stat") as fh:
        fields = fh.read().rpartition(")")[2].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def _vm_hwm_mib(pid: int) -> float:
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM missing from /proc status")


class Conn:
    """One serve/v1 connection."""

    def __init__(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
        self.reader = reader
        self.writer = writer

    @classmethod
    async def open(cls, host: str, port: int) -> "Conn":
        reader, writer = await asyncio.open_connection(host, port, limit=1 << 22)
        return cls(reader, writer)

    async def reply(self) -> tuple[bool, str]:
        raw = await self.reader.readline()
        if not raw:
            raise ConnectionError("server closed the connection")
        line = raw.decode().rstrip("\n")
        return line.startswith("OK "), line

    async def call(self, data: bytes) -> dict:
        self.writer.write(data)
        await self.writer.drain()
        ok, line = await self.reply()
        if not ok:
            raise RuntimeError(f"server refused {data[:40]!r}: {line}")
        return json.loads(line[3:])

    async def close(self) -> None:
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError):
            pass


@dataclass
class Server:
    proc: asyncio.subprocess.Process
    conns: list[Conn] = field(default_factory=list)
    #: Everything the server printed: banner, then drain reports.
    output: list[str] = field(default_factory=list)


async def start_server(root: Path, shape: Shape, dump: Path | None) -> tuple[Server, float]:
    """Spawn the server, wait for its banner, open two connections and
    HELLO every tenant; returns the server and the seconds it took."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    flags = ["serve", "--port", "0", "--max-tenants", str(max(64, shape.tenants))]
    if dump is None:
        argv = [sys.executable, "-m", "repro", *flags]
    else:
        argv = [sys.executable, str(Path(__file__).with_name("traced_serve.py")), str(dump), *flags]
    t0 = time.perf_counter()
    proc = await asyncio.create_subprocess_exec(
        *argv, cwd=root, env=env,
        stdout=asyncio.subprocess.PIPE, stderr=asyncio.subprocess.STDOUT,
    )
    server = Server(proc)
    try:
        while True:
            raw = await asyncio.wait_for(proc.stdout.readline(), STEP_TIMEOUT)
            if not raw:
                raise RuntimeError("server exited before its banner")
            line = raw.decode().strip()
            server.output.append(line)
            match = BANNER_RE.match(line)
            if match:
                break
        host, port = match.group(1), int(match.group(2))
        await asyncio.wait_for(_hello_all(server, shape, host, port), STEP_TIMEOUT)
    except BaseException:
        await stop_server(server)
        raise
    return server, time.perf_counter() - t0


async def _hello_all(server: Server, shape: Shape, host: str, port: int) -> None:
    server.conns = [await Conn.open(host, port) for _ in range(2)]
    ops = ",".join(shape.ops)
    hello = b"".join(
        f"HELLO {tenant_name(t)} {ops}\n".encode() for t in range(shape.tenants)
    )
    first = server.conns[0]
    first.writer.write(hello)
    await first.writer.drain()
    for _ in range(shape.tenants):
        ok, line = await first.reply()
        if not ok:
            raise RuntimeError(f"HELLO refused: {line}")
    if shape.tenants == 1:  # the query connection keeps one session
        await server.conns[1].call(f"HELLO {tenant_name(0)} {ops}\n".encode())


async def stop_server(server: Server) -> int:
    """Close the connections, SIGINT the server (its graceful drain)
    and collect its output; returns the exit code."""
    for conn in server.conns:
        await conn.close()
    proc = server.proc
    if proc.returncode is None:
        proc.send_signal(signal.SIGINT)
    try:
        out, _ = await asyncio.wait_for(proc.communicate(), STEP_TIMEOUT)
    except asyncio.TimeoutError:
        proc.kill()
        out, _ = await proc.communicate()
    server.output.extend(out.decode(errors="replace").splitlines())
    return proc.returncode


@dataclass
class Tally:
    """What one timed window observed."""

    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    #: QUERY and INGEST latency (ms) from due (open loop) or send time.
    query_ms: list[float] = field(default_factory=list)
    ack_ms: list[float] = field(default_factory=list)
    lateness_ms: list[float] = field(default_factory=list)
    acked_items: int = 0
    last_ack: float = 0.0
    #: tenant index -> batch indices acknowledged, in order.
    acked: dict[int, list[int]] = field(default_factory=dict)

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(message)


async def _open_loop(conn: Conn, events: list, t_start: float, tally: Tally) -> None:
    """Send ``(offset, bytes, replies, on_done)`` events at their due
    times, reading replies on a parallel task, FIFO."""
    pending: deque = deque()
    more = asyncio.Event()
    done_sending = False

    async def read_replies() -> None:
        while pending or not done_sending:
            if not pending:
                more.clear()
                await more.wait()
                continue
            due, replies, on_done = pending[0]
            ok_all, last = True, ""
            for _ in range(replies):
                ok, last = await conn.reply()
                ok_all = ok_all and ok
            pending.popleft()
            now = time.perf_counter()
            if not ok_all:
                tally.fail(f"refused: {last[:120]}")
                continue
            on_done(due, now, last)

    reader = asyncio.create_task(read_replies())
    try:
        for offset, data, replies, on_done in events:
            due = t_start + offset
            delay = due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            sent = time.perf_counter()
            tally.lateness_ms.append((sent - due) * 1e3)
            tally.attempted += 1
            conn.writer.write(data)
            pending.append((due, replies, on_done))
            more.set()
            await conn.writer.drain()
        done_sending = True
        more.set()
        await reader
    except BaseException:
        reader.cancel()
        raise


async def _closed_loop(conn: Conn, payloads: list[bytes], sizes: list[int], t_end: float, tally: Tally) -> None:
    """INGEST pool batches back to back until ``t_end``."""
    acked = tally.acked.setdefault(0, [])
    i = 0
    while time.perf_counter() < t_end:
        k = i % len(payloads)
        t0 = time.perf_counter()
        tally.attempted += 1
        conn.writer.write(payloads[k])
        await conn.writer.drain()
        ok, line = await conn.reply()
        now = time.perf_counter()
        if not ok:
            tally.fail(f"INGEST refused: {line[:120]}")
        elif json.loads(line[3:]).get("accepted") != sizes[k]:
            tally.fail("INGEST not fully accepted")
        else:
            tally.ack_ms.append((now - t0) * 1e3)
            tally.acked_items += sizes[k]
            tally.last_ack = now
            acked.append(k)
        i += 1


def _on_query(tally: Tally, op: str):
    def done(due: float, now: float, line: str) -> None:
        if json.loads(line[3:]).get("op") != op:
            tally.fail(f"QUERY {op} answered for another operator")
            return
        tally.query_ms.append((now - due) * 1e3)
    return done


def _on_ingest(tally: Tally, tenant: int, index: int, size: int):
    def done(due: float, now: float, line: str) -> None:
        if json.loads(line[3:]).get("accepted") != size:
            tally.fail(f"INGEST to {tenant_name(tenant)} not fully accepted")
            return
        tally.ack_ms.append((now - due) * 1e3)
        tally.acked_items += size
        tally.last_ack = now
        tally.acked.setdefault(tenant, []).append(index)
    return done


def _requests(inputs: Inputs, seconds: float, tally: Tally):
    """Encode every request of a window before its clock starts; returns
    ``drive(server, t_start)``, the awaitable that sends them."""
    shape = inputs.shape
    ops_arg = ",".join(shape.ops)
    queries = []
    for due, tenant, op_index in zip(
        inputs.query_due.tolist(), inputs.query_tenants.tolist(), inputs.query_ops.tolist()
    ):
        op = shape.ops[op_index]
        if shape.tenants == 1:
            data, replies = f"QUERY {op}\n".encode(), 1
        else:
            data = f"HELLO {tenant_name(tenant)} {ops_arg}\n".encode() + f"QUERY {op}\n".encode()
            replies = 2
        queries.append((due, data, replies, _on_query(tally, op)))
    ingests = []
    for i, (due, tenant) in enumerate(zip(inputs.ingest_due.tolist(), inputs.ingest_tenants.tolist())):
        data = f"HELLO {tenant_name(tenant)} {ops_arg}\n".encode() + _payload(inputs.batches[i])
        ingests.append((due, data, 2, _on_ingest(tally, tenant, i, shape.batch)))
    payloads = [] if ingests else [_payload(b) for b in inputs.batches]
    sizes = [len(b) for b in inputs.batches]

    def drive(server: Server, t_start: float):
        ingest_conn, query_conn = server.conns
        ingest = (
            _open_loop(ingest_conn, ingests, t_start, tally)
            if ingests
            else _closed_loop(ingest_conn, payloads, sizes, t_start + seconds, tally)
        )
        return asyncio.gather(_open_loop(query_conn, queries, t_start, tally), ingest)

    return drive


async def _final_answers(server: Server, shape: Shape, tally: Tally) -> dict:
    """Wait until every accepted item is folded, then QUERY each of the
    tenant's operators once: ``{(tenant, op): result}``."""
    conn = server.conns[0]
    ops_arg = ",".join(shape.ops)
    answers = {}
    for tenant in range(shape.tenants):
        name = tenant_name(tenant)
        want = shape.batch * len(tally.acked.get(tenant, []))
        while True:
            await conn.call(f"HELLO {name} {ops_arg}\n".encode())
            stats = await conn.call(b"STATS\n")
            if stats["items_folded"] == stats["items_accepted"]:
                break
            await asyncio.sleep(0.01)
        tally.attempted += 1
        if stats["items_accepted"] != want or stats["items_folded"] != want:
            tally.fail(
                f"{name}: acknowledged {want} items, server accepted "
                f"{stats['items_accepted']} and folded {stats['items_folded']}"
            )
        for op in shape.ops:
            answers[tenant, op] = (await conn.call(f"QUERY {op}\n".encode()))["result"]
    return answers


def _plain(values) -> list:
    return json.loads(json.dumps(list(values), default=lambda v: v.item()))


class _ServedAnswers:
    """check_oracle's view of a served operator: the probed items answer
    as the server did; every other item answers its true count, which
    is inside both the Misra-Gries and the Space-Saving envelope, so
    only served answers can fail the check."""

    def __init__(self, capacity: int, answers: list, truth) -> None:
        self.capacity = capacity
        self._answers = answers
        self._truth = truth

    def estimate(self, item) -> float:
        if 0 <= item < len(self._answers):
            return self._answers[item]
        return self._truth.get(item, 0)


def check_answers(shape: Shape, inputs: Inputs, tally: Tally, answers: dict) -> None:
    """Linear sketches must equal a serial in-process replay of the
    tenant's acknowledged stream; counter summaries must sit inside
    check_oracle's envelope."""
    from collections import Counter

    from repro.engine import registry
    from repro.fuzz.oracles import check_oracle

    registry.load_all()
    plan = SimpleNamespace(universe=shape.universe)
    for tenant in range(shape.tenants):
        order = tally.acked.get(tenant, [])
        stream = (
            np.concatenate([inputs.batches[k] for k in order])
            if order else np.zeros(0, np.int64)
        )
        truth = None
        for op in shape.ops:
            spec = registry.get(op)
            served = answers[tenant, op]
            tally.attempted += 1
            replica = spec.build()
            if op in ("ParallelCountMin", "ParallelCountSketch"):
                for k in order:
                    replica.ingest(inputs.batches[k])
                if _plain(spec.probe(replica)) != served:
                    tally.fail(f"{tenant_name(tenant)} {op}: served answer differs from serial replay")
                continue
            if truth is None:
                truth = Counter(stream.tolist())
            proxy = _ServedAnswers(replica.capacity, served, truth)
            violations = check_oracle(spec, proxy, stream, plan)
            if violations:
                tally.fail(f"{tenant_name(tenant)} {op}: {violations[0]}")


def check_drain(server: Server, code: int, shape: Shape, tally: Tally) -> None:
    """Every tenant drained clean with exactly its acknowledged items."""
    tally.attempted += 1
    if code != 0:
        tally.fail(f"server exited {code}: {server.output[-5:]}")
    drained = {}
    for line in server.output:
        match = DRAIN_RE.match(line)
        if match:
            drained[match.group(1)] = (int(match.group(2)), match.group(3))
    for tenant in range(shape.tenants):
        name = tenant_name(tenant)
        want = shape.batch * len(tally.acked.get(tenant, []))
        tally.attempted += 1
        got = drained.get(name)
        if got is None or got[0] != want or not got[1].startswith("clean"):
            tally.fail(f"{name}: drain report {got}, acknowledged {want} items")


def _pct(values: list[float], q: float) -> float:
    return float(np.percentile(values, q)) if values else float("nan")


async def _window(root: Path, inputs: Inputs, seconds: float, traced: bool, setups: int) -> dict:
    """Set up (``setups`` times, keeping the last), run one timed
    window, check it.  Returns raw figures for the caller to report."""
    shape = inputs.shape
    out_dir = root / ".perfbench_run"
    out_dir.mkdir(exist_ok=True)
    dump = out_dir / f"trace-{os.getpid()}.json" if traced else None
    if dump is not None and dump.exists():
        dump.unlink()
    setup_times = []
    for rep in range(setups):
        server, took = await start_server(root, shape, dump)
        setup_times.append(took)
        if rep < setups - 1:
            await stop_server(server)
    tally = Tally()
    drive = _requests(inputs, seconds, tally)
    pid = server.proc.pid
    try:
        if traced:
            server.proc.send_signal(signal.SIGUSR1)
            await asyncio.sleep(0.05)
        cpu0 = _cpu_seconds(pid)
        t_start = time.perf_counter() + 0.01
        # The generator's own collector pauses would show as lateness.
        gc.collect()
        gc.disable()
        try:
            await asyncio.wait_for(drive(server, t_start), seconds + STEP_TIMEOUT)
        finally:
            gc.enable()
        t_end = time.perf_counter()
        cpu1 = _cpu_seconds(pid)
        trace = None
        if traced:
            server.proc.send_signal(signal.SIGUSR2)
            deadline = time.perf_counter() + STEP_TIMEOUT
            while not dump.exists() and time.perf_counter() < deadline:
                await asyncio.sleep(0.02)
            trace = json.loads(dump.read_text())
            dump.unlink()
        rss = _vm_hwm_mib(pid)
        answers = await asyncio.wait_for(_final_answers(server, shape, tally), STEP_TIMEOUT)
    finally:
        code = await stop_server(server)
    check_drain(server, code, shape, tally)
    check_answers(shape, inputs, tally, answers)
    return {
        "tally": tally,
        "setup_s": setup_times,
        "items_per_s": tally.acked_items / max(tally.last_ack - t_start, 1e-9),
        "query_p50_ms": _pct(tally.query_ms, 50),
        "query_p90_ms": _pct(tally.query_ms, 90),
        "ingest_ack_p50_ms": _pct(tally.ack_ms, 50),
        "cpu_share": (cpu1 - cpu0) / (t_end - t_start),
        "peak_rss_mb": rss,
        "trace": trace,
    }


def run(root: Path, inputs: Inputs, seconds: float, trace: bool) -> dict:
    """One run of a served workload; see run.py for the result shape.

    Traced, ``seconds`` is each of two windows: an untraced one that
    gives the overhead base, then the traced one."""
    if not trace:
        raw = asyncio.run(_window(root, inputs, seconds, False, SETUP_REPEATS))
        tally = raw["tally"]
        metrics = {name: raw[name] for name in (
            "items_per_s", "query_p50_ms", "query_p90_ms", "ingest_ack_p50_ms", "peak_rss_mb",
        )}
        metrics["setup_s"] = float(np.median(raw["setup_s"]))
        return {"tally": tally, "metrics": metrics, "absent": [], "samples": {
            "queries": len(tally.query_ms), "acks": len(tally.ack_ms), "setups": raw["setup_s"],
        }}
    base = asyncio.run(_window(root, inputs, seconds, False, 1))
    traced = asyncio.run(_window(root, inputs, seconds, True, 1))
    tally = traced["tally"]
    tally.attempted += base["tally"].attempted
    tally.failed += base["tally"].failed
    tally.errors += base["tally"].errors
    tally.lateness_ms += base["tally"].lateness_ms
    overhead = 1.0 - traced["items_per_s"] / base["items_per_s"] if base["items_per_s"] else 0.0
    metrics, absent = layer_metrics(
        traced["trace"], served=True, server_cpu_share=traced["cpu_share"], overhead_share=overhead
    )
    return {"tally": tally, "metrics": metrics, "absent": absent, "samples": {
        "run_calls": traced["trace"]["stats"].get("stream.minibatch.run", [0])[0],
    }}
