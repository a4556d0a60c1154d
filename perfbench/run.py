"""The repository's benchmark: one command, three workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

Run from the repository root.  The program is used from source
(``src/``); nothing is installed.  Workloads, metrics and the reasons
for both are in README.md next to this file.

Output: the last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones, with ``--trace 1``
the per-layer ones.  The line before it is a ``{"diagnostics": ...}``
object: the calibration loop's ``calib.ns_per_op``, the generator's
``gen.lateness_p99_ms``, the inputs' SHA-256, ``error_share`` and any
failure messages.  These are never folded into the metrics.

Exit status: 0 when every check passed; 1 when a check failed or the
run was invalid (the generator ran late past its bound); 2 when the
program's source is not there.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracer import LAYER_METRICS  # noqa: E402
from workloads import SHAPES, generate  # noqa: E402

#: A run whose generator sent its open-loop requests later than this
#: (p99) measured the generator, not the server: it is invalid.
LATENESS_BOUND_MS = 50.0

END_TO_END = {
    "items_per_s": "items/s",
    "query_p50_ms": "ms",
    "query_p90_ms": "ms",
    "ingest_ack_p50_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}


def calibrate() -> float:
    """ns per iteration of a fixed loop of interpreter and small-array
    NumPy work, the mix the program's hot paths run (median of 9): a
    machine-speed reading kept beside, never inside, the metrics."""
    base = np.arange(64, dtype=np.int64)
    n = 2000
    times = []
    for _ in range(9):
        t0 = time.perf_counter_ns()
        acc = 0
        for i in range(n):
            acc += int(((base * i + 7) % 101).sum()) + i * i
        times.append((time.perf_counter_ns() - t0) / n)
    return float(np.median(times))


def run_once(workload: str, seed: int, seconds: float, trace: bool) -> int:
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program source at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    shape = SHAPES[workload]
    calib = calibrate()
    # Traced runs split the time: an untraced window, then a traced one.
    window = seconds / 2 if trace else seconds
    inputs = generate(shape, seed, window)
    if shape.served:
        import served as module
    else:
        import library as module
    try:
        out = module.run(ROOT, inputs, window, trace)
    except Exception:  # a crashed run is a failed run, reported as one
        traceback.print_exc()
        print(json.dumps({"diagnostics": {"workload": workload, "seed": seed, "crashed": True}}))
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1
    tally = out["tally"]
    lateness = float(np.percentile(tally.lateness_ms, 99)) if tally.lateness_ms else 0.0
    valid = lateness <= LATENESS_BOUND_MS
    correct = tally.failed == 0 and valid
    units = END_TO_END if not trace else {k: v[0] for k, v in LAYER_METRICS.items()}
    metrics = {name: {"value": out["metrics"][name], "unit": unit} for name, unit in units.items()}
    diagnostics = {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "calib.ns_per_op": calib,
        "gen.lateness_p99_ms": lateness,
        "gen.lateness_max_ms": max(tally.lateness_ms, default=0.0),
        "lateness_bound_ms": LATENESS_BOUND_MS,
        "valid": valid,
        "inputs_sha256": inputs.sha256(),
        "error_share": tally.failed / max(1, tally.attempted),
        "errors": tally.errors,
        "absent": out["absent"],
        "samples": out["samples"],
    }
    for name, entry in metrics.items():
        print(f"  {name:44s} {entry['value']:>14.6g} {entry['unit']}", file=sys.stderr)
    print(json.dumps({"diagnostics": diagnostics}))
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


def smoke(seconds: float) -> int:
    """Run every workload briefly, traced and not, and assert that every
    metric is emitted with its unit and that nothing failed."""
    problems = []
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    if {m["name"]: m["unit"] for m in declared["end_to_end"]} != END_TO_END:
        problems.append("BENCHMARK.json end_to_end differs from END_TO_END")
    if {m["name"]: m["unit"] for m in declared["per_layer"]} != {k: v[0] for k, v in LAYER_METRICS.items()}:
        problems.append("BENCHMARK.json per_layer differs from tracer.LAYER_METRICS")
    if sorted(w["name"] for w in declared["workloads"]) != sorted(SHAPES):
        problems.append("BENCHMARK.json workloads differ from workloads.SHAPES")
    for name, shape in SHAPES.items():
        a, b = generate(shape, 7, 1.0), generate(shape, 7, 1.0)
        if a.sha256() != b.sha256() or a.sha256() == generate(shape, 8, 1.0).sha256():
            problems.append(f"{name}: inputs are not a function of the seed")
        for trace in (0, 1):
            argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                    "--seed", "1", "--seconds", str(seconds), "--trace", str(trace)]
            proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
            lines = proc.stdout.strip().splitlines()
            label = f"{name} --trace {trace}"
            if proc.returncode != 0 or len(lines) < 2:
                problems.append(f"{label}: exit {proc.returncode}: {proc.stderr[-800:]}")
                continue
            result = json.loads(lines[-1])
            diag = json.loads(lines[-2])["diagnostics"]
            want = END_TO_END if not trace else {k: v[0] for k, v in LAYER_METRICS.items()}
            got = {k: v.get("unit") for k, v in result["metrics"].items()}
            if got != want:
                problems.append(f"{label}: metrics/units {got} != {want}")
            if not all(np.isfinite(v["value"]) for v in result["metrics"].values()):
                problems.append(f"{label}: non-finite metric value")
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{label}: result keys {sorted(result)}")
            if not result["correct"] or result["failed"] or diag["error_share"] != 0:
                problems.append(f"{label}: failures {diag['errors']}")
            for key in ("calib.ns_per_op", "gen.lateness_p99_ms", "inputs_sha256"):
                if key not in diag:
                    problems.append(f"{label}: diagnostic {key} missing")
            print(f"smoke: {label}: {result['attempted']} attempted, "
                  f"{result['failed']} failed, absent {diag['absent']}", file=sys.stderr)
    for problem in problems:
        print(f"smoke: FAIL: {problem}", file=sys.stderr)
    print("smoke: " + ("OK" if not problems else f"{len(problems)} problem(s)"))
    return 1 if problems else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(SHAPES))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="brief run of every workload with checks")
    args = parser.parse_args(argv)
    if args.smoke:
        return smoke(2.0)
    if args.workload is None:
        parser.error("--workload is required")
    return run_once(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    raise SystemExit(main())
