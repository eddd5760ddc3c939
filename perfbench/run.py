"""Benchmark entry point: one workload, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload {queries,helpbits,certificates} \
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the program is imported from
src/.  Every workload process is a fresh, single-threaded interpreter, one
at a time.  With --trace 0 the last line of stdout holds the end-to-end
metrics: set-up time is the median of several fresh processes, each timed
from its start to the end of its warm-up; the other metrics come from one
process that then runs the timed rounds.  Times are scaled to a reference
machine speed measured in each process (see child.py).  With --trace 1 an
untraced and a traced process run the same rounds; the per-layer metrics
come from the traced one and trace.overhead_ratio compares the two.  The
spans are written under perfbench/out/.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("queries", "helpbits", "certificates")
SETUP_SAMPLES = 5
DEADLINE_S = 170  # a run must end within 180 s
TRACE_TIME_FACTOR = 2  # the traced process stops after this many times --seconds


class ChildFailed(Exception):
    pass


def spawn(workload: str, seed: int, seconds: float, deadline: float, extra=()) -> tuple:
    """Run one workload process; return (set-up seconds, result dict or None).

    The warm-up part of set-up and every time in the result are at the
    reference speed (see child.py).
    """
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", repr(seconds), *extra]
    env = dict(os.environ, PYTHONHASHSEED="0")
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, env=env)
    timer = threading.Timer(max(1.0, deadline - time.monotonic()), proc.kill)
    timer.start()
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - start
        warmup = proc.stdout.readline()
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if ready.strip() != "READY" or not warmup.startswith("WARMUP ") or code != 0:
        raise ChildFailed(f"{workload} process exited with {code} before finishing")
    # start-up and imports as measured, warm-up calls at the reference speed
    probe_s, warm_s, warm_ref_s = (float(v) for v in warmup.split()[1:])
    lines = rest.strip().splitlines()
    return setup_s - probe_s - warm_s + warm_ref_s, json.loads(lines[-1]) if lines else None


def _report_problems(result: dict) -> bool:
    for text in result["problems"]:
        print(f"check failed: {text}", file=sys.stderr)
    if result["failures"]:
        print(f"failed operations by cause: {result['failures']}", file=sys.stderr)
    return not result["problems"]


def end_to_end(workload: str, seed: int, seconds: float, deadline: float) -> dict:
    setups = [spawn(workload, seed, seconds, deadline, ["--setup-only"])[0]
              for _ in range(SETUP_SAMPLES - 1)]
    setup_s, result = spawn(workload, seed, seconds, deadline)
    setups.append(setup_s)
    return {
        "correct": _report_problems(result),
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "ops_per_s": {"value": result["timed_ops"] / result["timed_ref_s"], "unit": "1/s"},
            "op_p50_ms": {"value": result["op_p50_ms"], "unit": "ms"},
            "op_p90_ms": {"value": result["op_p90_ms"], "unit": "ms"},
            "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
        },
    }


def per_layer(workload: str, seed: int, seconds: float, deadline: float) -> dict:
    _, plain = spawn(workload, seed, seconds, deadline)
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    trace_file = out_dir / f"trace-{workload}-{seed}.jsonl"
    _, traced = spawn(workload, seed, TRACE_TIME_FACTOR * seconds, deadline,
                      ["--trace", "--rounds", str(plain["rounds"]), "--trace-out", str(trace_file)])
    metrics = {name: {"value": value, "unit": _unit(name)} for name, value in traced["layers"].items()}
    overhead = (traced["timed_ref_s"] / traced["attempted"]) / (plain["timed_ref_s"] / plain["attempted"])
    metrics["trace.overhead_ratio"] = {"value": overhead, "unit": "ratio"}
    return {
        "correct": _report_problems(plain) and _report_problems(traced),
        "attempted": plain["attempted"],
        "failed": plain["failed"],
        "metrics": metrics,
    }


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "cclab" / "__init__.py").is_file():
        print(f"error: no cclab sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    # byte-compile first, so no workload process pays for it in its set-up
    if not (compileall.compile_dir(ROOT / "src", quiet=1) and compileall.compile_dir(HERE, quiet=1)):
        print("error: the sources do not compile", file=sys.stderr)
        return 2
    # on SIGTERM, unwind through spawn's cleanup so no workload process outlives the run
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(1))
    deadline = time.monotonic() + DEADLINE_S
    measure = per_layer if args.trace else end_to_end
    try:
        result = measure(args.workload, args.seed, args.seconds, deadline)
    except ChildFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
