"""One workload process: set up, run timed rounds, check every answer.

    python3 perfbench/child.py --workload NAME --seed N --seconds S
        [--setup-only] [--trace] [--rounds R]

Prints READY once imports and warm-up are done (the parent times set-up up
to that line) and then WARMUP with the seconds spent timing the probe during
warm-up, the warm-up calls' raw seconds and the same at the reference
speed.
Unless --setup-only, it then runs whole rounds until the operations have
taken S seconds (or R rounds have run) and prints one JSON line with the
counts, latencies and peak memory.  Each answer is checked right after its
operation, with the clock stopped.

Speed: on a shared virtual machine the interpreter's speed drifts by a
fifth over minutes.  A fixed probe (building small validated objects),
timed after every CALIBRATION_EVERY_S of operations, measures that drift,
and every time is reported at the reference speed, at which the probe
takes REFERENCE_S: measured time * REFERENCE_S / probe time (see
SpeedScale).
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import statistics
import sys
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

MAX_PROBLEMS = 5
CALIBRATION_OBJECTS = 2000
REFERENCE_S = 0.005  # the probe's time at the reference speed
CALIBRATION_EVERY_S = 0.1  # of operation time


@dataclass(frozen=True)
class _Probe:
    """A validated bit string: the kind of object cclab makes in its hot path."""

    bits: str

    def __post_init__(self) -> None:
        if any(c not in "01" for c in self.bits):
            raise ValueError(self.bits)


def calibrate() -> float:
    """Seconds to build a fixed list of small validated objects."""
    start = perf_counter()
    probes = [_Probe(format(i & 255, "08b")) for i in range(CALIBRATION_OBJECTS)]
    elapsed = perf_counter() - start
    del probes
    return elapsed


class SpeedScale:
    """Operation times at the reference speed.

    The operations between two probe timings form a block; each block is
    scaled by the mean of the two timings around it, so a speed change in
    the middle of a run moves only the blocks it touches.
    """

    def __init__(self) -> None:
        self.probe_s = 0.0  # time spent timing the probe
        self.last = self._probe()
        self.block: list[tuple[float, bool]] = []  # (seconds, succeeded)
        self.pending_s = 0.0
        self.latencies: list[float] = []  # successful operations, reference seconds
        self.total_s = 0.0  # every timed operation, reference seconds

    def _probe(self) -> float:
        start = perf_counter()
        seconds = calibrate()
        self.probe_s += perf_counter() - start
        return seconds

    def add(self, seconds: float, succeeded: bool) -> None:
        self.block.append((seconds, succeeded))
        self.pending_s += seconds
        if self.pending_s >= CALIBRATION_EVERY_S:
            self.close()

    def close(self) -> None:
        if not self.block:
            return
        now = self._probe()
        factor = REFERENCE_S / ((self.last + now) / 2)
        self.last = now
        for seconds, succeeded in self.block:
            self.total_s += seconds * factor
            if succeeded:
                self.latencies.append(seconds * factor)
        self.block = []
        self.pending_s = 0.0


def run_rounds(workload, seed: int, seconds: float, max_rounds: int | None, tracer) -> dict:
    from checks import CheckFailure

    rng = random.Random(seed)
    speed = SpeedScale()
    timed_s = 0.0
    attempted = failed = rounds = 0
    failures: Counter = Counter()
    problems: list[str] = []

    def problem(text: str) -> None:
        if len(problems) < MAX_PROBLEMS:
            problems.append(text)

    for rnd in workload.rounds(rng):
        results = {}
        for op in rnd.ops:
            attempted += 1
            if tracer is not None:
                tracer.begin(op.name)
            ok = True
            start = perf_counter()
            try:
                result = op.call()
            except Exception as exc:  # a failed operation is counted, the run goes on
                ok = False
                failed += 1
                failures[type(exc).__name__] += 1
            finally:
                if tracer is not None:
                    tracer.end()
            elapsed = perf_counter() - start
            if op.timed:
                timed_s += elapsed
                speed.add(elapsed, ok)
            if not ok:
                continue
            try:
                op.check(result)
            except CheckFailure as exc:
                problem(f"{op.name}: {exc}")
            results[op.name] = result
        if rnd.after is not None:
            try:
                rnd.after(results)
            except CheckFailure as exc:
                problem(f"round {rounds}: {exc}")
        rounds += 1
        if timed_s >= seconds or (max_rounds is not None and rounds >= max_rounds):
            break
    speed.close()

    latencies = speed.latencies
    return {
        "rounds": rounds,
        "attempted": attempted,
        "failed": failed,
        "failures": dict(failures),
        "problems": problems,
        "timed_s": timed_s,
        "timed_ref_s": speed.total_s,
        "timed_ops": len(latencies),
        "op_p50_ms": 1000 * statistics.median(latencies) if latencies else None,
        "op_p90_ms": 1000 * statistics.quantiles(latencies, n=10)[-1] if len(latencies) > 1 else None,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--rounds", type=int)
    parser.add_argument("--trace-out")
    args = parser.parse_args(argv)

    import workloads

    workload = workloads.WORKLOADS[args.workload]()
    warm = SpeedScale()
    warm_s = 0.0
    for call in workload.warm_up():
        start = perf_counter()
        call()
        elapsed = perf_counter() - start
        warm_s += elapsed
        warm.add(elapsed, True)
    warm.close()
    print("READY", flush=True)
    print(f"WARMUP {warm.probe_s!r} {warm_s!r} {warm.total_s!r}", flush=True)
    if args.setup_only:
        return 0

    tracer = None
    if args.trace:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    result = run_rounds(workload, args.seed, args.seconds, args.rounds, tracer)
    if tracer is not None:
        result["layers"] = tracer.metrics()
        if args.trace_out:
            tracer.write(args.trace_out)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
