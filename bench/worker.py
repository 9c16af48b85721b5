"""One workload in one fresh process.

    python3 bench/worker.py --workload NAME --seed N --seconds S --mode MODE --work DIR

The worker imports the library and builds its workload, then prints
``READY`` (the parent times set-up up to that line).  ``--mode setup``
stops there.  ``--mode run`` runs ops in a closed loop for ``--seconds``
and prints one JSON line of statistics.  ``--mode trace`` runs the
workload's fixed traced prefix twice, untraced and traced, and prints the
span summary with both wall times.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads as wls
from tracer import Tracer, install

from loopentropy.errors import LoopEntropyError

# On a shared host the CPU speed swings between a steady floor and bursts up
# to twice as fast that last seconds to a minute (one fixed op on a 2-vCPU
# VM: 200 to 440 per second in 1-s windows), so every timing is taken per
# window of op time and reported at the slow end of the windows, which the
# bursts move least.
WINDOW_S = 1.0  # op time per window, unless the workload sets its own
SLOW_SHARE = 0.1  # share of windows slower than the reported one
TAIL_PCT = 90.0  # percentile of op latency within a window reported as the tail
MAX_MESSAGES = 10


class Outcomes:
    """Verification tally of the ops run."""

    def __init__(self):
        self.attempted = 0
        self.wrong: list[str] = []
        self.other: list[str] = []  # contract broken, or a documented refusal

    def verify(self, op: wls.Op, result, error) -> None:
        self.attempted += 1
        key = op.key[:160]
        if isinstance(error, LoopEntropyError):
            # a documented refusal: no answer to verify, and none is wrong
            self.other.append(f"{key}: refused with {type(error).__name__}: {error}")
            return
        try:
            if error is not None:
                raise wls.WrongOutput(f"raised {type(error).__name__}: {error}")
            op.check(result)
        except wls.ContractBroken as exc:
            self.other.append(f"{key}: {exc}")
        except wls.WrongOutput as exc:
            self.wrong.append(f"{key}: {exc}")
        except Exception as exc:  # a crashing check is a failed verification
            self.wrong.append(f"{key}: verification raised {exc!r}")

    def report(self) -> dict:
        return {"attempted": self.attempted, "failed": len(self.wrong) + len(self.other),
                "wrong": len(self.wrong), "messages": (self.wrong + self.other)[:MAX_MESSAGES]}


def timed_call(op: wls.Op):
    t0 = time.perf_counter()
    try:
        result, error = op.run(), None
    except Exception as exc:  # recorded as a failed op
        result, error = None, exc
    return time.perf_counter() - t0, result, error


def windows(latencies: list[float], window_s: float = WINDOW_S) -> list[list[float]]:
    """Consecutive op latencies grouped into windows of at least ``window_s``
    of op time; the last, shorter window is dropped unless it is the only one."""
    out, current, busy = [], [], 0.0
    for dt in latencies:
        current.append(dt)
        busy += dt
        if busy >= window_s:
            out.append(current)
            current, busy = [], 0.0
    return out or [current]


def percentile(values: list[float], pct: float) -> float:
    """The smallest value with at least ``pct`` percent of values at or below it."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(len(ordered) * pct / 100.0) - 1)]


def slow_end(values: list[float]) -> float:
    """The value with SLOW_SHARE of the values above it: over windows, the
    figure of a slow stretch of the run (the slowest of fewer than ten)."""
    ordered = sorted(values)
    return ordered[len(ordered) - 1 - int(len(ordered) * SLOW_SHARE)]


def run_timed(wl, seconds: float) -> dict:
    outcomes = Outcomes()
    latencies: list[float] = []
    start = time.perf_counter()
    c = 0
    done = False
    while not done:
        for op in wl.cycle(c):
            dt, result, error = timed_call(op)
            latencies.append(dt)
            outcomes.verify(op, result, error)
            if time.perf_counter() - start >= seconds:
                done = True
                break
        c += 1
    who = resource.RUSAGE_CHILDREN if wl.name == "cli_cold" else resource.RUSAGE_SELF
    window_s = getattr(wl, "window_s", WINDOW_S)
    ws = windows(latencies, window_s)
    return {
        **outcomes.report(),
        "ops_per_s": 1.0 / slow_end([sum(w) / len(w) for w in ws]),
        "op_p50_ms": slow_end([statistics.median(w) for w in ws]) * 1e3,
        "op_tail_ms": slow_end([percentile(w, TAIL_PCT) for w in ws]) * 1e3,
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0,
        "windows": len(ws), "window_s": window_s,
        "cycles": c, "elapsed_s": time.perf_counter() - start,
    }


def run_ops(ops: list, outcomes: Outcomes, tracer: Tracer | None = None) -> float:
    """Run and verify ops (verification untraced); return the summed op time."""
    total = 0.0
    for op in ops:
        dt, result, error = timed_call(op)
        total += dt
        if tracer is not None:
            tracer.active = False
        outcomes.verify(op, result, error)
        if tracer is not None:
            tracer.active = True
    return total


def import_self_ms(stderr: str) -> tuple[dict, str]:
    """Fold ``-X importtime`` self times per top-level package; return them
    with the remaining stderr."""
    per_package: dict[str, float] = {}
    rest = []
    for line in stderr.splitlines(keepends=True):
        if not line.startswith("import time:"):
            rest.append(line)
            continue
        fields = line[len("import time:"):].split("|")
        if not fields[0].strip().isdigit():
            continue  # the column header
        package = fields[2].strip().split(".")[0]
        per_package[package] = per_package.get(package, 0.0) + int(fields[0]) / 1e3
    return per_package, "".join(rest)


class TracedCli:
    """Launches each CLI op under the tracer with ``-X importtime``."""

    def __init__(self, wl: wls.CliCold):
        self.wl = wl
        self.summaries: list[dict] = []
        self.imports: list[dict] = []

    def __call__(self, argv: list[str]) -> subprocess.CompletedProcess:
        out = self.wl.work / f"trace_{len(self.summaries)}.json"
        env = dict(os.environ, BENCH_TRACE_OUT=str(out))
        child = str(wls.BENCH_DIR / "cli_child.py")
        proc = subprocess.run([sys.executable, "-X", "importtime", child, *argv],
                              capture_output=True, env=env, timeout=150)
        self.summaries.append(json.loads(out.read_text()))
        out.unlink()
        per_package, rest = import_self_ms(proc.stderr.decode())
        self.imports.append(per_package)
        proc.stderr = rest.encode()
        return proc


def merge(summaries: list[dict]) -> dict:
    labels: dict[str, list] = {}
    counts: dict[str, int] = {}
    for s in summaries:
        for label, values in s["labels"].items():
            acc = labels.setdefault(label, [0, 0.0, 0.0])
            for i, v in enumerate(values):
                acc[i] += v
        for name, v in s["counts"].items():
            counts[name] = counts.get(name, 0) + v
    return {"spans": sum(s["spans"] for s in summaries), "labels": labels, "counts": counts}


def run_traced(wl) -> dict:
    """Run the fixed prefix untraced and traced in alternation (each CLI op,
    or each in-process cycle), so that drift in machine speed cancels out of
    the tracing overhead."""
    outcomes = Outcomes()
    tracer = Tracer()
    cli = TracedCli(wl) if wl.name == "cli_cold" else None
    untraced_s = traced_s = 0.0
    for c in range(wl.trace_cycles):
        plain, traced = wl.cycle(c), wl.cycle(c)
        pairs = zip(([op] for op in plain), ([op] for op in traced)) if cli \
            else [(plain, traced)]
        for plain_ops, traced_ops in pairs:
            untraced_s += run_ops(plain_ops, outcomes)
            if cli:
                wl.launch = cli
                traced_s += run_ops(traced_ops, outcomes)
                wl.launch = wl.run_cli
            else:
                install(tracer)
                try:
                    traced_s += run_ops(traced_ops, outcomes, tracer)
                finally:
                    tracer.uninstall()
    summary = merge(cli.summaries) if cli else tracer.summary()
    return {**outcomes.report(), "untraced_s": untraced_s, "traced_s": traced_s,
            "summary": summary, "imports": cli.imports if cli else [],
            "probes": run_probes(wl)}


def run_probes(wl) -> dict:
    """Run the workload's contract probes, off the clock and outside the
    op tally; return how many broke their contract, and why."""
    outcomes = Outcomes()
    run_ops(wl.probes() if hasattr(wl, "probes") else [], outcomes)
    report = outcomes.report()
    return {"attempted": report["attempted"], "broken": report["failed"],
            "messages": report["messages"]}


def versions() -> dict:
    from importlib import metadata

    out = {"python": sys.version.split()[0]}
    for dist in ("numpy", "scipy", "mpmath"):
        try:
            out[dist] = metadata.version(dist)
        except metadata.PackageNotFoundError:
            out[dist] = None
    return out


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(wls.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    ap.add_argument("--work", type=Path, required=True)
    args = ap.parse_args()
    wl = wls.WORKLOADS[args.workload](args.seed, args.work)
    wl.cycle(0)
    print("READY", flush=True)
    if args.mode == "setup":
        return 0
    result = run_timed(wl, args.seconds) if args.mode == "run" else run_traced(wl)
    result["versions"] = versions()
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
