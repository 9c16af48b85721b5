"""Benchmark for loopentropy.

    python3 bench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Run from anywhere inside a source checkout; the library is imported from
``src``.  Each workload runs in its own fresh one-threaded Python process as
a closed loop with one client; ``cli_cold`` starts one CLI process at a time.

``--trace 0`` (end-to-end): set-up is timed five times (the run's own
worker and four set-up-only workers) and reported as the median ``setup_s``;
then the worker runs ops for ``--seconds`` and every op is verified.
Ops are grouped into windows of at least one second of op time (one
window of all ops for ``cli_cold``); each window gives a throughput, a
median and a p90 op latency, and each is reported at the slow end of the
windows (a tenth of them slower), which a burst of host speed moves least.
``--trace 1`` (per layer): every workload runs its fixed traced prefix,
untraced and then traced, and each layer metric is read from the workload
that exercises that layer (its home workload, below), so the per-layer set
is the same whatever ``--workload`` names.  The CLI's documented invalid
inputs run there as contract probes, counted in ``cli.invalid_input.broken``,
and the known misses of the Renyi radial cross-check in
``entropy.renyi.radial_misses``.

Human-readable lines and a run record come first.  The last line of stdout
is one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
Exit code 0 when every output verified, 1 when some output was wrong, 2 when
the benchmark itself could not run.  A broken contract (an invalid input
not refused as documented) counts in ``failed`` but does not make the run
incorrect.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from tracer import CHECK_NAMES, SUBCOMMANDS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("cli_cold", "sweep", "registry", "oracle")
# Workloads of an end-to-end run (``--workload all``) and of BENCHMARK.json.
# registry and oracle are left out there: on a shared 2-vCPU host only runs
# of about a minute were steady, and four such workloads do not fit the
# benchmark's time budget.  They still run on request, and their traced
# prefixes give the per-layer metrics of the layers they exercise.
END_TO_END_WORKLOADS = ("cli_cold", "sweep")
DEFAULT_SEED = 1
SETUP_SAMPLES = 5
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END = (("setup_s", "s"), ("ops_per_s", "ops/s"), ("op_p50_ms", "ms"),
              ("op_tail_ms", "ms"), ("peak_rss_mb", "MiB"), ("ok_ratio", "1"))

# loopentropy.entropy.QUANTITY_NAMES; the parent does not import the library
QUANTITY_NAMES = ("ext2_order0", "ext2_order1", "ext2_total", "ext21", "int21", "total21",
                  "mutual21", "cond_ext_int", "cond_int_ext", "vacuum21", "nonpert", "tau")


class BenchError(Exception):
    pass


# ----------------------------------------------------------------------
# per-layer metrics: (name, unit, home workload, value from its trace)
# ----------------------------------------------------------------------
def _labels(trace: dict, label: str):
    for name, values in trace["summary"]["labels"].items():
        if name == label or name.startswith(label + "."):
            yield values


def calls(label):
    return lambda t: sum(v[0] for v in _labels(t, label))


def total_ms(label):
    return lambda t: sum(v[1] for v in _labels(t, label))


def self_ms(label):
    return lambda t: sum(v[2] for v in _labels(t, label))


def count(name):
    return lambda t: t["summary"]["counts"].get(name, 0)


def import_ms(package):
    return lambda t: statistics.median(i.get(package, 0.0) for i in t["imports"])


def probes_broken(t):
    return t["probes"]["broken"]


def overhead_pct(t):
    return 100.0 * (t["traced_s"] / t["untraced_s"] - 1.0)


def per_layer_table() -> list[tuple]:
    m = [(f"cli.import.{pkg}_ms", "ms", "cli_cold", import_ms(pkg))
         for pkg in ("scipy", "numpy", "loopentropy")]
    m += [(f"cli.main.{cmd}_ms", "ms", "cli_cold", total_ms(f"cli.main.{cmd}"))
          for cmd in SUBCOMMANDS]
    m.append(("cli.invalid_input.broken", "count", "cli_cold", probes_broken))
    m += [("cli.write_csv_ms", "ms", "cli_cold", total_ms("cli.write_csv")),
          ("svg.render_ms", "ms", "cli_cold", total_ms("svg.render"))]
    m += [(f"checks.{name}.ms", "ms", "cli_cold", total_ms(f"checks.{name}"))
          for name in CHECK_NAMES]
    m.append(("epsseries.constructions", "count", "sweep", count("epsseries.constructions")))
    for op in ("mul", "add", "inverse", "log", "exp", "gamma_series", "expansions"):
        m += [(f"epsseries.{op}.calls", "count", "sweep", calls(f"epsseries.{op}")),
              (f"epsseries.{op}.self_ms", "ms", "sweep", self_ms(f"epsseries.{op}"))]
    m += [("specialfns.calls", "count", "registry", calls("specialfns")),
          ("specialfns.self_ms", "ms", "registry", self_ms("specialfns")),
          ("specialfns.polygamma.calls", "count", "registry", calls("specialfns.polygamma")),
          ("specialfns.polygamma.self_ms", "ms", "registry", self_ms("specialfns.polygamma")),
          ("loops.series.calls", "count", "sweep", calls("loops.series")),
          ("loops.series.self_ms", "ms", "sweep", self_ms("loops.series")),
          ("loops.quad.calls", "count", "oracle", calls("loops.quad")),
          ("loops.quad.integrand_evals", "count", "oracle",
           count("loops.quad.integrand_evals")),
          ("loops.quad.self_ms", "ms", "oracle", self_ms("loops.quad")),
          ("loops.oracle.calls", "count", "oracle", calls("loops.oracle")),
          ("loops.oracle.ms", "ms", "oracle", total_ms("loops.oracle")),
          ("contour.coeff.calls", "count", "registry", calls("contour.coeff")),
          ("contour.coeff.ms", "ms", "registry", total_ms("contour.coeff"))]
    for name in QUANTITY_NAMES:
        m += [(f"entropy.q.{name}.calls", "count", "registry", calls(f"entropy.q.{name}")),
              (f"entropy.q.{name}.ms", "ms", "registry", total_ms(f"entropy.q.{name}"))]
    m += [("entropy.renyi.calls", "count", "oracle", calls("entropy.renyi")),
          ("entropy.renyi.ms", "ms", "oracle", total_ms("entropy.renyi")),
          ("entropy.renyi.radial_misses", "count", "oracle", probes_broken),
          ("traces.calls", "count", "registry", calls("traces")),
          ("traces.ms", "ms", "registry", total_ms("traces"))]
    m += [(f"trace.{w}.overhead_pct", "%", w, overhead_pct) for w in WORKLOADS]
    return m


# ----------------------------------------------------------------------
# workers
# ----------------------------------------------------------------------
def pin_to_one_cpu() -> int | None:
    """Pin this process, and so every worker and CLI child, to one CPU: the
    load is one busy CPU, and the scheduler does not migrate it mid-run."""
    if not hasattr(os, "sched_setaffinity"):
        return None
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONHASHSEED"] = "0"  # fixed string hashing: every process lays out dicts alike
    return env


def start_worker(workload: str, seed: int, seconds: float, mode: str, work: Path):
    """Start a worker; return it with its set-up time (spawn to READY)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(BENCH_DIR / "worker.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--mode", mode, "--work", str(work)],
        stdout=subprocess.PIPE, text=True, env=child_env(), cwd=ROOT)
    timer = threading.Timer(120, proc.kill)
    timer.start()
    try:
        line = proc.stdout.readline()
    finally:
        timer.cancel()
    setup = time.perf_counter() - t0
    if line.strip() != "READY":
        finish(proc, 10)
        raise BenchError(f"{workload} worker failed during set-up")
    return proc, setup


def finish(proc: subprocess.Popen, timeout: float) -> dict | None:
    """Wait for a worker (killing it after ``timeout`` s); parse its last line."""
    timer = threading.Timer(timeout, proc.kill)
    timer.start()
    try:
        out = proc.stdout.read()
        code = proc.wait()
    finally:
        timer.cancel()
        proc.stdout.close()
    if code != 0:
        raise BenchError(f"worker exited with code {code}")
    lines = out.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def result_of(proc: subprocess.Popen, timeout: float) -> dict:
    result = finish(proc, timeout)
    if result is None:
        raise BenchError("worker printed no result")
    return result


def run_untraced(workload: str, seed: int, seconds: float, work: Path) -> dict:
    setups = []
    for _ in range(SETUP_SAMPLES - 1):
        proc, setup = start_worker(workload, seed, seconds, "setup", work)
        finish(proc, 60)
        setups.append(setup)
    proc, setup = start_worker(workload, seed, seconds, "run", work)
    setups.append(setup)
    result = result_of(proc, seconds + 120)
    result["setup_s"] = statistics.median(setups)
    result["setup_samples_s"] = setups
    result["ok_ratio"] = (result["attempted"] - result["failed"]) / result["attempted"]
    return result


def run_traced(seed: int, work: Path) -> dict:
    traces = {}
    for w in WORKLOADS:
        proc, _ = start_worker(w, seed, 0, "trace", work)
        traces[w] = result_of(proc, 170)
    return traces


# ----------------------------------------------------------------------
# reporting
# ----------------------------------------------------------------------
def machine() -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    ram = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 2 ** 30
    return {"cpu": cpu, "nproc": os.cpu_count(), "ram_gib": round(ram, 2),
            "platform": platform.platform()}


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def record(args, versions: dict, cpu: int | None) -> dict:
    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "machine": machine(), "versions": versions,
            "commit": git_commit(), "threads": {v: "1" for v in THREAD_VARS},
            "pinned_cpu": cpu, "load": "closed loop, one client, one process per workload"}


def show(prefix: str, name: str, value: float, unit: str, note: str = "") -> None:
    print(f"  {prefix}{name:34s} {value:>16.6g} {unit:6s} {note}".rstrip())


@contextlib.contextmanager
def work_dir():
    """Scratch directory inside the checkout for CLI outputs and traces."""
    work = ROOT / ".bench_work" / str(os.getpid())
    work.mkdir(parents=True, exist_ok=True)
    try:
        yield work
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()


def end_to_end(args, work: Path) -> tuple[dict, int, int, bool, dict]:
    names = END_TO_END_WORKLOADS if args.workload == "all" else (args.workload,)
    metrics, attempted, failed, correct, versions = {}, 0, 0, True, {}
    for w in names:
        r = run_untraced(w, args.seed, args.seconds, work)
        prefix = "" if len(names) == 1 else w + "."
        print(f"{w}: {r['attempted']} ops in {r['elapsed_s']:.1f} s "
              f"({r['cycles']} cycles), {r['failed']} failed, {r['wrong']} wrong")
        if r["windows"] > 1:
            over = f"window {{}}, slow end of {r['windows']} windows of >= {r['window_s']:g} s"
        else:
            over = f"{{}} over all {r['attempted']} ops"
        notes = {"setup_s": "median of " + ", ".join(f"{s:.3f}" for s in r["setup_samples_s"]),
                 "ops_per_s": over.format("rate"),
                 "op_p50_ms": over.format("median"),
                 "op_tail_ms": over.format("p90"),
                 "ok_ratio": f"{r['failed']} failed of {r['attempted']}"}
        for name, unit in END_TO_END:
            show(prefix, name, r[name], unit, notes.get(name, ""))
            metrics[prefix + name] = {"value": r[name], "unit": unit}
        for message in r["messages"]:
            print("    failed:", message)
        attempted += r["attempted"]
        failed += r["failed"]
        correct = correct and r["wrong"] == 0
        versions = r["versions"]
    return metrics, attempted, failed, correct, versions


def per_layer(args, work: Path) -> tuple[dict, int, int, bool, dict]:
    traces = run_traced(args.seed, work)
    metrics = {}
    print("per-layer metrics from the traced prefix of each home workload")
    for name, unit, home, value in per_layer_table():
        metrics[name] = {"value": value(traces[home]), "unit": unit}
        show("", name, metrics[name]["value"], unit, home)
    for w, t in traces.items():
        print(f"{w}: untraced {t['untraced_s']:.3f} s, traced {t['traced_s']:.3f} s, "
              f"{t['summary']['spans']} spans, {t['failed']} failed, {t['wrong']} wrong")
        for message in t["messages"]:
            print("    failed:", message)
        if t["probes"]["attempted"]:
            print(f"{w}: {t['probes']['broken']} of {t['probes']['attempted']} "
                  f"contract probes broken (not counted as failed ops)")
        for message in t["probes"]["messages"]:
            print("    broken:", message)
    return (metrics, sum(t["attempted"] for t in traces.values()),
            sum(t["failed"] for t in traces.values()),
            all(t["wrong"] == 0 for t in traces.values()), traces["sweep"]["versions"])


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all", choices=("all",) + WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=55.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "loopentropy" / "__init__.py").is_file():
        print(f"error: no loopentropy sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    cpu = pin_to_one_cpu()
    try:
        with work_dir() as work:
            metrics, attempted, failed, correct, versions = \
                (per_layer if args.trace else end_to_end)(args, work)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print("record:", json.dumps(record(args, versions, cpu)))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
