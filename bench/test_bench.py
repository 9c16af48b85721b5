"""Tests of the benchmark itself.

    python3 -m pytest bench -q

The tiny runs start real workers, so the whole file takes about a minute.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402
import workloads as wls  # noqa: E402

from loopentropy import checks, entropy  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, json.loads(lines[-1]) if lines else None


def test_spec_matches_the_harness():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.END_TO_END_WORKLOADS)
    assert set(run.WORKLOADS) == set(wls.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == \
        [(name, unit) for name, unit, _, _ in run.per_layer_table()]
    assert run.QUANTITY_NAMES == entropy.QUANTITY_NAMES
    assert [getattr(checks, name)().name for name in tracer.CHECK_NAMES] == \
        [r.name for r in checks.run_all()]


def test_golden_figures_are_the_committed_figures():
    demos = ROOT / "demos" / "output"
    if not demos.is_dir():
        pytest.skip("no demos/output in this checkout")
    for name in ("figure2.csv", "figure3.csv", "figure2.svg", "figure3.svg"):
        assert (wls.GOLDEN_DIR / name).read_bytes() == (demos / name).read_bytes()


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_tiny_run_schema(workload):
    code, result = bench("--workload", workload, "--seed", "2", "--seconds", "0.5")
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == dict(run.END_TO_END)
    assert all(set(v) == {"value", "unit"} and v["value"] > 0
               for v in result["metrics"].values())


def test_other_seed_changes_inputs_not_metric_names():
    for cls in (wls.Sweep, wls.Registry, wls.Oracle):
        keys = [[op.key for op in cls(seed, ROOT).cycle(1)] for seed in (2, 3)]
        assert keys[0] != keys[1]
    cli_keys = [[op.key for op in wls.CliCold(seed, ROOT).cycle(1)] for seed in (2, 3)]
    assert cli_keys[0] != cli_keys[1]
    names = [set(bench("--workload", "oracle", "--seed", seed, "--seconds", "0.3")[1]["metrics"])
             for seed in ("2", "3")]
    assert names[0] == names[1] == {name for name, _ in run.END_TO_END}


def traced(workload: str, work: Path) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "worker.py"), "--workload", workload, "--seed", "1",
         "--seconds", "0", "--mode", "trace", "--work", str(work)],
        capture_output=True, text=True, env=run.child_env(), timeout=170, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("workload", ["sweep", "registry", "oracle"])
def test_trace_counts_repeat(workload, tmp_path):
    first, second = traced(workload, tmp_path), traced(workload, tmp_path)
    assert first["wrong"] == 0
    assert first["summary"]["counts"] == second["summary"]["counts"]
    calls = [{k: v[0] for k, v in t["summary"]["labels"].items()} for t in (first, second)]
    assert calls[0] == calls[1]
    assert first["summary"]["spans"] == second["summary"]["spans"] > 0


def copy_checkout(dest: Path, with_sources: bool = True) -> Path:
    shutil.copytree(BENCH, dest / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", dest)
    if with_sources:
        shutil.copytree(ROOT / "src", dest / "src", ignore=shutil.ignore_patterns("__pycache__"))
    return dest


def test_corrupted_golden_is_caught(tmp_path):
    checkout = copy_checkout(tmp_path)
    path = checkout / "bench" / "golden" / "registry.json"
    golden = json.loads(path.read_text())
    golden["cycles"][0][0][1][2] += 1e-6
    path.write_text(json.dumps(golden))
    code, result = bench("--workload", "registry", "--seed", str(wls.DEFAULT_SEED),
                         "--seconds", "0.3", cwd=checkout)
    assert code == 1
    assert result["correct"] is False and result["failed"] > 0
    assert result["metrics"]["ok_ratio"]["value"] < 1.0


def test_without_sources_fails_without_result(tmp_path):
    checkout = copy_checkout(tmp_path, with_sources=False)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "sweep"],
                          cwd=checkout, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0 and proc.stdout == ""


def test_window_statistics():
    assert worker.windows([0.25] * 8 + [0.5]) == [[0.25] * 4, [0.25] * 4]
    assert worker.windows([0.5]) == [[0.5]]
    assert worker.windows([1.0] * 5, window_s=2.0) == [[1.0, 1.0], [1.0, 1.0]]
    assert worker.percentile([float(i) for i in range(1, 101)], 90.0) == 90.0
    assert worker.percentile([3.0], 90.0) == 3.0
    assert worker.slow_end([float(i) for i in range(20)]) == 17.0
    assert worker.slow_end([1.0, 5.0, 2.0]) == 5.0


def test_known_failures_are_probes_not_timed_ops(tmp_path):
    wl = wls.CliCold(3, tmp_path)
    timed = [op.key for c in range(4) for op in wl.cycle(c) if " invalid " in op.key]
    assert len(timed) == 4 and all(" invalid unknown_q " in key for key in timed)
    assert [op.key.split()[2] for op in wl.probes()] == list(wls.INVALID)
    oracle = wls.Oracle(3, tmp_path)
    assert not any(op.key.startswith("renyi 4 ") for c in range(6) for op in oracle.cycle(c))
    assert all(op.key.startswith("renyi 4 ") for op in oracle.probes())


def test_self_time_excludes_children():
    tr = tracer.Tracer()
    with tr.span("outer"):
        with tr.span("inner"):
            pass
    labels = tr.summary()["labels"]
    outer_calls, outer_total, outer_self = labels["outer"]
    assert outer_calls == 1
    assert outer_self == pytest.approx(outer_total - labels["inner"][1])


def test_import_times_fold_per_package():
    stderr = ("import time: self [us] | cumulative | imported package\n"
              "import time:       100 |        100 |   numpy.core\n"
              "import time:        50 |        150 | numpy\n"
              "error: one line\n")
    per_package, rest = worker.import_self_ms(stderr)
    assert per_package == {"numpy": pytest.approx(0.15)}
    assert rest == "error: one line\n"
