"""Cycle 0 of the benchmark's end-to-end workloads, in-process.

``bench/workloads.py`` defines the ``sweep`` and ``cli_cold`` workloads that
the benchmark times.  Their cycle 0 is the default ``figure2`` grid, checked
row by row against ``bench/golden/figure2.csv``, and one run of every
subcommand, checked against the committed figures and golden hashes.  Here
each op runs once and its own check must pass, so a change that breaks what
the benchmark imports, calls or pins fails in the test suite.  ``cli_cold``
sends each command line through ``cli.main`` in this process instead of a
fresh interpreter.  Nothing under ``bench/`` is written: its modules load
without caching bytecode.
"""

import contextlib
import io
import subprocess
import sys
from pathlib import Path

import pytest

from loopentropy import cli

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture(scope="module")
def workloads():
    sys.path.insert(0, str(BENCH))
    write_bytecode, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        import workloads
    finally:
        sys.dont_write_bytecode = write_bytecode
        sys.path.remove(str(BENCH))
    return workloads


def _in_process(argv: list[str]) -> subprocess.CompletedProcess:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return subprocess.CompletedProcess(argv, code, out.getvalue().encode(),
                                       err.getvalue().encode())


def _run_cycle_0(workload) -> int:
    ops = workload.cycle(0)
    for op in ops:
        op.check(op.run())
    return len(ops)


def test_sweep_cycle_0_passes_its_checks(workloads, tmp_path):
    assert _run_cycle_0(workloads.Sweep(workloads.DEFAULT_SEED, tmp_path)) == 200


def test_cli_cold_cycle_0_passes_its_checks(workloads, tmp_path):
    workload = workloads.CliCold(workloads.DEFAULT_SEED, tmp_path)
    assert workload.golden  # the default seed's goldens are checked
    workload.launch = _in_process
    assert _run_cycle_0(workload) == 8
