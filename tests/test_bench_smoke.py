"""The first cycles of the benchmark's end-to-end workloads, in-process.

``bench/workloads.py`` defines the ``sweep`` and ``cli_cold`` workloads that
the benchmark times.  Their cycle 0 is the default ``figure2`` grid, checked
row by row against ``bench/golden/figure2.csv``, and one run of every
subcommand, checked against the committed figures and golden hashes.  The
sweep's cycles 1-3 are seeded grids at orders 2, 4 and 6, linear and
geometric, checked by the identities and the log(m0) lines of their rows.
Here each op runs once and its own check must pass, so a change that breaks
what the benchmark imports, calls or pins fails in the test suite.  ``cli_cold``
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


def _run_cycles(workload, cycles=(0,)) -> int:
    ops = [op for c in cycles for op in workload.cycle(c)]
    for op in ops:
        op.check(op.run())
    return len(ops)


def test_sweep_cycle_0_passes_its_checks(workloads, tmp_path):
    assert _run_cycles(workloads.Sweep(workloads.DEFAULT_SEED, tmp_path)) == 200


def test_sweep_cycles_1_to_3_pass_their_checks(workloads, tmp_path):
    sweep = workloads.Sweep(workloads.DEFAULT_SEED, tmp_path)
    assert [sweep.grid(c)[-1] for c in (1, 2, 3)] == [2, 4, 6]  # the orders
    assert _run_cycles(sweep, cycles=(1, 2, 3)) == 3 * workloads.GRID_STEPS == 120


def test_cli_cold_cycle_0_passes_its_checks(workloads, tmp_path):
    workload = workloads.CliCold(workloads.DEFAULT_SEED, tmp_path)
    assert workload.golden  # the default seed's goldens are checked
    workload.launch = _in_process
    assert _run_cycles(workload) == 8
