"""The first cycles of the benchmark's end-to-end workloads, in-process.

``bench/workloads.py`` defines the ``sweep`` and ``cli_cold`` workloads that
the benchmark times.  Their cycle 0 is the default ``figure2`` grid, checked
row by row against ``bench/golden/figure2.csv``, and one run of every
subcommand, checked against the committed figures and golden hashes.  The
sweep's cycles 1-3 are seeded grids at orders 2, 4 and 6, linear and
geometric, checked by the identities and the log(m0) lines of their rows.
Here each op runs once and its own check must pass, so a change that breaks
what the benchmark imports, calls or pins fails in the test suite.  The
sweep's cycle 0 also runs under ``bench/tracer.py``'s ``Tracer``, which
wraps library functions and ``EpsSeries`` methods by name, so a refactor
that drops a name the traced benchmark patches fails here too.  ``cli_cold``
sends each command line through ``cli.main`` in this process instead of a
fresh interpreter.  Nothing under ``bench/`` is written: its modules load
without caching bytecode.
"""

import contextlib
import importlib
import io
import subprocess
import sys
from pathlib import Path

import pytest

from loopentropy import cli

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _import_bench(name: str):
    sys.path.insert(0, str(BENCH))
    write_bytecode, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        return importlib.import_module(name)
    finally:
        sys.dont_write_bytecode = write_bytecode
        sys.path.remove(str(BENCH))


@pytest.fixture(scope="module")
def workloads():
    return _import_bench("workloads")


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


def _library_bindings() -> dict:
    """Every attribute of every loaded ``loopentropy`` module and of
    ``EpsSeries``, by owner and name."""
    from loopentropy.epsseries import EpsSeries

    owners = [m for name, m in sys.modules.items()
              if m is not None and (name == "loopentropy" or name.startswith("loopentropy."))]
    return {(owner.__name__, attr): value
            for owner in owners + [EpsSeries] for attr, value in vars(owner).items()}


def test_the_tracer_patches_every_name_it_wraps_over_sweep_cycle_0(workloads, tmp_path):
    tracer_mod = _import_bench("tracer")
    # the modules install patches, loaded before the bindings are taken
    from loopentropy import checks, cli, contour, entropy, loops, specialfns, svg, traces  # noqa: F401
    from loopentropy.epsseries import EpsSeries

    before = _library_bindings()
    tracer = tracer_mod.install(tracer_mod.Tracer())  # raises for a name it cannot find
    try:
        for method in [*tracer_mod.SERIES_METHODS, "__post_init__"]:
            assert vars(EpsSeries)[method].__wrapped__ is before["EpsSeries", method], method
        assert _run_cycles(workloads.Sweep(workloads.DEFAULT_SEED, tmp_path)) == 200
    finally:
        tracer.uninstall()
    summary = tracer.summary()
    assert summary["counts"]["epsseries.constructions"] > 0
    for label in ("epsseries.mul", "epsseries.log"):
        assert summary["labels"][label][0] > 0, label
    after = _library_bindings()
    assert [key for key, value in before.items() if after.get(key) is not value] == []
