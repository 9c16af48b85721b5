"""Each CLI subcommand loads only the library modules it runs.

Every number comes out of a fresh ``loopentropy`` process, so start-up is
part of each command's cost: ``tau`` loads no ``entropy``, ``epsseries``,
``loops``, ``traces`` or ``svg``; ``trace-check`` no ``entropy`` or
``svg``; ``entropy`` and the figures no ``traces`` or ``checks``; and no
command ``fractions``, ``numpy.ma`` or ``numpy.random``.  The package
resolves its public names on first lookup (PEP 562), so ``import
loopentropy`` loads no submodule.  The import checks run in a fresh
interpreter, since the rest of the suite leaves every module loaded.

A process that runs its own command line (``main()``, as the console script
does) freezes its heap once its output is written, so that CPython does not
free it object by object at shutdown; an in-process ``main(argv)`` freezes
nothing.  Both give the same output.
"""

import gc
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import loopentropy
from loopentropy.cli import main

SRC = str(Path(__file__).resolve().parents[1] / "src")

# run with a CLI command as its arguments; prints the exit code, the loaded
# loopentropy submodules and the watched stdlib/numpy modules as JSON
LOADED = r'''
import contextlib, io, json, sys
from loopentropy.cli import main

with contextlib.redirect_stdout(io.StringIO()):
    code = main(sys.argv[1:])
print(json.dumps([code,
                  sorted(m[len("loopentropy."):] for m in sys.modules
                         if m.startswith("loopentropy.")),
                  [m for m in ("fractions", "numpy.ma", "numpy.random")
                   if m in sys.modules]]))
'''

TAU = {"cli", "contour", "errors", "params", "specialfns", "_lazy"}
SERIES = {"cli", "epsseries", "errors", "loops", "params", "specialfns", "_lazy"}
QUANTITIES = SERIES | {"contour", "entropy"}
QUADPACK = {"_quadpack", "_integrate._quadpack"}
SPECIAL = {"_special", "_special._special_ufuncs"}

# (argv, exit code, the loopentropy submodules it loads)
COMMANDS = [
    (["tau"], 0, TAU),
    (["tau", "--json"], 0, TAU),
    (["tau", "--delta-cut", "0.1"], 0, TAU | SERIES | QUADPACK),
    (["trace-check"], 0, SERIES | {"traces"}),
    (["entropy", "--q", "ext21"], 0, QUANTITIES),
    (["entropy", "--q", "no_such_quantity"], 2, QUANTITIES),
    (["figure2", "--steps", "3"], 0, QUANTITIES),
    (["figure2", "--steps", "3", "--svg", "{tmp}/f2.svg"], 0, QUANTITIES | {"svg"}),
    (["figure3", "--steps", "3", "--svg", "{tmp}/f3.svg"], 0, QUANTITIES | {"svg"}),
    (["check"], 0, QUANTITIES | QUADPACK | SPECIAL | {"traces", "checks"}),
]


def _run(code, args=(), cwd=None, **env_vars):
    env = dict(os.environ, **env_vars)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run([sys.executable, "-c", code, *args], capture_output=True,
                          text=True, env=env, cwd=cwd, timeout=300)


@pytest.mark.parametrize("argv, code, modules", COMMANDS,
                         ids=[" ".join(c[0]) for c in COMMANDS])
def test_each_subcommand_loads_only_what_it_runs(argv, code, modules, tmp_path):
    proc = _run(LOADED, [a.replace("{tmp}", str(tmp_path)) for a in argv])
    assert proc.returncode == 0, proc.stderr
    exit_code, loaded, watched = json.loads(proc.stdout)
    assert exit_code == code, proc.stderr
    assert set(loaded) == modules
    assert watched == []


def test_importing_the_package_loads_no_submodule():
    proc = _run("import sys, loopentropy; "
                "print(sorted(m for m in sys.modules if m.startswith('loopentropy.')))")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_every_public_name_resolves_and_is_listed():
    assert set(loopentropy._SUBMODULE) == set(loopentropy.__all__)
    for name in loopentropy.__all__:
        module = importlib.import_module("loopentropy." + loopentropy._SUBMODULE[name])
        assert getattr(loopentropy, name) is getattr(module, name)
        assert name in dir(loopentropy)
    namespace = {}
    exec("from loopentropy import *", namespace)
    assert set(loopentropy.__all__) <= set(namespace)
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        loopentropy.no_such_name


def test_loops_reexports_the_scheme():
    from loopentropy import loops, params

    assert loops.SchemeParams is params.SchemeParams is loopentropy.SchemeParams
    assert loops.MAX_ORDER is params.MAX_ORDER


# the benchmark's cli_cold child, behind an atexit hook, registered first and
# so run last, that records whether the heap was frozen at exit
FROZEN_AT_EXIT = r'''
import atexit, gc, os

def report():
    with open(os.environ["FROZEN_OUT"], "w", encoding="utf-8") as fh:
        fh.write(str(gc.get_freeze_count() > 0))

atexit.register(report)
import sys; from loopentropy.cli import main; sys.exit(main())
'''

# (argv, exit code); the figure writes its files into the working directory
EXITS = [
    (["tau", "--json"], 0),
    (["entropy", "--q", "ext21"], 0),
    (["figure2", "--steps", "3", "--out", "f2.csv", "--svg", "f2.svg"], 0),
    (["entropy", "--q", "no_such_quantity"], 2),
    (["--help"], 0),
]


@pytest.mark.parametrize("argv", [["tau"], ["entropy", "--q", "ext21"],
                                  ["entropy", "--q", "no_such_quantity"]],
                         ids=" ".join)
def test_an_in_process_main_freezes_nothing(argv, capsys):
    # the suite calls main thousands of times: a freeze would pin the
    # cyclic garbage of each call
    frozen = gc.get_freeze_count()
    main(argv)
    capsys.readouterr()
    assert gc.get_freeze_count() == frozen


def _files(directory):
    return {path.name: path.read_bytes() for path in sorted(directory.iterdir())}


@pytest.mark.parametrize("argv, code", EXITS, ids=[" ".join(e[0]) for e in EXITS])
def test_the_process_command_line_freezes_its_heap_and_prints_the_same(
        argv, code, tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")  # the --help text wraps at the width
    (tmp_path / "process").mkdir()
    (tmp_path / "in_process").mkdir()
    proc = _run(FROZEN_AT_EXIT, argv, cwd=tmp_path / "process",
                FROZEN_OUT=str(tmp_path / "frozen.txt"))
    assert (tmp_path / "frozen.txt").read_text() == "True"

    monkeypatch.chdir(tmp_path / "in_process")
    assert main(argv) == proc.returncode == code
    out, err = capsys.readouterr()
    assert (proc.stdout, proc.stderr) == (out, err)
    files = _files(tmp_path / "process")
    assert files == _files(tmp_path / "in_process")
    assert len(files) == argv.count("--out") + argv.count("--svg")
    if code == 2:
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1
