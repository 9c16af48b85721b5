"""Each CLI subcommand loads only the library modules it runs, and numpy and
scipy only on first use.

Every number comes out of a fresh ``loopentropy`` process, so start-up is
part of each command's cost: ``tau`` loads no ``entropy``, ``epsseries``,
``loops``, ``traces`` or ``svg``; ``trace-check`` no ``entropy`` or
``svg``; ``entropy`` and the figures no ``traces`` or ``checks``; and no
command ``fractions``, ``numpy.ma`` or ``numpy.random``.  The package
resolves its public names on first lookup (PEP 562), so ``import
loopentropy`` loads no submodule.

The series paths (``tau``, ``trace-check``, every quantity, the figures on
a linear grid) load neither numpy nor scipy.  scipy serves only the oracles
and the quadratures, and of it the library loads two compiled extensions
alone: QUADPACK's (``loopentropy._quadpack``) and the special-function
ufuncs (``loopentropy._special``: ``gamma``, ``loggamma``, ``digamma``,
which ``check`` reads).  Loading them imports numpy and scipy's top package,
never ``scipy.integrate``, ``scipy.optimize``, ``scipy.sparse`` or
``scipy.special``.  numpy also serves the log grid of the figure commands.

The import checks run in fresh interpreters, since the rest of the suite
leaves every module loaded; ``_run`` builds each child, here and in the
other test files that start one.  A child runs several commands in turn
and reports, after each, what it has loaded so far; each command is its own
test, read from its child's one run.

A process that runs its own command line (``main()``, as the console script
does) freezes its heap once its output is written, so that CPython does not
free it object by object at shutdown; an in-process ``main(argv)`` freezes
nothing.  Both give the same output.
"""

import functools
import gc
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import loopentropy
from loopentropy._lazy import LazyModule, scipy_extension
from loopentropy.cli import main
from loopentropy.entropy import QUANTITY_NAMES

SRC = str(Path(__file__).resolve().parents[1] / "src")


def _run(*args, cwd=None, **env_vars):
    """``python *args`` in a fresh interpreter that imports the library from
    the ``src/`` next to these tests, with ``env_vars`` added to its
    environment."""
    env = dict(os.environ, **env_vars)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env=env, cwd=cwd, timeout=300)


# run with a JSON list of CLI commands as its argument; prints as JSON the
# loopentropy submodules that importing the package loads, then for each
# command its exit code, its stderr, and the loopentropy submodules and the
# watched modules loaded once it has run
LOADED = r'''
import contextlib, io, json, sys
import loopentropy

WATCHED = ("fractions", "numpy", "numpy.ma", "numpy.random", "scipy", "scipy.integrate",
           "scipy.optimize", "scipy.sparse", "scipy.special")

def loaded():
    return sorted(m[len("loopentropy."):] for m in sys.modules if m.startswith("loopentropy."))

report = [loaded()]
from loopentropy.cli import main

for argv in json.loads(sys.argv[1]):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    report.append([code, err.getvalue(), loaded(), [m for m in WATCHED if m in sys.modules]])
print(json.dumps(report))
'''

TAU = {"cli", "contour", "errors", "params", "specialfns", "_lazy"}
SERIES = {"cli", "epsseries", "errors", "loops", "params", "specialfns", "_lazy"}
QUANTITIES = SERIES | {"contour", "entropy"}
QUADPACK = {"_quadpack", "_integrate._quadpack"}
SPECIAL = {"_special", "_special._special_ufuncs"}
# what loading one of scipy's compiled extensions imports
EXTENSION = {"numpy", "scipy"}

# each list runs in one fresh child, in order: (argv, exit code, the
# loopentropy submodules and the watched modules loaded once it has run)
CHILDREN = {
    "tau": [
        (["tau"], 0, TAU, set()),
        (["tau", "--json"], 0, TAU, set()),
        (["tau", "--delta-cut", "0.1"], 0, TAU | SERIES | QUADPACK, EXTENSION),
    ],
    "check": [
        (["trace-check"], 0, SERIES | {"traces"}, set()),
        (["check"], 0, QUANTITIES | QUADPACK | SPECIAL | {"traces", "checks"}, EXTENSION),
    ],
    "entropy and figures": [
        *[(["entropy", "--q", q], 0, QUANTITIES, set()) for q in QUANTITY_NAMES],
        (["entropy", "--q", "nonpert", "--m-phys", "2", "--z", "0.5"], 0, QUANTITIES, set()),
        (["entropy", "--q", "no_such_quantity"], 2, QUANTITIES, set()),
        (["figure2", "--steps", "3"], 0, QUANTITIES, set()),
        (["figure2", "--steps", "3", "--svg", "{tmp}/f2.svg"], 0, QUANTITIES | {"svg"}, set()),
        (["figure3", "--steps", "3", "--svg", "{tmp}/f3.svg"], 0, QUANTITIES | {"svg"}, set()),
        (["figure2", "--log-grid", "--steps", "5"], 0, QUANTITIES | {"svg"}, {"numpy"}),
        (["entropy", "--q", "total21", "--quad-ratio"], 0, QUANTITIES | {"svg"} | QUADPACK,
         EXTENSION),
    ],
}


# (child, index) of each command; its test is named by its argv
ROWS = [(child, i) for child, commands in CHILDREN.items() for i in range(len(commands))]


@pytest.fixture(scope="module")
def report(tmp_path_factory):
    """The report of a child, which runs once however many of its commands
    are tested."""
    tmp = str(tmp_path_factory.mktemp("children"))

    @functools.cache
    def run(child):
        argvs = [[a.replace("{tmp}", tmp) for a in argv] for argv, *_ in CHILDREN[child]]
        proc = _run("-c", LOADED, json.dumps(argvs))
        assert proc.returncode == 0, proc.stderr
        return json.loads(proc.stdout)

    return run


@pytest.mark.parametrize("child, i", ROWS, ids=[" ".join(CHILDREN[c][i][0]) for c, i in ROWS])
def test_each_subcommand_loads_only_what_it_runs(child, i, report):
    _, code, modules, watched = CHILDREN[child][i]
    got, err, loaded, seen = report(child)[1 + i]
    assert (got, set(loaded), set(seen)) == (code, modules, watched)
    # no warning; a refusal writes its one error line
    assert err == "" if code == 0 else err.startswith("error: ") and err.count("\n") == 1, err


def test_importing_the_package_loads_no_submodule(report):
    # each child reports it before its first command
    assert [report(child)[0] for child in CHILDREN] == [[]] * len(CHILDREN)


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


def test_lazy_module_imports_on_first_lookup_then_serves_from_its_dict(tmp_path,
                                                                       monkeypatch):
    name = "loopentropy_lazy_probe"
    (tmp_path / f"{name}.py").write_text("VALUE = object()\n")
    monkeypatch.syspath_prepend(str(tmp_path))
    proxy = LazyModule(name)
    try:
        assert name not in sys.modules
        value = proxy.VALUE
        assert value is sys.modules[name].VALUE
        assert vars(proxy)["VALUE"] is value

        def unreachable(self, attr):
            raise AssertionError(f"__getattr__ reached for {attr}")

        monkeypatch.setattr(LazyModule, "__getattr__", unreachable)
        assert proxy.VALUE is value
    finally:
        sys.modules.pop(name, None)


def test_a_missing_scipy_extension_is_an_import_error_naming_the_version():
    from importlib.metadata import version

    with pytest.raises(ImportError, match=rf"scipy {version('scipy')} has no "
                                          r"special/_no_such_ext extension"):
        scipy_extension("special", "_no_such_ext")


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
BENCH_CHILD = ("-c", FROZEN_AT_EXIT)
# the module's own ``sys.exit(main())``, which no hook can watch
MODULE = ("-m", "loopentropy.cli")

# (how the child starts, argv, exit code); the figure writes its files into
# the working directory, and the config path is relative to it
EXITS = [
    (BENCH_CHILD, ["tau", "--json"], 0),
    (BENCH_CHILD, ["entropy", "--q", "ext21"], 0),
    (BENCH_CHILD, ["figure2", "--steps", "3", "--out", "f2.csv", "--svg", "f2.svg"], 0),
    (BENCH_CHILD, ["entropy", "--q", "no_such_quantity"], 2),
    (BENCH_CHILD, ["--help"], 0),
    (BENCH_CHILD, ["--config", "missing.json", "tau"], 2),
    (BENCH_CHILD, ["entropy", "--q", "ext21", "--m0", "inf"], 2),
    (MODULE, ["entropy", "--q", "int21", "--order", "99"], 2),
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


@pytest.mark.parametrize("start, argv, code", EXITS,
                         ids=[("-m " if start == MODULE else "") + " ".join(argv)
                              for start, argv, _ in EXITS])
def test_the_process_command_line_freezes_its_heap_and_prints_the_same(
        start, argv, code, tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")  # the --help text wraps at the width
    (tmp_path / "process").mkdir()
    (tmp_path / "in_process").mkdir()
    proc = _run(*start, *argv, cwd=tmp_path / "process",
                FROZEN_OUT=str(tmp_path / "frozen.txt"))
    if start == BENCH_CHILD:
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
