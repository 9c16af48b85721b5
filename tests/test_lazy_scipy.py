"""scipy and numpy are imported on first use only.

scipy serves only the oracles and the quadratures, and of it the library
loads two compiled extensions alone: QUADPACK's (``loopentropy._quadpack``)
and the special-function ufuncs (``loopentropy._special``: ``gamma``,
``loggamma``, ``digamma``, which ``check`` reads), never the
``scipy.integrate`` or ``scipy.special`` package.  The second puts no
``scipy`` name in ``sys.modules``, so the series paths are also checked
never to load ``loopentropy._special``.  numpy serves those, the log grid of
the figure commands and ``check``.  The import checks run in a fresh
interpreter, since any quadrature elsewhere in the suite leaves both
imported in the test process.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from loopentropy._lazy import LazyModule, scipy_extension

SRC = str(Path(__file__).resolve().parents[1] / "src")


def _run(args, code=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    argv = [sys.executable, "-c", code] if code else [sys.executable, "-m", "loopentropy.cli"]
    return subprocess.run(argv + list(args), capture_output=True, text=True, env=env,
                          timeout=300)


# run with the package name as its argument
SERIES_PATHS = r'''
import contextlib, io, sys, tempfile

PACKAGE = sys.argv[1]

def loaded():
    return sorted(m for m in sys.modules if m == PACKAGE or m.startswith(PACKAGE + "."))

import loopentropy
assert not loaded(), loaded()
import loopentropy.cli as cli
from loopentropy.entropy import QUANTITY_NAMES
assert not loaded(), loaded()

tmp = tempfile.mkdtemp()
commands = [["tau"], ["tau", "--json"], ["trace-check"],
            ["figure2", "--steps", "5", "--svg", tmp + "/f2.svg"],
            ["figure3", "--steps", "5", "--svg", tmp + "/f3.svg"],
            ["entropy", "--q", "nonpert", "--m-phys", "2", "--z", "0.5"]]
commands += [["entropy", "--q", q] for q in QUANTITY_NAMES]
for argv in commands:
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0, argv
    assert not loaded(), (argv, loaded())
    assert "loopentropy._special" not in sys.modules, argv
print(len(commands))
'''


def test_scipy_is_not_imported_by_the_series_paths():
    proc = _run(["scipy"], SERIES_PATHS)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "18"


def test_numpy_is_not_imported_by_the_series_paths():
    proc = _run(["numpy"], SERIES_PATHS)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "18"


LOG_GRID = r'''
import contextlib, io, sys
from loopentropy.cli import main

with contextlib.redirect_stdout(io.StringIO()) as out:
    assert main(["figure2", "--log-grid", "--steps", "5"]) == 0
assert "numpy" in sys.modules
print(len(out.getvalue().splitlines()))
'''


def test_log_grid_loads_numpy_on_demand():
    proc = _run([], LOG_GRID)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "7"  # comment, header and 5 rows


# run with a CLI command as its arguments
QUADRATURE_PATH = r'''
import contextlib, io, sys
from loopentropy.cli import main

with contextlib.redirect_stdout(io.StringIO()) as out:
    code = main(sys.argv[1:])
watched = ("scipy.integrate", "scipy.optimize", "scipy.sparse", "scipy.special",
           "loopentropy._special")
print(code, " ".join(m for m in watched if m in sys.modules))
print(out.getvalue(), end="")
'''


def test_quadrature_paths_load_quadpack_without_scipy_integrate():
    for argv, loaded, printed in (
            (["check"], "loopentropy._special", "all checks passed"),
            (["tau", "--delta-cut", "0.1"], "", '"regulated_ratio"'),
            (["entropy", "--q", "total21", "--quad-ratio"], "", '"residual_im"')):
        proc = _run(argv, QUADRATURE_PATH)
        assert proc.returncode == 0 and not proc.stderr, (argv, proc.stderr)
        status, out = proc.stdout.split("\n", 1)
        assert status == f"0 {loaded}", argv
        assert printed in out, (argv, out)


def test_invalid_input_in_a_fresh_process_has_no_traceback(tmp_path):
    for args in (["--config", str(tmp_path / "missing.json"), "tau"],
                 ["entropy", "--q", "ext21", "--m0", "inf"],
                 ["entropy", "--q", "int21", "--order", "99"]):
        proc = _run(args)
        assert proc.returncode == 2 and proc.stdout == ""
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1


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
