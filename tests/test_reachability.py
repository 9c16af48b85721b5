"""Every named function in ``src/`` runs in the system, or is listed here.

The system is what users run: the command lines of the CLI ledger
(``tests/test_cli_ledger.py``) and the demos (``tests/test_demos.py``).
The audit runs them all in-process under ``sys.setprofile``, in one fresh
interpreter, because caches and lazy bindings that earlier tests filled
would hide calls.  A named function is a module-level function, or a
method, property, classmethod or staticmethod of a class, defined in a
module of the package; each is matched by its code object, since
``co_qualname`` needs Python 3.11.  Nested functions and the methods that
``dataclass`` writes are not named.

A function that the system never calls fails the audit until it is used,
deleted or listed in ``UNREACHED`` with its reason; an entry that names no
unreached function fails it as stale.
"""

import importlib
import inspect
import json
import os
import pkgutil
import subprocess
import sys
import types
from pathlib import Path

SRC = str(Path(__file__).resolve().parents[1] / "src")

BENCH = "read by bench/, ROADMAP 1a/5"

# each function the system never calls -> why it stays
UNREACHED = {
    "loopentropy.__dir__": "the dir() protocol of the package's lazy names",
    "loopentropy.epsseries.EpsSeries.__repr__": "the repr() protocol, for debugging",
    "loopentropy.epsseries.EpsSeries.__rtruediv__": "a number over a series; the ring "
                                                    "laws test it",
    "loopentropy.epsseries._pole_depth_error": "an error path: a coefficient below the pole "
                                               "depth, refused in unit tests",
    "loopentropy.entropy.EntropyBreakdown.is_real": BENCH,
    "loopentropy.loops.LoopValue.__post_init__": BENCH,
    "loopentropy.loops.LoopValue.consistent": BENCH,
    "loopentropy.loops.chi_over_delta_series": BENCH,
    "loopentropy.loops.delta_stripped_series": BENCH,
    "loopentropy.params.SchemeParams.from_tv": BENCH,
}


def _functions(namespace: dict, module: types.ModuleType):
    """The functions defined in ``module`` that ``namespace`` names, with
    those of the classes it names."""
    for value in namespace.values():
        if isinstance(value, type):
            if value.__module__ == module.__name__:
                yield from _functions(vars(value), module)
            continue
        if isinstance(value, property):
            candidates = (value.fget, value.fset, value.fdel)
        else:  # a classmethod or staticmethod holds its function as __func__
            candidates = (getattr(value, "__func__", value),)
        for func in candidates:
            func = inspect.unwrap(func) if callable(func) else None  # through lru_cache
            if (isinstance(func, types.FunctionType)
                    and func.__code__.co_filename == module.__file__):
                yield func


def named_functions() -> dict:
    """Code object -> ``module.qualname`` of each named function of the package."""
    import loopentropy

    modules = [loopentropy] + [importlib.import_module(info.name) for info in
                               pkgutil.iter_modules(loopentropy.__path__, "loopentropy.")]
    return {func.__code__: f"{func.__module__}.{func.__qualname__}"
            for module in modules for func in _functions(vars(module), module)}


def unreached() -> list[str]:
    """The named functions that the ledger's command lines and the demos
    never call, run in this process."""
    from test_cli_ledger import commands, run
    from test_demos import NAMES, run_demo

    called = set()

    def profile(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)

    sys.setprofile(profile)
    try:
        for argv in commands():
            run(argv)
        for name in NAMES:
            run_demo(name)
    finally:
        sys.setprofile(None)
    return sorted(name for code, name in named_functions().items() if code not in called)


def test_every_unreached_function_is_listed_with_its_reason():
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
    child = subprocess.run([sys.executable, __file__], env=env, capture_output=True,
                           text=True, timeout=300)
    assert child.returncode == 0, child.stderr
    found = set(json.loads(child.stdout))
    new = sorted(found - set(UNREACHED))
    stale = sorted(set(UNREACHED) - found)
    assert not new, f"never called by the CLI ledger or the demos, and not listed: {new}"
    assert not stale, f"stale entries (called now, or no such function): {stale}"


if __name__ == "__main__":
    print(json.dumps(unreached()))
