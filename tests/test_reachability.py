"""Every statement of every named function in ``src/`` runs in the system,
or has a stated reason not to.

The system is what users run: the command lines of the CLI ledger
(``tests/test_cli_ledger.py``) and the demos (``tests/test_demos.py``).
The audit runs them all in-process under ``sys.settrace`` (call and line
events, in the package's own frames only), in one fresh interpreter,
because caches and lazy bindings that earlier tests filled would hide
lines.  A named function is a module-level function, or a method,
property, classmethod or staticmethod of a class, defined in a module of
the package; each is matched by its code object, since ``co_qualname``
needs Python 3.11.  Nested functions and the methods that ``dataclass``
writes are not named; a nested function's statements count as those of
the named function around it.

A statement ran when a line event fired on one of its own lines: all of a
simple statement's lines, or a compound statement's header (``if``,
``for``, ``try:`` ... up to its first inner statement).  A statement that
never ran passes when it lies in

- a block that ends in ``raise``, or an ``except`` handler: a refusal;
- a block that ends in ``return NotImplemented``: an operator protocol.

Any other statement that never ran fails the audit, naming its function,
until it runs, is deleted, or its function is listed in ``UNREACHED`` with
its reason (by qualified name, never by line number); a listed function
whose every statement runs, or that does not exist, fails it as stale.
"""

import ast
import importlib
import inspect
import json
import os
import pkgutil
import sys
import types
from pathlib import Path

BENCH = "read by bench/, ROADMAP 1a/5"
MULTIPARTICLE = ("a multiparticle spectral density, which the library takes and the CLI "
                 "cannot give")

# each function with a statement that the system never runs -> why it stays
UNREACHED = {
    "loopentropy.__dir__": "the dir() protocol of the package's lazy names",
    "loopentropy._quadpack.quad": "an empty interval: renyi_trace_radial(2, ...) meets it at "
                                  "cuts above about 0.293, and the ledger's cuts are below 0.2",
    "loopentropy.cli.main": "the process's own command line, run by the console script; "
                            "CI and test_cold_start run it in a child",
    "loopentropy.entropy.EntropyBreakdown.is_real": BENCH,
    "loopentropy.entropy.SpectralDensity.__post_init__": MULTIPARTICLE,
    "loopentropy.entropy.renyi_trace_radial": "the endpoint cut at n = 2: demo 04 cross-checks "
                                              "n >= 3, test_quadpack and test_entropy n = 2",
    "loopentropy.entropy.s_nonperturbative": "a channel of zero weight: " + MULTIPARTICLE,
    "loopentropy.epsseries._cleaned": "a caller's coefficient past kmax is dropped, as the "
                                      "validating constructor documents",
    "loopentropy.epsseries.EpsSeries.__repr__": "the repr() protocol, for debugging",
    "loopentropy.epsseries.EpsSeries.coefficient": "a log power outside [0, LOGCAP], which no "
                                                   "key holds and kernel_key would alias",
    "loopentropy.epsseries.EpsSeries.__pow__": "a negative power, through the inverse; the "
                                               "ring laws test it",
    "loopentropy.epsseries.EpsSeries.__rtruediv__": "a number over a series; the ring "
                                                    "laws test it",
    "loopentropy.epsseries._product": "a refusal: the log-cap scan of two operands that both "
                                      "carry log(eps), which the system never multiplies",
    "loopentropy.epsseries._power_sum": "a power that cancels or that its weight underflows to "
                                        "zero, dropped for the bits of acc + term.scale(w)",
    "loopentropy.epsseries.digamma_series": "the regular branch, c0 >= 1: chi_series at "
                                            "j >= 2 (bench/'s registry, the tests) asks for it",
    "loopentropy.loops.LoopValue.__post_init__": BENCH,
    "loopentropy.loops.LoopValue.consistent": BENCH,
    "loopentropy.loops.eta_closed_d4": "the r2 = 0 limit, where the general form is 0/0, "
                                       "and an r2 (r2 + 4 m^2) outside the normal float "
                                       "range; the radial trace and demo 02 ask at "
                                       "moderate r2 != 0",
    "loopentropy.loops._log1p_over_4m2": "an |r2| / (4 m^2) past the float range, at "
                                         "|r2| above about 7e308 m^2",
    "loopentropy.loops._over_roots": "an 8 pi^2 sqrt(|r2|) sqrt(|r2 + 4 m^2|) past the float "
                                     "range, at |r2| above about 2e306",
    "loopentropy.loops.chi_over_delta_series": BENCH,
    "loopentropy.loops.delta_stripped_series": BENCH,
    "loopentropy.params.SchemeParams.from_tv": BENCH,
    "loopentropy.specialfns.polygamma": "the reflection for Re z < 1/2, so that polygamma "
                                        "always returns; the special-function tests reach it",
    "loopentropy.svg.render_line_chart": "a flat curve: every finite y equal",
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


def _definitions(filename: str) -> dict:
    """First line (its first decorator's, as ``co_firstlineno``) -> the
    ``def`` node of each function in ``filename``."""
    tree = ast.parse(Path(filename).read_text(), filename)
    return {min([node.lineno] + [d.lineno for d in node.decorator_list]): node
            for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}


def _excused(block: list) -> bool:
    last = block[-1]
    return isinstance(last, ast.Raise) or (
        isinstance(last, ast.Return) and isinstance(last.value, ast.Name)
        and last.value.id == "NotImplemented")


def _unrun(block: list, ran: set, excused: bool = False):
    """The first line of each statement in ``block`` that never ran and is
    not excused, outermost first: a statement that never ran is reported
    once, not with the statements inside it."""
    excused = excused or _excused(block)
    for stmt in block:
        if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant):
            continue  # a docstring: no line event
        inner = [getattr(stmt, field, []) for field in ("body", "orelse", "finalbody")]
        handlers = getattr(stmt, "handlers", [])
        children = [s for b in inner for s in b] + [s for h in handlers for s in h.body]
        start = min([stmt.lineno] + [d.lineno for d in getattr(stmt, "decorator_list", [])])
        end = min(s.lineno for s in children) - 1 if children else stmt.end_lineno
        if not ran.intersection(range(start, end + 1)):
            if not excused:
                yield stmt.lineno
            continue
        for b in filter(None, inner):
            yield from _unrun(b, ran, excused)
        for h in handlers:
            yield from _unrun(h.body, ran, True)


def unrun() -> dict:
    """``module.qualname`` -> the first lines of the statements of that
    named function that the ledger's command lines and the demos never run,
    run in this process; only functions with such a statement are keys."""
    import loopentropy
    from test_cli_ledger import commands, run
    from test_demos import NAMES, run_demo

    package = os.path.dirname(loopentropy.__file__)
    ran = {}  # file name -> the lines a line event fired on

    def lines(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return lines

    def calls(frame, event, arg):
        filename = frame.f_code.co_filename
        if os.path.dirname(filename) == package:
            ran.setdefault(filename, set())
            return lines
        return None

    sys.settrace(calls)
    try:
        for argv in commands():
            run(argv)
        for name in NAMES:
            run_demo(name)
    finally:
        sys.settrace(None)
    definitions = {}
    found = {}
    for code, name in named_functions().items():
        filename = code.co_filename
        if filename not in definitions:
            definitions[filename] = _definitions(filename)
        node = definitions[filename][code.co_firstlineno]
        missed = list(_unrun(node.body, ran.get(filename, set())))
        if missed:
            found[name] = missed
    return found


def test_every_unreached_function_is_listed_with_its_reason():
    from test_cold_start import _run  # not at the top: the child runs this file

    child = _run(__file__)
    assert child.returncode == 0, child.stderr
    found = json.loads(child.stdout)
    new = {name: lines for name, lines in sorted(found.items()) if name not in UNREACHED}
    stale = sorted(set(UNREACHED) - set(found))
    assert not new, ("statements that the CLI ledger and the demos never run, by function "
                     f"and first line, in no listed function: {new}")
    assert not stale, f"stale entries (every statement runs, or no such function): {stale}"


if __name__ == "__main__":
    print(json.dumps(unrun()))
