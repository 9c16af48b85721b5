"""Every exception that ``src/`` raises on purpose is a ``LoopEntropyError``,
or is listed here.

An input out of range is refused as ``errors.InputError``, which is both a
``LoopEntropyError`` and a ``ValueError``.  So one ``except
LoopEntropyError`` catches every refusal, and the CLI needs no ``except
ValueError``, which would report an internal bug as invalid input.  The
audit walks the AST of each module of the package and resolves the class of
each ``raise`` in that module's namespace: a class, or a function whose
return annotation is one.  A bare ``raise`` passes on an exception that was
raised elsewhere and is not audited.  Any other class fails the audit until
it becomes a library error or is listed in ``ALLOWED`` with its reason; an
entry that names no raise fails it as stale.
"""

import ast
import builtins
import importlib
import inspect
import pkgutil

import loopentropy
from loopentropy.errors import LoopEntropyError

# (module, class) -> why that module raises a class that is not a library error
ALLOWED = {
    ("loopentropy", "AttributeError"): "the module __getattr__ protocol (PEP 562) asks for "
                                       "it; a missing name is not an input",
    ("loopentropy._lazy", "ImportError"): "a scipy without the extension file is a broken "
                                          "install, not an input",
    ("loopentropy._special", "ImportError"): "a scipy without the ufunc is a broken install, "
                                             "not an input",
    ("loopentropy._quadpack", "ValueError"): "two internal guards: loops hands QUADPACK only "
                                             "its own bounds and tolerances",
    ("loopentropy.cli", "ArgumentTypeError"): "argparse's error for a value that does not "
                                              "convert; argparse hands it to the parser's "
                                              "error(), which raises it as an InputError",
    ("loopentropy.cli", "ArgumentError"): "argparse's error for an option without its value; "
                                          "raised as an InputError the same way",
}


def _modules():
    return [loopentropy] + [importlib.import_module(info.name) for info in
                            pkgutil.iter_modules(loopentropy.__path__, "loopentropy.")]


def _raises(module):
    """(the raised expression's name, line) of each ``raise X`` or
    ``raise X(...)`` in the module's source."""
    for node in ast.walk(ast.parse(inspect.getsource(module))):
        if isinstance(node, ast.Raise) and node.exc is not None:
            target = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            yield ast.unparse(target), node.lineno


def _resolve(module, dotted: str):
    """The object a dotted name means in the module; for a function, the
    class its return annotation names."""
    head, *rest = dotted.split(".")
    value = vars(module).get(head, getattr(builtins, head, None))
    for part in rest:
        value = getattr(value, part, None)
    if inspect.isfunction(value):
        value = inspect.signature(value, eval_str=True).return_annotation
    return value


def test_every_raise_in_src_is_a_library_error_or_listed():
    found, unlisted = set(), []
    for module in _modules():
        for dotted, line in _raises(module):
            cls = _resolve(module, dotted)
            if isinstance(cls, type) and issubclass(cls, LoopEntropyError):
                continue
            key = (module.__name__, dotted.rsplit(".", 1)[-1])
            found.add(key)
            if key not in ALLOWED:
                unlisted.append(f"{module.__name__}:{line} raises {dotted}")
    assert not unlisted, "refuse an input as errors.InputError:\n" + "\n".join(unlisted)
    assert not set(ALLOWED) - found, f"stale entries: {sorted(set(ALLOWED) - found)}"
