"""Deferred imports: a module stand-in that imports on first use, and the
loader that brings in one compiled scipy extension without its package."""

from __future__ import annotations

import importlib
import os


class LazyModule:
    """Proxy for the module ``name``, imported on the first attribute lookup.

    It is bound as a plain module-level name (``np`` in the numerical modules,
    ``loops.integrate``, ``specialfns._sp``), so code that inspects or rebinds
    that name sees an ordinary attribute, and callers write
    ``integrate.quad(...)`` as if the module had been imported eagerly.

    Each attribute is cached on the proxy at its first lookup, so later
    lookups are plain instance-dict hits and never reach ``__getattr__``:
    ``np.arctanh`` inside a quadrature integrand costs what it costs on the
    module itself.
    """

    def __init__(self, name: str):
        self._name = name

    def __getattr__(self, attr: str):
        value = getattr(importlib.import_module(self._name), attr)
        setattr(self, attr, value)
        return value


def scipy_extension(subpackage: str, name: str):
    """scipy's compiled extension ``scipy/<subpackage>/<name>``, loaded alone.

    Importing a scipy subpackage runs its ``__init__``, which loads far more
    than the one extension the library calls.  This finds the extension file
    inside the installed scipy (without importing scipy) and executes it as
    ``loopentropy._<subpackage>.<name>``: the last part must stay ``name``,
    since the module's init function is ``PyInit_<name>``.  Loading it puts
    only that private name in ``sys.modules``, no ``scipy*`` one (an
    extension may still import scipy modules itself, as QUADPACK's does at
    its first call).  It is the same compiled code that
    ``import scipy.<subpackage>`` would load, so every value keeps its bits.
    A scipy without the file raises ``ImportError`` naming its version.
    """
    import importlib.machinery
    import importlib.util

    scipy_dir = importlib.util.find_spec("scipy").submodule_search_locations[0]
    module_name = f"loopentropy._{subpackage}.{name}"
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        path = os.path.join(scipy_dir, subpackage, name + suffix)
        if os.path.exists(path):
            loader = importlib.machinery.ExtensionFileLoader(module_name, path)
            module = importlib.util.module_from_spec(
                importlib.util.spec_from_file_location(module_name, path, loader=loader))
            loader.exec_module(module)
            return module
    from importlib.metadata import version
    raise ImportError(f"scipy {version('scipy')} has no {subpackage}/{name} extension "
                      f"under {scipy_dir}")
