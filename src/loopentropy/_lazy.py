"""A module stand-in that defers the import to its first use."""

from __future__ import annotations

import importlib


class LazyModule:
    """Proxy for the module ``name``, imported and cached on the first
    attribute lookup.

    It is bound as a plain module-level name (``loops.integrate``,
    ``specialfns._sp``), so code that inspects or rebinds that name sees an
    ordinary attribute, and callers write ``integrate.quad(...)`` as if the
    module had been imported eagerly.
    """

    def __init__(self, name: str):
        self._name = name
        self._module = None

    def __getattr__(self, attr: str):
        module = self._module
        if module is None:
            module = self._module = importlib.import_module(self._name)
        return getattr(module, attr)
