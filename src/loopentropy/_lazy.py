"""A module stand-in that defers the import to its first use."""

from __future__ import annotations

import importlib


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
