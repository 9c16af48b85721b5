"""QUADPACK's ``qagse``/``qagie`` called straight from scipy's extension module.

The library uses one scipy routine, ``scipy.integrate.quad``, but importing
the ``scipy.integrate`` package also loads ``scipy.special``, ``scipy.optimize``,
``scipy.sparse``, ``scipy.linalg`` and more, which dominates the start-up of
the quadrature commands.  This module loads only the compiled
``scipy/integrate/_quadpack`` extension, under a private module name, and
repeats what ``quad`` does for the bounds the library passes, so values and
error estimates are the same bits: the same C routine runs with the same
arguments.

It relies on scipy's layout: the extension lives at ``integrate/_quadpack``
inside the scipy package and exposes ``_qagse(func, a, b, args, full_output,
epsabs, epsrel, limit)`` and ``_qagie(func, bound, inf, args, full_output,
epsabs, epsrel, limit)``, each returning ``(value, abserr, ier)``.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import os

_NAME = "loopentropy._quadpack._quadpack"  # PyInit__quadpack needs the last part


def _load():
    scipy_dir = importlib.util.find_spec("scipy").submodule_search_locations[0]
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        path = os.path.join(scipy_dir, "integrate", "_quadpack" + suffix)
        if os.path.exists(path):
            loader = importlib.machinery.ExtensionFileLoader(_NAME, path)
            module = importlib.util.module_from_spec(
                importlib.util.spec_from_file_location(_NAME, path, loader=loader))
            loader.exec_module(module)
            return module
    from importlib.metadata import version
    raise ImportError(f"scipy {version('scipy')} has no integrate/_quadpack extension "
                      f"under {scipy_dir}")


_ext = _load()


def quad(func, a: float, b: float, epsabs: float, epsrel: float,
         limit: int) -> tuple[float, float]:
    """``scipy.integrate.quad(func, a, b, epsabs=, epsrel=, limit=)`` for finite
    bounds or ``b = +inf``; returns ``(value, abserr)``.

    QUADPACK's ``ier`` 1-5 (scipy's warnings) are left to the caller's own
    check of the error estimate; ``ier == 6`` (invalid input) raises.
    """
    if a == b:
        return 0.0, 0.0
    flip = b < a
    if flip:
        a, b = b, a
    if math.isfinite(a) and math.isfinite(b):
        val, err, ier = _ext._qagse(func, a, b, (), 0, epsabs, epsrel, limit)
    elif math.isfinite(a) and b == math.inf:
        val, err, ier = _ext._qagie(func, a, 1, (), 0, epsabs, epsrel, limit)
    else:
        raise ValueError(f"quadrature bounds ({a}, {b}) are neither finite nor [a, inf)")
    if ier == 6:
        raise ValueError(f"QUADPACK refused epsabs={epsabs}, epsrel={epsrel}, "
                         f"limit={limit}")
    return (-val if flip else val), err
