"""QUADPACK's ``qagse``/``qagie`` called straight from scipy's extension module.

The library uses one scipy routine, ``scipy.integrate.quad``, but importing
the ``scipy.integrate`` package also loads ``scipy.special``, ``scipy.optimize``,
``scipy.sparse``, ``scipy.linalg`` and more, which dominates the start-up of
the quadrature commands.  This module loads only the compiled
``scipy/integrate/_quadpack`` extension, under a private module name, with
the loader it shares with ``loopentropy._special``
(``_lazy.scipy_extension``), and repeats what ``quad`` does for the bounds
the library passes, so values and error estimates are the same bits: the
same C routine runs with the same arguments.

It relies on scipy's layout: the extension lives at ``integrate/_quadpack``
inside the scipy package and exposes ``_qagse(func, a, b, args, full_output,
epsabs, epsrel, limit)`` and ``_qagie(func, bound, inf, args, full_output,
epsabs, epsrel, limit)``, each returning ``(value, abserr, ier)``.
"""

from __future__ import annotations

import math

from ._lazy import scipy_extension

_ext = scipy_extension("integrate", "_quadpack")


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
