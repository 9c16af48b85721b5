"""scipy's ``gamma``, ``loggamma`` and ``psi`` ufuncs, without ``scipy.special``.

They come from the compiled ``scipy/special/_special_ufuncs`` extension,
loaded alone (``_lazy.scipy_extension``); ``scipy.special.gamma``,
``loggamma`` and ``digamma`` are these same ufuncs, so values keep their bits.
"""

from ._lazy import scipy_extension

_ext = scipy_extension("special", "_special_ufuncs")

for _attr in ("gamma", "loggamma", "psi"):
    if not hasattr(_ext, _attr):  # older scipy kept them in _ufuncs
        from importlib.metadata import version
        raise ImportError(f"scipy {version('scipy')} has no {_attr} in "
                          "special/_special_ufuncs")

gamma, loggamma, digamma = _ext.gamma, _ext.loggamma, _ext.psi
