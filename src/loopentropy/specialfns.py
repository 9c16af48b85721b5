"""Complex special functions used by the closed-form loop integrals.

Everything here is a plain function of python complex numbers.  The gamma,
loggamma and digamma evaluations are delegated to scipy's compiled
``gamma``/``loggamma``/``psi`` ufuncs (Lanczos-grade accuracy on the strip
we care about), which ``loopentropy._special`` loads on the first such call
from their extension alone, never through the ``scipy.special`` package: the
same ufuncs, so the same bits, without the package's import.  The eps-series
of the loop families at j = 0, 1 (every entropy the command line serves by
default) sit on the poles of Gamma and need only the zeta table, so they
never load it.  The polygamma ladder is computed from the Hurwitz zeta
function via Euler-Maclaurin summation because scipy's polygamma does not
accept complex arguments.  All constants are stored as 20-significant-digit
literals since they seed the tolerances of the validation suite; zeta(n)
above the table comes from the same Hurwitz sum.
"""

from __future__ import annotations

import cmath
import math

from ._lazy import LazyModule
from .errors import NonFiniteError, PoleError

_sp = LazyModule("loopentropy._special")

EULER_GAMMA = 0.57721566490153286061
PI = 3.1415926535897932385

# zeta(2..16), used by the epsilon-expansion of Gamma(1 + x); see zeta_int.
ZETA = {
    2: 1.6449340668482264365,
    3: 1.2020569031595942854,
    4: 1.0823232337111381916,
    5: 1.0369277551433699263,
    6: 1.0173430619844491397,
    7: 1.0083492773819228268,
    8: 1.0040773561979443394,
    9: 1.0020083928260822144,
    10: 1.0009945751278180853,
    11: 1.0004941886041194646,
    12: 1.0002460865533080483,
    13: 1.0001227133475784891,
    14: 1.0000612481350587048,
    15: 1.0000305882363070205,
    16: 1.0000152822594086519,
}

_POLE_TOL = 1e-12


def _ensure_finite(value: complex, what: str) -> complex:
    if not (math.isfinite(value.real) and math.isfinite(value.imag)):
        raise NonFiniteError(f"{what} produced a non-finite value: {value}")
    return value


def is_nonpositive_integer(z: complex, tol: float = _POLE_TOL) -> bool:
    """True when z sits (numerically) on a pole of Gamma."""
    zr = complex(z)
    n = round(zr.real)
    return n <= 0 and abs(zr.real - n) <= tol and abs(zr.imag) <= tol


def _scipy_off_pole(name: str, z: complex) -> complex:
    """scipy's ufunc ``<name>(z)`` from ``loopentropy._special``, refusing
    the poles of Gamma (PoleError; the caller must use the series expansion
    around the pole instead) and a non-finite result (NonFiniteError)."""
    z = complex(z)
    if is_nonpositive_integer(z):
        raise PoleError(f"{name}({z}) is a pole; use the series form")
    return _ensure_finite(complex(getattr(_sp, name)(z)), f"{name}({z})")


def gamma(z: complex) -> complex:
    """Gamma function for complex argument."""
    return _scipy_off_pole("gamma", z)


def loggamma(z: complex) -> complex:
    """Principal log-Gamma function for complex argument."""
    return _scipy_off_pole("loggamma", z)


def digamma(z: complex) -> complex:
    """Digamma (psi) function for complex argument."""
    return _scipy_off_pole("digamma", z)


def harmonic(z: complex) -> complex:
    """Generalized harmonic number H_z = euler_gamma + psi(z + 1).

    For integer n >= 0 this is the partial sum 1 + 1/2 + ... + 1/n.
    Raises PoleError, through ``digamma``, when z is a negative integer.
    """
    return EULER_GAMMA + digamma(complex(z) + 1)


def harmonic_int(n: int) -> float:
    """Exact-partial-sum harmonic number for small nonnegative integers."""
    if n < 0:
        raise PoleError(f"harmonic_int({n}) undefined for negative n")
    return math.fsum(1.0 / k for k in range(1, n + 1))


def zeta_int(n: int) -> float:
    """Riemann zeta(n) for integer n >= 2.

    The table serves n <= 16; above it the Hurwitz sum zeta(n, 1) is good
    to about 2e-16 relative (the value is 1 + 2^-n + ...).
    """
    value = ZETA.get(n)
    if value is None:
        value = hurwitz_zeta_int(n, 1.0).real
    return value


def constants() -> tuple[float, float, float]:
    """(euler_gamma, zeta(3), pi) to better than 1e-16 relative."""
    return EULER_GAMMA, ZETA[3], PI


# Bernoulli numbers B_2, B_4, ... B_20 for Euler-Maclaurin tails.
_BERNOULLI_EVEN = [
    1.0 / 6, -1.0 / 30, 1.0 / 42, -1.0 / 30, 5.0 / 66,
    -691.0 / 2730, 7.0 / 6, -3617.0 / 510, 43867.0 / 798, -174611.0 / 330,
]


def hurwitz_zeta_int(s: int, z: complex) -> complex:
    """Hurwitz zeta(s, z) for integer s >= 2 and Re z > 0.

    Euler-Maclaurin: direct sum up to a shift N with |z + N| large, then
    the integral + correction tail.  Good to ~1e-15 relative on the
    arguments the series expansions need.
    """
    if s < 2:
        raise ValueError("hurwitz_zeta_int requires integer s >= 2")
    z = complex(z)
    if z.real <= 0 and abs(z.imag) < 1e-300 and abs(z.real - round(z.real)) < 1e-300:
        raise PoleError(f"hurwitz_zeta({s}, {z}) hits a pole of the sum")
    n_shift = max(0, int(math.ceil(18 - z.real)))
    acc = 0.0 + 0.0j
    for k in range(n_shift):
        acc += (z + k) ** (-s)
    w = z + n_shift
    acc += w ** (1 - s) / (s - 1)
    acc += 0.5 * w ** (-s)
    # sum_i B_2i/(2i)! * (s)_{2i-1} * w^{-s-2i+1}
    poch = float(s)  # (s)_1
    fact = 2.0       # (2i)! running value for i=1
    winv2 = 1.0 / (w * w)
    wpow = w ** (-s - 1)
    for i, b in enumerate(_BERNOULLI_EVEN, start=1):
        acc += b / fact * poch * wpow
        wpow *= winv2
        poch *= (s + 2 * i - 1) * (s + 2 * i)
        fact *= (2 * i + 1) * (2 * i + 2)
    return _ensure_finite(acc, f"hurwitz_zeta({s}, {z})")


def polygamma(n: int, z: complex) -> complex:
    """n-th derivative of digamma for complex z (n >= 1).

    Uses psi^(n)(z) = (-1)^(n+1) n! zeta(n+1, z), with the reflection-free
    upward recurrence to move Re z into the convergent half plane.
    """
    if n < 1:
        raise ValueError("polygamma requires n >= 1; use digamma for n = 0")
    z = complex(z)
    if is_nonpositive_integer(z):
        raise PoleError(f"polygamma({n}, {z}) is a pole")
    shift = 0.0 + 0.0j
    sign = (-1.0) ** (n + 1) * math.factorial(n)
    while z.real <= 0.5:
        # psi^(n)(z) = psi^(n)(z+1) + (-1)^n n! z^(-n-1)
        shift += sign * z ** (-(n + 1))
        z = z + 1
    return shift + sign * hurwitz_zeta_int(n + 1, z)


def principal_log(z: complex) -> complex:
    """Principal branch log with the negative real axis mapped to +i*pi.

    Matches the m^2 -> m^2 - i0 propagator prescription used throughout:
    log(-m^2) = log(m^2) + i*pi.
    """
    z = complex(z)
    if z == 0:
        raise NonFiniteError("log(0) requested")
    if z.imag == 0.0 and z.real < 0.0:
        return math.log(-z.real) + 1j * PI
    return cmath.log(z)
