"""Regularized one-loop integral families.

Two families of momentum integrals drive every entropy in the library,

    tadpole_power(j):   integral d^d p/(2pi)^d  (p^2 - m^2)^-(j+1)
    log_weighted(j):    integral d^d p/(2pi)^d  log(p^2 - m^2) (p^2 - m^2)^-(j+1)

called ``delta`` and ``chi`` below, plus the one-loop bubble ``eta`` at
external momentum r.  Each is available three ways: exact-d closed form,
epsilon-series around d = 4, and independent adaptive quadrature (the
oracles, used by the validation suite and the ``check`` command).

numpy and QUADPACK (``loopentropy._quadpack``, which loads scipy's compiled
routine without the ``scipy.integrate`` package) are imported on first use,
not with this module: the series paths call neither.  numpy serves the
quadrature integrands; the quadratures run only for the oracles, the
regulated contour ratio (``--quad-ratio``, ``tau --delta-cut``), the contour
coefficients and the Renyi traces.
"""

from __future__ import annotations

import cmath
import functools
import math
import sys
from dataclasses import dataclass
from typing import Callable

from . import specialfns as sf
from ._lazy import LazyModule
from .epsseries import EpsSeries, gamma_series, harmonic_series, power_series
from .errors import (InputError, NonConvergentError, NonFiniteError, PoleError,
                     ToleranceNotMetError)
from .params import MAX_ORDER, SchemeParams, check_int_range, check_positive, check_range

np = LazyModule("numpy")
integrate = LazyModule("loopentropy._quadpack")

PI = sf.PI

QUAD_REL_TOL = 1e-9
ORACLE_REL_TOL = 1e-11  # the quadrature oracles' tighter tolerance
QUAD_LIMIT = 400  # subinterval cap for the adaptive quadrature


@dataclass(frozen=True)
class LoopValue:
    """A loop integral carried as exact-d value, series, or both.

    When both representations are present, ``d`` records where the exact
    value was taken and :meth:`consistent` checks that the series evaluated
    at eps = d - 4 reproduces it within the truncation error budget.
    """

    exact_d: complex | None = None
    series: EpsSeries | None = None
    d: float | None = None

    def __post_init__(self):
        if self.exact_d is None and self.series is None:
            raise InputError("LoopValue needs at least one representation")
        if self.exact_d is not None and self.series is not None and self.d is None:
            raise InputError("both representations present: record d")

    def consistent(self) -> bool:
        """Series-vs-exact agreement within the documented truncation error.

        The budget is |eps|^(kmax+1) relative, the size of the first dropped
        term, padded by a factor for its unknown coefficient.
        """
        if self.exact_d is None or self.series is None:
            return True
        eps = self.d - 4.0
        budget = 100.0 * abs(eps) ** (self.series.kmax + 1) + 1e-12
        return abs(self.series.evaluate(eps) - self.exact_d) <= \
            budget * max(abs(self.exact_d), 1e-300)


def _quad(f: Callable[[float], float], a: float, b: float,
          rel_tol: float = QUAD_REL_TOL) -> float:
    # QUADPACK's convergence flags (ier 1-5) are not acted on; the returned
    # error estimate is re-checked below and failures raise.
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            val, err = integrate.quad(f, a, b, epsabs=0.0, epsrel=rel_tol,
                                      limit=QUAD_LIMIT)
        except ZeroDivisionError as exc:
            # subdivision reached a singular endpoint, as x == 1.0 in (1 - x)**-s
            raise ToleranceNotMetError(
                "quadrature reached a singular endpoint before meeting its "
                "tolerance") from exc
    if not math.isfinite(val):
        raise NonConvergentError("quadrature returned a non-finite value")
    if err > max(abs(val), 1e-300) * rel_tol * 100 and err > 1e-13:
        raise ToleranceNotMetError(
            f"quadrature error estimate {err:.3e} too large for value {val:.6e}"
        )
    return val


def _in_float_range(compute: Callable[[], complex], what: str, *args) -> complex:
    """``compute()``, refused (NonFiniteError) where it leaves the normal
    float range: a float power in it overflows, or the value is infinite,
    NaN, zero or subnormal (every value it guards is nonzero, so the last
    two are underflows).  The message names ``what % args``, formatted only
    for a refusal."""
    try:
        value = compute()
        size = abs(value)
    except OverflowError:  # a float power, or the magnitude, past the float range
        size = math.inf
    if not sys.float_info.min <= size < math.inf:  # NaN fails both
        raise NonFiniteError(f"{what % args} leaves the float range")
    return value


def complex_quad(f: Callable[[float], complex], a: float, b: float,
                 rel_tol: float = QUAD_REL_TOL) -> complex:
    """Adaptive quadrature of a complex integrand on a real interval."""
    re = _quad(lambda t: f(t).real, a, b, rel_tol)
    im = _quad(lambda t: f(t).imag, a, b, rel_tol)
    return complex(re, im)


# ----------------------------------------------------------------------
# closed forms at exact dimension d
# ----------------------------------------------------------------------
def delta_closed(j: int, m2: float, d: float) -> complex:
    """Closed form of the tadpole-power integral at exact dimension d.

        i (-1)^(j+1) m^(d - 2(j+1)) (4 pi)^(-d/2) Gamma(j+1-d/2) / Gamma(j+1)

    Raises PoleError when j+1-d/2 is a nonpositive integer (use
    delta_series at d near 4 instead).  j runs to 170, the largest j whose
    j! = Gamma(j+1) is a float; a value past the float range, or one that
    underflows below the normal range, is refused (NonFiniteError).
    """
    check_int_range("j", j, 0, sf.MAX_POLYGAMMA_ORDER)
    check_positive("m2", m2)
    arg = j + 1 - d / 2.0
    if sf.is_nonpositive_integer(arg, tol=1e-9):
        raise PoleError(
            f"delta_closed: Gamma({arg}) pole at j={j}, d={d}; use the series"
        )
    return _in_float_range(lambda: (
        1j * (-1.0) ** (j + 1)
        * m2 ** (d / 2.0 - (j + 1))
        * (4.0 * PI) ** (-d / 2.0)
        * sf.gamma(arg) / math.gamma(j + 1)
    ), "delta_closed(%d, %r, %r)", j, m2, d)


def chi_closed(j: int, m2: float, d: float) -> complex:
    """Closed form of the log-weighted integral at exact dimension d.

    Evaluating the Feynman-parameter x-integral gives
    chi_j = delta_j * (H_j - H_{j - d/2} + log(-m^2)), validated by
    quadrature; log(-m^2) takes the +i*pi branch.
    """
    return delta_closed(j, m2, d) * (
        sf.harmonic_int(j) - sf.harmonic(j - d / 2.0) + sf.principal_log(-m2)
    )


def eta_closed_d4(r2: float, m2: float) -> complex:
    """One-loop bubble at d = 4 in closed form.

    Writing q = sqrt(r2 / (r2 + 4 m^2)) with principal complex square
    roots, eta = -i atanh(q) / (8 pi^2 sqrt(r2) sqrt(r2 + 4 m^2)); the
    r2 = 0 limit is the j=2 tadpole power.  Below the two-particle
    threshold r2 < -4 m^2 the m^2 - i0 prescription selects the branch
    with a positive absorptive (real) part.  Where q is real, atanh(q) is
    log1p(q) - log(1 - q^2) / 2 with 1 - q^2 taken from r2 and m^2, not from
    q, so it keeps its digits as q nears 1; for -4 m^2 < r2 < 0, q = i y and
    atanh(q) = i atan(y).  A non-finite r2 is refused, and so
    (NonFiniteError) is one whose value or intermediate leaves the float range.
    """
    check_positive("m2", m2)
    check_range("r2", r2, -sys.float_info.max, sys.float_info.max)
    if r2 == 0.0:
        return -1j / (32.0 * PI ** 2 * m2)
    shifted = r2 + 4.0 * m2
    if r2 < 0.0 and abs(shifted) < 1e-12 * m2:
        raise NonConvergentError("bubble is singular at the two-particle threshold")
    if shifted < 0.0:  # beyond threshold: explicit -i0 continuation, 1 - q^2 = -4 m^2 / r2
        atanh = math.log1p(math.sqrt(shifted / r2)) + 0.5 * math.log1p(-shifted / (4.0 * m2))
        product = r2 * shifted
        if sys.float_info.min <= product <= sys.float_info.max:
            root = math.sqrt(product)
        else:  # the product leaves the normal float range, each factor's root does not
            root = math.sqrt(-r2) * math.sqrt(-shifted)
        value = (0.5 * PI + 1j * atanh) / (8.0 * PI ** 2 * root)
    elif r2 < 0.0:  # q = i y, y = sqrt(-r2) / sqrt(r2 + 4 m^2)
        root_r, root_s = math.sqrt(-r2), math.sqrt(shifted)
        value = -1j * math.atan(root_r / root_s) / (8.0 * PI ** 2 * root_r * root_s)
    else:  # 1 - q^2 = 4 m^2 / (r2 + 4 m^2)
        root_r, root_s = math.sqrt(r2), math.sqrt(shifted)
        atanh = math.log1p(root_r / root_s) + 0.5 * math.log1p(r2 / (4.0 * m2))
        value = -1j * atanh / (8.0 * PI ** 2 * root_r * root_s)
    if not (value and cmath.isfinite(value)):
        raise NonFiniteError(f"eta_closed_d4({r2!r}, {m2!r}) leaves the float range")
    return value


def eta(r2: float, m2: float, d: float) -> complex:
    """One-loop bubble via the Feynman-parameter integral.

        -i Gamma(3 - d/2) (4 pi)^(-d/2)
            * integral_0^1 dx (1 - x) [r2 x(1-x) + m^2]^(d/2 - 3)

    The base stays positive on [0, 1] for r2 > -4 m^2, so the integral is real.
    """
    check_positive("m2", m2)
    if r2 <= -4.0 * m2:
        raise NonConvergentError(
            "parameter integrand crosses its zero for r2 <= -4 m^2; use the "
            "d = 4 closed form, which carries the -i0 continuation"
        )
    power = d / 2.0 - 3.0
    pref = -1j * sf.gamma(3.0 - d / 2.0) * (4.0 * PI) ** (-d / 2.0)
    return pref * _quad(lambda x: (1.0 - x) * (r2 * x * (1.0 - x) + m2) ** power,
                        0.0, 1.0, rel_tol=ORACLE_REL_TOL)


# ----------------------------------------------------------------------
# epsilon-series around d = 4  (eps = d - 4)
# ----------------------------------------------------------------------
@functools.lru_cache(maxsize=MAX_ORDER + 3, typed=True)
def _four_pi_factor(order: int) -> EpsSeries:
    """(4 pi)**(-eps/2) to the given order, shared by every tadpole body.

    Its base is a constant, so the cache is keyed by the order alone and
    holds the MAX_ORDER + 3 orders the library asks for, 0..MAX_ORDER + 2
    (order 0 when an order-0 entropy asks for its tadpole through eps^-1).
    """
    return power_series(4.0 * PI, -0.5, order)


@functools.lru_cache(maxsize=2, typed=True)
def _mass_factor(m2: float, order: int) -> EpsSeries:
    """(m^2)**(eps/2) (4 pi)**(-eps/2) to the given order: the left operand
    of every tadpole body, the same product that the body took in place.

    Both tadpoles of a sweep point (``ext21`` at j = 1, ``int21`` at j = 0)
    ask for the same key, and each new point brings a new mass, so two
    entries are enough and the cache does not grow with a sweep; ``typed``
    keeps an int mass apart from the equal float.
    """
    return power_series(m2, 0.5, order) * _four_pi_factor(order)


# The tadpole's mass-free expansions, keyed by (j, order) alone, so a sweep
# builds each once.  The library asks for Gamma at j = 0 and 1 in every
# entropy and at j = 2 in the series-scaling check, and for the harmonic
# number at j = 0 and 1, each at the orders that the 4*pi factor serves
# (the harmonic one an order lower): no key of its own is ever evicted.
@functools.lru_cache(maxsize=3 * (MAX_ORDER + 3), typed=True)
def _gamma_factor(j: int, order: int) -> EpsSeries:
    """Gamma(j - 1 - eps/2) to the given order."""
    return gamma_series(j - 1, -0.5, order)


@functools.lru_cache(maxsize=2 * (MAX_ORDER + 2), typed=True)
def _harmonic_factor(j: int, order: int) -> EpsSeries:
    """H(j - 2 - eps/2) = H_{j - d/2} to the given order."""
    return harmonic_series(j - 2, -0.5, order)


def delta_series_m2(j: int, m2: float, order: int) -> EpsSeries:
    """Tadpole-power integral at squared mass m2 as a series in eps = d - 4.

    j runs to 170, as in :func:`delta_closed`; a prefactor m2**(1 - j) / j!
    past the float range, or one that underflows below the normal range, is
    refused (NonFiniteError).
    """
    check_int_range("j", j, 0, sf.MAX_POLYGAMMA_ORDER)
    check_positive("m2", m2)
    pref = _in_float_range(
        lambda: 1j * (-1.0) ** (j + 1) * m2 ** (1 - j) / ((4.0 * PI) ** 2 * math.gamma(j + 1)),
        "the delta_%d prefactor at m2 = %r", j, m2)
    # one order past the cut covers the simple pole of Gamma(j - 1 - eps/2), j <= 1
    body = _mass_factor(m2, order + 1) * _gamma_factor(j, order + 1)
    return body.truncate(order).scale(pref)


def delta_series(j: int, params: SchemeParams) -> EpsSeries:
    """Tadpole-power integral as a series in eps = d - 4."""
    return delta_series_m2(j, params.m2, params.order)


def delta_stripped_series_m2(j: int, m2: float, order: int) -> EpsSeries:
    """The i-stripped tadpole power i*delta_j, a real positive series.

    This is the natural "magnitude" of the loop (the coincident-point
    propagator for j = 0); its leading coefficient is positive for small
    eps > 0, so its series log is real.  Entropy assemblies use it so that
    reported entropies come out real term by term.
    """
    return delta_series_m2(j, m2, order).scale(1j)


def delta_stripped_series(j: int, params: SchemeParams) -> EpsSeries:
    return delta_stripped_series_m2(j, params.m2, params.order)


def chi_series_m2(j: int, m2: float, order: int) -> EpsSeries:
    """Log-weighted integral at squared mass m2 as a series in eps = d - 4.

    Built from the quadrature-validated closed form
    delta_j * (H_j - H_{j-d/2} + log(-m^2)), with the +i*pi branch of the
    log.  Both factors start at eps^-1 for j <= 1, so each is needed through
    eps^(order + 1).
    """
    return (
        delta_series_m2(j, m2, order + 1) * chi_over_delta_series_m2(j, m2, order + 1)
    ).truncate(order)


def chi_series(j: int, params: SchemeParams) -> EpsSeries:
    return chi_series_m2(j, params.m2, params.order)


def chi_over_delta_series_m2(j: int, m2: float, order: int,
                             real_branch: bool = False) -> EpsSeries:
    """The ratio chi_j / delta_j: H_j - H_{j-d/2} + log(-m^2) as a series.

    With ``real_branch=True`` the +i*pi of log(-m^2) is dropped (the branch
    choice that the printed entropy expansions absorb into their real parts).
    j runs to 170, as in :func:`delta_closed`.
    """
    check_int_range("j", j, 0, sf.MAX_POLYGAMMA_ORDER)
    check_positive("m2", m2)
    log_term = math.log(m2) + (0.0 if real_branch else 1j * PI)
    return complex(sf.harmonic_int(j) + log_term) - _harmonic_factor(j, order)


def chi_over_delta_series(j: int, params: SchemeParams) -> EpsSeries:
    return chi_over_delta_series_m2(j, params.m2, params.order)


# ----------------------------------------------------------------------
# quadrature oracles (independent evaluations for the validation suite)
# ----------------------------------------------------------------------
def _check_oracle_inputs(j: int, m2: float, d: float):
    check_positive("m2", m2)
    if not 0 < d < 2 * (j + 1):
        raise NonConvergentError(
            f"radial oracle diverges for j={j}, d={d}; needs 0 < d < {2 * (j + 1)}"
        )


def oracle_delta_radial(j: int, m2: float, d: float) -> complex:
    """Wick-rotated radial quadrature of the tadpole-power integral.

    After p0 -> i p0 and u = |p_E|^2 the angular measure reduces to
    i (-1)^(j+1) (4pi)^(-d/2)/Gamma(d/2) * integral_0^inf u^(d/2-1) (u+m^2)^-(j+1) du.
    Convergence requires d < 2 (j + 1).
    """
    _check_oracle_inputs(j, m2, d)
    val = _quad(lambda u: u ** (d / 2.0 - 1.0) * (u + m2) ** (-(j + 1.0)),
                0.0, math.inf, rel_tol=ORACLE_REL_TOL)
    return 1j * (-1.0) ** (j + 1) * (4.0 * PI) ** (-d / 2.0) / math.gamma(d / 2.0) * val


def oracle_chi_x(j: int, m2: float, d: float) -> complex:
    """Feynman-parameter x-integral quadrature of the log-weighted family.

    integrand: log(-m^2/x) x^(j-d/2) (1-x)^(d/2-1) on (0, 1), with the
    +i*pi branch for the negative argument of the log.  The integrand can be
    singular at both ends, so each half of the interval is its own
    quadrature, with one singular end each.
    """
    _check_oracle_inputs(j, m2, d)
    pref = (
        1j * (-1.0) ** (j + 1) * m2 ** (d / 2.0 - (j + 1))
        * (4.0 * PI) ** (-d / 2.0) / math.gamma(d / 2.0)
    )

    def f(x):
        return complex(math.log(m2 / x), PI) * x ** (j - d / 2.0) * (1.0 - x) ** (d / 2.0 - 1.0)

    return pref * (complex_quad(f, 0.0, 0.5, rel_tol=ORACLE_REL_TOL)
                   + complex_quad(f, 0.5, 1.0, rel_tol=ORACLE_REL_TOL))


def oracle_chi_radial(j: int, m2: float, d: float) -> complex:
    """Direct Wick-rotated momentum quadrature of the log-weighted family.

    Uses log(-(u + m^2)) = log(u + m^2) + i*pi on the rotated contour.  The
    integrand is singular at u = 0 and decays only like u^(d/2 - j - 2) log(u),
    so (0, m^2) is integrated as it stands and (m^2, inf) through u = m^2/t
    on (0, 1), each with one singular end.  One pass over (0, inf) missed its
    tolerance at j=0, m2=1.08, d=1.49 (error estimate 2.2e-6 on 15.6), and a
    split at u = m^2 without the substitution at j=1, m2=8.10, d=1.89.
    """
    _check_oracle_inputs(j, m2, d)

    def weight(u):
        return u ** (d / 2.0 - 1.0) * (u + m2) ** (-(j + 1.0))

    def integral(g):
        return (_quad(g, 0.0, m2, rel_tol=ORACLE_REL_TOL)
                + _quad(lambda t: g(m2 / t) * m2 / t / t, 0.0, 1.0, rel_tol=ORACLE_REL_TOL))

    re = integral(lambda u: weight(u) * math.log(u + m2))
    im = integral(lambda u: PI * weight(u))
    return 1j * (-1.0) ** (j + 1) * (4.0 * PI) ** (-d / 2.0) / math.gamma(d / 2.0) \
        * complex(re, im)
