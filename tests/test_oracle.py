"""An independent oracle for the high eps coefficients: the Laurent
coefficients of ``int21`` at d = 4 + eps, as Cauchy integrals in eps.

``int21`` is log(2 TV D_0) + H_0 - H_{-d/2} + log m0^2, where the stripped
tadpole is D_0 = m0^(2 + eps) (4 pi)^(-2 - eps/2) Gamma(-1 - eps/2).  Its
-log(eps) channel is taken out and compared on its own: eps Gamma(-1 - eps/2)
is analytic and nonzero for |eps| < 2.  Each log factor (volume, mass power,
4 pi power, eps Gamma) is taken on its own, as a log of the whole product
crosses a branch at large |ln m0|.  The trapezoid rule on |eps| = 0.5 with
256 points, at 60 digits, gives the coefficients far below the bound: the
nearest singularities are at eps = +-2, and the rule on |eps| = 1 with 512
points agrees with it.

The bound is fixed: each coefficient within 1e-10 of its own size.
"""

import functools

import mpmath
import pytest

from loopentropy.entropy import compute_quantity
from loopentropy.params import SchemeParams

ORDER = 8
POWERS = range(-1, ORDER + 1)
BOUND = 1e-10
DIGITS = 60


def _int21(eps, m0):
    """int21 at d = 4 + eps and TV = 1, without its -log(eps)."""
    log_m2 = 2 * mpmath.log(m0)
    x = eps / 2
    return (mpmath.log(2) + (1 + x) * log_m2 - (2 + x) * mpmath.log(4 * mpmath.pi)
            + mpmath.log(eps * mpmath.gamma(-1 - x))
            - mpmath.digamma(-1 - x) - mpmath.euler + log_m2)


@functools.cache
def _oracle(m0: float, radius: str = "0.5", points: int = 256) -> dict:
    """The coefficient of each power of eps, by the trapezoid rule on |eps| = radius."""
    with mpmath.workdps(DIGITS):
        nodes = [mpmath.mpf(radius) * mpmath.expjpi(mpmath.mpf(2 * i) / points)
                 for i in range(points)]
        values = [_int21(eps, mpmath.mpf(m0)) for eps in nodes]
        return {k: mpmath.fsum(v * eps ** -k for v, eps in zip(values, nodes)) / points
                for k in POWERS}


@pytest.mark.parametrize("m0", [1.0, pytest.param(1e5, marks=pytest.mark.xfail(
    strict=True, reason="the series log cancels terms much larger than the high "
                        "coefficients it leaves: eps^8 is 7e-6 off (ROADMAP item 23)"))])
def test_int21_coefficients_match_the_cauchy_oracle(m0):
    series = compute_quantity("int21", SchemeParams(m0=m0, order=ORDER)).series
    assert {(k, l): c for k, l, c in series.terms() if l} == {(0, 1): -1}
    for k, want in _oracle(m0).items():
        got = series.coefficient(k, 0)
        assert abs(got - complex(want)) <= BOUND * abs(want), (k, got, want)


def test_the_oracle_does_not_depend_on_the_radius():
    wide = _oracle(1.0, "1", 512)
    with mpmath.workdps(DIGITS):
        for k, want in _oracle(1.0).items():
            assert abs(wide[k] - want) <= mpmath.mpf("1e-40") * abs(want), k
