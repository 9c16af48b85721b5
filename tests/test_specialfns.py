"""Special-function layer: values against an independent high-precision
oracle (mpmath), recurrence properties, and pole behavior."""

import math

import mpmath
import numpy as np
import pytest

from loopentropy import specialfns as sf
from loopentropy.errors import NonFiniteError, PoleError

mpmath.mp.dps = 30


def _random_strip_points(n, seed):
    rng = np.random.default_rng(seed)
    re = rng.uniform(-10.0, 10.0, size=n)
    im = rng.uniform(-10.0, 10.0, size=n)
    pts = []
    for x, y in zip(re, im):
        z = complex(x, y)
        # stay away from the poles of gamma(z) and gamma(z+1)
        if min(abs(z - round(z.real)), abs(z + 1 - round(z.real + 1))) < 1e-2 \
                and abs(y) < 1e-2:
            continue
        pts.append(z)
    return pts


def test_gamma_trivial_values():
    assert sf.gamma(1.0) == pytest.approx(1.0, abs=1e-14)
    assert sf.gamma(0.5) == pytest.approx(math.sqrt(math.pi), rel=1e-13)


def test_gamma_matches_high_precision_oracle():
    # independent oracle: arbitrary-precision evaluation
    for z in (3.2, 0.37, 2.5 - 1.25j, -1.4 + 0.3j, 7.9 + 4.0j):
        ref = complex(mpmath.gamma(z))
        val = sf.gamma(z)
        assert abs(val - ref) <= 1e-12 * abs(ref)


def test_gamma_recurrence_property():
    pts = _random_strip_points(1000, seed=11)
    for z in pts:
        lhs = sf.gamma(z + 1)
        rhs = z * sf.gamma(z)
        assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), 1e-280)


def test_gamma_pole_error():
    for z in (0.0, -1.0, -5.0):
        with pytest.raises(PoleError):
            sf.gamma(z)


def test_digamma_recurrence_property():
    pts = _random_strip_points(1000, seed=12)
    for z in pts:
        lhs = sf.digamma(z + 1)
        rhs = sf.digamma(z) + 1.0 / z
        assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), 1.0)


def test_harmonic_integer_partial_sums():
    for n in range(1, 21):
        partial = math.fsum(1.0 / k for k in range(1, n + 1))
        assert abs(sf.harmonic(float(n)) - partial) <= 1e-12


def test_harmonic_trivial_and_oracle():
    assert abs(sf.harmonic(0.0)) <= 1e-14
    assert sf.harmonic(1.0).real == pytest.approx(1.0, abs=1e-13)
    # oracle: the shift recurrence H_{x+n} = H_x + sum_k 1/(x+k), anchored
    # at the closed value H_{1/2} = 2 - log 4
    ref = (2.0 - math.log(4.0)) + 1.0 / 1.5 + 1.0 / 2.5
    assert abs(sf.harmonic(2.5) - ref) <= 1e-12
    assert abs(sf.harmonic(2.5) - complex(mpmath.harmonic(2.5))) <= 1e-12


def test_harmonic_pole_error():
    with pytest.raises(PoleError):
        sf.harmonic(-1.0)
    with pytest.raises(PoleError):
        sf.harmonic(-3.0)


def test_constants_precision():
    g, z3, pi = sf.constants()
    assert abs(g - float(mpmath.euler)) <= 1e-15
    assert abs(z3 - float(mpmath.zeta(3))) <= 1e-15
    assert abs(pi - math.pi) <= 1e-15
    assert g == pytest.approx(0.5772156649, abs=1e-10)
    assert z3 == pytest.approx(1.2020569032, abs=1e-10)


def test_zeta_table_against_oracle():
    for s, value in sf.ZETA.items():
        assert abs(value - float(mpmath.zeta(s))) <= 1e-15


def test_zeta_int_beyond_the_table_against_oracle():
    for n in range(17, 41):
        ref = float(mpmath.zeta(n))
        assert abs(sf.zeta_int(n) - ref) <= 1e-15 * ref


def test_zeta_int_serves_the_table_unchanged():
    for n, value in sf.ZETA.items():
        assert sf.zeta_int(n) == value


def test_contour_constant_precursor():
    g, z3, _ = sf.constants()
    value = 0.25 * (-2.0 * g - math.log(4.0) + 12.0 + 3.0 * z3)
    # published figure is truncated to 4 decimals
    assert value == pytest.approx(3.2663, abs=1e-4)


def test_polygamma_matches_oracle():
    for n in (1, 2, 3, 5):
        for z in (0.75, 2.0 - 0.5j, -1.3 + 0.8j, 6.0):
            ref = complex(mpmath.psi(n, z))
            val = sf.polygamma(n, z)
            assert abs(val - ref) <= 1e-11 * max(abs(ref), 1.0)


def test_hurwitz_zeta_matches_oracle():
    for s in (2, 3, 6):
        for z in (0.4, 1.7 + 2.2j, 12.0 - 3.0j):
            ref = complex(mpmath.zeta(s, z))
            val = sf.hurwitz_zeta_int(s, z)
            assert abs(val - ref) <= 1e-12 * max(abs(ref), 1.0)


def test_principal_log_branch():
    assert sf.principal_log(-4.0) == pytest.approx(math.log(4.0) + 1j * math.pi)
    assert sf.principal_log(2.0) == pytest.approx(math.log(2.0))
    assert sf.principal_log(1j).imag == pytest.approx(math.pi / 2)


@pytest.mark.parametrize("call, error", [
    (lambda: sf.gamma(200), NonFiniteError),
    (lambda: sf.loggamma(-1), PoleError),
    (lambda: sf.digamma(0), PoleError),
    (lambda: sf.harmonic_int(-1), PoleError),
    (lambda: sf.hurwitz_zeta_int(1, 1), ValueError),
    (lambda: sf.hurwitz_zeta_int(2, 0), PoleError),
    (lambda: sf.polygamma(0, 1), ValueError),
    (lambda: sf.polygamma(1, -2), PoleError),
    (lambda: sf.principal_log(0), NonFiniteError),
], ids=["gamma_overflow", "loggamma_pole", "digamma_pole", "harmonic_int_negative",
        "hurwitz_s_below_2", "hurwitz_pole", "polygamma_order_0", "polygamma_pole",
        "log_zero"])
def test_refused_inputs(call, error):
    with pytest.raises(error):
        call()
