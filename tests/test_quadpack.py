"""``loopentropy._quadpack.quad`` returns the bits of ``scipy.integrate.quad``.

Both run QUADPACK's qagse/qagie with the same arguments, so the value and
the error estimate are compared by ``float.hex``.  The integrands are the
library's own: every quadrature that the oracles, the bubble, the Renyi
traces and the contour coefficients hand to ``loops.integrate`` at seeded
points is recorded, then replayed through both.
"""

import math
import random
import warnings

import pytest
from scipy import integrate as sp_integrate

from loopentropy import _quadpack, loops
from loopentropy import contour as ct
from loopentropy import entropy as en
from loopentropy.errors import ToleranceNotMetError
from loopentropy.loops import QUAD_LIMIT, SchemeParams


def _scipy_quad(f, a, b, epsabs, epsrel, limit):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", sp_integrate.IntegrationWarning)
        return sp_integrate.quad(f, a, b, epsabs=epsabs, epsrel=epsrel, limit=limit)


def _bits(pair):
    return tuple(float(x).hex() for x in pair)


class _Recorder:
    """Stand-in for ``loops.integrate`` that keeps each call's arguments."""

    def __init__(self):
        self.calls = []

    def quad(self, f, a, b, **kwargs):
        self.calls.append((f, a, b, kwargs))
        return _quadpack.quad(f, a, b, **kwargs)


def _library_quadratures(rng: random.Random):
    for _ in range(3):
        j = rng.randint(0, 3)
        m2 = rng.uniform(0.25, 9.0)
        d = rng.uniform(1.0, 2 * j + 1.8)
        loops.oracle_delta_radial(j, m2, d)
        loops.oracle_chi_radial(j, m2, d)
        loops.oracle_chi_x(j, m2, rng.uniform(1.0, 2 * j + 1.8))
        loops.eta(rng.uniform(-3.5, 25.0), m2, rng.uniform(3.5, 4.5))
    cfg = ct.ContourConfig(endpoint_cut=rng.uniform(0.02, 0.2))
    p = SchemeParams(m0=rng.uniform(0.2, 5.0))
    ct.coeff_a(cfg)
    ct.coeff_b(cfg)
    for n in (2, 3, 4):
        en.renyi_trace_n(n, p, cfg)
        en.renyi_trace_radial(n, p, cfg)


def test_library_quadratures_match_scipy_bit_for_bit(monkeypatch):
    recorder = _Recorder()
    monkeypatch.setattr(loops, "integrate", recorder)
    _library_quadratures(random.Random(20131))
    assert len(recorder.calls) > 30
    assert any(b == math.inf for _, _, b, _ in recorder.calls)
    for f, a, b, kwargs in recorder.calls:
        ours = _quadpack.quad(f, a, b, **kwargs)
        assert _bits(ours) == _bits(_scipy_quad(f, a, b, **kwargs)), (a, b, kwargs)


@pytest.mark.parametrize("f, a, b", [(ct._weight, 0.9, 0.0), (ct._weight, 0.7, 0.2),
                                     (lambda u: (u + 1.0) ** -2.5, math.inf, 0.5)])
def test_reversed_bounds_negate_the_value(f, a, b):
    ours = _quadpack.quad(f, a, b, 0.0, 1e-9, QUAD_LIMIT)
    assert _bits(ours) == _bits(_scipy_quad(f, a, b, 0.0, 1e-9, QUAD_LIMIT))
    assert ours[0] < 0.0


def test_an_empty_interval_never_calls_the_integrand(monkeypatch):
    def unreachable(x):
        raise AssertionError(f"integrand called at {x}")

    for a in (0.0, 0.3, math.inf):
        assert _quadpack.quad(unreachable, a, a, 0.0, 1e-9, QUAD_LIMIT) == (0.0, 0.0)
    # the n = 2 radial trace has an empty second piece once the cut exceeds ~0.293
    recorder = _Recorder()
    monkeypatch.setattr(loops, "integrate", recorder)
    en.renyi_trace_radial(2, SchemeParams(), ct.ContourConfig(endpoint_cut=0.4))
    assert any(a == b for _, a, b, _ in recorder.calls)


def test_a_singular_endpoint_still_ends_in_tolerance_not_met():
    # d just above 0: subdivision reaches x == 1.0, where (1 - x)^(d/2 - 1) divides by zero
    j, m2, d = 0, 0.05050689758849527, 2.7202514838453595e-06

    def f(x):
        return math.log(m2 / x) * x ** (j - d / 2.0) * (1.0 - x) ** (d / 2.0 - 1.0)

    for quad in (_quadpack.quad, _scipy_quad):
        with pytest.raises(ZeroDivisionError):
            quad(f, 0.0, 1.0, 0.0, 1e-11, QUAD_LIMIT)
    with pytest.raises(ToleranceNotMetError):
        loops.oracle_chi_x(j, m2, d)


@pytest.mark.parametrize("a, b", [(-math.inf, 0.0), (0.0, -math.inf),
                                  (-math.inf, math.inf), (0.0, math.nan)])
def test_bounds_other_than_finite_or_up_to_inf_are_refused(a, b):
    with pytest.raises(ValueError, match="bounds"):
        _quadpack.quad(math.exp, a, b, 0.0, 1e-9, QUAD_LIMIT)


def test_an_invalid_tolerance_is_refused_as_scipy_refuses_it():
    with pytest.raises(ValueError):
        _scipy_quad(math.exp, 0.0, 1.0, 0.0, 1e-20, QUAD_LIMIT)
    with pytest.raises(ValueError, match="QUADPACK refused"):
        _quadpack.quad(math.exp, 0.0, 1.0, 0.0, 1e-20, QUAD_LIMIT)
