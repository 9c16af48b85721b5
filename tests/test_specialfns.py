"""Special-function layer: values against an independent high-precision
oracle (mpmath), recurrence properties, pole behavior, and the same bits as
``scipy.special`` from the ufuncs that ``loopentropy._special`` loads alone."""

import cmath
import math
import random
import signal

import mpmath
import numpy as np
import pytest
import scipy.special as sp_special

from loopentropy import _special, checks, epsseries, loops
from loopentropy import specialfns as sf
from loopentropy.errors import InputError, LoopEntropyError, NonFiniteError, PoleError
from loopentropy.params import CHECK_SEED
from test_cold_start import _run

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
    (lambda: sf.hurwitz_zeta_int(1, 1), InputError),
    (lambda: sf.hurwitz_zeta_int(2, 0), InputError),
    (lambda: sf.polygamma(0, 1), InputError),
    (lambda: sf.polygamma(1, -2), PoleError),
    (lambda: sf.principal_log(0), NonFiniteError),
    (lambda: sf.gamma(math.inf), NonFiniteError),
    (lambda: sf.loggamma(math.inf), NonFiniteError),
    (lambda: sf.polygamma(1, -math.inf), NonFiniteError),
    (lambda: sf.hurwitz_zeta_int(2, math.inf), NonFiniteError),
    (lambda: loops.chi_closed(0, 1.0, math.inf), NonFiniteError),
    (lambda: sf.gamma(math.nan), NonFiniteError),
    (lambda: loops.delta_closed(0, 1.0, math.nan), NonFiniteError),
    (lambda: epsseries.gamma_series(math.nan, -0.5, 2), NonFiniteError),
    # 171! does not fit in a float
    (lambda: sf.polygamma(171, 1.0), InputError),
    (lambda: epsseries.digamma_series(0.5, 1.0, 171), InputError),
    (lambda: epsseries.gamma_series(1.0, -0.5, 200), InputError),
    # next to a pole, z**-(n+1) overflows: complex ** raised OverflowError or
    # ZeroDivisionError
    (lambda: sf.polygamma(170, 2e-12), NonFiniteError),
    (lambda: sf.polygamma(50, complex(2e-12, 1e-13)), NonFiniteError),
], ids=["gamma_overflow", "loggamma_pole", "digamma_pole", "harmonic_int_negative",
        "hurwitz_s_below_2", "hurwitz_pole", "polygamma_order_0", "polygamma_pole",
        "log_zero", "gamma_inf", "loggamma_inf", "polygamma_minus_inf", "hurwitz_inf",
        "chi_closed_inf_dimension", "gamma_nan", "delta_closed_nan_dimension",
        "gamma_series_nan", "polygamma_order_171", "digamma_series_order_171",
        "gamma_series_order_200", "polygamma_overflow", "polygamma_underflow_to_zero"])
def test_refused_inputs(call, error):
    with pytest.raises(error):
        call()


class _Timeout(Exception):
    pass


def _within(seconds, call):
    """``call()``, interrupted by this process's own interval timer after
    ``seconds``, so that a loop that never ends fails the test."""
    def alarm(signum, frame):
        raise _Timeout(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        return call()
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("call", [
    lambda: [sf.polygamma(1, complex(-1e17, 0.3))],
    lambda: [c for _, _, c in epsseries.gamma_series(complex(-1e17, 0.3), 1.0, 3).terms()],
], ids=["polygamma", "gamma_series"])
def test_a_large_negative_argument_ends_within_200_ms(call):
    # an upward recurrence from Re z = -1e17 never ends: z + 1 == z there
    sf.gamma(1.5)  # scipy's ufuncs load before the clock starts
    try:
        values = _within(0.2, call)
    except LoopEntropyError:
        return
    assert all(cmath.isfinite(v) for v in values)


# ----------------------------------------------------------------------
# loopentropy._special against scipy.special, by float.hex
# ----------------------------------------------------------------------
UFUNCS = ("gamma", "loggamma", "digamma")


def _hex(value):
    value = complex(value)
    return value.real.hex(), value.imag.hex()


def _edge_points():
    """Points next to the poles of Gamma, overflow, inf, nan and 1e-300."""
    inf, nan = math.inf, math.nan
    pts = [0j, -1 + 0j, -5 + 0j, 1e-300 + 0j, -1e-300 + 0j, 1e-300j,
           171.6 + 0j, 172.0 + 0j, 200 + 0j, 1e300 + 0j, -170.5 + 0j, -1e300 + 0j,
           0.5 + 1e3j, 0.5 - 1e3j, 1e300 + 1e300j]
    for n in range(0, 21):
        for delta in (1e-14, 1e-12, 1e-9, 1e-6):
            pts += [complex(-n + delta, 0.0), complex(-n - delta, 0.0),
                    complex(-n, delta), complex(-n + delta, -delta)]
    for re, im in ((inf, 0.0), (-inf, 0.0), (0.0, inf), (0.0, -inf), (inf, inf),
                   (-inf, inf), (nan, 0.0), (0.0, nan), (nan, nan), (inf, nan), (1.0, inf)):
        pts.append(complex(re, im))
    return pts


def _grid(seed, n):
    rng = random.Random(seed)
    pts = [complex(rng.uniform(-40.0, 40.0), rng.uniform(-40.0, 40.0)) for _ in range(n)]
    pts += [complex(rng.uniform(-1.0, 5.0), rng.uniform(-1e-3, 1e-3)) for _ in range(n // 4)]
    return pts + _edge_points()


def _library_arguments(monkeypatch):
    """Every (name, z) that ``_scipy_off_pole`` receives in the check suite
    and in seeded closed-form tadpole and log-weighted loop calls."""
    calls = []
    off_pole = sf._scipy_off_pole

    def record(name, z):
        calls.append((name, complex(z)))
        return off_pole(name, z)

    # the loops' cached expansions would hide the calls that earlier tests made first
    loops._gamma_factor.cache_clear()
    loops._harmonic_factor.cache_clear()
    with monkeypatch.context() as patched:
        patched.setattr(sf, "_scipy_off_pole", record)
        checks.run_all(seed=CHECK_SEED)
        rng = random.Random(4091)
        for _ in range(200):
            j, m2 = rng.randint(0, 4), rng.uniform(0.01, 50.0)
            d = rng.uniform(0.5, 2 * j + 1.9)
            loops.delta_closed(j, m2, d)
            loops.chi_closed(j, m2, d)
    return calls


def test_the_library_arguments_give_scipy_special_bits(monkeypatch):
    calls = _library_arguments(monkeypatch)
    assert {name for name, _ in calls} == set(UFUNCS)
    assert len(calls) > 400
    for name, z in calls:
        ours, theirs = getattr(_special, name)(z), getattr(sp_special, name)(z)
        assert _hex(ours) == _hex(theirs), (name, z)
        assert _hex(sf._scipy_off_pole(name, z)) == _hex(theirs), (name, z)


def test_a_seeded_grid_and_the_edges_give_scipy_special_bits():
    pts = _grid(20261018, 4000)
    for name in UFUNCS:
        ours, theirs = getattr(_special, name), getattr(sp_special, name)
        for z in pts:
            assert _hex(ours(z)) == _hex(theirs(z)), (name, z)
    assert _special._ext is not sp_special._special_ufuncs


LOAD_ORDER = r"""
import math, random, sys
from loopentropy import _special
assert not [m for m in sys.modules if m == "scipy" or m.startswith("scipy.")]
rng = random.Random(77)
pts = [complex(rng.uniform(-40.0, 40.0), rng.uniform(-40.0, 40.0)) for _ in range(500)]
pts += [complex(-n + 1e-9, 0.0) for n in range(21)]
pts += [0j, 1e-300 + 0j, 200 + 0j, complex(math.inf, 0.0), complex(math.nan, 0.0)]

def hexes(module):
    values = [complex(getattr(module, name)(z))
              for name in ("gamma", "loggamma", "digamma") for z in pts]
    return [(v.real.hex(), v.imag.hex()) for v in values]

before = hexes(_special)
import scipy.special
assert hexes(_special) == before == hexes(scipy.special)
print(len(before))
"""


def test_loading_special_before_scipy_special_keeps_the_bits():
    proc = _run("-W", "error", "-c", LOAD_ORDER)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == f"{3 * 526}\n"
