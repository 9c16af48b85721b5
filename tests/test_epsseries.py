"""Series-algebra layer: ring axioms, division/log/exp, the standard
expansions and their memoization, and the truncation bookkeeping."""

import json
import math
import random

import mpmath
import numpy as np
import pytest

from loopentropy import entropy as en
from loopentropy import epsseries
from loopentropy import specialfns as sf
from loopentropy.epsseries import (
    EXPANSION_CACHE_SIZE,
    EpsSeries,
    digamma_series,
    gamma_series,
    harmonic_series,
    power_series,
)
from loopentropy.errors import (
    LogCapError,
    NonInvertibleLeadingTermError,
    TruncationUnderflowError,
)
from loopentropy.loops import SchemeParams, chi_series_m2, delta_series_m2

mpmath.mp.dps = 40

GAMMA = sf.EULER_GAMMA


def _random_series(rng, kmax=5, kmin=-2, with_logs=False):
    coeffs = {}
    for k in range(kmin, kmax + 1):
        coeffs[(k, 0)] = complex(rng.normal(), rng.normal())
        if with_logs and k >= 0 and rng.random() < 0.3:
            coeffs[(k, 1)] = complex(rng.normal(), rng.normal())
    return EpsSeries(coeffs, kmax)


def test_pole_times_eps_is_one():
    a = EpsSeries.monomial(1.0, -1)
    b = EpsSeries.monomial(1.0, 1)
    prod = a * b
    assert prod.terms() == [(0, 0, 1.0 + 0.0j)]


def test_ring_axioms_random():
    # pole depth -1 so that triple products stay inside the eps^-4 capacity
    rng = np.random.default_rng(3)
    for _ in range(40):
        a = _random_series(rng, kmin=-1)
        b = _random_series(rng, kmin=-1)
        c = _random_series(rng, kmin=-1)
        assoc = (a * b) * c - a * (b * c)
        dist = a * (b + c) - (a * b + a * c)
        assert assoc.max_abs() <= 1e-12 * max(a.max_abs() * b.max_abs() * c.max_abs(), 1.0)
        assert dist.max_abs() <= 1e-12 * max(a.max_abs() * (b.max_abs() + c.max_abs()), 1.0)


def test_mul_then_div_roundtrip():
    rng = np.random.default_rng(4)
    for _ in range(25):
        a = _random_series(rng, kmin=0)
        b = _random_series(rng, kmin=0)
        if abs(b.coefficient(0, 0)) < 0.1:
            continue
        back = (a * b) / b
        assert back.max_coeff_diff(a, through_k=back.kmax) <= 1e-10 * max(a.max_abs(), 1.0)


def test_cancellation():
    a = EpsSeries({(-1, 0): -2.0, (0, 1): -1.0}, kmax=2)
    b = EpsSeries({(0, 1): 1.0}, kmax=2)
    s = a + b
    assert s.terms() == [(-1, 0, -2.0 + 0.0j)]


def test_div_simple_examples():
    num = EpsSeries({(1, 0): 1.0, (2, 0): 1.0}, kmax=5)
    den = EpsSeries.monomial(1.0, 1)
    q = num / den
    assert q.coefficient(0, 0) == pytest.approx(1.0)
    assert q.coefficient(1, 0) == pytest.approx(1.0)

    geo = EpsSeries.constant(1.0, kmax=5) / EpsSeries({(0, 0): 1.0, (1, 0): 1.0}, kmax=5)
    for k in range(6):
        assert geo.coefficient(k, 0) == pytest.approx((-1.0) ** k)


def test_div_requires_clean_leading_term():
    bad = EpsSeries({(0, 1): 1.0, (1, 0): 1.0}, kmax=3)
    with pytest.raises(NonInvertibleLeadingTermError):
        EpsSeries.constant(1.0) / bad
    with pytest.raises(NonInvertibleLeadingTermError):
        EpsSeries.zero(3).inverse()


def test_truncation_underflow():
    deep = EpsSeries.monomial(1.0, -4)
    with pytest.raises(TruncationUnderflowError):
        deep * EpsSeries.monomial(1.0, -1)


def test_log_cap():
    loglog = EpsSeries({(0, 2): 1.0}, kmax=2)
    with pytest.raises(LogCapError):
        loglog * EpsSeries.log_eps()


def test_log_cap_guards_inverse_content():
    # a log(eps) channel at eps^1 is invertible while the geometric powers
    # stay within the cap, and raises (never silently truncates) beyond it
    shallow = EpsSeries({(0, 0): 2.0, (1, 1): 0.5}, kmax=2)
    inv = shallow.inverse()
    assert inv.coefficient(0, 0) == pytest.approx(0.5)
    assert inv.coefficient(1, 1) == pytest.approx(-0.125)
    deep = EpsSeries({(0, 0): 2.0, (1, 1): 0.5}, kmax=4)
    with pytest.raises(LogCapError):
        deep.inverse()  # the true inverse carries log(eps)^3 at eps^3


def test_division_stops_at_the_order_the_quotient_keeps():
    # the quotient is known through eps^2, so the divisor's inverse is only
    # needed through eps^2 and the log(eps)^3 at eps^3 is never formed
    deep = EpsSeries({(0, 0): 2.0, (1, 1): 0.5}, kmax=4)
    quotient = EpsSeries.constant(1.0, kmax=2) / deep
    assert quotient.kmax == 2
    assert quotient.terms() == deep.truncate(2).inverse().terms()
    assert quotient.terms() == [(0, 0, 0.5 + 0j), (1, 1, -0.125 + 0j), (2, 2, 0.03125 + 0j)]
    with pytest.raises(LogCapError):
        deep.inverse()


def test_log_examples():
    lg = EpsSeries.monomial(3.0, -1).log()
    assert lg.coefficient(0, 0) == pytest.approx(math.log(3.0))
    assert lg.coefficient(0, 1) == pytest.approx(-1.0)

    mercator = EpsSeries({(0, 0): 1.0, (1, 0): 1.0}, kmax=4).log()
    assert mercator.coefficient(1, 0) == pytest.approx(1.0)
    assert mercator.coefficient(2, 0) == pytest.approx(-0.5)
    assert mercator.coefficient(3, 0) == pytest.approx(1.0 / 3.0)


def test_log_branch_of_leading_coefficient():
    lg = EpsSeries.monomial(-2.0, -1, kmax=3).log()
    assert lg.coefficient(0, 0) == pytest.approx(math.log(2.0) + 1j * math.pi)


def test_exp_log_roundtrip_random():
    rng = np.random.default_rng(5)
    for _ in range(25):
        a = _random_series(rng, kmin=-1, with_logs=False)
        if abs(a.coefficient(a.lead(), 0)) < 0.1:
            continue
        back = a.log().exp()
        assert back.max_coeff_diff(a, through_k=back.kmax) <= 1e-10 * max(a.max_abs(), 1.0)


def test_log_of_tadpole_series_vs_numeric():
    # series of stvol * stripped tadpole at m0 = 1, TV = 1, against a direct
    # numeric log at small eps via Richardson extrapolation of the remainder
    from loopentropy.loops import SchemeParams, delta_stripped_series

    p = SchemeParams(m0=1.0, tv=1.0, order=4)
    series = delta_stripped_series(0, p).scale(p.stvol).log()
    assert series.coefficient(0, 1) == pytest.approx(-1.0, abs=1e-12)
    expected_finite = math.log(1.0 / (4.0 * math.pi ** 2))
    assert series.coefficient(0, 0) == pytest.approx(expected_finite, abs=1e-12)
    for eps in (1e-6, 1e-7):
        e = mpmath.mpf(eps)  # exact binary value, matching evaluate()
        direct = complex(mpmath.log(
            2 * mpmath.gamma(-1 - e / 2) * (4 * mpmath.pi) ** (-2 - e / 2)
        ))
        assert abs(series.evaluate(eps) - direct) <= 1e-12


def test_gamma_series_trivial_rows():
    g1 = gamma_series(1, 1.0, 4)
    assert g1.coefficient(0, 0) == pytest.approx(1.0)
    assert g1.coefficient(1, 0) == pytest.approx(-GAMMA, abs=1e-13)

    g0 = gamma_series(0, 1.0, 4)
    assert g0.coefficient(-1, 0) == pytest.approx(1.0)
    assert g0.coefficient(0, 0) == pytest.approx(-GAMMA, abs=1e-13)


def test_gamma_series_pole_residues():
    # residue at c0 = -n is (-1)^n / (n! slope)
    for n, slope in ((1, 1.0), (2, -0.5), (3, 0.7)):
        ser = gamma_series(-n, slope, 3)
        expected = (-1.0) ** n / (math.factorial(n) * slope)
        assert ser.coefficient(-1, 0) == pytest.approx(expected, rel=1e-12)
    gm1 = gamma_series(-1, 1.0, 4)
    assert gm1.coefficient(0, 0) == pytest.approx(GAMMA - 1.0, abs=1e-12)


def test_gamma_series_matches_high_precision_at_small_eps():
    # derived check: residual against arbitrary-precision gamma shrinks as
    # eps^(order+1) when eps is halved (ladder kept above the double-precision
    # floor so the truncation term dominates)
    for c0, slope, order in ((-1, 0.5, 4), (2.5, -0.5, 3), (0, -0.5, 5)):
        ser = gamma_series(c0, slope, order)
        errs = []
        for eps in (1e-1, 5e-2, 2.5e-2):
            ref = complex(mpmath.gamma(mpmath.mpf(c0) + slope * mpmath.mpf(eps)))
            errs.append(abs(ser.evaluate(eps) - ref))
        ratios = [errs[i] / errs[i + 1] for i in range(len(errs) - 1)]
        for r in ratios:
            assert math.log2(r) == pytest.approx(order + 1, abs=0.3)


def test_digamma_series_pole_and_regular():
    ser = digamma_series(-1, -0.5, 5)
    for eps in (1e-3, 5e-4):
        ref = complex(mpmath.digamma(-1 - eps / 2))
        assert abs(ser.evaluate(eps) - ref) <= 1e-7 * max(abs(ref), 1.0)
    reg = digamma_series(2.5, 1.0, 5)
    for eps in (1e-3, 5e-4):
        ref = complex(mpmath.digamma(2.5 + eps))
        assert abs(reg.evaluate(eps) - ref) <= 1e-12


def test_harmonic_series_consistency():
    ser = harmonic_series(-2, -0.5, 4)  # H_{-2 - eps/2}
    for eps in (1e-3, 2e-3):
        ref = float(mpmath.euler) + complex(mpmath.digamma(-1 - eps / 2))
        assert abs(ser.evaluate(eps) - ref) <= 1e-6


def test_power_series_examples():
    assert power_series(1.0, 3.7, 4).terms() == [(0, 0, 1.0 + 0.0j)]
    e_ser = power_series(math.e, 1.0, 2)
    assert e_ser.coefficient(0, 0) == pytest.approx(1.0)
    assert e_ser.coefficient(1, 0) == pytest.approx(1.0)
    assert e_ser.coefficient(2, 0) == pytest.approx(0.5)
    mu = power_series(2.0, -1.0, 3)
    assert mu.coefficient(1, 0) == pytest.approx(-math.log(2.0))
    for eps in (1e-6, 2e-6):
        assert abs(mu.evaluate(eps) - 2.0 ** (-eps)) <= 1e-18


def test_finite_and_pole_parts():
    ser = EpsSeries({(-1, 0): -2.0, (0, 0): -1.0, (0, 1): -1.0}, kmax=0)
    assert ser.finite_part() == pytest.approx(-1.0)
    assert ser.coefficient(-1, 0) == pytest.approx(-2.0)
    assert ser.coefficient(0, 1) == pytest.approx(-1.0)
    assert ser.coefficient(-2, 0) == 0

    const = EpsSeries.constant(5.0)
    assert const.finite_part() == pytest.approx(5.0)
    assert const.coefficient(-1, 0) == 0


def test_log_eps_squared_coefficient_from_inverse_square():
    # log of c / eps^2 carries a -2 log(eps) coefficient
    ser = EpsSeries.monomial(0.25, -2, kmax=2).log()
    assert ser.coefficient(0, 1) == pytest.approx(-2.0)


def test_mixed_order_arithmetic_downgrades():
    a = EpsSeries({(0, 0): 1.0, (5, 0): 2.0}, kmax=5)
    b = EpsSeries({(0, 0): 1.0}, kmax=2)
    assert (a + b).kmax == 2
    assert (a * b).kmax == 2
    shifted = EpsSeries({(2, 0): 1.0}, kmax=6)
    # min(a.kmax + lead(shifted), shifted.kmax + lead(a)) = min(7, 6)
    assert (a * shifted).kmax == 6


def test_integer_powers_including_negative():
    s = EpsSeries({(0, 0): 2.0, (1, 0): 1.0}, kmax=4)
    assert (s ** 0).terms() == [(0, 0, 1.0 + 0.0j)]
    sq = s ** 2
    assert sq.coefficient(0, 0) == pytest.approx(4.0)
    assert sq.coefficient(1, 0) == pytest.approx(4.0)
    inv2 = s ** -2
    round_trip = sq * inv2
    assert round_trip.max_coeff_diff(EpsSeries.constant(1.0, round_trip.kmax)) <= 1e-12


def test_exp_rejects_unrepresentable_log_content():
    from loopentropy.errors import NonInvertibleLeadingTermError as BadLead

    with pytest.raises(BadLead):
        EpsSeries.log_eps(0.5, kmax=3).exp()  # eps^0.5 is not representable
    with pytest.raises(LogCapError):
        EpsSeries({(0, 2): 1.0}, kmax=3).exp()
    with pytest.raises(BadLead):
        EpsSeries.monomial(1.0, -1, kmax=3).exp()
    # integer log(eps) coefficients exponentiate to exact powers of eps
    shifted = EpsSeries({(0, 1): 2.0, (0, 0): 0.0}, kmax=3).exp()
    assert shifted.terms() == [(2, 0, 1.0 + 0.0j)]


def test_json_round_trip():
    ser = EpsSeries({(-2, 0): 1.5 + 0.5j, (0, 1): -2.0, (1, 0): 3.0}, kmax=3)
    data = json.loads(json.dumps(ser.to_json_dict()))
    assert data["kmax"] == 3
    assert [(t["k"], t["l"], complex(t["re"], t["im"])) for t in data["terms"]] == ser.terms()


def test_evaluate_includes_log_channels():
    ser = EpsSeries({(0, 1): 2.0, (-1, 0): 1.0}, kmax=1)
    eps = 1e-3
    assert ser.evaluate(eps) == pytest.approx(1.0 / eps + 2.0 * math.log(eps))


# ----------------------------------------------------------------------
# memoized expansions
# ----------------------------------------------------------------------
MEMOIZED = (gamma_series, harmonic_series)


def _clear_expansion_caches():
    for fn in MEMOIZED:
        fn.cache_clear()


@pytest.mark.parametrize("fn", MEMOIZED, ids=lambda f: f.__name__)
def test_memoized_expansions_equal_the_uncached_ones(fn):
    # poles n = 0..5, regular points, and both signs of a zero imaginary part
    # (complex(-2.5, -0.0) lies on the other side of the log-gamma branch cut)
    points = [0, -1, -2, -3, -4, -5, 1, 2.5, 0.3, complex(1.3, 0.4),
              complex(-2.5, 0.0), complex(-2.5, -0.0), -2.5]
    _clear_expansion_caches()
    for order in range(9):
        for c0 in points:
            for slope in (-0.5, 1.0, 0.7):
                expected = repr(fn.__wrapped__(c0, slope, order).terms())
                first, second = fn(c0, slope, order), fn(c0, slope, order)
                assert second is first
                assert repr(first.terms()) == expected, (c0, slope, order)


def test_loop_series_at_interleaved_masses_and_orders_equal_a_cold_call():
    rng = random.Random(7)
    calls = [(f, j, m2, order) for f in (delta_series_m2, chi_series_m2)
             for j in range(5) for m2 in (0.3, 1.0, 7.5) for order in (0, 3, 8)]
    rng.shuffle(calls)
    cold = []
    for f, j, m2, order in calls:
        _clear_expansion_caches()
        cold.append(repr(f(j, m2, order).terms()))
    _clear_expansion_caches()
    warm = [repr(f(j, m2, order).terms()) for f, j, m2, order in calls]
    assert warm == cold


def test_quantities_leave_cached_expansions_unchanged():
    _clear_expansion_caches()
    # every key the pass below uses: c0 = j - 1, orders up to 8 + 2
    keys = [(c0, -0.5, order) for c0 in range(-1, 4) for order in range(15)]
    cached = {(fn, key): fn(*key) for fn in MEMOIZED for key in keys}
    before = {k: repr(v.terms()) for k, v in cached.items()}
    for m0, order in ((0.7, 0), (1.0, 4), (3.2, 8)):
        for name in en.QUANTITY_NAMES:
            en.compute_quantity(name, SchemeParams(m0=m0, mu=1.3, order=order))
    for (fn, key), series in cached.items():
        assert fn(*key) is series  # still the cached object the pass used
        assert repr(series.terms()) == before[(fn, key)], (fn.__name__, key)


def test_expansion_caches_stay_bounded():
    rng = random.Random(11)
    for _ in range(10_000):
        c0 = rng.uniform(0.1, 50.0)
        gamma_series(c0, 1.0, 0)
        harmonic_series(c0, 1.0, 0)
    for fn in MEMOIZED:
        assert fn.cache_info().currsize <= EXPANSION_CACHE_SIZE
    # evicted library entries are rebuilt on demand
    assert repr(gamma_series(-1, -0.5, 6).terms()) == \
        repr(gamma_series.__wrapped__(-1, -0.5, 6).terms())


# ----------------------------------------------------------------------
# allocation guard
# ----------------------------------------------------------------------
def test_a_figure2_point_validates_only_what_enters_the_kernel(monkeypatch):
    """The validating constructions of one default figure2 point (the four
    quantities ``cli.figure2_rows`` reads, at m0 = 1) with warm expansion
    caches, as every point after a sweep's first sees them.  The kernel's
    own results skip validation, so the count is pinned: an operation
    routed back through ``EpsSeries(...)`` raises it."""
    p = SchemeParams(m0=1.0, lambda0=1.0, tv=1.0, order=4)

    def point():
        return [en.s_total_21(p).finite, en.s_ext_21(p).finite,
                en.s_int_21(p).finite, en.mutual_information_21(p).finite]

    expected = point()
    calls = 0
    cleaned = epsseries._cleaned

    def counted(coeffs, kmax):
        nonlocal calls
        calls += 1
        return cleaned(coeffs, kmax)

    monkeypatch.setattr(epsseries, "_cleaned", counted)
    assert point() == expected
    assert calls == 10


def test_a_figure2_point_makes_only_the_products_it_keeps(monkeypatch):
    """The series products of one default figure2 point with warm expansion
    caches.  Each of its two reduced series makes two for the tadpole body
    and one per kept power, eps^1..eps^4, in the power sum of its log.
    Each operand is asked for only through the order its result keeps, so
    a padding that creeps back raises the count."""
    p = SchemeParams(m0=1.0, lambda0=1.0, tv=1.0, order=4)

    def point():
        return [en.s_total_21(p).finite, en.s_ext_21(p).finite,
                en.s_int_21(p).finite, en.mutual_information_21(p).finite]

    expected = point()
    calls = 0
    mul = EpsSeries.__mul__

    def counted(self, other, **kwargs):
        nonlocal calls
        calls += 1
        return mul(self, other, **kwargs)

    monkeypatch.setattr(EpsSeries, "__mul__", counted)
    assert point() == expected
    assert calls == 12


# ----------------------------------------------------------------------
# refused inputs
# ----------------------------------------------------------------------
@pytest.mark.parametrize("call, error", [
    (lambda: EpsSeries({(-5, 0): 1}), TruncationUnderflowError),
    (lambda: EpsSeries({(0, 3): 1}), LogCapError),
    (lambda: power_series(0, 1.0, 4), ValueError),
    (lambda: gamma_series(0.5, 1.0, -1), ValueError),
    (lambda: digamma_series(0.5, 1.0, -1), ValueError),
], ids=["pole_below_depth", "log_above_cap", "power_series_zero_base",
        "gamma_series_negative_order", "digamma_series_negative_order"])
def test_refused_inputs(call, error):
    with pytest.raises(error):
        call()
