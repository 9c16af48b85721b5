"""Property tests of the series kernel: division against inverse-then-multiply,
the ring laws, the inverse and log/exp round trips, the truncation
bookkeeping, the invariant that every operation's result keeps without
the validating constructor, and the in-place power sum against one series
sum per power, bit for bit, over generated series.  Tolerances are fixed."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from loopentropy import epsseries
from loopentropy.epsseries import EXACT_ORDER, KMIN_CAP, LOGCAP, EpsSeries, power_series
from loopentropy.errors import LogCapError, LoopEntropyError, TruncationUnderflowError

# deterministic examples and no example database, so every run is the same
KERNEL = settings(derandomize=True, database=None, deadline=None,
                  suppress_health_check=[HealthCheck.filter_too_much])

TOL = 1e-10

COEFF = st.complex_numbers(max_magnitude=1.0, allow_nan=False, allow_infinity=False,
                           allow_subnormal=False)
LEAD = st.complex_numbers(min_magnitude=1.0, max_magnitude=2.0, allow_nan=False,
                          allow_infinity=False)


@st.composite
def series(draw, max_log=0, exact=True):
    """A series with a clean, nonzero leading term at eps^-1..eps^2, up to
    five further powers (each with log(eps) channels up to ``max_log``),
    and a truncation order at or above its lead (or the exact sentinel)."""
    lead = draw(st.integers(-1, 2))
    rest = draw(st.integers(0, 5))
    orders = st.integers(lead, lead + 7)
    kmax = draw(st.one_of(orders, st.just(EXACT_ORDER)) if exact else orders)
    coeffs = {(lead, 0): draw(LEAD)}
    for k in range(lead + 1, lead + 1 + rest):
        for l in range(max_log + 1):
            if l == 0 or draw(st.booleans()):
                coeffs[(k, l)] = draw(COEFF)
    return EpsSeries(coeffs, kmax)


# a number as numerator goes through ``__rtruediv__``
NUMERATOR = st.one_of(series(max_log=1), st.integers(0, 6).map(EpsSeries.zero),
                      st.complex_numbers(max_magnitude=10.0, allow_nan=False,
                                         allow_infinity=False))


def _close(x: EpsSeries, y: EpsSeries, scale: float) -> bool:
    return x.max_coeff_diff(y) <= TOL * max(scale, 1.0)


@KERNEL
@given(NUMERATOR, series(max_log=1))
def test_division_equals_multiplying_by_the_inverse(a, b):
    try:
        expected = a * b.inverse()
    except LogCapError:
        assume(False)
    quotient = a / b
    assert quotient.kmax == expected.kmax
    assert quotient.terms() == expected.terms()


@KERNEL
@given(series(max_log=1), series(max_log=1), series(max_log=1))
def test_ring_laws_through_the_common_order(a, b, c):
    assert (a + b).terms() == (b + a).terms()
    assert (a + EpsSeries.zero()).terms() == a.terms()
    assert (a * EpsSeries.constant(1.0)).terms() == a.terms()
    assert (a - a).is_zero()
    scale = a.max_abs() * b.max_abs()
    assert _close(a * b, b * a, scale)
    assert _close(a * (b + c), a * b + a * c, a.max_abs() * (b.max_abs() + c.max_abs()))
    a0, b0, c0 = (EpsSeries({key: v for key, v in s.coeffs.items() if key[1] == 0}, s.kmax)
                  for s in (a, b, c))
    assert _close((a0 * b0) * c0, a0 * (b0 * c0), a0.max_abs() * b0.max_abs() * c0.max_abs())


@KERNEL
@given(series(max_log=1, exact=False))
def test_series_times_its_inverse_is_one(x):
    try:
        inv = x.inverse()
    except LogCapError:
        assume(False)
    product = x * inv
    assert product.kmax == x.kmax - x.lead()
    assert _close(product, EpsSeries.constant(1.0), x.max_abs() * inv.max_abs())


@KERNEL
@given(series(exact=False))
def test_exp_inverts_log(x):
    back = x.log().exp()
    assert back.kmax == x.kmax
    assert _close(back, x, x.max_abs())


@KERNEL
@given(series(max_log=1), series(max_log=1), st.integers(-2, 8))
def test_truncation_bookkeeping(a, b, k):
    cut = a.truncate(k)
    assert cut.kmax == min(a.kmax, k)
    assert all(kk <= cut.kmax for kk, _, _ in cut.terms())
    assert (a + b).kmax == min(a.kmax, b.kmax)
    assert (a + b).truncate(k).terms() == (a.truncate(k) + b.truncate(k)).terms()
    # a coarser operand never raises the order of a product
    assert (cut * b).kmax <= (a * b).kmax


# ----------------------------------------------------------------------
# the kernel builds its results unvalidated: each must equal its validation
# ----------------------------------------------------------------------
def _bits(s: EpsSeries) -> list:
    return [(key, c.real.hex(), c.imag.hex()) for key, c in s.coeffs.items()]


OPERATIONS = {
    "add": lambda a, b, x, k: a + b,
    "radd": lambda a, b, x, k: x + a,
    "sub": lambda a, b, x, k: a - b,
    "rsub": lambda a, b, x, k: x - a,
    "neg": lambda a, b, x, k: -a,
    "mul": lambda a, b, x, k: a * b,
    "rmul": lambda a, b, x, k: x * a,
    "mul_cut": lambda a, b, x, k: a.__mul__(b, cut=k),
    "pow": lambda a, b, x, k: a ** 3,
    "negative_pow": lambda a, b, x, k: a ** -2,
    "truediv": lambda a, b, x, k: a / b,
    "rtruediv": lambda a, b, x, k: x / b,
    "inverse": lambda a, b, x, k: b.inverse(),
    "log": lambda a, b, x, k: a.log(),
    "exp": lambda a, b, x, k: a.log().exp(),
    "shift": lambda a, b, x, k: a.shift(k - 3),
    "truncate": lambda a, b, x, k: a.truncate(k),
    "scale": lambda a, b, x, k: a.scale(x),
    "scale_np_float64": lambda a, b, x, k: a.scale(np.float64(x.real)),
    "scale_np_complex128": lambda a, b, x, k: a.scale(np.complex128(x)),
    "scale_zero": lambda a, b, x, k: a.scale(0),
    "real_part": lambda a, b, x, k: a.real_part(),
}


@settings(KERNEL, max_examples=60)
@given(a=series(max_log=1), b=series(max_log=1),
       x=st.complex_numbers(min_magnitude=0.1, max_magnitude=10.0,
                            allow_nan=False, allow_infinity=False),
       k=st.integers(-2, 8))
def test_every_result_keeps_the_invariant_bit_for_bit(a, b, x, k):
    for op in OPERATIONS.values():
        try:
            r = op(a, b, x, k)
        except LoopEntropyError:  # log-cap, pole-depth or leading-term refusals
            continue
        for (kk, l), c in r.coeffs.items():
            assert type(c) is complex and c != 0
            assert KMIN_CAP <= kk <= r.kmax and 0 <= l <= LOGCAP
        # validating the result changes no bit and no key's place
        assert _bits(EpsSeries(r.coeffs, r.kmax)) == _bits(r)


def test_power_series_builds_its_result_without_validation():
    # numpy bases, and both signs of a zero imaginary part of base and slope
    bases = [4 * np.pi, 2.0, np.float64(0.7), -3.0, complex(2.0, 0.0),
             complex(2.0, -0.0), complex(-2.0, -0.0)]
    slopes = [-0.5, 1.0, complex(0.5, 0.0), complex(0.5, -0.0)]
    for order in (0, 3, 8):
        for base in bases:
            for slope in slopes:
                r = power_series(base, slope, order)
                assert r.kmax == order
                assert all(type(c) is complex and c != 0 and l == 0 and k <= order
                           for (k, l), c in r.coeffs.items())
                assert _bits(EpsSeries(r.coeffs, r.kmax)) == _bits(r), (base, slope, order)


def test_sums_and_products_start_new_coefficients_from_positive_zero():
    # (-2+0j) * (-3+0j) is 6-0j, and a key only the right operand holds
    # carries its -0.0; each comes out as 0.0 + ..., with +0.0
    product = EpsSeries.constant(-2.0) * EpsSeries.constant(-3.0)
    total = EpsSeries.constant(1.0) + EpsSeries({(1, 0): complex(2.0, -0.0)})
    assert product.coefficient(0).imag.hex() == "0x0.0p+0"
    assert total.coefficient(1).imag.hex() == "0x0.0p+0"
    # the left operand's own coefficients keep their sign
    assert (-product + 0.0).coefficient(0).imag.hex() == "-0x0.0p+0"


@pytest.mark.parametrize("build, error", [
    # a product below the pole depth
    (lambda: EpsSeries.monomial(1.0, -3) * EpsSeries.monomial(1.0, -2),
     TruncationUnderflowError),
    # the same product underflowed to zero has no coefficient to refuse
    (lambda: EpsSeries.monomial(1e-200, -3) * EpsSeries.monomial(1e-200, -2), None),
    (lambda: EpsSeries.monomial(2.0, 5).inverse(), TruncationUnderflowError),
    (lambda: EpsSeries({(0, 0): 0.5, (0, 1): -5.0}, 3).exp(), TruncationUnderflowError),
    # log(eps)^3 first appears at eps^3, past the power sum's cut at eps^2
    (lambda: EpsSeries({(0, 0): 1.0, (1, 1): 1.0, (2, 2): 1.0}, 2).log(), LogCapError),
    (lambda: EpsSeries({(0, 0): 1.0, (1, 1): 1.0, (2, 2): 1.0}, 2).inverse(), LogCapError),
])
def test_pole_depth_and_log_cap_refusals(build, error):
    if error is None:
        assert build().is_zero()
    else:
        with pytest.raises(error):
            build()


# ----------------------------------------------------------------------
# the power sum behind log, inverse, exp and division, bit for bit
# ----------------------------------------------------------------------
def _reference_power_sum(acc, u, order, weight=None):
    """The power sum as one series sum per power: ``acc + term.scale(w)``."""
    term = EpsSeries.constant(1.0, order)
    for m in range(1, max(order, 0) + 1):
        term = term.__mul__(u, cut=order)
        if term.is_zero():
            break
        acc = acc + (term if weight is None else term.scale(weight(m)))
    return acc


# small integers and halves multiply and add exactly, so partial sums cancel
# to exactly zero mid-sum; zero parts of both signs; and 2.2e-162, whose
# square is the smallest subnormal, which a weight of 1/2 rounds to zero
SMALL = st.sampled_from([1.0, -1.0, 2.0, -2.0, 0.5, 0.0, -0.0, 2.2e-162, -5e-324])
EDGE_COEFF = st.one_of(
    st.builds(complex, SMALL, st.sampled_from([0.0, -0.0])),
    st.builds(complex, SMALL, SMALL),
    st.complex_numbers(max_magnitude=2.0, allow_nan=False, allow_infinity=False),
)
# a series drawn whole from these real dyadics cancels often
DYADIC = st.sampled_from([1.0, -1.0, 2.0, -2.0, 0.5]).map(complex)
EDGE_LEAD = st.sampled_from([1.0, -1.0, 2.0, 0.5, complex(-0.0, 1.0), complex(1.0, -0.0),
                             complex(-2.0, -0.0), complex(3.0, 0.5)])


@st.composite
def edge_series(draw, lead_range=(-1, 2), lead_coeff=EDGE_LEAD):
    """A series with a nonzero leading term, invertible by default, log(eps)
    channels, edge coefficients and a finite or exact truncation order."""
    lead = draw(st.integers(*lead_range))
    kmax = draw(st.one_of(st.integers(lead, lead + 6), st.just(EXACT_ORDER)))
    coeffs = {(lead, 0): draw(lead_coeff)}
    coeff = draw(st.sampled_from([EDGE_COEFF, DYADIC]))
    for k in range(lead + 1, lead + 1 + draw(st.integers(0, 5))):
        for l in range(2):
            if l == 0 or draw(st.booleans()):
                coeffs[(k, l)] = draw(coeff)
    return EpsSeries(coeffs, kmax)


@st.composite
def exp_series(draw):
    """A series ``exp`` accepts: no poles, an integer log(eps) at eps^0."""
    s = draw(edge_series(lead_range=(1, 2)))
    extra = {(0, 0): draw(EDGE_COEFF), (0, 1): float(draw(st.integers(-1, 1)))}
    return EpsSeries({**extra, **s.coeffs}, s.kmax)


def _outcome(build):
    """The result's kmax and every part's bits in key order, or the refusal."""
    try:
        r = build()
    except LoopEntropyError as exc:
        return type(exc).__name__
    return r.kmax, _bits(r)


def _matches_reference(build):
    got = _outcome(build)
    with mock.patch.object(epsseries, "_power_sum", _reference_power_sum):
        assert got == _outcome(build)


@settings(KERNEL, max_examples=300)
@given(a=edge_series(), b=edge_series())
# the eps^3 sum cancels after the second power and restarts at the third, at
# the end of the key order: u1 u2 - u3 in the log, 2 u1 u2 - u3 in the inverse
@example(a=EpsSeries({(k, 0): 1.0 for k in range(5)}, 4),
         b=EpsSeries({(0, 0): 1.0, (1, 0): 1.0, (2, 0): 1.0, (3, 0): 2.0, (4, 0): 1.0}, 4))
def test_log_inverse_and_division_sum_their_powers_bit_for_bit(a, b):
    _matches_reference(a.log)
    _matches_reference(b.inverse)
    _matches_reference(lambda: a / b)


@settings(KERNEL, max_examples=300)
@given(exp_series())
def test_exp_sums_its_powers_bit_for_bit(x):
    _matches_reference(x.exp)


POWER_WEIGHTS = {"none": None, "log": lambda m: (-1.0) ** (m + 1) / m,
                 "exp": lambda m: 1.0 / math.factorial(m)}


@settings(KERNEL, max_examples=300)
@given(acc=edge_series(), u=edge_series(lead_range=(1, 2), lead_coeff=EDGE_COEFF.filter(bool)),
       order=st.integers(0, 6), weight=st.sampled_from(sorted(POWER_WEIGHTS)))
# u**2 is the smallest subnormal, which the weight 1/2 rounds to zero: added,
# it would turn the -0.0 of the sum's own coefficient into +0.0
@example(acc=EpsSeries({(2, 0): complex(1.0, -0.0)}), u=EpsSeries({(1, 0): 2.2e-162}),
         order=2, weight="exp")
def test_the_power_sum_adds_each_power_as_one_series_sum_would(acc, u, order, weight):
    w = POWER_WEIGHTS[weight]
    assert _outcome(lambda: epsseries._power_sum(acc, u, order, w)) == \
        _outcome(lambda: _reference_power_sum(acc, u, order, w))
