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
from loopentropy.epsseries import (EXACT_ORDER, KEY_WIDTH, KMIN_CAP, LOGCAP, EpsSeries,
                                   kernel_key, power_series, split_key)
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
    assert (a - a).terms() == []
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
        assert build().terms() == []
    else:
        with pytest.raises(error):
            build()


# ----------------------------------------------------------------------
# the power sum behind log, inverse, exp and division, bit for bit
# ----------------------------------------------------------------------
def _reference_power_sum(acc, u, order, weights=None):
    """The power sum as one series sum per power: ``acc + term.scale(w)``."""
    term = EpsSeries.constant(1.0, order)
    for m in range(1, max(order, 0) + 1):
        term = (term * u).truncate(order)
        if not term.terms():
            break
        acc = acc + (term if weights is None else term.scale(weights[m - 1]))
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


POWER_WEIGHTS = {"none": None, "log": epsseries._LOG_WEIGHTS, "exp": epsseries._EXP_WEIGHTS}


def test_the_power_sum_weights_are_the_series_of_log1p_and_exp():
    # each weight has the bits of complex(w) for the float w the formula gives
    for weights, w in ((epsseries._LOG_WEIGHTS, lambda m: (-1.0) ** (m + 1) / m),
                       (epsseries._EXP_WEIGHTS, lambda m: 1.0 / math.factorial(m))):
        assert len(weights) == EXACT_ORDER
        for m, got in enumerate(weights, start=1):
            assert type(got) is complex
            assert (got.real.hex(), got.imag.hex()) == (w(m).hex(), "0x0.0p+0"), m


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


# ----------------------------------------------------------------------
# the integer key layout, and the product over it against the tuple keys
# ----------------------------------------------------------------------
def test_the_key_layout_round_trips_sorts_and_adds_over_the_whole_range():
    pairs = [(k, l) for k in range(KMIN_CAP, EXACT_ORDER + 1) for l in range(LOGCAP + 1)]
    keys = [kernel_key(k, l) for k, l in pairs]
    assert [split_key(s) for s in keys] == pairs
    assert keys == sorted(keys) and len(set(keys)) == len(keys)
    assert min(keys) == 0 and all(s % KEY_WIDTH == l for s, (_, l) in zip(keys, pairs))
    # a product's key: log powers up to 2 * LOGCAP never carry into k, and
    # a power below the pole depth is a negative key
    origin = kernel_key(0)
    for s1, (k1, l1) in zip(keys, pairs):
        for s2, (k2, l2) in zip(keys, pairs):
            s = s1 + s2 - origin
            assert split_key(s) == (k1 + k2, l1 + l2)
            assert (s < 0) == (k1 + k2 < KMIN_CAP)
    # the public view decodes the keys in the series' own order
    coeffs = {(3, 2): 1j, (-4, 0): 2.0, (EXACT_ORDER, 1): 3.0, (0, 0): -1.0}
    assert list(EpsSeries(coeffs).coeffs.items()) == [(k, complex(c)) for k, c in coeffs.items()]


def _tuple_product(left: dict, right: dict, kmax: int, keep: int) -> dict:
    """The product loop over (k, l) keys, as the kernel had it before its
    integer keys."""
    out: dict[tuple[int, int], complex] = {}
    get = out.get
    right = right.items()
    for (k1, l1), c1 in left.items():
        for (k2, l2), c2 in right:
            k, l = k1 + k2, l1 + l2
            if k > kmax:
                continue
            if l > LOGCAP:
                raise LogCapError(
                    f"product creates log(eps)^{l} above the cap {LOGCAP}"
                )
            if k <= keep:
                out[(k, l)] = get((k, l), 0.0) + c1 * c2
    return out


def _tuple_mul(a: EpsSeries, b: EpsSeries):
    """``a * b`` over (k, l) keys, as before the integer keys."""
    lead1, lead2 = a.lead(), b.lead()
    kmax = min(a.kmax + lead2, b.kmax + lead1, EXACT_ORDER)
    coeffs = {key: c for key, c in _tuple_product(a.coeffs, b.coeffs, kmax, kmax).items()
              if c and key[0] <= kmax}
    if lead1 + lead2 < KMIN_CAP:
        for k, _ in coeffs:
            if k < KMIN_CAP:
                raise TruncationUnderflowError(
                    f"power eps^{k} below the supported pole depth eps^{KMIN_CAP}")
    return kmax, [(key, c.real.hex(), c.imag.hex()) for key, c in coeffs.items()]


def _refusal(build):
    try:
        return build()
    except LoopEntropyError as exc:
        return type(exc).__name__, str(exc)


# 1e-200 squared underflows to zero, so a product below the pole depth made
# only of such pairs has nothing to refuse
TINY = st.sampled_from([1e-200, -1e-200]).map(complex)


@st.composite
def key_edge_series(draw):
    """A series with keys at the layout's edges: eps^-4 poles, log powers
    0..2, powers up to an exact order, and any key order."""
    top = draw(st.sampled_from([2, 6, EXACT_ORDER]))
    kmax = draw(st.one_of(st.integers(KMIN_CAP, top), st.just(EXACT_ORDER)))
    ks = st.one_of(st.integers(KMIN_CAP, min(kmax, KMIN_CAP + 3)),
                   st.integers(KMIN_CAP, kmax),
                   st.integers(max(KMIN_CAP, kmax - 2), kmax))
    keys = draw(st.lists(st.tuples(ks, st.integers(0, LOGCAP)), min_size=1, max_size=6,
                         unique=True))
    coeff = st.one_of(EDGE_COEFF.filter(bool), TINY)
    return EpsSeries({key: draw(coeff) for key in keys}, kmax)


@settings(KERNEL, max_examples=200)
@given(a=key_edge_series(), b=key_edge_series(),
       kmax=st.one_of(st.integers(-8, 12), st.integers(-10, EXACT_ORDER + 2)),
       drop=st.integers(0, 4))
# log(eps)^2 times log(eps)^2 at eps^0: refused at or below kmax, cut or not
@example(a=EpsSeries({(0, 2): 1.0}), b=EpsSeries({(0, 2): 1.0}), kmax=0, drop=3)
@example(a=EpsSeries({(0, 2): 1.0}), b=EpsSeries({(1, 1): 1.0}), kmax=0, drop=0)
# eps^-4 times eps^-4, below the pole depth
@example(a=EpsSeries({(-4, 0): 1.0, (0, 1): 2.0}), b=EpsSeries({(-4, 2): 1.0}), kmax=2,
         drop=0)
def test_the_product_matches_the_tuple_keyed_product_bit_for_bit(a, b, kmax, drop):
    keep = kmax - drop

    def product():
        out = epsseries._product(a._coeffs, b._coeffs, kmax, keep)
        return [(split_key(s), c.real.hex(), c.imag.hex()) for s, c in out.items()]

    def reference():
        out = _tuple_product(a.coeffs, b.coeffs, kmax, keep)
        return [(key, c.real.hex(), c.imag.hex()) for key, c in out.items()]

    assert _refusal(product) == _refusal(reference)


@settings(KERNEL, max_examples=200)
@given(a=key_edge_series(), b=key_edge_series())
@example(a=EpsSeries({(-3, 0): 1.0}), b=EpsSeries({(-2, 0): 1.0}))
@example(a=EpsSeries({(-3, 0): 1e-200}), b=EpsSeries({(-2, 0): 1e-200}))
def test_series_products_match_the_tuple_keyed_product_bit_for_bit(a, b):
    def product():
        r = a * b
        return r.kmax, [(key, c.real.hex(), c.imag.hex()) for key, c in r.coeffs.items()]

    assert _refusal(product) == _refusal(lambda: _tuple_mul(a, b))


@settings(KERNEL, max_examples=200)
@given(s=key_edge_series(),
       c=st.one_of(EDGE_COEFF, st.integers(-2, 2), st.sampled_from([0.0, -0.0, 0j])))
def test_a_number_minus_a_series_is_the_constant_minus_it_bit_for_bit(s, c):
    want = EpsSeries.constant(c) - s
    got = c - s
    assert got.kmax == want.kmax
    assert _bits(got) == _bits(want)
