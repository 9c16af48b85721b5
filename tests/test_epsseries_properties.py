"""Property tests of the series kernel: division against inverse-then-multiply,
the ring laws, the inverse and log/exp round trips, and the truncation
bookkeeping, over generated series.  Tolerances are fixed."""

from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from loopentropy.epsseries import EXACT_ORDER, EpsSeries
from loopentropy.errors import LogCapError

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
