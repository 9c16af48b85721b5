"""The exact mass-scaling law: every series quantity at bare mass m0 is the
same quantity at m0 = 1 moved by a known function of log(m0).

Each delta_j carries m^(d - 2(j + 1)) and each chi_j / delta_j carries
log(m^2), so the entropies built from them shift by a multiple of log(m0)
(or, for the first-order correction, pick up a factor m0^eps); the quoted
closed forms carry the same logs.  ``vacuum21`` is left out: its
coefficients are polynomials in m0^4, not shifts in log(m0).
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loopentropy import entropy as en
from loopentropy.epsseries import EpsSeries, power_series
from loopentropy.params import (COUPLING_MAX, COUPLING_MIN, MASS_MAX, MASS_MIN, MAX_ORDER,
                                TV_MAX, TV_MIN, SchemeParams)

PI = math.pi
TOL = 1e-12  # of the largest coefficient compared


def _four_plus_eps(lg: float, lam: float) -> EpsSeries:
    """(4 + eps) log m0: log of the tadpole's m^(2 + eps) plus log(m^2) of the
    ratio (for j = 1, m^eps plus twice log(m^2))."""
    return EpsSeries({(0, 0): 4.0 * lg, (1, 0): lg})


# log(m0), lambda0 -> the series added to the quantity at m0 = 1
SHIFTS = {
    "ext2_order0": _four_plus_eps,
    "int21": _four_plus_eps,
    "ext21": _four_plus_eps,
    "nonpert": _four_plus_eps,
    "total21": lambda lg, lam: EpsSeries.constant(4.0 * lg),
    "mutual21": lambda lg, lam: EpsSeries.constant(4.0 * lg),
    "ext2_total": lambda lg, lam: EpsSeries.constant((4.0 + lam / (8.0 * PI ** 2)) * lg),
    "cond_ext_int": lambda lg, lam: EpsSeries.zero(),
    "cond_int_ext": lambda lg, lam: EpsSeries.zero(),
    "tau": lambda lg, lam: EpsSeries.zero(),
}


def _expected(name: str, p: SchemeParams) -> EpsSeries:
    """The law's prediction for ``name`` at ``p``, from the quantity at m0 = 1."""
    unit = en.compute_quantity(name, SchemeParams(m0=1.0, mu=p.mu, lambda0=p.lambda0,
                                                  tv=p.tv, order=p.order)).series
    if name == "ext2_order1":  # D_1 carries m0^eps; the bracket's log(m0^2) cancels
        # the series starts at eps^-1, so the factor is needed one power further
        return unit * power_series(p.m0, 1.0, unit.kmax + 1)
    return unit + SHIFTS[name](math.log(p.m0), p.lambda0)


def _deviation(name: str, p: SchemeParams, through_k: int | None) -> float:
    """Largest coefficient deviation from the law, relative to the largest
    coefficient on either side, over powers <= through_k (all known powers
    when None)."""
    actual = en.compute_quantity(name, p).series
    expected = _expected(name, p)
    cap = min(actual.kmax, expected.kmax)
    if through_k is not None:
        cap = min(cap, through_k)
    largest = max((abs(c) for s in (actual, expected) for k, _, c in s.terms() if k <= cap),
                  default=0.0)
    return actual.max_coeff_diff(expected, through_k=cap) / max(largest, 1e-300)


def _log_uniform(lo: float, hi: float):
    return st.floats(math.log(lo), math.log(hi)).map(math.exp)


LAWS = ("ext2_order1", *SHIFTS)


# deterministic examples and no example database, so every run is the same
@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(m0=_log_uniform(MASS_MIN, MASS_MAX), mu=_log_uniform(MASS_MIN, MASS_MAX),
       tv=_log_uniform(TV_MIN, TV_MAX),
       lambda0=st.one_of(st.just(0.0), st.tuples(st.sampled_from((-1.0, 1.0)),
                                                 _log_uniform(COUPLING_MIN, COUPLING_MAX))
                         .map(lambda t: t[0] * t[1])),
       order=st.integers(0, MAX_ORDER))
def test_mass_scaling_law_through_the_finite_part(m0, mu, tv, lambda0, order):
    """Poles, log(eps) and finite parts follow the law at every mass, scale,
    volume, coupling and order in range."""
    p = SchemeParams(m0=m0, mu=mu, lambda0=lambda0, tv=tv, order=order)
    for name in LAWS:
        assert _deviation(name, p, through_k=0) <= TOL, name


def test_the_laws_cover_every_series_quantity_but_the_vacuum():
    assert set(LAWS) == set(en.QUANTITY_NAMES) - {"vacuum21"}


@pytest.mark.parametrize("name", [
    pytest.param(name, marks=pytest.mark.xfail(strict=True, reason=(
        "whole-series law fails at large |log m0|: the log of a tadpole cancels "
        "terms of size (log m0)^k / k! in its high eps coefficients")))
    for name in ("ext21", "nonpert")])
def test_mass_scaling_law_through_every_known_power(name):
    """The whole series at m0 = 1e25, order 8, against the law."""
    p = SchemeParams(m0=1e25, order=8)
    assert _deviation(name, p, through_k=None) <= TOL
