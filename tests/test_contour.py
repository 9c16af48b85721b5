"""Contour coefficients: regulated quadratures, the closed-form constant,
and the mass dependence of their ratio."""

import math

import pytest

from loopentropy.contour import (
    ContourConfig,
    coeff_a,
    coeff_b,
    ratio_AB,
    ratio_ab_regulated,
    tau,
)

PI = math.pi


def test_config_validation():
    with pytest.raises(ValueError):
        ContourConfig(endpoint_cut=0.0)
    with pytest.raises(ValueError):
        ContourConfig(endpoint_cut=1.0)
    for bad in (math.inf, math.nan):
        with pytest.raises(ValueError):
            ContourConfig(endpoint_cut=bad)


def test_weight_vanishes_at_origin():
    from loopentropy.contour import _weight

    assert _weight(0.0) == 0.0


def test_coeff_b_finite_and_real():
    b = coeff_b(ContourConfig(endpoint_cut=0.1))
    assert b.imag == 0.0
    assert 0.0 < b.real < 1.0
    assert math.isfinite(b.real)


def test_coeff_b_diverges_as_cut_shrinks():
    ladder = [abs(coeff_b(ContourConfig(endpoint_cut=c))) for c in (0.2, 0.1, 0.05)]
    assert ladder[0] < ladder[1] < ladder[2]


def test_coeff_a_log_factor_origin_limit():
    from loopentropy.contour import _log_factor

    lim = _log_factor(0.0)
    assert lim == pytest.approx(math.log(1.0 / (8 * PI ** 2)) + 0.5j * PI)
    # continuity: approach from small t
    assert _log_factor(1e-8) == pytest.approx(lim, abs=1e-6)


def test_coeff_a_finite_and_imaginary_part_locked_to_b():
    cfg = ContourConfig(endpoint_cut=0.1)
    a = coeff_a(cfg)
    b = coeff_b(cfg)
    assert math.isfinite(a.real) and math.isfinite(a.imag)
    # the log factor's +i pi/2 multiplies the same weight that defines b
    assert a.imag == pytest.approx((PI / 2) * b.real, rel=1e-9)


def test_regulated_ratio_reported_with_cut():
    cfg = ContourConfig(endpoint_cut=0.1)
    ratio = ratio_ab_regulated(cfg)
    assert ratio.imag == pytest.approx(PI / 2, rel=1e-9)
    assert math.isfinite(ratio.real)


def test_tau_reference_value():
    value = tau()
    # published figure 3.2663 is a 4-decimal truncation of 3.26636...
    assert abs(value - 3.2663) / 3.2663 <= 5e-5
    assert abs(value - 3.2663) <= 1e-4


def test_tau_downstream_consistency():
    assert tau() + 1 - math.log(8 * PI ** 2) == pytest.approx(-0.102, abs=1e-3)
    assert tau() - 2 - math.log(8 * PI ** 2) == pytest.approx(-3.102, abs=1e-3)


def test_ratio_AB_tau_mode():
    assert ratio_AB(1.0) == pytest.approx(tau())
    assert ratio_AB(2.0) == pytest.approx(tau() + math.log(4.0))


def test_ratio_AB_mass_dependence_is_pure_log():
    # tau mode: exact to rounding
    for m0 in (0.3, 1.7, 6.0):
        lhs = ratio_AB(m0) - ratio_AB(1.0)
        assert abs(lhs - 2.0 * math.log(m0)) <= 1e-12
    # quadrature mode: same property at quadrature tolerance
    cfg = ContourConfig(endpoint_cut=0.05)
    base = ratio_AB(1.0, cfg, use_tau=False)
    for m0 in (0.5, 2.0):
        lhs = ratio_AB(m0, cfg, use_tau=False) - base
        assert abs(lhs - 2.0 * math.log(m0)) <= 1e-9


def test_ratio_AB_never_asserted_equal_to_tau():
    # documented behavior: the regulated ratio drifts with the cut and is
    # reported beside tau, not matched to it
    cfg_wide = ContourConfig(endpoint_cut=0.1)
    cfg_narrow = ContourConfig(endpoint_cut=0.025)
    wide = ratio_ab_regulated(cfg_wide).real
    narrow = ratio_ab_regulated(cfg_narrow).real
    assert narrow < wide  # real part keeps falling as the cut shrinks


@pytest.mark.parametrize("call, error", [
    (lambda: ratio_AB(0.0), ValueError),
    (lambda: ratio_AB(-1.0), ValueError),
], ids=["ratio_AB_zero_m0", "ratio_AB_negative_m0"])
def test_refused_inputs(call, error):
    with pytest.raises(error):
        call()
