"""Entropy quantities: every quoted expansion coefficient, the identities
relating them, the replica traces, and the spectral/vacuum entropies."""

import cmath
import dataclasses
import json
import math
from fractions import Fraction

import numpy as np
import pytest

from loopentropy import contour as ct
from loopentropy import entropy as en
from loopentropy.epsseries import EpsSeries
from loopentropy.errors import InputError, NonFiniteError
from loopentropy.params import (MASS_MAX, MASS_MIN, TV_MAX, TV_MIN, WEIGHT_MAX, Z_MIN,
                                SchemeParams)

PI = math.pi
GAMMA = 0.57721566490153286061


def params(m0=1.0, mu=1.0, lam=1.0, tv=1.0, order=4):
    return SchemeParams(m0=m0, mu=mu, lambda0=lam, tv=tv, order=order)


# ----------------------------------------------------------------------
# zeroth order, two external points
# ----------------------------------------------------------------------
def test_ext2_order0_quoted_coefficients():
    bd = en.s_ext_2_order0(params())
    assert bd.pole1 == pytest.approx(-2.0, abs=1e-12)
    assert bd.logeps == pytest.approx(-1.0, abs=1e-12)
    assert bd.finite == pytest.approx(-1.0 - math.log(4 * PI ** 2), abs=1e-12)
    assert bd.is_real


def test_ext2_order0_volume_shift():
    base = en.s_ext_2_order0(params()).finite
    volume = en.s_ext_2_order0(params(tv=2.0)).finite
    assert volume - base == pytest.approx(math.log(2.0), abs=1e-12)


# ----------------------------------------------------------------------
# first order, two external points
# ----------------------------------------------------------------------
def test_ext2_order1_quoted_coefficients():
    bd = en.s_ext_2_order1(params())
    assert bd.pole1 == pytest.approx(1.0 / (8 * PI ** 2), rel=1e-12)
    expected_finite = (1.0 / (32 * PI ** 2)) * (2 * GAMMA - 1 + math.log(1.0 / (16 * PI ** 2)))
    assert bd.finite == pytest.approx(expected_finite, rel=1e-12)


def test_ext2_order1_vanishes_without_coupling():
    bd = en.s_ext_2_order1(params(lam=0.0))
    assert bd.series.terms() == []


def test_ext2_order1_scale_dependence():
    # equal masses: finite part (2 gamma - 1 - log(16 pi^2 mu^4 / m0^4))/(32 pi^2)
    bd = en.s_ext_2_order1(params(m0=2.0, mu=2.0))
    expected = (1.0 / (32 * PI ** 2)) * (2 * GAMMA - 1 + math.log(2.0 ** 4 / (16 * PI ** 2 * 2.0 ** 4)))
    assert bd.finite == pytest.approx(expected, rel=1e-12)


def test_ext2_total_closed_coefficients():
    bd = en.s_ext_2_total(params())
    assert bd.pole1 == pytest.approx(1.0 / (8 * PI ** 2) - 1.0, rel=1e-12)
    assert bd.logeps == pytest.approx(-1.0)
    expected = (-0.5 + math.log(1.0 / (4 * PI ** 2))
                + (1.0 / (32 * PI ** 2)) * (2 * GAMMA - 1 + math.log(1.0 / (16 * PI ** 2))))
    assert bd.finite == pytest.approx(expected, rel=1e-12)


def test_ext2_total_assembled_differs_by_known_offset():
    closed = en.s_ext_2_total(params(), mode="closed").series
    assembled = en.s_ext_2_total(params(), mode="assembled").series
    diff = closed - assembled
    assert diff.coefficient(-1, 0) == pytest.approx(1.0, abs=1e-10)
    assert diff.coefficient(0, 0) == pytest.approx(0.5, abs=1e-10)
    assert diff.coefficient(0, 1) == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(ValueError):
        en.s_ext_2_total(params(), mode="bogus")


# ----------------------------------------------------------------------
# normalized first-order state
# ----------------------------------------------------------------------
def test_ext21_quoted_coefficients():
    bd = en.s_ext_21(params())
    assert bd.pole1 == pytest.approx(-4.0, abs=1e-12)
    assert bd.logeps == pytest.approx(-1.0)
    assert bd.finite == pytest.approx(2.0 - math.log(4 * PI ** 2), abs=1e-12)


def test_int21_equals_order0_series():
    p = params(m0=1.7, tv=3.0)
    assert en.s_int_21(p).series.max_coeff_diff(en.s_ext_2_order0(p).series) == 0.0


def test_total21_quoted_coefficients():
    bd = en.s_total_21(params())
    assert bd.logeps == pytest.approx(-2.0)
    assert bd.pole1 == 0
    assert bd.finite == pytest.approx(ct.tau() - math.log(32 * PI ** 4), abs=1e-12)


def test_total21_with_a_config_uses_its_cut():
    for m0, cut in ((0.3, 0.17), (2.0, 0.05), (40.0, 0.021)):
        p, cfg = params(m0=m0, tv=3.0), ct.ContourConfig(endpoint_cut=cut)
        rest = math.log(p.m2 * p.tv / (32.0 * PI ** 4))
        for given in (cfg, None):
            series = en.s_total_21(p, cfg=given).series
            assert series.coefficient(0, 0) == ct.ratio_AB(m0, given) + rest
            assert series == en.compute_quantity("total21", p, use_tau=given is None,
                                                 cfg=given).series
        assert ct.ratio_AB(m0, cfg) != ct.ratio_AB(m0)


def test_a_config_with_use_tau_is_refused():
    cfg = ct.ContourConfig(endpoint_cut=0.1)
    for name in ("total21", "ext21"):
        with pytest.raises(ValueError, match="use_tau=False"):
            en.compute_quantity(name, params(), cfg=cfg)
        with pytest.raises(ValueError, match="use_tau=False"):
            en.compute_quantity(name, params(), use_tau=True, cfg=cfg)
    regulated = en.compute_quantity("total21", params(), use_tau=False, cfg=cfg)
    assert regulated.series == en.s_total_21(params(), cfg=cfg).series


def test_total21_quadrature_mode_flagged_nonreal():
    bd = en.s_total_21(params(), cfg=ct.ContourConfig(endpoint_cut=0.05))
    assert not bd.is_real
    assert bd.residual_im == pytest.approx(PI / 2, rel=1e-9)


# ----------------------------------------------------------------------
# mutual information and conditionals
# ----------------------------------------------------------------------
def test_mutual_quoted_value():
    bd = en.mutual_information_21(params())
    assert bd.pole1 == pytest.approx(-6.0)
    assert bd.finite == pytest.approx(1.0 - ct.tau() + math.log(2.0), abs=1e-12)
    assert bd.finite == pytest.approx(-1.573, abs=1e-3)


def test_mutual_positivity_threshold():
    # finite part positive iff m0^4 > e^(tau - 1)/2 (TV = 1)
    m_star = (math.exp(ct.tau() - 1.0) / 2.0) ** 0.25
    assert m_star == pytest.approx(1.4819, abs=2e-4)
    assert en.mutual_information_21(params(m0=m_star * 1.01)).finite > 0
    assert en.mutual_information_21(params(m0=m_star * 0.99)).finite < 0


def test_conditional_entropies_values_and_difference():
    ce = en.compute_quantity("cond_ext_int", params())
    ci = en.compute_quantity("cond_int_ext", params())
    assert ce.finite == pytest.approx(-0.102, abs=1e-3)
    assert ci.finite == pytest.approx(-3.102, abs=1e-3)
    assert ce.finite - ci.finite == pytest.approx(3.0, abs=1e-12)


# ----------------------------------------------------------------------
# generic first-order assembly
# ----------------------------------------------------------------------
def test_generic_assembly_coupling_off_reductions():
    p = params()
    b0, b1, t00, t10 = en.order1_blocks_n2(p)
    zeroth = b0.log() - t00 / b0
    off = en.entropy_order1_generic(b0, b1, t00, t10, Fraction(1), Fraction(1, 2), 0.0)
    assert off.max_coeff_diff(zeroth, through_k=0) <= 1e-12
    no_weight = en.entropy_order1_generic(b0, b1, t00, t10, Fraction(1), Fraction(0), 5.0)
    assert no_weight.max_coeff_diff(zeroth, through_k=0) <= 1e-12


def test_generic_assembly_reproduces_two_point_total():
    p = params()
    b0, b1, t00, t10 = en.order1_blocks_n2(p)
    generic = en.entropy_order1_generic(b0, b1, t00, t10,
                                        Fraction(1), Fraction(1, 2), p.lambda0)
    assembled = en.s_ext_2_total(p, mode="assembled").series
    assert generic.real_part().max_coeff_diff(assembled.real_part(), through_k=0) <= 1e-10
    # the only imaginary residue is the constant branch term +i pi/2
    assert generic.coefficient(0, 0).imag == pytest.approx(PI / 2, abs=1e-10)
    assert generic.coefficient(-1, 0).imag == pytest.approx(0.0, abs=1e-12)
    assert generic.coefficient(0, 1).imag == pytest.approx(0.0, abs=1e-12)


# ----------------------------------------------------------------------
# replica traces
# ----------------------------------------------------------------------
def test_renyi_trace_contour_vs_radial():
    # m0 = 1.74552 is where one adaptive pass over the whole radial range
    # stopped early (6.6e-8 off at n = 4) before the split at r = 2 m0
    rng = np.random.default_rng(20240817)
    masses = [1.0, 1.74552, *rng.uniform(0.1, 20.0, 40)]
    for m0 in masses:
        p = params(m0=float(m0))
        for n in (2, 3, 4, 5):
            contour_val = en.renyi_trace_n(n, p)
            radial_val = en.renyi_trace_radial(n, p)
            assert abs(contour_val - radial_val) <= 1e-8 * abs(contour_val), (m0, n)


def test_renyi_trace_decreases_with_n():
    for m0 in (1.0, 2.0):
        p = params(m0=m0)
        mags = [abs(en.renyi_trace_n(n, p)) for n in (3, 4, 5)]
        assert mags[0] > mags[1] > mags[2]


def test_renyi_trace_n2_regulated():
    p = params()
    cfg_wide = ct.ContourConfig(endpoint_cut=0.1)
    cfg_narrow = ct.ContourConfig(endpoint_cut=0.05)
    v_wide = en.renyi_trace_n(2, p, cfg_wide)
    v_narrow = en.renyi_trace_n(2, p, cfg_narrow)
    assert abs(v_narrow) > abs(v_wide)  # divergent as the cut shrinks
    assert abs(en.renyi_trace_radial(2, p, cfg_wide) - v_wide) <= 1e-7 * abs(v_wide)
    with pytest.raises(ValueError):
        en.renyi_trace_n(1, p)


def test_plane_wave_trace_values():
    assert en.plane_wave_trace(params(tv=1.0)) == 0.5
    assert en.plane_wave_trace(params(tv=5.0)) == 0.1
    assert en.plane_wave_trace(params(tv=0.25)) == 2.0
    for tv in (0.3, 2.0, 40.0):
        assert en.plane_wave_trace(params(tv=tv)) > 0


# ----------------------------------------------------------------------
# vacuum entropy
# ----------------------------------------------------------------------
def test_vacuum_mass_log_term_vanishes_at_unit_mass():
    assert en.vacuum_mass_log_term(1.0, 0.5) == 0.0
    assert en.vacuum_mass_log_term(1.0, 2.0) == 0.0


def test_vacuum_coefficient_b_at_special_scale():
    # at mu = 1/(4 pi) the log terms drop: vacB = 18 + 12(gamma-2)gamma + pi^2
    _, vac_b = en.vacuum_coefficients(1.0 / (4 * PI))
    expected = 18.0 + 12.0 * (GAMMA - 2.0) * GAMMA + PI ** 2
    assert vac_b == pytest.approx(expected, rel=1e-12)


def test_vacuum_series_structure():
    bd = en.s_vacuum_order1(params())
    assert bd.pole2 == pytest.approx(-0.25 / (64 * PI ** 4), rel=1e-12)
    vac_a, vac_b = en.vacuum_coefficients(1.0)
    expected_finite = 1.0 - 0.25 * (vac_a + vac_b) / (1536 * PI ** 4)
    assert bd.finite == pytest.approx(expected_finite, rel=1e-12)
    # vanishing coupling removes the correction entirely
    free = en.s_vacuum_order1(params(lam=0.0))
    assert free.finite == pytest.approx(1.0)
    assert free.pole2 == 0


def test_vacuum_closed_form_convention_is_monotone():
    for mu in (0.5, 1.0, 2.0):
        grid = np.linspace(0.2, 6.0, 400)
        vals = [en.vacuum_finite_coefficient(m, mu, convention="closed_form")
                for m in grid]
        assert all(b < a for a, b in zip(vals, vals[1:]))


def test_vacuum_figure_convention_has_decreasing_minima():
    minima = []
    grid = np.linspace(0.2, 6.0, 2000)
    for mu in (0.5, 1.0, 2.0):
        vals = np.array([en.vacuum_finite_coefficient(float(m), mu, convention="figure")
                         for m in grid])
        i = int(np.argmin(vals))
        assert 0 < i < len(grid) - 1  # interior
        # exactly one sign change of the finite difference
        signs = np.sign(np.diff(vals))
        changes = int(np.sum(np.abs(np.diff(signs)) > 0))
        assert changes == 1
        minima.append(grid[i])
    assert minima[0] > minima[1] > minima[2]


def test_vacuum_unknown_convention():
    with pytest.raises(ValueError):
        en.vacuum_finite_coefficient(1.0, 1.0, convention="bogus")


# ----------------------------------------------------------------------
# spectral entropy
# ----------------------------------------------------------------------
def test_spectral_one_particle_identities():
    p = params()
    sd = en.SpectralDensity(Z=1.0, m_phys=1.0)
    assert en.s_nonperturbative(sd, p).series.max_coeff_diff(
        en.s_ext_2_order0(p).series) <= 1e-12
    sd2 = en.SpectralDensity(Z=1.0, m_phys=2.0)
    p2 = params(m0=2.0)
    assert en.s_nonperturbative(sd2, p).series.max_coeff_diff(
        en.s_ext_2_order0(p2).series) <= 1e-12


def test_spectral_z_invariance():
    p = params()
    for z in (1.0, 0.5, 0.1):
        sd = en.SpectralDensity(Z=z, m_phys=1.5)
        bd = en.s_nonperturbative(sd, p)
        ref = en.s_ext_2_order0(params(m0=1.5))
        assert bd.series.max_coeff_diff(ref.series) <= 1e-10


def test_spectral_two_delta_toy():
    # two channels of equal strength at M^2 = 1 and 4; oracle: the channel
    # sums assembled by hand from the tadpole and log-ratio series
    from loopentropy.loops import chi_over_delta_series_m2, delta_stripped_series_m2

    p = params(order=3)
    z = 0.5
    w = 2 * PI * z
    sd = en.SpectralDensity(Z=z, m_phys=1.0, multiparticle=((4.0, w),))
    bd = en.s_nonperturbative(sd, p)

    order = p.order
    d_a = delta_stripped_series_m2(0, 1.0, order + 1)
    d_b = delta_stripped_series_m2(0, 4.0, order + 1)
    r_a = chi_over_delta_series_m2(0, 1.0, order + 1, real_branch=True)
    r_b = chi_over_delta_series_m2(0, 4.0, order + 1, real_branch=True)
    norm = d_a.scale(z) + d_b.scale(z)
    mode = (d_a * (r_a - math.log(z))).scale(z) + (d_b * (r_b - math.log(z))).scale(z)
    expected = (norm.scale(p.stvol).log() + mode / norm).truncate(order)
    assert bd.series.max_coeff_diff(expected) <= 1e-12


def test_spectral_density_validation():
    with pytest.raises(ValueError):
        en.SpectralDensity(Z=0.0)
    with pytest.raises(ValueError):
        en.SpectralDensity(Z=1.2)
    with pytest.raises(ValueError):
        en.SpectralDensity(multiparticle=((-1.0, 1.0),))
    with pytest.raises(ValueError):
        en.SpectralDensity(multiparticle=((1.0, -2.0),))
    for bad in (math.inf, math.nan):
        with pytest.raises(ValueError):
            en.SpectralDensity(m_phys=bad)
        with pytest.raises(ValueError):
            en.SpectralDensity(multiparticle=((bad, 1.0),))
        with pytest.raises(ValueError):
            en.SpectralDensity(multiparticle=((1.0, bad),))
    en.SpectralDensity(m_phys=MASS_MIN, multiparticle=((MASS_MAX ** 2, 1.0),))
    for kwargs in ({"m_phys": MASS_MAX * 10}, {"m_phys": MASS_MIN / 10},
                   {"multiparticle": ((MASS_MAX ** 2 * 10, 1.0),)},
                   {"multiparticle": ((MASS_MIN ** 2 / 10, 1.0),)}):
        with pytest.raises(ValueError):
            en.SpectralDensity(**kwargs)
    # Z in [Z_MIN, 1] and weights in [0, WEIGHT_MAX]; the message names the value
    en.SpectralDensity(Z=Z_MIN, multiparticle=((4.0, WEIGHT_MAX), (9.0, 0.0)))
    for kwargs, value in (({"Z": 1e-31}, "1e-31"), ({"Z": 1e-308}, "1e-308"),
                          ({"multiparticle": ((4.0, 1e31),)}, "1e+31"),
                          ({"multiparticle": ((4.0, 1e308),)}, "1e+308")):
        with pytest.raises(ValueError) as exc:
            en.SpectralDensity(**kwargs)
        assert str(exc.value).endswith(f", not {value}")


@pytest.mark.parametrize("z", [Z_MIN, 1.0])
@pytest.mark.parametrize("m_phys", [MASS_MIN, MASS_MAX])
def test_nonpert_is_finite_at_the_spectral_range_ends(z, m_phys):
    for m2 in (MASS_MIN ** 2, MASS_MAX ** 2):
        for weight in (0.0, 5e-324, WEIGHT_MAX):
            sd = en.SpectralDensity(Z=z, m_phys=m_phys, multiparticle=((m2, weight),))
            for tv in (TV_MIN, TV_MAX):
                for order in (0, 32):
                    series = en.s_nonperturbative(sd, params(tv=tv, order=order)).series
                    assert all(cmath.isfinite(c) for _, _, c in series.terms())


@pytest.mark.parametrize("m0", [MASS_MIN, 1.0, MASS_MAX])
@pytest.mark.parametrize("mu", [MASS_MIN, MASS_MAX])
def test_every_quantity_is_finite_at_the_mass_range_ends(m0, mu):
    for order in (0, 32):
        for tv in (1e-3, 1e3):
            for name in en.QUANTITY_NAMES:
                data = en.compute_quantity(name, params(m0=m0, mu=mu, tv=tv,
                                                        order=order)).to_json_dict()
                json.dumps(data, allow_nan=False)  # raises on inf or nan


# ----------------------------------------------------------------------
# breakdown plumbing and registry
# ----------------------------------------------------------------------
def test_breakdown_json_schema():
    bd = en.s_ext_2_order0(params(m0=1.5, mu=2.0, lam=0.3, tv=2.0))
    data = json.loads(json.dumps(bd.to_json_dict()))
    assert set(data) == {"name", "m0", "mu", "lambda0", "tv", "pole2", "pole1",
                         "logeps", "finite", "residual_im"}
    assert data["name"] == "ext2_order0"
    assert data["m0"] == 1.5
    assert data["tv"] == 2.0
    assert data["pole1"]["re"] == pytest.approx(-2.0)


def test_breakdown_reads_its_parts_from_the_series():
    series = EpsSeries({(-2, 0): 1.5j, (-1, 0): -2.0, (0, 1): 0.25, (0, 0): 3.0 - 1e-3j},
                       kmax=0)
    p = params(m0=2.0)
    bd = en.EntropyBreakdown("x", series, p)
    assert [f.name for f in dataclasses.fields(bd)] == ["name", "series", "params"]
    assert (bd.pole2, bd.pole1, bd.logeps) == (1.5j, -2.0, 0.25)
    assert (bd.finite, bd.residual_im) == (3.0, -1e-3)
    assert not bd.is_real
    assert bd.to_json_dict()["tv"] == p.tv


@pytest.mark.parametrize("call, error", [
    (lambda: en.renyi_trace_radial(1, params()), ValueError),
    # (32 pi^2)^n and, inside the integral, t^(3 - n) overflow
    (lambda: en.renyi_trace_n(400, params()), NonFiniteError),
    # m0^(4 - 2n) overflows at m0 = 1e-30 from n = 8 on
    (lambda: en.renyi_trace_n(8, params(m0=1e-30)), NonFiniteError),
    # m0^(4 - 2n) underflows to zero at m0 = 1e30; it returned 0j
    (lambda: en.renyi_trace_n(10, params(m0=1e30)), NonFiniteError),
    # a bare ValueError, ZeroDivisionError or NaN before they were refused
    (lambda: en.vacuum_finite_coefficient(-1.0, 1.0), InputError),
    (lambda: en.vacuum_finite_coefficient(math.nan, 1.0), InputError),
    # a NaN coupling returned nan, an infinite TV -inf
    (lambda: en.vacuum_finite_coefficient(1.0, 1.0, math.nan), InputError),
    (lambda: en.vacuum_finite_coefficient(1.0, 1.0, 1.0, math.inf), InputError),
    (lambda: en.vacuum_coefficients(0.0), InputError),
    (lambda: en.vacuum_mass_log_term(0.0, 1.0), InputError),
    (lambda: en.entropy_order1_generic(*en.order1_blocks_n2(params()), 0, 1, 1.0),
     InputError),
    # a NaN or infinite series before they were refused
    (lambda: en.entropy_order1_generic(*en.order1_blocks_n2(params()), 1, math.nan, 1.0),
     InputError),
    (lambda: en.entropy_order1_generic(*en.order1_blocks_n2(params()), 1, 1, math.inf),
     InputError),
    # lambda0 * W1 / W0 overflows: the eps^0 coefficient was -inf-infj
    (lambda: en.entropy_order1_generic(*en.order1_blocks_n2(params()), 1, 1e300, 1e300),
     NonFiniteError),
], ids=["renyi_radial_n_below_2", "renyi_n_overflow", "renyi_small_mass_overflow",
        "renyi_large_mass_underflow", "vacuum_negative_m0", "vacuum_nan_m0",
        "vacuum_nan_lambda0", "vacuum_inf_tv",
        "vacuum_zero_mu", "vacuum_log_zero_m0", "generic_zero_w0", "generic_nan_w1",
        "generic_inf_lambda0", "generic_overflow"])
def test_refused_inputs(call, error):
    with pytest.raises(error):
        call()


def test_registry_dispatch_and_unknown():
    p = params()
    for name in en.QUANTITY_NAMES:
        bd = en.compute_quantity(name, p)
        assert bd.name == name
    with pytest.raises(InputError, match="unknown quantity 'nope'"):
        en.compute_quantity("nope", p)


def test_registry_tau_pseudo_quantity():
    bd = en.compute_quantity("tau", params())
    assert bd.finite == pytest.approx(ct.tau())
    assert bd.pole1 == 0
