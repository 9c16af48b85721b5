"""Trace relations: the quartic and general phi^r vacuum decompositions,
the inferred four-point trace, and the reported proportionality ratios."""

import cmath
import math

import numpy as np
import pytest

from loopentropy.epsseries import EpsSeries
from loopentropy.errors import LoopEntropyError
from loopentropy.loops import SchemeParams, delta_series
from loopentropy.traces import (
    TraceSet,
    ratio_checks,
    tr_rho4_inferred,
    vacuum_trace_phi4,
    vacuum_trace_phir,
)


def _series(rng, kmax=4, kmin=-1):
    return EpsSeries(
        {(k, 0): complex(rng.normal(), rng.normal()) for k in range(kmin, kmax + 1)},
        kmax,
    )


def _traceset(rng, r=4, lam=None):
    half = r // 2
    traces = {r - 2 * j: _series(rng) for j in range(half)}
    d0 = _series(rng)
    return TraceSet(r=r, traces=traces, delta0=d0,
                    lambda0=float(rng.uniform(0.1, 2.0)) if lam is None else lam)


def test_traceset_key_validation():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        TraceSet(r=3, traces={}, delta0=_series(rng))
    with pytest.raises(ValueError):
        TraceSet(r=4, traces={4: _series(rng)}, delta0=_series(rng))
    with pytest.raises(ValueError):
        TraceSet(r=4, traces={4: _series(rng), 2: _series(rng), 6: _series(rng)},
                 delta0=_series(rng))


def test_phi4_coupling_off():
    rng = np.random.default_rng(1)
    ts = _traceset(rng, lam=0.0)
    out = vacuum_trace_phi4(ts)
    assert out.max_coeff_diff(EpsSeries.constant(1.0, out.kmax)) == 0.0


def test_phi4_cancellation():
    rng = np.random.default_rng(2)
    d0 = _series(rng)
    ts = TraceSet(r=4, traces={4: d0 * d0, 2: EpsSeries.zero(4)}, delta0=d0,
                  lambda0=1.3)
    out = vacuum_trace_phi4(ts)
    assert out.max_coeff_diff(EpsSeries.constant(1.0, out.kmax)) <= 1e-14


def test_phi4_requires_r4():
    rng = np.random.default_rng(3)
    ts = _traceset(rng, r=6)
    with pytest.raises(LoopEntropyError):
        vacuum_trace_phi4(ts)


def test_phir_reduces_to_phi4():
    rng = np.random.default_rng(4)
    for _ in range(100):
        ts = _traceset(rng)
        a = vacuum_trace_phi4(ts)
        b = vacuum_trace_phir(ts)
        assert a.max_coeff_diff(b) <= 1e-12 * max(a.max_abs(), 1.0)


def test_phir_six_point_constant_term():
    # all traces zero: 1 + i lambda0 * 2 delta0^3
    rng = np.random.default_rng(5)
    d0 = _series(rng, kmin=0)
    ts = TraceSet(r=6, traces={6: EpsSeries.zero(4), 4: EpsSeries.zero(4),
                               2: EpsSeries.zero(4)}, delta0=d0, lambda0=0.8)
    out = vacuum_trace_phir(ts)
    expected = EpsSeries.constant(1.0) + (d0 ** 3).scale(2j * 0.8)
    assert out.max_coeff_diff(expected) <= 1e-12


def test_phir_series_inputs_from_tadpole():
    p = SchemeParams(m0=1.2, lambda0=0.9, order=3)
    d0 = delta_series(0, p)
    ts = TraceSet(r=6, traces={6: d0 * d0 * d0, 4: d0 * d0, 2: d0},
                  delta0=d0, lambda0=p.lambda0)
    out = vacuum_trace_phir(ts)
    bracket = (d0 ** 3).scale(-2.0) + (d0 ** 3) + (d0 * (d0 * d0)) + ((d0 * d0) * d0)
    expected = EpsSeries.constant(1.0) + bracket.scale(-1j * p.lambda0)
    assert out.max_coeff_diff(expected) <= 1e-12


def test_linearity_in_coupling():
    rng = np.random.default_rng(6)
    base = _traceset(rng, lam=1.0)
    doubled = TraceSet(r=4, traces=base.traces, delta0=base.delta0, lambda0=2.0)
    one = vacuum_trace_phi4(base) - EpsSeries.constant(1.0)
    two = vacuum_trace_phi4(doubled) - EpsSeries.constant(1.0)
    assert two.max_coeff_diff(one.scale(2.0)) <= 1e-12 * max(one.max_abs(), 1.0)


def test_tr_rho4_inferred_trivial_rows():
    p = SchemeParams(m0=1.0, lambda0=0.5, tv=1.0, order=3)
    d0 = delta_series(0, p)
    # overlap 1, phase 0, Z=1, m_phys=m0: head vanishes, bracket = d0(d0 - 2TV d0)
    t4 = tr_rho4_inferred(1.0, p.m0, 0.0, p, overlap_sq=1.0)
    expected = d0 * (d0 - d0.scale(p.stvol))
    assert t4.max_coeff_diff(expected) <= 1e-12
    # TV = 1/2 makes stvol = 1 and the bracket vanish entirely
    p_half = SchemeParams(m0=1.0, lambda0=0.5, tv=0.5, order=3)
    t4_half = tr_rho4_inferred(1.0, p_half.m0, 0.0, p_half, overlap_sq=1.0)
    assert t4_half.max_abs() <= 1e-14


def test_tr_rho4_inferred_requires_coupling():
    p = SchemeParams(lambda0=0.0)
    with pytest.raises(LoopEntropyError):
        tr_rho4_inferred(1.0, 1.0, 0.0, p)


def test_round_trip_overlap_recovery():
    p = SchemeParams(m0=1.3, lambda0=0.7, tv=2.0, order=4)
    overlap, e0_2t = 0.87, 1.234
    t4 = tr_rho4_inferred(0.9, 2.0, e0_2t, p, overlap_sq=overlap)
    d0 = delta_series(0, p)
    from loopentropy.loops import delta_series_m2

    tr2 = delta_series_m2(0, 4.0, p.order).scale(p.stvol * 0.9)
    ts = TraceSet(r=4, traces={4: t4, 2: tr2}, delta0=d0, lambda0=p.lambda0)
    back = vacuum_trace_phi4(ts)
    target = overlap * cmath.exp(-1j * e0_2t)
    assert back.max_coeff_diff(EpsSeries.constant(target, back.kmax)) <= 1e-10


def test_ratio_checks_first_relation_exact():
    p = SchemeParams(m0=1.4, lambda0=0.6, tv=1.0, order=4)
    report = ratio_checks(p)
    normalized = report["tadpole_pair"]["normalized"]
    assert normalized.max_coeff_diff(EpsSeries.constant(1.0, normalized.kmax)) <= 1e-12


def test_ratio_checks_second_relation_normalization():
    p = SchemeParams(m0=1.4, lambda0=0.6, tv=1.0, order=4)
    report = ratio_checks(p)
    entry = report["fully_contracted"]
    d0 = delta_series(0, p)
    # the recorded normalization constant is delta0^2 and the fully
    # normalized quotient is the unit series
    assert entry["normalization_constant"].max_coeff_diff(d0 * d0) <= 1e-14
    unit = entry["normalized"]
    assert unit.max_coeff_diff(EpsSeries.constant(1.0, unit.kmax)) <= 1e-10


def test_ratio_checks_scale_linearly_in_coupling():
    p1 = SchemeParams(m0=1.4, lambda0=0.6, order=4)
    p2 = SchemeParams(m0=1.4, lambda0=1.2, order=4)
    r1 = ratio_checks(p1)["tadpole_pair"]["ratio"]
    r2 = ratio_checks(p2)["tadpole_pair"]["ratio"]
    assert r2.max_coeff_diff(r1.scale(2.0)) <= 1e-12 * max(r1.max_abs(), 1.0)
    b1 = ratio_checks(p1)["fully_contracted"]["ratio"]
    b2 = ratio_checks(p2)["fully_contracted"]["ratio"]
    assert b2.max_coeff_diff(b1.scale(2.0)) <= 1e-12 * max(b1.max_abs(), 1.0)
