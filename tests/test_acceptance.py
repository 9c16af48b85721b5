"""Acceptance suite: the ten exit criteria, one test and one printed
pass/fail line each.  Run with ``pytest tests/test_acceptance.py -v -s``.

Tolerances are fixed here, not tuned: where a published reference value is
a truncated decimal (the contour constant prints as 3.2663 for 3.26636...),
the comparison is relative, which keeps the stated 5e-5 meaningful; all
other tolerances are absolute as stated.
"""

import cmath
import math
import time

import numpy as np
import pytest

from loopentropy import contour as ct
from loopentropy import entropy as en
from loopentropy import loops
from loopentropy.cli import SweepConfig, figure2_rows, figure3_rows
from loopentropy.epsseries import EpsSeries
from loopentropy.loops import SchemeParams
from loopentropy.traces import TraceSet, tr_rho4_inferred, vacuum_trace_phi4, vacuum_trace_phir

PI = math.pi


def _report(num: int, ok: bool, detail: str):
    print(f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'}: {detail}", flush=True)
    assert ok, f"criterion {num} failed: {detail}"


def test_criterion_01_tau_constant():
    t0 = time.perf_counter()
    value = ct.tau()
    runtime = time.perf_counter() - t0
    rel = abs(value - 3.2663) / 3.2663
    ok = rel <= 5e-5 and runtime < 1e-3
    _report(1, ok,
            f"tau={value:.10f}, relative deviation from the printed 3.2663 "
            f"= {rel:.2e} (absolute {abs(value - 3.2663):.2e}; the print is a "
            f"4-decimal truncation), runtime {runtime * 1e6:.0f} us")


def test_criterion_02_conditional_entropies():
    grid = np.linspace(0.5, 10.0, 50)
    ei, ie = [], []
    for m0 in grid:
        p = SchemeParams(m0=float(m0), tv=1.0)
        ei.append(en.compute_quantity("cond_ext_int", p).finite)
        ie.append(en.compute_quantity("cond_int_ext", p).finite)
    dev = max(np.ptp(ei), np.ptp(ie))
    ok = (abs(ei[0] + 0.102) <= 1e-3 and abs(ie[0] + 3.102) <= 1e-3
          and dev <= 1e-9)
    _report(2, ok,
            f"ext|int={ei[0]:.6f} (target -0.102+-1e-3), "
            f"int|ext={ie[0]:.6f} (target -3.102+-1e-3), "
            f"max m0-variation {dev:.2e} (<=1e-9) over 50 points")


def test_criterion_03_oracle_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(424242)
    worst_delta = worst_chi = 0.0
    n = 0
    while n < 50:
        j = int(rng.integers(0, 5))
        d = float(rng.uniform(1.0, 2 * j + 1.8))
        m2 = float(rng.uniform(0.25, 9.0))
        arg = j + 1 - d / 2
        if abs(arg - round(arg)) < 1e-3 and round(arg) <= 0:
            continue
        ref = loops.oracle_delta_radial(j, m2, d)
        worst_delta = max(worst_delta, abs(loops.delta_closed(j, m2, d) - ref) / abs(ref))
        x_val = loops.oracle_chi_x(j, m2, d)
        r_val = loops.oracle_chi_radial(j, m2, d)
        worst_chi = max(worst_chi, abs(x_val - r_val) / abs(r_val))
        n += 1
    runtime = time.perf_counter() - t0
    ok = worst_delta <= 1e-6 and worst_chi <= 1e-6 and runtime < 30.0
    _report(3, ok,
            f"50 random convergent points: worst delta rel err {worst_delta:.2e}, "
            f"worst chi x-integral-vs-momentum rel err {worst_chi:.2e} "
            f"(both <=1e-6), runtime {runtime:.2f}s (<30s)")


def test_criterion_04_series_consistency():
    details = []
    ok = True
    # match at eps = 1e-6 against the exact-d closed forms
    p = SchemeParams(m0=1.3, order=4)
    eps = 1e-6
    d = 4.0 + eps
    ee = d - 4.0
    for j in (0, 1, 2):
        dc = loops.delta_closed(j, p.m2, d)
        rel_d = abs(loops.delta_series(j, p).evaluate(ee) - dc) / abs(dc)
        cc = loops.chi_closed(j, p.m2, d)
        rel_c = abs(loops.chi_series(j, p).evaluate(ee) - cc) / abs(cc)
        ok = ok and rel_d <= 1e-8 and rel_c <= 1e-8
        details.append(f"j={j}: delta {rel_d:.1e}, chi {rel_c:.1e}")
    # halving ladder: observed exponent within +-0.3 of order+1
    for fam_name, series_fn, closed_fn in (
        ("delta", loops.delta_series, loops.delta_closed),
        ("chi", loops.chi_series, loops.chi_closed),
    ):
        for j, order in ((0, 0), (1, 1), (2, 2)):
            pp = SchemeParams(m0=1.3, order=order)
            ser = series_fn(j, pp)
            errs = []
            for e in 1e-2 * 0.5 ** np.arange(5):
                dd = 4.0 + e
                errs.append(abs(ser.evaluate(dd - 4.0) - closed_fn(j, pp.m2, dd)))
            expo = float(np.median(np.log2(np.array(errs[:-1]) / np.array(errs[1:]))))
            good = abs(expo - (order + 1)) <= 0.3
            ok = ok and good
            details.append(f"{fam_name} j={j} order={order}: exp {expo:.2f}")
    _report(4, ok, "; ".join(details))


def test_criterion_05_mutual_information_identity():
    worst = 0.0
    for m0 in np.linspace(0.5, 10.0, 25):
        for tv in (1.0, 10.0):
            p = SchemeParams(m0=float(m0), tv=tv)
            quoted = en.mutual_information_21(p).series
            composed = en.s_ext_21(p).series + en.s_int_21(p).series - en.s_total_21(p).series
            worst = max(worst, quoted.max_coeff_diff(composed, through_k=0))
    ok = worst <= 1e-10
    _report(5, ok,
            f"S_ext + S_int - S_total vs quoted mutual information: worst "
            f"coefficient difference {worst:.2e} (<=1e-10) over the m0 grid")


def test_criterion_06_figure2_reproduction():
    t0 = time.perf_counter()
    cfg = SweepConfig(m0_min=1.0, m0_max=10.0, steps=200, mu=(1.0,),
                      lambda0=1.0, tv=1.0)
    rows = np.array(figure2_rows(cfg))
    runtime = time.perf_counter() - t0
    m0 = rows[:, 0]
    window = (m0 >= 8.0) & (m0 <= 10.0)
    logs = np.log(m0[window])
    slopes = [np.polyfit(logs, rows[window, col], 1)[0] for col in (1, 2, 3)]
    slope_ok = all(abs(s - 4.0) <= 0.05 for s in slopes)
    dom = np.all(rows[m0 >= 2.0, 5] > rows[m0 >= 2.0, 1])
    ok = slope_ok and bool(dom) and runtime < 5.0
    _report(6, ok,
            f"log-slopes on [8,10]: total {slopes[0]:.4f}, ext {slopes[1]:.4f}, "
            f"int {slopes[2]:.4f} (4+-0.05); S_ext+S_int > S_total for m0>=2: "
            f"{bool(dom)}; 200 points in {runtime:.2f}s (<5s)")


def test_criterion_07_figure3_reproduction():
    cfg = SweepConfig(m0_min=0.2, m0_max=6.0, steps=300, mu=(0.5, 1.0, 2.0),
                      lambda0=1.0, tv=1.0, convention="figure")
    rows = np.array(figure3_rows(cfg))
    minima = []
    ok = True
    for col, mu in zip((1, 2, 3), cfg.mu):
        vals = rows[:, col]
        i = int(np.argmin(vals))
        interior = 0 < i < len(vals) - 1
        signs = np.sign(np.diff(vals))
        single = int(np.sum(np.abs(np.diff(signs)) > 0)) == 1
        ok = ok and interior and single
        minima.append(rows[i, 0])
    decreasing = minima[0] > minima[1] > minima[2]
    ok = ok and decreasing
    _report(7, ok,
            f"vacuum-entropy curves (figure convention): one interior minimum "
            f"per mu at m0 = {minima[0]:.3f}, {minima[1]:.3f}, {minima[2]:.3f} "
            f"for mu = 0.5, 1, 2; strictly decreasing: {decreasing}")


def test_criterion_08_bubble_zero_momentum():
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(20):
        m2 = float(rng.uniform(0.25, 9.0))
        d = float(rng.uniform(2.0, 5.5))
        lhs = loops.eta(0.0, m2, d)          # parameter-integral quadrature
        rhs = loops.delta_closed(2, m2, d)   # gamma-function closed form
        worst = max(worst, abs(lhs - rhs) / abs(rhs))
    ok = worst <= 1e-10
    _report(8, ok,
            f"bubble at zero momentum vs j=2 tadpole power through "
            f"independent code paths: worst rel err {worst:.2e} (<=1e-10), 20 points")


def test_criterion_09_trace_relations():
    rng = np.random.default_rng(9)
    worst = 0.0
    for _ in range(100):
        traces = {
            4: EpsSeries({(k, 0): complex(rng.normal(), rng.normal())
                          for k in range(-1, 3)}, 4),
            2: EpsSeries({(k, 0): complex(rng.normal(), rng.normal())
                          for k in range(-1, 3)}, 4),
        }
        d0 = EpsSeries({(-1, 0): complex(rng.normal() + 2.0, rng.normal()),
                        (0, 0): complex(rng.normal(), rng.normal())}, 4)
        ts = TraceSet(r=4, traces=traces, delta0=d0,
                      lambda0=float(rng.uniform(0.1, 2.0)))
        worst = max(worst,
                    vacuum_trace_phi4(ts).max_coeff_diff(vacuum_trace_phir(ts)))
    p = SchemeParams(m0=1.2, lambda0=0.7, tv=1.5, order=4)
    overlap, e0_2t, z, m_phys = 0.93, 0.41, 0.85, 1.9
    t4 = tr_rho4_inferred(z, m_phys, e0_2t, p, overlap_sq=overlap)
    d0 = loops.delta_series(0, p)
    tr2 = loops.delta_series_m2(0, m_phys ** 2, p.order).scale(p.stvol * z)
    ts = TraceSet(r=4, traces={4: t4, 2: tr2}, delta0=d0, lambda0=p.lambda0)
    target = overlap * cmath.exp(-1j * e0_2t)
    round_trip = vacuum_trace_phi4(ts).max_coeff_diff(
        EpsSeries.constant(target, kmax=4))
    # the two formulas are independent implementations, so "coefficient
    # exact" means equality up to float reassociation (machine epsilon)
    ok = worst <= 1e-12 and round_trip <= 1e-10
    _report(9, ok,
            f"general-power formula vs quartic formula on 100 random trace "
            f"sets: worst coefficient diff {worst:.2e} (machine-exact, "
            f"<=1e-12); overlap round trip {round_trip:.2e} (<=1e-10)")


def test_criterion_10_plane_wave_trace():
    vals = {tv: en.plane_wave_trace(SchemeParams(tv=tv))
            for tv in (1.0, 5.0, 0.25)}
    ok = vals[1.0] == 0.5 and vals[5.0] == 0.1 and vals[0.25] == 1.0 / 0.5
    _report(10, ok,
            f"plane-wave trace exactly 1/(2TV): TV=1 -> {vals[1.0]}, "
            f"TV=5 -> {vals[5.0]}, TV=0.25 -> {vals[0.25]}")
