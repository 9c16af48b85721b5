"""Self-validation suite behind the ``check`` CLI command.

Each check compares an implementation path against an independent oracle
(quadrature, identity, or exact constant) and yields a CheckResult.  A
``passed=None`` result is informational: it documents a known convention
discrepancy without failing the run.  ``delta_closed_impl`` exists so the
test suite can inject a faulty implementation and watch the oracle catch it.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Callable

from . import contour as ct
from . import entropy as en
from . import loops
from ._lazy import LazyModule
from .epsseries import EpsSeries
from .loops import SchemeParams
from .traces import TraceSet, tr_rho4_inferred, vacuum_trace_phi4, vacuum_trace_phir

np = LazyModule("numpy")


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool | None  # None marks an informational finding
    detail: str

    @property
    def status(self) -> str:
        if self.passed is None:
            return "INFO"
        return "PASS" if self.passed else "FAIL"


def _random_point(rng) -> tuple[int, float, float]:
    j = int(rng.integers(0, 5))
    d = float(rng.uniform(1.0, 2 * j + 1.8))
    m2 = float(rng.uniform(0.25, 9.0))
    return j, d, m2


def check_tau() -> CheckResult:
    t0 = time.perf_counter()
    value = ct.tau()
    dt = time.perf_counter() - t0
    rel = abs(value - 3.2663) / 3.2663
    ok = rel <= 5e-5 and dt < 1e-3
    return CheckResult(
        "tau_constant", ok,
        f"tau={value:.10f} rel_dev_from_3.2663={rel:.2e} runtime={dt * 1e6:.1f}us",
    )


def check_conditional_constancy() -> CheckResult:
    finites_ei, finites_ie = [], []
    for m0 in np.linspace(0.5, 10.0, 50):
        p = SchemeParams.from_tv(m0=float(m0), tv=1.0)
        ce, ci = en.conditional_entropies_21(p)
        finites_ei.append(ce.finite)
        finites_ie.append(ci.finite)
    dev = max(np.ptp(finites_ei), np.ptp(finites_ie))
    ok = (
        dev <= 1e-9
        and abs(finites_ei[0] + 0.102) <= 1e-3
        and abs(finites_ie[0] + 3.102) <= 1e-3
    )
    return CheckResult(
        "conditional_entropies", ok,
        f"ext|int={finites_ei[0]:.6f} int|ext={finites_ie[0]:.6f} max_m0_dev={dev:.2e}",
    )


def check_delta_oracle(seed: int = 20240817,
                       delta_closed_impl: Callable | None = None) -> CheckResult:
    impl = delta_closed_impl or loops.delta_closed
    rng = np.random.default_rng(seed)
    worst = 0.0
    worst_pt = None
    for _ in range(12):
        j, d, m2 = _random_point(rng)
        ref = loops.oracle_delta_radial(j, m2, d)
        rel = abs(impl(j, m2, d) - ref) / abs(ref)
        if rel > worst:
            worst, worst_pt = rel, (j, round(d, 3), round(m2, 3))
    return CheckResult(
        "delta_vs_radial_oracle", worst <= 1e-6,
        f"worst_rel={worst:.2e} at (j,d,m2)={worst_pt} over 12 points",
    )


def check_chi_oracle(seed: int = 20240818) -> CheckResult:
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(8):
        j, d, m2 = _random_point(rng)
        x_form = loops.oracle_chi_x(j, m2, d)
        radial = loops.oracle_chi_radial(j, m2, d)
        closed = loops.chi_closed(j, m2, d)
        worst = max(worst, abs(x_form - radial) / abs(radial),
                    abs(closed - x_form) / abs(x_form))
    return CheckResult(
        "chi_quadrature_consistency", worst <= 1e-6,
        f"worst_rel={worst:.2e} over 8 points (x-integral vs radial vs closed)",
    )


def check_eta_zero_momentum(seed: int = 20240819) -> CheckResult:
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(8):
        m2 = float(rng.uniform(0.25, 9.0))
        d = float(rng.uniform(2.0, 5.5))
        lhs = loops.eta(0.0, m2, d)
        rhs = loops.delta_closed(2, m2, d)
        worst = max(worst, abs(lhs - rhs) / abs(rhs))
    return CheckResult(
        "eta_zero_equals_delta2", worst <= 1e-10,
        f"worst_rel={worst:.2e} over 8 (quadrature vs closed form)",
    )


def check_series_scaling() -> CheckResult:
    details = []
    ok = True
    m2 = 1.3 * 1.3
    for j, order in ((0, 0), (0, 1), (1, 1), (2, 2)):
        ser = loops.delta_series_m2(j, m2, order)
        errs = []
        for e in 1e-2 * 0.5 ** np.arange(6):
            d = 4.0 + e  # compose first: d - 4 is then exact in doubles
            errs.append(abs(ser.evaluate(d - 4.0) - loops.delta_closed(j, m2, d)))
        expo = float(np.median(np.log2(np.array(errs[:-1]) / np.array(errs[1:]))))
        good = abs(expo - (order + 1)) <= 0.3
        ok = ok and good
        details.append(f"j={j},order={order}:exp={expo:.2f}")
    return CheckResult("series_error_scaling", ok, " ".join(details))


def check_mutual_identity() -> CheckResult:
    worst = 0.0
    for m0 in (0.5, 1.0, 2.0, 5.0, 10.0):
        for tv in (1.0, 10.0):
            p = SchemeParams.from_tv(m0=m0, tv=tv)
            quoted = en.mutual_information_21(p).series
            composed = en.mutual_information_21(p, composed=True).series
            worst = max(worst, quoted.max_coeff_diff(composed, through_k=0))
    return CheckResult("mutual_information_identity", worst <= 1e-10,
                       f"worst_coeff_diff={worst:.2e}")


def check_trace_relations(seed: int = 20240820) -> CheckResult:
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(20):
        coeffs4 = {(int(k), 0): complex(*rng.normal(size=2)) for k in range(-1, 3)}
        coeffs2 = {(int(k), 0): complex(*rng.normal(size=2)) for k in range(-1, 3)}
        d0 = EpsSeries({(-1, 0): complex(*rng.normal(size=2)) + 2.0,
                        (0, 0): complex(*rng.normal(size=2))}, kmax=4)
        ts = TraceSet(r=4, traces={4: EpsSeries(coeffs4, 4), 2: EpsSeries(coeffs2, 4)},
                      delta0=d0, lambda0=float(rng.uniform(0.1, 2.0)))
        worst = max(worst, vacuum_trace_phi4(ts).max_coeff_diff(vacuum_trace_phir(ts)))
    # round trip: inferred four-point trace plugged back must return the overlap
    p = SchemeParams.from_tv(m0=1.2, lambda0=0.7, tv=1.0)
    overlap, e0_2t = 0.93, 0.41
    t4 = tr_rho4_inferred(1.0, p.m0, e0_2t, p, overlap_sq=overlap)
    d0 = loops.delta_series_m2(0, p.m2, p.order)
    ts = TraceSet(r=4, traces={4: t4, 2: d0.scale(p.stvol)}, delta0=d0,
                  lambda0=p.lambda0)
    back = vacuum_trace_phi4(ts)
    target = overlap * complex(math.cos(e0_2t), -math.sin(e0_2t))
    rt = back.max_coeff_diff(EpsSeries.constant(target, kmax=back.kmax))
    ok = worst <= 1e-12 and rt <= 1e-10
    return CheckResult("trace_relations", ok,
                       f"phir_vs_phi4_worst={worst:.2e} round_trip_dev={rt:.2e}")


def check_plane_wave() -> CheckResult:
    vals = [(tv, en.plane_wave_trace(SchemeParams.from_tv(tv=tv))) for tv in (1.0, 5.0)]
    ok = vals[0][1] == 0.5 and vals[1][1] == 0.1 and all(v > 0 for _, v in vals)
    return CheckResult("plane_wave_trace", ok,
                       " ".join(f"TV={tv}:{v:.6g}" for tv, v in vals))


def info_chi_form_discrepancy() -> CheckResult:
    j, m2, d = 1, 1.0, 2.0
    integral_form = loops.chi_closed(j, m2, d, form="integral")
    alternate = loops.chi_closed(j, m2, d, form="alternate")
    quad = loops.oracle_chi_x(j, m2, d)
    return CheckResult(
        "chi_alternate_form_sign", None,
        f"x-integral form {integral_form:.6f} matches quadrature {quad:.6f}; "
        f"alternate harmonic-number form {alternate:.6f} differs by (-1)^j at odd j",
    )


def info_endpoint_divergence() -> CheckResult:
    ladder = [abs(ct.coeff_b(ct.ContourConfig(endpoint_cut=dlt)))
              for dlt in (0.2, 0.1, 0.05)]
    rising = ladder[0] < ladder[1] < ladder[2]
    return CheckResult(
        "contour_b_endpoint_divergence", bool(rising),
        "|b| at cuts (0.2, 0.1, 0.05): " + ", ".join(f"{v:.6f}" for v in ladder),
    )


def info_ratio_vs_tau() -> CheckResult:
    cfg = ct.ContourConfig(endpoint_cut=0.05)
    reg = ct.ratio_ab_regulated(cfg)
    return CheckResult(
        "regulated_ratio_vs_tau", None,
        f"a/b at cut 0.05 = {reg:.6f}; closed-form tau = {ct.tau():.6f} "
        "(not asserted equal; the regulated ratio drifts as the cut shrinks)",
    )


def info_combined_expansion_offset() -> CheckResult:
    p = SchemeParams.from_tv()
    closed = en.s_ext_2_total(p, mode="closed").series
    assembled = en.s_ext_2_total(p, mode="assembled").series
    diff = closed - assembled
    return CheckResult(
        "two_point_combined_offset", None,
        f"closed-minus-assembled = {diff.coefficient(-1, 0).real:+.3f}/eps "
        f"{diff.coefficient(0, 0).real:+.3f}; known inconsistency of the "
        "combined closed form",
    )


def run_all(seed: int = 20240817,
            delta_closed_impl: Callable | None = None) -> list[CheckResult]:
    return [
        check_tau(),
        check_conditional_constancy(),
        check_delta_oracle(seed=seed, delta_closed_impl=delta_closed_impl),
        check_chi_oracle(seed=seed + 1),
        check_eta_zero_momentum(seed=seed + 2),
        check_series_scaling(),
        check_mutual_identity(),
        check_trace_relations(seed=seed + 3),
        check_plane_wave(),
        info_chi_form_discrepancy(),
        info_endpoint_divergence(),
        info_ratio_vs_tau(),
        info_combined_expansion_offset(),
    ]


def exit_code(results: list[CheckResult]) -> int:
    return 0 if all(r.passed is not False for r in results) else 1
