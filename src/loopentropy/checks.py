"""Self-validation suite behind the ``check`` CLI command.

Each check compares an implementation path against an independent oracle
(quadrature, identity, or exact constant) and yields a CheckResult.  A
``passed=None`` result is informational: it documents a known convention
discrepancy without failing the run.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from . import contour as ct
from . import entropy as en
from . import loops
from .epsseries import EpsSeries
from .loops import SchemeParams
from .params import CHECK_SEED
from .traces import TraceSet, tr_rho4_inferred, vacuum_trace_phi4, vacuum_trace_phir


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


def _random_point(rng: random.Random) -> tuple[int, float, float]:
    j = rng.randrange(0, 5)
    d = rng.uniform(1.0, 2 * j + 1.8)
    m2 = rng.uniform(0.25, 9.0)
    return j, d, m2


def _complex_gauss(rng: random.Random) -> complex:
    return complex(rng.gauss(0.0, 1.0), rng.gauss(0.0, 1.0))


def check_tau() -> CheckResult:
    value = ct.tau()
    rel = abs(value - 3.2663) / 3.2663
    return CheckResult(
        "tau_constant", rel <= 5e-5,
        f"tau={value:.10f} rel_dev_from_3.2663={rel:.2e}",
    )


def check_conditional_constancy() -> CheckResult:
    # finite parts only, which do not depend on the order: built at order 0;
    # the m0 grid is linspace(0.5, 10, 50) in the arithmetic of SweepConfig.grid
    finites_ei, finites_ie = [], []
    step = (10.0 - 0.5) / 49
    for m0 in [i * step + 0.5 for i in range(49)] + [10.0]:
        p = SchemeParams(m0=m0, tv=1.0, order=0)
        finites_ei.append(en.compute_quantity("cond_ext_int", p).finite)
        finites_ie.append(en.compute_quantity("cond_int_ext", p).finite)
    dev = max(max(finites_ei) - min(finites_ei), max(finites_ie) - min(finites_ie))
    ok = (
        dev <= 1e-9
        and abs(finites_ei[0] + 0.102) <= 1e-3
        and abs(finites_ie[0] + 3.102) <= 1e-3
    )
    return CheckResult(
        "conditional_entropies", ok,
        f"ext|int={finites_ei[0]:.6f} int|ext={finites_ie[0]:.6f} max_m0_dev={dev:.2e}",
    )


# each seeded check's default is the seed run_all hands it by default, for the
# benchmark harness, which calls every check bare (bench/test_bench.py)
def check_delta_oracle(seed: int = CHECK_SEED) -> CheckResult:
    rng = random.Random(seed)
    worst = 0.0
    worst_pt = None
    for _ in range(12):
        j, d, m2 = _random_point(rng)
        ref = loops.oracle_delta_radial(j, m2, d)
        rel = abs(loops.delta_closed(j, m2, d) - ref) / abs(ref)
        if rel > worst:
            worst, worst_pt = rel, (j, round(d, 3), round(m2, 3))
    return CheckResult(
        "delta_vs_radial_oracle", worst <= 1e-6,
        f"worst_rel={worst:.2e} at (j,d,m2)={worst_pt} over 12 points",
    )


def check_chi_oracle(seed: int = CHECK_SEED + 1) -> CheckResult:
    rng = random.Random(seed)
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


def check_eta_zero_momentum(seed: int = CHECK_SEED + 2) -> CheckResult:
    rng = random.Random(seed)
    worst = 0.0
    for _ in range(8):
        m2 = rng.uniform(0.25, 9.0)
        d = rng.uniform(2.0, 5.5)
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
        for k in range(6):
            d = 4.0 + 1e-2 * 0.5 ** k  # compose first: d - 4 is then exact in doubles
            errs.append(abs(ser.evaluate(d - 4.0) - loops.delta_closed(j, m2, d)))
        # the median of the five halving ratios' exponents
        expo = sorted(math.log2(a / b) for a, b in zip(errs, errs[1:]))[2]
        good = abs(expo - (order + 1)) <= 0.3
        ok = ok and good
        details.append(f"j={j},order={order}:exp={expo:.2f}")
    return CheckResult("series_error_scaling", ok, " ".join(details))


def check_mutual_identity() -> CheckResult:
    # compares eps^0 and below, which do not depend on the order: built at order 0
    worst = 0.0
    for m0 in (0.5, 1.0, 2.0, 5.0, 10.0):
        for tv in (1.0, 10.0):
            p = SchemeParams(m0=m0, tv=tv, order=0)
            quoted = en.mutual_information_21(p).series
            composed = en.s_ext_21(p).series + en.s_int_21(p).series - en.s_total_21(p).series
            worst = max(worst, quoted.max_coeff_diff(composed, through_k=0))
    return CheckResult("mutual_information_identity", worst <= 1e-10,
                       f"worst_coeff_diff={worst:.2e}")


def check_trace_relations(seed: int = CHECK_SEED + 3) -> CheckResult:
    rng = random.Random(seed)
    worst = 0.0
    for _ in range(20):
        traces = {r: EpsSeries({(k, 0): _complex_gauss(rng) for k in range(-1, 3)}, 4)
                  for r in (4, 2)}
        d0 = EpsSeries({(-1, 0): _complex_gauss(rng) + 2.0,
                        (0, 0): _complex_gauss(rng)}, kmax=4)
        ts = TraceSet(r=4, traces=traces, delta0=d0, lambda0=rng.uniform(0.1, 2.0))
        worst = max(worst, vacuum_trace_phi4(ts).max_coeff_diff(vacuum_trace_phir(ts)))
    # round trip: inferred four-point trace plugged back must return the overlap
    p = SchemeParams(m0=1.2, lambda0=0.7, tv=1.0)
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
    vals = [(tv, en.plane_wave_trace(SchemeParams(tv=tv))) for tv in (1.0, 5.0)]
    ok = vals[0][1] == 0.5 and vals[1][1] == 0.1 and all(v > 0 for _, v in vals)
    return CheckResult("plane_wave_trace", ok,
                       " ".join(f"TV={tv}:{v:.6g}" for tv, v in vals))


def info_chi_form_discrepancy() -> CheckResult:
    # The harmonic-number form circulating for this family carries an extra
    # (-1)^j on the whole bracket of chi_j = delta_j (H_j - H_{j-d/2} +
    # log(-m^2)), which evaluates the Feynman-parameter x-integral.  The two
    # disagree at odd j, and quadrature validates the x-integral form.
    j, m2, d = 1, 1.0, 2.0
    integral_form = loops.chi_closed(j, m2, d)
    alternate = (-1.0) ** j * integral_form
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
    p = SchemeParams()
    closed = en.s_ext_2_total(p, mode="closed").series
    assembled = en.s_ext_2_total(p, mode="assembled").series
    diff = closed - assembled
    return CheckResult(
        "two_point_combined_offset", None,
        f"closed-minus-assembled = {diff.coefficient(-1, 0).real:+.3f}/eps "
        f"{diff.coefficient(0, 0).real:+.3f}; known inconsistency of the "
        "combined closed form",
    )


def run_all(seed: int = CHECK_SEED) -> list[CheckResult]:
    return [
        check_tau(),
        check_conditional_constancy(),
        check_delta_oracle(seed=seed),
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
