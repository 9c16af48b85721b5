"""Entropies of external (real) and internal (virtual) propagation states.

Every quantity is reported as an :class:`EntropyBreakdown`: an eps-series
and its scheme, from which the double-pole, simple-pole, log(eps) and finite
coefficients are read, with the real/imaginary split made explicit.  The
quoted closed-form expansions are the authoritative outputs; where a
quantity is assembled from the loop families the assembly uses the
i-stripped (real, positive-leading) tadpole series so that its coefficients
come out real term by term and agree with the quoted forms.

The named quantities, with what each one means and the scheme inputs it
reads, are the table :data:`QUANTITIES` (listed in the README's
"Quantities" table); :func:`compute_quantity` evaluates one by name.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass
from typing import Callable

from . import contour as ct
from . import specialfns as sf
from ._lazy import LazyModule
from .epsseries import EpsSeries, power_series
from .errors import InputError, NonFiniteError, UnknownQuantityError
from .loops import (
    chi_over_delta_series_m2,
    chi_series_m2,
    complex_quad,
    delta_series_m2,
    delta_stripped_series_m2,
    eta_closed_d4,
    _in_float_range,
    _quad,
)
from .params import (MASS_MAX, MASS_MIN, WEIGHT_MAX, Z_MIN, SchemeParams, check_coupling_and_tv,
                     check_positive, check_range)

np = LazyModule("numpy")

PI = sf.PI
GAMMA = sf.EULER_GAMMA

DEFAULT_IMAG_TOL = 1e-9


@dataclass(frozen=True)
class EntropyBreakdown:
    """A named entropy series and its scheme; the parts are read from the series.

    The pole, log(eps) and finite parts do not depend on ``params.order``
    and follow the mass-scaling law to about 2e-14 of the largest
    coefficient.  The eps^k coefficients of ``series`` with k >= 1 lose
    digits with the order and with |ln m0|.  Measured against that law,
    the worst coefficient, sampled over m0 from 1e-30 to 1e30, is off by
    2e-10 of its own size at order 2 and by 1e-5 at order 4.  At order 8
    it is off by 3e-7 at m0 = 10^+-1 and by 5 at m0 = 10^+-10; at order 12,
    by 4e-6 at m0 = 10^+-0.25 and by 1e8 at m0 = 10^+-10.  The README
    tabulates it.
    """

    name: str
    series: EpsSeries
    params: SchemeParams

    @property
    def finite(self) -> float:
        return self.series.finite_part().real

    @property
    def residual_im(self) -> float:
        return self.series.finite_part().imag

    @property
    def pole2(self) -> complex:
        return self.series.coefficient(-2, 0)

    @property
    def pole1(self) -> complex:
        return self.series.coefficient(-1, 0)

    @property
    def logeps(self) -> complex:
        return self.series.coefficient(0, 1)

    @property
    def is_real(self) -> bool:
        return abs(self.residual_im) <= DEFAULT_IMAG_TOL

    def to_json_dict(self) -> dict:
        def c(v: complex) -> dict:
            return {"re": v.real, "im": v.imag}

        return {
            "name": self.name,
            "m0": self.params.m0,
            "mu": self.params.mu,
            "lambda0": self.params.lambda0,
            "tv": self.params.tv,
            "pole2": c(self.pole2),
            "pole1": c(self.pole1),
            "logeps": c(self.logeps),
            "finite": self.finite,
            "residual_im": self.residual_im,
        }


@dataclass(frozen=True)
class SpectralDensity:
    """One-particle strength plus optional tabulated multiparticle samples.

    ``multiparticle`` entries are (M2, weight) pairs understood as a
    rectangle-rule discretization of the continuum density: each sample
    contributes weight/(2 pi) times a propagator channel at mass^2 = M2.
    ``m_phys`` lies in [MASS_MIN, MASS_MAX] and each M2 in the square of
    that range; ``Z`` lies in [Z_MIN, 1] and each weight in [0, WEIGHT_MAX].
    """

    Z: float = 1.0
    m_phys: float = 1.0
    multiparticle: tuple = ()

    def __post_init__(self):
        check_range("Z", self.Z, Z_MIN, 1.0)
        check_range("m_phys", self.m_phys)
        for m2, w in self.multiparticle:
            check_range("multiparticle M2", m2, MASS_MIN ** 2, MASS_MAX ** 2)
            check_range("multiparticle weights", w, 0.0, WEIGHT_MAX)

    def channels(self) -> list[tuple[float, float]]:
        """(coefficient, M2) pairs entering the spectral sums."""
        chans = [(self.Z, self.m_phys ** 2)]
        chans.extend((w / (2.0 * PI), m2) for m2, w in self.multiparticle)
        return chans


# ----------------------------------------------------------------------
# generic first-order assembly
# ----------------------------------------------------------------------
def entropy_order1_generic(beta0: EpsSeries, beta1: EpsSeries,
                           t00: EpsSeries, t10: EpsSeries,
                           W0: float, W1: float,
                           lambda0: float) -> EpsSeries:
    """First-order entropy from its trace building blocks.

        log(b0) - t00/b0 - lambda0 (W1/W0) [b1 t00 - b0 t10] / b0^2

    where b_i are the state traces and t_i0 the Tr[rho_i log(rho_0)]
    blocks.  The weights are reals (a ``Fraction`` too); each goes
    through ``float``; ``W0`` must be positive and finite, ``W1`` and
    ``lambda0`` finite.  Pure series assembly; division errors propagate,
    and a coefficient past the float range is refused (NonFiniteError).
    """
    check_positive("W0", W0)
    check_range("W1", float(W1), -sys.float_info.max, sys.float_info.max)
    check_range("lambda0", lambda0, -sys.float_info.max, sys.float_info.max)
    w = float(W1) / float(W0)
    b0sq = beta0 * beta0
    first = (beta1 * t00 - beta0 * t10) / b0sq
    result = beta0.log() - t00 / beta0 - first.scale(lambda0 * w)
    if not all(map(cmath.isfinite, result.coeffs.values())):
        raise NonFiniteError(f"entropy_order1_generic at W0 = {W0!r}, W1 = {W1!r}, "
                             f"lambda0 = {lambda0!r} leaves the float range")
    return result


def order1_blocks_n2(params: SchemeParams) -> tuple[EpsSeries, EpsSeries,
                                                    EpsSeries, EpsSeries]:
    """The two-external-point building blocks for the generic assembly.

    Conventions: the zero-order diagonal state is taken per momentum mode
    as 1/(p^2 - m^2) (trace = stvol * delta_0) and the first-order blocks
    carry the dimensionless-coupling factor mu^-eps.  Feeding these into
    :func:`entropy_order1_generic` with weights (1, 1/2) reproduces the
    assembled two-point entropy up to a constant +i pi/2 from the branch of
    the leading log; the real part is exact.
    """
    order, m2 = params.order, params.m2
    # d0, d1 start at eps^-1 and x0, x1 at eps^-2: each operand is built only
    # through the order its block keeps, eps^order (t10: eps^(order - 1))
    d0 = delta_series_m2(0, m2, order + 1)
    mu_fac = power_series(params.mu, -1.0, order + 2)
    beta0 = d0.truncate(order).scale(params.stvol)
    beta1 = (d0 * delta_series_m2(1, m2, order + 1) * mu_fac).scale(-1j * params.stvol)
    t00 = chi_series_m2(0, m2, order).scale(-params.stvol)
    t10 = (d0 * chi_series_m2(1, m2, order) * mu_fac).scale(1j * params.stvol)
    return beta0, beta1, t00, t10


# ----------------------------------------------------------------------
# two-point entropies, orders 0 and 1
# ----------------------------------------------------------------------
def _two_point_reduced_series(params: SchemeParams, j: int, weight: int) -> EpsSeries:
    """log(stvol * D_j) + weight * (H_j - H_{j-d/2} + log m^2).

    The common shape of the diagonal-state entropies: D_j is the
    i-stripped tadpole power and the ratio carries the real log branch.
    """
    order = params.order
    # D_j starts at eps^-1 (j <= 1), so its log is known through eps^order
    dj = delta_stripped_series_m2(j, params.m2, order - 1)
    ratio = chi_over_delta_series_m2(j, params.m2, order, real_branch=True)
    return dj.scale(params.stvol).log() + ratio.scale(float(weight))


def s_ext_2_order0(params: SchemeParams) -> EntropyBreakdown:
    """Entropy of the two-point reduced state at zeroth order.

    Expansion: -2/eps - 1 + log(m0^4 TV / (4 pi^2 eps)) + O(eps).
    """
    return EntropyBreakdown("ext2_order0", _two_point_reduced_series(params, 0, 1), params)


def s_ext_2_order1(params: SchemeParams) -> EntropyBreakdown:
    """First-order (in the coupling) correction to the two-point entropy,
    (lambda0/2) D_1 (H_1 - H_{1-d/2} + H_{-d/2} - H_0) mu^-eps.

    Expansion: (lambda0/2) [1/(4 pi^2 eps)
               + (2 gamma - 1 + log(m0^4/(16 pi^2 mu^4)))/(16 pi^2)].
    """
    order = params.order
    # D_1 starts at eps^-1; the bracket's two poles cancel, so it starts at eps^0
    d1 = delta_stripped_series_m2(1, params.m2, order + 1)
    bracket = (
        chi_over_delta_series_m2(1, params.m2, order + 1, real_branch=True)
        - chi_over_delta_series_m2(0, params.m2, order + 1, real_branch=True)
    )
    mu_fac = power_series(params.mu, -1.0, order + 1)
    series = (d1 * bracket * mu_fac).scale(0.5 * params.lambda0)
    return EntropyBreakdown("ext2_order1", series, params)


def s_ext_2_total(params: SchemeParams, mode: str = "closed") -> EntropyBreakdown:
    """Two-point entropy through first order.

    ``mode="closed"`` returns the quoted combined expansion

        (lambda0/(8 pi^2) - 1)/eps - log(eps) - 1/2 + log(m0^4 TV/(4 pi^2))
        + (lambda0/(32 pi^2)) (2 gamma - 1 + log(m0^4/(16 pi^2 mu^4)))

    ``mode="assembled"`` returns the sum of the order-0 and order-1 pieces,
    which differs from the closed expansion by 1/eps + 1/2 (a known
    inconsistency of the combined form; the check suite reports it).
    """
    if mode == "assembled":
        series = s_ext_2_order0(params).series + s_ext_2_order1(params).series
        return EntropyBreakdown("ext2_total", series, params)
    if mode != "closed":
        raise InputError(f"unknown mode {mode!r}")
    lam = params.lambda0
    m0, mu, tv = params.m0, params.mu, params.tv
    series = EpsSeries(
        {
            (-1, 0): lam / (8.0 * PI ** 2) - 1.0,
            (0, 1): -1.0,
            (0, 0): (
                -0.5
                + math.log(m0 ** 4 * tv / (4.0 * PI ** 2))
                + lam / (32.0 * PI ** 2)
                * (2.0 * GAMMA - 1.0 + math.log(m0 ** 4 / (16.0 * PI ** 2 * mu ** 4)))
            ),
        },
        kmax=0,
    )
    return EntropyBreakdown("ext2_total", series, params)


# ----------------------------------------------------------------------
# first-order normalized state: external / internal / total
# ----------------------------------------------------------------------
def s_ext_21(params: SchemeParams) -> EntropyBreakdown:
    """External entropy of the normalized first-order two-point state.

    Expansion: -4/eps + 2 + log(m0^4 TV/(4 pi^2 eps)) + O(eps).
    """
    return EntropyBreakdown("ext21", _two_point_reduced_series(params, 1, 2), params)


def s_int_21(params: SchemeParams) -> EntropyBreakdown:
    """Internal entropy of the normalized first-order two-point state.

    Identical series to the zeroth-order external entropy.
    """
    return EntropyBreakdown("int21", _two_point_reduced_series(params, 0, 1), params)


def s_total_21(params: SchemeParams, cfg: ct.ContourConfig | None = None) -> EntropyBreakdown:
    """Replica-limit entropy of the full first-order two-point state.

    Expansion: tau + log(m0^4 TV/(32 pi^4 eps^2)) + O(eps), where tau (or,
    given ``cfg``, the regulated contour ratio at its cut) stands in for the
    ratio of the contour coefficients.

    The m0^4 under the log already contains the log(m0^2) carried by that
    ratio (the reading fixed by the mutual-information identity), so only
    m0^2 is added here.
    """
    ab = ct.ratio_AB(params.m0, cfg)
    rest = math.log(params.m2 * params.tv / (32.0 * PI ** 4))
    series = EpsSeries({(0, 1): -2.0, (0, 0): ab + rest}, kmax=0)
    return EntropyBreakdown("total21", series, params)


def mutual_information_21(params: SchemeParams) -> EntropyBreakdown:
    """Mutual information between real and virtual states at first order.

    Quoted form: -6/eps + 1 - tau + log(2 m0^4 TV).  It agrees coefficient
    by coefficient with ext21 + int21 - total21 (the check suite composes
    and compares the two).
    """
    series = EpsSeries(
        {
            (-1, 0): -6.0,
            (0, 0): 1.0 - ct.tau() + math.log(2.0 * params.m0 ** 4 * params.tv),
        },
        kmax=0,
    )
    return EntropyBreakdown("mutual21", series, params)


def _conditional_21(name: str, given) -> Callable[[SchemeParams], EntropyBreakdown]:
    """Builder of total21 minus the entropy ``given`` of the conditioning state."""
    return lambda p: EntropyBreakdown(name, s_total_21(p).series - given(p).series, p)


# ----------------------------------------------------------------------
# replica traces of the first-order state
# ----------------------------------------------------------------------
def renyi_trace_n(n: int, params: SchemeParams,
                  cfg: ct.ContourConfig = ct.ContourConfig()) -> complex:
    """Regulated momentum integral of the n-th power of the bubble.

    This is the nontrivial factor of the n-th replica trace: the d^4r
    integral of eta(r)^n over the timelike ray, evaluated on the contour
    parametrization t = sqrt(r^2/(r^2 + 4 m0^2)):

        (-i)^n 2 m0^(4-2n) / (pi^2 (32 pi^2)^n)
            * int_0^hi t^(3-n) (1-t^2)^(n-3) atanh(t)^n dt

    Finite for n >= 3 (hi = 1); for n = 2 the endpoint diverges and the
    value is regulated at hi = 1 - endpoint_cut.  A value past the float
    range (a large n, or a small m0), or one that underflows below the
    normal range (a large m0), is refused (NonFiniteError).
    """
    if n < 2:
        raise InputError("replica power n must be >= 2")
    hi = 1.0 if n >= 3 else 1.0 - cfg.endpoint_cut

    def value():
        val = _quad(lambda t: t ** (3 - n) * (1.0 - t * t) ** (n - 3)
                    * np.arctanh(t) ** n, 0.0, hi)
        return (-1j) ** n * 2.0 * params.m0 ** (4 - 2 * n) \
            / (PI ** 2 * (32.0 * PI ** 2) ** n) * val

    return _in_float_range(value, "renyi_trace_n(%d) at m0 = %r", n, params.m0)


def renyi_trace_radial(n: int, params: SchemeParams,
                       cfg: ct.ContourConfig = ct.ContourConfig()) -> complex:
    """Cross-check of :func:`renyi_trace_n` by direct radial quadrature.

    Integrates (1/8 pi^2) r^3 eta(r^2)^n dr with the closed d=4 bubble,
    compactified through r = u/(1-u).  Independent of the contour
    parametrization used by the main routine.  The integral is split at
    the two-particle scale r = 2 m0: one adaptive pass over the whole range
    can stop on too few points there and report a false convergence.
    """
    if n < 2:
        raise InputError("replica power n must be >= 2")
    m2 = params.m2
    hi = 1.0
    if n == 2:
        t = 1.0 - cfg.endpoint_cut
        r_cut = 2.0 * params.m0 * t / math.sqrt(1.0 - t * t)
        hi = r_cut / (1.0 + r_cut)

    def f(u: float) -> complex:
        r = u / (1.0 - u)
        jac = 1.0 / (1.0 - u) ** 2
        return r ** 3 * jac * eta_closed_d4(r * r, m2) ** n

    u_t = min(2.0 * params.m0 / (1.0 + 2.0 * params.m0), hi)
    return (complex_quad(f, 0.0, u_t) + complex_quad(f, u_t, hi)) / (8.0 * PI ** 2)


def plane_wave_trace(params: SchemeParams) -> float:
    """Trace of the two-point state against a plane-wave observable: 1/(2TV)."""
    return 1.0 / params.stvol


# ----------------------------------------------------------------------
# zero-point (vacuum) entropy at first order
# ----------------------------------------------------------------------
def vacuum_coefficients(mu: float) -> tuple[float, float]:
    """The constants (vacA, vacB) of the vacuum-entropy finite coefficient.

    Named to keep them apart from the contour pair (a, b); they are
    functions of the scale mu only, which lies in [MASS_MIN, MASS_MAX].
    """
    check_range("mu", mu)
    lx = math.log(4.0 * PI * mu)
    vac_a = 96.0 * PI ** 2 * (1.0 - GAMMA + math.log(4.0 * PI * mu ** 2))
    vac_b = 18.0 + 12.0 * (GAMMA - 2.0) * GAMMA + PI ** 2 \
        + 12.0 * lx * (lx + 2.0 - 2.0 * GAMMA)
    return vac_a, vac_b


def vacuum_mass_log_term(m0: float, mu: float) -> float:
    """The mass-log piece of the vacuum finite coefficient:

    48 m0^4 log(m0) [-1 + gamma + log(m0/(4 pi mu))]; vanishes at m0 = 1.
    Both m0 and mu lie in [MASS_MIN, MASS_MAX].
    """
    check_range("m0", m0)
    check_range("mu", mu)
    return 48.0 * m0 ** 4 * math.log(m0) \
        * (-1.0 + GAMMA + math.log(m0 / (4.0 * PI * mu)))


def s_vacuum_order1(params: SchemeParams) -> EntropyBreakdown:
    """First-order entropy of the zero-point state, as S / log(2TV).

        1 - (lambda0/4) TV [ m0^4/(64 pi^4) eps^-2
            + ( m0^4/(64 pi^4) (gamma - 1 - log(4 pi mu / m0^2)) - 8 pi^2 ) eps^-1
            + (vacA + vacB m0^4 + masslog)/(1536 pi^4) ] + O(eps)

    The series is the ratio of the entropy to log(2TV).
    """
    m0, mu, lam, tv = params.m0, params.mu, params.lambda0, params.tv
    c = -(lam / 4.0) * tv
    series = EpsSeries(
        {
            (-2, 0): c * m0 ** 4 / (64.0 * PI ** 4),
            (-1, 0): c * (
                m0 ** 4 / (64.0 * PI ** 4)
                * (GAMMA - 1.0 - math.log(4.0 * PI * mu / params.m2))
                - 8.0 * PI ** 2
            ),
            (0, 0): vacuum_finite_coefficient(m0, mu, lam, tv, "closed_form"),
        },
        kmax=0,
    )
    return EntropyBreakdown("vacuum21", series, params)


def vacuum_finite_coefficient(m0: float, mu: float, lambda0: float = 1.0,
                              tv: float = 1.0,
                              convention: str = "closed_form") -> float:
    """Finite (eps^0) coefficient of the vacuum entropy as a function of m0.

    ``convention="closed_form"`` evaluates the combination
    1 - (lambda0 TV/4)(vacA + vacB m0^4 + masslog)/(1536 pi^4), which is
    strictly decreasing in m0 for every mu (provably: the derivative's
    quadratic in log m0 has minimum 12 + 4 pi^2 > 0).

    ``convention="figure"`` evaluates
    1 + (lambda0 TV/4)(vacA + vacB m0^4 - masslog)/(1536 pi^4), the variant
    that reproduces the published curve shape: exactly one interior minimum
    in m0 whose location decreases as mu increases.  The figure command
    uses this convention by default and records it in its output header.
    Both m0 and mu lie in [MASS_MIN, MASS_MAX], and ``lambda0`` and ``tv``
    in the ranges of ``SchemeParams``.
    """
    check_coupling_and_tv(lambda0, tv)
    vac_a, vac_b = vacuum_coefficients(mu)
    masslog = vacuum_mass_log_term(m0, mu)
    if convention == "closed_form":
        return 1.0 - (lambda0 * tv / 4.0) * (vac_a + vac_b * m0 ** 4 + masslog) \
            / (1536.0 * PI ** 4)
    if convention == "figure":
        return 1.0 + (lambda0 * tv / 4.0) * (vac_a + vac_b * m0 ** 4 - masslog) \
            / (1536.0 * PI ** 4)
    raise InputError(f"unknown convention {convention!r}")


# ----------------------------------------------------------------------
# non-perturbative spectral entropy
# ----------------------------------------------------------------------
def s_nonperturbative(sd: SpectralDensity, params: SchemeParams) -> EntropyBreakdown:
    """Entropy of the spectral-representation two-point state.

    With a one-particle-only density this is the zeroth-order two-point
    entropy with the bare mass replaced by the physical mass (the field
    strength Z cancels against the normalization).  Multiparticle samples
    are summed channel by channel: each contributes its weighted tadpole
    to the normalization and its weighted log-ratio to the mode sum.
    """
    order = params.order
    chans = sd.channels()
    norm = EpsSeries.zero(order)
    mode_sum = EpsSeries.zero(order)
    for coef, m2 in chans:
        if coef == 0.0:
            continue
        d0 = delta_stripped_series_m2(0, m2, order)
        ratio = chi_over_delta_series_m2(0, m2, order, real_branch=True)
        norm = norm + d0.scale(coef)
        mode_sum = mode_sum + (d0 * (ratio - math.log(coef))).scale(coef)
    # norm starts at eps^-1: its log needs it only through eps^(order - 1)
    series = norm.truncate(order - 1).scale(params.stvol).log() + mode_sum / norm
    return EntropyBreakdown("nonpert", series, params)


# ----------------------------------------------------------------------
# the quantity table, for the CLI and the check suite
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Quantity:
    """A named entropy's builder, one-line meaning and ``reads``: the inputs
    among ``m0``, ``mu``, ``lambda0``, ``tv``, ``contour`` (total21's endpoint
    cut ``cfg``) and ``spectrum`` (nonpert's density ``sd``) that
    move a printed part; any other input moves none beyond rounding."""

    build: Callable[..., EntropyBreakdown]
    reads: frozenset
    meaning: str


def _row(build, reads: str, meaning: str) -> Quantity:
    return Quantity(build, frozenset(reads.split()), meaning)


QUANTITIES: dict[str, Quantity] = {
    "ext2_order0": _row(s_ext_2_order0, "m0 tv",
                        "coupling-free entropy of the two-point reduced state"),
    "ext2_order1": _row(s_ext_2_order1, "m0 mu lambda0",
                        "first-order (in lambda0) correction to ext2_order0"),
    "ext2_total": _row(s_ext_2_total, "m0 mu lambda0 tv",
                       "ext2_order0 + ext2_order1, as the quoted closed form"),
    "ext21": _row(s_ext_21, "m0 tv", "entropy of the externally reduced first-order state"),
    "int21": _row(s_int_21, "m0 tv", "entropy of the internally reduced first-order state"),
    "total21": _row(s_total_21, "m0 tv contour",
                    "replica-limit entropy of the full first-order state"),
    "mutual21": _row(mutual_information_21, "m0 tv",
                     "mutual information ext21 + int21 - total21"),
    "cond_ext_int": _row(_conditional_21("cond_ext_int", s_int_21), "",
                         "conditional entropy total21 - int21; finite part ~ -0.102"),
    "cond_int_ext": _row(_conditional_21("cond_int_ext", s_ext_21), "",
                         "conditional entropy total21 - ext21; finite part ~ -3.102"),
    "vacuum21": _row(s_vacuum_order1, "m0 mu lambda0 tv",
                     "first-order entropy of the zero-point state"),
    # m0 only through the default density: with an explicit sd (--m-phys) the
    # mass comes from sd, and m0 is echoed but moves no part
    "nonpert": _row(lambda params, sd=None: s_nonperturbative(
                        sd or SpectralDensity(m_phys=params.m0), params), "m0 tv spectrum",
                    "spectral-representation entropy; by default one particle at m0"),
    "tau": _row(lambda p: EntropyBreakdown("tau", EpsSeries({(0, 0): ct.tau()}, kmax=0), p),
                "", "the contour constant tau, as a finite series"),
}

QUANTITY_NAMES = tuple(QUANTITIES)


def compute_quantity(name: str, params: SchemeParams, *,
                     use_tau: bool = True,
                     cfg: ct.ContourConfig | None = None,
                     sd: SpectralDensity | None = None) -> EntropyBreakdown:
    """Evaluate the quantity ``name`` of :data:`QUANTITIES` for the given
    scheme.  The quantity that reads ``contour`` gets tau when ``use_tau``,
    else the regulated ratio at ``cfg`` (default cut if None); a ``cfg``
    given with ``use_tau`` is refused.  Only the quantity that reads
    ``spectrum`` gets ``sd``."""
    quantity = QUANTITIES.get(name)
    if quantity is None:
        raise UnknownQuantityError(f"unknown quantity {name!r}; known: {sorted(QUANTITIES)}")
    if use_tau and cfg is not None:
        raise InputError("a contour cfg selects the regulated ratio; pass use_tau=False "
                         "with it")
    cfg = None if use_tau else cfg or ct.ContourConfig()
    extra = {"cfg": cfg} if "contour" in quantity.reads else {}
    if "spectrum" in quantity.reads:
        extra["sd"] = sd
    return quantity.build(params, **extra)
