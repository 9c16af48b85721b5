"""Contour coefficients of the replica-limit total entropy.

The n -> 1 replica limit of the two-point first-order state produces the
ratio A/B of two contour integrals of the one-loop bubble along the segment
s in [0, -i).  Parametrizing s = -i t maps them to real integrals over
t in [0, 1):

    b = (1/8 pi^2) int_0^1 t^2 atanh(t) / (1 - t^2)^2 dt
    a = (1/8 pi^2) int_0^1 (same weight) * [log((1-t^2) atanh(t)/(8 pi^2 t)) + i pi/2] dt

Both diverge at the t -> 1 endpoint, so they are evaluated with an endpoint
cut delta and reported together with it.  The closed-form constant

    tau = (1/4) [ -2 euler_gamma - log 4 + 12 + 3 zeta(3) ]

is the canonical finite stand-in for a/b; the regulated quadrature ratio
does not converge to it as delta -> 0 (its real part drifts logarithmically),
so the two are reported side by side and never asserted equal.

The quadratures are ``loops``' and are imported when a coefficient is first
asked for, so that ``tau`` alone loads no series or loop module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import specialfns as sf
from ._lazy import LazyModule

np = LazyModule("numpy")

PI = sf.PI


@dataclass(frozen=True)
class ContourConfig:
    """Endpoint regulator for the contour quadratures (relative tolerance
    ``loops.QUAD_REL_TOL`` = 1e-9)."""

    endpoint_cut: float = 0.05

    def __post_init__(self):
        if not 0.0 < self.endpoint_cut < 1.0:
            raise ValueError(f"endpoint_cut must lie in (0, 1), not {self.endpoint_cut!r}")


def _weight(t: float) -> float:
    return t * t * np.arctanh(t) / (1.0 - t * t) ** 2


def coeff_b(cfg: ContourConfig = ContourConfig()) -> complex:
    """Regulated b coefficient; real and positive, divergent as the cut -> 0."""
    from .loops import _quad

    val = _quad(_weight, 0.0, 1.0 - cfg.endpoint_cut)
    return complex(val / (8.0 * PI ** 2))


def _log_factor(t: float) -> complex:
    # log[(1 - t^2) atanh(t) / (8 pi^2 t)] + i pi/2; the t -> 0 limit is
    # log(1/(8 pi^2)) + i pi/2, i.e. log(i/(8 pi^2)).
    if t == 0.0:
        return math.log(1.0 / (8.0 * PI ** 2)) + 0.5j * PI
    return math.log((1.0 - t * t) * np.arctanh(t) / (8.0 * PI ** 2 * t)) + 0.5j * PI


def coeff_a(cfg: ContourConfig = ContourConfig()) -> complex:
    """Regulated a coefficient (complex; imaginary part is (pi/2) * b)."""
    from .loops import complex_quad

    return complex_quad(lambda t: _weight(t) * _log_factor(t),
                        0.0, 1.0 - cfg.endpoint_cut) / (8.0 * PI ** 2)


def tau() -> float:
    """Closed-form finite constant replacing a/b in the printed entropies."""
    g, z3, _ = sf.constants()
    return 0.25 * (-2.0 * g - math.log(4.0) + 12.0 + 3.0 * z3)


def ratio_ab_regulated(cfg: ContourConfig = ContourConfig()) -> complex:
    """The regulated quadrature ratio a/b at the configured endpoint cut."""
    return coeff_a(cfg) / coeff_b(cfg)


def ratio_AB(m0: float, cfg: ContourConfig | None = None) -> complex:
    """A/B = a/b + log(m0^2), the only m0 dependence of the pair.

    a/b is the closed-form tau without ``cfg`` (default), else the regulated
    quadrature ratio at ``cfg.endpoint_cut``, which the caller should report.
    """
    if m0 <= 0:
        raise ValueError("m0 must be positive")
    head = complex(tau()) if cfg is None else ratio_ab_regulated(cfg)
    return head + 2.0 * math.log(m0)
