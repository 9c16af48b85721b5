"""Relations among total traces of the vacuum, two- and four-point states.

Tracing the external legs of an n-point state produces vacuum diagrams, so
the first-order vacuum trace decomposes into the traces of the higher-point
states.  For the quartic interaction,

    Tr(rho_vac) = 1 - i lambda0 [ Tr(rho_4) + delta0 Tr(rho_2) - delta0^2 ]

and the phi^r generalization replaces the bracket by a delta0-weighted sum.
All traces are series valued so that the regularization divergences flow
through transparently.

The two proportionality checks relate second-order vacuum contributions to
the first-order two- and four-point traces.  Both sides are assembled here
from the underlying propagator products; the proportionality constants are
*reported*, not asserted, because their normalization is convention
dependent (see :func:`ratio_checks`).
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

from .epsseries import EpsSeries
from .errors import LoopEntropyError
from .loops import SchemeParams, delta_series_m2


@dataclass(frozen=True)
class TraceSet:
    """User-supplied state traces for a phi^r interaction.

    ``traces`` maps the external-point count n to its series-valued trace;
    the keys must be exactly {r, r-2, ..., 2}.
    """

    r: int
    traces: dict
    delta0: EpsSeries
    lambda0: float = 1.0

    def __post_init__(self):
        if self.r < 4 or self.r % 2:
            raise ValueError("r must be an even integer >= 4")
        expected = {self.r - 2 * j for j in range(self.r // 2)}
        if set(self.traces) != expected:
            raise ValueError(
                f"traces must have keys exactly {sorted(expected)}, "
                f"got {sorted(self.traces)}"
            )


def vacuum_trace_phi4(ts: TraceSet) -> EpsSeries:
    """First-order vacuum trace from the quartic-state traces."""
    if ts.r != 4:
        raise LoopEntropyError(f"vacuum_trace_phi4 needs r = 4, got r = {ts.r}")
    bracket = ts.traces[4] + ts.delta0 * ts.traces[2] - ts.delta0 * ts.delta0
    return EpsSeries.constant(1.0) + bracket.scale(-1j * ts.lambda0)


def vacuum_trace_phir(ts: TraceSet) -> EpsSeries:
    """First-order vacuum trace for a general phi^r interaction.

        1 - i lambda0 [ -(r/2 - 1) delta0^(r/2)
                        + sum_{j=0}^{r/2-1} delta0^j Tr(rho_{r-2j}) ]
    """
    half = ts.r // 2
    bracket = (ts.delta0 ** half).scale(-(half - 1.0))
    d0pow = EpsSeries.constant(1.0)
    for j in range(half):
        bracket = bracket + d0pow * ts.traces[ts.r - 2 * j]
        d0pow = d0pow * ts.delta0
    return EpsSeries.constant(1.0) + bracket.scale(-1j * ts.lambda0)


def tr_rho4_inferred(Z: float, m_phys: float, e0_2t: float,
                     params: SchemeParams, overlap_sq: float = 1.0) -> EpsSeries:
    """Four-point trace inferred from the vacuum overlap.

    ``e0_2t`` is the product of the vacuum energy and the total time extent
    2T (only the product enters, through the phase exp(-i e0_2t));
    ``overlap_sq`` is the squared overlap of the free and interacting vacua.

        (i/lambda0) [overlap_sq e^(-i e0_2t) - 1]
            + delta0(m0^2) [delta0(m0^2) - 2TV Z delta0(m_phys^2)]
    """
    if params.lambda0 == 0.0:
        raise LoopEntropyError("tr_rho4_inferred requires a nonzero coupling")
    vac = overlap_sq * cmath.exp(-1j * e0_2t)
    d0_bare = delta_series_m2(0, params.m2, params.order)
    d0_phys = delta_series_m2(0, m_phys * m_phys, params.order)
    head = EpsSeries.constant((1j / params.lambda0) * (vac - 1.0))
    return head + d0_bare * (d0_bare - d0_phys.scale(params.stvol * Z))


def ratio_checks(params: SchemeParams) -> dict:
    """Evaluate both proportionality relations and report the ratios.

    First relation: the tadpole-squared second-order vacuum contribution
    over the first-order two-point trace.  Assembled from the propagator
    products (the shared factor integral d^4x propagator^2 = -delta_1
    cancels), the ratio equals -i lambda0 delta0 exactly, so the reported
    normalized ratio is the unit series.

    Second relation: the fully-contracted second-order vacuum contribution
    over the first-order four-point trace.  The shared quadruple-propagator
    integral cancels; stated against -i lambda0 the honest quotient retains
    a factor delta0^2, which is recorded as the normalization constant of
    the "~" rather than asserted away.

    Both ratios scale linearly in lambda0, which must be nonzero.
    """
    lam = params.lambda0
    if lam == 0.0:
        raise LoopEntropyError("ratio_checks requires a nonzero coupling lambda0")
    d0 = delta_series_m2(0, params.m2, params.order)
    d1 = delta_series_m2(1, params.m2, params.order)
    d0_sq = d0 * d0
    two_tv = params.stvol
    # shared double-propagator integral: int d^4x Delta(x)^2 = -delta_1
    q2 = d1.scale(-1.0)
    tr_rho21 = (d0 * q2).scale(-1j * lam * two_tv)
    tr_vac2_tadpoles = (d0_sq * q2).scale(-(lam ** 2) * two_tv)
    ratio_a = tr_vac2_tadpoles / tr_rho21
    # second pair: the shared quadruple-propagator integral cancels, so the
    # quotient is (-lam^2 delta0^2) / (-i lam) without evaluating it
    ratio_b = d0_sq.scale(-(lam ** 2)) / EpsSeries.constant(-1j * lam)
    return {
        "tadpole_pair": {
            "ratio": ratio_a,
            "normalized": ratio_a / d0.scale(-1j * lam),
            "normalization_note": "exact; shared propagator-squared integral cancels",
        },
        "fully_contracted": {
            "ratio": ratio_b,
            "normalization_constant": d0_sq,
            "normalized": ratio_b / EpsSeries.constant(-1j * lam) / d0_sq,
            "normalization_note": (
                "quotient retains delta0^2; recorded as the '~' normalization "
                "constant, not asserted to be 1"
            ),
        },
        "lambda0": lam,
    }
