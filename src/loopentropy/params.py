"""The evaluation context and the input ranges every entry point checks.

``SchemeParams`` (bare mass, scale, coupling, volume, series order), the
bounds that keep every quantity finite, and the range checks that name the
offending input.  The module needs nothing from the series stack, so the
CLI can parse and check its input without loading it.  ``loops`` uses
``SchemeParams`` and ``MAX_ORDER``, so they can be imported from it too;
every other name is imported from here.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

# series run internally to order + 2 at most, which must stay below EXACT_ORDER (64)
MAX_ORDER = 32

# masses and scales lie in [MASS_MIN, MASS_MAX], so that their fourth
# powers, and ratios of fourth powers, are finite nonzero floats
MASS_MIN = 1e-30
MASS_MAX = 1e30

# the coupling is 0 (the free theory) or has a magnitude in [COUPLING_MIN,
# COUPLING_MAX], and TV lies in [TV_MIN, TV_MAX]: with masses and scales in
# range, every quantity and trace ratio stays finite (lambda0^2 TV m0^8 and
# log(m0^4 TV) included), and lambda0^2 in the trace ratios stays nonzero
COUPLING_MIN = 1e-30
COUPLING_MAX = 1e30
TV_MIN = 1e-30
TV_MAX = 1e30

# a spectral density's field strength Z lies in [Z_MIN, 1] and each of its
# multiparticle weights in [0, WEIGHT_MAX]: with the masses in range, the
# channel sums neither underflow to a zero normalization nor overflow
Z_MIN = 1e-30
WEIGHT_MAX = 1e30


def check_int_range(name: str, value, lo: int, hi: int) -> None:
    """Raise ValueError unless ``value`` is an integer in [lo, hi]."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, not {value!r}")
    if not lo <= value <= hi:
        raise ValueError(f"{name} must lie in [{lo}, {hi}], not {value}")


def check_mass_range(name: str, value: float, power: int = 1) -> None:
    """Raise ValueError unless ``value`` lies in [MASS_MIN, MASS_MAX]**power
    (``power=2`` for a squared mass)."""
    lo, hi = MASS_MIN ** power, MASS_MAX ** power
    if not lo <= value <= hi:
        raise ValueError(f"{name} must lie in [{lo:g}, {hi:g}], not {value!r}")


def check_coupling_and_tv(lambda0: float, tv: float) -> None:
    """Raise ValueError unless ``lambda0`` is 0 or its magnitude lies in
    [COUPLING_MIN, COUPLING_MAX], and ``tv`` lies in [TV_MIN, TV_MAX]."""
    if lambda0 != 0 and not COUPLING_MIN <= abs(lambda0) <= COUPLING_MAX:
        raise ValueError(f"lambda0 must be 0 or have a magnitude in "
                         f"[{COUPLING_MIN:g}, {COUPLING_MAX:g}], not {lambda0!r}")
    if not TV_MIN <= tv <= TV_MAX:
        raise ValueError(f"tv must lie in [{TV_MIN:g}, {TV_MAX:g}], not {tv!r}")


@dataclass(frozen=True)
class SchemeParams:
    """Evaluation context: bare mass, scale, coupling, volume TV, series order.

    The mass ``m0`` and the scale ``mu`` lie in [MASS_MIN, MASS_MAX], ``tv``
    in [TV_MIN, TV_MAX], and ``lambda0`` is 0 or has a magnitude in
    [COUPLING_MIN, COUPLING_MAX].  These defaults are the CLI's too.
    """

    m0: float = 1.0
    mu: float = 1.0
    lambda0: float = 1.0
    tv: float = 1.0
    order: int = 4

    def __post_init__(self):
        check_coupling_and_tv(self.lambda0, self.tv)
        check_mass_range("m0", self.m0)
        check_mass_range("mu", self.mu)
        check_int_range("order", self.order, 0, MAX_ORDER)

    @classmethod
    def from_tv(cls, **inputs) -> "SchemeParams":
        """The constructor under its old name, kept for the benchmark harness."""
        return cls(**inputs)

    @property
    def stvol(self) -> float:  # the full spacetime volume 2TV, delta^4(p=0) in momentum space
        return 2.0 * self.tv

    @property
    def m2(self) -> float:
        return self.m0 * self.m0
