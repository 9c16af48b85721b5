"""The evaluation context and the input ranges every entry point checks.

``SchemeParams`` (bare mass, scale, coupling, volume, series order), the
bounds that keep every quantity finite, and the range checks that name the
offending input.  The module needs nothing from the series stack, so the
CLI can parse and check its input without loading it.  ``loops`` uses
``SchemeParams`` and ``MAX_ORDER``, so they can be imported from it too;
every other name is imported from here.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

from .errors import InputError

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

# the seed the ``check`` command draws its sampled points with by default
CHECK_SEED = 20240817


def check_int_range(name: str, value, lo: int, hi: int) -> None:
    """Raise InputError unless ``value`` is an integer in [lo, hi]."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise InputError(f"{name} must be an integer, not {value!r}")
    if not lo <= value <= hi:
        raise InputError(f"{name} must lie in [{lo}, {hi}], not {value}")


def check_range(name: str, value: float, lo: float = MASS_MIN, hi: float = MASS_MAX) -> None:
    """Raise InputError unless ``value`` lies in [lo, hi], by default the
    mass range (a NaN lies in no range)."""
    if not lo <= value <= hi:
        raise InputError(f"{name} must lie in [{lo:g}, {hi:g}], not {value!r}")


def check_coupling_and_tv(lambda0: float, tv: float) -> None:
    """Raise InputError unless the coupling ``lambda0`` is 0 or has a
    magnitude in [COUPLING_MIN, COUPLING_MAX], and ``tv`` lies in [TV_MIN,
    TV_MAX]."""
    if lambda0 != 0 and not COUPLING_MIN <= abs(lambda0) <= COUPLING_MAX:
        raise InputError(f"lambda0 must be 0 or have a magnitude in "
                         f"[{COUPLING_MIN:g}, {COUPLING_MAX:g}], not {lambda0!r}")
    check_range("tv", tv, TV_MIN, TV_MAX)


def check_positive(name: str, value: float) -> None:
    """Raise InputError unless ``value`` is a positive finite number."""
    if not 0.0 < value < math.inf:
        raise InputError(f"{name} must be positive and finite, not {value!r}")


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
        check_range("m0", self.m0)
        check_range("mu", self.mu)
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
