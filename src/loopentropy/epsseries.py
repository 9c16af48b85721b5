"""Truncated Laurent series in eps = d - 4 with log(eps) channels.

Every regularized quantity in the library is carried by an :class:`EpsSeries`:
a finite collection of complex coefficients ``c[k, l]`` representing

    sum_{k, l}  c[k, l] * eps**k * log(eps)**l  +  O(eps**(kmax + 1))

``kmax`` is the truncation order: coefficients at powers above it are unknown,
and every operation tracks how far the result can be trusted (mixed-order
arithmetic downgrades to the weaker order).  Pole depth is capped at eps**-4
and log powers at log(eps)**2, the deepest structures that arise from products
of double poles.

The sign convention is eps = d - 4 (dimension above four is positive eps).
Logarithms of negative reals take the +i*pi branch, matching the
m^2 -> m^2 - i0 propagator prescription.

Invariant: every stored coefficient is a nonzero Python ``complex`` whose
key lies within the caps and at or below ``kmax``.  The public constructor
``EpsSeries(coeffs, kmax)`` validates its input to establish it; the kernel's
own operations keep it and build their results through the trusted
``EpsSeries._trusted``, which only drops zeros and powers above ``kmax``.
Two properties of the results are part of the contract, because they fix
the bits of every later sum: the dict keeps the order in which a result's
keys were first produced (a product accumulates in the order of its left
operand's keys), and a sum or product starts each coefficient it creates
from ``0.0 + ...``, which turns a ``-0.0`` part of the first term into
``+0.0``, so the signs of zero parts stay what they have always been.
The power sum behind ``inverse``, ``log`` and ``exp`` (``_power_sum``)
accumulates every power in place in one dict, and keeps both properties: a
coefficient it creates starts from ``0.0 + ...`` at the end of the key
order, as in a sum per power, and one whose sum cancels to zero is dropped
at once, so a later power restarts it there.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass, field
from typing import Mapping

from . import specialfns as sf
from .errors import (
    LogCapError,
    NonInvertibleLeadingTermError,
    TruncationUnderflowError,
)

KMIN_CAP = -4
LOGCAP = 2

# kmax assigned to series that are exact (constants, monomials); large enough
# that mixed arithmetic is always limited by the genuinely truncated operand.
EXACT_ORDER = 64

# entries kept by each memoized expansion (gamma_series, harmonic_series): the
# library's own Gamma keys, (j - 1, -0.5, order + k), and harmonic keys,
# (j - 2, -0.5, order + k), for j <= 4 at every order up to the cap, fit, and
# no caller can grow it further
EXPANSION_CACHE_SIZE = 256


def _cleaned(coeffs: Mapping[tuple[int, int], complex], kmax: int) -> dict:
    out = {}
    for (k, l), c in coeffs.items():
        c = complex(c)
        if c == 0:
            continue
        if l < 0 or l > LOGCAP:
            raise LogCapError(f"log power {l} outside [0, {LOGCAP}]")
        if k < KMIN_CAP:
            raise _pole_depth_error(k)
        if k > kmax:
            continue  # beyond the stated truncation: unknown, not stored
        out[(k, l)] = c
    return out


def _pole_depth_error(k: int) -> TruncationUnderflowError:
    return TruncationUnderflowError(
        f"power eps^{k} below the supported pole depth eps^{KMIN_CAP}"
    )


def _check_pole_depth(coeffs: dict) -> None:
    """Raise for the first key, in insertion order, below the pole depth."""
    for k, _ in coeffs:
        if k < KMIN_CAP:
            raise _pole_depth_error(k)


@dataclass(frozen=True)
class EpsSeries:
    """Immutable truncated Laurent series with log(eps) channels."""

    coeffs: dict = field(default_factory=dict)
    kmax: int = EXACT_ORDER

    def __post_init__(self):
        object.__setattr__(self, "coeffs", _cleaned(self.coeffs, self.kmax))

    @classmethod
    def _trusted(cls, coeffs: dict, kmax: int) -> "EpsSeries":
        """A series from coefficients that already keep the invariant but for
        zeros and powers above ``kmax``, which are dropped; the key order is
        kept and ``__post_init__`` is skipped.  A dict with nothing to drop
        is kept, not copied, so the caller must not change it afterwards."""
        for key, c in coeffs.items():
            if not c or key[0] > kmax:
                coeffs = {key: c for key, c in coeffs.items() if c and key[0] <= kmax}
                break
        out = object.__new__(cls)
        fields = out.__dict__  # the frozen fields, set as __post_init__ would
        fields["coeffs"] = coeffs
        fields["kmax"] = kmax
        return out

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def constant(cls, c: complex, kmax: int = EXACT_ORDER) -> "EpsSeries":
        return cls({(0, 0): complex(c)}, kmax)

    @classmethod
    def monomial(cls, c: complex, k: int, l: int = 0,
                 kmax: int = EXACT_ORDER) -> "EpsSeries":
        return cls({(k, l): complex(c)}, kmax)

    @classmethod
    def zero(cls, kmax: int = EXACT_ORDER) -> "EpsSeries":
        return cls({}, kmax)

    @classmethod
    def log_eps(cls, c: complex = 1.0, kmax: int = EXACT_ORDER) -> "EpsSeries":
        return cls({(0, 1): complex(c)}, kmax)

    # ------------------------------------------------------------------
    # basic queries
    # ------------------------------------------------------------------
    def coefficient(self, k: int, l: int = 0) -> complex:
        return self.coeffs.get((k, l), 0.0 + 0.0j)

    def lead(self) -> int:
        """Leading (lowest) power; kmax + 1 for the zero series."""
        if not self.coeffs:
            return self.kmax + 1
        return min(self.coeffs)[0]

    def is_zero(self) -> bool:
        return not self.coeffs

    def terms(self) -> list[tuple[int, int, complex]]:
        return [(k, l, c) for (k, l), c in sorted(self.coeffs.items())]

    def finite_part(self) -> complex:
        """The eps^0, log^0 coefficient."""
        return self.coefficient(0, 0)

    def max_abs(self) -> float:
        return max((abs(c) for c in self.coeffs.values()), default=0.0)

    # ------------------------------------------------------------------
    # ring operations
    # ------------------------------------------------------------------
    def _coerce(self, other) -> "EpsSeries":
        if isinstance(other, EpsSeries):
            return other
        if isinstance(other, (int, float, complex)):
            return EpsSeries.constant(complex(other))
        return NotImplemented

    def __add__(self, other) -> "EpsSeries":
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        kmax = min(self.kmax, o.kmax)
        out = dict(self.coeffs)
        for key, c in o.coeffs.items():
            out[key] = out.get(key, 0.0) + c
        return EpsSeries._trusted(out, kmax)

    __radd__ = __add__

    def __neg__(self) -> "EpsSeries":
        return EpsSeries._trusted({key: -c for key, c in self.coeffs.items()}, self.kmax)

    def __sub__(self, other) -> "EpsSeries":
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other) -> "EpsSeries":
        return (-self) + other

    def __mul__(self, other, *, cut: int | None = None) -> "EpsSeries":
        """The product, known through the weaker operand's order.

        ``cut`` truncates it further without building the powers above the
        cut; for a cut at or above ``KMIN_CAP`` the result, and any error,
        are those of ``(self * other).truncate(cut)``.
        """
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        lead1, lead2 = self.lead(), o.lead()
        kmax = min(self.kmax + lead2, o.kmax + lead1, EXACT_ORDER)
        keep = kmax if cut is None else min(kmax, cut)
        out: dict[tuple[int, int], complex] = {}
        get = out.get
        right = o.coeffs.items()
        for (k1, l1), c1 in self.coeffs.items():
            for (k2, l2), c2 in right:
                k, l = k1 + k2, l1 + l2
                if k > kmax:
                    continue
                if l > LOGCAP:  # checked through kmax, cut or not
                    raise LogCapError(
                        f"product creates log(eps)^{l} above the cap {LOGCAP}"
                    )
                if k <= keep:
                    out[(k, l)] = get((k, l), 0.0) + c1 * c2
        result = EpsSeries._trusted(out, keep)
        if lead1 + lead2 < KMIN_CAP:
            _check_pole_depth(result.coeffs)  # a product that underflowed to 0 passes
        return result

    __rmul__ = __mul__

    def scale(self, c: complex) -> "EpsSeries":
        c = complex(c)  # a numpy scalar would make numpy coefficients
        return EpsSeries._trusted({key: v * c for key, v in self.coeffs.items()},
                                  self.kmax)

    def shift(self, k0: int) -> "EpsSeries":
        """Multiply by eps**k0 exactly."""
        coeffs = {(k + k0, l): c for (k, l), c in self.coeffs.items()}
        if k0 < 0:
            _check_pole_depth(coeffs)
        return EpsSeries._trusted(coeffs, min(self.kmax + k0, EXACT_ORDER))

    def truncate(self, kmax: int) -> "EpsSeries":
        if kmax >= self.kmax:
            return self
        return EpsSeries._trusted(self.coeffs, kmax)

    def __pow__(self, n: int) -> "EpsSeries":
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return self.inverse() ** (-n)
        out = EpsSeries.constant(1.0)
        base = self
        while n:
            if n & 1:
                out = out * base
            base_needed = n >> 1
            if base_needed:
                base = base * base
            n = base_needed
        return out

    # ------------------------------------------------------------------
    # inverse / division / log / exp
    # ------------------------------------------------------------------
    def _leading_unit(self) -> tuple[complex, int, "EpsSeries"]:
        """Factor self = c * eps^L * (1 + u) with lead(u) >= 1.

        Raises NonInvertibleLeadingTermError when the series is zero or its
        leading power carries log(eps) factors.
        """
        if self.is_zero():
            raise NonInvertibleLeadingTermError("zero series is not invertible")
        L = self.lead()
        c = self.coefficient(L, 0)
        if c == 0 or any(l > 0 and k == L for (k, l) in self.coeffs):
            raise NonInvertibleLeadingTermError(
                "leading power carries a log(eps) factor"
            )
        u_coeffs = {}
        for (k, l), v in self.coeffs.items():
            if (k, l) == (L, 0):
                continue
            u_coeffs[(k - L, l)] = v / c
        u = EpsSeries._trusted(u_coeffs, self.kmax - L)
        return c, L, u

    def inverse(self) -> "EpsSeries":
        c, L, u = self._leading_unit()
        rel_order = self.kmax - L  # u is known through eps^rel_order
        # 1/(1 + u) = sum_m (-u)^m
        geom = _power_sum(EpsSeries.constant(1.0, rel_order), -u, rel_order)
        return geom.scale(1.0 / c).shift(-L)

    def __truediv__(self, other) -> "EpsSeries":
        """``self * other.inverse()``, with the divisor first truncated to the
        order the quotient keeps (its ``kmax`` is unchanged by the cut)."""
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        lead = o.lead()
        return self * o.truncate(max(self.kmax - self.lead() + lead, lead)).inverse()

    def __rtruediv__(self, other) -> "EpsSeries":
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return o / self

    def log(self) -> "EpsSeries":
        """log of the series: log(c) + L*log(eps) + log1p(u).

        The branch of log(c) follows the library policy (+i*pi on the
        negative real axis).
        """
        c, L, u = self._leading_unit()
        rel_order = self.kmax - L
        acc = EpsSeries.constant(sf.principal_log(c), rel_order)
        if L != 0:
            acc = acc + EpsSeries.log_eps(float(L), rel_order)
        return _power_sum(acc, u, rel_order, lambda m: (-1.0) ** (m + 1) / m)

    def exp(self) -> "EpsSeries":
        """exp of the series; inverse of :meth:`log` on its image.

        Requires no pole part.  A log(eps) term at eps^0 must carry an
        integer coefficient (it exponentiates to an exact power of eps);
        anything else has no Laurent-with-logs representation.
        """
        if self.lead() < 0:
            raise NonInvertibleLeadingTermError("exp of a series with poles")
        c01 = self.coefficient(0, 1)
        if self.coefficient(0, 2) != 0:
            raise LogCapError("exp of a log(eps)^2 term is not representable")
        L = round(c01.real)
        if abs(c01 - L) > 1e-9:
            raise NonInvertibleLeadingTermError(
                "exp of a non-integer multiple of log(eps) is not representable"
            )
        c00 = self.coefficient(0, 0)
        rest = EpsSeries._trusted({key: v for key, v in self.coeffs.items()
                                   if key not in ((0, 0), (0, 1))}, self.kmax)
        acc = _power_sum(EpsSeries.constant(1.0, self.kmax), rest, self.kmax,
                         lambda m: 1.0 / math.factorial(m))
        return acc.scale(cmath.exp(c00)).shift(L)

    # ------------------------------------------------------------------
    # evaluation, comparison, serialization
    # ------------------------------------------------------------------
    def evaluate(self, eps: complex) -> complex:
        """Numeric value at a concrete eps (series truncation applies)."""
        log_eps = sf.principal_log(eps)
        total = 0.0 + 0.0j
        for (k, l), c in sorted(self.coeffs.items()):
            total += c * eps ** k * log_eps ** l
        return total

    def max_coeff_diff(self, other: "EpsSeries", through_k: int | None = None) -> float:
        """Largest |coefficient difference| over powers <= through_k."""
        cap = min(self.kmax, other.kmax)
        if through_k is not None:
            cap = min(cap, through_k)
        keys = set(self.coeffs) | set(other.coeffs)
        diff = 0.0
        for k, l in keys:
            if k > cap:
                continue
            diff = max(diff, abs(self.coefficient(k, l) - other.coefficient(k, l)))
        return diff

    def real_part(self) -> "EpsSeries":
        return EpsSeries({key: c.real for key, c in self.coeffs.items()}, self.kmax)

    def imag_part(self) -> "EpsSeries":
        return EpsSeries({key: c.imag for key, c in self.coeffs.items()}, self.kmax)

    def to_json_dict(self) -> dict:
        return {
            "terms": [
                {"k": k, "l": l, "re": c.real, "im": c.imag}
                for (k, l), c in sorted(self.coeffs.items())
            ],
            "kmax": self.kmax,
        }


def _power_sum(acc: EpsSeries, u: EpsSeries, order: int, weight=None) -> EpsSeries:
    """``acc + sum_{m>=1} weight(m) * u**m`` through eps**order, for lead(u) >= 1;
    ``weight=None`` adds each power unscaled.

    Each power is added into one dict, with the bits of ``acc + term.scale(w)``
    taken power by power: a coefficient that the weight underflows to zero
    is not added, and a key whose sum cancels to zero is dropped at once, so
    a later power restarts it from ``0.0 +`` at the end of the key order.
    The result keeps the lowest ``kmax`` of ``acc`` and the powers.
    """
    out = dict(acc.coeffs)
    get = out.get
    kmax = acc.kmax
    term = EpsSeries.constant(1.0, order)
    for m in range(1, max(order, 0) + 1):
        term = term.__mul__(u, cut=order)
        if term.is_zero():
            break
        kmax = min(kmax, term.kmax)
        w = None if weight is None else complex(weight(m))
        for key, c in term.coeffs.items():
            if w is not None:
                c = c * w
                if not c:
                    continue
            total = get(key, 0.0) + c
            if total:
                out[key] = total
            else:  # only a stored coefficient can cancel to zero
                del out[key]
    return EpsSeries._trusted(out, kmax)


# ----------------------------------------------------------------------
# standard expansions
# ----------------------------------------------------------------------
def _memoized(expansion):
    """Memoize a pure expansion of ``(c0, slope, order)`` in a bounded LRU cache.

    Every caller gets the same :class:`EpsSeries` object, so nothing may
    mutate a returned series.  ``0.0`` and ``-0.0`` compare equal but pick
    opposite branches (``loggamma(-2.5 - 0j)`` is the conjugate of
    ``loggamma(-2.5 + 0j)``), so the key carries the sign of each part of
    ``c0`` and ``slope``; ``typed`` keeps ``order=4.0`` (an error) apart from
    ``order=4``.
    """
    @functools.lru_cache(maxsize=EXPANSION_CACHE_SIZE, typed=True)
    def cached(c0: complex, slope: complex, order: int, signs: tuple) -> EpsSeries:
        return expansion(c0, slope, order)

    @functools.wraps(expansion)
    def memoized(c0: complex, slope: complex, order: int) -> EpsSeries:
        c0, slope = complex(c0), complex(slope)
        signs = tuple(math.copysign(1.0, x)
                      for x in (c0.real, c0.imag, slope.real, slope.imag))
        return cached(c0, slope, order, signs)

    memoized.cache_info = cached.cache_info
    memoized.cache_clear = cached.cache_clear
    return memoized


def power_series(base: complex, exponent_slope: complex, order: int) -> EpsSeries:
    """base**(exponent_slope * eps) expanded to the given order.

    The branch of log(base) follows the library policy.  Not memoized here:
    the bases a sweep passes are its masses and scales, each used once per
    point; ``loops`` caches the one constant base, 4*pi, by order.
    """
    if base == 0:
        raise ValueError("power_series requires a nonzero base")
    a = complex(exponent_slope) * sf.principal_log(base)
    coeffs = {}
    term = 1.0 + 0.0j
    for k in range(order + 1):
        coeffs[(k, 0)] = term
        term = term * a / (k + 1)
    return EpsSeries._trusted(coeffs, order)  # Python complex terms, l = 0


def _gamma_one_plus(slope: complex, order: int) -> EpsSeries:
    """Gamma(1 + slope*eps) to the given order, from the zeta expansion."""
    logg = {}
    a = complex(slope)
    apow = a
    logg[(1, 0)] = -sf.EULER_GAMMA * apow
    for m in range(2, order + 1):
        apow *= a
        logg[(m, 0)] = (-1.0) ** m * sf.zeta_int(m) * apow / m
    return EpsSeries(logg, order).exp()


@_memoized
def gamma_series(c0: complex, slope: complex, order: int) -> EpsSeries:
    """Expansion of Gamma(c0 + slope*eps) around eps = 0 (memoized).

    At a nonpositive integer c0 = -n the result starts with a simple pole
    whose residue is (-1)**n / (n! * slope).
    """
    if order < 0:
        raise ValueError("order must be nonnegative")
    c0 = complex(c0)
    s = complex(slope)
    if sf.is_nonpositive_integer(c0):
        n = int(round(-c0.real))
        # Gamma(-n + y) = Gamma(1 + y) / (y * prod_{k=1..n} (y - k)), y = s*eps
        num = _gamma_one_plus(s, order + 1)
        den = EpsSeries.monomial(s, 1)
        for k in range(1, n + 1):
            den = den * EpsSeries({(0, 0): -float(k), (1, 0): s})
        return num / den
    # regular point: exponentiate the log-gamma Taylor series
    logg = {(0, 0): sf.loggamma(c0), (1, 0): sf.digamma(c0) * s}
    spow = s
    fact = 1.0
    for m in range(2, order + 1):
        spow *= s
        fact *= m
        logg[(m, 0)] = sf.polygamma(m - 1, c0) * spow / fact
    return EpsSeries(logg, order).exp()


def digamma_series(c0: complex, slope: complex, order: int) -> EpsSeries:
    """Expansion of digamma(c0 + slope*eps) around eps = 0.

    Handles nonpositive-integer c0, where the expansion carries a simple
    pole -1/(slope*eps) plus a regular tail.
    """
    if order < 0:
        raise ValueError("order must be nonnegative")
    c0 = complex(c0)
    s = complex(slope)
    if sf.is_nonpositive_integer(c0):
        n = int(round(-c0.real))
        # psi(-n + y) = psi(1 + y) - sum_{k=0..n} 1/(y - k), y = s*eps
        acc_coeffs = {(0, 0): -sf.EULER_GAMMA}
        spow = 1.0 + 0.0j
        for m in range(1, order + 1):
            spow *= s
            acc_coeffs[(m, 0)] = (-1.0) ** (m + 1) * sf.zeta_int(m + 1) * spow
        acc = EpsSeries(acc_coeffs, order)
        acc = acc - EpsSeries.monomial(1.0 / s, -1, kmax=order)  # the 1/y term
        for k in range(1, n + 1):
            # -1/(y - k) = (1/k) * sum_m (y/k)^m
            geo = {}
            spow = 1.0 + 0.0j
            for m in range(order + 1):
                geo[(m, 0)] = spow / k
                spow *= s / k
            acc = acc + EpsSeries(geo, order)
        return acc
    coeffs = {(0, 0): sf.digamma(c0)}
    spow = 1.0 + 0.0j
    fact = 1.0
    for m in range(1, order + 1):
        spow *= s
        fact *= m
        coeffs[(m, 0)] = sf.polygamma(m, c0) * spow / fact
    return EpsSeries(coeffs, order)


@_memoized
def harmonic_series(c0: complex, slope: complex, order: int) -> EpsSeries:
    """Expansion of the harmonic number H(c0 + slope*eps) (memoized)."""
    return digamma_series(c0 + 1, slope, order) + sf.EULER_GAMMA
