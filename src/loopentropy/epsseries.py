"""Truncated Laurent series in eps = d - 4 with log(eps) channels.

Every regularized quantity in the library is carried by an :class:`EpsSeries`:
a finite collection of complex coefficients ``c[k, l]`` representing

    sum_{k, l}  c[k, l] * eps**k * log(eps)**l  +  O(eps**(kmax + 1))

``kmax`` is the truncation order: coefficients at powers above it are unknown,
and every operation tracks how far the result can be trusted (mixed-order
arithmetic downgrades to the weaker order).  Log powers are capped at
log(eps)**2, the deepest that products of the loop series reach; poles may
be of any depth.

The sign convention is eps = d - 4 (dimension above four is positive eps).
Logarithms of negative reals take the +i*pi branch, matching the
m^2 -> m^2 - i0 propagator prescription.

Key layout: the kernel keys each coefficient by one int,

    s = k * KEY_WIDTH + l,        KEY_WIDTH = 2 * LOGCAP + 1,

so eps**0 is key 0, a pole's keys are negative, and keys sort as their
(k, l) pairs do; floor division splits a negative key as it does a
positive one.  A product's key is ``s1 + s2``: its log power l1 + l2 is at
most 2 * LOGCAP, below the width, so it never carries into k.  The public
``coeffs`` is the (k, l)-keyed view of these keys, decoded in the series'
own key order.

Invariant: every stored coefficient is a nonzero Python ``complex`` whose
key lies below ``kernel_key(kmax + 1)`` with ``s % KEY_WIDTH <= LOGCAP``
(within the log cap and at or below ``kmax``).  The public constructor
``EpsSeries(coeffs, kmax)`` validates its (k, l)-keyed input to establish it;
the kernel's own operations keep it and build their results through the
trusted ``EpsSeries._trusted``, which only drops zeros and keys past
``kernel_key(kmax + 1)``.  Two properties of the results are part of the
contract, because they fix the bits of every later sum: the dict keeps the
order in which a result's keys were first produced (a product accumulates
in the order of its left operand's keys), and a sum or product starts each
coefficient it creates from ``0.0 + ...``, which turns a ``-0.0`` part of
the first term into ``+0.0``, so the signs of zero parts stay what they have
always been.  The power sum behind ``inverse``, ``log`` and ``exp``
(``_power_sum``) accumulates every power in place in one dict, and keeps
both properties: a coefficient it creates starts from ``0.0 + ...`` at the
end of the key order, as in a sum per power, and one whose sum cancels to
zero is dropped at once, so a later power restarts it there.
"""

from __future__ import annotations

import cmath
import math
import operator
from dataclasses import dataclass
from typing import Mapping

from . import specialfns as sf
from .errors import (
    InputError,
    LogCapError,
    NonFiniteError,
    NonInvertibleLeadingTermError,
)
from .params import check_int_range

LOGCAP = 2
KEY_WIDTH = 2 * LOGCAP + 1

# kmax assigned to series that are exact (constants, monomials); large enough
# that mixed arithmetic is always limited by the genuinely truncated operand.
EXACT_ORDER = 64


def kernel_key(k: int, l: int = 0) -> int:
    """The kernel's key of the eps**k log(eps)**l coefficient."""
    return k * KEY_WIDTH + l


def split_key(s: int) -> tuple[int, int]:
    """The (k, l) of a kernel key; the inverse of :func:`kernel_key`."""
    return divmod(s, KEY_WIDTH)


# the power sums' weights of u**m at m = 1..EXACT_ORDER, past which no power
# of a u with lead(u) >= 1 is kept: log1p(u) and exp(u) - 1
_LOG_WEIGHTS = tuple(complex((-1.0) ** (m + 1) / m) for m in range(1, EXACT_ORDER + 1))
_EXP_WEIGHTS = tuple(complex(1.0 / math.factorial(m)) for m in range(1, EXACT_ORDER + 1))


def _cleaned(coeffs: Mapping[tuple[int, int], complex], kmax: int) -> dict:
    out = {}
    for (k, l), c in coeffs.items():
        c = complex(c)
        if c == 0:
            continue
        if l < 0 or l > LOGCAP:
            raise LogCapError(f"log power {l} outside [0, {LOGCAP}]")
        if k > kmax:
            continue  # beyond the stated truncation: unknown, not stored
        out[kernel_key(operator.index(k), operator.index(l))] = c
    return out


@dataclass(frozen=True, init=False, repr=False)
class EpsSeries:
    """Immutable truncated Laurent series with log(eps) channels.

    ``_coeffs`` holds the coefficients by kernel key; ``coeffs`` is their
    (k, l)-keyed view.
    """

    _coeffs: dict
    kmax: int

    def __init__(self, coeffs: Mapping[tuple[int, int], complex] | None = None,
                 kmax: int = EXACT_ORDER):
        self.__dict__["kmax"] = kmax
        self.__post_init__({} if coeffs is None else coeffs)

    def __post_init__(self, coeffs: Mapping[tuple[int, int], complex]):
        """Validate (k, l)-keyed ``coeffs`` into kernel keys: the step that
        every public construction runs and the kernel's own results skip."""
        self.__dict__["_coeffs"] = _cleaned(coeffs, self.kmax)

    @classmethod
    def _trusted(cls, coeffs: dict, kmax: int) -> "EpsSeries":
        """A series from kernel-keyed coefficients that already keep the
        invariant but for zeros and powers above ``kmax``, which are dropped;
        the key order is kept and ``__post_init__`` is skipped.  A dict with
        nothing to drop is kept, not copied, so the caller must not change it
        afterwards."""
        stop = (kmax + 1) * KEY_WIDTH  # kernel_key(kmax + 1)
        for s, c in coeffs.items():
            if not c or s >= stop:
                coeffs = {s: c for s, c in coeffs.items() if c and s < stop}
                break
        out = object.__new__(cls)
        fields = out.__dict__  # set as the constructor would
        fields["_coeffs"] = coeffs
        fields["kmax"] = kmax
        return out

    def __repr__(self) -> str:
        return f"EpsSeries(coeffs={self.coeffs!r}, kmax={self.kmax!r})"

    @property
    def coeffs(self) -> dict:
        """The coefficients keyed by (k, l), in the series' own key order
        (a new dict on each call)."""
        return {split_key(s): c for s, c in self._coeffs.items()}

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

    # ------------------------------------------------------------------
    # basic queries
    # ------------------------------------------------------------------
    def coefficient(self, k: int, l: int = 0) -> complex:
        if not 0 <= l <= LOGCAP:  # no key holds it, and kernel_key would alias
            return 0.0 + 0.0j
        return self._coeffs.get(kernel_key(k, l), 0.0 + 0.0j)

    def lead(self) -> int:
        """Leading (lowest) power; kmax + 1 for the zero series."""
        if not self._coeffs:
            return self.kmax + 1
        return min(self._coeffs) // KEY_WIDTH

    def terms(self) -> list[tuple[int, int, complex]]:
        return [(*split_key(s), c) for s, c in sorted(self._coeffs.items())]

    def finite_part(self) -> complex:
        """The eps^0, log^0 coefficient."""
        return self._coeffs.get(0, 0.0 + 0.0j)

    def max_abs(self) -> float:
        return max((abs(c) for c in self._coeffs.values()), default=0.0)

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
        out = dict(self._coeffs)
        get = out.get
        for s, c in o._coeffs.items():
            out[s] = get(s, 0.0) + c
        return EpsSeries._trusted(out, kmax)

    __radd__ = __add__

    def __neg__(self) -> "EpsSeries":
        return EpsSeries._trusted({s: -c for s, c in self._coeffs.items()}, self.kmax)

    def __sub__(self, other) -> "EpsSeries":
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other) -> "EpsSeries":
        """``other - self`` for a number: in one pass, the bits, key order and
        kmax of ``EpsSeries.constant(other) - self``."""
        if not isinstance(other, (int, float, complex)):
            return NotImplemented
        c = complex(other)
        out = {0: c} if c else {}
        get = out.get
        for s, v in self._coeffs.items():
            out[s] = get(s, 0.0) + (-v)
        return EpsSeries._trusted(out, min(self.kmax, EXACT_ORDER))

    def __mul__(self, other) -> "EpsSeries":
        """The product, known through the weaker operand's order."""
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        lead1, lead2 = self.lead(), o.lead()
        kmax = min(self.kmax + lead2, o.kmax + lead1, EXACT_ORDER)
        return EpsSeries._trusted(_product(self._coeffs, o._coeffs, kmax, kmax), kmax)

    __rmul__ = __mul__

    def scale(self, c: complex) -> "EpsSeries":
        c = complex(c)  # a numpy scalar would make numpy coefficients
        return EpsSeries._trusted({s: v * c for s, v in self._coeffs.items()}, self.kmax)

    def shift(self, k0: int) -> "EpsSeries":
        """Multiply by eps**k0 exactly."""
        step = k0 * KEY_WIDTH
        return EpsSeries._trusted({s + step: c for s, c in self._coeffs.items()},
                                  min(self.kmax + k0, EXACT_ORDER))

    def truncate(self, kmax: int) -> "EpsSeries":
        if kmax >= self.kmax:
            return self
        return EpsSeries._trusted(self._coeffs, kmax)

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
        coeffs = self._coeffs
        if not coeffs:
            raise NonInvertibleLeadingTermError("zero series is not invertible")
        first = min(coeffs)
        if first % KEY_WIDTH or any(first + l in coeffs for l in range(1, LOGCAP + 1)):
            raise NonInvertibleLeadingTermError(
                "leading power carries a log(eps) factor"
            )
        c = coeffs[first]
        L = first // KEY_WIDTH
        u = EpsSeries._trusted({s - first: v / c for s, v in coeffs.items() if s != first},
                               self.kmax - L)
        return c, L, u

    def inverse(self) -> "EpsSeries":
        c, L, u = self._leading_unit()
        rel_order = self.kmax - L  # u is known through eps^rel_order
        # 1/(1 + u) = sum_m (-u)^m
        geom = _power_sum(EpsSeries._trusted({0: 1.0 + 0.0j}, rel_order), -u, rel_order)
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
        # the bits of constant(log(c)) + monomial(L, 0, 1): a zero constant is
        # dropped, and 0.0 + complex(L) is complex(L)
        acc = EpsSeries._trusted({0: sf.principal_log(c), 1: complex(L)}, rel_order)
        return _power_sum(acc, u, rel_order, _LOG_WEIGHTS)

    def exp(self) -> "EpsSeries":
        """exp of the series; inverse of :meth:`log` on its image.

        Requires no pole part.  A log(eps) term at eps^0 must carry an
        integer coefficient (it exponentiates to an exact power of eps);
        anything else has no Laurent-with-logs representation.  A result
        that leaves the float range is refused (NonFiniteError).
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
        c00 = self.finite_part()
        rest = EpsSeries._trusted({s: v for s, v in self._coeffs.items()
                                   if s not in (0, 1)}, self.kmax)
        acc = _power_sum(EpsSeries._trusted({0: 1.0 + 0.0j}, self.kmax), rest,
                         self.kmax, _EXP_WEIGHTS)
        try:
            result = acc.scale(cmath.exp(c00)).shift(L)
        except OverflowError:
            result = None
        if result is None or not all(map(cmath.isfinite, result._coeffs.values())):
            raise NonFiniteError("exp of the series leaves the float range")
        return result

    # ------------------------------------------------------------------
    # evaluation, comparison, serialization
    # ------------------------------------------------------------------
    def evaluate(self, eps: complex) -> complex:
        """Numeric value at a concrete eps (series truncation applies).

        log(eps) is taken only when a term carries it (its zeroth power is
        1 + 0j either way), so at eps = 0 only a pole or a log(eps) term is
        refused.  A sum of finite coefficients whose value leaves the float
        range is refused too (NonFiniteError); an infinite coefficient is the
        caller's, and its value is returned.
        """
        terms = self.terms()
        if eps == 0 and any(k < 0 or l > 0 for k, l, _ in terms):
            raise NonFiniteError(
                "a series with a pole or a log(eps) term has no value at eps = 0")
        log_eps = sf.principal_log(eps) if any(l for _, l, _ in terms) else 0j
        total = 0.0 + 0.0j
        try:
            for k, l, c in terms:
                total += c * eps ** k * log_eps ** l
        except (OverflowError, ZeroDivisionError):  # eps**k past the float range
            total = None
        if total is None or (not cmath.isfinite(total)
                             and all(map(cmath.isfinite, self._coeffs.values()))):
            raise NonFiniteError(f"the series at eps = {eps!r} leaves the float range")
        return total

    def max_coeff_diff(self, other: "EpsSeries", through_k: int | None = None) -> float:
        """Largest |coefficient difference| over powers <= through_k."""
        cap = min(self.kmax, other.kmax)
        if through_k is not None:
            cap = min(cap, through_k)
        mine, theirs = self._coeffs, other._coeffs
        stop = kernel_key(cap + 1)
        diff = 0.0
        for s in set(mine) | set(theirs):
            if s < stop:
                diff = max(diff, abs(mine.get(s, 0.0 + 0.0j) - theirs.get(s, 0.0 + 0.0j)))
        return diff

    def real_part(self) -> "EpsSeries":
        return EpsSeries({key: c.real for key, c in self.coeffs.items()}, self.kmax)

    def to_json_dict(self) -> dict:
        return {
            "terms": [{"k": k, "l": l, "re": c.real, "im": c.imag}
                      for k, l, c in self.terms()],
            "kmax": self.kmax,
        }


# the keys of every log-free power from eps**-EXACT_ORDER to eps**EXACT_ORDER
_LOG_FREE_KEYS = frozenset(range(kernel_key(-EXACT_ORDER), kernel_key(EXACT_ORDER + 1),
                                 KEY_WIDTH))


def _carries_log(coeffs: dict) -> bool:
    """Whether a key carries log(eps); a power past ``EXACT_ORDER`` either
    way is counted as one too, which only costs the exact check."""
    return not _LOG_FREE_KEYS.issuperset(coeffs)


def _product(left: dict, right: dict, kmax: int, keep: int) -> dict:
    """The kernel-keyed coefficients of a product through eps**keep, summed
    in the order of ``left``'s keys, each from ``0.0 + ...``; a zero sum
    stays in the dict.  A log(eps) power above the cap raises through
    eps**kmax, cut or not; only operands that both carry log(eps) can make
    one, so only they are checked."""
    if _carries_log(right) and _carries_log(left):
        stop = kernel_key(kmax + 1)
        for s1 in left:
            for s2 in right:
                s = s1 + s2
                if s < stop and s % KEY_WIDTH > LOGCAP:
                    raise LogCapError(
                        f"product creates log(eps)^{s % KEY_WIDTH} above the cap {LOGCAP}"
                    )
    cut = kernel_key(keep + 1)
    out: dict[int, complex] = {}
    get = out.get
    right = right.items()
    for s1, c1 in left.items():
        for s2, c2 in right:
            s = s1 + s2
            if s < cut:
                out[s] = get(s, 0.0) + c1 * c2
    return out


def _power_sum(acc: EpsSeries, u: EpsSeries, order: int, weights=None) -> EpsSeries:
    """``acc + sum_{m>=1} weights[m - 1] * u**m`` through eps**order, for
    lead(u) >= 1; ``weights=None`` adds each power unscaled.

    Each power is the product ``(term * u).truncate(order)`` on plain dicts,
    built only through the cut, with the same kmax, log cap and zeros
    dropped.  The first power's kmax is
    ``min(order + lead(u), u.kmax, EXACT_ORDER)``; after it, the lead
    of each power is at least the last one's plus lead(u), so the kmax is
    the last power's cut plus lead(u), capped at ``EXACT_ORDER`` (so no
    power past u**EXACT_ORDER is kept, and ``weights`` needs no more).
    Each power is added into one dict, with the bits of ``acc + term.scale(w)``
    taken power by power: a coefficient that the weight underflows to zero
    is not added, and a key whose sum cancels to zero is dropped at once, so
    a later power restarts it from ``0.0 +`` at the end of the key order.
    The result keeps the lowest ``kmax`` of ``acc`` and the powers.
    """
    out = dict(acc._coeffs)
    get = out.get
    kmax = acc.kmax
    right = u._coeffs
    lead_u = u.lead()
    term = {0: 1.0 + 0.0j}  # EpsSeries.constant(1.0, order)
    term_kmax = min(order + lead_u, u.kmax, EXACT_ORDER)
    for m in range(1, max(order, 0) + 1):
        keep = min(term_kmax, order)
        term = _product(term, right, term_kmax, keep)
        if not all(term.values()):
            term = {s: c for s, c in term.items() if c}
        if not term:
            break
        kmax = min(kmax, keep)
        term_kmax = min(keep + lead_u, EXACT_ORDER)
        w = None if weights is None else weights[m - 1]
        for s, c in term.items():
            if w is not None:
                c = c * w
                if not c:
                    continue
            total = get(s, 0.0) + c
            if total:
                out[s] = total
            else:  # only a stored coefficient can cancel to zero
                del out[s]
    return EpsSeries._trusted(out, kmax)


# ----------------------------------------------------------------------
# standard expansions
# ----------------------------------------------------------------------
def power_series(base: complex, exponent_slope: complex, order: int) -> EpsSeries:
    """base**(exponent_slope * eps) expanded to the given order.

    The branch of log(base) follows the library policy.  A coefficient past
    the float range is refused (NonFiniteError).  No expansion here keeps a
    cache: ``loops`` keeps the ones that a sweep repeats, keyed by what its
    calls vary.
    """
    if base == 0:
        raise InputError("power_series requires a nonzero base")
    a = complex(exponent_slope) * sf.principal_log(base)
    coeffs = {}
    term = 1.0 + 0.0j
    for k, s in enumerate(range(0, kernel_key(order + 1), KEY_WIDTH)):
        coeffs[s] = term  # the eps**k key
        term = term * a / (k + 1)
    if not all(map(cmath.isfinite, coeffs.values())):
        raise NonFiniteError(f"power_series({base!r}, {exponent_slope!r}, {order}) overflows")
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


def gamma_series(c0: complex, slope: complex, order: int) -> EpsSeries:
    """Expansion of Gamma(c0 + slope*eps) around eps = 0.

    At a nonpositive integer c0 = -n the result starts with a simple pole
    whose residue is (-1)**n / (n! * slope).  Between the poles, the sign of a
    zero imaginary part of c0 picks the side of log-gamma's branch cut.
    """
    check_int_range("order", order, 0, sf.MAX_POLYGAMMA_ORDER)
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
    check_int_range("order", order, 0, sf.MAX_POLYGAMMA_ORDER)
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


def harmonic_series(c0: complex, slope: complex, order: int) -> EpsSeries:
    """Expansion of the harmonic number H(c0 + slope*eps)."""
    return digamma_series(c0 + 1, slope, order) + sf.EULER_GAMMA
