#!/usr/bin/env python3
"""All entropy quantities at a reference scheme, and their identities.

Each quantity is reported as pole / log(eps) / finite coefficients.  The
script then verifies, numerically, the structural facts the library is
organized around: the mutual-information composition, mass-independent
conditional entropies, the 4 log(m0) growth, and the reduction of the
generic first-order assembly to the two-point result.
"""

import math
from fractions import Fraction

from loopentropy import (
    SchemeParams,
    SpectralDensity,
    compute_quantity,
    entropy_order1_generic,
    mutual_information_21,
    order1_blocks_n2,
    s_ext_21,
    s_ext_2_total,
    s_int_21,
    s_nonperturbative,
    s_total_21,
    tau,
)

params = SchemeParams(m0=1.0, mu=1.0, lambda0=1.0, tv=1.0)

print(f"reference scheme: m0=1, mu=1, lambda0=1, TV=1   (tau = {tau():.6f})")
print(f"{'quantity':14s} {'1/eps^2':>10s} {'1/eps':>10s} {'log(eps)':>10s} {'finite':>12s}")
for name in ("ext2_order0", "ext2_order1", "ext2_total", "ext21", "int21",
             "total21", "mutual21", "cond_ext_int", "cond_int_ext", "vacuum21"):
    bd = compute_quantity(name, params)
    print(f"{name:14s} {bd.pole2.real:10.5f} {bd.pole1.real:10.5f} "
          f"{bd.logeps.real:10.5f} {bd.finite:12.6f}")

# Mutual information is exactly the composition of the three entropies.
composed = s_ext_21(params).series + s_int_21(params).series - s_total_21(params).series
quoted = mutual_information_21(params).series
print("\nmutual info composition, worst coefficient dev:",
      f"{quoted.max_coeff_diff(composed, through_k=0):.1e}")

# Conditional entropies do not depend on the bare mass.
for m0 in (0.5, 2.0, 8.0):
    p = SchemeParams(m0=m0)
    ce, ci = compute_quantity("cond_ext_int", p), compute_quantity("cond_int_ext", p)
    print(f"m0={m0:4.1f}: S(ext|int)={ce.finite:+.6f}  S(int|ext)={ci.finite:+.6f}")

# All three entropies grow as 4 log(m0) at large mass.
h = 1e-6
for label, fn in (("total", s_total_21), ("ext", s_ext_21), ("int", s_int_21)):
    up = fn(SchemeParams(m0=9.0 * math.exp(h))).finite
    dn = fn(SchemeParams(m0=9.0 * math.exp(-h))).finite
    print(f"d(finite {label})/d log m0 at m0=9: {(up - dn) / (2 * h):.4f}")

# The generic first-order assembly, fed the two-point building blocks with
# weights (1, 1/2), reproduces the assembled two-point entropy; the only
# imaginary remnant is the constant branch term i pi/2.
blocks = order1_blocks_n2(params)
generic = entropy_order1_generic(*blocks, W0=Fraction(1), W1=Fraction(1, 2),
                                 lambda0=params.lambda0)
assembled = s_ext_2_total(params, mode="assembled").series
print("\ngeneric assembly vs two-point total:",
      f"real dev {generic.real_part().max_coeff_diff(assembled.real_part(), through_k=0):.1e},",
      f"imag remnant {generic.coefficient(0, 0).imag:.6f} (pi/2 = {math.pi / 2:.6f})")

# The spectral-representation entropy reduces to the zeroth-order result
# with the physical mass; the field strength cancels in the normalization.
sd = SpectralDensity(Z=0.8, m_phys=2.0)
spectral = s_nonperturbative(sd, params)
reference = compute_quantity("ext2_order0", SchemeParams(m0=2.0))
print("spectral one-particle vs zeroth order at m=2, dev:",
      f"{spectral.series.max_coeff_diff(reference.series):.1e}")
