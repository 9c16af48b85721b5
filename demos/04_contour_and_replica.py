#!/usr/bin/env python3
"""Contour coefficients, the replica limit, and the regulated traces.

The replica-limit entropy of the full first-order state needs the ratio of
two contour integrals that diverge at the endpoint.  The library evaluates
them with an explicit endpoint cut, reports the cut with the value, and
keeps the closed-form constant tau as the canonical finite stand-in.  The
same contour parametrization evaluates the integer-power replica traces.
"""

from loopentropy import (
    ContourConfig,
    SchemeParams,
    coeff_a,
    coeff_b,
    ratio_AB,
    ratio_ab_regulated,
    renyi_trace_n,
    renyi_trace_radial,
    tau,
)

# The regulated coefficients grow as the endpoint cut shrinks: the
# divergence is real, so the value is only meaningful alongside its cut.
print("endpoint_cut        b              a (real, imag)           a/b (real)")
for cut in (0.2, 0.1, 0.05, 0.025):
    cfg = ContourConfig(endpoint_cut=cut)
    b = coeff_b(cfg)
    a = coeff_a(cfg)
    print(f"  {cut:6.3f}      {b.real:12.8f}   {a.real:+12.8f} {a.imag:+10.8f}"
          f"   {(a / b).real:+10.5f}")

print(f"\nclosed-form tau = {tau():.10f} (the regulated ratio drifts instead "
      "of converging to it; both are reported, never equated)")

# The only mass dependence of the ratio is +log(m0^2), in either mode.
for m0 in (1.0, 2.0):
    print(f"ratio_AB(m0={m0}): tau mode {ratio_AB(m0):+.6f}   "
          f"quadrature mode {ratio_AB(m0, ContourConfig(0.05)):+.6f}")

# Integer replica powers of the bubble: finite from n = 3 up, regulated at
# n = 2, and cross-checked against a direct radial quadrature.
p = SchemeParams(m0=1.0)
print("\nreplica traces of the bubble (independent parametrizations)")
for n in (3, 4, 5):
    contour = renyi_trace_n(n, p)
    radial = renyi_trace_radial(n, p)
    print(f"  n={n}: contour {contour:.6e}   radial dev "
          f"{abs(contour - radial) / abs(contour):.1e}")
cfg = ContourConfig(endpoint_cut=0.05)
print(f"  n=2 (regulated at cut 0.05): {renyi_trace_n(2, p, cfg):.6e}")
print(f"  regulated a/b at the same cut: {ratio_ab_regulated(cfg):+.6f}")
