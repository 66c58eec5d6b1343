"""Building the glued metric and inspecting its structure.

Two copies of T^2 x S^3 are glued along T^2 x {point}: a tube of radius
eps is excised from each, the annuli are written in cylindrical
coordinates x = eps e^{-+t} theta, and the metrics are blended with
cutoffs while the normal block is rescaled by the conformal factor
u(t)^{4/(n-2)} built from eps^{(n-2)/2} e^{-+(n-2)t/2}.
"""

import math

import numpy as np

from cscglue import (GluingConfig, chi, eta, fermi_metric, glued_metric, make_model,
                     psi_of_t)
from cscglue.curvature import scalar_curvature

A = make_model("torus2_x_sphere3")
cfg = GluingConfig(A, A, eps=0.05)
field = glued_metric(cfg)
T = cfg.t_max
print(f"eps = {cfg.eps}: neck coordinate t ranges over ({math.log(cfg.eps):.3f}, {T:.3f})")

# cutoffs and the normal conformal factor
print("\ncutoff and profile values:")
print("  chi(-1) =", chi(-1.0, cfg.eps), "  chi(1) =", chi(1.0, cfg.eps))
print("  eta(0)  =", eta(0.0, cfg.eps))
print("  u(0)    =", cfg.warp(0.0)[0], " (= 2 eps^{(n-2)/2})")

# the metric is continuous across the seams: compare the neck formula at
# t = log(eps) with the summand metric at r = eps e^{-t} = 1, whose dr^2
# becomes r^2 dt^2 in the neck coordinate
z, th = (0.73, 1.41), (1.0831, 0.47)
r = cfg.eps * math.exp(-math.log(cfg.eps))
cap = fermi_metric(A).components("cap-1", np.array([*z, r, *th]))
cap[cfg.k, cfg.k] *= r**2
direct = field.components("neck", np.array([*z, math.log(cfg.eps), *th]))
print(f"\nseam mismatch |neck - cap| = {np.max(np.abs(cap - direct)):.2e}")

# scalar curvature along the neck: the deviation from S = 6 is the price
# of the approximate construction; it is largest at the neck center
# (where the geometry is nearly scalar-flat) and in the cutoff bands
print("\n   t       S_glued      deviation")
for t in np.linspace(math.log(cfg.eps) + 1.0, 0.0, 7):
    pt = np.array([*z, t, *th])
    s = scalar_curvature(field, ("neck", pt))
    print(f"{t:+7.3f}  {s.value:+10.5f}  {s.value - 6.0:+10.5f}")

# the weight function used by all a priori estimates: eps cosh t on the
# neck, 1 on the caps, interpolated in between
print("\n   t      psi(t)")
for t in (0.0, 1.0, T - 0.5, T):
    print(f"{t:6.3f}  {psi_of_t(t, cfg):.5f}")
