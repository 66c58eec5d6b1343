"""Barrier functions and the weighted a priori estimates.

The profiles phi_delta = u^{-1} (cosh t)^delta (delta <= 0) and
u^{-1} cosh(delta t) (delta >= 0) are supersolutions on the region
T^eps_alpha = {|t| <= |log eps| - alpha}: the margin
-(Delta phi + C u^{-4/(n-2)} phi) stays nonnegative on a grid once
e^{-alpha} <= C = (((n-2)/2)^2 - delta^2)/2 and log eps + alpha < 0.
The maximum principle then yields local and global sup-norm estimates
with psi-weights; here both constants are measured.
"""

from cscglue import (
    GluingConfig,
    barrier_margin,
    global_estimate_ratio,
    local_estimate_ratio,
    make_model,
)
from cscglue.neck_analysis import barrier_constant, required_alpha

A = make_model("torus2_x_sphere3")

print("barrier margins (alpha = 2.7):")
print(" delta   eps    C        min margin")
for delta in (-0.3, 0.0, 0.3):
    for eps in (0.02, 0.05):
        cfg = GluingConfig(A, A, eps=eps, alpha=2.7)
        rep = barrier_margin(cfg, delta=delta)
        print(f"{delta:+5.1f}  {eps:5.2f}  {rep.C:.4f}  {rep.min_margin:10.4f}")

# near-extremal delta: the admissible constant collapses and so does the
# range of usable eps
d = 0.49
print(f"\ndelta = {d}: C = {barrier_constant(3, d):.5f}, needs alpha >= "
      f"{required_alpha(3, d):.3f} (eps below {barrier_constant(3, d):.4f})")

print("\nlocal estimate constants on T^eps_alpha (alpha = 1.2):")
for eps in (0.02, 0.05, 0.16):
    cfg = GluingConfig(A, A, eps=eps, alpha=1.2)
    rep = local_estimate_ratio(cfg)
    print(f"  eps = {eps:5.2f}: " + ", ".join(
        f"{name} {ratio:.4f}" for name, ratio in rep.per_probe))

print("\nglobal estimate constant with the conformal source:")
for eps in (0.02, 0.04, 0.08, 0.16):
    cfg = GluingConfig(A, A, eps=eps)
    rep = global_estimate_ratio(cfg, resolution=64)
    print(f"  eps = {eps:5.2f}: ratio = {rep.ratio:.4f}  "
          f"(smallest |eigenvalue| {abs(rep.min_abs_eig):.4f})")
