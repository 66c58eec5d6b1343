"""The eps sweep: rates, compact convergence, and where the regime ends.

As eps decreases, the conformal correction v shrinks (the measured rate
is about eps^{1.25}, well above the guaranteed (n-2)/2 - delta = 0.2)
and its restriction to the caps decreases, i.e. the corrected metrics
approach the summands away from the gluing locus.

The sweep is also honest about the other end: at eps = 0.08 and 0.16
a Picard iterate leaves the smallness ball of ``smallness_ball`` (the
cutoff transition bands inject order-one curvature errors near the
seams, and at eps = 0.16 they collide with the blending band), so those
rows record a divergence instead of numbers.  See the README for how
this interacts with the acceptance thresholds.
"""

from cscglue import GluingConfig, convergence_sweep, make_model

A = make_model("torus2_x_sphere3")

table = convergence_sweep(lambda e: GluingConfig(A, A, eps=e),
                          [0.02, 0.04, 0.08, 0.16], delta=0.3, resolution=64)

print("  eps    sup|v|    cap sup   iters  residual   pre dev  post dev")
for r in table.rows:
    if r.error:
        print(f"{r.eps:6.2f}  {r.error}")
    else:
        print(f"{r.eps:6.2f}  {r.sup_v:8.5f}  {r.cap_sup_v:8.5f}  {r.iters:4d}  "
              f"{r.residual:9.2e}  {r.pre_dev:8.3f}  {r.post_dev:9.5f}")

print(f"\nfitted rate of sup|v| over the converged rows: {table.slope:.3f} "
      f"(guaranteed lower bound 0.2)")

# a finer look at the small-eps regime, where everything is contractive
table = convergence_sweep(lambda e: GluingConfig(A, A, eps=e),
                          [0.01, 0.02, 0.03, 0.04, 0.05], delta=0.3,
                          resolution=64)
print("\nsmall-eps sweep (rows in processing order, largest eps first):")
print("  eps    sup|v|    cap sup   slope so far")
for r in table.rows:
    print(f"{r.eps:6.2f}  {r.sup_v:8.5f}  {r.cap_sup_v:8.5f}  {r.slope_so_far:8.3f}")
