"""Numerical gluing of constant scalar curvature metrics along a submanifold.

The package builds approximate solution metrics on generalized connected
sums of product manifolds, verifies the curvature and barrier estimates
that control them, solves the linearized problem on a symmetry-reduced
radial grid, and runs the conformal fixed point that corrects the glued
metric to constant scalar curvature.
"""

from . import errors
from .curvature import (
    DerivativeScheme,
    ValueWithError,
    christoffel,
    conformal_scalar,
    laplace_beltrami,
    rescale_field,
    scalar_curvature,
)
from .geometry import (
    Chart,
    ChartPoint,
    Factor,
    MetricField,
    ModelGeometry,
    Transition,
    fermi_metric,
    flat_metric,
    injectivity_gap,
    is_spd,
    make_model,
    model_spectrum,
)
from .gluing import (
    GluingConfig,
    Jet,
    NeckAtlas,
    chi,
    eta,
    glued_metric,
    glued_warp,
    psi_of_t,
    psi_weight,
    synthetic_exact_metric,
    synthetic_exact_warp,
    u_eps,
)
from .linear_solver import (
    DiscreteOperator,
    RadialGrid,
    SolveReport,
    assemble_L,
    build_flat_grid,
    build_grid,
    build_grid_single,
    global_estimate_ratio,
    glued_curvature_profile,
    smallest_eigenvalue,
    solve,
    solve_dirichlet,
)
from .neck_analysis import (
    BarrierReport,
    DeviationFit,
    DeviationProfile,
    barrier_constant,
    barrier_margin,
    barrier_profile,
    conjugation_residual,
    deviation_fit,
    deviation_profile,
    ell_leading,
    local_estimate_ratio,
    loglog_slope,
)
from .yamabe import (
    F_eps,
    FixedPointReport,
    RadialProfile,
    SweepRow,
    SweepTable,
    YamabeConstants,
    convergence_sweep,
    picard_solve,
    verify_constant_curvature,
)

__version__ = "0.1.0"
