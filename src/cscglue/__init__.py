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
    Factor,
    MetricField,
    ModelGeometry,
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
    SyntheticExactConfig,
    chi,
    eta,
    glued_metric,
    psi_of_t,
)
from .linear_solver import (
    DiscreteOperator,
    RadialGrid,
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
    local_estimate_ratio,
    loglog_slope,
)
from .yamabe import (
    F_eps,
    FixedPointReport,
    RadialProfile,
    SweepRow,
    SweepTable,
    convergence_sweep,
    picard_solve,
    smallness_ball,
    verify_constant_curvature,
)

__version__ = "0.1.0"
