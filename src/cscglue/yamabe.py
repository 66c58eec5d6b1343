"""The nonlinear conformal fixed point on the glued manifold.

Writing the conformal factor as 1 + v, constant scalar curvature S for
u^{4/(m-2)} g_glued is equivalent to the fixed-point problem
v = L^{-1} F(v) with L = Delta + S_glued/(m-1) and

  F(v) = c (S - S_glued) + c p (S - S_glued) v + c S ((1+v)^p - 1 - p v),

where c = -(m-2)/(4(m-1)) and p = (m+2)/(m-2) use the total dimension m
(the conformal transformation law forces it), while all neck weights and
rate exponents use the codimension n = m - k.  A plain Picard iteration
from v = 0 replaces the compactness argument: at these scales the map is
an empirical contraction, and divergence is a reportable outcome.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# conformal_scalar, scalar_curvature and glued_metric are not called here,
# but bench/spans.py wraps them by name
from .curvature import conformal_scalar, scalar_curvature  # noqa: F401
from .errors import DeltaOutOfRange, IterateOutOfBall, IterationDiverged
from .gluing import GluingConfig, glued_metric, glued_warp, psi_of_t  # noqa: F401
from .neck_analysis import loglog_slope
from .linear_solver import (
    ROUNDING_ULPS,
    DiscreteOperator,
    RadialGrid,
    SolveReport,
    assemble_L,
    build_grid,
    glued_curvature_profile,
    laplacian_coefficients,
    neck_scalar_curvature,
    solve,
)


@dataclass(frozen=True)
class YamabeConstants:
    """Conformal constants in dimension d: c_d = -(d-2)/(4(d-1)), p = (d+2)/(d-2)."""

    d: int

    def __post_init__(self):
        if self.d < 3:
            raise ValueError("conformal dimension must be >= 3")

    @property
    def c(self) -> float:
        return -(self.d - 2.0) / (4.0 * (self.d - 1.0))

    @property
    def p(self) -> float:
        return (self.d + 2.0) / (self.d - 2.0)


def F_eps(v: np.ndarray, s_dev: np.ndarray, consts: YamabeConstants,
          S: float) -> np.ndarray:
    """Nonlinear source F(v); exact affine part at v = 0 is c (S - S_glued).

    The conformal law for (1 + v)^{4/(m-2)} g_glued with scalar curvature
    S gives kappa L v = (S_glued - S)(1 + p v) - S ((1+v)^p - 1 - p v)
    with kappa = -1/c, so the factor p on the (S - S_glued) v term is
    exact.
    """
    v = np.asarray(v, dtype=float)
    if np.max(np.abs(v)) > 0.5:
        raise IterateOutOfBall("sup|v| > 1/2 leaves the smallness regime")
    c, p = consts.c, consts.p
    return (c * s_dev + c * p * s_dev * v
            + c * S * ((1.0 + v) ** p - 1.0 - p * v))


@dataclass
class RadialProfile:
    """A symmetry-reduced grid function."""

    grid: RadialGrid
    values: np.ndarray

    def cap_sup(self) -> float:
        return float(np.max(np.abs(self.values[self.grid.cap_mask()])))

    def sup(self) -> float:
        return float(np.max(np.abs(self.values)))


@dataclass
class FixedPointReport:
    """History and certificates of one Picard solve."""

    eps: float
    delta: float
    sup_history: list
    increments: list
    v: RadialProfile
    residual: float
    r_eps: float
    C_prime: float
    C_second: float
    C_third: float
    iterations: int
    converged: bool
    mirror_defect: float
    contraction: float
    pre_dev: float
    profile: np.ndarray = field(repr=False, default=None)
    profile_err: np.ndarray = field(repr=False, default=None)
    operator: DiscreteOperator = field(repr=False, default=None)
    linear: SolveReport = field(repr=False, default=None)
    post_dev: float | None = None


def picard_solve(cfg: GluingConfig, resolution: int = 64, tol: float = 1e-11,
                 max_iter: int = 40, warp=None,
                 grid: RadialGrid | None = None,
                 profile=None) -> FixedPointReport:
    """Iterate v <- L^{-1} F(v) from v = 0 until sup|v_{j+1} - v_j| <= tol.

    The fixed-point radius r_eps = eps^{(n-2)/2 - delta} / (2 C''') uses
    the empirically fitted ball constant

        C''' = max_j sup|v_{j+1}| / (eps^{(n-2)/2+delta} + eps
                                     + eps^{delta-(n-2)/2} r_run^2),

    with r_run the largest observed iterate norm: the source inequality
    it instantiates is quantified over a ball, so the quadratic slack
    term carries the ball radius.  The constituent constants C' (the
    weighted source bound over eps^{n-2} + eps^{n/2-delta}) and C'' (= 1;
    the exponent juggling is sharp for these weights) are recorded
    separately.  Iterates must stay inside min(1/2, r_eps); leaving the
    ball raises IterationDiverged, a reportable outcome rather than
    undefined behavior.  ``warp`` is the neck profile callback of the
    metric to correct, by default the glued one (``gluing.glued_warp``).
    """
    n, m, delta = cfg.n, cfg.m, cfg.delta
    nu = cfg.nu
    eps = cfg.eps
    consts = YamabeConstants(m)
    if grid is None:
        grid = build_grid(cfg, resolution, warp)
    if profile is None:
        profile, profile_err = glued_curvature_profile(cfg, grid, warp)
    else:
        profile, profile_err = profile
    op = assemble_L(grid, profile, m)
    min_eig = op.min_abs_eig()

    S = cfg.S
    s_dev = S - profile
    psi = psi_of_t(grid.s, cfg)
    w_hi = psi ** ((n + 2) / 2.0 - delta)

    f0 = F_eps(np.zeros(grid.size), s_dev, consts, S)
    src_scale = eps ** (n - 2.0) + eps ** (n / 2.0 - delta)
    C_prime = float(np.max(w_hi * np.abs(f0))) / src_scale
    C_second = 1.0

    v = np.zeros(grid.size)
    sup_history = []
    diffs = []
    converged = False
    iterations = 0
    for _ in range(max_iter):
        try:
            f = F_eps(v, s_dev, consts, S)
        except IterateOutOfBall as exc:
            raise IterationDiverged(str(exc)) from exc
        v_new = solve(op, f)
        d = float(np.max(np.abs(v_new - v)))
        sup = float(np.max(np.abs(v_new)))
        if sup > 0.5:
            raise IterationDiverged(
                f"iterate sup|v| = {sup:.3e} exceeds the smallness bound 1/2")
        iterations += 1
        sup_history.append(sup)
        diffs.append(d)
        v = v_new
        if d <= tol:
            converged = True
            break
    r_run = max(sup_history)
    slack = eps ** (nu + delta) + eps + eps ** (delta - nu) * r_run**2
    C_third = r_run / slack
    # a vanishing source (an exact solution) leaves the ball unbounded
    r_eps = eps ** (nu - delta) / (2.0 * C_third) if C_third > 0 else float("inf")
    if r_run > min(0.5, r_eps):
        raise IterationDiverged(
            f"iterates reached sup|v| = {r_run:.3e}, outside the fixed-point "
            f"ball min(1/2, r_eps) = {min(0.5, r_eps):.3e}")
    residual = float(np.max(np.abs(op.apply(v) - F_eps(v, s_dev, consts, S))))
    mirror = float(np.max(np.abs(v - v[::-1])))
    contraction = float(np.median([diffs[i + 1] / diffs[i]
                                   for i in range(len(diffs) - 1)])) if len(diffs) > 1 else 0.0
    linear = SolveReport(solution=v.copy(), residual=residual,
                         min_abs_eig=min_eig, ratio=None,
                         C_prime=C_prime, C_second=C_second, C_third=C_third)
    return FixedPointReport(
        eps=eps, delta=delta, sup_history=sup_history, increments=diffs,
        v=RadialProfile(grid, v), residual=residual, r_eps=r_eps,
        C_prime=C_prime, C_second=C_second, C_third=C_third,
        iterations=iterations, converged=converged, mirror_defect=mirror,
        contraction=contraction,
        pre_dev=float(np.max(np.abs(s_dev))),
        profile=profile, profile_err=profile_err, operator=op, linear=linear,
    )


@dataclass
class CurvatureCheck:
    post_dev: float
    fd_err: float
    pre_dev: float
    samples: list
    post_values: np.ndarray = None


def verify_constant_curvature(report: FixedPointReport, cfg: GluingConfig,
                              n_neck: int = 14, n_cap: int = 6,
                              warp=None) -> CurvatureCheck:
    """Measure sup |S(conformal metric) - S| at sample points.

    The conformal factor w = 1 + v is the quintic spline through the
    solved v, a function of s alone, on g = g_K + U [ds^2 + q g_{S^{n-1}}]
    from ``warp`` (the glued metric's by default).  The conformal law in
    dimension m reads S~ = w^{-(m+2)/(m-2)} (S_g w - 4(m-1)/(m-2) Delta w)
    with Delta w = A (w'' + b w') from laplacian_coefficients and the
    spline's exact derivatives; S_g is neck_scalar_curvature on the neck
    and S on the caps.  ``fd_err`` carries S_g's bar through the law plus
    the rounding of the spline derivatives, amplified by A.
    """
    # imported here: scipy.interpolate is slow to import and only used here
    from scipy.interpolate import make_interp_spline

    warp = glued_warp(cfg) if warp is None else warp
    grid = report.v.grid
    v = report.v.values
    spl = make_interp_spline(grid.s, v, k=5)
    m, T, S = cfg.m, cfg.t_max, cfg.S

    ts = np.linspace(-(T - 0.4), T - 0.4, n_neck)
    rs = np.linspace(1.05, 0.85 * cfg.model_1.r_max, n_cap)
    s = np.concatenate([ts, -T - np.log(rs), T + np.log(rs)])
    samples = ([("neck", float(t)) for t in ts]
               + [(chart, float(r)) for chart in ("cap-1", "cap-2") for r in rs])
    S_g = np.full(s.shape, S)    # caps carry the summand metric exactly
    err_g = np.zeros_like(s)
    S_g[:n_neck], err_g[:n_neck] = neck_scalar_curvature(cfg, ts, warp)

    w, w1, w2 = 1.0 + spl(s), spl(s, 1), spl(s, 2)
    A, b = laplacian_coefficients(warp, cfg.n, s)
    kappa = 4.0 * (m - 1) / (m - 2)
    scale = w ** (-(m + 2.0) / (m - 2))
    post = np.abs(scale * (S_g * w - kappa * A * (w2 + b * w1)) - S)
    # spline derivatives of order j round at about eps_mach max|v| / h^j
    vmax, h = float(np.max(np.abs(v))), float(np.min(grid.h))
    mag = np.abs(S_g) * w + kappa * A * (np.abs(w2) + vmax / h**2
                                         + np.abs(b) * (np.abs(w1) + vmax / h))
    err = w ** (-4.0 / (m - 2)) * err_g + ROUNDING_ULPS * np.finfo(float).eps * scale * mag

    check = CurvatureCheck(float(np.max(post)), float(np.max(err)),
                           float(np.max(np.abs(S_g - S))), samples, post)
    report.post_dev = check.post_dev
    return check


@dataclass
class SweepRow:
    eps: float
    delta: float
    sup_v: float
    r_eps: float
    cap_sup_v: float
    iters: int
    residual: float
    pre_dev: float
    post_dev: float
    slope_so_far: float
    error: str = ""


@dataclass
class SweepTable:
    rows: list
    delta: float
    slope: float


def convergence_sweep(make_cfg, eps_list, delta: float = 0.3,
                      resolution: int = 64, tol: float = 1e-11,
                      max_iter: int = 40, verify: bool = True) -> SweepTable:
    """Run picard_solve per eps (descending) and fit the smallness rate.

    Requires max(0, (n-4)/2) < delta < (n-2)/2; per-run failures are
    recorded in their row and the sweep continues.
    """
    eps_sorted = sorted(eps_list, reverse=True)
    cfg0 = make_cfg(eps_sorted[0])
    n = cfg0.n
    lo = max(0.0, (n - 4) / 2.0)
    hi = (n - 2) / 2.0
    if not lo < delta < hi:
        raise DeltaOutOfRange(
            f"sweep requires delta in ({lo}, {hi}), got {delta}")

    rows, eps_done, sup_done = [], [], []
    for eps in eps_sorted:
        try:
            cfg = make_cfg(eps)
            rep = picard_solve(cfg, resolution=resolution, tol=tol,
                               max_iter=max_iter)
            if verify:
                verify_constant_curvature(rep, cfg)
        except Exception as exc:  # recorded per row, sweep continues
            rows.append(SweepRow(eps, delta, *([float("nan")] * 3),
                                 0, *([float("nan")] * 4),
                                 error=f"{type(exc).__name__}: {exc}"))
            continue
        eps_done.append(eps)
        sup_done.append(rep.v.sup())
        rows.append(SweepRow(
            eps, delta, rep.v.sup(), rep.r_eps, rep.v.cap_sup(),
            rep.iterations, rep.residual, rep.pre_dev,
            rep.post_dev if rep.post_dev is not None else float("nan"),
            loglog_slope(eps_done, sup_done)))
    return SweepTable(rows, delta, loglog_slope(eps_done, sup_done))
