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

from .curvature import DerivativeScheme, conformal_scalar, scalar_curvature
from .errors import DeltaOutOfRange, IterateOutOfBall, IterationDiverged
from .geometry import MetricField
from .gluing import GluingConfig, glued_metric, psi_of_t, s_of_chart
from .neck_analysis import loglog_slope
from .linear_solver import (
    DiscreteOperator,
    RadialGrid,
    SolveReport,
    _theta_sample,
    _z_sample,
    assemble_L,
    build_grid,
    glued_curvature_profile,
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


def F_eps(v: np.ndarray, s_dev: np.ndarray, consts: YamabeConstants, S: float,
          middle: str = "eq2") -> np.ndarray:
    """Nonlinear source F(v); exact affine part at v = 0 is c (S - S_glued).

    ``middle`` selects the coefficient of the (S - S_glued) v term: the
    substituted equation carries the factor p ("eq2"), while the compact
    restatement of the fixed-point map drops it ("plain"); both are kept
    since the fixed point is insensitive at leading order.
    """
    v = np.asarray(v, dtype=float)
    if np.max(np.abs(v)) > 0.5:
        raise IterateOutOfBall("sup|v| > 1/2 leaves the smallness regime")
    c, p = consts.c, consts.p
    mid = p if middle == "eq2" else 1.0
    return (c * s_dev + c * mid * s_dev * v
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
    pre_dev_err: float
    profile: np.ndarray = field(repr=False, default=None)
    profile_err: np.ndarray = field(repr=False, default=None)
    operator: DiscreteOperator = field(repr=False, default=None)
    linear: SolveReport = field(repr=False, default=None)
    post_dev: float | None = None
    post_dev_err: float | None = None


def picard_solve(cfg: GluingConfig, resolution: int = 64, tol: float = 1e-11,
                 max_iter: int = 40, middle: str = "eq2",
                 field_: MetricField | None = None,
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
    undefined behavior.
    """
    n, m, delta = cfg.n, cfg.m, cfg.delta
    nu = cfg.nu
    eps = cfg.eps
    consts = YamabeConstants(m)
    if grid is None:
        grid = build_grid(cfg, resolution, field=field_)
    if profile is None:
        profile, profile_err = glued_curvature_profile(cfg, grid, field=field_)
    else:
        profile, profile_err = profile
    op = assemble_L(grid, profile, m)
    min_eig = op.min_abs_eig()

    S = cfg.S
    s_dev = S - profile
    psi = psi_of_t(grid.s, cfg)
    w_hi = psi ** ((n + 2) / 2.0 - delta)

    f0 = F_eps(np.zeros(grid.size), s_dev, consts, S, middle)
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
            f = F_eps(v, s_dev, consts, S, middle)
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
    r_eps = eps ** (nu - delta) / (2.0 * C_third)
    if r_run > min(0.5, r_eps):
        raise IterationDiverged(
            f"iterates reached sup|v| = {r_run:.3e}, outside the fixed-point "
            f"ball min(1/2, r_eps) = {min(0.5, r_eps):.3e}")
    residual = float(np.max(np.abs(op.apply(v) - F_eps(v, s_dev, consts, S, middle))))
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
        pre_dev_err=float(np.max(profile_err)),
        profile=profile, profile_err=profile_err, operator=op, linear=linear,
    )


@dataclass
class CurvatureCheck:
    post_dev: float
    fd_err: float
    pre_dev: float
    samples: list
    post_values: np.ndarray = None


def conformal_factor_field(report: FixedPointReport, cfg: GluingConfig):
    """u = 1 + v lifted to full coordinates via a quintic spline in s."""
    # imported here: scipy.interpolate is slow to import and only used here
    from scipy.interpolate import make_interp_spline

    grid = report.v.grid
    spl = make_interp_spline(grid.s, report.v.values, k=5)
    lo, hi = grid.s[0], grid.s[-1]

    def u(chart_id, coords):
        s = np.clip(s_of_chart(cfg, chart_id, coords), lo, hi)
        return 1.0 + spl(s)

    return u


def verify_constant_curvature(report: FixedPointReport, cfg: GluingConfig,
                              n_neck: int = 14, n_cap: int = 6,
                              field_: MetricField | None = None,
                              scheme: DerivativeScheme | None = None) -> CurvatureCheck:
    """Measure sup |S(conformal metric) - S| at sample points.

    The conformal factor is the solved 1 + v; the curvature goes through
    the conformal transformation law in dimension m with its own
    finite-difference error estimate, and is compared against the
    deviation of the unsolved glued metric at the same points.
    """
    fld = glued_metric(cfg) if field_ is None else field_
    scheme = scheme or DerivativeScheme(base_step=2e-3, levels=3)
    u = conformal_factor_field(report, cfg)
    k, m, n = cfg.k, cfg.m, cfg.n
    T = cfg.t_max
    samples = []
    post = []
    errs = []
    pre = []

    ts = np.linspace(-(T - 0.4), T - 0.4, n_neck)
    pts = np.zeros((n_neck, m))
    pts[:, :k] = _z_sample(cfg.model_1)
    pts[:, k] = ts
    pts[:, k + 1:] = _theta_sample(n)
    val, err = conformal_scalar(fld, lambda c: u("neck", c), ("neck", pts),
                                scheme, dim=m)
    s_pre, _ = scalar_curvature(fld, ("neck", pts), scheme)
    post.extend(np.abs(val - cfg.S))
    errs.extend(err)
    pre.extend(np.abs(s_pre - cfg.S))
    samples.extend(("neck", float(t)) for t in ts)

    for chart in ("cap-1", "cap-2"):
        rs = np.linspace(1.05, 0.85 * cfg.model_1.r_max, n_cap)
        ptsc = np.zeros((n_cap, m))
        ptsc[:, :k] = _z_sample(cfg.model_1)
        ptsc[:, k] = rs
        ptsc[:, k + 1:] = _theta_sample(n)
        val, err = conformal_scalar(fld, lambda c, ch=chart: u(ch, c),
                                    (chart, ptsc), scheme, dim=m)
        post.extend(np.abs(val - cfg.S))
        errs.extend(err)
        pre.extend([0.0] * n_cap)  # caps carry the summand metric exactly
        samples.extend((chart, float(r)) for r in rs)

    check = CurvatureCheck(float(np.max(post)), float(np.max(errs)),
                           float(np.max(pre)), samples, np.asarray(post))
    report.post_dev = check.post_dev
    report.post_dev_err = check.fd_err
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

    rows = []
    done = []
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
        done.append((eps, rep.v.sup()))
        slope = (loglog_slope([e for e, _ in done], [s for _, s in done])
                 if len(done) >= 2 else float("nan"))
        rows.append(SweepRow(
            eps, delta, rep.v.sup(), rep.r_eps, rep.v.cap_sup(),
            rep.iterations, rep.residual, rep.pre_dev,
            rep.post_dev if rep.post_dev is not None else float("nan"),
            slope))
    slope = next((r.slope_so_far for r in reversed(rows)
                  if r.slope_so_far == r.slope_so_far), float("nan"))
    return SweepTable(rows, delta, slope)
