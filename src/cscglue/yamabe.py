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

import math
from dataclasses import dataclass, field

import numpy as np

# conformal_scalar, scalar_curvature and glued_metric are not called here,
# but bench/spans.py wraps them by name
from .curvature import conformal_scalar, scalar_curvature  # noqa: F401
from .errors import (ConfigError, DeltaOutOfRange, GlueError, IterateOutOfBall,
                     IterationDiverged, NoConvergence)
from .gluing import GluingConfig, Jet, glued_metric  # noqa: F401
from .lapack import dgbsv
from .neck_analysis import loglog_slope, refuse_repeated_eps
from .linear_solver import (
    ROUNDING_ULPS,
    DiscreteOperator,
    RadialGrid,
    assemble_L,
    build_grid,
    glued_curvature_profile,
    laplacian_coefficients,
    neck_scalar_curvature,
    solve,
)


def F_eps(v: np.ndarray, s_dev: np.ndarray, m: int, S: float) -> np.ndarray:
    """Nonlinear source F(v); exact affine part at v = 0 is c (S - S_glued).

    c = -(m-2)/(4(m-1)) and p = (m+2)/(m-2) are the conformal constants
    of the total dimension m >= 3.  The conformal law for
    (1 + v)^{4/(m-2)} g_glued with scalar curvature S gives
    kappa L v = (S_glued - S)(1 + p v) - S ((1+v)^p - 1 - p v) with
    kappa = -1/c, so the factor p on the (S - S_glued) v term is exact.
    Raises ValueError for m < 3 and IterateOutOfBall unless sup|v| <= 1/2,
    so a NaN in v raises too.
    """
    if m < 3:
        raise ValueError(f"conformal dimension m must be >= 3, got {m}")
    v = np.asarray(v, dtype=float)
    sup = np.max(np.abs(v))
    if not sup <= 0.5:
        raise IterateOutOfBall(f"sup|v| = {sup:.3e} is not <= 1/2, the smallness regime")
    c = -(m - 2.0) / (4.0 * (m - 1.0))
    p = (m + 2.0) / (m - 2.0)
    return (c * s_dev + c * p * s_dev * v
            + c * S * ((1.0 + v) ** p - 1.0 - p * v))


@dataclass
class RadialProfile:
    """A symmetry-reduced grid function."""

    grid: RadialGrid
    values: np.ndarray

    def cap_sup(self) -> float:
        return float(np.max(np.abs(self.values[self.grid.cap])))

    def sup(self) -> float:
        return float(np.max(np.abs(self.values)))


def smallness_ball(cfg: GluingConfig) -> float:
    """Radius of the ball around v = 0 that every Picard iterate must stay in.

    min(1/2, b) with b^2 = eps^{n-2} + eps^{1+nu-delta} and nu = (n-2)/2:
    r <= b is the fixed-point bound 2 r^2 <= eps^{nu-delta} (eps^{nu+delta}
    + eps) + r^2, whose source terms eps^{nu+delta} + eps and quadratic
    remainder r^2 are the paper's.  1/2 is the smallness regime of F_eps.
    """
    b2 = cfg.eps ** (cfg.n - 2.0) + cfg.eps ** (1.0 + cfg.nu - cfg.delta)
    return min(0.5, math.sqrt(b2))


@dataclass
class FixedPointReport:
    """History and certificates of one Picard solve.

    ``sup_history`` holds sup|v| of each iterate, all inside
    smallness_ball(cfg), and ``increments`` sup|v_{j+1} - v_j|.
    ``operator`` is the L the iterates were solved with.  Its smallest
    eigenvalue ``min_abs_eig`` is computed when first read and cached: the
    solve needs only invertibility, which its gate checked.  ``linear`` is
    the same operator under the name bench/checks.py reads.
    """

    sup_history: list
    increments: list
    v: RadialProfile
    residual: float
    converged: bool
    mirror_defect: float
    contraction: float
    pre_dev: float
    operator: DiscreteOperator = field(repr=False, default=None)

    @property
    def iterations(self) -> int:
        return len(self.sup_history)

    @property
    def linear(self) -> DiscreteOperator:
        return self.operator


def picard_solve(cfg: GluingConfig, resolution: int, tol: float = 1e-11,
                 max_iter: int = 40, grid: RadialGrid | None = None,
                 profile=None) -> FixedPointReport:
    """Iterate v <- L^{-1} F(v) from v = 0 until sup|v_{j+1} - v_j| <= tol.

    Every iterate must stay inside the ball of radius smallness_ball(cfg):
    the first one outside raises IterationDiverged, naming its sup|v| and
    the radius, a reportable outcome rather than undefined behavior.
    ``grid`` and ``profile`` let a caller that already built them reuse
    its grid and its glued_curvature_profile pair (values, error bar);
    only the values of the pair are read, and ``resolution`` only when
    ``grid`` is None.  Each solve passes ``solve``'s invertibility gate,
    which checks the operator once; the smallest eigenvalue is not
    computed here but when the report's ``operator.min_abs_eig`` is
    read.  Raises ValueError for max_iter < 1 and for a tol that is not
    positive and finite.
    """
    if max_iter < 1:
        raise ValueError(f"max_iter must be >= 1, got {max_iter}")
    # a chained comparison with NaN is False, so NaN is refused too
    if not 0.0 < tol < math.inf:
        raise ValueError(f"tol must be positive and finite, got {tol}")
    if grid is None:
        grid = build_grid(cfg, resolution)
    ball = smallness_ball(cfg)
    profile, _ = (glued_curvature_profile(cfg, grid) if profile is None
                  else profile)
    op = assemble_L(grid, profile, cfg.m)

    S = cfg.S
    s_dev = S - profile
    v = np.zeros(grid.size)
    sup_history = []
    diffs = []
    converged = False
    for _ in range(max_iter):
        v_new = solve(op, F_eps(v, s_dev, cfg.m, S))
        d = float(np.max(np.abs(v_new - v)))
        sup = float(np.max(np.abs(v_new)))
        if sup > ball:
            raise IterationDiverged(
                f"iterate sup|v| = {sup:.3e} leaves the smallness ball of "
                f"radius {ball:.3e}")
        sup_history.append(sup)
        diffs.append(d)
        v = v_new
        if d <= tol:
            converged = True
            break
    residual = float(np.max(np.abs(op.apply(v) - F_eps(v, s_dev, cfg.m, S))))
    mirror = float(np.max(np.abs(v - v[::-1])))
    # np.median of the ratios, without the numpy.ma import it makes on first use
    r = sorted(diffs[i + 1] / diffs[i] for i in range(len(diffs) - 1))
    h = len(r) // 2
    contraction = (0.0 if not r else math.nan if any(map(math.isnan, r))
                   else r[h] if len(r) % 2 else (r[h - 1] + r[h]) / 2)
    return FixedPointReport(
        sup_history=sup_history, increments=diffs,
        v=RadialProfile(grid, v), residual=residual, converged=converged,
        mirror_defect=mirror, contraction=contraction,
        pre_dev=float(np.max(np.abs(s_dev))), operator=op,
    )


@dataclass
class CurvatureCheck:
    post_dev: float
    fd_err: float
    pre_dev: float
    samples: list
    post_values: np.ndarray = None


VERIFY_NECK_SAMPLES = 14  # t samples on the neck
VERIFY_CAP_SAMPLES = 6    # r samples on each cap
SPLINE_DEGREE = 5  # of the spline through v; its knot rule needs it odd


def _knots_near(knots, ell):
    """Row r is knots[ell + r + 1 - SPLINE_DEGREE], r = 0 .. 2 SPLINE_DEGREE - 1."""
    return knots[ell + np.arange(1 - SPLINE_DEGREE, SPLINE_DEGREE + 1)[:, None]]


def _raise_degree(h, t, x):
    """The j + 1 B-splines of degree j nonzero at x, from the j of degree j - 1 in h.

    One Cox-de Boor step (de Boor, A Practical Guide to Splines, ch. X),
    rounded as scipy.interpolate's evaluator rounds it.  Row a of h is
    B_{ell-j+1+a} and row a of the result B_{ell-j+a}, for ell the knot
    interval of x and t = _knots_near(knots, ell).
    """
    k, j = SPLINE_DEGREE, len(h)
    xb, xa = t[k:k + j], t[k - j:k]  # knots[ell + i], knots[ell + i - j] for i = 1..j
    w = h / (xb - xa)
    out = np.zeros((j + 1, x.size))
    out[:j] = w * (xb - x)
    out[1:] += w * (x - xa)
    return out


def _differentiate(h, t):
    """Derivatives of the j + 1 B-splines of degree j, from the j of degree j - 1 in h.

    De Boor's derivative step; an h of derivatives gives one order more.
    """
    k, j = SPLINE_DEGREE, len(h)
    w = j * h / (t[k:k + j] - t[k - j:k])
    out = np.zeros((j + 1, h.shape[1]))
    out[1:] = w
    out[:j] -= w
    return out


class InterpolatingSpline:
    """The not-a-knot spline of degree SPLINE_DEGREE through (s, v), s increasing.

    Knots: s[0] and s[-1] each SPLINE_DEGREE + 1 times around the interior
    nodes s[3:-3], so there is one B-spline coefficient per node.  Row i of
    the collocation matrix holds the B-splines nonzero at s_i, raised one
    degree at a time; its entries SPLINE_DEGREE off the diagonal are exact
    zeros, so one LAPACK banded LU solve (``lapack.dgbsv``) in the band (4, 4)
    gives the coefficients, those of
    scipy.interpolate.make_interp_spline(s, v, k=5).  The band is packed
    straight into gbsv's Fortran-ordered layout, which ``lapack.dgbsv``
    checks and factors in place, so nothing is copied on the way.  A
    singular collocation matrix raises LinAlgError there.  Raises
    ValueError unless s is strictly increasing with at least
    SPLINE_DEGREE + 1 nodes and v has one value per node.
    """

    def __init__(self, s, v):
        k, n = SPLINE_DEGREE, s.size
        # a comparison with NaN is False, so a NaN node is refused too
        if not (s.ndim == 1 and n > k and np.all(s[1:] > s[:-1])):
            raise ValueError(f"s must be strictly increasing with at least {k + 1} "
                             f"nodes, got shape {s.shape}")
        if np.shape(v) != s.shape:
            raise ValueError(f"v has shape {np.shape(v)}, s has shape {s.shape}")
        half = (k + 1) // 2  # s[:3] and s[-3:] are not knots
        self.knots = np.concatenate([np.full(k + 1, s[0]), s[half:-half],
                                     np.full(k + 1, s[-1])])
        i = np.arange(n)
        ell = np.clip(i + half, k, n - 1)  # knot interval of s_i, = knots[i + 3] inside
        t = _knots_near(self.knots, ell)
        B = np.ones((1, n))
        for _ in range(k):
            B = _raise_degree(B, t, s)
        # entry (i, j) = B[a, i] with j = ell_i - k + a goes to ab[2 kl + i - j, j],
        # gbsv's band storage: its first kl rows are room for the LU fill-in
        kl = k - 1
        ab = np.zeros((3 * kl + 1, n), order="F")
        # on the rows i = k - half .. n - 1 - half, ell_i = i + half, so each
        # a is one strided slice: band row 2 kl + k - half - a, columns from a
        for a in range(k + 1):
            ab[2 * kl + k - half - a, a:a + n - k] = B[a, k - half:n - half]
        # the rows where ell is clipped, by the general scatter
        edge = np.r_[:k - half, n - half:n]
        j = ell[edge] - k + np.arange(k + 1)[:, None]
        band = np.abs(edge - j) <= kl
        ab[(2 * kl + edge - j)[band], j[band]] = B[:, edge][band]
        self.coef = dgbsv(kl, kl, ab, np.asarray_chkfinite(v, dtype=float))

    def jet(self, x) -> Jet:
        """(w, w', w'') of the spline at x in [s[0], s[-1]], as a Jet."""
        k = SPLINE_DEGREE
        # the knot interval of x: knots[ell] <= x < knots[ell + 1], the last one closed
        ell = np.clip(np.searchsorted(self.knots, x, side="right") - 1,
                      k, self.coef.size - 1)
        t = _knots_near(self.knots, ell)
        B = np.ones((1, x.size))
        for _ in range(k - 2):
            B = _raise_degree(B, t, x)
        B1 = _raise_degree(B, t, x)
        basis = (_raise_degree(B1, t, x), _differentiate(B1, t),
                 _differentiate(_differentiate(B, t), t))
        c = self.coef[ell - k + np.arange(k + 1)[:, None]]
        return Jet(*(sum(c * b) for b in basis))


def verify_constant_curvature(report: FixedPointReport,
                              cfg: GluingConfig) -> CurvatureCheck:
    """Measure sup |S(conformal metric) - S| at sample points.

    The conformal factor w = 1 + v is the not-a-knot quintic spline
    through the solved v (InterpolatingSpline: knots s[0] and s[-1] six
    times around s[3:-3], B-spline coefficients from one banded solve in
    numpy's LAPACK, ``lapack.dgbsv``, in the collocation matrix's true
    (4, 4) band), a function of s alone, on the metric of
    cfg, the one the solve corrected:
    g = g_K + U [ds^2 + q g_{S^{n-1}}] (``cfg.warp``).  The
    conformal law in dimension m reads S~ = w^{-(m+2)/(m-2)} (S_g w - 4(m-1)/(m-2) Delta w)
    with Delta w = A (w'' + b w') from laplacian_coefficients and the
    spline's exact derivatives; S_g is neck_scalar_curvature on the neck
    and S on the caps, both read from one evaluation of the profile jets.
    ``fd_err`` carries S_g's bar through the law plus the rounding of the
    spline derivatives, amplified by A.
    """
    grid = report.v.grid
    v = report.v.values
    m, T, S = cfg.m, cfg.t_max, cfg.S

    ts = np.linspace(-(T - 0.4), T - 0.4, VERIFY_NECK_SAMPLES)
    rs = np.linspace(1.05, 0.85 * cfg.model_1.r_max, VERIFY_CAP_SAMPLES)
    s = np.concatenate([ts, -T - np.log(rs), T + np.log(rs)])
    samples = ([("neck", float(t)) for t in ts]
               + [(chart, float(r)) for chart in ("cap-1", "cap-2") for r in rs])
    u, q = cfg.warp_jets(s)
    S_g, err_g = neck_scalar_curvature(cfg, u, q)
    S_g[ts.size:], err_g[ts.size:] = S, 0.0  # caps carry the summand metric exactly

    spline = InterpolatingSpline(grid.s, v).jet(s)
    w, w1, w2 = 1.0 + spline.v, spline.d, spline.dd
    A, b = laplacian_coefficients(cfg, u, q)
    kappa = 4.0 * (m - 1) / (m - 2)
    scale = w ** (-(m + 2.0) / (m - 2))
    post = np.abs(scale * (S_g * w - kappa * A * (w2 + b * w1)) - S)
    # spline derivatives of order j round at about eps_mach max|v| / h^j
    vmax, h = float(np.max(np.abs(v))), float(np.min(grid.h))
    mag = np.abs(S_g) * w + kappa * A * (np.abs(w2) + vmax / h**2
                                         + np.abs(b) * (np.abs(w1) + vmax / h))
    err = w ** (-4.0 / (m - 2)) * err_g + ROUNDING_ULPS * np.finfo(float).eps * scale * mag

    return CurvatureCheck(float(np.max(post)), float(np.max(err)),
                          float(np.max(np.abs(S_g - S))), samples, post)


@dataclass
class SweepRow:
    eps: float
    delta: float
    sup_v: float
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


def convergence_sweep(make_cfg, eps_list, resolution: int,
                      delta: float | None = None, tol: float = 1e-11,
                      max_iter: int = 40) -> SweepTable:
    """Solve and verify per eps (descending) and fit the smallness rate.

    Each row runs picard_solve, then verify_constant_curvature for its
    post_dev.  ``make_cfg`` maps eps to a GluingConfig; every config must
    carry the same delta, which ``delta`` (by default the configs' own)
    repeats.  Requires max(0, (n-4)/2) < delta < (n-2)/2.  A run that fails with a
    GlueError is recorded in its row and the sweep continues; so is a solve
    that stops at ``max_iter`` unconverged, as NoConvergence.  Raises
    ValueError for an empty eps_list and for an eps listed twice.
    """
    eps_sorted = sorted(eps_list, reverse=True)
    if not eps_sorted:
        raise ValueError("eps_list must hold at least one eps")
    refuse_repeated_eps(eps_sorted)
    cfgs = [make_cfg(eps) for eps in eps_sorted]
    delta = cfgs[0].delta if delta is None else delta
    n = cfgs[0].n
    lo = max(0.0, (n - 4) / 2.0)
    hi = (n - 2) / 2.0
    if not lo < delta < hi:
        raise DeltaOutOfRange(
            f"sweep requires delta in ({lo}, {hi}), got {delta}")
    if any(cfg.delta != delta for cfg in cfgs):
        raise ConfigError(f"sweep delta {delta} differs from the configs' "
                          f"{sorted({cfg.delta for cfg in cfgs})}")

    rows, eps_done, sup_done = [], [], []
    for eps, cfg in zip(eps_sorted, cfgs):
        try:
            rep = picard_solve(cfg, resolution=resolution, tol=tol,
                               max_iter=max_iter)
            if not rep.converged:
                raise NoConvergence(
                    f"Picard stopped after {rep.iterations} iterations with its last "
                    f"increment {rep.increments[-1]:.3e} above tol {tol:g}")
            post_dev = verify_constant_curvature(rep, cfg).post_dev
        except GlueError as exc:  # recorded per row, sweep continues
            rows.append(SweepRow(eps, delta, *([float("nan")] * 2),
                                 0, *([float("nan")] * 4),
                                 error=f"{type(exc).__name__}: {exc}"))
            continue
        eps_done.append(eps)
        sup_done.append(rep.v.sup())
        rows.append(SweepRow(
            eps, delta, rep.v.sup(), rep.v.cap_sup(),
            rep.iterations, rep.residual, rep.pre_dev, post_dev,
            loglog_slope(eps_done, sup_done)))
    return SweepTable(rows, delta, loglog_slope(eps_done, sup_done))
