"""Numerical verification of the neck estimates.

Three groups of checks on the polyneck of a glued metric:

* the scalar-curvature deviation bound |S_glued - S| <= c eps^-1 (cosh t)^{1-n}
  on |t| <= |log eps| - 1, measured as a weighted sup and an edge-rate fit;
* the conjugation identity Delta = u^{-(n+2)/(n-2)} L_neck(u .) with
  L_neck = d_t^2 - ((n-2)/2)^2 + Delta_theta + u^{4/(n-2)} Delta_z up to an
  O(|x|) remainder;
* the barrier inequality Delta phi_delta <= -C u^{-4/(n-2)} phi_delta on
  T^eps_alpha with the explicit constant C = ((n-2)^2/4 - delta^2)/2, and the
  weighted local a priori estimate it implies.

Remainder orders are established by log-log slope fits with attached
error bars rather than symbolically.  All three are 1-D in t on the
neck's exact profile jets.  The conjugation probes are separable
products a(t) Y(theta) Z(z), so the finite-difference engine only
differentiates Y on S^{n-1} and Z on K, at one point each.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

# scalar_curvature is not called here, but bench/spans.py wraps it by name
from .curvature import DerivativeScheme, laplace_beltrami, scalar_curvature  # noqa: F401
from .errors import DeltaOutOfRange, EpsilonTooLarge, NotResolved
from .geometry import (
    AXIS_MARGIN,
    Chart,
    MetricField,
    k_laplacian_metric,
    sphere_polar_diag,
)
# glued_metric is not called here, but bench/spans.py wraps it by name
from .gluing import GluingConfig, Jet, glued_metric, glued_warp, psi_of_t  # noqa: F401
from .linear_solver import (
    ROUNDING_ULPS,
    RadialGrid,
    _theta_sample,
    _z_sample,
    assemble_L,
    build_grid,
    glued_curvature_profile,
    laplacian_coefficients,
    neck_scalar_curvature,
    solve_dirichlet,
)

RESOLVED_FACTOR = 10.0  # a deviation counts as resolved above 10x its error bar


def loglog_slope(x, y) -> float:
    """Least-squares slope of log y against log x; NaN below two points."""
    if len(x) < 2:
        return float("nan")
    lx, ly = np.log(np.asarray(x, float)), np.log(np.asarray(y, float))
    return float(np.polyfit(lx, ly, 1)[0])


@dataclass
class DeviationProfile:
    """Deviation measurements for one eps."""

    eps: float
    t: np.ndarray
    sup_dev: np.ndarray
    fd_err: np.ndarray
    bound_shape: np.ndarray       # eps^-1 (cosh t)^{1-n}
    weighted_sup: float           # W(eps) = sup eps (cosh t)^{n-1} |dev|
    probe_dev: float              # deviation at t = log eps + 1
    probe_err: float
    c_fit: float                  # smallest c making the bound hold on the grid
    resolved: np.ndarray = field(repr=False, default=None)


@dataclass
class DeviationFit:
    """Deviation sweep over eps with the edge-rate fit."""

    eps_list: list
    profiles: list
    probe_slope: float
    weighted_ratio: float  # max/min of W(eps) over the sweep


def deviation_profile(cfg: GluingConfig, t_grid=None, points_per_unit: int = 16,
                      warp=None) -> DeviationProfile:
    """Measure |S_glued - S| on the window |t| <= |log eps| - 1.

    S_glued depends on t alone (neck_scalar_curvature), so one radial
    line carries the whole deviation.  The default grid is symmetric
    about t = 0; an explicit ``t_grid`` inside the window may be passed
    instead.  The probe value is always taken at the window edge
    t = log(eps) + 1, and fit data keeps only points whose deviation
    exceeds ten times its error bar.  ``warp`` is the neck profile
    callback of the metric measured, by default the glued one.
    """
    T = cfg.t_max
    if T <= 1.0:
        raise EpsilonTooLarge("window |t| <= |log eps| - 1 is empty")
    if t_grid is None:
        nt = max(5, int(round((T - 1) * points_per_unit)) + 1)
        t_half = np.linspace(-(T - 1.0), 0.0, nt)
        t = np.concatenate([t_half, -t_half[-2::-1]])
    else:
        t = np.sort(np.asarray(t_grid, dtype=float))
        if t[0] < -(T - 1.0) - 1e-12 or t[-1] > T - 1.0 + 1e-12:
            raise ValueError("t_grid must lie inside |t| <= |log eps| - 1")
    # the probe rides along as entry 0
    S, err = neck_scalar_curvature(cfg, np.concatenate([[-(T - 1.0)], t]), warp)
    dev = np.abs(S - cfg.S)
    sup_dev, fd_err = dev[1:], err[1:]
    resolved = sup_dev > RESOLVED_FACTOR * fd_err
    if not np.any(resolved):
        raise NotResolved("error bars exceed the deviation")
    n = cfg.n
    bound_shape = np.cosh(t) ** (1 - n) / cfg.eps
    weighted = cfg.eps * np.cosh(t) ** (n - 1) * sup_dev
    W = float(np.max(weighted[resolved]))
    return DeviationProfile(
        cfg.eps, t, sup_dev, fd_err, bound_shape, W,
        probe_dev=float(dev[0]), probe_err=float(err[0]), c_fit=W,
        resolved=resolved,
    )


def deviation_fit(make_cfg, eps_list, **kwargs) -> DeviationFit:
    """Deviation profiles over an eps sweep plus the probe-rate fit.

    ``make_cfg`` maps eps to a GluingConfig (typically a partial of
    GluingConfig with both models fixed).
    """
    profiles = [deviation_profile(make_cfg(e), **kwargs) for e in eps_list]
    slope = loglog_slope(eps_list, [p.probe_dev for p in profiles])
    Ws = [p.weighted_sup for p in profiles]
    return DeviationFit(list(eps_list), profiles, slope, max(Ws) / min(Ws))


# ---------------------------------------------------------------------------
# Conjugation identity
# ---------------------------------------------------------------------------


def _unit_sphere_field(n: int) -> MetricField:
    names = tuple(f"theta{i + 1}" for i in range(n - 1))
    lo = [0.0] * (n - 2) + [-np.inf]
    hi = [math.pi] * (n - 2) + [np.inf]
    elo = [AXIS_MARGIN] * (n - 2) + [-np.inf]
    ehi = [math.pi - AXIS_MARGIN] * (n - 2) + [np.inf]
    per = [False] * (n - 2) + [True]
    chart = Chart("sphere", names, tuple(lo), tuple(hi), tuple(elo),
                  tuple(ehi), tuple(per))

    def comps(chart_id, th):
        d = sphere_polar_diag(th)
        out = np.zeros(th.shape[:-1] + (n - 1, n - 1))
        ii = np.arange(n - 1)
        out[..., ii, ii] = d
        return out

    return MetricField(n - 1, (chart,), comps)


# Separable probes v = a(t) Y(theta) Z(z): ``a`` maps a jet of t to a jet or
# a constant, Y and Z take points of S^{n-1} and of K (coordinates on the
# last axis)
PROBES = {
    "const": (lambda t: 1.0, lambda th: np.ones(th.shape[:-1]),
              lambda z: np.ones(z.shape[:-1])),
    "wavy": (lambda t: 1.0 + 0.3 * np.cos(t),
             lambda th: 1.0 + 0.2 * np.cos(th[..., 0]),
             lambda z: 1.0 + 0.1 * np.sin(z[..., 0])),
}


def factor_laplacians(cfg: GluingConfig, Y, Z,
                      scheme: DerivativeScheme | None = None):
    """(Y, Delta_theta Y, Z, Delta_K Z) of a probe's factors.

    Taken at the neck line's sample (theta, z), with one finite-difference
    call per factor on its own metric at ``scheme``'s steps; with no K
    factor Z is 1.
    """
    scheme = scheme or DerivativeScheme()

    def factor(fld, chart_id, g, x):
        x = np.asarray(x, float)
        return float(g(x)), laplace_beltrami(fld, g, (chart_id, x), scheme).value

    zf = (factor(k_laplacian_metric(cfg.model_1), "k-factor", Z,
                 _z_sample(cfg.model_1)) if cfg.k else (1.0, 0.0))
    return factor(_unit_sphere_field(cfg.n), "sphere", Y, _theta_sample(cfg.n)) + zf


def neck_coefficients(cfg: GluingConfig, t):
    """(A, b, q) of the glued neck g_K + U [dt^2 + q g_{S^{n-1}}] at t.

    Delta f = A (f'' + b f') for f = f(t), with A = 1/U
    (laplacian_coefficients).
    """
    warp = glued_warp(cfg)
    return (*laplacian_coefficients(warp, cfg.n, t), warp(t)[1])


def separable_terms(cfg: GluingConfig, f: Jet, factors, neck):
    """(Delta_g w, L_neck w) of w = f(t) Y(theta) Z(z) at the t of ``neck``.

    ``f`` is the jet of the t factor there, ``factors`` is
    factor_laplacians(cfg, Y, Z) and ``neck`` is neck_coefficients(cfg, t):
    Delta_g w = Delta_K w + A (w'' + b w') + (A / q) Delta_theta w and
    L_neck w = w'' - nu^2 w + Delta_theta w + U Delta_K w.
    """
    y, lap_y, zf, lap_z = factors
    A, b, q = neck
    lap = f.v * y * lap_z + A * ((f.dd + b * f.d) * y * zf + f.v * lap_y * zf / q)
    ell = ((f.dd - cfg.nu**2 * f.v) * y * zf
           + f.v * (lap_y * zf + y * lap_z / A))
    return lap, ell


def ell_leading(cfg: GluingConfig, w, t):
    """Leading neck operator d_t^2 - nu^2 + Delta_theta + u^{4/(n-2)} Delta_z.

    ``w = (f, Y, Z)`` is a separable function f(t) Y(theta) Z(z) as in
    PROBES, evaluated along the line (z, t_i, theta).  The O(|x|)
    remainder is deliberately omitted; comparing against the true
    Laplacian measures it.
    """
    f, Y, Z = w
    t = np.asarray(t, dtype=float)
    fj = Jet.lift(f(Jet.variable(t)))
    return separable_terms(cfg, fj, factor_laplacians(cfg, Y, Z),
                           neck_coefficients(cfg, t))[1]


@dataclass
class ConjugationReport:
    max_ratio: float
    per_probe: list
    t: np.ndarray


def conjugation_residual(cfg: GluingConfig, t_samples=None,
                         scheme: DerivativeScheme | None = None) -> ConjugationReport:
    """Measure |Delta v - u^{-(n+2)/(n-2)} L_neck(u v)| / (|x| scale) for the PROBES.

    The scale is u^{-(n+2)/(n-2)} times the largest second-order datum of
    u v, so a bounded ratio certifies that the discrepancy is a second
    order operator with O(|x|)-sized coefficients.  Both sides come from
    separable_terms on the same factor Laplacians, so the difference is
    the warped product's remainder
    U^{-1} [((n-1)/2)(q'/q) v_t - (u''/u - nu^2) v + (1/q - 1) Delta_theta v]
    up to rounding; ``scheme`` sets the steps of the factor Laplacians.
    """
    T = cfg.t_max
    t = (np.asarray(t_samples, float) if t_samples is not None
         else np.linspace(-(T - 0.6), T - 0.6, 9))
    pexp = (cfg.n + 2.0) / (cfg.n - 2.0)
    tj = Jet.variable(t)
    u = cfg.u(tj)
    neck = neck_coefficients(cfg, t)
    xabs = cfg.eps * np.exp(np.abs(t))
    results = []
    for name, (a, Y, Z) in PROBES.items():
        factors = factor_laplacians(cfg, Y, Z, scheme)
        v = Jet.lift(a(tj))
        uv = u * v
        lhs, _ = separable_terms(cfg, v, factors, neck)
        _, ell = separable_terms(cfg, uv, factors, neck)
        w0 = uv.v * factors[0] * factors[2]
        rhs = u.v ** (-pexp) * ell
        # scale: largest second-order datum entering the identity
        scale = u.v ** (-pexp) * np.maximum.reduce([
            np.abs(ell), np.abs(w0), np.full_like(w0, 1e-12)])
        ratio = np.abs(lhs - rhs) / (xabs * np.maximum(scale, np.abs(lhs)))
        results.append((name, float(np.max(ratio)), ratio))
    return ConjugationReport(max(r[1] for r in results), results, t)


# ---------------------------------------------------------------------------
# Barrier inequality
# ---------------------------------------------------------------------------


def barrier_constant(n: int, delta: float) -> float:
    """C(n, delta) = (((n-2)/2)^2 - delta^2) / 2 from the barrier proof."""
    nu = (n - 2) / 2.0
    return 0.5 * (nu**2 - delta**2)


def required_alpha(n: int, delta: float) -> float:
    """Smallest margin parameter with e^{-alpha} <= C(n, delta)."""
    return -math.log(barrier_constant(n, delta))


def induced_eps_alpha(n: int, delta: float, alpha: float | None = None) -> float:
    """Largest admissible eps for the barrier region at this (delta, alpha)."""
    a = max(alpha if alpha is not None else 0.0, required_alpha(n, delta))
    return math.exp(-a)


def barrier_profile(cfg: GluingConfig, delta: float, t):
    """phi_delta = u^{-1} (cosh t)^delta (delta <= 0) or u^{-1} cosh(delta t); t may be a jet."""
    u = cfg.u(t)
    if delta <= 0:
        return np.cosh(t) ** delta / u
    return np.cosh(delta * t) / u


@dataclass
class BarrierReport:
    delta: float
    eps: float
    alpha: float
    C: float
    alpha_min: float
    eps_alpha: float
    t: np.ndarray
    margins: np.ndarray
    min_margin: float
    fd_err: np.ndarray


def barrier_margin(cfg: GluingConfig, delta: float | None = None,
                   points_per_unit: int = 16) -> BarrierReport:
    """Margins -(Delta phi_delta + C u^{-4/(n-2)} phi_delta) on T^eps_alpha.

    A nonnegative minimum certifies the barrier inequality numerically at
    this (eps, alpha, delta).  phi_delta depends on t alone and the neck
    is a warped product, so Delta phi = A (phi'' + b phi') with (A, b)
    from laplacian_coefficients and phi's exact jets; ``fd_err`` is the
    rounding bound of the margins.  Preconditions: |delta| < (n-2)/2 and
    eps small enough that log eps + alpha < 0 and e^{-alpha} <= C.
    """
    delta = cfg.delta if delta is None else delta
    n = cfg.n
    nu = (n - 2) / 2.0
    if not -nu < delta < nu:
        raise DeltaOutOfRange(f"delta must lie in (-{nu}, {nu}), got {delta}")
    C = barrier_constant(n, delta)
    a_min = required_alpha(n, delta)
    eps_a = induced_eps_alpha(n, delta, cfg.alpha)
    if math.log(cfg.eps) + cfg.alpha >= 0.0:
        raise EpsilonTooLarge(
            f"barrier region empty: log eps + alpha = "
            f"{math.log(cfg.eps) + cfg.alpha:.4f} >= 0 (eps_alpha = {eps_a:.4g})")
    if math.exp(-cfg.alpha) > C:
        raise EpsilonTooLarge(
            f"alpha = {cfg.alpha} too small for C = {C:.4g}; "
            f"need alpha >= {a_min:.4g} (eps_alpha = {eps_a:.4g})")
    ta = cfg.t_max - cfg.alpha
    nt = max(5, int(round(2 * ta * points_per_unit)) + 1)
    t = np.linspace(-ta, ta, nt)
    phi = barrier_profile(cfg, delta, Jet.variable(t))
    A, b = laplacian_coefficients(glued_warp(cfg), n, t)
    terms = (A * phi.dd, A * b * phi.d, C * A * phi.v)  # A = u^{-4/(n-2)}
    margins = -sum(terms)
    err = ROUNDING_ULPS * np.finfo(float).eps * sum(np.abs(x) for x in terms)
    if not np.all(np.isfinite(margins)):
        raise ArithmeticError("barrier margins must be finite on the region")
    return BarrierReport(delta, cfg.eps, cfg.alpha, C, a_min, eps_a, t,
                         margins, float(np.min(margins)), err)


# ---------------------------------------------------------------------------
# Local weighted a priori estimate
# ---------------------------------------------------------------------------


@dataclass
class LocalEstimateReport:
    max_ratio: float
    per_probe: list
    window: tuple


def local_estimate_ratio(cfg: GluingConfig, resolution: int = 64,
                         probes: str = "standard",
                         grid: RadialGrid | None = None,
                         profile: np.ndarray | None = None) -> LocalEstimateReport:
    """Empirical constant of the local weighted estimate on T^eps_alpha.

    For solutions of L v = f on the window with boundary data on its
    edge, returns the max over probe pairs of
        sup |psi^{(n-2)/2-d} v| / (sup |psi^{(n+2)/2-d} f|
                                   + sup_boundary |psi^{(n-2)/2-d} v|).
    Probes: the discrete harmonic extension of boundary data 1, the
    barrier profile itself, and a smooth interior source with zero
    boundary data.
    """
    n, delta = cfg.n, cfg.delta
    T = cfg.t_max
    ta = T - cfg.alpha
    if ta <= 0:
        raise EpsilonTooLarge("window T^eps_alpha is empty")
    if grid is None:
        grid = build_grid(cfg, resolution)
    if profile is None:
        profile, _ = glued_curvature_profile(cfg, grid)
    op = assemble_L(grid, profile, cfg.m)
    s = grid.s
    inside = np.where(np.abs(s) <= ta + 1e-12)[0]
    i0, i1 = int(inside[0]), int(inside[-1])
    if i1 - i0 < 8:
        raise EpsilonTooLarge("window T^eps_alpha has too few grid nodes")
    psi = psi_of_t(s[i0:i1 + 1], cfg)
    lo = (n - 2) / 2.0 - delta
    hi = (n + 2) / 2.0 - delta

    win = slice(i0, i1 + 1)
    cases = []
    if probes == "standard":
        zero = np.zeros(grid.size)
        cases.append(("harmonic-extension", zero, 1.0, 1.0))
        phi = barrier_profile(cfg, delta, s)
        fphi = op.apply(phi)
        cases.append(("barrier-profile", fphi, phi[i0], phi[i1]))
        span = s[i1] - s[i0]
        fr = np.zeros(grid.size)
        xi = (s[win] - s[i0]) / span
        fr[win] = np.sin(math.pi * xi) * (1.0 + 0.4 * np.cos(3 * math.pi * xi))
        cases.append(("interior-source", fr, 0.0, 0.0))
    else:
        cases = probes

    out = []
    for name, f, left, right in cases:
        v = solve_dirichlet(op, f, i0, i1, left, right)
        num = float(np.max(psi**lo * np.abs(v)))
        den = float(np.max(psi**hi * np.abs(np.asarray(f)[win])))
        den_b = max(psi[0]**lo * abs(v[0]), psi[-1]**lo * abs(v[-1]))
        out.append((name, num / (den + den_b)))
    return LocalEstimateReport(max(r[1] for r in out), out, (i0, i1))
