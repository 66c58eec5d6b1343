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
differentiates Y on S^{n-1} and Z on K, at one point each and once per
model and scheme.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

# scalar_curvature is not called here, but bench/spans.py wraps it by name
from .curvature import DerivativeScheme, laplace_beltrami, scalar_curvature  # noqa: F401
from .errors import DeltaOutOfRange, EpsilonTooLarge, NotResolved, in_double_range
from .geometry import Factor, ModelGeometry, factor_metric, sample_orbit
# glued_metric is not called here, but bench/spans.py wraps it by name
from .gluing import GluingConfig, Jet, check_neck, glued_metric, psi_of_t  # noqa: F401
from .linear_solver import (
    ROUNDING_ULPS,
    assemble_L,
    build_grid,
    estimate_ratio,
    estimate_weights,
    glued_curvature_profile,
    laplacian_coefficients,
    neck_scalar_curvature,
    solve_dirichlet,
)

RESOLVED_FACTOR = 10.0  # a deviation counts as resolved above 10x its error bar
POINTS_PER_UNIT = 16    # t samples per unit on the deviation and barrier windows


def loglog_slope(x, y) -> float:
    """Least-squares slope of log y against log x, in closed form from
    centred sums: sum (lx - mean lx)(ly - mean ly) / sum (lx - mean lx)^2.

    NaN, without a warning, below two points, for an x or y that is not
    positive and finite (an exact solution's sup|v| = 0 has no rate) and
    for x with no spread.
    """
    if len(x) < 2:
        return float("nan")
    x, y = np.asarray(x, float), np.asarray(y, float)
    if x.shape != y.shape:
        raise ValueError(f"x and y differ in shape: {x.shape} and {y.shape}")
    if not all(np.all((0.0 < a) & (a < np.inf)) for a in (x, y)):
        return float("nan")
    lx, ly = np.log(x), np.log(y)
    if lx.min() == lx.max():
        return float("nan")
    dx = lx - lx.mean()
    return float((dx * (ly - ly.mean())).sum() / (dx * dx).sum())


def refuse_repeated_eps(eps_list) -> None:
    """Raise ValueError naming the first eps that eps_list holds twice.

    A rate fit through two coincident points is no fit.
    """
    eps_list = list(eps_list)
    repeated = [e for i, e in enumerate(eps_list) if e in eps_list[:i]]
    if repeated:
        raise ValueError(f"eps {float(repeated[0])!r} is listed more than once")


@dataclass
class DeviationProfile:
    """Deviation measurements for one eps."""

    eps: float
    t: np.ndarray
    sup_dev: np.ndarray
    fd_err: np.ndarray
    # W(eps) = sup eps (cosh t)^{n-1} |dev| over the resolved points: the
    # smallest c for which the bound c eps^-1 (cosh t)^{1-n} holds there
    weighted_sup: float
    probe_dev: float              # deviation at t = log eps + 1
    resolved: np.ndarray = field(repr=False)


@dataclass
class DeviationFit:
    """Deviation sweep over eps with the edge-rate fit."""

    profiles: list
    probe_slope: float
    weighted_ratio: float  # max/min of W(eps) over the sweep


def deviation_profile(cfg: GluingConfig) -> DeviationProfile:
    """Measure |S_glued - S| on the window |t| <= |log eps| - 1.

    S_glued depends on t alone (neck_scalar_curvature), so one radial
    line carries the whole deviation.  The t grid is symmetric about
    t = 0 with POINTS_PER_UNIT samples per unit and ends at the window
    edges; the probe value is the deviation at the edge t = log(eps) + 1.
    Fit data keeps only points whose deviation exceeds ten times its
    error bar.  Where the curvature leaves double precision (below eps of
    about 1e-125 at n = 3) OutOfFloatRange is raised.
    """
    T = cfg.t_max
    if T <= 1.0:
        raise EpsilonTooLarge("window |t| <= |log eps| - 1 is empty")
    nt = max(5, int(round((T - 1) * POINTS_PER_UNIT)) + 1)
    t_half = np.linspace(-(T - 1.0), 0.0, nt)
    t = np.concatenate([t_half, -t_half[-2::-1]])
    with in_double_range("deviations", cfg.eps):
        # the probe rides along as entry 0
        S, err = neck_scalar_curvature(
            cfg, *cfg.warp_jets(np.concatenate([[-(T - 1.0)], t])))
        dev = np.abs(S - cfg.S)
        sup_dev, fd_err = dev[1:], err[1:]
        resolved = sup_dev > RESOLVED_FACTOR * fd_err
        if not np.any(resolved):
            raise NotResolved("error bars exceed the deviation")
        weighted = cfg.eps * np.cosh(t) ** (cfg.n - 1) * sup_dev
    return DeviationProfile(
        cfg.eps, t, sup_dev, fd_err,
        float(np.max(weighted[resolved])), float(dev[0]), resolved)


def deviation_fit(make_cfg, eps_list) -> DeviationFit:
    """Deviation profiles over an eps sweep plus the probe-rate fit.

    ``make_cfg`` maps eps to a GluingConfig (typically a partial of
    GluingConfig with both models fixed).  Raises ValueError for an empty
    eps_list and for an eps listed twice.
    """
    if len(eps_list) == 0:
        raise ValueError("eps_list must hold at least one eps")
    refuse_repeated_eps(eps_list)
    profiles = [deviation_profile(make_cfg(e)) for e in eps_list]
    slope = loglog_slope(eps_list, [p.probe_dev for p in profiles])
    Ws = [p.weighted_sup for p in profiles]
    return DeviationFit(profiles, slope, max(Ws) / min(Ws))


# ---------------------------------------------------------------------------
# Conjugation identity
# ---------------------------------------------------------------------------


# Separable probes v = a(t) Y(theta) Z(z): ``a`` maps the array t to the
# Jet (a, a', a'') in closed form, Y and Z take points of S^{n-1} and of K
# (coordinates on the last axis)
PROBES = {
    "const": (lambda t: Jet(1.0, 0.0, 0.0), lambda th: np.ones(th.shape[:-1]),
              lambda z: np.ones(z.shape[:-1])),
    "wavy": (lambda t: Jet(1.0 + 0.3 * np.cos(t), -0.3 * np.sin(t), -0.3 * np.cos(t)),
             lambda th: 1.0 + 0.2 * np.cos(th[..., 0]),
             lambda z: 1.0 + 0.1 * np.sin(z[..., 0])),
}


@functools.lru_cache(maxsize=32)
def factor_laplacians(model: ModelGeometry, scheme: DerivativeScheme) -> tuple:
    """(Y, Delta_theta Y, Z, Delta_K Z) of each PROBES entry, one tuple of floats each.

    One laplace_beltrami call per probe and factor, at the neck line's
    sample (theta, z) on the factor's own metric; with no K factor Z is 1.
    They do not depend on eps, so each (model, scheme) is computed once.
    """
    def factor(factors, prefix, g, x):
        x = np.asarray(x, float)
        lap = laplace_beltrami(factor_metric(factors, prefix), g, (prefix, x), scheme)
        return float(g(x)), lap.value

    z, theta = sample_orbit(model)
    sphere = (Factor("sphere", model.n - 1, 1.0),)
    return tuple(factor(sphere, "theta", Y, theta)
                 + (factor(model.k_factors, "z", Z, z) if model.k else (1.0, 0.0))
                 for _, Y, Z in PROBES.values())


def separable_terms(cfg: GluingConfig, f: Jet, factors, neck):
    """(Delta_g w, L_neck w) of w = f(t) Y(theta) Z(z) at the t of ``neck``.

    ``f`` is the jet of the t factor there, ``factors`` is a probe's
    entry of factor_laplacians and ``neck`` is (A, b, q) at t, the
    laplacian_coefficients of cfg's profile jets and the value of q:
    Delta_g w = Delta_K w + A (w'' + b w') + (A / q) Delta_theta w and
    L_neck w = w'' - nu^2 w + Delta_theta w + U Delta_K w.
    """
    y, lap_y, zf, lap_z = factors
    A, b, q = neck
    lap = f.v * y * lap_z + A * ((f.dd + b * f.d) * y * zf + f.v * lap_y * zf / q)
    ell = ((f.dd - cfg.nu**2 * f.v) * y * zf
           + f.v * (lap_y * zf + y * lap_z / A))
    return lap, ell


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
    up to rounding; ``scheme`` sets the steps of the (cached)
    factor_laplacians.  Raises ValueError for an empty ``t_samples`` and
    OutOfNeck unless every sample lies in the neck (log eps, -log eps),
    so a NaN sample raises too.  Where a ratio leaves double precision
    (below eps of about 1e-125 at n = 3) OutOfFloatRange is raised.
    """
    T = cfg.t_max
    if t_samples is None:
        t = np.linspace(-(T - 0.6), T - 0.6, 9)
    elif np.size(t_samples) == 0:
        raise ValueError("t_samples must hold at least one t")
    else:
        t = check_neck(t_samples, cfg.eps)
    pexp = (cfg.n + 2.0) / (cfg.n - 2.0)
    laps = factor_laplacians(cfg.model_1, scheme or DerivativeScheme())
    results = []
    with in_double_range("conjugation ratios", cfg.eps):
        u, q = cfg.warp_jets(t)
        neck = (*laplacian_coefficients(cfg, u, q), q.v)
        xabs = cfg.eps * np.exp(np.abs(t))
        for (name, (a, _, _)), factors in zip(PROBES.items(), laps):
            v = a(t)
            uv = Jet(u.v * v.v, u.d * v.v + u.v * v.d,
                     u.dd * v.v + 2.0 * u.d * v.d + u.v * v.dd)
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


def induced_eps_alpha(n: int, delta: float, alpha: float) -> float:
    """Largest admissible eps for the barrier region at this (delta, alpha)."""
    return math.exp(-max(alpha, required_alpha(n, delta)))


def barrier_region(cfg: GluingConfig, delta: float) -> float:
    """C(n, delta), once T^eps_alpha is a barrier region for ``delta``.

    The one statement of the barrier preconditions: |delta| < (n-2)/2
    (else DeltaOutOfRange), the region |t| <= -log eps - alpha is
    non-empty, i.e. log eps + alpha < 0, and e^{-alpha} <= C(n, delta).
    Either of the last two failing raises EpsilonTooLarge naming eps,
    delta and alpha.
    """
    n, eps, alpha = cfg.n, cfg.eps, cfg.alpha
    nu = (n - 2) / 2.0
    if not -nu < delta < nu:
        raise DeltaOutOfRange(f"delta must lie in (-{nu}, {nu}), got {delta}")
    C = barrier_constant(n, delta)
    where = f"at eps = {eps}, delta = {delta}, alpha = {alpha}"
    gap = math.log(eps) + alpha
    if gap >= 0.0:
        raise EpsilonTooLarge(
            f"barrier region empty {where}: log eps + alpha = {gap:.4f} >= 0 "
            f"(eps_alpha = {induced_eps_alpha(n, delta, alpha):.4g})")
    if math.exp(-alpha) > C:
        raise EpsilonTooLarge(
            f"alpha too small {where}: e^-alpha > C = {C:.4g}; "
            f"need alpha >= {required_alpha(n, delta):.4g}")
    return C


def _barrier_weight(delta: float, t):
    """(w, w', w'') of w = (cosh t)^delta (delta <= 0) or cosh(delta t) at the array t."""
    if delta > 0:
        c = np.cosh(delta * t)
        return c, np.sinh(delta * t) * delta, c * delta**2
    w, th = np.cosh(t) ** delta, np.tanh(t)
    return w, delta * w * th, delta * w * ((delta - 1.0) * th * th + 1.0)


def barrier_profile(cfg: GluingConfig, delta: float, t):
    """phi_delta = u^{-1} (cosh t)^delta (delta <= 0) or u^{-1} cosh(delta t), on arrays."""
    return _barrier_weight(delta, t)[0] / cfg.u(t)


@dataclass
class BarrierReport:
    delta: float
    eps: float
    alpha: float
    C: float
    t: np.ndarray
    margins: np.ndarray
    min_margin: float
    fd_err: np.ndarray


def barrier_margin(cfg: GluingConfig, delta: float | None = None) -> BarrierReport:
    """Margins -(Delta phi_delta + C u^{-4/(n-2)} phi_delta) on T^eps_alpha.

    A nonnegative minimum certifies the barrier inequality numerically at
    this (eps, alpha, delta).  phi_delta depends on t alone and the neck
    is a warped product, so Delta phi = A (phi'' + b phi') with (A, b)
    from laplacian_coefficients and phi's exact jets; ``fd_err`` is the
    rounding bound of the margins.  The preconditions are barrier_region's;
    where a margin or its error bar leaves double precision (below eps of
    about 1e-125 at n = 3) OutOfFloatRange is raised.
    """
    delta = cfg.delta if delta is None else delta
    C = barrier_region(cfg, delta)
    ta = cfg.t_max - cfg.alpha
    nt = max(5, int(round(2 * ta * POINTS_PER_UNIT)) + 1)
    t = np.linspace(-ta, ta, nt)
    with in_double_range("barrier margins", cfg.eps):
        u, q = cfg.warp_jets(t)
        w, w1, w2 = _barrier_weight(delta, t)
        phi = w / u.v  # and its derivatives by the quotient rule
        phi1 = (w1 - phi * u.d) / u.v
        phi2 = (w2 - 2.0 * phi1 * u.d - phi * u.dd) / u.v
        A, b = laplacian_coefficients(cfg, u, q)
        terms = (A * phi2, A * b * phi1, C * A * phi)  # A = u^{-4/(n-2)}
        margins = -sum(terms)
        err = ROUNDING_ULPS * np.finfo(float).eps * sum(np.abs(x) for x in terms)
    return BarrierReport(delta, cfg.eps, cfg.alpha, C, t, margins,
                         float(np.min(margins)), err)


# ---------------------------------------------------------------------------
# Local weighted a priori estimate
# ---------------------------------------------------------------------------


@dataclass
class LocalEstimateReport:
    max_ratio: float
    per_probe: list


def local_estimate_ratio(cfg: GluingConfig, resolution: int = 64,
                         probes=None) -> LocalEstimateReport:
    """Empirical constant of the local weighted estimate on T^eps_alpha.

    Builds the glued metric's grid at ``resolution``, its curvature
    profile and the operator L.  For solutions of L v = f on the window
    with boundary data on its edge, returns the max over probe cases of
        sup |psi^{(n-2)/2-d} v| / (sup |psi^{(n+2)/2-d} f|
                                   + sup_boundary |psi^{(n-2)/2-d} v|),
    the sup of f taken over the inner nodes, the only ones the window
    solve reads.  ``probes`` is a list of cases (name, f, left, right), f
    a source on the whole grid and left/right the Dirichlet values at the
    window edges.  By default the three standard cases run: the discrete
    harmonic extension of boundary data 1, the barrier profile itself,
    and a smooth interior source with zero boundary data.  An empty list and
    a case of zero source and boundary values (by name) raise ValueError.
    Where the grid or a ratio leaves double precision (below eps of about
    1e-110 at n = 3) OutOfFloatRange is raised.
    """
    if probes is not None and len(probes) == 0:
        raise ValueError("probes must hold at least one case")
    T = cfg.t_max
    ta = T - cfg.alpha
    if ta <= 0:
        raise EpsilonTooLarge("window T^eps_alpha is empty")
    with in_double_range("local estimate ratios", cfg.eps):
        grid = build_grid(cfg, resolution)
        profile, _ = glued_curvature_profile(cfg, grid)
        op = assemble_L(grid, profile, cfg.m)
        s = grid.s
        inside = np.where(np.abs(s) <= ta + 1e-12)[0]
        i0, i1 = int(inside[0]), int(inside[-1])
        if i1 - i0 < 8:
            raise EpsilonTooLarge("window T^eps_alpha has too few grid nodes")
        psi = psi_of_t(s[i0:i1 + 1], cfg)
        w_v, w_f = estimate_weights(cfg, psi)
        # scalar powers at the edges: the array power's last bit can differ
        edges = [estimate_weights(cfg, p)[0] for p in (psi[0], psi[-1])]

        win = slice(i0, i1 + 1)
        if probes is None:
            phi = barrier_profile(cfg, cfg.delta, s)
            fr = np.zeros(grid.size)
            xi = (s[win] - s[i0]) / (s[i1] - s[i0])
            fr[win] = np.sin(math.pi * xi) * (1.0 + 0.4 * np.cos(3 * math.pi * xi))
            probes = [("harmonic-extension", np.zeros(grid.size), 1.0, 1.0),
                      ("barrier-profile", op.apply(phi), phi[i0], phi[i1]),
                      ("interior-source", fr, 0.0, 0.0)]

        out = []
        for name, f, left, right in probes:
            v = solve_dirichlet(op, f, i0, i1, left, right)
            den_b = max(edges[0] * abs(v[0]), edges[1] * abs(v[-1]))
            out.append((name, estimate_ratio(name, v, np.asarray(f)[i0 + 1:i1],
                                             (w_v, w_f[1:-1]), den_b)))
    return LocalEstimateReport(max(r[1] for r in out), out)
