"""Polyneck coordinates, cutoffs, the glued metric, and the weight function.

Two summands are glued along K by excising small tubes around K x {pole},
rewriting each normal annulus in cylindrical coordinates
x = eps e^{-t} theta (side 1) and x = eps e^{t} theta (side 2), and
blending the two normal profiles with cutoffs chi, eta.  The normal block is
scaled by the conformal factor u_eps(t)^{4/(n-2)} built from the two
profiles eps^{(n-2)/2} e^{-+(n-2)t/2}.

Cutoffs use the standard exp(-1/s) mollifier, so the glued components
match the summand metrics to all orders at the chart seams; the concrete
choices are recorded in the docstrings because downstream fitted
constants depend on them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import DeltaOutOfRange, OutOfChart, OutOfNeck
from .geometry import (
    AXIS_MARGIN,
    Chart,
    ChartPoint,
    MetricField,
    ModelGeometry,
    Transition,
    _k_coord_bounds,
    _normal_angular_profile,
    _theta_coord_bounds,
    fermi_metric,
    product_components,
    sphere_embed,
)

__all__ = [
    "GluingConfig", "NeckAtlas", "chi", "eta", "u_eps", "glued_metric",
    "psi_weight", "psi_of_t", "mollifier_step", "s_bounds", "s_of_chart",
]


def mollifier_step(s):
    """Smooth step B(s) = E(s)/(E(s)+E(1-s)), E(s)=exp(-1/s) for s>0 else 0.

    Identically 0 for s <= 0 and 1 for s >= 1; monotone and C^inf,
    with all derivatives vanishing at both plateau edges.
    """
    s = np.asarray(s, dtype=float)
    with np.errstate(divide="ignore", over="ignore"):
        e1 = np.where(s > 0.0, np.exp(-1.0 / np.where(s > 0.0, s, 1.0)), 0.0)
        sw = 1.0 - s
        e2 = np.where(sw > 0.0, np.exp(-1.0 / np.where(sw > 0.0, sw, 1.0)), 0.0)
    return e1 / (e1 + e2)


def _chi_raw(t):
    return mollifier_step((1.0 - np.asarray(t, dtype=float)) / 2.0)


def _eta_raw(t, eps: float):
    return mollifier_step(-math.log(eps) - np.asarray(t, dtype=float))


def _check_neck(t, eps):
    t = np.asarray(t, dtype=float)
    tmax = -math.log(eps)
    if np.any(t <= -tmax) or np.any(t >= tmax):
        raise OutOfNeck(f"t outside (log eps, -log eps) = (-{tmax:.6g}, {tmax:.6g})")
    return t


def chi(t, eps: float):
    """Angular-profile blending cutoff: 1 on (log eps, -1], 0 on [1, -log eps)."""
    return _chi_raw(_check_neck(t, eps))


def eta(t, eps: float):
    """Profile cutoff: 1 on (log eps, -log eps - 1], -> 0 at t -> -log eps."""
    return _eta_raw(_check_neck(t, eps), eps)


def _u_profile(t, eps: float, n: int, side: int):
    """u_eps^{(side)}(t) = eps^{(n-2)/2} e^{-+(n-2)t/2}."""
    sgn = -1.0 if side == 1 else 1.0
    return eps ** ((n - 2) / 2.0) * np.exp(sgn * (n - 2) / 2.0 * np.asarray(t, float))


def _u_eps_raw(t, eps: float, n: int):
    t = np.asarray(t, dtype=float)
    return (_eta_raw(t, eps) * _u_profile(t, eps, n, 1)
            + _eta_raw(-t, eps) * _u_profile(t, eps, n, 2))


def u_eps(t, eps: float, n: int):
    """Normal conformal factor eta(t) u^{(1)} + eta(-t) u^{(2)}; positive."""
    return _u_eps_raw(_check_neck(t, eps), eps, n)


@dataclass(frozen=True)
class GluingConfig:
    """Parameters of one glued metric.

    eps is the neck parameter, delta the weight exponent in
    (-(n-2)/2, (n-2)/2), and alpha the barrier margin parameter.
    """

    model_1: ModelGeometry
    model_2: ModelGeometry
    eps: float
    delta: float = 0.3
    alpha: float = 3.0

    def __post_init__(self):
        # The acceptance sweep reaches eps = 0.16, so the admissible range
        # is capped at e^{-1}: that is what keeps chi's transition band
        # inside the neck and t = 0 inside both eta plateaus.
        if not 0.0 < self.eps < math.exp(-1.0):
            raise ValueError("eps must lie in (0, e^-1)")
        a, b = self.model_1, self.model_2
        if (a.m, a.k, a.n) != (b.m, b.k, b.n):
            raise ValueError("summands must have equal dimensions")
        if abs(a.S - b.S) > 1e-12:
            raise ValueError("summands must carry the same scalar curvature")
        if a.k_factors != b.k_factors:
            raise ValueError("summands must share the gluing locus geometry")
        if abs(a.r_max - b.r_max) > 1e-12:
            raise ValueError("normal charts must have equal radial extent")
        nu = (self.model_1.n - 2) / 2.0
        if not -nu < self.delta < nu:
            raise DeltaOutOfRange(
                f"delta must lie in (-{nu}, {nu}), got {self.delta}")
        if self.alpha <= 0.0:
            raise ValueError("alpha must be positive")

    @property
    def n(self) -> int:
        return self.model_1.n

    @property
    def m(self) -> int:
        return self.model_1.m

    @property
    def k(self) -> int:
        return self.model_1.k

    @property
    def S(self) -> float:
        return self.model_1.S

    @property
    def nu(self) -> float:
        return (self.n - 2) / 2.0

    @property
    def t_max(self) -> float:
        return -math.log(self.eps)

    def u(self, t):
        return _u_eps_raw(t, self.eps, self.n)


@dataclass(frozen=True)
class NeckAtlas:
    """Coordinate bookkeeping for the polyneck of one gluing.

    Side-1 radii r1 = eps e^{-t}, side-2 radii r2 = eps e^{t}; identified
    points satisfy r1 r2 = eps^2.
    """

    cfg: GluingConfig

    def r1_of_t(self, t):
        return self.cfg.eps * np.exp(-np.asarray(t, dtype=float))

    def r2_of_t(self, t):
        return self.cfg.eps * np.exp(np.asarray(t, dtype=float))

    def t_of_r1(self, r):
        return math.log(self.cfg.eps) - np.log(np.asarray(r, dtype=float))

    def t_of_r2(self, r):
        return np.log(np.asarray(r, dtype=float)) - math.log(self.cfg.eps)

    def x_of_t(self, t, theta, side: int = 1):
        r = self.r1_of_t(t) if side == 1 else self.r2_of_t(t)
        return np.asarray(r)[..., None] * sphere_embed(theta)


def s_bounds(cfg: GluingConfig) -> tuple[float, float]:
    """Range of the global cylindrical coordinate across caps and neck."""
    cap = math.log(cfg.model_1.r_max)
    return (-cfg.t_max - cap, cfg.t_max + math.log(cfg.model_2.r_max))


def s_of_chart(cfg: GluingConfig, chart_id: str, coords: np.ndarray):
    """Global cylindrical coordinate of points in any glued chart."""
    k = cfg.k
    c = np.asarray(coords, dtype=float)
    if chart_id == "neck":
        return c[..., k]
    if chart_id == "cap-1":
        return -cfg.t_max - np.log(c[..., k])
    if chart_id == "cap-2":
        return cfg.t_max + np.log(c[..., k])
    if chart_id == "raw-fermi-1":
        return -cfg.t_max - np.log(np.linalg.norm(c[..., k:], axis=-1))
    if chart_id == "raw-fermi-2":
        return cfg.t_max + np.log(np.linalg.norm(c[..., k:], axis=-1))
    raise OutOfChart(f"unknown glued chart {chart_id!r}")


def _neck_normal_profiles(cfg: GluingConfig, t: np.ndarray):
    """(U, q) with neck normal block U [dt^2 + q g_{S^{n-1}}]."""
    eps, n = cfg.eps, cfg.n
    t = np.asarray(t, dtype=float)
    u = _u_eps_raw(t, eps, n)
    U = u ** (4.0 / (n - 2))
    r1 = eps * np.exp(-t)
    r2 = eps * np.exp(t)
    q1 = _normal_angular_profile(cfg.model_1.normal_factor, r1)
    q2 = _normal_angular_profile(cfg.model_2.normal_factor, r2)
    c = _chi_raw(t)
    return U, c * q1 + (1.0 - c) * q2


def _warped_components(cfg: GluingConfig, profiles, chart_id: str, c: np.ndarray):
    """g_K + U(t) [dt^2 + q(t) g_{S^{n-1}}] in a neck, cap or raw chart.

    ``profiles(t)`` returns (U, q).  The metric is written in the chart's
    own coordinates: dt = -+dr/r turns dt^2 into dr^2/r^2 on the caps,
    and r = |x| turns dr^2 + r^2 g_{S^{n-1}} into the raw Fermi block.
    """
    U, q = profiles(s_of_chart(cfg, chart_id, c))
    if chart_id == "neck":
        return product_components(cfg.model_1, c, U, U * q)
    if chart_id in ("cap-1", "cap-2"):
        return product_components(cfg.model_1, c, U / c[..., cfg.k] ** 2, U * q)
    rr = np.linalg.norm(c[..., cfg.k:], axis=-1) ** 2
    return product_components(cfg.model_1, c, U / rr, U * q / rr, raw=True)


def glued_metric(cfg: GluingConfig) -> MetricField:
    """The approximate solution metric as a MetricField.

    Atlas: ``cap-1`` (r in [1, r_max]), ``neck`` (t in (log eps,
    -log eps)), ``cap-2``, plus raw Fermi charts around each copy of K.
    On the caps the components are exactly the summand metrics.  On the
    neck and the raw charts the K block is g_K itself (both summands
    carry the same K) and the normal block is
    u_eps^{4/(n-2)} [dt^2 + q(t) g_{S^{n-1}}], written in the chart's
    coordinates.

    The neck component formula saturates smoothly to the summand metrics
    beyond the nominal neck, so its evaluable region extends across the
    caps (poles excluded); this is what lets finite-difference stencils
    and the radial solver treat the whole manifold in one coordinate.
    """
    m, k, n = cfg.m, cfg.k, cfg.n
    eps = cfg.eps
    log_eps = math.log(eps)
    t_max = cfg.t_max
    r_max = cfg.model_1.r_max
    smin, smax = s_bounds(cfg)
    pole_margin = -math.log1p(-AXIS_MARGIN / r_max)

    z_lo, z_hi, z_elo, z_ehi, z_per = _k_coord_bounds(cfg.model_1)
    th_lo, th_hi, th_elo, th_ehi, th_per = _theta_coord_bounds(n)
    z_names = tuple(f"z{i + 1}" for i in range(k))
    th_names = tuple(f"theta{i + 1}" for i in range(n - 1))
    x_names = tuple(f"x{i + 1}" for i in range(n))

    neck = Chart(
        "neck", z_names + ("t",) + th_names,
        z_lo + (log_eps,) + tuple(th_lo), z_hi + (t_max,) + tuple(th_hi),
        z_elo + (smin + pole_margin,) + tuple(th_elo),
        z_ehi + (smax - pole_margin,) + tuple(th_ehi),
        z_per + (False,) + tuple(th_per),
    )
    caps = []
    for side in (1, 2):
        caps.append(Chart(
            f"cap-{side}", z_names + ("r",) + th_names,
            z_lo + (1.0,) + tuple(th_lo), z_hi + (r_max,) + tuple(th_hi),
            z_elo + (0.97,) + tuple(th_elo),
            z_ehi + (r_max - AXIS_MARGIN,) + tuple(th_ehi),
            z_per + (False,) + tuple(th_per),
        ))
    raws = []
    for side in (1, 2):
        raws.append(Chart(
            f"raw-fermi-{side}", z_names + x_names,
            z_lo + (-r_max,) * n, z_hi + (r_max,) * n,
            z_elo + (-r_max + AXIS_MARGIN,) * n,
            z_ehi + (r_max - AXIS_MARGIN,) * n,
            z_per + (False,) * n,
            step_scale=lambda pts: np.linalg.norm(pts[..., k:], axis=-1),
        ))

    side_fields = {f"cap-{side}": fermi_metric(model, side)
                   for side, model in ((1, cfg.model_1), (2, cfg.model_2))}
    profiles = partial(_neck_normal_profiles, cfg)

    def comps(chart_id, c):
        if chart_id in side_fields:
            return side_fields[chart_id].component_fn(chart_id, c)
        if chart_id in ("raw-fermi-1", "raw-fermi-2"):
            r = np.linalg.norm(c[..., k:], axis=-1)
            if np.any(r > r_max) or np.any(r < eps**2 / r_max):
                raise OutOfChart(f"radius outside chart {chart_id!r}")
        return _warped_components(cfg, profiles, chart_id, c)

    def _neck_to_cap(side):
        sgn = -1.0 if side == 1 else 1.0

        def mp(c):
            out = c.copy()
            out[..., k] = eps * np.exp(sgn * c[..., k])
            return out

        def jac(c):
            J = np.zeros(c.shape[:-1] + (m, m))
            ii = np.arange(m)
            J[..., ii, ii] = 1.0
            r = eps * np.exp(sgn * c[..., k])
            J[..., k, k] = sgn * r
            return J

        return Transition("neck", f"cap-{side}", mp, jac)

    transitions = {("neck", f"cap-{side}"): _neck_to_cap(side) for side in (1, 2)}
    return MetricField(
        m, (caps[0], neck, caps[1], raws[0], raws[1]), comps, transitions,
        meta={"cfg": cfg, "atlas": NeckAtlas(cfg)},
    )


def synthetic_exact_metric(cfg: GluingConfig) -> MetricField:
    """Exact-solution fixture: flat normal factors, no cutoffs.

    Requires ball normal factors and constant-curvature K blocks.  The
    normal conformal factor is taken as u^{(1)} + u^{(2)} on the whole
    manifold (no eta blending), so h = eps^{n-2} |x|^{2-n} is exactly
    euclidean-harmonic and the scalar curvature is identically the K
    curvature S.  Used to pin down what the cutoffs cost: against this
    field, deviation profiles and the nonlinear solve must return zero
    within discretization error.
    """
    if cfg.model_1.normal_factor.kind != "ball":
        raise ValueError("synthetic exact metric needs flat (ball) normal factors")
    base = glued_metric(cfg)
    eps, n = cfg.eps, cfg.n

    def profiles(t):
        u = _u_profile(t, eps, n, 1) + _u_profile(t, eps, n, 2)
        return u ** (4.0 / (n - 2)), 1.0

    def comps(chart_id, c):
        return _warped_components(cfg, profiles, chart_id, c)

    return MetricField(cfg.m, base.charts, comps, base.transitions,
                       meta={"cfg": cfg, "synthetic": True})


def psi_of_t(t, cfg: GluingConfig):
    """Weight profile along the neck coordinate (extends as 1 on caps).

    eps cosh t inside T^eps_alpha, identically 1 for |t| >= -log eps, and
    a half-cosine ramp applied to log(eps cosh t) in between: psi =
    (eps cosh t)^{1 - ramp}.  The multiplicative form keeps psi monotone,
    within [eps cosh t, 1], and pinned between |x|/2 and 2|x| on the
    tubes, which the plain additive ramp would not.
    """
    t = np.asarray(t, dtype=float)
    T = cfg.t_max
    t0 = max(0.0, T - cfg.alpha)
    at = np.abs(t)
    base = cfg.eps * np.cosh(t)
    span = T - t0
    sigma = np.clip((at - t0) / span, 0.0, 1.0) if span > 0 else np.ones_like(at)
    ramp = 0.5 * (1.0 - np.cos(math.pi * sigma))
    with np.errstate(invalid="ignore"):
        band = base ** (1.0 - ramp)
    out = np.where(at <= t0, base, np.where(at >= T, 1.0, band))
    return out if out.shape else float(out)


def psi_weight(point: ChartPoint, cfg: GluingConfig):
    """The global weight at a chart point: eps cosh t on the neck, 1 on caps."""
    return psi_of_t(s_of_chart(cfg, point.chart_id, point.coords), cfg)
