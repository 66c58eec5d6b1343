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
from dataclasses import dataclass, replace
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
    _theta_coord_bounds,
    fermi_metric,
    normal_radius,
    product_components,
    sphere_embed,
)

__all__ = [
    "GluingConfig", "NeckAtlas", "Jet", "chi", "eta", "u_eps", "glued_metric",
    "glued_warp", "synthetic_exact_metric", "synthetic_exact_warp",
    "psi_weight", "psi_of_t", "mollifier_step", "s_bounds", "s_of_chart",
]


class Jet:
    """Second-order Taylor jet (f, f', f'') of a function of one variable.

    Arithmetic with jets or constants and numpy's exp, log, sin, cos, cosh
    and sqrt propagate it by the chain rule (Taylor-mode differentiation), so
    a profile written once for arrays returns its first two derivatives
    when handed ``Jet.variable(t)``, and values bitwise equal to the
    array evaluation.
    """

    def __init__(self, v, d=0.0, dd=0.0):
        self.v, self.d, self.dd = v, d, dd

    @classmethod
    def variable(cls, t):
        return cls(np.asarray(t, dtype=float), 1.0, 0.0)

    @staticmethod
    def lift(x):
        """x itself if a jet, else the jet of the constant x."""
        return x if isinstance(x, Jet) else Jet(x)

    def chain(self, f0, f1, f2):
        """f(self) from the values f, f', f'' of f at self.v."""
        return Jet(f0, f1 * self.d, f2 * self.d**2 + f1 * self.dd)

    def __add__(self, o):
        o = Jet.lift(o)
        return Jet(self.v + o.v, self.d + o.d, self.dd + o.dd)

    def __mul__(self, o):
        o = Jet.lift(o)
        return Jet(self.v * o.v, self.d * o.v + self.v * o.d,
                   self.dd * o.v + 2.0 * self.d * o.d + self.v * o.dd)

    def __pow__(self, p: float):
        x = self.v
        return self.chain(x**p, p * x ** (p - 1.0), p * (p - 1.0) * x ** (p - 2.0))

    def __neg__(self):
        return self * -1.0

    def __sub__(self, o):
        return self + -Jet.lift(o)

    def __rsub__(self, o):
        return -self + o

    def __truediv__(self, o):
        o = Jet.lift(o)
        v = self.v / o.v
        d = (self.d - v * o.d) / o.v
        return Jet(v, d, (self.dd - 2.0 * d * o.d - v * o.dd) / o.v)

    def __rtruediv__(self, o):
        return Jet.lift(o) / self

    __radd__, __rmul__ = __add__, __mul__

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        # numpy scalars and arrays hand their arithmetic with a jet here too
        if method != "__call__" or kwargs:
            return NotImplemented
        if ufunc in _JET_BINARY:
            return _JET_BINARY[ufunc](Jet.lift(inputs[0]), inputs[1])
        if ufunc in _JET_UNARY:
            return self.chain(*_JET_UNARY[ufunc](self.v))
        return NotImplemented


_JET_BINARY = {np.add: Jet.__add__, np.subtract: Jet.__sub__,
               np.multiply: Jet.__mul__, np.true_divide: Jet.__truediv__}
_JET_UNARY = {  # f, f', f'' at x
    np.exp: lambda x: (np.exp(x),) * 3,
    np.log: lambda x: (np.log(x), x**-1.0, -x**-2.0),
    np.sin: lambda x: (np.sin(x), np.cos(x), -np.sin(x)),
    np.cos: lambda x: (np.cos(x), -np.sin(x), -np.cos(x)),
    np.cosh: lambda x: (np.cosh(x), np.sinh(x), np.cosh(x)),
    np.sqrt: lambda x: (np.sqrt(x), 0.5 * x**-0.5, -0.25 * x**-1.5),
}

# exp(-1/s) < 1e-304 below this s: E is taken as 0 there, which keeps the
# 1/s^4 of its second derivative finite
_E_FLOOR = 1.0 / 700.0


def _E(s):
    """E(s) = exp(-1/s) for s > 0 and 0 for s <= 0, on arrays or jets."""
    x = s.v if isinstance(s, Jet) else s
    pos = x > _E_FLOOR
    r = 1.0 / np.where(pos, x, 1.0)
    e = np.where(pos, np.exp(-r), 0.0)
    if not isinstance(s, Jet):
        return e
    # E' = E / s^2, E'' = E (1/s^4 - 2/s^3)
    return s.chain(e, e * r**2, e * r**3 * (r - 2.0))


def mollifier_step(s):
    """Smooth step B(s) = E(s)/(E(s)+E(1-s)), E(s)=exp(-1/s) for s>0 else 0.

    Identically 0 for s <= 0 and 1 for s >= 1; monotone and C^inf, with
    all derivatives vanishing at both plateau edges.  s may be a jet.
    """
    if not isinstance(s, Jet):
        s = np.asarray(s, dtype=float)
    e1 = _E(s)
    return e1 / (e1 + _E(1.0 - s))


def _chi_raw(t):
    return mollifier_step((1.0 - t) / 2.0)


def _eta_raw(t, eps: float):
    return mollifier_step(-math.log(eps) - t)


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
    return eps ** ((n - 2) / 2.0) * np.exp(sgn * (n - 2) / 2.0 * t)


def _u_eps_raw(t, eps: float, n: int):
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
        if not 0.0 < self.alpha < math.inf:  # NaN fails the comparison too
            raise ValueError("alpha must be positive and finite")

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


def glued_warp(cfg: GluingConfig):
    """The neck profiles (u, q) of the glued metric as a callback of t.

    Every admissible gluing is g_K + u^{4/(n-2)} [dt^2 + q(t) g_{S^{n-1}}]
    with u = u_eps and q = chi q_1(eps e^{-t}) + (1 - chi) q_2(eps e^{t}),
    q_i(r) = (f_i(r) / r)^2 for the normal block dr^2 + f_i(r)^2 g_{S^{n-1}}
    of summand i.  The callback takes arrays or jets of t; beyond the neck
    it saturates to the summand metrics, so it covers the caps as well.
    """
    eps, n = cfg.eps, cfg.n
    f1, f2 = cfg.model_1.normal_factor, cfg.model_2.normal_factor

    def warp(t):
        r1, r2 = eps * np.exp(-t), eps * np.exp(t)
        c = _chi_raw(t)
        q = (c * (normal_radius(f1, r1) / r1) ** 2
             + (1.0 - c) * (normal_radius(f2, r2) / r2) ** 2)
        return _u_eps_raw(t, eps, n), q

    return warp


def synthetic_exact_warp(cfg: GluingConfig):
    """The (u, q) of synthetic_exact_metric: u = u^{(1)} + u^{(2)}, q = 1."""
    eps, n = cfg.eps, cfg.n
    return lambda t: (_u_profile(t, eps, n, 1) + _u_profile(t, eps, n, 2), 1.0)


def _warped_components(cfg: GluingConfig, warp, chart_id: str, c: np.ndarray):
    """g_K + U(t) [dt^2 + q(t) g_{S^{n-1}}] in a neck, cap or raw chart.

    ``warp(t)`` returns (u, q) with U = u^{4/(n-2)}.  The metric is written
    in the chart's own coordinates: dt = -+dr/r turns dt^2 into dr^2/r^2 on
    the caps, and r = |x| turns dr^2 + r^2 g_{S^{n-1}} into the raw Fermi
    block.
    """
    u, q = warp(s_of_chart(cfg, chart_id, c))
    U = u ** (4.0 / (cfg.n - 2))
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

    The neck formula saturates smoothly to the summand metrics beyond the
    nominal neck, so its evaluable region extends across the caps (poles
    excluded) and finite-difference stencils may cross the seams.
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

    neck = Chart(
        "neck", z_names + ("t",) + th_names,
        z_lo + (log_eps,) + tuple(th_lo), z_hi + (t_max,) + tuple(th_hi),
        z_elo + (smin + pole_margin,) + tuple(th_elo),
        z_ehi + (smax - pole_margin,) + tuple(th_ehi),
        z_per + (False,) + tuple(th_per),
    )
    side_fields = {f"cap-{side}": fermi_metric(model, side)
                   for side, model in ((1, cfg.model_1), (2, cfg.model_2))}
    # the summands' own charts, with the caps evaluable down to r = 0.97
    caps = []
    for chart_id, fld in side_fields.items():
        lo = fld.chart(chart_id).eval_lower
        caps.append(replace(fld.chart(chart_id), eval_lower=lo[:k] + (0.97,) + lo[k + 1:]))
    raws = [side_fields[f"cap-{side}"].chart(f"raw-fermi-{side}") for side in (1, 2)]
    warp = glued_warp(cfg)

    def comps(chart_id, c):
        if chart_id in side_fields:
            return side_fields[chart_id].component_fn(chart_id, c)
        if chart_id in ("raw-fermi-1", "raw-fermi-2"):
            r = np.linalg.norm(c[..., k:], axis=-1)
            if np.any(r > r_max) or np.any(r < eps**2 / r_max):
                raise OutOfChart(f"radius outside chart {chart_id!r}")
        return _warped_components(cfg, warp, chart_id, c)

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
    comps = partial(_warped_components, cfg, synthetic_exact_warp(cfg))
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
