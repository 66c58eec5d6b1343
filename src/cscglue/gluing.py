"""Polyneck coordinates, cutoffs, the glued metric, and the weight function.

Two summands are glued along K by excising small tubes around K x {pole},
rewriting each normal annulus in cylindrical coordinates
x = eps e^{-t} theta (side 1) and x = eps e^{t} theta (side 2), and
blending the two normal profiles with cutoffs chi, eta.  The normal block is
scaled by the conformal factor u_eps(t)^{4/(n-2)} built from the two
profiles eps^{(n-2)/2} e^{-+(n-2)t/2}.

The glued metric is g_K + u^{4/(n-2)} [dt^2 + q(t) g_{S^{n-1}}], read
through the profile method t -> (u, q), ``GluingConfig.warp``: a
config fixes its metric, and every stage reads the metric from the
config.  Beyond the seams |t| = -log eps the profiles saturate to the
summand metrics written in t, so one chart in (z, t, theta) covers the
neck and both caps.  ``SyntheticExactConfig`` is the exact-solution
fixture: the same interface with a metric of constant scalar curvature.

Cutoffs use the standard exp(-1/s) mollifier, so the glued components
match the summand metrics to all orders at the seams; the concrete
choices are recorded in the docstrings because downstream fitted
constants depend on them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import DeltaOutOfRange, OutOfNeck
from .geometry import (
    AXIS_MARGIN,
    MetricField,
    ModelGeometry,
    normal_radius,
    polar_chart,
    product_components,
)

__all__ = [
    "GluingConfig", "SyntheticExactConfig", "Jet", "chi", "eta", "u_eps",
    "glued_metric", "psi_of_t", "mollifier_step",
]


class Jet:
    """Second-order Taylor jet (f, f', f'') of a function of one variable.

    Arithmetic with jets or constants and numpy's exp, log, sin, cos, cosh
    and sqrt propagate it by the chain rule (Taylor-mode differentiation), so
    a profile written once for arrays returns its first two derivatives
    when handed ``Jet.variable(t)``, and values bitwise equal to the
    array evaluation.  A constant operand (a number or an array, on either
    side) acts on the three parts directly, without the product rule's
    zero terms, so a derivative part is a scalar where the derivative is
    constant, as in ``Jet.variable``.  Every operation returns a new jet;
    none changes a jet in place.
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
        if not isinstance(o, Jet):
            return Jet(self.v + o, self.d, self.dd)
        return Jet(self.v + o.v, self.d + o.d, self.dd + o.dd)

    def __mul__(self, o):
        if not isinstance(o, Jet):
            return Jet(self.v * o, self.d * o, self.dd * o)
        return Jet(self.v * o.v, self.d * o.v + self.v * o.d,
                   self.dd * o.v + 2.0 * self.d * o.d + self.v * o.dd)

    def __pow__(self, p: float):
        x = self.v
        return self.chain(x**p, p * x ** (p - 1.0), p * (p - 1.0) * x ** (p - 2.0))

    def __neg__(self):
        return Jet(-self.v, -self.d, -self.dd)

    def __sub__(self, o):
        if not isinstance(o, Jet):
            return Jet(self.v - o, self.d, self.dd)
        return Jet(self.v - o.v, self.d - o.d, self.dd - o.dd)

    def __rsub__(self, o):
        return Jet(o - self.v, -self.d, -self.dd)

    def __truediv__(self, o):
        if not isinstance(o, Jet):
            return Jet(self.v / o, self.d / o, self.dd / o)
        v = self.v / o.v
        d = (self.d - v * o.d) / o.v
        return Jet(v, d, (self.dd - 2.0 * d * o.d - v * o.dd) / o.v)

    def __rtruediv__(self, o):
        v = o / self.v
        d = -v * self.d / self.v
        return Jet(v, d, -(2.0 * d * self.d + v * self.dd) / self.v)

    __radd__, __rmul__ = __add__, __mul__

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        # numpy scalars and arrays hand their arithmetic with a jet here too;
        # one on the left takes the jet's reflected method
        if method != "__call__" or kwargs:
            return NotImplemented
        if ufunc in _JET_BINARY:
            a, b = inputs
            forward, reflected = _JET_BINARY[ufunc]
            return forward(a, b) if isinstance(a, Jet) else reflected(b, a)
        if ufunc in _JET_UNARY:
            return self.chain(*_JET_UNARY[ufunc](self.v))
        return NotImplemented


_JET_BINARY = {np.add: (Jet.__add__, Jet.__radd__),
               np.subtract: (Jet.__sub__, Jet.__rsub__),
               np.multiply: (Jet.__mul__, Jet.__rmul__),
               np.true_divide: (Jet.__truediv__, Jet.__rtruediv__)}
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
    # written so that NaN, for which every comparison is false, fails it
    if not np.all(np.abs(t) < tmax):
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

    The two summands are one model: ``model_2`` must equal ``model_1``.
    Both carry the same S and are glued along a common K, and with
    sphere or ball normal factors equal K, S and r_max force equal
    models.  eps is the neck parameter, delta the weight exponent in
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
            raise ValueError(f"eps must lie in (0, e^-1), got {self.eps}")
        if self.model_2 != self.model_1:
            raise ValueError("the two summands must be the same model")
        nu = (self.model_1.n - 2) / 2.0
        if not -nu < self.delta < nu:
            raise DeltaOutOfRange(
                f"delta must lie in (-{nu}, {nu}), got {self.delta}")
        if not 0.0 < self.alpha < math.inf:  # NaN fails the comparison too
            raise ValueError(f"alpha must be positive and finite, got {self.alpha}")

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
        """The normal conformal factor of this config's metric, u_eps; t may be a jet.

        The u of ``warp``, for stages that need u alone: q costs as much again.
        """
        return _u_eps_raw(t, self.eps, self.n)

    def warp(self, t):
        """The neck profiles (u, q) of this config's metric at t.

        Every admissible gluing is g_K + u^{4/(n-2)} [dt^2 + q(t) g_{S^{n-1}}]
        with u = ``self.u`` and q = chi q_N(eps e^{-t}) + (1 - chi) q_N(eps e^{t}),
        q_N(r) = (f(r) / r)^2 for the normal block dr^2 + f(r)^2 g_{S^{n-1}}
        of the summand model.  t may be an array or a jet; beyond the neck
        the profiles saturate to the summand metrics, so they cover the caps
        as well.  Every stage reads the metric through this method.
        """
        f = self.model_1.normal_factor
        r1, r2 = self.eps * np.exp(-t), self.eps * np.exp(t)
        c = _chi_raw(t)
        q = (c * (normal_radius(f, r1) / r1) ** 2
             + (1.0 - c) * (normal_radius(f, r2) / r2) ** 2)
        return self.u(t), q

    def warp_jets(self, t):
        """Exact second-order jets (u, q) of ``warp`` at t; q may be the constant 1.

        One evaluation serves every coefficient a stage needs at the same t.
        """
        return tuple(map(Jet.lift, self.warp(Jet.variable(t))))


class SyntheticExactConfig(GluingConfig):
    """Exact-solution fixture: flat normal factors, no cutoffs.

    Requires a ball normal factor (else ValueError).  u = u^{(1)} + u^{(2)}
    on the whole manifold (no eta blending) and q = 1, so
    h = eps^{n-2} |x|^{2-n} is exactly euclidean-harmonic and the scalar
    curvature is identically the K curvature S.  On it the deviation
    profile is unresolved, the Picard solve returns v = 0, the post-solve
    check reads 0 and the conjugation identity holds to rounding.
    """

    def __post_init__(self):
        super().__post_init__()
        if self.model_1.normal_factor.kind != "ball":
            raise ValueError("synthetic exact metric needs flat (ball) normal factors")

    def u(self, t):
        return _u_profile(t, self.eps, self.n, 1) + _u_profile(t, self.eps, self.n, 2)

    def warp(self, t):
        return self.u(t), 1.0


def _warped_components(cfg: GluingConfig, c: np.ndarray):
    """g_K + U(t) [dt^2 + q(t) g_{S^{n-1}}] at neck coordinates (z..., t, theta...).

    ``cfg.warp(t)`` returns (u, q) with U = u^{4/(n-2)}.
    """
    u, q = cfg.warp(c[..., cfg.k])
    U = u ** (4.0 / (cfg.n - 2))
    return product_components(cfg.model_1, c, U, U * q)


def glued_metric(cfg: GluingConfig) -> MetricField:
    """The metric of ``cfg`` as a MetricField with one chart, ``neck``.

    Coordinates (z..., t, theta...).  The K block is g_K itself (both
    summands carry the same K) and the normal block is
    u^{4/(n-2)} [dt^2 + q(t) g_{S^{n-1}}] from ``cfg.warp``.  For the
    glued metric, beyond the neck |t| < -log eps the same formula is
    exactly the summand metric written in t = log eps - log r (side 1) or
    t = log r - log eps (side 2).  t runs on through both caps to
    r = r_max - AXIS_MARGIN, poles excluded, so points and stencils may
    cross the seams |t| = -log eps.
    """
    t_pole = cfg.t_max + math.log(cfg.model_1.r_max - AXIS_MARGIN)
    neck = polar_chart(cfg.model_1, "neck", ("t", -t_pole, t_pole))
    return MetricField(neck, partial(_warped_components, cfg))


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
    sigma = np.clip((at - t0) / (T - t0), 0.0, 1.0)  # T - t0 = min(T, alpha) > 0
    ramp = 0.5 * (1.0 - np.cos(math.pi * sigma))
    band = base ** (1.0 - ramp)
    out = np.where(at <= t0, base, np.where(at >= T, 1.0, band))
    return out if out.shape else float(out)
