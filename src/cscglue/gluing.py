"""Polyneck coordinates, cutoffs, the glued metric, and the weight function.

Two summands are glued along K by excising small tubes around K x {pole},
rewriting each normal annulus in cylindrical coordinates
x = eps e^{-t} theta (side 1) and x = eps e^{t} theta (side 2), and
blending the two normal profiles with cutoffs chi, eta.  The normal block is
scaled by the conformal factor u_eps(t)^{4/(n-2)} built from the two
profiles eps^{(n-2)/2} e^{-+(n-2)t/2}.

The glued metric is g_K + u^{4/(n-2)} [dt^2 + q(t) g_{S^{n-1}}], read
through the profile method t -> (u, q), ``GluingConfig.warp``, or its
exact second-order jets, ``GluingConfig.warp_jets``: a config fixes its
metric, and every stage reads the metric from the config.  The jets are
closed-form array arithmetic: the mollifier step, the exponential
profiles eps^nu e^{-+nu t} and the normal profile q_N each have explicit
first and second derivatives, combined by the product rule.  ``Jet``
carries the result, as it carries the closed-form jets of the other 1-D
functions the stages build on it (the barrier weight, the conjugation
probes, the post-solve spline).  Beyond the seams
|t| = -log eps the profiles saturate to the summand metrics written in
t, so one chart in (z, t, theta) covers the neck and both caps.  ``SyntheticExactConfig`` is the exact-solution
fixture: the same interface with a metric of constant scalar curvature.

Cutoffs use the standard exp(-1/s) mollifier, so the glued components
match the summand metrics to all orders at the seams; the concrete
choices are recorded in the docstrings because downstream fitted
constants depend on them.

The cutoffs chi, eta(t) and eta(-t) are exactly 0 or 1 off their
transition bands.  ``mollifier_step`` and its jet decide that from their
own argument: where every entry lies on one plateau (all <= 0 or all
>= 1) they return 0.0 or 1.0, with derivatives 0.0, and evaluate no
exponential.  The profiles write each product rule once and multiply
through; a plateau step gives every part bitwise the full path's
product.  NaN or empty input takes the full path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import NamedTuple

import numpy as np

from .errors import DeltaOutOfRange, OutOfNeck
from .geometry import (
    AXIS_MARGIN,
    MetricField,
    ModelGeometry,
    normal_radius,
    normal_radius_jet,
    polar_chart,
    product_components,
)

__all__ = [
    "GluingConfig", "SyntheticExactConfig", "Jet", "chi", "eta",
    "glued_metric", "psi_of_t", "mollifier_step", "check_neck",
]


class Jet(NamedTuple):
    """Second-order jet (f, f', f'') of a function of one variable at its samples.

    A plain value with no arithmetic: each stage forms the derivatives it
    needs from the parts in closed form.  A part is a scalar where it is
    constant in t.
    """

    v: np.ndarray | float
    d: np.ndarray | float
    dd: np.ndarray | float

    def _no_arithmetic(self, other):
        raise TypeError("a Jet has no arithmetic: combine its parts v, d, dd")

    # a tuple would concatenate or repeat, and a ufunc would act part-wise
    __add__ = __radd__ = __mul__ = __rmul__ = _no_arithmetic
    __array_ufunc__ = None


# exp(-1/s) < 1e-304 below this s: E is taken as 0 there, which keeps the
# 1/s^4 of its second derivative finite
_E_FLOOR = 1.0 / 700.0


def _E(s):
    """(E(s), 1/s): E(s) = exp(-1/s) for s > 0 and 0 for s <= 0; 1/s is 1 where E is 0."""
    pos = s > _E_FLOOR
    r = 1.0 / np.where(pos, s, 1.0)
    return np.where(pos, np.exp(-r), 0.0), r


def _plateau(s):
    """mollifier_step's value where every entry of the array s lies on one plateau.

    That is 1.0 when min(s) >= 1 and 0.0 when max(s) <= 0, else None;
    empty s, or s holding NaN, lies on neither.
    """
    if s.size:
        if s.min() >= 1.0:
            return 1.0
        if s.max() <= 0.0:
            return 0.0
    return None


def mollifier_step(s):
    """Smooth step B(s) = E(s)/(E(s)+E(1-s)), E(s)=exp(-1/s) for s>0 else 0.

    Identically 0 for s <= 0 and 1 for s >= 1; monotone and C^inf, with
    all derivatives vanishing at both plateau edges.  s is an array.  When
    every entry lies on one plateau, E is not evaluated: the result is
    0.0 or 1.0 in the shape and type of the full path's, a numpy float
    for 0-d s.
    """
    s = np.asarray(s, dtype=float)
    b = _plateau(s)
    if b is not None:
        return np.full(s.shape, b)[()]
    e1 = _E(s)[0]
    return e1 / (e1 + _E(1.0 - s)[0])


def _step_jet(s):
    """(B, B', B'') of ``mollifier_step`` at the array s, derivatives in s.

    With E1 = E(s), E2 = E(1 - s), D = E1 + E2, r1 = 1/s, r2 = 1/(1 - s)
    and E' = E r^2, E'' = E r^3 (r - 2), the quotient rule reduces to
    B' = P phi' and B'' = P ((1 - 2B) phi'^2 + phi''), where P = B (1 - B)
    = E1 E2 / D^2, phi' = r1^2 + r2^2 and phi'' = 2 (r2^3 - r1^3).  On
    either plateau P is 0, and so are both derivatives: when every entry
    of s lies on one plateau the jet is the scalars (0.0 or 1.0, 0.0, 0.0)
    and E is not evaluated.
    """
    b = _plateau(s)
    if b is not None:
        return b, 0.0, 0.0
    e1, r1 = _E(s)
    e2, r2 = _E(1.0 - s)
    d = e1 + e2
    b = e1 / d
    p = b * (e2 / d)
    r1sq, r2sq = r1 * r1, r2 * r2
    phi1 = r1sq + r2sq
    return b, p * phi1, p * ((e2 - e1) / d * (phi1 * phi1) + 2.0 * (r2sq * r2 - r1sq * r1))


def _chi_arg(t):
    return (1.0 - t) / 2.0


def _eta_arg(t, eps: float):
    return -math.log(eps) - t


def check_neck(t, eps):
    """t as a float array, once every entry lies in the neck (log eps, -log eps).

    Raises OutOfNeck otherwise, for a NaN entry too.
    """
    t = np.asarray(t, dtype=float)
    tmax = -math.log(eps)
    # written so that NaN, for which every comparison is false, fails it
    if not np.all(np.abs(t) < tmax):
        raise OutOfNeck(f"t outside (log eps, -log eps) = (-{tmax:.6g}, {tmax:.6g})")
    return t


def chi(t, eps: float):
    """Angular-profile blending cutoff: 1 on (log eps, -1], 0 on [1, -log eps)."""
    return mollifier_step(_chi_arg(check_neck(t, eps)))


def eta(t, eps: float):
    """Profile cutoff: 1 on (log eps, -log eps - 1], -> 0 at t -> -log eps."""
    return mollifier_step(_eta_arg(check_neck(t, eps), eps))


def _u_profile(t, eps: float, n: int, side: int):
    """u_eps^{(side)}(t) = eps^{(n-2)/2} e^{-+(n-2)t/2}."""
    sgn = -1.0 if side == 1 else 1.0
    return eps ** ((n - 2) / 2.0) * np.exp(sgn * (n - 2) / 2.0 * t)


def _u_eps_raw(t, eps: float, n: int):
    """eta(t) u^{(1)} + eta(-t) u^{(2)}."""
    return (mollifier_step(_eta_arg(t, eps)) * _u_profile(t, eps, n, 1)
            + mollifier_step(_eta_arg(-t, eps)) * _u_profile(t, eps, n, 2))


def _eta_u_jet(t, eps: float, n: int, side: int):
    """(w, w', w'') of one side's term w = eta(-+t) u^{(side)}, in closed form.

    u^{(side)} = eps^nu e^{ct}, c = -+nu, has derivatives c u^{(side)} and
    c^2 u^{(side)}; eta(-+t) = B(-log eps -+ t) has eta' = -+B' and eta'' = B''.
    So w' = u^{(side)} g and w'' = u^{(side)} (eta'' + c (eta' + g)), g = eta' + c eta.
    """
    sgn = -1.0 if side == 1 else 1.0
    c = sgn * (n - 2) / 2.0
    v = _u_profile(t, eps, n, side)
    b, b1, b2 = _step_jet(_eta_arg(t if side == 1 else -t, eps))
    e1 = sgn * b1
    g = e1 + c * b
    return b * v, v * g, v * (b2 + c * (e1 + g))


def _u_jet(t, eps: float, n: int):
    """(u, u', u'') of ``_u_eps_raw`` in closed form."""
    return tuple(x + y for x, y in zip(_eta_u_jet(t, eps, n, 1), _eta_u_jet(t, eps, n, 2)))


def _q_N(factor, eps: float, x):
    """(f(r) / r)^2 at r = eps e^x."""
    r = eps * np.exp(x)
    return (normal_radius(factor, r) / r) ** 2


def _q_N_jet(factor, eps: float, t, side: int):
    """(q, q', q'') in t of q = _q_N at x = -t (side 1) or x = t (side 2).

    q = rho^2 with rho = f(r)/r and r = eps e^x, so rho_x = f'(r) - rho
    and rho_xx = f''(r) r - rho_x; rho_t = -+rho_x is written without a
    negation, so a zero derivative stays +0 on both sides.
    """
    r = eps * np.exp(-t if side == 1 else t)
    f, f1, f2 = normal_radius_jet(factor, r)
    rho = f / r
    if side == 1:
        rho_t = rho - f1
        rho_tt = f2 * r + rho_t
    else:
        rho_t = f1 - rho
        rho_tt = f2 * r - rho_t
    return rho ** 2, 2.0 * rho * rho_t, 2.0 * (rho_t * rho_t + rho * rho_tt)


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
        # the neck fills the unit normal tube, so the caps are 1 <= r <= r_max
        if not self.model_1.r_max > 1.0:
            raise ValueError(f"the normal factor's r_max = {self.model_1.r_max:g} leaves "
                             f"no cap: the seam lies at r = 1")
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
        """The normal conformal factor of this config's metric, u_eps, on arrays.

        The u of ``warp``, for stages that need u alone: q costs as much again.
        """
        return _u_eps_raw(t, self.eps, self.n)

    def warp(self, t):
        """The neck profiles (u, q) of this config's metric at the array t.

        Every admissible gluing is g_K + u^{4/(n-2)} [dt^2 + q(t) g_{S^{n-1}}]
        with u = ``self.u`` and q = chi q_N(eps e^{-t}) + (1 - chi) q_N(eps e^{t}),
        q_N(r) = (f(r) / r)^2 for the normal block dr^2 + f(r)^2 g_{S^{n-1}}
        of the summand model.  Beyond the neck the profiles saturate to the
        summand metrics, so they cover the caps as well.  Every stage reads
        the metric through this method or ``warp_jets``.
        """
        f, eps = self.model_1.normal_factor, self.eps
        c = mollifier_step(_chi_arg(t))
        return _u_eps_raw(t, eps, self.n), c * _q_N(f, eps, -t) + (1.0 - c) * _q_N(f, eps, t)

    def warp_jets(self, t):
        """Exact second-order jets (u, q) of ``warp`` at t, in closed form.

        The values are ``warp(t)`` bit for bit; the derivatives combine
        those of the mollifier step, the exponential profiles and q_N by
        the product rule.  One evaluation serves every coefficient a stage
        needs at the same t.
        """
        t = np.asarray(t, dtype=float)
        f, eps = self.model_1.normal_factor, self.eps
        b, b1, b2 = _step_jet(_chi_arg(t))  # chi' = -B'/2 and chi'' = B''/4 at s = (1 - t)/2
        (qa, qa1, qa2), (qb, qb1, qb2) = _q_N_jet(f, eps, t, 1), _q_N_jet(f, eps, t, 2)
        one_c, dq = 1.0 - b, qa - qb
        q = (b * qa + one_c * qb, b * qa1 + one_c * qb1 - 0.5 * b1 * dq,
             b * qa2 + one_c * qb2 + b1 * (qb1 - qa1) + 0.25 * b2 * dq)
        return Jet(*_u_jet(t, eps, self.n)), Jet(*q)


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

    def warp_jets(self, t):
        # u^{(1)}, u^{(2)} = eps^nu e^{-+nu t} have derivatives -+nu u^{(i)} and nu^2 u^{(i)}
        t = np.asarray(t, dtype=float)
        v1, v2 = _u_profile(t, self.eps, self.n, 1), _u_profile(t, self.eps, self.n, 2)
        nu, nu2 = self.nu, self.nu * self.nu
        return Jet(v1 + v2, nu * v2 - nu * v1, nu2 * v1 + nu2 * v2), Jet(1.0, 0.0, 0.0)


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
