"""Numerical tensor calculus on black-box metric fields.

Christoffel symbols, scalar curvature, the Laplace-Beltrami operator and
the conformal transformation law are computed from central-difference
jets of the metric components, Richardson-extrapolated over halved
steps.  Metric callbacks may be piecewise-defined (cutoff blends), so
finite differences with an intrinsic error estimate are used instead of
automatic differentiation.

All entry points accept a single ``ChartPoint`` or a batch of points
(coordinates of shape ``(N, m)``) and are pure.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .errors import (
    IllConditionedMetric,
    NonpositiveConformalFactor,
    StencilOutOfChart,
)
from .geometry import ChartPoint, MetricField

_EPS = np.finfo(float).eps
COND_LIMIT = 1e12


@dataclass(frozen=True)
class DerivativeScheme:
    """Finite-difference configuration.

    ``base_step`` is the step per coordinate (scalar or length-m array);
    charts with a ``step_scale`` shrink it pointwise.  ``levels`` is the
    number of Richardson levels (step halvings); with one level no error
    estimate is available.
    """

    base_step: float | tuple = 1e-3
    levels: int = 3

    def __post_init__(self):
        if self.levels < 1:
            raise ValueError("levels must be >= 1")

    def steps(self, field: MetricField, chart_id: str, pts: np.ndarray) -> np.ndarray:
        h = np.broadcast_to(np.asarray(self.base_step, dtype=float),
                            (field.dim,)).copy()
        chart = field.chart(chart_id)
        out = np.broadcast_to(h, pts.shape).copy()
        if chart.step_scale is not None:
            out = out * chart.step_scale(pts)[..., None]
        return out


class ValueWithError(NamedTuple):
    value: float | np.ndarray
    error: float | np.ndarray


def _check_stencil(field, chart_id, pts, steps):
    chart = field.chart(chart_id)
    lo = np.asarray(chart.eval_lower)
    hi = np.asarray(chart.eval_upper)
    per = np.asarray(chart.periodic)
    bad = (~per) & ((pts - 2 * steps < lo) | (pts + 2 * steps > hi))
    if np.any(bad):
        i = int(np.argmax(np.any(bad.reshape(-1, pts.shape[-1]), axis=0)))
        raise StencilOutOfChart(
            f"stencil leaves chart {chart_id!r} along {chart.coord_names[i]!r}"
        )


def _stencil(pts: np.ndarray, h: np.ndarray):
    """All stencil coordinates for value/gradient/Hessian at once.

    Layout: [center, (+e_a, -e_a) per axis, (++, +-, -+, --) per pair].
    """
    m = pts.shape[-1]
    offs = [np.zeros(m)]
    for a in range(m):
        e = np.zeros(m)
        e[a] = 1.0
        offs.append(e)
        offs.append(-e)
    pair_index = {}
    idx = 1 + 2 * m
    for a in range(m):
        for b in range(a + 1, m):
            for sa, sb in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
                e = np.zeros(m)
                e[a] = sa
                e[b] = sb
                offs.append(e)
            pair_index[(a, b)] = idx
            idx += 4
    offs = np.asarray(offs)  # (K, m)
    coords = pts[..., None, :] + offs * h[..., None, :]
    return coords, pair_index


def _jet_from_values(vals: np.ndarray, h: np.ndarray, m: int, pair_index):
    """First and second derivative arrays from stencil values.

    ``vals`` has shape (..., K) + item_shape with stencil axis at
    position -1-ndim(item); here we pass (..., K) for scalars and
    (..., K, m, m) for metrics and use moveaxis beforehand.
    """
    v0 = vals[..., 0]
    vp = vals[..., 1:1 + 2 * m:2]
    vm = vals[..., 2:2 + 2 * m:2]
    d1 = (vp - vm) / (2.0 * h)
    shape = vals.shape[:-1]
    d2 = np.zeros(shape + (m, m))
    d2[..., np.arange(m), np.arange(m)] = (vp - 2.0 * v0[..., None] + vm) / h**2
    for (a, b), i in pair_index.items():
        mixed = (vals[..., i] - vals[..., i + 1]
                 - vals[..., i + 2] + vals[..., i + 3]) / (4.0 * h[..., a] * h[..., b])
        d2[..., a, b] = mixed
        d2[..., b, a] = mixed
    return d1, d2


def _richardson(seq):
    """Neville tableau for an h^2 error series; returns last two diagonals."""
    row = [np.asarray(seq[0], dtype=float)]
    prev_diag = row[0]
    for lev in range(1, len(seq)):
        new = [np.asarray(seq[lev], dtype=float)]
        for j in range(1, lev + 1):
            fac = 4.0**j
            new.append((fac * new[j - 1] - row[j - 1]) / (fac - 1.0))
        prev_diag = new[-2]
        row = new
    return row[-1], prev_diag


def _metric_jet(field, chart_id, pts, scheme):
    """g, inverse, and Richardson-extrapolated dg, d2g at points.

    Returns (g, ginv, (dg, d2g), (dg_prev, d2g_prev), noise_floor) where
    the ``_prev`` pair is the previous extrapolation diagonal, used for
    error estimates.  dg[..., e, i, j] = d_e g_ij.
    """
    steps = scheme.steps(field, chart_id, pts)
    _check_stencil(field, chart_id, pts, steps)
    m = field.dim
    d1_levels, d2_levels = [], []
    g0 = None
    gmax = 0.0
    for lev in range(scheme.levels):
        h = steps / 2.0**lev
        coords, pair_index = _stencil(pts, h)
        vals = field.components(chart_id, coords, check=False)
        if g0 is None:
            g0 = vals[..., 0, :, :]
        gmax = max(gmax, float(np.max(np.abs(vals))))
        # move stencil axis last for the divided differences
        v = np.moveaxis(vals, -3, -1)  # (..., m, m, K)
        hh = h[..., None, None, :]  # broadcast over (i, j)
        d1, d2 = _jet_from_values(v, hh, m, pair_index)
        # d1: (..., m, m, e) -> (..., e, m, m); d2: (..., m, m, e, f)
        d1_levels.append(np.moveaxis(d1, -1, -3))
        d2_levels.append(np.moveaxis(d2, (-2, -1), (-4, -3)))
    dg, dg_prev = _richardson(d1_levels)
    d2g, d2g_prev = _richardson(d2_levels)
    cond = np.linalg.cond(g0)
    if np.any(cond > COND_LIMIT):
        raise IllConditionedMetric(
            f"metric condition number {np.max(cond):.3e} exceeds {COND_LIMIT:.0e}"
        )
    ginv = np.linalg.inv(g0)
    h_min = float(np.min(steps)) / 2.0 ** (scheme.levels - 1)
    noise = 8.0 * _EPS * (1.0 + gmax) / h_min**2
    return g0, ginv, (dg, d2g), (dg_prev, d2g_prev), noise


def _scalar_jet(u, chart_id, pts, steps, levels):
    d1_levels, d2_levels = [], []
    u0 = None
    umin = np.inf
    umax = 0.0
    m = pts.shape[-1]
    for lev in range(levels):
        h = steps / 2.0**lev
        coords, pair_index = _stencil(pts, h)
        vals = np.asarray(u(coords), dtype=float)  # (..., K)
        if u0 is None:
            u0 = vals[..., 0]
        umin = min(umin, float(np.min(vals)))
        umax = max(umax, float(np.max(np.abs(vals))))
        d1, d2 = _jet_from_values(vals, h, m, pair_index)
        d1_levels.append(d1)
        d2_levels.append(d2)
    du, du_prev = _richardson(d1_levels)
    d2u, d2u_prev = _richardson(d2_levels)
    return u0, (du, d2u), (du_prev, d2u_prev), umin, umax


def _christoffel_from(ginv, dg):
    sym = (np.einsum("...bdc->...bdc", dg)
           + np.einsum("...cdb->...bdc", dg)
           - np.einsum("...dbc->...bdc", dg))
    return 0.5 * np.einsum("...ad,...bdc->...abc", ginv, sym)


def _scalar_from(g, ginv, dg, d2g):
    sym = (dg + np.einsum("...cdb->...bdc", dg)
           - np.einsum("...dbc->...bdc", dg))
    gamma = 0.5 * np.einsum("...ad,...bdc->...abc", ginv, sym)
    dginv = -np.einsum("...ip,...epq,...qj->...eij", ginv, dg, ginv)
    dsym = (d2g + np.einsum("...ecdb->...ebdc", d2g)
            - np.einsum("...edbc->...ebdc", d2g))
    dgamma = 0.5 * (np.einsum("...ead,...bdc->...eabc", dginv, sym)
                    + np.einsum("...ad,...ebdc->...eabc", ginv, dsym))
    t1 = np.einsum("...aabc->...bc", dgamma)
    t2 = np.einsum("...baac->...bc", dgamma)
    tr = np.einsum("...aad->...d", gamma)
    t3 = np.einsum("...d,...dbc->...bc", tr, gamma)
    t4 = np.einsum("...abd,...dac->...bc", gamma, gamma)
    ricci = t1 - t2 + t3 - t4
    return np.einsum("...bc,...bc->...", ginv, ricci)


def _as_batch(point):
    if isinstance(point, ChartPoint):
        chart_id, coords = point.chart_id, point.coords
    else:
        chart_id, coords = point
    coords = np.asarray(coords, dtype=float)
    squeeze = coords.ndim == 1
    if squeeze:
        coords = coords[None, :]
    return chart_id, coords, squeeze


def christoffel(field: MetricField, point, scheme: DerivativeScheme | None = None):
    """Christoffel symbols Gamma^a_{bc}, shape (m, m, m) (batched: (N, m, m, m)).

    Central differences of the components with Richardson extrapolation;
    exactly symmetric in the lower index pair by construction.
    """
    scheme = scheme or DerivativeScheme()
    chart_id, pts, squeeze = _as_batch(point)
    g, ginv, (dg, _), _, _ = _metric_jet(field, chart_id, pts, scheme)
    gamma = _christoffel_from(ginv, dg)
    return gamma[0] if squeeze else gamma


def scalar_curvature(field: MetricField, point,
                     scheme: DerivativeScheme | None = None) -> ValueWithError:
    """Scalar curvature with a Richardson error estimate.

    S = g^{bc} (d_a Gamma^a_{bc} - d_b Gamma^a_{ac}
                + Gamma^a_{ad} Gamma^d_{bc} - Gamma^a_{bd} Gamma^d_{ac}).
    """
    scheme = scheme or DerivativeScheme()
    chart_id, pts, squeeze = _as_batch(point)
    g, ginv, (dg, d2g), (dgp, d2gp), noise = _metric_jet(field, chart_id, pts, scheme)
    s = _scalar_from(g, ginv, dg, d2g)
    if scheme.levels > 1:
        s_prev = _scalar_from(g, ginv, dgp, d2gp)
        err = 2.0 * np.abs(s - s_prev) + noise * (1.0 + np.abs(s))
    else:
        err = np.full_like(s, np.nan)
    if squeeze:
        return ValueWithError(float(s[0]), float(err[0]))
    return ValueWithError(s, err)


def laplace_beltrami(field: MetricField, u: Callable, point,
                     scheme: DerivativeScheme | None = None) -> ValueWithError:
    """Laplace-Beltrami of a scalar callback at a point.

    Delta u = g^{ab} (d_a d_b u - Gamma^c_{ab} d_c u); the callback must
    accept coordinate arrays of shape (..., m).
    """
    scheme = scheme or DerivativeScheme()
    chart_id, pts, squeeze = _as_batch(point)
    steps = scheme.steps(field, chart_id, pts)
    g, ginv, (dg, _), (dgp, _), noise_g = _metric_jet(field, chart_id, pts, scheme)
    u0, (du, d2u), (dup, d2up), _, umax = _scalar_jet(
        u, chart_id, pts, steps, scheme.levels)

    def combine(dg_, du_, d2u_):
        gamma = _christoffel_from(ginv, dg_)
        w = np.einsum("...ab,...cab->...c", ginv, gamma)
        return (np.einsum("...ab,...ab->...", ginv, d2u_)
                - np.einsum("...c,...c->...", w, du_))

    val = combine(dg, du, d2u)
    if scheme.levels > 1:
        prev = combine(dgp, dup, d2up)
        h_min = float(np.min(steps)) / 2.0 ** (scheme.levels - 1)
        noise = 8.0 * _EPS * (1.0 + umax) / h_min**2 * float(np.max(np.abs(ginv)))
        err = 2.0 * np.abs(val - prev) + noise + noise_g * (1.0 + np.abs(val))
    else:
        err = np.full_like(val, np.nan)
    if squeeze:
        return ValueWithError(float(val[0]), float(err[0]))
    return ValueWithError(val, err)


def conformal_scalar(field: MetricField, u: Callable, point,
                     scheme: DerivativeScheme | None = None,
                     dim: int | None = None) -> ValueWithError:
    """Scalar curvature of u^{4/(d-2)} g via the transformation law.

    S~ = u^{-(d+2)/(d-2)} (S_g u - (4(d-1)/(d-2)) Delta_g u), d >= 3.
    """
    scheme = scheme or DerivativeScheme()
    d = dim if dim is not None else field.dim
    if d < 3:
        raise ValueError("conformal dimension must be >= 3")
    chart_id, pts, squeeze = _as_batch(point)
    steps = scheme.steps(field, chart_id, pts)
    g, ginv, (dg, d2g), (dgp, d2gp), noise = _metric_jet(field, chart_id, pts, scheme)
    u0, (du, d2u), (dup, d2up), umin, umax = _scalar_jet(
        u, chart_id, pts, steps, scheme.levels)
    if umin <= 0.0:
        raise NonpositiveConformalFactor(
            f"conformal factor reaches {umin:.3e} on the stencil"
        )
    kappa = 4.0 * (d - 1) / (d - 2)

    def combine(dg_, d2g_, du_, d2u_):
        s = _scalar_from(g, ginv, dg_, d2g_)
        gamma = _christoffel_from(ginv, dg_)
        w = np.einsum("...ab,...cab->...c", ginv, gamma)
        lap = (np.einsum("...ab,...ab->...", ginv, d2u_)
               - np.einsum("...c,...c->...", w, du_))
        return u0 ** (-(d + 2.0) / (d - 2.0)) * (s * u0 - kappa * lap)

    val = combine(dg, d2g, du, d2u)
    if scheme.levels > 1:
        prev = combine(dgp, d2gp, dup, d2up)
        err = 2.0 * np.abs(val - prev) + noise * (1.0 + np.abs(val))
    else:
        err = np.full_like(val, np.nan)
    if squeeze:
        return ValueWithError(float(val[0]), float(err[0]))
    return ValueWithError(val, err)


def rescale_field(field: MetricField, u: Callable, dim: int | None = None) -> MetricField:
    """The literally rescaled field u^{4/(d-2)} g as a new MetricField."""
    d = dim if dim is not None else field.dim
    expo = 4.0 / (d - 2.0)

    def comps(chart_id, coords):
        g = field.component_fn(chart_id, coords)
        return np.asarray(u(coords), dtype=float)[..., None, None] ** expo * g

    return MetricField(field.dim, field.charts, comps, field.transitions,
                       meta=dict(field.meta))
