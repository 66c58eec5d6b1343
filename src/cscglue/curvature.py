"""Numerical tensor calculus on black-box metric fields.

Christoffel symbols, scalar curvature, the Laplace-Beltrami operator and
the conformal transformation law are computed from central-difference
jets, Richardson-extrapolated over at least two halved steps; one jet
routine serves the metric components and scalar callbacks alike, and the
last two extrapolation diagonals give every value its error bar.  The
production path differentiates the glued profiles exactly with
``gluing.Jet``; this engine uses finite differences so that it stays
independent of the jet path it cross-checks.

All entry points take a point as a ``(chart_id, coords)`` pair on the
field's one chart, with coords of shape ``(m,)`` for a single point or
``(N, m)`` for a batch, and are pure.  Every stencil must lie in the
chart's box (``MetricField.check``), else StencilOutOfChart.  Conformal
rescalings u^{4/(d-2)} g are taken in the field's own dimension d.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .errors import IllConditionedMetric, NonpositiveConformalFactor
from .geometry import MetricField

_EPS = np.finfo(float).eps
COND_LIMIT = 1e12


@dataclass(frozen=True)
class DerivativeScheme:
    """Finite-difference configuration.

    ``base_step`` is the step of every coordinate, positive and finite.
    ``levels`` is the number of Richardson levels (step halvings), at
    least two: the last two extrapolation diagonals give the error bar.
    """

    base_step: float = 1e-3
    levels: int = 3

    def __post_init__(self):
        if not 0.0 < self.base_step < math.inf:  # NaN fails the comparison too
            raise ValueError(f"base_step must be positive and finite, got {self.base_step}")
        if self.levels < 2:
            raise ValueError("levels must be >= 2")


class ValueWithError(NamedTuple):
    value: float | np.ndarray
    error: float | np.ndarray


def _stencil(pts: np.ndarray, h: float):
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
    coords = pts[..., None, :] + offs * h
    return coords, pair_index


def _jet_from_values(vals: np.ndarray, h: float, m: int, pair_index):
    """First and second derivative arrays from stencil values at step ``h``.

    ``vals`` has the stencil axis last; returns d1 (..., m) and
    d2 (..., m, m).
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
                 - vals[..., i + 2] + vals[..., i + 3]) / (4.0 * h * h)
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


def _jet(fn, pts, scheme):
    """Value and Richardson-extrapolated first and second derivatives of ``fn``.

    ``fn`` maps coordinates (..., m) to values of shape (...) + item
    (scalars: item (); metrics: (m, m)).  Returns (v, (d1, d1_prev),
    (d2, d2_prev), vmin, noise) with d1[..., e, item] = d_e v and
    d2[..., e, f, item] = d_e d_f v; ``_prev`` is the previous
    extrapolation diagonal, ``vmin`` the least stencil value and
    ``noise`` the rounding floor of a second difference at the finest
    step.
    """
    m = pts.shape[-1]
    b = pts.ndim - 1  # batch axes; the values' stencil axis follows them
    batch = tuple(range(b))
    d1_levels, d2_levels = [], []
    vmin, vmax = np.inf, 0.0
    for lev in range(scheme.levels):
        h = scheme.base_step / 2.0**lev
        coords, pair_index = _stencil(pts, h)
        vals = np.asarray(fn(coords), dtype=float)
        vmin = min(vmin, float(np.min(vals)))
        vmax = max(vmax, float(np.max(np.abs(vals))))
        r = vals.ndim - b - 1  # item axes
        # stencil axis last for the divided differences, derivative axes
        # back before the item axes after them
        v = vals.transpose(batch + tuple(range(b + 1, b + 1 + r)) + (b,))
        if lev == 0:
            v0 = v[..., 0]
        d1, d2 = _jet_from_values(v, h, m, pair_index)
        item = tuple(range(b, b + r))
        d1_levels.append(d1.transpose(batch + (b + r,) + item))
        d2_levels.append(d2.transpose(batch + (b + r, b + r + 1) + item))
    h_min = scheme.base_step / 2.0 ** (scheme.levels - 1)
    noise = 8.0 * _EPS * (1.0 + vmax) / h_min**2
    return v0, _richardson(d1_levels), _richardson(d2_levels), vmin, noise


def _metric_jet(field, chart_id, pts, scheme):
    """(ginv, (dg, dg_prev), (d2g, d2g_prev), noise): ``_jet`` of the metric
    components, dg[..., e, i, j] = d_e g_ij, with the inverse metric."""
    field.check(chart_id, pts, 2 * scheme.base_step)
    g, d1, d2, _, noise = _jet(field.component_fn, pts, scheme)
    cond = np.linalg.cond(g)
    if np.any(cond > COND_LIMIT):
        raise IllConditionedMetric(
            f"metric condition number {np.max(cond):.3e} exceeds {COND_LIMIT:.0e}"
        )
    return np.linalg.inv(g), d1, d2, noise


def _bracket(dg):
    """d_b g_dc + d_c g_db - d_d g_bc at [..., b, d, c] from dg[..., e, i, j] = d_e g_ij.

    Leading axes pass through, so the bracket of d2g is its derivative.
    """
    return dg + np.einsum("...cdb->...bdc", dg) - np.einsum("...dbc->...bdc", dg)


def _christoffel_from(ginv, sym):
    """Gamma^a_{bc} from the inverse metric and the bracket of dg."""
    return 0.5 * np.einsum("...ad,...bdc->...abc", ginv, sym)


def _scalar_from(ginv, dg, d2g):
    sym = _bracket(dg)
    gamma = _christoffel_from(ginv, sym)
    dginv = -np.einsum("...ip,...epq,...qj->...eij", ginv, dg, ginv)
    dgamma = 0.5 * (np.einsum("...ead,...bdc->...eabc", dginv, sym)
                    + np.einsum("...ad,...ebdc->...eabc", ginv, _bracket(d2g)))
    t1 = np.einsum("...aabc->...bc", dgamma)
    t2 = np.einsum("...baac->...bc", dgamma)
    tr = np.einsum("...aad->...d", gamma)
    t3 = np.einsum("...d,...dbc->...bc", tr, gamma)
    t4 = np.einsum("...abd,...dac->...bc", gamma, gamma)
    ricci = t1 - t2 + t3 - t4
    return np.einsum("...bc,...bc->...", ginv, ricci)


def _laplacian(ginv, dg, du, d2u):
    """g^{ab} (d_a d_b u - Gamma^c_{ab} d_c u)."""
    w = np.einsum("...ab,...cab->...c", ginv, _christoffel_from(ginv, _bracket(dg)))
    return (np.einsum("...ab,...ab->...", ginv, d2u)
            - np.einsum("...c,...c->...", w, du))


def _with_error(val, prev, noise, squeeze, floor=0.0) -> ValueWithError:
    """``val`` with error bar 2 |val - prev| + floor + noise (1 + |val|).

    ``prev`` is the value from the previous Richardson diagonal; a
    ``squeeze``d batch of one point returns floats.
    """
    err = 2.0 * np.abs(val - prev) + floor + noise * (1.0 + np.abs(val))
    if squeeze:
        return ValueWithError(float(val[0]), float(err[0]))
    return ValueWithError(val, err)


def _as_batch(point):
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
    chart_id, pts, squeeze = _as_batch(point)
    ginv, (dg, _), _, _ = _metric_jet(field, chart_id, pts, scheme or DerivativeScheme())
    gamma = _christoffel_from(ginv, _bracket(dg))
    return gamma[0] if squeeze else gamma


def scalar_curvature(field: MetricField, point,
                     scheme: DerivativeScheme | None = None) -> ValueWithError:
    """Scalar curvature with a Richardson error estimate.

    S = g^{bc} (d_a Gamma^a_{bc} - d_b Gamma^a_{ac}
                + Gamma^a_{ad} Gamma^d_{bc} - Gamma^a_{bd} Gamma^d_{ac}).
    """
    chart_id, pts, squeeze = _as_batch(point)
    ginv, (dg, dgp), (d2g, d2gp), noise = _metric_jet(
        field, chart_id, pts, scheme or DerivativeScheme())
    return _with_error(_scalar_from(ginv, dg, d2g), _scalar_from(ginv, dgp, d2gp),
                       noise, squeeze)


def laplace_beltrami(field: MetricField, u: Callable, point,
                     scheme: DerivativeScheme | None = None) -> ValueWithError:
    """Laplace-Beltrami of a scalar callback at a point.

    Delta u = g^{ab} (d_a d_b u - Gamma^c_{ab} d_c u); the callback must
    accept coordinate arrays of shape (..., m).
    """
    scheme = scheme or DerivativeScheme()
    chart_id, pts, squeeze = _as_batch(point)
    ginv, (dg, dgp), _, noise_g = _metric_jet(field, chart_id, pts, scheme)
    _, (du, dup), (d2u, d2up), _, noise_u = _jet(u, pts, scheme)
    return _with_error(_laplacian(ginv, dg, du, d2u), _laplacian(ginv, dgp, dup, d2up),
                       noise_g, squeeze, floor=noise_u * float(np.max(np.abs(ginv))))


def conformal_scalar(field: MetricField, u: Callable, point,
                     scheme: DerivativeScheme | None = None) -> ValueWithError:
    """Scalar curvature of u^{4/(d-2)} g via the transformation law.

    S~ = u^{-(d+2)/(d-2)} (S_g u - (4(d-1)/(d-2)) Delta_g u), with d =
    ``field.dim`` >= 3.
    """
    scheme = scheme or DerivativeScheme()
    d = field.dim
    if d < 3:
        raise ValueError("conformal dimension must be >= 3")
    chart_id, pts, squeeze = _as_batch(point)
    ginv, (dg, dgp), (d2g, d2gp), noise = _metric_jet(field, chart_id, pts, scheme)
    u0, (du, dup), (d2u, d2up), umin, _ = _jet(u, pts, scheme)
    if umin <= 0.0:
        raise NonpositiveConformalFactor(
            f"conformal factor reaches {umin:.3e} on the stencil"
        )
    kappa = 4.0 * (d - 1) / (d - 2)

    def law(dg_, d2g_, du_, d2u_):
        s = _scalar_from(ginv, dg_, d2g_)
        lap = _laplacian(ginv, dg_, du_, d2u_)
        return u0 ** (-(d + 2.0) / (d - 2.0)) * (s * u0 - kappa * lap)

    return _with_error(law(dg, d2g, du, d2u), law(dgp, d2gp, dup, d2up), noise, squeeze)


def rescale_field(field: MetricField, u: Callable) -> MetricField:
    """The literally rescaled field u^{4/(d-2)} g, d = ``field.dim``."""
    expo = 4.0 / (field.dim - 2.0)

    def comps(coords):
        g = field.component_fn(coords)
        return np.asarray(u(coords), dtype=float)[..., None, None] ** expo * g

    return MetricField(field.chart, comps)
