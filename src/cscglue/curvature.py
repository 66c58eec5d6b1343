"""Numerical tensor calculus on black-box metric fields.

Christoffel symbols, scalar curvature, the Laplace-Beltrami operator and
the conformal transformation law are computed from central-difference
jets, Richardson-extrapolated over at least two halved steps; one jet
routine serves the metric components and scalar callbacks alike, calls
the callback once on the stencils of all levels, and the last two
extrapolation diagonals give every value its error bar.  The production
path differentiates the glued profiles exactly, in closed form
(``GluingConfig.warp_jets``); this engine uses finite differences so
that it stays independent of the path it cross-checks.  Its one
production use is the conjugation probes' factor Laplacians
(``neck_analysis.factor_laplacians``), one call per probe and factor,
once per (model, scheme) in a process.

All entry points take a point as a ``(chart_id, coords)`` pair on the
field's one chart, with coords of shape ``(m,)`` for a single point or
``(N, m)`` for a batch, and are pure.  Every stencil must lie in the
chart's box (``MetricField.check``), else StencilOutOfChart.  Conformal
rescalings u^{4/(d-2)} g are taken in the field's own dimension d.

Every metric jet is gated on its condition number, IllConditionedMetric
above COND_LIMIT.  The gate is the 1-norm condition number
||g||_1 ||g^-1||_1 from the inverse metric the formulas use, so no SVD
runs; for symmetric g of dimension m it lies between cond_2 and m cond_2.
"""

from __future__ import annotations

import functools
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


@functools.lru_cache(maxsize=32)
def _stencil(m: int, scheme: DerivativeScheme):
    """Steps (L, K, m) of the stencils of all L levels, each level's 2h, h^2
    and 4 h h as arrays (L,), and the (m, m) index of each second derivative
    in [d_aa per axis, d_ab per pair a < b].

    The layout of K is [center, (+e_a, -e_a) per axis, (++, +-, -+, --)
    per pair].
    """
    eye, (pa, pb) = np.eye(m), np.triu_indices(m, 1)
    sa, sb = np.array([[1.0, 1.0, -1.0, -1.0], [1.0, -1.0, 1.0, -1.0]])[..., None]
    offs = np.concatenate([np.zeros((1, m)), np.stack([eye, -eye], 1).reshape(2 * m, m),
                           (sa * eye[pa, None] + sb * eye[pb, None]).reshape(-1, m)])
    second = np.diag(np.arange(m))
    second[pa, pb] = second[pb, pa] = m + np.arange(pa.size)
    hs = [scheme.base_step / 2.0**lev for lev in range(scheme.levels)]
    out = (offs * np.asarray(hs)[:, None, None], np.array([2.0 * h for h in hs]),
           np.array([h**2 for h in hs]), np.array([4.0 * h * h for h in hs]), second.ravel())
    for x in out:
        x.setflags(write=False)
    return out


def _richardson(rows):
    """Neville tableau for an h^2 error series along axis 0; returns the last
    two diagonals."""
    for j in range(1, len(rows)):
        fac = 4.0**j
        prev = rows[-1]
        rows = (fac * rows[1:] - rows[:-1]) / (fac - 1.0)
    return rows[-1], prev


def _jet(fn, pts, scheme):
    """Value and Richardson-extrapolated first and second derivatives of ``fn``.

    ``fn`` maps coordinates (..., m) to values of shape (...) + item
    (scalars: item (); metrics: (m, m)); it is called once, on the
    stencils of all levels stacked as (..., L, K, m).  Returns (v,
    (d1, d1_prev), (d2, d2_prev), vmin, noise) with d1[..., e, item] =
    d_e v and d2[..., e, f, item] = d_e d_f v; ``_prev`` is the previous
    extrapolation diagonal, ``vmin`` the least stencil value and
    ``noise`` the rounding floor of a second difference at the finest
    step.
    """
    m, b, L = pts.shape[-1], pts.ndim - 1, scheme.levels
    steps, h2, hsq, q4, second = _stencil(m, scheme)
    vals = np.asarray(fn(pts[..., None, None, :] + steps), dtype=float)
    r = vals.ndim - b - 2  # item axes
    batch, item = tuple(range(1, b + 1)), tuple(range(b + 1, b + 1 + r))
    # level axis first and stencil axis last for the divided differences
    v = vals.transpose((b, *range(b), *range(b + 2, b + 2 + r), b + 1))
    per_level = (L,) + (1,) * (b + r + 1)
    v0, vp, vm = v[..., 0], v[..., 1:1 + 2 * m:2], v[..., 2:2 + 2 * m:2]
    # d1 is laid out (L, ..., e, item) and d2 (L, ..., item, e, f) in memory,
    # as one level's differences are, so the contractions see the same strides
    d1 = np.empty((L, *vals.shape[:b], m, *vals.shape[b + 2:]))
    d1_last = d1.transpose((0, *batch, *(i + 1 for i in item), b + 1))
    np.subtract(vp, vm, out=d1_last)
    d1_last /= h2.reshape(per_level)
    k = 1 + 2 * m
    d2 = np.concatenate([(vp - 2.0 * v0[..., None] + vm) / hsq.reshape(per_level),
                         (v[..., k::4] - v[..., k + 1::4] - v[..., k + 2::4]
                          + v[..., k + 3::4]) / q4.reshape(per_level)], axis=-1)
    d2 = d2.take(second, axis=-1).reshape(v.shape[:-1] + (m, m))
    d2 = d2.transpose((0, *batch, b + r + 1, b + r + 2, *item))
    h_min = scheme.base_step / 2.0 ** (L - 1)
    noise = 8.0 * _EPS * (1.0 + float(np.abs(vals).max())) / h_min**2
    return v0[0], _richardson(d1), _richardson(d2), float(vals.min()), noise


def _metric_jet(field, chart_id, pts, scheme):
    """(ginv, (dg, dg_prev), (d2g, d2g_prev), noise): ``_jet`` of the metric
    components, dg[..., e, i, j] = d_e g_ij, with the inverse metric.

    The gate is the 1-norm condition number ||g||_1 ||g^-1||_1, read off
    the one inverse the engine uses.  For symmetric g of dimension m,
    cond_2 <= cond_1 <= m cond_2, so COND_LIMIT bounds the 2-norm
    condition number to within a factor m.  A singular or non-finite g
    raises IllConditionedMetric too.
    """
    field.check(chart_id, pts, 2 * scheme.base_step)
    g, d1, d2, _, noise = _jet(field.component_fn, pts, scheme)
    try:
        ginv = np.linalg.inv(g)
    except np.linalg.LinAlgError as exc:
        raise IllConditionedMetric(f"metric is singular or not finite: {exc}") from None
    cond = np.max(np.linalg.norm(g, 1, axis=(-2, -1))
                  * np.linalg.norm(ginv, 1, axis=(-2, -1)))
    if not cond <= COND_LIMIT:  # NaN fails the comparison too
        raise IllConditionedMetric(
            f"metric condition number {cond:.3e} exceeds {COND_LIMIT:.0e}")
    return ginv, d1, d2, noise


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


def christoffel(field: MetricField, point):
    """Christoffel symbols Gamma^a_{bc}, shape (m, m, m) (batched: (N, m, m, m)).

    Central differences of the components with Richardson extrapolation;
    exactly symmetric in the lower index pair by construction.
    """
    chart_id, pts, squeeze = _as_batch(point)
    ginv, (dg, _), _, _ = _metric_jet(field, chart_id, pts, DerivativeScheme())
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
                     scheme: DerivativeScheme) -> ValueWithError:
    """Laplace-Beltrami of a scalar callback at a point.

    Delta u = g^{ab} (d_a d_b u - Gamma^c_{ab} d_c u); the callback must
    accept coordinate arrays of shape (..., m).
    """
    chart_id, pts, squeeze = _as_batch(point)
    ginv, (dg, dgp), _, noise_g = _metric_jet(field, chart_id, pts, scheme)
    _, (du, dup), (d2u, d2up), _, noise_u = _jet(u, pts, scheme)
    return _with_error(_laplacian(ginv, dg, du, d2u), _laplacian(ginv, dgp, dup, d2up),
                       noise_g, squeeze, floor=noise_u * float(np.max(np.abs(ginv))))


def conformal_scalar(field: MetricField, u: Callable, point,
                     scheme: DerivativeScheme) -> ValueWithError:
    """Scalar curvature of u^{4/(d-2)} g via the transformation law.

    S~ = u^{-(d+2)/(d-2)} (S_g u - (4(d-1)/(d-2)) Delta_g u), with d =
    ``field.dim`` >= 3.
    """
    d = field.dim
    if d < 3:
        raise ValueError("conformal dimension must be >= 3")
    chart_id, pts, squeeze = _as_batch(point)
    ginv, (dg, dgp), (d2g, d2gp), noise = _metric_jet(field, chart_id, pts, scheme)
    u0, (du, dup), (d2u, d2up), umin, _ = _jet(u, pts, scheme)
    if not umin > 0.0:  # NaN, which reaches umin, is not positive either
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
