"""Model summands, charts, metric fields, and exact spectral oracles.

Built-in summands are Riemannian products (K, g_K) x (N, g_N): the normal
factor N is a round sphere (or a flat ball, kept as a degenerate test
fixture) and K is a flat torus or a round 2-sphere.  Products keep every
quantity exactly computable: scalar curvature is the sum of factor
curvatures, the Laplace spectrum is the sum-set of factor spectra, and
Fermi coordinates around K x {pole} take an explicit warped-polar form.

A ``MetricField`` carries a metric as one chart plus a vectorized
callback of the coordinates alone, returning component matrices, which
the finite-difference curvature engine differentiates.  Every chart is
a product of factor coordinates (``factor_metric``, ``polar_chart``): K
alone, S^{n-1} alone, or (z, r, theta) in warped-polar form.  A chart
is one box, where its callback may be evaluated; ``MetricField.check``
holds every point and stencil to it and rejects NaN, infinite and
malformed coordinates.  Every
model's normal block is dr^2 + f(r)^2 g_{S^{n-1}} with f =
``normal_radius``, the closed form the neck pipeline works on instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from .errors import CodimensionTooSmall, OutOfChart, StencilOutOfChart, ZeroScalarCurvature

AXIS_MARGIN = 1e-3  # polar-axis exclusion for finite-difference work

_TWO_PI = 2.0 * math.pi

# Fixed generic sample coordinates used by tests and profile sampling;
# chosen away from every coordinate axis.
Z_SAMPLE_TORUS = (0.73, 1.41)
Z_SAMPLE_SPHERE2 = (1.13, 0.58)
THETA_SAMPLE = (1.0831, 0.47)


def sample_orbit(model: ModelGeometry) -> tuple[tuple, tuple]:
    """(z, theta): the sample point on K and on S^{n-1} of ``model``.

    Profiles that depend on the radial coordinate alone are evaluated on
    the orbit through this point; z is empty when K is a point.
    """
    sphere = model.k and model.k_factors[0].kind == "sphere"
    z = (Z_SAMPLE_SPHERE2 if sphere else Z_SAMPLE_TORUS)[: model.k]
    return z, (THETA_SAMPLE + (0.9, 1.2))[: model.n - 1]


def _unique(a):
    """np.unique(a), without the numpy.ma import np.unique makes on first use."""
    a = np.sort(a, axis=None)
    return a[np.concatenate([[True], a[1:] != a[:-1]])[:a.size]]


@dataclass(frozen=True)
class Factor:
    """One factor of a product model.

    kind : "torus" (flat, side length `size`), "sphere" (round, radius
    `size`), or "ball" (flat normal fixture, coordinate radius `size`).
    """

    kind: str
    dim: int
    size: float

    def scalar_curvature(self) -> float:
        if self.kind == "sphere":
            return self.dim * (self.dim - 1) / self.size**2
        return 0.0

    def spectrum(self, cutoff: float) -> np.ndarray:
        """Eigenvalues of -Laplace on the factor, <= cutoff, sorted."""
        if self.kind == "torus":
            base = (_TWO_PI / self.size) ** 2
            vmax = int(math.floor(math.sqrt(cutoff / base))) if cutoff > 0 else 0
            rng = np.arange(-vmax, vmax + 1)
            grids = np.meshgrid(*([rng] * self.dim), indexing="ij")
            sq = sum(g.astype(float) ** 2 for g in grids) * base
            return _unique(sq[sq <= cutoff])
        if self.kind == "sphere":
            d = self.dim
            vals = []
            j = 0
            while j * (j + d - 1) / self.size**2 <= cutoff:
                vals.append(j * (j + d - 1) / self.size**2)
                j += 1
            return np.asarray(vals)
        raise ValueError(f"no exact spectrum for factor kind {self.kind!r}")


@dataclass(frozen=True)
class ModelGeometry:
    """A built-in summand: product manifold with gluing locus K x {pole}.

    A model stores its name and factors alone; k, n, m and S are read
    from the factors.  The base point on the normal factor is the polar
    origin of its geodesic polar chart; K sits at r = 0.
    """

    name: str
    k_factors: tuple[Factor, ...]
    normal_factor: Factor

    def __post_init__(self):
        if self.n < 3:
            raise CodimensionTooSmall(
                f"codimension m - k = {self.n} < 3 for model {self.name!r}"
            )
        if abs(self.S) < 1e-14:
            raise ZeroScalarCurvature(
                f"factor sizes give S = 0 for model {self.name!r}"
            )

    @cached_property
    def k(self) -> int:
        return sum(f.dim for f in self.k_factors)

    @cached_property
    def n(self) -> int:
        return self.normal_factor.dim

    @cached_property
    def m(self) -> int:
        return self.k + self.n

    @cached_property
    def S(self) -> float:
        """Sum of the factor curvatures, the K factors first."""
        return (sum(f.scalar_curvature() for f in self.k_factors)
                + self.normal_factor.scalar_curvature())

    @property
    def r_max(self) -> float:
        """Radial extent of the normal polar chart."""
        f = self.normal_factor
        return math.pi * f.size if f.kind == "sphere" else f.size

    @property
    def factors(self) -> tuple[Factor, ...]:
        return self.k_factors + (self.normal_factor,)


def make_model(
    name: str,
    *,
    torus_side: float = _TWO_PI,
    sphere2_radius_sq: float = 2.0,
    sphere3_radius: float = 1.0,
) -> ModelGeometry:
    """Instantiate a built-in model by name.

    Built-ins:
      - ``torus2_x_sphere3``: T^2 x S^3, K = T^2 x {p}   (m=5, k=2, n=3)
      - ``sphere2_x_sphere3``: S^2 x S^3, K = S^2 x {p}  (m=5, k=2, n=3)
      - ``sphere2_x_ball3``: S^2 x flat ball of radius pi, the
        exact-conformal test fixture (the normal metric is literally flat)
      - ``sphere5``: round unit S^5, K = {p}             (m=5, k=0, n=5)
      - ``torus2_x_torus3``: always rejected (S = 0)
    """
    for f, lo in (("torus_side", torus_side), ("sphere2_radius_sq", sphere2_radius_sq),
                  ("sphere3_radius", sphere3_radius)):
        if not 0 < lo < math.inf:  # NaN fails the comparison too
            raise ValueError(f"factor parameter {f} must be positive and finite")
    if name == "torus2_x_sphere3":
        return ModelGeometry(name, (Factor("torus", 2, torus_side),),
                             Factor("sphere", 3, sphere3_radius))
    if name == "sphere2_x_sphere3":
        return ModelGeometry(name, (Factor("sphere", 2, math.sqrt(sphere2_radius_sq)),),
                             Factor("sphere", 3, sphere3_radius))
    if name == "sphere2_x_ball3":
        return ModelGeometry(name, (Factor("sphere", 2, math.sqrt(sphere2_radius_sq)),),
                             Factor("ball", 3, math.pi))
    if name == "sphere5":
        return ModelGeometry(name, (), Factor("sphere", 5, 1.0))
    if name == "torus2_x_torus3":
        return ModelGeometry(name, (Factor("torus", 2, torus_side),),
                             Factor("torus", 3, torus_side))
    if name == "torus2_x_sphere2":
        return ModelGeometry(name, (Factor("torus", 2, torus_side),),
                             Factor("sphere", 2, math.sqrt(sphere2_radius_sq)))
    raise ValueError(f"unknown model name {name!r}")


def model_spectrum(model: ModelGeometry, cutoff: float,
                   symmetric_only: bool = False) -> np.ndarray:
    """Exact -Laplace eigenvalues of the product, <= cutoff, sorted.

    With ``symmetric_only`` the K factors contribute only their constant
    mode and the normal sphere only its zonal modes, i.e. the spectrum
    seen by functions of the polar radius alone.
    """
    sums = np.zeros(1)
    for f in model.k_factors:
        vals = np.zeros(1) if symmetric_only else f.spectrum(cutoff)
        sums = _unique(sums[:, None] + vals[None, :])
        sums = sums[sums <= cutoff]
    vals = model.normal_factor.spectrum(cutoff)
    sums = _unique(sums[:, None] + vals[None, :])
    return sums[sums <= cutoff]


def injectivity_gap(model: ModelGeometry, cutoff: float,
                    symmetric_only: bool = False) -> float:
    """Distance from S/(m-1) to the exact product spectrum below cutoff.

    A return of 0 means the linearized operator Delta + S/(m-1) has a
    kernel, i.e. the injectivity hypothesis fails.
    """
    target = model.S / (model.m - 1)
    if cutoff <= abs(target):
        raise ValueError("cutoff must exceed |S|/(m-1)")
    vals = model_spectrum(model, cutoff, symmetric_only=symmetric_only)
    return float(np.min(np.abs(vals - target)))


# ---------------------------------------------------------------------------
# Charts and metric fields
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Chart:
    """A coordinate chart: the box ``lower`` <= x <= ``upper`` in which its
    component callback may be evaluated.  Angles that wrap around are
    unbounded.
    """

    chart_id: str
    coord_names: tuple[str, ...]
    lower: tuple[float, ...]
    upper: tuple[float, ...]

    @property
    def dim(self) -> int:
        return len(self.coord_names)

    def outside(self, x: np.ndarray, margin: float) -> str | None:
        """Name of the first coordinate of ``x`` (..., dim) off the box, else None.

        ``x +- margin`` must lie in the box; NaN and infinite coordinates
        never do.
        """
        bad = ~(np.isfinite(x) & (x - margin >= np.asarray(self.lower))
                & (x + margin <= np.asarray(self.upper)))
        if not np.any(bad):
            return None
        return self.coord_names[int(np.argmax(np.any(bad.reshape(-1, self.dim), axis=0)))]


@dataclass(frozen=True)
class MetricField:
    """One chart plus a vectorized metric-component callback.

    ``component_fn(coords)`` accepts coordinates of shape ``(..., m)``
    and returns component matrices of shape ``(..., m, m)``.  A point is
    a ``(chart_id, coords)`` pair, and ``check`` holds it to the chart's
    box.  The callback is pure; fields are immutable and safe to share
    across threads.
    """

    chart: Chart
    component_fn: Callable[[np.ndarray], np.ndarray]

    @property
    def dim(self) -> int:
        return self.chart.dim

    def check(self, chart_id: str, coords, margin: float = 0.0) -> np.ndarray:
        """``coords`` as a float array (..., m), if ``chart_id`` names the
        chart and ``coords +- margin`` lies in its box; else OutOfChart.

        A positive ``margin`` is the reach of a finite-difference stencil,
        and a coordinate off the box then raises StencilOutOfChart.
        """
        if chart_id != self.chart.chart_id:
            raise OutOfChart(f"no chart {chart_id!r} in this field")
        x = np.asarray(coords, dtype=float)
        if x.shape[-1:] != (self.dim,):
            raise OutOfChart(f"expected {self.dim} coordinates, got shape {x.shape}")
        name = self.chart.outside(x, margin)
        if name is not None:
            error = StencilOutOfChart if margin > 0 else OutOfChart
            raise error(f"coordinate {name!r} leaves chart {chart_id!r}")
        return x

    def point(self, chart_id: str, coords) -> tuple[str, np.ndarray]:
        """The point ``(chart_id, coords)``, its coordinates checked."""
        return chart_id, self.check(chart_id, coords)

    def components(self, chart_id: str, coords) -> np.ndarray:
        return self.component_fn(self.check(chart_id, coords))


# ---------------------------------------------------------------------------
# Factor metrics and the warped-polar charts
# ---------------------------------------------------------------------------


def sphere_polar_diag(theta: np.ndarray, radius: float = 1.0) -> np.ndarray:
    """Diagonal of the round-sphere polar metric for angles (..., d-1)."""
    theta = np.asarray(theta, dtype=float)
    out = np.ones(theta.shape)
    if theta.shape[-1] > 1:
        out[..., 1:] = np.cumprod(np.sin(theta[..., :-1]) ** 2, axis=-1)
    return radius**2 * out


def normal_radius(factor: Factor, r):
    """f(r) with normal block dr^2 + f(r)^2 g_{S^{n-1}}, on arrays."""
    if factor.kind == "sphere":
        return factor.size * np.sin(r / factor.size)
    if factor.kind == "ball":
        return r
    raise ValueError(f"unsupported normal factor kind {factor.kind!r}")


def normal_radius_jet(factor: Factor, r):
    """(f(r), f'(r), f''(r)) of ``normal_radius``, f bit for bit its value."""
    if factor.kind == "sphere":  # f = R sin(r/R)
        a = r / factor.size
        sin_a = np.sin(a)
        return factor.size * sin_a, np.cos(a), -sin_a / factor.size
    if factor.kind == "ball":
        return r, 1.0, 0.0
    raise ValueError(f"unsupported normal factor kind {factor.kind!r}")


def _factor_block(factors: tuple[Factor, ...], z: np.ndarray) -> np.ndarray:
    """Metric of a product of torus and sphere factors at z, shape (..., d, d)."""
    d = sum(f.dim for f in factors)
    out = np.zeros(z.shape[:-1] + (d, d))
    i = 0
    for f in factors:
        ii = np.arange(i, i + f.dim)
        if f.kind == "torus":
            out[..., ii, ii] = 1.0
        elif f.kind == "sphere":  # polar angles then azimuth
            out[..., ii, ii] = sphere_polar_diag(z[..., i:i + f.dim], f.size)
        else:
            raise ValueError(f"unsupported factor kind {f.kind!r}")
        i += f.dim
    return out


def _factor_rows(factors: tuple[Factor, ...], prefix: str) -> list:
    """Chart rows of a factor product, one per coordinate.

    A row is (name, lower, upper).  Torus coordinates and a sphere's
    azimuth wrap around, so are unbounded; a sphere's polar angles stay
    AXIS_MARGIN off the axes.
    """
    free = (-np.inf, np.inf)
    polar = (AXIS_MARGIN, math.pi - AXIS_MARGIN)
    rows = []
    for f in factors:
        rows += [free] * f.dim if f.kind == "torus" else [polar] * (f.dim - 1) + [free]
    return [(f"{prefix}{i + 1}",) + row for i, row in enumerate(rows)]


def _chart(chart_id: str, rows: list) -> Chart:
    return Chart(chart_id, *(tuple(col) for col in zip(*rows)))


def factor_metric(factors: tuple[Factor, ...], prefix: str) -> MetricField:
    """A product of torus and sphere factors alone, as a field with one chart.

    The chart is named ``prefix`` and its coordinates ``<prefix>1``, ...;
    e.g. the K factors of a model, or ``Factor("sphere", n - 1, 1.0)``
    with prefix ``theta`` for the orbit sphere S^{n-1} of a normal block.
    """
    return MetricField(_chart(prefix, _factor_rows(factors, prefix)),
                       lambda z: _factor_block(factors, z))


def polar_chart(model: ModelGeometry, chart_id: str, radial: tuple) -> Chart:
    """The chart (z..., radial, theta...) of a warped-polar metric on ``model``.

    ``radial`` is the row (name, lower, upper) of the radial coordinate,
    between the K factors and the angles of S^{n-1}.
    """
    return _chart(chart_id, _factor_rows(model.k_factors, "z") + [radial]
                  + _factor_rows((Factor("sphere", model.n - 1, 1.0),), "theta"))


def product_components(model: ModelGeometry, coords: np.ndarray, a, b) -> np.ndarray:
    """Components of g_K(z) + a drho^2 + b g_{S^{n-1}} at (z..., rho, theta...).

    Returns shape (..., m, m); ``a`` and ``b`` broadcast against the point
    shape.  The summand, glued and synthetic metrics are all of this form
    and differ only in (a, b).
    """
    k, m = model.k, model.m
    out = np.zeros(coords.shape[:-1] + (m, m))
    out[..., :k, :k] = _factor_block(model.k_factors, coords[..., :k])
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    out[..., k, k] = a
    ii = np.arange(k + 1, m)
    out[..., ii, ii] = sphere_polar_diag(coords[..., k + 1:]) * b[..., None]
    return out


def flat_metric(dim: int) -> MetricField:
    """Euclidean metric on the cube [-10, 10]^dim, mostly for oracle tests."""
    chart = _chart("flat", [(f"x{i + 1}", -10.0, 10.0) for i in range(dim)])

    def comps(x):
        out = np.zeros(x.shape[:-1] + (dim, dim))
        idx = np.arange(dim)
        out[..., idx, idx] = 1.0
        return out

    return MetricField(chart, comps)


def fermi_metric(model: ModelGeometry) -> MetricField:
    """Exact summand metric in Fermi coordinates around K x {pole}.

    One chart, ``cap-1``, with coordinates (z..., r, theta...) in
    warped-polar form: tangential block g_K exactly, normal block
    dr^2 + f(r)^2 g_{S^{n-1}} with f = normal_radius, vanishing cross
    block.  r stays AXIS_MARGIN off both poles.
    """
    cap = polar_chart(model, "cap-1", ("r", AXIS_MARGIN, model.r_max - AXIS_MARGIN))

    def comps(c):
        return product_components(model, c, 1.0,
                                  normal_radius(model.normal_factor, c[..., model.k]) ** 2)

    return MetricField(cap, comps)


def is_spd(matrix: np.ndarray) -> bool:
    """Cholesky-based symmetric positive definiteness test."""
    if not np.allclose(matrix, np.swapaxes(matrix, -1, -2), rtol=0, atol=1e-12):
        return False
    try:
        np.linalg.cholesky(matrix)
        return True
    except np.linalg.LinAlgError:
        return False
