"""Model summands, charts, metric fields, and exact spectral oracles.

Built-in summands are Riemannian products (K, g_K) x (N, g_N): the normal
factor N is a round sphere (or a flat ball, kept as a degenerate test
fixture) and K is a flat torus or a round 2-sphere.  Products keep every
quantity exactly computable: scalar curvature is the sum of factor
curvatures, the Laplace spectrum is the sum-set of factor spectra, and
Fermi coordinates around K x {pole} take an explicit warped-polar form.

A ``MetricField`` is the universal carrier for metrics in this package:
an atlas of charts plus a vectorized callback returning the component
matrix at coordinate points.  Everything downstream (finite-difference
curvature, gluing, the radial solver) consumes metric fields as black
boxes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Mapping

import numpy as np

from .errors import CodimensionTooSmall, OutOfChart, ZeroScalarCurvature

AXIS_MARGIN = 1e-3  # polar-axis exclusion for finite-difference work

_TWO_PI = 2.0 * math.pi

# Fixed generic sample coordinates used by tests and profile sampling;
# chosen away from every coordinate axis.
Z_SAMPLE_TORUS = (0.73, 1.41)
Z_SAMPLE_SPHERE2 = (1.13, 0.58)
THETA_SAMPLE = (1.0831, 0.47)


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
            vals = np.unique(sq[sq <= cutoff])
            return np.sort(vals)
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

    The base point on the normal factor is the polar origin of its
    geodesic polar chart; K sits at r = 0.
    """

    name: str
    m: int
    k: int
    n: int
    S: float
    k_factors: tuple[Factor, ...]
    normal_factor: Factor

    def __post_init__(self):
        if self.n != self.m - self.k:
            raise ValueError("inconsistent dimensions: n must equal m - k")
        if self.n < 3:
            raise CodimensionTooSmall(
                f"codimension m - k = {self.n} < 3 for model {self.name!r}"
            )
        if abs(self.S) < 1e-14:
            raise ZeroScalarCurvature(
                f"factor sizes give S = 0 for model {self.name!r}"
            )

    @property
    def r_max(self) -> float:
        """Radial extent of the normal polar chart."""
        f = self.normal_factor
        return math.pi * f.size if f.kind == "sphere" else f.size

    @property
    def factors(self) -> tuple[Factor, ...]:
        return self.k_factors + (self.normal_factor,)



def _build_model(name, k_factors, normal_factor):
    k = sum(f.dim for f in k_factors)
    n = normal_factor.dim
    m = k + n
    if n < 3:
        raise CodimensionTooSmall(f"codimension m - k = {n} < 3 for {name!r}")
    S = sum(f.scalar_curvature() for f in k_factors) + normal_factor.scalar_curvature()
    if abs(S) < 1e-14:
        raise ZeroScalarCurvature(f"factor sizes give S = 0 for {name!r}")
    return ModelGeometry(name, m, k, n, S, tuple(k_factors), normal_factor)


def make_model(
    name: str,
    *,
    torus_side: float = _TWO_PI,
    sphere2_radius_sq: float = 2.0,
    sphere3_radius: float = 1.0,
    sphere5_radius: float = 1.0,
    ball3_radius: float = math.pi,
) -> ModelGeometry:
    """Instantiate a built-in model by name.

    Built-ins:
      - ``torus2_x_sphere3``: T^2 x S^3, K = T^2 x {p}   (m=5, k=2, n=3)
      - ``sphere2_x_sphere3``: S^2 x S^3, K = S^2 x {p}  (m=5, k=2, n=3)
      - ``sphere2_x_ball3``: S^2 x flat ball, the exact-conformal test
        fixture (the normal metric is literally flat)
      - ``sphere5``: round S^5, K = {p}                  (m=5, k=0, n=5)
      - ``torus2_x_torus3``: always rejected (S = 0)
    """
    for f, lo in (("torus_side", torus_side), ("sphere2_radius_sq", sphere2_radius_sq),
                  ("sphere3_radius", sphere3_radius), ("sphere5_radius", sphere5_radius),
                  ("ball3_radius", ball3_radius)):
        if lo <= 0:
            raise ValueError(f"factor parameter {f} must be positive")
    if name == "torus2_x_sphere3":
        return _build_model(name, [Factor("torus", 2, torus_side)],
                            Factor("sphere", 3, sphere3_radius))
    if name == "sphere2_x_sphere3":
        return _build_model(name, [Factor("sphere", 2, math.sqrt(sphere2_radius_sq))],
                            Factor("sphere", 3, sphere3_radius))
    if name == "sphere2_x_ball3":
        return _build_model(name, [Factor("sphere", 2, math.sqrt(sphere2_radius_sq))],
                            Factor("ball", 3, ball3_radius))
    if name == "sphere5":
        return _build_model(name, [], Factor("sphere", 5, sphere5_radius))
    if name == "torus2_x_torus3":
        return _build_model(name, [Factor("torus", 2, torus_side)],
                            Factor("torus", 3, torus_side))
    if name == "torus2_x_sphere2":
        return _build_model(name, [Factor("torus", 2, torus_side)],
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
        sums = np.unique((sums[:, None] + vals[None, :]).ravel())
        sums = sums[sums <= cutoff]
    vals = model.normal_factor.spectrum(cutoff)
    sums = np.unique((sums[:, None] + vals[None, :]).ravel())
    return np.sort(sums[sums <= cutoff])


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
# Charts, transitions, metric fields
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Chart:
    """A coordinate chart with nominal and evaluable domains.

    ``lower``/``upper`` bound the nominal domain used to validate chart
    points.  ``eval_lower``/``eval_upper`` bound where the component
    formula may actually be evaluated (wider, so finite-difference
    stencils near a chart seam stay legal).  Periodic coordinates are
    unbounded.  ``step_scale``, when set, returns a per-point multiplier
    for finite-difference steps (raw Fermi charts shrink steps with the
    distance to the gluing locus).
    """

    chart_id: str
    coord_names: tuple[str, ...]
    lower: tuple[float, ...]
    upper: tuple[float, ...]
    eval_lower: tuple[float, ...]
    eval_upper: tuple[float, ...]
    periodic: tuple[bool, ...]
    step_scale: Callable[[np.ndarray], np.ndarray] | None = None

    @property
    def dim(self) -> int:
        return len(self.coord_names)


@dataclass(frozen=True)
class ChartPoint:
    chart_id: str
    coords: np.ndarray

    def __iter__(self):
        yield self.chart_id
        yield self.coords


@dataclass(frozen=True)
class Transition:
    """Coordinate change between two charts with its analytic jacobian."""

    source: str
    target: str
    map: Callable[[np.ndarray], np.ndarray]
    jacobian: Callable[[np.ndarray], np.ndarray]  # d(target)/d(source)


@dataclass(frozen=True)
class MetricField:
    """Chart atlas plus a vectorized metric-component callback.

    ``components(chart_id, coords)`` accepts coordinates of shape
    ``(..., m)`` and returns component matrices of shape ``(..., m, m)``.
    The callback is pure; fields are immutable and safe to share across
    threads.
    """

    dim: int
    charts: tuple[Chart, ...]
    component_fn: Callable[[str, np.ndarray], np.ndarray]
    transitions: Mapping[tuple[str, str], Transition] = field(default_factory=dict)
    meta: Mapping = field(default_factory=dict)

    def chart(self, chart_id: str) -> Chart:
        for c in self.charts:
            if c.chart_id == chart_id:
                return c
        raise OutOfChart(f"no chart {chart_id!r} in atlas")

    def point(self, chart_id: str, coords) -> ChartPoint:
        """Validate coordinates against the nominal chart domain."""
        c = self.chart(chart_id)
        x = np.asarray(coords, dtype=float)
        if x.shape[-1] != self.dim:
            raise OutOfChart(f"expected {self.dim} coordinates, got {x.shape[-1]}")
        lo, hi = np.asarray(c.lower), np.asarray(c.upper)
        per = np.asarray(c.periodic)
        bad = (~per) & ((x < lo) | (x > hi))
        if np.any(bad):
            i = int(np.argmax(np.any(bad.reshape(-1, self.dim), axis=0)))
            raise OutOfChart(
                f"coordinate {c.coord_names[i]!r} out of chart {chart_id!r} domain"
            )
        return ChartPoint(chart_id, x)

    def components(self, chart_id: str, coords, check: bool = True) -> np.ndarray:
        x = np.asarray(coords, dtype=float)
        if check:
            c = self.chart(chart_id)
            lo, hi = np.asarray(c.eval_lower), np.asarray(c.eval_upper)
            per = np.asarray(c.periodic)
            bad = (~per) & ((x < lo) | (x > hi))
            if np.any(bad):
                raise OutOfChart(
                    f"evaluation outside valid region of chart {chart_id!r}"
                )
        return self.component_fn(chart_id, x)

    def at(self, point: ChartPoint) -> np.ndarray:
        return self.components(point.chart_id, point.coords)

    def pull_components(self, source: str, target: str, coords) -> np.ndarray:
        """Components in `source` coordinates computed through `target`.

        Uses g_src = J^T g_tgt(phi(x)) J with the registered transition.
        """
        tr = self.transitions[(source, target)]
        x = np.asarray(coords, dtype=float)
        y = tr.map(x)
        J = tr.jacobian(x)
        g = self.components(target, y)
        return np.einsum("...ai,...ab,...bj->...ij", J, g, J)


# ---------------------------------------------------------------------------
# Polar-coordinate helpers
# ---------------------------------------------------------------------------


def sphere_polar_diag(theta: np.ndarray, radius: float = 1.0) -> np.ndarray:
    """Diagonal of the round-sphere polar metric for angles (..., d-1)."""
    theta = np.asarray(theta, dtype=float)
    out = np.ones(theta.shape)
    if theta.shape[-1] > 1:
        out[..., 1:] = np.cumprod(np.sin(theta[..., :-1]) ** 2, axis=-1)
    return radius**2 * out


def sphere_embed(theta: np.ndarray) -> np.ndarray:
    """Unit vector in R^d for polar angles (..., d-1)."""
    theta = np.asarray(theta, dtype=float)
    d1 = theta.shape[-1]
    out = np.empty(theta.shape[:-1] + (d1 + 1,))
    sines = np.ones(theta.shape[:-1])
    for i in range(d1):
        out[..., i] = sines * np.cos(theta[..., i])
        sines = sines * np.sin(theta[..., i])
    out[..., d1] = sines
    return out


def sphere_embed_jacobian(theta: np.ndarray) -> np.ndarray:
    """d(embedding)/d(theta), shape (..., d, d-1)."""
    theta = np.asarray(theta, dtype=float)
    d1 = theta.shape[-1]
    h = np.zeros(theta.shape[:-1] + (d1 + 1, d1))
    for j in range(d1):
        t = theta.copy()
        # analytic derivative: rotate theta_j by pi/2 in its own factor
        pre = np.ones(theta.shape[:-1])
        for i in range(j):
            pre = pre * np.sin(theta[..., i])
        # components i >= j of the embedding depend on theta_j
        sines = pre.copy()
        # i == j: pre * (-sin theta_j)
        h[..., j, j] = -pre * np.sin(theta[..., j])
        sines = pre * np.cos(theta[..., j])
        for i in range(j + 1, d1):
            h[..., i, j] = sines * np.cos(theta[..., i])
            sines = sines * np.sin(theta[..., i])
        h[..., d1, j] = sines
    return h


def _normal_angular_profile(factor: Factor, r: np.ndarray) -> np.ndarray:
    """Coefficient q(r) with normal block dr^2 + r^2 q(r) g_{S^{n-1}}."""
    r = np.asarray(r, dtype=float)
    if factor.kind == "sphere":
        # (rho sin(r/rho) / r)^2 via sinc, finite at the axis r = 0
        return np.sinc(r / (factor.size * math.pi)) ** 2
    if factor.kind == "ball":
        return np.ones_like(r)
    raise ValueError(f"unsupported normal factor kind {factor.kind!r}")


def _k_block(model: ModelGeometry, z: np.ndarray) -> np.ndarray:
    """Metric of the K factors at z, shape (..., k, k)."""
    k = model.k
    out = np.zeros(z.shape[:-1] + (k, k))
    i = 0
    for f in model.k_factors:
        if f.kind == "torus":
            for j in range(f.dim):
                out[..., i + j, i + j] = 1.0
        elif f.kind == "sphere":
            ang = z[..., i:i + f.dim - 1]
            diag = sphere_polar_diag(ang, f.size)
            for j in range(f.dim - 1):
                out[..., i + j, i + j] = diag[..., j]
            out[..., i + f.dim - 1, i + f.dim - 1] = (
                f.size**2 * np.prod(np.sin(ang) ** 2, axis=-1)
            )
        else:
            raise ValueError(f"unsupported K factor kind {f.kind!r}")
        i += f.dim
    return out


def product_components(model: ModelGeometry, coords: np.ndarray, a, b,
                       raw: bool = False) -> np.ndarray:
    """Components of g_K(z) + (normal block) at coords, shape (..., m, m).

    Polar charts (z..., rho, theta...) get the normal block
    a drho^2 + b g_{S^{n-1}}; raw Fermi charts (z..., x) get
    a xhat xhat^T + b (I - xhat xhat^T).  ``a`` and ``b`` broadcast
    against the point shape.  The summand, glued and synthetic metrics
    are all of this form and differ only in (a, b).
    """
    k, m = model.k, model.m
    out = np.zeros(coords.shape[:-1] + (m, m))
    out[..., :k, :k] = _k_block(model, coords[..., :k])
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    if raw:
        x = coords[..., k:]
        xhat = x / np.linalg.norm(x, axis=-1)[..., None]
        proj = np.einsum("...a,...b->...ab", xhat, xhat)
        out[..., k:, k:] = (b[..., None, None] * (np.eye(model.n) - proj)
                            + a[..., None, None] * proj)
        return out
    out[..., k, k] = a
    diag = sphere_polar_diag(coords[..., k + 1:]) * b[..., None]
    for j in range(model.n - 1):
        out[..., k + 1 + j, k + 1 + j] = diag[..., j]
    return out


def k_laplacian_metric(model: ModelGeometry) -> "MetricField":
    """The K factors alone as a metric field (used by probe operators)."""
    k = model.k
    names = tuple(f"z{i + 1}" for i in range(k))
    lo, hi, elo, ehi, per = _k_coord_bounds(model)
    chart = Chart("k-factor", names, lo, hi, elo, ehi, per)

    def comps(chart_id, z):
        return _k_block(model, z)

    return MetricField(k, (chart,), comps)


def _k_coord_bounds(model):
    lo, hi, elo, ehi, per = [], [], [], [], []
    for f in model.k_factors:
        if f.kind == "torus":
            for _ in range(f.dim):
                lo.append(-np.inf); hi.append(np.inf)
                elo.append(-np.inf); ehi.append(np.inf)
                per.append(True)
        else:  # sphere: polar angles then azimuth
            for j in range(f.dim - 1):
                lo.append(0.0); hi.append(math.pi)
                elo.append(AXIS_MARGIN); ehi.append(math.pi - AXIS_MARGIN)
                per.append(False)
            lo.append(-np.inf); hi.append(np.inf)
            elo.append(-np.inf); ehi.append(np.inf)
            per.append(True)
    return tuple(lo), tuple(hi), tuple(elo), tuple(ehi), tuple(per)


def _theta_coord_bounds(n):
    lo, hi, elo, ehi, per = [], [], [], [], []
    for j in range(n - 2):
        lo.append(0.0); hi.append(math.pi)
        elo.append(AXIS_MARGIN); ehi.append(math.pi - AXIS_MARGIN)
        per.append(False)
    lo.append(-np.inf); hi.append(np.inf)
    elo.append(-np.inf); ehi.append(np.inf)
    per.append(True)
    return lo, hi, elo, ehi, per


def flat_metric(dim: int, half_width: float = 10.0) -> MetricField:
    """Euclidean metric on a cube chart, mostly for oracle tests."""
    names = tuple(f"x{i + 1}" for i in range(dim))
    b = (half_width,) * dim
    chart = Chart("flat", names, tuple(-v for v in b), b,
                  tuple(-v for v in b), b, (False,) * dim)

    def comps(chart_id, x):
        out = np.zeros(x.shape[:-1] + (dim, dim))
        idx = np.arange(dim)
        out[..., idx, idx] = 1.0
        return out

    return MetricField(dim, (chart,), comps)


def fermi_metric(model: ModelGeometry, side: int = 1) -> MetricField:
    """Exact summand metric in Fermi coordinates around K x {pole}.

    Charts: ``cap-<side>`` with coordinates (z..., r, theta...) in
    warped-polar form (tangential block g_K exactly, normal block
    dr^2 + rho^2 sin^2(r/rho) g_{S^{n-1}}, vanishing cross block), and
    ``raw-fermi-<side>`` with normal exponential coordinates (z..., x).
    """
    if side not in (1, 2):
        raise ValueError("side must be 1 or 2")
    m, k, n = model.m, model.k, model.n
    r_max = model.r_max
    cap_id = f"cap-{side}"
    raw_id = f"raw-fermi-{side}"

    z_lo, z_hi, z_elo, z_ehi, z_per = _k_coord_bounds(model)
    t_lo, t_hi, t_elo, t_ehi, t_per = _theta_coord_bounds(n)
    z_names = tuple(f"z{i + 1}" for i in range(k))
    th_names = tuple(f"theta{i + 1}" for i in range(n - 1))

    cap = Chart(
        cap_id, z_names + ("r",) + th_names,
        z_lo + (1.0,) + tuple(t_lo), z_hi + (r_max,) + tuple(t_hi),
        z_elo + (AXIS_MARGIN,) + tuple(t_elo),
        z_ehi + (r_max - AXIS_MARGIN,) + tuple(t_ehi),
        z_per + (False,) + tuple(t_per),
    )
    x_names = tuple(f"x{i + 1}" for i in range(n))
    raw = Chart(
        raw_id, z_names + x_names,
        z_lo + (-r_max,) * n, z_hi + (r_max,) * n,
        z_elo + (-r_max + AXIS_MARGIN,) * n, z_ehi + (r_max - AXIS_MARGIN,) * n,
        z_per + (False,) * n,
        step_scale=lambda pts: np.linalg.norm(pts[..., k:], axis=-1),
    )

    def comps(chart_id, c):
        if chart_id == cap_id:
            r = c[..., k]
            q = _normal_angular_profile(model.normal_factor, r)
            return product_components(model, c, 1.0, r**2 * q)
        if chart_id == raw_id:
            q = _normal_angular_profile(model.normal_factor,
                                        np.linalg.norm(c[..., k:], axis=-1))
            return product_components(model, c, 1.0, q, raw=True)
        raise OutOfChart(f"no chart {chart_id!r} in this field")

    def cap_to_raw(c):
        z, r, theta = c[..., :k], c[..., k], c[..., k + 1:]
        return np.concatenate([z, r[..., None] * sphere_embed(theta)], axis=-1)

    def cap_to_raw_jac(c):
        r, theta = c[..., k], c[..., k + 1:]
        J = np.zeros(c.shape[:-1] + (m, m))
        ii = np.arange(k)
        J[..., ii, ii] = 1.0
        nh = sphere_embed(theta)
        J[..., k:, k] = nh
        J[..., k:, k + 1:] = r[..., None, None] * sphere_embed_jacobian(theta)
        return J

    transitions = {
        (cap_id, raw_id): Transition(cap_id, raw_id, cap_to_raw, cap_to_raw_jac),
    }
    return MetricField(m, (cap, raw), comps, transitions,
                       meta={"model": model, "side": side})


def is_spd(matrix: np.ndarray) -> bool:
    """Cholesky-based symmetric positive definiteness test."""
    if not np.allclose(matrix, np.swapaxes(matrix, -1, -2), rtol=0, atol=1e-12):
        return False
    try:
        np.linalg.cholesky(matrix)
        return True
    except np.linalg.LinAlgError:
        return False
