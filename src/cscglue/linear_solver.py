"""Symmetry-reduced discretization of the linearized operator.

Every admissible glued metric is g_K + U(s) [ds^2 + q(s) g_{S^{n-1}}],
U = u^{4/(n-2)}, along one global cylindrical coordinate s (the caps
continue r = eps e^{-+s} beyond the seams), so L = Delta + S/(m-1) on
functions of s is 1-D.  Grid weights, neck scalar curvature and the 1-D
Laplacian come in closed form from the profile callback s -> (u, q) and
its exact jets (``gluing.glued_warp``, ``gluing.Jet``); no metric
components are sampled.

The discretization is conservative (flux form)
    (L u)_i = [K_{i+1/2} (u_{i+1}-u_i)/h_i - K_{i-1/2} (u_i-u_{i-1})/h_{i-1}] / V_i
              + c_i u_i
with K = W g^{ss} at midpoints, V the (integrated) dual-cell orbit
volumes, and zero-flux closure at the poles, which preserves discrete
self-adjointness in the V-weighted inner product and the maximum
principle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import eigh_tridiagonal, solve_banded

# scalar_curvature and glued_metric are not called here, but
# bench/spans.py wraps them by name
from .curvature import scalar_curvature  # noqa: F401
from .errors import NearSingularOperator, NoConvergence
from .geometry import (
    ModelGeometry,
    THETA_SAMPLE,
    Z_SAMPLE_SPHERE2,
    Z_SAMPLE_TORUS,
    normal_radius,
    product_components,
)
from .gluing import GluingConfig, Jet, glued_metric, glued_warp, psi_of_t  # noqa: F401

_GAUSS4_NODES = np.array([-0.8611363115940526, -0.3399810435848563,
                          0.3399810435848563, 0.8611363115940526])
_GAUSS4_WEIGHTS = np.array([0.3478548451374538, 0.6521451548625461,
                            0.6521451548625461, 0.3478548451374538])

MIN_ABS_EIG = 1e-8
MAX_REFINE = 2
ROUNDING_ULPS = 64  # rounding bars: this many eps_mach of the summed term sizes


def _z_sample(model: ModelGeometry) -> tuple:
    if model.k == 0:
        return ()
    if model.k_factors[0].kind == "sphere":
        return Z_SAMPLE_SPHERE2[: model.k]
    return Z_SAMPLE_TORUS[: model.k]


def _theta_sample(n: int) -> tuple:
    return tuple((list(THETA_SAMPLE) + [0.9, 1.2])[: n - 1])


@dataclass
class RadialGrid:
    """Composite 1-D mesh along the global cylindrical coordinate.

    ``W`` are per-node orbit volume weights (sqrt(det g) at the sample
    orbit, up to one global constant), ``A`` the radial inverse-metric
    coefficient g^{ss}, ``K_half`` the flux coefficients W*A at
    midpoints, ``V`` dual-cell volumes.  ``region`` is -1/0/+1 for
    cap-1/neck/cap-2, ``pole`` flags orbit collapse at the two ends,
    and ``interfaces`` records dr/dt at the two chart seams.
    """

    s: np.ndarray
    h: np.ndarray
    W: np.ndarray
    A: np.ndarray
    K_half: np.ndarray
    V: np.ndarray
    region: np.ndarray
    pole: tuple[bool, bool]
    interfaces: dict
    cfg: GluingConfig | None = None

    @property
    def size(self) -> int:
        return self.s.size

    def cap_mask(self) -> np.ndarray:
        return self.region != 0


def _segment(a: float, b: float, resolution: int) -> np.ndarray:
    nseg = max(1, int(round((b - a) * resolution)))
    return np.linspace(a, b, nseg + 1)


def laplacian_coefficients(warp, n: int, t):
    """(A, b) with Delta f = A (f'' + b f') for f = f(t) on the neck metric.

    On g_K + U [dt^2 + q g_{S^{n-1}}], U = u^{4/(n-2)}, the orbit volume
    is W ~ U^{n/2} q^{(n-1)/2} and g^{tt} = A = 1/U, so
    Delta f = (1/W)(W A f')' = A (f'' + (2 u'/u + (n-1) q'/(2q)) f').
    """
    u, q = map(Jet.lift, warp(Jet.variable(t)))  # jets of (u, q); q may be 1
    return u.v ** (-4.0 / (n - 2)), 2.0 * u.d / u.v + (n - 1) * q.d / (2.0 * q.v)


def _radial_grid(model: ModelGeometry, warp, s, region, interfaces,
                 cfg) -> RadialGrid:
    """RadialGrid of g_K + U [ds^2 + q g_{S^{n-1}}] from warp(|s|) = (u, q).

    In closed form, sqrt(det g) = w0 U^{n/2} q^{(n-1)/2} at the sample
    orbit, w0 being sqrt(det) of g_K + ds^2 + g_{S^{n-1}} at the sample
    (z, theta), and A = g^{ss} = 1/U with U = u^{4/(n-2)}.  The flux
    coefficient W A is taken at the cell midpoints.
    """
    n = model.n
    pt = np.array([*_z_sample(model), 0.0, *_theta_sample(n)])
    w0 = math.sqrt(np.linalg.det(product_components(model, pt, 1.0, 1.0)))

    def weights(x):
        u, q = warp(np.abs(x))
        U = u ** (4.0 / (n - 2))
        return w0 * U ** (n / 2.0) * q ** ((n - 1) / 2.0), 1.0 / U

    h = np.diff(s)
    W, A = weights(s)
    Wm, Am = weights(0.5 * (s[:-1] + s[1:]))
    V = np.empty_like(W)
    V[1:-1] = W[1:-1] * 0.5 * (h[:-1] + h[1:])
    # end cells: integrate W over the half cell so orbit collapse at a
    # pole still yields a positive volume
    for i, (s0, s1) in ((0, (s[0], s[0] + 0.5 * h[0])),
                        (W.size - 1, (s[-1] - 0.5 * h[-1], s[-1]))):
        nodes = 0.5 * (s1 - s0) * _GAUSS4_NODES + 0.5 * (s0 + s1)
        V[i] = 0.5 * (s1 - s0) * float(_GAUSS4_WEIGHTS @ weights(nodes)[0])
    wmax = float(np.max(W))
    pole = (W[0] < 1e-9 * wmax, W[-1] < 1e-9 * wmax)
    return RadialGrid(s, h, W, A, Wm * Am, V, region, pole, interfaces, cfg)


def build_grid(cfg: GluingConfig, resolution: int = 64, warp=None) -> RadialGrid:
    """The glued metric along the global cylindrical coordinate as a RadialGrid.

    ``resolution`` counts nodes per unit of the cylindrical coordinate.
    ``warp`` is the profile callback t -> (u, q), by default the glued
    metric's (``gluing.glued_warp``); it covers the caps too.  W and A
    are taken at |s|, so the grid is mirror symmetric by construction.
    """
    if resolution < 16:
        raise ValueError("resolution must be >= 16 nodes per unit t")
    warp = glued_warp(cfg) if warp is None else warp
    T = cfg.t_max

    # one uniform spacing across caps and neck: the glued metric is smooth
    # at the chart seams, and a single mesh width keeps the flux scheme
    # second order everywhere
    s_half = _segment(0.0, T + math.log(cfg.model_1.r_max), resolution)
    s = np.concatenate([-s_half[:0:-1], s_half])
    region = np.zeros(s.size, dtype=int)
    region[s <= -T] = -1
    region[s >= T] = 1
    interfaces = {
        "side_1": {"s": -T, "index": int(np.argmin(np.abs(s + T))),
                   "dr_dt": -1.0},     # dr/dt = -r with r = 1 at the seam
        "side_2": {"s": T, "index": int(np.argmin(np.abs(s - T))),
                   "dr_dt": 1.0},
    }

    return _radial_grid(cfg.model_1, warp, s, region, interfaces, cfg)


def build_grid_single(model: ModelGeometry, resolution: int = 64) -> RadialGrid:
    """Sanity-mode grid on one summand alone: radial coordinate r on (0, r_max).

    Used for discrete-versus-analytic spectrum checks; the summand is
    g_K + dr^2 + f(r)^2 g_{S^{n-1}}, i.e. u = 1 and q = f^2, so the orbit
    weight is proportional to f^{n-1}, e.g. sin^2 r for a round S^3.
    """
    if resolution < 16:
        raise ValueError("resolution must be >= 16 nodes per unit t")
    warp = lambda r: (np.ones_like(r), normal_radius(model.normal_factor, r) ** 2)
    r = _segment(0.0, model.r_max, resolution)
    return _radial_grid(model, warp, r, np.zeros(r.size, dtype=int), {}, None)


def build_flat_grid(length: float, resolution: int = 64) -> RadialGrid:
    """Toy grid with W = A = 1: the flat 1-D Laplacian with Neumann ends."""
    s = _segment(0.0, length, resolution)
    h = np.diff(s)
    W = np.ones_like(s)
    V = np.empty_like(W)
    V[1:-1] = 0.5 * (h[:-1] + h[1:])
    V[0] = 0.5 * h[0]
    V[-1] = 0.5 * h[-1]
    return RadialGrid(s, h, W, np.ones_like(s), np.ones(s.size - 1), V,
                      np.zeros(s.size, dtype=int), (False, False), {}, None)


@dataclass
class DiscreteOperator:
    """Tridiagonal form of (1/W) D(W A D .) + c, self-adjoint under V."""

    sub: np.ndarray
    diag: np.ndarray
    sup: np.ndarray
    V: np.ndarray
    potential: np.ndarray
    grid: RadialGrid | None = None
    _min_eig: float | None = field(default=None, repr=False)

    @property
    def size(self) -> int:
        return self.diag.size

    def apply(self, u: np.ndarray) -> np.ndarray:
        out = self.diag * u
        out[:-1] += self.sup * u[1:]
        out[1:] += self.sub * u[:-1]
        return out

    def asymmetry(self) -> float:
        """Max relative defect of V_i L_{i,i+1} = V_{i+1} L_{i+1,i}."""
        a = self.V[:-1] * self.sup
        b = self.V[1:] * self.sub
        return float(np.max(np.abs(a - b)) / np.max(np.abs(a)))

    def min_abs_eig(self) -> float:
        if self._min_eig is None:
            self._min_eig = smallest_eigenvalue(self)
        return self._min_eig


def assemble_L(grid: RadialGrid, scalar_profile, m: int) -> DiscreteOperator:
    """Second-order conservative operator Delta + S_profile/(m-1).

    Pole rows use the zero-flux closure; the potential is the scalar
    curvature profile divided by m-1.
    """
    c = np.broadcast_to(np.asarray(scalar_profile, dtype=float) / (m - 1),
                        grid.s.shape).copy()
    N = grid.size
    flux = grid.K_half / grid.h  # K_{i+1/2} / h_i
    sub = np.empty(N - 1)
    sup = np.empty(N - 1)
    diag = np.empty(N)
    sup[:] = flux / grid.V[:-1]
    sub[:] = flux / grid.V[1:]
    diag[0] = -flux[0] / grid.V[0]
    diag[-1] = -flux[-1] / grid.V[-1]
    diag[1:-1] = -(flux[:-1] + flux[1:]) / grid.V[1:-1]
    diag += c
    return DiscreteOperator(sub, diag, sup, grid.V, c, grid)


def _solve_raw(op: DiscreteOperator, f: np.ndarray) -> np.ndarray:
    ab = np.zeros((3, op.size))
    ab[0, 1:] = op.sup
    ab[1, :] = op.diag
    ab[2, :-1] = op.sub
    return solve_banded((1, 1), ab, f)


def solve(op: DiscreteOperator, f: np.ndarray, tol: float = 1e-12) -> np.ndarray:
    """Tridiagonal solve with up to MAX_REFINE steps of iterative refinement.

    Raises NearSingularOperator when the smallest-magnitude eigenvalue
    falls below 1e-8 (the numerical symptom of a failed injectivity
    hypothesis), and NoConvergence if the relative residual cannot be
    pushed below ``tol``.
    """
    if abs(op.min_abs_eig()) < MIN_ABS_EIG:
        raise NearSingularOperator(
            f"smallest |eigenvalue| = {op.min_abs_eig():.3e} < {MIN_ABS_EIG:g}"
        )
    f = np.asarray(f, dtype=float)
    x = _solve_raw(op, f)
    scale = float(np.max(np.abs(f)) + np.max(np.abs(op.diag)) * np.max(np.abs(x))
                  + np.finfo(float).tiny)
    for _ in range(MAX_REFINE):
        r = f - op.apply(x)
        if np.max(np.abs(r)) / scale <= tol:
            break
        x = x + _solve_raw(op, r)
    r = f - op.apply(x)
    if np.max(np.abs(r)) / scale > tol:
        raise NoConvergence("iterative refinement stalled above tolerance")
    return x


def solve_dirichlet(op: DiscreteOperator, f: np.ndarray, i0: int, i1: int,
                    left: float, right: float) -> np.ndarray:
    """Solve L v = f on nodes i0..i1 with Dirichlet values at i0 and i1.

    Returns the full window vector including the boundary nodes.
    """
    n = i1 - i0 + 1
    if n < 3:
        raise ValueError("window too small")
    sub = op.sub[i0:i1].copy()
    diag = op.diag[i0:i1 + 1].copy()
    sup = op.sup[i0:i1].copy()
    rhs = np.asarray(f, dtype=float)[i0 + 1:i1].copy()
    rhs[0] -= sub[0] * left
    rhs[-1] -= sup[-1] * right
    ab = np.zeros((3, n - 2))
    ab[0, 1:] = sup[1:-1]
    ab[1, :] = diag[1:-1]
    ab[2, :-1] = sub[1:-1]
    inner = solve_banded((1, 1), ab, rhs)
    return np.concatenate([[left], inner, [right]])


def smallest_eigenvalue(op: DiscreteOperator) -> float:
    """Smallest-magnitude eigenvalue, from LAPACK.

    The operator is self-adjoint in the V-weighted inner product, so
    V^{1/2} L V^{-1/2} is a symmetric tridiagonal matrix with the same
    spectrum; its off-diagonal is sup_i sqrt(V_i / V_{i+1}).
    """
    vals = eigh_tridiagonal(op.diag, op.sup * np.sqrt(op.V[:-1] / op.V[1:]),
                            eigvals_only=True)
    return float(vals[np.argmin(np.abs(vals))])


@dataclass
class SolveReport:
    """Diagnostics of one linear solve inside the nonlinear pipeline."""

    solution: np.ndarray
    residual: float
    min_abs_eig: float
    ratio: float | None = None
    C_prime: float | None = None
    C_second: float | None = None
    C_third: float | None = None


def neck_scalar_curvature(cfg: GluingConfig, t, warp=None):
    """Scalar curvature (S, err) of the glued metric on the neck at t.

    The neck metric is g_K + u^{4/(n-2)} h with h = dt^2 + w^2 g_{S^{n-1}},
    w = sqrt(q), so S = S_K + S_N with the conformal law in dimension n
        S_N = u^{-(n+2)/(n-2)} (S_h u - 4(n-1)/(n-2) Delta_h u),
        S_h = -2(n-1) w''/w + (n-1)(n-2) (1 - w'^2)/w^2,
        Delta_h u = u'' + (n-1) (w'/w) u',
    on exact jets of (u, q) from ``warp`` (the glued metric's by default).
    The error bar is a rounding bound, ROUNDING_ULPS eps_mach times |S|
    plus the sizes of the terms, whose 1/U-sized parts cancel to O(1).
    """
    warp = glued_warp(cfg) if warp is None else warp
    n = cfg.n
    u, q = map(Jet.lift, warp(Jet.variable(t)))  # jets of (u, q); q may be 1
    w = np.sqrt(q)
    S_K = sum(f.scalar_curvature() for f in cfg.model_1.k_factors)
    S_h = (-2 * (n - 1) * w.dd / w.v, (n - 1) * (n - 2) / w.v**2,
           -(n - 1) * (n - 2) * (w.d / w.v) ** 2)
    lap = (u.dd, (n - 1) * w.d / w.v * u.d)
    kappa = 4.0 * (n - 1) / (n - 2)
    scale = u.v ** (-(n + 2.0) / (n - 2))
    S = S_K + scale * (sum(S_h) * u.v - kappa * sum(lap))
    mag = (abs(S_K) + scale * (sum(np.abs(x) for x in S_h) * u.v
                               + kappa * sum(np.abs(x) for x in lap)))
    return S, ROUNDING_ULPS * np.finfo(float).eps * (np.abs(S) + mag)


def glued_curvature_profile(cfg: GluingConfig, grid: RadialGrid, warp=None):
    """Scalar curvature of the glued metric at the grid nodes.

    Cap nodes carry the exact constant S of the summands; neck nodes take
    neck_scalar_curvature at |s|, so the profile is mirror symmetric by
    construction.  Returns (profile, error bar).
    """
    prof = np.full(grid.s.shape, cfg.S, dtype=float)
    err = np.zeros_like(prof)
    inner = np.abs(grid.s) < cfg.t_max - 1e-12
    prof[inner], err[inner] = neck_scalar_curvature(
        cfg, np.abs(grid.s[inner]), warp)
    return prof, err


def weighted_sup(v: np.ndarray, psi: np.ndarray, exponent: float) -> float:
    return float(np.max(psi**exponent * np.abs(v)))


@dataclass
class EstimateReport:
    """Global weighted-estimate diagnostics for a batch of sources."""

    ratio: float
    per_probe: list
    min_abs_eig: float


def global_estimate_ratio(cfg: GluingConfig, probes=None, resolution: int = 64,
                          grid: RadialGrid | None = None,
                          op: DiscreteOperator | None = None,
                          profile: np.ndarray | None = None) -> EstimateReport:
    """Empirical constant in sup|psi^{(n-2)/2-d} v| <= C sup|psi^{(n+2)/2-d} f|.

    Default probe is the conformal source c_m (S - S_glued); boundedness
    of the ratio uniformly in eps is the content of the global weighted
    a priori estimate.
    """
    if grid is None:
        grid = build_grid(cfg, resolution)
    if profile is None:
        profile, _ = glued_curvature_profile(cfg, grid)
    if op is None:
        op = assemble_L(grid, profile, cfg.m)
    n, delta = cfg.n, cfg.delta
    psi = psi_of_t(grid.s, cfg)
    lo = (n - 2) / 2.0 - delta
    hi = (n + 2) / 2.0 - delta
    if probes is None:
        c_m = -(cfg.m - 2) / (4.0 * (cfg.m - 1))
        probes = [c_m * (cfg.S - profile)]
    out = []
    for f in probes:
        v = solve(op, f)
        num = weighted_sup(v, psi, lo)
        den = weighted_sup(f, psi, hi)
        out.append(num / den)
    return EstimateReport(max(out), out, op.min_abs_eig())
