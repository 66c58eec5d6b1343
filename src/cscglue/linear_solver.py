"""Symmetry-reduced discretization of the linearized operator.

Built-in glued manifolds are invariant under the isometry group fixing
the gluing locus (torus translations / K-sphere rotations, and rotations
of the normal sphere about the base point), so the linearized operator
L = Delta + S/(m-1) restricted to invariant functions is a 1-D operator
along a single global cylindrical coordinate s: caps are reached by
continuing the neck change of variables r = eps e^{-+s} beyond the
seams.

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
from functools import partial

import numpy as np
from scipy.linalg import eigh_tridiagonal, solve_banded

from .curvature import DerivativeScheme, scalar_curvature
from .errors import NearSingularOperator, NoConvergence, NonSymmetricModel
from .geometry import (
    MetricField,
    ModelGeometry,
    THETA_SAMPLE,
    Z_SAMPLE_SPHERE2,
    Z_SAMPLE_TORUS,
    fermi_metric,
)
from .gluing import GluingConfig, glued_metric, psi_of_t

_GAUSS4_NODES = np.array([-0.8611363115940526, -0.3399810435848563,
                          0.3399810435848563, 0.8611363115940526])
_GAUSS4_WEIGHTS = np.array([0.3478548451374538, 0.6521451548625461,
                            0.6521451548625461, 0.3478548451374538])

SYMMETRY_TOL = 1e-8
MIN_ABS_EIG = 1e-8
MAX_REFINE = 2


def _z_sample(model: ModelGeometry) -> tuple:
    if model.k == 0:
        return ()
    if model.k_factors[0].kind == "sphere":
        return Z_SAMPLE_SPHERE2[: model.k]
    return Z_SAMPLE_TORUS[: model.k]


def _theta_sample(n: int, theta1: float | None = None) -> tuple:
    th = list(THETA_SAMPLE) + [0.9, 1.2]
    out = th[: n - 1]
    if theta1 is not None:
        out[0] = theta1
    return tuple(out)


@dataclass
class RadialGrid:
    """Composite 1-D mesh along the global cylindrical coordinate.

    ``W`` are per-node orbit volume weights (sqrt(det g) at the sample
    orbit, up to one global constant), ``A`` the radial inverse-metric
    coefficient g^{ss}, ``K_half`` the flux coefficients W*A at
    midpoints, ``V`` dual-cell volumes.  ``region`` is -1/0/+1 for
    cap-1/neck/cap-2, ``pole`` flags orbit collapse at the two ends,
    and ``jacobians`` records dr/dt at the two chart interfaces.
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

    def neck_mask(self) -> np.ndarray:
        return self.region == 0

    def cap_mask(self) -> np.ndarray:
        return self.region != 0


def _segment(a: float, b: float, resolution: int) -> np.ndarray:
    nseg = max(1, int(round((b - a) * resolution)))
    return np.linspace(a, b, nseg + 1)


def _sample_line(field: MetricField, chart_id: str, model: ModelGeometry,
                 s: np.ndarray, theta1: float | None = None):
    """W = sqrt(det g) and A = g^{ss} along a fixed (z, theta) radial line."""
    k, m = model.k, model.m
    pts = np.zeros((s.size, m))
    pts[:, :k] = _z_sample(model)
    pts[:, k] = s
    pts[:, k + 1:] = _theta_sample(model.n, theta1)
    g = field.components(chart_id, pts, check=False)
    W = np.sqrt(np.abs(np.linalg.det(g)))
    # g^{ss}: poles make the full inverse singular, but the s-row is
    # block-separated for every admissible field, so 1/g_ss is exact.
    A = 1.0 / g[:, k, k]
    return W, A


def _asymmetric(a: np.ndarray, b: np.ndarray) -> bool:
    """True when a and b differ by more than SYMMETRY_TOL relative to b.

    Relative, because W spans many decades along the neck: W/W[0] grows
    like eps^-3 towards the seams.
    """
    return bool(np.any(np.abs(a - b) > SYMMETRY_TOL * np.abs(b)))


def _check_orbit_symmetry(sample, s_test):
    base = None
    for theta1 in (0.62, 1.18, 2.05):
        W, A = sample(s_test, theta1)
        prof = np.concatenate([W / W[0], A / A[0]])
        if base is None:
            base = prof
        elif _asymmetric(prof, base):
            raise NonSymmetricModel(
                "metric is not invariant along the symmetry orbits"
            )


def _radial_grid(s, W, A, K_half, sample, region, interfaces,
                 cfg) -> RadialGrid:
    """RadialGrid with dual-cell volumes V and pole flags from the weights W."""
    h = np.diff(s)
    V = np.empty_like(W)
    V[1:-1] = W[1:-1] * 0.5 * (h[:-1] + h[1:])
    # end cells: integrate W over the half cell so orbit collapse at a
    # pole still yields a positive volume
    for i, (s0, s1) in ((0, (s[0], s[0] + 0.5 * h[0])),
                        (W.size - 1, (s[-1] - 0.5 * h[-1], s[-1]))):
        nodes = 0.5 * (s1 - s0) * _GAUSS4_NODES + 0.5 * (s0 + s1)
        Wq, _ = sample(nodes)
        V[i] = 0.5 * (s1 - s0) * float(_GAUSS4_WEIGHTS @ Wq)
    wmax = float(np.max(W))
    pole = (W[0] < 1e-9 * wmax, W[-1] < 1e-9 * wmax)
    return RadialGrid(s, h, W, A, K_half, V, region, pole, interfaces, cfg)


def build_grid(cfg: GluingConfig, resolution: int = 64,
               field: MetricField | None = None) -> RadialGrid:
    """Sample the glued metric along a radial line into a RadialGrid.

    ``resolution`` counts nodes per unit of the cylindrical coordinate.
    The mesh is built on the nonnegative half and mirrored, so identical
    summands produce bitwise mirror-symmetric grids.
    """
    if resolution < 16:
        raise ValueError("resolution must be >= 16 nodes per unit t")
    field = glued_metric(cfg) if field is None else field
    sample = partial(_sample_line, field, "neck", cfg.model_1)
    T = cfg.t_max
    cap_len = math.log(cfg.model_1.r_max)

    # one uniform spacing across caps and neck: the glued metric is smooth
    # at the chart seams, and a single mesh width keeps the flux scheme
    # second order everywhere
    s_half = _segment(0.0, T + cap_len, resolution)
    s = np.concatenate([-s_half[:0:-1], s_half])

    _check_orbit_symmetry(sample, np.linspace(0.0, T + 0.5 * cap_len, 7))

    W_half, A_half = sample(s_half)
    Wm_half, Am_half = sample(0.5 * (s_half[:-1] + s_half[1:]))

    # verify mirror symmetry of the actual field before exploiting it
    W_neg, A_neg = sample(-s_half[1:8])
    if _asymmetric(W_neg, W_half[1:8]) or _asymmetric(A_neg, A_half[1:8]):
        raise NonSymmetricModel("metric is not mirror symmetric across the neck")

    W = np.concatenate([W_half[:0:-1], W_half])
    A = np.concatenate([A_half[:0:-1], A_half])
    K_half = np.concatenate([(Wm_half * Am_half)[::-1], Wm_half * Am_half])
    region = np.zeros(s.size, dtype=int)
    region[s <= -T] = -1
    region[s >= T] = 1
    interfaces = {
        "side_1": {"s": -T, "index": int(np.argmin(np.abs(s + T))),
                   "dr_dt": -1.0},     # dr/dt = -r with r = 1 at the seam
        "side_2": {"s": T, "index": int(np.argmin(np.abs(s - T))),
                   "dr_dt": 1.0},
    }
    return _radial_grid(s, W, A, K_half, sample, region, interfaces, cfg)


def build_grid_single(model: ModelGeometry, resolution: int = 64) -> RadialGrid:
    """Sanity-mode grid on one summand alone: radial coordinate r on (0, r_max).

    Used for discrete-versus-analytic spectrum checks; the orbit weight
    is sqrt(det g) of the exact summand metric, e.g. proportional to
    sin^2 r for a round S^3 normal factor.
    """
    if resolution < 16:
        raise ValueError("resolution must be >= 16 nodes per unit t")
    sample = partial(_sample_line, fermi_metric(model), "cap-1", model)
    r = _segment(0.0, model.r_max, resolution)
    W, A = sample(r)
    Wm, Am = sample(0.5 * (r[:-1] + r[1:]))
    return _radial_grid(r, W, A, Wm * Am, sample, np.zeros(r.size, dtype=int),
                        {}, None)


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


def glued_curvature_profile(cfg: GluingConfig, grid: RadialGrid,
                            field: MetricField | None = None,
                            scheme: DerivativeScheme | None = None):
    """Scalar curvature of the glued metric at the grid nodes.

    Cap nodes carry the exact constant S of the summands; neck nodes are
    measured with the finite-difference engine at the sample orbit and
    mirrored (the built-in construction is mirror symmetric).  Returns
    (profile, fd_error).
    """
    field = glued_metric(cfg) if field is None else field
    scheme = scheme or DerivativeScheme()
    k, m = cfg.k, cfg.m
    T = cfg.t_max
    s = grid.s
    prof = np.full(s.shape, cfg.S, dtype=float)
    err = np.zeros_like(prof)
    inner = np.abs(s) < T - 1e-12
    s_in = s[inner]
    pos = s_in >= 0.0
    su = np.unique(np.abs(s_in))
    pts = np.zeros((su.size, m))
    pts[:, :k] = _z_sample(cfg.model_1)
    pts[:, k] = su
    pts[:, k + 1:] = _theta_sample(cfg.n)
    S_half, E_half = scalar_curvature(field, ("neck", pts), scheme)
    lookup = {float(t): (float(v), float(e))
              for t, v, e in zip(su, S_half, E_half)}
    vals = np.array([lookup[abs(float(t))] for t in s_in])
    prof[inner] = vals[:, 0]
    err[inner] = vals[:, 1]
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
