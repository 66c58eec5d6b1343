"""Symmetry-reduced discretization of the linearized operator.

Every admissible glued metric is g_K + U(s) [ds^2 + q(s) g_{S^{n-1}}],
U = u^{4/(n-2)}, along one global cylindrical coordinate s (the caps
continue r = eps e^{-+s} beyond the seams), so L = Delta + S/(m-1) on
functions of s is 1-D.  Grid weights, neck scalar curvature and the 1-D
Laplacian come in closed form from the config's profile callback
s -> (u, q) and its exact closed-form jets (``GluingConfig.warp``,
``GluingConfig.warp_jets``);
no metric components are sampled.  The orbit volume is taken as
W = U^{n/2} q^{(n-1)/2}: the constant volume factor of g_K and
g_{S^{n-1}} scales W and the fluxes alike and cancels from L.

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
from dataclasses import dataclass
from functools import cached_property

import numpy as np

# scalar_curvature and glued_metric are not called here, but
# bench/spans.py wraps them by name
from .curvature import scalar_curvature  # noqa: F401
from .errors import NearSingularOperator, NoConvergence, OutOfFloatRange, in_double_range
from .geometry import ModelGeometry, normal_radius
from .gluing import GluingConfig, Jet, glued_metric, psi_of_t  # noqa: F401
from .lapack import TridiagonalLU, eigenvalues_between

_GAUSS4_NODES = np.array([-0.8611363115940526, -0.3399810435848563,
                          0.3399810435848563, 0.8611363115940526])
_GAUSS4_WEIGHTS = np.array([0.3478548451374538, 0.6521451548625461,
                            0.6521451548625461, 0.3478548451374538])

MIN_ABS_EIG = 1e-8
MIN_RESOLUTION = 16  # least grid nodes per unit of the radial coordinate
RESIDUAL_TOL = 1e-12  # relative residual a solve must reach
ROUNDING_ULPS = 64  # rounding bars: this many eps_mach of the summed term sizes


@dataclass
class RadialGrid:
    """Uniform 1-D mesh along the global cylindrical coordinate.

    ``h`` is np.diff(s), the one mesh width per cell.  ``K_half``
    are the flux coefficients W g^{ss} at midpoints and ``V`` the dual-cell
    volumes, W = U^{n/2} q^{(n-1)/2} being the orbit volume weight
    (sqrt(det g) up to one global constant).  ``cap`` marks the nodes on
    either summand's cap, where the metric is exactly the summand's.
    """

    s: np.ndarray
    K_half: np.ndarray
    V: np.ndarray
    cap: np.ndarray

    @property
    def size(self) -> int:
        return self.s.size

    @property
    def h(self) -> np.ndarray:
        return np.diff(self.s)


def _segment(a: float, b: float, resolution: int) -> np.ndarray:
    if resolution < MIN_RESOLUTION:
        raise ValueError(f"resolution must be >= {MIN_RESOLUTION} nodes per unit t")
    nseg = max(1, int(round((b - a) * resolution)))
    return np.linspace(a, b, nseg + 1)


def laplacian_coefficients(cfg: GluingConfig, u: Jet, q: Jet):
    """(A, b) with Delta f = A (f'' + b f') for f = f(t) on the metric of cfg.

    ``u`` and ``q`` are the profile jets ``cfg.warp_jets(t)``.  On
    g_K + U [dt^2 + q g_{S^{n-1}}], U = u^{4/(n-2)}, the orbit volume
    is W ~ U^{n/2} q^{(n-1)/2} and g^{tt} = A = 1/U, so
    Delta f = (1/W)(W A f')' = A (f'' + (2 u'/u + (n-1) q'/(2q)) f').
    """
    n = cfg.n
    return u.v ** (-4.0 / (n - 2)), 2.0 * u.d / u.v + (n - 1) * q.d / (2.0 * q.v)


def _on_mirror_pairs(f, x):
    """f(x) for an elementwise function f of |x|, as a tuple of arrays.

    When x = -x[::-1], f runs on the half x[x.size // 2:] alone and the
    other half is its mirror image, bitwise what f gives there.
    """
    if not np.array_equal(x, -x[::-1]):
        return f(x)
    odd = x.size % 2  # the middle node of an odd x is its own mirror
    return tuple(np.concatenate([a[odd:][::-1], a]) for a in f(x[x.size // 2:]))


def _radial_grid(n: int, warp, s, cap) -> RadialGrid:
    """RadialGrid of g_K + U [ds^2 + q g_{S^{n-1}}] from warp(|s|) = (u, q).

    In closed form, sqrt(det g) is W = U^{n/2} q^{(n-1)/2} up to one
    global constant, which cancels from L, and A = g^{ss} = 1/U with
    U = u^{4/(n-2)}.  The flux coefficient W A is taken at the cell
    midpoints.  On a mirror-symmetric s, as ``build_grid`` makes it, the
    nodes, the midpoints and the end cells' quadrature nodes come in
    mirror pairs, and warp runs once per pair.
    """

    def weights(x):
        u, q = warp(np.abs(x))
        U = u ** (4.0 / (n - 2))
        return U ** (n / 2.0) * q ** ((n - 1) / 2.0), 1.0 / U

    h = np.diff(s)
    W = _on_mirror_pairs(weights, s)[0]
    Wm, Am = _on_mirror_pairs(weights, 0.5 * (s[:-1] + s[1:]))
    V = np.empty_like(W)
    V[1:-1] = W[1:-1] * 0.5 * (h[:-1] + h[1:])
    # end cells: integrate W over the half cell so orbit collapse at a
    # pole still yields a positive volume
    ends = ((s[0], s[0] + 0.5 * h[0]), (s[-1] - 0.5 * h[-1], s[-1]))
    nodes = [0.5 * (s1 - s0) * _GAUSS4_NODES + 0.5 * (s0 + s1) for s0, s1 in ends]
    W_ends = _on_mirror_pairs(weights, np.concatenate(nodes))[0]
    for i, (s0, s1), Wq in zip((0, -1), ends, np.split(W_ends, 2)):
        V[i] = 0.5 * (s1 - s0) * float(_GAUSS4_WEIGHTS @ Wq)
    return RadialGrid(s, Wm * Am, V, cap)


def build_grid(cfg: GluingConfig, resolution: int) -> RadialGrid:
    """The metric of cfg along the global cylindrical coordinate as a RadialGrid.

    ``resolution`` counts nodes per unit of the cylindrical coordinate.
    K_half and V come from ``cfg.warp``, which covers the caps too, taken at
    |s|, so the grid is mirror symmetric by construction.  ``cap`` is
    |s| >= t_max, the one seam rule of the grid and its curvature profile.
    """
    T = cfg.t_max

    # one uniform spacing across caps and neck: the glued metric is smooth at
    # the chart seams, and one mesh width keeps the flux scheme second order
    # in the interior (v's order at the poles is lower, ROADMAP item 22)
    s_half = _segment(0.0, T + math.log(cfg.model_1.r_max), resolution)
    s = np.concatenate([-s_half[:0:-1], s_half])
    # from eps of about 1e-160, 1/U overflows and, as eps e^{-+s} underflows, q is 0/0
    with in_double_range("grid volumes", cfg.eps):
        grid = _radial_grid(cfg.n, cfg.warp, s, np.abs(s) >= T)
    # assemble_L divides by V; W is about 2^{2n/(n-2)} eps^n mid-neck, so
    # V underflows to 0, silently, from eps of about 1e-110 at n = 3
    if not (np.all(grid.V > 0.0) and np.isfinite(grid.V).all()):
        raise OutOfFloatRange(f"grid volumes leave double precision at eps = {cfg.eps}")
    return grid


def build_grid_single(model: ModelGeometry, resolution: int) -> RadialGrid:
    """Sanity-mode grid on one summand alone: radial coordinate r on (0, r_max).

    Used for discrete-versus-analytic spectrum checks; the summand is
    g_K + dr^2 + f(r)^2 g_{S^{n-1}}, i.e. u = 1 and q = f^2, so the orbit
    weight is proportional to f^{n-1}, e.g. sin^2 r for a round S^3.
    """
    warp = lambda r: (np.ones_like(r), normal_radius(model.normal_factor, r) ** 2)
    r = _segment(0.0, model.r_max, resolution)
    return _radial_grid(model.n, warp, r, np.zeros(r.size, dtype=bool))


def build_flat_grid(length: float, resolution: int) -> RadialGrid:
    """Toy grid with W = g^{ss} = 1: the flat 1-D Laplacian with Neumann ends.

    It is the radial grid of the constant profile u = q = 1, for any n.
    """
    s = _segment(0.0, length, resolution)
    ones = lambda x: (np.ones_like(x), np.ones_like(x))
    return _radial_grid(3, ones, s, np.zeros(s.size, dtype=bool))


@dataclass(frozen=True)
class DiscreteOperator:
    """Tridiagonal form of (1/W) D(W A D .) + c, self-adjoint under V.

    The four arrays are the whole operator.  Its spectral facts and its
    LU factorization (``lu``) are computed from them on first read and
    kept on the instance, so a copy with other arrays
    (``dataclasses.replace``) starts with none; the arrays are never
    changed in place.
    """

    sub: np.ndarray
    diag: np.ndarray
    sup: np.ndarray
    V: np.ndarray

    @property
    def size(self) -> int:
        return self.diag.size

    def apply(self, u: np.ndarray) -> np.ndarray:
        """The tridiagonal matrix (sub, diag, sup) times u."""
        out = self.diag * u
        out[:-1] += self.sup * u[1:]
        out[1:] += self.sub * u[:-1]
        return out

    def asymmetry(self) -> float:
        """Max relative defect of V_i L_{i,i+1} = V_{i+1} L_{i+1,i}."""
        a = self.V[:-1] * self.sup
        b = self.V[1:] * self.sub
        return float(np.max(np.abs(a - b)) / np.max(np.abs(a)))

    @cached_property
    def symmetric_off(self) -> np.ndarray:
        """Off-diagonal sup_i sqrt(V_i / V_{i+1}) of T = V^{1/2} L V^{-1/2}."""
        return self.sup * np.sqrt(self.V[:-1] / self.V[1:])

    @cached_property
    def min_abs_eig(self) -> float:
        """Smallest-magnitude eigenvalue (signed), from ``smallest_eigenvalue``."""
        return smallest_eigenvalue(self)

    @cached_property
    def gate_abs_eig(self) -> float:
        """Smallest |eigenvalue| in (-MIN_ABS_EIG, MIN_ABS_EIG], inf if none.

        ``solve``'s invertibility gate; it never reads ``min_abs_eig``, so
        its verdict does not depend on what was read first.
        """
        near = _eigenvalues_within(self, MIN_ABS_EIG)
        return float(min(map(abs, near), default=math.inf))

    @cached_property
    def lu(self):
        """The LU factorization of L, a ``lapack.TridiagonalLU``, made on first read.

        ``solve_banded`` solves with it.  Raises ValueError for a non-finite
        entry and LinAlgError for an exactly zero pivot.
        """
        return TridiagonalLU(self.sub, self.diag, self.sup)


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
    return DiscreteOperator(sub, diag, sup, grid.V)


def solve_banded(op: DiscreteOperator, f: np.ndarray) -> np.ndarray:
    """x with L x = f by ``op.lu.solve(f)``, checked by its residual.

    The one solve of a ``DiscreteOperator``: one LAPACK ``dgttrs`` on the
    factorization made once per operator, which gives the bits of
    ``scipy.linalg.solve_banded((1, 1), ...)``; bench/spans.py counts its
    calls.  Raises ValueError for a non-finite f or one of the wrong
    shape, and NoConvergence unless the relative residual is at most
    RESIDUAL_TOL, so a NaN answer raises too.
    """
    x = op.lu.solve(f)
    scale = float(np.max(np.abs(f)) + np.max(np.abs(op.diag)) * np.max(np.abs(x))
                  + np.finfo(float).tiny)
    res = float(np.max(np.abs(f - op.apply(x)))) / scale
    if not res <= RESIDUAL_TOL:
        raise NoConvergence(f"relative residual {res:.3e} above {RESIDUAL_TOL:g}")
    return x


def solve(op: DiscreteOperator, f: np.ndarray) -> np.ndarray:
    """``solve_banded`` of L x = f behind the invertibility gate.

    Raises NearSingularOperator when L has an eigenvalue of magnitude
    below MIN_ABS_EIG (the numerical symptom of a failed injectivity
    hypothesis), read from ``op.gate_abs_eig``: one Sturm window per
    operator, settled by two Sturm counts when it is empty.  Otherwise
    raises as ``solve_banded`` does.
    """
    if op.gate_abs_eig < MIN_ABS_EIG:
        raise NearSingularOperator(
            f"smallest |eigenvalue| = {op.gate_abs_eig:.3e} < {MIN_ABS_EIG:g}")
    return solve_banded(op, f)


def solve_dirichlet(op: DiscreteOperator, f: np.ndarray, i0: int, i1: int,
                    left: float, right: float) -> np.ndarray:
    """Solve L v = f on nodes i0..i1 with Dirichlet values at i0 and i1.

    The boundary values fold into the source of the inner nodes
    i0+1..i1-1, whose rows form the window's own ``DiscreteOperator``,
    solved by ``solve_banded`` with no gate; a one-node window is one
    division.  Returns the full window vector including the boundary nodes.
    Raises ValueError for an f of a shape other than (N,) and unless
    0 <= i0, i1 <= N - 1 and i1 - i0 >= 2, LinAlgError for an exactly zero
    pivot and NoConvergence as ``solve_banded`` does.
    """
    f = np.asarray(f, dtype=float)
    if f.shape != (op.size,):
        raise ValueError(f"source of shape {f.shape} does not fit "
                         f"a diagonal of shape {op.diag.shape}")
    if not (0 <= i0 and i1 <= op.size - 1):
        raise ValueError(f"window i0 = {i0}, i1 = {i1} leaves the grid of "
                         f"{op.size} nodes (0 <= i0 and i1 <= {op.size - 1})")
    if i1 - i0 < 2:
        raise ValueError("window too small")
    sub = op.sub[i0:i1]
    sup = op.sup[i0:i1]
    rhs = f[i0 + 1:i1].copy()
    rhs[0] -= sub[0] * left
    rhs[-1] -= sup[-1] * right
    window = DiscreteOperator(sub[1:-1], op.diag[i0 + 1:i1], sup[1:-1], op.V[i0 + 1:i1])
    return np.concatenate([[left], solve_banded(window, rhs), [right]])


def _eigenvalues_within(op: DiscreteOperator, r: float) -> np.ndarray:
    """The eigenvalues of L in (-r, r], by one LAPACK bisection (``dstebz``) on T.

    The operator is self-adjoint in the V-weighted inner product, so
    T = V^{1/2} L V^{-1/2} is a symmetric tridiagonal matrix with the same
    spectrum.  Sturm counts at -r and r decide which eigenvalues the window
    holds, so an empty window costs two of them.  The tolerance is an
    absolute 1e-12: LAPACK's default, eps_mach ||T||, grows with the
    1/U-sized diagonal of the neck (about 8e11 at eps 1e-4) and would
    cost up to 2e-5 there.  Non-finite entries of T raise OutOfFloatRange
    and a failed bisection NoConvergence (at n = 3 the latter from eps near
    1e-80; build_grid already rejects the grids of eps below about 1e-110).
    """
    d, e = op.diag, op.symmetric_off
    if not (np.isfinite(d).all() and np.isfinite(e).all()):
        raise OutOfFloatRange(f"the symmetrized operator (size {d.size}) leaves double precision")
    try:
        return eigenvalues_between(d, e, -r, r, 1e-12)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(f"{exc}; max|diag| = {np.max(np.abs(d)):.3e}") from exc


def smallest_eigenvalue(op: DiscreteOperator) -> float:
    """Smallest-magnitude eigenvalue, by LAPACK bisection in a window around 0.

    ``_eigenvalues_within`` looks in (-r, r], starting at r = 1; while that
    window is empty r doubles.  Once r exceeds the Gershgorin bound
    max|diag| + 2 max|off| of T the window holds the whole spectrum, so
    the loop always ends with a value.  ``solve`` does not call this: its
    gate reads the much narrower window (-MIN_ABS_EIG, MIN_ABS_EIG].  Read
    the value through the cached ``DiscreteOperator.min_abs_eig``.
    """
    bound = np.max(np.abs(op.diag)) + 2.0 * np.max(np.abs(op.symmetric_off))
    r = 1.0
    while True:
        vals = _eigenvalues_within(op, r)
        if vals.size or r > bound:
            return float(vals[np.argmin(np.abs(vals))])
        r *= 2.0


def neck_scalar_curvature(cfg: GluingConfig, u: Jet, q: Jet):
    """Scalar curvature (S, err) of the metric of cfg on the neck at t.

    ``u`` and ``q`` are the profile jets ``cfg.warp_jets(t)``.

    The neck metric is g_K + u^{4/(n-2)} h with h = dt^2 + w^2 g_{S^{n-1}},
    w = sqrt(q), so S = S_K + S_N with the conformal law in dimension n
        S_N = u^{-(n+2)/(n-2)} (S_h u - 4(n-1)/(n-2) Delta_h u),
        S_h = -2(n-1) w''/w + (n-1)(n-2) (1 - w'^2)/w^2,
        Delta_h u = u'' + (n-1) (w'/w) u',
    read from q directly: w'/w = q'/(2q), w''/w = q''/(2q) - (q'/(2q))^2
    and 1/w^2 = 1/q.
    The error bar is a rounding bound, ROUNDING_ULPS eps_mach times |S|
    plus the sizes of the terms, whose 1/U-sized parts cancel to O(1).
    """
    n = cfg.n
    w1 = q.d / (2.0 * q.v)  # w'/w
    w1sq = w1 * w1
    S_K = sum(f.scalar_curvature() for f in cfg.model_1.k_factors)
    S_h = (-2 * (n - 1) * (q.dd / (2.0 * q.v) - w1sq), (n - 1) * (n - 2) / q.v,
           -(n - 1) * (n - 2) * w1sq)
    lap = (u.dd, (n - 1) * w1 * u.d)
    kappa = 4.0 * (n - 1) / (n - 2)
    scale = u.v ** (-(n + 2.0) / (n - 2))
    S = S_K + scale * (sum(S_h) * u.v - kappa * sum(lap))
    mag = (abs(S_K) + scale * (sum(np.abs(x) for x in S_h) * u.v
                               + kappa * sum(np.abs(x) for x in lap)))
    return S, ROUNDING_ULPS * np.finfo(float).eps * (np.abs(S) + mag)


def glued_curvature_profile(cfg: GluingConfig, grid: RadialGrid):
    """Scalar curvature of the metric of cfg at the grid nodes.

    Cap nodes (``grid.cap``) carry the exact constant S of the summands,
    with error bar 0; neck nodes take neck_scalar_curvature at |s|, one
    evaluation per mirror pair, so the profile is mirror symmetric by
    construction.  Returns (profile, error bar).
    """
    prof = np.full(grid.s.shape, cfg.S, dtype=float)
    err = np.zeros_like(prof)
    inner = ~grid.cap
    prof[inner], err[inner] = _on_mirror_pairs(
        lambda t: neck_scalar_curvature(cfg, *cfg.warp_jets(np.abs(t))), grid.s[inner])
    return prof, err


def estimate_weights(cfg: GluingConfig, psi):
    """Both a priori estimates' weights (psi^{(n-2)/2-delta}, psi^{(n+2)/2-delta}) of v and f."""
    return psi ** ((cfg.n - 2) / 2.0 - cfg.delta), psi ** ((cfg.n + 2) / 2.0 - cfg.delta)


def estimate_ratio(probe, v, f, weights, boundary: float) -> float:
    """sup|w_v v| / (sup|w_f f| + boundary) for ``weights`` (w_v, w_f).

    ``boundary`` is the weighted sup of v on a window's boundary, or 0.
    ValueError naming ``probe`` for a zero denominator: 0/0 has no ratio.
    """
    w_v, w_f = weights
    den = float(np.max(w_f * np.abs(f)) + boundary)
    if den == 0.0:
        raise ValueError(f"probe {probe!r} has a zero source and boundary: its ratio is 0/0")
    return float(np.max(w_v * np.abs(v))) / den


@dataclass
class EstimateReport:
    """Global weighted-estimate diagnostics for a batch of sources."""

    per_probe: list
    min_abs_eig: float

    @property
    def ratio(self) -> float:
        return max(self.per_probe)


def global_estimate_ratio(cfg: GluingConfig, resolution: int,
                          probes=None) -> EstimateReport:
    """Empirical constant in sup|psi^{(n-2)/2-d} v| <= C sup|psi^{(n+2)/2-d} f|.

    Builds the glued metric's grid at ``resolution``, its curvature
    profile and the operator L, and solves L v = f for each source.
    ``probes`` is a list of sources on that grid; by default it is the
    one conformal source c_m (S - S_glued).  Boundedness of the ratio
    uniformly in eps is the content of the global weighted a priori
    estimate.  The report's ``min_abs_eig`` is the operator's smallest
    eigenvalue, computed after the solves have passed their gate.  An
    empty ``probes``, and a zero source, named by its index, raise
    ValueError.
    """
    if probes is not None and len(probes) == 0:
        raise ValueError("probes must hold at least one source")
    grid = build_grid(cfg, resolution)
    profile, _ = glued_curvature_profile(cfg, grid)
    op = assemble_L(grid, profile, cfg.m)
    weights = estimate_weights(cfg, psi_of_t(grid.s, cfg))
    if probes is None:
        c_m = -(cfg.m - 2) / (4.0 * (cfg.m - 1))
        probes = [c_m * (cfg.S - profile)]
    out = [estimate_ratio(i, solve(op, f), f, weights, 0.0) for i, f in enumerate(probes)]
    return EstimateReport(out, op.min_abs_eig)
