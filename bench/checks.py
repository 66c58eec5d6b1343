"""Correctness checks made apart from the program's own computation.

Each check compares a program output with a computation written here from
the formulas (a LAPACK eigensolve, a dense fixed-point loop, a 1-D
warped-product curvature), or with a property the method must have.  They
run after the timed passes.  Every check returns a ``Check`` whose
``detail`` carries the measured value and the bound it was held to.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import eigh_tridiagonal, lu_factor, lu_solve

from cscglue import (
    DerivativeScheme,
    GluingConfig,
    build_grid,
    fermi_metric,
    glued_curvature_profile,
    glued_metric,
    make_model,
    picard_solve,
    scalar_curvature,
)
from cscglue import neck_analysis as na

EPS_MACH = float(np.finfo(float).eps)
PICARD_TOL = 1e-11          # the program's default Picard increment tolerance
THETA = (1.0831, 0.47)      # sample angles on the normal sphere
Z_ANY = (0.73, 1.41)        # the K block is exact; any z off the axes will do


@dataclass
class Check:
    name: str
    ok: bool
    detail: dict = field(default_factory=dict)


def _check(name, measured, bound, **extra) -> Check:
    ok = bool(np.isfinite(measured) and measured <= bound)
    return Check(name, ok, {"measured": float(measured), "bound": float(bound), **extra})


def _factor_curvature(f) -> float:
    """Scalar curvature of one product factor: d(d-1)/R^2 for a round sphere."""
    return f.dim * (f.dim - 1) / f.size**2 if f.kind == "sphere" else 0.0


# ---------------------------------------------------------------------------
# Engine oracles
# ---------------------------------------------------------------------------


def summand_curvature(rng, n_points: int = 24) -> list:
    """S of the exact summands in Fermi coordinates: 6 on T^2 x S^3, 7 on S^2 x S^3."""
    out = []
    for name, exact in (("torus2_x_sphere3", 6.0), ("sphere2_x_sphere3", 7.0)):
        model = make_model(name)
        pts = np.column_stack([
            rng.uniform(0.3, math.pi - 0.3, n_points),
            rng.uniform(-math.pi, math.pi, n_points),
            rng.uniform(0.5, model.r_max - 0.5, n_points),
            rng.uniform(0.3, math.pi - 0.3, n_points),
            rng.uniform(-math.pi, math.pi, n_points),
        ])
        val, err = scalar_curvature(fermi_metric(model), ("cap-1", pts))
        rel = np.max(np.abs(val - exact)) / exact
        # the CLI's tensor oracle bound, and each point within its own error bar
        out.append(_check(f"summand_curvature:{name}", rel, 1e-6,
                          within_error_bar=bool(np.all(np.abs(val - exact) <= err))))
        out[-1].ok &= out[-1].detail["within_error_bar"]
    return out


def warped_product_curvature(cfg: GluingConfig, t: np.ndarray,
                             steps=(2e-3, 1e-3, 5e-4)):
    """S of g_K + U (dt^2 + q g_{S^{n-1}}) from sampled glued components.

    With dtau = sqrt(U) dt and f = sqrt(U q) the normal block is the warped
    product dtau^2 + f^2 g_{S^{n-1}}, so
        S = S_K - 2(n-1) f_tautau / f + (n-1)(n-2) (1 - f_tau^2) / f^2.
    Derivatives are central differences of a = log f and b = log U in t,
    one Richardson step over each pair of ``steps``.  Returns the finest
    value and its step sensitivity |R(h1, h2) - R(h2, h3)|.
    """
    fld = glued_metric(cfg)
    k, m, n = cfg.k, cfg.m, cfg.n
    S_K = sum(_factor_curvature(f) for f in cfg.model_1.k_factors)

    def log_blocks(tt):
        pts = np.zeros((tt.size, m))
        pts[:, :k] = Z_ANY[:k]
        pts[:, k] = tt
        pts[:, k + 1:] = THETA[: n - 1]
        g = fld.components("neck", pts)
        return 0.5 * np.log(g[:, k + 1, k + 1]), np.log(g[:, k, k])

    a0, b0 = log_blocks(t)
    U, q = np.exp(b0), np.exp(2.0 * a0 - b0)
    vals = []
    for h in steps:
        ap, bp = log_blocks(t + h)
        am, bm = log_blocks(t - h)
        a_t, b_t = (ap - am) / (2 * h), (bp - bm) / (2 * h)
        a_tt = (ap - 2 * a0 + am) / h**2
        f_tt_over_f = (a_tt + a_t**2 - 0.5 * a_t * b_t) / U   # f_tautau / f
        f_tau_sq = q * a_t**2
        vals.append(S_K - 2 * (n - 1) * f_tt_over_f
                    + (n - 1) * (n - 2) * (1 - f_tau_sq) / (U * q))
    rich = [(4 * vals[i + 1] - vals[i]) / 3 for i in range(len(vals) - 1)]
    return rich[-1], np.abs(rich[-1] - rich[-2])


def pre_dev_oracle(cfg: GluingConfig, grid, profile_err, pre_dev: float) -> Check:
    """Program pre_dev against the warped-product curvature on the neck nodes.

    The bound is the oracle's own step sensitivity plus the engine's own
    error bar, each at its worst node.
    """
    t = grid.s[np.abs(grid.s) < cfg.t_max - 1e-12]
    S_ref, sens = warped_product_curvature(cfg, t)
    oracle = float(np.max(np.abs(S_ref - cfg.S)))
    bound = float(np.max(sens) + np.max(profile_err))
    return _check(f"pre_dev_oracle:eps={cfg.eps:g}", abs(pre_dev - oracle), bound,
                  pre_dev=pre_dev, oracle=oracle)


# ---------------------------------------------------------------------------
# Linear layer and fixed point
# ---------------------------------------------------------------------------


def eigenvalue_lapack(op, min_eig: float, eps: float) -> list:
    """Smallest-|eigenvalue| against eigh_tridiagonal of the V-symmetrized operator.

    The bound is what the inverse-power stopping rule promises: its Ritz
    residual is at most 1e-11 |theta| + 1e-13 max|diag|, and some eigenvalue
    lies within the residual of theta.
    """
    a, b = op.V[:-1] * op.sup, op.V[1:] * op.sub
    asym = float(np.max(np.abs(a - b)) / np.max(np.abs(a)))
    d = np.sqrt(op.V)
    vals = eigh_tridiagonal(op.diag, op.sup * d[:-1] / d[1:], eigvals_only=True)
    ref = float(vals[np.argmin(np.abs(vals))])
    bound = 1e-11 * abs(min_eig) + 1e-13 * float(np.max(np.abs(op.diag)))
    return [_check(f"operator_self_adjoint:eps={eps:g}", asym, 1e-12),
            _check(f"eigenvalue_lapack:eps={eps:g}", abs(min_eig - ref), bound,
                   program=min_eig, lapack=ref)]


def dense_fixed_point(cfg: GluingConfig, op, profile, sup_v: float) -> list:
    """Picard loop v <- L^{-1} F(v) with a dense LU of L and F from its formula.

      F(v) = c (S - S_g) + c p (S - S_g) v + c S ((1+v)^p - 1 - p v),
      c = -(m-2)/(4(m-1)),  p = (m+2)/(m-2).
    """
    m, S = cfg.m, cfg.S
    c, p = -(m - 2) / (4.0 * (m - 1)), (m + 2) / (m - 2)
    dev = S - profile
    N = op.size
    L = np.zeros((N, N))
    i = np.arange(N)
    L[i, i] = op.diag
    L[i[:-1], i[1:]] = op.sup
    L[i[1:], i[:-1]] = op.sub
    lu = lu_factor(L, overwrite_a=True)
    del L
    v = np.zeros(N)
    for _ in range(200):
        f = c * dev + c * p * dev * v + c * S * ((1 + v) ** p - 1 - p * v)
        v_new = lu_solve(lu, f)
        step = float(np.max(np.abs(v_new - v)))
        v = v_new
        if step <= PICARD_TOL:
            break
    dense_sup = float(np.max(np.abs(v)))
    # both sides stop within PICARD_TOL of the same fixed point
    return [_check(f"dense_fixed_point:eps={cfg.eps:g}", abs(dense_sup - sup_v),
                   10 * PICARD_TOL, program=sup_v, dense=dense_sup),
            _check(f"dense_mirror:eps={cfg.eps:g}",
                   float(np.max(np.abs(v - v[::-1]))), 10 * PICARD_TOL)]


def fixed_point_row(cfg: GluingConfig, resolution: int, row: dict,
                    grid, profile, err) -> list:
    """All fixed-point checks of one sweep row, from its rebuilt grid and profile."""
    rep = picard_solve(cfg, resolution=resolution, grid=grid, profile=(profile, err))
    out = [
        _check(f"rerun_sup_v:eps={cfg.eps:g}", abs(rep.v.sup() - row["sup_v"]), 0.0),
        _check(f"program_mirror:eps={cfg.eps:g}",
               float(np.max(np.abs(rep.v.values - rep.v.values[::-1]))), 10 * PICARD_TOL),
    ]
    out += eigenvalue_lapack(rep.operator, rep.linear.min_abs_eig, cfg.eps)
    out += dense_fixed_point(cfg, rep.operator, profile, row["sup_v"])
    return out


def sweep_rows(cfgs: dict, resolution: int, rows: list, dense_eps: float) -> list:
    """Checks of a whole sweep table (rows as dicts, eps descending)."""
    out = []
    for row in rows:
        cfg = cfgs[row["eps"]]
        grid = build_grid(cfg, resolution)
        profile, err = glued_curvature_profile(cfg, grid)
        if row["eps"] == dense_eps:
            out += fixed_point_row(cfg, resolution, row, grid, profile, err)
        out.append(_check(f"rerun_pre_dev:eps={cfg.eps:g}",
                          abs(float(np.max(np.abs(cfg.S - profile))) - row["pre_dev"]), 0.0))
        out.append(pre_dev_oracle(cfg, grid, err, row["pre_dev"]))
        out.append(_check(f"post_below_pre:eps={cfg.eps:g}",
                          row["post_dev"] / row["pre_dev"], 1.0 - 1e-12))
    n, delta = cfgs[rows[0]["eps"]].n, rows[0]["delta"]
    eps = np.array([r["eps"] for r in rows])
    sup = np.array([r["sup_v"] for r in rows])
    order = np.argsort(eps)
    increasing = bool(np.all(np.diff(sup[order]) > 0))
    slope = float(np.polyfit(np.log(eps), np.log(sup), 1)[0])
    out.append(Check("sup_v_increasing_in_eps", increasing, {"sup_v": sup.tolist()}))
    out.append(Check("sup_v_rate", slope >= (n - 2) / 2 - delta,
                     {"measured": slope, "bound": (n - 2) / 2 - delta}))
    return out


# ---------------------------------------------------------------------------
# Neck estimates
# ---------------------------------------------------------------------------


def matching_deviation(fit_a, fit_b) -> list:
    """Deviation profiles of two models with the same normal block agree.

    The K block is an exact product on both, so S_glued - S depends only on
    the normal block.  Bound: the package's own resolution threshold
    (RESOLVED_FACTOR times the summed error bars).
    """
    out = []
    for pa, pb in zip(fit_a.profiles, fit_b.profiles):
        gap = np.abs(pa.sup_dev - pb.sup_dev) / (na.RESOLVED_FACTOR * (pa.fd_err + pb.fd_err))
        out.append(_check(f"matching_deviation:eps={pa.eps:g}", float(np.max(gap)), 1.0))
    return out


def barrier_margins(model: str, reports: list) -> list:
    return [Check(f"barrier_margin:{model}:delta={r.delta:g},eps={r.eps:g}",
                  bool(r.min_margin >= 0.0), {"measured": r.min_margin, "bound": 0.0})
            for r in reports]


def conjugation_floor(rng) -> Check:
    """Conjugation identity on sphere2_x_ball3 (flat normal block) is exact.

    Samples four t with |t| in [T-2.5, T-2.2]; the residual ratio must sit
    at the rounding floor of a second difference at the finest step,
    divided by the smallest |x| sampled (100 covers the stencil terms and
    the Richardson weights).
    """
    M = make_model("sphere2_x_ball3")
    eps = float(rng.choice([0.02, 0.05]))
    cfg = GluingConfig(M, M, eps=eps)
    T = cfg.t_max
    t = (T - rng.uniform(2.2, 2.5, 4)) * rng.choice([-1.0, 1.0], 4)
    scheme = DerivativeScheme(8e-3, 3)
    rep = na.conjugation_residual(cfg, t_samples=t, scheme=scheme)
    h_min = 8e-3 / 2 ** (scheme.levels - 1)
    x_min = float(np.min(eps * np.exp(np.abs(t))))
    floor = 100 * EPS_MACH / (h_min**2 * x_min)
    return _check(f"conjugation_floor:eps={eps:g}", rep.max_ratio, floor,
                  t=t.tolist())
