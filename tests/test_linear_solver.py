import math

import mpmath as mp
import numpy as np
import pytest
from scipy.linalg import eigh_tridiagonal

from cscglue import curvature, geometry, gluing, linear_solver as ls
from cscglue.errors import NearSingularOperator


def _full_spectrum(op):
    """Test-side oracle: symmetrize with sqrt(V) and solve exactly."""
    d = np.sqrt(op.V)
    off = op.sup * d[:-1] / d[1:]
    return np.sort(eigh_tridiagonal(op.diag, off, eigvals_only=True))


def test_flat_grid_neumann_spectrum():
    grid = ls.build_flat_grid(math.pi, 64)
    op = ls.assemble_L(grid, 0.0, 5)
    vals = _full_spectrum(op)[::-1]
    # Neumann eigenvalues of the 1-D Laplacian on [0, pi]: -k^2
    assert abs(vals[0]) <= 1e-10
    for k in (1, 2, 3):
        assert abs(vals[k] + k**2) / k**2 <= 1e-3


def test_single_sphere_weights_and_spectrum(model_a):
    grid = ls.build_grid_single(model_a, 64)
    # orbit weight proportional to sin^2 r
    w = grid.W / np.max(grid.W)
    ref = np.sin(grid.s) ** 2
    ref /= np.max(ref)
    assert np.max(np.abs(w - ref)) <= 1e-12
    assert grid.pole == (True, True)
    op = ls.assemble_L(grid, 0.0, model_a.m)
    vals = _full_spectrum(op)[::-1]
    # radial spectrum of round S^3: -j(j+2)
    assert abs(vals[0]) <= 1e-9
    for i, lam in enumerate((-3.0, -8.0, -15.0), start=1):
        assert abs(vals[i] - lam) / abs(lam) <= 1e-3


def test_summand_operator_symmetric_gap(model_a):
    grid = ls.build_grid_single(model_a, 64)
    op = ls.assemble_L(grid, model_a.S, model_a.m)
    lam = ls.smallest_eigenvalue(op)
    gap = geometry.injectivity_gap(model_a, 40.0, symmetric_only=True)
    assert abs(abs(lam) - gap) <= 1e-2


def test_self_adjointness(stack05):
    _, _, op = stack05
    assert op.asymmetry() <= 1e-12


def test_neck_radial_coefficient(cfg05, stack05):
    grid, _, _ = stack05
    inner = np.abs(grid.s) < cfg05.t_max - 1e-9
    expected = cfg05.u(grid.s[inner]) ** (-4.0 / (cfg05.n - 2))
    assert np.max(np.abs(grid.A[inner] - expected) / expected) <= 1e-12


def test_grid_mirror_and_interfaces(stack05, cfg05):
    grid, _, _ = stack05
    assert np.array_equal(grid.s, -grid.s[::-1])
    assert np.array_equal(grid.W, grid.W[::-1])
    T = cfg05.t_max
    i1 = grid.interfaces["side_1"]["index"]
    assert abs(grid.s[i1] + T) <= grid.h[0]
    assert grid.interfaces["side_1"]["dr_dt"] == -1.0
    assert grid.interfaces["side_2"]["dr_dt"] == 1.0
    # near the interface the cylindrical weight equals the cap-chart
    # weight times the jacobian |dr/dt| = r
    field = gluing.glued_metric(cfg05)
    z, th = (0.73, 1.41), (1.0831, 0.47)
    r = cfg05.eps * math.exp(-grid.s[i1])
    g_cap = field.components("cap-1", np.array([*z, r, *th]))
    w_cap = r * math.sqrt(abs(np.linalg.det(g_cap)))
    assert abs(grid.W[i1] - w_cap) <= 1e-10 * w_cap


def test_solve_inverse_consistency(stack05, rng):
    grid, _, op = stack05
    v_star = np.sin(grid.s) * np.exp(-0.1 * grid.s**2)
    f = op.apply(v_star)
    v = ls.solve(op, f)
    assert np.max(np.abs(v - v_star)) <= 1e-8 * np.max(np.abs(v_star))
    assert np.max(np.abs(ls.solve(op, np.zeros(grid.size)))) == 0.0


def test_forced_kernel_near_singular(model_a):
    grid = ls.build_grid_single(model_a, 64)
    op0 = ls.assemble_L(grid, 0.0, model_a.m)
    vals = _full_spectrum(op0)
    lam = vals[np.argmin(np.abs(vals + 3.0))]  # the discrete -3 eigenvalue
    op = ls.assemble_L(grid, -lam * (model_a.m - 1), model_a.m)
    assert abs(ls.smallest_eigenvalue(op)) <= 1e-8
    with pytest.raises(NearSingularOperator):
        ls.solve(op, np.ones(grid.size))


@pytest.mark.parametrize("case", ["glued05", "summand_a"])
def test_smallest_eigenvalue_matches_dense(case, stack05, model_a):
    if case == "glued05":
        op = stack05[2]
    else:
        op = ls.assemble_L(ls.build_grid_single(model_a, 64), model_a.S,
                           model_a.m)
    # dense eigensolve of the full nonsymmetric matrix: no use of V at all
    i = np.arange(op.size)
    L = np.zeros((op.size, op.size))
    L[i, i] = op.diag
    L[i[:-1], i[1:]] = op.sup
    L[i[1:], i[:-1]] = op.sub
    vals = np.linalg.eigvals(L)
    ref = vals[np.argmin(np.abs(vals))]
    # rounding of a dense solve scales with the largest matrix entry
    bound = 100 * np.finfo(float).eps * np.max(np.abs(op.diag))
    assert np.max(np.abs(vals.imag)) <= bound
    assert abs(ls.smallest_eigenvalue(op) - ref.real) <= bound


def test_refinement_order(model_flat):
    # smooth data: the synthetic exact field has a constant potential, so
    # the measured rate isolates the scheme itself
    cfg = gluing.GluingConfig(model_flat, model_flat, eps=0.08)
    warp = gluing.synthetic_exact_warp(cfg)

    def solve_at(res):
        grid = ls.build_grid(cfg, res, warp=warp)
        prof, _ = ls.glued_curvature_profile(cfg, grid, warp=warp)
        op = ls.assemble_L(grid, prof, model_flat.m)
        f = np.exp(-0.5 * grid.s**2) * (1 + 0.2 * np.sin(grid.s))
        return grid.s, ls.solve(op, f)

    s_ref, v_ref = solve_at(192)
    errs = []
    for res in (24, 48, 96):
        s, v = solve_at(res)
        errs.append(np.max(np.abs(v - np.interp(s, s_ref, v_ref))))
    order1 = math.log2(errs[0] / errs[1])
    order2 = math.log2(errs[1] / errs[2])
    assert min(order1, order2) >= 1.8


def test_discrete_maximum_principle(rng):
    grid = ls.build_flat_grid(2.0, 64)
    op = ls.assemble_L(grid, -0.5 * 4, 5)  # nonpositive potential -0.5
    f = rng.uniform(0.0, 1.0, size=grid.size)
    v = ls.solve_dirichlet(op, f, 0, grid.size - 1, 0.0, 0.0)
    assert np.max(v) <= 1e-12


def test_global_estimate_homogeneity_and_cap_source(cfg05, stack05):
    grid, (prof, _), op = stack05
    c_m = -(cfg05.m - 2) / (4.0 * (cfg05.m - 1))
    f = c_m * (cfg05.S - prof)
    rep1 = ls.global_estimate_ratio(cfg05, probes=[f], grid=grid, op=op,
                                    profile=prof)
    rep2 = ls.global_estimate_ratio(cfg05, probes=[2.0 * f], grid=grid, op=op,
                                    profile=prof)
    assert rep2.ratio == pytest.approx(rep1.ratio, rel=1e-12)

    # source supported on the caps: the weights there are exactly one
    f_cap = np.where(grid.cap_mask(), 1.0, 0.0)
    rep = ls.global_estimate_ratio(cfg05, probes=[f_cap], grid=grid, op=op,
                                   profile=prof)
    psi = gluing.psi_of_t(grid.s, cfg05)
    v = ls.solve(op, f_cap)
    lo = (cfg05.n - 2) / 2.0 - cfg05.delta
    direct = np.max(psi**lo * np.abs(v)) / np.max(np.abs(f_cap))
    assert rep.ratio == pytest.approx(direct, rel=1e-14)


@pytest.mark.parametrize("name", ["torus2_x_sphere3", "sphere2_x_sphere3"])
@pytest.mark.parametrize("eps", [1e-3, 1e-4])
def test_build_grid_small_eps(name, eps):
    # the orbit weight W spans about eps^-3 along the neck; the symmetry
    # checks must hold relative to it
    model = geometry.make_model(name)
    cfg = gluing.GluingConfig(model, model, eps=eps)
    grid = ls.build_grid(cfg, 256)
    assert np.array_equal(grid.W, grid.W[::-1])
    assert np.all(grid.V > 0.0)
    assert ls.assemble_L(grid, cfg.S, cfg.m).asymmetry() <= 1e-12


def test_build_grid_resolution_precondition(cfg05):
    with pytest.raises(ValueError):
        ls.build_grid(cfg05, 8)


def _neck_profile(name, eps):
    model = geometry.make_model(name)
    cfg = gluing.GluingConfig(model, model, eps=eps)
    warp = gluing.glued_warp(cfg)
    grid = ls.build_grid(cfg, 64, warp=warp)
    prof, _ = ls.glued_curvature_profile(cfg, grid, warp=warp)
    inner = np.abs(grid.s) < cfg.t_max - 1e-12
    return model, gluing.glued_metric(cfg), grid.s[inner], prof[inner]


def test_curvature_profile_blind_to_curved_k():
    # only the normal block varies along the neck, so S - S_model must not
    # depend on whether K is a flat torus or a round sphere
    devs = []
    for name in ("torus2_x_sphere3", "sphere2_x_sphere3"):
        model, _, _, prof = _neck_profile(name, 0.02)
        devs.append(prof - model.S)
    assert np.max(np.abs(devs[0] - devs[1])) <= 1e-9


@pytest.mark.parametrize("name", ["torus2_x_sphere3", "sphere2_x_sphere3"])
@pytest.mark.parametrize("eps", [0.02, 0.05, 0.16])
def test_curvature_profile_matches_warped_product_oracle(name, eps):
    # the profile is the 1-D warped-product formula; the 5-D
    # finite-difference engine on the full metric must agree with it
    model, field, t, prof = _neck_profile(name, eps)
    k, n = model.k, model.n
    pts = np.zeros((t.size, model.m))
    pts[:, :k] = geometry.Z_SAMPLE_SPHERE2[:k]
    pts[:, k] = t
    pts[:, k + 1:] = geometry.THETA_SAMPLE[:n - 1]
    engine, _ = curvature.scalar_curvature(field, ("neck", pts))
    assert np.max(np.abs(prof - engine) / np.abs(engine)) <= 1e-4


def _mp_neck_scalar(model, eps, t):
    """Neck scalar curvature at 40 digits, written from the gluing's definitions.

    B(s) = E(s) / (E(s) + E(1 - s)) with E(s) = exp(-1/s) for s > 0;
    eta(t) = B(-log eps - t), chi(t) = B((1 - t) / 2);
    u = eta(t) eps^{(n-2)/2} e^{-(n-2)t/2} + eta(-t) eps^{(n-2)/2} e^{(n-2)t/2},
    U = u^{4/(n-2)}; q = chi q_S(eps e^{-t}) + (1 - chi) q_S(eps e^{t}) with
    q_S(r) = (rho sin(r/rho) / r)^2 for a round normal sphere of radius rho.
    The neck metric g_K + U (dt^2 + q g_{S^{n-1}}) is, with dtau = sqrt(U) dt
    and f = sqrt(U q), a warped product of scalar curvature
    S_K - 2(n-1) f_tautau / f + (n-1)(n-2) (1 - f_tau^2) / f^2.
    """
    n = model.n
    eps, t = mp.mpf(eps), mp.mpf(t)
    rho = mp.mpf(model.normal_factor.size)

    def B(s):
        E = lambda x: mp.exp(-1 / x) if x > 0 else mp.mpf(0)
        return E(s) / (E(s) + E(1 - s))

    def U(t):
        c = eps ** (mp.mpf(n - 2) / 2)
        u = (B(-mp.log(eps) - t) * c * mp.exp(-(n - 2) * t / 2)
             + B(-mp.log(eps) + t) * c * mp.exp((n - 2) * t / 2))
        return u ** (mp.mpf(4) / (n - 2))

    def f(t):
        chi = B((1 - t) / 2)
        q_S = lambda r: (rho * mp.sin(r / rho) / r) ** 2
        return mp.sqrt(U(t) * (chi * q_S(eps * mp.exp(-t))
                               + (1 - chi) * q_S(eps * mp.exp(t))))

    f0, f_t, f_tt = (mp.diff(f, t, j) for j in range(3))
    U0, U_t = U(t), mp.diff(U, t)
    f_tau = f_t / mp.sqrt(U0)
    f_tautau = f_tt / U0 - f_t * U_t / (2 * U0**2)
    S_K = sum(fac.scalar_curvature() for fac in model.k_factors)
    return (S_K - 2 * (n - 1) * f_tautau / f0
            + (n - 1) * (n - 2) * (1 - f_tau**2) / f0**2)


@pytest.mark.parametrize("eps,resolution",
                         [(0.02, 64), (2e-3, 256), (1e-4, 256), (1e-6, 256)])
def test_curvature_profile_within_error_bars_of_mpmath(eps, resolution):
    # the error bars must bound the error actually made; the nodes with the
    # largest bars sit where the 1/U-sized terms cancel, at the neck centre
    model = geometry.make_model("torus2_x_sphere3")
    cfg = gluing.GluingConfig(model, model, eps=eps)
    grid = ls.build_grid(cfg, resolution)
    prof, err = ls.glued_curvature_profile(cfg, grid)
    inner = np.flatnonzero(np.abs(grid.s) < cfg.t_max - 1e-12)
    nodes = np.union1d(inner[np.argsort(err[inner])[-4:]],
                       inner[np.linspace(0, inner.size - 1, 8).astype(int)])
    with mp.workdps(40):
        ref = np.array([float(_mp_neck_scalar(model, eps, grid.s[i]))
                        for i in nodes])
    assert np.all(np.abs(prof[nodes] - ref) <= err[nodes])
