import math
import types

import numpy as np
import pytest

from cscglue import (curvature, geometry, gluing, lapack, linear_solver, neck_analysis,
                     yamabe)
from cscglue.errors import (ConfigError, DeltaOutOfRange, IterationDiverged,
                            NonpositiveConformalFactor, OutOfChart)


def test_constants_dimension_five():
    # c = -3/16 and p = 7/3 in dimension m = 5: F(0) = c s_dev and, with
    # s_dev = 0, F''(0) = c S p (p - 1)
    s_dev = np.array([1.0])
    assert yamabe.F_eps(np.zeros(1), s_dev, 5, 6.0)[0] == -3.0 / 16.0
    h = 1e-4
    f = [yamabe.F_eps(np.array([x]), np.zeros(1), 5, 1.0)[0] for x in (-h, 0.0, h)]
    assert (f[2] - 2 * f[1] + f[0]) / h**2 == pytest.approx(-3 / 16 * 7 / 3 * 4 / 3, rel=1e-6)
    with pytest.raises(ValueError, match="m must be >= 3, got 2"):
        yamabe.F_eps(np.zeros(1), s_dev, 2, 6.0)


def test_F_eps_affine_part():
    c = -3.0 / 16.0
    s_dev = np.array([0.5, -1.0, 2.0])
    out = yamabe.F_eps(np.zeros(3), s_dev, 5, 6.0)
    assert np.allclose(out, c * s_dev, rtol=0, atol=1e-15)
    out = yamabe.F_eps(np.zeros(3), np.zeros(3), 5, 6.0)
    assert np.max(np.abs(out)) == 0.0


def test_F_eps_quadratic_coefficient():
    # with S_glued = S the leading term is c S p(p-1)/2 v^2 = c S (14/9) v^2
    c = -3.0 / 16.0
    S = 6.0
    v = np.array([1e-3])
    out = yamabe.F_eps(v, np.zeros(1), 5, S)
    lead = c * S * (14.0 / 9.0) * v**2
    cubic = c * S * (7 / 3) * (4 / 3) * (1 / 3) / 6 * v**3
    assert abs(out[0] - lead[0]) <= 1e-7
    assert out[0] - lead[0] == pytest.approx(cubic[0], rel=1e-2)


def test_F_eps_evaluates_beyond_the_smallness_ball():
    # the ball is picard_solve's; F is defined wherever 1 + v > 0
    c, p, S = -3.0 / 16.0, 7.0 / 3.0, 6.0
    v, s_dev = np.array([0.6]), np.array([0.25])
    want = c * s_dev + c * p * s_dev * v + c * S * (1.6 ** p - 1.0 - p * v)
    assert yamabe.F_eps(v, s_dev, 5, S) == pytest.approx(want, rel=1e-14)


def test_F_eps_refuses_a_nonpositive_conformal_factor():
    with pytest.raises(NonpositiveConformalFactor, match="-2.000e-01"):
        yamabe.F_eps(np.array([0.1, -1.2]), np.zeros(2), 5, 6.0)


def test_F_eps_refuses_a_nan_iterate():
    # min(1 + v) > 0 is False for NaN; the check is written so NaN fails it
    with pytest.raises(NonpositiveConformalFactor, match="nan"):
        yamabe.F_eps(np.array([0.1, math.nan]), np.zeros(2), 5, 6.0)


def test_picard_convergence_certificates(cfg05, report05):
    rep = report05
    assert rep.converged
    assert rep.iterations <= 30
    assert rep.residual <= 1e-10
    assert rep.residual <= 10 * 1e-11  # residual identity at default tol
    assert rep.mirror_defect <= 1e-10
    assert rep.v.sup() <= yamabe.smallness_ball(cfg05)
    # increments eventually decrease monotonically
    inc = rep.increments
    assert all(a > b for a, b in zip(inc[1:-1], inc[2:]))
    assert 0 < rep.contraction < 1


def test_linear_report_is_the_smallest_eigenvalue(report05):
    lam = linear_solver.smallest_eigenvalue(report05.operator)
    assert report05.linear.min_abs_eig == lam


def test_picard_monotone_shrinkage(model_a):
    sups = []
    for eps in (0.02, 0.04, 0.05):
        cfg = gluing.GluingConfig(model_a, model_a, eps=eps)
        sups.append(yamabe.picard_solve(cfg, resolution=64).v.sup())
    assert sups[0] <= sups[1] <= sups[2]


def test_picard_synthetic_exact_returns_zero(model_flat):
    cfg = gluing.SyntheticExactConfig(model_flat, model_flat, eps=0.05)
    rep = yamabe.picard_solve(cfg, resolution=64)
    assert rep.v.sup() <= 1e-8
    # the check reads the metric the solve corrected
    chk = yamabe.verify_constant_curvature(rep, cfg)
    assert chk.post_dev <= 10 * chk.fd_err


def test_verify_identity_factor_returns_pre_deviation(cfg05, report05):
    import copy

    rep0 = copy.deepcopy(report05)
    rep0.v.values[:] = 0.0
    chk = yamabe.verify_constant_curvature(rep0, cfg05)
    assert chk.post_dev == pytest.approx(chk.pre_dev, rel=1e-12)


def test_verify_constant_factor_uses_total_dimension(cfg05, report05):
    # v = c has vanishing spline derivatives, so the corrected curvature is
    # (1 + c)^{-4/(m-2)} S_glued at every sample; an exponent in the
    # codimension n would give (1 + c)^{-4} here
    import copy

    rep = copy.deepcopy(report05)
    c = 0.2
    rep.v.values[:] = c
    chk = yamabe.verify_constant_curvature(rep, cfg05)
    S_g, _ = linear_solver.neck_scalar_curvature(cfg05, *cfg05.warp_jets(chk.s))
    S_g[np.abs(chk.s) >= cfg05.t_max] = cfg05.S
    expected = np.abs((1 + c) ** (-4.0 / (cfg05.m - 2)) * S_g - cfg05.S)
    # to rounding: the spline's derivatives of constant data are ~ 1e-12
    assert np.max(np.abs(chk.post_values - expected)) <= chk.fd_err


def test_verify_constancy_and_caps(cfg05, report05):
    chk = yamabe.verify_constant_curvature(report05, cfg05)
    assert chk.post_dev <= max(10 * chk.fd_err, chk.pre_dev / 50.0)
    # far cap points: conformal to the summands with a slowly varying
    # factor there, so only discretization-level deviation remains
    cap_devs = chk.post_values[np.abs(chk.s) >= cfg05.t_max]
    assert len(cap_devs) == 12
    assert max(cap_devs) <= 1e-2


def test_cap_samples_inside_the_neck_carry_the_neck_curvature():
    # at r_max = 1.0996 the cap samples r = 0.981, 0.958 and 0.935 lie inside
    # the neck, where S_glued - S reaches -4.85e-5 against fd_err 2.4e-6: the
    # seam rule |s| >= t_max, not the sample order, decides which S_g they get
    model = geometry.make_model("torus2_x_sphere3", sphere3_radius=0.35)
    cfg = gluing.GluingConfig(model, model, eps=1e-4)
    rep = yamabe.picard_solve(cfg, 64)
    chk = yamabe.verify_constant_curvature(rep, cfg)
    neck = np.abs(chk.s) < cfg.t_max
    assert np.count_nonzero(neck) == yamabe.VERIFY_NECK_SAMPLES + 6
    u, q = cfg.warp_jets(chk.s[neck])
    S_g, _ = linear_solver.neck_scalar_curvature(cfg, u, q)
    A, b = linear_solver.laplacian_coefficients(cfg, u, q)
    v = yamabe.InterpolatingSpline(rep.v.grid.s, rep.v.values).jet(chk.s[neck])
    m, w = cfg.m, 1.0 + v.v
    law = w ** (-(m + 2.0) / (m - 2)) * (S_g * w - 4.0 * (m - 1) / (m - 2) * A * (v.dd + b * v.d))
    assert np.max(np.abs(chk.post_values[neck] - np.abs(law - cfg.S))) <= chk.fd_err


@pytest.mark.parametrize("eps", [1e-3, 1e-4])
def test_verify_refuses_a_cap_sample_beyond_the_pole(eps):
    # at r_max = 1.037 the cap sample r = 1.05 lies 0.013 beyond the pole;
    # extrapolating the spline there read post_dev 1.294 (eps 1e-3) and 0.127
    model = geometry.make_model("torus2_x_sphere3", sphere3_radius=0.33)
    cfg = gluing.GluingConfig(model, model, eps=eps)
    rep = yamabe.picard_solve(cfg, 64)
    with pytest.raises(OutOfChart, match=r"r_max = 1\.03673"):
        yamabe.verify_constant_curvature(rep, cfg)


def test_sweep_delta_precondition(model_a):
    with pytest.raises(DeltaOutOfRange):
        yamabe.convergence_sweep(
            lambda e: gluing.GluingConfig(model_a, model_a, eps=e, delta=0.3),
            [0.02], resolution=64, delta=-0.1)
    with pytest.raises(DeltaOutOfRange):
        yamabe.convergence_sweep(
            lambda e: gluing.GluingConfig(model_a, model_a, eps=e, delta=0.3),
            [0.02], resolution=64, delta=0.55)


def test_sweep_delta_comes_from_the_configs(model_a):
    # rows carry the delta the solves used; a differing one is refused
    make = lambda e: gluing.GluingConfig(model_a, model_a, eps=e, delta=0.2)
    table = yamabe.convergence_sweep(make, [0.04, 0.02], resolution=48)
    assert [row.delta for row in table.rows] == [0.2, 0.2]
    with pytest.raises(ConfigError):
        yamabe.convergence_sweep(make, [0.04, 0.02], delta=0.1, resolution=48)


def test_sweep_propagates_programming_errors(model_a, monkeypatch):
    # only GlueErrors become rows; a bug surfaces as itself
    def broken(*args, **kwargs):
        raise TypeError("bug")

    monkeypatch.setattr(yamabe, "picard_solve", broken)
    with pytest.raises(TypeError, match="bug"):
        yamabe.convergence_sweep(
            lambda e: gluing.GluingConfig(model_a, model_a, eps=e), [0.02], resolution=64)


def test_sweep_records_divergence_and_continues(model_a):
    # at eps = 0.08 the iterates leave the smallness ball: the row must
    # record the failure while the remaining rows still complete
    table = yamabe.convergence_sweep(
        lambda e: gluing.GluingConfig(model_a, model_a, eps=e),
        [0.04, 0.08], resolution=48)
    by_eps = {r.eps: r for r in table.rows}
    assert by_eps[0.08].error != ""
    assert "IterationDiverged" in by_eps[0.08].error
    assert by_eps[0.04].error == ""
    assert math.isfinite(by_eps[0.04].sup_v)


def test_sweep_does_no_eigensolve(model_a, eig_calls):
    # one invertibility window per operator, and it holds no eigenvalue;
    # the smallest eigenvalue itself is never computed
    eps_list = [1e-2, 2e-3]
    table = yamabe.convergence_sweep(
        lambda e: gluing.GluingConfig(model_a, model_a, eps=e), eps_list,
        resolution=256)
    assert [row.error for row in table.rows] == ["", ""]
    r = linear_solver.MIN_ABS_EIG
    assert [select_range for *_, select_range in eig_calls] == [(-r, r)] * len(eps_list)
    assert all(found == 0 for _, found, _ in eig_calls)


@pytest.mark.parametrize("name", ["torus2_x_sphere3", "sphere2_x_sphere3"])
def test_sweep_holds_down_to_eps_1e4(name):
    # the package must work down to eps 1e-4; the rate bound is the
    # paper's target (n-2)/2 - delta
    model = geometry.make_model(name)
    delta = 0.3
    table = yamabe.convergence_sweep(
        lambda e: gluing.GluingConfig(model, model, eps=e, delta=delta),
        [1e-2, 1e-3, 1e-4], delta=delta, resolution=256)
    assert [row.error for row in table.rows] == ["", "", ""]
    assert table.slope >= (model.n - 2) / 2.0 - delta


def test_picard_second_model(model_b):
    # curved K block through the whole pipeline
    cfg = gluing.GluingConfig(model_b, model_b, eps=0.02)
    rep = yamabe.picard_solve(cfg, resolution=64)
    assert rep.converged
    assert rep.v.sup() <= yamabe.smallness_ball(cfg)
    assert rep.mirror_defect <= 1e-10
    chk = yamabe.verify_constant_curvature(rep, cfg)
    assert chk.post_dev <= chk.pre_dev / 50.0


@pytest.mark.parametrize("eps", [0.02, 0.04])
def test_picard_stable_under_resolution_doubling(model_a, eps):
    cfg = gluing.GluingConfig(model_a, model_a, eps=eps)
    coarse, fine = (yamabe.picard_solve(cfg, resolution=r) for r in (64, 128))
    assert coarse.v.sup() == pytest.approx(fine.v.sup(), rel=1e-3)
    assert coarse.v.cap_sup() == pytest.approx(fine.v.cap_sup(), rel=1e-3)


def test_one_d_path_never_touches_the_5d_engine(monkeypatch, model_a):
    # the whole 1-D pipeline reads the metric through its profile jets only
    def forbidden(*args, **kwargs):
        raise AssertionError("the 1-D path called the 5-D engine")

    for mod in (curvature, linear_solver, neck_analysis, yamabe):
        for name in ("scalar_curvature", "conformal_scalar", "laplace_beltrami"):
            if hasattr(mod, name):
                monkeypatch.setattr(mod, name, forbidden)
    monkeypatch.setattr(gluing, "_warped_components", forbidden)
    monkeypatch.setattr(geometry.MetricField, "components", forbidden)

    cfg = gluing.GluingConfig(model_a, model_a, eps=0.05, alpha=2.7)
    grid = linear_solver.build_grid(cfg, 64)
    prof = linear_solver.glued_curvature_profile(cfg, grid)
    rep = yamabe.picard_solve(cfg, resolution=64, grid=grid, profile=prof)
    assert yamabe.verify_constant_curvature(rep, cfg).post_dev < rep.pre_dev
    neck_analysis.deviation_profile(cfg)
    assert neck_analysis.barrier_margin(cfg, delta=0.3).min_margin >= 0.0
    neck_analysis.local_estimate_ratio(cfg)


@pytest.mark.parametrize("name", ["torus2_x_sphere3", "sphere2_x_sphere3"])
def test_solve_path_never_samples_metric_components(monkeypatch, name):
    # the grids, the solve and the post-solve check read the profile
    # (u, q) only: no m x m component matrix is ever built
    def forbidden(*args, **kwargs):
        raise AssertionError("the solve path sampled metric components")

    monkeypatch.setattr(geometry, "product_components", forbidden)
    monkeypatch.setattr(gluing, "_warped_components", forbidden)
    monkeypatch.setattr(linear_solver, "product_components", forbidden,
                        raising=False)

    model = geometry.make_model(name)
    cfg = gluing.GluingConfig(model, model, eps=0.02)
    linear_solver.build_grid_single(model, 64)
    linear_solver.build_flat_grid(math.pi, 64)
    grid = linear_solver.build_grid(cfg, 64)
    prof = linear_solver.glued_curvature_profile(cfg, grid)
    rep = yamabe.picard_solve(cfg, resolution=64, grid=grid, profile=prof)
    assert yamabe.verify_constant_curvature(rep, cfg).post_dev < rep.pre_dev


def _verify_points(cfg):
    """The s of verify_constant_curvature's samples: neck t, then cap-1 and cap-2 r."""
    T = cfg.t_max
    ts = np.linspace(-(T - 0.4), T - 0.4, yamabe.VERIFY_NECK_SAMPLES)
    rs = np.linspace(1.05, 0.85 * cfg.model_1.r_max, yamabe.VERIFY_CAP_SAMPLES)
    return np.concatenate([ts, -T - np.log(rs), T + np.log(rs)])


def _rounding_bars(v, h):
    """The spline-derivative rounding term of fd_err for orders 0, 1, 2."""
    return [linear_solver.ROUNDING_ULPS * np.finfo(float).eps * np.max(np.abs(v)) / h**j
            for j in range(3)]


@pytest.mark.parametrize("name", ["torus2_x_sphere3", "sphere2_x_sphere3"])
@pytest.mark.parametrize("resolution", [16, 64, 256])
def test_spline_matches_scipy_interpolate(name, resolution):
    # scipy.interpolate is the oracle here only: the package never imports it
    from scipy.interpolate import make_interp_spline

    model = geometry.make_model(name)
    rng = np.random.default_rng(resolution)
    for eps in (0.05, 1e-2, 1e-3, 1e-4):
        cfg = gluing.GluingConfig(model, model, eps=eps)
        s = linear_solver.build_grid(cfg, resolution).s
        v = 0.1 * np.exp(-0.1 * s**2) + 1e-3 * rng.standard_normal(s.size)
        spline, oracle = yamabe.InterpolatingSpline(s, v), make_interp_spline(s, v, k=5)
        assert np.array_equal(spline.knots, oracle.t)
        assert np.max(np.abs(spline.coef - oracle.c)) <= 1e-14 * np.max(np.abs(oracle.c))
        x = np.concatenate([_verify_points(cfg), s[[0, 1, -2, -1]]])
        jet = spline.jet(x)
        for j, (got, bar) in enumerate(zip((jet.v, jet.d, jet.dd),
                                           _rounding_bars(v, np.min(np.diff(s))))):
            assert np.max(np.abs(got - oracle(x, j))) <= bar, (eps, j)


@pytest.mark.parametrize("s, v, match", [
    (np.linspace(0.0, 1.0, 5), np.ones(5), "at least 6 nodes"),
    (np.linspace(1.0, 0.0, 12), np.sin(3 * np.linspace(1.0, 0.0, 12)), "strictly increasing"),
    (np.r_[0.0, 0.1, 0.1, 0.3, 0.4, 0.5, 0.6], np.ones(7), "strictly increasing"),
    (np.linspace(0.0, 1.0, 12), np.ones(11), r"v has shape \(11,\)"),
])
def test_spline_refuses_nodes_it_cannot_interpolate(s, v, match):
    # 5 nodes gave all-NaN coefficients with RuntimeWarnings, a decreasing s
    # a spline that missed its own nodes by 0.215
    with pytest.raises(ValueError, match=match):
        yamabe.InterpolatingSpline(s, v)


def test_spline_does_not_extrapolate():
    s = np.linspace(0.0, 1.0, 12)
    spline = yamabe.InterpolatingSpline(s, np.sin(3 * s))
    assert np.allclose(spline.jet(s[[0, -1]]).v, np.sin(3 * s[[0, -1]]), rtol=0, atol=1e-15)
    for x in (-1e-9, 1.0 + 1e-9, math.nan):
        with pytest.raises(ValueError, match=r"x must lie in \[0.0, 1.0\]"):
            spline.jet(np.array([0.5, x]))


def test_spline_reproduces_quintics_on_a_nonuniform_grid(rng):
    s = np.cumsum(rng.uniform(0.2, 1.8, 40))
    p = np.polynomial.Polynomial(rng.uniform(-1.0, 1.0, yamabe.SPLINE_DEGREE + 1))
    x = np.concatenate([rng.uniform(s[0], s[-1], 50), s[[0, 1, -2, -1]]])
    jet = yamabe.InterpolatingSpline(s, p(s)).jet(x)
    for j, (got, bar) in enumerate(zip((jet.v, jet.d, jet.dd),
                                       _rounding_bars(p(s), np.min(np.diff(s))))):
        assert np.max(np.abs(got - p.deriv(j)(x))) <= bar, j


def test_verify_evaluates_the_profile_once(monkeypatch, cfg05, report05):
    # neck curvature and Laplacian coefficients share one set of profile jets
    calls = []
    for name in ("warp", "warp_jets"):
        real = getattr(gluing.GluingConfig, name)

        def counted(self, t, real=real, name=name):
            calls.append(name)
            return real(self, t)

        monkeypatch.setattr(gluing.GluingConfig, name, counted)
    yamabe.verify_constant_curvature(report05, cfg05)
    assert calls == ["warp_jets"]


def _coef_by_masked_scatter(s, v):
    """Spline coefficients with every collocation row packed by one masked scatter."""
    k, n = yamabe.SPLINE_DEGREE, s.size
    half = (k + 1) // 2
    knots = np.concatenate([np.full(k + 1, s[0]), s[half:-half], np.full(k + 1, s[-1])])
    i = np.arange(n)
    ell = np.clip(i + half, k, n - 1)
    t = yamabe._knots_near(knots, ell)
    B = np.ones((1, n))
    for _ in range(k):
        B = yamabe._raise_degree(B, t, s)
    kl = k - 1
    j = ell - k + np.arange(k + 1)[:, None]
    band = np.abs(i - j) <= kl
    ab = np.zeros((3 * kl + 1, n), order="F")
    ab[(2 * kl + i - j)[band], j[band]] = B[band]
    return lapack.dgbsv(kl, kl, ab, v)


def test_spline_band_packing_keeps_every_bit(rng):
    meshes = [np.cumsum(rng.uniform(0.2, 1.8, 40)), np.linspace(0.0, 1.0, 6)]
    for eps in (0.02, 2e-3):
        model = geometry.make_model("torus2_x_sphere3")
        meshes.append(linear_solver.build_grid(gluing.GluingConfig(model, model, eps=eps), 256).s)
    for s in meshes:
        v = np.cos(s) + 1e-3 * rng.standard_normal(s.size)
        got = yamabe.InterpolatingSpline(s, v).coef
        assert got.tobytes() == _coef_by_masked_scatter(s, v).tobytes(), s.size


@pytest.mark.parametrize("name", ["torus2_x_sphere3", "sphere2_x_sphere3"])
@pytest.mark.parametrize("eps, resolution", [(0.16, 16), (0.02, 64), (2e-3, 256), (1e-4, 512)])
def test_spline_solve_gives_the_bits_of_scipy_dgbsv(name, eps, resolution, monkeypatch):
    # scipy.linalg.lapack is the oracle only: the spline's band factored in
    # place and its coefficients, bit for bit
    from scipy.linalg import lapack as scipy_lapack
    calls = []

    def recording(kl, ku, ab, b):
        calls.append((kl, ku, ab.copy(order="F"), b.copy()))
        calls.append((ab, lapack.dgbsv(kl, ku, ab, b)))
        return calls[-1][1]
    monkeypatch.setattr(yamabe, "dgbsv", recording)
    model = geometry.make_model(name)
    s = linear_solver.build_grid(gluing.GluingConfig(model, model, eps=eps), resolution).s
    spline = yamabe.InterpolatingSpline(s, np.cos(s))
    (kl, ku, ab, b), (factored, x) = calls
    theirs = scipy_lapack.dgbsv(kl, ku, ab, b)
    assert factored.tobytes() == theirs[0].tobytes() and x.tobytes() == theirs[2].tobytes()
    assert spline.coef is x and theirs[3] == 0


def test_sweep_records_an_unconverged_solve_as_an_error_row(model_a):
    # picard_solve reports a solve that stops at max_iter as unconverged;
    # the sweep must not record it as a converged row
    cfgs = {e: gluing.GluingConfig(model_a, model_a, eps=e) for e in (0.05, 0.02)}
    assert not yamabe.picard_solve(cfgs[0.05], resolution=64, max_iter=3).converged
    table = yamabe.convergence_sweep(cfgs.__getitem__, list(cfgs), resolution=64, max_iter=3)
    for row in table.rows:
        assert row.error.startswith("NoConvergence: Picard stopped after 3 iterations "
                                    "with its last increment ")
        assert row.iters == 0 and math.isnan(row.sup_v)
    assert math.isnan(table.slope)
    assert not any(r.error for r in yamabe.convergence_sweep(cfgs.__getitem__, list(cfgs), resolution=64).rows)


def test_max_iter_below_one_is_refused_by_name(model_a):
    # a ValueError naming the parameter, from the solve and from the sweep,
    # in place of max() on an empty history
    cfg = gluing.GluingConfig(model_a, model_a, eps=0.05)
    with pytest.raises(ValueError, match="max_iter must be >= 1, got 0"):
        yamabe.picard_solve(cfg, resolution=64, max_iter=0)
    with pytest.raises(ValueError, match="max_iter must be >= 1, got -1"):
        yamabe.convergence_sweep(lambda e: cfg, [0.05], resolution=64, max_iter=-1)


def test_sweep_refuses_a_repeated_eps(model_a, monkeypatch):
    # eps 0.02 was solved twice and its slope fit through coincident points
    monkeypatch.setattr(yamabe, "picard_solve", None)  # refused before any solve
    with pytest.raises(ValueError, match=r"eps 0\.02 is listed more than once"):
        yamabe.convergence_sweep(lambda e: gluing.GluingConfig(model_a, model_a, eps=e),
                                 [0.02, 0.04, 0.02], resolution=64)


@pytest.mark.parametrize("tol", [-1.0, 0.0, math.nan, math.inf])
def test_tol_that_is_not_positive_and_finite_is_refused_by_name(model_a, tol):
    # tol = -1 or NaN ran all max_iter iterations into an unconverged report
    cfg = gluing.GluingConfig(model_a, model_a, eps=0.05)
    with pytest.raises(ValueError, match=f"tol must be positive and finite, got {tol}"):
        yamabe.picard_solve(cfg, resolution=64, tol=tol)


def test_sweep_of_no_eps_is_refused_by_name(model_a):
    # a ValueError naming the parameter, in place of an IndexError on cfgs[0]
    with pytest.raises(ValueError, match="eps_list"):
        yamabe.convergence_sweep(lambda e: gluing.GluingConfig(model_a, model_a, eps=e), [], resolution=64)


def _fitted_ball_verdict(eps, n, delta, r_run):
    """The fitted test the ball replaced: r_run <= min(1/2, r_eps), with

    r_eps = eps^{nu-delta} / (2 C) and the constant C = r_run / (eps^{nu+delta}
    + eps + eps^{delta-nu} r_run^2) fitted from the largest iterate r_run.
    """
    nu = (n - 2) / 2
    C = r_run / (eps ** (nu + delta) + eps + eps ** (delta - nu) * r_run**2)
    return r_run <= min(0.5, eps ** (nu - delta) / (2.0 * C))


@pytest.mark.parametrize("n", [3, 4, 5])
def test_smallness_ball_gives_the_fitted_verdict(n):
    # the fitted constant cancels: r_run <= r_eps exactly when r_run^2 <=
    # eps^{n-2} + eps^{1+nu-delta}, so the two tests agree off the boundary
    lo, hi = max(0.0, (n - 4) / 2), (n - 2) / 2
    verdicts = set()
    for eps in np.geomspace(1e-4, 0.16, 25):
        for delta in np.linspace(lo, hi, 7)[1:-1]:
            cfg = types.SimpleNamespace(eps=eps, n=n, nu=(n - 2) / 2, delta=delta)
            ball = yamabe.smallness_ball(cfg)
            for r_run in np.linspace(0.5, 0.0, 64, endpoint=False):
                if abs(r_run - ball) <= 1e-12 * ball:
                    continue
                verdict = bool(r_run <= ball)
                assert verdict == _fitted_ball_verdict(eps, n, delta, r_run), (eps, delta, r_run)
                verdicts.add(verdict)
    assert verdicts == {True, False}


@pytest.mark.parametrize("name, eps, sup, ball", [
    ("sphere2_x_sphere3", 0.045, "2.915e-01", "2.631e-01"),
    ("torus2_x_sphere3", 0.08, "3.847e-01", "3.582e-01"),
])
def test_picard_stops_at_the_first_iterate_outside_the_ball(name, eps, sup, ball):
    # a diverging solve stops at its first iterate outside the ball and
    # names that iterate's sup|v| with the radius
    model = geometry.make_model(name)
    cfg = gluing.GluingConfig(model, model, eps=eps)
    assert f"{yamabe.smallness_ball(cfg):.3e}" == ball
    with pytest.raises(IterationDiverged) as exc:
        yamabe.picard_solve(cfg, resolution=64)
    assert str(exc.value) == (f"iterate sup|v| = {sup} leaves the smallness ball "
                              f"of radius {ball}")


def test_sweep_of_an_exact_solution_has_a_nan_rate(model_flat):
    # v = 0 at every eps: sup_v is 0, which has no log, so the slope is NaN
    # with no RuntimeWarning (an error under the suite's filterwarnings)
    table = yamabe.convergence_sweep(
        lambda e: gluing.SyntheticExactConfig(model_flat, model_flat, eps=e), [0.05, 0.02], resolution=64)
    assert [r.sup_v for r in table.rows] == [0.0, 0.0]
    assert not any(r.error for r in table.rows)
    assert math.isnan(table.slope) and all(math.isnan(r.slope_so_far) for r in table.rows)
