import math

import numpy as np
import pytest

from cscglue import geometry, gluing, linear_solver, neck_analysis as na
from cscglue.curvature import DerivativeScheme, laplace_beltrami, scalar_curvature
from cscglue.errors import DeltaOutOfRange, EpsilonTooLarge, NotResolved


def test_deviation_profile_structure(cfg05):
    prof = na.deviation_profile(cfg05)
    T = cfg05.t_max
    assert prof.t[0] == pytest.approx(math.log(cfg05.eps) + 1.0)
    assert prof.t[-1] == pytest.approx(T - 1.0)
    assert np.all(prof.sup_dev >= 0.0)
    assert np.all(np.isfinite(prof.fd_err))
    # the fitted constant is the weighted sup, so the bound holds on-grid
    resolved = prof.resolved
    assert np.all(prof.sup_dev[resolved]
                  <= prof.c_fit * prof.bound_shape[resolved] * (1 + 1e-12))
    # center value obeys the fitted c * eps^{-1} bound
    mid = np.argmin(np.abs(prof.t))
    assert prof.sup_dev[mid] <= prof.c_fit / cfg05.eps
    # probe entry is the window edge
    assert prof.probe_dev == prof.sup_dev[0]


def test_deviation_profile_explicit_grid(cfg05):
    prof = na.deviation_profile(cfg05, t_grid=np.linspace(-1.8, 1.8, 19))
    default = na.deviation_profile(cfg05)
    # the probe is pinned to the window edge regardless of the grid
    assert prof.probe_dev == default.probe_dev
    assert prof.t[0] == pytest.approx(-1.8)
    with pytest.raises(ValueError):
        na.deviation_profile(cfg05, t_grid=np.array([0.0, cfg05.t_max - 0.5]))


def test_weighted_sup_uniform_small_eps(model_a):
    fit = na.deviation_fit(
        lambda e: gluing.GluingConfig(model_a, model_a, eps=e),
        [0.02, 0.04, 0.08])
    assert fit.weighted_ratio <= 10.0


def test_probe_rate_asymptotic(model_a):
    # the edge deviation decays at the codimension rate once eps is small
    fit = na.deviation_fit(
        lambda e: gluing.GluingConfig(model_a, model_a, eps=e),
        [0.02, 0.04])
    assert fit.probe_slope >= 0.7


def test_deviation_synthetic_unresolved(model_flat):
    cfg = gluing.GluingConfig(model_flat, model_flat, eps=0.05)
    field = gluing.synthetic_exact_metric(cfg)
    with pytest.raises(NotResolved):
        na.deviation_profile(cfg, warp=gluing.synthetic_exact_warp(cfg))
    # and the raw deviation really is at the numerical floor
    ts = np.linspace(math.log(cfg.eps) + 1.0, 0.0, 9)
    pts = np.zeros((9, 5))
    pts[:, 0], pts[:, 1] = 1.13, 0.58
    pts[:, 2] = ts
    pts[:, 3], pts[:, 4] = 1.0831, 0.47
    s, _ = scalar_curvature(field, ("neck", pts))
    assert np.max(np.abs(s - model_flat.S)) <= 1e-5


@pytest.mark.parametrize("name", ["torus2_x_sphere3", "sphere2_x_sphere3"])
def test_conjugation_bounded_over_sweep(name):
    model = geometry.make_model(name)
    ratios = []
    for eps in (0.02, 0.04, 0.08, 0.16):
        cfg = gluing.GluingConfig(model, model, eps=eps)
        ratios.append(na.conjugation_residual(cfg).max_ratio)
    assert max(ratios) <= 1.0  # O(|x|)-sized remainder, fitted constant


def test_conjugation_exact_for_flat_normal(model_flat):
    for eps in (0.02, 0.05):
        cfg = gluing.GluingConfig(model_flat, model_flat, eps=eps)
        T = cfg.t_max
        ts = np.array([-(T - 2.2), -(T - 2.5), T - 2.5, T - 2.2])
        rep = na.conjugation_residual(cfg, t_samples=ts,
                                      scheme=DerivativeScheme(8e-3, 3))
        assert rep.max_ratio <= 1e-8


@pytest.mark.parametrize("name", ["torus2_x_sphere3", "sphere2_x_sphere3"])
@pytest.mark.parametrize("eps", [0.02, 0.08])
@pytest.mark.parametrize("probe", ["const", "wavy"])
def test_separable_laplacian_matches_5d_engine(name, eps, probe):
    # the 1-D Delta_g v of a separable probe must agree with the 5-D
    # Laplace-Beltrami of the full glued metric within its error bar
    model = geometry.make_model(name)
    cfg = gluing.GluingConfig(model, model, eps=eps)
    k = model.k
    t = na.conjugation_residual(cfg).t
    a, Y, Z = na.PROBES[probe]
    lap, _ = na.separable_terms(cfg, gluing.Jet.lift(a(gluing.Jet.variable(t))),
                                na.factor_laplacians(cfg, Y, Z),
                                na.neck_coefficients(cfg, t))
    pts = np.zeros((t.size, model.m))
    pts[:, :k] = linear_solver._z_sample(model)
    pts[:, k] = t
    pts[:, k + 1:] = linear_solver._theta_sample(model.n)
    ref, err = laplace_beltrami(
        gluing.glued_metric(cfg),
        lambda c: a(c[..., k]) * Y(c[..., k + 1:]) * Z(c[..., :k]), ("neck", pts))
    assert np.all(np.abs(lap - ref) <= err)


def test_conjugation_never_builds_the_glued_field(monkeypatch, model_a):
    def forbidden(*args, **kwargs):
        raise AssertionError("conjugation_residual sampled the glued components")

    monkeypatch.setattr(gluing, "_warped_components", forbidden)
    monkeypatch.setattr(na, "glued_metric", forbidden)
    cfg = gluing.GluingConfig(model_a, model_a, eps=0.05)
    assert na.conjugation_residual(cfg).max_ratio <= 1.0


def test_ell_leading_annihilates_critical_exponential(cfg05):
    _, Y, Z = na.PROBES["const"]
    w = (lambda t: np.exp(cfg05.nu * t), Y, Z)
    vals = na.ell_leading(cfg05, w, np.array([-1.2, 0.0, 0.8]))
    assert np.max(np.abs(vals)) <= 1e-6


def test_barrier_constant_values():
    assert na.barrier_constant(3, 0.0) == pytest.approx(1.0 / 8.0)
    assert na.barrier_constant(3, 0.3) == pytest.approx(0.08)
    # near-extremal delta: tiny constant, very small induced eps_alpha
    C = na.barrier_constant(3, 0.49)
    assert C == pytest.approx(0.5 * (0.25 - 0.2401))
    assert na.induced_eps_alpha(3, 0.49) == pytest.approx(C)


def test_barrier_margins_nonnegative(model_a):
    for eps, alpha in ((0.05, 2.7), (0.02, 3.0)):
        for delta in (-0.3, 0.0, 0.3):
            cfg = gluing.GluingConfig(model_a, model_a, eps=eps, alpha=alpha)
            rep = na.barrier_margin(cfg, delta=delta)
            assert rep.C == pytest.approx(0.5 * (0.25 - delta**2))
            assert np.all(np.isfinite(rep.margins))
            assert rep.min_margin >= 0.0


@pytest.mark.parametrize("name", ["torus2_x_sphere3", "sphere2_x_sphere3"])
@pytest.mark.parametrize("eps", [0.02, 0.005])
@pytest.mark.parametrize("delta", [-0.3, 0.0, 0.3])
def test_barrier_margins_match_5d_engine(name, eps, delta):
    # phi_delta depends on t alone: the 1-D margins must agree with the
    # 5-D Laplace-Beltrami of the full glued metric within its error bar
    model = geometry.make_model(name)
    cfg = gluing.GluingConfig(model, model, eps=eps)
    rep = na.barrier_margin(cfg, delta=delta)
    k, n = model.k, model.n
    pts = np.zeros((rep.t.size, model.m))
    pts[:, :k] = geometry.Z_SAMPLE_SPHERE2[:k]
    pts[:, k] = rep.t
    pts[:, k + 1:] = geometry.THETA_SAMPLE[:n - 1]
    lap, err = laplace_beltrami(
        gluing.glued_metric(cfg), lambda c: na.barrier_profile(cfg, delta, c[..., k]),
        ("neck", pts))
    margins = -(lap + rep.C * cfg.u(rep.t) ** (-4.0 / (n - 2))
                * na.barrier_profile(cfg, delta, rep.t))
    assert np.all(np.abs(rep.margins - margins) <= err)


def test_barrier_preconditions(model_a):
    cfg = gluing.GluingConfig(model_a, model_a, eps=0.05, alpha=3.0)
    with pytest.raises(DeltaOutOfRange):
        na.barrier_margin(cfg, delta=0.6)
    # log(0.05) + 3 > 0: the margin region is empty at this pair
    with pytest.raises(EpsilonTooLarge):
        na.barrier_margin(cfg, delta=0.3)
    # alpha too small for the constant: e^{-2} > 0.08
    cfg = gluing.GluingConfig(model_a, model_a, eps=0.02, alpha=2.0)
    with pytest.raises(EpsilonTooLarge):
        na.barrier_margin(cfg, delta=0.3)


def test_local_estimate_harmonic_and_barrier_probes(model_a):
    for eps in (0.02, 0.05, 0.16):
        cfg = gluing.GluingConfig(model_a, model_a, eps=eps, alpha=1.2)
        rep = na.local_estimate_ratio(cfg)
        named = dict(rep.per_probe)
        # harmonic extension of boundary data 1: the maximum principle
        # pins the ratio at one
        assert named["harmonic-extension"] <= 1.0 + 1e-10
        # the barrier profile's own pair: the right side dominates
        assert named["barrier-profile"] <= 1.05
        assert np.isfinite(rep.max_ratio)


def test_local_estimate_ratio_homogeneity(model_a):
    cfg = gluing.GluingConfig(model_a, model_a, eps=0.05, alpha=2.7)
    from cscglue.linear_solver import build_grid, glued_curvature_profile
    grid = build_grid(cfg, 48)
    prof, _ = glued_curvature_profile(cfg, grid)
    T = cfg.t_max
    i0 = int(np.argmin(np.abs(grid.s + (T - cfg.alpha))))
    i1 = int(np.argmin(np.abs(grid.s - (T - cfg.alpha))))
    f = np.zeros(grid.size)
    f[i0 + 2:i1 - 2] = 1.0
    base = na.local_estimate_ratio(cfg, grid=grid, profile=prof,
                                   probes=[("f", f, 0.2, 0.1)])
    scaled = na.local_estimate_ratio(cfg, grid=grid, profile=prof,
                                     probes=[("f", 7.3 * f, 7.3 * 0.2, 7.3 * 0.1)])
    assert scaled.max_ratio == pytest.approx(base.max_ratio, rel=1e-12)
