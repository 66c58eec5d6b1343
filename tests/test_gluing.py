import math

import numpy as np
import pytest

from cscglue import geometry, gluing
from cscglue.errors import DeltaOutOfRange, OutOfNeck


def test_config_validation(model_a, model_b):
    with pytest.raises(ValueError):
        gluing.GluingConfig(model_a, model_a, eps=0.4)  # >= e^-1
    with pytest.raises(ValueError):
        gluing.GluingConfig(model_a, model_a, eps=-0.01)
    with pytest.raises(DeltaOutOfRange):
        gluing.GluingConfig(model_a, model_a, eps=0.05, delta=0.5)
    with pytest.raises(ValueError):
        gluing.GluingConfig(model_a, model_b, eps=0.05)  # different S and K
    with pytest.raises(ValueError):
        gluing.GluingConfig(model_a, model_a, eps=0.05, cutoff_width=1.5)


def test_chi_plateaus():
    for eps in (0.02, 0.16):
        assert gluing.chi(-1.0, eps) == 1.0
        assert gluing.chi(1.0, eps) == 0.0
        t = np.linspace(math.log(eps) + 1e-9, -1.0, 50)
        assert np.all(gluing.chi(t, eps) == 1.0)
        t = np.linspace(1.0, -math.log(eps) - 1e-9, 50)
        assert np.all(gluing.chi(t, eps) == 0.0)
        # nonincreasing across the transition
        t = np.linspace(-1.2, 1.2, 200)
        assert np.all(np.diff(gluing.chi(t, eps)) <= 1e-15)


def test_eta_plateau_and_boundary_limit():
    for eps in (0.02, 0.16):
        T = -math.log(eps)
        assert gluing.eta(0.0, eps) == 1.0  # eps <= e^-1 puts 0 in the plateau
        t = np.linspace(math.log(eps) + 1e-9, T - 1.0, 50)
        assert np.all(gluing.eta(t, eps) == 1.0)
        s = np.array([0.5, 0.2, 0.1, 0.02, 0.005])
        vals = gluing.eta(T - s, eps)
        assert np.all(np.diff(vals) <= 0)  # monotone to zero
        assert vals[-1] <= 1e-10


def test_neck_domain_enforced():
    with pytest.raises(OutOfNeck):
        gluing.chi(5.0, 0.05)
    with pytest.raises(OutOfNeck):
        gluing.eta(-4.0, 0.05)
    with pytest.raises(OutOfNeck):
        gluing.u_eps(3.1, 0.05, 3)


def _second_differences(f, t0, hs):
    return np.array([(f(t0 + h) - 2 * f(t0) + f(t0 - h)) / h**2 for h in hs])


def test_cutoffs_c2_at_plateau_junctions(cfg05):
    # second divided differences converge under refinement at junctions
    eps = cfg05.eps
    T = cfg05.t_max
    hs = np.array([4e-3, 2e-3, 1e-3, 5e-4])
    cases = [
        (lambda t: gluing.chi(t, eps), -1.0),          # chi plateau edge
        (lambda t: gluing.eta(t, eps), T - 1.0),       # eta plateau edge
        (lambda t: gluing.u_eps(t, eps, 3), T - 1.0),  # blended profile
        (lambda t: gluing.psi_of_t(t, cfg05), max(0.0, T - cfg05.alpha)),
    ]
    for f, t0 in cases:
        d2 = _second_differences(f, t0, hs)
        steps = np.abs(np.diff(d2))
        assert steps[-1] <= max(0.5 * steps[0], 1e-6)


def test_u_eps_values(cfg05):
    eps, n = cfg05.eps, cfg05.n
    assert gluing.u_eps(0.0, eps, n) == pytest.approx(2.0 * eps ** ((n - 2) / 2))
    # plateau identity u = u1 (1 + h), h = e^{(n-2)t}
    t = np.linspace(math.log(eps) + 1.0, -1.0, 20)
    u1 = eps ** 0.5 * np.exp(-0.5 * t)
    h = np.exp(t)
    assert np.max(np.abs(gluing.u_eps(t, eps, n) - u1 * (1 + h))) <= 1e-14
    # chart edge: u -> 1 at t = log(eps), i.e. r_1 = 1
    assert gluing._u_eps_raw(math.log(eps), eps, n) == pytest.approx(1.0, abs=1e-14)
    # conformal-polar identity u1 = |x|^{(n-2)/2}
    r1 = eps * np.exp(-t)
    assert np.max(np.abs(u1 - r1 ** ((n - 2) / 2.0))) <= 1e-14


def test_glued_seam_continuity(cfg05, glued05):
    eps = cfg05.eps
    z = (0.73, 1.41)
    th = (1.0831, 0.47)
    for side, chart in ((1, "cap-1"), (2, "cap-2")):
        t_seam = math.log(eps) if side == 1 else -math.log(eps)
        pn = np.array([*z, t_seam, *th])
        pulled = glued05.pull_components("neck", chart, pn[None, :])[0]
        direct = glued05.components("neck", pn)
        scale = np.max(np.abs(direct))
        assert np.max(np.abs(pulled - direct)) <= 1e-10 * scale


def test_reflection_symmetry(cfg05, glued05):
    z = (0.73, 1.41)
    th = (1.0831, 0.47)
    for t in (0.3, 1.2, 2.5):
        a = glued05.components("neck", np.array([*z, t, *th]))
        b = glued05.components("neck", np.array([*z, -t, *th]))
        assert np.max(np.abs(a - b)) <= 1e-12


def test_reduced_form_on_plateau(cfg05, glued05, model_a):
    # neck components = summand polar components with the normal block
    # scaled by (1 + h)^{4/(n-2)}
    eps, k = cfg05.eps, cfg05.k
    for t in np.linspace(math.log(eps) + 1.2, -1.0, 7):
        pn = np.array([0.73, 1.41, t, 1.0831, 0.47])
        g = glued05.components("neck", pn)
        r1 = eps * math.exp(-t)
        h = math.exp(t)
        scale = (1 + h) ** 4
        assert g[k, k] == pytest.approx(scale * r1**2, rel=1e-12)
        assert g[k + 1, k + 1] == pytest.approx(scale * math.sin(r1) ** 2, rel=1e-12)
        assert np.allclose(g[:k, :k], np.eye(k), atol=1e-14)


def test_glued_positive_definite_sweep(model_a):
    for eps in (0.02, 0.05, 0.1, 0.15):
        cfg = gluing.GluingConfig(model_a, model_a, eps=eps)
        field = gluing.glued_metric(cfg)
        T = cfg.t_max
        ts = np.linspace(math.log(eps) + 1e-6, T - 1e-6, 41)
        pts = np.zeros((41, 5))
        pts[:, 0], pts[:, 1] = 0.73, 1.41
        pts[:, 2] = ts
        pts[:, 3], pts[:, 4] = 1.0831, 0.47
        g = field.components("neck", pts)
        assert all(geometry.is_spd(g[i]) for i in range(41))


def test_width_independence_for_identical_data(model_flat):
    # the K block is g_K itself and chi only blends q(r1) with q(r2), which
    # are both 1 for flat normal blocks; for |t| <= 1 both eta cutoffs sit
    # on their plateau, so the metric cannot see the smoothing width
    cfgs = [gluing.GluingConfig(model_flat, model_flat, eps=0.05, cutoff_width=w)
            for w in (0.4, 1.0)]
    fields = [gluing.glued_metric(c) for c in cfgs]
    for t in np.linspace(-1.0, 1.0, 9):
        pn = np.array([1.13, 0.58, t, 1.0831, 0.47])
        a = fields[0].components("neck", pn)
        b = fields[1].components("neck", pn)
        assert np.max(np.abs(a - b)) <= 4e-16 * np.max(np.abs(a))


def test_neck_atlas_roundtrip(cfg05, glued05):
    atlas = glued05.meta["atlas"]
    t = np.linspace(-2.5, 2.5, 11)
    theta = np.tile([1.0831, 0.47], (11, 1))
    x = atlas.x_of_t(t, theta, side=1)
    back = atlas.t_of_r1(np.linalg.norm(x, axis=-1))
    assert np.max(np.abs(back - t)) <= 1e-14
    # identified radii satisfy r1 r2 = eps^2
    assert np.max(np.abs(atlas.r1_of_t(t) * atlas.r2_of_t(t) - cfg05.eps**2)) <= 1e-17


def test_psi_weight_values(cfg05, glued05):
    assert gluing.psi_of_t(0.0, cfg05) == pytest.approx(cfg05.eps)
    cap_pt = glued05.point("cap-1", [0.73, 1.41, 2.0, 1.0831, 0.47])
    assert gluing.psi_weight(cap_pt, cfg05) == 1.0
    # monotone in |t| and within (0, 1]
    t = np.linspace(0.0, cfg05.t_max + 0.5, 300)
    psi = gluing.psi_of_t(t, cfg05)
    assert np.all(np.diff(psi) >= -1e-15)
    assert np.all((psi > 0) & (psi <= 1.0))


def test_psi_weight_tube_bracket(model_a):
    # psi is pinned between |x|/2 and 2|x| on the side-1 tube
    cfg = gluing.GluingConfig(model_a, model_a, eps=0.02)
    field = gluing.glued_metric(cfg)
    atlas = field.meta["atlas"]
    r1 = np.linspace(0.05, 0.9, 60)
    psi = gluing.psi_of_t(atlas.t_of_r1(r1), cfg)
    assert np.all(psi >= 0.5 * r1)
    assert np.all(psi <= 2.0 * r1)
    # and through the raw Fermi chart interface
    pt = geometry.ChartPoint("raw-fermi-1",
                             np.array([0.73, 1.41, 0.3, 0.0, 0.0]))
    expect = gluing.psi_of_t(float(atlas.t_of_r1(0.3)), cfg)
    assert gluing.psi_weight(pt, cfg) == pytest.approx(expect)


def test_synthetic_exact_curvature(model_flat):
    from cscglue.curvature import scalar_curvature

    cfg = gluing.GluingConfig(model_flat, model_flat, eps=0.05)
    field = gluing.synthetic_exact_metric(cfg)
    ts = np.array([-2.5, -1.0, 0.0, 0.7, 2.2])
    pts = np.zeros((ts.size, 5))
    pts[:, 0], pts[:, 1] = 1.13, 0.58
    pts[:, 2] = ts
    pts[:, 3], pts[:, 4] = 1.0831, 0.47
    s, err = scalar_curvature(field, ("neck", pts))
    assert np.max(np.abs(s - model_flat.S)) <= 5e-6
    # off the neck the same metric is written in cap radii and raw x
    off_neck = {
        "cap-1": [[1.13, 0.58, 1.3, 1.0831, 0.47], [0.7, 2.1, 2.4, 2.0, 4.0]],
        "cap-2": [[1.13, 0.58, 1.3, 1.0831, 0.47], [0.7, 2.1, 2.4, 2.0, 4.0]],
        "raw-fermi-1": [[1.13, 0.58, 0.216, 0.288, 0.48],
                        [0.7, 2.1, 0.9, -1.2, 0.5]],
    }
    for chart, pts in off_neck.items():
        s, err = scalar_curvature(field, (chart, np.array(pts)))
        assert np.max(np.abs(s - model_flat.S)) <= 1e-6, chart


def test_cross_chart_curvature_consistency(cfg05, glued05):
    # the same point through the cylindrical and the raw Fermi chart must
    # produce the same scalar curvature
    from cscglue.curvature import scalar_curvature

    atlas = glued05.meta["atlas"]
    th = np.array([1.0831, 0.47])
    for t0 in (-1.6, -1.1, -0.5):
        x = atlas.x_of_t(np.array([t0]), th[None, :], side=1)[0]
        s_neck = scalar_curvature(glued05, ("neck", np.array([0.73, 1.41, t0, *th])))
        s_raw = scalar_curvature(glued05, ("raw-fermi-1", np.array([0.73, 1.41, *x])))
        assert abs(s_neck.value - s_raw.value) <= 10 * (s_neck.error + s_raw.error)


def test_point_gluing_degenerate_case():
    # k = 0 (gluing at points) is accepted as a degenerate regression;
    # the failed injectivity hypothesis of round S^5 shows up as a
    # near-kernel of the glued operator
    from cscglue import build_grid, glued_curvature_profile, assemble_L, smallest_eigenvalue

    s5 = geometry.make_model("sphere5")
    cfg = gluing.GluingConfig(s5, s5, eps=0.05)
    field = gluing.glued_metric(cfg)
    pt = np.array([0.0, 1.0831, 0.9, 1.2, 0.47])
    assert geometry.is_spd(field.components("neck", pt))
    grid = build_grid(cfg, 32, field=field)
    prof, _ = glued_curvature_profile(cfg, grid, field=field)
    lam = smallest_eigenvalue(assemble_L(grid, prof, s5.m))
    assert abs(lam) < 1e-3  # below the uniform-invertibility floor
