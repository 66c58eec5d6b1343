import math

import numpy as np
import pytest

from cscglue import (curvature, geometry, gluing, linear_solver, neck_analysis,
                     yamabe)
from cscglue.errors import DeltaOutOfRange, IterateOutOfBall


def test_constants_dimension_five():
    consts = yamabe.YamabeConstants(5)
    assert consts.c == pytest.approx(-3.0 / 16.0)
    assert consts.p == pytest.approx(7.0 / 3.0)
    with pytest.raises(ValueError):
        yamabe.YamabeConstants(2)


def test_F_eps_affine_part():
    consts = yamabe.YamabeConstants(5)
    s_dev = np.array([0.5, -1.0, 2.0])
    out = yamabe.F_eps(np.zeros(3), s_dev, consts, 6.0)
    assert np.allclose(out, consts.c * s_dev, rtol=0, atol=1e-15)
    out = yamabe.F_eps(np.zeros(3), np.zeros(3), consts, 6.0)
    assert np.max(np.abs(out)) == 0.0


def test_F_eps_quadratic_coefficient():
    # with S_glued = S the leading term is c S p(p-1)/2 v^2 = c S (14/9) v^2
    consts = yamabe.YamabeConstants(5)
    S = 6.0
    v = np.array([1e-3])
    out = yamabe.F_eps(v, np.zeros(1), consts, S)
    lead = consts.c * S * (14.0 / 9.0) * v**2
    cubic = consts.c * S * (7 / 3) * (4 / 3) * (1 / 3) / 6 * v**3
    assert abs(out[0] - lead[0]) <= 1e-7
    assert out[0] - lead[0] == pytest.approx(cubic[0], rel=1e-2)


def test_F_eps_smallness_regime():
    consts = yamabe.YamabeConstants(5)
    with pytest.raises(IterateOutOfBall):
        yamabe.F_eps(np.array([0.6]), np.zeros(1), consts, 6.0)


def test_picard_convergence_certificates(report05):
    rep = report05
    assert rep.converged
    assert rep.iterations <= 30
    assert rep.residual <= 1e-10
    assert rep.residual <= 10 * 1e-11  # residual identity at default tol
    assert rep.mirror_defect <= 1e-10
    assert rep.v.sup() <= min(0.5, rep.r_eps)
    # increments eventually decrease monotonically
    inc = rep.increments
    assert all(a > b for a, b in zip(inc[1:-1], inc[2:]))
    assert 0 < rep.contraction < 1


def test_picard_monotone_shrinkage(model_a):
    sups = []
    for eps in (0.02, 0.04, 0.05):
        cfg = gluing.GluingConfig(model_a, model_a, eps=eps)
        sups.append(yamabe.picard_solve(cfg).v.sup())
    assert sups[0] <= sups[1] <= sups[2]


def test_picard_synthetic_exact_returns_zero(model_flat):
    cfg = gluing.GluingConfig(model_flat, model_flat, eps=0.05)
    rep = yamabe.picard_solve(cfg, warp=gluing.synthetic_exact_warp(cfg))
    assert rep.v.sup() <= 1e-8


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
    t = np.array([x for chart, x in chk.samples if chart == "neck"])
    S_neck, _ = linear_solver.neck_scalar_curvature(cfg05, t)
    S_g = np.concatenate([S_neck, np.full(len(chk.samples) - t.size, cfg05.S)])
    expected = np.abs((1 + c) ** (-4.0 / (cfg05.m - 2)) * S_g - cfg05.S)
    # to rounding: the spline's derivatives of constant data are ~ 1e-12
    assert np.max(np.abs(chk.post_values - expected)) <= chk.fd_err


def test_verify_constancy_and_caps(cfg05, report05):
    chk = yamabe.verify_constant_curvature(report05, cfg05)
    assert chk.post_dev <= max(10 * chk.fd_err, chk.pre_dev / 50.0)
    # far cap points: conformal to the summands with a slowly varying
    # factor there, so only discretization-level deviation remains
    cap_devs = [d for (chart, _), d in zip(chk.samples, chk.post_values)
                if chart != "neck"]
    assert len(cap_devs) == 12
    assert max(cap_devs) <= 1e-2


def test_sweep_delta_precondition(model_a):
    with pytest.raises(DeltaOutOfRange):
        yamabe.convergence_sweep(
            lambda e: gluing.GluingConfig(model_a, model_a, eps=e, delta=0.3),
            [0.02], delta=-0.1)
    with pytest.raises(DeltaOutOfRange):
        yamabe.convergence_sweep(
            lambda e: gluing.GluingConfig(model_a, model_a, eps=e, delta=0.3),
            [0.02], delta=0.55)


def test_sweep_records_divergence_and_continues(model_a):
    # at eps = 0.08 the iterates leave the smallness ball: the row must
    # record the failure while the remaining rows still complete
    table = yamabe.convergence_sweep(
        lambda e: gluing.GluingConfig(model_a, model_a, eps=e),
        [0.04, 0.08], resolution=48, verify=False)
    by_eps = {r.eps: r for r in table.rows}
    assert by_eps[0.08].error != ""
    assert "IterationDiverged" in by_eps[0.08].error
    assert by_eps[0.04].error == ""
    assert math.isfinite(by_eps[0.04].sup_v)


def test_picard_second_model(model_b):
    # curved K block through the whole pipeline
    cfg = gluing.GluingConfig(model_b, model_b, eps=0.02)
    rep = yamabe.picard_solve(cfg)
    assert rep.converged
    assert rep.v.sup() <= min(0.5, rep.r_eps)
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
    rep = yamabe.picard_solve(cfg, grid=grid, profile=prof)
    assert yamabe.verify_constant_curvature(rep, cfg).post_dev < rep.pre_dev
    neck_analysis.deviation_profile(cfg)
    assert neck_analysis.barrier_margin(cfg, delta=0.3).min_margin >= 0.0
    neck_analysis.local_estimate_ratio(cfg, grid=grid, profile=prof[0])
