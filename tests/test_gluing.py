import dataclasses
import math
import operator

import mpmath as mp
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
    with pytest.raises(ValueError):  # the same geometry under another name
        gluing.GluingConfig(model_a, dataclasses.replace(model_a, name="copy"), eps=0.05)
    for alpha in (0.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            gluing.GluingConfig(model_a, model_a, eps=0.05, alpha=alpha)
    with pytest.raises(ValueError, match="ball"):  # the fixture's normal block is flat
        gluing.SyntheticExactConfig(model_a, model_a, eps=0.05)


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


def test_neck_domain_rejects_nan():
    # every comparison with NaN is false, so a test written as "t outside
    # the neck" lets NaN through and the profiles return NaN
    with pytest.raises(OutOfNeck):
        gluing.chi(math.nan, 0.05)
    with pytest.raises(OutOfNeck):
        gluing.u_eps(math.nan, 0.05, 3)
    with pytest.raises(OutOfNeck):
        gluing.eta(np.array([0.0, math.nan]), 0.05)


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
    # at the seams t = -+log eps (r = 1) the neck components equal the
    # summand's cap components pulled back by r = eps e^{-+t}: g_tt = r^2 g_rr
    eps, k = cfg05.eps, cfg05.k
    z = (0.73, 1.41)
    th = (1.0831, 0.47)
    for model, sgn in ((cfg05.model_1, -1.0), (cfg05.model_2, 1.0)):
        t_seam = -sgn * math.log(eps)
        r = eps * math.exp(sgn * t_seam)
        pulled = geometry.fermi_metric(model).components(
            "cap-1", np.array([*z, r, *th]))
        pulled[k, k] *= r**2
        direct = glued05.components("neck", np.array([*z, t_seam, *th]))
        scale = np.max(np.abs(direct))
        assert np.max(np.abs(pulled - direct)) <= 1e-10 * scale


@pytest.mark.parametrize("name", ["torus2_x_sphere3", "sphere2_x_sphere3"])
@pytest.mark.parametrize("eps", [0.16, 0.05, 1e-3, 1e-4])
def test_glued_warp_is_the_summand_beyond_the_seams(name, eps):
    # at |t| >= -log eps the profiles are the summand's normal block
    # dr^2 + f(r)^2 g_{S^{n-1}} written in t: U = r^2 and U q = f(r)^2 with
    # r = eps e^{|t|}, all the way to r = r_max on both sides
    model = geometry.make_model(name)
    cfg = gluing.GluingConfig(model, model, eps=eps)
    t_cap = np.linspace(cfg.t_max, cfg.t_max + math.log(model.r_max), 400)
    r = eps * np.exp(t_cap)
    f_sq = geometry.normal_radius(model.normal_factor, r) ** 2
    for t in (-t_cap, t_cap):
        u, q = cfg.warp(t)
        U = u ** (4.0 / (cfg.n - 2))
        assert np.max(np.abs(U - r**2) / r**2) <= 1e-12
        assert np.max(np.abs(U * q - f_sq) / f_sq) <= 1e-12


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


def test_psi_weight_values(cfg05):
    assert gluing.psi_of_t(0.0, cfg05) == pytest.approx(cfg05.eps)
    # a cap point at r = 2 sits at t = log eps - log r
    assert gluing.psi_of_t(math.log(cfg05.eps) - math.log(2.0), cfg05) == 1.0
    # monotone in |t| and within (0, 1]
    t = np.linspace(0.0, cfg05.t_max + 0.5, 300)
    psi = gluing.psi_of_t(t, cfg05)
    assert np.all(np.diff(psi) >= -1e-15)
    assert np.all((psi > 0) & (psi <= 1.0))


def test_psi_weight_tube_bracket(model_a):
    # psi is pinned between |x|/2 and 2|x| on the side-1 tube, |x| = r1
    cfg = gluing.GluingConfig(model_a, model_a, eps=0.02)
    r1 = np.linspace(0.05, 0.9, 60)
    psi = gluing.psi_of_t(math.log(cfg.eps) - np.log(r1), cfg)
    assert np.all(psi >= 0.5 * r1)
    assert np.all(psi <= 2.0 * r1)


def test_synthetic_exact_curvature(model_flat):
    from cscglue.curvature import scalar_curvature

    cfg = gluing.SyntheticExactConfig(model_flat, model_flat, eps=0.05)
    field = gluing.glued_metric(cfg)
    ts = np.array([-2.5, -1.0, 0.0, 0.7, 2.2])
    pts = np.zeros((ts.size, 5))
    pts[:, 0], pts[:, 1] = 1.13, 0.58
    pts[:, 2] = ts
    pts[:, 3], pts[:, 4] = 1.0831, 0.47
    s, err = scalar_curvature(field, ("neck", pts))
    assert np.max(np.abs(s - model_flat.S)) <= 5e-6
    # beyond the seams the same chart reaches the caps: r = eps e^{-+t}
    cap = np.array([[1.13, 0.58, 1.3, 1.0831, 0.47], [0.7, 2.1, 2.4, 2.0, 4.0]])
    for sgn in (-1.0, 1.0):
        pts = cap.copy()
        pts[:, 2] = sgn * (np.log(cap[:, 2]) - math.log(cfg.eps))
        s, err = scalar_curvature(field, ("neck", pts))
        assert np.max(np.abs(s - model_flat.S)) <= 1e-6, sgn


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
    grid = build_grid(cfg, 32)
    prof, _ = glued_curvature_profile(cfg, grid)
    lam = smallest_eigenvalue(assemble_L(grid, prof, s5.m))
    assert abs(lam) < 1e-3  # below the uniform-invertibility floor


def _jet_probe(x, lib, two):
    """One expression through every jet rule: +, -, *, /, pow, exp, log, sin, cos, cosh, sqrt."""
    return (lib.log(lib.sqrt(x) * lib.exp(two * x)) / (1 + lib.sin(x)) ** 2
            - lib.cosh(x) / x + (3 - x) * x ** 1.5 + two / x + lib.cos(two * x))


def test_jet_derivatives_match_mpmath():
    # numpy scalars on the left exercise the jet's __array_ufunc__ path
    t = np.linspace(0.3, 1.7, 7)
    jet = _jet_probe(gluing.Jet.variable(t), np, np.float64(2.0))
    with mp.workdps(30):
        for i, ti in enumerate(t):
            ref = [float(mp.diff(lambda x: _jet_probe(x, mp, 2), mp.mpf(ti), j))
                   for j in range(3)]
            assert [jet.v[i], jet.d[i], jet.dd[i]] == pytest.approx(ref, rel=1e-12)


def _lifted(op, a, b):
    """(v, d, dd) of a op b by the jet rules, a constant lifted to the jet (c, 0, 0)."""
    a, b = (x if isinstance(x, gluing.Jet) else gluing.Jet(x) for x in (a, b))
    if op == "-":  # a + (b * -1.0), the negation by the product rule
        op, b = "+", gluing.Jet(*_lifted("*", b, gluing.Jet(-1.0)))
    if op == "+":
        return a.v + b.v, a.d + b.d, a.dd + b.dd
    if op == "*":
        return (a.v * b.v, a.d * b.v + a.v * b.d,
                a.dd * b.v + 2.0 * a.d * b.d + a.v * b.dd)
    v = a.v / b.v
    d = (a.d - v * b.d) / b.v
    return v, d, (a.dd - 2.0 * d * b.d - v * b.dd) / b.v


@pytest.mark.parametrize("op", ["+", "-", "*", "/"])
def test_jet_constant_operands_match_the_product_rule(op, rng):
    # a constant acts on the three parts directly; that must give the bits
    # the product rule gives with the constant lifted, in either order and
    # whether the constant is a float, a numpy scalar or an array (the last
    # two reach the jet through __array_ufunc__ when on the left)
    x = gluing.Jet(*rng.uniform(0.5, 2.0, (3, 5)))
    fn = {"+": operator.add, "-": operator.sub, "*": operator.mul,
          "/": operator.truediv}[op]
    for c in (1.7, np.float64(-0.3), rng.uniform(-2.0, -0.5, 5)):
        for a, b in ((x, c), (c, x)):
            got = fn(a, b)
            assert isinstance(got, gluing.Jet)
            for part, ref in zip((got.v, got.d, got.dd), _lifted(op, a, b)):
                assert np.broadcast_to(part, (5,)).tobytes() == ref.tobytes()
    neg = -x
    assert all(np.array_equal(p, -q) for p, q in zip((neg.v, neg.d, neg.dd),
                                                      (x.v, x.d, x.dd)))


def test_mollifier_jet_matches_mpmath():
    # B(s) = E(s) / (E(s) + E(1 - s)) with its first two derivatives, on
    # both plateaus, near their edges and inside the transition band
    def B(s):
        E = lambda x: mp.exp(-1 / x) if x > 0 else mp.mpf(0)
        return E(s) / (E(s) + E(1 - s))

    s = np.array([-0.2, 0.0, 1e-3, 0.05, 0.3, 0.5, 0.8, 0.97, 1.0, 1.3])
    jet = gluing.mollifier_step(gluing.Jet.variable(s))
    # a jet carries the array evaluation itself as its value
    assert np.array_equal(jet.v, gluing.mollifier_step(s))
    with mp.workdps(30):
        for j, got in enumerate((jet.v, jet.d, jet.dd)):
            ref = np.array([float(mp.diff(B, mp.mpf(x), j)) for x in s])
            assert np.allclose(got, ref, rtol=1e-10, atol=1e-12), j


def test_glued_warp_jet_values_equal_array_values(cfg05):
    t = np.linspace(-cfg05.t_max - 1.0, cfg05.t_max + 1.0, 41)
    (u, q), (uj, qj) = cfg05.warp(t), cfg05.warp(gluing.Jet.variable(t))
    assert np.array_equal(uj.v, u) and np.array_equal(qj.v, q)
