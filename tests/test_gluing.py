import dataclasses
import math

import mpmath as mp
import numpy as np
import pytest

from cscglue import geometry, gluing
from cscglue.errors import DeltaOutOfRange, OutOfNeck
from cscglue.linear_solver import ROUNDING_ULPS


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


def test_a_normal_factor_with_no_cap_is_refused():
    # the neck fills the unit normal tube, so the seam sits at r = 1; at
    # r_max = 0.94 the grid's pole lay inside the neck (s = 4.546 against
    # t_max = 4.605 at eps 0.01)
    model = geometry.make_model("torus2_x_sphere3", sphere3_radius=0.3)
    with pytest.raises(ValueError, match="r_max = 0.942478"):
        gluing.GluingConfig(model, model, eps=0.01)


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


def test_neck_domain_rejects_nan():
    # every comparison with NaN is false, so a test written as "t outside
    # the neck" lets NaN through and the profiles return NaN
    with pytest.raises(OutOfNeck):
        gluing.chi(math.nan, 0.05)
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
        (lambda t: cfg05.warp(t)[0], T - 1.0),         # blended profile
        (lambda t: gluing.psi_of_t(t, cfg05), max(0.0, T - cfg05.alpha)),
    ]
    for f, t0 in cases:
        d2 = _second_differences(f, t0, hs)
        steps = np.abs(np.diff(d2))
        assert steps[-1] <= max(0.5 * steps[0], 1e-6)


def test_u_eps_values(cfg05):
    eps, n = cfg05.eps, cfg05.n
    assert cfg05.warp(0.0)[0] == pytest.approx(2.0 * eps ** ((n - 2) / 2))
    # plateau identity u = u1 (1 + h), h = e^{(n-2)t}
    t = np.linspace(math.log(eps) + 1.0, -1.0, 20)
    u1 = eps ** 0.5 * np.exp(-0.5 * t)
    h = np.exp(t)
    assert np.max(np.abs(cfg05.warp(t)[0] - u1 * (1 + h))) <= 1e-14
    # chart edge: u -> 1 at t = log(eps), i.e. r_1 = 1
    assert cfg05.warp(math.log(eps))[0] == pytest.approx(1.0, abs=1e-14)
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


def test_mollifier_jet_matches_mpmath():
    # B(s) = E(s) / (E(s) + E(1 - s)) with its first two closed-form
    # derivatives, on both plateaus, near their edges and inside the band
    def B(s):
        E = lambda x: mp.exp(-1 / x) if x > 0 else mp.mpf(0)
        return E(s) / (E(s) + E(1 - s))

    s = np.array([-0.2, 0.0, 1e-3, 0.05, 0.3, 0.5, 0.8, 0.97, 1.0, 1.3])
    jet = gluing._step_jet(s)
    # the value is the array evaluation itself
    assert np.array_equal(jet[0], gluing.mollifier_step(s))
    with mp.workdps(30):
        for j, got in enumerate(jet):
            ref = np.array([float(mp.diff(B, mp.mpf(x), j)) for x in s])
            assert np.allclose(got, ref, rtol=1e-10, atol=1e-12), j


def _configs():
    """One config per profile kind: a sphere normal factor with and without
    K curvature, a ball normal factor, and the synthetic fixture."""
    models = [geometry.make_model(name)
              for name in ("torus2_x_sphere3", "sphere2_x_sphere3", "sphere2_x_ball3")]
    ball = models[-1]
    return ([gluing.GluingConfig(m, m, eps=0.05) for m in models]
            + [gluing.SyntheticExactConfig(ball, ball, eps=0.05)])


def test_glued_warp_jet_values_equal_array_values():
    for cfg in _configs():
        T = cfg.t_max
        for t in (np.linspace(-T - 1.0, T + 1.0, 41), np.linspace(-(T - 0.6), T - 0.6, 9),
                  np.linspace(0.0, T + 0.5, 40), np.array([0.3]), np.array([])):
            for jet, value in zip(cfg.warp_jets(t), cfg.warp(t)):
                assert (np.broadcast_to(jet.v, np.shape(value)).tobytes()
                        == np.asarray(value, float).tobytes())


def test_warp_jets_build_only_the_jets_they_return(monkeypatch):
    made = []
    jet = gluing.Jet

    def counting(*parts):
        made.append(jet(*parts))
        return made[-1]

    monkeypatch.setattr(gluing, "Jet", counting)
    for cfg in _configs():
        T = cfg.t_max
        for t in (np.linspace(-(T - 0.6), T - 0.6, 9), np.linspace(0.0, T + 0.5, 40)):
            made.clear()
            u, q = cfg.warp_jets(t)
            assert len(made) == 2 and made[0] is u and made[1] is q


def test_jet_refuses_arithmetic():
    # a Jet is a tuple: unrefused, a ufunc would act part by part (sqrt of
    # each part is not the jet of the root), + would concatenate and * repeat
    jet = gluing.Jet(np.array([4.0, 9.0]), np.array([1.0, 2.0]), np.array([0.5, 0.5]))
    for call in (lambda: np.sqrt(jet), lambda: np.add(jet, 1.0), lambda: jet + jet,
                 lambda: jet + 1.0, lambda: (1.0,) + jet, lambda: jet * 2, lambda: 2 * jet,
                 lambda: jet * jet, lambda: np.ones(2) * jet, lambda: jet * np.ones(2)):
        with pytest.raises(TypeError):
            call()
    v, d, dd = jet  # a plain value still: unpacked, compared, replaced
    assert jet == gluing.Jet(v, d, dd) and jet._replace(dd=0.0).dd == 0.0


def _profiles_mp(cfg, t, order):
    """Derivatives of order ``order`` of (u, q) at the float t, by 40-digit
    mpmath differentiation of the gluing's definitions; T and eps are the
    program's doubles."""
    f = cfg.model_1.normal_factor
    eps, nu, T = mp.mpf(cfg.eps), mp.mpf(cfg.n - 2) / 2, mp.mpf(cfg.t_max)
    E = lambda s: mp.exp(-1 / s) if s > 0 else mp.mpf(0)
    B = lambda s: E(s) / (E(s) + E(1 - s))

    def q_N(x):
        r = eps * mp.exp(x)
        return ((f.size * mp.sin(r / f.size) if f.kind == "sphere" else r) / r) ** 2

    def u(x):
        return eps**nu * (B(T - x) * mp.exp(-nu * x) + B(T + x) * mp.exp(nu * x))

    def q(x):
        c = B((1 - x) / 2)
        return c * q_N(-x) + (1 - c) * q_N(x)

    x = mp.mpf(float(t))
    return float(mp.diff(u, x, order)), float(mp.diff(q, x, order))


@pytest.mark.parametrize("name", ["torus2_x_sphere3", "sphere2_x_sphere3", "sphere2_x_ball3"])
@pytest.mark.parametrize("eps", [0.16, 0.02, 2e-3, 1e-4])
def test_warp_jets_match_mpmath(name, eps):
    # the closed-form derivatives against a 40-digit oracle on the caps, in
    # chi's band and in both eta bands, within ROUNDING_ULPS of each part's
    # scale: |u| for u' and u'', max(1, |q|) for q' and q''
    model = geometry.make_model(name)
    cfg = gluing.GluingConfig(model, model, eps=eps)
    T = cfg.t_max
    pole = T + math.log(model.r_max - geometry.AXIS_MARGIN)
    t = np.array(sorted({sgn * x for sgn in (-1.0, 1.0) for x in (
        0.0, 0.4, 0.95, 1.5, T - 0.7, T - 0.3, T - 0.02, T + 0.2, pole - 0.01)}))
    u, q = cfg.warp_jets(t)
    bar = ROUNDING_ULPS * np.finfo(float).eps
    with mp.workdps(40):
        for j, parts in ((1, (u.d, q.d)), (2, (u.dd, q.dd))):
            ref = np.array([_profiles_mp(cfg, x, j) for x in t]).T
            for got, want, scale in zip(parts, ref,
                                        (np.abs(u.v), np.maximum(1.0, np.abs(q.v)))):
                assert np.all(np.abs(got - want) <= bar * scale), j


def _unfolded_step(s):
    """(B, B', B'') of the mollifier step by its full formula, E evaluated on
    every entry: _step_jet's arithmetic with no plateau rule."""
    def E(x):
        pos = x > gluing._E_FLOOR
        r = 1.0 / np.where(pos, x, 1.0)
        return np.where(pos, np.exp(-r), 0.0), r

    e1, r1 = E(s)
    e2, r2 = E(1.0 - s)
    d = e1 + e2
    b = e1 / d
    p = b * (e2 / d)
    r1sq, r2sq = r1 * r1, r2 * r2
    phi1 = r1sq + r2sq
    return b, p * phi1, p * ((e2 - e1) / d * (phi1 * phi1) + 2.0 * (r2sq * r2 - r1sq * r1))


def _unfolded(cfg, t):
    """Parts of the (u, q) jets of cfg at t with every cutoff's closed-form
    jet evaluated and multiplied out, side by side, and the values of
    eta(t), eta(-t) and chi.  For a ``SyntheticExactConfig`` every eta is
    1 and q is 1."""
    eps, n, f = cfg.eps, cfg.n, cfg.model_1.normal_factor
    synthetic = isinstance(cfg, gluing.SyntheticExactConfig)
    T = -math.log(eps)
    sides, steps = [], []
    for sgn, s in ((-1.0, T - t), (1.0, T - (-t))):
        c = sgn * (n - 2) / 2.0
        v = eps ** ((n - 2) / 2.0) * np.exp(c * t)
        b, b1, b2 = (1.0, 0.0, 0.0) if synthetic else _unfolded_step(s)
        e1 = sgn * b1
        g = e1 + c * b
        sides.append((b * v, v * g, v * (b2 + c * (e1 + g))))
        steps.append(b)
    u = tuple(x + y for x, y in zip(*sides))
    if synthetic:
        return u, (1.0, 0.0, 0.0), (*steps, None)
    qs = []  # q_N = rho^2 at r = eps e^{-t} (side 1) and r = eps e^{t} (side 2)
    for side in (1, 2):
        r = eps * np.exp(-t if side == 1 else t)
        fr, f1, f2 = geometry.normal_radius_jet(f, r)
        rho = fr / r
        if side == 1:
            rho_t = rho - f1
            rho_tt = f2 * r + rho_t
        else:
            rho_t = f1 - rho
            rho_tt = f2 * r - rho_t
        qs.append((rho ** 2, 2.0 * rho * rho_t, 2.0 * (rho_t * rho_t + rho * rho_tt)))
    (qa, qa1, qa2), (qb, qb1, qb2) = qs
    b, b1, b2 = _unfolded_step((1.0 - t) / 2.0)
    one_c, dq = 1.0 - b, qa - qb
    q = (b * qa + one_c * qb, b * qa1 + one_c * qb1 - 0.5 * b1 * dq,
         b * qa2 + one_c * qb2 + b1 * (qb1 - qa1) + 0.25 * b2 * dq)
    return u, q, (*steps, b)


def _bits(x):
    """Shape and bytes of every part of an array or a jet."""
    parts = (x.v, x.d, x.dd) if isinstance(x, gluing.Jet) else (x,)
    return [(np.shape(p), np.asarray(p, float).tobytes()) for p in parts]


@pytest.mark.parametrize("name", ["torus2_x_sphere3", "sphere2_x_sphere3", "sphere2_x_ball3"])
@pytest.mark.parametrize("eps", [1e-3, 0.02, 0.05, 0.16])  # at 0.16 the eta and chi bands collide
def test_cutoff_plateau_folding_keeps_every_bit(name, eps):
    model = geometry.make_model(name)
    cfg = gluing.GluingConfig(model, model, eps=eps)
    T = cfg.t_max
    neck = {  # windows inside (-T, T), where chi and eta are defined
        "eta-plateaus": np.linspace(-(T - 1.0), T - 1.0, 33),
        "bands": np.linspace(-(T - 0.3), T - 0.3, 41),
        **{f"t={x:.6g}": np.array([x]) for x in (1.0, -1.0, T - 1.0, 1.0 - T)},
        # one point just inside each band edge, where the step is not yet 0 or
        # 1 (B(0.005) = 3.8e-87 and 1 - B(0.97) = 9.3e-15)
        **{f"t={x:.6g}": np.array([x]) for x in (
            0.9, -0.9, T - 0.9, T - 0.05, 0.99, -0.94, T - 0.97, T - 0.005)},
    }
    beyond = {
        "caps": np.linspace(T, T + 0.5, 9),
        "other-cap": -np.linspace(T, T + 0.5, 9),
        "half-grid": np.linspace(0.0, T + 0.5, 40),
        **{f"t={x:.6g}": np.array([x]) for x in (T, -T)},
        "empty": np.array([]),
    }
    for where, t in {**neck, **beyond}.items():
        u, q, _ = _unfolded(cfg, t)
        got = (*cfg.warp(t), *cfg.warp_jets(t))
        for g, w in zip(got, (u[0], q[0], gluing.Jet(*u), gluing.Jet(*q))):
            assert _bits(g) == _bits(w), where
    for where, t in neck.items():
        _, _, (eta1, eta2, c) = _unfolded(cfg, t)
        got = (gluing.chi(t, eps), gluing.eta(t, eps), gluing.eta(-t, eps))
        for g, w in zip(got, (c, eta1, eta2)):
            assert _bits(g) == _bits(w), where
    # NaN lies on no plateau, so it takes the unfolded path (B(NaN) is 0/0)
    t = np.array([0.0, math.nan, T + 0.2])
    with np.errstate(invalid="ignore"):
        u, q, _ = _unfolded(cfg, t)
        got = (*cfg.warp(t), *cfg.warp_jets(t))
        for g, w in zip(got, (u[0], q[0], gluing.Jet(*u), gluing.Jet(*q))):
            assert _bits(g) == _bits(w)
    assert np.isnan(got[1][1]) and np.isnan(got[3].v[1])


@pytest.mark.parametrize("name", ["torus2_x_sphere3", "sphere2_x_sphere3", "sphere2_x_ball3",
                                  "synthetic"])
@pytest.mark.parametrize("eps", [0.02, 0.16])
def test_side_rows_keep_every_bit_type_and_shape_of_t(name, eps):
    # the two sides are rows 0 and 1 of one array, with row signs shaped to
    # broadcast against t: a Python float (demo 02 calls cfg.warp(0.0)), a
    # 0-d array, a numpy scalar and 2-D t all give the side-by-side values
    synthetic = name == "synthetic"
    model = geometry.make_model("sphere2_x_ball3" if synthetic else name)
    cfg = (gluing.SyntheticExactConfig if synthetic else gluing.GluingConfig)(model, model, eps=eps)
    T = cfg.t_max
    cases = {"2-D": np.linspace(-(T + 0.5), T + 0.5, 24).reshape(4, 6),
             "2-D column": np.linspace(-(T - 0.3), T - 0.3, 7)[:, None]}
    for x in (0.0, -0.0, 0.5, T - 0.3, 0.3 - T, T + 0.2):
        cases.update({f"float {x:.6g}": x, f"0-d {x:.6g}": np.array(x),
                      f"numpy scalar {x:.6g}": np.float64(x)})
    for where, t in cases.items():
        u, q, _ = _unfolded(cfg, t)
        got = (*cfg.warp(t), *cfg.warp_jets(t))
        want = (u[0], q[0], gluing.Jet(*u), gluing.Jet(*q))
        for g, w in zip(got, want):
            assert _bits(g) == _bits(w), where
            parts = zip(g, w) if isinstance(w, gluing.Jet) else [(g, w)]
            assert all(type(a) is type(b) for a, b in parts), where


def test_cutoffs_on_their_plateaus_are_not_evaluated(monkeypatch, cfg05):
    calls = []
    E = gluing._E
    monkeypatch.setattr(gluing, "_E", lambda s: calls.append(s) or E(s))
    T = cfg05.t_max
    # a whole-plateau argument evaluates no E; a band, NaN or empty one
    # takes the full path, E(s) and E(1 - s)
    with np.errstate(invalid="ignore"):
        for step in (gluing.mollifier_step, gluing._step_jet):
            for s, evaluated in ((np.array([-2.0, 0.0]), 0), (np.array([1.0, 3.0]), 0),
                                 (np.array([0.0, 0.5]), 2), (np.array([1.5, math.nan]), 2),
                                 (np.array([]), 2)):
                calls.clear()
                step(s)
                assert len(calls) == evaluated, (step.__name__, s)
        for profile in (cfg05.warp, cfg05.warp_jets):
            calls.clear()
            profile(np.linspace(-(T - 1.0), -1.0, 9))  # chi = eta(t) = eta(-t) = 1
            assert calls == []
            # chi = 0 and eta(-t) = 1 while eta(t) moves: the eta pair is one
            # argument, so both of its rows take the full path
            profile(np.linspace(1.0, T + 0.5, 9))
            assert len(calls) == 2
            calls.clear()
            for t in (np.array([0.0, math.nan]), np.array([])):
                profile(t)
            assert len(calls) == 8  # chi and the eta pair on the full path, twice


@pytest.mark.parametrize("shape", [(), (1,), (9,)])
def test_plateau_steps_keep_the_full_paths_type_shape_and_bits(monkeypatch, shape):
    # mollifier_step, chi and eta are public: a whole-plateau argument gets
    # what E would have given, a numpy float for 0-d input
    eps = 0.05  # T = 3.0
    cases = [  # (name, call, its plateau value) with x in [0, 1]
        ("B = 0", lambda x: gluing.mollifier_step(x - 2.5), 0.0),
        ("B = 1", lambda x: gluing.mollifier_step(x + 1.0), 1.0),
        ("chi = 1", lambda x: gluing.chi(-x - 1.5, eps), 1.0),
        ("chi = 0", lambda x: gluing.chi(x + 1.0, eps), 0.0),
        ("eta = 1", lambda x: gluing.eta(x - 1.0, eps), 1.0),
    ]
    x = np.linspace(0.0, 1.0, math.prod(shape)).reshape(shape) if shape else 0.25
    got = [call(x) for _, call, _ in cases]
    monkeypatch.setattr(gluing, "_plateau", lambda s: None)
    for (name, call, value), g in zip(cases, got):
        want = call(x)
        assert np.all(want == value), name
        assert type(g) is type(want) and _bits(g) == _bits(want), name
