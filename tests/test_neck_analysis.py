import hashlib
import math

import mpmath as mp
import numpy as np
import pytest

from cscglue import curvature, geometry, gluing, linear_solver, neck_analysis as na
from cscglue.curvature import DerivativeScheme, laplace_beltrami, scalar_curvature
from cscglue.errors import (DeltaOutOfRange, EpsilonTooLarge, NotResolved, OutOfFloatRange,
                            OutOfNeck)
from cscglue.linear_solver import ROUNDING_ULPS


def test_loglog_slope_matches_polyfit(rng):
    # the closed-form slope is the least-squares one np.polyfit finds
    for _ in range(200):
        k = int(rng.integers(2, 11))
        lx = rng.uniform(-6.0, 0.0, k)
        s = rng.uniform(0.5, 3.0) * rng.choice([-1.0, 1.0])
        ly = rng.normal() + s * lx + 0.1 * rng.normal(size=k)
        x, y = np.exp(lx), np.exp(ly)
        oracle = np.polyfit(np.log(x), np.log(y), 1)[0]
        assert na.loglog_slope(x, y) == pytest.approx(oracle, rel=1e-12, abs=0.0)
    assert na.loglog_slope([0.02, 0.04, 0.08], [1.0, 4.0, 16.0]) == pytest.approx(2.0)
    with pytest.raises(ValueError, match="differ in shape"):  # polyfit refuses them too
        na.loglog_slope([0.02, 0.04], [1.0])


@pytest.mark.parametrize("x, y", [([], []), ([0.05], [0.3]),
                                  ([0.1, 0.1], [0.2, 0.3]), ([0.1] * 3, [1.0, 2.0, 3.0])],
                         ids=["none", "one", "two-equal-x", "three-equal-x"])
def test_loglog_slope_is_nan_without_two_distinct_x(x, y):
    # fewer than two points, or x with no spread, fit no line: NaN, and no
    # RuntimeWarning (which this suite turns into an error)
    assert math.isnan(na.loglog_slope(x, y))


@pytest.mark.parametrize("x, y", [([0.1, 0.2], [1.0, -1.0]), ([0.1, 0.2], [0.0, 0.0]),
                                  ([0.0, 0.2], [1.0, 2.0]), ([0.1, 0.2], [1.0, np.inf]),
                                  ([np.nan, 0.2], [1.0, 2.0])],
                         ids=["negative-y", "zero-y", "zero-x", "inf-y", "nan-x"])
def test_loglog_slope_is_nan_on_data_that_is_not_positive(x, y):
    # no log, no line: NaN without a RuntimeWarning from np.log
    assert math.isnan(na.loglog_slope(x, y))


def test_deviation_profile_structure(cfg05):
    prof = na.deviation_profile(cfg05)
    T = cfg05.t_max
    assert prof.t[0] == pytest.approx(math.log(cfg05.eps) + 1.0)
    assert prof.t[-1] == pytest.approx(T - 1.0)
    assert np.all(prof.sup_dev >= 0.0)
    assert np.all(np.isfinite(prof.fd_err))
    # the fitted constant is the weighted sup, so the bound
    # c eps^-1 (cosh t)^{1-n} holds on-grid
    resolved = prof.resolved
    bound_shape = np.cosh(prof.t) ** (1 - cfg05.n) / cfg05.eps
    assert np.all(prof.sup_dev[resolved]
                  <= prof.weighted_sup * bound_shape[resolved] * (1 + 1e-12))
    # center value obeys the fitted c * eps^{-1} bound
    mid = np.argmin(np.abs(prof.t))
    assert prof.sup_dev[mid] <= prof.weighted_sup / cfg05.eps
    # probe entry is the window edge
    assert prof.probe_dev == prof.sup_dev[0]


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


def test_deviation_fit_refuses_a_repeated_eps(model_a):
    # two coincident points have no slope; NaN came back silently
    make = lambda e: gluing.GluingConfig(model_a, model_a, eps=e)
    with pytest.raises(ValueError, match=r"eps 0\.02 is listed more than once"):
        na.deviation_fit(make, [0.02, 0.02])


def test_deviation_fit_refuses_an_empty_eps_list(model_a):
    make = lambda e: gluing.GluingConfig(model_a, model_a, eps=e)
    with pytest.raises(ValueError, match="eps_list must hold at least one eps"):
        na.deviation_fit(make, [])


def test_deviation_synthetic_unresolved(model_flat):
    cfg = gluing.SyntheticExactConfig(model_flat, model_flat, eps=0.05)
    field = gluing.glued_metric(cfg)
    with pytest.raises(NotResolved):
        na.deviation_profile(cfg)
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
        # the exact fixture has no cutoffs, so its remainder vanishes at
        # every default sample, the eta band included
        exact = gluing.SyntheticExactConfig(model_flat, model_flat, eps=eps)
        assert na.conjugation_residual(exact).max_ratio <= 1e-10


def test_conjugation_refuses_a_sample_beyond_the_neck(model_a):
    # t = T + 1 is past the seam, where the neck identity has no meaning
    cfg = gluing.GluingConfig(model_a, model_a, eps=0.02)
    with pytest.raises(OutOfNeck):
        na.conjugation_residual(cfg, t_samples=[0.0, cfg.t_max + 1.0])


def test_conjugation_refuses_a_nan_sample(model_a):
    cfg = gluing.GluingConfig(model_a, model_a, eps=0.02)
    with pytest.raises(OutOfNeck):
        na.conjugation_residual(cfg, t_samples=[math.nan])


def test_conjugation_refuses_empty_samples(model_a):
    cfg = gluing.GluingConfig(model_a, model_a, eps=0.02)
    with pytest.raises(ValueError, match="t_samples must hold at least one t"):
        na.conjugation_residual(cfg, t_samples=[])


def _probe_factors(model, probe):
    """factor_laplacians' entry for PROBES[probe] at the default scheme."""
    return na.factor_laplacians(model, DerivativeScheme())[list(na.PROBES).index(probe)]


def _neck(cfg, t):
    """(A, b, q) of cfg's neck at t, as separable_terms takes them."""
    u, q = cfg.warp_jets(t)
    return (*linear_solver.laplacian_coefficients(cfg, u, q), q.v)


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
    lap, _ = na.separable_terms(cfg, a(t), _probe_factors(model, probe), _neck(cfg, t))
    pts = np.zeros((t.size, model.m))
    pts[:, :k], pts[:, k + 1:] = geometry.sample_orbit(model)
    pts[:, k] = t
    ref, err = laplace_beltrami(
        gluing.glued_metric(cfg),
        lambda c: a(c[..., k]).v * Y(c[..., k + 1:]) * Z(c[..., :k]), ("neck", pts),
        DerivativeScheme())
    assert np.all(np.abs(lap - ref) <= err)


@pytest.mark.parametrize("name", ["torus2_x_sphere3", "sphere2_x_sphere3", "sphere5"])
def test_conjugation_takes_one_metric_jet_per_factor(monkeypatch, name):
    # a (model, scheme)'s first call takes one metric jet per probe on
    # S^{n-1} and on K (if any); later calls, at any eps, read the cache
    na.factor_laplacians.cache_clear()
    model = geometry.make_model(name)
    cfg = gluing.GluingConfig(model, model, eps=0.02)
    calls = []
    metric_jet = curvature._metric_jet

    def counted(field, chart_id, pts, scheme):
        calls.append(chart_id)
        return metric_jet(field, chart_id, pts, scheme)

    monkeypatch.setattr(curvature, "_metric_jet", counted)
    first = ["theta", "theta", "z", "z"] if model.k else ["theta", "theta"]
    na.conjugation_residual(cfg)
    assert sorted(calls) == first
    calls.clear()
    na.conjugation_residual(gluing.GluingConfig(model, model, eps=0.08))
    assert calls == []
    scheme = DerivativeScheme(2e-3, 3)
    na.conjugation_residual(cfg, scheme=scheme)
    assert sorted(calls) == first
    # the cached tuples are those of direct engine calls, bit for bit
    z, theta = (np.asarray(x, float) for x in geometry.sample_orbit(model))
    sphere = geometry.factor_metric((geometry.Factor("sphere", model.n - 1, 1.0),), "theta")
    for s in (DerivativeScheme(), scheme):
        want = []
        for _, Y, Z in na.PROBES.values():
            entry = (float(Y(theta)), laplace_beltrami(sphere, Y, ("theta", theta), s).value)
            if model.k:
                k_metric = geometry.factor_metric(model.k_factors, "z")
                entry += (float(Z(z)), laplace_beltrami(k_metric, Z, ("z", z), s).value)
            else:
                entry += (1.0, 0.0)
            want.append(entry)
        got = na.factor_laplacians(model, s)
        assert [[x.hex() for x in p] for p in got] == [[x.hex() for x in p] for p in want]


@pytest.mark.parametrize("estimate", ["conjugation", "barrier"])
def test_neck_estimates_evaluate_the_profile_once(monkeypatch, model_a, estimate):
    # u comes from the one warp_jets evaluation that also gives (A, b)
    cfg = gluing.GluingConfig(model_a, model_a, eps=0.02)
    calls = []
    for name in ("warp", "warp_jets"):
        real = getattr(gluing.GluingConfig, name)

        def counted(self, t, real=real, name=name):
            calls.append(name)
            return real(self, t)

        monkeypatch.setattr(gluing.GluingConfig, name, counted)
    if estimate == "conjugation":
        na.conjugation_residual(cfg)
    else:
        na.barrier_margin(cfg, delta=0.3)
    assert calls == ["warp_jets"]


def _digest(arrays):
    return hashlib.sha256(b"".join(np.asarray(a, "<f8").tobytes() for a in arrays)).hexdigest()


# Bits of the estimates on the closed-form profile jets, at delta = 0.3:
# max ratio, per-probe max ratios (const, wavy), digest of the per-probe
# ratio arrays, min margin and digest of the margins.  They hold for numpy's
# float64 exp, sin and cos on x86-64; another libm may move the last bits.
PINNED = {
    ("torus2_x_sphere3", 0.02): (
        "0x1.72916b02e0f47p-5", ("0x1.edff5cc372609p-7", "0x1.72916b02e0f47p-5"),
        "6a32b86c134cfae3", "0x1.ba92e26b30245p+4", "01a918c11f898bcc"),
    ("sphere2_x_sphere3", 0.005): (
        "0x1.22cb0afceede8p-3", ("0x1.f759859436781p-9", "0x1.22cb0afceede8p-3"),
        "a4648eec61caf24f", "0x1.bd170695f552dp+6", "6c7a8edd086eed02"),
}


@pytest.mark.parametrize("name, eps", sorted(PINNED))
def test_neck_estimates_keep_their_bits(name, eps):
    model = geometry.make_model(name)
    cfg = gluing.GluingConfig(model, model, eps=eps)
    rep = na.conjugation_residual(cfg)
    bar = na.barrier_margin(cfg, delta=0.3)
    got = (rep.max_ratio.hex(), tuple(p[1].hex() for p in rep.per_probe),
           _digest(p[2] for p in rep.per_probe)[:16], bar.min_margin.hex(),
           _digest([bar.margins])[:16])
    assert got == PINNED[name, eps]


def test_conjugation_never_builds_the_glued_field(monkeypatch, model_a):
    def forbidden(*args, **kwargs):
        raise AssertionError("conjugation_residual sampled the glued components")

    monkeypatch.setattr(gluing, "_warped_components", forbidden)
    monkeypatch.setattr(na, "glued_metric", forbidden)
    cfg = gluing.GluingConfig(model_a, model_a, eps=0.05)
    assert na.conjugation_residual(cfg).max_ratio <= 1.0


def test_ell_leading_annihilates_critical_exponential(cfg05):
    # the leading neck operator d_t^2 - nu^2 + ... kills e^{nu t} Y Z
    # for the constant probe
    t = np.array([-1.2, 0.0, 0.8])
    e = np.exp(cfg05.nu * t)
    f = gluing.Jet(e, cfg05.nu * e, cfg05.nu**2 * e)
    _, vals = na.separable_terms(cfg05, f, _probe_factors(cfg05.model_1, "const"),
                                 _neck(cfg05, t))
    assert np.max(np.abs(vals)) <= 1e-6


def _weight_mp(delta):
    d = mp.mpf(delta)
    return lambda x: mp.cosh(x) ** d if delta <= 0 else mp.cosh(d * x)


@pytest.mark.parametrize("jet, ref", [
    *[(lambda t, d=d: na._barrier_weight(d, t), _weight_mp(d)) for d in (-0.3, 0.0, 0.3)],
    (na.PROBES["wavy"][0], lambda x: 1 + mp.mpf(0.3) * mp.cos(x)),
], ids=["weight-0.3", "weight0", "weight+0.3", "wavy-probe"])
def test_closed_form_jets_match_mpmath(jet, ref):
    # the barrier weight on both branches and at their delta = 0 edge, and
    # the wavy probe's t factor, against 40-digit differentiation, within
    # ROUNDING_ULPS of each part's scale, the value's size
    t = np.array([-6.0, -2.5, -0.7, 0.0, 0.4, 1.3, 3.0, 6.0])
    parts = jet(t)
    scale = np.abs(parts[0])
    bar = ROUNDING_ULPS * np.finfo(float).eps
    with mp.workdps(40):
        for j, got in enumerate(parts):
            want = np.array([float(mp.diff(ref, mp.mpf(x), j)) for x in t])
            assert np.all(np.abs(got - want) <= bar * scale), j


def test_barrier_constant_values():
    assert na.barrier_constant(3, 0.0) == pytest.approx(1.0 / 8.0)
    assert na.barrier_constant(3, 0.3) == pytest.approx(0.08)
    # near-extremal delta: tiny constant, very small induced eps_alpha
    C = na.barrier_constant(3, 0.49)
    assert C == pytest.approx(0.5 * (0.25 - 0.2401))
    # an alpha below the required one gives way to it
    assert na.induced_eps_alpha(3, 0.49, 1.0) == pytest.approx(C)
    assert na.induced_eps_alpha(3, 0.49, 6.0) == pytest.approx(math.exp(-6.0))


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
        ("neck", pts), DerivativeScheme())
    margins = -(lap + rep.C * cfg.warp(rep.t)[0] ** (-4.0 / (n - 2))
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


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("eps", [1e-200, 1e-130])
def test_barrier_margins_out_of_double_range_raise_typed(model_a, eps):
    # eps e^{-t} underflows to 0 on the region at 1e-200 (q is 0/0 there),
    # and A phi overflows at 1e-130: the typed error comes before any warning
    cfg = gluing.GluingConfig(model_a, model_a, eps=eps)
    with pytest.raises(OutOfFloatRange, match=f"eps = {eps}"):
        na.barrier_margin(cfg, delta=0.3)
    assert issubclass(OutOfFloatRange, ArithmeticError)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("eps", [1e-200, 1e-130])
def test_conjugation_out_of_double_range_raises_typed(model_a, eps):
    # u^{-(n+2)/(n-2)} overflows at 1e-130 and q is 0/0 at 1e-200: the
    # ratios were NaN after RuntimeWarnings, now the typed error comes first
    cfg = gluing.GluingConfig(model_a, model_a, eps=eps)
    with pytest.raises(OutOfFloatRange, match=f"eps = {eps}"):
        na.conjugation_residual(cfg)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("eps, error", [(1e-20, NotResolved), (1e-120, NotResolved),
                                        (1e-130, OutOfFloatRange), (1e-200, OutOfFloatRange)])
def test_deviation_profile_out_of_double_range_raises_typed(model_a, eps, error):
    # down to 1e-120 the deviation is honestly below its error bar; at 1e-130
    # S overflows and at 1e-200 q is 0/0, which used to read as NotResolved
    cfg = gluing.GluingConfig(model_a, model_a, eps=eps)
    with pytest.raises(error, match=f"eps = {eps}" if error is OutOfFloatRange else None):
        na.deviation_profile(cfg)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("eps", [1e-110, 1e-120, 1e-130, 1e-200])
def test_local_estimate_out_of_double_range_raises_typed(model_a, eps):
    # the grid volumes underflow from 1e-110 and q is 0/0 at 1e-200; the
    # estimate used to end in numpy's "array must not contain infs or NaNs"
    cfg = gluing.GluingConfig(model_a, model_a, eps=eps, alpha=1.2)
    with pytest.raises(OutOfFloatRange, match=f"eps = {eps}"):
        na.local_estimate_ratio(cfg)


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


@pytest.mark.parametrize("name", ["torus2_x_sphere3", "sphere2_x_sphere3"])
def test_local_estimate_ratio_is_the_inline_weighted_sup_ratio(monkeypatch, name):
    # each default probe's ratio, restated inline from the solves the
    # estimate made, is bitwise the one it reports; the source's sup runs
    # over the inner nodes i0+1..i1-1, the ones the window solve reads
    solves = []
    real = na.solve_dirichlet

    def recording(op, f, i0, i1, left, right):
        v = real(op, f, i0, i1, left, right)
        solves.append((np.asarray(f), i0, i1, v))
        return v

    monkeypatch.setattr(na, "solve_dirichlet", recording)
    model = geometry.make_model(name)
    cfg = gluing.GluingConfig(model, model, eps=0.02, alpha=1.2)
    rep = na.local_estimate_ratio(cfg)
    s = linear_solver.build_grid(cfg, 64).s
    lo = (cfg.n - 2) / 2.0 - cfg.delta
    hi = (cfg.n + 2) / 2.0 - cfg.delta
    assert len(solves) == len(rep.per_probe) == 3
    for (_, ratio), (f, i0, i1, v) in zip(rep.per_probe, solves):
        psi = gluing.psi_of_t(s[i0:i1 + 1], cfg)
        num = float(np.max(psi**lo * np.abs(v)))
        den = float(np.max(psi[1:-1]**hi * np.abs(f[i0 + 1:i1])))
        den_b = max(psi[0]**lo * abs(v[0]), psi[-1]**lo * abs(v[-1]))
        assert ratio == num / (den + den_b)


# Bits of local_estimate_ratio at eps = 0.01 (alpha 3, delta 0.3, resolution
# 64): each named case with its ratio.  Same libm caveat as PINNED.
LOCAL_PINNED = {
    "torus2_x_sphere3": (("harmonic-extension", "0x1.0000000000000p+0"),
                         ("barrier-profile", "0x1.f71872e655207p-1"),
                         ("interior-source", "0x1.2dcb73fdbe97ep+3")),
    "sphere2_x_sphere3": (("harmonic-extension", "0x1.0000000000000p+0"),
                          ("barrier-profile", "0x1.f72c98b2a6d7cp-1"),
                          ("interior-source", "0x1.2de96099fbbffp+3")),
}


@pytest.mark.parametrize("name", sorted(LOCAL_PINNED))
def test_local_estimate_keeps_its_bits(name):
    model = geometry.make_model(name)
    rep = na.local_estimate_ratio(gluing.GluingConfig(model, model, eps=0.01))
    assert tuple((case, ratio.hex()) for case, ratio in rep.per_probe) == LOCAL_PINNED[name]
