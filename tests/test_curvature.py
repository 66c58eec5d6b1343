import math

import numpy as np
import pytest

from cscglue import curvature, geometry
from cscglue.curvature import (
    DerivativeScheme,
    christoffel,
    conformal_scalar,
    laplace_beltrami,
    rescale_field,
    scalar_curvature,
)
from cscglue.errors import (
    IllConditionedMetric,
    NonpositiveConformalFactor,
    OutOfChart,
    StencilOutOfChart,
)


@pytest.fixture(scope="module")
def flat3():
    return geometry.flat_metric(3)


@pytest.fixture(scope="module")
def flat5():
    return geometry.flat_metric(5)


def test_flat_christoffel_and_scalar(flat3):
    pt = flat3.point("flat", [0.2, -0.1, 0.4])
    gamma = christoffel(flat3, pt)
    assert np.max(np.abs(gamma)) == 0.0
    s = scalar_curvature(flat3, pt)
    assert abs(s.value) <= 1e-9


def test_christoffel_polar_sphere(fermi_a, model_a):
    k = model_a.k
    # Gamma^r_{theta theta} = -sin r cos r: zero at r = pi/2, exact at r = 1
    pt = fermi_a.point("cap-1", [0.4, 1.0, math.pi / 2, 1.1, 0.7])
    gamma = christoffel(fermi_a, pt)
    assert abs(gamma[k, k + 1, k + 1]) <= 1e-8
    pt = fermi_a.point("cap-1", [0.4, 1.0, 1.0, 1.1, 0.7])
    gamma = christoffel(fermi_a, pt)
    assert gamma[k, k + 1, k + 1] == pytest.approx(-math.sin(1.0) * math.cos(1.0),
                                                   abs=1e-9)


def test_christoffel_lower_symmetry_exact(fermi_b):
    pt = fermi_b.point("cap-1", [1.1, 0.6, 1.5, 0.9, 0.4])
    gamma = christoffel(fermi_b, pt)
    assert np.array_equal(gamma, np.swapaxes(gamma, 1, 2))


def test_mixed_product_symbols_vanish(fermi_b, model_b):
    k = model_b.k
    pt = fermi_b.point("cap-1", [1.1, 0.6, 1.5, 0.9, 0.4])
    gamma = christoffel(fermi_b, pt)
    # tangential-normal mixed symbols of a product metric
    mixed = np.concatenate([
        gamma[:k, k:, :k].ravel(), gamma[k:, :k, k:].ravel(),
        gamma[:k, :k, k:].ravel(),
    ])
    assert np.max(np.abs(mixed)) <= 1e-8


def test_scalar_curvature_sphere3(fermi_a):
    pt = fermi_a.point("cap-1", [0.3, 0.9, 1.3, 1.1, 0.6])
    s = scalar_curvature(fermi_a, pt)
    assert abs(s.value - 6.0) / 6.0 <= 1e-7


def test_scalar_curvature_model_b(fermi_b, rng):
    for _ in range(3):
        pt = fermi_b.point("cap-1", [
            rng.uniform(0.4, 2.6), rng.uniform(0, 6), rng.uniform(1.0, 2.6),
            rng.uniform(0.3, 2.8), rng.uniform(0, 6)])
        s = scalar_curvature(fermi_b, pt)
        assert abs(s.value - 7.0) / 7.0 <= 1e-6


def test_error_estimate_honest_under_refinement(fermi_a, fermi_b, flat3):
    cases = [
        (fermi_a, ("cap-1", np.array([0.3, 0.9, 1.3, 1.1, 0.6]))),
        (fermi_b, ("cap-1", np.array([1.1, 0.6, 1.5, 0.9, 0.4]))),
        (flat3, ("flat", np.array([0.2, -0.1, 0.4]))),
    ]
    for field, point in cases:
        coarse = scalar_curvature(field, point, DerivativeScheme(2e-3, 2))
        fine = scalar_curvature(field, point, DerivativeScheme(1e-3, 3))
        assert abs(fine.value - coarse.value) < coarse.error


def test_laplace_constant(flat3, fermi_a):
    for field, point in ((flat3, ("flat", np.array([0.1, 0.2, 0.3]))),
                         (fermi_a, ("cap-1", np.array([0.3, 0.9, 1.3, 1.1, 0.6])))):
        lap = laplace_beltrami(field, lambda x: 1.0 + 0.0 * x[..., 0], point,
                               DerivativeScheme())
        assert abs(lap.value) <= 1e-10


def test_laplace_harmonic_inverse_radius(flat3, rng):
    # |x|^{2-n} with n = 3 is euclidean-harmonic
    for _ in range(10):
        p = rng.uniform(0.3, 0.9) * _unit(rng)
        lap = laplace_beltrami(flat3, lambda x: 1.0 / np.linalg.norm(x, axis=-1),
                               flat3.point("flat", p), DerivativeScheme())
        assert abs(lap.value) <= 1e-6


def _unit(rng):
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)


def test_laplace_sphere_eigenfunction(fermi_a, model_a):
    # cos r is the first rotationally symmetric eigenfunction on round S^3
    k = model_a.k
    for r in (1.2, 2.2, 2.6):
        pt = fermi_a.point("cap-1", [0.3, 0.9, r, 1.1, 0.6])
        lap = laplace_beltrami(fermi_a, lambda x: np.cos(x[..., k]), pt, DerivativeScheme())
        assert abs(lap.value + 3.0 * math.cos(r)) / (3.0 * abs(math.cos(r))) <= 1e-5


def test_laplace_product_splits(fermi_a, model_a):
    # Delta(u(z) v(r)) = v Delta_K u + u Delta_N v on the product
    k = model_a.k
    z1, r = 0.7, 1.2
    pt = fermi_a.point("cap-1", [z1, 0.9, r, 1.1, 0.6])
    lap = laplace_beltrami(
        fermi_a, lambda x: np.sin(x[..., 0]) * np.cos(x[..., k]), pt, DerivativeScheme())
    # Delta_{T^2} sin z1 = -sin z1; Delta_{S^3} cos r = -3 cos r
    exact = -math.sin(z1) * math.cos(r) - 3.0 * math.sin(z1) * math.cos(r)
    assert abs(lap.value - exact) / abs(exact) <= 1e-6


def test_conformal_identity_factor(fermi_a):
    pt = fermi_a.point("cap-1", [0.3, 0.9, 1.3, 1.1, 0.6])
    s = scalar_curvature(fermi_a, pt)
    c = conformal_scalar(fermi_a, lambda x: 1.0 + 0.0 * x[..., 0], pt, DerivativeScheme())
    assert c.value == pytest.approx(s.value, rel=1e-9)


def test_conformal_stereographic_sphere5(flat5):
    u = lambda x: (2.0 / (1.0 + np.sum(x**2, axis=-1))) ** 1.5
    for p in ([0.3, -0.2, 0.1, 0.25, -0.15], [0.0, 0.4, 0.0, -0.3, 0.2]):
        c = conformal_scalar(flat5, u, flat5.point("flat", p), DerivativeScheme())
        assert abs(c.value - 20.0) / 20.0 <= 1e-5


def _random_factor(rng, m):
    a = rng.uniform(-0.3, 0.3, size=m)
    b = rng.uniform(0.5, 2.0)

    def u(x):
        return np.exp(np.tensordot(np.sin(b * x), a, axes=([-1], [0])))

    return u


def test_conformal_vs_rescaled_field(flat3, flat5, fermi_a, fermi_b, rng):
    cases = []
    for _ in range(5):
        cases.append((flat3, ("flat", rng.uniform(-0.5, 0.5, size=3))))
        cases.append((flat5, ("flat", rng.uniform(-0.5, 0.5, size=5))))
        cases.append((fermi_a, ("cap-1", np.array([
            rng.uniform(0, 6), rng.uniform(0, 6), rng.uniform(1.1, 2.5),
            rng.uniform(0.4, 2.7), rng.uniform(0, 6)]))))
        cases.append((fermi_b, ("cap-1", np.array([
            rng.uniform(0.4, 2.6), rng.uniform(0, 6), rng.uniform(1.1, 2.5),
            rng.uniform(0.4, 2.7), rng.uniform(0, 6)]))))
    assert len(cases) == 20
    for field, point in cases:
        u = _random_factor(rng, field.dim)
        a = conformal_scalar(field, u, point, DerivativeScheme())
        b = scalar_curvature(rescale_field(field, u), point)
        scale = max(abs(a.value), 1.0)
        assert abs(a.value - b.value) / scale <= 1e-5


def test_conformal_cocycle(fermi_a, rng):
    point = ("cap-1", np.array([0.3, 0.9, 1.5, 1.1, 0.6]))
    u1 = _random_factor(rng, 5)
    u2 = _random_factor(rng, 5)
    both = conformal_scalar(fermi_a, lambda x: u1(x) * u2(x), point, DerivativeScheme())
    staged = conformal_scalar(rescale_field(fermi_a, u1), u2, point, DerivativeScheme())
    scale = max(abs(both.value), 1.0)
    assert abs(both.value - staged.value) / scale <= 1e-5


def test_nonpositive_conformal_factor(fermi_a):
    pt = fermi_a.point("cap-1", [0.3, 0.9, 1.3, 1.1, 0.6])
    with pytest.raises(NonpositiveConformalFactor):
        conformal_scalar(fermi_a, lambda x: x[..., 2] - 1.3, pt, DerivativeScheme())
    # a NaN on the stencil is not a positive value
    with pytest.raises(NonpositiveConformalFactor):
        conformal_scalar(fermi_a, lambda x: np.where(x[..., 2] > 1.3, np.nan, 1.0), pt,
                         DerivativeScheme())


def test_ill_conditioned_metric_raises():
    chart = geometry.Chart("flat", ("x1", "x2"), (-1, -1), (1, 1))

    def comps(x):
        out = np.zeros(x.shape[:-1] + (2, 2))
        out[..., 0, 0] = 1.0
        out[..., 1, 1] = 1e-13
        return out

    field = geometry.MetricField(chart, comps)
    with pytest.raises(IllConditionedMetric):
        scalar_curvature(field, ("flat", np.array([0.0, 0.0])))


@pytest.mark.parametrize("g11", [np.nan, 0.0], ids=["nan", "zero"])
def test_non_finite_or_singular_metric_raises(g11):
    # a NaN component or an exactly singular g is refused with the typed
    # error, not numpy's LinAlgError, on a single point and in a batch
    chart = geometry.Chart("flat", ("x1", "x2"), (-1, -1), (1, 1))

    def comps(x):
        out = np.zeros(x.shape[:-1] + (2, 2))
        out[..., 0, 0] = 1.0
        out[..., 1, 1] = np.where(x[..., 0] > 0.25, g11, 1.0)
        return out

    field = geometry.MetricField(chart, comps)
    for coords in ([0.5, 0.0], [[0.0, 0.0], [0.5, 0.0]]):
        with pytest.raises(IllConditionedMetric):
            scalar_curvature(field, ("flat", np.array(coords)))
    assert scalar_curvature(field, ("flat", np.array([0.0, 0.0]))).value == 0.0


def _round_sphere2():
    """The unit 2-sphere in polar angles, from a callback of coordinates only."""
    chart = geometry.Chart("s2", ("theta", "phi"), (1e-3, -math.inf),
                           (math.pi - 1e-3, math.inf))

    def comps(x):
        out = np.zeros(x.shape[:-1] + (2, 2))
        out[..., 0, 0] = 1.0
        out[..., 1, 1] = np.sin(x[..., 0]) ** 2
        return out

    return geometry.MetricField(chart, comps)


def test_one_argument_callback_field_evaluates():
    field = _round_sphere2()
    pts = np.array([[0.7, 0.1], [1.9, -2.0]])
    s, err = scalar_curvature(field, ("s2", pts))
    assert np.all(np.abs(s - 2.0) <= np.maximum(err, 1e-6))
    lap = laplace_beltrami(field, lambda x: np.cos(x[..., 0]), field.point("s2", [0.7, 0.1]),
                           DerivativeScheme())
    assert lap.value == pytest.approx(-2.0 * math.cos(0.7), abs=1e-6)


def test_wrong_chart_id_is_out_of_chart():
    field = _round_sphere2()
    x = np.array([0.7, 0.1])
    for call in (lambda: field.point("neck", x), lambda: field.components("cap-1", x),
                 lambda: scalar_curvature(field, ("flat", x)),
                 lambda: laplace_beltrami(field, np.ones_like, ("theta", x), DerivativeScheme())):
        with pytest.raises(OutOfChart, match="no chart"):
            call()


def test_derivative_scheme_needs_two_levels():
    # the error bar comes from the last two Richardson diagonals
    with pytest.raises(ValueError, match="levels"):
        DerivativeScheme(levels=1)
    assert DerivativeScheme(levels=2).levels == 2


@pytest.mark.parametrize("step", [0.0, -1e-3, math.nan, math.inf])
def test_derivative_scheme_needs_a_positive_finite_step(step):
    with pytest.raises(ValueError, match="base_step"):
        DerivativeScheme(base_step=step)


def test_nonfinite_coordinates_are_out_of_chart(fermi_a):
    for bad in (math.nan, math.inf):
        x = np.array([0.3, 0.9, bad, 1.1, 0.6])
        for call in (lambda: fermi_a.point("cap-1", x),
                     lambda: fermi_a.components("cap-1", x),
                     lambda: scalar_curvature(fermi_a, ("cap-1", x))):
            with pytest.raises(OutOfChart):
                call()


def test_wrong_coordinate_count_is_out_of_chart(fermi_a):
    for x in (np.zeros(4), np.zeros((3, 6))):
        for call in (lambda: fermi_a.point("cap-1", x),
                     lambda: fermi_a.components("cap-1", x),
                     lambda: scalar_curvature(fermi_a, ("cap-1", x))):
            with pytest.raises(OutOfChart, match="expected 5 coordinates"):
                call()


def test_stencil_out_of_chart(fermi_a):
    pt = fermi_a.point("cap-1", [0.3, 0.9, 1.3, 0.0015, 0.6])
    with pytest.raises(StencilOutOfChart):
        scalar_curvature(fermi_a, pt)


def _reference_jet(fn, pts, scheme):
    """The engine's jet one Richardson level at a time: one callback call per
    level on the stencil [center, (+e_a, -e_a), (++, +-, -+, --) per pair
    a < b], central differences at that level's h, then the Neville tableau
    over the list of levels."""
    m, b = pts.shape[-1], pts.ndim - 1
    offs = [np.zeros(m)]
    for a in range(m):
        e = np.zeros(m)
        e[a] = 1.0
        offs += [e, -e]
    pairs = [(a, c) for a in range(m) for c in range(a + 1, m)]
    for a, c in pairs:
        for sa, sc in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
            e = np.zeros(m)
            e[a], e[c] = sa, sc
            offs.append(e)
    offs = np.asarray(offs)
    d1s, d2s, vmin, vmax = [], [], np.inf, 0.0
    for lev in range(scheme.levels):
        h = scheme.base_step / 2.0**lev
        vals = np.asarray(fn(pts[..., None, :] + offs * h), dtype=float)
        vmin, vmax = min(vmin, float(np.min(vals))), max(vmax, float(np.max(np.abs(vals))))
        r = vals.ndim - b - 1
        batch, item = tuple(range(b)), tuple(range(b + 1, b + 1 + r))
        v = vals.transpose(batch + item + (b,))  # stencil axis last
        v0 = v[..., 0] if lev == 0 else v0
        vp, vm = v[..., 1:1 + 2 * m:2], v[..., 2:2 + 2 * m:2]
        d1 = (vp - vm) / (2.0 * h)
        d2 = np.zeros(v.shape[:-1] + (m, m))
        d2[..., np.arange(m), np.arange(m)] = (vp - 2.0 * v[..., :1] + vm) / h**2
        for i, (a, c) in enumerate(pairs):
            k = 1 + 2 * m + 4 * i
            d2[..., a, c] = d2[..., c, a] = (v[..., k] - v[..., k + 1] - v[..., k + 2]
                                             + v[..., k + 3]) / (4.0 * h * h)
        d1s.append(np.moveaxis(d1, -1, b))
        d2s.append(np.moveaxis(d2, (-2, -1), (b, b + 1)))

    def neville(seq):
        row = [seq[0]]
        for lev in range(1, len(seq)):
            new = [seq[lev]]
            for j in range(1, lev + 1):
                new.append((4.0**j * new[j - 1] - row[j - 1]) / (4.0**j - 1.0))
            row = new
        return row[-1], row[-2]

    h_min = scheme.base_step / 2.0 ** (scheme.levels - 1)
    return v0, neville(d1s), neville(d2s), vmin, 8.0 * curvature._EPS * (1.0 + vmax) / h_min**2


@pytest.mark.parametrize("levels", [2, 4])
@pytest.mark.parametrize("case", ["fermi-5d-batch", "factor-2d-point", "scalar-batch"])
def test_jet_is_the_level_by_level_jet_bit_for_bit(fermi_a, model_b, case, levels):
    # every level in one callback call, the differences of all levels in one
    # pass and the tableau along the level axis: the same floating-point
    # operations on the same operands as level by level
    scheme = DerivativeScheme(2e-3, levels)
    rng = np.random.default_rng(7)
    batch = np.column_stack([rng.uniform(0.1, 1.0, (6, 2)), rng.uniform(0.5, 1.5, 6),
                             rng.uniform(0.5, 2.5, (6, 2))])
    fn, pts = {
        "fermi-5d-batch": (fermi_a.component_fn, batch),
        "factor-2d-point": (geometry.factor_metric(model_b.k_factors, "z").component_fn,
                            np.array([[1.1, 0.4]])),
        "scalar-batch": (lambda x: np.exp(0.3 * np.sin(x[..., 2])) * np.cos(x[..., 3]),
                         batch),
    }[case]
    calls = []

    def counted(x):
        calls.append(x.shape)
        return fn(x)

    got = curvature._jet(counted, pts, scheme)
    assert len(calls) == 1
    want = _reference_jet(fn, pts, scheme)
    assert np.array_equal(got[0], want[0])
    for g, w in zip(got[1] + got[2], want[1] + want[2]):
        assert g.shape == w.shape and np.array_equal(g, w)
    assert got[3] == want[3] and got[4] == want[4]
