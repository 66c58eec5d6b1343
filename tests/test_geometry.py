import dataclasses
import math

import numpy as np
import pytest

from cscglue import geometry
from cscglue.errors import CodimensionTooSmall, OutOfChart, ZeroScalarCurvature


def test_make_model_examples(model_a, model_b):
    assert (model_a.m, model_a.k, model_a.n) == (5, 2, 3)
    assert model_a.S == pytest.approx(6.0, abs=1e-14)
    assert (model_b.m, model_b.k, model_b.n) == (5, 2, 3)
    assert model_b.S == pytest.approx(7.0, abs=1e-12)  # 2/r^2 + 6 = 1 + 6
    assert model_a.r_max == pytest.approx(math.pi)


@pytest.mark.parametrize("name, m, k, n, S", [
    ("torus2_x_sphere3", 5, 2, 3, "6.0"),
    ("sphere2_x_sphere3", 5, 2, 3, "7.0"),
    ("sphere5", 5, 0, 5, "20.0"),
    ("sphere2_x_ball3", 5, 2, 3, "0.9999999999999998"),
])
def test_model_reads_its_dimensions_and_curvature_from_its_factors(name, m, k, n, S):
    # the K factors' curvatures are summed first, then the normal factor's
    model = geometry.make_model(name)
    assert (model.m, model.k, model.n, repr(model.S)) == (m, k, n, S)


def test_model_stores_its_name_and_factors_alone():
    # S, m, k and n are facts of the factors; a model that stored them
    # could carry values its factors contradict, and glue with them
    model = geometry.make_model("torus2_x_sphere3")
    assert [f.name for f in dataclasses.fields(model)] == [
        "name", "k_factors", "normal_factor"]
    for derived in ("S", "m", "k", "n"):
        with pytest.raises(TypeError):
            dataclasses.replace(model, **{derived: 7.0})


def test_make_model_rejects_low_codimension():
    with pytest.raises(CodimensionTooSmall):
        geometry.make_model("torus2_x_sphere2")


def test_make_model_rejects_zero_curvature():
    with pytest.raises(ZeroScalarCurvature):
        geometry.make_model("torus2_x_torus3")


def test_make_model_rejects_bad_parameters():
    for bad in (-1.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            geometry.make_model("torus2_x_sphere3", sphere3_radius=bad)
        with pytest.raises(ValueError):
            geometry.make_model("sphere2_x_sphere3", sphere2_radius_sq=bad)
    with pytest.raises(ValueError):
        geometry.make_model("no_such_model")


def brute_force_gap(pairs, target, cutoff):
    """Independent enumeration oracle over explicit factor spectra."""
    best = math.inf
    for lam in pairs:
        if lam <= cutoff:
            best = min(best, abs(lam - target))
    return best


def test_injectivity_gap_model_a_oracle(model_a):
    # enumerate p^2 + q^2 + j(j+2) <= 40 directly
    vals = set()
    for p in range(-7, 8):
        for q in range(-7, 8):
            for j in range(0, 7):
                lam = p * p + q * q + j * (j + 2)
                if lam <= 40:
                    vals.add(float(lam))
    expected = brute_force_gap(vals, 6.0 / 4.0, 40.0)
    assert expected == pytest.approx(0.5)
    assert geometry.injectivity_gap(model_a, 40.0) == pytest.approx(expected)


def test_injectivity_gap_model_b_oracle(model_b):
    # l(l+1)/2 + j(j+2) <= 40; the sums are integers, so the distance of
    # S/(m-1) = 1.75 to the spectrum is 0.75 (attained at 1)
    vals = set()
    for l in range(0, 12):
        for j in range(0, 7):
            lam = l * (l + 1) / 2.0 + j * (j + 2)
            if lam <= 40:
                vals.add(lam)
    expected = brute_force_gap(vals, 7.0 / 4.0, 40.0)
    assert expected == pytest.approx(0.75)
    assert geometry.injectivity_gap(model_b, 40.0) == pytest.approx(expected)


def test_injectivity_gap_sphere5_hypothesis_fails():
    s5 = geometry.make_model("sphere5")
    assert s5.S == pytest.approx(20.0)
    # j(j+4) hits S/(m-1) = 5 at j = 1
    assert geometry.injectivity_gap(s5, 40.0) == pytest.approx(0.0, abs=1e-14)


def test_injectivity_gap_symmetric_class(model_a):
    assert geometry.injectivity_gap(model_a, 40.0, symmetric_only=True) \
        == pytest.approx(1.5)


def test_injectivity_gap_stable_under_cutoff_doubling(model_a, model_b):
    for model in (model_a, model_b):
        g1 = geometry.injectivity_gap(model, 20.0)
        g2 = geometry.injectivity_gap(model, 40.0)
        g3 = geometry.injectivity_gap(model, 80.0)
        assert g1 >= g2 - 1e-15
        assert g2 == pytest.approx(g3)


def test_injectivity_gap_cutoff_precondition(model_a):
    with pytest.raises(ValueError):
        geometry.injectivity_gap(model_a, 1.0)


def _random_cap_points(model, rng, count):
    pts = np.empty((count, model.m))
    for i, f in enumerate(model.k_factors):
        if f.kind == "torus":
            pts[:, :2] = rng.uniform(0.0, f.size, size=(count, 2))
        else:
            pts[:, 0] = rng.uniform(0.3, math.pi - 0.3, size=count)
            pts[:, 1] = rng.uniform(0.0, 2 * math.pi, size=count)
    k = model.k
    pts[:, k] = rng.uniform(1.0, model.r_max - 0.3, size=count)
    pts[:, k + 1] = rng.uniform(0.1, math.pi - 0.1, size=count)
    pts[:, k + 2] = rng.uniform(0.0, 2 * math.pi, size=count)
    return pts


def test_metric_positive_definite_random_points(fermi_a, fermi_b, model_a, model_b, rng):
    for field, model in ((fermi_a, model_a), (fermi_b, model_b)):
        pts = _random_cap_points(model, rng, 100)
        g = field.components("cap-1", pts)
        for i in range(len(pts)):
            assert geometry.is_spd(g[i])


def test_product_additivity_exact(model_a, model_b):
    for model in (model_a, model_b):
        total = sum(f.scalar_curvature() for f in model.factors)
        assert model.S == pytest.approx(total, rel=1e-15)


def test_product_additivity_vs_curvature_engine(fermi_a, fermi_b, model_a, model_b, rng):
    from cscglue.curvature import scalar_curvature

    for field, model in ((fermi_a, model_a), (fermi_b, model_b)):
        pts = _random_cap_points(model, rng, 10)
        s, _ = scalar_curvature(field, ("cap-1", pts))
        assert np.max(np.abs(s - model.S)) <= 1e-6 * abs(model.S)


def test_fermi_metric_polar_form(fermi_a, model_a):
    pt = fermi_a.point("cap-1", [0.4, 1.0, math.pi / 2, 1.1, 0.7])
    g = fermi_a.components(*pt)
    k = model_a.k
    assert g[k, k] == pytest.approx(1.0)  # g_rr = 1
    # angular block = sin^2(pi/2) g_{S^2} at r = pi/2
    assert g[k + 1, k + 1] == pytest.approx(math.sin(math.pi / 2) ** 2)
    assert g[k + 2, k + 2] == pytest.approx(math.sin(1.1) ** 2)
    # product metric: cross terms vanish identically
    off = g.copy()
    off[np.diag_indices(5)] = 0.0
    assert np.max(np.abs(off)) == 0.0


def test_fermi_metric_out_of_chart(fermi_a):
    with pytest.raises(OutOfChart):
        fermi_a.point("cap-1", [0.3, 0.9, 3.4, 1.1, 0.7])  # r beyond diameter
    with pytest.raises(OutOfChart):
        fermi_a.components("cap-1", np.array([0.3, 0.9, 3.3, 1.1, 0.7]))
