"""Acceptance suite: one test per criterion, one printed line per criterion.

Desk scale: the torus x sphere model glued to itself (m=5, k=2, n=3,
S=6), delta = 0.3, resolution 64 nodes per unit, eps sweep
{0.02, 0.04, 0.08, 0.16}.  Each test prints '[PASS/FAIL] criterion N'
with the measured values before asserting the stated threshold, so a run
with `pytest tests/test_acceptance.py -s` reads as a checklist.

Four sweep-endpoint clauses (criteria 4, 6, 9, 11) measure outside their
stated thresholds at this scale: the construction leaves its asymptotic
regime at the largest eps values (see the failure messages for the
measured numbers, and the README for how the conformant sub-sweep
behaves).  They are asserted as stated and fail honestly.
"""

import math

import numpy as np
import pytest

from cscglue import cli, geometry, gluing, linear_solver, neck_analysis, yamabe
from cscglue.curvature import (
    DerivativeScheme,
    conformal_scalar,
    laplace_beltrami,
    rescale_field,
    scalar_curvature,
)

EPS_SWEEP = [0.02, 0.04, 0.08, 0.16]
DELTA = 0.3
RESOLUTION = 64
BARRIER_ALPHA = 2.7  # log(0.05) + 3 > 0, so alpha = 3 leaves no margin region


def _line(num, passed, detail):
    print(f"[{'PASS' if passed else 'FAIL'}] criterion {num}: {detail}")


@pytest.fixture(scope="module")
def model():
    return geometry.make_model("torus2_x_sphere3")


def _cfg(model, eps, **kw):
    return gluing.GluingConfig(model, model, eps=eps, delta=DELTA, **kw)


@pytest.fixture(scope="module")
def dev_fit(model):
    return neck_analysis.deviation_fit(lambda e: _cfg(model, e), EPS_SWEEP)


@pytest.fixture(scope="module")
def spectrum_sweep(model):
    lams, ratios = [], []
    for eps in EPS_SWEEP:
        rep = linear_solver.global_estimate_ratio(_cfg(model, eps),
                                                  resolution=RESOLUTION)
        lams.append(abs(rep.min_abs_eig))
        ratios.append(rep.ratio)
    return lams, ratios


@pytest.fixture(scope="module")
def solve05(model):
    cfg = _cfg(model, 0.05)
    rep = yamabe.picard_solve(cfg, resolution=RESOLUTION)
    chk = yamabe.verify_constant_curvature(rep, cfg)
    return rep, chk


@pytest.fixture(scope="module")
def yamabe_sweep(model):
    return yamabe.convergence_sweep(lambda e: _cfg(model, e), EPS_SWEEP,
                                    delta=DELTA, resolution=RESOLUTION)


def test_criterion_01_tensor_oracles(rng):
    scheme = DerivativeScheme()
    flat3 = geometry.flat_metric(3)
    s_flat = scalar_curvature(flat3, flat3.point("flat", [0.2, -0.1, 0.4]), scheme)
    model_a = geometry.make_model("torus2_x_sphere3")
    fermi_a = geometry.fermi_metric(model_a)
    s3 = scalar_curvature(fermi_a, fermi_a.point(
        "cap-1", [0.3, 0.9, 1.3, 1.1, 0.6]), scheme)
    model_b = geometry.make_model("sphere2_x_sphere3")
    fermi_b = geometry.fermi_metric(model_b)
    s7 = scalar_curvature(fermi_b, fermi_b.point(
        "cap-1", [1.13, 0.58, 1.7, 0.9, 0.4]), scheme)
    worst = 0.0
    flat5 = geometry.flat_metric(5)
    fields = [(flat3, "flat"), (flat5, "flat"), (fermi_a, "cap-1"), (fermi_b, "cap-1")]
    for i in range(20):
        field, chart = fields[i % 4]
        if chart == "flat":
            pt = field.point(chart, rng.uniform(-0.5, 0.5, size=field.dim))
        else:
            pt = field.point(chart, [rng.uniform(0.4, 2.6), rng.uniform(0, 6),
                                     rng.uniform(1.1, 2.5), rng.uniform(0.4, 2.7),
                                     rng.uniform(0, 6)])
        a = rng.uniform(-0.3, 0.3, size=field.dim)
        u = lambda x, a=a: np.exp(np.tensordot(np.sin(x), a, axes=([-1], [0])))
        va = conformal_scalar(field, u, pt, scheme)
        vb = scalar_curvature(rescale_field(field, u), pt, scheme)
        worst = max(worst, abs(va.value - vb.value) / max(abs(va.value), 1.0))
    ok = (abs(s_flat.value) <= 1e-6 and abs(s3.value - 6) / 6 <= 1e-6
          and abs(s7.value - 7) / 7 <= 1e-6 and worst <= 1e-5)
    _line(1, ok, f"flat={s_flat.value:.2e}, S3={s3.value:.9f}, "
                 f"product={s7.value:.9f}, conformal cross-check {worst:.2e}")
    assert abs(s_flat.value) <= 1e-6
    assert abs(s3.value - 6.0) / 6.0 <= 1e-6
    assert abs(s7.value - 7.0) / 7.0 <= 1e-6
    assert worst <= 1e-5


def test_criterion_02_harmonicity(rng):
    flat3 = geometry.flat_metric(3)
    worst = 0.0
    for _ in range(10):
        v = rng.normal(size=3)
        p = rng.uniform(0.3, 0.9) * v / np.linalg.norm(v)
        lap = laplace_beltrami(flat3, lambda x: 1.0 / np.linalg.norm(x, axis=-1),
                               flat3.point("flat", p), DerivativeScheme())
        worst = max(worst, abs(lap.value))
    _line(2, worst <= 1e-6, f"max |Laplacian of 1/|x|| = {worst:.2e} <= 1e-6")
    assert worst <= 1e-6


def test_criterion_03_weighted_deviation_uniform(dev_fit):
    ratio = dev_fit.weighted_ratio
    Ws = {p.eps: round(p.weighted_sup, 4) for p in dev_fit.profiles}
    _line(3, ratio <= 10.0, f"W(eps) = {Ws}, max/min = {ratio:.3f} <= 10")
    assert ratio <= 10.0


def test_criterion_04_edge_rate(dev_fit, model):
    slope = dev_fit.probe_slope
    probes = {p.eps: round(p.probe_dev, 4) for p in dev_fit.profiles}
    sub = neck_analysis.loglog_slope(EPS_SWEEP[:3],
                                     [p.probe_dev for p in dev_fit.profiles[:3]])
    _line(4, slope >= 0.7,
          f"probe deviations {probes}, slope = {slope:.3f} (>= 0.7 required; "
          f"slope over eps <= 0.08 is {sub:.3f})")
    assert slope >= 0.7


def test_criterion_05_barrier_margins(model):
    worst = math.inf
    details = []
    for delta in (-0.3, 0.0, 0.3):
        for eps in (0.02, 0.05):
            cfg = _cfg(model, eps, alpha=BARRIER_ALPHA)
            rep = neck_analysis.barrier_margin(cfg, delta=delta)
            assert rep.C == pytest.approx(0.5 * (0.25 - delta**2))
            worst = min(worst, rep.min_margin)
            details.append(f"d={delta:+.1f},e={eps:g}: {rep.min_margin:.3f}")
    _line(5, worst >= 0.0, f"min margins [{'; '.join(details)}] >= 0 "
                           f"(alpha = {BARRIER_ALPHA})")
    assert worst >= 0.0


def test_criterion_06_injectivity_and_uniform_invertibility(model, spectrum_sweep):
    gap_full = geometry.injectivity_gap(model, 40.0)
    gap_symm = geometry.injectivity_gap(model, 40.0, symmetric_only=True)
    grid1 = linear_solver.build_grid_single(model, RESOLUTION)
    op1 = linear_solver.assemble_L(grid1, model.S, model.m)
    lam1 = linear_solver.smallest_eigenvalue(op1)
    lams, _ = spectrum_sweep
    factor = max(lams) / min(lams)
    ok = (gap_full == 0.5 and gap_symm == 1.5 and abs(abs(lam1) - 1.5) <= 1e-2
          and min(lams) >= 1e-3 and factor <= 4.0)
    _line(6, ok, f"gap full = {gap_full}, symmetric = {gap_symm}, discrete = "
                 f"{abs(lam1):.4f}; glued |eig| = "
                 f"{[round(x, 4) for x in lams]}, spread = {factor:.2f} "
                 f"(<= 4 required; spread over eps <= 0.08 is "
                 f"{max(lams[:3]) / min(lams[:3]):.2f})")
    assert gap_full == pytest.approx(0.5)
    assert gap_symm == pytest.approx(1.5)
    assert abs(abs(lam1) - gap_symm) <= 1e-2
    assert min(lams) >= 1e-3
    assert factor <= 4.0


def test_criterion_07_global_estimate_uniform(spectrum_sweep):
    _, ratios = spectrum_sweep
    spread = max(ratios) / min(ratios)
    _line(7, spread <= 10.0,
          f"estimate constants {[round(r, 4) for r in ratios]}, "
          f"max/min = {spread:.2f} <= 10")
    assert spread <= 10.0


def test_criterion_08_fixed_point(solve05, model):
    rep, _ = solve05
    ball = yamabe.smallness_ball(_cfg(model, 0.05))
    ok = (rep.converged and rep.iterations <= 30 and rep.residual <= 1e-10
          and max(rep.sup_history) <= ball and rep.mirror_defect <= 1e-10)
    _line(8, ok, f"iters = {rep.iterations} <= 30, residual = "
                 f"{rep.residual:.2e} <= 1e-10, sup|v| = {rep.v.sup():.4f} <= "
                 f"smallness ball {ball:.4f}, mirror = "
                 f"{rep.mirror_defect:.2e}")
    assert rep.converged
    assert rep.iterations <= 30
    assert rep.residual <= 1e-10
    assert max(rep.sup_history) <= ball
    assert rep.mirror_defect <= 1e-10


def test_criterion_09_smallness_rate(yamabe_sweep):
    table = yamabe_sweep
    errors = {r.eps: r.error for r in table.rows if r.error}
    ok_rows = [r for r in table.rows if not r.error]
    slope = table.slope
    sub = (neck_analysis.loglog_slope([r.eps for r in ok_rows],
                                      [r.sup_v for r in ok_rows])
           if len(ok_rows) >= 2 else float("nan"))
    passed = not errors and slope >= 0.2
    _line(9, passed,
          f"sup|v| rows {[(r.eps, None if r.error else round(r.sup_v, 4)) for r in table.rows]}, "
          f"slope = {slope:.3f} (>= 0.2 required over the full sweep; "
          f"converged rows give {sub:.3f}; diverged: {sorted(errors)})")
    assert not errors, f"sweep rows diverged at eps = {sorted(errors)}"
    assert slope >= 0.2


def test_criterion_10_constant_curvature(solve05):
    rep, chk = solve05
    bound = max(10.0 * chk.fd_err, chk.pre_dev / 50.0)
    _line(10, chk.post_dev <= bound,
          f"post-solve deviation {chk.post_dev:.3e} <= "
          f"max(10 x {chk.fd_err:.1e}, {chk.pre_dev:.2f}/50) = {bound:.3e}")
    assert chk.post_dev <= bound


def test_criterion_11_compact_convergence(yamabe_sweep):
    table = yamabe_sweep
    caps = [(r.eps, r.cap_sup_v if not r.error else None) for r in table.rows]
    ok_rows = [r for r in table.rows if not r.error]
    vals = [r.cap_sup_v for r in table.rows if not r.error]  # eps descending
    monotone = all(a > b for a, b in zip(vals, vals[1:]))
    tail = [r.cap_sup_v for r in ok_rows if abs(r.eps - 0.02) < 1e-12]
    tail_ok = bool(tail) and tail[0] <= 0.01
    passed = len(ok_rows) == len(table.rows) and monotone and tail_ok
    _line(11, passed,
          f"cap sup rows {caps} (strict decrease along the sweep and "
          f"<= 0.01 at eps = 0.02 required; measured tail = "
          f"{tail[0] if tail else float('nan'):.4f})")
    assert len(ok_rows) == len(table.rows), "sweep rows diverged"
    assert monotone
    assert tail and tail[0] <= 0.01


def test_criterion_12_deterministic_sweep(tmp_path):
    cfgtxt = tmp_path / "cfg.txt"
    cfgtxt.write_text(
        "model.name = torus2_x_sphere3\n"
        f"gluing.epsilon = {','.join(str(e) for e in EPS_SWEEP)}\n"
        f"gluing.delta = {DELTA}\n"
        f"grid.resolution = {RESOLUTION}\n")
    blobs = []
    for name in ("r1", "r2"):
        out = tmp_path / name
        code = cli.main(["sweep", "--config", str(cfgtxt), "--out", str(out)])
        assert code in (0, 1)
        blobs.append(tuple((out / f).read_bytes()
                           for f in ("sweep.csv", "sweep.dat", "run.json")))
    same = blobs[0] == blobs[1]
    _line(12, same, "repeated sweep runs produce byte-identical artifacts")
    assert same
