"""A resolution-free oracle for the radial fixed point.

The symmetric solution v of the reduced equation
    A (v'' + b v') + S_glued v / (m-1) = F(v)
is found by shooting from the pole to s = 0 with scipy's DOP853: a is
v's value at the pole, the Frobenius series v = a + R(a) rho^2 / (2n),
rho = r_max - r and R(a) = F(a) - S a / (m-1), starts the integration
RHO0 off the pole, and brentq finds the a with v'(0) = 0, which mirror
symmetry requires.  (A, b) are laplacian_coefficients and S_glued is
neck_scalar_curvature (S on the caps, |s| >= T), both on cfg.warp_jets,
so the oracle reads the metric as the grid does but with no mesh.
Picard's grid solution must converge to it at second order.
"""

import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.optimize import brentq

from cscglue import geometry, gluing, linear_solver, yamabe

EPS = 0.02
RHO0 = 1e-3  # distance of the shooting start from the pole
RESOLUTIONS = (64, 128, 256, 512)
# the continuum (pole value a, v(0)) at EPS, per model
ROOTS = {"torus2_x_sphere3": (-0.0691668843, 0.0600979563),
         "sphere2_x_sphere3": (-0.0787377354, 0.0791535561)}


def shoot(cfg, a, rho0):
    """(v, v') at s = 0 of the initial-value problem from the pole value a."""
    m, n, S, T = cfg.m, cfg.n, cfg.S, cfg.t_max
    r0 = cfg.model_1.r_max - rho0
    R = yamabe.F_eps(np.array([a]), np.zeros(1), m, S)[0] - S * a / (m - 1)

    def rhs(s, y):
        u, q = cfg.warp_jets(np.array([s]))
        A, b = linear_solver.laplacian_coefficients(cfg, u, q)
        S_glued = S if abs(s) >= T else linear_solver.neck_scalar_curvature(cfg, u, q)[0][0]
        F = yamabe.F_eps(y[:1], np.array([S - S_glued]), m, S)[0]
        return [y[1], (F - S_glued * y[0] / (m - 1)) / A[0] - b[0] * y[1]]

    y0 = [a + R * rho0**2 / (2 * n), -R * rho0 * r0 / n]
    sol = solve_ivp(rhs, (T + math.log(r0), 0.0), y0, method="DOP853",
                    rtol=1e-12, atol=1e-14)
    assert sol.success, sol.message
    return sol.y[:, -1]


def shooting_root(cfg, guess, rho0):
    """(a, v(0)) of the shot with v'(0) = 0, a bracketed within 1e-3 of guess."""
    shots = {}  # brentq returns a point it evaluated, so v(0) needs no further shot

    def slope_at_centre(a):
        shots[a] = shoot(cfg, a, rho0)
        return shots[a][1]

    a = brentq(slope_at_centre, guess - 1e-3, guess + 1e-3, xtol=1e-13)
    return a, shots[a][0]


@pytest.fixture(scope="module", params=sorted(ROOTS))
def oracle(request):
    model = geometry.make_model(request.param)
    cfg = gluing.GluingConfig(model, model, eps=EPS)
    picard = {res: yamabe.picard_solve(cfg, resolution=res).v.values for res in RESOLUTIONS}
    guess = picard[RESOLUTIONS[0]][-1]
    return {"model": request.param, "root": shooting_root(cfg, guess, RHO0),
            "half": shooting_root(cfg, guess, RHO0 / 2), "picard": picard}


def test_shooting_root_and_centre_value(oracle):
    a, v0 = oracle["root"]
    want_a, want_v0 = ROOTS[oracle["model"]]
    assert a == pytest.approx(want_a, abs=1e-9)
    assert v0 == pytest.approx(want_v0, abs=1e-9)


def test_shooting_root_does_not_depend_on_the_start(oracle):
    (a, _), (a_half, _) = oracle["root"], oracle["half"]
    assert abs(a_half - a) < 1e-10 * abs(a)


def picard_errors(oracle):
    """Picard's errors at the pole and at s = 0 per resolution, against the oracle."""
    a, v0 = oracle["root"]
    return {res: (abs(v[-1] - a), abs(v[v.size // 2] - v0))
            for res, v in oracle["picard"].items()}


def test_picard_errors_fall_with_resolution(oracle):
    err = [picard_errors(oracle)[res] for res in RESOLUTIONS[:3]]
    for coarse, fine in zip(err, err[1:]):
        assert fine[0] < coarse[0] and fine[1] < coarse[1]


def test_picard_is_second_order_at_the_centre(oracle):
    err = picard_errors(oracle)
    for coarse, fine in zip(RESOLUTIONS[1:], RESOLUTIONS[2:]):
        order = math.log2(err[coarse][1] / err[fine][1])
        assert 1.9 <= order <= 2.1, (coarse, fine, order)
