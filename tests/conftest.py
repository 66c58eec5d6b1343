import numpy as np
import pytest

from cscglue import geometry, gluing, linear_solver, yamabe


@pytest.fixture(scope="session")
def model_a():
    return geometry.make_model("torus2_x_sphere3")


@pytest.fixture(scope="session")
def model_b():
    return geometry.make_model("sphere2_x_sphere3")


@pytest.fixture(scope="session")
def model_flat():
    return geometry.make_model("sphere2_x_ball3")


@pytest.fixture(scope="session")
def fermi_a(model_a):
    return geometry.fermi_metric(model_a)


@pytest.fixture(scope="session")
def fermi_b(model_b):
    return geometry.fermi_metric(model_b)


@pytest.fixture(scope="session")
def cfg05(model_a):
    return gluing.GluingConfig(model_a, model_a, eps=0.05)


@pytest.fixture(scope="session")
def glued05(cfg05):
    return gluing.glued_metric(cfg05)


@pytest.fixture(scope="session")
def stack05(cfg05):
    """Grid, curvature profile, and operator at eps = 0.05."""
    grid = linear_solver.build_grid(cfg05, 64)
    prof, perr = linear_solver.glued_curvature_profile(cfg05, grid)
    op = linear_solver.assemble_L(grid, prof, cfg05.m)
    return grid, (prof, perr), op


@pytest.fixture(scope="session")
def report05(cfg05, stack05):
    grid, prof_pair, _ = stack05
    return yamabe.picard_solve(cfg05, grid=grid, profile=prof_pair)


@pytest.fixture()
def rng():
    # function-scoped so every test sees the same deterministic stream
    # regardless of which subset of the suite runs
    return np.random.default_rng(20240817)


@pytest.fixture()
def eig_calls(monkeypatch):
    """Records (select, number of eigenvalues found, select_range) per
    eigh_tridiagonal call made by linear_solver."""
    calls = []
    real = linear_solver.eigh_tridiagonal

    def recording(d, e, eigvals_only=False, select="a", select_range=None,
                  *args, **kwargs):
        vals = real(d, e, eigvals_only, select, select_range, *args, **kwargs)
        calls.append((select, len(vals if eigvals_only else vals[0]),
                      select_range))
        return vals

    monkeypatch.setattr(linear_solver, "eigh_tridiagonal", recording)
    return calls
