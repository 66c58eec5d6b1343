import _ctypes
import copy
import ctypes
import dataclasses
import math
import re

import mpmath as mp
import numpy as np
import pytest
from scipy.linalg import eigh_tridiagonal, solve_banded
from scipy.linalg import lapack as scipy_lapack

from cscglue import curvature, geometry, gluing, lapack, linear_solver as ls, yamabe
from cscglue.errors import NearSingularOperator, NoConvergence, OutOfFloatRange


def _full_spectrum(op):
    """Test-side oracle: symmetrize with sqrt(V) and solve exactly."""
    d = np.sqrt(op.V)
    off = op.sup * d[:-1] / d[1:]
    return np.sort(eigh_tridiagonal(op.diag, off, eigvals_only=True))


def test_flat_grid_neumann_spectrum():
    grid = ls.build_flat_grid(math.pi, 64)
    op = ls.assemble_L(grid, 0.0, 5)
    vals = _full_spectrum(op)[::-1]
    # Neumann eigenvalues of the 1-D Laplacian on [0, pi]: -k^2
    assert abs(vals[0]) <= 1e-10
    for k in (1, 2, 3):
        assert abs(vals[k] + k**2) / k**2 <= 1e-3


def test_single_sphere_weights_and_spectrum(model_a):
    grid = ls.build_grid_single(model_a, 64)
    # an inner dual cell's volume is the orbit weight, proportional to
    # sin^2 r, times the cell's length
    w = grid.V[1:-1] / (0.5 * (grid.h[:-1] + grid.h[1:]))
    w /= np.max(w)
    ref = np.sin(grid.s[1:-1]) ** 2
    ref /= np.max(ref)
    assert np.max(np.abs(w - ref)) <= 1e-12
    op = ls.assemble_L(grid, 0.0, model_a.m)
    vals = _full_spectrum(op)[::-1]
    # radial spectrum of round S^3: -j(j+2)
    assert abs(vals[0]) <= 1e-9
    for i, lam in enumerate((-3.0, -8.0, -15.0), start=1):
        assert abs(vals[i] - lam) / abs(lam) <= 1e-3


def test_summand_operator_symmetric_gap(model_a):
    grid = ls.build_grid_single(model_a, 64)
    op = ls.assemble_L(grid, model_a.S, model_a.m)
    lam = ls.smallest_eigenvalue(op)
    gap = geometry.injectivity_gap(model_a, 40.0, symmetric_only=True)
    assert abs(abs(lam) - gap) <= 1e-2


def test_self_adjointness(stack05):
    _, _, op = stack05
    assert op.asymmetry() <= 1e-12


def test_neck_radial_coefficient(cfg05, stack05):
    # the flux coefficient is W g^{ss} = W u^{-4/(n-2)} at the cell midpoints,
    # with the orbit volume W = u^{2n/(n-2)} q^{(n-1)/2}
    grid, _, _ = stack05
    n = cfg05.n
    u, q = cfg05.warp(np.abs(0.5 * (grid.s[:-1] + grid.s[1:])))
    expected = u ** (2.0 * n / (n - 2)) * q ** ((n - 1) / 2.0) * u ** (-4.0 / (n - 2))
    assert np.max(np.abs(grid.K_half - expected) / expected) <= 1e-12


def test_grid_mirror_and_interfaces():
    for name in ("torus2_x_sphere3", "sphere2_x_sphere3"):
        model = geometry.make_model(name)
        cfg = gluing.GluingConfig(model, model, eps=0.05)
        grid = ls.build_grid(cfg, 64)
        assert np.array_equal(grid.s, -grid.s[::-1])
        assert np.array_equal(grid.K_half, grid.K_half[::-1])
        assert np.array_equal(grid.V, grid.V[::-1])
        T = cfg.t_max
        i1 = int(np.argmin(np.abs(grid.s + T)))  # the node nearest the side-1 seam
        assert abs(grid.s[i1] + T) <= grid.h[0]
        # the orbit weight W = u^{2n/(n-2)} q^{(n-1)/2} of cfg.warp, times
        # the dual cell's length, is the node's volume
        n = cfg.n
        u, q = cfg.warp(np.abs(grid.s[i1]))
        W = u ** (2.0 * n / (n - 2)) * q ** ((n - 1) / 2.0)
        dual = 0.5 * (grid.h[i1 - 1] + grid.h[i1])
        assert abs(W * dual - grid.V[i1]) <= 1e-14 * grid.V[i1]
        # near the interface the cylindrical weight, times the constant volume
        # factor w0 of g_K + ds^2 + g_{S^{n-1}} that the grid leaves out,
        # equals the summand's cap-chart weight times the jacobian |dr/dt| = r
        z, th = geometry.sample_orbit(model)
        w0 = math.sqrt(np.linalg.det(geometry.product_components(
            model, np.array([*z, 0.0, *th]), 1.0, 1.0)))
        r = cfg.eps * math.exp(-grid.s[i1])
        g_cap = geometry.fermi_metric(model).components("cap-1",
                                                        np.array([*z, r, *th]))
        w_cap = r * math.sqrt(abs(np.linalg.det(g_cap)))
        assert abs(w0 * W - w_cap) <= 1e-10 * w_cap

        # one seam rule: the caps are |s| >= t_max, where the profile is the
        # summands' exact S; every other node takes the neck formula
        cap = np.abs(grid.s) >= T
        assert np.array_equal(grid.cap, cap)
        assert cap[0] and cap[-1] and not cap[grid.size // 2]
        prof, err = ls.glued_curvature_profile(cfg, grid)
        assert np.all(prof[cap] == cfg.S) and np.all(err[cap] == 0.0)
        S_neck, err_neck = ls.neck_scalar_curvature(
            cfg, *cfg.warp_jets(np.abs(grid.s[~cap])))
        assert np.array_equal(prof[~cap], S_neck)
        assert np.array_equal(err[~cap], err_neck)


def test_grid_widths_are_read_from_its_nodes():
    # the nodes are the mesh: a stored width could disagree with them
    model = geometry.make_model("torus2_x_sphere3")
    grid = ls.build_grid(gluing.GluingConfig(model, model, eps=0.05), 64)
    assert "h" not in [f.name for f in dataclasses.fields(grid)]
    assert grid.h.tobytes() == np.diff(grid.s).tobytes()


def test_solve_inverse_consistency(stack05, rng):
    grid, _, op = stack05
    v_star = np.sin(grid.s) * np.exp(-0.1 * grid.s**2)
    f = op.apply(v_star)
    v = ls.solve(op, f)
    assert np.max(np.abs(v - v_star)) <= 1e-8 * np.max(np.abs(v_star))
    assert np.max(np.abs(ls.solve(op, np.zeros(grid.size)))) == 0.0


def test_forced_kernel_near_singular(model_a, cfg05):
    grid = ls.build_grid_single(model_a, 64)
    op0 = ls.assemble_L(grid, 0.0, model_a.m)
    vals = _full_spectrum(op0)
    lam = vals[np.argmin(np.abs(vals + 3.0))]  # the discrete -3 eigenvalue
    op = ls.assemble_L(grid, -lam * (model_a.m - 1), model_a.m)
    assert abs(ls.smallest_eigenvalue(op)) <= 1e-8
    with pytest.raises(NearSingularOperator):
        ls.solve(op, np.ones(grid.size))
    # the kernel shifted to 5e-9, inside the gate's window, and to 2e-8,
    # outside it; the gate reads its window alone, never min_abs_eig
    shifted = lambda mu: (mu - lam) * (model_a.m - 1) * np.ones(grid.size)
    op = ls.assemble_L(grid, shifted(5e-9), model_a.m)
    with pytest.raises(NearSingularOperator):
        ls.solve(op, np.ones(grid.size))
    with pytest.raises(NearSingularOperator):
        yamabe.picard_solve(cfg05, resolution=64, grid=grid, profile=(shifted(5e-9), None))
    assert abs(ls.smallest_eigenvalue(op) - 5e-9) <= 1e-11
    op = ls.assemble_L(grid, shifted(2e-8), model_a.m)
    assert np.all(np.isfinite(ls.solve(op, np.ones(grid.size))))
    assert abs(ls.smallest_eigenvalue(op) - 2e-8) <= 1e-11


def test_replaced_operator_reads_its_own_spectrum(cfg05, stack05):
    # the spectral facts are cached on an operator, not fields of it, so a
    # copy with the kernel shifted to about 1e-12 starts without them
    grid, (prof, _), _ = stack05
    op = ls.assemble_L(grid, prof, cfg05.m)
    lam = op.min_abs_eig
    assert np.all(np.isfinite(ls.solve(op, np.ones(grid.size))))
    op2 = dataclasses.replace(op, diag=op.diag - lam + 1e-12)
    with pytest.raises(NearSingularOperator):
        ls.solve(op2, np.ones(grid.size))
    # the shift rounds at the spacing of max|diag|, about 3e-11
    assert abs(op2.min_abs_eig - 1e-12) <= 1e-10
    assert op.min_abs_eig == lam
    assert [f.name for f in dataclasses.fields(ls.DiscreteOperator)] == [
        "sub", "diag", "sup", "V"]


@pytest.mark.parametrize("case", ["glued05", "summand_a"])
def test_smallest_eigenvalue_matches_dense(case, stack05, model_a):
    if case == "glued05":
        op = stack05[2]
    else:
        op = ls.assemble_L(ls.build_grid_single(model_a, 64), model_a.S,
                           model_a.m)
    # dense eigensolve of the full nonsymmetric matrix: no use of V at all
    i = np.arange(op.size)
    L = np.zeros((op.size, op.size))
    L[i, i] = op.diag
    L[i[:-1], i[1:]] = op.sup
    L[i[1:], i[:-1]] = op.sub
    vals = np.linalg.eigvals(L)
    ref = vals[np.argmin(np.abs(vals))]
    # rounding of a dense solve scales with the largest matrix entry
    bound = 100 * np.finfo(float).eps * np.max(np.abs(op.diag))
    assert np.max(np.abs(vals.imag)) <= bound
    assert abs(ls.smallest_eigenvalue(op) - ref.real) <= bound


def _glued_operator(name, eps, resolution):
    model = geometry.make_model(name)
    cfg = gluing.GluingConfig(model, model, eps=eps)
    grid = ls.build_grid(cfg, resolution)
    prof, _ = ls.glued_curvature_profile(cfg, grid)
    return ls.assemble_L(grid, prof, cfg.m)


def _mp_sturm_count(diag, off2, x):
    """Eigenvalues below x of the tridiagonal matrix (diag, off), counted
    as the negative pivots of T - x = L D L^T; off2[i] = off[i-1]^2."""
    count, d = 0, mp.mpf(1)
    for a, b2 in zip(diag, off2):
        d = (a - x) - b2 / d
        count += d < 0
    return count


@pytest.mark.parametrize("name", ["torus2_x_sphere3", "sphere2_x_sphere3"])
@pytest.mark.parametrize("eps,resolution", [(0.02, 64), (2e-3, 256), (1e-4, 256)])
def test_smallest_eigenvalue_certified_by_mpmath_sturm_counts(name, eps,
                                                               resolution):
    # 40-digit Sturm counts of the float64 symmetrized matrix, no LAPACK:
    # some eigenvalue lies within delta of the returned value, and none
    # has a smaller magnitude
    op = _glued_operator(name, eps, resolution)
    lam = ls.smallest_eigenvalue(op)
    off = op.sup * np.sqrt(op.V[:-1] / op.V[1:])
    with mp.workdps(40):
        diag = [mp.mpf(a) for a in op.diag]
        off2 = [mp.mpf(0)] + [mp.mpf(b) ** 2 for b in off]
        count = lambda x: _mp_sturm_count(diag, off2, x)
        lam_mp, delta = mp.mpf(lam), mp.mpf(1e-12)
        assert count(lam_mp + delta) - count(lam_mp - delta) >= 1
        assert count(abs(lam_mp) - delta) - count(-abs(lam_mp) + delta) == 0


@pytest.mark.parametrize("shift", [56.5, -10.0])
def test_smallest_eigenvalue_widens_an_empty_window(shift, eig_calls):
    # 56.5 lies between the Neumann levels 49 and 64, so the nearest
    # eigenvalues sit near +-7.5; at -10 the whole spectrum is negative.
    # Either way the first window around 0 holds no eigenvalue.
    op = ls.assemble_L(ls.build_flat_grid(math.pi, 64), shift * 4, 5)
    vals = _full_spectrum(op)
    ref = vals[np.argmin(np.abs(vals))]
    assert abs(ls.smallest_eigenvalue(op) - ref) <= 1e-12 * abs(ref)
    assert eig_calls[0][1] == 0 and eig_calls[-1][1] > 0


def test_smallest_eigenvalue_never_asks_for_the_whole_spectrum(stack05, model_a,
                                                               eig_calls):
    flat = ls.build_flat_grid(math.pi, 64)
    ops = [stack05[2], ls.assemble_L(flat, -40.0, 5),
           ls.assemble_L(ls.build_grid_single(model_a, 64), model_a.S, model_a.m)]
    for op in ops:
        ls.smallest_eigenvalue(op)
    assert eig_calls
    assert all(select != "a" for select, *_ in eig_calls)


def test_refinement_order(model_flat):
    # smooth data: the synthetic exact field has a constant potential, so
    # the measured rate isolates the scheme itself
    cfg = gluing.SyntheticExactConfig(model_flat, model_flat, eps=0.08)

    def solve_at(res):
        grid = ls.build_grid(cfg, res)
        prof, _ = ls.glued_curvature_profile(cfg, grid)
        op = ls.assemble_L(grid, prof, model_flat.m)
        f = np.exp(-0.5 * grid.s**2) * (1 + 0.2 * np.sin(grid.s))
        return grid.s, ls.solve(op, f)

    s_ref, v_ref = solve_at(192)
    errs = []
    for res in (24, 48, 96):
        s, v = solve_at(res)
        errs.append(np.max(np.abs(v - np.interp(s, s_ref, v_ref))))
    order1 = math.log2(errs[0] / errs[1])
    order2 = math.log2(errs[1] / errs[2])
    assert min(order1, order2) >= 1.8


def test_discrete_maximum_principle(rng):
    grid = ls.build_flat_grid(2.0, 64)
    op = ls.assemble_L(grid, -0.5 * 4, 5)  # nonpositive potential -0.5
    f = rng.uniform(0.0, 1.0, size=grid.size)
    v = ls.solve_dirichlet(op, f, 0, grid.size - 1, 0.0, 0.0)
    assert np.max(v) <= 1e-12


def test_wrong_banded_answer_is_no_convergence(stack05, monkeypatch):
    # both solves check the residual of the answer LAPACK gives back: solve,
    # and solve_dirichlet on its window's operator, get it from
    # TridiagonalLU.solve through solve_banded; a NaN answer has a NaN
    # residual, which must fail the check too
    _, _, op = stack05
    f = np.ones(op.size)
    exact_lu = lapack.TridiagonalLU.solve
    for wrong in (lambda x: x * (1.0 + 1e-6), lambda x: np.full_like(x, np.nan)):
        monkeypatch.setattr(lapack.TridiagonalLU, "solve",
                            lambda self, b: wrong(exact_lu(self, b)))
        with pytest.raises(NoConvergence):
            ls.solve(op, f)
        with pytest.raises(NoConvergence):
            ls.solve_dirichlet(op, f, 10, op.size - 11, 1.0, 1.0)


def test_solve_rejects_non_finite_source(stack05):
    # the factored path keeps solve_banded's input checks: a non-finite
    # source is a ValueError and an exactly zero pivot a LinAlgError
    _, _, op = stack05
    for bad in (np.nan, np.inf):
        f = np.ones(op.size)
        f[op.size // 2] = bad
        with pytest.raises(ValueError):
            ls.solve(op, f)
    # a first column of zeros: T, which the gate reads, never sees sub
    singular = dataclasses.replace(op, diag=np.r_[0.0, op.diag[1:]],
                                   sub=np.r_[0.0, op.sub[1:]])
    with pytest.raises(np.linalg.LinAlgError):
        ls.solve(singular, np.ones(op.size))


@pytest.mark.parametrize("eps, error", [(1e-80, NoConvergence), (1e-120, OutOfFloatRange)])
def test_gate_out_of_double_range_raises_typed(model_a, eps, error):
    # at 1e-80 max|diag| is about 3e161 and bisection does not converge; at
    # 1e-120 the grid volumes underflow, which build_grid reports before the
    # assembly divides by them.  Both were numpy errors that aborted a sweep.
    cfg = gluing.GluingConfig(model_a, model_a, eps=eps)
    with pytest.raises(error):
        yamabe.picard_solve(cfg, resolution=16)
    (row,) = yamabe.convergence_sweep(lambda e: cfg, [eps], resolution=16).rows
    assert row.error.startswith(f"{error.__name__}: ")
    assert row.iters == 0 and math.isnan(row.sup_v)


def _solve_banded_tridiagonal(op, f):
    ab = np.zeros((3, op.size))
    ab[0, 1:], ab[1], ab[2, :-1] = op.sup, op.diag, op.sub
    return solve_banded((1, 1), ab, f)


@pytest.fixture(scope="module")
def deep_op():
    """The deep-eps benchmark's operator: eps 2e-3 at resolution 256."""
    return _glued_operator("torus2_x_sphere3", 2e-3, 256)


@pytest.mark.parametrize("case", ["stack05", "eps2e-3_res256"])
def test_factored_solve_equals_solve_banded(case, stack05, deep_op, rng):
    # one TridiagonalLU per operator and one solve per source give the bits
    # of a fresh solve_banded((1, 1), ...) per source
    op = stack05[2] if case == "stack05" else deep_op
    for f in (np.ones(op.size), rng.standard_normal(op.size),
              op.apply(np.cos(np.linspace(0.0, 3.0, op.size)))):
        assert ls.solve(op, f).tobytes() == _solve_banded_tridiagonal(op, f).tobytes()


def _scipy_window(d, e, lo, hi, tol):
    return eigh_tridiagonal(d, e, eigvals_only=True, select="v", select_range=(lo, hi),
                            lapack_driver="stebz", tol=tol)


def _scipy_dirichlet(op, f, i0, i1, left, right):
    """solve_dirichlet's window from solve_banded((1, 1), ...) on the folded inner system."""
    rhs = f[i0 + 1:i1].copy()
    rhs[0] -= op.sub[i0] * left
    rhs[-1] -= op.sup[i1 - 1] * right
    ab = np.zeros((3, i1 - i0 - 1))
    ab[0, 1:], ab[1], ab[2, :-1] = op.sup[i0 + 1:i1 - 1], op.diag[i0 + 1:i1], op.sub[i0 + 1:i1 - 1]
    return np.r_[left, solve_banded((1, 1), ab, rhs), right]


def test_lapack_gives_the_bits_of_scipy_linalg(deep_op, monkeypatch):
    # cscglue.lapack reaches the LAPACK that scipy.linalg wraps without
    # importing scipy.linalg; its wrappers must give scipy.linalg's bits
    op = deep_op
    assert op.size == 3769
    d, e = op.diag, op.symmetric_off
    r = ls.MIN_ABS_EIG
    for (lo, hi), found in (((-r, r), 0), ((-64.0, 64.0), 16)):
        vals = lapack.eigenvalues_between(d, e, lo, hi, 1e-12)
        assert vals.size == found
        assert vals.tobytes() == _scipy_window(d, e, lo, hi, 1e-12).tobytes()
    lam = ls.smallest_eigenvalue(op)
    monkeypatch.setattr(ls, "eigenvalues_between", _scipy_window)
    assert np.float64(ls.smallest_eigenvalue(op)).tobytes() == np.float64(lam).tobytes()
    # solve_dirichlet's one TridiagonalLU per window: the full grid, an
    # interior window and a one-node window
    f = op.apply(np.cos(np.linspace(0.0, 3.0, op.size)))
    N = op.size
    for i0, i1 in ((0, N - 1), (N // 4, 3 * N // 4), (N // 2 - 1, N // 2 + 1)):
        v = ls.solve_dirichlet(op, f, i0, i1, 0.3, -0.7)
        assert v.tobytes() == _scipy_dirichlet(op, f, i0, i1, 0.3, -0.7).tobytes()


def test_lapack_wrappers_check_their_input(stack05):
    # the checks of the scipy.linalg wrappers they stand for
    _, _, op = stack05
    d, e, f = op.diag, op.symmetric_off, np.ones(op.size)
    nan = np.r_[np.nan, d[1:]]
    lu = lapack.TridiagonalLU(op.sub, d, op.sup)
    for call in (lambda: lapack.eigenvalues_between(nan, e, -1.0, 1.0, 1e-12),
                 lambda: lapack.eigenvalues_between(d, e[1:], -1.0, 1.0, 1e-12),
                 lambda: lapack.eigenvalues_between(d, e, 1.0, -1.0, 1e-12),
                 lambda: lapack.TridiagonalLU(op.sub, nan, op.sup),
                 lambda: lu.solve(np.r_[f[1:], np.inf]),
                 lambda: lapack.TridiagonalLU(op.sub[1:], d, op.sup),
                 lambda: lu.solve(f[1:])):
        with pytest.raises(ValueError):
            call()
    # a first column of zeros: an exactly zero pivot
    with pytest.raises(np.linalg.LinAlgError):
        lapack.TridiagonalLU(np.r_[0.0, op.sub[1:]], np.r_[0.0, d[1:]], op.sup)


def test_lapack_loader_names_the_file_and_every_spelling():
    # one route, no fallback: a library without the routines is an
    # ImportError naming the file and each symbol spelling tried
    path = _ctypes.__file__
    with pytest.raises(ImportError, match=re.escape(path)) as err:
        lapack.load(path)
    for prefix, suffix, _ in lapack.SPELLINGS:
        assert f"{prefix}<r>{suffix}" in str(err.value)


def test_ilaver_tells_the_integer_widths_apart():
    # a routine called with the wrong integer width reads and writes the
    # wrong bytes; the one ilaver call that confirms the width passes for
    # the library's own type only
    lib = ctypes.CDLL(np.linalg._umath_linalg.__file__)
    for prefix, suffix, c_int in lapack.SPELLINGS:
        ilaver = getattr(lib, f"{prefix}ilaver{suffix}", None)
        if ilaver is not None:
            break
    ilaver.argtypes, ilaver.restype = [ctypes.c_void_p] * 3, None
    other = ctypes.c_int32 if c_int is ctypes.c_int64 else ctypes.c_int64
    assert lapack._width_confirmed(ilaver, np.dtype(c_int))
    assert not lapack._width_confirmed(ilaver, np.dtype(other))


@pytest.mark.parametrize("name", ["torus2_x_sphere3", "sphere2_x_sphere3"])
@pytest.mark.parametrize("eps, resolution", [(0.16, 16), (0.02, 64), (2e-3, 256), (1e-4, 512)])
def test_lapack_factors_give_the_bits_of_scipy_linalg_lapack(name, eps, resolution):
    # scipy.linalg.lapack is the oracle only: TridiagonalLU's factors and
    # pivots are dgttrf's and its solve is dgttrs's, bit for bit, on the
    # glued operators
    op = _glued_operator(name, eps, resolution)
    lu = lapack.TridiagonalLU(op.sub, op.diag, op.sup)
    theirs = scipy_lapack.dgttrf(op.sub, op.diag, op.sup)
    ours = lu._factors
    assert [a.tobytes() for a in ours[:4]] == [a.tobytes() for a in theirs[:4]]
    assert np.array_equal(ours[4], theirs[4]) and theirs[5] == 0
    f = op.apply(np.cos(np.linspace(0.0, 3.0, op.size)))
    y, scipy_info = scipy_lapack.dgttrs(*theirs[:5], f)
    assert lu.solve(f).tobytes() == y.tobytes() and scipy_info == 0
    for a in ours:  # read-only factors take the other address path
        a.flags.writeable = False
    assert lu.solve(f).tobytes() == y.tobytes()


def test_lapack_refuses_wrong_arrays_before_any_call(stack05, monkeypatch):
    # ctypes checks nothing LAPACK reads or writes: a wrong length, a
    # non-finite entry, or a band of the wrong dtype or memory order must be
    # a ValueError before any routine is called; TridiagonalLU copies its
    # vectors, so their dtype and order are its own
    _, _, op = stack05
    dl, d, du, n = op.sub, op.diag, op.sup, op.size
    lu = lapack.TridiagonalLU(dl, d, du)
    called = []
    monkeypatch.setattr(lapack, "_lapack", {r: lambda *a, r=r: called.append(r)
                                            for r in ("dgttrf", "dgttrs", "dgbsv")})
    ab, b = np.zeros((13, n), order="F"), np.ones(n)
    readonly = ab.copy(order="F")
    readonly.flags.writeable = False
    for call in (lambda: lapack.TridiagonalLU(dl[1:], d, du),
                 lambda: lapack.TridiagonalLU(dl, d, du[1:]),
                 lambda: lapack.TridiagonalLU(dl, d[1:], du),
                 lambda: lapack.TridiagonalLU(dl, d[None, :], du),
                 lambda: lapack.TridiagonalLU(dl, np.r_[np.nan, d[1:]], du),
                 lambda: lapack.TridiagonalLU(dl, d, np.r_[du[:-1], np.inf]),
                 lambda: lu.solve(b[1:]),
                 lambda: lu.solve(np.r_[b, b]),
                 lambda: lu.solve(b[:, None]),
                 lambda: lu.solve(np.r_[b[:-1], np.nan]),
                 lambda: lu.solve(np.r_[-np.inf, b[1:]]),
                 lambda: lapack.dgbsv(4, 4, np.ascontiguousarray(ab), b),
                 lambda: lapack.dgbsv(4, 4, ab[1:], b),
                 lambda: lapack.dgbsv(4, 4, ab, b[1:]),
                 lambda: lapack.dgbsv(4, 4, ab.astype(np.float32, order="F"), b),
                 lambda: lapack.dgbsv(4, 4, readonly, b),
                 lambda: lapack.dgbsv(-1, 4, ab[4:], b)):
        with pytest.raises(ValueError):
            call()
    assert called == []


def test_zero_pivot_is_a_linalg_error(stack05):
    # LAPACK's info > 0, an exactly zero pivot, raised where it is read
    _, _, op = stack05
    with pytest.raises(np.linalg.LinAlgError):  # a first column of zeros
        lapack.TridiagonalLU(np.r_[0.0, op.sub[1:]], np.r_[0.0, op.diag[1:]], op.sup)
    kl = ku = 1
    ab = np.zeros((2 * kl + ku + 1, 5), order="F")
    ab[kl + ku] = [1.0, 2.0, 0.0, 3.0, 4.0]  # diagonal with a zero, nothing off it
    with pytest.raises(np.linalg.LinAlgError):
        lapack.dgbsv(kl, ku, ab, np.ones(5))


def test_a_copied_operator_solves_with_its_own_factors(rng):
    # the factors' addresses are read from the instance's own arrays on each
    # solve: a deep copy made after the first solve must not reach the
    # original's, here spoiled and then freed
    op = _glued_operator("torus2_x_sphere3", 0.02, 64)
    f = rng.standard_normal(op.size)
    x = ls.solve(op, f)
    twin = copy.deepcopy(op)
    for a in op.lu._factors:
        a.fill(np.nan if a.dtype.kind == "f" else 0)
    del op
    assert ls.solve(twin, f).tobytes() == x.tobytes()


def test_one_node_dirichlet_window(stack05):
    # i1 = i0 + 2 leaves one inner node: a 1x1 system, which scipy's
    # solve_banded and TridiagonalLU both solve by one division
    _, _, op = stack05
    f = np.cos(np.arange(op.size, dtype=float))
    i0, left, right = 20, 0.3, -0.7
    rhs = f[i0 + 1] - op.sub[i0] * left - op.sup[i0 + 1] * right
    inner = solve_banded((1, 1), np.array([[0.0], [op.diag[i0 + 1]], [0.0]]), [rhs])
    v = ls.solve_dirichlet(op, f, i0, i0 + 2, left, right)
    assert v.tobytes() == np.r_[left, inner, right].tobytes()
    # a zero pivot there is a typed error, not a division warning (which
    # pyproject.toml's filterwarnings would turn into a RuntimeWarning error)
    singular = dataclasses.replace(op, diag=np.where(np.arange(op.size) == i0 + 1,
                                                     0.0, op.diag))
    with pytest.raises(np.linalg.LinAlgError):
        ls.solve_dirichlet(singular, f, i0, i0 + 2, left, right)


@pytest.mark.parametrize("i0, i1, size", [(-5, 20, None), (20, None, None), (20, 40, 3)],
                         ids=["-5-20", "20-None", "short-source"])
def test_dirichlet_window_outside_the_grid_is_refused_by_name(stack05, i0, i1, size):
    # i0 = -5 gave a bare IndexError, i1 = N a LAPACK complaint about the
    # diagonal lengths and a source shorter than the grid a bare IndexError;
    # each is a ValueError naming the window and the grid, or the shapes
    _, _, op = stack05
    N = op.size
    i1 = N if i1 is None else i1
    match = (rf"i0 = {i0}, i1 = {i1} .* grid of {N} nodes" if size is None
             else re.escape(f"shape ({size},) does not fit a diagonal of shape ({N},)"))
    with pytest.raises(ValueError, match=match):
        ls.solve_dirichlet(op, np.zeros(size or N), i0, i1, 0.0, 0.0)


def test_one_factorization_per_operator_in_convergence_sweep(model_a, monkeypatch):
    # one TridiagonalLU per row and one of its solves per Picard iteration
    calls = {"__init__": 0, "solve": 0}
    for name in calls:
        real = getattr(lapack.TridiagonalLU, name)

        def counting(self, *a, real=real, name=name):
            calls[name] += 1
            return real(self, *a)
        monkeypatch.setattr(lapack.TridiagonalLU, name, counting)
    cfgs = {e: gluing.GluingConfig(model_a, model_a, eps=e) for e in (0.04, 0.02, 0.01)}
    table = yamabe.convergence_sweep(cfgs.__getitem__, list(cfgs), resolution=64)
    assert not any(r.error for r in table.rows)
    assert calls == {"__init__": len(table.rows),
                     "solve": sum(r.iters for r in table.rows)}


def test_grid_and_profile_evaluate_each_mirror_pair_once(monkeypatch):
    points = []
    for name in ("warp", "warp_jets"):
        real = getattr(gluing.GluingConfig, name)

        def counting(self, t, real=real):
            points.append(np.size(t))
            return real(self, t)
        monkeypatch.setattr(gluing.GluingConfig, name, counting)
    for name in ("torus2_x_sphere3", "sphere2_x_sphere3"):
        model = geometry.make_model(name)
        for eps in (0.05, 2e-3):
            cfg = gluing.GluingConfig(model, model, eps=eps)
            points.clear()
            grid = ls.build_grid(cfg, 64)
            N = grid.size
            # half the nodes, half the midpoints, and the four quadrature
            # nodes that the two mirrored end cells share
            assert sum(points) <= math.ceil(N / 2) + math.ceil((N - 1) / 2) + 4
            points.clear()
            ls.glued_curvature_profile(cfg, grid)
            assert len(points) == 1  # one warp_jets call for all neck nodes
            assert points[0] <= math.ceil(np.count_nonzero(~grid.cap) / 2)


# Bits of global_estimate_ratio at eps = 0.02, resolution 64: (ratio,
# min_abs_eig).  They hold for numpy's float64 exp on x86-64; another libm
# may move the last bits.
GLOBAL_PINNED = {
    "torus2_x_sphere3": ("0x1.a1ba03c8d163ep-5", "-0x1.67c62864c1800p+0"),
    "sphere2_x_sphere3": ("0x1.d54fe51c3c79dp-5", "-0x1.27c62864c1800p+0"),
}


@pytest.mark.parametrize("name", sorted(GLOBAL_PINNED))
def test_global_estimate_keeps_its_bits(name):
    model = geometry.make_model(name)
    rep = ls.global_estimate_ratio(gluing.GluingConfig(model, model, eps=0.02), 64)
    assert (rep.ratio.hex(), rep.min_abs_eig.hex()) == GLOBAL_PINNED[name]


def test_global_estimate_refuses_the_zero_source_of_an_exact_metric():
    # S_glued is S exactly there, so the conformal source is 0, v = 0 and
    # the ratio is 0/0: the one zero source a caller can reach
    model = geometry.make_model("sphere2_x_ball3")
    cfg = gluing.SyntheticExactConfig(model, model, eps=0.05)
    with pytest.raises(ValueError, match="'conformal' has a zero source"):
        ls.global_estimate_ratio(cfg, 64)


@pytest.mark.parametrize("left, right", [(0.0, 0.0), (0.2, 0.1)],
                         ids=["boundary-0", "boundary-positive"])
def test_estimate_ratio_homogeneity(model_a, left, right):
    # L is linear: a source and Dirichlet data scaled by 7.3 scale v on the
    # window |s| <= T - alpha, so the ratio holds to rounding, with and
    # without a boundary term
    cfg = gluing.GluingConfig(model_a, model_a, eps=0.05, alpha=2.7)
    grid = ls.build_grid(cfg, 48)
    op = ls.assemble_L(grid, ls.glued_curvature_profile(cfg, grid)[0], cfg.m)
    i0, i1 = (int(np.argmin(np.abs(grid.s - x))) for x in (cfg.alpha - cfg.t_max,
                                                           cfg.t_max - cfg.alpha))
    f = np.zeros(grid.size)
    f[i0 + 2:i1 - 2] = 1.0
    w_v, w_f = ls.estimate_weights(cfg, gluing.psi_of_t(grid.s[i0:i1 + 1], cfg))

    def ratio(c):
        v = ls.solve_dirichlet(op, c * f, i0, i1, c * left, c * right)
        den_b = max(w_v[0] * abs(v[0]), w_v[-1] * abs(v[-1]))
        return ls.estimate_ratio("f", v, c * f[i0 + 1:i1], (w_v, w_f[1:-1]), den_b)

    assert ratio(7.3) == pytest.approx(ratio(1.0), rel=1e-12)


def test_estimate_weights_are_one_on_the_caps(cfg05, stack05):
    # psi = 1 on the caps, so both estimates weigh v and f there as they are
    grid = stack05[0]
    for w in ls.estimate_weights(cfg05, gluing.psi_of_t(grid.s, cfg05)):
        assert np.all(w[grid.cap] == 1.0)


@pytest.mark.parametrize("name", ["torus2_x_sphere3", "sphere2_x_sphere3"])
@pytest.mark.parametrize("eps", [1e-3, 1e-4])
def test_build_grid_small_eps(name, eps):
    # the orbit weight W spans about eps^-3 along the neck; the symmetry
    # checks must hold relative to it
    model = geometry.make_model(name)
    cfg = gluing.GluingConfig(model, model, eps=eps)
    grid = ls.build_grid(cfg, 256)
    assert np.array_equal(grid.V, grid.V[::-1])
    assert np.array_equal(grid.K_half, grid.K_half[::-1])
    assert np.all(grid.V > 0.0)
    assert ls.assemble_L(grid, cfg.S, cfg.m).asymmetry() <= 1e-12


def test_build_grid_resolution_precondition(cfg05, model_a):
    # every grid builder holds the one floor of 16 nodes per unit
    for build in (lambda res: ls.build_grid(cfg05, res),
                  lambda res: ls.build_grid_single(model_a, res),
                  lambda res: ls.build_flat_grid(math.pi, res)):
        for res in (8, 15):
            with pytest.raises(ValueError):
                build(res)
        assert build(16).size > 0


def _neck_profile(name, eps):
    model = geometry.make_model(name)
    cfg = gluing.GluingConfig(model, model, eps=eps)
    grid = ls.build_grid(cfg, 64)
    prof, _ = ls.glued_curvature_profile(cfg, grid)
    inner = ~grid.cap
    return model, gluing.glued_metric(cfg), grid.s[inner], prof[inner]


def test_curvature_profile_blind_to_curved_k():
    # only the normal block varies along the neck, so S - S_model must not
    # depend on whether K is a flat torus or a round sphere
    devs = []
    for name in ("torus2_x_sphere3", "sphere2_x_sphere3"):
        model, _, _, prof = _neck_profile(name, 0.02)
        devs.append(prof - model.S)
    assert np.max(np.abs(devs[0] - devs[1])) <= 1e-9


@pytest.mark.parametrize("name", ["torus2_x_sphere3", "sphere2_x_sphere3"])
@pytest.mark.parametrize("eps", [0.02, 0.05, 0.16])
def test_curvature_profile_matches_warped_product_oracle(name, eps):
    # the profile is the 1-D warped-product formula; the 5-D
    # finite-difference engine on the full metric must agree with it
    model, field, t, prof = _neck_profile(name, eps)
    k, n = model.k, model.n
    pts = np.zeros((t.size, model.m))
    pts[:, :k] = geometry.Z_SAMPLE_SPHERE2[:k]
    pts[:, k] = t
    pts[:, k + 1:] = geometry.THETA_SAMPLE[:n - 1]
    engine, _ = curvature.scalar_curvature(field, ("neck", pts))
    assert np.max(np.abs(prof - engine) / np.abs(engine)) <= 1e-4


def _mp_neck_scalar(model, eps, t):
    """Neck scalar curvature at 40 digits, written from the gluing's definitions.

    B(s) = E(s) / (E(s) + E(1 - s)) with E(s) = exp(-1/s) for s > 0;
    eta(t) = B(-log eps - t), chi(t) = B((1 - t) / 2);
    u = eta(t) eps^{(n-2)/2} e^{-(n-2)t/2} + eta(-t) eps^{(n-2)/2} e^{(n-2)t/2},
    U = u^{4/(n-2)}; q = chi q_S(eps e^{-t}) + (1 - chi) q_S(eps e^{t}) with
    q_S(r) = (rho sin(r/rho) / r)^2 for a round normal sphere of radius rho.
    The neck metric g_K + U (dt^2 + q g_{S^{n-1}}) is, with dtau = sqrt(U) dt
    and f = sqrt(U q), a warped product of scalar curvature
    S_K - 2(n-1) f_tautau / f + (n-1)(n-2) (1 - f_tau^2) / f^2.
    """
    n = model.n
    eps, t = mp.mpf(eps), mp.mpf(t)
    rho = mp.mpf(model.normal_factor.size)

    def B(s):
        E = lambda x: mp.exp(-1 / x) if x > 0 else mp.mpf(0)
        return E(s) / (E(s) + E(1 - s))

    def U(t):
        c = eps ** (mp.mpf(n - 2) / 2)
        u = (B(-mp.log(eps) - t) * c * mp.exp(-(n - 2) * t / 2)
             + B(-mp.log(eps) + t) * c * mp.exp((n - 2) * t / 2))
        return u ** (mp.mpf(4) / (n - 2))

    def f(t):
        chi = B((1 - t) / 2)
        q_S = lambda r: (rho * mp.sin(r / rho) / r) ** 2
        return mp.sqrt(U(t) * (chi * q_S(eps * mp.exp(-t))
                               + (1 - chi) * q_S(eps * mp.exp(t))))

    f0, f_t, f_tt = (mp.diff(f, t, j) for j in range(3))
    U0, U_t = U(t), mp.diff(U, t)
    f_tau = f_t / mp.sqrt(U0)
    f_tautau = f_tt / U0 - f_t * U_t / (2 * U0**2)
    S_K = sum(fac.scalar_curvature() for fac in model.k_factors)
    return (S_K - 2 * (n - 1) * f_tautau / f0
            + (n - 1) * (n - 2) * (1 - f_tau**2) / f0**2)


@pytest.mark.parametrize("eps,resolution",
                         [(0.02, 64), (2e-3, 256), (1e-4, 256), (1e-6, 256)])
def test_curvature_profile_within_error_bars_of_mpmath(eps, resolution):
    # the error bars must bound the error actually made; the nodes with the
    # largest bars sit where the 1/U-sized terms cancel, at the neck centre
    model = geometry.make_model("torus2_x_sphere3")
    cfg = gluing.GluingConfig(model, model, eps=eps)
    grid = ls.build_grid(cfg, resolution)
    prof, err = ls.glued_curvature_profile(cfg, grid)
    inner = np.flatnonzero(~grid.cap)
    nodes = np.union1d(inner[np.argsort(err[inner])[-4:]],
                       inner[np.linspace(0, inner.size - 1, 8).astype(int)])
    with mp.workdps(40):
        ref = np.array([float(_mp_neck_scalar(model, eps, grid.s[i]))
                        for i in nodes])
    assert np.all(np.abs(prof[nodes] - ref) <= err[nodes])
