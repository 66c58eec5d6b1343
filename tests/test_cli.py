import importlib.util
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import cscglue
from cscglue import cli, geometry, gluing, neck_analysis
from cscglue.errors import ConfigError, EpsilonTooLarge

BASE = """
# experiment configuration
model.name = torus2_x_sphere3
gluing.epsilon = 0.05
gluing.delta = 0.3
grid.resolution = 64
"""


@pytest.fixture()
def cfg_file(tmp_path):
    p = tmp_path / "cfg.txt"
    p.write_text(BASE)
    return str(p)


def test_parse_kv_and_overrides(cfg_file):
    cfg = cli.RunConfig.load(cfg_file, ["gluing.alpha=2.7", "grid.resolution=32"])
    assert cfg["model.name"] == "torus2_x_sphere3"
    assert cfg["gluing.alpha"] == 2.7
    assert cfg["grid.resolution"] == 32
    assert cfg.eps_list() == [0.05]


def test_parse_rejects_unknown_key(tmp_path):
    p = tmp_path / "bad.txt"
    p.write_text("model.nonsense = 3\n")
    with pytest.raises(ConfigError):
        cli.RunConfig.load(str(p), [])


def test_config_validation_exit_codes(cfg_file, tmp_path):
    out = str(tmp_path / "o")
    # delta outside the admissible interval: configuration error
    code = cli.main(["barrier", "--config", cfg_file,
                     "--set", "gluing.delta=0.6", "--out", out])
    assert code == 2
    # eps outside (0, e^-1)
    code = cli.main(["solve", "--config", cfg_file,
                     "--set", "gluing.epsilon=0.5", "--out", out])
    assert code == 2
    # resolution below the floor
    code = cli.main(["solve", "--config", cfg_file,
                     "--set", "grid.resolution=8", "--out", out])
    assert code == 2
    # settings the solver cannot run with: a configuration error, never a
    # traceback (exit 1 means a check failed)
    for bad in ("gluing.alpha=0", "gluing.alpha=nan", "yamabe.max_iter=0",
                "solver.tol=nan", "solver.tol=inf", "model.torus_side=nan"):
        code = cli.main(["solve", "--config", cfg_file, "--set", bad, "--out", out])
        assert code == 2, bad
    # a flat ball normal factor has no exact spectrum to check against
    code = cli.main(["spectrum", "--config", cfg_file,
                     "--set", "model.name=sphere2_x_ball3", "--out", out])
    assert code == 2


def test_validate_tensors(cfg_file, tmp_path):
    # the conformal cross-check runs on the configured model, of any n
    for name in ("torus2_x_sphere3", "sphere5"):
        out = tmp_path / name
        code = cli.main(["validate-tensors", "--config", cfg_file,
                         "--set", f"model.name={name}", "--out", str(out)])
        assert code == 0, name
        table = (out / "tensors.csv").read_text().splitlines()
        assert table[0].startswith("case,")
        s3 = [ln for ln in table if ln.startswith("sphere3_scalar")]
        assert len(s3) == 1
        fields = s3[0].split(",")
        assert float(fields[1]) == 6.0
        assert abs(float(fields[2]) - 6.0) <= 1e-5
        summary = json.loads((out / "run.json").read_text())
        assert summary["passed"] is True


def test_solve_subcommand_pass(cfg_file, tmp_path):
    out = tmp_path / "solve"
    code = cli.main(["solve", "--config", cfg_file, "--out", str(out)])
    assert code == 0
    rows = (out / "sweep.csv").read_text().splitlines()
    header = rows[0].split(",")
    row = dict(zip(header, rows[1].split(",")))
    assert float(row["eps"]) == 0.05
    assert float(row["residual"]) <= 1e-10
    assert (out / "sweep.dat").exists()
    assert (out / "run.json").exists()


def test_solve_subcommand_failed_check(cfg_file, tmp_path):
    # an over-tight iteration budget leaves the solve unconverged: the
    # run still writes artifacts and exits 1 with a named failing row
    out = tmp_path / "solvefail"
    code = cli.main(["solve", "--config", cfg_file,
                     "--set", "yamabe.max_iter=3", "--out", str(out)])
    assert code == 1
    summary = json.loads((out / "run.json").read_text())
    failed = [r for r in summary["checks"] if not r["passed"]]
    assert failed
    for row in failed:
        assert {"name", "measured", "bound", "provenance"} <= set(row)
    assert (out / "sweep.csv").exists()


def test_barrier_subcommand(cfg_file, tmp_path):
    out = tmp_path / "barrier"
    code = cli.main(["barrier", "--config", cfg_file,
                     "--set", "gluing.delta=-0.3,0,0.3",
                     "--set", "gluing.epsilon=0.02,0.05",
                     "--set", "gluing.alpha=2.7", "--out", str(out)])
    assert code == 0
    rows = (out / "barrier.csv").read_text().splitlines()
    assert rows[0] == "delta,eps,alpha,min_margin,C"
    assert len(rows) == 7
    assert all(float(r.split(",")[3]) >= 0.0 for r in rows[1:])


@pytest.mark.parametrize("eps, alpha, code", [
    (0.05, 3.0, 2),  # log eps + alpha >= 0: the region T^eps_alpha is empty
    (0.01, 1.0, 2),  # e^-alpha > C(3, 0.3) = 0.08
    (0.02, 2.7, 0),
], ids=["region-empty", "alpha-too-small", "admissible"])
def test_barrier_region_rule_is_the_analysis_rule(eps, alpha, code, tmp_path, capsys):
    # the CLI rejects a barrier configuration upfront, writing nothing,
    # with the message barrier_margin raises for it
    model = geometry.make_model("torus2_x_sphere3")
    gcfg = gluing.GluingConfig(model, model, eps=eps, delta=0.3, alpha=alpha)
    err = ""
    if code == 2:
        with pytest.raises(EpsilonTooLarge) as exc:
            neck_analysis.barrier_margin(gcfg)
        err = f"configuration error: {exc.value}\n"
    out = tmp_path / "out"
    assert cli.main(["barrier", "--set", f"gluing.epsilon={eps}", "--set",
                     f"gluing.alpha={alpha}", "--set", "gluing.delta=0.3",
                     "--out", str(out)]) == code
    assert capsys.readouterr().err == err
    assert out.exists() == (code == 0)


@pytest.mark.filterwarnings("error")
def test_barrier_out_of_double_range_exits_2(tmp_path, capsys):
    # the config is admissible; the margins at 1e-200 are not representable
    out = tmp_path / "barrier"
    assert cli.main(["barrier", "--set", "gluing.epsilon=1e-200", "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("precondition error: OutOfFloatRange: ")


@pytest.mark.parametrize("eps, error", [("1e-80", "NoConvergence"),
                                        ("1e-120", "OutOfFloatRange")])
def test_gate_out_of_double_range_is_a_precondition_error(eps, error, tmp_path, capsys):
    # solve stops with the typed error; sweep records the row and exits 1
    res = ["--set", "grid.resolution=16"]
    code = cli.main(["solve", "--set", f"gluing.epsilon={eps}", *res,
                     "--out", str(tmp_path / "solve")])
    assert code == 2
    assert capsys.readouterr().err.startswith(f"precondition error: {error}: ")
    out = tmp_path / "sweep"
    code = cli.main(["sweep", "--set", f"gluing.epsilon=0.05,{eps}", *res,
                     "--out", str(out)])
    assert code == 1
    header, ok, failed = (r.split(",") for r in (out / "sweep.csv").read_text().splitlines())
    assert float(dict(zip(header, ok))["iters"]) > 0
    row = dict(zip(header, failed))
    assert float(row["eps"]) == float(eps) and row["iters"] == "0" and row["sup_v"] == "nan"
    checks = json.loads((out / "run.json").read_text())["checks"]
    assert [c["name"] for c in checks if not c["passed"]] == ["rows_converged"]


@pytest.mark.parametrize("subcommand", ["spectrum", "neck-estimate"])
def test_a_model_with_no_cap_is_a_configuration_error(subcommand, tmp_path, capsys):
    # at r_max = 0.94 every check passed although the grid's pole lay inside the neck
    assert cli.main([subcommand, "--set", "model.sphere3_radius=0.3", "--set",
                     "gluing.epsilon=0.02,0.01", "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: ") and "r_max = 0.942478" in err


def test_solve_with_a_cap_sample_beyond_the_pole_exits_2(tmp_path, capsys):
    # at r_max = 1.037 the post-solve check extrapolated its spline and failed
    # constancy, exit 1, as if the solve were wrong
    assert cli.main(["solve", "--set", "model.sphere3_radius=0.33", "--set",
                     "gluing.epsilon=1e-3", "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.startswith("precondition error: OutOfChart: ")


def test_solve_with_underflowed_grid_volumes_exits_2_without_warnings(tmp_path):
    # at 1e-120 the grid volumes underflow to 0; build_grid rejects the grid
    # before the assembly divides by them, so numpy prints nothing.  At
    # 1e-200 eps e^{-+s} underflows too, and the weights are 0/0: the
    # grid's range guard turns that into the same typed error, silently
    src = str(Path(cscglue.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    for eps in ("1e-120", "1e-200"):
        out = subprocess.run([sys.executable, "-m", "cscglue.cli", "solve", "--set",
                              f"gluing.epsilon={eps}", "--out", str(tmp_path / eps)],
                             env=env, capture_output=True, text=True)
        assert out.returncode == 2, eps
        assert out.stderr.startswith("precondition error: OutOfFloatRange: "), eps
        assert "RuntimeWarning" not in out.stderr, eps


def test_barrier_runs_with_its_own_defaults(tmp_path):
    out = tmp_path / "barrier"
    assert cli.main(["barrier", "--out", str(out)]) == 0
    assert json.loads((out / "run.json").read_text())["parameters"]["gluing.alpha"] == 2.7


def test_neck_estimate_subcommand(cfg_file, tmp_path):
    out = tmp_path / "neck"
    code = cli.main(["neck-estimate", "--config", cfg_file,
                     "--set", "gluing.epsilon=0.02,0.04", "--out", str(out)])
    assert code == 0
    header = (out / "deviation.csv").read_text().splitlines()[0]
    assert header == "eps,t,sup_dev,bound,fd_err"
    fitted = json.loads((out / "run.json").read_text())["fitted"]
    assert fitted["probe_slope"] >= 0.7


def test_neck_estimate_single_eps_fits_no_slope(tmp_path):
    # the default run has one eps: a log-log slope through one point is
    # rank-deficient, so none is fitted or recorded
    out = tmp_path / "neck1"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = cli.main(["neck-estimate", "--out", str(out)])
    assert code == 0
    summary = json.loads((out / "run.json").read_text())
    assert "probe_slope" not in summary["fitted"]
    assert summary["checks"] == []


def test_spectrum_subcommand(cfg_file, tmp_path):
    out = tmp_path / "spectrum"
    code = cli.main(["spectrum", "--config", cfg_file,
                     "--set", "gluing.epsilon=0.02,0.04", "--out", str(out)])
    assert code == 0
    assert (out / "spectrum.csv").read_text().splitlines()[0] == "eps,min_abs_eig"
    assert (out / "estimate.csv").read_text().splitlines()[0] == "eps,delta,ratio"


def test_spectrum_solves_each_eigenproblem_once(cfg_file, tmp_path, eig_calls):
    # one summand operator and one glued operator per eps; the estimate's
    # solves gate on a Sturm window that holds no eigenvalue.  Every
    # eigenproblem ends in exactly one window that holds eigenvalues (a
    # wider window follows only an empty one), so those calls count them.
    eps = (0.02, 0.04)
    code = cli.main(["spectrum", "--config", cfg_file, "--set",
                     "gluing.epsilon=" + ",".join(map(str, eps)),
                     "--out", str(tmp_path / "spectrum")])
    assert code == 0
    assert sum(found > 0 for _, found, _ in eig_calls) == 1 + len(eps)


def test_sweep_deterministic(cfg_file, tmp_path):
    args = ["sweep", "--config", cfg_file,
            "--set", "gluing.epsilon=0.02,0.04",
            "--set", "grid.resolution=32"]
    outs = []
    for name in ("s1", "s2"):
        out = tmp_path / name
        code = cli.main(args + ["--out", str(out)])
        assert code in (0, 1)
        outs.append(out)
    for fname in ("sweep.csv", "sweep.dat", "run.json"):
        a = (outs[0] / fname).read_bytes()
        b = (outs[1] / fname).read_bytes()
        assert a == b


@pytest.mark.parametrize("args", [
    ["validate-tensors"],
    ["neck-estimate", "--set", "gluing.epsilon=0.02,0.04"],
    ["barrier"],
    ["spectrum", "--set", "gluing.epsilon=0.02,0.04"],
    ["solve"],
], ids=lambda args: args[0])
def test_subcommand_deterministic(args, tmp_path):
    # the sweep has its own test above; identical configurations must give
    # byte-identical files for every other subcommand too
    outs = [tmp_path / name for name in ("r1", "r2")]
    for out in outs:
        assert cli.main(args + ["--out", str(out)]) in (0, 1)
    names = sorted(p.name for p in outs[0].iterdir())
    assert names and names == sorted(p.name for p in outs[1].iterdir())
    for name in names:
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name


def _exits_as_configuration_error(argv, capsys):
    # exit 2 with a one-line message: never a traceback, and never exit 1,
    # which means a check failed
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_config_naming_a_directory_is_a_configuration_error(tmp_path, capsys):
    out = tmp_path / "out"
    _exits_as_configuration_error(
        ["barrier", "--config", str(tmp_path), "--out", str(out)], capsys)
    assert not out.exists()


def test_config_not_utf8_is_a_configuration_error(tmp_path, capsys):
    cfg = tmp_path / "cfg.txt"
    cfg.write_bytes("model.name = torus2_x_sphere3  # \u00e9\n".encode("latin-1"))
    out = tmp_path / "out"
    _exits_as_configuration_error(
        ["barrier", "--config", str(cfg), "--out", str(out)], capsys)
    assert not out.exists()


def test_out_naming_a_file_is_a_configuration_error(tmp_path, capsys):
    out = tmp_path / "taken"
    out.write_text("keep\n")
    _exits_as_configuration_error(["barrier", "--out", str(out)], capsys)
    assert out.read_text() == "keep\n"


def test_out_through_a_file_is_a_configuration_error(tmp_path, capsys):
    taken = tmp_path / "taken"
    taken.write_text("keep\n")
    _exits_as_configuration_error(["barrier", "--out", str(taken / "sub")], capsys)
    assert taken.read_text() == "keep\n"
    # an artifact path taken by a directory fails only once the run is done
    for subcommand, artifact in (("barrier", "run.json"), ("sweep", "sweep.csv")):
        out = tmp_path / subcommand
        (out / artifact).mkdir(parents=True)
        _exits_as_configuration_error([subcommand, "--out", str(out)], capsys)


def test_spectrum_detects_failed_hypothesis(cfg_file, tmp_path):
    # round S^5 has kernel exactly at S/(m-1): the eigenvalue floor check
    # must fail and the run exit 1
    out = tmp_path / "s5"
    code = cli.main(["spectrum", "--config", cfg_file,
                     "--set", "model.name=sphere5",
                     "--set", "grid.resolution=32", "--out", str(out)])
    assert code == 1
    summary = json.loads((out / "run.json").read_text())
    failed = {r["name"] for r in summary["checks"] if not r["passed"]}
    assert "eig_floor" in failed


def _child_env() -> dict:
    """The environment of a fresh interpreter that imports this checkout's cscglue."""
    src = str(Path(cscglue.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


SMALL = ["--set", "grid.resolution=16", "--set", "gluing.epsilon=0.05,0.04"]


def _cli_runs(tmp_path) -> dict:
    return {"sweep": ["sweep", *SMALL, "--out", str(tmp_path / "sweep")],
            "solve": ["solve", *SMALL[:2], "--out", str(tmp_path / "solve")],
            "spectrum": ["spectrum", *SMALL, "--out", str(tmp_path / "spectrum")]}


def _run_quietly(args) -> str:
    """Source that runs cli.main(args) in a child with its stdout swallowed."""
    return ("with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    assert cli.main({args!r}) in (0, 1)\n")


def test_import_leaves_scipy_linalg_interpolate_and_numpy_ma_unloaded(tmp_path):
    # scipy.interpolate takes about 0.3 s to import and scipy.linalg, whose
    # array-API set-up reaches numpy.f2py and scipy._lib, about 0.4 s; the
    # package needs neither: it calls the LAPACK of the OpenBLAS numpy links
    # (cscglue.lapack), so neither the import nor a sweep, solve or spectrum
    # run may load them.
    # numpy.ma (about 17 ms) is what np.median and np.unique import on first use.
    runs = {"import": None, **_cli_runs(tmp_path)}
    unloaded = ("scipy.interpolate", "scipy.linalg", "scipy._lib", "numpy.f2py", "numpy.ma")
    for name, args in runs.items():
        code = ("import contextlib, io, sys\nfrom cscglue import cli\n"
                + (_run_quietly(args) if args else "")
                + f"print([m for m in {unloaded!r} if m in sys.modules])")
        out = subprocess.run([sys.executable, "-c", code], env=_child_env(),
                             capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "[]", name


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/maps")
def test_cli_runs_map_one_openblas_and_no_file_of_scipy(tmp_path):
    # one BLAS/LAPACK per process: the runs call the OpenBLAS numpy links and
    # map nothing from scipy's package.  numpy's library is itself named
    # libscipy_openblas64_, so scipy's files are told by their directories.
    scipy = Path(importlib.util.find_spec("scipy").origin).resolve().parent
    scipy_dirs = (scipy, scipy.parent / "scipy.libs")
    code = ("import contextlib, io, json\nfrom cscglue import cli\n"
            + "".join(map(_run_quietly, _cli_runs(tmp_path).values()))
            + "with open('/proc/self/maps') as maps:\n"
            "    print(json.dumps(sorted({ln.split(maxsplit=5)[-1].strip() for ln in maps})))\n")
    out = subprocess.run([sys.executable, "-c", code], env=_child_env(),
                         capture_output=True, text=True, check=True)
    mapped = [Path(p) for p in json.loads(out.stdout) if p.startswith("/")]
    assert len([p for p in mapped if "openblas" in p.name]) == 1, mapped
    assert [p for p in mapped if any(d in p.parents for d in scipy_dirs)] == []


def test_sweep_runs_with_scipy_refused(tmp_path):
    # scipy is a test-only dependency: with every scipy import refused, a
    # sweep runs to its documented exit code and writes its artifacts
    code = ("import sys\n"
            "class NoScipy:\n"
            "    def find_spec(self, name, path, target=None):\n"
            "        if name.partition('.')[0] == 'scipy':\n"
            "            raise ModuleNotFoundError(f'{name} is refused')\n"
            "sys.meta_path.insert(0, NoScipy())\n"
            "from cscglue import cli\n"
            f"sys.exit(cli.main(['sweep', '--set', 'grid.resolution=16', '--out', "
            f"{str(tmp_path)!r}]))\n")
    run = subprocess.run([sys.executable, "-c", code], env=_child_env(),
                         capture_output=True, text=True)
    assert run.returncode in (0, 1) and run.stderr == "", run.stderr
    assert (tmp_path / "run.json").is_file()


@pytest.mark.parametrize("subcommand, item, message", [
    ("sweep", "gluing.epsilon=0.02,0.04,2e-2", "gluing.epsilon: 0.02 is listed more than once"),
    ("barrier", "gluing.delta=0.3,0,0.3", "gluing.delta: 0.3 is listed more than once"),
], ids=["epsilon", "delta"])
def test_a_repeated_list_value_is_a_configuration_error(tmp_path, capsys, subcommand,
                                                        item, message):
    # solving one eps twice would report a NaN sweep_slope and a failed
    # cap_monotone as if they were properties of the construction
    out = tmp_path / "o"
    assert cli.main([subcommand, "--set", item, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"configuration error: {message}\n"
    assert not out.exists()


def test_sweep_with_an_unconverged_solve_fails_rows_converged(tmp_path):
    # three Picard steps leave the eps 0.05 solve short of tol: the row is
    # an error row, so rows_converged fails and the sweep exits 1
    out = tmp_path / "sweep"
    assert cli.main(["sweep", "--set", "yamabe.max_iter=3", "--out", str(out)]) == 1
    checks = json.loads((out / "run.json").read_text())["checks"]
    assert {r["name"]: r["passed"] for r in checks}["rows_converged"] is False


def test_sweep_prints_each_failed_rows_reason_on_stderr(tmp_path, capsys):
    # the table holds NaN for a failed row; its reason goes to stderr, one
    # line per row
    assert cli.main(["sweep", "--set", "yamabe.max_iter=3",
                     "--out", str(tmp_path / "sweep")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("row eps=0.05: NoConvergence: Picard stopped after 3 iterations")
    assert err.count("\n") == 1, err


def _strict_json(text: str):
    """json.loads that refuses NaN and Infinity, as jq and other strict parsers do."""
    def refuse(name):
        raise ValueError(f"{name} is not JSON")
    return json.loads(text, parse_constant=refuse)


@pytest.mark.parametrize("subcommand", sorted(cli.COMMANDS))
def test_run_json_is_strict_json_at_the_default_config(subcommand, tmp_path):
    # the default sweep has one eps, so its fitted slope is NaN: null in run.json
    out = tmp_path / subcommand
    assert cli.main([subcommand, "--out", str(out)]) in (0, 1)
    summary = _strict_json((out / "run.json").read_text())
    if subcommand == "sweep":
        assert summary["fitted"] == {"slope": None}


def test_run_json_writes_non_finite_values_as_null(tmp_path):
    # run.json holds null where the check and the fitted values keep their
    # floats in memory, which the [PASS]/[FAIL] lines print
    checks = cli.Checks()
    checks.add("sweep_slope", float("nan"), "sweep_slope")
    fitted = {"slope": float("nan"), "c_fit": {"0.05": float("inf")}, "ball": 0.25}
    cfg = cli.RunConfig.load(None, [])
    cli.write_summary(tmp_path, "sweep", cfg, checks, fitted)
    summary = _strict_json((tmp_path / "run.json").read_text())
    assert summary["checks"][0]["measured"] is None
    assert summary["fitted"] == {"slope": None, "c_fit": {"0.05": None}, "ball": 0.25}
    assert math.isnan(checks.rows[0]["measured"]) and math.isnan(fitted["slope"])


# numpy's routines that run an SVD: lstsq behind np.polyfit, and cond
SVD_ROUTINES = frozenset({"svd", "svdvals", "lstsq", "cond", "pinv", "matrix_rank"})


def test_no_production_path_runs_an_svd(tmp_path):
    # slopes and the engine's metric gate are closed forms: no subcommand
    # and no conjugation probe calls an SVD, whose first call in a process
    # maps LAPACK code that nothing else uses
    linalg = str(Path(np.linalg.__file__).parent)
    called = set()

    def profile(frame, event, arg):
        code = frame.f_code
        if (event == "call" and code.co_name in SVD_ROUTINES
                and os.path.dirname(code.co_filename) == linalg):
            called.add(code.co_name)

    runs = [["validate-tensors"], ["neck-estimate", *SMALL], ["barrier"],
            ["spectrum", *SMALL], ["solve", *SMALL[:2]], ["sweep", *SMALL]]
    M = geometry.make_model("torus2_x_sphere3")
    cfg = gluing.GluingConfig(M, M, eps=0.05)
    neck_analysis.factor_laplacians.cache_clear()
    sys.setprofile(profile)
    try:
        for args in runs:
            assert cli.main([*args, "--out", str(tmp_path / args[0])]) in (0, 1), args
        neck_analysis.factor_laplacians.cache_clear()
        neck_analysis.conjugation_residual(cfg)
    finally:
        sys.setprofile(None)
    assert called == set()
