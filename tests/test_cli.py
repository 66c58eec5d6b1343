import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import cscglue
from cscglue import cli
from cscglue.errors import ConfigError

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
        cli.RunConfig.load(str(p))


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


def test_validate_tensors(cfg_file, tmp_path):
    out = tmp_path / "vt"
    code = cli.main(["validate-tensors", "--config", cfg_file, "--out", str(out)])
    assert code == 0
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


def test_import_leaves_scipy_interpolate_unloaded():
    # scipy.interpolate takes about 0.3 s to import and only the post-solve
    # check uses it; every CLI run would pay for it if the package loaded it
    src = str(Path(cscglue.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = "import cscglue, sys; print('scipy.interpolate' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"
