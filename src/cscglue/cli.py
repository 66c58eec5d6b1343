"""Configuration-driven experiment runner.

Subcommands mirror the pipeline stages: ``validate-tensors`` (curvature
oracle battery), ``neck-estimate`` (deviation profiles and rate fits),
``barrier`` (barrier margins), ``spectrum`` (eigenvalue and estimate
sweeps), ``solve`` (one nonlinear solve plus verification), ``sweep``
(the convergence sweep).  Each writes CSV artifacts, a gnuplot-friendly
.dat mirror, and a run.json summary with one named row per check.

Exit codes: 0 all checks pass, 1 a check failed (artifacts are still
written), 2 configuration or precondition error.  Outputs are
deterministic: identical configs produce byte-identical files.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from . import geometry, gluing, linear_solver, neck_analysis, yamabe
from .curvature import (
    DerivativeScheme,
    conformal_scalar,
    laplace_beltrami,
    rescale_field,
    scalar_curvature,
)
from .errors import ConfigError, GlueError

DEFAULTS = {
    "model.name": "torus2_x_sphere3",
    "model.torus_side": 2.0 * math.pi,
    "model.sphere2_radius_sq": 2.0,
    "model.sphere3_radius": 1.0,
    "gluing.epsilon": "0.05",
    "gluing.delta": "0.3",
    "gluing.alpha": 2.7,
    "grid.resolution": 64,
    "solver.tol": 1e-11,
    "yamabe.max_iter": 40,
}

CHECK_BOUNDS = {
    # name: (comparison, bound, provenance of the bound)
    "tensor_rel_err": ("<=", 1e-6, "fixed-threshold"),
    "conformal_rel_err": ("<=", 1e-5, "fixed-threshold"),
    "harmonic_abs": ("<=", 1e-6, "fixed-threshold"),
    "weighted_dev_ratio": ("<=", 10.0, "uniformity"),
    "probe_slope": (">=", 0.7, "edge-rate"),
    "barrier_min_margin": (">=", 0.0, "barrier-inequality"),
    "eig_ratio": ("<=", 4.0, "uniform-invertibility"),
    "eig_floor": (">=", 1e-3, "fixed-threshold"),
    "estimate_ratio_spread": ("<=", 10.0, "uniformity"),
    "summand_gap_match": ("<=", 1e-2, "analytic-spectrum"),
    "solve_iterations": ("<=", 30, "fixed-threshold"),
    "solve_residual": ("<=", 1e-10, "fixed-threshold"),
    "ball_containment": ("<=", 1.0, "smallness-ball"),
    "mirror_defect": ("<=", 1e-10, "fixed-threshold"),
    "constancy": ("<=", 1.0, "relative-improvement"),
    "sweep_slope": (">=", 0.2, "rate-exponent"),
    "cap_sup_tail": ("<=", 0.01, "fixed-threshold"),
    "cap_monotone": (">=", 1.0, "compact-convergence"),
    "sup_monotone": (">=", 1.0, "rate-monotonicity"),
    "rows_converged": (">=", 1.0, "solver-status"),
}


def parse_kv_text(text: str) -> dict:
    """Flat `key = value` config lines; '#' starts a comment."""
    out = {}
    for ln, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {ln}: expected 'key = value'")
        key, val = (s.strip() for s in line.split("=", 1))
        if not key:
            raise ConfigError(f"line {ln}: empty key")
        out[key] = val
    return out


def _coerce(key: str, val):
    if key not in DEFAULTS:
        raise ConfigError(f"unknown configuration key {key!r}")
    ref = DEFAULTS[key]
    if isinstance(ref, str):
        return str(val)
    if isinstance(ref, int) and not isinstance(ref, bool):
        try:
            return int(val)
        except ValueError as exc:
            raise ConfigError(f"{key}: expected integer, got {val!r}") from exc
    try:
        return float(val)
    except ValueError as exc:
        raise ConfigError(f"{key}: expected number, got {val!r}") from exc


@dataclass
class RunConfig:
    values: dict = field(default_factory=dict)

    @classmethod
    def load(cls, path: str | None, overrides) -> "RunConfig":
        values = dict(DEFAULTS)
        if path is not None:
            text = Path(path).read_text(encoding="utf-8")
            for k, v in parse_kv_text(text).items():
                values[k] = _coerce(k, v)
        for item in overrides:
            if "=" not in item:
                raise ConfigError(f"--set expects key=value, got {item!r}")
            k, v = (s.strip() for s in item.split("=", 1))
            values[k] = _coerce(k, v)
        return cls(values)

    def __getitem__(self, key):
        return self.values[key]

    def _float_list(self, key: str) -> list:
        raw = str(self.values[key])
        try:
            out = [float(s) for s in raw.split(",") if s.strip()]
        except ValueError as exc:
            raise ConfigError(f"{key}: bad value {raw!r}") from exc
        if not out:
            raise ConfigError(f"{key}: empty list")
        repeated = [x for i, x in enumerate(out) if x in out[:i]]
        if repeated:
            raise ConfigError(f"{key}: {repeated[0]!r} is listed more than once")
        return out

    def eps_list(self) -> list:
        return self._float_list("gluing.epsilon")

    def delta_list(self) -> list:
        return self._float_list("gluing.delta")

    def delta(self) -> float:
        deltas = self.delta_list()
        if len(deltas) != 1:
            raise ConfigError("this subcommand expects a single gluing.delta")
        return deltas[0]

    def model(self) -> geometry.ModelGeometry:
        return geometry.make_model(
            self["model.name"],
            torus_side=float(self["model.torus_side"]),
            sphere2_radius_sq=float(self["model.sphere2_radius_sq"]),
            sphere3_radius=float(self["model.sphere3_radius"]),
        )

    def gluing_config(self, eps: float, delta: float | None = None) -> gluing.GluingConfig:
        model = self.model()
        return gluing.GluingConfig(
            model, model, eps=eps,
            delta=self.delta() if delta is None else delta,
            alpha=float(self["gluing.alpha"]),
        )

    def validate(self, subcommand: str) -> None:
        """Check every numeric field against module preconditions upfront.

        The model and a GluingConfig for each (eps, delta) the subcommand
        will run are built here, so their own range checks apply, and for
        ``barrier`` so is neck_analysis.barrier_region.
        """
        if int(self["grid.resolution"]) < linear_solver.MIN_RESOLUTION:
            raise ConfigError(f"grid.resolution must be >= {linear_solver.MIN_RESOLUTION}")
        # a chained comparison with NaN is False, so NaN is rejected too
        if not 0 < float(self["solver.tol"]) < math.inf:
            raise ConfigError("solver.tol must be positive and finite")
        if int(self["yamabe.max_iter"]) < 1:
            raise ConfigError("yamabe.max_iter must be >= 1")
        deltas = self.delta_list() if subcommand == "barrier" else [self.delta()]
        try:
            model = self.model()
            for d in deltas:
                for eps in self.eps_list():
                    gcfg = self.gluing_config(eps, delta=d)
                    if subcommand == "barrier":
                        neck_analysis.barrier_region(gcfg, d)
            if subcommand == "spectrum":  # its summand check needs exact spectra
                model.normal_factor.spectrum(0.0)
        except (GlueError, ValueError) as exc:
            raise ConfigError(str(exc)) from exc
        if subcommand in ("solve",) and len(self.eps_list()) != 1:
            raise ConfigError("solve expects a single gluing.epsilon")


# ---------------------------------------------------------------------------
# Artifact writers
# ---------------------------------------------------------------------------


def _fmt(x) -> str:
    if isinstance(x, (float, np.floating)):
        return repr(float(x))
    return str(x)


def write_table(out: Path, stem: str, header: list, rows: list) -> None:
    """The table as ``stem``.csv and as the gnuplot-friendly ``stem``.dat."""
    for suffix, sep, lead in ((".csv", ",", ""), (".dat", " ", "# ")):
        lines = [lead + sep.join(header)]
        lines += [sep.join(_fmt(x) for x in row) for row in rows]
        (out / (stem + suffix)).write_text("\n".join(lines) + "\n")


class Checks:
    def __init__(self):
        self.rows = []

    def add(self, name: str, measured: float, bound_key: str) -> bool:
        op, b, prov = CHECK_BOUNDS[bound_key]
        ok = (measured <= b) if op == "<=" else (measured >= b)
        ok = bool(ok) and math.isfinite(measured)
        self.rows.append({"name": name, "measured": float(measured),
                          "bound": float(b), "comparison": op,
                          "provenance": prov, "passed": ok})
        return ok

    @property
    def all_passed(self) -> bool:
        return all(r["passed"] for r in self.rows)


def write_summary(out: Path, subcommand: str, cfg: RunConfig, checks: Checks,
                  fitted: dict) -> None:
    """run.json, strict JSON: a NaN or infinite value is written as null."""
    doc = {
        "subcommand": subcommand,
        "parameters": {k: cfg.values[k] for k in sorted(cfg.values)},
        "checks": checks.rows,
        "fitted": fitted,
        "passed": checks.all_passed,
    }
    # json writes a NaN or infinity as NaN, Infinity or -Infinity; read back, each is None
    doc = json.loads(json.dumps(doc), parse_constant=lambda name: None)
    (out / "run.json").write_text(
        json.dumps(doc, sort_keys=True, indent=2, allow_nan=False) + "\n")


# ---------------------------------------------------------------------------
# Subcommands: each writes its tables and returns (checks, fitted values)
# ---------------------------------------------------------------------------


def cmd_validate_tensors(cfg: RunConfig, out: Path) -> tuple[Checks, dict]:
    checks = Checks()
    rows = []
    scheme = DerivativeScheme()

    def record(case, expected, measured, err, kind="tensor_rel_err"):
        scale = max(abs(expected), 1.0)
        rel = abs(measured - expected) / scale
        ok = checks.add(f"{kind}:{case}", rel, kind)
        rows.append((case, expected, measured, rel, err, int(ok)))

    flat3 = geometry.flat_metric(3)
    s = scalar_curvature(flat3, flat3.point("flat", [0.2, -0.1, 0.4]), scheme)
    record("flat3_scalar", 0.0, s.value, s.error)

    A = geometry.make_model("torus2_x_sphere3")
    fA = geometry.fermi_metric(A)
    s = scalar_curvature(fA, fA.point("cap-1", [0.3, 0.9, math.pi / 2, 1.1, 0.6]),
                         scheme)
    record("sphere3_scalar", 6.0, s.value, s.error)

    B = geometry.make_model("sphere2_x_sphere3")
    fB = geometry.fermi_metric(B)
    s = scalar_curvature(fB, fB.point("cap-1", [1.13, 0.58, 1.7, 0.9, 0.4]),
                         scheme)
    record("product_scalar", 7.0, s.value, s.error)

    rng = np.random.default_rng(20240817)
    pts = rng.uniform(0.3, 0.9, size=(10, 3)) * rng.choice([-1.0, 1.0], size=(10, 3))
    worst, werr = 0.0, 0.0
    for p in pts:
        lap = laplace_beltrami(flat3, lambda x: 1.0 / np.linalg.norm(x, axis=-1),
                               flat3.point("flat", p), scheme)
        if abs(lap.value) > worst:
            worst, werr = abs(lap.value), lap.error
    ok = checks.add("harmonic_abs:inverse_radius", worst, "harmonic_abs")
    rows.append(("harmonic_inverse_radius", 0.0, worst, worst, werr, int(ok)))

    flat5 = geometry.flat_metric(5)
    u5 = lambda x: (2.0 / (1.0 + np.sum(x**2, axis=-1))) ** 1.5
    s = conformal_scalar(flat5, u5, flat5.point("flat", [0.3, -0.2, 0.1, 0.25, -0.15]),
                         scheme)
    record("stereographic_sphere5", 20.0, s.value, s.error, "conformal_rel_err")

    # conformal law vs literally rescaled metric on the configured model
    model = cfg.model()
    fm = geometry.fermi_metric(model)
    k = model.k
    u = lambda x: np.exp(0.2 * np.sin(x[..., k]) + 0.1 * np.cos(x[..., k + 1]))
    pt = fm.point("cap-1", [0.5] * k + [1.9] + [1.2, 0.8, 0.9, 1.1][:model.n - 1])
    a = conformal_scalar(fm, u, pt, scheme)
    b = scalar_curvature(rescale_field(fm, u), pt, scheme)
    rel = abs(a.value - b.value) / max(abs(a.value), 1.0)
    ok = checks.add("conformal_rel_err:crosscheck", rel, "conformal_rel_err")
    rows.append(("conformal_crosscheck", a.value, b.value, rel,
                 a.error + b.error, int(ok)))

    header = ["case", "expected", "measured", "rel_err", "fd_err", "passed"]
    write_table(out, "tensors", header, rows)
    return checks, {}


def cmd_neck_estimate(cfg: RunConfig, out: Path) -> tuple[Checks, dict]:
    checks = Checks()
    eps_list = sorted(cfg.eps_list())
    n = cfg.model().n
    fit = neck_analysis.deviation_fit(
        lambda e: cfg.gluing_config(e), eps_list)
    rows = []
    for prof in fit.profiles:
        for t, d, e in zip(prof.t, prof.sup_dev, prof.fd_err):
            rows.append((prof.eps, t, d,
                         prof.weighted_sup * math.cosh(t) ** (1 - n) / prof.eps, e))
    write_table(out, "deviation", ["eps", "t", "sup_dev", "bound", "fd_err"], rows)
    fitted = {"weighted_ratio": fit.weighted_ratio,
              "c_fit": {repr(p.eps): p.weighted_sup for p in fit.profiles}}
    if len(eps_list) >= 2:  # a slope needs two eps values
        fitted["probe_slope"] = fit.probe_slope
        checks.add("weighted_dev_ratio", fit.weighted_ratio, "weighted_dev_ratio")
        checks.add("probe_slope", fit.probe_slope, "probe_slope")
    return checks, fitted


def cmd_barrier(cfg: RunConfig, out: Path) -> tuple[Checks, dict]:
    checks = Checks()
    rows = []
    for delta in cfg.delta_list():
        for eps in sorted(cfg.eps_list()):
            gcfg = cfg.gluing_config(eps, delta=delta)
            rep = neck_analysis.barrier_margin(gcfg, delta=delta)
            rows.append((delta, eps, gcfg.alpha, rep.min_margin, rep.C))
            checks.add(f"barrier_min_margin:delta={delta:g},eps={eps:g}",
                       rep.min_margin, "barrier_min_margin")
    write_table(out, "barrier", ["delta", "eps", "alpha", "min_margin", "C"], rows)
    return checks, {}


def cmd_spectrum(cfg: RunConfig, out: Path) -> tuple[Checks, dict]:
    checks = Checks()
    model = cfg.model()
    res = int(cfg["grid.resolution"])
    # summand operator versus the analytic symmetric-class gap
    gap_exact = geometry.injectivity_gap(model, 40.0, symmetric_only=True)
    grid1 = linear_solver.build_grid_single(model, res)
    op1 = linear_solver.assemble_L(grid1, model.S, model.m)
    lam1 = linear_solver.smallest_eigenvalue(op1)
    checks.add("summand_gap_match", abs(abs(lam1) - gap_exact), "summand_gap_match")

    spec_rows, est_rows = [], []
    lams, ratios = [], []
    for eps in sorted(cfg.eps_list()):
        gcfg = cfg.gluing_config(eps)
        rep = linear_solver.global_estimate_ratio(gcfg, resolution=res)
        lams.append(abs(rep.min_abs_eig))
        ratios.append(rep.ratio)
        spec_rows.append((eps, abs(rep.min_abs_eig)))
        est_rows.append((eps, gcfg.delta, rep.ratio))
    write_table(out, "spectrum", ["eps", "min_abs_eig"], spec_rows)
    write_table(out, "estimate", ["eps", "delta", "ratio"], est_rows)
    checks.add("eig_floor", min(lams), "eig_floor")
    if len(lams) >= 2:
        checks.add("eig_ratio", max(lams) / min(lams), "eig_ratio")
        checks.add("estimate_ratio_spread", max(ratios) / min(ratios),
                   "estimate_ratio_spread")
    return checks, {"summand_gap_exact": gap_exact, "summand_gap_discrete": lam1}


def _write_sweep_table(sweep_rows: list, out: Path):
    """The SweepRows as the ``sweep`` table, one column per field but ``error``."""
    header = [f.name for f in fields(yamabe.SweepRow) if f.name != "error"]
    write_table(out, "sweep", header, [[getattr(r, h) for h in header] for r in sweep_rows])


def cmd_solve(cfg: RunConfig, out: Path) -> tuple[Checks, dict]:
    checks = Checks()
    eps = cfg.eps_list()[0]
    gcfg = cfg.gluing_config(eps)
    rep = yamabe.picard_solve(
        gcfg, resolution=int(cfg["grid.resolution"]),
        tol=float(cfg["solver.tol"]), max_iter=int(cfg["yamabe.max_iter"]))
    chk = yamabe.verify_constant_curvature(rep, gcfg)
    row = yamabe.SweepRow(eps, gcfg.delta, rep.v.sup(), rep.v.cap_sup(),
                          rep.iterations, rep.residual, rep.pre_dev,
                          chk.post_dev, float("nan"))
    _write_sweep_table([row], out)
    checks.add("rows_converged", 1.0 if rep.converged else 0.0, "rows_converged")
    checks.add("solve_iterations", rep.iterations, "solve_iterations")
    checks.add("solve_residual", rep.residual, "solve_residual")
    ball = yamabe.smallness_ball(gcfg)
    checks.add("ball_containment", rep.v.sup() / ball, "ball_containment")
    checks.add("mirror_defect", rep.mirror_defect, "mirror_defect")
    floor = max(10.0 * chk.fd_err, chk.pre_dev / 50.0)
    checks.add("constancy", chk.post_dev / floor, "constancy")
    return checks, {
        "ball": ball, "contraction": rep.contraction,
        "min_abs_eig": rep.operator.min_abs_eig,
        "post_dev": chk.post_dev, "fd_floor": chk.fd_err,
    }


def cmd_sweep(cfg: RunConfig, out: Path) -> tuple[Checks, dict]:
    checks = Checks()
    table = yamabe.convergence_sweep(
        lambda e: cfg.gluing_config(e), cfg.eps_list(),
        delta=cfg.delta(),
        resolution=int(cfg["grid.resolution"]),
        tol=float(cfg["solver.tol"]), max_iter=int(cfg["yamabe.max_iter"]))
    _write_sweep_table(table.rows, out)
    for r in table.rows:
        if r.error:  # the table holds NaN there; the reason goes to stderr
            print(f"row eps={r.eps:g}: {r.error}", file=sys.stderr)
    ok_rows = [r for r in table.rows if not r.error]
    checks.add("rows_converged", 1.0 if len(ok_rows) == len(table.rows) else 0.0,
               "rows_converged")
    if len(ok_rows) >= 2:
        checks.add("sweep_slope", table.slope, "sweep_slope")
        sups = [r.sup_v for r in sorted(ok_rows, key=lambda r: r.eps)]
        checks.add("sup_monotone",
                   1.0 if all(a <= b + 1e-14 for a, b in zip(sups, sups[1:])) else 0.0,
                   "sup_monotone")
        caps = [r.cap_sup_v for r in table.rows if not r.error]  # eps descending
        checks.add("cap_monotone",
                   1.0 if all(a > b for a, b in zip(caps, caps[1:])) else 0.0,
                   "cap_monotone")
    tail = [r for r in ok_rows if abs(r.eps - 0.02) < 1e-12]
    if tail:
        checks.add("cap_sup_tail", tail[0].cap_sup_v, "cap_sup_tail")
    return checks, {"slope": table.slope}


COMMANDS = {
    "validate-tensors": cmd_validate_tensors,
    "neck-estimate": cmd_neck_estimate,
    "barrier": cmd_barrier,
    "spectrum": cmd_spectrum,
    "solve": cmd_solve,
    "sweep": cmd_sweep,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="cscglue",
        description="Numerical gluing of constant scalar curvature metrics: "
                    "experiment runner")
    parser.add_argument("subcommand", choices=sorted(COMMANDS))
    parser.add_argument("--config", default=None, help="flat key=value config file")
    parser.add_argument("--set", dest="overrides", action="append", default=[],
                        metavar="KEY=VALUE", help="override one config key")
    parser.add_argument("--out", default="out", help="output directory")
    args = parser.parse_args(argv)

    out = Path(args.out)
    try:
        cfg = RunConfig.load(args.config, args.overrides)
        cfg.validate(args.subcommand)
        # an --out naming an existing file, or running through one, raises
        # an OSError, as does a --config that cannot be read
        out.mkdir(parents=True, exist_ok=True)
    except (ConfigError, OSError, UnicodeDecodeError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    try:
        checks, fitted = COMMANDS[args.subcommand](cfg, out)
        write_summary(out, args.subcommand, cfg, checks, fitted)
    except GlueError as exc:
        print(f"precondition error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:  # an artifact path taken, e.g. by a directory
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    for row in checks.rows:
        status = "PASS" if row["passed"] else "FAIL"
        print(f"[{status}] {row['name']}: measured {row['measured']:.6g} "
              f"{row['comparison']} {row['bound']:.6g} ({row['provenance']})")
    return 0 if checks.all_passed else 1


if __name__ == "__main__":
    raise SystemExit(main())
