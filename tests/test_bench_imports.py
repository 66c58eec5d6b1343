import importlib
import sys
from pathlib import Path

import numpy as np

from cscglue import GluingConfig, build_grid, glued_curvature_profile, make_model

BENCH = Path(__file__).resolve().parents[1] / "bench"
MODULES = ("inputs", "checks", "spans")


def test_benchmark_modules_import_and_patch(monkeypatch):
    # the benchmark imports cscglue names and wraps module attributes by
    # name; deleting or renaming one of them must fail here, not in a
    # benchmark run
    monkeypatch.syspath_prepend(str(BENCH))
    try:
        spans = [importlib.import_module(name) for name in MODULES][-1]
        # building the patch list reads every attribute a traced run swaps
        assert spans.Tracer()._patches()
    finally:
        for name in MODULES:
            sys.modules.pop(name, None)


def test_benchmark_engine_checks_pass(monkeypatch):
    # the benchmark's reference-engine checks address points as
    # ("cap-1", pts) and ("neck", pts) and pass their own DerivativeScheme;
    # an API break in the engine must fail here, not in a benchmark run
    monkeypatch.syspath_prepend(str(BENCH))
    try:
        checks = importlib.import_module("checks")
        rng = np.random.default_rng(11)
        results = checks.summand_curvature(rng)
        A = make_model("torus2_x_sphere3")
        cfg = GluingConfig(A, A, eps=0.05)
        grid = build_grid(cfg, 64)
        profile, err = glued_curvature_profile(cfg, grid)
        # warped_product_curvature against the program's neck curvature
        results.append(checks.pre_dev_oracle(
            cfg, grid, err, float(np.max(np.abs(cfg.S - profile)))))
        results.append(checks.conjugation_floor(rng))
        failed = [(c.name, c.detail) for c in results if not c.ok]
        assert not failed
    finally:
        sys.modules.pop("checks", None)
