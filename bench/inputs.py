"""Workload definitions and the set-up each workload needs before its first pass.

This module imports only cscglue, so a fresh interpreter that imports it
and calls ``build`` measures exactly what ``setup_s`` stands for: importing
the package plus building the models and gluing configurations.
"""

from cscglue import GluingConfig, make_model
from cscglue.cli import RunConfig

DELTA = 0.3

# cscglue sweep as a user types it: the converged eps list of the demo sweep.
DESK_MODEL = "torus2_x_sphere3"
DESK_RESOLUTION = 64
DESK_EPS = (0.05, 0.04, 0.03, 0.02, 0.01)
DESK_SETS = (
    f"model.name={DESK_MODEL}",
    f"gluing.delta={DELTA}",
    f"grid.resolution={DESK_RESOLUTION}",
    "gluing.epsilon=" + ",".join(repr(e) for e in DESK_EPS),
)

# In-process sweep at high resolution.  eps stops at 2e-3: build_grid raises
# NonSymmetricModel for eps <= 1.2e-3 (absolute symmetry tolerance on W/W[0]).
DEEP_MODEL = "torus2_x_sphere3"
DEEP_RESOLUTION = 256
DEEP_EPS = (1e-2, 5e-3, 3e-3, 2e-3)

# Neck estimates on both sphere-normal models.
NECK_MODELS = ("torus2_x_sphere3", "sphere2_x_sphere3")
NECK_FIT_EPS = (0.01, 0.02, 0.04, 0.08)
NECK_BARRIER_DELTAS = (-0.3, 0.0, 0.3)
NECK_BARRIER_EPS = (0.02, 0.005)
NECK_CONJ_EPS = (0.02, 0.04, 0.08)
NECK_LOCAL_EPS = 0.01

WORKLOADS = ("desk-sweep", "deep-eps", "neck-estimates")


def build(workload: str) -> dict:
    """Models and configurations of one workload, keyed for its passes."""
    if workload == "desk-sweep":
        cfg = RunConfig.load(None, DESK_SETS)
        cfg.validate("sweep")
        return {"run_config": cfg,
                "configs": {e: cfg.gluing_config(e) for e in cfg.eps_list()}}
    if workload == "deep-eps":
        A = make_model(DEEP_MODEL)
        return {"configs": {e: GluingConfig(A, A, eps=e, delta=DELTA)
                            for e in DEEP_EPS}}
    if workload == "neck-estimates":
        out = {}
        for name in NECK_MODELS:
            M = make_model(name)
            fit = {e: GluingConfig(M, M, eps=e, delta=DELTA) for e in NECK_FIT_EPS}
            barrier = {(d, e): GluingConfig(M, M, eps=e, delta=d)
                       for d in NECK_BARRIER_DELTAS for e in NECK_BARRIER_EPS}
            conj = {e: GluingConfig(M, M, eps=e, delta=DELTA) for e in NECK_CONJ_EPS}
            local = GluingConfig(M, M, eps=NECK_LOCAL_EPS, delta=DELTA)
            out[name] = {"fit": fit, "barrier": barrier, "conj": conj,
                         "local": local}
        return {"models": out}
    raise ValueError(f"unknown workload {workload!r}")

