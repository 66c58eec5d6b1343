"""Spans and counters recorded from outside cscglue, around calls into its layers.

A traced pass swaps, for its duration only, the names that cscglue's modules
imported from one another (``yamabe.picard_solve``, ``linear_solver.solve_banded``,
``neck_analysis.glued_metric`` ...) for wrappers, and puts the originals back
afterwards.  Because the wrapped name is the one the *calling* module looks up,
nested calls nest their spans, and a span's self time is its duration minus
the time covered by its direct children.  The glued metric's component
callback is counted by handing out fields whose callback is wrapped.

Spans are kept in memory as ``[pass, id, parent, name, start, end]`` lists and
written out by the caller when the run ends.
"""

from __future__ import annotations

import dataclasses
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from cscglue import cli, linear_solver, neck_analysis, yamabe


def _points(point) -> int:
    """Number of points in a ChartPoint or (chart_id, coords) argument."""
    coords = np.asarray(point.coords if hasattr(point, "coords") else point[1])
    return int(np.prod(coords.shape[:-1])) if coords.ndim > 1 else 1


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = defaultdict(lambda: defaultdict(int))  # pass -> name -> n
        self.pass_id = 0
        self._stack = []

    def count(self, name: str, n: int = 1) -> None:
        self.counts[self.pass_id][name] += n

    def wrap(self, name: str, fn, on_return=None):
        """``fn`` recorded as span ``name``; ``on_return(args, kwargs, result)`` counts."""
        def traced(*args, **kwargs):
            rec = [self.pass_id, len(self.spans),
                   self._stack[-1] if self._stack else -1, name, 0.0, 0.0]
            self.spans.append(rec)
            self._stack.append(rec[1])
            rec[4] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[5] = time.perf_counter()
                self._stack.pop()
            if on_return is not None:
                on_return(args, kwargs, out)
            return out
        return traced

    def counted(self, name: str, fn):
        """``fn`` counted as ``name`` without a span (for very frequent calls)."""
        def counted(*args, **kwargs):
            self.count(name)
            return fn(*args, **kwargs)
        return counted

    def counted_field_factory(self, glued_metric):
        """glued_metric whose fields time and count their component callback."""
        def on_return(args, kwargs, out):
            self.count("gluing.components_calls")
            self.count("gluing.components_points", int(np.prod(out.shape[:-2])))

        def factory(cfg):
            fld = glued_metric(cfg)
            fn = self.wrap("gluing.components", fld.component_fn, on_return)
            return dataclasses.replace(fld, component_fn=fn)
        return factory

    def self_times(self, pass_id: int) -> dict:
        """Sum of self time per span name within one pass."""
        spans = [s for s in self.spans if s[0] == pass_id]
        child = defaultdict(float)
        for s in spans:
            if s[2] >= 0:
                child[s[2]] += s[5] - s[4]
        out = defaultdict(float)
        for s in spans:
            out[s[3]] += (s[5] - s[4]) - child[s[1]]
        return dict(out)

    def _patches(self):
        """(module, attribute, replacement) for every wrapped layer boundary."""
        w, c = self.wrap, self.counted

        def points(args, kwargs, out):
            point = args[1] if len(args) > 1 else kwargs["point"]
            self.count("curvature.scalar_curvature_points", _points(point))

        def artifact_bytes(args, kwargs, out):
            argv = args[0] if args else kwargs["argv"]
            out_dir = Path(argv[argv.index("--out") + 1])
            self.count("cli.artifact_bytes", sum(p.stat().st_size for p in out_dir.iterdir()))

        grid_nodes = lambda a, k, out: self.count("linear_solver.grid_nodes", out.size)
        iters = lambda a, k, out: self.count("yamabe.picard_iterations", out.iterations)
        eig = lambda a, k, out: self.count("linear_solver.eig_calls")
        out = [
            (cli, "main", w("cli.main", cli.main, artifact_bytes)),
            (yamabe, "convergence_sweep", w("yamabe.sweep", yamabe.convergence_sweep)),
            (yamabe, "picard_solve", w("yamabe.picard", yamabe.picard_solve, iters)),
            (yamabe, "verify_constant_curvature",
             w("yamabe.verify", yamabe.verify_constant_curvature)),
            (yamabe, "solve", w("linear_solver.solve", yamabe.solve)),
            (yamabe, "conformal_scalar",
             w("curvature.conformal_scalar", yamabe.conformal_scalar)),
            (linear_solver, "smallest_eigenvalue",
             w("linear_solver.eig", linear_solver.smallest_eigenvalue, eig)),
            (linear_solver, "solve_banded",
             c("linear_solver.banded_solves", linear_solver.solve_banded)),
            (neck_analysis, "laplace_beltrami",
             w("curvature.laplace_beltrami", neck_analysis.laplace_beltrami)),
            (neck_analysis, "deviation_profile",
             w("neck_analysis.deviation_profile", neck_analysis.deviation_profile)),
            (neck_analysis, "barrier_margin",
             w("neck_analysis.barrier_margin", neck_analysis.barrier_margin)),
            (neck_analysis, "conjugation_residual",
             w("neck_analysis.conjugation_residual", neck_analysis.conjugation_residual)),
            (neck_analysis, "local_estimate_ratio",
             w("neck_analysis.local_estimate", neck_analysis.local_estimate_ratio)),
        ]
        for mod in (yamabe, neck_analysis):
            out.append((mod, "build_grid",
                        w("linear_solver.build_grid", mod.build_grid, grid_nodes)))
            out.append((mod, "glued_curvature_profile",
                        w("linear_solver.curvature_profile",
                          mod.glued_curvature_profile)))
        for mod in (linear_solver, neck_analysis, yamabe):
            out.append((mod, "scalar_curvature",
                        w("curvature.scalar_curvature", mod.scalar_curvature,
                          points)))
            out.append((mod, "glued_metric",
                        self.counted_field_factory(mod.glued_metric)))
        return out

    @contextmanager
    def active(self, pass_id: int):
        """Trace one pass: wrappers installed on entry, originals restored on exit."""
        self.pass_id = pass_id
        patches = self._patches()
        saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _ in patches]
        try:
            for mod, attr, repl in patches:
                setattr(mod, attr, repl)
            yield self
        finally:
            for mod, attr, orig in saved:
                setattr(mod, attr, orig)
