"""Every name a cscglue module imports is used in that module and public,
no cscglue module imports scipy (cscglue.lapack calls the LAPACK numpy
links), and the package's settable values stay within a recorded bound."""

import ast
import dataclasses
from pathlib import Path

import pytest

import cscglue
from cscglue import cli, linear_solver, neck_analysis, yamabe

PACKAGE = Path(cscglue.__file__).resolve().parent
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")

# Imported only so that bench/spans.py can wrap them by name; ROADMAP open
# item 10 gives the benchmark its own spans and removes these imports, and
# this list shrinks with them.
BENCH_ONLY = {
    "linear_solver": {"scalar_curvature", "glued_metric"},
    "neck_analysis": {"scalar_curvature", "glued_metric"},
    "yamabe": {"conformal_scalar", "scalar_curvature", "glued_metric"},
}

# Settable values of the package: defaulted parameters of every def and
# lambda, annotated fields of @dataclass classes, and cli.DEFAULTS keys.
# CHANGES.md records every change to this bound.
MAX_SETTABLE = 105


def _unused_imports(tree: ast.Module) -> set:
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return imported - used


def _private_imports(tree: ast.Module) -> set:
    return {a.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
            for a in node.names if a.name.startswith("_")}


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_module_uses_every_import(path):
    unused = _unused_imports(ast.parse(path.read_text()))
    assert unused == BENCH_ONLY.get(path.stem, set())


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_module_imports_no_private_name(path):
    # a leading underscore keeps a name to its own module; a rule that two
    # modules need belongs under a public name
    assert _private_imports(ast.parse(path.read_text())) == set()


def _scipy_imports(tree: ast.Module) -> set:
    """Dotted names of the scipy modules a module imports, at any depth."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names |= {a.name for a in node.names if a.name.split(".")[0] == "scipy"}
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and (
                node.module.split(".")[0] == "scipy"):
            names |= ({f"scipy.{a.name}" for a in node.names} if node.module == "scipy"
                      else {node.module})
    return names


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")),
                         ids=[p.stem for p in sorted(PACKAGE.glob("*.py"))])
def test_module_imports_only_scipy_linalg(path):
    # no scipy import at all, scipy.linalg included: every CLI run pays it,
    # scipy.interpolate alone costs about 0.3 s and scipy.linalg about 0.4 s,
    # and a bare `import scipy` would reach every subpackage lazily.
    # cscglue.lapack calls the LAPACK of numpy's own OpenBLAS instead.
    assert _scipy_imports(ast.parse(path.read_text())) == set()


def test_scipy_import_check_sees_every_form():
    src = ("import scipy\nimport scipy.special as sp\nfrom scipy import optimize\n"
           "from scipy.linalg import lapack\n"
           "def f():\n    from scipy.interpolate import make_interp_spline\n")
    assert _scipy_imports(ast.parse(src)) == {
        "scipy", "scipy.special", "scipy.optimize", "scipy.linalg", "scipy.interpolate"}


def _is_dataclass(node: ast.ClassDef) -> bool:
    return any(getattr(d.func if isinstance(d, ast.Call) else d, "id", None) == "dataclass"
               for d in node.decorator_list)


def test_settable_values_within_bound():
    params = fields = 0
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.Lambda)):
                params += len(node.args.defaults) + sum(
                    d is not None for d in node.args.kw_defaults)
            elif isinstance(node, ast.ClassDef) and _is_dataclass(node):
                fields += sum(isinstance(s, ast.AnnAssign) for s in node.body)
    keys = len(cli.DEFAULTS)
    assert params + fields + keys <= MAX_SETTABLE, (
        f"{params} defaulted parameters + {fields} dataclass fields + "
        f"{keys} cli.DEFAULTS keys = {params + fields + keys} > {MAX_SETTABLE}")


# Each report stores what its stage measured; the summaries beside each
# class are properties derived from those fields when read.
REPORTS = {
    yamabe.FixedPointReport: (
        ["sup_history", "increments", "v", "residual", "converged", "pre_dev", "operator"],
        ["mirror_defect", "contraction"]),
    yamabe.CurvatureCheck: (["fd_err", "pre_dev", "s", "post_values"], ["post_dev"]),
    yamabe.SweepTable: (["rows"], ["slope"]),
    neck_analysis.DeviationProfile: (
        ["eps", "t", "sup_dev", "fd_err", "weighted_sup"], ["resolved"]),
    neck_analysis.DeviationFit: (["profiles"], ["probe_slope", "weighted_ratio"]),
    neck_analysis.ConjugationReport: (["per_probe", "t"], ["max_ratio"]),
    neck_analysis.BarrierReport: (
        ["delta", "eps", "alpha", "C", "t", "margins", "fd_err"], ["min_margin"]),
    neck_analysis.LocalEstimateReport: (["per_probe"], ["max_ratio"]),
    linear_solver.EstimateReport: (["per_probe", "min_abs_eig"], ["ratio"]),
}


@pytest.mark.parametrize("report", REPORTS, ids=[cls.__name__ for cls in REPORTS])
def test_reports_store_measurements_and_derive_summaries(report):
    stored, derived = REPORTS[report]
    fields = dataclasses.fields(report)
    assert [f.name for f in fields] == stored
    assert all(f.default is dataclasses.MISSING for f in fields)  # every builder passes each
    assert all(isinstance(getattr(report, name, None), property) for name in derived)


def test_linear_solver_factors_tridiagonal_systems_in_one_place():
    # every tridiagonal system is a DiscreteOperator, factored by its lu
    # and solved by solve_banded; a second factorization path would name
    # TridiagonalLU again
    tree = ast.parse((PACKAGE / "linear_solver.py").read_text())
    (cls,) = [node for node in tree.body
              if isinstance(node, ast.ClassDef) and node.name == "DiscreteOperator"]
    (lu,) = [node for node in cls.body
             if isinstance(node, ast.FunctionDef) and node.name == "lu"]

    def names(node):
        return [n for n in ast.walk(node) if isinstance(n, ast.Name) and n.id == "TridiagonalLU"]
    assert len(names(tree)) == len(names(lu)) == 1


def test_cutoff_plateaus_are_decided_in_the_step_functions_alone():
    # chi and eta are exactly 0 or 1 off their bands; mollifier_step and
    # _step_jet read that from their own argument, and no profile decides
    # it again
    callers = set()
    for path in MODULES:
        for fn in ast.walk(ast.parse(path.read_text())):
            if isinstance(fn, ast.FunctionDef) and any(
                    isinstance(node, ast.Call) and "_plateau" in (getattr(node.func, "id", None),
                                                                  getattr(node.func, "attr", None))
                    for node in ast.walk(fn)):
                callers.add((path.name, fn.name))
    assert callers == {("gluing.py", "mollifier_step"), ("gluing.py", "_step_jet")}


def test_every_bound_lapack_routine_is_called():
    # the routines lapack.load binds, ilaver aside, are exactly those its
    # wrappers look up: no wrapper goes while its symbol stays bound, and
    # no lookup lacks a binding
    tree = ast.parse((PACKAGE / "lapack.py").read_text())
    (bound,) = [set(ast.literal_eval(node.value)) for node in ast.walk(tree)
                if isinstance(node, ast.Assign)
                and [getattr(t, "id", None) for t in node.targets] == ["_SIGNATURES"]]
    called = {node.slice.value for node in ast.walk(tree)
              if isinstance(node, ast.Subscript) and getattr(node.value, "id", None) == "_lapack"}
    assert called == bound - {"ilaver"}


def test_every_public_lapack_wrapper_has_a_caller_in_the_package():
    # a wrapper whose last production caller goes must go too, not linger
    # for the tests alone; load is called by lapack itself at import
    public = {node.name for node in ast.parse((PACKAGE / "lapack.py").read_text()).body
              if isinstance(node, (ast.FunctionDef, ast.ClassDef))
              and not node.name.startswith("_")}
    referenced = set()  # `from .lapack import name` and `lapack.name`
    for path in PACKAGE.glob("*.py"):
        if path.name != "lapack.py":
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.ImportFrom) and node.module == "lapack":
                    referenced |= {a.name for a in node.names}
                elif isinstance(node, ast.Attribute) and getattr(node.value, "id", "") == "lapack":
                    referenced.add(node.attr)
    assert public - referenced == {"load"}
