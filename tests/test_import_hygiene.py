"""Every name a cscglue module imports is used in that module and public,
no cscglue module imports scipy (cscglue.lapack calls the LAPACK numpy
links), and the package's settable values stay within a recorded bound."""

import ast
from pathlib import Path

import pytest

import cscglue
from cscglue import cli

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
MAX_SETTABLE = 128


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
