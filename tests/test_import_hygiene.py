"""Every name a cscglue module imports is used in that module and public."""

import ast
from pathlib import Path

import pytest

import cscglue

PACKAGE = Path(cscglue.__file__).resolve().parent
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")

# Imported only so that bench/spans.py can wrap them by name; ROADMAP open
# item 5 gives the benchmark its own spans and removes these imports, and
# this list shrinks with them.
BENCH_ONLY = {
    "linear_solver": {"scalar_curvature", "glued_metric"},
    "neck_analysis": {"scalar_curvature", "glued_metric"},
    "yamabe": {"conformal_scalar", "scalar_curvature", "glued_metric"},
}


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
