import importlib
import sys
from pathlib import Path

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
