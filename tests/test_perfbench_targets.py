"""The benchmark's hooks into smoothlab still resolve.

perfbench's tracer patches the functions named in ``perfbench/spans.py``
``TARGETS``, and its workloads call smoothlab only through ``sl.<name>``
lookups on the package.  A rename inside smoothlab that misses either would
only show when the benchmark runs; these checks show it in the test suite.
"""

import ast
import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

import smoothlab

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", PERFBENCH / "spans.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up while it loads
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


TARGETS = _load_spans().TARGETS


@pytest.mark.parametrize("target", TARGETS, ids=[f"{t.module}.{t.attr}" for t in TARGETS])
def test_tracer_target_resolves(target):
    # the lookups Tracer.install makes: class methods through the class
    # __dict__, functions as module attributes
    home = importlib.import_module(f"smoothlab.{target.module}")
    if "." in target.attr:
        cls_name, meth = target.attr.split(".")
        assert callable(vars(getattr(home, cls_name))[meth])
    else:
        assert callable(getattr(home, target.attr))


def test_workload_names_are_exported():
    tree = ast.parse((PERFBENCH / "workloads.py").read_text(encoding="utf-8"))
    names = {
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "sl"
    }
    assert names
    assert sorted(n for n in names if not hasattr(smoothlab, n)) == []
