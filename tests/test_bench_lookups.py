"""Every name the benchmark looks up inside the library's modules still
resolves.  ``bench/spans.py`` wraps private kernels and a method by name,
and ``bench/workloads.py`` reaches into submodules; a rename that missed
one of them would otherwise break only a traced benchmark run."""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _spans_constant(name):
    tree = ast.parse((BENCH / "spans.py").read_text("utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == name for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"bench/spans.py assigns no {name}")


def _workload_lookups():
    """``(module, name)`` of each ``gx.<module>.<name>`` in the workloads,
    and of ``training.Adam``, which the epoch clock patches."""
    tree = ast.parse((BENCH / "workloads.py").read_text("utf-8"))
    found = {("training", "Adam")}
    for node in ast.walk(tree):
        inner = getattr(node, "value", None)
        if (
            isinstance(node, ast.Attribute)
            and isinstance(inner, ast.Attribute)
            and isinstance(inner.value, ast.Name)
            and inner.value.id == "gx"
        ):
            found.add((inner.attr, node.attr))
    return sorted(found)


KERNELS = [
    (module, name)
    for module, names in _spans_constant("_KERNELS").items()
    for name in names
]
METHODS = sorted(_spans_constant("_METHODS").items())
WORKLOAD_LOOKUPS = _workload_lookups()


def test_the_workloads_look_up_the_names_this_suite_pins():
    assert {
        ("training", "Adam"),
        ("optim", "Adam"),
        ("metrics", "save_report"),
        ("metrics", "report_to_dict"),
    } <= set(WORKLOAD_LOOKUPS)


@pytest.mark.parametrize("module, name", KERNELS + WORKLOAD_LOOKUPS)
def test_each_looked_up_name_resolves(module, name):
    assert hasattr(importlib.import_module(f"gxplain.{module}"), name)


@pytest.mark.parametrize("module, method", METHODS)
def test_each_wrapped_method_is_the_class_own(module, method):
    cls_name, meth = method
    cls = getattr(importlib.import_module(f"gxplain.{module}"), cls_name)
    assert inspect.isfunction(cls.__dict__[meth])


def test_the_forward_kernel_takes_model_graph_and_mask_first():
    # the tracer reads them by position to key each forward
    from gxplain.model import _forward_trace

    params = list(inspect.signature(_forward_trace).parameters)
    assert params[:3] == ["model", "g", "mask"]
