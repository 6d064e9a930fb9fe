"""Every name the benchmark looks up inside the library's modules still
resolves.  ``bench/spans.py`` wraps private kernels and a method by name,
and ``bench/workloads.py`` reaches into submodules; a rename that missed
one of them would otherwise break only a traced benchmark run."""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

import gxplain as gx

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


def _dotted(node):
    """``"gx.a.b"`` of an attribute chain on a name, else ``None``."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        inner = _dotted(node.value)
        return inner and f"{inner}.{node.attr}"
    return None


def _gx_calls():
    """``(dotted name, positional arguments, keywords)`` of each
    ``gx.<name>(...)`` call in the workloads, directly or through the
    ledger's ``attempt(what, fn, *args, **kwargs)``."""
    tree = ast.parse((BENCH / "workloads.py").read_text("utf-8"))
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        fn, args = node.func, node.args
        if getattr(fn, "attr", "") == "attempt" and len(args) > 1:
            fn, args = args[1], args[2:]
        name = _dotted(fn) or ""
        if name.startswith("gx."):
            yield name, args, node.keywords


def _workload_keywords():
    """``(dotted name, keyword)`` of each keyword the workloads pass to a
    ``gx.<name>(...)`` call."""
    found = {
        (name, kw.arg)
        for name, _, kws in _gx_calls()
        for kw in kws
        if kw.arg
    }
    return sorted(found)


def _workload_calls():
    """``(dotted name, positional count, keywords)`` of each
    ``gx.<name>(...)`` call; a call that unpacks ``*args`` or ``**kwargs``
    cannot be bound and is left out."""
    found = set()
    for name, args, kws in _gx_calls():
        if any(isinstance(a, ast.Starred) for a in args) or any(
            kw.arg is None for kw in kws
        ):
            continue
        found.add((name, len(args), tuple(sorted(kw.arg for kw in kws))))
    return sorted(found)


def _step_calls(path):
    """Positional counts and keywords of each ``<x>.step(...)`` call in
    the module at ``path``."""
    tree = ast.parse(path.read_text("utf-8"))
    return sorted(
        {
            (len(node.args), tuple(sorted(kw.arg for kw in node.keywords)))
            for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and getattr(node.func, "attr", None) == "step"
        }
    )


def _bind(fn, positional, keywords):
    # the values do not matter: binding checks only the call's shape
    inspect.signature(fn).bind(
        *[None] * positional, **dict.fromkeys(keywords)
    )


KERNELS = [
    (module, name)
    for module, names in _spans_constant("_KERNELS").items()
    for name in names
]
METHODS = sorted(_spans_constant("_METHODS").items())
WORKLOAD_LOOKUPS = _workload_lookups()
WORKLOAD_KEYWORDS = _workload_keywords()
WORKLOAD_CALLS = _workload_calls()


def test_the_workloads_look_up_the_names_this_suite_pins():
    assert {
        ("training", "Adam"),
        ("optim", "Adam"),
        ("metrics", "save_report"),
        ("metrics", "report_to_dict"),
    } <= set(WORKLOAD_LOOKUPS)


def test_the_workloads_pass_keywords_this_suite_pins():
    assert {
        ("gx.evaluate", "compute_sparsity"),
        ("gx.evaluate", "k"),
        ("gx.evaluate", "attr_top"),
    } <= set(WORKLOAD_KEYWORDS)


@pytest.mark.parametrize("name, keyword", WORKLOAD_KEYWORDS)
def test_each_keyword_the_workloads_pass_is_a_parameter(name, keyword):
    fn = gx
    for part in name.split(".")[1:]:
        fn = getattr(fn, part)
    assert keyword in inspect.signature(fn).parameters


def test_the_workloads_make_the_calls_this_suite_pins():
    assert {
        ("gx.optim.Adam", 2, ()),
        ("gx.sample_hard_concrete", 3, ()),
        ("gx.explain", 3, ()),
    } <= set(WORKLOAD_CALLS)


@pytest.mark.parametrize(
    "name, positional, keywords",
    WORKLOAD_CALLS,
    ids=[f"{n}-{p}-{'-'.join(k)}" for n, p, k in WORKLOAD_CALLS],
)
def test_each_call_the_workloads_make_binds(name, positional, keywords):
    fn = gx
    for part in name.split(".")[1:]:
        fn = getattr(fn, part)
    _bind(fn, positional, keywords)


def test_each_optimizer_step_fits_adam_and_the_epoch_clock():
    # the epoch clock subclasses training.Adam and overrides
    # step(self, grads), so each step call of the workloads and of the
    # trainer must fit both Adam.step and that override
    from gxplain.optim import Adam

    tree = ast.parse((BENCH / "workloads.py").read_text("utf-8"))
    overrides = [
        [a.arg for a in node.args.args]
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.name == "step"
    ]
    assert overrides == [["self", "grads"]]

    def clock_step(self, grads):
        pass

    bench_calls = _step_calls(BENCH / "workloads.py")
    assert bench_calls == [(1, ())]
    trainer = Path(gx.__file__).parent / "training.py"
    for positional, keywords in bench_calls + _step_calls(trainer):
        for step in (Adam.step, clock_step):
            _bind(step, positional + 1, keywords)


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
