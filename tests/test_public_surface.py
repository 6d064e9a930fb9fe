"""The package exports only what something uses: each exported name is
read by name in a library module, called by the benchmark as
``gx.<name>``, or given a reason to be public in README; so is each
public method and property of an exported class.  And each module name
README gives exists."""

import ast
import importlib
import inspect
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "gxplain"


def _exported():
    tree = ast.parse((SRC / "__init__.py").read_text("utf-8"))
    return [
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]


def _trees(paths):
    """Parsed ``paths``, with type annotations dropped: an annotation
    names a type without using it."""
    for path in paths:
        tree = ast.parse(path.read_text("utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, (ast.arg, ast.AnnAssign)):
                node.annotation = None
            elif isinstance(node, ast.FunctionDef):
                node.returns = None
        yield tree


def _loaded_names(paths):
    """Names read as a variable in ``paths``.  An attribute does not
    count: ``args.sweep`` is not a use of ``sweep``."""
    return {
        node.id
        for tree in _trees(paths)
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }


def _gx_attributes(paths):
    """Names read as ``gx.<name>`` in ``paths``, which import the
    package as ``gx``.  A bare name does not count: a local ``sweep``
    is not a use of ``gx.sweep``."""
    return {
        node.attr
        for tree in _trees(paths)
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "gx"
    }


def test_every_exported_name_has_a_user_or_a_stated_reason():
    library = _loaded_names(
        p for p in SRC.glob("*.py") if p.name != "__init__.py"
    )
    bench = _gx_attributes((ROOT / "bench").glob("*.py"))
    assert bench, "the benchmark imports the package as gx"
    readme = (ROOT / "README.md").read_text("utf-8")
    reasons = set(re.findall(r"`(\w+)` is public because", readme))
    exported = _exported()
    assert len(exported) > 50
    assert [n for n in exported if n not in library | bench | reasons] == []


def _attributes_read(paths):
    """Attribute names read in ``paths`` other than through ``self``: a
    class reading its own property is not a use of it."""
    return {
        node.attr
        for tree in _trees(paths)
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.ctx, ast.Load)
        and not (isinstance(node.value, ast.Name) and node.value.id == "self")
    }


def _public_members():
    """``Class.name`` of each public function, static or class method and
    property an exported class defines itself."""
    package = importlib.import_module("gxplain")
    kinds = (staticmethod, classmethod, property)
    return [
        f"{name}.{attr}"
        for name in _exported()
        if inspect.isclass(cls := getattr(package, name))
        for attr, value in vars(cls).items()
        if not attr.startswith("_")
        and (inspect.isfunction(value) or isinstance(value, kinds))
    ]


def test_every_public_method_has_a_user_or_a_stated_reason():
    read = _attributes_read(
        [p for p in SRC.glob("*.py") if p.name != "__init__.py"]
        + list((ROOT / "bench").glob("*.py"))
    )
    readme = (ROOT / "README.md").read_text("utf-8")
    reasons = set(re.findall(r"`(\w+\.\w+)` is public because", readme))
    members = _public_members()
    assert "MaskSet.check_graph" in members
    unread = [
        m for m in members if m.split(".")[1] not in read and m not in reasons
    ]
    assert unread == []


def test_stated_reasons_name_exported_names():
    readme = (ROOT / "README.md").read_text("utf-8")
    reasons = re.findall(r"`(\w+)` is public because", readme)
    assert reasons and set(reasons) <= set(_exported())
    methods = re.findall(r"`(\w+\.\w+)` is public because", readme)
    assert set(methods) <= set(_public_members())


def test_each_module_name_in_the_readme_resolves():
    # a backticked `module.name` (or `gxplain.module.name`) names a real
    # attribute of that gxplain module, so a rename cannot leave the
    # README pointing at nothing
    modules = {path.stem for path in SRC.glob("*.py")}
    readme = (ROOT / "README.md").read_text("utf-8")
    named = set()
    for path in re.findall(r"`(\w+(?:\.\w+)+)", readme):
        parts = path.split(".")
        if parts[0] == "gxplain":
            parts = parts[1:]
        if len(parts) > 1 and parts[0] in modules:
            named.add(tuple(parts))
    assert len(named) >= 21
    unresolved = []
    for module, *attrs in sorted(named):
        obj = importlib.import_module(f"gxplain.{module}")
        for attr in attrs:
            obj = getattr(obj, attr, None)
        if obj is None:
            unresolved.append(".".join((module, *attrs)))
    assert unresolved == []
