"""The package exports only what something uses: each exported name is
used in the library, called by the benchmark, or given a reason to be
public in README.  And each module name README gives exists."""

import ast
import importlib
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


def _used_names(paths):
    """Names read as a variable or an attribute in ``paths``, outside
    type annotations, which name a type without using it."""
    used = set()
    for path in paths:
        tree = ast.parse(path.read_text("utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, (ast.arg, ast.AnnAssign)):
                node.annotation = None
            elif isinstance(node, ast.FunctionDef):
                node.returns = None
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return used


def test_every_exported_name_has_a_user_or_a_stated_reason():
    library = _used_names(
        p for p in SRC.glob("*.py") if p.name != "__init__.py"
    )
    bench = _used_names((ROOT / "bench").glob("*.py"))
    readme = (ROOT / "README.md").read_text("utf-8")
    reasons = set(re.findall(r"`(\w+)` is public because", readme))
    exported = _exported()
    assert len(exported) > 50
    assert [n for n in exported if n not in library | bench | reasons] == []


def test_stated_reasons_name_exported_names():
    readme = (ROOT / "README.md").read_text("utf-8")
    reasons = re.findall(r"`(\w+)` is public because", readme)
    assert reasons and set(reasons) <= set(_exported())


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
