"""Static checks on the package's modules."""
import ast
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(p for p in (ROOT / "src" / "gsteiner").glob("*.py")
                 if p.name != "__init__.py")


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_imported_name_is_used(path):
    # __init__.py imports to re-export, so it is left out
    tree = ast.parse(path.read_text(), str(path))
    imported = {alias.asname or alias.name.split(".")[0]
                for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom))
                and getattr(node, "module", None) != "__future__"
                for alias in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert sorted(imported - used) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_parameter_is_used(path):
    # a parameter that is passed along but never read is a second source for
    # a value its function already has; self and cls are bound by the call
    tree = ast.parse(path.read_text(), str(path))
    unused = []
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef,
                               ast.Lambda)):
            continue
        args = fn.args
        params = {a.arg for a in (*args.posonlyargs, *args.args,
                                  *args.kwonlyargs, args.vararg, args.kwarg)
                  if a is not None} - {"self", "cls"}
        body = fn.body if isinstance(fn.body, list) else [fn.body]
        read = {node.id for stmt in body for node in ast.walk(stmt)
                if isinstance(node, ast.Name)
                and isinstance(node.ctx, ast.Load)}
        unused += [(getattr(fn, "name", "<lambda>"), fn.lineno, p)
                   for p in sorted(params - read)]
    assert unused == []


def test_imports_are_stdlib_or_declared():
    # a test-only extra (scipy) on the import path would break an install
    # without it; pyproject.toml is read by regex, as tomllib needs 3.11
    (deps,) = re.findall(r"^dependencies = \[(.*?)\]",
                         (ROOT / "pyproject.toml").read_text(), re.M | re.S)
    allowed = (set(sys.stdlib_module_names) | {"gsteiner"}
               | set(re.findall(r'"([A-Za-z0-9_]+)', deps)))
    imported = set()
    for path in (ROOT / "src" / "gsteiner").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                imported |= {alias.name.split(".")[0] for alias in node.names}
            elif isinstance(node, ast.ImportFrom) and not node.level:
                imported.add(node.module.split(".")[0])
    assert "numpy" in imported
    assert sorted(imported - allowed) == []
