"""Static checks on the package's modules."""
import ast
from pathlib import Path

import pytest

MODULES = sorted(p for p in (Path(__file__).resolve().parent.parent / "src"
                             / "gsteiner").glob("*.py")
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
