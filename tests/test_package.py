"""Guards against leftovers: dangling exports, scipy imports, global state."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import epiconv

SRC = Path(epiconv.__file__).parent
MODULES = sorted(f"epiconv.{m.name}" for m in pkgutil.iter_modules([str(SRC)]))


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    mod = importlib.import_module(name)
    missing = [n for n in getattr(mod, "__all__", []) if not hasattr(mod, n)]
    assert not missing, f"{name}.__all__ lists undefined names {missing}"


def test_package_imports_resolve():
    tree = ast.parse((SRC / "__init__.py").read_text())
    imported = [
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]
    assert imported
    missing = [n for n in imported if not hasattr(epiconv, n)]
    assert not missing, f"epiconv does not resolve {missing}"


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_scipy_and_no_recursion_limit(path):
    tree = ast.parse(path.read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            roots = [alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            roots = [(node.module or "").split(".")[0]]
        else:
            roots = []
        assert "scipy" not in roots, f"{path.name}:{node.lineno} imports scipy"
        name = getattr(node, "attr", None) or getattr(node, "id", None)
        if isinstance(node, ast.alias):
            name = node.name
        assert name != "setrecursionlimit", f"{path.name} uses sys.setrecursionlimit"
