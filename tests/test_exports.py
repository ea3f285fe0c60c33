"""Exports stay in step with the modules: deleting a name must also delete
it from ``__all__`` and from the package namespace."""

import ast
import importlib
import pkgutil

import pytest

import mongeval

MODULES = [info.name for info in pkgutil.iter_modules(mongeval.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"mongeval.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing, f"mongeval.{name}.__all__ lists undefined names {missing}"


def test_package_imports_only_public_names():
    with open(mongeval.__file__) as fh:
        tree = ast.parse(fh.read())
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imports
    for node in imports:
        assert node.level == 1, "the package imports only from its own modules"
        module = importlib.import_module(f"mongeval.{node.module}")
        public = set(getattr(module, "__all__", ()))
        unlisted = [alias.name for alias in node.names if alias.name not in public]
        assert not unlisted, f"mongeval imports {unlisted}, not in mongeval.{node.module}.__all__"
