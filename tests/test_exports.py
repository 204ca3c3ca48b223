"""Every exported name resolves.

A stale ``__all__`` entry fails only ``from module import *``, which nothing
else in the suite runs, so deleting a public name could leave one behind.
"""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import transparent_dp

MODULES = sorted(info.name for info in pkgutil.iter_modules(transparent_dp.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_module_all_names_resolve(name):
    module = importlib.import_module(f"transparent_dp.{name}")
    exported = getattr(module, "__all__", [])
    assert [n for n in exported if not hasattr(module, n)] == []
    assert len(set(exported)) == len(exported)


def test_package_imports_resolve():
    tree = ast.parse(Path(transparent_dp.__file__).read_text())
    imports = [(node.module, alias.name) for node in tree.body
               if isinstance(node, ast.ImportFrom) for alias in node.names]
    assert imports
    for module, name in imports:
        source = importlib.import_module(f"transparent_dp.{module}")
        assert getattr(transparent_dp, name) is getattr(source, name), (module, name)
