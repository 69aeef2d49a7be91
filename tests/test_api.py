import ast
import importlib
from pathlib import Path

import pytest

import whirlknight


def _reexported(module: str) -> set[str]:
    """Names that whirlknight/__init__.py imports from the given submodule."""
    tree = ast.parse(Path(whirlknight.__file__).read_text())
    return {
        alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module == module
        for alias in node.names
    }


@pytest.mark.parametrize("module", ["certificates", "digraph", "geometry", "polytope", "tours"])
def test_package_reexports_exactly_module_all(module):
    mod = importlib.import_module(f"whirlknight.{module}")
    names = _reexported(module)
    assert names == set(mod.__all__)
    assert all(getattr(whirlknight, name) is getattr(mod, name) for name in names)


@pytest.mark.parametrize(
    "module", ["certificates", "cli", "digraph", "geometry", "polytope", "render", "tours"]
)
def test_module_all_names_exist(module):
    mod = importlib.import_module(f"whirlknight.{module}")
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []
