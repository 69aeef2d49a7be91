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


def _float_uses(tree: ast.AST) -> list[str]:
    """Float literals, float(...) calls and true divisions, as 'line: what'."""
    hits = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, float):
            hits.append(f"{node.lineno}: literal {node.value!r}")
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "float":
            hits.append(f"{node.lineno}: float() call")
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
            hits.append(f"{node.lineno}: true division")
    return hits


@pytest.mark.parametrize(
    "path", sorted(Path(whirlknight.__file__).parent.glob("*.py")), ids=lambda p: p.name
)
def test_no_floating_point_in_package(path):
    assert _float_uses(ast.parse(path.read_text())) == []


def test_float_guard_sees_each_kind():
    source = "x = 0.5\ny = float(1)\nz = 1 / 2\nz /= 2\nw = 1 // 2\n"
    assert len(_float_uses(ast.parse(source))) == 4


def test_oracles_import_nothing_from_package():
    tree = ast.parse((Path(__file__).parent / "oracles.py").read_text())
    modules = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            modules.append(node.module or "")
    assert modules  # the walk sees the oracles' own imports
    assert [m for m in modules if m.split(".")[0] == "whirlknight"] == []
