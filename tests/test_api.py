import ast
import importlib
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import whirlknight
from whirlknight import render


LIBRARY_LAYERS = ["certificates", "digraph", "geometry", "polytope", "tours"]


@pytest.mark.parametrize("module", LIBRARY_LAYERS)
def test_package_reexports_exactly_module_all(module):
    mod = importlib.import_module(f"whirlknight.{module}")
    names = set(whirlknight._EXPORTS[module])  # the package's lazy table
    assert names == set(mod.__all__)
    assert all(getattr(whirlknight, name) is getattr(mod, name) for name in names)
    assert names <= set(dir(whirlknight)) and names <= set(whirlknight.__all__)


@pytest.mark.parametrize(
    "module", ["certificates", "cli", "digraph", "geometry", "polytope", "render", "tours"]
)
def test_module_all_names_exist(module):
    mod = importlib.import_module(f"whirlknight.{module}")
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []


def test_star_import_binds_every_export_and_layer():
    namespace = {}
    exec("from whirlknight import *", namespace)
    for module in LIBRARY_LAYERS:
        mod = importlib.import_module(f"whirlknight.{module}")
        assert namespace[module] is mod
        assert all(namespace[name] is getattr(mod, name) for name in mod.__all__)


def test_package_reads_the_home_attribute_on_every_access(monkeypatch):
    # A tracer swaps the home module's attribute; the package must hand out the swapped one.
    swapped = object()
    monkeypatch.setattr(whirlknight.tours, "search_tour", swapped)
    assert whirlknight.search_tour is swapped
    monkeypatch.undo()
    assert whirlknight.search_tour is whirlknight.tours.search_tour
    assert "search_tour" not in vars(whirlknight)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError) as exc:
        whirlknight.nope
    assert str(exc.value) == "module 'whirlknight' has no attribute 'nope'"


def _fresh(code: str, *argv: str, cwd: Path | None = None) -> str:
    """Stdout of code run by a fresh interpreter that imports the package from this tree."""
    src = str(Path(whirlknight.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-B", "-c", code, *argv], cwd=cwd,
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_each_layer_resolves_without_an_import():
    code = "import sys, whirlknight; print(*(getattr(whirlknight, m).__name__ for m in sys.argv[1:]))"
    assert _fresh(code, *LIBRARY_LAYERS).split() == [f"whirlknight.{m}" for m in LIBRARY_LAYERS]


# A bare import (no argv) or one command through cli.main, then its exit code and the
# whirlknight modules and fractions loaded, as JSON on the real stdout.
FOOTPRINT = """
import io, json, sys
sys.stdout = io.StringIO()
code = None
if sys.argv[1:]:
    from whirlknight.cli import main
    code = main(sys.argv[1:])
else:
    import whirlknight
loaded = [m for m in sys.modules if m == "fractions" or m.split(".")[0] == "whirlknight"]
sys.__stdout__.write(json.dumps([code, sorted(loaded)]))
"""
COMMAND = ["whirlknight", "whirlknight.cli", "whirlknight.geometry", "whirlknight.digraph"]
FOOTPRINTS = [
    pytest.param([], None, ["whirlknight"], id="import"),
    pytest.param(["digraph", "--n", "6"], 0, COMMAND, id="digraph"),
    pytest.param(["cert", "verify", "--family", "t1", "--n", "6"], 0,
                 [*COMMAND, "whirlknight.certificates"], id="cert verify"),
    pytest.param(["lp", "--n", "6", "--c", "3"], 1,
                 [*COMMAND, "whirlknight.certificates", "whirlknight.polytope", "fractions"], id="lp"),
    pytest.param(["tour", "verify", "--in", "t6.json"], 0, [*COMMAND, "whirlknight.tours"], id="tour verify"),
    pytest.param(["tour", "search", "--n", "6", "--coil", "5", "--budget", "100000"], 0,
                 [*COMMAND, "whirlknight.tours"], id="tour search"),
    pytest.param(["render", "--in", "g6.json"], 0, [*COMMAND, "whirlknight.render"], id="render --in"),
]


@pytest.mark.parametrize("argv,code,loaded", FOOTPRINTS)
def test_each_command_loads_only_its_layers(argv, code, loaded, tmp_path, dg):
    g = dg(6)
    (tmp_path / "g6.json").write_text(whirlknight.digraph_to_json(g))
    (tmp_path / "t6.json").write_text(whirlknight.tour_to_json(6, whirlknight.search_tour(g, 5, budget=100_000)))
    assert json.loads(_fresh(FOOTPRINT, *argv, cwd=tmp_path)) == [code, sorted(loaded)]


LAYERS = ["geometry", "digraph", "certificates", "polytope", "tours", "render", "cli"]
# The names whirlknight/__init__.py assigns at module level: its tables, which load no layer.
PACKAGE_OWN = {
    target.id
    for node in ast.parse(Path(whirlknight.__file__).read_text()).body if isinstance(node, ast.Assign)
    for target in node.targets if isinstance(target, ast.Name)
}


def _sibling_imports(tree: ast.AST, module: str) -> set[str]:
    """Sibling modules that a tree from whirlknight/<module>.py imports.

    ``from . import NAME`` imports module NAME unless the package itself
    assigns NAME (``PACKAGE_OWN``).  ``import whirlknight`` (under any name,
    or of a submodule, which binds the package too) and ``from whirlknight
    import ...`` reach every layer through the package's lazy names, so each
    counts as an import of every other layer.
    """
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            found |= {node.module or alias.name for alias in node.names} - PACKAGE_OWN
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module.startswith("whirlknight."):
            found.add(node.module.split(".")[1])
        elif (isinstance(node, ast.ImportFrom) and node.level == 0 and node.module == "whirlknight"
              or isinstance(node, ast.Import) and any(a.name.split(".")[0] == "whirlknight" for a in node.names)):
            found |= set(LAYERS) - {module}
    return found


def _relative_imports(module: str) -> set[str]:
    """Sibling modules that whirlknight/<module>.py imports."""
    return _sibling_imports(ast.parse((Path(whirlknight.__file__).parent / f"{module}.py").read_text()), module)


def test_layers_name_every_module():
    modules = {p.stem for p in Path(whirlknight.__file__).parent.glob("*.py")}
    assert modules == {"__init__", *LAYERS}


@pytest.mark.parametrize("module", LAYERS)
def test_modules_import_only_earlier_layers(module):
    # One order for the whole package, so no import cycle can form.
    assert _relative_imports(module) <= set(LAYERS[: LAYERS.index(module)])


def test_layer_guard_sees_each_form():
    every = set(LAYERS) - {"tours"}
    cases = {
        "from __future__ import annotations\nimport json\nfrom json import loads": set(),
        "from .digraph import WhirlDigraph": {"digraph"},
        "from . import render, geometry": {"render", "geometry"},
        "from whirlknight.polytope import lp_feasible": {"polytope"},
        "import whirlknight": every,
        "import whirlknight as wk": every,
        "import whirlknight.digraph": every,
        "from whirlknight import build_digraph": every,
        "def f():\n    import whirlknight": every,
        "from . import _EXPORTS, FAMILIES": set(),
        "from . import FAMILIES, render": {"render"},
        "from . import build_digraph": {"build_digraph"},
    }
    for source, want in cases.items():
        assert _sibling_imports(ast.parse(source), "tours") == want, source
    package = ast.parse("import whirlknight")  # passes the order only in the last layer
    assert [m for m in LAYERS if _sibling_imports(package, m) <= set(LAYERS[: LAYERS.index(m)])] == ["cli"]


def test_cli_functions_import_no_layer_but_render():
    # Commands reach the layers through the package's lazy names; render is not among them.
    tree = ast.parse((Path(whirlknight.__file__).parent / "cli.py").read_text())
    functions = [f for f in ast.walk(tree) if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef))]
    imports = {f.name: _sibling_imports(f, "cli") for f in functions}
    assert {name: got for name, got in imports.items() if got} == {"cmd_render": {"render"}}


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


def _int_rule_uses(tree: ast.AST) -> list[str]:
    """type(...) compared with int, and isinstance(..., int), as 'line: what'."""

    def is_int(node):
        return isinstance(node, ast.Name) and node.id == "int"

    def is_type_call(node):
        return isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "type"

    hits = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            if any(map(is_type_call, operands)) and any(map(is_int, operands)):
                hits.append(f"{node.lineno}: type() compared with int")
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "isinstance":
            cls = node.args[1] if len(node.args) == 2 else None
            if is_int(cls) or isinstance(cls, ast.Tuple) and any(map(is_int, cls.elts)):
                hits.append(f"{node.lineno}: isinstance(..., int)")
    return hits


@pytest.mark.parametrize(
    "path", sorted(Path(whirlknight.__file__).parent.glob("*.py")), ids=lambda p: p.name
)
def test_only_geometry_states_the_integer_rule(path):
    # Every other module calls geometry._exact_int, so the rule has one owner.
    uses = _int_rule_uses(ast.parse(path.read_text()))
    assert bool(uses) == (path.name == "geometry.py"), uses


def test_integer_rule_guard_sees_each_form():
    source = (
        "type(x) is int\ntype(x) is not int\nint == type(x)\ntype(i) is type(j) is int\n"
        "isinstance(x, int)\nisinstance(x, (bool, int))\n"
        "type(x) is float\nisinstance(x, str)\ntype(x) in (int, Fraction)\n"
    )  # the last three are other rules: validate_assignment's values may be int or Fraction
    assert len(_int_rule_uses(ast.parse(source))) == 6


def _cell_rule_uses(tree: ast.AST) -> list[str]:
    """String literals (docstrings and f-string parts included) that name the label 'cell coordinate'."""
    return [f"{node.lineno}: {node.value!r}" for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and isinstance(node.value, str) and "cell coordinate" in node.value]


@pytest.mark.parametrize(
    "path", sorted(Path(whirlknight.__file__).parent.glob("*.py")), ids=lambda p: p.name
)
def test_only_geometry_states_the_cell_rule(path):
    # Every other module reads an outside cell through geometry._cell.
    uses = _cell_rule_uses(ast.parse(path.read_text()))
    assert bool(uses) == (path.name == "geometry.py"), uses


def test_cell_rule_guard_sees_each_form():
    source = (
        '_exact_int(i, "cell coordinate")\nf"{x} cell coordinate"\n"cell " "coordinate"\n'
        "def f():\n    'Checks each cell coordinate.'\n"
        '"cell"\n"coordinate"\n# cell coordinate\n'
    )  # the last three name no label
    assert len(_cell_rule_uses(ast.parse(source))) == 4


def _json_imports(tree: ast.AST) -> list[str]:
    """Imports of json or of one of its submodules, under any name and at any depth, as 'line: module'."""
    hits = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        hits += [f"{node.lineno}: {name}" for name in names if name.split(".")[0] == "json"]
    return hits


@pytest.mark.parametrize(
    "path", sorted(Path(whirlknight.__file__).parent.glob("*.py")), ids=lambda p: p.name
)
def test_only_geometry_and_cli_import_json(path):
    # geometry reads and writes every file; cli only quotes an error string with json.dumps.
    uses = _json_imports(ast.parse(path.read_text()))
    assert bool(uses) == (path.name in ("geometry.py", "cli.py")), uses


def test_json_import_guard_sees_each_form():
    source = (
        "import json\nimport json as j\nimport os, json\nimport json.decoder\n"
        "from json import dumps\nfrom json.decoder import JSONDecodeError\ndef f():\n    import json\n"
        "import jsonschema\nfrom .geometry import _dump_doc\nfrom . import json_utils\n"
    )  # the last three are other modules
    assert len(_json_imports(ast.parse(source))) == 7


# Every site of the integer rule, as (name, label in the message, call through a public entry
# point); g is the n = 3 digraph, where arc k leaves vertex k.
GUARD_SITES = [
    ("BoardGeometry", "board side", lambda g, x: whirlknight.BoardGeometry(x)),
    ("build_t1", "board side", lambda g, x: whirlknight.build_t1(x)),
    ("build_t2", "board side", lambda g, x: whirlknight.build_t2(x)),
    ("parity_census", "board side", lambda g, x: whirlknight.parity_census(x)),
    ("render", "board side", lambda g, x: render.render(render.board_spec(x))),
    ("certificate c", "c", lambda g, x: whirlknight.FarkasCertificate(3, x, {}, {}, -1)),
    ("certificate gamma", "gamma", lambda g, x: whirlknight.FarkasCertificate(3, 2, {}, {}, x)),
    ("certificate entry", "beta entry at (0, 0)",
     lambda g, x: whirlknight.FarkasCertificate(3, 2, {}, {whirlknight.Cell(0, 0): x}, -1)),
    ("coil_of_cover", "arc id", lambda g, x: whirlknight.coil_of_cover(g, whirlknight.CycleCover((x, *range(1, 8))))),
    ("validate_assignment arc", "arc id",
     lambda g, x: whirlknight.validate_assignment(g, whirlknight.FractionalAssignment({x: Fraction(1)}), 2)),
    ("validate_assignment c", "coil count",
     lambda g, x: whirlknight.validate_assignment(g, whirlknight.FractionalAssignment({}), x)),
    ("lp_feasible", "coil count", lambda g, x: whirlknight.lp_feasible(g, x)),
    ("search budget", "budget", lambda g, x: whirlknight.search_tour(g, budget=x)),
    ("search coil", "coil count", lambda g, x: whirlknight.search_tour(g, coil_target=x)),
    ("search seed", "seed", lambda g, x: whirlknight.search_tour(g, seed=x)),
    ("is_ccw", "cell coordinate", lambda g, x: whirlknight.is_ccw(g.geometry, (x, 0), (2, 1))),
    ("crosses_axis_ray", "cell coordinate",
     lambda g, x: whirlknight.crosses_axis_ray(g.geometry, (0, 1), (2, x))),
    ("on_board", "cell coordinate", lambda g, x: g.geometry.on_board((x, 0))),
    ("WhirlDigraph.arc", "arc id", lambda g, x: g.arc(x)),
]
CERT_DOC = {"n": 6, "c": 3, "gamma": -1, "alpha": [[0, 2, 1]], "beta": [[0, 3, 1]]}
DIGRAPH_DOC = {"n": 3, "vertices": [[0, 0]], "arcs": [{"u": [0, 0], "v": [1, 2], "w": 0}]}
# JSON has no Fraction, so these sites take the other three values.
JSON_SITES = [
    ("certificate n", "certificate", "n", lambda x: {**CERT_DOC, "n": x}),
    ("certificate c", "certificate", "c", lambda x: {**CERT_DOC, "c": x}),
    ("certificate gamma", "certificate", "gamma", lambda x: {**CERT_DOC, "gamma": x}),
    ("certificate entry", "certificate", "alpha entry", lambda x: {**CERT_DOC, "alpha": [[0, 2, x]]}),
    ("certificate cell", "certificate", "cell coordinate", lambda x: {**CERT_DOC, "beta": [[x, 3, 1]]}),
    ("digraph n", "digraph", "n", lambda x: {**DIGRAPH_DOC, "n": x}),
    ("digraph vertex", "digraph", "cell coordinate", lambda x: {**DIGRAPH_DOC, "vertices": [[0, x]]}),
    ("digraph arc end", "digraph", "cell coordinate",
     lambda x: {**DIGRAPH_DOC, "arcs": [{"u": [0, 0], "v": [x, 2], "w": 0}]}),
    ("digraph weight", "digraph", "arc weight", lambda x: {**DIGRAPH_DOC, "arcs": [{"u": [0, 0], "v": [1, 2], "w": x}]}),
    ("tour n", "tour", "n", lambda x: {"n": x, "cells": []}),
    ("tour cell", "tour", "cell coordinate", lambda x: {"n": 3, "cells": [[0, 0], [x, 2]]}),
    ("tour coil", "tour", "coil", lambda x: {"n": 3, "cells": [], "coil": x}),
]
READERS = {"certificate": "certificate_from_json", "digraph": "digraph_from_json", "tour": "tour_from_json"}
# Every site of the cell rule, as (name, call through a public entry point, what its message says
# the value is not); and every JSON cell, as (name, reader kind, doc), each given values that are
# not pairs, with the text they show as.
CELL_SITES = [
    ("is_ccw", lambda g, c: whirlknight.is_ccw(g.geometry, c, (2, 1)), "a cell"),
    ("crosses_axis_ray", lambda g, c: whirlknight.crosses_axis_ray(g.geometry, (0, 1), c), "a cell"),
    ("on_board", lambda g, c: g.geometry.on_board(c), "a cell"),
    ("BoardGeometry.index", lambda g, c: g.geometry.index(c), "a vertex of the n=3 digraph"),
]
JSON_CELL_SITES = [
    ("tour cell", "tour", lambda c: {"n": 3, "cells": [[0, 0], c]}),
    ("digraph vertex", "digraph", lambda c: {**DIGRAPH_DOC, "vertices": [c]}),
    ("digraph arc end", "digraph", lambda c: {**DIGRAPH_DOC, "arcs": [{"u": [0, 0], "v": c, "w": 0}]}),
]
NOT_PAIRS = [((0, 0, 7), "(0, 0, 7)"), ((0,), "(0,)"), (5, "5"), ("ab", "'ab'"),
             ({2, 1}, "{1, 2}"), ({0: 1, 1: 2}, "{0: 1, 1: 2}"), (range(2), "range(0, 2)")]
NOT_JSON_PAIRS = NOT_PAIRS[:4]  # a set and a range have no JSON form; a dict's keys come back as strings
# Certificate alpha lists whose entry is not [i, j, x], with the text that entry shows as.
NOT_ENTRIES = [([[0, 2]], "[0, 2]"), ([[0, 2, 1, 9]], "[0, 2, 1, 9]"), ([5], "5")]
# Every JSON array field, as (field, reader kind, doc), each given values that are not lists.
JSON_LIST_SITES = [
    ("alpha", "certificate", lambda x: {**CERT_DOC, "alpha": x}),
    ("beta", "certificate", lambda x: {**CERT_DOC, "beta": x}),
    ("cells", "tour", lambda x: {"n": 3, "cells": x}),
    ("vertices", "digraph", lambda x: {**DIGRAPH_DOC, "vertices": x}),
    ("arcs", "digraph", lambda x: {**DIGRAPH_DOC, "arcs": x}),
]
NOT_LISTS = [{}, {"02": 1}, "", "ab", 5, None]
NOT_INTS = [1.5, True, Fraction(1), "1"]


@pytest.fixture
def no_builds(dg, monkeypatch):
    """The n = 3 digraph, built before every later build_digraph call is refused."""
    g = dg(3)

    def refuse(n):
        raise AssertionError(f"built the n={n} digraph")

    # The home module: the package and every command look build_digraph up there at call time.
    monkeypatch.setattr(whirlknight.digraph, "build_digraph", refuse)
    return g


@pytest.mark.parametrize("x", NOT_INTS, ids=repr)
@pytest.mark.parametrize("name,what,call", GUARD_SITES, ids=[s[0] for s in GUARD_SITES])
def test_every_guard_site_rejects_each_non_int(name, what, call, x, no_builds):
    with pytest.raises(ValueError) as exc:
        call(no_builds, x)
    assert str(exc.value) == f"{what} must be an integer, got {x!r}"


@pytest.mark.parametrize("x", [v for v in NOT_INTS if not isinstance(v, Fraction)], ids=repr)
@pytest.mark.parametrize("name,kind,what,doc", JSON_SITES, ids=[s[0] for s in JSON_SITES])
def test_every_json_number_rejects_each_non_int(name, kind, what, doc, x, no_builds):
    with pytest.raises(ValueError) as exc:
        getattr(whirlknight, READERS[kind])(json.dumps(doc(x)))
    assert str(exc.value) == f"malformed {kind} JSON: {what} must be an integer, got {x!r}"


@pytest.mark.parametrize("c,text", NOT_PAIRS, ids=[t for _, t in NOT_PAIRS])
@pytest.mark.parametrize("name,call,not_what", CELL_SITES, ids=[s[0] for s in CELL_SITES])
def test_every_cell_site_rejects_each_non_pair(name, call, not_what, c, text, no_builds):
    with pytest.raises(ValueError) as exc:
        call(no_builds, c)
    assert str(exc.value) == f"{text} is not {not_what}"


@pytest.mark.parametrize("c,text", NOT_JSON_PAIRS, ids=[t for _, t in NOT_JSON_PAIRS])
@pytest.mark.parametrize("name,kind,doc", JSON_CELL_SITES, ids=[s[0] for s in JSON_CELL_SITES])
def test_every_json_cell_rejects_each_non_pair(name, kind, doc, c, text, no_builds):
    with pytest.raises(ValueError) as exc:
        getattr(whirlknight, READERS[kind])(json.dumps(doc(c)))
    assert str(exc.value) == f"malformed {kind} JSON: {text} is not a cell"


@pytest.mark.parametrize("alpha,text", NOT_ENTRIES, ids=[t for _, t in NOT_ENTRIES])
def test_every_certificate_entry_rejects_each_non_triple(alpha, text, no_builds):
    with pytest.raises(ValueError) as exc:
        whirlknight.certificate_from_json(json.dumps({**CERT_DOC, "alpha": alpha}))
    assert str(exc.value) == f"malformed certificate JSON: alpha entry {text} is not [i, j, x]"


@pytest.mark.parametrize("x", NOT_LISTS, ids=repr)
@pytest.mark.parametrize("field,kind,doc", JSON_LIST_SITES, ids=[s[0] for s in JSON_LIST_SITES])
def test_every_json_array_rejects_each_non_list(field, kind, doc, x, no_builds):
    with pytest.raises(ValueError) as exc:
        getattr(whirlknight, READERS[kind])(json.dumps(doc(x)))
    assert str(exc.value) == f"malformed {kind} JSON: {field} must be a list, got {x!r}"
