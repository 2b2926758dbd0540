"""Every name a `src/ncsred` module imports is used in that module, and no
test reads a private name of the geometry modules.

`__init__.py` is left out of the first guard: its imports are the package's
re-exports. The second holds the tests to the public contracts
(`agent_polygon`, `pair_distances`, `polygon_distance`,
`input_image_distances`, the reach supports and the pipeline's decisions), so
that a change to the geometry's internals edits no test. A private name that
an oracle needs goes in `ALLOWED` with that oracle.
"""
import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "ncsred"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source):
    """Names bound by the module's imports that no expression reads."""
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted((line, name) for name, line in bound.items() if name not in read)


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_guard_sees_an_unused_import():
    source = "import os\nimport sys\nfrom typing import List, Optional\nsys.exit(Optional)\n"
    assert unused_imports(source) == [(1, "os"), (3, "List")]


TESTS = sorted(Path(__file__).resolve().parent.glob("test_*.py"))
#: the geometry modules whose private names no test reads
GEOMETRY = ("reachset", "attack")
#: polygon attributes that hold an `agent_polygon` call's private record
PRIVATE_ATTRS = ("_call", "_row", "_vertices")
#: (test file, private name) -> the oracle that needs it
ALLOWED = {}


def private_reads(source):
    """(line, name) for each private `ncsred.reachset` / `ncsred.attack`
    name that the source imports or reads, and each read of a polygon's
    private record. A patch target given as a string counts too."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.module in {
                f"ncsred.{m}" for m in GEOMETRY}:
            out += [(node.lineno, a.name) for a in node.names if a.name.startswith("_")]
        elif isinstance(node, ast.Attribute):
            owner = node.value.attr if isinstance(node.value, ast.Attribute) else \
                getattr(node.value, "id", None)
            if node.attr in PRIVATE_ATTRS or (
                    owner in GEOMETRY and node.attr.startswith("_")):
                out.append((node.lineno, node.attr))
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            parts = node.value.split(".")
            if (len(parts) == 3 and parts[0] == "ncsred" and parts[1] in GEOMETRY
                    and parts[2].startswith("_")):
                out.append((node.lineno, parts[2]))
    return sorted(out)


@pytest.mark.parametrize("path", TESTS, ids=[p.name for p in TESTS])
def test_tests_read_public_geometry_only(path):
    reads = [(line, name) for line, name in private_reads(path.read_text())
             if (path.name, name) not in ALLOWED]
    assert reads == []


def test_guard_sees_a_private_geometry_read():
    source = ("from ncsred.reachset import _fan, agent_polygon\n"
              "from ncsred import attack, reachset\n"
              "import ncsred.reachset\n"
              "p = agent_polygon(D, 0, g)\n"
              "p._call, p._row, p._vertices, p.vertices, attack.synthesize_fdi\n"
              "attack._candidates(v), ncsred.reachset._extreme_vertices\n"
              "mock.patch('ncsred.reachset._ring_distances')\n"
              "laprec._offdiag_residual, x._ring\n")
    assert private_reads(source) == [
        (1, "_fan"), (5, "_call"), (5, "_row"), (5, "_vertices"),
        (6, "_candidates"), (6, "_extreme_vertices"), (7, "_ring_distances")]
