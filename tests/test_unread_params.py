"""Every parameter of every function in a `src/ncsred` module is read in that
function's body, so no argument is accepted and then ignored.
"""
import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "ncsred"
MODULES = sorted(SRC.glob("*.py"))


def unread_parameters(source):
    """(function, parameter) for each parameter that its function never reads."""
    out = []
    for fn in ast.walk(ast.parse(source)):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        a = fn.args
        params = a.posonlyargs + a.args + a.kwonlyargs + [
            p for p in (a.vararg, a.kwarg) if p is not None]
        body = fn.body if isinstance(fn.body, list) else [fn.body]
        read = {n.id for stmt in body for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        name = getattr(fn, "name", "<lambda>")
        out += [(name, p.arg) for p in params if p.arg not in read]
    return out


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_every_parameter_is_read(path):
    assert unread_parameters(path.read_text()) == []


def test_guard_sees_an_unread_parameter():
    source = ("def f(a, b, *args, c=1, **kw):\n"
              "    return a + b + len(args)\n"
              "g = lambda x, y: x\n")
    assert unread_parameters(source) == [("f", "c"), ("f", "kw"), ("<lambda>", "y")]
