"""Guards over the package source itself, read as syntax trees."""

import ast
from pathlib import Path

import weylzeta

SOURCES = sorted(Path(weylzeta.__file__).parent.glob("*.py"))


def _unread_parameters(path):
    """(line, function, parameter) for every parameter that its function's
    body never reads.  self, cls and _-prefixed slots are exempt: an
    underscore marks a slot kept for a caller's signature."""
    out = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        args = node.args
        params = [a.arg for a in (*args.posonlyargs, *args.args, *args.kwonlyargs, args.vararg, args.kwarg) if a]
        body = node.body if isinstance(node.body, list) else [node.body]
        read = {n.id for stmt in body for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        out += [(node.lineno, getattr(node, "name", "<lambda>"), p) for p in params
                if p not in read and p not in ("self", "cls") and not p.startswith("_")]
    return out


def test_every_parameter_is_read():
    assert {p.name for p in SOURCES} >= {"cli.py", "coxeter.py", "hecke.py", "strips.py", "zeta.py"}
    unread = ["%s:%d %s(%s)" % (path.name, *hit) for path in SOURCES for hit in _unread_parameters(path)]
    assert unread == []
