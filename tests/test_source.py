"""Guards over the package source itself, read as syntax trees."""

import ast
import sys
from pathlib import Path

import weylzeta
from weylzeta import strips

import census

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


_INEXACT_MATH = {"sqrt", "log", "exp", "pow"}


def _inexact_nodes(path):
    """(line, what) for every float or complex literal, float(...) call
    and math.sqrt/log/exp/pow use, however math or its names were
    imported."""
    tree = ast.parse(path.read_text(), str(path))
    math_names, calls = {"math"}, {"float"}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            math_names |= {a.asname for a in node.names if a.name == "math" and a.asname}
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            calls |= {a.asname or a.name for a in node.names if a.name in _INEXACT_MATH}
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and type(node.value) in (float, complex):
            out.append((node.lineno, "literal %r" % node.value))
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id in calls:
            out.append((node.lineno, "%s(...)" % node.func.id))
        elif (isinstance(node, ast.Attribute) and node.attr in _INEXACT_MATH
              and isinstance(node.value, ast.Name) and node.value.id in math_names):
            out.append((node.lineno, "%s.%s" % (node.value.id, node.attr)))
    return out


def test_no_floating_point_in_the_package():
    # every value stays an int, a Fraction or an exact polynomial
    inexact = ["%s:%d %s" % (path.name, *hit) for path in SOURCES for hit in _inexact_nodes(path)]
    assert inexact == []


def test_the_float_guard_sees_each_form(tmp_path):
    src = tmp_path / "inexact.py"
    src.write_text("import math as m\nfrom math import sqrt as root\n"
                   "a = 0.5\nb = float(3)\nc = m.log(2)\nd = root(4)\ne = math.exp(1)\nf = 2j\n"
                   "g = isinstance(a, float) and math.gcd(4, 6)\n")
    assert sorted(line for line, _what in _inexact_nodes(src)) == [3, 4, 5, 6, 7, 8]


def _foreign_imports(path):
    """(line, module) for every import of a module outside the standard
    library and weylzeta; a relative import is the package's own."""
    out = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names = [node.module]
        else:
            continue
        out += [(node.lineno, name) for name in names
                if name.partition(".")[0] not in sys.stdlib_module_names | {"weylzeta"}]
    return out


def test_the_package_imports_the_standard_library_alone():
    # pyproject's dependencies = [] stays true
    foreign = ["%s:%d %s" % (path.name, *hit) for path in SOURCES for hit in _foreign_imports(path)]
    assert foreign == []


def test_the_dependency_guard_sees_each_form(tmp_path):
    src = tmp_path / "foreign.py"
    src.write_text("import numpy\nfrom numpy.linalg import det\nimport math, sympy.core as sc\n"
                   "from . import series\nfrom weylzeta.zeta import Graph\nfrom fractions import Fraction\n"
                   "def f():\n    import scipy\n")
    assert _foreign_imports(src) == [(1, "numpy"), (2, "numpy.linalg"), (3, "sympy.core"), (8, "scipy")]


_INT_LAYOUT = {"signed_digits", "_kronecker"}


def _int_layout_uses(path):
    """(line, what) for every use of math.lcm, series.signed_digits or the
    Kronecker helper series._kronecker: an import, a name or an attribute,
    however math was imported."""
    tree = ast.parse(path.read_text(), str(path))
    math_names = {"math"} | {a.asname for node in ast.walk(tree) if isinstance(node, ast.Import)
                             for a in node.names if a.name == "math" and a.asname}
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            out += [(node.lineno, "import %s" % a.name) for a in node.names
                    if a.name in _INT_LAYOUT or (node.module == "math" and a.name == "lcm")]
        elif isinstance(node, ast.Attribute) and (node.attr in _INT_LAYOUT or (
                node.attr == "lcm" and isinstance(node.value, ast.Name) and node.value.id in math_names)):
            out.append((node.lineno, ast.unparse(node)))
        elif isinstance(node, ast.Name) and node.id in _INT_LAYOUT:
            out.append((node.lineno, node.id))
    return out


def test_the_int_layout_lives_in_series():
    # series alone turns exact scalars into ints and back (common
    # denominators, Kronecker packing, signed digits); other modules go
    # through its int rows
    uses = ["%s:%d %s" % (path.name, *hit) for path in SOURCES if path.name != "series.py"
            for hit in _int_layout_uses(path)]
    assert uses == []


def test_the_int_layout_guard_sees_each_form(tmp_path):
    src = tmp_path / "layout.py"
    src.write_text("import math as m\nfrom math import lcm\nfrom .series import signed_digits as digits\n"
                   "a = m.lcm(2, 3)\nb = series._kronecker([1], 8)\nc = math.gcd(4, 6)\nd = signed_digits(5, 8)\n"
                   "e = _int_rows([1])\n")
    assert sorted(line for line, _what in _int_layout_uses(src)) == [2, 3, 4, 5, 7]


def test_every_function_is_reached_or_has_a_reason():
    # the census traces the golden and extra CLI lines in-process; a def
    # that none of them calls is on the allow-list with its reason, or is
    # deleted.  Primed lru_caches must not hide a call (the census clears
    # them), and the tracer installed before is back at the end.
    for tag in census.RANK2:
        strips.strip_generators(tag)
    previous = sys.gettrace()

    def outer(_frame, _event, _arg):
        return None

    sys.settrace(outer)
    try:
        defs, reached, statuses = census.take_census()
        assert sys.gettrace() is outer
    finally:
        sys.settrace(previous)
    assert [(line, status) for line, status, want in statuses if status != want] == []
    assert "strips.strip_generators" in reached
    assert sorted(defs - reached - census.ALLOWED.keys()) == [], "unreached with no reason: delete, or list with one"
    assert sorted(census.ALLOWED.keys() & reached) == [], "listed, yet a CLI line reaches it"
    assert sorted(census.ALLOWED.keys() - defs) == [], "listed, yet no longer defined"
    assert sum(map(len, census.ALLOWED_BY_REASON.values())) == len(census.ALLOWED)
    assert set(census.ALLOWED_BY_REASON) == set(census.REASONS)
    pinned = {name for name, reason in census.ALLOWED.items() if reason == "pinned"}
    assert census.PINNED_THROUGH.keys() <= pinned
    read = census.benchmark_names()
    assert sorted(name for name in pinned if census.PINNED_THROUGH.get(name, name).rpartition(".")[2] not in read) == []


# `wc -l src/weylzeta/*.py`, which CI writes to each run's summary.  A
# change that shrinks src/ lowers the budget, which may stay at most
# SOURCE_LINE_SLACK lines above the count; one that must raise it says by
# how much and why.
SOURCE_LINE_BUDGET = 4070
SOURCE_LINE_SLACK = 20


def test_the_source_stays_within_its_line_budget():
    lines = sum(path.read_bytes().count(b"\n") for path in SOURCES)
    assert lines <= SOURCE_LINE_BUDGET, "src/ has %d lines, over its budget of %d" % (lines, SOURCE_LINE_BUDGET)
    assert SOURCE_LINE_BUDGET - lines <= SOURCE_LINE_SLACK, (
        "src/ has %d lines, more than %d under its budget of %d: lower the budget"
        % (lines, SOURCE_LINE_SLACK, SOURCE_LINE_BUDGET))
