"""The call census of the package: which of its defs a fixed set of CLI
lines calls, and why each one they never call stays.

`take_census` runs every golden line of test_cli and the lines below
through `cli.main` in this process, under a call-event tracer, after it
clears the package's lru_caches (a cached call runs no frame).  It walks
the package's syntax trees for every def, methods and nested functions
included, by qualified name.  A def that no line calls must be on
ALLOWED with one reason:

- claim: claim code that the tests check and no CLI command runs;
- witness: runs only when a check fails, reached by the tests that
  break a factor on purpose;
- pinned: a name that benchmarks/spans.py LAYERS or
  benchmarks/workloads.py reads, or a helper that only such a name
  calls (PINNED_THROUGH names it);
- dunder: a protocol method Python calls for the objects (repr,
  equality, hashing, len).

Anything else that no line calls is deleted.  Run as a script, this
prints one line: the defs, those reached, and those allowed per reason.
"""

import ast
import contextlib
import io
import json
import sys
import tempfile
from collections import Counter
from pathlib import Path

import weylzeta
from weylzeta import cli

from test_cli import GOLDEN_LINES, GRAPH_DIR, K4_EDGES

PACKAGE = Path(weylzeta.__file__).resolve().parent
BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"

RANK2 = ("A2t", "C2t", "G2t")
# (line, exit status) past the golden lines; {graph} is a K4 edge list,
# {graphs} the golden edge lists and {dir} a scratch directory holding
# dense.json and bad.json
EXTRA_LINES = (
    [("alt --type %s" % t, 0) for t in ("A1t", *RANK2)]
    + [("poincare --type %s --trunc 30" % t, 0) for t in ("A1t", *RANK2)]
    + [("factorize --type %s" % t, 0) for t in RANK2]
    + [("det-identity --type %s --q %s" % (t, q), 0) for t in RANK2 for q in ("formal", "1/2", "torus")]
    + [("torus --type %s" % t, 0) for t in RANK2]
    + [("det-identity --type A2t --rep {dir}/dense.json", 0),
       ("poincare --type B3 --trunc 30", 0),
       ("macdonald-table --type E8", 0),
       ("ihara --graph {graphs}/petersen.txt", 0),
       ("ihara --graph {graph} --q 2 --format json", 0),
       # a representation off its quadratic relation, a torus over the
       # chamber cap and a missing graph file
       ("det-identity --type A2t --rep {dir}/bad.json", 2),
       ("torus --type G2t --scale 100000", 2),
       ("ihara --graph {dir}/none.txt", 2)]
)

REASONS = ("claim", "witness", "pinned", "dunder")

# every def that no line calls, by reason and qualified name
ALLOWED_BY_REASON = {
    # the Hecke algebra, the table export, the twisted factorization, the
    # power lengths and the unreplaced strip, each checked by its tests
    "claim": (
        "coxeter.ElementTable.export_lines", "coxeter.ElementTable.save", "coxeter.load_table",
        "hecke.HeckeElement.__init__", "hecke.HeckeElement._from_packed", "hecke.HeckeElement.terms",
        "hecke.HeckeElement.coeff", "hecke.HeckeElement.__add__", "hecke.HeckeElement.__sub__",
        "hecke.basis_element", "hecke._width", "hecke.hecke_mul", "hecke._int_terms", "hecke._packed",
        "series._packed_rows",
        "hecke.CharacterRepresentation.cyclic_series", "hecke.Representation.cyclic_series",
        "strips.verify_twisted_factorization", "strips.TwistedFactorizationReport.__init__",
        "strips.TwistedFactorizationReport.as_json",
        "strips.check_power_lengths", "strips.PowerLengthReport.__init__", "strips.PowerLengthReport.as_json",
        "strips.unreplaced_strip_generator",
    ),
    "witness": (
        "series.ExponentMap.first_difference", "strips.exponent_witness", "strips._factor_form",
        "strips.factorization_census.witness",
    ),
    "pinned": (
        "hecke.check_word_products", "rootsys.macdonald_series", "rootsys.window_heights",
        "rootsys.alt_via_sincere", "series.RationalFunction.reduced", "series.poincare_parabolic",
        "zeta.geodesic_oracle", "zeta.strip_zeta", "zeta._perm_matrix", "zeta.TorusQuotient.representation",
        "zeta.TorusQuotient.factor_permutations", "zeta.TorusQuotient._enumerate_chambers",
        "zeta.TorusQuotient.generator_permutations", "zeta.TorusQuotient.walk", "zeta.TorusQuotient.image",
        "zeta.TorusQuotient.cyclic_det_hook",
    ),
    "dunder": (
        "coxeter.CoxeterSystem.__eq__", "coxeter.CoxeterSystem.__repr__", "coxeter.GroupElement.__repr__",
        "coxeter.ElementTable.__len__",
        "hecke.HeckeElement.__eq__", "hecke.HeckeElement.__hash__", "hecke.HeckeElement.__repr__",
        "hecke.Character.__eq__", "hecke.Character.__hash__", "hecke.Representation.__repr__",
        "rootsys.RootSystem.__eq__", "rootsys.RootSystem.__hash__", "rootsys.RootSystem.__repr__",
        "series._DensePoly.__hash__", "series._DensePoly.__repr__", "series.Matrix.__hash__",
        "series.Matrix.__repr__", "series.PowerSeries.__repr__", "series.RationalFunction.__repr__",
        "series.ExponentMap.__repr__",
        "strips.StripSpec.__eq__", "strips.StripSpec.__hash__", "strips.FactorizationScheme.__eq__",
        "strips.FactorizationScheme.__hash__",
        "zeta.Graph.__eq__", "zeta.Graph.__hash__",
    ),
}
ALLOWED = {name: reason for reason, names in ALLOWED_BY_REASON.items() for name in names}

# a pinned helper -> the name the benchmark reads that alone calls it
PINNED_THROUGH = {
    "rootsys.window_heights": "rootsys.macdonald_series",
    "zeta._perm_matrix": "zeta.TorusQuotient.image",
    "zeta.TorusQuotient.walk": "zeta.TorusQuotient.image",
    "zeta.TorusQuotient.factor_permutations": "zeta.TorusQuotient.generator_permutations",
    "zeta.TorusQuotient._enumerate_chambers": "zeta.TorusQuotient.generator_permutations",
}


def dense_representation():
    """A2t's index, sign and index characters conjugated by a unimodular
    P: each generator's image is P^-1 diag(q, -1, q) P, its entries as
    q-poly coefficient lists [constant, q]."""
    p = ((2, 1, 0), (1, 1, 1), (0, 1, 1))
    p_inv = ((0, 1, -1), (1, -2, 2), (-1, 2, -1))
    index = (True, False, True)
    image = [[[-sum(p_inv[i][t] * p[t][j] for t in range(3) if not index[t]),
               sum(p_inv[i][t] * p[t][j] for t in range(3) if index[t])] for j in range(3)] for i in range(3)]
    return {"dim": 3, "scalar": "q-poly", "generators": {"s%d" % (i + 1): image for i in range(3)}}


def all_defs():
    """{(file, first line): qualified name} for every def in the package;
    the first line is the first decorator's, as in co_firstlineno."""
    out = {}

    def visit(node, prefix, path):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = prefix + child.name
                if not isinstance(child, ast.ClassDef):
                    out[path, min([child.lineno] + [d.lineno for d in child.decorator_list])] = name
                visit(child, name + ".", path)
            else:
                visit(child, prefix, path)

    for path in sorted(PACKAGE.glob("*.py")):
        visit(ast.parse(path.read_text(), str(path)), path.stem + ".", path)
    return out


def _clear_caches():
    for name, module in list(sys.modules.items()):
        if name == "weylzeta" or name.startswith("weylzeta."):
            for value in vars(module).values():
                if hasattr(value, "cache_clear") and getattr(value, "__module__", None) == name:
                    value.cache_clear()


def take_census():
    """(defs, reached, statuses): every def's qualified name, the names the
    lines call, and (line, exit status, expected status) for each line.
    The tracer that was installed before is installed again at the end."""
    _clear_caches()
    codes = set()

    def tracer(frame, _event, _arg):  # call events only: no local tracer
        codes.add(frame.f_code)

    statuses = []
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "k4.txt").write_text(K4_EDGES)
        (tmp / "dense.json").write_text(json.dumps(dense_representation()))
        (tmp / "bad.json").write_text(json.dumps({"dim": 1, "q": 1, "generators": {"s1": [[2]], "s2": [[-1]],
                                                                                  "s3": [[-1]]}}))
        lines = [(line, 0) for line in GOLDEN_LINES.values()] + EXTRA_LINES
        previous = sys.gettrace()
        sys.settrace(tracer)
        try:
            for line, want in lines:
                argv = [w.format(graph=tmp / "k4.txt", graphs=GRAPH_DIR, dir=tmp) for w in line.split()]
                with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                    statuses.append((line, cli.main(argv), want))
        finally:
            sys.settrace(previous)
    defs = all_defs()
    reached = {defs[key] for key in ((Path(c.co_filename).resolve(), c.co_firstlineno) for c in codes) if key in defs}
    return set(defs.values()), reached, statuses


def benchmark_names():
    """The last part of every attribute path in benchmarks/spans.py LAYERS,
    and every attribute and imported name in benchmarks/workloads.py."""
    spans = ast.parse((BENCHMARKS / "spans.py").read_text())
    layers = next(node.value for node in spans.body if isinstance(node, ast.Assign)
                  and [t.id for t in node.targets if isinstance(t, ast.Name)] == ["LAYERS"])
    names = {attr.rpartition(".")[2] for _module, attr, _metric in ast.literal_eval(layers)}
    for node in ast.walk(ast.parse((BENCHMARKS / "workloads.py").read_text())):
        if isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
    return names


def main():
    defs, reached, _statuses = take_census()
    unreached = defs - reached
    allowed = Counter(ALLOWED[name] for name in unreached if name in ALLOWED)
    unlisted = len(unreached - ALLOWED.keys())
    print("census: %d defs, %d reached, allowed %s%s" % (
        len(defs), len(reached), ", ".join("%s %d" % (r, allowed[r]) for r in REASONS),
        ", %d unlisted" % unlisted if unlisted else ""))


if __name__ == "__main__":
    main()
