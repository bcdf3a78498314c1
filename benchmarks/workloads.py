"""Fixed task lists of the weylzeta benchmark.

A workload is a set-up function, which builds the shared inputs (element
tables, the graph file, the seeded inputs), and an ordered list of tasks.
Every task returns ``(ok, text)``: ``ok`` is the task's own exact check
(an identity report, a property) and ``text`` is its canonical output,
whose sha256 the runner compares against ``digests.json``.  Seeded tasks
print a summary that does not depend on the seed, so one digest covers
every seed.  Task sizes never depend on the seed.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

# The edge list read by the `ihara` README line; set-up writes it.
K4_EDGES = "0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n"

CLI_LINES = (
    "alt --type A2t",
    "poincare --type G2t --trunc 12",
    "factorize --type C2t --trunc 20",
    "det-identity --type G2t",
    "det-identity --type A2t --q torus --scale 3",
    "macdonald-table --type all --format csv",
    "ihara --graph {graph} --q 2",
    "torus --type C2t --scale 2",
)

AFFINE_TAGS = ("A2t", "C2t", "G2t")


@dataclass(frozen=True)
class Task:
    name: str
    run: Callable  # run(ctx) -> (ok, text)
    # CLI tasks only: the same line through weylzeta.cli.main in this process
    run_inprocess: Callable = None


def _json_text(obj):
    return json.dumps(obj, sort_keys=True)


def _coeffs(poly):
    return [str(c) for c in poly.coeffs]


# Rational functions are compared by their expansion to this order: unlike
# num/den coefficients it does not depend on the route that built them, and
# unlike str() it never runs the rational gcd.
EXPANSION_ORDER = 24


def _rf_text(rf):
    return _coeffs(rf.expand(EXPANSION_ORDER))


def _det_report_text(report):
    return {
        "pass": bool(report.ok),
        "dual_check": [report.dual_check_order, bool(report.dual_check_ok)],
        "strip_dets": [_coeffs(p) for p in report.strip_dets],
        "alt_det": _rf_text(report.alt_det),
    }


def _tables(bound):
    from weylzeta import coxeter

    return {tag: coxeter.enumerate_elements(coxeter.build_system(tag), bound) for tag in AFFINE_TAGS}


# ---------------------------------------------------------------------------
# cli-readme: the README CLI lines, each a fresh `python -m weylzeta.cli`


def _cli_argv(line, ctx):
    return tuple(word.format(graph=ctx["graph"]) for word in line.split())


def run_cli_subprocess(argv, env):
    """One README line as a fresh interpreter; returns (exit status, stdout)."""
    proc = subprocess.run(
        [sys.executable, "-m", "weylzeta.cli", *argv],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env, check=False,
    )
    return proc.returncode, proc.stdout


def cli_text(status, stdout):
    """Canonical output of a CLI line: its exit status, then its stdout bytes."""
    return "exit=%d\n" % status + stdout.decode()


def run_cli_inprocess(argv):
    """One README line through cli.main in this process, stdout captured."""
    import contextlib
    import io

    from weylzeta import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        status = cli.main(list(argv))
    return status, buf.getvalue().encode()


def _cli_task(line):
    def run(ctx):
        status, out = run_cli_subprocess(_cli_argv(line, ctx), ctx["env"])
        return status == 0, cli_text(status, out)

    def run_inprocess(ctx):
        status, out = run_cli_inprocess(_cli_argv(line, ctx))
        return status == 0, cli_text(status, out)

    return Task("cli:" + line.format(graph="k4.txt"), run, run_inprocess)


def setup_cli_readme(seed, out_dir, src_dir):
    import weylzeta  # noqa: F401  (set-up covers the package import)

    graph = os.path.join(out_dir, "k4.txt")
    with open(graph, "w") as fh:
        fh.write(K4_EDGES)
    env = dict(os.environ, PYTHONPATH=src_dir)
    return {"graph": graph, "env": env}


# ---------------------------------------------------------------------------
# torus-identity: the determinant routes of the torus representation


def _strip_zeta_task(tag):
    def run(ctx):
        from weylzeta import zeta

        tq = zeta.torus_quotient_rep(ctx["systems"][tag], 2, ctx["tables"][tag])
        r = zeta.verify_strip_zeta_identity(tq, trace_order=6)
        flags = [r.det_identity_ok, r.zeta_match_ok, r.trace_match_ok]
        text = {"flags": flags, "alt_det": _rf_text(r.alt_det),
                "strip_zetas": [_rf_text(z.zeta) for z in r.strip_zetas]}
        return r.ok, _json_text(text)

    return Task("strip_zeta_identity:%s:k2" % tag, run)


def _torus_det_identity_task(tag, k):
    def run(ctx):
        from weylzeta import strips, zeta

        system, table = ctx["systems"][tag], ctx["tables"][tag]
        tq = zeta.torus_quotient_rep(system, k, table)
        report = strips.verify_determinant_identity(system, tq.representation, table)
        return report.ok and report.dual_check_ok, _json_text(_det_report_text(report))

    return Task("det_identity:%s:torus:k%d" % (tag, k), run)


def setup_tables24(seed, out_dir, src_dir):
    from weylzeta import coxeter

    return {
        "systems": {tag: coxeter.build_system(tag) for tag in AFFINE_TAGS},
        "tables": _tables(coxeter.DEFAULT_BOUND),
    }


# ---------------------------------------------------------------------------
# torus-scale: building large tori and the permutation-side strip routes


def _torus_build_task(tag, k):
    def run(ctx):
        from weylzeta import strips, zeta

        tq = zeta.torus_quotient_rep(ctx["systems"][tag], k, ctx["tables"][tag])
        rep = tq.representation
        lines = ["chambers=%d" % tq.chamber_count()]
        for spec in strips.strip_generators(tag):
            el = tq.table.element_of_word(spec.word)
            det = rep.cyclic_det_hook(tq.table, el)
            counts = zeta.closed_strip_counts(tq, spec, 6)
            lines.append("strip %d: det=%s counts=%s" % (spec.index, det, counts))
        perms = repr(tq.generator_permutations).encode()
        lines.append("perms sha256=%s" % hashlib.sha256(perms).hexdigest())
        return True, "\n".join(lines)

    return Task("torus_build:%s:k%d" % (tag, k), run)


def _operator_counts_task(tag):
    def run(ctx):
        from weylzeta import strips, zeta

        tq = zeta.torus_quotient_rep(ctx["systems"][tag], 6, ctx["tables"][tag])
        lines, ok = [], True
        for spec in strips.strip_generators(tag):
            op = zeta.operator_strip_counts(tq, spec, 6)
            ok = ok and op == zeta.closed_strip_counts(tq, spec, 6)
            lines.append("strip %d: %s" % (spec.index, op))
        return ok, "\n".join(lines)

    return Task("operator_strip_counts:%s:k6" % tag, run)


# ---------------------------------------------------------------------------
# group-algebra: coxeter, hecke, strips and series, no torus


def _enumerate_task():
    def run(ctx):
        from weylzeta import coxeter

        lines = []
        for tag, bound in (("A2t", 60), ("C2t", 60), ("G2t", 60), ("F4", 24), ("E6", 12)):
            table = coxeter.enumerate_elements(coxeter.build_system(tag), bound)
            lines.append("%s bound %d: %d elements, layers %s" % (tag, bound, len(table), table.layer_sizes()))
        return True, "\n".join(lines)

    return Task("enumerate_elements", run)


def _hecke_assoc_task():
    def run(ctx):
        from weylzeta import hecke

        t = ctx["tables"]["A2t"]
        bad = 0
        for ka, kb, kc in ctx["hecke_triples"]:
            a, b, c = (hecke.basis_element(t, t.element(key)) for key in (ka, kb, kc))
            left = hecke.hecke_mul(t, hecke.hecke_mul(t, a, b), c)
            right = hecke.hecke_mul(t, a, hecke.hecke_mul(t, b, c))
            bad += left != right
        return bad == 0, "associative on %d triples" % len(ctx["hecke_triples"])

    return Task("hecke_associativity", run)


def _character_det_identity_task(tag):
    def run(ctx):
        from weylzeta import hecke, strips

        system, table = ctx["systems"][tag], ctx["tables"][tag]
        ok, out = True, []
        for q in (None, 2, Fraction(1, 2)):
            for ch in hecke.characters(system):
                report = strips.verify_determinant_identity(system, ch.as_representation(q), table)
                ok = ok and report.ok and report.dual_check_ok
                out.append(["%s q=%s" % (ch.name(), q), _det_report_text(report)])
        return ok, _json_text(out)

    return Task("det_identity:%s:characters" % tag, run)


# the 2-dimensional q=2 representation of A2t ingested through JSON
REP_2DIM = {
    "dim": 2,
    "scalar": "rational",
    "q": 2,
    "generators": {"s%d" % (i + 1): [[2, 0], [0, -1]] for i in range(3)},
}


def _json_rep_task():
    def run(ctx):
        from weylzeta import hecke, strips

        system, table = ctx["systems"]["A2t"], ctx["tables"]["A2t"]
        rep = hecke.representation_from_json(system, json.dumps(REP_2DIM))
        report = strips.verify_determinant_identity(system, rep, table)
        return report.ok and report.dual_check_ok, _json_text(_det_report_text(report))

    return Task("det_identity:A2t:json_2dim", run)


def _census_task(tag):
    def run(ctx):
        from weylzeta import strips

        report = strips.factorization_census(ctx["tables40"][tag], strips.scheme_for(tag), 40)
        return report.ok, _json_text(report.as_json())

    return Task("factorization_census:%s:L40" % tag, run)


def _twisted_factorization_task(tag):
    def run(ctx):
        from weylzeta import hecke, strips

        system, table = ctx["systems"][tag], ctx["tables"][tag]
        ok, out = True, []
        for ch in hecke.characters(system):
            report = strips.verify_twisted_factorization(
                table, strips.scheme_for(tag), ch.as_representation(), 12)
            ok = ok and report.ok
            out.append([ch.name(), report.as_json()])
        return ok, _json_text(out)

    return Task("twisted_factorization:%s:order12" % tag, run)


MACDONALD_FINITE = (("A", 1), ("A", 2), ("A", 3), ("A", 4), ("B", 2), ("B", 3), ("B", 4),
                    ("C", 2), ("C", 3), ("C", 4), ("D", 4), ("F", 4), ("G", 2))


def _macdonald_task():
    def run(ctx):
        from weylzeta import coxeter, rootsys
        from weylzeta.series import RationalFunction, poincare_parabolic

        ok, lines = True, []
        for fam, rank in MACDONALD_FINITE:
            rs = rootsys.positive_roots(fam, rank)
            fin, _ = rootsys.macdonald_series(rs)
            table = coxeter.enumerate_elements(
                coxeter.build_system("%s%d" % (fam, rank)), len(rs.positive_roots) + 1)
            ok = ok and fin == RationalFunction(poincare_parabolic(table, range(rank)))
            lines.append("%s%d: %s" % (fam, rank, fin))
        return ok, "\n".join(lines)

    return Task("macdonald_vs_bfs", run)


def _det_series_task():
    def run(ctx):
        from weylzeta.series import det_series

        bad = 0
        for a, b in ctx["series_pairs"]:
            bad += not (det_series(a * b) == det_series(a) * det_series(b))
        return bad == 0, "multiplicative on %d pairs" % len(ctx["series_pairs"])

    return Task("det_series_multiplicativity", run)


HECKE_TRIPLES = 2000
SERIES_PAIRS = 10
SERIES_ORDER = 12


def setup_group_algebra(seed, out_dir, src_dir):
    from weylzeta.series import Matrix, PowerSeries

    ctx = setup_tables24(seed, out_dir, src_dir)
    ctx["tables40"] = _tables(40)
    rng = random.Random(seed)
    a2 = ctx["tables"]["A2t"]
    keys = [el.key for layer in a2.layers[:5] for el in layer]
    ctx["hecke_triples"] = [tuple(rng.choice(keys) for _ in range(3)) for _ in range(HECKE_TRIPLES)]

    def rand_series():
        coeffs = [Matrix.identity(3)]
        for _ in range(SERIES_ORDER):
            coeffs.append(Matrix([[rng.randint(-2, 2) for _ in range(3)] for _ in range(3)]))
        return PowerSeries(coeffs, SERIES_ORDER)

    ctx["series_pairs"] = [(rand_series(), rand_series()) for _ in range(SERIES_PAIRS)]
    return ctx


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    name: str
    setup: Callable  # setup(seed, out_dir, src_dir) -> ctx
    tasks: tuple


WORKLOADS = {
    w.name: w
    for w in (
        Workload("cli-readme", setup_cli_readme, tuple(_cli_task(line) for line in CLI_LINES)),
        Workload(
            "torus-identity",
            setup_tables24,
            (_strip_zeta_task("A2t"), _strip_zeta_task("C2t"), _torus_det_identity_task("A2t", 3)),
        ),
        Workload(
            "torus-scale",
            setup_tables24,
            tuple(_torus_build_task(tag, k) for tag in AFFINE_TAGS for k in (8, 12))
            + tuple(_operator_counts_task(tag) for tag in AFFINE_TAGS),
        ),
        Workload(
            "group-algebra",
            setup_group_algebra,
            (_enumerate_task(), _hecke_assoc_task())
            + tuple(_character_det_identity_task(tag) for tag in AFFINE_TAGS)
            + (_json_rep_task(),)
            + tuple(_census_task(tag) for tag in AFFINE_TAGS)
            + tuple(_twisted_factorization_task(tag) for tag in AFFINE_TAGS)
            + (_macdonald_task(), _det_series_task()),
        ),
    )
}
