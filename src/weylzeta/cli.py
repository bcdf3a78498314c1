"""Command-line front end: compute series, run the identity checks, and
emit tables and reports.

Every numeric output is exact (integers or rationals rendered as n/d);
identical invocations produce byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import coxeter, hecke, rootsys, series, strips, zeta
from .series import ExponentMap, alt_product_rational, poincare_affine, series_to_json


class InputError(ValueError):
    """An input file or option value the command line cannot read."""


# bad input exits 2; any other exception is a bug and exits 3
_INPUT_ERRORS = (
    ValueError,
    coxeter.CoxeterError,
    hecke.HeckeError,
    rootsys.RootSystemError,
    series.SeriesError,
    strips.StripsError,
    zeta.ZetaError,
)


def _read_input(path, option):
    """The text of the file an option names, or an InputError naming both."""
    try:
        with open(path) as fh:
            return fh.read()
    except OSError as exc:
        raise InputError("%s %s: %s" % (option, path, exc.strerror or exc)) from None
    except UnicodeDecodeError as exc:
        raise InputError("%s %s: not text (%s)" % (option, path, exc.reason)) from None


def _system(config):
    if not config.type_tag:
        raise InputError("%s needs --type, e.g. --type A2t" % config.command)
    return coxeter.build_system(config.type_tag)


def _jsonable(x):
    if isinstance(x, Fraction):
        return [x.numerator, x.denominator] if x.denominator != 1 else x.numerator
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    if isinstance(x, dict):
        return {k: _jsonable(v) for k, v in x.items()}
    return x


def _poly_json(p):
    return [_jsonable(c) for c in p.coeffs]


def _emit(config, text_lines, json_obj):
    """Write the output to --out, or to stdout.  Returns False when --out
    cannot be opened; that InputError is then written to stdout."""
    if config.out_format == "json":
        payload = json.dumps(_jsonable(json_obj), sort_keys=True, indent=2) + "\n"
    else:
        payload = "\n".join(text_lines) + "\n"
    if not config.out_path:
        sys.stdout.write(payload)
        return True
    try:
        with open(config.out_path, "w") as fh:
            fh.write(payload)
        return True
    except OSError as exc:
        path, config.out_path = config.out_path, None
        _emit_error(config, InputError("--out %s: %s" % (path, exc.strerror or exc)))
        return False


def _emit_error(config, exc):
    obj = {"error": str(exc), "kind": type(exc).__name__}
    if isinstance(exc, coxeter.ResourceLimitError):
        obj.update(cap=exc.cap, env=exc.env)
    _emit(config, ["error: %s" % exc], obj)


# ---------------------------------------------------------------------------
# subcommands


def cmd_poincare(config):
    system = _system(config)
    if system.is_affine:
        rf, ps = poincare_affine(system, config.trunc)
    else:
        # closed form via the height product; exact even for E8
        rs = rootsys.positive_roots(config.type_tag[0], system.rank)
        rf, _ = rootsys.macdonald_series(rs)
        poly = rf.as_polynomial()
        ps = poly.truncate(min(config.trunc, poly.degree))
    lines = [
        "type: %s" % config.type_tag,
        "rational: %s" % rf,
        "coefficients (to u^%d): %s" % (ps.order, " ".join(str(c) for c in ps.coeffs)),
    ]
    return 0, lines, {"type": config.type_tag, "series": series_to_json(rf, ps)}


def cmd_alt(config):
    system = _system(config)
    inv = alt_product_rational(system).inverse()
    factors = inv.binomial_factors()
    lines = ["type: %s" % config.type_tag, "alt_inverse: %s" % ExponentMap(factors)]
    obj = {
        "type": config.type_tag,
        "alt_inverse": {"num": _poly_json(inv.num), "den": _poly_json(inv.den)},
        "binomial_factors": factors,
    }
    return 0, lines, obj


def cmd_factorize(config):
    system = _system(config)
    scheme = strips.scheme_for(config.type_tag)  # before a finite group is enumerated
    table = coxeter.enumerate_elements(system, max(coxeter.DEFAULT_BOUND, config.trunc))
    report = strips.factorization_census(table, scheme, config.trunc)
    lines = [
        "type: %s  L=%d" % (config.type_tag, config.trunc),
        "slice counts: %s" % " ".join(str(c) for c in report.counts),
        "pass: %s" % report.ok,
    ]
    if report.witness:
        lines.append("witness: %s" % json.dumps(_jsonable(report.witness), sort_keys=True))
    return (0 if report.ok else 1), lines, report.as_json()


def _parse_q(config):
    if config.q_mode == "formal":
        return None  # formal parameter
    try:
        f = Fraction(config.q_mode)
    except (ValueError, ZeroDivisionError):
        raise InputError("--q must be 'formal', 'torus' or a rational like 2 or 1/2, not %r"
                         % (config.q_mode,)) from None
    return f.numerator if f.denominator == 1 else f


def cmd_det_identity(config):
    system = _system(config)
    strips.check_identity_type(system)  # before a finite group is enumerated
    table = coxeter.enumerate_elements(system, coxeter.DEFAULT_BOUND)
    if config.rep_path:
        reps = [(config.rep_path,
                 hecke.representation_from_json(system, _read_input(config.rep_path, "--rep")))]
    elif config.q_mode == "torus":
        reps = [("torus k=%d" % config.scale, zeta.torus_quotient_rep(system, config.scale, table))]
    else:
        qval = _parse_q(config)
        reps = [("character %s" % ch.name(), ch.as_representation(hecke.formal_q() if qval is None else qval))
                for ch in hecke.characters(system)]
    results = [{"representation": name, **strips.verify_determinant_identity(system, rep, table).as_json()}
               for name, rep in reps]
    ok = all(r["pass"] for r in results)
    lines = ["type: %s" % config.type_tag]
    for r in results:
        lines.append("%-24s pass=%s  alt_det=%s" % (r["representation"], r["pass"], r["alt_det"]))
        if "witness" in r:
            lines.append("witness: %s" % json.dumps(_jsonable(r["witness"]), sort_keys=True))
    lines.append("all pass: %s" % ok)
    return (0 if ok else 1), lines, {"type": config.type_tag, "pass": ok, "results": results}


def cmd_macdonald_table(config):
    if config.type_tag and config.type_tag.lower() != "all":
        fam, rank = config.type_tag[0].upper(), config.type_tag[1:]
        if not (rank.isdigit() and rank.isascii()):
            raise InputError("--type must be a finite type like E8, or all, not %r"
                             % (config.type_tag,))
        specs = [(fam, int(rank))]
    else:
        specs = rootsys.DEFAULT_TABLE_SPECS
    rows = rootsys.exponent_rows(specs)
    csv_lines = ["type,rank,h,exponents"]
    for tag, rank, h, ds in rows:
        csv_lines.append("%s,%d,%d,%s" % (tag, rank, h, ",".join(str(d) for d in ds)))
    obj = {
        "rows": [
            {"type": tag, "rank": rank, "h": h, "exponents": list(ds)}
            for tag, rank, h, ds in rows
        ]
    }
    return 0, csv_lines, obj


def cmd_ihara(config):
    if not config.graph_path:
        raise ValueError("ihara needs --graph <edge list file>")
    graph = zeta.Graph.from_edge_list(_read_input(config.graph_path, "--graph"), config.graph_path)
    report = zeta.ihara_zeta(graph, config.trunc)
    obj = report.as_json()
    lines = [
        "vertices: %d  edges: %d" % (graph.num_vertices, graph.num_edges),
        "zeta inverse: %s" % report.inverse_poly,
        "N: %s" % " ".join(str(n) for n in report.closed_counts),
        "primitive classes: %s" % " ".join(str(p) for p in report.primitive_counts),
    ]
    status = 0
    if config.q_mode != "formal":
        q = _parse_q(config)
        if not isinstance(q, int):
            raise ValueError("ihara --q must be an integer, got %r" % (config.q_mode,))
        check = zeta.ihara_formula_check(graph, q)
        obj["formula_check"] = check.as_json()
        lines.append("formula check (q=%d): %s" % (q, check.ok))
        status = 0 if check.ok else 1
    return status, lines, obj


def cmd_torus(config):
    system = _system(config)
    tq = zeta.torus_quotient_rep(system, config.scale)  # checks the rank before it enumerates
    report = zeta.verify_strip_zeta_identity(tq)
    lines = [
        "type: %s  k=%d  chambers=%d" % (config.type_tag, config.scale, tq.chamber_count()),
        "determinant identity: %s" % report.det_identity_ok,
        "strip zeta product match: %s" % report.zeta_match_ok,
        "trace oracle match: %s" % report.trace_match_ok,
        "alt det: %s" % report.alt_det,
        "pass: %s" % report.ok,
    ]
    if report.witness:
        lines.append("witness: %s" % json.dumps(_jsonable(report.witness), sort_keys=True))
    obj = report.as_json()
    obj["chambers"] = tq.chamber_count()
    return (0 if report.ok else 1), lines, obj


_COMMANDS = {
    "poincare": cmd_poincare,
    "alt": cmd_alt,
    "factorize": cmd_factorize,
    "det-identity": cmd_det_identity,
    "macdonald-table": cmd_macdonald_table,
    "ihara": cmd_ihara,
    "torus": cmd_torus,
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="weylzeta",
        description="Exact Poincare series, strip factorizations, and zeta functions",
    )
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("--type", dest="type_tag", help="type tag, e.g. A2t, C2t, G2t, E8, all")
    parser.add_argument("--rank", type=int, default=None)
    parser.add_argument("--trunc", type=int, default=None,
                        help="truncation order (poincare, factorize, ihara; default 24)")
    parser.add_argument("--scale", type=int, default=None,
                        help="torus scale k (torus, det-identity --q torus; default 2)")
    parser.add_argument("--q", dest="q_mode", default=None,
                        help="'formal' (default), a rational like 2 or 1/2, or 'torus' (det-identity, ihara)")
    parser.add_argument("--rep", dest="rep_path", help="representation JSON file (det-identity)")
    parser.add_argument("--graph", dest="graph_path", help="edge list file (ihara)")
    parser.add_argument("--format", dest="out_format", default="text",
                        choices=("text", "json", "csv"))
    parser.add_argument("--out", dest="out_path", default=None)
    return parser


def _read_options(config):
    """Fill in the options the command reads and join --rank to --type; any other given raises an InputError."""
    command = config.command
    own_reps = command == "det-identity" and not config.rep_path  # its characters or the torus
    options = (  # option, attribute, default, whether the command reads it
        ("type", "type_tag", None, command != "ihara"),
        ("rank", "rank", None, command != "ihara" and (command != "macdonald-table"
                                                       or (config.type_tag or "all").lower() != "all")),
        ("trunc", "trunc", 24, command in ("poincare", "factorize", "ihara")),
        ("scale", "scale", 2, command == "torus" or (own_reps and config.q_mode == "torus")),
        ("q", "q_mode", "formal", command == "ihara" or own_reps),
        ("rep", "rep_path", None, command == "det-identity"),
        ("graph", "graph_path", None, command == "ihara"),
        ("format csv", "out_format", "text", command == "macdonald-table" or config.out_format != "csv"),
    )
    hints = {"det-identity scale": " (only with --q torus and no --rep)", "det-identity q": " (not with --rep)",
             "macdonald-table rank": " (only with a --type other than all)"}
    for option, attribute, default, reads in options:
        value = getattr(config, attribute)
        if reads:
            setattr(config, attribute, default if value is None else value)
        elif value is not None:
            raise InputError("%s does not read --%s%s" % (command, option, hints.get(command + " " + option, "")))
    if config.rank is not None and config.type_tag:  # A + 2 + t is A2t
        config.type_tag = "%s%d%s" % (config.type_tag.rstrip("0123456789t"), config.rank,
                                      "t" if config.type_tag.endswith("t") else "")


def main(argv=None):
    config = build_parser().parse_args(argv)
    try:
        _read_options(config)
        if config.trunc is not None and config.trunc < 0:
            raise ValueError("truncation order must be nonnegative")
        if config.scale is not None and config.scale < 2:
            raise ValueError("scale must be at least 2")
        status, lines, obj = _COMMANDS[config.command](config)
    except Exception as exc:  # structured failure for scripting
        _emit_error(config, exc)
        if isinstance(exc, _INPUT_ERRORS):
            return 2
        import traceback  # only a bug pays for the import

        traceback.print_exc()
        return 3
    return status if _emit(config, lines, obj) else 2


if __name__ == "__main__":
    sys.exit(main())
