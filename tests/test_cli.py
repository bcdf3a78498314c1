import contextlib
import io
import json
import os
import shutil
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weylzeta import cli, coxeter, hecke, rootsys, series, strips, zeta


SCHEMA_DIR = os.path.join(os.path.dirname(cli.__file__), "schemas")


def check_schema(obj, schema, top=None):
    """Validator for the subset of JSON Schema the shipped files use."""
    top = top if top is not None else schema
    schema = _resolve(schema, top)
    kinds = schema.get("type")
    if kinds is not None:
        kinds = kinds if isinstance(kinds, list) else [kinds]
        ok = any(
            (k == "object" and isinstance(obj, dict))
            or (k == "array" and isinstance(obj, list))
            or (k == "string" and isinstance(obj, str))
            or (k == "integer" and isinstance(obj, int) and not isinstance(obj, bool))
            or (k == "boolean" and isinstance(obj, bool))
            or (k == "null" and obj is None)
            for k in kinds
        )
        assert ok, "expected %s, got %r" % (kinds, obj)
    if "oneOf" in schema:
        hits = 0
        for sub in schema["oneOf"]:
            try:
                check_schema(obj, sub, top)
                hits += 1
            except AssertionError:
                pass
        assert hits == 1, "oneOf matched %d branches for %r" % (hits, obj)
    if isinstance(obj, dict):
        for req in schema.get("required", ()):
            assert req in obj, "missing %r" % req
        for key, sub in schema.get("properties", {}).items():
            if key in obj:
                check_schema(obj[key], sub, top)
    if isinstance(obj, list):
        items = schema.get("items")
        if items:
            for v in obj:
                check_schema(v, items, top)
        if "minItems" in schema:
            assert len(obj) >= schema["minItems"]
        if "maxItems" in schema:
            assert len(obj) <= schema["maxItems"]
    if isinstance(obj, int) and not isinstance(obj, bool) and "minimum" in schema:
        assert obj >= schema["minimum"]


def _resolve(schema, top):
    if "$ref" in schema:
        node = top
        for part in schema["$ref"].lstrip("#/").split("/"):
            node = node[part]
        return node
    return schema


def load_schema(name):
    with open(os.path.join(SCHEMA_DIR, name)) as fh:
        return json.load(fh)


def run_cli(args, capsys):
    status = cli.main(args)
    out = capsys.readouterr().out
    return status, out


def test_alt_text_output(capsys):
    status, out = run_cli(["alt", "--type", "A2t"], capsys)
    assert status == 0
    assert "(1-u^3)^2" in out


def test_alt_json_schema(capsys):
    status, out = run_cli(["alt", "--type", "G2t", "--format", "json"], capsys)
    assert status == 0
    obj = json.loads(out)
    schema = load_schema("alt.json")
    check_schema(obj, schema)
    assert obj["binomial_factors"] == [[3, 1], [5, 1]]


def test_poincare_json_schema(capsys):
    status, out = run_cli(["poincare", "--type", "A2t", "--trunc", "6", "--format", "json"], capsys)
    assert status == 0
    obj = json.loads(out)
    check_schema(obj, load_schema("series.json"))
    assert obj["series"]["coeffs"] == [1, 3, 6, 9, 12, 15, 18]


def test_poincare_below_the_longest_parabolic_element(capsys):
    # the parabolics come from a default-bound table, so a truncation below
    # the length 6 of G2's longest element no longer leaves <s1, s2> open
    status, out = run_cli(["poincare", "--type", "G2t", "--trunc", "3"], capsys)
    assert status == 0
    assert out.splitlines()[-1] == "coefficients (to u^3): 1 3 5 7"


def test_poincare_finite_type(capsys):
    status, out = run_cli(["poincare", "--type", "G2", "--format", "json"], capsys)
    assert status == 0
    obj = json.loads(out)
    assert obj["series"]["coeffs"] == [1, 2, 2, 2, 2, 2, 1]


def test_macdonald_table_row(capsys):
    status, out = run_cli(["macdonald-table", "--type", "E8", "--format", "csv"], capsys)
    assert status == 0
    assert out.splitlines()[1] == "E8,8,30,9,11,13,14,17,19,23,29"


def test_macdonald_table_all_schema(capsys):
    status, out = run_cli(["macdonald-table", "--type", "all", "--format", "json"], capsys)
    assert status == 0
    check_schema(json.loads(out), load_schema("table.json"))


def test_factorize_schema_and_exit(capsys):
    status, out = run_cli(["factorize", "--type", "A2t", "--trunc", "10", "--format", "json"], capsys)
    assert status == 0
    obj = json.loads(out)
    check_schema(obj, load_schema("census.json"))
    assert obj["pass"] is True


def test_det_identity_characters(capsys):
    status, out = run_cli(["det-identity", "--type", "C2t", "--format", "json"], capsys)
    assert status == 0
    obj = json.loads(out)
    check_schema(obj, load_schema("det_identity.json"))
    assert obj["pass"] is True and len(obj["results"]) == 8


def test_ihara_with_formula_check(tmp_path, capsys):
    path = tmp_path / "k4.txt"
    path.write_text("0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n")
    status, out = run_cli(
        ["ihara", "--graph", str(path), "--q", "2", "--trunc", "8", "--format", "json"], capsys)
    assert status == 0
    obj = json.loads(out)
    check_schema(obj, load_schema("zeta_report.json"))
    assert obj["formula_check"]["pass"] is True


def test_ihara_trunc_zero_is_order_zero(tmp_path, capsys):
    # --trunc 0 asks for no counts; it used to be read as order 16
    path = tmp_path / "k4.txt"
    path.write_text(K4_EDGES)
    status, out = run_cli(["ihara", "--graph", str(path), "--trunc", "0", "--format", "json"], capsys)
    assert status == 0
    obj = json.loads(out)
    check_schema(obj, load_schema("zeta_report.json"))
    assert (obj["order"], obj["N"], obj["primitive_counts"]) == (0, [], [])


def test_ihara_rejects_rational_q(tmp_path, capsys):
    path = tmp_path / "k4.txt"
    path.write_text(K4_EDGES)
    status, out = run_cli(["ihara", "--graph", str(path), "--q", "5/2", "--format", "json"], capsys)
    assert status == 2
    error = json.loads(out)["error"]
    assert "--q" in error and "5/2" in error


@pytest.mark.parametrize("argv,word", [
    (["torus", "--type", "A2t", "--scale", "1", "--format", "json"], "scale"),
    (["poincare", "--type", "A2t", "--trunc", "-1", "--format", "json"], "truncation"),
], ids=["scale", "trunc"])
def test_bad_option_values_report_structured_error(argv, word, capsys):
    status, out = run_cli(argv, capsys)
    assert status == 2
    error = json.loads(out)
    assert word in error["error"]
    assert error["kind"] == "ValueError"
    # text mode prints the message alone
    status, out = run_cli(argv[:-2], capsys)
    assert status == 2
    assert out == "error: %s\n" % error["error"]


@pytest.mark.parametrize("argv,option", [
    (["torus", "--type", "A2t", "--trunc", "5"], "--trunc"),
    (["det-identity", "--type", "A2t", "--q", "torus", "--trunc", "5"], "--trunc"),
    (["alt", "--type", "A2t", "--trunc", "5"], "--trunc"),
    (["macdonald-table", "--type", "E8", "--trunc", "5"], "--trunc"),
    (["alt", "--type", "A2t", "--scale", "3"], "--scale"),
    (["poincare", "--type", "A2t", "--scale", "3"], "--scale"),
    (["factorize", "--type", "A2t", "--scale", "3"], "--scale"),
    (["det-identity", "--type", "A2t", "--scale", "3"], "--scale"),
    (["det-identity", "--type", "A2t", "--q", "2", "--scale", "3"], "--scale"),
    (["torus", "--type", "A2t", "--q", "2"], "--q"),
    (["alt", "--type", "A2t", "--q", "formal"], "--q"),
    (["poincare", "--type", "A2t", "--q", "2"], "--q"),
    (["det-identity", "--type", "A2t", "--rep", "r.json", "--q", "torus"], "--q"),
    (["torus", "--type", "A2t", "--rep", "r.json"], "--rep"),
    (["ihara", "--graph", "g.txt", "--rep", "r.json"], "--rep"),
    (["alt", "--type", "A2t", "--graph", "nothere.txt"], "--graph"),
    (["det-identity", "--type", "A2t", "--graph", "nothere.txt"], "--graph"),
    (["ihara", "--graph", "g.txt", "--type", "A2t"], "--type"),
    (["ihara", "--graph", "g.txt", "--rank", "3"], "--rank"),
    (["macdonald-table", "--rank", "3"], "--rank"),
    (["macdonald-table", "--type", "all", "--rank", "3"], "--rank"),
    (["torus", "--type", "A2t", "--format", "csv"], "--format csv"),
    (["poincare", "--type", "A2t", "--format", "csv"], "--format csv"),
    (["det-identity", "--type", "A2t", "--format", "csv"], "--format csv"),
    (["ihara", "--graph", "g.txt", "--format", "csv"], "--format csv"),
], ids=["torus-trunc", "det-identity-trunc", "alt-trunc", "macdonald-trunc", "alt-scale",
        "poincare-scale", "factorize-scale", "det-identity-scale", "det-identity-q2-scale",
        "torus-q", "alt-q-formal", "poincare-q", "det-identity-rep-q", "torus-rep", "ihara-rep",
        "alt-graph", "det-identity-graph", "ihara-type", "ihara-rank", "macdonald-rank",
        "macdonald-all-rank", "torus-csv", "poincare-csv", "det-identity-csv", "ihara-csv"])
def test_an_option_the_command_does_not_read_is_refused(argv, option, capsys):
    if "csv" in argv:  # a --format json after it would replace --format csv: text only
        status, out = run_cli(argv, capsys)
        assert status == 2 and out.startswith("error: %s does not read %s" % (argv[0], option))
        return
    status, out = run_cli(argv + ["--format", "json"], capsys)
    assert status == 2
    error = json.loads(out)
    assert error["kind"] == "InputError"
    assert error["error"].startswith("%s does not read %s" % (argv[0], option))
    status, out = run_cli(argv, capsys)
    assert (status, out) == (2, "error: %s\n" % error["error"])


def test_rank_joins_the_type(capsys):
    # --rank is read with a named --type: A + 2 + t is A2t, E + 8 is E8
    for joined, named in ((["alt", "--type", "At", "--rank", "2"], ["alt", "--type", "A2t"]),
                          (["macdonald-table", "--type", "E", "--rank", "8"], ["macdonald-table", "--type", "E8"])):
        status, out = run_cli(joined, capsys)
        assert status == 0 and (status, out) == run_cli(named, capsys)


def test_torus_over_chamber_cap_reports_resource_limit(capsys, monkeypatch):
    # A2t at bound 24 has 901 elements; scale 13 needs 6 * 13^2 = 1014 chambers
    monkeypatch.setenv("WEYLZETA_MAX_ELEMENTS", "1000")
    status, out = run_cli(["torus", "--type", "A2t", "--scale", "13", "--format", "json"], capsys)
    assert status == 2
    error = json.loads(out)
    assert error["kind"] == "ResourceLimitError"
    assert "1014 chambers" in error["error"] and "WEYLZETA_MAX_ELEMENTS" in error["error"]
    assert (error["cap"], error["env"]) == (1000, "WEYLZETA_MAX_ELEMENTS")
    status, out = run_cli(["torus", "--type", "A2t", "--scale", "13"], capsys)
    assert status == 2
    assert out == "error: %s\n" % error["error"]


@pytest.mark.parametrize("argv,chambers", [
    (["torus", "--type", "G2t", "--scale", "876706529"], 12 * 876706529 ** 2),
    (["torus", "--type", "A2t", "--scale", "10000000000"], 6 * 10 ** 20),
    (["det-identity", "--type", "C2t", "--q", "torus", "--scale", "10000000000"], 8 * 10 ** 20),
], ids=["torus-G2t", "torus-A2t", "det-identity-C2t"])
def test_a_chamber_count_past_sys_maxsize_is_a_typed_resource_limit(argv, chambers, capsys, monkeypatch):
    # |W0| k^2 past sys.maxsize is refused by the cap, as a smaller count
    # is, and never as an untyped OverflowError (exit 3)
    assert chambers > sys.maxsize
    monkeypatch.delenv("WEYLZETA_MAX_ELEMENTS", raising=False)
    status, out = run_cli(argv + ["--format", "json"], capsys)
    assert status == 2
    error = json.loads(out)
    assert error["kind"] == "ResourceLimitError"
    assert "torus quotient with %d chambers" % chambers in error["error"]
    assert (error["cap"], error["env"]) == (2000000, "WEYLZETA_MAX_ELEMENTS")


def test_element_cap_error_names_its_cap(capsys, monkeypatch):
    # the bound-24 table of A2t passes 24 elements before any chamber
    monkeypatch.setenv("WEYLZETA_MAX_ELEMENTS", "24")
    argv = ["torus", "--type", "A2t", "--scale", "3"]
    status, out = run_cli(argv + ["--format", "json"], capsys)
    assert status == 2
    error = json.loads(out)
    assert error == {"error": "enumeration exceeded 24 elements (set WEYLZETA_MAX_ELEMENTS "
                              "to raise the cap)",
                     "kind": "ResourceLimitError", "cap": 24, "env": "WEYLZETA_MAX_ELEMENTS"}
    status, out = run_cli(argv, capsys)
    assert (status, out) == (2, "error: %s\n" % error["error"])


_NOT_RANK_2 = "determinant identity applies to rank-2 affine types"
_NO_TORUS = "torus quotient needs a rank-2 affine system"


@pytest.mark.parametrize("argv,kind,word", [
    (["factorize", "--type", "E8"], "StripsError", "no factorization scheme for type 'E8'"),
    (["alt", "--type", "E8"], "SeriesError", "Poincare series in closed form needs an affine system"),
    (["alt", "--type", "A2"], "SeriesError", "Poincare series in closed form needs an affine system"),
    (["det-identity", "--type", "E8"], "StripsError", _NOT_RANK_2),
    (["det-identity", "--type", "A2"], "StripsError", _NOT_RANK_2),
    (["det-identity", "--type", "E8", "--q", "torus"], "StripsError", _NOT_RANK_2),
    (["det-identity", "--type", "A2", "--q", "torus"], "StripsError", _NOT_RANK_2),
    (["torus", "--type", "E8"], "ZetaError", _NO_TORUS),
    (["torus", "--type", "A2"], "ZetaError", _NO_TORUS),
], ids=["factorize-E8", "alt-E8", "alt-A2", "det-identity-E8", "det-identity-A2", "det-identity-torus-E8",
        "det-identity-torus-A2", "torus-E8", "torus-A2"])
def test_finite_types_fail_before_enumerating(argv, kind, word, capsys, monkeypatch):
    # det-identity and torus on E8 would otherwise run into the element cap
    # after seconds of enumeration
    from weylzeta import coxeter

    def no_enumeration(*args, **kwargs):
        raise AssertionError("a finite type was enumerated before its error")

    monkeypatch.setattr(coxeter, "enumerate_elements", no_enumeration)
    status, out = run_cli(argv + ["--format", "json"], capsys)
    assert status == 2
    assert json.loads(out) == {"error": word, "kind": kind}


def test_torus_subcommand(tmp_path, capsys):
    status, out = run_cli(["torus", "--type", "A2t", "--scale", "2", "--format", "json"], capsys)
    assert status == 0
    obj = json.loads(out)
    check_schema(obj, load_schema("torus.json"))
    assert obj["chambers"] == 24 and "witness" not in obj


GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden", "cli")
GRAPH_DIR = os.path.join(os.path.dirname(__file__), "golden", "graphs")
K4_EDGES = "0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n"

# golden stdout file -> CLI line; the README lines first, `{graph}` is a K4
# edge list and `{graphs}` the directory of edge lists under golden/.  A
# golden match also pins the output as deterministic.
GOLDEN_LINES = {
    "alt_A2t.txt": "alt --type A2t",
    "poincare_G2t_trunc12.txt": "poincare --type G2t --trunc 12",
    "factorize_C2t_trunc20.txt": "factorize --type C2t --trunc 20",
    "det_identity_G2t.txt": "det-identity --type G2t",
    "det_identity_A2t_torus3.txt": "det-identity --type A2t --q torus --scale 3",
    "macdonald_table_all.csv": "macdonald-table --type all --format csv",
    "ihara_k4_q2.txt": "ihara --graph {graph} --q 2",
    "torus_C2t_scale2.txt": "torus --type C2t --scale 2",
    # an even scale, where C2t's lattice basis (a = c = 2) meets k
    "torus_C2t_scale6.txt": "torus --type C2t --scale 6",
    "poincare_A2t_trunc6.json": "poincare --type A2t --trunc 6 --format json",
    "alt_C2t.json": "alt --type C2t --format json",
    "poincare_E8_trunc4.txt": "poincare --type E8 --trunc 4",
    "det_identity_A2t_q2.txt": "det-identity --type A2t --q 2",
    # the largest character line, and the one whose scalars are Fractions
    "det_identity_C2t_qhalf.txt": "det-identity --type C2t --q 1/2",
    # recorded from the dense-product route, which took about 10 s a line
    "det_identity_G2t_torus6.txt": "det-identity --type G2t --q torus --scale 6",
    "det_identity_G2t_torus6.json": "det-identity --type G2t --q torus --scale 6 --format json",
    # C2t's left coset factor and its m = 2 and m = 4 parabolics on the torus
    "det_identity_C2t_torus4.json": "det-identity --type C2t --q torus --scale 4 --format json",
    "torus_G2t_scale6.txt": "torus --type G2t --scale 6",
    # an odd scale, and the only A2t torus line
    "torus_A2t_scale5.txt": "torus --type A2t --scale 5",
    # 1,728 chambers: the closed counts multiply the fixed points of the W0
    # and L/kL factor tables
    "torus_G2t_scale12.json": "torus --type G2t --scale 12 --format json",
    # 120,000 chambers, recorded from the breadth-first chamber numbering
    "torus_G2t_scale100.json": "torus --type G2t --scale 100 --format json",
    # recorded from the 2m x 2m edge determinant det(I - B u)
    "ihara_petersen_q2.json": "ihara --graph {graphs}/petersen.txt --q 2 --format json",
    # a doubled edge, a leaf and two separate edges: m - n = -1
    "ihara_mixed.txt": "ihara --graph {graphs}/mixed.txt",
}


@pytest.mark.parametrize("name", sorted(GOLDEN_LINES))
def test_outputs_match_golden(name, tmp_path, capsys):
    graph = tmp_path / "k4.txt"
    graph.write_text(K4_EDGES)
    argv = [w.format(graph=graph, graphs=GRAPH_DIR) for w in GOLDEN_LINES[name].split()]
    status, out = run_cli(argv, capsys)
    assert status == 0
    with open(os.path.join(GOLDEN_DIR, name)) as fh:
        assert out == fh.read()


def test_console_script_matches_every_golden(tmp_path):
    # the installed entry point, run as a user runs it, over the whole table
    script = shutil.which("weylzeta")
    if script is None:
        pytest.skip("the weylzeta console script is not installed")
    graph = tmp_path / "k4.txt"
    graph.write_text(K4_EDGES)
    for name, line in sorted(GOLDEN_LINES.items()):
        argv = [w.format(graph=graph, graphs=GRAPH_DIR) for w in line.split()]
        out = subprocess.run([script, *argv], capture_output=True, check=True).stdout
        with open(os.path.join(GOLDEN_DIR, name), "rb") as fh:
            assert out == fh.read(), name


def test_det_identity_failure_reports_witness(capsys, monkeypatch):
    # one wrong parabolic factor: exit 1, and the witness in text and JSON
    from weylzeta.series import ExponentMap
    from weylzeta.zeta import TorusQuotient

    orig = TorusQuotient.finite_det_factor

    def wrong(self, elements):
        out = orig(self, elements)
        return out * ExponentMap({7: 1}) if [el.word for el in elements] == [(), (0,)] else out

    monkeypatch.setattr(TorusQuotient, "finite_det_factor", wrong)
    argv = ["det-identity", "--type", "A2t", "--q", "torus", "--scale", "2"]
    status, out = run_cli(argv + ["--format", "json"], capsys)
    assert status == 1
    obj = json.loads(out)
    check_schema(obj, load_schema("det_identity.json"))
    witness = obj["results"][0]["witness"]
    assert (witness["check"], witness["degree"]) == ("identity", 7)
    status, out = run_cli(argv, capsys)
    assert status == 1
    assert out.splitlines()[2] == "witness: %s" % json.dumps(witness, sort_keys=True)


def _torus_failure(argv, capsys):
    """Exit status 1, a schema-valid JSON report with its witness, and the
    same witness as the last text line."""
    status, out = run_cli(argv + ["--format", "json"], capsys)
    assert status == 1
    obj = json.loads(out)
    check_schema(obj, load_schema("torus.json"))
    assert not obj["pass"]
    status, out = run_cli(argv, capsys)
    assert status == 1
    assert out.splitlines()[-1] == "witness: %s" % json.dumps(obj["witness"], sort_keys=True)
    return obj


def test_torus_witness_for_a_wrong_strip_count(capsys, monkeypatch):
    from weylzeta import zeta

    orig = zeta.closed_strip_counts

    def wrong(tq, spec, n_max):
        counts = orig(tq, spec, n_max)
        if spec.index == 2:
            counts[2] += 1
        return counts

    monkeypatch.setattr(zeta, "closed_strip_counts", wrong)
    obj = _torus_failure(["torus", "--type", "A2t", "--scale", "2"], capsys)
    assert (obj["det_identity"], obj["zeta_product_match"], obj["trace_oracle_match"]) == (
        True, True, False)
    w = obj["witness"]
    assert (w["check"], w["strip"], w["degree"]) == ("traces", 2, 3)
    assert w["geometric"] == w["operator"] + 1 == w["zeta"] + 1


def test_torus_witness_for_a_wrong_cycle_map(capsys, monkeypatch):
    # a factor (1 - u^40) on each strip's cycle map at u: past the order
    # of the strip zeta's own check (6 * 3), so only the zeta product
    # sees it, at u^(40 * 3) after u -> u^3
    from weylzeta import zeta
    from weylzeta.series import ExponentMap

    orig = zeta._regular_cycle_map

    def wrong(n, o, shift_power):
        out = orig(n, o, shift_power)
        return out * ExponentMap({40: 1}) if shift_power == 1 else out

    monkeypatch.setattr(zeta, "_regular_cycle_map", wrong)
    obj = _torus_failure(["torus", "--type", "A2t", "--scale", "2"], capsys)
    assert (obj["det_identity"], obj["zeta_product_match"], obj["trace_oracle_match"]) == (
        True, False, True)
    w = obj["witness"]
    assert (w["check"], w["degree"], w["lhs"], w["rhs"]) == ("zeta product", 120, -2, 0)


def test_out_path_that_cannot_be_opened(tmp_path, capsys):
    dest = tmp_path / "missing" / "x.json"
    argv = ["alt", "--type", "A2t", "--out", str(dest)]
    status, out = run_cli(argv + ["--format", "json"], capsys)
    assert status == 2
    error = json.loads(out)
    assert error["kind"] == "InputError"
    assert error["error"].startswith("--out %s: " % dest)
    status, out = run_cli(argv, capsys)
    assert (status, out) == (2, "error: %s\n" % error["error"])
    assert not dest.parent.exists()


def test_bad_type_exits_nonzero(capsys):
    status, out = run_cli(["alt", "--type", "Z9"], capsys)
    assert status == 2
    assert "error" in out


def test_out_file(tmp_path, capsys):
    dest = tmp_path / "alt.json"
    status, _ = run_cli(["alt", "--type", "A2t", "--format", "json", "--out", str(dest)], capsys)
    assert status == 0
    assert json.loads(dest.read_text())["binomial_factors"] == [[3, 2]]


def test_env_cap_respected(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("WEYLZETA_MAX_ELEMENTS", "10")
    status, out = run_cli(["poincare", "--type", "A2t", "--trunc", "12"], capsys)
    assert status == 2
    assert "exceeded" in out


def test_rep_ingestion_via_cli(tmp_path, capsys):
    rep = {
        "dim": 1,
        "scalar": "rational",
        "q": 1,
        "generators": {"s1": [[-1]], "s2": [[-1]], "s3": [[-1]]},
    }
    path = tmp_path / "sign.json"
    path.write_text(json.dumps(rep))
    status, out = run_cli(
        ["det-identity", "--type", "A2t", "--rep", str(path), "--format", "json"], capsys)
    assert status == 0
    assert json.loads(out)["pass"] is True


@pytest.mark.parametrize("rep,kind,word", [
    ({"dim": 0, "generators": {"s1": [], "s2": [], "s3": []}}, "ValidationError", "shape"),
    ({"dim": 1, "generators": {"s1": [[-1]], "s2": [[-1]], "s3": [[[4, 0]]]}}, "HeckeError", "[4, 0]"),
    ({"dim": "1", "generators": {"s1": [[-1]], "s2": [[-1]], "s3": [[-1]]}}, "HeckeError", "'dim'"),
    ({"dim": 1}, "HeckeError", "'generators'"),
    ([{"dim": 1}], "HeckeError", "JSON object"),
    ({"dim": 1, "generators": {"s1": 5, "s2": [[-1]], "s3": [[-1]]}}, "HeckeError", "s1"),
], ids=["dim0", "zero-denominator", "dim-string", "no-generators", "top-level-list", "generator-not-rows"])
def test_bad_rep_reports_structured_error(rep, kind, word, tmp_path, capsys):
    path = tmp_path / "rep.json"
    path.write_text(json.dumps(rep))
    status, out = run_cli(
        ["det-identity", "--type", "A2t", "--rep", str(path), "--format", "json"], capsys)
    assert status == 2
    error = json.loads(out)
    assert error["kind"] == kind
    assert word in error["error"]


def test_rep_that_is_not_json_reports_structured_error(tmp_path, capsys):
    path = tmp_path / "rep.json"
    path.write_text("{dim: 1")
    status, out = run_cli(
        ["det-identity", "--type", "A2t", "--rep", str(path), "--format", "json"], capsys)
    assert status == 2
    error = json.loads(out)
    assert error["kind"] == "HeckeError" and "not JSON" in error["error"]


# argv (with {dir} for the test's directory), the text of {dir}/g.txt,
# the error kind, and words the message must hold: the file and line, or
# the option
BAD_INPUTS = {
    "graph-not-a-number": (["ihara", "--graph", "{dir}/g.txt"], "0 1\n0 x\n",
                           "ZetaError", ("g.txt line 2", "'0 x'")),
    "graph-three-fields": (["ihara", "--graph", "{dir}/g.txt"], "# K2\n0 1 2\n",
                           "ZetaError", ("g.txt line 2", "'0 1 2'")),
    # n is the largest vertex number plus 1: refused before anything of size n
    "graph-huge-isolated-vertex": (["ihara", "--graph", "{dir}/g.txt"], "0 1\n1 2\n2 0\n0 100000000000000\n",
                                   "ZetaError", ("isolated vertex",)),
    "graph-missing": (["ihara", "--graph", "{dir}/none.txt"], None,
                      "InputError", ("--graph", "none.txt")),
    "rep-missing": (["det-identity", "--type", "A2t", "--rep", "{dir}/none.json"], None,
                    "InputError", ("--rep", "none.json")),
    "q-zero-denominator": (["det-identity", "--type", "A2t", "--q", "1/0"], None,
                           "InputError", ("--q", "'1/0'")),
    "no-type": (["poincare"], None, "InputError", ("--type",)),
}


@pytest.mark.parametrize("case", sorted(BAD_INPUTS))
def test_bad_input_reports_typed_error(case, tmp_path, capsys):
    argv, text, kind, words = BAD_INPUTS[case]
    if text is not None:
        (tmp_path / "g.txt").write_text(text)
    argv = [a.format(dir=tmp_path) for a in argv]
    status, out = run_cli(argv + ["--format", "json"], capsys)
    assert status == 2
    error = json.loads(out)
    assert error["kind"] == kind
    assert all(w in error["error"] for w in words), error


def test_internal_error_exits_3_with_traceback(monkeypatch, capsys):
    # an exception outside weylzeta's error classes is a bug, not bad input
    def crash(config):
        raise RuntimeError("boom")

    monkeypatch.setitem(cli._COMMANDS, "alt", crash)
    status = cli.main(["alt", "--type", "A2t", "--format", "json"])
    captured = capsys.readouterr()
    assert status == 3
    assert json.loads(captured.out) == {"error": "boom", "kind": "RuntimeError"}
    assert "Traceback" in captured.err and "RuntimeError: boom" in captured.err
    status = cli.main(["alt", "--type", "A2t"])
    captured = capsys.readouterr()
    assert status == 3 and captured.out == "error: boom\n"


def test_poincare_large_finite_type(capsys):
    status, out = run_cli(["poincare", "--type", "E8", "--trunc", "4", "--format", "json"], capsys)
    assert status == 0
    obj = json.loads(out)
    assert obj["series"]["coeffs"] == [1, 8, 35, 112, 294]


POINCARE_AND_ALT_LINES = (
    [("poincare", "--type", tag, "--trunc", str(n)) for tag in ("A1t", "A2t", "C2t", "G2t") for n in (0, 12, 30)]
    + [("alt", "--type", tag) for tag in ("A1t", "A2t", "C2t", "G2t")]
    + [("poincare", "--type", tag, "--trunc", str(n))
       for tag in ("A1", "A2", "B3", "C4", "D5", "E6", "E8", "F4", "G2") for n in (0, 3, 30)]
)


def _rational_function_route(argv):
    """(text lines, JSON object) of a poincare or alt line by Macdonald's
    rational functions: rootsys.macdonald_series and alt_via_sincere in
    lowest terms, printed through the peel, a finite series truncated
    through an exact division."""
    tag = argv[2]
    rs = rootsys.positive_roots(tag[0], int(tag[1:].rstrip("t")))
    if argv[0] == "alt":
        inv = rootsys.alt_via_sincere(rs)[1].inverse()
        return ["type: %s" % tag, "alt_inverse: %s" % inv], {
            "type": tag, "alt_inverse": {"num": list(inv.num.coeffs), "den": list(inv.den.coeffs)},
            "binomial_factors": [list(f) for f in inv.binomial_factors()]}
    trunc = int(argv[4])
    finite, affine = rootsys.macdonald_series(rs)
    if tag.endswith("t"):
        rf, ps = affine, affine.expand(trunc)
    else:
        poly = finite.as_polynomial()
        rf, ps = finite, poly.truncate(min(trunc, poly.degree))
    lines = ["type: %s" % tag, "rational: %s" % rf,
             "coefficients (to u^%d): %s" % (ps.order, " ".join(map(str, ps.coeffs)))]
    return lines, {"type": tag, "series": series.series_to_json(rf, ps)}


def test_poincare_and_alt_lines_peel_nothing(capsys, monkeypatch):
    # both commands print exponent maps and build lowest terms once: with
    # the peel, the exact division and macdonald_series refused, every
    # line still prints what the rational-function route gives
    want = {argv: _rational_function_route(argv) for argv in POINCARE_AND_ALT_LINES}

    def refuse(*_args):
        raise AssertionError("a poincare or alt line peeled a rational function or called macdonald_series")

    for owner, name in ((series.RationalFunction, "binomial_factors"), (series.RationalFunction, "as_polynomial"),
                        (rootsys, "macdonald_series")):
        monkeypatch.setattr(owner, name, refuse)
    for argv, (lines, obj) in want.items():
        assert run_cli(list(argv), capsys) == (0, "\n".join(lines) + "\n"), argv
        status, out = run_cli([*argv, "--format", "json"], capsys)
        assert status == 0 and json.loads(out) == obj, argv


def test_help_renders(capsys):
    import pytest as _pytest

    with _pytest.raises(SystemExit) as exc:
        cli.main(["--help"])
    assert exc.value.code == 0
    assert "weylzeta" in capsys.readouterr().out


def _loaded_after_a_fresh_cli_import(*modules):
    """Which of modules a fresh interpreter holds after importing weylzeta.cli."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = "import sys, weylzeta, weylzeta.cli; print(*sorted(set(sys.argv[1:]) & set(sys.modules)))"
    out = subprocess.run([sys.executable, "-c", code, *modules], env=env, capture_output=True, text=True,
                         check=True)
    return out.stdout.split()


def test_import_does_not_load_numpy():
    # start-up guard: the package and its CLI run on Python ints alone
    assert _loaded_after_a_fresh_cli_import("numpy") == []


def test_import_loads_neither_dataclasses_nor_inspect():
    # start-up guard: plain classes, so no import pays for dataclasses (and the inspect it loads)
    assert _loaded_after_a_fresh_cli_import("dataclasses", "inspect") == []


# the kinds a bad input file may report: weylzeta's own error classes, and
# ValueError for an option value
INPUT_ERROR_KINDS = {"ValueError"} | {
    name for module in (cli, coxeter, hecke, rootsys, series, strips, zeta)
    for name, obj in vars(module).items()
    if isinstance(obj, type) and issubclass(obj, Exception) and obj.__module__ == module.__name__
}

VALID_REPS = (
    {"dim": 1, "scalar": "rational", "q": 1, "generators": {"s1": [[-1]], "s2": [[-1]], "s3": [[-1]]}},
    {"dim": 2, "scalar": "rational", "q": 2,
     "generators": {"s%d" % i: [[2, 0], [0, -1]] for i in (1, 2, 3)}},
    {"dim": 1, "scalar": "q-poly", "generators": {"s%d" % i: [[[0, 1]]] for i in (1, 2, 3)}},
)
VALID_GRAPHS = ("0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n", "# a 4-cycle\n0 1\n1 2\n2 3\n3 0\n")

json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.floats(-2, 2, width=16)
    | st.sampled_from(("rational", "q-poly", "s1", "", "1/2")),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(("dim", "scalar", "q", "generators", "s1", "s3")), inner, max_size=3),
    max_leaves=6)


def _mutate_json(data, node):
    """node with one drawn change somewhere below it: a value replaced, a
    key or item dropped, or a value added."""
    if isinstance(node, (dict, list)) and node and data.draw(st.integers(0, 3)):
        keys = sorted(node) if isinstance(node, dict) else range(len(node))
        key = data.draw(st.sampled_from(list(keys)))
        node = dict(node) if isinstance(node, dict) else list(node)
        action = data.draw(st.sampled_from(("descend", "descend", "drop", "add")))
        if action == "descend":
            node[key] = _mutate_json(data, node[key])
        elif action == "drop":
            del node[key]
        elif isinstance(node, dict):
            node[data.draw(st.sampled_from(("dim", "scalar", "q", "generators", "s2", "x")))] = data.draw(json_values)
        else:
            node.insert(key, data.draw(json_values))
        return node
    return data.draw(json_values)


def _mutate_text(data, text):
    """text with a drawn slice replaced by a few drawn characters."""
    i = data.draw(st.integers(0, len(text)))
    j = data.draw(st.integers(i, min(len(text), i + 4)))
    return text[:i] + data.draw(st.text(alphabet=" \n#-+.,x0123[]{}\"\u0663\u00b2", max_size=3)) + text[j:]


def _run_in_process(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = cli.main(argv)
    return status, out.getvalue()


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_mutated_input_files_are_typed_input_errors(tmp_path_factory, data):
    # a mutant of a valid --rep or --graph file passes, fails its check or
    # is bad input; none is an internal error (exit 3)
    path = tmp_path_factory.mktemp("mutant") / "input"
    if data.draw(st.booleans()):
        text = json.dumps(_mutate_json(data, data.draw(st.sampled_from(VALID_REPS))))
        argv = ["det-identity", "--type", "A2t", "--rep", str(path)]
    else:
        text = data.draw(st.sampled_from(VALID_GRAPHS))
        argv = ["ihara", "--graph", str(path)] + data.draw(st.sampled_from(([], ["--q", "2"])))
    if data.draw(st.booleans()):
        text = _mutate_text(data, text)
    path.write_text(text, encoding="utf-8")
    status, out = _run_in_process(argv + ["--format", "json"])
    assert status in (0, 1, 2), out
    if status == 2:
        assert json.loads(out)["kind"] in INPUT_ERROR_KINDS, out
