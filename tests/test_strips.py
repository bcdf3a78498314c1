from fractions import Fraction

import pytest

from oracles import dense_character
from weylzeta import coxeter, hecke, series, strips
from weylzeta.series import Poly, QPolynomial, RationalFunction


def test_strip_generator_words_and_lengths():
    a2 = strips.strip_generators("A2t")
    assert [(s.word, s.length) for s in a2] == [((2, 1, 0), 3), ((2, 0, 1), 3)]
    c2 = strips.strip_generators("C2t")
    assert [(s.word, s.length) for s in c2] == [((2, 0, 1, 0), 4), ((2, 0, 1), 3)]
    g2 = strips.strip_generators("G2t")
    assert [(s.word, s.length) for s in g2] == [((2, 0, 1), 3), ((2, 0, 1, 0, 1), 5)]


def test_strip_generators_are_values():
    a, b = strips.strip_generators("G2t"), strips.strip_generators("G2t")
    assert a == b and hash(a) == hash(b) and a[0] != a[1]
    assert {a: "G2t"}[b] == "G2t"
    assert strips.scheme_for("C2t") == strips.scheme_for("C2t") != strips.scheme_for("A2t")
    assert hash(strips.scheme_for("C2t")) == hash(strips.scheme_for("C2t"))


def test_power_length_reports_do_not_share_lengths():
    spec = strips.strip_generators("A2t")[0]
    first, second = strips.PowerLengthReport(spec, 3, True), strips.PowerLengthReport(spec, 3, True)
    first.lengths.append(0)
    assert second.lengths == [] and strips.PowerLengthReport(spec, 2, True).lengths == []


def test_reports_build_by_keyword_with_their_defaults():
    spec = strips.strip_generators("A2t")[0]
    power = strips.PowerLengthReport(spec=spec, k_max=2, ok=True)
    assert (power.first_failure, power.lengths) == (None, [])
    census = strips.CensusReport(type_tag="A2t", order=2, counts=[1], expected=[1],
                                 length_additive_ok=True, distinct_ok=True, counts_ok=False)
    assert census.witness is None and not census.ok
    twisted = strips.TwistedFactorizationReport(type_tag="A2t", order=2, ok=True)
    assert twisted.first_mismatch is None and twisted.as_json()["pass"]
    det = strips.DetIdentityReport(type_tag="A2t", ok=True, strip_dets=[], alt_det="1",
                                   dual_check_order=4, dual_check_ok=True)
    assert det.witness is None and "witness" not in det.as_json()


def test_g2t_replacement_word_identity(tables):
    # conjugating the raw strip generator by s1 gives the short word:
    # both words have the same key, so they are one element
    t = tables["G2t"]
    raw = strips.unreplaced_strip_generator()
    lhs = t.system.word_key((0,) + raw.word + (0,))
    rhs = t.system.word_key((2, 0, 1))
    assert lhs == rhs


def test_power_lengths_all_types(tables):
    for tag in ("A2t", "C2t", "G2t"):
        for spec in strips.strip_generators(tag):
            report = strips.check_power_lengths(tables[tag], spec, 8)
            assert report.ok, report.as_json()
            assert report.lengths == [k * spec.length for k in range(9)]


def test_power_lengths_k_zero(tables):
    spec = strips.strip_generators("A2t")[0]
    report = strips.check_power_lengths(tables["A2t"], spec, 0)
    assert report.ok and report.lengths == [0]


def test_unreplaced_g2t_generator_fails(tables):
    raw = strips.unreplaced_strip_generator()
    assert raw.length == 5
    report = strips.check_power_lengths(tables["G2t"], raw, 8)
    assert not report.ok
    k, expected, actual = report.first_failure
    assert k == 2 and expected == 10 and actual < 10


def test_scheme_construction_and_rejection():
    for tag in ("A2t", "C2t", "G2t"):
        sch = strips.scheme_for(tag)
        assert sch.type_tag == tag
    with pytest.raises(strips.StripsError):
        strips.scheme_for("A1t")


def test_scheme_table_mismatch_rejected(tables):
    with pytest.raises(strips.StripsError):
        strips.realize_factors(tables["A2t"], strips.scheme_for("C2t"))


def test_census_small_a2t(tables):
    report = strips.factorization_census(tables["A2t"], strips.scheme_for("A2t"), 4)
    assert report.ok
    assert report.counts == [1, 3, 6, 9, 12]


def test_census_degree_zero_slice(tables):
    report = strips.factorization_census(tables["A2t"], strips.scheme_for("A2t"), 0)
    assert report.ok and report.counts == [1]


def test_census_refuses_an_order_past_the_table_bound(tables):
    # refused before any tuple is walked, as the twisted factorization is
    with pytest.raises(strips.StripsError, match="table bound"):
        strips.factorization_census(tables["A2t"], strips.scheme_for("A2t"), 30)


def test_census_c2t(tables):
    report = strips.factorization_census(tables["C2t"], strips.scheme_for("C2t"), 10)
    assert report.ok, report.as_json()


def test_census_reports_witness_on_broken_scheme(tables):
    # the unswapped cyclic order for G2t is exactly the broken variant
    sch = strips.FactorizationScheme(
        "G2t",
        (
            ("coset", (0, 1), (0,), "right"),
            ("cyclic", 1),
            ("cyclic", 2),
            ("parabolic", (0, 2)),
        ),
    )
    report = strips.factorization_census(tables["G2t"], sch, 10)
    assert not report.ok
    assert report.witness["check"] in ("length", "distinct")


def test_twisted_factorization_layer_one(tables):
    # at order 1 both sides are I + sum of generator images times u
    t = tables["A2t"]
    rep = hecke.characters(t.system)[1].as_representation()
    r = strips.verify_twisted_factorization(t, strips.scheme_for("A2t"), rep, 1)
    assert r.ok


def test_twisted_factorization_characters(tables):
    for tag in ("A2t", "C2t", "G2t"):
        t = tables[tag]
        for ch in hecke.characters(t.system):
            rep = ch.as_representation()
            r = strips.verify_twisted_factorization(t, strips.scheme_for(tag), rep, 8)
            assert r.ok, (tag, ch.name())


def test_twisted_factorization_trivial_character_is_scaled_census(tables):
    # with the all-q character the coefficient of u^d on either side is the
    # number of group elements of length d times q^d
    t = tables["A2t"]
    q = hecke.formal_q()
    rep = hecke.characters(t.system)[0].as_representation()
    total = strips.twisted_group_sum(rep, t, 6)
    for d in range(7):
        assert total.coeffs[d] == len(t.layers[d]) * q ** d


def test_det_identity_characters(tables):
    for tag in ("A2t", "C2t", "G2t"):
        system = coxeter.build_system(tag)
        for ch in hecke.characters(system):
            report = strips.verify_determinant_identity(system, ch.as_representation(), tables[tag])
            assert report.ok, (tag, ch.name())
            assert report.dual_check_ok


def test_det_identity_wrong_character_factor_fails_the_dual_check(tables, monkeypatch):
    # one finite factor of the factorization, for one character of C2t,
    # is multiplied by 1 + u^5: only the dual check compares the
    # factorization with the direct sum over the ball, and it sees the
    # error first at u^5
    system = coxeter.build_system("C2t")
    table = tables["C2t"]
    first_finite = next(data for kind, data in strips.realize_factors(table, strips.scheme_for("C2t"))
                        if kind == "finite")
    target_words = [el.word for el in first_finite]
    reps = [ch.as_representation() for ch in hecke.characters(system)]
    wrong = reps[3]
    orig = hecke.CharacterRepresentation.finite_det_factor

    def tampered(self, elements):
        out = orig(self, elements)
        if self is wrong and [el.word for el in elements] == target_words:
            return out * RationalFunction(Poly.one() + Poly.u(5))
        return out

    monkeypatch.setattr(hecke.CharacterRepresentation, "finite_det_factor", tampered)
    for rep in reps:
        report = strips.verify_determinant_identity(system, rep, table)
        if rep is not wrong:
            assert report.ok and report.witness is None
            continue
        assert not report.ok and not report.dual_check_ok
        w = report.witness
        assert (w["check"], w["degree"]) == ("dual", 5)
        assert w["lhs"] != w["rhs"]
        assert report.as_json()["dual_check"] == {"order": 8, "pass": False}


def test_det_identity_expands_the_strip_determinants_when_read(torus_k2, tables):
    tq = torus_k2["A2t"]
    report = strips.verify_determinant_identity(tq.system, tq, tables["A2t"])
    assert report.ok and "strip_dets" not in vars(report)
    # both A2t strips have length 3 and order 4 on the 24 chambers
    assert report.strip_dets == [(1 - Poly.u(12)) ** 6] * 2
    assert report.strip_dets is report.strip_dets
    assert report.as_json()["strip_det_inverses"] == [str((1 - Poly.u(12)) ** 6)] * 2


def test_det_identity_trivial_character_closed_form(tables):
    q = hecke.formal_q()
    system = coxeter.build_system("A2t")
    ch = hecke.characters(system)[0]
    report = strips.verify_determinant_identity(system, ch.as_representation(), tables["A2t"])
    binom = Poly([QPolynomial.one(), QPolynomial.zero(), QPolynomial.zero(), -(q ** 3)])
    assert report.alt_det == RationalFunction(Poly([QPolynomial.one()]), binom * binom)


def test_det_identity_sign_character_closed_form(tables):
    # sign character sends e_w to (-1)^l(w): both sides become the
    # alternating product at -u
    system = coxeter.build_system("A2t")
    ch = hecke.characters(system)[1]
    report = strips.verify_determinant_identity(system, ch.as_representation(), tables["A2t"])
    one = QPolynomial.one()
    binom = Poly([one, QPolynomial.zero(), QPolynomial.zero(), one])  # 1 + u^3
    assert report.alt_det == RationalFunction(Poly([one]), binom * binom)


def test_det_identity_ingested_2dim_rational(tables):
    # a q=2 two-dimensional representation of A2t ingested through JSON:
    # the regular representation of the quotient by the pure braid part is
    # overkill, so use the one-dimensional characters promoted to dim 2
    import json

    from weylzeta.hecke import representation_from_json

    system = coxeter.build_system("A2t")
    obj = {
        "dim": 2,
        "scalar": "rational",
        "q": 2,
        "generators": {
            "s%d" % (i + 1): [[2, 0], [0, -1]] for i in range(3)
        },
    }
    rep = representation_from_json(system, json.dumps(obj))
    report = strips.verify_determinant_identity(system, rep, tables["A2t"])
    assert report.ok


def test_det_identity_rejects_rank_one():
    system = coxeter.build_system("A1t")
    ch = hecke.characters(system)[0]
    with pytest.raises(strips.StripsError):
        strips.verify_determinant_identity(system, ch.as_representation())


def test_alt_factors_are_strip_lengths():
    # the alternating product inverse factors exactly as the product of
    # 1 - u^(strip length) over the two strip generators
    from weylzeta.series import alt_product_rational

    for tag in ("A2t", "C2t", "G2t"):
        lengths = sorted(s.length for s in strips.strip_generators(tag))
        alt_inv = alt_product_rational(coxeter.build_system(tag)).inverse()
        factors = sorted(alt_inv.exponents.items())
        got = sorted(d for d, m in factors for _ in range(m))
        assert got == lengths


def test_census_power_lengths_and_identity_multiply_no_matrices(tables, monkeypatch):
    # products walk the Cayley-graph links, so no route here multiplies
    # two matrices (a coxeter.mat_mul, if one is added, raises)
    def no_mat_mul(a, b):
        raise AssertionError("coxeter.mat_mul called")

    monkeypatch.setattr(coxeter, "mat_mul", no_mat_mul, raising=False)
    for tag in ("A2t", "C2t", "G2t"):
        table = tables[tag]
        assert strips.factorization_census(table, strips.scheme_for(tag), 16).ok
        for spec in strips.strip_generators(tag):
            assert strips.check_power_lengths(table, spec, 8).ok
        ch = hecke.characters(table.system)[-1]
        report = strips.verify_determinant_identity(table.system, ch.as_representation(), table)
        assert report.ok and report.dual_check_ok
    raw = strips.check_power_lengths(tables["G2t"], strips.unreplaced_strip_generator(), 4)
    assert not raw.ok and raw.first_failure[0] == 2


def test_character_reports_match_the_dense_oracle(tables):
    # every character at q formal, 2, 1/2 and 3: the letter-class route and
    # the dense 1x1 images give the same reports, text included
    for tag in ("A2t", "C2t", "G2t"):
        table = tables[tag]
        for q in (None, 2, Fraction(1, 2), 3):
            for ch in hecke.characters(table.system):
                reps = ch.as_representation(q), dense_character(ch, q)
                new, old = (strips.verify_determinant_identity(table.system, rep, table) for rep in reps)
                assert new.as_json() == old.as_json() and new.ok and new.dual_check_ok
                assert str(new.alt_det) == str(old.alt_det) and new.alt_det == old.alt_det
                assert [str(p) for p in new.strip_dets] == [str(p) for p in old.strip_dets]
                new, old = (strips.verify_twisted_factorization(table, strips.scheme_for(tag), rep, 12)
                            for rep in reps)
                assert new.as_json() == old.as_json() and new.ok


def test_census_builds_no_rational_function(tables, monkeypatch):
    # the expected counts are read off the exponent maps
    def refuse(*args):
        raise AssertionError("binomial_product called")

    monkeypatch.setattr(series, "binomial_product", refuse)
    for tag in ("A2t", "C2t", "G2t"):
        assert strips.factorization_census(tables[tag], strips.scheme_for(tag), 16).ok
