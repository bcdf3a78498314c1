import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weylzeta import coxeter, hecke
from weylzeta.hecke import (
    HeckeElement,
    ValidationError,
    basis_element,
    characters,
    check_word_products,
    formal_q,
    hecke_mul,
    representation_from_json,
    validate_representation,
)
from weylzeta.series import Matrix, Poly, QPolynomial, RationalFunction, poincare_parabolic
from oracles import cyclic_entry_rational, hecke_mul_recursion, multiply, twisted_series


def test_quadratic_relation_rearranged(tables):
    t = tables["A2t"]
    q = formal_q()
    s = basis_element(t, t.generator(0))
    prod = hecke_mul(t, s, s)
    assert prod.coeff(t.generator(0)) == q - 1
    assert prod.coeff(t.identity) == q
    assert len(prod.terms) == 2


def test_length_additive_basis_product(tables):
    t = tables["A2t"]
    x = basis_element(t, t.generator(0))
    y = basis_element(t, t.generator(1))
    prod = hecke_mul(t, x, y)
    assert prod.coeff(t.element_of_word((0, 1))) == QPolynomial.one()
    assert len(prod.terms) == 1


def test_specialization_q1_is_group_algebra(tables):
    t = tables["C2t"]
    rng = random.Random(17)
    elements = [el for layer in t.layers[:5] for el in layer]
    for _ in range(60):
        w = rng.choice(elements)
        v = rng.choice(elements)
        if w.length + v.length > t.bound:
            continue
        prod = hecke_mul(t, basis_element(t, w, 1), basis_element(t, v, 1), q=1)
        el, _ = multiply(t, w, v)
        assert list(prod.terms) == [el.key]
        assert prod.coeff(el) == 1


def test_associativity_random(tables):
    t = tables["A2t"]
    rng = random.Random(29)
    elements = [el for layer in t.layers[:5] for el in layer]
    for _ in range(400):
        a, b, c = (basis_element(t, rng.choice(elements)) for _ in range(3))
        left = hecke_mul(t, hecke_mul(t, a, b), c)
        right = hecke_mul(t, a, hecke_mul(t, b, c))
        assert left == right


def test_out_of_bound_support_raises():
    t = coxeter.enumerate_elements(coxeter.build_system("A2t"), 3)
    w = t.element_of_word((2, 1, 0))
    x = basis_element(t, w)
    with pytest.raises(coxeter.OutOfTableError):
        hecke_mul(t, x, x)


def test_character_counts():
    assert len(characters(coxeter.build_system("A2t"))) == 2
    assert len(characters(coxeter.build_system("C2t"))) == 8
    assert len(characters(coxeter.build_system("G2t"))) == 4


def test_characters_respect_odd_bonds():
    for tag in ("A2t", "C2t", "G2t"):
        system = coxeter.build_system(tag)
        for ch in characters(system):
            for i in range(3):
                for j in range(3):
                    if i != j and system.bond(i, j) % 2 == 1 and system.bond(i, j) != 1:
                        assert ch.signs[i] == ch.signs[j]


def test_trivial_q_character_first():
    chs = characters(coxeter.build_system("G2t"))
    assert all(chs[0].signs)


def test_validate_character_representations():
    system = coxeter.build_system("A2t")
    q = formal_q()
    rep_q = validate_representation(system, [Matrix(((q,),))] * 3, q)
    assert rep_q.dim == 1 and rep_q.q == q
    rep_sign = validate_representation(system, [Matrix(((-1,),))] * 3, q)
    assert rep_sign.dim == 1


def test_validate_rejects_zero_images():
    system = coxeter.build_system("A2t")
    with pytest.raises(ValidationError) as err:
        validate_representation(system, [Matrix(((0,),))] * 3)
    report = err.value.report
    assert report["ok"] is False
    assert report["failures"][0]["relation"] == "quadratic"


def test_validate_reports_braid_failure():
    system = coxeter.build_system("A2t")
    q = formal_q()
    # each image satisfies the quadratic relation but the pair (1,2) breaks
    # the braid relation: q and -1 are not joined by an even bond here
    mats = [Matrix(((q,),)), Matrix(((-1,),)), Matrix(((q,),))]
    with pytest.raises(ValidationError) as err:
        validate_representation(system, mats, q)
    kinds = {f["relation"] for f in err.value.report["failures"]}
    assert kinds == {"braid"}


def test_twisted_series_identity_subset(tables):
    t = tables["A2t"]
    ch = characters(t.system)[0]
    rep = ch.as_representation()
    ts = twisted_series(t, ("elements", [t.identity]), rep)
    assert ts.coeffs == (Matrix(((QPolynomial.one(),),)),)


def test_twisted_series_trivial_character_scaling(tables):
    # with the all-q character every twisted subset series is the plain
    # series with u replaced by qu
    t = tables["C2t"]
    q = formal_q()
    rep = characters(t.system)[0].as_representation()
    for gens in ((0,), (0, 1), (1, 2)):
        ts = twisted_series(t, ("parabolic", gens), rep)
        plain = poincare_parabolic(t, gens)
        for d, mat in enumerate(ts.coeffs):
            assert mat.rows[0][0] == plain.coeff(d) * q ** d


def test_twisted_series_cyclic_closed_form(tables):
    t = tables["A2t"]
    q = formal_q()
    rep = characters(t.system)[0].as_representation()
    w1 = t.element_of_word((2, 1, 0))
    cyc = twisted_series(t, ("cyclic", w1), rep)
    den = Poly([QPolynomial.one(), QPolynomial.zero(), QPolynomial.zero(), -(q ** 3)])
    assert cyclic_entry_rational(cyc, 0, 0) == RationalFunction(Poly([QPolynomial.one()]), den)
    # truncation agrees with the closed form
    ser = cyc.truncate(7)
    for d in range(8):
        want = q ** d if d % 3 == 0 else QPolynomial.zero()
        assert ser.coeffs[d].rows[0][0] == want


def test_word_products_for_characters(tables):
    for tag in ("A2t", "G2t"):
        t = tables[tag]
        for ch in characters(t.system):
            rep = ch.as_representation()
            assert check_word_products(rep, t, max_length=6)


# ---------------------------------------------------------------------------
# JSON ingestion


A1T_2DIM = {
    "dim": 2,
    "scalar": "q-poly",
    "generators": {
        "s1": [[[0, 1], 0], [1, -1]],
        "s2": [[-1, [0, 1]], [0, [0, 1]]],
    },
}


def test_representation_from_json_valid():
    system = coxeter.build_system("A1t")
    rep = representation_from_json(system, json.dumps(A1T_2DIM))
    assert rep.dim == 2
    # quadratic relation holds with q formal
    q = formal_q()
    for m in rep.gen_images:
        ident = Matrix.identity(2, QPolynomial.one())
        assert ((m + ident) * (m - ident * q)).is_zero()


def test_representation_from_json_rejects_bad():
    system = coxeter.build_system("A1t")
    bad = {
        "dim": 1,
        "scalar": "rational",
        "q": 3,
        "generators": {"s1": [[0]], "s2": [[3]]},
    }
    with pytest.raises(ValidationError) as err:
        representation_from_json(system, json.dumps(bad))
    assert err.value.report["failures"][0]["relation"] == "quadratic"


def test_representation_json_missing_generator():
    system = coxeter.build_system("A2t")
    with pytest.raises(hecke.HeckeError):
        representation_from_json(system, json.dumps(A1T_2DIM))


def test_character_word_values(tables):
    t = tables["G2t"]
    q = formal_q()
    for ch in characters(t.system):
        rep = ch.as_representation()
        for layer in t.layers[:5]:
            for el in layer:
                assert rep.image(t, el).rows[0][0] == ch.word_value(el.word, q)


def test_word_product_check_builds_cache(tables):
    t = tables["A2t"]
    q = formal_q()
    rep = validate_representation(t.system, [Matrix(((q,),))] * 3, q)
    assert check_word_products(rep, t, max_length=5)
    # the check filled the cache with every element up to the sampled depth
    for layer in t.layers[:5]:
        for el in layer:
            assert el.key in rep._cache


def test_json_ingestion_with_table():
    system = coxeter.build_system("A1t")
    table = coxeter.enumerate_elements(system, 8)
    rep = representation_from_json(system, json.dumps(A1T_2DIM))
    assert check_word_products(rep, table, max_length=6)


def test_twisted_series_coset_descriptor(tables):
    t = tables["A2t"]
    q = formal_q()
    rep = characters(t.system)[0].as_representation()
    ts = twisted_series(t, ("coset", (0, 1), (1,), "right"), rep)
    # the three minimal representatives have lengths 0, 1, 2
    for d, want in ((0, QPolynomial.one()), (1, q), (2, q ** 2)):
        assert ts.coeffs[d].rows[0][0] == want


def test_cyclic_truncation_below_period(tables):
    t = tables["A2t"]
    rep = characters(t.system)[0].as_representation()
    w1 = t.element_of_word((2, 1, 0))
    ser = twisted_series(t, ("cyclic", w1), rep).truncate(2)
    assert ser.coeffs[0].rows[0][0] == QPolynomial.one()
    assert all(ser.coeffs[d].rows[0][0] == QPolynomial.zero() for d in (1, 2))


def test_hecke_mul_distributes(tables):
    import random as _random

    t = tables["G2t"]
    rng = _random.Random(41)
    elements = [el for layer in t.layers[:4] for el in layer]
    for _ in range(100):
        x, y, z = (basis_element(t, rng.choice(elements)) for _ in range(3))
        lhs = hecke_mul(t, x, y + z)
        rhs = hecke_mul(t, x, y) + hecke_mul(t, x, z)
        assert lhs == rhs


PACKED_TABLE = coxeter.enumerate_elements(coxeter.build_system("A2t"), 8)
PACKED_ELEMENTS = [el for layer in PACKED_TABLE.layers[:4] for el in layer]


@st.composite
def packed_hecke_cases(draw):
    """Two Hecke elements over Z[q] or Q[q] with coefficients of both
    signs: random q-polynomials, or monomials +-2^k q^e over a
    denominator in Q[q].  In a tight case x is one monomial term and y a
    monomial times the identity, so the product's one coefficient equals
    the packing bound B and only the spare bit of 2^(b-1) > B holds it."""
    dens = st.sampled_from((1, 2, 3, 6) if draw(st.booleans()) else (1,))
    tight = draw(st.booleans())

    def coeff():
        if tight or draw(st.booleans()):
            c = Fraction(draw(st.sampled_from((1, -1))) * 2 ** draw(st.integers(0, 60)), draw(dens))
            return QPolynomial((0,) * draw(st.integers(0, 3)) + (c,))
        return QPolynomial([Fraction(draw(st.integers(-9, 9)), draw(dens)) for _ in range(draw(st.integers(0, 4)))])

    def element(size, elements):
        keys = draw(st.lists(st.sampled_from(elements), min_size=1, max_size=size))
        return HeckeElement(PACKED_TABLE, {el.key: coeff() for el in keys})

    x = element(1 if tight else 4, PACKED_ELEMENTS)
    y = element(1 if tight else 4, [PACKED_TABLE.identity] if tight else PACKED_ELEMENTS)
    return x, y, draw(st.sampled_from((None, formal_q())))


@settings(max_examples=300, deadline=None)
@given(packed_hecke_cases())
def test_packed_product_matches_recursion(case):
    x, y, q = case
    assert hecke_mul(PACKED_TABLE, x, y, q) == hecke_mul_recursion(PACKED_TABLE, x, y, q)
