import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from weylzeta import coxeter, hecke, strips
from weylzeta.hecke import (
    FiniteTwistedSeries,
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
from oracles import (
    character_word_value, cyclic_entry_rational, dense_character, finite_twisted_coeffs, hecke_mul_recursion,
    multiply, twisted_series,
)
from rings import ring_values, rings, rule_kind


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


def test_an_operand_outside_the_table_raises_out_of_table_error():
    # an A2t element past the bound, or a C2t element, on either side, at
    # the formal q (packed) and at q = 1/2, raises the typed error
    small = coxeter.enumerate_elements(coxeter.build_system("A2t"), 6)
    far = coxeter.enumerate_elements(coxeter.build_system("A2t"), 12)
    other = coxeter.enumerate_elements(coxeter.build_system("C2t"), 6)
    outside = [basis_element(far, far.layers[12][0]), basis_element(other, other.layers[6][0])]
    assert not any(set(x.terms) & set(small.index) for x in outside)
    inside = basis_element(small, small.element_of_word((0, 1)))
    for x in outside:
        for pair in ((x, inside), (inside, x)):
            for q in (None, Fraction(1, 2)):
                with pytest.raises(coxeter.OutOfTableError, match="outside the table bound 6"):
                    hecke_mul(small, *pair, q)


@pytest.mark.parametrize("q,coeff", [(None, 1), (None, QPolynomial((Fraction(1, 2), -1))), (Fraction(1, 2), 1)])
def test_products_read_no_words(q, coeff, monkeypatch):
    # after one warm-up product on a table, 200 seeded products read no
    # GroupElement.word: the formal-q packed path, a Q[q] operand and
    # q = 1/2, products fed back as operands
    t = coxeter.enumerate_elements(coxeter.build_system("A2t"), 24)
    reads = []
    word = coxeter.GroupElement.word
    monkeypatch.setattr(coxeter.GroupElement, "word", property(lambda el: reads.append(el) or word.fget(el)))
    rng = random.Random(33)
    elements = [el for layer in t.layers[:5] for el in layer]

    def operand():  # at coeff 1 and the formal q, packed basis elements
        if q is None and coeff == 1:
            return basis_element(t, rng.choice(elements))
        return HeckeElement(t, {rng.choice(elements).key: coeff for _ in range(rng.randint(1, 2))})

    hecke_mul(t, operand(), operand(), q)
    reads.clear()
    for _ in range(100):
        x = hecke_mul(t, operand(), operand(), q)
        hecke_mul(t, x, operand(), q)
    assert reads == []


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


def test_characters_are_values():
    a, b = characters(coxeter.build_system("C2t")), characters(coxeter.build_system("C2t"))
    assert a == b and [hash(x) for x in a] == [hash(x) for x in b]
    assert len(set(a + b)) == len(a) == 8
    assert a[0] != characters(coxeter.build_system("G2t"))[0]


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
    rep = dense_character(ch)
    ts = twisted_series(t, ("elements", [t.identity]), rep)
    assert ts.coeffs == (Matrix(((QPolynomial.one(),),)),)


def test_twisted_series_trivial_character_scaling(tables):
    # with the all-q character every twisted subset series is the plain
    # series with u replaced by qu
    t = tables["C2t"]
    q = formal_q()
    rep = dense_character(characters(t.system)[0])
    for gens in ((0,), (0, 1), (1, 2)):
        ts = twisted_series(t, ("parabolic", gens), rep)
        plain = poincare_parabolic(t, gens)
        for d, mat in enumerate(ts.coeffs):
            assert mat.rows[0][0] == plain.coeffs[d] * q ** d


def test_twisted_series_cyclic_closed_form(tables):
    t = tables["A2t"]
    q = formal_q()
    rep = dense_character(characters(t.system)[0])
    w1 = t.element_of_word((2, 1, 0))
    cyc = twisted_series(t, ("cyclic", w1), rep)
    den = Poly([QPolynomial.one(), QPolynomial(), QPolynomial(), -(q ** 3)])
    assert cyclic_entry_rational(cyc, 0, 0) == RationalFunction(Poly([QPolynomial.one()]), den)
    # truncation agrees with the closed form
    ser = cyc.truncate(7)
    for d in range(8):
        want = q ** d if d % 3 == 0 else QPolynomial()
        assert ser.coeffs[d].rows[0][0] == want


def test_dense_six_dimensional_representation_matches_its_characters(tables):
    # P^-1 diag(chi_1(e_s), ..., chi_6(e_s)) P for six of C2t's characters
    # at formal q and the dense unimodular P = L U, L and U all-ones
    # triangular: its determinants are the products of the characters'
    t, n = tables["C2t"], 6
    q = formal_q()
    chars = [characters(t.system)[i] for i in (0, 7, 1, 6, 2, 5)]  # signs vary along each diagonal
    p = Matrix([[min(i, j) + 1 for j in range(n)] for i in range(n)])
    shift = Matrix([[int(j == i + 1) for j in range(n)] for i in range(n)])
    p_inv = (Matrix.identity(n) - shift) * (Matrix.identity(n) - Matrix(tuple(zip(*shift.rows))))
    assert (p_inv * p).is_identity()
    dense = [dense_character(ch, q) for ch in chars]
    images = [p_inv * Matrix([[d.gen_images[s].rows[0][0] if i == j else 0 for j, d in enumerate(dense)]
                              for i in range(n)]) * p for s in range(t.system.num_generators)]
    rep = validate_representation(t.system, images, q)
    assert all(x != 0 for m in rep.gen_images for row in m.rows for x in row)
    assert rep.det_series_hook(t, 8) == math.prod(ch.as_representation(q).det_series_hook(t, 8) for ch in chars)
    report = strips.verify_determinant_identity(t.system, rep, t)
    assert report.ok and report.dual_check_ok


def test_word_products_for_characters(tables):
    for tag in ("A2t", "G2t"):
        t = tables[tag]
        for ch in characters(t.system):
            rep = dense_character(ch)
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
        rep = dense_character(ch)
        for layer in t.layers[:5]:
            for el in layer:
                assert rep.image(el).rows[0][0] == character_word_value(ch, el.word, q)


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
    rep = dense_character(characters(t.system)[0])
    ts = twisted_series(t, ("coset", (0, 1), (1,), "right"), rep)
    # the three minimal representatives have lengths 0, 1, 2
    for d, want in ((0, QPolynomial.one()), (1, q), (2, q ** 2)):
        assert ts.coeffs[d].rows[0][0] == want


def test_cyclic_truncation_below_period(tables):
    t = tables["A2t"]
    rep = dense_character(characters(t.system)[0])
    w1 = t.element_of_word((2, 1, 0))
    ser = twisted_series(t, ("cyclic", w1), rep).truncate(2)
    assert ser.coeffs[0].rows[0][0] == QPolynomial.one()
    assert all(ser.coeffs[d].rows[0][0] == QPolynomial() for d in (1, 2))


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


# q formal (None or given), scalar, and over Z[q] or Q[q] beyond q itself
HECKE_QS = (None, formal_q(), 2, Fraction(1, 2), QPolynomial((-1, 0, 3)), QPolynomial((Fraction(1, 2), 1)))


@st.composite
def packed_hecke_cases(draw):
    """Two Hecke elements of several terms whose coefficients mix ints,
    Fractions and q-polynomials over Z or Q of both signs (random ones, or
    monomials +-2^k q^e over a denominator, or values of one ring of
    tests/rings.py), at every kind of q.  In a
    tight case x is one monomial term and y a monomial times the
    identity, so the product's one coefficient equals the packing bound B
    and only the spare bit of 2^(b-1) > B holds it."""
    dens = st.sampled_from((1, 2, 3, 6) if draw(st.booleans()) else (1,))
    tight = draw(st.booleans())
    ring = ring_values[draw(st.sampled_from(rings))]

    def coeff():
        kind = "monomial" if tight else draw(st.sampled_from(("int", "fraction", "monomial", "poly", "ring")))
        if kind == "ring":
            return draw(ring)
        if kind == "int":
            return draw(st.integers(-9, 9))
        if kind == "fraction":
            return Fraction(draw(st.integers(-9, 9)), draw(dens))
        if kind == "monomial":
            c = Fraction(draw(st.sampled_from((1, -1))) * 2 ** draw(st.integers(0, 60)), draw(dens))
            return QPolynomial((0,) * draw(st.integers(0, 3)) + (c,))
        return QPolynomial([Fraction(draw(st.integers(-9, 9)), draw(dens)) for _ in range(draw(st.integers(0, 4)))])

    def element(size, elements):
        keys = draw(st.lists(st.sampled_from(elements), min_size=1, max_size=size))
        return HeckeElement(PACKED_TABLE, {el.key: coeff() for el in keys})

    x = element(1 if tight else 5, PACKED_ELEMENTS)
    y = element(1 if tight else 5, [PACKED_TABLE.identity] if tight else PACKED_ELEMENTS)
    return x, y, draw(st.sampled_from(HECKE_QS[:2] if tight else HECKE_QS))


def _integral_fraction_case(c, q):
    """Fraction(2, 1) has no denominator to scale away but is no int: the
    packing must still turn it into one."""
    e, s = PACKED_TABLE.element_of_word((0, 1)), PACKED_TABLE.generator(0)
    return HeckeElement(PACKED_TABLE, {e.key: c}), HeckeElement(PACKED_TABLE, {s.key: c, e.key: 1}), q


@settings(max_examples=400, deadline=None)
@given(packed_hecke_cases())
@example(_integral_fraction_case(Fraction(2, 1), None))
@example(_integral_fraction_case(QPolynomial((Fraction(4, 2), 1)), QPolynomial((-1, 0, 3))))
def test_packed_product_matches_recursion(case):
    x, y, q = case
    product = hecke_mul(PACKED_TABLE, x, y, q)
    assert product == hecke_mul_recursion(PACKED_TABLE, x, y, q)
    if q is None or isinstance(q, QPolynomial) and rule_kind(q.coeffs) == (int, int):
        # at q in Z[q] the product runs on int rows, so its terms take one
        # kind: QPolynomials over Fractions when an operand has one, else over ints
        _outer, inner = rule_kind([*x.terms.values(), *y.terms.values()])
        assert all(type(c) is QPolynomial and {type(a) for a in c.coeffs} <= {inner} for c in product.terms.values())


def test_associativity_chain_matches_recursion(tables):
    # a chain of four products of one- or two-term elements from layers
    # <= 4, each step against the recursion oracle, then nested the other way
    t = tables["A2t"]
    rng = random.Random(20)
    elements = [el for layer in t.layers[:5] for el in layer]
    coeffs = (1, -2, Fraction(1, 3), QPolynomial((-1, 2)), QPolynomial((0, Fraction(-1, 2))))
    for q in HECKE_QS:
        for _ in range(6):
            factors = [HeckeElement(t, {rng.choice(elements).key: rng.choice(coeffs) for _ in range(rng.randint(1, 2))})
                       for _ in range(4)]
            chain = oracle = factors[0]
            for f in factors[1:]:
                chain, oracle = hecke_mul(t, chain, f, q), hecke_mul_recursion(t, oracle, f, q)
                assert chain == oracle
            a, b, c, d = factors
            assert hecke_mul(t, a, hecke_mul(t, b, hecke_mul(t, c, d, q), q), q) == chain


def _at_width(element, b):
    """The element over Z[q] held packed at width b."""
    rows, norm, _scale, kind = hecke._int_terms(element, element.table.index, 1)
    return HeckeElement._from_packed(element.table, hecke._packed(element, rows, kind, b), b, norm)


def test_packed_and_unpacked_elements_compare_and_hash_equal(tables):
    # one element packed at widths 32 and 64 and built from its terms: all
    # equal and of one hash; a product lands at width 64 when its bound
    # needs it, and still equals the recursion
    t = tables["A2t"]
    s, w = t.generator(0), t.element_of_word((0, 1, 2))
    plain = HeckeElement(t, {s.key: QPolynomial((3, -1)), w.key: -2, t.identity.key: QPolynomial((0, 0, 5))})
    packed = [_at_width(plain, b) for b in (32, 64)]
    for x in packed:
        assert x.packed is not None and x == plain and plain == x and hash(x) == hash(plain)
    assert packed[0] == packed[1] and hash(packed[0]) == hash(packed[1])
    other = _at_width(HeckeElement(t, {s.key: QPolynomial((3, -1)), w.key: -2}), 32)
    assert other != packed[0] and packed[0] != other
    big = HeckeElement(t, {s.key: QPolynomial((2 ** 40, -1)), w.key: -(2 ** 35)})
    product, oracle = hecke_mul(t, big, plain), hecke_mul_recursion(t, big, plain)
    assert product.width == 64
    assert product == oracle and hash(product) == hash(oracle)
    assert hecke_mul(t, product, packed[0]) == hecke_mul_recursion(t, oracle, plain)


def test_a_packed_operands_bound_grows_with_its_length(tables):
    # y = T_s is born packed with norm bound 1; at q = 3q^2 - 1 the product
    # 2^30 T_s T_s has the coefficient 3 * 2^30 of q^2, past 2^31: only
    # the growth factor (2|q|_1 + 1)^l(s) = 9 on y's bound widens past 32
    t = tables["A2t"]
    q = QPolynomial((-1, 0, 3))
    s = t.generator(0)
    x, y = HeckeElement(t, {s.key: 2 ** 30}), basis_element(t, s)
    product = hecke_mul(t, x, y, q)
    assert product.width == 64
    assert product == hecke_mul_recursion(t, x, y, q)


def test_formal_chain_unpacks_only_when_a_term_is_read(tables, monkeypatch):
    # products at the formal q stay packed through the chain and the
    # comparison; the unpacking runs first when a coefficient is read
    calls = []
    unpack = hecke._from_kronecker

    def counted(*args):
        calls.append(args)
        return unpack(*args)

    monkeypatch.setattr(hecke, "_from_kronecker", counted)
    t = tables["A2t"]
    rng = random.Random(31)
    elements = [el for layer in t.layers[:5] for el in layer]
    for _ in range(50):
        a, b = (basis_element(t, rng.choice(elements)) for _ in range(2))
        c = HeckeElement(t, {rng.choice(elements).key: QPolynomial((1, -2)), rng.choice(elements).key: 3})
        left = hecke_mul(t, hecke_mul(t, a, b), c)
        right = hecke_mul(t, a, hecke_mul(t, b, c))
        assert left == right
    assert calls == []
    terms = left.terms
    assert len(calls) == len(terms)
    assert terms == hecke_mul_recursion(t, hecke_mul_recursion(t, a, b), c).terms


@st.composite
def product_feedback_cases(draw):
    """Start elements over Z, Q, Z[q] and Q[q], then products of two
    drawn earlier entries at a drawn q, each fed back in as an operand:
    packed products at the formal q, unpacked ones at any other q, and
    packed ones whose terms were already read."""
    def coeff():
        kind = draw(st.sampled_from(("int", "fraction", "poly", "big")))
        if kind == "int":
            return draw(st.integers(-5, 5))
        if kind == "fraction":
            return Fraction(draw(st.integers(-5, 5)), draw(st.sampled_from((1, 2, 3))))
        if kind == "poly":
            return QPolynomial([draw(st.integers(-3, 3)) for _ in range(draw(st.integers(0, 3)))])
        return QPolynomial((0,) * draw(st.integers(0, 2)) + (draw(st.sampled_from((1, -1))) * 2 ** draw(st.integers(20, 60)),))

    elements = [el for layer in PACKED_TABLE.layers[:3] for el in layer]
    starts = [HeckeElement(PACKED_TABLE, {draw(st.sampled_from(elements)).key: coeff()
                                          for _ in range(draw(st.integers(1, 2)))})
              for _ in range(draw(st.integers(2, 3)))]
    steps = draw(st.lists(st.tuples(st.integers(0, 20), st.integers(0, 20), st.sampled_from(HECKE_QS), st.booleans()),
                          min_size=1, max_size=5))
    return starts, steps


def _product_or_escape(mul, x, y, q):
    try:
        return mul(PACKED_TABLE, x, y, q)
    except coxeter.OutOfTableError:
        return None


@settings(max_examples=150, deadline=None)
@given(product_feedback_cases())
def test_products_fed_back_as_operands_match_the_recursion(case):
    starts, steps = case
    pool = [(x, x) for x in starts]  # (hecke_mul's element, the oracle's)
    for i, j, q, read in steps:
        (x, x_oracle), (y, y_oracle) = pool[i % len(pool)], pool[j % len(pool)]
        product = _product_or_escape(hecke_mul, x, y, q)
        oracle = _product_or_escape(hecke_mul_recursion, x_oracle, y_oracle, q)
        assert (product is None) == (oracle is None)
        if product is not None:
            assert product == oracle
            if read:
                product.terms
            pool.append((product, oracle))


TWISTED_TABLES = {tag: coxeter.enumerate_elements(coxeter.build_system(tag), 6) for tag in ("A2t", "C2t", "G2t")}


def _twisted_reps(system):
    """Every character at q formal, 2 and 1/2, and the 2-dimensional q = 2
    representation diag(2, -1) of every generator, ingested through JSON."""
    rep_2dim = {"dim": 2, "scalar": "rational", "q": 2,
                "generators": {"s%d" % (i + 1): [[2, 0], [0, -1]] for i in range(system.num_generators)}}
    return [dense_character(ch, q) for q in (None, 2, Fraction(1, 2)) for ch in characters(system)] + [
        representation_from_json(system, rep_2dim)]


TWISTED_REPS = {tag: _twisted_reps(t.system) for tag, t in TWISTED_TABLES.items()}


def _assert_same_twisted_sum(rep, elements):
    new, old = FiniteTwistedSeries(rep, elements).coeffs, finite_twisted_coeffs(rep, elements)
    assert new == old
    assert [type(a) for m in new for r in m.rows for a in r] == [type(a) for m in old for r in m.rows for a in r]


@st.composite
def twisted_sum_cases(draw):
    tag = draw(st.sampled_from(sorted(TWISTED_TABLES)))
    table = TWISTED_TABLES[tag]
    elements = draw(st.lists(st.sampled_from([el for layer in table.layers for el in layer]), min_size=1, max_size=12))
    return draw(st.sampled_from(TWISTED_REPS[tag])), elements


@settings(max_examples=200, deadline=None)
@given(twisted_sum_cases())
def test_twisted_sum_matches_the_per_element_oracle(case):
    _assert_same_twisted_sum(*case)


@pytest.mark.parametrize("tag", sorted(TWISTED_TABLES))
def test_twisted_sum_with_a_skipped_degree(tag):
    # layers 0, 1, 4 and 6: the coefficients of u^2, u^3 and u^5 are zero
    table = TWISTED_TABLES[tag]
    elements = [el for d in (0, 1, 4, 6) for el in table.layers[d]]
    for rep in TWISTED_REPS[tag]:
        coeffs = FiniteTwistedSeries(rep, elements).coeffs
        assert len(coeffs) == 7 and all(coeffs[d].is_zero() for d in (2, 3, 5))
        _assert_same_twisted_sum(rep, elements)


def test_twisted_group_sum_past_the_table_bound_raises():
    # the layers past the bound were read as a bare IndexError
    t = coxeter.enumerate_elements(coxeter.build_system("A2t"), 3)
    rep = characters(t.system)[0].as_representation()
    with pytest.raises(coxeter.OutOfTableError, match="order 5 is past the table bound 3"):
        rep.det_series_hook(t, 5)


def test_twisted_group_sum_of_an_exhausted_finite_group():
    # A2's layers end at its longest element (length 3), before order 5:
    # the sum is the whole group, (1 + qu)(1 + qu + q^2 u^2) for the all-q
    # character, padded with zeros
    t = coxeter.enumerate_elements(coxeter.build_system("A2"), 10)
    assert t.layer_sizes() == [1, 2, 2, 1]
    q = formal_q()
    rep = characters(t.system)[0].as_representation()
    det = rep.det_series_hook(t, 5)
    assert [det.coeff(d) for d in range(6)] == [QPolynomial.one(), 2 * q, 2 * q ** 2, q ** 3,
                                                 QPolynomial(), QPolynomial()]


# ---------------------------------------------------------------------------
# characters read off letter-class counts, against their dense 1x1 images

CHARACTER_QS = (None, 2, Fraction(1, 2), 3)


def _kinds(values):
    return [(type(c), tuple(map(type, c.coeffs)) if isinstance(c, QPolynomial) else ()) for c in values]


def _assert_same_scalars(got, want):
    """got equals want value by value and kind by kind, the q-coefficients' too."""
    assert list(got) == list(want)
    assert _kinds(got) == _kinds(want)


def _entries(series):
    return [m.rows[0][0] for m in series.coeffs]


@st.composite
def character_cases(draw):
    tag = draw(st.sampled_from(sorted(TWISTED_TABLES)))
    table = TWISTED_TABLES[tag]
    ch = draw(st.sampled_from(characters(table.system)))
    pool = [el for layer in table.layers for el in layer]
    elements = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=12))
    cyclic = draw(st.sampled_from(pool[1:]))
    return table, ch, draw(st.sampled_from(CHARACTER_QS)), elements, cyclic, draw(st.integers(0, table.bound))


@settings(max_examples=200, deadline=None)
@given(character_cases())
def test_character_routes_match_the_dense_oracle(case):
    table, ch, q, elements, cyclic, order = case
    rep, dense = ch.as_representation(q), dense_character(ch, q)
    assert rep.dim == dense.dim == 1
    _assert_same_scalars(rep.finite_series(elements, order).coeffs, _entries(dense.finite_series(elements, order)))
    _assert_same_scalars(rep.cyclic_series(cyclic, order).coeffs, _entries(dense.cyclic_series(cyclic, order)))
    for got, want in ((rep.finite_det_factor(elements), dense.finite_det_factor(elements)),
                      (rep.cyclic_det_factor(cyclic), dense.cyclic_det_factor(cyclic))):
        _assert_same_scalars(got.num.coeffs, want.num.coeffs)
        _assert_same_scalars(got.den.coeffs, want.den.coeffs)
    _assert_same_scalars(rep.det_series_hook(table, order).coeffs, dense.det_series_hook(table, order).coeffs)


def test_characters_are_never_validated(monkeypatch):
    def refuse(*args):
        raise AssertionError("validate_representation called")

    monkeypatch.setattr(hecke, "validate_representation", refuse)
    table = TWISTED_TABLES["C2t"]
    for ch in characters(table.system):
        for q in CHARACTER_QS:
            rep = ch.as_representation(q)
            assert rep.finite_det_factor(table.parabolic_elements((0, 1))) is not None
            assert rep.det_series_hook(table, 4).order == 4


def test_character_identities_build_only_the_cyclic_1x1_matrices(tables, monkeypatch):
    # the determinant identity builds one 1x1 Matrix per cyclic factor, for
    # char_matrix_det, and the twisted factorization builds none
    built = []
    init, of_rows = Matrix.__init__, Matrix.of_rows
    monkeypatch.setattr(Matrix, "__init__", lambda self, rows: built.append(rows) or init(self, rows))
    monkeypatch.setattr(Matrix, "of_rows", staticmethod(lambda rows: built.append(rows) or of_rows(rows)))
    for tag in sorted(TWISTED_TABLES):
        table = tables[tag]
        for ch in characters(table.system):
            built.clear()
            assert strips.verify_determinant_identity(table.system, ch.as_representation(), table).ok
            assert [len(rows) for rows in built] == [1, 1]
            built.clear()
            assert strips.verify_twisted_factorization(table, strips.scheme_for(tag), ch.as_representation(), 8).ok
            assert built == []
