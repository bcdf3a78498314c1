import json
import math
import random
from fractions import Fraction
from itertools import combinations, zip_longest

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from weylzeta import cli, coxeter, rootsys, series
from weylzeta.series import (
    ExponentMap,
    Matrix,
    Poly,
    PowerSeries,
    QPolynomial,
    RationalFunction,
    SeriesError,
    _power,
    alt_product_rational,
    binomial_product,
    char_matrix_det,
    det_poly_matrix,
    det_series,
    poincare_affine,
    poincare_parabolic,
    power_sum_exp,
    scalar_from_json,
)
from oracles import (
    _series_exp, binomial_factors_dense, dense_product, det_series_tracelog, evaluate, expand_recurrence,
    alt_product_alternating_sum, exponent_map_of_poly, extended_cartan, poincare_affine_alternating_sum,
    rational_sum, series_from_json, series_product, truncation,
)
from rings import assert_rule, ring_units, ring_values, rings, rule_kind, scalars_of


def rand_qpoly(rng, deg=4, lo=-5, hi=5):
    return QPolynomial([rng.randint(lo, hi) for _ in range(rng.randint(0, deg))])


def test_qpoly_ring_axioms_random():
    rng = random.Random(7)
    for _ in range(300):
        a, b, c = (rand_qpoly(rng) for _ in range(3))
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + QPolynomial() == a
        assert a * QPolynomial.one() == a


def test_qpoly_division_and_eval():
    q = QPolynomial.q()
    p = (q - 1) * (q ** 2 + 3)
    assert p.exact_div(q - 1) == q ** 2 + 3
    with pytest.raises(SeriesError):
        (q + 1).exact_div(q - 1)
    assert evaluate(p, 2) == (2 - 1) * (4 + 3)
    assert evaluate(p, Fraction(1, 2)) == Fraction(-13, 8)


def test_power_series_inverse_roundtrip():
    rng = random.Random(11)
    for _ in range(50):
        coeffs = [1] + [rng.randint(-4, 4) for _ in range(10)]
        ps = PowerSeries(coeffs, 10)
        prod = ps * ps.inverse()
        assert prod == PowerSeries([1] + [0] * 10, 10)


def test_power_series_zero_constant_has_no_inverse():
    with pytest.raises(SeriesError):
        PowerSeries([0, 1, 2], 2).inverse()


def test_rational_function_equality_and_expansion():
    # (1-u^2)/(1-u) == 1+u in unreduced form
    a = RationalFunction(Poly((1, 0, -1)), Poly((1, -1)))
    assert a == RationalFunction(Poly((1, 1)))
    assert list(a.expand(4).coeffs) == [1, 1, 0, 0, 0]
    geo = RationalFunction(Poly.one(), Poly((1, -1)))
    assert list(geo.expand(5).coeffs) == [1] * 6


def test_rational_function_binomial_factoring():
    f = RationalFunction(Poly((1, 0, 0, -1)) ** 2)  # (1-u^3)^2
    assert f.binomial_factors() == [(3, 2)]
    g = RationalFunction(Poly((1, 0, 0, -1)) ** 2, Poly((1, -1)))
    assert g.binomial_factors() == [(1, -1), (3, 2)]
    assert RationalFunction(Poly((1, 1))).binomial_factors() == [(1, -1), (2, 1)]


def test_binomial_factors_of_cyclotomic_phi6():
    # Phi_6 = (1-u)(1-u^6) / ((1-u^2)(1-u^3)): the largest factor exceeds
    # twice the reduced degree
    want = [(1, 1), (2, -1), (3, -1), (6, 1)]
    assert RationalFunction(Poly((1, -1, 1))).binomial_factors() == want
    b = [None] + [1 - Poly.u(d) for d in range(1, 7)]
    unreduced = RationalFunction(b[1] * b[6], b[2] * b[3])
    assert unreduced.binomial_factors() == want
    assert binomial_product(want).num == Poly((1, -1, 1))
    with pytest.raises(SeriesError):
        RationalFunction(Poly((1, 2))).reduced()


def _naive_product(factors):
    num, den = Poly.one(), Poly.one()
    for d, m in factors.items():
        if m > 0:
            num = num * (1 - Poly.u(d)) ** m
        else:
            den = den * (1 - Poly.u(d)) ** -m
    return num, den


exponent_maps = st.dictionaries(st.integers(1, 16), st.integers(-3, 3)).map(
    lambda m: {d: k for d, k in m.items() if k})


@settings(max_examples=60, deadline=None)
@given(exponent_maps, st.integers(-5, 5), st.integers(-5, 5))
def test_binomial_factors_peel_unreduced_products(factors, a, b):
    num, den = _naive_product(factors)
    common = Poly((1, a, b))
    rf = RationalFunction(num * common, den * common)
    assert rf.binomial_factors() == sorted(factors.items())
    assert RationalFunction(num * Poly((1, 2)), den).binomial_factors() is None
    low = binomial_product(factors)
    assert low.num * den == num * low.den


def test_binomial_factors_match_the_dense_peel_oracle():
    # the in-place peel against the peel on Poly values: seeded exponent
    # maps with negative exponents, unreduced and lowest-terms (Phi_e)
    # forms, and non-products, next to 1 + u = (1-u^2)/(1-u), Phi_6 and
    # rational and q-constant coefficients
    rng = random.Random(2807)
    b = [None] + [1 - Poly.u(d) for d in range(1, 7)]
    cases = [RationalFunction(Poly((1, 1))), RationalFunction(Poly((1, -1, 1))),
             RationalFunction(b[1] * b[6], b[2] * b[3]), RationalFunction(Poly((1, Fraction(-1, 2)))),
             RationalFunction(Poly([QPolynomial((1,)), QPolynomial((-1,))]), b[2]),
             RationalFunction(Poly([1, QPolynomial((0, 1))]))]
    products = []
    for _ in range(80):
        factors = {rng.randint(1, 9): rng.choice((-3, -2, -1, 1, 2, 3)) for _ in range(rng.randint(0, 3))}
        num, den = _naive_product(factors)
        common = Poly((1, rng.randint(-3, 3), rng.randint(-3, 3)))
        products += [(RationalFunction(num * common, den * common), factors), (binomial_product(factors), factors)]
        cases += [RationalFunction(num * Poly((1, rng.choice((2, -2, 3)))), den),
                  RationalFunction(num + Poly.u(rng.randint(1, 12), rng.choice((1, -1, 2))), den)]
    for rf, factors in products:
        assert rf.binomial_factors() == binomial_factors_dense(rf) == sorted(factors.items())
    peeled = [rf.binomial_factors() for rf in cases]
    assert peeled == [binomial_factors_dense(rf) for rf in cases]
    phi6 = [(1, 1), (2, -1), (3, -1), (6, 1)]
    assert peeled[:6] == [[(1, -1), (2, 1)], phi6, phi6, None, [(1, 1), (2, -1)], None]
    assert 40 < peeled.count(None) < len(peeled)


@settings(max_examples=80, deadline=None)
@given(exponent_maps, exponent_maps)
def test_exponent_maps_match_rational_functions(a, b):
    # map products, quotients, equality and truncation against the lowest
    # terms of binomial_product with RationalFunction cross-multiplication
    ma, mb = ExponentMap(a), ExponentMap(b)
    ra, rb = binomial_product(a), binomial_product(b)
    assert binomial_product((ma * mb).exponents) == ra * rb
    assert binomial_product((ma / mb).exponents) == ra * rb.inverse()
    assert (ma == mb) == (ra == rb) == (a == b)
    assert ma.expand(20) == ra.expand(20)
    assert str(ma) == str(ra)
    if all(m > 0 for m in a.values()):
        assert ma.as_polynomial() == ra.num
    # the exact peel of the unreduced num/den recovers the map
    quotient = ma / mb
    top = ExponentMap({d: m for d, m in quotient.exponents.items() if m > 0})
    unreduced = RationalFunction(top.as_polynomial(), (top / quotient).as_polynomial())
    assert ExponentMap(unreduced.binomial_factors()) == quotient


@settings(max_examples=40, deadline=None)
@given(exponent_maps, st.integers(-3, 3).filter(bool), st.integers(2, 4))
def test_exponent_map_of_poly_refuses_a_block_that_does_not_peel(a, k, c):
    # 1 + c u has a root off the unit circle, so neither it nor its product
    # with a binomial product peels: the peel raises instead of keeping it
    block = Poly((1, c))
    product = ExponentMap({d: m for d, m in a.items() if m > 0}).as_polynomial()
    for poly in (block, product * block):
        with pytest.raises(SeriesError, match="not a product of"):
            exponent_map_of_poly(poly, k)


def test_exponent_map_of_poly_peels_and_rejects():
    assert exponent_map_of_poly(Poly((1, 0, -1)) * Poly((1, -1)), 3) == ExponentMap({1: 3, 2: 3})
    assert exponent_map_of_poly(Poly.one(), 5).exponents == {}
    assert ExponentMap({4: 2}).first_difference(ExponentMap({4: 2, 2: -1})) == 2
    assert ExponentMap({4: 2}).first_difference(ExponentMap({4: 2})) is None
    with pytest.raises(SeriesError):
        ExponentMap({1: -1}).as_polynomial()
    with pytest.raises(SeriesError):
        ExponentMap({0: 1})


@settings(max_examples=40, deadline=None)
@given(exponent_maps, st.integers(1, 4))
def test_substitute_power(a, m):
    # the map at u^m is the expansion spread out to every m-th degree
    spread = ExponentMap(a).substitute_power(m).expand(4 * m)
    assert list(spread.coeffs[::m]) == list(ExponentMap(a).expand(4).coeffs)
    assert all(c == 0 for d, c in enumerate(spread.coeffs) if d % m)
    with pytest.raises(SeriesError):
        ExponentMap(a).substitute_power(0)


# ---------------------------------------------------------------------------
# determinants


def test_det_series_constant_identity():
    ident = Matrix.identity(3)
    ps = PowerSeries([ident] + [Matrix.identity(3) * 0] * 5, 5)
    assert list(det_series(ps).coeffs) == [1, 0, 0, 0, 0, 0]


def test_det_series_nilpotent():
    # N^2 = 0 forces det(I - N u) = 1 exactly
    n = Matrix([[0, 1], [0, 0]])
    ps = PowerSeries([Matrix.identity(2), -1 * n] + [Matrix.identity(2) * 0] * 4, 5)
    assert list(det_series(ps).coeffs) == [1, 0, 0, 0, 0, 0]


def test_det_series_scalar_case():
    ps = PowerSeries([Matrix([[1]]), Matrix([[-3]])] + [Matrix([[0]])] * 4, 5)
    assert list(det_series(ps).coeffs) == [1, -3, 0, 0, 0, 0]


def test_det_series_rejects_bad_constant_term():
    ps = PowerSeries([Matrix([[2]])] + [Matrix([[0]])] * 3, 3)
    with pytest.raises(SeriesError):
        det_series(ps)


def rand_matrix_series(rng, dim, order):
    coeffs = [Matrix.identity(dim)]
    for _ in range(order):
        coeffs.append(Matrix([[rng.randint(-2, 2) for _ in range(dim)] for _ in range(dim)]))
    return PowerSeries(coeffs, order)


def test_det_series_multiplicative_random_3x3():
    rng = random.Random(23)
    for _ in range(12):
        a = rand_matrix_series(rng, 3, 12)
        b = rand_matrix_series(rng, 3, 12)
        lhs = det_series(a * b)
        rhs = det_series(a) * det_series(b)
        assert lhs == rhs


def test_det_series_keeps_int_entries_int():
    rng = random.Random(3)
    det = det_series(rand_matrix_series(rng, 3, 8))
    assert all(type(c) is int for c in det.coeffs)


# one coefficient ring per drawn matrix series: Z, Q or Z[q]
coefficient_rings = {
    "int": st.integers(-4, 4),
    "fraction": st.fractions(min_value=-3, max_value=3, max_denominator=4),
    "qpoly": st.lists(st.integers(-3, 3), max_size=3).map(QPolynomial),
}


@st.composite
def unit_matrix_series(draw):
    """I + sum_d M_d u^d over one coefficient ring, with each M_d drawn,
    zero, or a fixed nilpotent N (N^2 = 0)."""
    ring = draw(st.sampled_from(sorted(coefficient_rings)))
    n = draw(st.integers(1, 4))
    order = draw(st.integers(0, 10))
    scalar = coefficient_rings[ring]
    one = QPolynomial.one() if ring == "qpoly" else 1
    # N = v w^T with w = (-v_1, v_0, 0, ...), so w . v = 0 (N = 0 at n = 1)
    v = draw(st.lists(st.integers(-2, 2), min_size=n, max_size=n))
    w = [-v[1], v[0]] + [0] * (n - 2) if n > 1 else [0]
    nil = Matrix([[vi * wj * one for wj in w] for vi in v])
    assert (nil * nil).is_zero()
    coeffs = [Matrix.identity(n, one)]
    for _ in range(order):
        kind = draw(st.sampled_from(("drawn", "zero", "nilpotent")))
        if kind == "drawn":
            coeffs.append(Matrix(draw(st.lists(st.lists(scalar, min_size=n, max_size=n),
                                               min_size=n, max_size=n))))
        else:
            coeffs.append(Matrix.identity(n) * 0 if kind == "zero" else nil)
    return PowerSeries(coeffs, order)


@settings(max_examples=100, deadline=None)
@given(unit_matrix_series())
def test_det_series_matches_tracelog_oracle(ps):
    det = det_series(ps)
    assert det.order == ps.order
    assert det == det_series_tracelog(ps)


def test_det_poly_matrix_matches_char_det():
    rng = random.Random(5)
    for _ in range(20):
        dim = rng.randint(1, 4)
        m = Matrix([[rng.randint(-3, 3) for _ in range(dim)] for _ in range(dim)])
        rows = [
            [Poly([1 if i == j else 0, -m.rows[i][j]]) for j in range(dim)]
            for i in range(dim)
        ]
        assert det_poly_matrix(rows) == char_matrix_det(m, 1)


def test_det_poly_matrix_qpoly_entries():
    q = QPolynomial.q()
    rows = [
        [Poly([QPolynomial.one(), -q]), Poly([q])],
        [Poly([QPolynomial()]), Poly([QPolynomial.one(), q])],
    ]
    det = det_poly_matrix(rows)
    assert det == Poly([QPolynomial.one(), QPolynomial() + q - q, -(q * q)])


def test_det_poly_matrix_agrees_with_truncated_route():
    rng = random.Random(31)
    for _ in range(10):
        dim = 3
        polys = [
            [Poly([1 if i == j else 0] + [rng.randint(-2, 2) for _ in range(2)]) for j in range(dim)]
            for i in range(dim)
        ]
        exact = det_poly_matrix(polys)
        order = 8
        entries = [[truncation(p, order).coeffs for p in row] for row in polys]
        coeffs = [
            Matrix([[entries[i][j][d] for j in range(dim)] for i in range(dim)])
            for d in range(order + 1)
        ]
        assert det_series(PowerSeries(coeffs, order)) == truncation(exact, order)


# ---------------------------------------------------------------------------
# Poincare series of groups


def test_parabolic_examples(tables):
    t = tables["A2t"]
    assert poincare_parabolic(t, ()) == Poly.one()
    assert poincare_parabolic(t, (0, 1)) == Poly((1, 2, 2, 1))
    g = tables["G2t"]
    assert poincare_parabolic(g, (1, 2)) == Poly((1, 2, 1))


def test_finite_alternating_sum_is_top_length():
    # sum over subsets of (-1)^|I| W(u)/W_I(u) collapses to u^(longest length)
    for tag, top in (("A2", 3), ("B2", 4), ("G2", 6), ("A1", 1)):
        system = coxeter.build_system(tag)
        table = coxeter.enumerate_elements(system, top + 1)
        k = system.num_generators
        w_full = RationalFunction(poincare_parabolic(table, range(k)))
        terms = [((-1) ** size) * w_full * RationalFunction(Poly.one(), poincare_parabolic(table, sub))
                 for size in range(k + 1) for sub in combinations(range(k), size)]
        assert rational_sum(terms) == RationalFunction(Poly.u(top))


def test_affine_series_examples():
    w, ps = poincare_affine(coxeter.build_system("A2t"), 8)
    want = RationalFunction(Poly((1, 1)) * Poly((1, 1, 1)), Poly((1, -1)) * Poly((1, 0, -1)))
    assert binomial_product(w.exponents) == want
    assert list(ps.coeffs) == [1, 3, 6, 9, 12, 15, 18, 21, 24]

    w1, ps1 = poincare_affine(coxeter.build_system("A1t"), 6)
    assert binomial_product(w1.exponents) == RationalFunction(Poly((1, 1)), Poly((1, -1)))
    assert list(ps1.coeffs) == [1, 2, 2, 2, 2, 2, 2]

    for tag in ("A2t", "C2t", "G2t"):
        _, ps = poincare_affine(coxeter.build_system(tag), 4)
        assert ps.coeff(0) == 1


def test_alt_product_closed_forms():
    want = {
        "A2t": [(3, 2)],
        "C2t": [(3, 1), (4, 1)],
        "G2t": [(3, 1), (5, 1)],
    }
    for tag, factors in want.items():
        alt = alt_product_rational(coxeter.build_system(tag))
        assert sorted(alt.inverse().exponents.items()) == factors


def test_series_json_shape():
    from weylzeta.series import series_to_json

    w, ps = poincare_affine(coxeter.build_system("A1t"), 4)
    obj = series_to_json(binomial_product(w.exponents), ps)
    assert obj == {"num": [1, 1], "den": [1, -1], "coeffs": [1, 2, 2, 2, 2], "order": 4}


def test_series_json_roundtrip():
    from weylzeta.series import series_to_json

    w, ps = poincare_affine(coxeter.build_system("A2t"), 6)
    rf = binomial_product(w.exponents)
    obj = series_to_json(rf, ps)
    rf2, ps2 = series_from_json(obj)
    assert rf2 == rf and list(ps2.coeffs) == list(ps.coeffs)
    # rational entries serialize as [num, den] pairs
    half = RationalFunction(Poly((1, Fraction(1, 2))))
    obj2 = series_to_json(half, half.expand(3))
    assert obj2["num"] == [1, [1, 2]]
    rf3, _ = series_from_json(obj2)
    assert rf3 == half


def test_affine_series_rejects_infinite_parabolic():
    # every pair of generators has an infinite bond and det C = -32, so the
    # system is not affine, and the closed form refuses it rather than
    # summing over parabolics that do not close
    hyper = coxeter.CoxeterSystem("hyperbolic", ((2, -2, -2), (-2, 2, -2), (-2, -2, 2)))
    assert not hyper.is_affine
    with pytest.raises(SeriesError):
        poincare_affine(hyper, 6)


def _affine_systems(tables):
    """(system, table to length 24) for the built-in affine types and for
    affine systems known only by their Cartan matrices; in the reversed
    C2t and G2t the first two nodes span no copy of W0."""
    systems = [coxeter.build_system(tag) for tag in ("A1t", "A2t", "C2t", "G2t")]
    systems += [coxeter.CoxeterSystem("%s2-extended" % f, extended_cartan(f, 2)) for f in "ACG"]
    for tag in ("C2t", "G2t"):
        cartan = [row[::-1] for row in coxeter.build_system(tag).cartan[::-1]]
        systems.append(coxeter.CoxeterSystem(tag + "-reversed", cartan))
    return [(system, tables.get(system.type_tag) or coxeter.enumerate_elements(system, 24)) for system in systems]


def test_affine_series_and_alt_products_match_the_alternating_sum(tables):
    # Bott's formula and the product of exponent maps against the
    # alternating sum over the proper parabolics
    for system, table in _affine_systems(tables):
        w, ps = poincare_affine(system, 24)
        want = poincare_affine_alternating_sum(system, table)
        assert binomial_product(w.exponents) == want and str(w) == str(want), system
        assert ps == want.expand(24), system
        alt = alt_product_rational(system)
        want = alt_product_alternating_sum(system, table)
        assert binomial_product(alt.exponents) == want and str(alt) == str(want), system


def test_parabolic_height_maps_match_the_table_peel(tables):
    # G2t's {s2, s3} is A1 x A1: two roots of height 1 and no unique
    # highest root, which positive_roots' checks would refuse
    c = coxeter.build_system("G2t").cartan
    assert rootsys.root_heights([[c[i][j] for j in (1, 2)] for i in (1, 2)]) == {(1, 0): 1, (0, 1): 1}
    for system, table in _affine_systems(tables):
        maps, _, _ = series._affine_maps(system, 24)
        assert sorted(maps) == sorted(coxeter.all_proper_subsets(system.num_generators)), system
        for subset, w in maps.items():
            assert w == exponent_map_of_poly(poincare_parabolic(table, subset)), (system, subset)


def test_affine_lines_enumerate_nothing(tables, monkeypatch, capsys):
    # the parabolics come from root heights and W(u) is checked against
    # the streaming layer count, so with enumeration refused every value,
    # the CLI's included, still equals the alternating-sum oracles
    want = [(system, poincare_affine_alternating_sum(system, table), alt_product_alternating_sum(system, table))
            for system, table in _affine_systems(tables)]

    def no_enumeration(*args, **kwargs):
        raise AssertionError("enumerate_elements called")

    monkeypatch.setattr(coxeter, "enumerate_elements", no_enumeration)
    for system, w, alt in want:
        got, ps = poincare_affine(system, 30)
        assert binomial_product(got.exponents) == w and str(got) == str(w) and ps == w.expand(30), system
        got = alt_product_rational(system)
        assert binomial_product(got.exponents) == alt and str(got) == str(alt), system
        tag = system.type_tag
        if tag not in ("A1t", "A2t", "C2t", "G2t"):
            continue
        inv = alt.inverse()
        for fmt in ("text", "json"):
            assert cli.main(["alt", "--type", tag, "--format", fmt]) == 0
            out = capsys.readouterr().out
            assert cli.main(["poincare", "--type", tag, "--trunc", "30", "--format", fmt]) == 0
            out_poincare = capsys.readouterr().out
            if fmt == "text":
                assert out.splitlines()[1] == "alt_inverse: %s" % inv, tag
                assert out_poincare.splitlines()[1:] == [
                    "rational: %s" % w, "coefficients (to u^30): %s" % " ".join(map(str, ps.coeffs))], tag
            else:
                assert json.loads(out)["binomial_factors"] == [list(f) for f in inv.binomial_factors()], tag
                lowest = binomial_product(w.binomial_factors())
                assert json.loads(out_poincare)["series"] == series.series_to_json(lowest, w.expand(30)), tag


def test_exact_division_makes_fractions_from_a_fraction_operand():
    # a quotient of two ints is an int when it is whole; a Fraction on
    # either side, in any coefficient, makes every coefficient a Fraction,
    # a whole one too
    for a, b in ((Poly([Fraction(2), Fraction(4)]), Poly([2])), (Poly([2, 4]), Poly([Fraction(2)])),
                 (Poly([Fraction(2), 4]), Poly([2]))):
        quotient = a.exact_div(b)
        assert quotient == Poly([1, 2]) and str(quotient) == "1 + 2*u"
        assert [type(c) for c in quotient.coeffs] == [Fraction, Fraction]
    assert [type(c) for c in Poly([Fraction(2), 2]).exact_div(Poly([1, 1])).coeffs] == [Fraction]
    assert [type(c) for c in Poly([2, 4]).exact_div(Poly([2])).coeffs] == [int, int]
    quotient = Poly([QPolynomial((0, 2)), 2]).exact_div(Poly([2]))
    assert quotient.coeffs == (QPolynomial((0, 1)), 1) and [type(c) for c in quotient.coeffs] == [QPolynomial] * 2
    power_sums = ExponentMap({1: 2, 3: -1}).power_sums(9)
    assert [type(c) for c in power_sum_exp(power_sums, 9).coeffs] == [int] * 10
    series = power_sum_exp([8, -3, -1], 3)
    assert series.coeffs == (1, 8, Fraction(61, 2), 73) and [type(c) for c in series.coeffs] == [Fraction] * 4
    half = RationalFunction(Poly([1]), Poly([Fraction(-1)]))
    assert [type(c) for c in half.num.coeffs + half.den.coeffs] == [Fraction, Fraction]


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(rings).flatmap(lambda ring: st.tuples(
    st.lists(ring_values[ring], max_size=5), st.lists(ring_values[ring], min_size=1, max_size=4))))
def test_exact_division_follows_the_type_rule(case):
    a, b = case
    x, y = Poly(a), Poly(b)
    assume(not y.is_zero())
    product = x * y
    assert_rule(product.exact_div(y).coeffs, x.coeffs, rule_kind(product.coeffs + y.coeffs))


def test_det_poly_matrix_fraction_entries():
    rows = [
        [Poly((1, Fraction(1, 2))), Poly((Fraction(1, 3),))],
        [Poly((0, 1)), Poly((1, -2))],
    ]
    det = det_poly_matrix(rows)
    # (1 + u/2)(1 - 2u) - u/3 = 1 - (11/6) u - u^2
    assert det == Poly((1, Fraction(-11, 6), -1))


def test_berkowitz_matches_evaluation_route():
    # 3x3 determinant over q-polynomials, checked by specializing q
    import random as _random

    rng = _random.Random(13)
    q = QPolynomial.q()
    for _ in range(5):
        polys = [
            [
                Poly([QPolynomial([rng.randint(-2, 2), rng.randint(-1, 1)]) for _ in range(2)])
                for _ in range(3)
            ]
            for _ in range(3)
        ]
        det = det_poly_matrix(polys)
        for qval in (0, 1, 2, Fraction(1, 2)):
            specialized = [
                [Poly([evaluate(c, qval) for c in e.coeffs]) for e in row]
                for row in polys
            ]
            want = det_poly_matrix(specialized)
            got = Poly([evaluate(c, qval) if isinstance(c, QPolynomial) else c for c in det.coeffs])
            assert got == want, qval


def _det_berkowitz(rows):
    """Division-free determinant over any commutative ring: the oracle
    for the Bareiss route of det_poly_matrix."""
    n = len(rows)
    one = Poly.one()
    zero = Poly()
    # Berkowitz: iteratively build the characteristic-polynomial vector of
    # leading principal submatrices; determinant is the last entry up to sign.
    vec = [one, -rows[0][0]]
    for m in range(1, n):
        a = rows[m][m]
        row = [Poly.coerce(rows[m][j]) for j in range(m)]
        col = [Poly.coerce(rows[j][m]) for j in range(m)]
        sub = [[Poly.coerce(rows[i][j]) for j in range(m)] for i in range(m)]
        powers = [col]
        for _ in range(m - 1):
            prev = powers[-1]
            powers.append([
                sum((sub[i][j] * prev[j] for j in range(m)), zero) for i in range(m)
            ])
        c = [one, -a]
        for k in range(1, m + 1):
            dot = sum((row[j] * powers[k - 1][j] for j in range(m)), zero)
            c.append(-dot)
        new = [zero] * (m + 2)
        for i, ci in enumerate(c):
            if ci.is_zero():
                continue
            for j, vj in enumerate(vec):
                if i + j <= m + 1:
                    new[i + j] = new[i + j] + ci * vj
        # toeplitz multiply truncates correctly because len(vec) == m+1
        vec = new
    det = vec[n]
    return det if n % 2 == 0 else -det


def poly_matrices(ring):
    """n x n matrices of u-polynomials, n in 2..4, over one ring of tests/rings.py."""
    return st.integers(2, 4).flatmap(lambda n: st.lists(
        st.lists(st.lists(ring_values[ring], max_size=3), min_size=n, max_size=n),
        min_size=n, max_size=n))


def _det_matches_berkowitz(rows):
    """det_poly_matrix equals the Berkowitz oracle, its coefficients of
    one kind by the int-row rule; returns it."""
    det = det_poly_matrix(rows)
    polys = [[Poly.coerce(entry) for entry in row] for row in rows]
    assert_rule(det.coeffs, _det_berkowitz(polys).coeffs, rule_kind([c for row in polys for p in row for c in p.coeffs]))
    return det


# matrices of plain ints, which det_poly_matrix takes as their own packed ints
int_matrices = st.integers(2, 4).flatmap(lambda n: st.lists(
    st.lists(st.integers(-9, 9), min_size=n, max_size=n), min_size=n, max_size=n))


@settings(max_examples=120, deadline=None)
@given(st.one_of(st.sampled_from(rings).flatmap(poly_matrices).map(
    lambda coeff_rows: [[Poly(cs) for cs in row] for row in coeff_rows]), int_matrices),
       st.sampled_from(("drawn", "zero_pivot", "equal_rows", "zero_column")))
def test_bareiss_det_matches_berkowitz(rows, shape):
    plain = type(rows[0][0]) is int
    zero, one = (0, 1) if plain else (Poly(), Poly.one())
    if shape == "zero_pivot":
        # the first pivot is zero and a lower row can replace it
        rows[0][0] = zero
        if rows[-1][0] == zero:
            rows[-1][0] = one
    elif shape == "equal_rows":
        rows[-1] = list(rows[0])
    elif shape == "zero_column":
        for row in rows:
            row[0] = zero
    det = _det_matches_berkowitz(rows)
    if shape in ("equal_rows", "zero_column"):
        assert det == Poly()
    if plain:  # the same value, kinds and str as the matrix of constant polynomials
        packed = det_poly_matrix([[Poly.coerce(entry) for entry in row] for row in rows])
        assert det.coeffs == packed.coeffs and str(det) == str(packed)
        assert [type(c) for c in det.coeffs] == [type(c) for c in packed.coeffs]


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(rings).flatmap(poly_matrices))
def test_hadamard_packing_bound_holds_on_every_minor(coeff_rows):
    # det_poly_matrix packs at 2^b with 2^(b-1) above the Hadamard bound:
    # every coefficient of every minor of the rows, each row scaled by the
    # lcm of its denominators, must stay below 2^(b-1); the minors come
    # from Berkowitz.  b is read from the one unpacking call.
    rows = [[Poly(cs) for cs in row] for row in coeff_rows]
    bits, unpack = [], series.signed_digits
    series.signed_digits = lambda packed, b: bits.append(b) or unpack(packed, b)
    try:
        _det_matches_berkowitz(rows)
    finally:
        series.signed_digits = unpack
    assume(bits)  # no unpacking when a pivot column is zero
    scaled = []
    for row in rows:
        lcm = math.lcm(*(Fraction(x).denominator for x in scalars_of([c for p in row for c in p.coeffs])))
        scaled.append([p * lcm for p in row])
    n, top = len(rows), 2 ** (bits[0] - 1)
    for size in range(1, n + 1):
        for picked in combinations(range(n), size):
            for cols in combinations(range(n), size):
                minor = _det_berkowitz([[scaled[i][j] for j in cols] for i in picked])
                for x in scalars_of(minor.coeffs):
                    assert abs(x) < top, (picked, cols, x, bits)


@st.composite
def near_bound_matrices(draw):
    """Diagonal and triangular matrices of monomials +-2^k u^d, over Z[u],
    Z[q][u] (times q^e, e <= 3) or Q[u] (over a denominator), with zero
    entries off the diagonal and, when drawn, the first row moved down so
    that the first pivot is zero.  On a diagonal matrix the determinant
    has the packing bound prod_i |a_ii|_1 as its coefficient."""
    n = draw(st.integers(2, 4))
    ring = draw(st.sampled_from(("int", "qpoly", "fraction")))
    shape = draw(st.sampled_from(("diagonal", "lower", "upper")))

    def monomial():
        c = draw(st.sampled_from((1, -1))) * 2 ** draw(st.integers(0, 40))
        if ring == "qpoly":
            c = QPolynomial((0,) * draw(st.integers(0, 3)) + (c,))
        elif ring == "fraction":
            c = Fraction(c, draw(st.sampled_from((1, 3, 4, 6))))
        return Poly((0,) * draw(st.integers(0, 3)) + (c,))

    rows = [[Poly()] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            off_diagonal = (shape == "lower" and j < i) or (shape == "upper" and j > i)
            if i == j or (off_diagonal and draw(st.booleans())):
                rows[i][j] = monomial()
    if draw(st.booleans()):
        rows.append(rows.pop(0))
    return rows


@settings(max_examples=150, deadline=None)
@given(near_bound_matrices())
def test_packed_det_is_exact_at_the_bound(rows):
    # the Kronecker packing has one bit of room: a coefficient equal to
    # the bound must unpack with its sign
    _det_matches_berkowitz(rows)


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 12).flatmap(lambda order: st.lists(
    st.one_of(st.integers(-9, 9), st.fractions(min_value=-5, max_value=5, max_denominator=6)),
    min_size=order, max_size=order)))
def test_power_sum_exp_matches_fraction_oracle(power_sums):
    order = len(power_sums)
    log_coeffs = [Fraction(0)] + [Fraction(p) / k for k, p in enumerate(power_sums, 1)]
    got = power_sum_exp(power_sums, order)
    assert got == _series_exp(log_coeffs, order)
    # ints only from ints: int power sums of a series with whole
    # coefficients make ints, and a Fraction power sum makes a Fraction of
    # every coefficient from its degree on
    first = next((k for k, p in enumerate(power_sums, 1) if type(p) is Fraction), order + 1)
    if first > order and all(c.denominator == 1 for c in got.coeffs):
        assert all(type(c) is int for c in got.coeffs)
    assert all(type(c) is Fraction for c in got.coeffs[first:])


# one coefficient ring per drawn rational function, with a nonzero
# constant for the denominator (a unit in Q, or a constant q-polynomial)
expansion_rings = {
    "int": (st.integers(-6, 6), st.integers(-3, 3).filter(bool)),
    "fraction": (st.fractions(min_value=-4, max_value=4, max_denominator=5),
                 st.fractions(min_value=-3, max_value=3, max_denominator=4).filter(bool)),
    "qpoly": (st.lists(st.integers(-3, 3), max_size=3).map(QPolynomial),
              st.integers(-3, 3).filter(bool).map(lambda c: QPolynomial((c,)))),
}


@st.composite
def rational_expansions(draw):
    coeffs, units = expansion_rings[draw(st.sampled_from(sorted(expansion_rings)))]
    num = draw(st.lists(coeffs, max_size=34))
    den = [draw(units)] + draw(st.lists(coeffs, max_size=34))
    return RationalFunction(Poly(num), Poly(den)), draw(st.integers(0, 30))


@settings(max_examples=120, deadline=None)
@given(rational_expansions())
def test_expand_matches_inverse_times_numerator(case):
    # the recurrence against inverting den and multiplying; same values
    # and same types, so every printed coefficient is unchanged
    rf, order = case
    got = rf.expand(order)
    want = truncation(rf.den, order).inverse() * truncation(rf.num, order)
    assert got.order == want.order == order
    assert got.coeffs == want.coeffs
    assert [type(c) for c in got.coeffs] == [type(c) for c in want.coeffs]


def test_scalar_from_json_is_exact():
    assert scalar_from_json(3) == 3
    assert scalar_from_json([6, 4]) == Fraction(3, 2)
    whole = scalar_from_json([4, -2])
    assert whole == -2 and type(whole) is int
    for bad in ([4, 0], 0.5, True, [1, 2, 3], [1.0, 2], "1", None):
        with pytest.raises(SeriesError):
            scalar_from_json(bad)


def test_series_from_json_rejects_floats():
    with pytest.raises(SeriesError):
        series_from_json({"num": [1], "den": [1, -0.5], "coeffs": [1, [1, 2]], "order": 1})


# differential check of the one dense polynomial body: QPolynomial over
# int/Fraction and Poly over int/Fraction/QPolynomial against a naive map
# (u-degree, q-degree) -> nonzero Fraction

q_scalars = st.one_of(st.integers(-4, 4), st.fractions(min_value=-3, max_value=3, max_denominator=4))
qpolys = st.lists(q_scalars, max_size=4).map(QPolynomial)
u_scalars = st.one_of(q_scalars, qpolys)
upolys = st.lists(u_scalars, max_size=4).map(Poly)
# variable name -> (polynomials, scalars)
dense_rings = {"q": (qpolys, q_scalars), "u": (upolys, u_scalars)}


def _ref(x):
    if isinstance(x, Poly):
        out = {}
        for i, c in enumerate(x.coeffs):
            out = _ref_add(out, {(i, j): v for (_, j), v in _ref(c).items()})
        return out
    if isinstance(x, QPolynomial):
        return {(0, j): Fraction(c) for j, c in enumerate(x.coeffs) if c}
    return {(0, 0): Fraction(x)} if x else {}


def _ref_add(a, b):
    out = dict(a)
    for k, v in b.items():
        out[k] = out.get(k, 0) + v
    return {k: v for k, v in out.items() if v}


def _ref_mul(a, b):
    out = {}
    for (i, j), v in a.items():
        for (k, m), w in b.items():
            out[i + k, j + m] = out.get((i + k, j + m), 0) + v * w
    return {k: v for k, v in out.items() if v}


def _dense_case(var):
    polys, scalars = dense_rings[var]
    return st.tuples(polys, polys, scalars, st.integers(0, 4))


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(sorted(dense_rings)).flatmap(_dense_case))
def test_dense_polynomials_match_reference(case):
    a, b, s, n = case
    ra, rb = _ref(a), _ref(b)
    for value in (a + b, a - b, a * b, a * s, s * a, a ** n):
        assert type(value) is type(a)
        assert not value.coeffs or value.coeffs[-1] != 0
    assert _ref(a + b) == _ref_add(ra, rb)
    assert _ref(a - b) == _ref_add(ra, {k: -v for k, v in rb.items()})
    assert _ref(a * b) == _ref_mul(ra, rb)
    assert _ref(a * s) == _ref(s * a) == _ref_mul(ra, _ref(s))
    power = {(0, 0): 1}
    for _ in range(n):
        power = _ref_mul(power, ra)
    assert _ref(a ** n) == power
    if not b.is_zero():
        assert (a * b).exact_div(b) == a
    assert (a == b) == (ra == rb)
    assert a == type(a)(a.coeffs + (0,)) and type(a)((s,)) == s


@given(q_scalars)
def test_constant_polynomials_hash_like_their_coefficient(c):
    assert hash(QPolynomial((c,))) == hash(c)
    assert hash(Poly((QPolynomial((c,)),))) == hash(Poly((c,)))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(-3, 3), min_size=4, max_size=4),
       st.lists(st.integers(-3, 3), max_size=3), st.lists(st.integers(-3, 3), max_size=3),
       st.integers(0, 4))
def test_power_matches_repeated_products(entries, num, den_tail, n):
    m = Matrix((entries[:2], entries[2:]))
    prod = Matrix.identity(2)
    for _ in range(n):
        prod = prod * m
    assert _power(m, n, Matrix.identity(2)) == prod
    rf = RationalFunction(Poly(num), Poly([1] + den_tail))
    prod, inv = RationalFunction(Poly.one()), RationalFunction(Poly.one())
    for _ in range(n):
        prod = prod * rf
        if num and num[0]:
            inv = inv * rf.inverse()
    assert _power(rf, n, RationalFunction(Poly.one())) == prod
    if num and num[0]:
        assert _power(rf.inverse(), n, RationalFunction(Poly.one())) == inv


def test_matrix_equality_compares_shapes():
    square, wide = Matrix([[1, 2], [3, 4]]), Matrix([[1, 2, 5], [3, 4, 6]])
    assert square != wide and wide != square
    assert Matrix([[1, 2]]) != Matrix([[1, 2], [0, 0]])
    assert square == Matrix([[Fraction(1), 2], [3, QPolynomial((4,))]])
    assert hash(square) == hash(Matrix([[Fraction(1), 2], [3, QPolynomial((4,))]]))


def test_constants_hash_like_the_scalars_they_equal():
    # a constant polynomial compares equal to its coefficient, so it must
    # hash like it: a set or dict holds the two as one key
    for cls in (Poly, QPolynomial):
        for c in (3, Fraction(3, 2), Fraction(4, 2), QPolynomial((3,)), QPolynomial((Fraction(1, 3),)), 0):
            p = cls.coerce(c)
            assert p == c and hash(p) == hash(c) and len({p, c}) == 1
        assert len({cls(), 0, Fraction(0), QPolynomial(())}) == 1
        assert len({cls.coerce(3), 3, Fraction(3), QPolynomial((3,))}) == 1


def test_poly_coefficients_are_scalars_only():
    with pytest.raises(TypeError):
        Poly.coerce(Matrix.identity(2))
    with pytest.raises(TypeError):
        Poly.one() * Matrix.identity(2)


# differential check of the common-denominator int rows (the dense product,
# RationalFunction.expand, the product of power series) against the nested
# loops they replaced, kept in oracles: the values agree, and the types
# follow the one rule (tests/rings.py).

@settings(max_examples=150, deadline=None)
@given(st.sampled_from(rings).flatmap(lambda ring: st.tuples(
    st.just(ring), st.lists(ring_values[ring], max_size=6), st.lists(ring_values[ring], max_size=6))))
@example(("Q", [1, Fraction(1, 2)], [2]))
def test_int_row_products_match_nested_loop(case):
    ring, a, b = case
    for cls in (Poly, QPolynomial) if ring in ("Z", "Q") else (Poly,):
        x, y = cls(a), cls(b)
        got = x * y
        assert_rule(got.coeffs, dense_product(x, y).coeffs, rule_kind(x.coeffs + y.coeffs))
        assert type(got) is cls and (not got.coeffs or got.coeffs[-1] != 0)
        for c in b[:1]:  # a scalar is the constant polynomial, on either side
            want = dense_product(x, cls((c,))).coeffs
            assert_rule((x * c).coeffs, want, rule_kind(x.coeffs + (c,)))
            assert_rule((c * x).coeffs, want, rule_kind(x.coeffs + (c,)))


@st.composite
def expansion_cases(draw):
    ring = draw(st.sampled_from(rings))
    num = draw(st.one_of(st.just([]), st.lists(ring_values[ring], max_size=8)))
    den = [draw(ring_units[ring])] + draw(st.lists(ring_values[ring], max_size=8))
    return RationalFunction(Poly(num), Poly(den)), draw(st.integers(0, 12))


@settings(max_examples=150, deadline=None)
@given(expansion_cases())
def test_int_row_expansion_matches_recurrence(case):
    rf, order = case
    got = rf.expand(order)
    assert got.order == order
    assert_rule(got.coeffs, expand_recurrence(rf, order).coeffs, rule_kind(rf.num.coeffs + rf.den.coeffs))


@st.composite
def series_pairs(draw):
    # dim 0 stands for a series of scalars
    ring, dim = draw(st.sampled_from(rings)), draw(st.sampled_from((0, 1, 3)))

    def series(zero):
        order = draw(st.integers(0, 4))
        cells = st.just(0) if zero else ring_values[ring]
        return PowerSeries([Matrix([[draw(cells) for _ in range(dim)] for _ in range(dim)]) if dim else draw(cells)
                            for _ in range(order + 1)], order)

    zero = draw(st.sampled_from((None, 0, 1)))
    return series(zero == 0), series(zero == 1)


def _entries(series):
    return [x for m in series.coeffs for row in (m.rows if isinstance(m, Matrix) else ((m,),)) for x in row]


@settings(max_examples=80, deadline=None)
@given(series_pairs())
def test_int_row_series_product_matches_nested_loop(pair):
    x, y = pair
    got, want = x * y, series_product(x, y)
    n = want.order
    shapes = [[(m.nrows, m.ncols) if isinstance(m, Matrix) else () for m in z.coeffs] for z in (got, want)]
    assert got.order == n and shapes[0] == shapes[1]
    kind = rule_kind(_entries(PowerSeries(x.coeffs[:n + 1])) + _entries(PowerSeries(y.coeffs[:n + 1])))
    assert_rule(_entries(got), _entries(want), kind)


def test_series_of_matrices_times_series_of_scalars_raises():
    with pytest.raises(SeriesError):
        PowerSeries([Matrix.identity(2)] * 3) * PowerSeries([1, 2, 3])


# the type rule over every public operation: sums, differences, products
# and powers of polynomials, differences and products of power series (a
# scalar factor too), exact division, expansion, inversion, both
# determinants and power_sum_exp.  A scalar operand is its constant
# polynomial; a division may make Fractions, so its kind is taken over its
# result as well.

def _trimmed(values):
    values = list(values)
    while values and values[-1] == 0:
        values.pop()
    return values


@st.composite
def type_rule_cases(draw):
    ring = draw(st.sampled_from(rings))
    values = ring_values[ring]
    cls = draw(st.sampled_from((Poly, QPolynomial) if ring in ("Z", "Q") else (Poly,)))
    a, b = draw(st.lists(values, max_size=5)), draw(st.lists(values, max_size=5))
    den = [draw(ring_units[ring])] + draw(st.lists(values, max_size=4))
    order = draw(st.integers(0, 6))
    matrix = draw(st.lists(st.lists(st.lists(values, max_size=3), min_size=2, max_size=2), min_size=2, max_size=2))
    return (cls, a, b, draw(values), draw(values), den, draw(st.integers(0, 3)), order,
            draw(st.lists(values, min_size=order, max_size=order)), matrix)


def _rule_case(cls, a, b, n=1):
    return cls, a, b, 1, 2, [1], n, 2, [1, 1], [[[1], []], [[], [1]]]


@settings(max_examples=200, deadline=None)
@given(type_rule_cases())
@example(_rule_case(Poly, [1, 2], [Fraction(1, 2)]))
@example(_rule_case(Poly, [QPolynomial([1, 1]), 1], [1, 1]))
@example(_rule_case(QPolynomial, [1, 1], [Fraction(1, 2)]))
@example(_rule_case(Poly, [Fraction(1, 2)], [], n=0))
# a series of Fractions times an int, and a 1x1 det_series whose constant term is int 1
@example(_rule_case(Poly, [Fraction(1, 2), 1], []))
def test_every_series_operation_follows_the_type_rule(case):
    cls, a, b, c, v, den, n, order, sums, matrix = case
    x, y, const = cls(a), cls(b), cls((c,))
    for left, right in ((x, y), (x, const)):
        pairs = list(zip_longest(left.coeffs, right.coeffs, fillvalue=0))
        kind = rule_kind(left.coeffs + right.coeffs)
        assert_rule((left + right).coeffs, _trimmed(p + q for p, q in pairs), kind)
        assert_rule((left - right).coeffs, _trimmed(p - q for p, q in pairs), kind)
        assert_rule((left * right).coeffs, dense_product(left, right).coeffs, kind)
    kind = rule_kind(x.coeffs + const.coeffs)
    for got, want in ((x + c, x + const), (c + x, x + const), (x - c, x - const), (c - x, const - x)):
        assert_rule(got.coeffs, want.coeffs, kind)
    power = cls.one()
    for _ in range(n):
        power = dense_product(power, x)
    assert_rule((x ** n).coeffs, power.coeffs, rule_kind(x.coeffs))
    if not y.is_zero():
        product = x * y
        assert_rule(product.exact_div(y).coeffs, x.coeffs, rule_kind(product.coeffs + y.coeffs))
    if cls is not Poly:
        return
    rf = RationalFunction(x, Poly(den))
    assert_rule(rf.expand(order).coeffs, expand_recurrence(rf, order).coeffs, rule_kind(rf.num.coeffs + rf.den.coeffs))
    unit = truncation(Poly(den), order)
    reciprocal = RationalFunction(Poly.one(), Poly(unit.coeffs))
    assert_rule(unit.inverse().coeffs, expand_recurrence(reciprocal, order).coeffs,
                rule_kind(reciprocal.num.coeffs + reciprocal.den.coeffs))
    sx, sy = truncation(x, order), truncation(y, n)
    m = min(order, n)
    kind = rule_kind(sx.coeffs[:m + 1] + sy.coeffs[:m + 1])
    assert_rule((sx - sy).coeffs, [p - q for p, q in zip(sx.coeffs[:m + 1], sy.coeffs)], kind)
    assert_rule((sx * sy).coeffs, series_product(sx, sy).coeffs, kind)
    for got in (sx * v, v * sx):
        assert_rule(got.coeffs, [p * v for p in sx.coeffs], rule_kind(sx.coeffs + (v,)))
    _det_matches_berkowitz([[Poly(cs) for cs in row] for row in matrix])
    # det_series on I + u M(u), 1x1 from x's coefficients and 2x2 from the matrix
    for rows in ([[a]], matrix):
        entries = [[truncation(Poly([int(i == j), *cs]), order).coeffs for j, cs in enumerate(row)]
                   for i, row in enumerate(rows)]
        ps = PowerSeries([Matrix([[e[d] for e in row] for row in entries]) for d in range(order + 1)], order)
        assert_rule(det_series(ps).coeffs, det_series_tracelog(ps).coeffs,
                    rule_kind([c for row in entries for e in row for c in e]))
    got = power_sum_exp(sums, order)
    want = _series_exp([0] + [p * Fraction(1, k) for k, p in enumerate(sums, 1)], order)
    assert_rule(got.coeffs, want.coeffs, rule_kind(list(sums) + list(got.coeffs)))
