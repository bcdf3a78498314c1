import gc
import itertools
import math
import random
import tracemalloc
import types
import weakref
from collections import Counter
from functools import reduce
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    _cycle_type_map, _perm_char_poly, _perm_compose, _perm_cycles, _perm_zeta, closed_strip_counts_by_chambers,
    closed_strip_counts_by_factor_walk, column_sums, complete_bipartite, complete_graph, counted_strip_traces,
    cycle_graph,
    cyclic_entry_rational, exponent_map_of_poly, full_resolvent_power_sums, label_permutation,
    label_permutation_by_factor_tables, mat_mul,
    orbit_block_det, order_by_factor_walk, petersen_graph, product_key, torus_generator_permutations_by_matrices,
    twisted_series,
)
from test_series import _det_berkowitz
from weylzeta import coxeter, strips
from weylzeta import zeta as zeta_mod
from weylzeta.hecke import walk_word
from weylzeta.series import (
    ExponentMap, Matrix, Poly, PowerSeries, RationalFunction, char_matrix_det, det_poly_matrix,
    det_series,
)
from weylzeta.zeta import (
    Graph,
    IharaCheckReport,
    StripZetaIdentityReport,
    TorusQuotient,
    TorusRepresentation,
    ZetaError,
    ZetaReport,
    _IDENTITY_MAP,
    _fixed_classes,
    _fixed_points,
    _minor_classes,
    _one_vector_det_series,
    _one_vector_power_sums,
    _perm_matrix,
    closed_strip_counts,
    geodesic_oracle,
    hashimoto_matrix,
    ihara_formula_check,
    ihara_zeta,
    operator_strip_counts,
    primitive_counts_from_traces,
    strip_zeta,
    torus_quotient_rep,
    traces,
    verify_strip_zeta_identity,
)


@pytest.mark.parametrize("tag", ["E8", "A2", "A1t"])
def test_the_torus_checks_the_rank_before_it_enumerates(tag, monkeypatch):
    def no_enumeration(*args, **kwargs):
        raise AssertionError("a wrong type was enumerated before its error")

    monkeypatch.setattr(coxeter, "enumerate_elements", no_enumeration)
    with pytest.raises(ZetaError, match="torus quotient needs a rank-2 affine system"):
        TorusQuotient(coxeter.build_system(tag), 2)


def test_graph_invariants():
    g = petersen_graph()
    assert g.num_vertices == 10 and g.num_edges == 15
    assert g.euler_characteristic() == -5
    assert g.degrees() == [3] * 10
    a = g.adjacency()
    assert all(a[i][j] == a[j][i] for i in range(10) for j in range(10))


def test_self_loops_rejected():
    with pytest.raises(ZetaError):
        Graph.from_edges(2, [(0, 0)])


@pytest.mark.parametrize("edges,message", [(((0, 1), (1, 1)), "self-loops"),
                                           (((0, 1), (1, 2)), "endpoint out of range")],
                         ids=["self-loop", "out-of-range"])
def test_graph_constructor_refuses_a_bad_edge(edges, message):
    with pytest.raises(ZetaError, match=message):
        Graph(2, edges)


def test_graphs_are_values():
    g = Graph.from_edges(3, [(1, 0), (2, 1), (0, 1)])
    assert g == Graph(3, ((0, 1), (0, 1), (1, 2))) and hash(g) == hash(Graph(3, g.edges))
    assert {g: "multi"}[Graph.from_edge_list("0 1\n1 2\n0 1\n")] == "multi"
    assert g != Graph(4, g.edges) and g != Graph.from_edges(3, [(0, 1), (1, 2)])


def test_zeta_reports_build_by_keyword_with_their_defaults():
    z = ihara_zeta(complete_graph(3), 4)
    report = ZetaReport(zeta=z.zeta, inverse_poly=z.inverse_poly, series=z.series,
                        closed_counts=z.closed_counts, primitive_counts=z.primitive_counts)
    assert report.as_json() == z.as_json()
    ihara = IharaCheckReport(regular_degree=3, ok=True, lhs=Poly((1,)), rhs=Poly((1,)))
    assert ihara.as_json() == {"q": 2, "pass": True, "det_edge_side": [1]}
    strip = StripZetaIdentityReport(type_tag="A2t", k=2, ok=True, det_identity_ok=True,
                                    zeta_match_ok=True, trace_match_ok=True,
                                    alt_det=ExponentMap(), strip_zetas=[])
    assert strip.witness is None and "witness" not in strip.as_json()


def test_edge_list_parsing_roundtrip():
    text = "0 1\n1 2\n2 0\n# comment\n"
    g = Graph.from_edge_list(text)
    assert g.num_vertices == 3 and g.num_edges == 3
    assert ihara_zeta(g, 6).inverse_poly == Poly((1, 0, 0, -1)) ** 2


def test_multigraph_edges_kept():
    g = Graph.from_edges(2, [(0, 1), (0, 1)])
    assert g.num_edges == 2
    # doubled edge: non-backtracking walks alternate between the two copies
    b = hashimoto_matrix(g)
    assert len(b) == 4
    assert traces(b, 4)[1] > 0  # closed walks of length 2 exist


def test_hashimoto_row_sums():
    b3 = hashimoto_matrix(complete_graph(3))
    assert len(b3) == 6 and all(sum(r) == 1 for r in b3)
    b4 = hashimoto_matrix(complete_graph(4))
    assert len(b4) == 12 and all(sum(r) == 2 for r in b4)
    single = hashimoto_matrix(Graph.from_edges(2, [(0, 1)]))
    assert single == ((0, 0), (0, 0))


def test_ihara_zeta_k3():
    report = ihara_zeta(complete_graph(3), 12)
    assert report.inverse_poly == Poly((1, 0, 0, -1)) ** 2
    assert report.primitive_counts[2] == 2  # the two oriented triangles
    assert report.zeta == RationalFunction(Poly.one(), Poly((1, 0, 0, -1)) ** 2)


def test_ihara_zeta_c4():
    report = ihara_zeta(cycle_graph(4), 12)
    assert report.inverse_poly == Poly((1, 0, 0, 0, -1)) ** 2
    assert report.primitive_counts[3] == 2


def test_k4_trace_example():
    report = ihara_zeta(complete_graph(4), 6)
    assert report.closed_counts[2] == 24


def test_geodesic_oracle_matches_traces():
    for g in (complete_graph(3), complete_graph(4), complete_bipartite(3, 3), petersen_graph()):
        b = hashimoto_matrix(g)
        assert geodesic_oracle(g, 12) == traces(b, 12)


@st.composite
def multigraphs(draw):
    """Multigraphs without isolated vertices, with at most 8 vertices and
    9 edges: one to three random trees of 2 to 6 vertices each, plus
    parallel or extra edges.  Separate trees make n > m possible, where
    Bass's vertex side divides by (1 - u^2)^(n - m).  Vertex degree stays
    at most 5 to bound the depth-first oracle, which visits every
    non-backtracking walk: nine parallel edges take seconds at length 8."""
    sizes = draw(st.lists(st.integers(2, 6), min_size=1, max_size=3).filter(lambda s: sum(s) <= 8))
    n, edges = 0, []
    for size in sizes:
        edges += [(n + draw(st.integers(0, v - 1)), n + v) for v in range(1, size)]
        n += size
    degree = [0] * n
    for u, v in edges:
        degree[u] += 1
        degree[v] += 1
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda p: p[0] != p[1])
    for u, v in draw(st.lists(pairs, max_size=9 - len(edges))):
        if degree[u] < 5 and degree[v] < 5:
            edges.append((u, v))
            degree[u] += 1
            degree[v] += 1
    return Graph.from_edges(n, edges)


@settings(max_examples=40, deadline=None)
@given(multigraphs())
def test_ihara_zeta_matches_oracles_on_random_multigraphs(g):
    report = ihara_zeta(g, 8)
    assert report.closed_counts == geodesic_oracle(g, 8)
    b = hashimoto_matrix(g)
    n = len(b)
    i_minus_bu = [[Poly([1 if i == j else 0, -b[i][j]]) for j in range(n)] for i in range(n)]
    assert report.inverse_poly == _det_berkowitz(i_minus_bu)


def test_tree_has_no_closed_walks():
    tree = Graph.from_edges(5, [(0, 1), (1, 2), (1, 3), (3, 4)])
    assert geodesic_oracle(tree, 8) == [0] * 8


def test_ihara_formula_all_acceptance_graphs():
    cases = [
        (complete_graph(3), 1),
        (complete_graph(4), 2),
        (complete_bipartite(3, 3), 2),
        (petersen_graph(), 2),
    ]
    for g, q in cases:
        assert ihara_formula_check(g, q).ok


def test_ihara_formula_rejects_irregular():
    g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)])
    with pytest.raises(ZetaError):
        ihara_formula_check(g, 2)


def test_k4_eigenvalue_closed_form():
    # adjacency spectrum {3, -1, -1, -1} so the vertex side factors
    r = ihara_formula_check(complete_graph(4), 2)
    rhs = Poly((1, 0, -1)) ** 2 * Poly((1, -1)) * Poly((1, -2)) * Poly((1, 1, 2)) ** 3
    assert RationalFunction(r.lhs) == RationalFunction(rhs)


def test_ihara_zeta_takes_no_edge_determinant(monkeypatch):
    # the inverse polynomial comes from Bass's n x n vertex side, and B
    # only gives the traces
    from weylzeta import zeta

    want = ihara_zeta(petersen_graph(), 12)

    def refuse(*args):
        raise AssertionError("det(I - B u) on the ihara_zeta route")

    monkeypatch.setattr(zeta, "char_matrix_det", refuse)
    got = ihara_zeta(petersen_graph(), 12)
    assert got.as_json() == want.as_json() and got.zeta == want.zeta and got.series == want.series


def test_primitive_counts_invariants():
    report = ihara_zeta(petersen_graph(), 12)
    # N_n = sum over divisors d of n of d * p_d
    for n in range(1, 13):
        total = sum(d * report.primitive_counts[d - 1] for d in range(1, n + 1) if n % d == 0)
        assert total == report.closed_counts[n - 1]
    assert all(p >= 0 for p in report.primitive_counts)


def test_necklace_inversion_rejects_garbage():
    with pytest.raises(ZetaError):
        primitive_counts_from_traces([1, 0, 0])  # N_1=1 forces p_1=1, N_2 >= 1


def test_strip_zeta_trivial_cases():
    assert strip_zeta(Matrix.identity(3) * 0, 6).zeta == RationalFunction(Poly.one())
    z = strip_zeta(Matrix.identity(4), 6)
    assert z.zeta == RationalFunction(Poly.one(), Poly((1, -1)) ** 4)
    cyc = Matrix([[0, 1, 0], [0, 0, 1], [1, 0, 0]])
    z3 = strip_zeta(cyc, 9)
    assert z3.zeta == RationalFunction(Poly.one(), Poly((1, 0, 0, -1)))
    assert z3.primitive_counts[:3] == [0, 0, 1]


def test_traces_never_wrap():
    # 8**21 == 2**63 used to wrap to -2**63 in the int64 fast path
    assert traces(((8,),), 40) == [8 ** n for n in range(1, 41)]
    for a in (3, 255, 256, 299):
        assert traces(((a, a), (a, a)), 30) == [(2 * a) ** n for n in range(1, 31)]
    assert traces(((2 ** 70,),), 3) == [2 ** 70, 2 ** 140, 2 ** 210]
    assert strip_zeta(((8,),), 40).closed_counts == [8 ** n for n in range(1, 41)]


def _int_traces(rows, order):
    n = len(rows)
    cur = [list(r) for r in rows]
    out = []
    for _ in range(order):
        out.append(sum(cur[i][i] for i in range(n)))
        cur = [[sum(cur[i][m] * rows[m][j] for m in range(n)) for j in range(n)] for i in range(n)]
    return out


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 3).flatmap(lambda n: st.lists(
    st.lists(st.integers(-2 ** 40, 2 ** 40), min_size=n, max_size=n), min_size=n, max_size=n)))
def test_traces_match_python_ints(rows):
    assert traces(rows, 6) == _int_traces(rows, 6)


# ---------------------------------------------------------------------------
# torus quotient


def test_chamber_counts(torus_k2):
    weyl = {"A2t": 6, "C2t": 8, "G2t": 12}
    for tag, tq in torus_k2.items():
        assert tq.chamber_count() == weyl[tag] * 4


def test_scale_3_chamber_count(tables):
    tq = torus_quotient_rep(coxeter.build_system("A2t"), 3, tables["A2t"])
    assert tq.chamber_count() == 54


def test_scale_below_two_rejected(tables):
    with pytest.raises(ZetaError):
        torus_quotient_rep(coxeter.build_system("A2t"), 1, tables["A2t"])


def test_chamber_cap_stops_the_torus_before_its_bfs(tables, monkeypatch):
    from weylzeta import zeta

    system = coxeter.build_system("A2t")
    monkeypatch.setenv("WEYLZETA_MAX_ELEMENTS", "24")
    assert torus_quotient_rep(system, 2, tables["A2t"]).chamber_count() == 24  # at the cap

    def no_factor_tables(self):
        raise AssertionError("the factor tables were built over the cap")

    monkeypatch.setattr(zeta.TorusQuotient, "_read_factors", no_factor_tables)
    with pytest.raises(coxeter.ResourceLimitError, match="54 chambers.*WEYLZETA_MAX_ELEMENTS"):
        torus_quotient_rep(system, 3, tables["A2t"])


def _in_scaled_translations(system, g, k):
    """Whether g = w^-1 v lies in t(kL): its linear part is the identity
    (every column of g - I is a multiple of delta), and I + (g - I)/k is
    integral and a group element, which the descent walk on its key and
    the matrix of the word it finds decide."""
    delta = system.delta
    n = len(delta)
    h = [[g[a][b] - (a == b) for b in range(n)] for a in range(n)]
    if any(h[a][b] * delta[0] != h[0][b] * delta[a] for a in range(n) for b in range(n)):
        return False
    if any(x % k for row in h for x in row):
        return False
    root = tuple(tuple((a == b) + h[a][b] // k for b in range(n)) for a in range(n))
    try:
        _, word = coxeter.length_and_word(system, column_sums(root))
    except coxeter.CoxeterError:
        return False
    return system.word_matrix(word) == root


@pytest.mark.parametrize("tag", ["A2t", "C2t", "G2t"])
def test_chamber_labels_match_the_definition(tables, tag):
    # w and v share a chamber exactly when w^-1 v is in t(kL); every pair
    # of the ball of length <= 9
    system = coxeter.build_system(tag)
    table = tables[tag]
    ball = [el for layer in table.layers[:10] for el in layer]
    inverses = [system.word_matrix(reversed(el.word)) for el in ball]
    matrices = [system.word_matrix(v.word) for v in ball]
    quotients = [[mat_mul(inv, m) for m in matrices] for inv in inverses]
    for k in (2, 3):
        tq = torus_quotient_rep(system, k, table)
        chamber = [label_permutation(tq, el)[0] for el in ball]
        shared = 0
        for i, row in enumerate(quotients):
            for j, g in enumerate(row):
                same = chamber[i] == chamber[j]
                assert same == _in_scaled_translations(system, g, k), (tag, k, ball[i].word, ball[j].word)
                shared += same and i != j
        assert shared > 0


def test_lattice_from_the_weyl_orbit_spans_every_translation_in_the_table(torus_k2):
    # row 2 of a matrix is the image phi(mu) of its translation part; the
    # basis read from W0 and s3 spans exactly the row-2 vectors of the table
    for tq in torus_k2.values():
        (a, b), c = tq._basis
        rows = (tq.system.word_matrix(el.word)[2] for el in tq.table.index.values())
        vectors = sorted({(row[0], row[1]) for row in rows})
        for x, y in vectors:
            assert x % a == 0 and (y - x // a * b) % c == 0
        minors = math.gcd(*(x1 * y2 - x2 * y1 for x1, y1 in vectors for x2, y2 in vectors))
        assert minors == a * c  # equal index in Z^2, so equal lattices


@pytest.mark.parametrize("k", [2, 3, 4, 5, 6, 7, 8, 12])
@pytest.mark.parametrize("tag", ["A2t", "C2t", "G2t"])
def test_row_two_chamber_search_matches_the_key_walk(tables, tag, k):
    # even k meet C2t's lattice basis, whose a = c = 2
    tq = torus_quotient_rep(coxeter.build_system(tag), k, tables[tag])
    assert tq.generator_permutations == torus_generator_permutations_by_matrices(tq)


@pytest.mark.parametrize("k", [2, 3, 4, 5, 6, 7, 8, 12])
@pytest.mark.parametrize("tag", ["A2t", "C2t", "G2t"])
def test_factor_strip_counts_match_the_chamber_walk(tables, tag, k):
    # fixed points of the W0 and L/kL factors multiplied, against the
    # walk of all |W0| k^2 chambers and the operator's fixed points
    tq = torus_quotient_rep(coxeter.build_system(tag), k, tables[tag])
    for spec in strips.strip_generators(tag):
        counts = closed_strip_counts(tq, spec, 24)
        assert counts == closed_strip_counts_by_chambers(tq, spec, 24), spec.index
        assert counts == operator_strip_counts(tq, spec, 24), spec.index


@pytest.mark.parametrize("k", [2, 3, 4, 5, 6, 7, 8, 12, 30])
@pytest.mark.parametrize("tag", ["A2t", "C2t", "G2t"])
def test_closed_forms_match_the_factor_walk(tables, tag, k):
    # the closed strip counts (the index of (M_m - I) Z^2 + k Z^2) and the
    # orders e k / gcd(k, v_e) against walks of the factor tables
    t = tables[tag]
    tq = torus_quotient_rep(coxeter.build_system(tag), k, t)
    for spec in strips.strip_generators(tag):
        counts = closed_strip_counts(tq, spec, 24)
        assert counts == closed_strip_counts_by_factor_walk(tq, spec, 24), spec.index
    for el in t.ball(8):
        assert tq.order(el.word) == order_by_factor_walk(tq, el.word), el.word


@pytest.mark.parametrize("k", [2, 3, 4, 5, 6, 7, 8, 12, 30])
@pytest.mark.parametrize("tag", ["A2t", "C2t", "G2t"])
def test_compact_pairs_match_the_factor_table_composition(tables, tag, k):
    # the compact pair (g, f) of every element of the ball of radius 8,
    # expanded to labels, against the generators' factor tables (R_i, T_i)
    # composed letter by letter, and its order against the walked order;
    # seeded words of up to 30 letters, unreduced and past the table, walk
    # seeded labels; the closed strip counts equal the counted operator
    # traces to order 24
    t = tables[tag]
    tq = torus_quotient_rep(coxeter.build_system(tag), k, t)
    for el in t.ball(8):
        assert label_permutation(tq, el) == label_permutation_by_factor_tables(tq, el.word), el.word
        assert tq.order(el.word) == order_by_factor_walk(tq, el.word), el.word
    rng = random.Random(3000 + k)
    for _ in range(10):
        word = tuple(rng.randrange(3) for _ in range(rng.randint(1, 30)))
        assert tq.order(word) == order_by_factor_walk(tq, word), word
        walked = label_permutation_by_factor_tables(tq, word)
        for label in rng.sample(tq.chambers, 5):
            assert tq.walk(label, word) == walked[label], (word, label)
    for spec in strips.strip_generators(tag):
        assert closed_strip_counts(tq, spec, 24) == operator_strip_counts(tq, spec, 24), spec.index


@pytest.mark.parametrize("tag", ["A2t", "C2t", "G2t"])
def test_minor_strip_counts_match_the_counted_traces(tables, tag):
    # the determinantal-divisor count of the fixed classes against the
    # scan of all k^2 classes, both strips to order 24
    for k in range(2, 13):
        tq = torus_quotient_rep(coxeter.build_system(tag), k, tables[tag])
        for spec in strips.strip_generators(tag):
            assert operator_strip_counts(tq, spec, 24) == counted_strip_traces(tq, spec, 24), (k, spec.index)


def test_minor_classes_match_a_brute_count_on_random_maps():
    # 4,000 seeded affine maps x -> M x + v, entries -6..6, k 1..24, 30%
    # with M = I: the minor count against the count over all k^2 classes
    # and against the triangular-basis count of _fixed_classes
    rng = random.Random(31)
    for _ in range(4000):
        k = rng.randint(1, 24)
        m = (1, 0, 0, 1) if rng.random() < 0.3 else tuple(rng.randint(-6, 6) for _ in range(4))
        f = m + (rng.randint(-6, 6), rng.randint(-6, 6))
        a, b, c, d, e, h = f
        brute = sum(1 for p in range(k) for q in range(k)
                    if not (a * p + b * q + e - p) % k and not (c * p + d * q + h - q) % k)
        assert _minor_classes(f, k) == brute == _fixed_classes(f, k), (f, k)


@pytest.mark.parametrize("tag", ["A2t", "C2t", "G2t"])
def test_no_production_route_builds_a_table_of_labels_or_classes(tables, monkeypatch, tag):
    # the tables T_i on the k^2 classes, the breadth-first numbering and
    # the dense chamber matrices refuse to be built: the determinant
    # identity and the strip zeta identity need none of them, whatever k is
    def refuse(*_args):
        raise AssertionError("a table of labels or classes was built")

    monkeypatch.setattr(TorusQuotient, "factor_permutations", property(refuse))
    monkeypatch.setattr(TorusQuotient, "_enumerate_chambers", refuse)
    monkeypatch.setattr(zeta_mod, "_perm_matrix", refuse)
    system, t = coxeter.build_system(tag), tables[tag]
    assert strips.verify_determinant_identity(system, torus_quotient_rep(system, 3, t), t).ok
    for k in (2, 30):
        assert verify_strip_zeta_identity(torus_quotient_rep(system, k, t)).ok, k


@pytest.mark.parametrize("k", [2, 3, 5])
@pytest.mark.parametrize("tag", ["A2t", "C2t", "G2t"])
def test_label_walks_match_the_numbered_chambers(tables, tag, k):
    # chamber 0 is label 0; following the numbered chambers breadth first
    # and the label walks alongside gives a bijection of chambers onto
    # labels under which every generator permutation agrees
    tq = torus_quotient_rep(coxeter.build_system(tag), k, tables[tag])
    gens, label = tq.generator_permutations, {0: 0}
    for c in range(tq.chamber_count()):
        for i, g in enumerate(gens):
            assert label.setdefault(g[c], tq.walk(label[c], (i,))) == tq.walk(label[c], (i,)), (c, i)
    assert sorted(label.values()) == list(tq.chambers)


def test_no_route_reads_the_breadth_first_numbering(tables, monkeypatch):
    # the numbering is built only when generator_permutations is read
    def no_numbering(self):
        raise AssertionError("the breadth-first numbering was built")

    monkeypatch.setattr(TorusQuotient, "_enumerate_chambers", no_numbering)
    tq = torus_quotient_rep(coxeter.build_system("G2t"), 4, tables["G2t"])
    t = tq.table
    assert tq.walk(0, (2, 0, 1) * tq.order((2, 0, 1))) == 0
    for spec in strips.strip_generators("G2t"):
        assert closed_strip_counts(tq, spec, 6) == operator_strip_counts(tq, spec, 6)
    tq.block_det([(tq.perm(el), el.length, el.key) for el in t.parabolic_elements((0, 1))])
    tq.det_series_hook(t, 4)
    assert verify_strip_zeta_identity(tq).ok
    monkeypatch.undo()
    assert tq.generator_permutations == torus_generator_permutations_by_matrices(tq)


@pytest.mark.parametrize("chamber", [-1, 24])
def test_torus_walk_refuses_a_chamber_outside_the_labels(torus_k2, chamber):
    # -1 used to walk as chamber 23 and 24 raised a bare IndexError
    tq = torus_k2["A2t"]
    with pytest.raises(ZetaError, match=r"chamber %d is not one of the 24 chambers 0\.\.23" % chamber):
        tq.walk(chamber, (0, 1))


@pytest.mark.parametrize("tag", ["A2t", "C2t", "G2t"])
def test_row_two_lies_on_the_plane_of_delta(tables, tag):
    # W fixes delta, so row 2 of every element's matrix has
    # row . delta = delta[2]: the torus build reads entry 2 off entries 0, 1
    system = coxeter.build_system(tag)
    delta = system.delta
    for el in tables[tag].index.values():
        row = system.word_matrix(el.word)[2]
        assert sum(x * d for x, d in zip(row, delta)) == delta[2], el.word


def _coarser_basis(tq):
    (a, b), c = tq._basis
    tq._basis = ((2 * a, 2 * b), 2 * c)


def _s1_fixes_the_weyl_index(tq):
    # s1 would fix chambers: the relations or the translation check refuse it
    tq._w0_right = tuple((j,) + right[1:] for j, right in enumerate(tq._w0_right))


def _every_generator_moves_the_weyl_index_as_s1(tq):
    # fixed-point free, but the orbit of the identity misses most labels
    tq._w0_right = tuple((right[0],) * 3 for right in tq._w0_right)


def _delta_off_the_section(tq):
    # a null root whose entry 2 does not divide the rows of phi(L)
    tq.system = types.SimpleNamespace(delta=(1, 1, 3), cartan=tq.system.cartan)


def _one_translation_word(tq):
    # its multiples shift the classes along one line, not onto all of L/kL
    tq._translation_words = tq._translation_words[:1] * len(tq._translation_words)


def _translation_words_one_letter_longer(tq):
    # a translation times s1, so its linear part is a reflection: the
    # translation check refuses it
    tq._translation_words = tuple(word + (0,) for word in tq._translation_words)


@pytest.mark.parametrize("spoil,match", [
    (_coarser_basis, "translation outside the detected lattice"),
    (_s1_fixes_the_weyl_index, "braid relation fails|does not translate the labels"),
    (_every_generator_moves_the_weyl_index_as_s1, r"W0 tables reach 2 of the \|W0\| = \d+ indices"),
    (_delta_off_the_section, "off the plane row . delta = delta"),
    (_translation_words_one_letter_longer, "does not translate the labels"),
    (_one_translation_word, "do not shift the classes onto all of L/kL"),
], ids=["coarser-basis", "fixing-w0", "one-w0-generator", "delta", "not-a-translation",
        "one-translation"])
@pytest.mark.parametrize("tag", ["A2t", "C2t", "G2t"])
def test_torus_build_refuses_a_spoiled_weyl_section(tables, monkeypatch, tag, spoil, match):
    setup = TorusQuotient._setup_weyl_section

    def spoiled_setup(self):
        setup(self)
        spoil(self)

    monkeypatch.setattr(TorusQuotient, "_setup_weyl_section", spoiled_setup)
    with pytest.raises(ZetaError, match=match):
        TorusQuotient(coxeter.build_system(tag), 3, tables[tag])


def test_torus_build_refuses_a_translation_word_that_moves_the_weyl_index(tables, monkeypatch):
    # s1 s2 has order 3 in the W0 of A2t: its cube fixes chamber 0 at k = 3,
    # but it moves the W0 indices, so it shifts no class by a vector
    setup = TorusQuotient._setup_weyl_section

    def spoiled_setup(self):
        setup(self)
        self._translation_words = ((0, 1),) + self._translation_words[1:]

    monkeypatch.setattr(TorusQuotient, "_setup_weyl_section", spoiled_setup)
    with pytest.raises(ZetaError, match="the word 12 does not translate the labels"):
        TorusQuotient(coxeter.build_system("A2t"), 3, tables["A2t"])


def test_torus_build_reflects_only_the_weyl_section(tables, monkeypatch):
    # the chamber labels come from the W0 table and one row 2 per class
    # of L/kL, so the only matrix reflections are the W0 section's: one
    # per element along its BFS parent and one for each w s3, within the
    # 3 |W0| of the table on W0
    reflect = coxeter.CoxeterSystem.right_reflect
    calls = []

    def counting(self, key, i):
        calls.append(i)
        return reflect(self, key, i)

    monkeypatch.setattr(coxeter.CoxeterSystem, "right_reflect", counting)
    for tag in ("A2t", "C2t", "G2t"):
        counts = []
        for k in (4, 12):
            calls.clear()
            tq = torus_quotient_rep(coxeter.build_system(tag), k, tables[tag])
            counts.append(len(calls))
        assert counts[0] == counts[1] <= 3 * tq.weyl_order, (tag, counts)


def _reordered(cartan, order):
    return tuple(tuple(cartan[a][b] for b in order) for a in order)


@pytest.mark.parametrize("cartan", [
    ((2, -1, -1), (-1, 2, 0), (-3, 0, 2)),  # G2t with its last two nodes swapped
    _reordered(coxeter.build_system("C2t").cartan, (1, 2, 0)),
    _reordered(coxeter.build_system("C2t").cartan, (2, 1, 0)),
], ids=["G2t-swapped", "C2t-middle-last", "C2t-middle-last-ends-swapped"])
def test_torus_needs_generator_3_as_the_affine_node(cartan):
    # s3's linear part lies outside <s1, s2>: refused by name, where the
    # lookup of that linear part raised a bare KeyError
    system = coxeter.CoxeterSystem("X", cartan)
    assert system.is_affine and system.rank == 2
    with pytest.raises(ZetaError, match="needs generator 3 as the affine node"):
        TorusQuotient(system, 2)


def test_rank_one_rejected():
    with pytest.raises(ZetaError):
        torus_quotient_rep(coxeter.build_system("A1t"), 2)


def test_identity_trace_is_chamber_count(torus_k2):
    tq = torus_k2["A2t"]
    ident = tq.table.identity
    mat = tq.action_matrix(ident)
    assert sum(row[i] for i, row in enumerate(mat.rows)) == tq.chamber_count()


def test_action_is_homomorphism(torus_k2):
    tq = torus_k2["C2t"]
    t = tq.table
    w = t.element_of_word((0, 1, 2))
    v = t.element_of_word((2, 1))
    wv = t.element(product_key(t, w.key, v.key))
    assert tq.image(w) * tq.image(v) == tq.image(wv)


def test_length_additive_products_via_permutations(torus_k2):
    for tag, tq in torus_k2.items():
        t = tq.table
        elements = [el for layer in t.layers[:11] for el in layer]
        checked = 0
        for w in elements:
            pw = label_permutation(tq, w)
            for v in elements:
                if w.length + v.length > 10:
                    continue
                wv = t.element(product_key(t, w.key, v.key))
                if wv.length != w.length + v.length:
                    continue
                pv = label_permutation(tq, v)
                assert tuple(pv[pw[i]] for i in range(len(pw))) == label_permutation(tq, wv)
                checked += 1
        assert checked > 1000


@pytest.mark.parametrize("tag,k", [("A2t", 2), ("A2t", 3), ("C2t", 2)], ids=["A2t-k2", "A2t-k3", "C2t-k2"])
def test_block_det_matches_generic(tables, tag, k):
    # every scheme finite factor and every proper parabolic: the
    # regular-block route against the dense determinant of the twisted
    # series and against the per-orbit determinants
    from weylzeta.hecke import FiniteTwistedSeries

    t = tables[tag]
    tq = torus_quotient_rep(coxeter.build_system(tag), k, t)
    sets = [data for kind, data in strips.realize_factors(t, strips.scheme_for(tag)) if kind == "finite"]
    sets += [t.parabolic_elements(gens) for gens in coxeter.all_proper_subsets(3)]
    assert len(sets) == 10
    for els in sets:
        block = tq.block_det([(tq.perm(el), el.length, el.key) for el in els])
        assert block.as_polynomial() == FiniteTwistedSeries(tq, els).det()
        triples = [(label_permutation(tq, el), el.length, el.key) for el in els]
        assert block == orbit_block_det(tq.chamber_count(), triples)


def _regular_block_det(t, group, els):
    """det of sum_(w in els) u^l(w) R(w) over the group W_J, R its
    right-regular representation, from table products."""
    pos = {v.key: i for i, v in enumerate(group)}
    rows = [[Poly()] * len(group) for _ in group]
    for v in group:
        for w in els:
            j = pos[product_key(t, v.key, w.key)]
            rows[pos[v.key]][j] = rows[pos[v.key]][j] + Poly.u(w.length)
    return det_poly_matrix(rows)


@pytest.mark.parametrize("k", [2, 3, 4])
@pytest.mark.parametrize("tag", ["A2t", "C2t", "G2t"])
def test_block_det_is_regular_block_power(tables, tag, k):
    # W_J acts freely on the chambers, so every orbit is a copy of its
    # regular representation: block_det over W_J is det R_J to the power
    # n / |W_J|, R_J = sum_w P_reg(w) u^l(w) with P_reg from table products
    t = tables[tag]
    tq = torus_quotient_rep(coxeter.build_system(tag), k, t)
    n = tq.chamber_count()
    for gens in coxeter.all_proper_subsets(3):
        els = t.parabolic_elements(gens)
        assert n % len(els) == 0
        regular = exponent_map_of_poly(_regular_block_det(t, els, els), n // len(els))
        assert tq.block_det([(tq.perm(el), el.length, el.key) for el in els]) == regular, gens


@pytest.mark.parametrize("tag", ["A2t", "C2t", "G2t"])
def test_every_regular_block_peels(tables, tag):
    # Varchenko's determinant formula: the regular block of a proper
    # parabolic W_J is a product of (1-u^(2m)) factors, m > 0, and the
    # block of the minimal coset representatives S of W_J = S W_I (length
    # additive) is a quotient of two, so it peels too
    t = tables[tag]
    for gens in coxeter.all_proper_subsets(3):
        els = t.parabolic_elements(gens)
        det = exponent_map_of_poly(_regular_block_det(t, els, els))
        assert all(d % 2 == 0 and m > 0 for d, m in det.exponents.items()), (gens, det)
        assert det.exponents or not gens
    cosets = [factor for factor in strips.scheme_for(tag).factors if factor[0] == "coset"]
    assert cosets
    for _kind, J, I, side in cosets:
        els = coxeter.min_coset_reps(t, J, I, side)
        det = exponent_map_of_poly(_regular_block_det(t, t.parabolic_elements(J), els))
        assert det.exponents, (J, I, side)


@pytest.mark.parametrize("tag,letters", [("A1", (0,)), ("A2", (0, 1)), ("B2", (0, 1)), ("G2", (0, 1)),
                                         ("C2t", (1, 2)), ("G2t", (1, 2))])
def test_regular_block_closed_form_matches_the_dense_block(tables, tag, letters):
    # Varchenko's formula for a finite W_J of rank at most 2, the m = 2
    # parabolics of C2t and G2t included, against the dense regular block
    from weylzeta import zeta

    system = coxeter.build_system(tag)
    t = tables[tag] if tag in tables else coxeter.enumerate_elements(system, 24)
    els = t.parabolic_elements(letters)
    closed = ExponentMap(zeta._regular_block_exponents(system, letters))
    assert closed == exponent_map_of_poly(_regular_block_det(t, els, els)), closed


def _coset_sets(t):
    """(J, I, side, W_J^I) for every set of minimal coset representatives
    of a proper parabolic J over a subset I, on either side."""
    for J in coxeter.all_proper_subsets(3):
        for I in [sub for size in range(len(J) + 1) for sub in itertools.combinations(J, size)]:
            for side in ("right", "left"):
                yield J, I, side, coxeter.min_coset_reps(t, J, I, side)


@pytest.mark.parametrize("tag", ["A2t", "C2t", "G2t"])
def test_block_det_matches_the_dense_block_on_every_coset_set(tables, torus_k2, tag):
    # every (J, I, side) set W_J^I of minimal coset representatives: the
    # closed form V_J / V_I^(|W_J|/|W_I|) against the dense block of S in
    # the regular representation of W_J, to the power n / |W_J|
    t, tq = tables[tag], torus_k2[tag]
    n, checked = tq.chamber_count(), 0
    for J, I, side, els in _coset_sets(t):
        group = t.parabolic_elements(J)
        det = tq.block_det([(tq.perm(el), el.length, el.key) for el in els])
        dense = exponent_map_of_poly(_regular_block_det(t, group, els), n // len(group))
        assert det == dense, (J, I, side)
        checked += 1
    assert checked == 2 * (1 + 3 * 2 + 3 * 4)


@pytest.mark.parametrize("tag", ["A2t", "C2t", "G2t"])
def test_block_det_cross_checks_integer_power_sums(tables, torus_k2, monkeypatch, tag):
    # inside block_det the trace-log check compares the map's power sums
    # with the one-vector ones: with power_sum_exp and ExponentMap.expand
    # raising there, every coset set at k = 2 and both torus identities at
    # k = 2 and 3 still pass, and each call compared power sums
    from weylzeta import zeta

    inside, compared = [], []
    block_det, power_sums = TorusQuotient.block_det, ExponentMap.power_sums

    def refused_inside(route):
        def run(*args):
            if inside:
                raise AssertionError("block_det exponentiated or expanded a series")
            return route(*args)
        return run

    def traced(self, *args, **kwargs):
        inside.append(self)
        try:
            return block_det(self, *args, **kwargs)
        finally:
            inside.pop()

    monkeypatch.setattr(TorusQuotient, "block_det", traced)
    monkeypatch.setattr(zeta, "power_sum_exp", refused_inside(zeta.power_sum_exp))
    monkeypatch.setattr(ExponentMap, "expand", refused_inside(ExponentMap.expand))
    monkeypatch.setattr(ExponentMap, "power_sums", lambda det, order: compared.append(order) or power_sums(det, order))
    t, tq = tables[tag], torus_k2[tag]
    for _J, _I, _side, els in _coset_sets(t):
        tq.block_det([(tq.perm(el), el.length, el.key) for el in els])
    assert compared == [4] * 38
    system = coxeter.build_system(tag)
    for k in (2, 3):
        q = torus_quotient_rep(system, k, t)
        assert strips.verify_determinant_identity(system, q, t).ok, k
        assert verify_strip_zeta_identity(q).ok, k


class FreeAction(TorusQuotient):
    """`copies` copies of W_J acting on itself by right multiplication, the
    chambers relabelled by `relabel`: the action block_det relies on,
    without the torus around it.  `perm` gives an element as its
    permutation of the relabelled chambers, which block_det compares and
    the orbit oracle reads.  Generators outside J get no permutation, so
    only W_J can be walked, and the trace-log check (which walks a ball of
    the whole group) must be off: zeta.DUAL_CHECK_ORDER = 0."""

    def __init__(self, table, letters, copies, relabel):
        group = table.parabolic_elements(letters)
        index = {v.position: i for i, v in enumerate(group)}
        size = len(group)
        perms = []
        for s in range(table.system.num_generators):
            perm = None
            if s in letters:
                perm = [None] * (copies * size)
                for c in range(copies):
                    for v in group:
                        perm[relabel[c * size + index[v.position]]] = relabel[
                            c * size + index[table.neighbours[s][v.position]]]
                perm = tuple(perm)
            perms.append(perm)
        self.system, self.table = table.system, table
        self.n = copies * size
        self.chambers = range(self.n)
        self._gens = perms
        self._perm_cache = {table.identity.key: tuple(self.chambers)}

    def perm(self, element):
        return walk_word(element, self._perm_cache, lambda p, s: _perm_compose(p, self._gens[s]))


@st.composite
def free_actions(draw):
    tag = draw(st.sampled_from(("A2t", "C2t", "G2t")))
    letters = draw(st.sampled_from([J for J in coxeter.all_proper_subsets(3) if J]))
    coset = draw(st.sampled_from((None, "right", "left")))
    sub = draw(st.sets(st.sampled_from(letters)).map(sorted))
    copies = draw(st.integers(1, 4))
    return tag, letters, coset, sub, copies, draw(st.randoms(use_true_random=False))


@settings(max_examples=60, deadline=None)
@given(free_actions())
def test_block_det_matches_the_orbit_oracle_on_random_free_actions(tables, action):
    # the one regular W_J block, to the power n / |W_J|, against the
    # per-orbit determinants of the same permutations, for a parabolic or
    # a set of minimal coset representatives of W_J / W_I
    tag, letters, coset, sub, copies, rnd = action
    t = tables[tag]
    size = len(t.parabolic_elements(letters))
    relabel = list(range(copies * size))
    rnd.shuffle(relabel)
    free = FreeAction(t, letters, copies, relabel)
    els = (t.parabolic_elements(letters) if coset is None
           else coxeter.min_coset_reps(t, letters, sub, coset))
    with mock.patch.object(zeta_mod, "DUAL_CHECK_ORDER", 0):
        det = free.block_det([(free.perm(el), el.length, el.key) for el in els])
    oracle = orbit_block_det(copies * size, [(free.perm(el), el.length, el.key) for el in els])
    assert det == oracle
    assert det.exponents == oracle.exponents


def test_block_det_rejects_an_infinite_parabolic(torus_k2):
    tq = torus_k2["A2t"]
    t = tq.table
    els = [t.identity] + [t.generator(i) for i in range(3)]
    with pytest.raises(ZetaError, match="letters 123 generate no finite parabolic"):
        tq.block_det([(tq.perm(el), el.length, el.key) for el in els])


def test_block_det_rejects_a_permutation_that_is_not_its_keys(torus_k2):
    tq = torus_k2["C2t"]
    t = tq.table
    els = t.parabolic_elements((0, 2))
    triples = [(tq.perm(el), el.length, el.key) for el in els]
    triples[3] = (triples[2][0],) + triples[3][1:]
    # the word in 1-based letters, as every other message prints it
    with pytest.raises(ZetaError, match="w = 13: the permutation given is not the quotient's"):
        tq.block_det(triples)


def test_a_dropped_torus_is_freed_without_the_cycle_collector(tables):
    # the quotient is its own representation and holds no reference to
    # itself, so reference counting alone frees the torus
    t = tables["A2t"]
    gc.collect()
    gc.disable()
    try:
        tq = torus_quotient_rep(coxeter.build_system("A2t"), 3, t)
        assert strips.verify_determinant_identity(tq.system, tq, t).ok
        assert tq.representation is tq
        ref = weakref.ref(tq)
        del tq
        assert ref() is None
    finally:
        gc.enable()


def test_the_torus_is_its_own_representation(torus_k2):
    from weylzeta import hecke

    tq = torus_k2["G2t"]
    assert TorusRepresentation is TorusQuotient and tq.representation is tq
    assert (tq.q, tq.dim) == (1, tq.chamber_count())
    assert not issubclass(TorusQuotient, hecke.Representation)


def _spoil_involution(p):
    # a point a that p moves is sent to p(c), and c to p(a): still a
    # permutation, but p(p(a)) is not a
    p = list(p)
    a = next(a for a in range(len(p)) if p[a] != a)
    c = next(c for c in range(len(p)) if c not in (a, p[a]))
    p[a], p[c] = p[c], p[a]
    return tuple(p)


def _spoil_braid(p):
    # the first two 2-cycles (a b), (c d) of p made (a c), (b d): still
    # an involution
    p = list(p)
    a = next(a for a in range(len(p)) if p[a] != a)
    c = next(c for c in range(len(p)) if p[c] != c and c not in (a, p[a]))
    b, d = p[a], p[c]
    p[a], p[c], p[b], p[d] = c, a, d, b
    return tuple(p)


def _alternating(p, q, m):
    """p q p ... with m letters, as a permutation."""
    out = tuple(range(len(p)))
    for t in range(m):
        out = _perm_compose(out, (p, q)[t % 2])
    return out


@st.composite
def _involution_pairs(draw):
    n = 2 * draw(st.integers(1, 6))

    def matching():
        order = draw(st.permutations(range(n)))
        p = [0] * n
        for x, y in zip(order[::2], order[1::2]):
            p[x], p[y] = y, x
        return tuple(p)

    return matching(), matching()


@settings(max_examples=300, deadline=None)
@given(_involution_pairs(), st.integers(2, 6))
def test_braid_of_involutions_is_the_order_of_their_product(pair, m):
    # the torus build checks (pq)^m = 1 in place of pqp... = qpq..., m
    # letters a side; for fixed-point-free involutions the two agree
    p, q = pair
    power = reduce(_perm_compose, [_perm_compose(p, q)] * m)
    assert (power == tuple(range(len(p)))) == (_alternating(p, q, m) == _alternating(q, p, m))


def _spoil_translation(f):
    # s1's class map is linear, x -> M x with M = [[-1, 0], [1, 1]]; adding
    # the translation (1, 0) leaves M^2 = I but moves 0 to M e1 + e1 = e2
    return f[:4] + (f[4] + 1, f[5])


def _spoil_sign(f):
    # -M is still an involution, but (-M_1 M_2)^3 = -I
    return tuple(-x for x in f[:4]) + f[4:]


def _spoil_involution_off_index_0(p):
    # as _spoil_involution, on two indices that are neither 0 nor p(0): the
    # orbit of index 0 under R_1 is untouched
    p = list(p)
    a = next(a for a in range(len(p)) if a not in (0, p[0]))
    c = next(c for c in range(len(p)) if c not in (0, p[0], a, p[a]))
    p[a], p[c] = p[c], p[a]
    return tuple(p)


@pytest.mark.parametrize("part,spoil,match", [(0, _spoil_involution, "not an involution"),
                                              (0, _spoil_braid, "braid relation fails"),
                                              (0, _spoil_involution_off_index_0, "not an involution"),
                                              (1, _spoil_translation, "not an involution"),
                                              (1, _spoil_sign, "braid relation fails")],
                         ids=["involution", "braid", "involution-off-index-0", "classes-involution",
                              "classes-braid"])
def test_torus_build_checks_the_unit_hecke_relations(tables, monkeypatch, part, spoil, match):
    # generator 1's column R_1 of the W0 table (part 0) or its class map
    # x -> M_1 x + v_1 over Z (part 1) spoiled once they are read: the
    # constructor checks the relations on these factors, at every W0
    # index, and must refuse it
    read = TorusQuotient._read_factors

    def spoiled_read(self):
        read(self)
        if part:
            self._class_maps = (spoil(self._class_maps[0]),) + self._class_maps[1:]
        else:
            first = spoil(tuple(right[0] for right in self._w0_right))
            self._w0_right = tuple((x,) + right[1:] for x, right in zip(first, self._w0_right))

    monkeypatch.setattr(TorusQuotient, "_read_factors", spoiled_read)
    with pytest.raises(ZetaError, match=match):
        TorusQuotient(coxeter.build_system("A2t"), 3, tables["A2t"])


@pytest.mark.parametrize("letter", [-1, 3])
def test_torus_walks_refuse_a_letter_outside_the_generators(tables, letter):
    # -1 used to walk as s3 and 3 raised a bare IndexError
    tq = torus_quotient_rep(coxeter.build_system("A2t"), 3, tables["A2t"])
    message = r"letter %d is not one of the 3 generators 0\.\.2" % letter
    spec = strips.StripSpec("A2t", 1, (0, letter), 2)
    for route in (lambda: tq.walk(0, (letter,)), lambda: tq.order((letter, 0)),
                  lambda: closed_strip_counts(tq, spec, 3)):
        with pytest.raises(coxeter.CoxeterError, match=message):
            route()


def test_torus_order_checks_its_word_once(tables, monkeypatch):
    tq = torus_quotient_rep(coxeter.build_system("A2t"), 3, tables["A2t"])
    calls = []
    checked = coxeter.CoxeterSystem.checked_word
    monkeypatch.setattr(coxeter.CoxeterSystem, "checked_word",
                        lambda self, word: calls.append(word) or checked(self, word))
    assert tq.order((0, 1)) == 3 and calls == [(0, 1)]


def test_cyclic_det_cycle_formula(torus_k2):
    tq = torus_k2["A2t"]
    t = tq.table
    spec = strips.strip_generators("A2t")[0]
    el = t.element_of_word(spec.word)
    d = tq.cyclic_det_hook(t, el)
    # independent route: dense characteristic determinant
    assert d == char_matrix_det(tq.image(el), el.length)


@settings(max_examples=60, deadline=None)
@given(st.permutations(range(7)), st.integers(1, 4))
def test_cycle_type_char_poly_matches_dense(perm, shift):
    assert _perm_char_poly(perm, shift) == char_matrix_det(_perm_matrix(perm), shift)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.integers(1, 6), st.integers(1, 12)), min_size=1, max_size=3),
       st.integers(1, 4))
def test_sparse_char_poly_matches_naive_product(cycle_groups, shift):
    # many equal cycles: the grouped binomial product against one
    # (1 - u^d) factor per cycle
    perm, naive = [], Poly.one()
    for length, count in cycle_groups:
        for _ in range(count):
            start = len(perm)
            perm.extend(start + (i + 1) % length for i in range(length))
            d = shift * length
            naive = naive * Poly((1,) + (0,) * (d - 1) + (-1,))
    assert _perm_char_poly(tuple(perm), shift) == naive


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 12),
       st.lists(st.tuples(st.integers(0, 11), st.integers(1, 3)), min_size=1, max_size=4),
       st.integers(1, 5))
def test_one_vector_det_series_matches_dense_on_regular_shifts(n, shifts, order):
    # shifts x -> x + a mod n: every product of them fixes no point or all
    # n, so the one-vector trace-log applies; against det_series of the
    # dense I + sum P u^l
    perm_lengths = [(tuple((x + a) % n for x in range(n)), length) for a, length in shifts]
    coeffs = [Matrix.identity(n)] + [Matrix.identity(n) * 0] * order
    for perm, length in perm_lengths:
        if length <= order:
            coeffs[length] = coeffs[length] + _perm_matrix(perm)
    dense = det_series(PowerSeries(coeffs, order))
    # a permutation of n points is the pair with n indices and one class
    fast = _one_vector_det_series([((perm, _IDENTITY_MAP), length) for perm, length in perm_lengths], n, order)
    assert fast.order == dense.order == order
    assert list(fast.coeffs) == list(dense.coeffs)


def test_torus_strip_routes_stay_small(tables):
    # G2t at k = 8 has 768 chambers: one dense chamber matrix of tuples is
    # about 4.7 MB, the generator permutations a few kB each
    tracemalloc.start()
    try:
        tq = torus_quotient_rep(coxeter.build_system("G2t"), 8, tables["G2t"])
        for spec in strips.strip_generators("G2t"):
            el = tq.table.element_of_word(spec.word)
            tq.cyclic_det_hook(tq.table, el)
            closed_strip_counts(tq, spec, 6)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert tq.chamber_count() == 768
    assert peak < 3 * 2 ** 20, peak


def test_torus_routes_build_no_dense_matrix(tables, monkeypatch):
    # the torus build and its identity verifiers stay on permutations;
    # only image / action_matrix may build an n x n Matrix
    sizes = []
    init = Matrix.__init__

    def recording_init(self, rows):
        init(self, rows)
        sizes.append(self.nrows)

    monkeypatch.setattr(Matrix, "__init__", recording_init)
    system = coxeter.build_system("A2t")
    tq = torus_quotient_rep(system, 2, tables["A2t"])
    assert strips.verify_determinant_identity(system, tq, tq.table).ok
    assert verify_strip_zeta_identity(tq, trace_order=4).ok
    for spec in strips.strip_generators("A2t"):
        operator_strip_counts(tq, spec, 4)
    n = tq.chamber_count()
    assert n not in sizes
    tq.action_matrix(tq.table.identity)
    assert sizes[-1] == n


def test_torus_identities_stay_in_exponent_maps(tables, monkeypatch):
    # on the torus every factor, product and comparison of both identity
    # checkers is an exponent map: no RationalFunction arithmetic at all
    def refuse(*args):
        raise AssertionError("RationalFunction arithmetic on the torus route")

    for name in ("__mul__", "__eq__"):
        monkeypatch.setattr(RationalFunction, name, refuse)
    system = coxeter.build_system("A2t")
    tq = torus_quotient_rep(system, 3, tables["A2t"])
    report = strips.verify_determinant_identity(system, tq, tq.table)
    assert report.ok and report.dual_check_ok and report.witness is None
    assert str(report.alt_det) == "1 / (1-u^18)^18"
    tq = torus_quotient_rep(coxeter.build_system("C2t"), 2, tables["C2t"])
    assert verify_strip_zeta_identity(tq, trace_order=6).ok


def _tamper(monkeypatch, hook, wrong, when):
    # one factor of the torus is multiplied by a wrong map
    orig = getattr(TorusQuotient, hook)

    def tampered(self, data):
        out = orig(self, data)
        return out * wrong if when(data) else out

    monkeypatch.setattr(TorusQuotient, hook, tampered)


def test_det_identity_witness_names_first_differing_degree(torus_k2, monkeypatch):
    tq = torus_k2["A2t"]
    system = tq.system
    passing = strips.verify_determinant_identity(system, tq, tq.table)
    assert passing.witness is None and "witness" not in passing.as_json()
    # a wrong parabolic factor enters the alternating product only
    _tamper(monkeypatch, "finite_det_factor", ExponentMap({7: 1}),
            lambda els: [el.word for el in els] == [(), (0,)])
    report = strips.verify_determinant_identity(system, tq, tq.table)
    assert not report.ok and report.dual_check_ok
    w = report.witness
    assert (w["check"], w["degree"], w["lhs"], w["rhs"]) == ("identity", 7, 0, 1)
    assert {"factor": "parabolic {1}", "form": "exponent map"} in w["factors"]
    assert [f["factor"] for f in w["factors"][:5]] == [
        "factor 1 (finite)", "factor 2 (cyclic)", "factor 3 (finite)",
        "factor 4 (cyclic)", "factor 5 (finite)"]
    assert report.as_json()["witness"] == w


def test_det_identity_witness_for_a_wrong_strip_factor(torus_k2, monkeypatch):
    # a strip factor cancels from the identity itself, so the dual
    # trace-log check is what sees it, first at u^5
    tq = torus_k2["A2t"]
    _tamper(monkeypatch, "cyclic_det_factor", ExponentMap({5: 1}), lambda el: el.word == (2, 1, 0))
    report = strips.verify_determinant_identity(tq.system, tq, tq.table)
    assert not report.ok and not report.dual_check_ok
    w = report.witness
    assert (w["check"], w["degree"]) == ("dual", 5)
    assert w["lhs"] != w["rhs"]


def test_strip_zeta_report_carries_the_det_identity_witness(torus_k2, monkeypatch):
    # a wrong trace-log series fails only the dual check of the
    # determinant identity; the torus report carries that witness
    tq = torus_k2["A2t"]
    assert verify_strip_zeta_identity(tq).witness is None
    orig = TorusQuotient.det_series_hook

    def wrong(self, table, order):
        out = orig(self, table, order)
        return PowerSeries(out.coeffs[:4] + (out.coeffs[4] + 1,) + out.coeffs[5:], out.order)

    monkeypatch.setattr(TorusQuotient, "det_series_hook", wrong)
    report = verify_strip_zeta_identity(tq)
    assert (report.det_identity_ok, report.zeta_match_ok, report.trace_match_ok) == (
        False, True, True)
    assert (report.witness["check"], report.witness["degree"]) == ("dual", 4)
    assert report.as_json()["witness"] == report.witness


def test_strip_routes_at_scale_6_stay_small(tables):
    # G2t at k = 6: 432 chambers, strip cycles of length 12, so the counts
    # up to 24 see two nonzero powers; fixed points of permutation powers,
    # the generator walk and the cycle type must agree
    tracemalloc.start()
    try:
        tq = torus_quotient_rep(coxeter.build_system("G2t"), 6, tables["G2t"])
        for spec in strips.strip_generators("G2t"):
            op = operator_strip_counts(tq, spec, 24)
            assert op == closed_strip_counts(tq, spec, 24), spec.index
            el = tq.table.element_of_word(spec.word)
            assert op == _perm_zeta(label_permutation(tq, el), 24).closed_counts
            assert any(op), spec.index
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert tq.chamber_count() == 432
    assert peak < 3 * 2 ** 20, peak


def test_strip_traces_match_geometric_counts(torus_k2):
    for tag, tq in torus_k2.items():
        for spec in strips.strip_generators(tag):
            geo = closed_strip_counts(tq, spec, 6)
            op = operator_strip_counts(tq, spec, 6)
            assert geo == op, (tag, spec.index)


def test_cycle_type_strip_zeta_matches_dense(torus_k2):
    for tag, tq in torus_k2.items():
        for spec in strips.strip_generators(tag):
            el = tq.table.element_of_word(spec.word)
            order = 6 * spec.length
            fast = _perm_zeta(label_permutation(tq, el), order)
            dense = strip_zeta(tq.action_matrix(el), order)
            assert fast.zeta == dense.zeta, (tag, spec.index)
            assert fast.inverse_poly == dense.inverse_poly
            assert fast.closed_counts == dense.closed_counts
            assert fast.primitive_counts == dense.primitive_counts


def test_det_identity_torus_k2(torus_k2):
    for tag, tq in torus_k2.items():
        system = coxeter.build_system(tag)
        report = strips.verify_determinant_identity(system, tq, tq.table)
        assert report.ok, tag
        assert report.dual_check_ok


def test_det_identity_torus_k3_smallest(tables):
    tq = torus_quotient_rep(coxeter.build_system("A2t"), 3, tables["A2t"])
    report = strips.verify_determinant_identity(
        coxeter.build_system("A2t"), tq, tables["A2t"])
    assert report.ok


def test_strip_zeta_identity_k2(torus_k2):
    for tag, tq in torus_k2.items():
        report = verify_strip_zeta_identity(tq, trace_order=6)
        assert report.ok, report.as_json()


@pytest.mark.parametrize("k", [2, 5])
def test_strip_zeta_reports_read_the_exponent_map(tables, k):
    # each strip's report keeps (1 - u^o)^(n/o) as its map: the zeta, its
    # expansion to order 24 and the counts are those of the dense inverse
    # polynomial, which is expanded only when first read
    from weylzeta.zeta import _zeta_report

    for tag in ("A2t", "C2t", "G2t"):
        tq = torus_quotient_rep(coxeter.build_system(tag), k, tables[tag])
        report = verify_strip_zeta_identity(tq)
        for spec, zr in zip(strips.strip_generators(tag), report.strip_zetas):
            o = tq.order(spec.word)
            assert "inverse_poly" not in vars(zr)
            dense = _zeta_report(ExponentMap({o: tq.dim // o}).as_polynomial(), zr.closed_counts, zr.series.order)
            assert zr.zeta.expand(24).coeffs == dense.zeta.expand(24).coeffs
            assert zr.series == dense.series and zr.as_json() == dense.as_json()
            assert zr.inverse_poly == dense.inverse_poly


def test_twisted_factorization_torus(torus_k2):
    tq = torus_k2["A2t"]
    r = strips.verify_twisted_factorization(
        tq.table, strips.scheme_for("A2t"), tq, 6)
    assert r.ok


def test_dual_route_full_group_det(torus_k2):
    # trace-log series of the truncated group sum equals the expansion of
    # the exact factorized determinant (the two independent routes)
    from weylzeta.strips import twisted_group_sum

    tq = torus_k2["A2t"]
    generic = det_series(twisted_group_sum(tq, tq.table, 5))
    fast = tq.det_series_hook(tq.table, 5)
    assert generic == fast


def _recorded_power_sums(monkeypatch):
    """The power sums each one-vector call hands to power_sum_exp."""
    from weylzeta import zeta

    seen, orig = [], zeta.power_sum_exp
    monkeypatch.setattr(zeta, "power_sum_exp", lambda sums, order: seen.append(list(sums)) or orig(sums, order))
    return seen


@pytest.mark.parametrize("tag,k", [("A2t", 2), ("C2t", 2), ("G2t", 2), ("A2t", 3)],
                         ids=["A2t-k2", "C2t-k2", "G2t-k2", "A2t-k3"])
def test_one_vector_det_series_matches_dense_oracle(tables, tag, k, monkeypatch):
    # the one-vector trace-log against det_series of the dense group sum at
    # order 12, its power sums ints
    from weylzeta.strips import twisted_group_sum

    t = tables[tag]
    tq = torus_quotient_rep(coxeter.build_system(tag), k, t)
    seen = _recorded_power_sums(monkeypatch)
    fast = tq.det_series_hook(t, 12)
    assert fast == det_series(twisted_group_sum(tq, t, 12))
    assert len(seen) == 1 and len(seen[0]) == 12
    assert all(type(p) is int for p in seen[0]) and all(type(c) is int for c in fast.coeffs)


def test_one_vector_det_series_matches_dense_at_order_12_on_seeded_shifts(monkeypatch):
    # the resolvent recurrence against det_series of the dense I + sum P u^l
    # at order 12, on shifts x -> x + a mod n (a regular action), lengths
    # up to 13 so that some pairs fall past the order
    rng, order = random.Random(2812), 12
    seen = _recorded_power_sums(monkeypatch)
    for _ in range(30):
        n = rng.randint(1, 9)
        shifts = [(rng.randrange(n), rng.randint(1, 13)) for _ in range(rng.randint(1, 5))]
        perm_lengths = [(tuple((x + a) % n for x in range(n)), length) for a, length in shifts]
        coeffs = [Matrix.identity(n)] + [Matrix.identity(n) * 0] * order
        for perm, length in perm_lengths:
            if length <= order:
                coeffs[length] = coeffs[length] + _perm_matrix(perm)
        fast = _one_vector_det_series([((perm, _IDENTITY_MAP), length) for perm, length in perm_lengths], n, order)
        assert list(fast.coeffs) == list(det_series(PowerSeries(coeffs, order)).coeffs)
    assert len(seen) == 30 and all(type(p) is int for sums in seen for p in sums)


def _assert_power_sums_agree(pair_lengths, n, order):
    fast = _one_vector_power_sums(pair_lengths, n, order)
    assert fast == full_resolvent_power_sums(pair_lengths, n, order), order
    assert len(fast) == order and all(type(p) is int for p in fast)


@pytest.mark.parametrize("tag", ["A2t", "C2t", "G2t"])
def test_last_degree_lookup_matches_the_full_resolvent_pass(tables, monkeypatch, tag):
    # the last power sum read from label 0 through P^-1(0) against the pass
    # that pushes every label at every degree: the ball pushes and seeded
    # subsets of them, some with a degree left without pairs, orders 0-8
    monkeypatch.setenv("WEYLZETA_MAX_ELEMENTS", str(10 ** 14))
    rng, t = random.Random(3201), tables[tag]
    system = coxeter.build_system(tag)
    for k in [*range(2, 13), 30, 10 ** 6]:
        tq = torus_quotient_rep(system, k, t)
        pushes = [((tq._w0_mul[g], f), el.length) for el in t.ball(8)[1:] for g, f in [tq.perm(el)]]
        dets = {(a * d - b * c) % k for (_right, (a, b, c, d, _e, _h)), _l in pushes}
        assert dets == ({1} if k == 2 else {1, k - 1}), k  # the reflections have det M = -1
        for order in range(9):
            _assert_power_sums_agree(pushes, tq.n, order)
            gap = rng.randint(1, 8)  # no pairs of this length
            for subset in (rng.sample(pushes, rng.randint(0, len(pushes))),
                           [push for push in pushes if push[1] != gap and rng.random() < 0.7]):
                _assert_power_sums_agree(subset, tq.n, order)


def test_last_degree_lookup_matches_the_full_pass_on_regular_shifts():
    # the identity-map shift actions of the regular-shift tests: a
    # permutation of n points is the pair with n indices and one class
    rng = random.Random(3202)
    for _ in range(200):
        n = rng.randint(1, 12)
        shifts = [(rng.randrange(n), rng.randint(1, 9)) for _ in range(rng.randint(1, 5))]
        pair_lengths = [((tuple((x + a) % n for x in range(n)), _IDENTITY_MAP), length) for a, length in shifts]
        for order in range(9):
            _assert_power_sums_agree(pair_lengths, n, order)


def test_last_degree_lookup_refuses_a_class_map_it_cannot_invert(tables):
    # P^-1(0) needs det M with det^2 = 1 mod k; a map of det 0 is refused
    tq = torus_quotient_rep(coxeter.build_system("A2t"), 3, tables["A2t"])
    right = tq._w0_mul[0]
    with pytest.raises(ZetaError, match="det\\^2 != 1 mod 3"):
        _one_vector_power_sums([((right, (1, 1, 1, 1, 0, 0)), 1), ((right, _IDENTITY_MAP), 2)], tq.n, 3)


@pytest.mark.parametrize("k", [2, 3, 5])
@pytest.mark.parametrize("tag", ["A2t", "C2t", "G2t"])
def test_walked_orders_match_the_cycle_type_oracle(tables, tag, k):
    # regularity is proved at build, so the permutation of every element
    # of the ball of radius 8, and of each strip word, has n / o cycles of
    # length o = order(word), and fixes all n chambers or none
    t = tables[tag]
    tq = torus_quotient_rep(coxeter.build_system(tag), k, t)
    n = tq.chamber_count()
    elements = t.ball(8) + [t.element_of_word(spec.word) for spec in strips.strip_generators(tag)]
    for el in elements:
        o = tq.order(el.word)
        perm = label_permutation(tq, el)
        assert Counter(_perm_cycles(perm)) == {o: n // o}, (el.word, o)
        assert _fixed_points(perm) == (n if o == 1 else 0), el.word
        if el.length:
            assert tq.cyclic_det_factor(el) == _cycle_type_map(perm, el.length), el.word


def test_cyclic_entry_rationals_match_truncation(torus_k2):
    tq = torus_k2["A2t"]
    t = tq.table
    w1 = t.element_of_word((2, 1, 0))
    cyc = twisted_series(t, ("cyclic", w1), tq)
    ser = cyc.truncate(9)
    for i, j in ((0, 0), (0, 5), (3, 7)):
        exp = cyclic_entry_rational(cyc, i, j).expand(9)
        for d in range(10):
            assert exp.coeff(d) == ser.coeffs[d].rows[i][j]


def test_exp_of_trace_series_reproduces_zeta():
    from oracles import _series_exp
    from fractions import Fraction

    g = complete_graph(4)
    report = ihara_zeta(g, 10)
    log_coeffs = [Fraction(0)] + [Fraction(n, k) for k, n in enumerate(report.closed_counts, start=1)]
    assert _series_exp(log_coeffs, 10) == report.series


def test_zeta_report_rejects_a_wrong_count():
    # N_5 + 5 is still a valid necklace count (one more primitive class
    # of length 5), so only the power-sum exp can refuse it
    from weylzeta import zeta

    b = hashimoto_matrix(complete_graph(4))
    inv = char_matrix_det(Matrix(b), 1)
    counts = traces(b, 8)
    assert zeta._zeta_report(inv, counts, 8).closed_counts == counts
    counts[4] += 5
    with pytest.raises(ZetaError, match="trace series disagrees"):
        zeta._zeta_report(inv, counts, 8)


def test_block_det_cross_check_catches_a_wrong_block(torus_k2, monkeypatch):
    # the closed-form map times (1 - u^d)^(+-1), still a product of (1-u^d)
    # factors, wrong from degree d on: for every d up to the check's order 4
    # the one-vector power sums must refuse it
    from weylzeta import zeta

    tq = torus_k2["A2t"]
    rep, t = tq, tq.table
    els = t.parabolic_elements((0, 1))
    triples = [(rep.perm(w), w.length, w.key) for w in els]
    tq.block_det(triples)
    for d, sign in itertools.product((1, 2, 3, 4), (1, -1)):
        calls = []

        def one_map_off(exponents):
            calls.append(exponents)
            det = ExponentMap(exponents)
            return det * ExponentMap({d: sign}) if len(calls) == 1 else det

        monkeypatch.setattr(zeta, "ExponentMap", one_map_off)
        with pytest.raises(ZetaError, match="regular-block determinant failed the trace-log cross-check"):
            tq.block_det(triples)
        assert calls, (d, sign)


def test_block_det_refuses_a_set_that_is_not_a_coset_set(torus_k2):
    # W_J less one element, {e, s1 s2} and a repeated element: no set
    # W_J^I on either side, so no closed form applies
    tq = torus_k2["A2t"]
    t = tq.table
    group = t.parabolic_elements((0, 1))
    s1s2 = t.element_of_word((0, 1))
    # {e, s1 s2, s1 s2} would pass the count alone: W_J^I = {e, s2, s1 s2} for I = {s1}
    for els in (group[:-1], [t.identity, s1s2], [t.identity, s1s2, s1s2]):
        with pytest.raises(ZetaError, match="letters 12 are no set of minimal coset representatives"):
            tq.block_det([(tq.perm(w), w.length, w.key) for w in els])


@pytest.mark.parametrize("tag", ["A2t", "C2t", "G2t"])
def test_torus_identities_take_no_determinant(tables, monkeypatch, tag):
    # every torus factor is a closed form or a cycle map: no polynomial
    # determinant is taken and no polynomial is peeled
    from weylzeta import zeta

    def refuse(*_args):
        raise AssertionError("a torus identity took a determinant or a peel")

    monkeypatch.setattr(zeta, "det_poly_matrix", refuse)
    monkeypatch.setattr(RationalFunction, "binomial_factors", refuse)
    system = coxeter.build_system(tag)
    tq3 = torus_quotient_rep(system, 3, tables[tag])
    assert strips.verify_determinant_identity(system, tq3, tables[tag]).ok
    assert zeta.verify_strip_zeta_identity(torus_quotient_rep(system, 2, tables[tag])).ok


def test_scale_5_quotient_builds(tables):
    tq = torus_quotient_rep(coxeter.build_system("A2t"), 5, tables["A2t"])
    assert tq.chamber_count() == 150
    spec = strips.strip_generators("A2t")[0]
    assert closed_strip_counts(tq, spec, 5) == operator_strip_counts(tq, spec, 5)


def test_det_identity_torus_k4(tables):
    # scale 4 is the first composite scale: the regular blocks and strip
    # cycles are checked against the dual trace-log route there as well
    tq = torus_quotient_rep(coxeter.build_system("A2t"), 4, tables["A2t"])
    assert tq.chamber_count() == 96
    report = strips.verify_determinant_identity(
        coxeter.build_system("A2t"), tq, tables["A2t"])
    assert report.ok and report.dual_check_ok


def test_twisted_factorization_torus_c2t(torus_k2):
    tq = torus_k2["C2t"]
    r = strips.verify_twisted_factorization(
        tq.table, strips.scheme_for("C2t"), tq, 5)
    assert r.ok


def test_single_edge_graph_q0():
    # the 1-regular case: both determinant sides collapse to 1
    g = Graph.from_edges(2, [(0, 1)])
    r = ihara_formula_check(g, 0)
    assert r.ok
    assert r.lhs == Poly.one()


def test_torus_det_series_hook_past_the_argument_table_bound_raises(tables):
    # the ball was checked against the quotient's own bound-24 table, and
    # the layers past the bound of the table passed in were read as a bare
    # IndexError (the mirror of test_twisted_group_sum_past_the_table_bound_raises)
    system = coxeter.build_system("A2t")
    t3 = coxeter.enumerate_elements(system, 3)
    tq = torus_quotient_rep(system, 2, tables["A2t"])
    with pytest.raises(coxeter.OutOfTableError, match="order 5 is past the table bound 3"):
        tq.det_series_hook(t3, 5)
    assert tq.det_series_hook(t3, 3) == tq.det_series_hook(tables["A2t"], 3)


def test_torus_ball_past_the_table_bound_raises(tables):
    # the trace-log reads the table's layers up to the order: past a
    # bound-3 table it raised a bare IndexError.  The regular block reads
    # only W_J, which the bound-3 table holds, so it needs no ball
    system = coxeter.build_system("A2t")
    t = coxeter.enumerate_elements(system, 3)
    tq = torus_quotient_rep(system, 2, t)
    with pytest.raises(coxeter.OutOfTableError, match="order 5 is past the table bound 3"):
        tq.det_series_hook(t, 5)
    full = torus_quotient_rep(system, 2, tables["A2t"])
    dets = [q.block_det([(q.perm(el), el.length, el.key)
                         for el in q.table.parabolic_elements((0, 1))]) for q in (tq, full)]
    assert dets[0] == dets[1] and dets[0].exponents == dets[1].exponents
