import gc
import math
import tracemalloc
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    complete_bipartite, complete_graph, cycle_graph, cyclic_entry_rational, mat_mul, orbit_block_det,
    petersen_graph, product_key, torus_generator_permutations_by_keys, twisted_series,
)
from test_series import _det_berkowitz
from weylzeta import coxeter, strips
from weylzeta.series import (
    ExponentMap, Matrix, Poly, PowerSeries, RationalFunction, char_matrix_det, det_poly_matrix,
    det_series,
)
from weylzeta.zeta import (
    Graph,
    TorusQuotient,
    TorusRepresentation,
    ZetaError,
    _one_vector_det_series,
    _perm_char_poly,
    _perm_matrix,
    _perm_zeta,
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
def connected_multigraphs(draw):
    """Connected multigraphs without isolated vertices, with at most 6
    vertices and 9 edges: a random spanning tree plus parallel or extra
    edges.  Vertex degree stays at most 5 to bound the depth-first
    oracle, which visits every non-backtracking walk: nine parallel
    edges take seconds at length 8."""
    n = draw(st.integers(2, 6))
    edges = [(draw(st.integers(0, v - 1)), v) for v in range(1, n)]
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
@given(connected_multigraphs())
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
    rhs = (
        RationalFunction(Poly((1, 0, -1))) ** 2
        * RationalFunction(Poly((1, -1)))
        * RationalFunction(Poly((1, -2)))
        * RationalFunction(Poly((1, 1, 2))) ** 3
    )
    assert RationalFunction(r.lhs) == rhs


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
    assert strip_zeta(Matrix.zeros(3), 6).zeta == RationalFunction(Poly.one())
    z = strip_zeta(Matrix.identity(4), 6)
    assert z.zeta == RationalFunction(Poly.one(), Poly((1, -1))) ** 4
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

    def no_chamber_bfs(self):
        raise AssertionError("the chamber BFS ran over the cap")

    monkeypatch.setattr(zeta.TorusQuotient, "_enumerate_chambers", no_chamber_bfs)
    with pytest.raises(coxeter.ResourceLimitError, match="54 chambers.*WEYLZETA_MAX_ELEMENTS"):
        torus_quotient_rep(system, 3, tables["A2t"])


def _in_scaled_translations(system, g, k):
    """Whether g = w^-1 v lies in t(kL): its linear part is the identity
    (every column of g - I is a multiple of delta), and I + (g - I)/k is
    integral and a group element, which the descent walk decides."""
    delta = system.delta
    n = len(delta)
    h = [[g[a][b] - (a == b) for b in range(n)] for a in range(n)]
    if any(h[a][b] * delta[0] != h[0][b] * delta[a] for a in range(n) for b in range(n)):
        return False
    if any(x % k for row in h for x in row):
        return False
    root = tuple(tuple((a == b) + h[a][b] // k for b in range(n)) for a in range(n))
    try:
        coxeter.length_and_word(system, root)
    except coxeter.CoxeterError:
        return False
    return True


@pytest.mark.parametrize("tag", ["A2t", "C2t", "G2t"])
def test_chamber_labels_match_the_definition(tables, tag):
    # w and v share a chamber exactly when w^-1 v is in t(kL); every pair
    # of the ball of length <= 9
    system = coxeter.build_system(tag)
    table = tables[tag]
    ball = [el for layer in table.layers[:10] for el in layer]
    inverses = [system.word_key(reversed(el.word)) for el in ball]
    quotients = [[mat_mul(inv, v.key) for v in ball] for inv in inverses]
    for k in (2, 3):
        tq = torus_quotient_rep(system, k, table)
        chamber = [tq.perm(table, el)[0] for el in ball]
        shared = 0
        for i, row in enumerate(quotients):
            for j, g in enumerate(row):
                same = chamber[i] == chamber[j]
                assert same == _in_scaled_translations(system, g, k), (tag, k, ball[i].word, ball[j].word)
                shared += same and i != j
        assert shared > 0


def test_lattice_from_the_weyl_orbit_spans_every_translation_in_the_table(torus_k2):
    # row 2 of a key is the image phi(mu) of its translation part; the
    # basis read from W0 and s3 spans exactly the row-2 vectors of the table
    for tq in torus_k2.values():
        (a, b), c = tq._basis
        vectors = sorted({(key[2][0], key[2][1]) for key in tq.table.index})
        for x, y in vectors:
            assert x % a == 0 and (y - x // a * b) % c == 0
        minors = math.gcd(*(x1 * y2 - x2 * y1 for x1, y1 in vectors for x2, y2 in vectors))
        assert minors == a * c  # equal index in Z^2, so equal lattices


@pytest.mark.parametrize("k", [2, 3, 5, 8, 12])
@pytest.mark.parametrize("tag", ["A2t", "C2t", "G2t"])
def test_row_two_chamber_search_matches_the_key_walk(tables, tag, k):
    tq = torus_quotient_rep(coxeter.build_system(tag), k, tables[tag])
    assert tq.generator_permutations == torus_generator_permutations_by_keys(tq)


def test_torus_build_reflects_only_the_weyl_section(tables, monkeypatch):
    # the chamber search carries row 2 and a W0 index, so the only
    # reflections are the 3 |W0| of the right-multiplication table on W0
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


def test_rank_one_rejected():
    with pytest.raises(ZetaError):
        torus_quotient_rep(coxeter.build_system("A1t"), 2)


def test_identity_trace_is_chamber_count(torus_k2):
    tq = torus_k2["A2t"]
    ident = tq.table.identity
    mat = tq.action_matrix(ident)
    assert mat.trace() == tq.chamber_count()


def test_action_is_homomorphism(torus_k2):
    tq = torus_k2["C2t"]
    t = tq.table
    w = t.element_of_word((0, 1, 2))
    v = t.element_of_word((2, 1))
    wv = t.element(product_key(t, w.key, v.key))
    assert tq.image(t, w) * tq.image(t, v) == tq.image(t, wv)


def test_length_additive_products_via_permutations(torus_k2):
    for tag, tq in torus_k2.items():
        t = tq.table
        elements = [el for layer in t.layers[:11] for el in layer]
        checked = 0
        for w in elements:
            pw = tq.perm(t, w)
            for v in elements:
                if w.length + v.length > 10:
                    continue
                wv = t.element(product_key(t, w.key, v.key))
                if wv.length != w.length + v.length:
                    continue
                pv = tq.perm(t, v)
                assert tuple(pv[pw[i]] for i in range(len(pw))) == tq.perm(t, wv)
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
        triples = [(tq.perm(t, el), el.length, el.key) for el in els]
        block = tq.block_det(triples)
        assert not block.residual
        assert block.as_polynomial() == FiniteTwistedSeries(tq, els, t).det()
        assert block == orbit_block_det(tq.chamber_count(), triples)


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
        pos = {el.key: i for i, el in enumerate(els)}
        rows = [[Poly.zero()] * len(els) for _ in els]
        for v in els:
            for w in els:
                j = pos[product_key(t, v.key, w.key)]
                rows[pos[v.key]][j] = rows[pos[v.key]][j] + Poly.u(w.length)
        assert n % len(els) == 0
        regular = ExponentMap.of_poly(det_poly_matrix(rows), n // len(els))
        assert tq.block_det([(tq.perm(t, el), el.length, el.key) for el in els]) == regular, gens


class FreeAction(TorusQuotient):
    """`copies` copies of W_J acting on itself by right multiplication, the
    chambers relabelled by `relabel`: the action block_det relies on,
    without the torus around it.  Generators outside J get no permutation,
    so only W_J can be walked, and the trace-log check (which walks a
    ball of the whole group) must be off: dual_check_order=0."""

    def __init__(self, table, letters, copies, relabel):
        group = table.parabolic_elements(letters)
        index = {v.key: i for i, v in enumerate(group)}
        size = len(group)
        perms = []
        for s in range(table.system.num_generators):
            perm = None
            if s in letters:
                perm = [None] * (copies * size)
                for c in range(copies):
                    for v in group:
                        perm[relabel[c * size + index[v.key]]] = relabel[c * size + index[v.links[s]]]
                perm = tuple(perm)
            perms.append(perm)
        self.system, self.table = table.system, table
        self.chambers = range(copies * size)
        self.generator_permutations = tuple(perms)
        self._perm_cache = {table.identity.key: tuple(self.chambers)}
        self._regular_radius = 0
        self._free_parabolics = set()


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
    triples = [(free.perm(t, el), el.length, el.key) for el in els]
    det = free.block_det(triples, dual_check_order=0)
    oracle = orbit_block_det(copies * size, triples)
    assert det == oracle
    assert det.exponents == oracle.exponents and not det.residual and not oracle.residual


@pytest.mark.parametrize("length", [2, 6])
def test_block_det_rejects_an_action_that_is_not_free(tables, length):
    # an element of W_J = <s1, s2> of G2t made to fix a chamber: at length
    # 2 as the identity permutation (all chambers fixed, which the ball's
    # regularity allows), and the longest element, of length 6, with one
    # chamber fixed (outside the trace-log ball of radius 4)
    t = tables["G2t"]
    tq = torus_quotient_rep(coxeter.build_system("G2t"), 2, t)
    n = tq.chamber_count()
    els = t.parabolic_elements((0, 1))
    w = next(el for el in els if el.length == length)
    perm = list(tq.perm(t, w))
    if length == 2:
        perm = list(range(n))
    else:
        c = perm.index(0)
        perm[0], perm[c] = 0, perm[0]
    tq._perm_cache[w.key] = tuple(perm)
    with pytest.raises(ZetaError, match="w = %s in W_J fixes" % "".join(map(str, w.word))):
        tq.block_det([(tq.perm(t, el), el.length, el.key) for el in els])


def test_block_det_rejects_an_infinite_parabolic(torus_k2):
    tq = torus_k2["A2t"]
    t = tq.table
    els = [t.identity] + [t.generator(i) for i in range(3)]
    with pytest.raises(ZetaError, match="letters 123 generate no finite parabolic"):
        tq.block_det([(tq.perm(t, el), el.length, el.key) for el in els])


def test_block_det_rejects_a_permutation_that_is_not_its_keys(torus_k2):
    tq = torus_k2["C2t"]
    t = tq.table
    els = t.parabolic_elements((0, 2))
    triples = [(tq.perm(t, el), el.length, el.key) for el in els]
    triples[1] = (triples[2][0],) + triples[1][1:]
    with pytest.raises(ZetaError, match="not the quotient's"):
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


def _spoil_involution(perms):
    # generator 1 sends a to p(c) and c to p(a): still fixed-point free,
    # but p(p(a)) = c
    p = list(perms[0])
    a, c = 0, next(c for c in range(len(p)) if c not in (0, p[0]))
    p[a], p[c] = p[c], p[a]
    return (tuple(p),) + perms[1:]


def _spoil_braid(perms):
    # generator 1 with its 2-cycles (a b), (c d) made (a c), (b d): still
    # a fixed-point-free involution
    p = list(perms[0])
    a, c = 0, next(c for c in range(len(p)) if c not in (0, p[0]))
    b, d = p[a], p[c]
    p[a], p[c], p[b], p[d] = c, a, d, b
    return (tuple(p),) + perms[1:]


@pytest.mark.parametrize("spoil,match", [(_spoil_involution, "not an involution"),
                                         (_spoil_braid, "braid relation fails")],
                         ids=["involution", "braid"])
def test_torus_build_checks_the_unit_hecke_relations(tables, monkeypatch, spoil, match):
    # a generator permutation spoiled after the chamber search: the
    # constructor itself must refuse it
    search = TorusQuotient._enumerate_chambers

    def spoiled_search(self):
        search(self)
        self.generator_permutations = spoil(self.generator_permutations)

    monkeypatch.setattr(TorusQuotient, "_enumerate_chambers", spoiled_search)
    with pytest.raises(ZetaError, match=match):
        TorusQuotient(coxeter.build_system("A2t"), 2, tables["A2t"])


def test_cyclic_det_cycle_formula(torus_k2):
    tq = torus_k2["A2t"]
    t = tq.table
    spec = strips.strip_generators("A2t")[0]
    el = t.element_of_word(spec.word)
    d = tq.cyclic_det_hook(t, el)
    # independent route: dense characteristic determinant
    assert d == char_matrix_det(tq.image(t, el), el.length)


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
    coeffs = [Matrix.identity(n)] + [Matrix.zeros(n)] * order
    for perm, length in perm_lengths:
        if length <= order:
            coeffs[length] = coeffs[length] + _perm_matrix(perm)
    dense = det_series(PowerSeries(coeffs, order))
    fast = _one_vector_det_series(perm_lengths, n, order)
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

    for name in ("__mul__", "__truediv__", "__eq__"):
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

    def tampered(self, table, data):
        out = orig(self, table, data)
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
            assert op == _perm_zeta(tq.perm(tq.table, el), 24).closed_counts
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
            fast = _perm_zeta(tq.perm(tq.table, el), order)
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


@pytest.mark.parametrize("tag,k", [("A2t", 2), ("C2t", 2), ("G2t", 2), ("A2t", 3)],
                         ids=["A2t-k2", "C2t-k2", "G2t-k2", "A2t-k3"])
def test_one_vector_det_series_matches_dense_oracle(tables, tag, k):
    # the one-vector trace-log against det_series of the dense group sum
    from weylzeta.strips import twisted_group_sum

    t = tables[tag]
    tq = torus_quotient_rep(coxeter.build_system(tag), k, t)
    assert tq.det_series_hook(t, 6) == det_series(twisted_group_sum(tq, t, 6))


def test_regularity_assertion_rejects_a_fixed_chamber(tables):
    # one ball permutation that fixes some chambers but not all: both
    # one-vector routes must refuse it rather than return n * (N^j)_00
    t = tables["A2t"]
    tq = torus_quotient_rep(coxeter.build_system("A2t"), 2, t)
    n = tq.chamber_count()
    el = t.layers[2][0]
    tq._perm_cache[el.key] = (1, 0) + tuple(range(2, n))
    with pytest.raises(ZetaError, match="not regular"):
        tq.det_series_hook(t, 4)
    els = t.parabolic_elements((0, 1))
    with pytest.raises(ZetaError, match="not regular"):
        tq.block_det([(tq.perm(t, w), w.length, w.key) for w in els])


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
    # the regular-block determinant off by u^3: the truncated one-vector
    # trace-log must refuse it
    from weylzeta import zeta

    tq = torus_k2["A2t"]
    rep, t = tq, tq.table
    els = t.parabolic_elements((0, 1))
    triples = [(rep.perm(t, w), w.length, w.key) for w in els]
    tq.block_det(triples)
    calls = []

    def one_block_off(rows):
        calls.append(rows)
        det = det_poly_matrix(rows)
        return det + Poly.u(3) if len(calls) == 1 else det

    monkeypatch.setattr(zeta, "det_poly_matrix", one_block_off)
    with pytest.raises(ZetaError, match="trace-log cross-check"):
        tq.block_det(triples)
    assert calls


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
