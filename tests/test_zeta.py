import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weylzeta import coxeter, strips
from weylzeta.series import Matrix, Poly, RationalFunction
from weylzeta.zeta import (
    Graph,
    ZetaError,
    _perm_zeta,
    closed_strip_counts,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    geodesic_oracle,
    hashimoto_matrix,
    ihara_formula_check,
    ihara_zeta,
    operator_strip_counts,
    petersen_graph,
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
    rep = tq.representation
    w = t.element_of_word((0, 1, 2))
    v = t.element_of_word((2, 1))
    wv = t.element(t.product_key(w.key, v.key))
    assert rep.image(t, w) * rep.image(t, v) == rep.image(t, wv)


def test_length_additive_products_via_permutations(torus_k2):
    for tag, tq in torus_k2.items():
        t = tq.table
        rep = tq.representation
        elements = [el for layer in t.layers[:11] for el in layer]
        checked = 0
        for w in elements:
            pw = rep.perm(t, w)
            for v in elements:
                if w.length + v.length > 10:
                    continue
                wv = t.element(t.product_key(w.key, v.key))
                if wv.length != w.length + v.length:
                    continue
                pv = rep.perm(t, v)
                assert tuple(pv[pw[i]] for i in range(len(pw))) == rep.perm(t, wv)
                checked += 1
        assert checked > 1000


@pytest.mark.parametrize("tag,k", [("A2t", 2), ("A2t", 3), ("C2t", 2)], ids=["A2t-k2", "A2t-k3", "C2t-k2"])
def test_block_det_matches_generic(tables, tag, k):
    # every scheme finite factor and every proper parabolic: the orbit-block
    # route against the dense determinant of the twisted series
    from weylzeta.hecke import FiniteTwistedSeries

    t = tables[tag]
    tq = torus_quotient_rep(coxeter.build_system(tag), k, t)
    rep = tq.representation
    sets = [data for kind, data in strips.realize_factors(t, strips.scheme_for(tag)) if kind == "finite"]
    sets += [t.parabolic_elements(gens) for gens in coxeter.all_proper_subsets(3)]
    assert len(sets) == 10
    for els in sets:
        block = tq.block_det([(rep.perm(t, el), el.length, el.key) for el in els])
        assert block == FiniteTwistedSeries(rep, els, t).det()


def test_cyclic_det_cycle_formula(torus_k2):
    tq = torus_k2["A2t"]
    t = tq.table
    rep = tq.representation
    spec = strips.strip_generators("A2t")[0]
    el = t.element_of_word(spec.word)
    d = rep.cyclic_det_hook(t, el)
    # independent route: dense characteristic determinant
    from weylzeta.series import char_matrix_det

    assert d == char_matrix_det(rep.image(t, el), el.length)


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
            fast = _perm_zeta(tq.representation.perm(tq.table, el), order)
            dense = strip_zeta(tq.action_matrix(el), order)
            assert fast.zeta == dense.zeta, (tag, spec.index)
            assert fast.inverse_poly == dense.inverse_poly
            assert fast.closed_counts == dense.closed_counts
            assert fast.primitive_counts == dense.primitive_counts


def test_det_identity_torus_k2(torus_k2):
    for tag, tq in torus_k2.items():
        system = coxeter.build_system(tag)
        report = strips.verify_determinant_identity(system, tq.representation, tq.table)
        assert report.ok, tag
        assert report.dual_check_ok


def test_det_identity_torus_k3_smallest(tables):
    tq = torus_quotient_rep(coxeter.build_system("A2t"), 3, tables["A2t"])
    report = strips.verify_determinant_identity(
        coxeter.build_system("A2t"), tq.representation, tables["A2t"])
    assert report.ok


def test_strip_zeta_identity_k2(torus_k2):
    for tag, tq in torus_k2.items():
        report = verify_strip_zeta_identity(tq, trace_order=6)
        assert report.ok, report.as_json()


def test_twisted_factorization_torus(torus_k2):
    tq = torus_k2["A2t"]
    r = strips.verify_twisted_factorization(
        tq.table, strips.scheme_for("A2t"), tq.representation, 6)
    assert r.ok


def test_dual_route_full_group_det(torus_k2):
    # trace-log series of the truncated group sum equals the expansion of
    # the exact factorized determinant (the two independent routes)
    from weylzeta.series import det_series
    from weylzeta.strips import twisted_group_sum

    tq = torus_k2["A2t"]
    rep = tq.representation
    generic = det_series(twisted_group_sum(rep, tq.table, 5))
    fast = rep.det_series_hook(tq.table, 5)
    assert generic == fast


def test_cyclic_entry_rationals_match_truncation(torus_k2):
    from weylzeta.hecke import twisted_series

    tq = torus_k2["A2t"]
    t = tq.table
    w1 = t.element_of_word((2, 1, 0))
    cyc = twisted_series(t, ("cyclic", w1), tq.representation)
    ser = cyc.truncate(9)
    for i, j in ((0, 0), (0, 5), (3, 7)):
        exp = cyc.entry_rational(i, j).expand(9)
        for d in range(10):
            assert exp.coeff(d) == ser.coeffs[d].rows[i][j]


def test_exp_of_trace_series_reproduces_zeta():
    from weylzeta.series import _series_exp
    from fractions import Fraction

    g = complete_graph(4)
    report = ihara_zeta(g, 10)
    log_coeffs = [Fraction(0)] + [Fraction(n, k) for k, n in enumerate(report.closed_counts, start=1)]
    assert _series_exp(log_coeffs, 10) == report.series


def test_scale_5_quotient_builds(tables):
    tq = torus_quotient_rep(coxeter.build_system("A2t"), 5, tables["A2t"])
    assert tq.chamber_count() == 150
    spec = strips.strip_generators("A2t")[0]
    assert closed_strip_counts(tq, spec, 5) == operator_strip_counts(tq, spec, 5)


def test_det_identity_torus_k4(tables):
    # scale 4 is the first composite scale: the orbit blocks and strip
    # cycles are checked against the dual trace-log route there as well
    tq = torus_quotient_rep(coxeter.build_system("A2t"), 4, tables["A2t"])
    assert tq.chamber_count() == 96
    report = strips.verify_determinant_identity(
        coxeter.build_system("A2t"), tq.representation, tables["A2t"])
    assert report.ok and report.dual_check_ok


def test_twisted_factorization_torus_c2t(torus_k2):
    tq = torus_k2["C2t"]
    r = strips.verify_twisted_factorization(
        tq.table, strips.scheme_for("C2t"), tq.representation, 5)
    assert r.ok


def test_single_edge_graph_q0():
    # the 1-regular case: both determinant sides collapse to 1
    g = Graph.from_edges(2, [(0, 1)])
    r = ihara_formula_check(g, 0)
    assert r.ok
    assert r.lhs == Poly.one()
