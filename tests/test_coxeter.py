import gc
import itertools
import math
import tracemalloc
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weylzeta import coxeter
from weylzeta.coxeter import (
    INFINITE,
    CoxeterError,
    CoxeterSystem,
    OutOfTableError,
    ResourceLimitError,
    UnsupportedTypeError,
    build_system,
    enumerate_elements,
    length_and_word,
    load_table,
    mat_identity,
    min_coset_reps,
)
from oracles import extended_cartan, mat_mul, multiply, product_key


def test_affine_bond_orders_match_expected():
    a2t = build_system("A2t")
    assert (a2t.bond(0, 1), a2t.bond(1, 2), a2t.bond(0, 2)) == (3, 3, 3)
    c2t = build_system("C2t")
    assert (c2t.bond(0, 1), c2t.bond(1, 2), c2t.bond(0, 2)) == (4, 2, 4)
    g2t = build_system("G2t")
    assert (g2t.bond(0, 1), g2t.bond(1, 2), g2t.bond(0, 2)) == (6, 2, 3)
    a1t = build_system("A1t")
    assert a1t.bond(0, 1) == INFINITE


def test_unsupported_types_raise():
    with pytest.raises(UnsupportedTypeError):
        build_system("H3")
    with pytest.raises(UnsupportedTypeError):
        build_system("F5")
    with pytest.raises(UnsupportedTypeError):
        build_system("B2t")


def test_cartan_pairings_are_crystallographic():
    for tag in ("A2t", "C2t", "G2t", "A1t", "A3", "B3", "C3", "D4", "F4", "G2", "E6"):
        s = build_system(tag)
        k = s.num_generators
        for i in range(k):
            assert s.cartan[i][i] == 2
            for j in range(k):
                if i == j:
                    continue
                prod = s.cartan[i][j] * s.cartan[j][i]
                assert prod in (0, 1, 2, 3, 4)


def test_generator_relations_exact():
    for tag in ("A2t", "C2t", "G2t", "A1t", "B3", "F4", "G2", "D4"):
        s = build_system(tag)
        k = s.num_generators
        ident = mat_identity(k)
        for i in range(k):
            gi = s.generator_matrix(i)
            assert mat_mul(gi, gi) == ident
            for j in range(i + 1, k):
                m = s.bond(i, j)
                if m == INFINITE:
                    continue
                prod = mat_mul(gi, s.generator_matrix(j))
                acc = ident
                for _ in range(m):
                    acc = mat_mul(acc, prod)
                assert acc == ident


def test_infinite_bond_never_closes():
    s = build_system("A1t")
    prod = mat_mul(s.generator_matrix(0), s.generator_matrix(1))
    acc = mat_identity(2)
    for _ in range(50):
        acc = mat_mul(acc, prod)
        assert acc != mat_identity(2)


def brute_force_s3_layers(depth):
    """Independent oracle: BFS over the six 3x3 permutation matrices."""
    def perm_mat(p):
        return tuple(tuple(1 if p[i] == j else 0 for j in range(3)) for i in range(3))

    gens = [perm_mat((1, 0, 2)), perm_mat((0, 2, 1))]
    seen = {mat_identity(3): 0}
    frontier = [mat_identity(3)]
    for d in range(1, depth + 1):
        nxt = []
        for m in frontier:
            for g in gens:
                p = mat_mul(m, g)
                if p not in seen:
                    seen[p] = d
                    nxt.append(p)
        frontier = nxt
    sizes = [0] * (max(seen.values()) + 1)
    for v in seen.values():
        sizes[v] += 1
    return sizes


def test_finite_a2_layers_match_permutation_oracle():
    table = enumerate_elements(build_system("A2"), 3)
    assert table.layer_sizes() == brute_force_s3_layers(3) == [1, 2, 2, 1]


def test_affine_a2_layers_match_series_oracle(tables):
    # expand (1+u)(1+u+u^2)/((1-u)(1-u^2)) independently of the BFS
    from weylzeta.series import Poly, RationalFunction

    rf = RationalFunction(Poly((1, 1)) * Poly((1, 1, 1)), Poly((1, -1)) * Poly((1, 0, -1)))
    expansion = rf.expand(4)
    table = enumerate_elements(build_system("A2t"), 4)
    assert table.layer_sizes() == [expansion.coeff(d) for d in range(5)] == [1, 3, 6, 9, 12]


def test_zero_bound_table():
    table = enumerate_elements(build_system("G2t"), 0)
    assert table.layer_sizes() == [1]


def test_resource_cap(monkeypatch):
    monkeypatch.setenv("WEYLZETA_MAX_ELEMENTS", "50")
    with pytest.raises(ResourceLimitError):
        enumerate_elements(build_system("A2t"), 20)


def test_multiply_examples(tables):
    t = tables["A2t"]
    s1 = t.generator(0)
    s2 = t.generator(1)
    el, additive = multiply(t, s1, s1)
    assert el is t.identity and not additive
    el, additive = multiply(t, s1, s2)
    assert el.length == 2 and additive
    w1 = t.element_of_word((2, 1, 0))
    el, additive = multiply(t, w1, w1)
    assert el.length == 6 and additive


def test_multiply_out_of_bound():
    t = enumerate_elements(build_system("A2t"), 3)
    w = t.element_of_word((2, 1, 0))
    with pytest.raises(OutOfTableError):
        multiply(t, w, w)


def test_min_coset_reps_examples(tables):
    t = tables["A2t"]
    reps = min_coset_reps(t, (0, 1), (1,), side="right")
    assert sorted(el.word for el in reps) == [(), (0,), (1, 0)]
    full = min_coset_reps(t, (0, 1), (), side="right")
    assert len(full) == 6
    only_e = min_coset_reps(t, (0, 1), (0, 1), side="right")
    assert [el.length for el in only_e] == [0]


@pytest.mark.parametrize("I", [(), (1,)])
def test_min_coset_reps_rejects_an_unknown_side(tables, I):
    # also when I is empty, where no descent is ever looked at
    with pytest.raises(CoxeterError, match="side must be"):
        min_coset_reps(tables["A2t"], (0, 1), I, side="up")


def test_min_coset_reps_counts(tables):
    # |W_J| = |reps| * |W_I| for every nested pair inside every finite parabolic
    for tag in ("A2t", "C2t", "G2t"):
        t = tables[tag]
        for J in itertools.combinations(range(3), 2):
            for size in range(3):
                for I in itertools.combinations(J, size):
                    wj = len(t.parabolic_elements(J))
                    wi = len(t.parabolic_elements(I))
                    for side in ("right", "left"):
                        reps = min_coset_reps(t, J, I, side)
                        assert len(reps) * wi == wj


def test_coset_product_bijection(tables):
    # reps x W_I -> W_J is a length-additive bijection
    for tag in ("A2t", "G2t"):
        t = tables[tag]
        for J in itertools.combinations(range(3), 2):
            for I in ((J[0],), (J[1],)):
                reps = min_coset_reps(t, J, I, side="right")
                sub = t.parabolic_elements(I)
                seen = set()
                for r in reps:
                    for w in sub:
                        el, additive = multiply(t, r, w)
                        assert additive
                        seen.add(el.key)
                assert len(seen) == len(t.parabolic_elements(J))


def test_exchange_property_spot_check(tables):
    t = tables["C2t"]
    for layer in t.layers[:8]:
        for el in layer:
            for s in range(3):
                other = t.element(t.right_multiply_key(el.key, s))
                assert abs(other.length - el.length) == 1


def test_descent_walk_matches_bfs(tables):
    finite = {tag: enumerate_elements(build_system(tag), 8) for tag in ("F4", "E6", "B3")}
    for tag, t in {**tables, **finite}.items():
        system = t.system
        for layer in t.layers[:9]:
            for el in layer:
                length, word = length_and_word(system, el.key)
                assert length == el.length
                assert t.word_key(word) == el.key


def test_parabolic_lengths_are_global_lengths(tables):
    t = tables["G2t"]
    for gens in ((0, 1), (1, 2), (0, 2)):
        for el in t.parabolic_elements(gens):
            assert set(el.word) <= set(gens)
            assert el.length == len(el.word)


def test_table_export_import_roundtrip(tmp_path, tables):
    t = enumerate_elements(build_system("C2t"), 6)
    path = tmp_path / "c2t.tsv"
    t.save(str(path))
    loaded = load_table(build_system("C2t"), str(path))
    assert loaded.layer_sizes() == t.layer_sizes()
    assert set(loaded.index) == set(t.index)
    assert all(loaded.index[key].links == el.links for key, el in t.index.items())
    # malformed line rejected
    bad = path.read_text().splitlines()
    bad[3] = bad[3].replace("\t", " ", 1)
    with pytest.raises(Exception):
        load_table(build_system("C2t"), bad)


def test_cartan_constructor_roundtrip():
    a2t = build_system("A2t")
    rebuilt = CoxeterSystem("custom", [list(row) for row in a2t.cartan])
    assert rebuilt.is_affine
    assert rebuilt.cartan == a2t.cartan
    assert rebuilt.coxeter_matrix == a2t.coxeter_matrix
    assert rebuilt.delta == a2t.delta


# the fields derived from each built-in affine Cartan matrix
AFFINE_DERIVED = {
    "A1t": (((1, INFINITE), (INFINITE, 1)), 1, (1, 1)),
    "A2t": (((1, 3, 3), (3, 1, 3), (3, 3, 1)), 2, (1, 1, 1)),
    "C2t": (((1, 4, 4), (4, 1, 2), (4, 2, 1)), 2, (1, 1, 1)),
    "G2t": (((1, 6, 3), (6, 1, 2), (3, 2, 1)), 2, (2, 3, 1)),
}


@pytest.mark.parametrize("tag", sorted(AFFINE_DERIVED))
def test_builtin_affine_derived_fields(tag):
    system = build_system(tag)
    assert (system.coxeter_matrix, system.rank, system.delta) == AFFINE_DERIVED[tag]
    assert system.is_affine and system.num_generators == len(system.cartan)


EXTENDED = (("A", 1), ("A", 2), ("A", 3), ("A", 4), ("B", 2), ("B", 3), ("B", 4),
            ("C", 2), ("C", 3), ("C", 4), ("D", 4), ("F", 4), ("G", 2), ("E", 6))


@pytest.mark.parametrize("family,n", EXTENDED, ids=["%s%d" % fn for fn in EXTENDED])
def test_extended_cartan_null_root(family, n):
    cartan = extended_cartan(family, n)
    system = CoxeterSystem("%s%dt" % (family, n), cartan)
    delta = system.delta
    assert system.is_affine and system.rank == n
    assert all(sum(c * d for c, d in zip(row, delta)) == 0 for row in cartan)
    assert all(d > 0 for d in delta) and math.gcd(*delta) == 1


HYPERBOLIC = ((2, -2, -2), (-2, 2, -2), (-2, -2, 2))  # det -32, every bond infinite


def test_nonsingular_cartan_is_not_affine():
    cartans = [build_system(tag).cartan for tag in ("A2", "B3", "G2", "E8")] + [HYPERBOLIC]
    for cartan in cartans:
        system = CoxeterSystem("x", cartan)
        assert not system.is_affine and system.delta is None
        assert system.rank == system.num_generators
    assert CoxeterSystem("x", HYPERBOLIC).coxeter_matrix == (
        (1, INFINITE, INFINITE), (INFINITE, 1, INFINITE), (INFINITE, INFINITE, 1))


def test_singular_cartan_without_positive_null_root_raises():
    # A1t + A1: det 0, but its kernel is spanned by (1, 1, 0)
    with pytest.raises(CoxeterError, match="not of affine type"):
        CoxeterSystem("A1t+A1", ((2, -2, 0), (-2, 2, 0), (0, 0, 2)))
    # A1 + A1t: column 0 of the adjugate is zero
    with pytest.raises(CoxeterError, match="not of affine type"):
        CoxeterSystem("A1+A1t", ((2, 0, 0), (0, 2, -2), (0, -2, 2)))


@pytest.mark.parametrize("cartan", [
    ((2, -1), (-1, 3)),  # diagonal entry not 2
    ((2, -1, 0), (-1, 2)),  # not square
    ((2, -1), (0, 2)),  # a_ij = 0 but a_ji != 0: (s1 s2)^2 != 1
    ((2, 1), (1, 2)),  # positive off-diagonal entries
    ((2, -5), (-1, 2)),  # pairing 5 is not crystallographic
])
def test_malformed_cartan_raises(cartan):
    with pytest.raises(UnsupportedTypeError):
        CoxeterSystem("bad", cartan)


def test_load_table_rejects_tampered_length(tmp_path):
    t = enumerate_elements(build_system("A2t"), 3)
    path = tmp_path / "t.tsv"
    t.save(str(path))
    lines = path.read_text().splitlines()
    # inflate a stored length
    parts = lines[5].split("\t")
    parts[0] = str(int(parts[0]) + 1)
    lines[5] = "\t".join(parts)
    with pytest.raises(coxeter.CoxeterError):
        load_table(build_system("A2t"), lines)


def test_load_table_rejects_tampered_word(tmp_path):
    t = enumerate_elements(build_system("A2t"), 3)
    path = tmp_path / "t.tsv"
    t.save(str(path))
    lines = path.read_text().splitlines()
    parts = lines[4].split("\t")
    parts[1] = "2" if parts[1] != "2" else "1"
    lines[4] = "\t".join(parts)
    with pytest.raises(coxeter.CoxeterError):
        load_table(build_system("A2t"), lines)


def test_load_table_rejects_missing_element(tmp_path):
    t = enumerate_elements(build_system("A2t"), 3)
    path = tmp_path / "t.tsv"
    t.save(str(path))
    lines = path.read_text().splitlines()
    del lines[5]
    with pytest.raises(coxeter.CoxeterError):
        load_table(build_system("A2t"), lines)


@pytest.mark.parametrize("tag,bound", [
    ("A1t", 24), ("A2t", 24), ("C2t", 24), ("G2t", 24), ("F4", 24), ("E6", 8), ("B3", 8),
])
def test_links_are_the_cayley_graph(tag, bound):
    system = build_system(tag)
    t = enumerate_elements(system, bound)
    if tag == "F4":
        assert len(t) == 1152  # all of F4: its longest element has length 24
    gens = [system.generator_matrix(i) for i in range(system.num_generators)]
    for key, el in t.index.items():
        for i, link in enumerate(el.links):
            product = mat_mul(key, gens[i])
            # None exactly for an ascent out of the bound layer
            assert (link is None) == (el.length == t.bound and product not in t.index)
            if link is None:
                continue
            assert link == product
            other = t.index[link]
            assert other.links[i] == key
            assert abs(other.length - el.length) == 1


KERNEL_TAGS = ("A1t", "A2t", "C2t", "G2t", "A1", "A4", "B3", "C3", "D4", "E6", "E7", "E8", "F4", "G2")


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(KERNEL_TAGS), st.data())
def test_reflection_kernels_match_mat_mul(tag, data):
    system = build_system(tag)
    k = system.num_generators
    key = tuple(tuple(row) for row in data.draw(
        st.lists(st.lists(st.integers(-50, 50), min_size=k, max_size=k), min_size=k, max_size=k)))
    i = data.draw(st.integers(0, k - 1))
    gen = system.generator_matrix(i)
    assert system.right_reflect(key, i) == mat_mul(key, gen)
    assert system.left_reflect(key, i) == mat_mul(gen, key)
    word = data.draw(st.lists(st.integers(0, k - 1), max_size=8))
    expected = mat_identity(k)
    for j in word:
        expected = mat_mul(expected, system.generator_matrix(j))
    assert system.word_key(word) == expected


WALK_TABLES = {tag: enumerate_elements(build_system(tag), 6) for tag in ("A2t", "C2t", "G2t")}


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(sorted(WALK_TABLES)), st.sampled_from(("inside", "bound", "outside")), st.data())
def test_walking_a_stored_word_matches_mat_mul(tag, where, data):
    # right_multiply_key reads a link inside the table and falls back to
    # the reflection kernel on the bound layer (whose ascent links are
    # None) and outside the table
    table = WALK_TABLES[tag]
    k = table.system.num_generators
    if where == "outside":
        word = data.draw(st.lists(st.integers(0, k - 1), min_size=table.bound + 1, max_size=table.bound + 6))
        key = table.system.word_key(word)
    else:
        layers = table.layers[:-1] if where == "inside" else table.layers[-1:]
        key = data.draw(st.sampled_from([el.key for layer in layers for el in layer]))
    if where == "bound":
        assert any(link is None for link in table.element(key).links)
    el = data.draw(st.sampled_from([el for layer in table.layers for el in layer]))
    assert table.walk_key(key, el.word) == product_key(table, key, el.key) == mat_mul(key, el.key)


def test_table_memory_is_small_and_freed_without_gc():
    # Neighbour links are keys, so the elements form no reference cycle:
    # with the collector off, dropping the table frees it and its elements
    # at once.  What stays traced afterwards is only the interpreter's
    # tuple free lists (a few hundred KB).
    system = build_system("A2t")
    enumerate_elements(system, 2)  # fill the system's kernel cache first
    gc.collect()
    gc.disable()
    tracemalloc.start()
    try:
        table = enumerate_elements(system, 60)
        live = tracemalloc.get_traced_memory()[0]
        ref = weakref.ref(table)
        assert len(table) == 5491
        del table
        assert ref() is None
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
        gc.enable()
    assert live < 5.3 * 2**20
    assert retained < 2**20
