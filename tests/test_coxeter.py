import gc
import itertools
import math
import tracemalloc
import weakref
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weylzeta import coxeter, hecke, strips
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
    layer_sizes,
    load_table,
    min_coset_reps,
)
from oracles import (
    column_sums, extended_cartan, generator_matrix, mat_identity, mat_mul, multiply, product_key,
)


def neighbour_keys(table, el):
    """The keys of w * s_i for each generator i, read off the table's
    neighbour positions (None for an ascent out of the bound layer)."""
    return tuple(None if row[el.position] is None else table.elements[row[el.position]].key
                 for row in table.neighbours)


def key_graph(table):
    """The table's Cayley graph on keys, which does not depend on the order
    of the positions (load_table places a layer by word)."""
    return {el.key: neighbour_keys(table, el) for el in table.elements}


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
            gi = generator_matrix(s, i)
            assert mat_mul(gi, gi) == ident
            for j in range(i + 1, k):
                m = s.bond(i, j)
                if m == INFINITE:
                    continue
                prod = mat_mul(gi, generator_matrix(s, j))
                acc = ident
                for _ in range(m):
                    acc = mat_mul(acc, prod)
                assert acc == ident


def test_infinite_bond_never_closes():
    s = build_system("A1t")
    prod = mat_mul(generator_matrix(s, 0), generator_matrix(s, 1))
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


@pytest.mark.parametrize("letter", [-1, 3])
def test_element_of_word_refuses_a_letter_outside_the_generators(tables, letter):
    # a negative letter used to count from the end (s3 for -1); 3 was an
    # IndexError.  word_matrix and walk_key did the same until they refused it too
    table = tables["A2t"]
    routes = (table.element_of_word, table.system.word_matrix,
              lambda word: table.walk_key(table.identity.key, word))
    for route in routes:
        with pytest.raises(CoxeterError, match=r"letter %d is not one of the 3 generators 0\.\.2" % letter):
            route((0, letter))


def test_system_equality_reads_the_tag_and_cartan_matrix():
    rows = [[2, -1, -1], [-1, 2, -1], [-1, -1, 2]]
    lists, tuples = CoxeterSystem("x", rows), CoxeterSystem("x", tuple(map(tuple, rows)))
    assert lists == tuples and hash(lists) == hash(tuples)
    assert {lists: 1}[tuples] == 1
    assert lists != CoxeterSystem("y", rows) and lists != CoxeterSystem("x", build_system("C2t").cartan)
    # the derived fields play no part
    tuples.rank, tuples.delta, tuples.coxeter_matrix = 99, None, ()
    assert lists == tuples and hash(lists) == hash(tuples)


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


def test_parabolic_order_is_the_word_order():
    # each layer is sorted by the parent's place and the letter, which is
    # the order of the BFS words; TorusQuotient numbers W0 by it
    tables = {tag: enumerate_elements(build_system(tag), bound)
              for tag, bound in (("A2t", 24), ("C2t", 24), ("G2t", 24), ("F4", 24), ("E6", 8))}
    closed = 0
    for tag, t in tables.items():
        k = t.system.num_generators
        for size in range(k + 1):
            for gens in itertools.combinations(range(k), size):
                try:
                    els = t.parabolic_elements(gens)
                except OutOfTableError:
                    continue
                closed += 1
                assert els == sorted(els, key=lambda e: (e.length, e.word))
                assert len({el.key for el in els}) == len(els)
    assert closed > 60


def test_coset_sets_are_computed_once_per_table(tables, monkeypatch):
    calls = []
    descent = coxeter._descent
    monkeypatch.setattr(coxeter, "_descent", lambda *args: calls.append(args) or descent(*args))
    for tag in ("A2t", "C2t", "G2t"):
        system, t = build_system(tag), tables[tag]
        rep = hecke.characters(system)[1].as_representation()
        first = strips.realize_factors(t, strips.scheme_for(tag))
        report = strips.verify_determinant_identity(system, rep, t)
        calls.clear()
        again = strips.verify_determinant_identity(system, rep, t)
        assert calls == [] and again.ok == report.ok
        assert strips.realize_factors(t, strips.scheme_for(tag)) == first


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
                assert t.system.word_key(word) == el.key


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
    assert key_graph(loaded) == key_graph(t)
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


def _replace(i, old, new):
    return lambda lines: [ln.replace(old, new, 1) if j == i else ln for j, ln in enumerate(lines)]


# each case loaded or failed untyped before load_table checked its lines:
# generator 0 was read as index -1 (s3) and 9 as an index past k, a
# missing identity failed later in table.identity, and a repeated line
# put one element twice in its layer
MALFORMED_TABLES = {
    "generator-0": (_replace(3, "\t3\t", "\t0\t"), "table line 4: expected generators 1..3"),
    "generator-9": (_replace(3, "\t3\t", "\t9\t"), "table line 4: expected generators 1..3"),
    "two-fields": (lambda lines: lines[:2] + ["1\t2"] + lines[3:], "table line 3: expected three"),
    "non-integer-length": (_replace(1, "1\t", "1.5\t"), "table line 2: expected three"),
    "repeated-line": (lambda lines: lines + ["", lines[5]], "table line 12 repeats an element"),
    "empty": (lambda lines: [], "exactly one element of length 0"),
    "no-identity": (lambda lines: lines[1:], "exactly one element of length 0"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_TABLES))
def test_load_table_rejects_a_malformed_table(case):
    tamper, message = MALFORMED_TABLES[case]
    lines = list(enumerate_elements(build_system("A2t"), 2).export_lines())
    with pytest.raises(coxeter.CoxeterError, match=message):
        load_table(build_system("A2t"), tamper(lines))


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
    gens = [generator_matrix(system, i) for i in range(system.num_generators)]
    for key, el in t.index.items():
        matrix = system.word_matrix(el.word)
        for i, link in enumerate(neighbour_keys(t, el)):
            product = column_sums(mat_mul(matrix, gens[i]))
            # None exactly for an ascent out of the bound layer
            assert (link is None) == (el.length == t.bound and product not in t.index)
            if link is None:
                continue
            assert link == product
            other = t.index[link]
            assert neighbour_keys(t, other)[i] == key
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
    gen = generator_matrix(system, i)
    assert system.right_reflect(key, i) == mat_mul(key, gen)
    assert system.right_multiply_key(column_sums(key), i) == column_sums(mat_mul(key, gen))
    word = data.draw(st.lists(st.integers(0, k - 1), max_size=8))
    expected = mat_identity(k)
    for j in word:
        expected = mat_mul(expected, generator_matrix(system, j))
    assert system.word_matrix(word) == expected
    assert system.word_key(word) == column_sums(expected)


WALK_TABLES = {tag: enumerate_elements(build_system(tag), 6) for tag in ("A2t", "C2t", "G2t")}


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(sorted(WALK_TABLES)), st.sampled_from(("inside", "bound", "outside")), st.data())
def test_walking_a_stored_word_matches_mat_mul(tag, where, data):
    # right_multiply_key reads a neighbour inside the table and falls back
    # to the reflection kernel on the bound layer (whose ascent neighbours
    # are None) and outside the table
    table = WALK_TABLES[tag]
    system = table.system
    k = system.num_generators
    if where == "outside":
        word = data.draw(st.lists(st.integers(0, k - 1), min_size=table.bound + 1, max_size=table.bound + 6))
    else:
        layers = table.layers[:-1] if where == "inside" else table.layers[-1:]
        word = data.draw(st.sampled_from([el for layer in layers for el in layer])).word
    key = system.word_key(word)
    if where == "bound":
        assert any(link is None for link in neighbour_keys(table, table.element(key)))
    el = data.draw(st.sampled_from([el for layer in table.layers for el in layer]))
    product = column_sums(mat_mul(system.word_matrix(word), system.word_matrix(el.word)))
    assert table.walk_key(key, el.word) == product_key(table, key, el.key) == product


@pytest.mark.parametrize("tag,bound", [("A2t", 24), ("C2t", 24), ("G2t", 24), ("F4", 30), ("E6", 6)])
def test_the_cayley_view_is_the_table_on_positions(tag, bound):
    # positions in layer order; each neighbour is the key kernel's product,
    # one length up exactly for key[s] > 0, the ascent flag (nb > p) and
    # linked back; None exactly out of the bound layer; the word memo,
    # filled by a product over every element, holds each element's word
    from weylzeta import hecke

    t = enumerate_elements(build_system(tag), bound)
    elements = [el for layer in t.layers for el in layer]
    assert t.elements == elements and [el.position for el in elements] == list(range(len(t)))
    assert [el.length for el in elements] == sorted(el.length for el in elements)
    assert t.words == {t.identity.key: ()}
    escapes = 0
    for p, el in enumerate(elements):
        assert t.index[el.key] is el
        for s, link in enumerate(neighbour_keys(t, el)):
            nb, up = t.neighbours[s][p], el.key[s] > 0
            if link is None:
                assert nb is None and up and el.length == t.bound
                escapes += 1
                continue
            assert link == t.system.right_multiply_key(el.key, s)
            assert t.elements[nb].length == el.length + (1 if up else -1)
            assert (nb > p) == up
            # linked back, and both ends store the elements' own position ints
            assert t.neighbours[s][nb] is el.position and nb is t.elements[nb].position
    assert (escapes > 0) == (tag != "F4")
    if tag == "F4":
        assert len(t) == 1152
    everything = hecke.HeckeElement(t, {el.key: 1 for el in elements})
    assert hecke.hecke_mul(t, hecke.basis_element(t, t.identity), everything) == everything
    assert len(t.words) == len(t)
    assert all(t.words[el.key] == el.word for el in elements)

    def contents(obj):  # the graph's leaves: ints and sentinels, no element
        if isinstance(obj, (dict, list, tuple)):
            for item in obj.items() if isinstance(obj, dict) else obj:
                yield from contents(item)
        else:
            yield obj

    assert {type(leaf) for leaf in contents([t.neighbours, t.words])} <= {int, type(None)}


def test_a_table_with_its_cayley_view_is_freed_without_gc():
    from weylzeta import hecke

    t = enumerate_elements(build_system("A2t"), 12)
    x = hecke.basis_element(t, t.element_of_word((0, 1, 2)))
    hecke.hecke_mul(t, x, x)
    assert len(t.words) > 1  # the product filled the word memo
    gc.collect()
    gc.disable()
    try:
        ref = weakref.ref(t)
        del t, x
        assert ref() is None
    finally:
        gc.enable()


@pytest.mark.parametrize("tag,bound", [
    ("A1t", 20), ("A2t", 20), ("C2t", 20), ("G2t", 20), ("F4", 24), ("E6", 8),
])
def test_keys_are_column_sums_and_descents_are_negative_entries(tag, bound):
    # the key is the column sums of the word's matrix, v_i < 0 exactly for
    # the descent neighbours, and the descent walk on the key alone gives the
    # length and a word whose matrix has that key again
    system = build_system(tag)
    t = enumerate_elements(system, bound)
    if tag == "F4":
        assert len(t) == 1152
    for el in t.index.values():
        assert el.key == column_sums(system.word_matrix(el.word))
        for i, link in enumerate(neighbour_keys(t, el)):
            down = link is not None and t.element(link).length == el.length - 1
            assert (el.key[i] < 0) == down
        length, word = length_and_word(system, el.key)
        assert length == el.length
        assert column_sums(system.word_matrix(word)) == el.key


@pytest.mark.parametrize("tag", ["A1t", "A2t", "C2t", "G2t"])
def test_streaming_layer_sizes_match_the_table(tag):
    system = build_system(tag)
    assert layer_sizes(system, 30) == enumerate_elements(system, 30).layer_sizes()


def test_streaming_layer_sizes_of_finite_groups_stop_at_the_longest_element():
    for tag in ("A2", "B3", "G2", "F4"):
        system = build_system(tag)
        assert layer_sizes(system, 40) == enumerate_elements(system, 40).layer_sizes()


def test_streaming_layer_sizes_respect_the_cap(monkeypatch):
    monkeypatch.setenv("WEYLZETA_MAX_ELEMENTS", "50")
    with pytest.raises(ResourceLimitError, match="enumeration exceeded 50"):
        layer_sizes(build_system("A2t"), 20)


GOLDEN_TABLES = Path(__file__).parent / "golden" / "tables"


@pytest.mark.parametrize("tag", ["C2t", "G2t"])
def test_export_matches_the_golden_and_round_trips(tag):
    # lengths, BFS words and matrices, byte for byte as the matrix-keyed
    # table wrote them
    golden = (GOLDEN_TABLES / ("export_%s_bound6.txt" % tag)).read_text()
    system = build_system(tag)
    table = enumerate_elements(system, 6)
    assert "".join(line + "\n" for line in table.export_lines()) == golden
    loaded = load_table(system, golden.splitlines())
    assert "".join(line + "\n" for line in loaded.export_lines()) == golden
    assert key_graph(loaded) == key_graph(table)


def test_load_table_rejects_a_word_whose_prefix_is_not_stored():
    # 2,1,2,3 is a reduced word of the element stored as 1,2,1,3, but its
    # prefix 2,1,2 is stored as 1,2,1, so no stored word reaches it
    lines = list(enumerate_elements(build_system("A2t"), 4).export_lines())
    row = next(i for i, ln in enumerate(lines) if ln.split("\t")[1] == "1,2,1,3")
    lines[row] = lines[row].replace("\t1,2,1,3\t", "\t2,1,2,3\t")
    with pytest.raises(CoxeterError, match="table line %d: the word's prefix is not a stored" % (row + 1)):
        load_table(build_system("A2t"), lines)


def test_bytes_per_element_do_not_grow_with_length():
    # an element holds its key, its position, its letter and its parent, not
    # its word, so its size does not grow with its length
    system = build_system("A2t")
    enumerate_elements(system, 2)
    per_element = {}
    for bound in (40, 120):
        gc.collect()
        tracemalloc.start()
        try:
            table = enumerate_elements(system, bound)
            per_element[bound] = tracemalloc.get_traced_memory()[0] / len(table)
        finally:
            tracemalloc.stop()
        del table
    assert abs(per_element[120] - per_element[40]) <= 0.15 * per_element[40], per_element


def test_table_memory_is_small_and_freed_without_gc():
    # Neighbours are positions, so the elements form no reference cycle:
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
