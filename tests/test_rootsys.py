from itertools import combinations

import pytest

from oracles import extended_cartan, symmetrizers
from weylzeta import coxeter, rootsys
from weylzeta.series import (
    RationalFunction, alt_product_rational, binomial_product, poincare_affine, poincare_parabolic,
)


def test_counts_and_coxeter_numbers():
    expect = {
        ("A", 2): (3, 3), ("A", 4): (10, 5),
        ("B", 3): (9, 6), ("C", 4): (16, 8), ("D", 4): (12, 6),
        ("E", 6): (36, 12), ("E", 7): (63, 18), ("E", 8): (120, 30),
        ("F", 4): (24, 12), ("G", 2): (6, 6),
    }
    for (fam, rank), (count, h) in expect.items():
        rs = rootsys.positive_roots(fam, rank)
        assert len(rs.positive_roots) == count
        assert rs.coxeter_number == h


def test_height_examples():
    assert rootsys.positive_roots("A", 2).heights() == [1, 1, 2]
    assert sorted(rootsys.positive_roots("G", 2).heights()) == [1, 1, 2, 3, 4, 5]
    f4 = rootsys.positive_roots("F", 4)
    assert len(f4.positive_roots) == 24 and f4.coxeter_number == 12


def test_closure_property():
    # every non-simple positive root has some simple root it can step down by
    for fam, rank in (("B", 4), ("D", 5), ("E", 6), ("G", 2)):
        rs = rootsys.positive_roots(fam, rank)
        roots = set(rs.positive_roots)
        for a in rs.positive_roots:
            if sum(a) == 1:
                continue
            assert any(
                tuple(a[t] - (1 if t == i else 0) for t in range(rank)) in roots
                for i in range(rank)
            )


def test_highest_root_dominates():
    for fam, rank in (("A", 3), ("C", 3), ("E", 7), ("G", 2)):
        rs = rootsys.positive_roots(fam, rank)
        for a in rs.positive_roots:
            assert all(t >= c for t, c in zip(rs.highest_root, a))


def test_window_membership_and_symmetry():
    for fam, rank in (("A", 2), ("B", 3), ("F", 4), ("G", 2)):
        rs = rootsys.positive_roots(fam, rank)
        hts = sorted(rootsys.window_heights(rs))
        assert len(hts) == 2 * len(rs.positive_roots)
        h = rs.coxeter_number
        assert all(0 < t < h for t in hts)
        assert sorted(h - t for t in hts) == hts


# --- sincere tables (the published ones, with the finite G2 row corrected:
# the height-5 highest root has full support, which the published row
# "2 ~ 4" misses; the Moebius derivation and the direct subset product both
# force {2,3,4,5})


def runs(*pairs):
    out = []
    for lo, hi in pairs:
        out.extend(range(lo, hi + 1))
    return sorted(out)


FINITE_SINCERE = {
    ("A", 1): [1], ("A", 2): [2], ("A", 5): [5],
    ("B", 2): runs((2, 3)), ("B", 3): runs((3, 5)), ("B", 5): runs((5, 9)),
    ("C", 3): runs((3, 5)), ("C", 4): runs((4, 7)),
    ("D", 4): runs((4, 5)), ("D", 6): runs((6, 9)),
    ("E", 6): runs((6, 8), (8, 11)),
    ("E", 7): runs((7, 13), (9, 17)),
    ("E", 8): runs((8, 19), (10, 23), (12, 29)),
    ("F", 4): runs((4, 7), (6, 11)),
    ("G", 2): runs((2, 5)),  # corrected row
}

WRAPPED_SINCERE = {
    ("A", 1): [], ("A", 2): [], ("A", 5): [],
    ("B", 2): runs((3, 3)), ("B", 3): runs((4, 5), (5, 5)), ("B", 5): runs((6, 9), (7, 9), (8, 9), (9, 9)),
    ("C", 3): runs((4, 5), (5, 5)), ("C", 4): runs((5, 7), (6, 7), (7, 7)),
    # D_n: runs start at n+1..2n-3 and all end at 2n-3 (n-3 runs)
    ("D", 4): [5], ("D", 6): runs((7, 9), (8, 9), (9, 9)),
    ("E", 6): runs((7, 11), (9, 11), (9, 11), (11, 11)),
    ("E", 7): runs((8, 17), (10, 17), (11, 17), (13, 17), (14, 17), (17, 17)),
    ("E", 8): runs((9, 29), (11, 29), (13, 29), (14, 29), (17, 29), (19, 29), (23, 29), (29, 29)),
    ("F", 4): runs((5, 11), (7, 11), (8, 11), (11, 11)),
    ("G", 2): runs((3, 5), (5, 5)),
}


def test_sincere_heights_tables():
    for key, want in FINITE_SINCERE.items():
        rs = rootsys.positive_roots(*key)
        fin, wrap = rootsys.sincere_heights(rs)
        assert fin == want, (key, fin, want)
        assert wrap == WRAPPED_SINCERE[key], (key, wrap)


def test_bn_dn_wrapped_rows_match_pattern():
    # nested-run patterns: B_n runs start at n+1..2n-1 and end at 2n-1;
    # D_n runs start at n+1..2n-3 and end at 2n-3
    for n in (5, 7):
        _, wrap_b = rootsys.sincere_heights(rootsys.positive_roots("B", n))
        want_b = sorted(
            x for start in range(n + 1, 2 * n) for x in range(start, 2 * n)
        )
        assert wrap_b == want_b
        _, wrap_d = rootsys.sincere_heights(rootsys.positive_roots("D", n))
        want_d = sorted(
            x for start in range(n + 1, 2 * n - 2) for x in range(start, 2 * n - 2)
        )
        assert wrap_d == want_d


def test_macdonald_matches_bfs_rank_le_4():
    specs = [("A", 1), ("A", 2), ("A", 3), ("A", 4), ("B", 2), ("B", 3), ("B", 4),
             ("C", 2), ("C", 3), ("C", 4), ("D", 4), ("F", 4), ("G", 2)]
    for fam, rank in specs:
        rs = rootsys.positive_roots(fam, rank)
        fin, _ = rootsys.macdonald_series(rs)
        table = coxeter.enumerate_elements(
            coxeter.build_system("%s%d" % (fam, rank)), len(rs.positive_roots) + 1)
        assert fin == RationalFunction(poincare_parabolic(table, range(rank))), (fam, rank)


def test_macdonald_affine_matches_rank2_series():
    pairs = {"A2t": ("A", 2), "C2t": ("C", 2), "G2t": ("G", 2)}
    for tag, (fam, rank) in pairs.items():
        rs = rootsys.positive_roots(fam, rank)
        _, aff = rootsys.macdonald_series(rs)
        w, _ = poincare_affine(coxeter.build_system(tag), 10)
        assert aff == binomial_product(w.exponents), tag
    rs = rootsys.positive_roots("A", 1)
    _, aff = rootsys.macdonald_series(rs)
    w, _ = poincare_affine(coxeter.build_system("A1t"), 8)
    assert aff == binomial_product(w.exponents)


def test_alt_via_sincere_matches_direct():
    pairs = {"A2t": ("A", 2), "C2t": ("C", 2), "G2t": ("G", 2)}
    for tag, (fam, rank) in pairs.items():
        rs = rootsys.positive_roots(fam, rank)
        _, alt_aff = rootsys.alt_via_sincere(rs)
        assert alt_aff == binomial_product(alt_product_rational(coxeter.build_system(tag)).exponents), tag


def test_alt_via_sincere_finite_matches_subset_product():
    for fam, rank in (("A", 1), ("A", 2), ("B", 2), ("G", 2)):
        rs = rootsys.positive_roots(fam, rank)
        alt_fin, _ = rootsys.alt_via_sincere(rs)
        table = coxeter.enumerate_elements(
            coxeter.build_system("%s%d" % (fam, rank)), len(rs.positive_roots) + 1)
        direct = RationalFunction(poincare_parabolic(table, range(rank)))
        for size in range(rank):
            for sub in combinations(range(rank), size):
                f = RationalFunction(poincare_parabolic(table, sub))
                direct = direct * (f if (-1) ** (size + rank) == 1 else f.inverse())
        assert alt_fin == direct, (fam, rank)


def test_exponent_rows_against_golden_csv():
    import os

    golden = os.path.join(os.path.dirname(__file__), "golden", "exponents.csv")
    with open(golden) as fh:
        lines = fh.read().strip().splitlines()
    rows = rootsys.exponent_rows(rootsys.DEFAULT_TABLE_SPECS)
    got = ["type,rank,h,exponents"]
    for tag, rank, h, ds in rows:
        got.append("%s,%d,%d,%s" % (tag, rank, h, ",".join(map(str, ds))))
    assert got == lines


def test_exponent_bounds_invariant():
    for fam, rank in rootsys.DEFAULT_TABLE_SPECS:
        rs = rootsys.positive_roots(fam, rank)
        ds = rootsys.exponent_table(rs)
        assert len(ds) == rank
        assert ds[0] == rank + 1
        assert ds[-1] <= rs.coxeter_number


def test_exponents_match_strip_lengths_g2():
    from weylzeta import strips

    ds = rootsys.exponent_table(rootsys.positive_roots("G", 2))
    lengths = sorted(s.length for s in strips.strip_generators("G2t"))
    assert ds == lengths == [3, 5]


def test_extended_cartan_builds_affine_system():
    ext = extended_cartan("A", 2)
    system = coxeter.CoxeterSystem("A2-extended", ext)
    assert system.is_affine
    w_ext, _ = poincare_affine(system, 8)
    w_std, _ = poincare_affine(coxeter.build_system("A2t"), 8)
    assert w_ext == w_std


def test_extended_cartan_g2_matches_bond_orders():
    ext = extended_cartan("G", 2)
    system = coxeter.CoxeterSystem("G2-extended", ext)
    bonds = sorted(
        system.bond(i, j) for i in range(3) for j in range(i + 1, 3)
    )
    assert bonds == [2, 3, 6]


def test_unsupported_family():
    with pytest.raises(coxeter.UnsupportedTypeError):
        rootsys.positive_roots("H", 3)


def test_symmetrizers_reject_disconnected():
    with pytest.raises(rootsys.RootSystemError):
        symmetrizers(((2, 0), (0, 2)))


def test_symmetrizers_symmetrize():
    for fam, rank in (("B", 3), ("G", 2), ("F", 4)):
        rs = rootsys.positive_roots(fam, rank)
        d = symmetrizers(rs.cartan)
        n = rank
        for i in range(n):
            for j in range(n):
                assert d[i] * rs.cartan[i][j] == d[j] * rs.cartan[j][i]
