"""Crystallographic root systems: positive roots with heights, Macdonald's
Poincare formulas for the finite and affine Weyl groups, sincere roots,
and the exponent tables of the affine alternating products.

Roots are stored in simple-root coordinates only; heights are coordinate
sums and supports are coordinate supports, so no Euclidean embedding is
needed anywhere.  Every series here is a product of (1 - u^d)^m_d, built
as its exponent map d -> m_d (exponent tables read it directly) and turned
into lowest terms by series.binomial_product: no Poly arithmetic here.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .coxeter import _finite_cartan
from .series import binomial_product


class RootSystemError(Exception):
    pass


_CLASSICAL_COUNTS = {
    "A": lambda n: n * (n + 1) // 2,
    "B": lambda n: n * n,
    "C": lambda n: n * n,
    "D": lambda n: n * (n - 1),
    "E": {6: 36, 7: 63, 8: 120},
    "F": {4: 24},
    "G": {2: 6},
}


@dataclass(frozen=True)
class RootSystem:
    family: str
    rank: int
    cartan: tuple
    positive_roots: tuple  # coordinate tuples, sorted by (height, coords)
    highest_root: tuple
    coxeter_number: int

    @property
    def type_tag(self):
        return "%s%d" % (self.family, self.rank)

    def heights(self):
        return [sum(r) for r in self.positive_roots]

    def __repr__(self):
        return "RootSystem(%s, %d positive roots, h=%d)" % (
            self.type_tag, len(self.positive_roots), self.coxeter_number)


def positive_roots(family, rank):
    """Generate the full positive system by closure from the simple roots.

    Uses the standard root-string criterion: for a root a and simple root
    a_i, a + a_i is a root exactly when p - <a, a_i^vee> > 0 where p is the
    number of steps one can subtract a_i from a staying inside the system.
    """
    family = family.upper()
    cartan = tuple(tuple(r) for r in _finite_cartan(family, rank))
    n = rank
    simple = [tuple(1 if j == i else 0 for j in range(n)) for i in range(n)]
    known = set(simple)
    by_height = {1: list(simple)}
    h = 1
    while by_height.get(h):
        nxt = []
        for a in by_height[h]:
            for i in range(n):
                pairing = sum(a[j] * cartan[i][j] for j in range(n))
                p = 0
                probe = list(a)
                while True:
                    probe[i] -= 1
                    if probe[i] < 0 or tuple(probe) not in known:
                        break
                    p += 1
                if p - pairing > 0:
                    up = tuple(a[j] + (1 if j == i else 0) for j in range(n))
                    if up not in known:
                        known.add(up)
                        nxt.append(up)
        if nxt:
            by_height[h + 1] = nxt
        h += 1
    roots = sorted(known, key=lambda r: (sum(r), r))
    expected = _CLASSICAL_COUNTS[family]
    expected = expected(rank) if callable(expected) else expected.get(rank)
    if expected is not None and len(roots) != expected:
        raise RootSystemError(
            "closure produced %d positive roots for %s%d, expected %d"
            % (len(roots), family, rank, expected))
    top_height = sum(roots[-1])
    tops = [r for r in roots if sum(r) == top_height]
    if len(tops) != 1:
        raise RootSystemError("highest root is not unique")
    return RootSystem(family, rank, cartan, tuple(roots), tops[0], top_height + 1)


# ---------------------------------------------------------------------------
# the affine root window P = {affine roots with 0 < height < h}


def window_heights(rs):
    """Heights of the affine roots strictly between 0 and the Coxeter
    number h: ht(a) for each positive root a, and h - ht(a) for delta - a."""
    heights = [sum(a) for a in rs.positive_roots]
    return heights + [rs.coxeter_number - t for t in heights]


# ---------------------------------------------------------------------------
# Macdonald's formulas


def _height_map(heights, affine_of=None):
    """Exponent map d -> m of the height product, the product of
    (1-u^(t+1)) / (1-u^t) over the heights t, divided by (1-u^h)^n for
    the affine group of a root system of rank n and Coxeter number h."""
    out = Counter()
    for t in heights:
        out[t + 1] += 1
        out[t] -= 1
    if affine_of is not None:
        out[affine_of.coxeter_number] -= affine_of.rank
    return out


def macdonald_series(rs):
    """Poincare series of the finite and affine Weyl groups from the
    height products over the positive roots and the affine window."""
    finite = _height_map(sum(a) for a in rs.positive_roots)
    affine = _height_map(window_heights(rs), rs)
    return binomial_product(finite), binomial_product(affine)


def sincere_heights(rs):
    """Heights of the full-support roots: (in R+, in the affine window
    among the wrapped roots delta - a)."""
    theta, h = rs.highest_root, rs.coxeter_number
    finite_part = sorted(sum(a) for a in rs.positive_roots if all(a))
    wrapped_part = sorted(h - sum(a) for a in rs.positive_roots
                          if all(t - c for t, c in zip(theta, a)))
    return finite_part, wrapped_part


def alt_via_sincere(rs):
    """Alternating products of parabolic Poincare series, evaluated through
    the Moebius collapse onto full-support roots."""
    finite_hts, wrapped_hts = sincere_heights(rs)
    return binomial_product(_height_map(finite_hts)), binomial_product(_height_map(wrapped_hts, rs))


def exponent_table(rs):
    """The degrees d_1 <= ... <= d_n with Alt(affine)(u)^{-1} equal to the
    product of (1 - u^{d_i}): the negated exponent map of the affine
    alternating product, which must have no negative multiplicity."""
    _, wrapped_hts = sincere_heights(rs)
    out = []
    for d, m in sorted(_height_map(wrapped_hts, rs).items()):
        if m > 0:
            raise RootSystemError("affine alternating product is not a product of 1-u^d factors")
        out.extend([d] * -m)
    n, h = rs.rank, rs.coxeter_number
    if len(out) != n or out[0] != n + 1 or out[-1] > h:
        raise RootSystemError("exponent list %r violates the rank/Coxeter bounds" % (out,))
    return out


# ---------------------------------------------------------------------------
# table output


def exponent_rows(specs):
    """Rows (type, rank, h, d_1..d_n) for the table CLI, one per type."""
    rows = []
    for family, rank in specs:
        rs = positive_roots(family, rank)
        rows.append((rs.type_tag, rank, rs.coxeter_number, exponent_table(rs)))
    return rows


DEFAULT_TABLE_SPECS = (
    [("A", n) for n in range(1, 9)]
    + [("B", n) for n in range(2, 9)]
    + [("C", n) for n in range(2, 9)]
    + [("D", n) for n in range(4, 9)]
    + [("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2)]
)
