"""Finite and affine Coxeter groups in their integer geometric representation.

A group is given by its generalized Cartan matrix, from which the Coxeter
matrix, affineness and the null root are derived.  Elements are
canonicalized by their matrix in the reflection representation on the
simple-root basis, which is faithful and integral for every
crystallographic type handled here.  Enumeration is breadth-first, so
every stored length is the true word length, and it records the Cayley
graph: each element keeps the keys of its right neighbours w * s_i.
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass, field
from functools import cached_property
from itertools import combinations
from math import gcd

from .series import det_poly_matrix

INFINITE = 0  # Coxeter matrix entry encoding an infinite bond order

DEFAULT_BOUND = 24
_ENV_MAX_ELEMENTS = "WEYLZETA_MAX_ELEMENTS"
_DEFAULT_MAX_ELEMENTS = 2_000_000


class CoxeterError(Exception):
    pass


class UnsupportedTypeError(CoxeterError):
    pass


class OutOfTableError(CoxeterError):
    pass


class ResourceLimitError(CoxeterError):
    """A count passed the element cap `cap`, which the variable `env` sets."""

    env = _ENV_MAX_ELEMENTS

    def __init__(self, message, cap):
        super().__init__(message)
        self.cap = cap


# ---------------------------------------------------------------------------
# integer matrix helpers (tuples of tuples, column-vector convention)


def mat_identity(n):
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


# ---------------------------------------------------------------------------
# type data


def _bond_order(pairing):
    return {0: 2, 1: 3, 2: 4, 3: 6}.get(pairing)


def _coxeter_matrix(cartan):
    k = len(cartan)
    mat = [[1] * k for _ in range(k)]
    for i in range(k):
        for j in range(k):
            if i == j:
                continue
            prod = cartan[i][j] * cartan[j][i]
            if prod == 4:
                mat[i][j] = INFINITE
                continue
            m = _bond_order(prod)
            if m is None:
                raise UnsupportedTypeError("Cartan pairing %d is not crystallographic" % prod)
            mat[i][j] = m
    return tuple(tuple(r) for r in mat)


def _finite_cartan(family, rank):
    def path(n):
        c = [[0] * n for _ in range(n)]
        for i in range(n):
            c[i][i] = 2
            if i + 1 < n:
                c[i][i + 1] = -1
                c[i + 1][i] = -1
        return c

    if family == "A" and rank >= 1:
        return path(rank)
    if family == "B" and rank >= 2:
        c = path(rank)
        c[rank - 2][rank - 1] = -2
        return c
    if family == "C" and rank >= 2:
        c = path(rank)
        c[rank - 1][rank - 2] = -2
        return c
    if family == "D" and rank >= 3:
        c = path(rank - 1)
        for row in c:
            row.append(0)
        c.append([0] * rank)
        c[rank - 1][rank - 1] = 2
        c[rank - 3][rank - 1] = -1
        c[rank - 1][rank - 3] = -1
        return c
    if family == "E" and rank in (6, 7, 8):
        # Bourbaki: node 2 hangs off node 4 of the path 1-3-4-5-6(-7)(-8)
        c = [[0] * rank for _ in range(rank)]
        for i in range(rank):
            c[i][i] = 2
        chain = [0] + list(range(2, rank))
        for a, b in zip(chain, chain[1:]):
            c[a][b] = c[b][a] = -1
        c[1][3] = c[3][1] = -1
        return c
    if family == "F" and rank == 4:
        c = path(4)
        c[1][2] = -2
        c[2][1] = -1
        return c
    if family == "G" and rank == 2:
        return [[2, -1], [-3, 2]]
    raise UnsupportedTypeError("unsupported finite type %s%d" % (family, rank))


# affine rank <= 2 systems with the generator numbering that makes
# <s1, s2> the finite Weyl group (the stabilizer of the special vertex)
_AFFINE_CARTAN = {
    "A1t": ((2, -2), (-2, 2)),
    "A2t": ((2, -1, -1), (-1, 2, -1), (-1, -1, 2)),
    "C2t": ((2, -1, -1), (-2, 2, 0), (-2, 0, 2)),
    "G2t": ((2, -1, -1), (-3, 2, 0), (-1, 0, 2)),
}


def _null_root(cartan):
    """None when det C != 0; else the positive null root delta.

    C adj(C) = det C * I = 0, so column 0 of adj(C), the signed minors
    along row 0, lies in the kernel of C.  For an affine matrix it is a
    positive multiple of delta (Kac, Infinite-dimensional Lie algebras,
    Ch. 4): its entry 0 is the determinant of the finite Cartan matrix
    left when node 0 is deleted.  A singular matrix whose column is not
    positive is not of affine type."""
    if not det_poly_matrix(cartan).is_zero():
        return None
    rest = cartan[1:]
    col = [(-1) ** j * det_poly_matrix([r[:j] + r[j + 1 :] for r in rest]).constant()
           for j in range(len(cartan))]
    if any(c <= 0 for c in col):
        raise CoxeterError("singular Cartan matrix %r is not of affine type" % (cartan,))
    g = gcd(*col)
    return tuple(c // g for c in col)


# ---------------------------------------------------------------------------
# the Coxeter system


@dataclass(frozen=True)
class CoxeterSystem:
    """A Coxeter system is its generalized Cartan matrix.  The Coxeter
    matrix, affineness (det C = 0), the rank of the underlying finite
    root datum and the null root delta are derived from it."""

    type_tag: str
    cartan: tuple
    coxeter_matrix: tuple = field(init=False, compare=False)
    is_affine: bool = field(init=False, compare=False)
    rank: int = field(init=False, compare=False)
    delta: tuple = field(init=False, compare=False)  # None unless affine

    def __post_init__(self):
        cartan = tuple(tuple(int(v) for v in row) for row in self.cartan)
        n = len(cartan)
        if not all(len(row) == n for row in cartan) or not all(
            a == 2 if i == j else a <= 0 and (a == 0) == (cartan[j][i] == 0)
            for i, row in enumerate(cartan) for j, a in enumerate(row)
        ):
            raise UnsupportedTypeError("%r is not a generalized Cartan matrix" % (cartan,))
        delta = _null_root(cartan)
        derived = {
            "cartan": cartan,
            "coxeter_matrix": _coxeter_matrix(cartan),
            "is_affine": delta is not None,
            "rank": n - (delta is not None),
            "delta": delta,
        }
        for name, value in derived.items():
            object.__setattr__(self, name, value)

    @property
    def num_generators(self):
        return len(self.cartan)

    @cached_property
    def _cartan_support(self):
        return tuple(tuple((b, c) for b, c in enumerate(row) if c) for row in self.cartan)

    def right_reflect(self, key, i):
        """key * s_i as a rank-one update: row r becomes
        row_r - row_r[i] * cartan[i], so only the columns in the support
        of Cartan row i change, and a row with row_r[i] == 0 is reused."""
        support = self._cartan_support[i]
        out = []
        for row in key:
            x = row[i]
            if x:
                row = list(row)
                for b, c in support:
                    row[b] -= x * c
                row = tuple(row)
            out.append(row)
        return tuple(out)

    def left_reflect(self, key, i):
        """s_i * key: only row i changes, to row_i - sum_c cartan[i][c] * row_c."""
        support = self._cartan_support[i]
        row = tuple(v - sum(c * key[a][b] for a, c in support) for b, v in enumerate(key[i]))
        return key[:i] + (row,) + key[i + 1 :]

    def word_key(self, word):
        """Matrix of the product of the generators along a word."""
        key = mat_identity(self.num_generators)
        for i in word:
            key = self.right_reflect(key, i)
        return key

    def bond(self, i, j):
        return self.coxeter_matrix[i][j]

    def __repr__(self):
        return "CoxeterSystem(%s)" % self.type_tag


_TAG_RE = re.compile(r"^([A-G])(\d+)(t?)$")


def build_system(type_tag):
    """Build a supported Coxeter system from its tag.

    Finite types: "A1".."A9", "B2"..., "C2"..., "D3"..., "E6/7/8", "F4",
    "G2".  Affine types: "A1t", "A2t", "C2t", "G2t" with the rank-2
    generator numbering that makes s3 the affine reflection.
    """
    tag = type_tag.strip()
    m = _TAG_RE.match(tag)
    if not m:
        raise UnsupportedTypeError("unrecognized type tag %r" % (type_tag,))
    if not m.group(3):
        return CoxeterSystem(tag, _finite_cartan(m.group(1), int(m.group(2))))
    if tag not in _AFFINE_CARTAN:
        raise UnsupportedTypeError(
            "affine geometric systems are built in for rank <= 2 only; "
            "build CoxeterSystem(tag, cartan) from an extended Cartan matrix for %r" % (type_tag,)
        )
    return CoxeterSystem(tag, _AFFINE_CARTAN[tag])


# ---------------------------------------------------------------------------
# elements and tables


@dataclass(frozen=True, slots=True)
class GroupElement:
    key: tuple  # matrix in the geometric representation
    length: int
    word: tuple  # one reduced word, 0-based generator indices
    # links[i] is the key of w * s_i, or None for an ascent out of the
    # table's bound layer.  Keys, not elements: element-to-element links
    # would form reference cycles, so a dropped table would wait for the
    # garbage collector.
    links: list = field(compare=False, repr=False)

    def __repr__(self):
        return "GroupElement(len=%d, word=%s)" % (self.length, ",".join(str(i + 1) for i in self.word) or "e")


class ElementTable:
    """BFS-generated store of all group elements up to a length bound.

    The table is its Cayley graph: every element holds the keys of its
    right neighbours w * s_i, so right multiplication by a generator inside
    the table is a lookup.  Immutable after construction; safe for
    concurrent reads.
    """

    def __init__(self, system, bound, layers, index):
        self.system = system
        self.bound = bound
        self.layers = layers
        self.index = index
        self._parabolic_cache = {}

    @property
    def identity(self):
        return self.layers[0][0]

    def element(self, key):
        try:
            return self.index[key]
        except KeyError:
            raise OutOfTableError("element outside the enumerated bound") from None

    def __contains__(self, key):
        return key in self.index

    def __len__(self):
        return len(self.index)

    def layer_sizes(self):
        return [len(layer) for layer in self.layers]

    def generator(self, i):
        return self.element(self.right_multiply_key(self.identity.key, i))

    def right_multiply_key(self, key, i):
        """key * s_i: the stored link inside the table, the reflection
        kernel for keys outside it (or ascents out of the bound layer)."""
        el = self.index.get(key)
        link = el.links[i] if el is not None else None
        return link if link is not None else self.system.right_reflect(key, i)

    def walk_key(self, key, word):
        """key times the generators along word, by right_multiply_key."""
        for i in word:
            key = self.right_multiply_key(key, i)
        return key

    def word_key(self, word):
        return self.system.word_key(word)

    def element_of_word(self, word):
        return self.element(self.word_key(word))

    def parabolic_elements(self, gens):
        """All elements of the standard parabolic subgroup generated by the
        given generator indices.  Raises if the subgroup does not close
        within the table bound."""
        gens = tuple(sorted(set(gens)))
        cached = self._parabolic_cache.get(gens)
        if cached is not None:
            return cached
        frontier = [self.identity]
        seen = {self.identity.key}
        out = [self.identity]
        while frontier:
            nxt = []
            for el in frontier:
                for i in gens:
                    key = el.links[i]
                    if key is None:
                        raise OutOfTableError(
                            "parabolic subgroup <%s> does not close within bound %d"
                            % (",".join(str(g + 1) for g in gens), self.bound)
                        )
                    if key in seen:
                        continue
                    nel = self.index[key]
                    seen.add(key)
                    out.append(nel)
                    nxt.append(nel)
            frontier = nxt
        out.sort(key=lambda e: (e.length, e.word))
        self._parabolic_cache[gens] = out
        return out

    # -- persistence --------------------------------------------------------

    def export_lines(self):
        k = self.system.num_generators
        for layer in self.layers:
            for el in sorted(layer, key=lambda e: e.word):
                word = ",".join(str(i + 1) for i in el.word) or "-"
                entries = " ".join(str(el.key[a][b]) for a in range(k) for b in range(k))
                yield "%d\t%s\t%s" % (el.length, word, entries)

    def save(self, path):
        with open(path, "w") as fh:
            for line in self.export_lines():
                fh.write(line + "\n")


def _link_layer(system, layer, index, grow):
    """Fill the right links of one layer and return the elements it grew.

    l(ws) = l(w) +- 1, so every edge {w, ws} joins two adjacent layers.
    The layer below has already set each descent link, and each ascent is
    computed here once, by the reflection kernel, and linked both ways.
    A product missing from the index goes to grow(key, parent, i), which
    returns the new element; with grow None it is an error."""
    out = []
    for el in layer:
        links = el.links
        for i, link in enumerate(links):
            if link is not None:
                continue
            key = system.right_reflect(el.key, i)
            nb = index.get(key)
            if nb is None:
                if grow is None:
                    raise CoxeterError("table is missing a neighbour of a stored element")
                nb = grow(key, el, i)
                out.append(nb)
            elif nb.length != el.length + 1:
                raise CoxeterError("stored lengths are not breadth-first depths")
            links[i] = nb.key
            nb.links[i] = el.key
    return out


def load_table(system, path_or_lines):
    """Read a table written by ElementTable.save.  Each line holds a
    length, a word of generator numbers 1..k (or "-") and k^2 integer
    matrix entries, separated by tabs; one element, the identity, has
    length 0.  Every stored word must evaluate to its matrix, and the
    Cayley graph is linked as enumerate_elements links it, so a malformed
    or repeated line, a missing element or a stored length that is not
    the BFS depth raises CoxeterError."""
    if isinstance(path_or_lines, str):
        with open(path_or_lines) as fh:
            lines = fh.read().splitlines()
    else:
        lines = list(path_or_lines)
    k = system.num_generators
    layers = {}
    index = {}
    bound = 0
    for number, line in enumerate(lines, 1):
        if not line.strip():
            continue
        try:
            length_s, word_s, mat_s = line.strip().split("\t")
            length = int(length_s)
            word = tuple(int(p) - 1 for p in word_s.split(",")) if word_s != "-" else ()
            vals = [int(v) for v in mat_s.split()]
        except ValueError:
            raise CoxeterError("table line %d: expected three tab-separated fields of integers"
                               % number) from None
        if len(vals) != k * k or not all(0 <= s < k for s in word):
            raise CoxeterError("table line %d: expected generators 1..%d and %d matrix entries"
                               % (number, k, k * k))
        if len(word) != length:
            raise CoxeterError("table line %d: stored word length disagrees with stored length"
                               % number)
        key = tuple(tuple(vals[a * k : (a + 1) * k]) for a in range(k))
        if key in index:
            raise CoxeterError("table line %d repeats an element" % number)
        el = GroupElement(key, length, word, [None] * k)
        layers.setdefault(length, []).append(el)
        index[key] = el
        bound = max(bound, length)
    if len(layers.get(0, ())) != 1:
        raise CoxeterError("the table needs exactly one element of length 0, the identity")
    table = ElementTable(system, bound, [layers.get(d, []) for d in range(bound + 1)], index)
    # spot check: words must reproduce the stored matrices
    for el in index.values():
        if table.word_key(el.word) != el.key:
            raise CoxeterError("stored word does not evaluate to the stored matrix")
    for layer in table.layers[:-1]:
        _link_layer(system, layer, index, None)
    return table


def element_cap():
    """The element cap: WEYLZETA_MAX_ELEMENTS, or the default."""
    return int(os.environ.get(_ENV_MAX_ELEMENTS, _DEFAULT_MAX_ELEMENTS))


def check_element_cap(count, what, cap=None):
    """Raise ResourceLimitError, naming the cap's variable, when count
    (elements, or torus chambers) passes the element cap."""
    cap = element_cap() if cap is None else cap
    if count > cap:
        raise ResourceLimitError(
            "%s exceeded %d elements (set %s to raise the cap)" % (what, cap, _ENV_MAX_ELEMENTS),
            cap)


def enumerate_elements(system, bound=DEFAULT_BOUND):
    """BFS from the identity by right multiplication.

    Each element appears exactly once, at its true length, because the
    Cayley-graph distance to the identity is the Coxeter length.  The BFS
    records the Cayley graph as it runs: each edge {w, ws} is computed
    once, from its shorter end, by the rank-one reflection kernel, and
    stored as neighbour keys on both elements (see GroupElement.links).
    """
    if bound < 0:
        raise CoxeterError("bound must be nonnegative")
    cap = element_cap()
    k = system.num_generators
    ident = GroupElement(mat_identity(k), 0, (), [None] * k)
    index = {ident.key: ident}

    def grow(key, parent, i):
        nel = GroupElement(key, parent.length + 1, parent.word + (i,), [None] * k)
        index[key] = nel
        check_element_cap(len(index), "enumeration", cap)
        return nel

    layers = [[ident]]
    for _ in range(bound):
        nxt = _link_layer(system, layers[-1], index, grow)
        if not nxt:
            break  # finite group exhausted
        layers.append(nxt)
    return ElementTable(system, bound, layers, index)


# ---------------------------------------------------------------------------
# operations


def length_and_word(system, key):
    """Length and one reduced word computed by the descent walk, without
    any element table.  Column i of the key is w(alpha_i), and s_i is a
    right descent of w exactly when that root is negative; each step
    strips one right descent, so the word is built from the right."""
    k = system.num_generators
    ident = mat_identity(k)
    word = []
    cur = key
    while cur != ident:
        if len(word) >= 10_000:
            raise CoxeterError("descent walk failed to terminate")
        for i in range(k):
            col = tuple(cur[a][i] for a in range(k))
            if all(c <= 0 for c in col) and any(c < 0 for c in col):
                word.append(i)
                cur = system.right_reflect(cur, i)
                break
        else:
            raise CoxeterError("no descent found; matrix is not a group element")
    return len(word), tuple(reversed(word))


def min_coset_reps(table, J, I, side="right"):
    """Minimal coset representatives inside the parabolic W_J.

    side="right": elements of W_J with no right descent in I (minimal
    left W_I-coset representatives, W_J = reps * W_I length-additively).
    side="left": no left descent in I (W_J = W_I * reps).
    """
    if side not in ("right", "left"):
        raise CoxeterError("side must be 'right' or 'left'")
    J = tuple(sorted(set(J)))
    I = tuple(sorted(set(I)))
    if not set(I) <= set(J):
        raise CoxeterError("I must be a subset of J")
    out = []
    for el in table.parabolic_elements(J):
        for s in I:
            other_key = el.links[s] if side == "right" else table.system.left_reflect(el.key, s)
            if table.element(other_key).length < el.length:
                break
        else:
            out.append(el)
    out.sort(key=lambda e: (e.length, e.word))
    return out


def all_proper_subsets(k):
    for size in range(k):
        yield from combinations(range(k), size)
