"""Finite and affine Coxeter groups in their integer geometric representation.

A group is given by its generalized Cartan matrix, from which the Coxeter
matrix, affineness and the null root are derived.  An element w is keyed
by v = (w^-1 f)(alpha_j), the column sums of its matrix, for f = 1 on every
simple root: f is inside the fundamental chamber of the Tits cone, so the
key is injective on W (Bourbaki, Lie Groups and Lie Algebras V 4.4-4.6).
w * s_i has key v_b - v_i * cartan[i][b], and s_i is a right descent
exactly when v_i < 0.  Enumeration is breadth-first, so every stored
length is the true word length; it records the Cayley graph on the
breadth-first positions (the position of w * s_i for each w and i) and
each element's parent.
"""

import os
import re
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
# type data


# Coxeter matrix entry m_ij by the pairing a_ij * a_ji of a Cartan matrix
_BOND_ORDER = {0: 2, 1: 3, 2: 4, 3: 6, 4: INFINITE}


def _coxeter_matrix(cartan):
    k = len(cartan)
    mat = [[1] * k for _ in range(k)]
    for i in range(k):
        for j in range(k):
            if i != j:
                prod = cartan[i][j] * cartan[j][i]
                if prod not in _BOND_ORDER:
                    raise UnsupportedTypeError("Cartan pairing %d is not crystallographic" % prod)
                mat[i][j] = _BOND_ORDER[prod]
    return tuple(tuple(r) for r in mat)


def _finite_cartan(family, rank):
    def path(n):
        return [[2 if i == j else -(abs(i - j) == 1) for j in range(n)] for i in range(n)]

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
        c = path(rank)  # node rank-1 moves from node rank-2 to node rank-3
        c[rank - 2][rank - 1] = c[rank - 1][rank - 2] = 0
        c[rank - 3][rank - 1] = c[rank - 1][rank - 3] = -1
        return c
    if family == "E" and rank in (6, 7, 8):
        # Bourbaki: node 2 hangs off node 4 of the path 1-3-4-5-6(-7)(-8)
        c = path(rank)
        c[0][1] = c[1][0] = c[1][2] = c[2][1] = 0
        c[0][2] = c[2][0] = c[1][3] = c[3][1] = -1
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


class CoxeterSystem:
    """A Coxeter system is its generalized Cartan matrix.  The Coxeter
    matrix, affineness (det C = 0), the rank of the underlying finite
    root datum and the null root delta are derived from it; equality and
    hashing read the tag and the Cartan matrix only."""

    def __init__(self, type_tag, cartan):
        cartan = tuple(tuple(int(v) for v in row) for row in cartan)
        n = len(cartan)
        if not all(len(row) == n for row in cartan) or not all(
            a == 2 if i == j else a <= 0 and (a == 0) == (cartan[j][i] == 0)
            for i, row in enumerate(cartan) for j, a in enumerate(row)
        ):
            raise UnsupportedTypeError("%r is not a generalized Cartan matrix" % (cartan,))
        delta = _null_root(cartan)
        self.type_tag = type_tag
        self.cartan = cartan
        self.coxeter_matrix = _coxeter_matrix(cartan)
        self.is_affine = delta is not None
        self.rank = n - (delta is not None)
        self.delta = delta  # None unless affine

    def __eq__(self, other):
        return other.__class__ is self.__class__ and (
            (self.type_tag, self.cartan) == (other.type_tag, other.cartan))

    def __hash__(self):
        return hash((self.type_tag, self.cartan))

    @property
    def num_generators(self):
        return len(self.cartan)

    @cached_property
    def _cartan_support(self):
        return tuple(tuple((b, c) for b, c in enumerate(row) if c) for row in self.cartan)

    def right_multiply_key(self, key, i):
        """Key of w * s_i from the key of w: v_b - v_i * cartan[i][b], only
        on the support of Cartan row i."""
        x = key[i]
        v = list(key)
        for b, c in self._cartan_support[i]:
            v[b] -= x * c
        return tuple(v)

    def checked_word(self, word):
        """The word as a tuple; a letter outside 0..n-1 raises CoxeterError.
        One min and one max per word, not a test per letter."""
        word, n = tuple(word), self.num_generators
        if word and not (0 <= min(word) and max(word) < n):
            i = next(i for i in word if not 0 <= i < n)
            raise CoxeterError("letter %r is not one of the %d generators 0..%d" % (i, n, n - 1))
        return word

    def word_key(self, word):
        """Key of the product of the generators along a word; a letter
        outside 0..n-1 raises CoxeterError."""
        key = (1,) * self.num_generators
        for i in self.checked_word(word):
            key = self.right_multiply_key(key, i)
        return key

    def right_reflect(self, matrix, i):
        """matrix * s_i for a matrix on the simple-root basis (column
        vectors): each row changes as a key does."""
        return tuple(self.right_multiply_key(row, i) for row in matrix)

    def word_matrix(self, word):
        """Matrix of the product of the generators along a word, checked as
        by word_key; its column sums are the word's key."""
        n = self.num_generators
        matrix = tuple(tuple(int(a == b) for b in range(n)) for a in range(n))
        for i in self.checked_word(word):
            matrix = self.right_reflect(matrix, i)
        return matrix

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


class GroupElement:
    __slots__ = ("key", "length", "position", "letter", "parent")

    def __init__(self, key, length, position, letter=None, parent=None):
        self.key = key  # (w^-1 f)(alpha_j): the column sums of w's matrix
        self.length = length
        self.position = position  # w's place in the table's breadth-first order
        self.letter = letter  # w = parent * s_letter, parent its breadth-first parent
        self.parent = parent

    @property
    def word(self):
        """The reduced word the BFS assigned (0-based), read along the parents."""
        el, out = self, []
        while el.parent is not None:
            out.append(el.letter)
            el = el.parent
        return tuple(reversed(out))

    def __repr__(self):
        return "GroupElement(len=%d, word=%s)" % (self.length, ",".join(str(i + 1) for i in self.word) or "e")


class ElementTable:
    """BFS-generated store of all group elements up to a length bound.

    The table is its Cayley graph on breadth-first positions 0..n-1, in
    layer order: `elements[p]` is the element at p, and `neighbours[s][p]`
    the position of p * s, or None for an ascent out of the bound layer.
    Positions run layer by layer, so p * s is an ascent exactly when its
    position is past p.  Positions are ints and parents are shorter, so
    the table holds no reference cycle.  `words` is a memo of BFS words by
    key.  Immutable after construction, but for its memos.
    """

    def __init__(self, system, bound, layers, index, neighbours):
        self.system = system
        self.bound = bound
        self.layers = layers
        self.index = index
        self.elements = [el for layer in layers for el in layer]
        self.neighbours = neighbours
        self.words = {self.identity.key: ()}
        self._parabolic_cache = {}
        self._coset_cache = {}  # (J, I, side) -> min_coset_reps

    @property
    def identity(self):
        return self.layers[0][0]

    def element(self, key):
        try:
            return self.index[key]
        except KeyError:
            raise OutOfTableError("element outside the enumerated bound") from None

    def __len__(self):
        return len(self.index)

    def layer_sizes(self):
        return [len(layer) for layer in self.layers]

    def ball(self, order):
        """Every element of length at most order, by layer (a finite group's
        layers may end sooner); an order past the bound raises OutOfTableError."""
        if order > self.bound:
            raise OutOfTableError("order %d is past the table bound %d" % (order, self.bound))
        return [el for layer in self.layers[: order + 1] for el in layer]

    def generator(self, i):
        return self.element(self.right_multiply_key(self.identity.key, i))

    def right_multiply_key(self, key, i):
        """key * s_i: the stored neighbour inside the table, the system's
        kernel for keys outside it (or ascents out of the bound layer)."""
        el = self.index.get(key)
        ws = self.neighbours[i][el.position] if el is not None else None
        return self.elements[ws].key if ws is not None else self.system.right_multiply_key(key, i)

    def walk_key(self, key, word):
        """key times the generators along word, checked as by word_key."""
        for i in self.system.checked_word(word):
            key = self.right_multiply_key(key, i)
        return key

    def element_of_word(self, word):
        return self.element(self.system.word_key(word))

    def parabolic_elements(self, gens):
        """All elements of the standard parabolic subgroup generated by the
        given generator indices.  Raises if the subgroup does not close
        within the table bound."""
        gens = tuple(sorted(set(gens)))
        cached = self._parabolic_cache.get(gens)
        if cached is not None:
            return cached
        out, frontier = [self.identity], [self.identity]
        place = {0: 0}  # position -> place in out
        while frontier:
            nxt = {}
            for el in frontier:
                for i in gens:
                    ws = self.neighbours[i][el.position]
                    if ws is None:
                        raise OutOfTableError(
                            "parabolic subgroup <%s> does not close within bound %d"
                            % (",".join(str(g + 1) for g in gens), self.bound)
                        )
                    if ws not in place:
                        nxt[ws] = self.elements[ws]
            # a layer in word order: a BFS word is its parent's word, one
            # layer up (so already placed), and one more letter
            frontier = sorted(nxt.values(), key=lambda e: (place[e.parent.position], e.letter))
            place.update((e.position, p) for p, e in enumerate(frontier, len(out)))
            out += frontier
        self._parabolic_cache[gens] = out
        return out

    # -- persistence --------------------------------------------------------

    def export_lines(self):
        """One line per element, layer by layer and by word: its length, its
        word and the k^2 entries of its matrix, each matrix made from its
        parent's by one reflection."""
        system = self.system
        matrices = {}
        for layer in self.layers:
            above, matrices = matrices, {}
            for word, el in sorted(((el.word, el) for el in layer), key=lambda pair: pair[0]):
                m = matrices[el.key] = (system.word_matrix(()) if el.parent is None
                                        else system.right_reflect(above[el.parent.key], el.letter))
                yield "%d\t%s\t%s" % (el.length, ",".join(str(i + 1) for i in word) or "-",
                                       " ".join(str(x) for row in m for x in row))

    def save(self, path):
        with open(path, "w") as fh:
            for line in self.export_lines():
                fh.write(line + "\n")


def _link_layer(system, layer, index, neighbours, grow):
    """Fill the neighbours of one layer and return the elements it grew.

    l(ws) = l(w) +- 1, so every edge {w, ws} joins two adjacent layers.
    The layer below has already set each descent, and each ascent is
    computed here once, by the key kernel (inlined), and linked both ways
    by the elements' own position ints.  A product missing from the index
    goes to grow(key, parent, i), which returns the new element; with
    grow None it is an error."""
    support = system._cartan_support
    out = []
    for el in layer:
        key, p = el.key, el.position
        for i, row in enumerate(neighbours):
            if row[p] is not None:
                continue
            x = key[i]
            v = list(key)
            for b, c in support[i]:
                v[b] -= x * c
            v = tuple(v)
            nb = index.get(v)
            if nb is None:
                if grow is None:
                    raise CoxeterError("table is missing a neighbour of a stored element")
                nb = grow(v, el, i)
                out.append(nb)
            elif nb.length != el.length + 1:
                raise CoxeterError("stored lengths are not breadth-first depths")
            row[p] = nb.position
            row[nb.position] = p
    return out


def load_table(system, path_or_lines):
    """Read a table written by ElementTable.save.  Each line holds a
    length, a word of generator numbers 1..k (or "-") and k^2 integer
    matrix entries, separated by tabs; one element, the identity, has
    length 0.  Every stored word is checked to evaluate to its matrix
    along its prefixes, which must be stored words too (as save writes
    them).  Elements are keyed by their matrices' column sums, placed in
    file order and linked as enumerate_elements links them, so a malformed
    or repeated line, a missing element or a stored length that is not the
    BFS depth raises CoxeterError."""
    if isinstance(path_or_lines, str):
        with open(path_or_lines) as fh:
            lines = fh.read().splitlines()
    else:
        lines = list(path_or_lines)
    k = system.num_generators
    records = {}
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
        matrix = tuple(tuple(vals[a * k : (a + 1) * k]) for a in range(k))
        records.setdefault(length, []).append((number, word, matrix))
    if len(records.get(0, ())) != 1:
        raise CoxeterError("the table needs exactly one element of length 0, the identity")
    bound = max(records)
    by_word = {(): (None, system.word_matrix(()))}
    index = {}
    layers = []
    for d in range(bound + 1):
        layers.append([])
        for number, word, matrix in records.get(d, ()):
            key = tuple(map(sum, zip(*matrix)))
            if key in index:
                raise CoxeterError("table line %d repeats an element" % number)
            if word[:-1] not in by_word:
                raise CoxeterError("table line %d: the word's prefix is not a stored word" % number)
            parent, above = by_word[word[:-1]]
            if matrix != (system.right_reflect(above, word[-1]) if d else above):
                raise CoxeterError("table line %d: stored word does not evaluate to the stored matrix"
                                   % number)
            el = index[key] = GroupElement(key, d, len(index), word[-1] if d else None, parent)
            by_word[word] = (el, matrix)
            layers[-1].append(el)
    neighbours = [[None] * len(index) for _ in range(k)]
    for layer in layers[:-1]:
        _link_layer(system, layer, index, neighbours, None)
    return ElementTable(system, bound, layers, index, neighbours)


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
    records the Cayley graph as it runs: each new element takes the next
    position, and each edge {w, ws} is computed once, from its shorter end,
    by the key kernel, and stored in `neighbours` at both positions.  A new
    element keeps the element it was found from as its parent, and the letter.
    """
    if bound < 0:
        raise CoxeterError("bound must be nonnegative")
    cap = element_cap()
    ident = GroupElement(system.word_key(()), 0, 0)
    index = {ident.key: ident}
    neighbours = [[None] for _ in range(system.num_generators)]

    def grow(key, parent, i):
        nel = index[key] = GroupElement(key, parent.length + 1, len(index), i, parent)
        if len(index) > cap:
            check_element_cap(len(index), "enumeration", cap)
        for row in neighbours:
            row.append(None)
        return nel

    layers = [[ident]]
    for _ in range(bound):
        nxt = _link_layer(system, layers[-1], index, neighbours, grow)
        if not nxt:
            break  # finite group exhausted
        layers.append(nxt)
    return ElementTable(system, bound, layers, index, neighbours)


def layer_sizes(system, bound=DEFAULT_BOUND):
    """enumerate_elements(system, bound).layer_sizes(), by a streaming walk
    that keeps one layer of keys and no set: w * s_i is made only for an
    ascent i of w (v_i > 0) and kept only when i is the least right
    descent of w * s_i.  An element of the next layer has one least right
    descent j, so it is made once, from w = (w s_j) s_j.  The running
    count is checked against the element cap after each layer."""
    if bound < 0:
        raise CoxeterError("bound must be nonnegative")
    cap = element_cap()
    reflect = system.right_multiply_key
    layer = [system.word_key(())]
    sizes = [1]
    for _ in range(bound):
        nxt = []
        for key in layer:
            for i, x in enumerate(key):
                if x > 0:
                    v = reflect(key, i)
                    if not i or min(v[:i]) > 0:
                        nxt.append(v)
        if not nxt:
            break  # finite group exhausted
        sizes.append(len(nxt))
        check_element_cap(sum(sizes), "enumeration", cap)
        layer = nxt
    return sizes


# ---------------------------------------------------------------------------
# operations


def length_and_word(system, key):
    """Length and one reduced word of the element with this key, by the
    descent walk, without any element table.  s_i is a right descent
    exactly when v_i < 0; each step strips one, so the word is built from
    the right.  The walk ends at a key with no negative entry, which in a
    key's orbit is only the identity's (f is in the fundamental chamber);
    ending anywhere else means the key is not a group element's."""
    word, cur = [], tuple(key)
    while (i := next((i for i, x in enumerate(cur) if x < 0), None)) is not None:
        if len(word) >= 10_000:
            raise CoxeterError("descent walk failed to terminate")
        word.append(i)
        cur = system.right_multiply_key(cur, i)
    if cur != system.word_key(()):
        raise CoxeterError("no descent found; the key is not a group element's")
    return len(word), tuple(reversed(word))


def min_coset_reps(table, J, I, side="right"):
    """Minimal coset representatives inside the parabolic W_J, cached on
    the table by (J, I, side).

    side="right": elements of W_J with no right descent in I (minimal
    left W_I-coset representatives, W_J = reps * W_I length-additively);
    s is a right descent of w exactly when its key has key[s] < 0.
    side="left": no left descent in I (W_J = W_I * reps); s * w is found
    by walking w's word from the key of s through the table.
    """
    if side not in ("right", "left"):
        raise CoxeterError("side must be 'right' or 'left'")
    J = tuple(sorted(set(J)))
    I = tuple(sorted(set(I)))
    if not set(I) <= set(J):
        raise CoxeterError("I must be a subset of J")
    reps = table._coset_cache.get((J, I, side))
    if reps is None:
        reps = table._coset_cache[J, I, side] = [
            el for el in table.parabolic_elements(J) if not any(_descent(table, el, s, side) for s in I)]
    return reps


def _descent(table, el, s, side):
    """Whether s is a descent of the element on the given side."""
    if side == "right":
        return el.key[s] < 0
    return table.element(table.walk_key(table.generator(s).key, el.word)).length < el.length


def all_proper_subsets(k):
    for size in range(k):
        yield from combinations(range(k), size)
