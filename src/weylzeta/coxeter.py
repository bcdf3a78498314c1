"""Finite and affine Coxeter groups in their integer geometric representation.

Groups are presented by a Coxeter matrix together with a generalized Cartan
matrix; elements are canonicalized by their matrix in the reflection
representation on the simple-root basis, which is faithful and integral for
every crystallographic type handled here.  Enumeration is breadth-first, so
every stored length is the true word length.
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass
from itertools import combinations

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
    pass


# ---------------------------------------------------------------------------
# integer matrix helpers (tuples of tuples, column-vector convention)


def mat_mul(a, b):
    bt = tuple(zip(*b))
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a)


def mat_identity(n):
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def mat_det3(m):
    n = len(m)
    if n == 1:
        return m[0][0]
    if n == 2:
        return m[0][0] * m[1][1] - m[0][1] * m[1][0]
    if n == 3:
        return (
            m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
            - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
            + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
        )
    raise CoxeterError("determinant helper limited to n <= 3")


def mat_inv(m):
    """Inverse of a small integer matrix with determinant +-1."""
    n = len(m)
    det = mat_det3(m) if n <= 3 else None
    if n == 1:
        return ((det,),) if det in (1, -1) else _gauss_inv(m)
    if n == 2 and det in (1, -1):
        a, b = m[0]
        c, d = m[1]
        return ((d * det, -b * det), (-c * det, a * det))
    if n == 3 and det in (1, -1):
        # cyclic-index minors produce the cofactors with signs built in
        cof = tuple(
            tuple(
                m[(i + 1) % 3][(j + 1) % 3] * m[(i + 2) % 3][(j + 2) % 3]
                - m[(i + 1) % 3][(j + 2) % 3] * m[(i + 2) % 3][(j + 1) % 3]
                for j in range(3)
            )
            for i in range(3)
        )
        # adjugate is the transpose of the cofactor matrix
        return tuple(tuple(cof[j][i] * det for j in range(3)) for i in range(3))
    return _gauss_inv(m)


def _gauss_inv(m):
    from fractions import Fraction

    n = len(m)
    aug = [[Fraction(m[i][j]) for j in range(n)] + [Fraction(1 if i == j else 0) for j in range(n)] for i in range(n)]
    for col in range(n):
        piv = next(r for r in range(col, n) if aug[r][col] != 0)
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = 1 / aug[col][col]
        aug[col] = [x * inv for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    out = []
    for i in range(n):
        row = []
        for j in range(n):
            v = aug[i][n + j]
            if v.denominator != 1:
                raise CoxeterError("matrix inverse is not integral")
            row.append(v.numerator)
        out.append(tuple(row))
    return tuple(out)


# ---------------------------------------------------------------------------
# type data


def _bond_order(pairing):
    return {0: 2, 1: 3, 2: 4, 3: 6}.get(pairing)


def _coxeter_from_cartan(cartan):
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
_AFFINE_DATA = {
    "A1t": {
        "cartan": ((2, -2), (-2, 2)),
        "rank": 1,
    },
    "A2t": {
        "cartan": ((2, -1, -1), (-1, 2, -1), (-1, -1, 2)),
        "rank": 2,
    },
    "C2t": {
        "cartan": ((2, -1, -1), (-2, 2, 0), (-2, 0, 2)),
        "rank": 2,
    },
    "G2t": {
        "cartan": ((2, -1, -1), (-3, 2, 0), (-1, 0, 2)),
        "rank": 2,
    },
}

AFFINE_RANK2_TAGS = ("A2t", "C2t", "G2t")


def _null_marks(cartan):
    """Positive integer right null vector of a singular Cartan matrix."""
    from fractions import Fraction

    n = len(cartan)
    # solve cartan @ x = 0 with x[n-1] treated as free
    rows = [[Fraction(cartan[i][j]) for j in range(n)] for i in range(n)]
    x = [Fraction(0)] * n
    x[-1] = Fraction(1)
    # Gaussian elimination on the first n-1 columns
    piv_rows = []
    used = set()
    for col in range(n - 1):
        piv = next(r for r in range(n) if r not in used and rows[r][col] != 0)
        used.add(piv)
        piv_rows.append((col, piv))
        inv = 1 / rows[piv][col]
        rows[piv] = [v * inv for v in rows[piv]]
        for r in range(n):
            if r != piv and rows[r][col] != 0:
                f = rows[r][col]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[piv])]
    for col, piv in reversed(piv_rows):
        x[col] = -rows[piv][n - 1] * x[-1]
    denom = 1
    for v in x:
        denom = denom * v.denominator // _int_gcd(denom, v.denominator)
    ints = [int(v * denom) for v in x]
    g = 0
    for v in ints:
        g = _int_gcd(g, v)
    ints = [v // g for v in ints]
    if any(v <= 0 for v in ints):
        ints = [-v for v in ints]
    if any(v <= 0 for v in ints):
        raise CoxeterError("Cartan matrix is not of affine type")
    return tuple(ints)


def _int_gcd(a, b):
    while b:
        a, b = b, a % b
    return abs(a)


# ---------------------------------------------------------------------------
# the Coxeter system


@dataclass(frozen=True)
class CoxeterSystem:
    type_tag: str
    labels: tuple
    coxeter_matrix: tuple
    cartan: tuple
    is_affine: bool
    rank: int  # rank of the underlying (finite) root datum
    delta: tuple = None  # marks of the null root for affine systems

    @property
    def num_generators(self):
        return len(self.labels)

    def generator_matrix(self, i):
        """Reflection s_i acting on simple-root coordinates (column vectors)."""
        k = self.num_generators
        return tuple(
            tuple(
                (1 if a == b else 0) - (self.cartan[i][b] if a == i else 0)
                for b in range(k)
            )
            for a in range(k)
        )

    def bond(self, i, j):
        return self.coxeter_matrix[i][j]

    def __repr__(self):
        return "CoxeterSystem(%s)" % self.type_tag


def from_cartan(cartan, type_tag="custom", affine=None):
    """Build a system from an explicit generalized Cartan matrix."""
    cartan = tuple(tuple(int(v) for v in row) for row in cartan)
    k = len(cartan)
    for i in range(k):
        if cartan[i][i] != 2:
            raise UnsupportedTypeError("Cartan diagonal must be 2")
    cox = _coxeter_from_cartan(cartan)
    if affine is None:
        affine = any(cox[i][j] == INFINITE for i in range(k) for j in range(k)) or _is_singular(cartan)
    delta = _null_marks(cartan) if affine else None
    rank = k - 1 if affine else k
    labels = tuple("s%d" % (i + 1) for i in range(k))
    return CoxeterSystem(type_tag, labels, cox, cartan, affine, rank, delta)


def _is_singular(cartan):
    from fractions import Fraction

    n = len(cartan)
    rows = [[Fraction(v) for v in row] for row in cartan]
    det = Fraction(1)
    for col in range(n):
        piv = next((r for r in range(col, n) if rows[r][col] != 0), None)
        if piv is None:
            return True
        if piv != col:
            rows[col], rows[piv] = rows[piv], rows[col]
            det = -det
        det *= rows[col][col]
        inv = 1 / rows[col][col]
        rows[col] = [v * inv for v in rows[col]]
        for r in range(col + 1, n):
            if rows[r][col] != 0:
                f = rows[r][col]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[col])]
    return det == 0


_TAG_RE = re.compile(r"^([A-G])(\d+)(t?)$")


def build_system(type_tag, rank=None):
    """Build a supported Coxeter system.

    Finite types: "A1".."A9", "B2"..., "C2"..., "D3"..., "E6/7/8", "F4",
    "G2" (or pass the family letter plus rank).  Affine types: "A1t",
    "A2t", "C2t", "G2t" with the rank-2 generator numbering that makes
    s3 the affine reflection.
    """
    if rank is not None:
        type_tag = "%s%d" % (type_tag.rstrip("0123456789t"), rank) + ("t" if type_tag.endswith("t") else "")
    tag = type_tag.strip()
    m = _TAG_RE.match(tag)
    if not m:
        raise UnsupportedTypeError("unrecognized type tag %r" % (type_tag,))
    family, r, affine = m.group(1), int(m.group(2)), bool(m.group(3))
    if affine:
        if tag not in _AFFINE_DATA:
            raise UnsupportedTypeError(
                "affine geometric systems are built in for rank <= 2 only; "
                "use from_cartan with an extended Cartan matrix for %r" % (type_tag,)
            )
        data = _AFFINE_DATA[tag]
        cartan = data["cartan"]
        cox = _coxeter_from_cartan(cartan)
        labels = tuple("s%d" % (i + 1) for i in range(len(cartan)))
        return CoxeterSystem(tag, labels, cox, cartan, True, data["rank"], _null_marks(cartan))
    cartan = tuple(tuple(row) for row in _finite_cartan(family, r))
    cox = _coxeter_from_cartan(cartan)
    labels = tuple("s%d" % (i + 1) for i in range(r))
    return CoxeterSystem(tag, labels, cox, cartan, False, r, None)


# ---------------------------------------------------------------------------
# elements and tables


@dataclass(frozen=True)
class GroupElement:
    key: tuple  # matrix in the geometric representation
    length: int
    word: tuple  # one reduced word, 0-based generator indices

    def __repr__(self):
        return "GroupElement(len=%d, word=%s)" % (self.length, ",".join(str(i + 1) for i in self.word) or "e")


class ElementTable:
    """BFS-generated store of all group elements up to a length bound.

    Immutable after construction; safe for concurrent reads.
    """

    def __init__(self, system, bound, layers, index):
        self.system = system
        self.bound = bound
        self.layers = layers
        self.index = index
        self._gen_mats = tuple(system.generator_matrix(i) for i in range(system.num_generators))
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
        return self.element(self._gen_mats[i])

    def right_multiply_key(self, key, i):
        return mat_mul(key, self._gen_mats[i])

    def left_multiply_key(self, key, i):
        return mat_mul(self._gen_mats[i], key)

    def product_key(self, k1, k2):
        return mat_mul(k1, k2)

    def word_key(self, word):
        k = mat_identity(self.system.num_generators)
        for i in word:
            k = mat_mul(k, self._gen_mats[i])
        return k

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
                    key = self.right_multiply_key(el.key, i)
                    if key in seen:
                        continue
                    if key not in self.index:
                        raise OutOfTableError(
                            "parabolic subgroup <%s> does not close within bound %d"
                            % (",".join(str(g + 1) for g in gens), self.bound)
                        )
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


def load_table(system, path_or_lines):
    if isinstance(path_or_lines, str):
        with open(path_or_lines) as fh:
            lines = [ln.strip() for ln in fh if ln.strip()]
    else:
        lines = [ln.strip() for ln in path_or_lines if ln.strip()]
    k = system.num_generators
    layers = {}
    index = {}
    bound = 0
    for line in lines:
        length_s, word_s, mat_s = line.split("\t")
        length = int(length_s)
        word = tuple(int(p) - 1 for p in word_s.split(",")) if word_s != "-" else ()
        vals = [int(v) for v in mat_s.split()]
        if len(vals) != k * k:
            raise CoxeterError("malformed table line: %r" % line)
        key = tuple(tuple(vals[a * k : (a + 1) * k]) for a in range(k))
        el = GroupElement(key, length, word)
        if len(word) != length:
            raise CoxeterError("stored word length disagrees with stored length")
        layers.setdefault(length, []).append(el)
        index[key] = el
        bound = max(bound, length)
    table = ElementTable(system, bound, [layers.get(d, []) for d in range(bound + 1)], index)
    # spot check: words must reproduce the stored matrices
    for el in index.values():
        if table.word_key(el.word) != el.key:
            raise CoxeterError("stored word does not evaluate to the stored matrix")
    return table


def enumerate_elements(system, bound=DEFAULT_BOUND, max_elements=None):
    """BFS from the identity by right multiplication.

    Each element appears exactly once, at its true length, because the
    Cayley-graph distance to the identity is the Coxeter length.
    """
    if bound < 0:
        raise CoxeterError("bound must be nonnegative")
    if max_elements is None:
        max_elements = int(os.environ.get(_ENV_MAX_ELEMENTS, _DEFAULT_MAX_ELEMENTS))
    k = system.num_generators
    gens = [system.generator_matrix(i) for i in range(k)]
    ident = GroupElement(mat_identity(k), 0, ())
    index = {ident.key: ident}
    layers = [[ident]]
    frontier = [ident]
    for depth in range(1, bound + 1):
        nxt = []
        for el in frontier:
            for i in range(k):
                key = mat_mul(el.key, gens[i])
                if key in index:
                    continue
                nel = GroupElement(key, depth, el.word + (i,))
                index[key] = nel
                nxt.append(nel)
                if len(index) > max_elements:
                    raise ResourceLimitError(
                        "enumeration exceeded %d elements (set %s to raise the cap)"
                        % (max_elements, _ENV_MAX_ELEMENTS)
                    )
        if not nxt:
            break  # finite group exhausted
        layers.append(nxt)
        frontier = nxt
    return ElementTable(system, bound, layers, index)


# ---------------------------------------------------------------------------
# operations


def multiply(table, w, v):
    """Product of two table elements with its true length.

    Returns (element, length_additive).  Raises OutOfTableError when the
    product falls outside the table bound.
    """
    key = table.product_key(w.key, v.key)
    el = table.element(key)
    return el, el.length == w.length + v.length


def length_and_word(system, key):
    """Length and one reduced word computed by the descent walk, without
    any element table.  Uses the standard criterion: s_i is a left descent
    of w exactly when w^{-1}(alpha_i) is a negative root."""
    k = system.num_generators
    gens = [system.generator_matrix(i) for i in range(k)]
    ident = mat_identity(k)
    word = []
    cur = key
    cur_inv = mat_inv(key)
    guard = 0
    while cur != ident:
        guard += 1
        if guard > 10_000:
            raise CoxeterError("descent walk failed to terminate")
        for i in range(k):
            col = tuple(cur_inv[a][i] for a in range(k))
            if all(c <= 0 for c in col) and any(c < 0 for c in col):
                word.append(i)
                cur = mat_mul(gens[i], cur)
                cur_inv = mat_mul(cur_inv, gens[i])
                break
        else:
            raise CoxeterError("no descent found; matrix is not a group element")
    return len(word), tuple(word)


def min_coset_reps(table, J, I, side="right"):
    """Minimal coset representatives inside the parabolic W_J.

    side="right": elements of W_J with no right descent in I (minimal
    left W_I-coset representatives, W_J = reps * W_I length-additively).
    side="left": no left descent in I (W_J = W_I * reps).
    """
    J = tuple(sorted(set(J)))
    I = tuple(sorted(set(I)))
    if not set(I) <= set(J):
        raise CoxeterError("I must be a subset of J")
    elements = table.parabolic_elements(J)
    out = []
    for el in elements:
        ok = True
        for s in I:
            if side == "right":
                other_key = table.right_multiply_key(el.key, s)
            elif side == "left":
                other_key = table.left_multiply_key(el.key, s)
            else:
                raise CoxeterError("side must be 'right' or 'left'")
            other = table.element(other_key)
            if other.length < el.length:
                ok = False
                break
        if not ok:
            continue
        out.append(el)
    out.sort(key=lambda e: (e.length, e.word))
    return out


def all_proper_subsets(k):
    for size in range(k):
        yield from combinations(range(k), size)
