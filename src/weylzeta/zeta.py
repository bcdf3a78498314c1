"""Zeta functions: Ihara zeta of finite graphs (the rank-one case), straight
strip zeta functions from operator data, and the unit-parameter torus
quotient of the rank-2 affine apartment that realizes the determinant
identities geometrically.

On the torus every operator is a permutation of chambers, so each
determinant has one exact integer route.  A finite factor is a set S in
a finite parabolic W_J, which acts freely on the chambers, so its
operator is n / |W_J| copies of one |W_J| x |W_J| block of the
right-regular representation, whose determinant is taken once; a strip
factor det(I - P u^l) is the product of 1 - u^(l * len) over the cycles
of P.  Both come out as exponent maps d -> m (`series.ExponentMap`), and
the identity checkers multiply and compare maps; a polynomial is
expanded from a map only for output.  The per-orbit determinants are
the oracle in the tests.
The quotient is its own permutation representation at q = 1, validated
when it is built; its dense chamber matrices (`image`, `action_matrix`)
are uncached oracles for the tests and the generic consumers.  The
chamber search that finds the generator permutations carries each
chamber as a W0 index and row 2 of its key, never a whole group-element
matrix; the search on whole keys is the oracle in the tests.

W/kL acts regularly on the chambers, so tr P(w) is n or 0 and a trace
of a matrix power series is n times one diagonal entry: the dual
trace-log checks push a single chamber vector through the permutations
of a ball of the group, and Newton's identities turn the integer power
sums of tr log into the determinant.  The torus routes run in Python
ints; all emitted values are ints, Fractions, or exact polynomials.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

from . import coxeter as cox
from . import strips as strips_mod
from .hecke import walk_word
from .series import (
    ExponentMap,
    Matrix,
    Poly,
    PowerSeries,
    RationalFunction,
    _divide_scalar,
    char_matrix_det,
    det_poly_matrix,
    power_sum_exp,
)


class ZetaError(Exception):
    pass


# ---------------------------------------------------------------------------
# finite graphs


@dataclass(frozen=True)
class Graph:
    """Finite undirected multigraph without self-loops."""

    num_vertices: int
    edges: tuple  # sorted (u, v) pairs, repeated for multiplicity

    def __post_init__(self):
        for u, v in self.edges:
            if u == v:
                raise ZetaError("self-loops are not supported")
            if not (0 <= u < self.num_vertices and 0 <= v < self.num_vertices):
                raise ZetaError("edge endpoint out of range")

    @staticmethod
    def from_edges(num_vertices, pairs):
        edges = tuple(sorted(tuple(sorted(p)) for p in pairs))
        return Graph(num_vertices, edges)

    @staticmethod
    def from_edge_list(text, source="edge list"):
        """Parse the line-oriented `u v` edge-list format (0-indexed).  A
        line that is not two distinct vertex numbers raises ZetaError
        naming the source and the line."""
        pairs = []
        top = -1
        for number, ln in enumerate(text.splitlines(), 1):
            ln = ln.strip()
            if not ln or ln.startswith("#"):
                continue
            fields = ln.split()
            if len(fields) != 2 or not all(f.isdigit() and f.isascii() for f in fields):
                raise ZetaError("%s line %d: expected two vertex numbers 'u v', got %r"
                                % (source, number, ln))
            u, v = int(fields[0]), int(fields[1])
            if u == v:
                raise ZetaError("%s line %d: self-loops are not supported" % (source, number))
            pairs.append((u, v))
            top = max(top, u, v)
        return Graph.from_edges(top + 1, pairs)

    @property
    def num_edges(self):
        return len(self.edges)

    def euler_characteristic(self):
        return self.num_vertices - self.num_edges

    def degrees(self):
        deg = [0] * self.num_vertices
        for u, v in self.edges:
            deg[u] += 1
            deg[v] += 1
        return deg

    def adjacency(self):
        a = [[0] * self.num_vertices for _ in range(self.num_vertices)]
        for u, v in self.edges:
            a[u][v] += 1
            a[v][u] += 1
        return tuple(tuple(r) for r in a)

    def directed_edges(self):
        """Both orientations of every edge copy, ordered lexicographically
        by (source, target, copy index) so matrices are reproducible."""
        copies = {}
        out = []
        for idx, (u, v) in enumerate(self.edges):
            for s, t in ((u, v), (v, u)):
                c = copies.get((s, t), 0)
                copies[(s, t)] = c + 1
                out.append((s, t, c, idx))
        out.sort(key=lambda e: e[:3])
        return tuple(out)


def hashimoto_matrix(graph):
    """Directed-edge transfer matrix: e -> f allowed when f continues e
    without traversing the same edge copy straight back."""
    if any(d == 0 for d in graph.degrees()):
        raise ZetaError("graph has an isolated vertex")
    des = graph.directed_edges()
    m = len(des)
    rows = [[0] * m for _ in range(m)]
    for i, (u, v, cu, idx_e) in enumerate(des):
        for j, (s, t, cs, idx_f) in enumerate(des):
            if s != v:
                continue
            if idx_f == idx_e and t == u:
                continue  # backtracking along the same edge copy
            rows[i][j] = 1
    return tuple(tuple(r) for r in rows)


@dataclass
class ZetaReport:
    zeta: RationalFunction  # the zeta function itself
    inverse_poly: Poly  # its exact inverse polynomial
    series: PowerSeries
    closed_counts: list  # N_n = tr(B^n), n = 1..order
    primitive_counts: list  # primitive classes by length, n = 1..order

    def as_json(self):
        return {
            "zeta_inverse_poly": [int(c) for c in self.inverse_poly.coeffs],
            "N": [int(n) for n in self.closed_counts],
            "primitive_counts": [int(p) for p in self.primitive_counts],
            "order": self.series.order,
        }


def _operator_zeta(b_rows, order):
    """Z(u) = det(I - B u)^{-1} plus trace data and primitive counts."""
    return _zeta_report(char_matrix_det(Matrix(b_rows), 1), traces(b_rows, order), order)


def _perm_zeta(perm, order):
    """Z(u) = det(I - P u)^{-1} of a permutation operator from its cycle
    type: the inverse is prod (1 - u^len) and tr P^m = sum of the cycle
    lengths dividing m."""
    cycles = _perm_cycles(perm)
    counts = [sum(ln for ln in cycles if m % ln == 0) for m in range(1, order + 1)]
    return _zeta_report(_perm_char_poly(perm, 1), counts, order)


def _zeta_report(inv, counts, order):
    zeta = RationalFunction(Poly.one(), inv)
    series = zeta.expand(order)
    prim = primitive_counts_from_traces(counts)
    # exp(sum N_k u^k / k), from the counts as power sums, must reproduce
    # the expansion
    if not (power_sum_exp(counts, order) == series):
        raise ZetaError("trace series disagrees with the determinant expansion")
    return ZetaReport(zeta, inv, series, counts, prim)


def ihara_zeta(graph, order=16):
    """Ihara zeta of a finite graph, via the non-backtracking operator."""
    return _operator_zeta(hashimoto_matrix(graph), order)


def traces(rows, order):
    """tr(B^n) for n = 1..order of an exact matrix given as rows: each
    power is the previous one times B over B's nonzero entries, in Python
    ints (or Fractions), so no entry can wrap."""
    sparse = [[(j, x) for j, x in enumerate(r) if x] for r in rows]
    cur = [dict(r) for r in sparse]
    out = []
    for n in range(order):
        out.append(sum(row.get(i, 0) for i, row in enumerate(cur)))
        if n + 1 < order:
            nxt = []
            for row in cur:
                acc = {}
                for m, x in row.items():
                    for j, y in sparse[m]:
                        acc[j] = acc.get(j, 0) + x * y
                nxt.append({j: v for j, v in acc.items() if v})
            cur = nxt
    return out


def _moebius(n):
    out, p = 1, 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            out = -out
        p += 1
    if n > 1:
        out = -out
    return out


def primitive_counts_from_traces(counts):
    """Necklace inversion: N_n = sum_{d|n} d * p_d, solved for p_d.

    Every count must come out a nonnegative integer (each closed class is
    a repetition of a unique primitive one)."""
    order = len(counts)
    prim = []
    for d in range(1, order + 1):
        total = 0
        for e in range(1, d + 1):
            if d % e == 0:
                total += _moebius(d // e) * counts[e - 1]
        if total % d != 0 or total < 0:
            raise ZetaError("necklace inversion failed at length %d" % d)
        prim.append(total // d)
    return prim


@dataclass
class IharaCheckReport:
    regular_degree: int
    ok: bool
    lhs: Poly
    rhs: RationalFunction

    def as_json(self):
        return {
            "q": self.regular_degree - 1,
            "pass": bool(self.ok),
            "det_edge_side": [int(c) for c in self.lhs.coeffs],
        }


def ihara_formula_check(graph, q):
    """The rank-one determinant identity for a (q+1)-regular graph:
    det(I - B u) == (1 - u^2)^(E - V) * det(I - A u + q u^2)."""
    degs = graph.degrees()
    if any(d != q + 1 for d in degs):
        raise ZetaError("graph is not %d-regular" % (q + 1,))
    b = hashimoto_matrix(graph)
    lhs = _operator_zeta(b, 4).inverse_poly
    n = graph.num_vertices
    a = graph.adjacency()
    vertex_det = det_poly_matrix(
        [
            [Poly([1 if i == j else 0, -a[i][j], q if i == j else 0]) for j in range(n)]
            for i in range(n)
        ]
    )
    chi = graph.euler_characteristic()
    one_minus_u2 = Poly((1, 0, -1))
    rhs = RationalFunction(vertex_det) * (RationalFunction(one_minus_u2) ** (-chi))
    ok = RationalFunction(lhs) == rhs
    return IharaCheckReport(q + 1, ok, lhs, rhs)


def geodesic_oracle(graph, n_max):
    """Brute-force counts of closed non-backtracking tailless walks by
    length: depth-first enumeration over the directed-edge digraph,
    independent of any matrix algebra.  A walk of length n is a sequence
    of n directed edges with every consecutive step legal, including the
    wrap-around step back to the starting edge."""
    b = hashimoto_matrix(graph)
    m = len(b)
    succ = [[j for j in range(m) if b[i][j]] for i in range(m)]
    counts = [0] * n_max
    for start in range(m):
        stack = [(start, 1)]
        while stack:
            edge, depth = stack.pop()
            if b[edge][start]:
                counts[depth - 1] += 1
            if depth < n_max:
                for nxt in succ[edge]:
                    stack.append((nxt, depth + 1))
    return counts


def strip_zeta(a_matrix, order=16):
    """Zeta function of one strip type from its operator: exact
    det(I - A u)^{-1}, trace counts, and primitive class counts."""
    if isinstance(a_matrix, Matrix):
        rows = [list(r) for r in a_matrix.rows]
    else:
        rows = [list(r) for r in a_matrix]
    return _operator_zeta(tuple(tuple(r) for r in rows), order)


# ---------------------------------------------------------------------------
# the unit-parameter torus quotient of the rank-2 apartment


def _perm_matrix(perm):
    n = len(perm)
    return Matrix(tuple(tuple(1 if perm[i] == j else 0 for j in range(n)) for i in range(n)))


def _fixed_points(perm):
    return sum(1 for c in range(len(perm)) if perm[c] == c)


def _one_vector_det_series(perm_lengths, n, order):
    """det(I + N) up to u^order for N = sum P u^l over (perm, l) pairs with
    l >= 1, as the exp of the trace of log.  Valid only when every product
    of the permutations fixes no chamber or all n of them: then
    tr(N^j) = n (N^j)_{00}, the chamber-0 entry of the row vector e_0 N^j,
    which is held as one sparse {chamber: count} map per degree.

    tr log(I + N) is accumulated over the common denominator
    lcm(1..order), and its power sums p_d = d tr log(I + N)_d are ints,
    since u d/du log det(I + N) = tr(u N' (I + N)^-1) has integer
    coefficients; `power_sum_exp` turns them into the determinant."""
    by_length = [[] for _ in range(order + 1)]
    for perm, length in perm_lengths:
        if length <= order:
            by_length[length].append(perm)
    denom = math.lcm(*range(1, order + 1))
    vec = [{0: 1}] + [{} for _ in range(order)]
    tr_log = [0] * (order + 1)  # denom * tr log(I + N), by degree
    for j in range(1, order + 1):
        nxt = [{} for _ in range(order + 1)]
        for a in range(order):
            for c, x in vec[a].items():
                for length in range(1, order - a + 1):
                    row = nxt[a + length]
                    for perm in by_length[length]:
                        t = perm[c]
                        row[t] = row.get(t, 0) + x
        vec = nxt
        weight = (n if j % 2 == 1 else -n) * (denom // j)
        for d in range(j, order + 1):
            tr_log[d] += weight * vec[d].get(0, 0)
    return power_sum_exp([_divide_scalar(d * tr_log[d], denom) for d in range(1, order + 1)], order)


def _perm_cycles(perm):
    seen = [False] * len(perm)
    out = []
    for i in range(len(perm)):
        if seen[i]:
            continue
        ln = 0
        j = i
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            ln += 1
        out.append(ln)
    return out


def _cycle_type_map(perm, shift_power):
    """det(I - P u^s) for a permutation: the exponent map of the product
    of (1 - u^d)^m over its cycle type, d = s * len -> m cycles of that
    length."""
    return ExponentMap(Counter(shift_power * ln for ln in _perm_cycles(perm)))


def _perm_char_poly(perm, shift_power):
    return _cycle_type_map(perm, shift_power).as_polynomial()


class TorusQuotient:
    """Chamber complex of the rank-2 apartment modulo translations by k
    times the translation lattice L, with the right-multiplication action.

    Generators s1, s2, s3 are indices 0, 1, 2, with s3 affine and simple
    roots a1, a2, a3.  W = W0 t(L) with W0 = <s1, s2> (Kac,
    Infinite-dimensional Lie algebras, Ch. 6), and t(kL) is normal, so
    the chamber of w = v t_mu is (v, mu mod kL); there are exactly
    |W0| * k^2 of them.  That count is checked against the element cap
    (WEYLZETA_MAX_ELEMENTS) before any chamber is built.

    The translation part is read off row 2 of the key, the a3
    coordinates: w a_i = v a_i - <mu, a_i> delta, and W0 keeps a1, a2 in
    their own span, so key[2][0], key[2][1] are
    phi(mu) = -delta_3 (<mu, a1>, <mu, a2>), an injective linear image.
    The lattice comes from W0 and s3 alone: s3 v = (s3bar v) t_(v^-1 mu3),
    and W0 t(span W0 mu3) holds s1, s2 and s3, so it is W and
    L = span(W0 mu3).  phi(L) is spanned by row 2 of s3 v over the |W0|
    section elements v; no table element is scanned for it.

    The chamber search carries (W0 index, row 2 of the key) only: row 2
    of w s_i depends on row 2 of w alone, and the W0 index of w s_i is
    read from a |W0| x 3 table built once from the section.  No
    group-element matrix is built per chamber; the breadth-first search
    on whole keys is the oracle in the tests.

    The quotient is its own permutation representation of the group
    algebra at q = 1, of dimension the chamber count: the generator
    permutations are checked against the unit-parameter quadratic and
    braid relations when it is built.
    """

    q = 1

    def __init__(self, system, k, table=None):
        if not system.is_affine or system.rank != 2:
            raise ZetaError("torus quotient needs a rank-2 affine system")
        if k < 2:
            raise ZetaError("scale k must be at least 2")
        self.system = system
        self.k = k
        if table is None:
            table = cox.enumerate_elements(system, cox.DEFAULT_BOUND)
        self.table = table
        self._setup_weyl_section()
        chambers = self.weyl_order * k * k
        cox.check_element_cap(chambers, "torus quotient with %d chambers" % chambers)
        self._enumerate_chambers()
        # the quadratic and braid relations at q = 1
        ident = tuple(self.chambers)
        perms = self.generator_permutations
        for i, p in enumerate(perms):
            if _perm_compose(p, p) != ident:
                raise ZetaError("generator %d is not an involution on chambers" % (i + 1,))
            for j in range(i + 1, len(perms)):
                m = system.bond(i, j)
                if m and (_perm_alternating(p, perms[j], m, ident)
                          != _perm_alternating(perms[j], p, m, ident)):
                    raise ZetaError("braid relation fails on chambers for (%d, %d)" % (i + 1, j + 1))
        self._perm_cache = {table.identity.key: ident}
        self._regular_radius = 0  # the identity alone acts as the identity
        self._free_parabolics = set()  # letter sets J whose W_J was checked to act freely

    @property
    def representation(self):
        """The quotient itself, under the name callers read a representation by."""
        return self

    # -- construction --------------------------------------------------------

    def _linear_part(self, key):
        """Action on the weight plane (the quotient by the null direction),
        as a 2x2 integer matrix."""
        delta = self.system.delta
        m3 = delta[2]
        cols = []
        for j in range(2):
            c = [key[a][j] for a in range(3)]
            if c[2] % m3:
                raise ZetaError("non-integral linear part")
            t = c[2] // m3
            cols.append((c[0] - t * delta[0], c[1] - t * delta[1]))
        return (cols[0][0], cols[1][0], cols[0][1], cols[1][1])

    def _setup_weyl_section(self):
        """Index W0 by linear part, tabulate right multiplication on it,
        and take the triangular basis of phi(L) from row 2 of s3 v over v
        in W0.  The linear part is a homomorphism onto W0, so the W0 index
        of w s_i is w0_right[j][i] for w of index j."""
        section = [el.key for el in self.table.parabolic_elements((0, 1))]
        self.weyl_order = len(section)
        linear_index = {}
        for idx, key in enumerate(section):
            lp = self._linear_part(key)
            if lp in linear_index:
                raise ZetaError("finite Weyl section is not faithful")
            linear_index[lp] = idx
        gens = range(self.system.num_generators)
        self._w0_right = tuple(
            tuple(linear_index[self._linear_part(self.system.right_reflect(key, i))] for i in gens)
            for key in section)
        self._basis = _triangular_basis(self.system.left_reflect(key, 2)[2][:2] for key in section)

    def _enumerate_chambers(self):
        """Breadth-first search from the identity's chamber.  Each neighbour
        label found on the way is an entry of a generator permutation:
        links[i][c] is the chamber across panel i of chamber c.

        A chamber is carried as (j, row): the W0 index of a representative
        w = v t_mu and row 2 of its key, since right_reflect updates each
        row on its own, so row 2 of w s_i is row - row[i] * cartan[i].  Its
        label is (j, coordinates of mu mod k): phi(mu) is entries 0 and 1
        of the row, written in the triangular basis ((a, b), (0, c)) of
        phi(L); congruence mod k phi(L) does not depend on the basis."""
        k = self.k
        total = self.weyl_order * k * k
        (a, b), c = self._basis
        w0_right = self._w0_right
        cartan = tuple(enumerate(self.system.cartan))
        # the identity: index 0 (the section is sorted by length), mu = 0;
        # a label (j, p mod k, q mod k) is one int below |W0| k^2, and
        # number[label] is its chamber, -1 until the search reaches it
        chambers = [(0, self.table.identity.key[2])]
        number = [-1] * total
        number[0] = 0
        links = [[] for _ in cartan]
        for j, row in chambers:  # chambers grows while it is walked: the BFS queue
            right = w0_right[j]
            x0, x1, x2 = row
            for i, (c0, c1, c2) in cartan:
                x = row[i]
                nrow = (x0 - x * c0, x1 - x * c1, x2 - x * c2) if x else row
                p, r = divmod(nrow[0], a)
                q, r2 = divmod(nrow[1] - p * b, c)
                if r or r2:
                    raise ZetaError("translation outside the detected lattice")
                lb = (right[i] * k + p % k) * k + q % k
                n = number[lb]
                if n < 0:
                    n = number[lb] = len(chambers)
                    chambers.append((right[i], nrow))
                links[i].append(n)
        if len(chambers) != total:
            raise ZetaError("chamber count %d disagrees with |W0| k^2 = %d" % (len(chambers), total))
        for perm in links:
            if _fixed_points(perm):
                raise ZetaError("panel gluing fixes a chamber; the action is not free")
        # chambers are numbered in search order; the (j, row) pairs are dropped
        self.chambers = range(len(chambers))
        self.generator_permutations = tuple(tuple(p) for p in links)

    # -- the permutation representation ----------------------------------------

    def chamber_count(self):
        return len(self.chambers)

    dim = property(chamber_count)

    def perm(self, table, element):
        """Chamber permutation of e_w, built along the stored reduced word."""
        gens = self.generator_permutations
        return walk_word(table, element, self._perm_cache, lambda p, s: _perm_compose(p, gens[s]))

    def image(self, table, element):
        """Dense permutation matrix of e_w, rebuilt on every call."""
        return _perm_matrix(self.perm(table, element))

    def action_matrix(self, element):
        """Dense permutation matrix of right multiplication on the
        chambers, rebuilt on every call: an oracle, not a production route."""
        return self.image(self.table, element)

    # exact permutation routes for the identity verifiers

    def finite_det_factor(self, table, elements):
        return self.block_det([(self.perm(table, el), el.length, el.key) for el in elements])

    def cyclic_det_factor(self, table, element):
        """det(I - P u^l) as the exponent map of P's cycle type."""
        return _cycle_type_map(self.perm(table, element), element.length)

    def cyclic_det_hook(self, table, element):
        return self.cyclic_det_factor(table, element).as_polynomial()

    def det_series_hook(self, table, order):
        """Trace-log determinant of the truncated twisted group sum by the
        one-vector route: once the ball of radius `order` is asserted to
        act regularly (`assert_regular`), tr(N^j) = n (N^j)_{c0 c0}, and
        one chamber vector is pushed through the ball's permutations."""
        self.assert_regular(order)
        perm_lengths = [(self.perm(table, el), d)
                        for d in range(1, order + 1) for el in table.layers[d]]
        return _one_vector_det_series(perm_lengths, len(self.chambers), order)

    def assert_regular(self, radius):
        """Raise ZetaError unless every element of length at most `radius`
        permutes the chambers without a fixed point or as the identity.
        Then tr P(w) is 0 or n for every product that a trace-log
        truncated at u^radius needs, since such products lie in the ball.
        Each layer of the ball is checked once per quotient."""
        n = len(self.chambers)
        for d in range(self._regular_radius + 1, radius + 1):
            for el in self.table.layers[d]:
                fixed = _fixed_points(self.perm(self.table, el))
                if 0 < fixed < n:
                    raise ZetaError("the action is not regular: w = %s fixes %d of %d chambers"
                                    % ("".join(str(s) for s in el.word), fixed, n))
            self._regular_radius = d

    # -- exact block determinants ---------------------------------------------

    def block_det(self, perm_len_keys, dual_check_order=4):
        """Exact determinant of sum_w rho(e_w) u^l(w) over a finite element
        set S, given as (permutation, length, key) triples, as an
        ExponentMap.

        The letters of the elements' words give J, and S lies in the
        finite parabolic W_J.  W_J meets the normal subgroup t(kL) only in
        the identity, so it acts freely: every W_J-orbit of chambers is a
        copy of W_J acting on itself by right multiplication, and the
        operator is n / |W_J| copies of the one |W_J| x |W_J| block
        sum_(w in S) u^l(w) R(w), R the right-regular representation.  The
        block is built from the table by walking each w's word from each
        v in W_J; its determinant is taken once and peeled into an
        exponent map to the power n / |W_J| (a block that does not peel
        stays as a residual).  An infinite or unclosed W_J, a w != e in
        W_J that fixes a chamber, or a permutation that is not its key's
        raises ZetaError; freeness is checked once per J and quotient.

        Cross-checked up to u^dual_check_order, when the set holds the
        identity, against the one-vector trace-log of the elements named by
        the keys, after `assert_regular(dual_check_order)`: the map's own
        truncated expansion must equal it."""
        table, n = self.table, len(self.chambers)
        elements = [table.element(key) for _perm, _length, key in perm_len_keys]
        letters = tuple(sorted({s for el in elements for s in el.word}))
        try:
            group = table.parabolic_elements(letters)
        except cox.OutOfTableError:
            raise ZetaError("the letters %s generate no finite parabolic within bound %d"
                            % ("".join(str(s + 1) for s in letters), table.bound)) from None
        if letters not in self._free_parabolics:
            for v in group[1:]:
                fixed = _fixed_points(self.perm(table, v))
                if fixed:
                    raise ZetaError("the action is not regular: w = %s in W_J fixes %d of %d chambers"
                                    % ("".join(str(s) for s in v.word), fixed, n))
            self._free_parabolics.add(letters)
        for (perm, _length, _key), el in zip(perm_len_keys, elements):
            own = self.perm(table, el)
            if perm is not own and perm != own:
                raise ZetaError("w = %s: the permutation given is not the quotient's"
                                % "".join(str(s) for s in el.word))
        index = {v.key: i for i, v in enumerate(group)}
        rows = [[Poly.zero()] * len(group) for _ in group]
        for w in elements:
            term = Poly.u(w.length)
            for v in group:
                i, j = index[v.key], index[table.walk_key(v.key, w.word)]
                rows[i][j] = rows[i][j] + term
        det = ExponentMap.of_poly(det_poly_matrix(rows), n // len(group))
        # independent truncated route, from the keys alone
        if [el.length for el in elements].count(0) == 1:
            self.assert_regular(dual_check_order)
            perm_lengths = [(self.perm(table, el), el.length)
                            for el in elements if 0 < el.length <= dual_check_order]
            truncated = _one_vector_det_series(perm_lengths, n, dual_check_order)
            if not (truncated == det.expand(dual_check_order)):
                raise ZetaError("regular-block determinant failed the trace-log cross-check")
        return det


def _ext_gcd(a, b):
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        qq = old_r // r
        old_r, r = r, old_r - qq * r
        old_s, s = s, old_s - qq * s
        old_t, t = t, old_t - qq * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def _triangular_basis(vectors):
    """A basis ((a, b), c) = ((a, b), (0, c)), a, c > 0, of the lattice
    spanned by integer 2-vectors, by unimodular row operations."""
    a = b = c = 0
    for x, y in vectors:
        if a or x:
            g, s, t = _ext_gcd(a, x)
            a, b, c = g, s * b + t * y, math.gcd(c, x // g * b - a // g * y)
        else:
            c = math.gcd(c, y)
    if not (a and c):
        raise ZetaError("degenerate translation lattice basis")
    return (a, b), c


# ---------------------------------------------------------------------------
# torus-level operations


def torus_quotient_rep(system, k, table=None):
    """The chamber torus at scale k, which is its own validated permutation
    representation of the group algebra."""
    return TorusQuotient(system, k, table)


# the former name, by which benchmarks/spans.py wraps the representation methods
TorusRepresentation = TorusQuotient


def _perm_compose(p, q):
    """Permutation of 'apply p, then q' matching matrix order P_p P_q."""
    return tuple([q[c] for c in p])


def _perm_alternating(p, q, m, ident):
    out = ident
    pair = (p, q)
    for t in range(m):
        out = _perm_compose(out, pair[t % 2])
    return out


def closed_strip_counts(tq, spec, n_max):
    """Geometric counts of closed pointed strips of one type: walk the
    strip word's generator permutations n times around and count the
    chambers that come back to themselves.  Independent of the operator
    traces (no composite permutation or matrix is reused)."""
    n = len(tq.chambers)
    counts = []
    current = list(range(n))
    for _ in range(n_max):
        for s in spec.word:
            gp = tq.generator_permutations[s]
            current = [gp[c] for c in current]
        counts.append(_fixed_points(current))
    return counts


def operator_strip_counts(tq, spec, n_max):
    """tr(A_w^m) for m = 1..n_max: the fixed points of the m-th power of
    the strip operator's chamber permutation, one composition per power."""
    perm = tq.perm(tq.table, tq.table.element_of_word(spec.word))
    counts = []
    power = perm
    for _ in range(n_max):
        counts.append(_fixed_points(power))
        power = [perm[c] for c in power]
    return counts


@dataclass
class StripZetaIdentityReport:
    type_tag: str
    k: int
    ok: bool
    det_identity_ok: bool
    zeta_match_ok: bool
    trace_match_ok: bool
    alt_det: ExponentMap
    strip_zetas: list
    witness: dict = None  # None on a pass

    def as_json(self):
        out = {
            "type": self.type_tag,
            "k": self.k,
            "pass": bool(self.ok),
            "det_identity": bool(self.det_identity_ok),
            "zeta_product_match": bool(self.zeta_match_ok),
            "trace_oracle_match": bool(self.trace_match_ok),
            "alt_det": str(self.alt_det),
        }
        if self.witness is not None:
            out["witness"] = self.witness
        return out


def verify_strip_zeta_identity(tq, trace_order=6):
    """The geometric determinant identity on the torus: the alternating
    product of twisted parabolic determinants equals the product of the
    two strip zeta functions evaluated at u^(strip length).  Both sides
    are exponent maps: a strip zeta is the inverse of its permutation's
    cycle-type map, and u -> u^l multiplies each d by l.

    Also checks that operator traces match the independent geometric
    strip counts up to trace_order.  A failure records a witness: for the
    zeta product the first d whose (1-u^d) exponents differ, else for the
    traces the strip and the first m where the geometric, operator and
    zeta counts disagree, else the determinant identity's own witness."""
    system = tq.system
    det_report = strips_mod.verify_determinant_identity(system, tq, tq.table)
    specs = strips_mod.strip_generators(system.type_tag)
    zetas = []
    product = ExponentMap()
    trace_witness = None
    for spec in specs:
        perm = tq.perm(tq.table, tq.table.element_of_word(spec.word))
        zr = _perm_zeta(perm, trace_order * spec.length)
        zetas.append(zr)
        product = product / _cycle_type_map(perm, 1).substitute_power(spec.length)
        counts = zip(closed_strip_counts(tq, spec, trace_order),
                     operator_strip_counts(tq, spec, trace_order),
                     zr.closed_counts[:trace_order], strict=True)
        for m, (geo, op, zc) in enumerate(counts, 1):
            if trace_witness is None and not geo == op == zc:
                trace_witness = {"check": "traces", "strip": spec.index, "degree": m,
                                 "geometric": geo, "operator": op, "zeta": zc}
    zeta_ok = product == det_report.alt_det
    trace_ok = trace_witness is None
    ok = det_report.ok and zeta_ok and trace_ok
    if not zeta_ok:
        witness = strips_mod.exponent_witness("zeta product", product, det_report.alt_det)
    else:
        witness = trace_witness or det_report.witness
    return StripZetaIdentityReport(system.type_tag, tq.k, ok, det_report.ok, zeta_ok, trace_ok,
                                   det_report.alt_det, zetas, witness)
