"""Zeta functions: Ihara zeta of finite graphs (the rank-one case), straight
strip zeta functions from operator data, and the unit-parameter torus
quotient of the rank-2 affine apartment that realizes the determinant
identities geometrically.

On the torus every operator is a permutation of chambers, so each
determinant has one exact integer route, which comes out as an exponent
map d -> m of a product of (1 - u^d)^m (`series.ExponentMap`): a finite
factor in closed form, Varchenko's determinant of the regular block of
a finite parabolic W_J (`TorusQuotient.block_det`), a strip factor det(I - P u^l)
as (1 - u^(l o))^(n/o), o the order of w modulo t(kL).  The identity
checkers multiply and compare maps; a polynomial is expanded from a map
only for output.  The quotient is its own permutation representation at
q = 1, validated when it is built; its dense chamber matrices (`image`,
`action_matrix`) are uncached oracles.  The build proves W/t(kL) acts
regularly, so tr P(w) is n or 0 and every cycle of P(w) has length o:
the dual trace-log checks solve one resolvent recurrence for a label
vector over the compact pairs, its last degree one lookup per pair at
P^-1(0), to integer power sums: `block_det` compares them with its map's,
and Newton's identities turn the whole ball's into its determinant, in
Python ints; every emitted value is an int, Fraction or exact polynomial.
"""

import math
from functools import cached_property, reduce
from itertools import combinations

from . import coxeter as cox
from . import strips as strips_mod
from .hecke import Representation, walk_word
from .series import (
    ExponentMap,
    Matrix,
    Poly,
    RationalFunction,
    char_matrix_det,
    det_poly_matrix,
    power_sum_exp,
)


class ZetaError(Exception):
    pass


# the degree to which `TorusQuotient.block_det` checks its map's power sums
DUAL_CHECK_ORDER = 4


# ---------------------------------------------------------------------------
# finite graphs


class Graph:
    """Finite undirected multigraph without self-loops."""

    def __init__(self, num_vertices, edges):
        for u, v in edges:
            if u == v:
                raise ZetaError("self-loops are not supported")
            if not (0 <= u < num_vertices and 0 <= v < num_vertices):
                raise ZetaError("edge endpoint out of range")
        self.num_vertices = num_vertices
        self.edges = edges  # sorted (u, v) pairs, repeated for multiplicity

    def __eq__(self, other):
        return other.__class__ is self.__class__ and vars(self) == vars(other)

    def __hash__(self):
        return hash(tuple(vars(self).values()))

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


def _refuse_isolated_vertex(graph):
    # O(m), from the edges alone: n may be huge, so this precedes anything of size n
    if len({v for edge in graph.edges for v in edge}) != graph.num_vertices:
        raise ZetaError("graph has an isolated vertex")


def hashimoto_matrix(graph):
    """Directed-edge transfer matrix: e -> f allowed when f continues e
    without traversing the same edge copy straight back."""
    _refuse_isolated_vertex(graph)
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


class ZetaReport:
    def __init__(self, zeta, inverse_poly, series, closed_counts, primitive_counts):
        # zeta and its exact inverse polynomial and expansion; N_n = tr(B^n) and
        # the primitive classes by length, n = 1..order
        self.zeta, self._inverse, self.series = zeta, inverse_poly, series
        self.closed_counts, self.primitive_counts = closed_counts, primitive_counts

    @cached_property
    def inverse_poly(self):  # an ExponentMap inverse is expanded when first read
        return self._inverse.as_polynomial() if isinstance(self._inverse, ExponentMap) else self._inverse

    def as_json(self):
        return {
            "zeta_inverse_poly": [int(c) for c in self.inverse_poly.coeffs],
            "N": [int(n) for n in self.closed_counts],
            "primitive_counts": [int(p) for p in self.primitive_counts],
            "order": self.series.order,
        }


def _zeta_report(inv, counts, order):
    # the zeta of an inverse ExponentMap is the inverse map, expanded only to the order
    zeta = inv.inverse() if isinstance(inv, ExponentMap) else RationalFunction(Poly.one(), inv)
    series = zeta.expand(order)
    prim = primitive_counts_from_traces(counts)
    # exp(sum N_k u^k / k), from the counts as power sums, must reproduce
    # the expansion
    if not (power_sum_exp(counts, order) == series):
        raise ZetaError("trace series disagrees with the determinant expansion")
    return ZetaReport(zeta, inv, series, counts, prim)


def _vertex_side(graph):
    """det(I - B u) by Bass's three-term formula, which holds for every
    finite multigraph: (1 - u^2)^(m - n) * det(I - A u + (D - I) u^2), D the
    degree matrix.  An n x n determinant with entries of degree <= 2; for
    n > m the power of (1 - u^2) divides it exactly."""
    _refuse_isolated_vertex(graph)
    n, a, deg = graph.num_vertices, graph.adjacency(), graph.degrees()
    det = det_poly_matrix([
        [Poly((1, 0, deg[i] - 1)) if i == j else Poly((0, -a[i][j])) if a[i][j] else 0 for j in range(n)]
        for i in range(n)
    ])
    power = Poly((1, 0, -1)) ** abs(graph.euler_characteristic())
    return det.exact_div(power) if n > graph.num_edges else det * power


def ihara_zeta(graph, order=16):
    """Ihara zeta of a finite graph: the inverse polynomial from Bass's
    vertex side, the counts N_n = tr(B^n) from the non-backtracking
    operator B, so the power-sum exp check compares two routes."""
    return _zeta_report(_vertex_side(graph), traces(hashimoto_matrix(graph), order), order)


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


def primitive_counts_from_traces(counts):
    """Necklace inversion: N_n = sum_{d|n} d * p_d, solved for p_n by
    p_n = (N_n - sum_{d|n, d<n} d p_d) / n.

    Every count must come out a nonnegative integer (each closed class is
    a repetition of a unique primitive one)."""
    prim = []
    for n, count in enumerate(counts, 1):
        total = count - sum(d * prim[d - 1] for d in range(1, n) if n % d == 0)
        if total % n != 0 or total < 0:
            raise ZetaError("necklace inversion failed at length %d" % n)
        prim.append(total // n)
    return prim


class IharaCheckReport:
    def __init__(self, regular_degree, ok, lhs, rhs):
        self.regular_degree, self.ok = regular_degree, ok
        self.lhs, self.rhs = lhs, rhs  # det(I - B u) and its vertex side

    def as_json(self):
        return {
            "q": self.regular_degree - 1,
            "pass": bool(self.ok),
            "det_edge_side": [int(c) for c in self.lhs.coeffs],
        }


def ihara_formula_check(graph, q):
    """The rank-one determinant identity for a (q+1)-regular graph:
    det(I - B u) == (1 - u^2)^(E - V) * det(I - A u + q u^2), Bass's vertex
    side with D - I = q I."""
    _refuse_isolated_vertex(graph)
    if any(d != q + 1 for d in graph.degrees()):
        raise ZetaError("graph is not %d-regular" % (q + 1,))
    lhs, rhs = char_matrix_det(Matrix(hashimoto_matrix(graph)), 1), _vertex_side(graph)
    return IharaCheckReport(q + 1, lhs == rhs, lhs, rhs)


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
    rows = tuple(tuple(r) for r in (a_matrix.rows if isinstance(a_matrix, Matrix) else a_matrix))
    return _zeta_report(char_matrix_det(Matrix(rows), 1), traces(rows, order), order)


# ---------------------------------------------------------------------------
# the unit-parameter torus quotient of the rank-2 apartment


def _perm_matrix(perm):
    n = len(perm)
    return Matrix(tuple(tuple(1 if perm[i] == j else 0 for j in range(n)) for i in range(n)))


def _fixed_points(perm):
    return sum(1 for c in range(len(perm)) if perm[c] == c)


def _one_vector_power_sums(pair_lengths, n, order):
    """The int power sums p_1, ..., p_order of det(I + N) for N = sum P u^l
    over (pair, l), l >= 1, P the pair (R, f) sending label j k^2 + p k + q
    to R[j] k^2 + f(p, q) mod k: R a permutation of s indices (a W0 Cayley
    column), f an affine map of Z^2 with det M = +-1 mod k and k^2 = n / s.
    Valid only when every product of the P fixes no label or all n, as on a
    torus: then tr M = n M_00 for every M in the algebra the P span.

    By Jacobi's formula the power sums of det(I + N) = exp(sum p_d u^d / d)
    are the coefficients of u d/du log det(I + N) = tr(u N' (I + N)^-1),
    so p_d = n (y_d)_0 for the row vector y = e_0 u N' (I + N)^-1.  One
    resolvent pass solves y (I + N) = e_0 u N' degree by degree,
        y_d = d sum_(P of length d) e_P(0) - sum_(l<d) y_(d-l) N_l,
    each y_d a sparse {label: int} map, to d = D - 1, D = order.  The last
    degree reads label 0 alone, (y_D)_0 = D #{P of length D : P(0) = 0} -
    sum_(l<D) sum_(P of length l) y_(D-l)(P^-1(0)), P^-1(0) the label
    (R.index(0), -M^-1 v mod k).  Nothing of size k^2 or n is built."""
    by_length = [[] for _ in range(order + 1)]
    for pair, length in pair_lengths:
        if length <= order:
            by_length[length].append(pair)
    k = math.isqrt(n // len(pair_lengths[0][0][0])) if pair_lengths else 1
    size = k * k
    ys, power_sums = [None], []
    for d in range(1, order):
        row = {}
        for right, (_a, _b, _c, _d, e, h) in by_length[d]:
            label = right[0] * size + e % k * k + h % k
            row[label] = row.get(label, 0) + d
        for length in range(1, d):
            pairs = by_length[length]
            if not pairs:
                continue
            for at, x in ys[d - length].items():
                j, t = divmod(at, size)
                p, q = divmod(t, k)
                for right, (a, b, c, dd, e, h) in pairs:
                    label = right[j] * size + (a * p + b * q + e) % k * k + (c * p + dd * q + h) % k
                    row[label] = row.get(label, 0) - x
        ys.append(row)
        power_sums.append(n * row.get(0, 0))
    last = order * sum(1 for right, f in by_length[order] if not (right[0] or f[4] % k or f[5] % k))
    for length in range(1, order):
        y = ys[order - length]
        for right, (a, b, c, dd, e, h) in by_length[length] if y else ():
            det = a * dd - b * c  # M^-1 = det (dd, -b; -c, a) mod k when det^2 = 1 mod k
            if (det * det - 1) % k:
                raise ZetaError("class map %r has det^2 != 1 mod %d" % ((a, b, c, dd, e, h), k))
            last -= y.get(right.index(0) * size + det * (b * h - dd * e) % k * k + det * (c * e - a * h) % k, 0)
    return power_sums + [n * last] if order else []


def _one_vector_det_series(pair_lengths, n, order):
    """det(I + N) to u^order from `_one_vector_power_sums` by `power_sum_exp`."""
    return power_sum_exp(_one_vector_power_sums(pair_lengths, n, order), order)


def _regular_cycle_map(n, o, shift_power):
    """det(I - P u^s) for a permutation of n points whose cycles all have
    length o: the exponent map of (1 - u^(s o))^(n / o)."""
    return ExponentMap({shift_power * o: n // o})


def _regular_block_exponents(system, letters):
    """V_J of `block_det`, for a parabolic of rank at most 2, as a map d -> m."""
    if len(letters) < 2:
        return {2: len(letters)}
    m = system.bond(*letters)
    return {2: 2 * m, 2 * m: m - 2}


# an affine map x -> M x + v of Z^2 is the 6-tuple (M00, M01, M10, M11, v0, v1)
_IDENTITY_MAP = (1, 0, 0, 1, 0, 0)


def _map_then(f, g):
    """'Apply f, then g' for affine maps of Z^2."""
    a, b, c, d, e, h = f
    p, q, r, s, x, y = g
    return (p * a + q * c, p * b + q * d, r * a + s * c, r * b + s * d, p * e + q * h + x, r * e + s * h + y)


def _fixed_classes(f, k):
    """#{x mod k : (M - I) x = -v mod k}: none unless -v lies in the lattice
    (M - I) Z^2 + k Z^2, else its index, prod gcd(d_i, k) for the Smith
    form diag(d_1, d_2) of M - I (Newman, Integral Matrices, Ch. II)."""
    (p, q), r = _triangular_basis(((f[0] - 1, f[2]), (f[1], f[3] - 1), (k, 0), (0, k)))
    return p * r if f[4] % p == 0 and (f[4] // p * q - f[5]) % r == 0 else 0


class TorusQuotient:
    """Chamber complex of the rank-2 apartment modulo translations by k
    times the translation lattice L, with the right-multiplication action.

    Generators s1, s2, s3 are indices 0, 1, 2, s3 affine, simple roots a1,
    a2, a3.  W = W0 t(L) with W0 = <s1, s2> (Kac, Infinite-dimensional Lie
    algebras, Ch. 6), and t(kL) is normal, so the chamber of w = v t_mu is
    (v, mu mod kL): |W0| k^2 chambers, a count checked against the element
    cap (WEYLZETA_MAX_ELEMENTS) before any is built.  A chamber is its
    label j k^2 + p k + q: j the W0 index of v, (p, q) mod k the
    coordinates of phi(mu) in the triangular basis (a, b), (0, c) of
    phi(L).  phi(mu) = -delta_3 (<mu, a1>, <mu, a2>), injective, is entries
    0 and 1 of row 2 of w's matrix, as w a_i = v a_i - <mu, a_i> delta and
    W0 keeps a1, a2 in their span.  As s3 v = (s3bar v) t_(v^-1 mu3),
    L = span(W0 mu3), spanned by row 2 of s3 v over the section's v.

    An element w acts as its compact pair (g, f), g the W0 index of its
    linear part and f its class map x -> M x + v over Z: it sends (j, x)
    to (R_g[j], f(x) mod k), R_g column g of the W0 Cayley table.  A step
    by s_i is (R_i[g], f then (M_i, v_i)) and a composition reads the
    Cayley table, so no route builds a table of the k^2 classes or the n
    labels.

    The build checks the quadratic and braid relations at q = 1 on the R_i
    at every W0 index and on the class maps over Z, for every k at once:
    the labels carry a W-action, the quotient's own permutation
    representation at q = 1.  Each translation v^-1 s3 s_theta v (s_theta
    the W0 element of s3's linear part) must fix every W0 index and act on
    the classes over Z as x -> x + v, so its k-th power fixes every label,
    and these powers generate t(kL).  R is W0's right-regular action and
    the vectors v span Z^2, so the action is transitive and chamber 0's
    stabiliser is the normal t(kL): every w fixes no chamber or all n, and
    P(w) has n / o cycles of length o, w's order.
    """

    q = 1

    def __init__(self, system, k, table=None):
        if not system.is_affine or system.rank != 2:
            raise ZetaError("torus quotient needs a rank-2 affine system")
        if k < 2:
            raise ZetaError("scale k must be at least 2")
        self.system, self.k = system, k
        self.table = cox.enumerate_elements(system, cox.DEFAULT_BOUND) if table is None else table
        self._setup_weyl_section()
        self.n = self.weyl_order * k * k  # an int: len() of a range past sys.maxsize raises OverflowError
        cox.check_element_cap(self.n, "torus quotient with %d chambers" % self.n)
        self.chambers = range(self.n)
        self._read_factors()
        indices = list(range(self.weyl_order))
        columns = [list(column) for column in zip(*self._w0_right)]  # R_i at every W0 index
        actions = {(): (indices, _IDENTITY_MAP)}

        def act(word):  # R_w at every W0 index and w's class map over Z
            middle = len(word) > 1 and word[0] == word[-1] and actions.get(word[1:-1])
            if middle:  # s w' s, w' walked: the translation words are v^-1 s3 s_theta v
                col, f = columns[word[0]], self._class_maps[word[0]]
                actions[word] = [col[middle[0][x]] for x in col], _map_then(_map_then(f, middle[1]), f)
            else:
                right = reduce(lambda out, s: [columns[s][j] for j in out], word, indices)
                actions[word] = right, self._factor_pair(word)[1]
            return actions[word]

        # quadratic and braid relations at q = 1; for involutions, (pq)^m = 1
        relations = [((i, i), "generator %d is not an involution on chambers" % (i + 1,)) for i in range(3)]
        relations += [((i, j) * system.bond(i, j), "braid relation fails on chambers for (%d, %d)" % (i + 1, j + 1))
                      for i, j in ((0, 1), (0, 2), (1, 2)) if system.bond(i, j)]
        for word, message in relations:
            if act(word) != (indices, _IDENTITY_MAP):
                raise ZetaError(message)
        shifts = []
        for word in self._translation_words:  # x -> x + v over Z, so t(kL) fixes every label
            right, f = act(word)
            if right != indices or f[:4] != _IDENTITY_MAP[:4]:
                raise ZetaError("the word %s does not translate the labels"
                                % "".join(str(s + 1) for s in word))
            shifts.append(f[4:])
        orbit, grown = {0}, [0]  # R acts transitively on the W0 indices
        while grown:
            grown = {r for j in grown for r in self._w0_right[j]} - orbit
            orbit |= grown
        if len(orbit) != self.weyl_order:
            raise ZetaError("the W0 tables reach %d of the |W0| = %d indices" % (len(orbit), self.weyl_order))
        (a, _b), c = _triangular_basis(shifts)
        if a * c != 1:
            raise ZetaError("the translation words do not shift the classes onto all of L/kL")

    @property
    def representation(self):
        """The quotient itself, under the name callers read a representation by."""
        return self

    # -- construction --------------------------------------------------------

    def _linear_part(self, matrix):
        """Action of w, given by its matrix, on the weight plane (the
        quotient by the null direction), as a 2x2 integer matrix."""
        d0, d1, d2 = self.system.delta
        cols = []
        for j in range(2):
            t, r = divmod(matrix[2][j], d2)
            if r:
                raise ZetaError("non-integral linear part")
            cols.append((matrix[0][j] - t * d0, matrix[1][j] - t * d1))
        return (cols[0][0], cols[1][0], cols[0][1], cols[1][1])

    def _setup_weyl_section(self):
        """Index W0 by linear part and take the triangular basis of phi(L)
        from row 2 of s3 v over v in W0, each section matrix its parent's
        times one reflection.  The Cayley table follows the parents on the
        table's neighbours, v_j v_g = (v_j v_parent) s_i; the linear part is
        a homomorphism onto W0, so s3 acts on the indices as s_theta."""
        system = self.system
        section = self.table.parabolic_elements((0, 1))  # parents come first
        self.weyl_order = len(section)
        place = {el.position: j for j, el in enumerate(section)}
        row0, row1 = self.table.neighbours[:2]
        right = [(place[row0[el.position]], place[row1[el.position]]) for el in section]
        # _w0_mul[g][j] is the W0 index of v_j v_g: the permutation R_g
        matrices, mul = [system.word_matrix(())], [tuple(range(self.weyl_order))]
        for el in section[1:]:
            parent = place[el.parent.position]
            matrices.append(system.right_reflect(matrices[parent], el.letter))
            mul.append(tuple([right[j][el.letter] for j in mul[parent]]))
        linear_index = {self._linear_part(m): j for j, m in enumerate(matrices)}
        if len(linear_index) != len(section):
            raise ZetaError("finite Weyl section is not faithful")
        theta = linear_index.get(self._linear_part(system.right_reflect(matrices[0], 2)))
        if theta is None:
            raise ZetaError("the torus quotient needs generator 3 as the affine node: "
                            "s3's linear part is not in the W0 of s1, s2")
        self._w0_mul = tuple(mul)
        self._w0_right = tuple(r + (r3,) for r, r3 in zip(right, mul[theta]))
        s_theta = section[theta].word  # s3 s_theta is a translation
        self._translation_words = tuple(v.word[::-1] + (2,) + s_theta + v.word for v in section)
        # row 2 of s3 v is v's row 2 minus sum_c cartan[2][c] * (v's row c)
        c0, c1, c2 = system.cartan[2]
        self._basis = _triangular_basis(
            tuple(m[2][b] - c0 * m[0][b] - c1 * m[1][b] - c2 * m[2][b] for b in (0, 1)) for m in matrices)
        if not (self._basis[0][0] and self._basis[1]):
            raise ZetaError("degenerate translation lattice basis")

    def _read_factors(self):
        """The class maps x -> M_i x + v_i.  Row 2 of w's matrix is
        phi(mu) with row . delta = delta[2], as W fixes delta, and row 2 of
        w s_i is row - row[i] * cartan[i]: the image class is affine in
        (p, q), read off the classes (0, 0), (1, 0), (0, 1) and integral
        there, so x -> M_i x + v_i is integral and keeps k phi(L)."""
        (a, b), c = self._basis
        d0, d1, d2 = self.system.delta
        rows = [(x0, x1) + divmod(d2 - x0 * d0 - x1 * d1, d2) for x0, x1 in ((0, 0), (a, b), (0, c))]
        if any(row[3] for row in rows):  # row[2] is entry 2, row[3] its remainder
            raise ZetaError("a lattice row is off the plane row . delta = delta[2]")
        maps = []
        for i, (c0, c1, _) in enumerate(self.system.cartan):
            images = []
            for row in rows:
                p, r = divmod(row[0] - row[i] * c0, a)
                q, r2 = divmod(row[1] - row[i] * c1 - p * b, c)
                if r or r2:
                    raise ZetaError("translation outside the detected lattice")
                images.append((p, q))
            (e, h), (p1, q1), (p2, q2) = images
            maps.append((p1 - e, p2 - e, q1 - h, q2 - h, e, h))
        self._class_maps = tuple(maps)
        self._perm_cache = {self.table.identity.key: (0, _IDENTITY_MAP)}

    @cached_property
    def factor_permutations(self):
        """The tables (R_i, T_i) on the |W0| indices and the k^2 classes, built
        on first read: only the breadth-first numbering and the oracles read them."""
        k = self.k
        return tuple(
            (tuple(w0[i] for w0 in self._w0_right),
             tuple([(x + m01 * q) % k * k + (y + m11 * q) % k
                    for x, y in ((m00 * p + e, m10 * p + h) for p in range(k)) for q in range(k)]))
            for i, (m00, m01, m10, m11, e, h) in enumerate(self._class_maps))

    def _enumerate_chambers(self):
        """The generator permutations, chambers numbered breadth-first from
        label 0, panels of each chamber in turn; the action is transitive."""
        size = self.k * self.k
        g0, g1, g2 = ([rj * size + t for rj in right for t in classes] for right, classes in self.factor_permutations)
        number = [0] + [-1] * (self.n - 1)  # a label's chamber, -1 until reached
        order, l0, l1, l2 = [0], [], [], []  # li[c] is the chamber across panel i of chamber c
        for label in order:  # order grows while it is walked: the BFS queue
            if (c := number[x := g0[label]]) < 0:
                c = number[x] = len(order)
                order.append(x)
            l0.append(c)
            if (c := number[x := g1[label]]) < 0:
                c = number[x] = len(order)
                order.append(x)
            l1.append(c)
            if (c := number[x := g2[label]]) < 0:
                c = number[x] = len(order)
                order.append(x)
            l2.append(c)
        return tuple(l0), tuple(l1), tuple(l2)

    @cached_property
    def generator_permutations(self):
        """`_enumerate_chambers`, built on first read: no production route reads it."""
        return self._enumerate_chambers()

    # -- the permutation representation ----------------------------------------

    def chamber_count(self):
        return self.n

    dim = property(chamber_count)

    def walk(self, chamber, word):
        """The label reached from the label `chamber` across word's panels,
        by the word's compact pair (g, f): (j, x) goes to (R_g[j], f(x) mod k).
        A chamber outside 0..n-1 raises ZetaError, a bad letter CoxeterError."""
        if chamber not in self.chambers:
            raise ZetaError("chamber %r is not one of the %d chambers 0..%d"
                            % (chamber, self.n, self.n - 1))
        g, (a, b, c, d, e, h) = self._factor_pair(self.system.checked_word(word))
        k = self.k
        j, t = divmod(chamber, k * k)
        p, q = divmod(t, k)
        return (self._w0_mul[g][j] * k + (a * p + b * q + e) % k) * k + (c * p + d * q + h) % k

    def _factor_pair(self, word):
        """w's compact pair over Z, for a checked word."""
        right = self._w0_right
        return (reduce(lambda j, s: right[j][s], word, 0),
                reduce(_map_then, [self._class_maps[s] for s in word], _IDENTITY_MAP))

    def _then(self, x, y):
        """'Apply x, then y' for compact pairs: the W0 part from the Cayley table."""
        return self._w0_mul[y[0]][x[0]], _map_then(x[1], y[1])

    def order(self, word):
        """The order o of word's element w in G_k, every cycle's length:
        e k / gcd(k, v_e), e the order of w's W0 part, as w^e lies in t(L),
        which shifts the classes: x -> x + v_e."""
        pair = power = self._factor_pair(self.system.checked_word(word))
        e = 1
        while power[0]:
            power, e = self._then(power, pair), e + 1
        return e * self.k // math.gcd(self.k, *power[1][4:])

    def perm(self, element):
        """The compact pair (g, f) of e_w, f reduced mod k, built along the
        stored reduced word: equal actions give equal, hashable pairs."""
        right, maps, k = self._w0_right, self._class_maps, self.k
        return walk_word(element, self._perm_cache,
                         lambda pair, s: (right[pair[0]][s], tuple([x % k for x in _map_then(pair[1], maps[s])])))

    def image(self, element):
        """Dense permutation matrix of e_w, right multiplication on the labels,
        rebuilt on every call: an oracle, not a production route."""
        return _perm_matrix([self.walk(label, element.word) for label in self.chambers])

    action_matrix = image
    finite_series, cyclic_series = Representation.finite_series, Representation.cyclic_series  # dense, on `image`

    # exact permutation routes for the identity verifiers

    def finite_det_factor(self, elements):
        return self.block_det([(self.perm(el), el.length, el.key) for el in elements])

    def cyclic_det_factor(self, element):
        """det(I - P u^l) = (1 - u^(l o))^(n / o), o the element's order."""
        return _regular_cycle_map(self.n, self.order(element.word), element.length)

    def cyclic_det_hook(self, _table, element):
        return self.cyclic_det_factor(element).as_polynomial()

    def det_series_hook(self, table, order):
        """Trace-log determinant of the truncated twisted group sum by the
        one-vector route: the action is regular (proved at build), so a
        trace is n times one diagonal entry, and one resolvent pass over
        the compact pairs of the ball of radius `order` gives the power sums."""
        pushes = [((self._w0_mul[g], f), el.length) for el in table.ball(order)[1:] for g, f in [self.perm(el)]]
        return _one_vector_det_series(pushes, self.n, order)

    # -- exact block determinants ---------------------------------------------

    def block_det(self, perm_len_keys):
        """Exact determinant of sum_w rho(e_w) u^l(w) over a finite element
        set S, given as (compact pair, length, key) triples, as an
        ExponentMap in closed form: no block is built.

        The words' letters give J; W_J meets the torsion-free t(kL) only in
        e, so it acts freely: the operator is n / |W_J| copies of
        sum_(w in S) u^l(w) R(w), R W_J's right-regular representation.  For
        S = W_J that is the Varchenko matrix of W_J's arrangement (Adv. Math.
        97, 1993), of determinant V_e = 1, V_i = 1 - u^2 and, for
        m = bond(i, j), V_ij = (1 - u^2)^(2m) (1 - u^(2m))^(m-2).  Else S must
        be W_J^I, the minimal representatives of W_J over W_I on either side,
        and W_J = S W_I length-additively makes it V_J / V_I^(|W_J|/|W_I|):
        I is the letters that are a right descent (key[s] < 0) of no element,
        else of no inverse, and |W_J| / |W_I| distinct elements are all of
        W_J^I.  Any other set, a repeated element, an infinite or unclosed
        W_J, or a pair that is not its key's raises ZetaError.  When S holds
        the identity, the map's power sums p_j = -sum_(d|j) d m_d must equal
        the one-vector ones of the elements named by the keys up to
        u^DUAL_CHECK_ORDER: equal power sums are equal truncated series."""
        table, n = self.table, self.n
        elements = [table.element(key) for _perm, _length, key in perm_len_keys]
        letters, climbed = set(), {table.identity}
        for el in elements:  # the words' letters, each climb up the parents ending at a climbed element
            while el not in climbed:
                climbed.add(el)
                letters.add(el.letter)
                el = el.parent
        letters = tuple(sorted(letters))
        try:
            group = table.parabolic_elements(letters)
        except cox.OutOfTableError:
            raise ZetaError("the letters %s generate no finite parabolic within bound %d"
                            % ("".join(str(s + 1) for s in letters), table.bound)) from None
        for (perm, _length, _key), el in zip(perm_len_keys, elements):
            own = self.perm(el)
            if perm is not own and perm != own:
                raise ZetaError("w = %s: the permutation given is not the quotient's"
                                % "".join(str(s + 1) for s in el.word))
        for side in (lambda el: el.key, lambda el: table.walk_key(table.identity.key, el.word[::-1])):
            keys = [side(el) for el in elements]
            sub = tuple(s for s in letters if all(key[s] >= 0 for key in keys))
            if len(set(keys)) == len(keys) and len(keys) * len(table.parabolic_elements(sub)) == len(group):
                break
        else:
            raise ZetaError("the elements over the letters %s are no set of minimal coset representatives"
                            % "".join(str(s + 1) for s in letters))
        ratio, copies = len(group) // len(table.parabolic_elements(sub)), n // len(group)
        whole, part = (_regular_block_exponents(self.system, J) for J in (letters, sub))
        det = ExponentMap({d: (whole.get(d, 0) - ratio * part.get(d, 0)) * copies
                           for d in whole.keys() | part.keys()})
        # independent truncated route, from the keys alone
        if [el.length for el in elements].count(0) == 1:
            pushes = [((self._w0_mul[pair[0]], pair[1]), el.length) for (pair, _length, _key), el
                      in zip(perm_len_keys, elements) if 0 < el.length <= DUAL_CHECK_ORDER]
            if _one_vector_power_sums(pushes, n, DUAL_CHECK_ORDER) != det.power_sums(DUAL_CHECK_ORDER):
                raise ZetaError("regular-block determinant failed the trace-log cross-check")
        return det


def _triangular_basis(vectors):
    """A basis ((a, b), c) = ((a, b), (0, c)), a, c >= 0, of the lattice
    spanned by integer 2-vectors, by unimodular row operations: a and c
    are both nonzero exactly when the lattice has rank 2, and a c is its
    index in Z^2."""
    a = b = c = 0
    for x, y in vectors:
        while x:  # Euclid on the first entries of the rows (a, b) and (x, y)
            q = a // x
            a, b, x, y = x, y, a - q * x, b - q * y
        if a < 0:
            a, b = -a, -b
        c = math.gcd(c, y)
    return (a, b), c


# ---------------------------------------------------------------------------
# torus-level operations


def torus_quotient_rep(system, k, table=None):
    """The chamber torus at scale k, which is its own validated permutation
    representation of the group algebra."""
    return TorusQuotient(system, k, table)


# the former name, by which benchmarks/spans.py wraps the representation methods
TorusRepresentation = TorusQuotient


def closed_strip_counts(tq, spec, n_max):
    """Geometric counts of closed pointed strips of one type, in closed
    form: w^m fixes a chamber exactly when its W0 part is 1 (R_w^m fixes
    every W0 index) and its class map x -> M_m x + v_m fixes the class, so
    the count is |W0| times `_fixed_classes`, or 0.  No operator or walk."""
    pair = power = tq._factor_pair(tq.system.checked_word(spec.word))
    counts = []
    for _ in range(n_max):
        counts.append(0 if power[0] else tq.weyl_order * _fixed_classes(power[1], tq.k))
        power = tq._then(power, pair)
    return counts


def operator_strip_counts(tq, spec, n_max):
    """tr(A_w^m) for m = 1..n_max: the power's compact pair (g, f) fixes
    (j, x) exactly when R_g fixes j and f fixes x mod k, so the trace is
    fix(R_g) on the Cayley table times `_minor_classes`, with no table built."""
    k = tq.k
    pair = power = tq.perm(tq.table.element_of_word(spec.word))
    counts = []
    for _ in range(n_max):
        fixed = _fixed_points(tq._w0_mul[power[0]])
        counts.append(fixed and fixed * _minor_classes(power[1], k))
        power = tq._then(power, pair)
    return counts


def _minor_classes(f, k):
    """#{x mod k : (M - I) x = -v mod k} for f: x -> M x + v, by
    determinantal divisors: [Z^2 : L] for L = (M - I) Z^2 + k Z^2 when -v
    lies in L, else 0.  The index of a full-rank lattice is the gcd of the
    2x2 minors of its spanning columns, and -v lies in L exactly when
    adding it as a column keeps that gcd (Newman, Integral Matrices,
    Ch. II).  Ten minors and no Euclid on rows, unlike `_fixed_classes`."""
    a, b, c, d, e, h = f
    columns = ((a - 1, c), (b, d - 1), (k, 0), (0, k))
    index = math.gcd(*[x * w - y * z for (x, z), (y, w) in combinations(columns, 2)])
    return index if math.gcd(index, *[e * z - x * h for x, z in columns]) == index else 0  # the minors with -v


class StripZetaIdentityReport:
    def __init__(self, type_tag, k, ok, det_identity_ok, zeta_match_ok, trace_match_ok, alt_det,
                 strip_zetas, witness=None):
        self.type_tag, self.k, self.ok = type_tag, k, ok
        self.det_identity_ok, self.zeta_match_ok, self.trace_match_ok = (
            det_identity_ok, zeta_match_ok, trace_match_ok)
        self.alt_det, self.strip_zetas = alt_det, strip_zetas
        self.witness = witness  # None on a pass

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
    are exponent maps: a strip zeta is 1 / (1 - u^o)^(n / o), o the strip
    word's order, kept as its map and expanded only to the trace order;
    tr P^m is n when o | m and 0 otherwise, and u -> u^l multiplies each
    d by l.  The operator traces must match the geometric strip counts up
    to trace_order.  A failure's witness is, for the zeta product, the
    first d whose (1-u^d) exponents differ, else for the traces the strip
    and the first m where the three counts disagree, else the determinant
    identity's own witness."""
    system = tq.system
    det_report = strips_mod.verify_determinant_identity(system, tq, tq.table)
    zetas, product, trace_witness = [], ExponentMap(), None
    for spec in strips_mod.strip_generators(system.type_tag):
        o, order = tq.order(spec.word), trace_order * spec.length
        cycles = _regular_cycle_map(tq.dim, o, 1)
        zr = _zeta_report(cycles, [0 if m % o else tq.dim for m in range(1, order + 1)], order)
        zetas.append(zr)
        product = product / cycles.substitute_power(spec.length)
        counts = zip(closed_strip_counts(tq, spec, trace_order),
                     operator_strip_counts(tq, spec, trace_order),
                     zr.closed_counts[:trace_order], strict=True)
        for m, (geo, op, zc) in enumerate(counts, 1):
            if trace_witness is None and not geo == op == zc:
                trace_witness = {"check": "traces", "strip": spec.index, "degree": m,
                                 "geometric": geo, "operator": op, "zeta": zc}
    zeta_ok, trace_ok = product == det_report.alt_det, trace_witness is None
    witness = (trace_witness or det_report.witness if zeta_ok
               else strips_mod.exponent_witness("zeta product", product, det_report.alt_det))
    return StripZetaIdentityReport(system.type_tag, tq.k, det_report.ok and zeta_ok and trace_ok, det_report.ok,
                                   zeta_ok, trace_ok, det_report.alt_det, zetas, witness)
