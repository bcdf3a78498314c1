"""Zeta functions: Ihara zeta of finite graphs (the rank-one case), straight
strip zeta functions from operator data, and the unit-parameter torus
quotient of the rank-2 affine apartment that realizes the determinant
identities geometrically.

On the torus every operator is a permutation of chambers, so each
determinant has one exact integer route, which comes out as an exponent
map d -> m of a product of (1 - u^d)^m (`series.ExponentMap`): a finite
factor from one block of the right-regular representation of a finite
parabolic W_J (`TorusQuotient.block_det`), a strip factor det(I - P u^l)
as (1 - u^(l o))^(n/o), o the order of w modulo t(kL).  The identity
checkers multiply and compare maps; a polynomial is expanded from a map
only for output.  The quotient is its own permutation representation at
q = 1, validated when it is built; its dense chamber matrices (`image`,
`action_matrix`) are uncached oracles.  The build proves W/t(kL) acts
regularly, so tr P(w) is n or 0 and every cycle of P(w) has length o:
the dual trace-log checks push one chamber vector through the
permutations of a ball, and Newton's identities turn the integer power
sums of tr log into the determinant.  The torus routes run in Python
ints; all emitted values are ints, Fractions, or exact polynomials.
"""

import math
from functools import reduce

from . import coxeter as cox
from . import strips as strips_mod
from .hecke import walk_word
from .series import (
    ExponentMap,
    Matrix,
    Poly,
    RationalFunction,
    SeriesError,
    _divide_scalar,
    char_matrix_det,
    det_poly_matrix,
    power_sum_exp,
)


class ZetaError(Exception):
    pass


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
        self.zeta, self.inverse_poly, self.series = zeta, inverse_poly, series
        self.closed_counts, self.primitive_counts = closed_counts, primitive_counts

    def as_json(self):
        return {
            "zeta_inverse_poly": [int(c) for c in self.inverse_poly.coeffs],
            "N": [int(n) for n in self.closed_counts],
            "primitive_counts": [int(p) for p in self.primitive_counts],
            "order": self.series.order,
        }


def _zeta_report(inv, counts, order):
    zeta = RationalFunction(Poly.one(), inv)
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


def _one_vector_det_series(perm_lengths, n, order):
    """det(I + N) up to u^order for N = sum P u^l over (perm, l) pairs with
    l >= 1, as the exp of the trace of log.  Valid only when every product
    of the permutations fixes no chamber or all n of them, as on a torus: then
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


def _regular_cycle_map(n, o, shift_power):
    """det(I - P u^s) for a permutation of n points whose cycles all have
    length o: the exponent map of (1 - u^(s o))^(n / o)."""
    return ExponentMap({shift_power * o: n // o})


class TorusQuotient:
    """Chamber complex of the rank-2 apartment modulo translations by k
    times the translation lattice L, with the right-multiplication action.

    Generators s1, s2, s3 are indices 0, 1, 2, with s3 affine and simple
    roots a1, a2, a3.  W = W0 t(L) with W0 = <s1, s2> (Kac,
    Infinite-dimensional Lie algebras, Ch. 6), and t(kL) is normal, so
    the chamber of w = v t_mu is (v, mu mod kL); there are exactly
    |W0| * k^2 of them.  That count is checked against the element cap
    (WEYLZETA_MAX_ELEMENTS) before any chamber is built.

    The translation part is read off row 2 of w's matrix, the a3
    coordinates: w a_i = v a_i - <mu, a_i> delta, and W0 keeps a1, a2 in
    their own span, so entries 0 and 1 of that row are
    phi(mu) = -delta_3 (<mu, a1>, <mu, a2>), an injective linear image.
    The lattice comes from W0 and s3 alone: s3 v = (s3bar v) t_(v^-1 mu3),
    and W0 t(span W0 mu3) holds s1, s2 and s3, so it is W and
    L = span(W0 mu3).  phi(L) is spanned by row 2 of s3 v over the |W0|
    section elements v; no table element is scanned for it.  s_i acts on
    a chamber (W0 index, mu mod kL) by one small table per part.

    The quotient is its own permutation representation of the group
    algebra at q = 1, of dimension the chamber count: the quadratic and
    braid relations at q = 1 are checked when it is built on the factor
    tables (`factor_permutations`, R_i on W0 and T_i on L/kL), which the
    search numbers one to one, so they make the generator permutations a
    W-action, and the search makes it transitive on n = |W0| k^2 chambers.
    The build then walks the k-th power of each translation v^-1 s3 s_theta v
    (v in W0, s_theta the W0 element of s3's linear part) from chamber 0 and
    back.  These generate t(kL), so chamber 0's stabiliser is t(kL), which
    is normal: G_k = W/t(kL) acts regularly, every w fixes no chamber or
    all n, and P(w) has n / o cycles of length o, w's order in G_k.
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
        # the quadratic and braid relations at q = 1, on both factors: the
        # numbering is a bijection onto the labels, so they hold on chambers
        factors = self.factor_permutations
        idents = [tuple(range(len(f))) for f in factors[0]]
        for i, pair in enumerate(factors):
            if any(_perm_compose(f, f) != e for f, e in zip(pair, idents)):
                raise ZetaError("generator %d is not an involution on chambers" % (i + 1,))
        # for involutions p, q the braid relation pqp... = qpq..., m
        # letters a side, is (pq)^m = 1
        for i, pair in enumerate(factors):
            for j in range(i + 1, len(factors)):
                m = system.bond(i, j)
                if m and any(reduce(_perm_compose, [_perm_compose(f, g)] * m) != e
                             for f, g, e in zip(pair, factors[j], idents)):
                    raise ZetaError("braid relation fails on chambers for (%d, %d)" % (i + 1, j + 1))
        for word in self._translation_words:  # t(kL) fixes chamber 0
            if self._walk(0, word * k):
                raise ZetaError("the translation %s to the power k moves chamber 0; "
                                "W/t(kL) does not act regularly" % "".join(str(s + 1) for s in word))

    @property
    def representation(self):
        """The quotient itself, under the name callers read a representation by."""
        return self

    # -- construction --------------------------------------------------------

    def _linear_part(self, matrix):
        """Action of w, given by its matrix, on the weight plane (the
        quotient by the null direction), as a 2x2 integer matrix."""
        delta = self.system.delta
        m3 = delta[2]
        cols = []
        for j in range(2):
            c = [matrix[a][j] for a in range(3)]
            if c[2] % m3:
                raise ZetaError("non-integral linear part")
            t = c[2] // m3
            cols.append((c[0] - t * delta[0], c[1] - t * delta[1]))
        return (cols[0][0], cols[1][0], cols[0][1], cols[1][1])

    def _setup_weyl_section(self):
        """Index W0 by linear part, tabulate right multiplication on it,
        and take the triangular basis of phi(L) from row 2 of s3 v over v
        in W0.  Each section matrix is its parent's times one reflection;
        the linear part is a homomorphism onto W0, so the W0 index of
        w s_i is w0_right[j][i] for w of index j, read off the table's
        links for s1, s2 and off one reflection for s3."""
        system = self.system
        section = self.table.parabolic_elements((0, 1))  # parents come first
        self.weyl_order = len(section)
        position = {el.key: j for j, el in enumerate(section)}
        matrices = []
        for el in section:
            matrices.append(system.word_matrix(()) if el.parent is None
                            else system.right_reflect(matrices[position[el.parent.key]], el.letter))
        linear_index = {self._linear_part(m): j for j, m in enumerate(matrices)}
        if len(linear_index) != len(section):
            raise ZetaError("finite Weyl section is not faithful")
        right3 = [linear_index.get(self._linear_part(system.right_reflect(m, 2))) for m in matrices]
        if None in right3:
            raise ZetaError("the torus quotient needs generator 3 as the affine node: "
                            "s3's linear part is not in the W0 of s1, s2")
        self._w0_right = tuple((position[el.links[0]], position[el.links[1]], r3)
                               for el, r3 in zip(section, right3))
        theta = section[right3[0]].word  # s3 s_theta is a translation
        self._translation_words = tuple(v.word[::-1] + (2,) + theta + v.word for v in section)
        # row 2 of s3 v is v's row 2 minus sum_c cartan[2][c] * (v's row c)
        self._basis = _triangular_basis(
            tuple(m[2][b] - sum(c * m[a][b] for a, c in enumerate(system.cartan[2])) for b in (0, 1))
            for m in matrices)

    def _enumerate_chambers(self):
        """Number the chambers breadth-first from the identity's, panels of
        each chamber in turn.  A chamber is a label j k^2 + t: j the W0 index
        of w = v t_mu, t = (p mod k) k + (q mod k) for phi(mu) = p (a, b) +
        q (0, c).  s_i acts on labels as R_i x T_i, R_i column i of w0_right
        and T_i on the k^2 classes alone: row 2 of w's matrix is phi(mu) and,
        W fixing delta, row . delta = delta[2]; row 2 of w s_i is
        row - row[i] * cartan[i].  T_i is read off one row per class, p, q in
        0..k-1; 0, (a, b) and (0, c) are among them, so images in phi(L)
        keep phi(L) and k phi(L): T_i is well defined mod k.  R_i x T_i
        fixes a label exactly when R_i and T_i both fix its parts; the
        pairs are kept as `factor_permutations`."""
        k, size = self.k, self.k * self.k
        (a, b), c = self._basis
        d0, d1, d2 = self.system.delta
        rows = []
        for p in range(k):
            for q in range(k):
                x0, x1 = p * a, p * b + q * c
                x2, r = divmod(d2 - x0 * d0 - x1 * d1, d2)
                if r:
                    raise ZetaError("a lattice row is off the plane row . delta = delta[2]")
                rows.append((x0, x1, x2))
        factors, gens = [], []  # s_i as (R_i, T_i) and on the labels, per generator
        for i, (c0, c1, _) in enumerate(self.system.cartan):
            classes = []
            for row in rows:
                p, r = divmod(row[0] - row[i] * c0, a)
                q, r2 = divmod(row[1] - row[i] * c1 - p * b, c)
                if r or r2:
                    raise ZetaError("translation outside the detected lattice")
                classes.append(p % k * k + q % k)
            right = tuple(w0[i] for w0 in self._w0_right)
            if (any(j == rj for j, rj in enumerate(right))
                    and any(t == ct for t, ct in enumerate(classes))):
                raise ZetaError("panel gluing fixes a chamber; the action is not free")
            factors.append((right, tuple(classes)))
            gens.append([rj * size + t for rj in right for t in classes])
        self.factor_permutations = tuple(factors)
        total = self.weyl_order * size
        number = [-1] * total  # a label's chamber, -1 until the search reaches it
        number[0] = 0  # the identity: W0 index 0 (the section is sorted by length), mu = 0
        order, links = [0], []  # links[3 c + i] is the chamber across panel i of chamber c
        for label in order:  # order grows while it is walked: the BFS queue
            for g in gens:
                n = number[g[label]]
                if n < 0:
                    n = number[g[label]] = len(order)
                    order.append(g[label])
                links.append(n)
        if len(order) != total:
            raise ZetaError("chamber count %d disagrees with |W0| k^2 = %d" % (len(order), total))
        self.chambers = range(total)
        # the identity shares the search's int objects, and the labels go first
        self._perm_cache = {self.table.identity.key: tuple([number[label] for label in order])}
        del gens, number, order
        self.generator_permutations = tuple(tuple(links[i::3]) for i in range(3))

    # -- the permutation representation ----------------------------------------

    def chamber_count(self):
        return len(self.chambers)

    dim = property(chamber_count)

    def walk(self, chamber, word):
        """The chamber reached from `chamber` across the panels of word; a
        letter outside the generators raises CoxeterError."""
        return self._walk(chamber, self.system.checked_word(word))

    def _walk(self, chamber, word):
        gens = self.generator_permutations
        for s in word:
            chamber = gens[s][chamber]
        return chamber

    def order(self, word):
        """The order o of word's element in G_k: the least o >= 1 with
        walk(0, word^o) = 0, the length of every cycle of its permutation."""
        word = self.system.checked_word(word)
        chamber, o = self._walk(0, word), 1
        while chamber:
            chamber, o = self._walk(chamber, word), o + 1
        return o

    def perm(self, table, element):
        """Chamber permutation of e_w, built along the stored reduced word."""
        gens = self.generator_permutations
        return walk_word(element, self._perm_cache, lambda p, s: _perm_compose(p, gens[s]))

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
        """det(I - P u^l) = (1 - u^(l o))^(n / o), o the element's order."""
        return _regular_cycle_map(len(self.chambers), self.order(element.word), element.length)

    def cyclic_det_hook(self, table, element):
        return self.cyclic_det_factor(table, element).as_polynomial()

    def det_series_hook(self, table, order):
        """Trace-log determinant of the truncated twisted group sum by the
        one-vector route: the action is regular (proved at build), so
        tr(N^j) = n (N^j)_{c0 c0}, and one chamber vector is pushed through
        the permutations of the ball of radius `order`."""
        perm_lengths = [(self.perm(table, el), el.length) for el in table.ball(order)[1:]]
        return _one_vector_det_series(perm_lengths, len(self.chambers), order)

    # -- exact block determinants ---------------------------------------------

    def block_det(self, perm_len_keys, dual_check_order=4):
        """Exact determinant of sum_w rho(e_w) u^l(w) over a finite element
        set S, given as (permutation, length, key) triples, as an
        ExponentMap.

        The letters of the elements' words give J, and S lies in the
        finite parabolic W_J, which meets the torsion-free t(kL) only in e,
        so W_J acts freely (regularity is proved at build): every W_J-orbit
        of chambers is a copy of W_J acting on itself by right
        multiplication, and the operator is n / |W_J| copies of the one
        |W_J| x |W_J| block sum_(w in S) u^l(w) R(w), R the right-regular
        representation.  The block is built from the table by walking each
        w's word from each v in W_J; its determinant is taken once and
        peeled into an exponent map to the power n / |W_J|: for S = W_J the
        block is the Varchenko matrix of W_J's arrangement, a product of
        (1-u^(2m)) factors (Adv. Math. 97, 1993), and W_J = S W_I makes a
        coset block a quotient of two.  A block that does not peel, an
        infinite or unclosed W_J, or a permutation that is not its key's
        raises ZetaError.

        Cross-checked up to u^dual_check_order, when the set holds the
        identity, against the one-vector trace-log of the elements named by
        the keys: the map's own truncated expansion must equal it."""
        table, n = self.table, len(self.chambers)
        elements = [table.element(key) for _perm, _length, key in perm_len_keys]
        letters = tuple(sorted({s for el in elements for s in el.word}))
        try:
            group = table.parabolic_elements(letters)
        except cox.OutOfTableError:
            raise ZetaError("the letters %s generate no finite parabolic within bound %d"
                            % ("".join(str(s + 1) for s in letters), table.bound)) from None
        for (perm, _length, _key), el in zip(perm_len_keys, elements):
            own = self.perm(table, el)
            if perm is not own and perm != own:
                raise ZetaError("w = %s: the permutation given is not the quotient's"
                                % "".join(str(s) for s in el.word))
        index = {v.key: i for i, v in enumerate(group)}
        rows = [[Poly.zero()] * len(group) for _ in group]
        for w in elements:
            term, word = Poly.u(w.length), w.word
            for v in group:
                i, j = index[v.key], index[table.walk_key(v.key, word)]
                rows[i][j] = rows[i][j] + term
        try:
            det = ExponentMap.of_poly(det_poly_matrix(rows), n // len(group))
        except SeriesError:
            raise ZetaError("the regular W_J block of the letters %s does not peel into (1-u^d) factors"
                            % "".join(str(s + 1) for s in letters)) from None
        # independent truncated route, from the keys alone
        if [el.length for el in elements].count(0) == 1:
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


def closed_strip_counts(tq, spec, n_max):
    """Geometric counts of closed pointed strips of one type: walk the W0
    indices and the k^2 classes of L/kL through the strip word's factor
    tables n times around, letter by letter.  A chamber comes back to
    itself exactly when both of its parts do, so the count is the product
    of the two fixed-point counts.  Independent of the operator traces
    and of the orders (no composite permutation or matrix is reused)."""
    word, counts = tq.system.checked_word(spec.word), []
    parts = [list(range(len(f))) for f in tq.factor_permutations[0]]
    for _ in range(n_max):
        for s in word:
            parts = [[f[c] for c in part] for f, part in zip(tq.factor_permutations[s], parts)]
        counts.append(math.prod(_fixed_points(part) for part in parts))
    return counts


def operator_strip_counts(tq, spec, n_max):
    """tr(A_w^m) for m = 1..n_max: the fixed points of the m-th power of
    the strip operator's chamber permutation, one composition per power."""
    power = perm = tq.perm(tq.table, tq.table.element_of_word(spec.word))
    counts = []
    for _ in range(n_max):
        counts.append(_fixed_points(power))
        power = [perm[c] for c in power]
    return counts


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
    word's order, tr P^m is n when o | m and 0 otherwise, and u -> u^l
    multiplies each d by l.

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
        o, order = tq.order(spec.word), trace_order * spec.length
        cycles = _regular_cycle_map(tq.dim, o, 1)
        zr = _zeta_report(cycles.as_polynomial(), [0 if m % o else tq.dim for m in range(1, order + 1)], order)
        zetas.append(zr)
        product = product / cycles.substitute_power(spec.length)
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
