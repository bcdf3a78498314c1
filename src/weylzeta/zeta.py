"""Zeta functions: Ihara zeta of finite graphs (the rank-one case), straight
strip zeta functions from operator data, and the unit-parameter torus
quotient of the rank-2 affine apartment that realizes the determinant
identities geometrically.

On the torus every operator is a permutation of chambers, so each
determinant has one exact integer route: a finite factor splits into
blocks over the orbits of its element permutations, and a strip factor
det(I - P u^l) is the product of 1 - u^(l * len) over the cycles of P.

numpy is used only as an exact integer fast path: int64 where an entry
bound proves that no sum can wrap, Python ints otherwise.  All emitted
values are ints, Fractions, or exact polynomials.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import coxeter as cox
from . import strips as strips_mod
from .hecke import Representation
from .series import (
    Matrix,
    Poly,
    PowerSeries,
    RationalFunction,
    _series_exp,
    det_poly_matrix,
)


class ZetaError(Exception):
    pass


def _np_int(mat):
    """Integer matrix as int64, or as Python ints when an entry does not fit."""
    try:
        return np.array(mat, dtype=np.int64)
    except OverflowError:
        return np.array(mat, dtype=object)


def _max_abs(arr):
    return max(int(arr.max()), -int(arr.min())) if arr.size else 0


def _matmul_sum(pairs):
    """Exact sum of the integer matrix products a @ b over nonempty pairs.

    int64 is used only when the sum of max|a| * max|b| * (inner dim) is
    below 2**63, which bounds every partial sum; otherwise the products are
    taken in Python ints, so no entry ever wraps."""
    bound = sum(_max_abs(a) * _max_abs(b) * a.shape[1] for a, b in pairs)
    exact = bound >= 2 ** 63 or any(a.dtype == object or b.dtype == object for a, b in pairs)
    out = None
    for a, b in pairs:
        prod = a.astype(object) @ b.astype(object) if exact else a @ b
        out = prod if out is None else out + prod
    return out


def _trace(arr):
    return sum(int(x) for x in arr.diagonal())


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
    def from_edge_list(text):
        """Parse the line-oriented `u v` edge-list format (0-indexed)."""
        pairs = []
        top = -1
        for ln in text.splitlines():
            ln = ln.strip()
            if not ln or ln.startswith("#"):
                continue
            a, b = ln.split()
            u, v = int(a), int(b)
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


def complete_graph(n):
    return Graph.from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def cycle_graph(n):
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def complete_bipartite(a, b):
    return Graph.from_edges(a + b, [(i, a + j) for i in range(a) for j in range(b)])


def petersen_graph():
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return Graph.from_edges(10, outer + spokes + inner)


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
    n = len(b_rows)
    if n == 0:
        inv = Poly.one()
    else:
        inv = det_poly_matrix(
            [
                [Poly([1 if i == j else 0, -b_rows[i][j]]) for j in range(n)]
                for i in range(n)
            ]
        )
    return _zeta_report(inv, traces(b_rows, order), order)


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
    # the exponential of the trace series must reproduce the expansion
    log_coeffs = [Fraction(0)] + [Fraction(counts[k - 1], k) for k in range(1, order + 1)]
    if not (_series_exp(log_coeffs, order) == series):
        raise ZetaError("trace series disagrees with the determinant expansion")
    return ZetaReport(zeta, inv, series, counts, prim)


def ihara_zeta(graph, order=16):
    """Ihara zeta of a finite graph, via the non-backtracking operator."""
    return _operator_zeta(hashimoto_matrix(graph), order)


def traces(rows, order):
    """tr(B^n) for n = 1..order, exact (int64 only where it cannot wrap)."""
    if not rows:
        return [0] * order
    b = _np_int(rows)
    out = []
    cur = b
    for n in range(order):
        out.append(_trace(cur))
        if n + 1 < order:
            cur = _matmul_sum([(cur, b)])
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


class TorusRepresentation(Representation):
    """Permutation representation of the group algebra on the chambers of
    the torus quotient; matrices materialize lazily from permutations."""

    def __init__(self, quotient):
        self.quotient = quotient
        system = quotient.system
        n = len(quotient.chambers)
        gen_perms = quotient.generator_permutations
        mats = tuple(_perm_matrix(p) for p in gen_perms)
        super().__init__(system, mats, 1, "rational")
        self._perm_cache = {cox.mat_identity(system.num_generators): tuple(range(n))}

    def perm(self, table, element):
        key = element.key if hasattr(element, "key") else element
        cached = self._perm_cache.get(key)
        if cached is not None:
            return cached
        el = table.element(key)
        cur = table.identity.key
        for s in el.word:
            nxt = table.right_multiply_key(cur, s)
            if nxt not in self._perm_cache:
                prev = self._perm_cache[cur]
                gp = self.quotient.generator_permutations[s]
                self._perm_cache[nxt] = tuple(gp[c] for c in prev)
            cur = nxt
        return self._perm_cache[key]

    def image(self, table, element):
        key = element.key if hasattr(element, "key") else element
        cached = self._cache.get(key)
        if cached is None:
            cached = _perm_matrix(self.perm(table, element))
            self._cache[key] = cached
        return cached

    # exact permutation routes for the identity verifiers --------------------

    def finite_det_hook(self, table, elements):
        return self.quotient.block_det([(self.perm(table, el), el.length, el.key) for el in elements])

    def cyclic_det_hook(self, table, element):
        perm = self.perm(table, element)
        return _perm_char_poly(perm, element.length)

    def det_series_hook(self, table, order):
        """Trace-log determinant of the truncated twisted group sum,
        through the exact integer fast path."""
        n = len(self.quotient.chambers)
        coeffs = [np.zeros((n, n), dtype=np.int64) for _ in range(order + 1)]
        for d in range(order + 1):
            for el in table.layers[d]:
                p = self.perm(table, el)
                coeffs[d][np.arange(n), np.array(p, dtype=np.int64)] += 1
        return _det_series_int(coeffs, order)


def _perm_matrix(perm):
    n = len(perm)
    return Matrix(tuple(tuple(1 if perm[i] == j else 0 for j in range(n)) for i in range(n)))


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


def _perm_char_poly(perm, shift_power):
    """det(I - P u^s) for a permutation: product of 1 - u^(s*len) over cycles."""
    out = Poly.one()
    for ln in _perm_cycles(perm):
        d = ln * shift_power
        out = out * Poly((1,) + (0,) * (d - 1) + (-1,))
    return out


def _det_series_int(coeff_arrays, order):
    """det of an integer matrix power series with identity constant term,
    as exp of the trace of log, with exact integer traces."""
    n = coeff_arrays[0].shape[0]
    if not np.array_equal(coeff_arrays[0], np.eye(n, dtype=np.int64)):
        raise ZetaError("det series fast path needs identity constant term")
    zero = np.zeros((n, n), dtype=np.int64)
    nil = [zero] + list(coeff_arrays[1:order + 1])
    tr_log = [Fraction(0)] * (order + 1)
    power = [np.eye(n, dtype=np.int64)] + [zero] * order
    for j in range(1, order + 1):
        nxt = [zero]
        for d in range(1, order + 1):
            pairs = [(power[a], nil[d - a]) for a in range(d) if power[a].any() and nil[d - a].any()]
            nxt.append(_matmul_sum(pairs) if pairs else zero)
        power = nxt
        sign = 1 if j % 2 == 1 else -1
        for d in range(j, order + 1):
            tr_log[d] += Fraction(sign * _trace(power[d]), j)
    return _series_exp(tr_log, order)


class TorusQuotient:
    """Chamber complex of the rank-2 apartment modulo translations by k
    times the translation lattice, with the right-multiplication action.

    Chambers are labelled by (finite Weyl group part, translation part
    mod k); there are exactly |W0| * k^2 of them.
    """

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
        self._delta = system.delta
        self._setup_lattice()
        self._setup_weyl_section()
        self._enumerate_chambers()
        self._build_generator_permutations()
        self.representation = TorusRepresentation(self)

    # -- construction --------------------------------------------------------

    def _shear_coords(self, key):
        """For a translation element, the linear functional it shears by,
        as integer coordinates against the null-root direction."""
        n = self.system.num_generators
        delta = self._delta
        r = next(i for i in range(n) if delta[i] != 0)
        out = []
        for col in range(n):
            num = key[r][col] - (1 if r == col else 0)
            if num % delta[r] != 0:
                return None
            t = num // delta[r]
            for a in range(n):
                if key[a][col] - (1 if a == col else 0) != t * delta[a]:
                    return None
            out.append(t)
        return tuple(out)

    def _setup_lattice(self):
        """Basis of the translation lattice, found by scanning the table."""
        vecs = []
        for el in self.table.index.values():
            if el.length == 0:
                continue
            tau = self._shear_coords(el.key)
            if tau is not None:
                vecs.append(tau)
        basis = _lattice_basis_rank2(vecs)
        if basis is None:
            raise ZetaError("table bound too small to see the translation lattice")
        self._basis = basis
        # choose two coordinate positions where the basis is invertible
        b1, b2 = basis
        for c1 in range(3):
            for c2 in range(c1 + 1, 3):
                det = b1[c1] * b2[c2] - b1[c2] * b2[c1]
                if det != 0:
                    self._proj = (c1, c2, det)
                    return
        raise ZetaError("degenerate translation lattice basis")

    def _lattice_coords(self, tau):
        c1, c2, det = self._proj
        b1, b2 = self._basis
        x = tau[c1] * b2[c2] - tau[c2] * b2[c1]
        y = b1[c1] * tau[c2] - b1[c2] * tau[c1]
        if x % det or y % det:
            raise ZetaError("translation outside the detected lattice")
        x //= det
        y //= det
        # consistency on the remaining coordinate
        for c in range(3):
            if x * b1[c] + y * b2[c] != tau[c]:
                raise ZetaError("translation outside the detected lattice")
        return x, y

    def _linear_part(self, key):
        """Action on the weight plane (the quotient by the null direction),
        as a 2x2 integer matrix."""
        delta = self._delta
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
        w0 = self.table.parabolic_elements((0, 1))
        self.weyl_order = len(w0)
        self._section = [el.key for el in w0]
        self._section_inv = [cox.mat_inv(k) for k in self._section]
        self._linear_index = {}
        for idx, key in enumerate(self._section):
            lp = self._linear_part(key)
            if lp in self._linear_index:
                raise ZetaError("finite Weyl section is not faithful")
            self._linear_index[lp] = idx

    def label(self, key):
        """Chamber label (finite part index, translation residue) of the
        coset of the element with this matrix."""
        j = self._linear_index[self._linear_part(key)]
        t_key = cox.mat_mul(key, self._section_inv[j])
        tau = self._shear_coords(t_key)
        if tau is None:
            raise ZetaError("linear-part decomposition failed")
        x, y = self._lattice_coords(tau)
        return (j, x % self.k, y % self.k)

    def _enumerate_chambers(self):
        start = self.table.identity.key
        labels = {self.label(start): 0}
        reps = [start]
        frontier = [start]
        while frontier:
            nxt = []
            for key in frontier:
                for i in range(self.system.num_generators):
                    nk = self.table.right_multiply_key(key, i)
                    lb = self.label(nk)
                    if lb not in labels:
                        labels[lb] = len(reps)
                        reps.append(nk)
                        nxt.append(nk)
            frontier = nxt
        if len(reps) != self.weyl_order * self.k * self.k:
            raise ZetaError(
                "chamber count %d disagrees with |W0| k^2 = %d"
                % (len(reps), self.weyl_order * self.k * self.k))
        self.chambers = reps
        self._label_index = labels

    def _build_generator_permutations(self):
        perms = []
        for i in range(self.system.num_generators):
            perm = []
            for key in self.chambers:
                perm.append(self._label_index[self.label(self.table.right_multiply_key(key, i))])
            perm = tuple(perm)
            if any(perm[c] == c for c in range(len(perm))):
                raise ZetaError("panel gluing fixes a chamber; the action is not free")
            perms.append(perm)
        self.generator_permutations = tuple(perms)

    # -- operators -----------------------------------------------------------

    def action_matrix(self, element):
        """Permutation matrix of right multiplication on the chambers."""
        return self.representation.image(self.table, element)

    def chamber_count(self):
        return len(self.chambers)

    # -- exact block determinants ---------------------------------------------

    def block_det(self, perm_len_keys, dual_check_order=4):
        """Exact determinant of sum_w rho(e_w) u^l(w) over a finite element
        set, as a product of per-orbit integer determinants.

        The operator maps the span of each orbit of the chambers under the
        element permutations to itself.  Inside a finite parabolic W_J the
        action is free, so each orbit has at most |W_J| chambers.  Orbits
        are labelled breadth first from their least chamber and their
        blocks are cached by content, so equal blocks cost one determinant.

        Cross-checked against the truncated trace-log determinant."""
        n = len(self.chambers)
        pos = {}  # chamber -> index inside its orbit
        blocks = {}
        for root in range(n):
            if root in pos:
                continue
            # the chambers reached from root by the permutations: its orbit
            pos[root] = 0
            orbit = [root]
            for c in orbit:
                for perm, _length, _key in perm_len_keys:
                    if perm[c] not in pos:
                        pos[perm[c]] = len(orbit)
                        orbit.append(perm[c])
            cells = {}
            for perm, length, _key in perm_len_keys:
                for c in orbit:
                    cell = (pos[c], pos[perm[c]], length)
                    cells[cell] = cells.get(cell, 0) + 1
            content = (len(orbit), tuple(sorted(cells.items())))
            blocks[content] = blocks.get(content, 0) + 1
        det = Poly.one()
        for (size, cells), mult in blocks.items():
            rows = [[Poly.zero()] * size for _ in range(size)]
            for (i, j, length), count in cells:
                rows[i][j] = rows[i][j] + Poly.u(length, count)
            det = det * det_poly_matrix(rows) ** mult
        # independent truncated route
        arrays = [np.zeros((n, n), dtype=np.int64) for _ in range(dual_check_order + 1)]
        for perm, length, _key in perm_len_keys:
            if length <= dual_check_order:
                arrays[length][np.arange(n), np.array(perm, dtype=np.int64)] += 1
        if np.array_equal(arrays[0], np.eye(n, dtype=np.int64)):
            if not (_det_series_int(arrays, dual_check_order) == det.truncate(dual_check_order)):
                raise ZetaError("orbit-block determinant failed the trace-log cross-check")
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


def _lattice_basis_rank2(vectors):
    """Basis of the lattice generated by integer 3-vectors, by unimodular
    row operations (Hermite-style); None unless the rank is exactly 2."""
    rows = [list(v) for v in vectors if any(v)]
    basis = []
    for col in range(3):
        idx = [i for i, r in enumerate(rows) if r[col] != 0]
        if not idx:
            continue
        i0 = idx[0]
        for i in idx[1:]:
            a, b = rows[i0][col], rows[i][col]
            g, x, y = _ext_gcd(a, b)
            combined = [x * p + y * q for p, q in zip(rows[i0], rows[i])]
            cleared = [(a // g) * q - (b // g) * p for p, q in zip(rows[i0], rows[i])]
            rows[i0], rows[i] = combined, cleared
        basis.append(tuple(rows[i0]))
        rows = [r for i, r in enumerate(rows) if i != i0 and any(r)]
    if len(basis) != 2:
        return None
    return basis


# ---------------------------------------------------------------------------
# torus-level operations


def torus_quotient_rep(system, k, table=None):
    """Build the chamber torus at scale k together with its validated
    permutation representation of the group algebra."""
    tq = TorusQuotient(system, k, table)
    _validate_permutation_rep(tq)
    return tq


def _validate_permutation_rep(tq):
    """Quadratic and braid relations for the generator permutations (the
    unit-parameter specializations of the Hecke relations)."""
    system = tq.system
    n = len(tq.chambers)
    ident = tuple(range(n))
    perms = tq.generator_permutations
    for i, p in enumerate(perms):
        if _perm_compose(p, p) != ident:
            raise ZetaError("generator %d is not an involution on chambers" % (i + 1,))
    for i in range(len(perms)):
        for j in range(i + 1, len(perms)):
            m = system.bond(i, j)
            if m == 0:
                continue
            a = _perm_alternating(perms[i], perms[j], m, ident)
            b = _perm_alternating(perms[j], perms[i], m, ident)
            if a != b:
                raise ZetaError("braid relation fails on chambers for (%d, %d)" % (i + 1, j + 1))


def _perm_compose(p, q):
    """Permutation of 'apply p, then q' matching matrix order P_p P_q."""
    return tuple(q[p[i]] for i in range(len(p)))


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
        counts.append(sum(1 for c in range(n) if current[c] == c))
    return counts


def operator_strip_counts(tq, spec, n_max):
    """tr(A_w^n) for the strip operator, through integer matrix powers."""
    el = tq.table.element_of_word(spec.word)
    return traces(tq.action_matrix(el).rows, n_max)


@dataclass
class StripZetaIdentityReport:
    type_tag: str
    k: int
    ok: bool
    det_identity_ok: bool
    zeta_match_ok: bool
    trace_match_ok: bool
    alt_det: RationalFunction
    strip_zetas: list

    def as_json(self):
        return {
            "type": self.type_tag,
            "k": self.k,
            "pass": bool(self.ok),
            "det_identity": bool(self.det_identity_ok),
            "zeta_product_match": bool(self.zeta_match_ok),
            "trace_oracle_match": bool(self.trace_match_ok),
            "alt_det": str(self.alt_det),
        }


def verify_strip_zeta_identity(tq, trace_order=6):
    """The geometric determinant identity on the torus: the alternating
    product of twisted parabolic determinants equals the product of the
    two strip zeta functions evaluated at u^(strip length).

    Also checks that operator traces match the independent geometric
    strip counts up to trace_order."""
    rep = tq.representation
    system = tq.system
    det_report = strips_mod.verify_determinant_identity(system, rep, tq.table)
    specs = strips_mod.strip_generators(system.type_tag)
    zetas = []
    product = RationalFunction(Poly.one())
    trace_ok = True
    for spec in specs:
        el = tq.table.element_of_word(spec.word)
        zr = _perm_zeta(rep.perm(tq.table, el), trace_order * spec.length)
        zetas.append(zr)
        product = product * zr.zeta.substitute_power(spec.length)
        geo = closed_strip_counts(tq, spec, trace_order)
        op = operator_strip_counts(tq, spec, trace_order)
        if geo != op or geo != zr.closed_counts[:trace_order]:
            trace_ok = False
    zeta_ok = product == det_report.alt_det
    ok = det_report.ok and zeta_ok and trace_ok
    return StripZetaIdentityReport(
        system.type_tag, tq.k, ok, det_report.ok, zeta_ok, trace_ok, det_report.alt_det, zetas)
