"""Second routes kept as named test oracles for production routes in
weylzeta: each computes the same quantity another way, and a test
compares the two.  The small graphs the Ihara tests share live here
too."""

from fractions import Fraction

from weylzeta import coxeter as cox
from weylzeta.coxeter import OutOfTableError
from weylzeta.hecke import CyclicTwistedSeries, FiniteTwistedSeries, HeckeElement, HeckeError
from weylzeta.rootsys import RootSystemError, positive_roots
from weylzeta.series import (
    ExponentMap,
    Matrix,
    Poly,
    PowerSeries,
    QPolynomial,
    RationalFunction,
    SeriesError,
    _is_zero,
    char_matrix_det,
    det_poly_matrix,
    scalar_one_like,
    scalar_zero_like,
)
from weylzeta.zeta import Graph, ZetaError


def det_series_tracelog(ps, order=None):
    """Determinant of a matrix-valued power series via trace-log expansion:
    det(I + N) = exp tr log(I + N), with tr log(I + N) the sum over j of
    (-1)^(j+1) tr(N^j)/j.  Oracle for series.det_series.

    The constant term must be the identity matrix and the scalars must live
    in characteristic zero (ints/Fractions/QPolynomials all qualify).
    """
    if order is None:
        order = ps.order
    c0 = ps.coeffs[0]
    if not isinstance(c0, Matrix) or not c0.is_identity():
        raise SeriesError("det_series needs identity constant term")
    n = c0.nrows
    one = scalar_one_like(c0.rows[0][0])
    zser = [scalar_zero_like(one) for _ in range(order + 1)]
    nil = PowerSeries(
        [ps.coeffs[d] - (c0 if d == 0 else Matrix.zeros(n)) for d in range(order + 1)],
        order,
    )
    # trace of log(1 + N) = sum (-1)^(j+1) tr(N^j)/j, N nilpotent mod u
    tr_log = list(zser)
    power = PowerSeries([Matrix.identity(n, one)] + [Matrix.zeros(n)] * order, order)
    for j in range(1, order + 1):
        power = power * nil
        sign = 1 if j % 2 == 1 else -1
        for d in range(j, order + 1):
            tr_log[d] = tr_log[d] + Fraction(sign, j) * _promote_fraction(power.coeffs[d].trace())
    return _series_exp(tr_log, order)


def _promote_fraction(x):
    if isinstance(x, int):
        return Fraction(x)
    return x


def _series_exp(coeffs, order):
    """exp of a scalar series with zero constant term, in Fractions: the
    oracle for series.power_sum_exp, whose power sums are k * coeffs[k]."""
    if not _is_zero(coeffs[0]):
        raise SeriesError("series exp needs zero constant term")
    out = [scalar_one_like(coeffs[1] if order >= 1 else 1)]
    if isinstance(out[0], int):
        out[0] = Fraction(1)
    for m in range(1, order + 1):
        acc = scalar_zero_like(out[0])
        for k in range(1, m + 1):
            acc = acc + k * coeffs[k] * out[m - k]
        out.append(acc * Fraction(1, m))
    return PowerSeries(_normalize_fractions(out), order)


def _normalize_fractions(cs):
    out = []
    for c in cs:
        if isinstance(c, Fraction) and c.denominator == 1:
            out.append(c.numerator)
        else:
            out.append(c)
    return out


def hecke_mul_recursion(table, x, y, q=None):
    """Hecke product by the right-multiplication recursion on the
    coefficients themselves, q-polynomials included: T_w T_s is T_ws on an
    ascent and (q - 1) T_w + q T_ws on a descent.  Oracle for the packed
    route of hecke.hecke_mul."""
    if q is None:
        q = QPolynomial.q()
    out = {}
    for key_y, c_y in y.terms.items():
        state = dict(x.terms)
        for s in table.element(key_y).word:
            new = {}
            for key, c in state.items():
                w = table.element(key)
                ws_key = w.links[s]
                if ws_key is None:
                    raise OutOfTableError("Hecke product support escapes the table bound")
                if table.element(ws_key).length > w.length:
                    new[ws_key] = new.get(ws_key, 0) + c
                else:
                    new[key] = new.get(key, 0) + c * (q - 1)
                    new[ws_key] = new.get(ws_key, 0) + c * q
            state = new
        for k, c in state.items():
            out[k] = out.get(k, 0) + c * c_y
    return HeckeElement(table, out)


def torus_label(tq, key):
    """Chamber label (W0 index, coordinates of mu mod k) of the element
    w = v t_mu with this matrix, read off the whole key: the W0 index from
    its linear part, phi(mu) from entries 0 and 1 of row 2 written in the
    triangular basis of phi(L)."""
    section = tq.table.parabolic_elements((0, 1))
    linear_index = {tq._linear_part(el.key): j for j, el in enumerate(section)}
    j = linear_index[tq._linear_part(key)]
    (a, b), c = tq._basis
    p, r = divmod(key[2][0], a)
    q, r2 = divmod(key[2][1] - p * b, c)
    if r or r2:
        raise ZetaError("translation outside the detected lattice")
    return (j, p % tq.k, q % tq.k)


def torus_generator_permutations_by_keys(tq):
    """Generator permutations of the torus by a breadth-first search on
    whole 3x3 keys, each neighbour key * s_i built by the table and
    labelled by `torus_label`.  Oracle for the row-2 search of
    zeta.TorusQuotient._enumerate_chambers."""
    start = tq.table.identity.key
    labels = {torus_label(tq, start): 0}
    reps = [start]
    gens = range(tq.system.num_generators)
    links = [[] for _ in gens]
    for key in reps:
        for i in gens:
            nk = tq.table.right_multiply_key(key, i)
            lb = torus_label(tq, nk)
            c = labels.get(lb)
            if c is None:
                c = labels[lb] = len(reps)
                reps.append(nk)
            links[i].append(c)
    return tuple(tuple(p) for p in links)


def mat_mul(a, b):
    """Integer matrix product of tuples of tuples.  Oracle for the
    rank-one reflection kernels and the Cayley-graph walks of coxeter."""
    bt = tuple(zip(*b))
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a)


def product_key(table, k1, k2):
    """Key of k1 * k2 for k2 in the table: k1 walked along k2's stored
    reduced word."""
    return table.walk_key(k1, table.element(k2).word)


def multiply(table, w, v):
    """Product of two table elements with its true length.

    Returns (element, length_additive).  Raises OutOfTableError when the
    product falls outside the table bound."""
    el = table.element(product_key(table, w.key, v.key))
    return el, el.length == w.length + v.length


def orbit_block_det(n, perm_len_keys):
    """Determinant of sum_w P(w) u^l(w) over (permutation, length, key)
    triples on n chambers, as an ExponentMap: the product of per-orbit
    integer determinants.  Oracle for zeta.TorusQuotient.block_det, which
    takes one regular W_J block instead.

    The operator maps the span of each orbit of the chambers under the
    element permutations to itself.  Orbits are labelled breadth first from
    their least chamber and their blocks are counted by content.  Each
    distinct block's determinant is computed once and peeled into its
    exponent map, which enters times the block's multiplicity; a block
    that does not peel stays as a residual (polynomial, multiplicity)
    pair."""
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
    det = ExponentMap()
    for (size, cells), mult in blocks.items():
        rows = [[Poly.zero()] * size for _ in range(size)]
        for (i, j, length), count in cells:
            rows[i][j] = rows[i][j] + Poly.u(length, count)
        det = det * ExponentMap.of_poly(det_poly_matrix(rows), mult)
    return det


def twisted_series(table, descriptor, rep, order=None):
    """Twisted Poincare series of an element subset.

    descriptor: ("parabolic", gens) | ("coset", J, I, side) |
    ("cyclic", element) | ("elements", iterable) — the cyclic case returns
    the exact closed form, everything else an exact matrix polynomial.
    """
    kind = descriptor[0]
    if kind == "parabolic":
        elements = table.parabolic_elements(descriptor[1])
    elif kind == "coset":
        _, J, I, side = descriptor
        elements = cox.min_coset_reps(table, J, I, side)
    elif kind == "cyclic":
        el = descriptor[1]
        return CyclicTwistedSeries(rep, rep.image(table, el), el.length)
    elif kind == "elements":
        elements = list(descriptor[1])
    else:
        raise HeckeError("unknown subset descriptor %r" % (kind,))
    fts = FiniteTwistedSeries(rep, elements, table)
    if order is not None:
        return fts.truncate(order)
    return fts


def cyclic_entry_rational(cyc, i, j):
    """Entry (i, j) of the inverse of a CyclicTwistedSeries, as an exact
    rational function."""
    det = char_matrix_det(cyc.a, cyc.length)
    n = cyc.a.nrows
    one = scalar_one_like(cyc.rep.q)
    # adj(I - A t) = sum_m (sum_{k<=m} det_k A^{m-k}) t^m, deg < n in t
    det_t = [det.coeff(d * cyc.length) for d in range(det.degree // cyc.length + 1)]
    powers = [Matrix.identity(n, one)]
    for _ in range(n - 1):
        powers.append(powers[-1] * cyc.a)
    num_coeffs = []
    for m in range(n):
        acc = powers[0] * 0
        for k in range(m + 1):
            if k < len(det_t):
                acc = acc + powers[m - k] * det_t[k]
        num_coeffs.append(acc.rows[i][j])
    num = Poly(
        [
            num_coeffs[d // cyc.length] if d % cyc.length == 0 and d // cyc.length < n else 0
            for d in range((n - 1) * cyc.length + 1)
        ]
    )
    return RationalFunction(num, det)


def symmetrizers(cartan):
    """Positive rationals d_i with d_i * c_ij symmetric."""
    n = len(cartan)
    d = [None] * n
    d[0] = Fraction(1)
    changed = True
    while changed:
        changed = False
        for i in range(n):
            for j in range(n):
                if i != j and cartan[i][j] != 0 and d[i] is not None and d[j] is None:
                    d[j] = d[i] * Fraction(cartan[i][j], cartan[j][i])
                    changed = True
    if any(v is None for v in d):
        raise RootSystemError("Cartan matrix is not connected")
    return d


def extended_cartan(family, rank):
    """Generalized Cartan matrix of the untwisted affine extension, with
    the affine node last (matching the rank-2 generator numbering)."""
    rs = positive_roots(family, rank)
    cartan = rs.cartan
    n = rank
    d = symmetrizers(cartan)
    # (a, b) = sum_i a_i d_i <b, alpha_i^vee> built from rows of the Cartan matrix
    def form(a, b):
        return sum(
            Fraction(a[i]) * d[i] * sum(cartan[i][j] * b[j] for j in range(n))
            for i in range(n)
        )

    theta = rs.highest_root
    tt = form(theta, theta)
    ext = [[cartan[i][j] for j in range(n)] + [0] for i in range(n)]
    ext.append([0] * (n + 1))
    ext[n][n] = 2
    for j in range(n):
        alpha_j = tuple(1 if t == j else 0 for t in range(n))
        # pairing of alpha_j against the lowest-root coroot and vice versa
        v1 = -2 * form(alpha_j, theta) / tt
        v2 = -sum(cartan[j][i] * theta[i] for i in range(n))
        if v1.denominator != 1:
            raise RootSystemError("non-integral affine pairing")
        ext[n][j] = int(v1)
        ext[j][n] = v2
    return tuple(tuple(r) for r in ext)


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
