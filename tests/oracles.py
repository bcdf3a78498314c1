"""Second routes kept as named test oracles for production routes in
weylzeta: each computes the same quantity another way, and a test
compares the two.  The small graphs the Ihara tests share live here
too."""

import math
from collections import Counter
from fractions import Fraction

from weylzeta import coxeter as cox
from weylzeta.coxeter import OutOfTableError
from weylzeta.hecke import (
    FiniteTwistedSeries,
    HeckeElement,
    HeckeError,
    formal_q,
    validate_representation,
)
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
    poincare_parabolic,
    scalar_from_json,
    scalar_one_like,
)
from weylzeta.zeta import Graph, ZetaError, _fixed_points, _zeta_report


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
    zser = [one * 0 for _ in range(order + 1)]
    nil = PowerSeries(
        [ps.coeffs[d] - (c0 if d == 0 else Matrix.identity(n) * 0) for d in range(order + 1)],
        order,
    )
    # trace of log(1 + N) = sum (-1)^(j+1) tr(N^j)/j, N nilpotent mod u
    tr_log = list(zser)
    power = PowerSeries([Matrix.identity(n, one)] + [Matrix.identity(n) * 0] * order, order)
    for j in range(1, order + 1):
        power = power * nil
        sign = 1 if j % 2 == 1 else -1
        for d in range(j, order + 1):
            trace = sum(row[i] for i, row in enumerate(power.coeffs[d].rows))
            tr_log[d] = tr_log[d] + Fraction(sign, j) * _promote_fraction(trace)
    return _series_exp(tr_log, order)


def truncation(poly, order):
    """The polynomial to u^order as a PowerSeries, its coefficients as
    they are and int zeros past its degree."""
    cs = poly.coeffs[: order + 1]
    return PowerSeries(cs + (0,) * (order + 1 - len(cs)), order)


def evaluate(poly, value):
    """The polynomial at a scalar value of its variable, by Horner's rule."""
    out = 0
    for c in reversed(poly.coeffs):
        out = out * value + c
    return out


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
        acc = out[0] * 0
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


def dense_product(x, y):
    """The product of two polynomials of one class by the nested loop over
    their coefficients, each pair multiplied and summed as a scalar.
    Oracle for _DensePoly.__mul__, which runs on common-denominator int
    rows."""
    cls = type(x)
    a, b = x.coeffs, y.coeffs
    if not a or not b:
        return cls(())
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca == 0:
            continue
        for j, cb in enumerate(b):
            out[i + j] += ca * cb
    return cls(out)


def expand_recurrence(rf, order):
    """Power series of a RationalFunction to u^order by the recurrence on
    its scalars: out_n = num_n - sum_{k>=1} den_k out_{n-k}, as den(0) = 1,
    each summed onto 1/den(0) * num(0) * 0, the ring inversion gives.
    Oracle for RationalFunction.expand, which runs on int rows."""
    num, den = rf.num.coeffs, rf.den.coeffs
    zero = (den[0] if isinstance(den[0], QPolynomial) else 1) * (num[0] if num else 0) * 0
    terms = [(k, -c) for k, c in enumerate(den[1:order + 1], start=1) if num and c != 0]
    out = []
    for n in range(order + 1):
        start = zero + num[n] if n < len(num) else zero
        out.append(sum([c * out[n - k] for k, c in terms if k <= n], start))
    return PowerSeries(out, order)


def series_product(x, y):
    """Product of two truncated power series by the nested loop over their
    coefficient pairs, Matrix products included.  Oracle for
    PowerSeries.__mul__, which runs on int rows."""
    n = min(x.order, y.order)
    z = x.coeffs[0] * y.coeffs[0] * 0
    out = [z] * (n + 1)
    for i, a in enumerate(x.coeffs[: n + 1]):
        if _is_zero(a):
            continue
        for j in range(0, n + 1 - i):
            b = y.coeffs[j]
            if _is_zero(b):
                continue
            out[i + j] = out[i + j] + a * b
    return PowerSeries(out, n)


def binomial_factors_dense(rf):
    """The (1-u^d)^m exponent map of a RationalFunction, as a sorted list
    of (d, m), or None, by the peel on Poly values: each step multiplies
    by the dense product (1-u^d)^|m|.  Oracle for
    RationalFunction.binomial_factors, which peels on plain lists."""
    def plain(p):
        out = []
        for c in p.coeffs:
            if isinstance(c, QPolynomial):
                if c.degree > 0:
                    return None
                c = c.constant()
            out.append(c)
        return Poly(out)

    def coeff(p, d):
        return p.coeffs[d] if d < len(p.coeffs) else 0

    top, bottom = plain(rf.num), plain(rf.den)
    if top is None or bottom is None or top.constant() != 1:
        return None
    bound = top.degree + bottom.degree
    factors = []
    d = 1
    while top != bottom:
        while coeff(top, d) == coeff(bottom, d):
            d += 1
        c = coeff(top, d) - coeff(bottom, d)
        if Fraction(c).denominator != 1 or abs(c) > bound or d > 2 * bound * bound:
            return None
        m = -int(c)
        if m > 0:
            bottom = (1 - Poly.u(d)) ** m * bottom
        else:
            top = (1 - Poly.u(d)) ** -m * top
        factors.append((d, m))
    return factors


def rational_sum(terms):
    """The sum of RationalFunctions over the product of their
    denominators, not reduced; RationalFunction has no addition."""
    num, den = Poly(), Poly.one()
    for rf in terms:
        num, den = num * rf.den + rf.num * den, den * rf.den
    return RationalFunction(num, den)


def poincare_affine_alternating_sum(system, table):
    """W(u) of an affine system from the alternating sum over the proper
    parabolics (Humphreys, Ch. 1 and 5): 1/W(u) is the sum over proper
    J of (-1)^(k - |J| - 1) / W_J(u).  Oracle for series.poincare_affine,
    which reads W(u) off W0's degrees by Bott's formula."""
    k = system.num_generators
    return rational_sum(
        RationalFunction(Poly(((-1) ** (len(subset) + k + 1),)), poincare_parabolic(table, subset))
        for subset in cox.all_proper_subsets(k)).inverse()


def alt_product_alternating_sum(system, table):
    """The alternating product of the parabolic Poincare series, each
    proper W_J(u) to the power (-1)^(k - |J|), times the alternating-sum
    W(u), multiplied as RationalFunctions.  Oracle for
    series.alt_product_rational, which multiplies exponent maps."""
    k = system.num_generators
    out = poincare_affine_alternating_sum(system, table)
    for subset in cox.all_proper_subsets(k):
        factor = RationalFunction(poincare_parabolic(table, subset))
        out = out * (factor if (len(subset) + k) % 2 == 0 else factor.inverse())
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
                ws = table.neighbours[s][w.position]
                if ws is None:
                    raise OutOfTableError("Hecke product support escapes the table bound")
                ws_key = table.elements[ws].key
                if table.element(ws_key).length > w.length:
                    new[ws_key] = new.get(ws_key, 0) + c
                else:
                    new[key] = new.get(key, 0) + c * (q - 1)
                    new[ws_key] = new.get(ws_key, 0) + c * q
            state = new
        for k, c in state.items():
            out[k] = out.get(k, 0) + c * c_y
    return HeckeElement(table, out)


def finite_twisted_coeffs(rep, elements):
    """Matrix coefficients by degree of sum rho(e_w) u^l(w) over a finite
    element set, adding one image Matrix at a time.  Oracle for the
    per-degree entrywise sums of hecke.FiniteTwistedSeries."""
    elements = tuple(elements)
    max_len = max(e.length for e in elements)
    dim = rep.dim
    one = scalar_one_like(rep.q)
    coeffs = [Matrix.identity(dim, one) * 0 for _ in range(max_len + 1)]
    for el in elements:
        coeffs[el.length] = coeffs[el.length] + rep.image(el)
    return tuple(coeffs)


def torus_label(tq, matrix, linear_index):
    """Chamber label (W0 index, coordinates of mu mod k) of the element
    w = v t_mu with this matrix, read off the whole matrix: the W0 index
    from its linear part (linear_index maps the section's to their
    indices), phi(mu) from entries 0 and 1 of row 2 written in the
    triangular basis of phi(L)."""
    j = linear_index[tq._linear_part(matrix)]
    (a, b), c = tq._basis
    p, r = divmod(matrix[2][0], a)
    q, r2 = divmod(matrix[2][1] - p * b, c)
    if r or r2:
        raise ZetaError("translation outside the detected lattice")
    return (j, p % tq.k, q % tq.k)


def torus_generator_permutations_by_matrices(tq):
    """Generator permutations of the torus by a breadth-first search on
    whole 3x3 matrices, each neighbour matrix * s_i built by the matrix
    kernel and labelled by `torus_label`.  Oracle for
    zeta.TorusQuotient._enumerate_chambers, which numbers the same search
    from two small tables, a W0 index table and one translation table on
    the k^2 classes of L/kL per generator, and never builds a matrix."""
    section = tq.table.parabolic_elements((0, 1))
    linear_index = {tq._linear_part(tq.system.word_matrix(el.word)): j for j, el in enumerate(section)}
    start = tq.system.word_matrix(())
    labels = {torus_label(tq, start, linear_index): 0}
    reps = [start]
    gens = range(tq.system.num_generators)
    links = [[] for _ in gens]
    for matrix in reps:
        for i in gens:
            nk = tq.system.right_reflect(matrix, i)
            lb = torus_label(tq, nk, linear_index)
            c = labels.get(lb)
            if c is None:
                c = labels[lb] = len(reps)
                reps.append(nk)
            links[i].append(c)
    return tuple(tuple(p) for p in links)


def closed_strip_counts_by_chambers(tq, spec, n_max):
    """Closed pointed strip counts by walking all n chambers: the strip
    word's generator permutations n times around, counting the chambers
    that come back to themselves.  Oracle for zeta.closed_strip_counts,
    which walks the two factor tables (W0 and L/kL) in place of the
    chambers and so does not see the breadth-first numbering."""
    counts = []
    current = list(range(len(tq.chambers)))
    for _ in range(n_max):
        for s in spec.word:
            gp = tq.generator_permutations[s]
            current = [gp[c] for c in current]
        counts.append(_fixed_points(current))
    return counts


def counted_strip_traces(tq, spec, n_max):
    """tr(A_w^m) for m = 1..n_max, counted: the power's compact pair (g, f)
    fixes (j, x) exactly when R_g fixes j and f fixes x mod k, so the trace
    is fix(R_g) on the Cayley table times the classes f fixes, counted over
    the k^2 classes.  Oracle for zeta.operator_strip_counts, which reads
    the classes off determinantal divisors."""
    k = tq.k
    pair = power = tq.perm(tq.table.element_of_word(spec.word))
    counts = []
    for _ in range(n_max):
        fixed = _fixed_points(tq._w0_mul[power[0]])
        a, b, c, d, e, h = power[1]
        counts.append(fixed and fixed * sum(1 for p in range(k) for q in range(k)
                                            if not (a * p + b * q + e - p) % k and not (c * p + d * q + h - q) % k))
        power = tq._then(power, pair)
    return counts


def _perm_compose(p, q):
    """Permutation of 'apply p, then q' matching matrix order P_p P_q."""
    return tuple([q[c] for c in p])


def label_permutation(tq, el):
    """The permutation of the chamber labels j k^2 + p k + q of e_w,
    expanded from the compact pair (g, f) that zeta.TorusQuotient.perm
    returns: (j, x) goes to (R_g[j], f(x) mod k), R_g the column g of the
    quotient's W0 Cayley table.  Every test that reads a chamber
    permutation of the torus reads it here."""
    g, (a, b, c, d, e, h) = tq.perm(el)
    k = tq.k
    return tuple((r * k + (a * p + b * q + e) % k) * k + (c * p + d * q + h) % k
                 for r in tq._w0_mul[g] for p in range(k) for q in range(k))


def label_permutation_by_factor_tables(tq, word):
    """The permutation of the chamber labels of the word's element, by
    composing the generators' factor tables (R_i, T_i) letter by letter:
    the label j k^2 + t goes to R_w[j] k^2 + T_w[t].  Oracle for the
    compact pairs of zeta.TorusQuotient.perm."""
    right, classes = tuple(range(tq.weyl_order)), tuple(range(tq.k * tq.k))
    for s in word:
        r_s, t_s = tq.factor_permutations[s]
        right, classes = _perm_compose(right, r_s), _perm_compose(classes, t_s)
    size = len(classes)
    return tuple(r * size + t for r in right for t in classes)


def closed_strip_counts_by_factor_walk(tq, spec, n_max):
    """Closed pointed strip counts by walking the W0 indices and the k^2
    classes of L/kL through the strip word's factor tables n times around,
    letter by letter: a chamber comes back to itself exactly when both of
    its parts do, so the count is the product of the two fixed-point
    counts.  Oracle for the closed form of zeta.closed_strip_counts."""
    counts = []
    parts = [list(range(len(f))) for f in tq.factor_permutations[0]]
    for _ in range(n_max):
        for s in spec.word:
            parts = [[f[c] for c in part] for f, part in zip(tq.factor_permutations[s], parts)]
        counts.append(_fixed_points(parts[0]) * _fixed_points(parts[1]))
    return counts


def order_by_factor_walk(tq, word):
    """The least o >= 1 with w^o fixing label 0, by walking the label
    through the factor tables letter by letter.  Oracle for the closed
    form e k / gcd(k, v_e) of zeta.TorusQuotient.order."""
    j, t, o = 0, 0, 0
    while not o or j or t:
        for s in word:
            right, classes = tq.factor_permutations[s]
            j, t = right[j], classes[t]
        o += 1
    return o


def mat_identity(n):
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def column_sums(matrix):
    """The key of the element with this matrix: (w^-1 f)(alpha_j) for the
    form f that is 1 on every simple root."""
    return tuple(map(sum, zip(*matrix)))


def mat_mul(a, b):
    """Integer matrix product of tuples of tuples.  Oracle for the
    reflection kernels of coxeter and for its keys, through column_sums."""
    bt = tuple(zip(*b))
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a)


def generator_matrix(system, i):
    """Reflection s_i acting on simple-root coordinates (column vectors),
    from the Cartan matrix.  Oracle for the rank-one reflection kernels
    of coxeter.CoxeterSystem."""
    k = system.num_generators
    return tuple(
        tuple((1 if a == b else 0) - (system.cartan[i][b] if a == i else 0) for b in range(k))
        for a in range(k)
    )


def character_value(ch, i, q):
    """The character's value q or -1 at generator i, in q's own ring."""
    return scalar_one_like(q) * q if ch.signs[i] else -scalar_one_like(q)


def dense_character(ch, q=None):
    """A character as validated 1x1 matrix images of the generators, the
    dense Representation that walks one image per element and sums them.
    Oracle for hecke.CharacterRepresentation, which reads letter-class
    counts instead."""
    q = formal_q() if q is None else q
    return validate_representation(
        ch.system, [Matrix(((character_value(ch, i, q),),)) for i in range(ch.system.num_generators)], q)


def character_word_value(ch, word, q):
    """Value of a one-dimensional character on the product of the
    generators along a word.  Oracle for the walked character images."""
    out = scalar_one_like(q)
    for i in word:
        out = out * character_value(ch, i, q)
    return out


def series_from_json(obj):
    """The (RationalFunction, PowerSeries) pair that series.series_to_json
    wrote, read back through series.scalar_from_json."""
    rf = RationalFunction(
        Poly([scalar_from_json(v) for v in obj["num"]]),
        Poly([scalar_from_json(v) for v in obj["den"]]),
    )
    ps = PowerSeries([scalar_from_json(v) for v in obj["coeffs"]], obj["order"])
    return rf, ps


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


# the cycle-type oracle: on the torus every cycle of P(w) has length
# zeta.TorusQuotient.order(w), so these give what the walked orders do


def _perm_zeta(perm, order):
    """Z(u) = det(I - P u)^{-1} of a permutation operator from its cycle
    type: the inverse is prod (1 - u^len) and tr P^m = sum of the cycle
    lengths dividing m."""
    cycles = _perm_cycles(perm)
    counts = [sum(ln for ln in cycles if m % ln == 0) for m in range(1, order + 1)]
    return _zeta_report(_perm_char_poly(perm, 1), counts, order)


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


def exponent_map_of_poly(poly, mult=1):
    """poly ** mult by the exponent map of the exact peel, the form
    `TorusQuotient.block_det` returns; a poly that is no product of
    (1-u^d) factors raises SeriesError.  Reads the dense block oracles."""
    factors = RationalFunction(poly).binomial_factors()
    if factors is None:
        raise SeriesError("not a product of (1-u^d) factors: %s" % (poly,))
    return ExponentMap({d: m * mult for d, m in factors})


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
    that does not peel raises SeriesError."""
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
        rows = [[Poly()] * size for _ in range(size)]
        for (i, j, length), count in cells:
            rows[i][j] = rows[i][j] + Poly.u(length, count)
        det = det * exponent_map_of_poly(det_poly_matrix(rows), mult)
    return det


def full_resolvent_power_sums(pair_lengths, n, order):
    """The power sums p_1, ..., p_order of det(I + N) by the full
    resolvent pass: y_d = d sum_(P of length d) e_P(0) - sum_(l<d) y_(d-l) N_l
    pushed over every label for every degree d <= order, p_d = n (y_d)_0.
    Oracle for zeta._one_vector_power_sums, which reads the last degree
    from label 0 alone through the labels P^-1(0)."""
    by_length = [[] for _ in range(order + 1)]
    for pair, length in pair_lengths:
        if length <= order:
            by_length[length].append(pair)
    k = math.isqrt(n // len(pair_lengths[0][0][0])) if pair_lengths else 1
    size = k * k
    ys, power_sums = [None], []
    for d in range(1, order + 1):
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
    return power_sums


def twisted_series(table, descriptor, rep):
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
        return CyclicTwistedSeries(rep, descriptor[1])
    elif kind == "elements":
        elements = list(descriptor[1])
    else:
        raise HeckeError("unknown subset descriptor %r" % (kind,))
    return FiniteTwistedSeries(rep, elements)


class CyclicTwistedSeries:
    """(I - rho(e_w) u^l)^-1 for the powers of one straight generator w:
    `truncate` is the representation's cyclic_series, and
    cyclic_entry_rational reads its entries in closed form."""

    def __init__(self, rep, element):
        self.rep, self.element, self.a, self.length = rep, element, rep.image(element), element.length

    def truncate(self, order):
        return self.rep.cyclic_series(self.element, order)


def cyclic_entry_rational(cyc, i, j):
    """Entry (i, j) of the inverse of a CyclicTwistedSeries, as an exact
    rational function."""
    det = char_matrix_det(cyc.a, cyc.length)
    n = cyc.a.nrows
    one = scalar_one_like(cyc.rep.q)
    # adj(I - A t) = sum_m (sum_{k<=m} det_k A^{m-k}) t^m, deg < n in t
    det_t = [det.coeffs[d * cyc.length] for d in range(det.degree // cyc.length + 1)]
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
