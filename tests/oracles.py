"""Second routes kept as named test oracles for production routes in
weylzeta: each computes the same quantity another way, and a test
compares the two."""

from fractions import Fraction

from weylzeta.coxeter import OutOfTableError
from weylzeta.hecke import HeckeElement
from weylzeta.series import (
    Matrix,
    PowerSeries,
    QPolynomial,
    SeriesError,
    _is_zero,
    scalar_one_like,
    scalar_zero_like,
)
from weylzeta.zeta import ZetaError


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
