"""Hecke algebra of a Coxeter system: basis arithmetic over exact
q-polynomials, one-dimensional characters, validated matrix
representations, and twisted Poincare series of element subsets.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

from .coxeter import OutOfTableError, mat_identity
from .series import (
    Matrix,
    Poly,
    PowerSeries,
    QPolynomial,
    RationalFunction,
    SeriesError,
    char_matrix_det,
    det_poly_matrix,
    det_series,
    scalar_from_json,
    scalar_one_like,
    signed_digits,
)


class HeckeError(Exception):
    pass


class ValidationError(HeckeError):
    """Relation failure with a machine-readable report."""

    def __init__(self, report):
        self.report = report
        super().__init__(json.dumps(report, sort_keys=True))


def formal_q():
    return QPolynomial.q()


# ---------------------------------------------------------------------------
# basis elements


class HeckeElement:
    """Finite q-polynomial combination of basis vectors, keyed by the
    matrix of the underlying group element."""

    __slots__ = ("table", "terms")

    def __init__(self, table, terms):
        self.table = table
        self.terms = {k: c for k, c in terms.items() if c != 0}

    def coeff(self, element):
        return self.terms.get(element.key, 0)

    def __add__(self, other):
        if not isinstance(other, HeckeElement):
            return NotImplemented
        out = dict(self.terms)
        for k, c in other.terms.items():
            out[k] = out[k] + c if k in out else c
        return HeckeElement(self.table, out)

    def __sub__(self, other):
        if not isinstance(other, HeckeElement):
            return NotImplemented
        out = dict(self.terms)
        for k, c in other.terms.items():
            out[k] = out[k] - c if k in out else -c
        return HeckeElement(self.table, out)

    def __eq__(self, other):
        if not isinstance(other, HeckeElement):
            return NotImplemented
        keys = set(self.terms) | set(other.terms)
        return all(self.terms.get(k, 0) == other.terms.get(k, 0) for k in keys)

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __repr__(self):
        bits = []
        for k, c in sorted(self.terms.items(), key=lambda kv: (self.table.element(kv[0]).length, kv[0])):
            el = self.table.element(k)
            word = ",".join(str(i + 1) for i in el.word) or "e"
            bits.append("(%s)*e[%s]" % (c, word))
        return " + ".join(bits) if bits else "0"


def basis_element(table, element, q=None):
    return HeckeElement(table, {element.key: QPolynomial.one() if q is None else scalar_one_like(q)})


def hecke_mul(table, x, y, q=None):
    """Product in the Hecke algebra, by right-multiplication recursion along
    a reduced word of each basis element of y.  Over Z[q] (the formal q by
    default) it runs on ints packed at q = 2^b (as in series.det_poly_matrix),
    scaled by the lcm L of the denominators: a descent maps c to c(q-1) + cq,
    so L^2 x y has no coefficient above B = L^2 |x|_1 sum_y |c_y|_1 (2|q|_1 + 1)^l(y) < 2^(b-1)."""
    q = formal_q() if q is None else q
    x_terms, y_terms = x.terms, y.terms
    q_norm = sum(map(abs, q.coeffs)) if isinstance(q, QPolynomial) else None
    if type(q_norm) is int:  # q in Z[q]
        norm = sum([sum(map(abs, QPolynomial.coerce(c).coeffs)) for c in x_terms.values()]) * sum(
            [sum(map(abs, QPolynomial.coerce(c).coeffs)) * (2 * q_norm + 1) ** table.element(k).length
             for k, c in y_terms.items()])
        lcm = 1 if type(norm) is int else math.lcm(*[
            f.denominator for t in (x_terms, y_terms) for c in t.values()
            for f in QPolynomial.coerce(c).coeffs])
        b = int(norm * lcm * lcm).bit_length() + 1
        x_terms, y_terms = ({k: int(QPolynomial.coerce(c).evaluate(1 << b) * lcm) for k, c in t.items()}
                            for t in (x_terms, y_terms))
        q = q.evaluate(1 << b)
    qm1 = q - 1
    out = {}
    for key_y, c_y in y_terms.items():
        v = table.element(key_y)
        state = dict(x_terms)
        for s in v.word:
            state = _mul_by_generator(table, state, s, q, qm1)
        for k, c in state.items():
            t = c * c_y
            out[k] = out[k] + t if k in out else t
    if type(q_norm) is not int:
        return HeckeElement(table, out)
    product = HeckeElement(table, {})  # out holds no zero: skip the filter
    product.terms = {k: QPolynomial(signed_digits(v, b, lcm * lcm)) for k, v in out.items() if v}
    return product


def _mul_by_generator(table, state, s, q, qm1):
    """state * T_s, with qm1 = q - 1 computed once by the caller."""
    new = {}
    index = table.index
    for key, c in state.items():
        w = table.element(key)
        ws_key = w.links[s]
        if ws_key is None:
            raise OutOfTableError("Hecke product support escapes the table bound %d" % table.bound)
        if index[ws_key].length > w.length:
            new[ws_key] = new[ws_key] + c if ws_key in new else c
        else:
            t1 = c * qm1
            new[key] = new[key] + t1 if key in new else t1
            t2 = c * q
            new[ws_key] = new[ws_key] + t2 if ws_key in new else t2
    return new


# ---------------------------------------------------------------------------
# one-dimensional characters


@dataclass(frozen=True)
class Character:
    """Map sending each generator to q or -1, constant on the classes of
    generators joined by odd bond orders (so the braid relations hold)."""

    system: object
    signs: tuple  # True where the generator maps to q, False where to -1

    def value(self, i, q):
        return scalar_one_like(q) * q if self.signs[i] else -scalar_one_like(q)

    def word_value(self, word, q):
        out = scalar_one_like(q)
        for i in word:
            out = out * self.value(i, q)
        return out

    def name(self):
        return "".join("q" if s else "-" for s in self.signs)

    def as_representation(self, q=None):
        q = formal_q() if q is None else q
        mats = tuple(Matrix(((self.value(i, q),),)) for i in range(self.system.num_generators))
        return validate_representation(self.system, mats, q)


def odd_bond_classes(system):
    k = system.num_generators
    parent = list(range(k))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for i in range(k):
        for j in range(i + 1, k):
            m = system.bond(i, j)
            if m != 0 and m % 2 == 1:
                parent[find(i)] = find(j)
    classes = {}
    for i in range(k):
        classes.setdefault(find(i), []).append(i)
    return sorted(classes.values())


def characters(system):
    """All one-dimensional characters: sign patterns constant on odd-bond
    classes.  The all-q character comes first."""
    classes = odd_bond_classes(system)
    k = system.num_generators
    out = []
    for mask in range(2 ** len(classes)):
        signs = [True] * k
        for bit, cls in enumerate(classes):
            if (mask >> bit) & 1:
                for i in cls:
                    signs[i] = False
        out.append(Character(system, tuple(signs)))
    out.sort(key=lambda ch: sum(0 if s else 1 << i for i, s in enumerate(ch.signs)))
    return out


# ---------------------------------------------------------------------------
# matrix representations


def walk_word(table, element, cache, step):
    """Value at e_w of a map cached by element key, built along the stored
    reduced word of the GroupElement w: each prefix v s missing from the
    cache becomes step(cache[v], s).  The cache must hold the identity's
    value."""
    key = element.key
    cached = cache.get(key)
    if cached is not None:
        return cached
    cur = table.identity.key
    for s in element.word:
        nxt = table.right_multiply_key(cur, s)
        if nxt not in cache:
            cache[nxt] = step(cache[cur], s)
        cur = nxt
    return cache[key]


class Representation:
    """Validated matrix images of the generators over exact scalars."""

    def __init__(self, system, gen_images, q):
        self.system = system
        self.gen_images = tuple(gen_images)
        self.q = q
        self.dim = gen_images[0].nrows
        self._cache = {mat_identity(system.num_generators): Matrix.identity(self.dim, scalar_one_like(q))}

    def image(self, table, element):
        """Image of a basis vector e_w, built along the stored reduced word."""
        return walk_word(table, element, self._cache, lambda m, s: m * self.gen_images[s])

    # exact determinant routes used by the identity verifiers, dense here
    # (zeta.TorusQuotient has permutation routes of the same names).  A
    # factor is a value the verifiers multiply, divide and compare: here a
    # RationalFunction.

    def finite_det_factor(self, table, elements):
        """det of sum rho(e_w) u^l(w) over a finite element set."""
        return RationalFunction(FiniteTwistedSeries(self, elements, table).det())

    def cyclic_det_factor(self, table, element):
        """det(I - rho(e_w) u^l(w)), an exact polynomial, as a factor."""
        return RationalFunction(char_matrix_det(self.image(table, element), element.length))

    def det_series_hook(self, table, order):
        """Determinant of the truncated twisted group sum, by unit-pivot
        elimination over the truncated series ring."""
        return det_series(twisted_group_sum(self, table, order))

    def __repr__(self):
        return "Representation(dim=%d, q=%s)" % (self.dim, self.q)


def validate_representation(system, matrices, q=None):
    """Check the quadratic and braid relations exactly; return the
    Representation on success, raise ValidationError otherwise.  They
    present the Hecke algebra, so the image of a reduced word does not
    depend on the word (Matsumoto); `check_word_products` tests that."""
    q = formal_q() if q is None else q
    matrices = tuple(m if isinstance(m, Matrix) else Matrix(m) for m in matrices)
    k = system.num_generators
    failures = []
    if len(matrices) != k:
        failures.append({"relation": "arity", "detail": "expected %d generator images" % k})
        raise ValidationError({"ok": False, "failures": failures})
    dim = matrices[0].nrows
    if dim < 1:
        failures.append({"relation": "shape", "detail": "images must have dimension at least 1"})
    for i, m in enumerate(matrices):
        if m.nrows != dim or m.ncols != dim:
            failures.append({"relation": "shape", "generators": [i + 1],
                             "detail": "images must be square of equal dimension"})
    if failures:
        raise ValidationError({"ok": False, "failures": failures})
    one = scalar_one_like(q)
    ident = Matrix.identity(dim, one)
    for i, m in enumerate(matrices):
        lhs = (m + ident) * (m - ident * q)
        if not lhs.is_zero():
            failures.append({"relation": "quadratic", "generators": [i + 1],
                             "detail": "(e_s + 1)(e_s - q) != 0"})
    for i in range(k):
        for j in range(i + 1, k):
            m_ij = system.bond(i, j)
            if m_ij == 0:
                continue
            a = _alternating_product(matrices[i], matrices[j], m_ij, ident)
            b = _alternating_product(matrices[j], matrices[i], m_ij, ident)
            if not (a == b):
                failures.append({"relation": "braid", "generators": [i + 1, j + 1],
                                 "detail": "alternating products of order %d disagree" % m_ij})
    if failures:
        raise ValidationError({"ok": False, "failures": failures})
    return Representation(system, matrices, q)


def _alternating_product(a, b, m, ident):
    out = ident
    cur = (a, b)
    for t in range(m):
        out = out * cur[t % 2]
    return out


def check_word_products(rep, table, max_length=None):
    """Path-independence property: for every length-additive pair
    (w, s) in the table, rho(e_w) rho(e_s) == rho(e_{ws})."""
    max_length = table.bound if max_length is None else max_length
    for layer in table.layers:
        for el in layer:
            if el.length + 1 > max_length:
                return True
            m = rep.image(table, el)
            for s, key in enumerate(el.links):
                if key is None:
                    continue
                other = table.element(key)
                if other.length != el.length + 1:
                    continue
                if not (m * rep.gen_images[s] == rep.image(table, other)):
                    return False
    return True


# ---------------------------------------------------------------------------
# twisted Poincare series


def twisted_group_sum(rep, table, order):
    """Truncated twisted Poincare series of the whole group,
    sum of rho(e_w) u^l(w) over the table up to the given order."""
    one = scalar_one_like(rep.q)
    coeffs = [Matrix.identity(rep.dim, one) * 0 for _ in range(order + 1)]
    for d in range(order + 1):
        for el in table.layers[d]:
            coeffs[d] = coeffs[d] + rep.image(table, el)
    return PowerSeries(coeffs, order)


class FiniteTwistedSeries:
    """Sum of rho(e_w) u^l(w) over a finite element set: a matrix
    polynomial, held as its tuple of matrix coefficients by degree."""

    def __init__(self, rep, elements, table):
        self.rep = rep
        self.elements = tuple(elements)
        max_len = max(e.length for e in self.elements)
        dim = rep.dim
        one = scalar_one_like(rep.q)
        coeffs = [Matrix.identity(dim, one) * 0 for _ in range(max_len + 1)]
        for el in self.elements:
            coeffs[el.length] = coeffs[el.length] + rep.image(table, el)
        self.coeffs = tuple(coeffs)

    def truncate(self, order):
        cs = self.coeffs[: order + 1]
        return PowerSeries(cs + (Matrix.zeros(self.rep.dim),) * (order + 1 - len(cs)), order)

    def det(self):
        rows = [
            [Poly([m.rows[i][j] for m in self.coeffs]) for j in range(self.rep.dim)]
            for i in range(self.rep.dim)
        ]
        return det_poly_matrix(rows)


class CyclicTwistedSeries:
    """Closed form (I - rho(e_w) u^l)^{-1} for the powers of one straight
    generator; exact, never truncated internally."""

    def __init__(self, rep, a_matrix, length):
        self.rep = rep
        self.a = a_matrix
        self.length = length

    def truncate(self, order):
        dim = self.a.nrows
        one = scalar_one_like(self.rep.q)
        coeffs = [Matrix.identity(dim, one) * 0 for _ in range(order + 1)]
        power = Matrix.identity(dim, one)
        d = 0
        while d <= order:
            coeffs[d] = power
            power = power * self.a
            d += self.length
        return PowerSeries(coeffs, order)


# ---------------------------------------------------------------------------
# JSON ingestion


def _scalar_from_json(v, scalar):
    try:
        if scalar == "rational":
            return scalar_from_json(v)
        if scalar == "q-poly":
            return QPolynomial([scalar_from_json(c) for c in v] if isinstance(v, list)
                               else (scalar_from_json(v),))
    except SeriesError:
        raise HeckeError("bad %s entry %r" % (scalar, v)) from None
    raise HeckeError("unknown scalar kind %r" % (scalar,))


def representation_from_json(system, obj):
    """Ingest {dim, generators: {s1: [[...]], ...}, scalar, q} and validate.

    The shape is checked before any arithmetic: a JSON object whose dim
    is a whole number and whose generators map each name to a list of
    rows.  A bad shape raises HeckeError naming the key."""
    if isinstance(obj, str):
        try:
            obj = json.loads(obj)
        except json.JSONDecodeError as exc:
            raise HeckeError("representation is not JSON: %s" % exc) from None
    if not isinstance(obj, dict):
        raise HeckeError("representation must be a JSON object, not %s" % type(obj).__name__)
    dim = obj.get("dim")
    if type(dim) is not int or dim < 0:
        raise HeckeError("representation key 'dim' must be a whole number, not %r" % (dim,))
    gens = obj.get("generators")
    if not isinstance(gens, dict):
        raise HeckeError("representation key 'generators' must be an object of generator images")
    scalar = obj.get("scalar", "rational")
    q = obj.get("q")
    if q is None:
        qval = formal_q() if scalar == "q-poly" else 1
    else:
        qval = _scalar_from_json(q, "rational")
        if scalar == "q-poly":
            qval = QPolynomial((qval,))
    mats = []
    for i in range(system.num_generators):
        name = "s%d" % (i + 1)
        if name not in gens:
            raise HeckeError("missing generator image %s" % name)
        rows = gens[name]
        if not (isinstance(rows, list) and all(isinstance(r, list) for r in rows)):
            raise HeckeError("generator %s must be a list of rows" % name)
        if len(rows) != dim or any(len(r) != dim for r in rows):
            raise HeckeError("generator %s is not %dx%d" % (name, dim, dim))
        mats.append(Matrix([[_scalar_from_json(v, scalar) for v in row] for row in rows]))
    return validate_representation(system, mats, qval)
