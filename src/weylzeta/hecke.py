"""Hecke algebra of a Coxeter system: basis arithmetic over exact
q-polynomials, one-dimensional characters, validated matrix
representations, and twisted Poincare series of element subsets.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction

from .coxeter import OutOfTableError, mat_identity
from .series import (
    Matrix,
    Poly,
    PowerSeries,
    QPolynomial,
    RationalFunction,
    char_matrix_det,
    det_poly_matrix,
    det_series,
    scalar_one_like,
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
        self.terms = {k: c for k, c in terms.items() if not _coeff_is_zero(c)}

    def support(self):
        return [self.table.element(k) for k in self.terms]

    def coeff(self, element):
        key = element.key if hasattr(element, "key") else element
        return self.terms.get(key, 0)

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

    def scale(self, c):
        return HeckeElement(self.table, {k: v * c for k, v in self.terms.items()})

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


def _coeff_is_zero(c):
    return c == 0


def basis_element(table, element, q=None):
    return HeckeElement(table, {element.key: QPolynomial.one() if q is None else scalar_one_like(q)})


def hecke_mul(table, x, y, q=None):
    """Product in the Hecke algebra, by right-multiplication recursion
    along a reduced word of each basis element of y."""
    if q is None:
        q = formal_q()
    out = {}
    for key_y, c_y in y.terms.items():
        v = table.element(key_y)
        state = dict(x.terms)
        for s in v.word:
            state = _mul_by_generator(table, state, s, q)
        for k, c in state.items():
            t = c * c_y
            out[k] = out[k] + t if k in out else t
    return HeckeElement(table, out)


def _mul_by_generator(table, state, s, q):
    new = {}
    qm1 = q - 1
    for key, c in state.items():
        w = table.element(key)
        ws_key = table.right_multiply_key(key, s)
        try:
            ws = table.element(ws_key)
        except OutOfTableError:
            raise OutOfTableError(
                "Hecke product support escapes the table bound %d" % table.bound
            ) from None
        if ws.length > w.length:
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

    def is_trivial_q(self):
        return all(self.signs)

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


class Representation:
    """Validated matrix images of the generators over exact scalars."""

    def __init__(self, system, gen_images, q, scalar_kind):
        self.system = system
        self.gen_images = tuple(gen_images)
        self.q = q
        self.scalar_kind = scalar_kind
        self.dim = gen_images[0].nrows
        self._cache = {mat_identity(system.num_generators): Matrix.identity(self.dim, self._one())}

    def _one(self):
        return scalar_one_like(self.q)

    def image(self, table, element):
        """Image of a basis vector e_w, built along the stored reduced word."""
        key = element.key if hasattr(element, "key") else element
        cached = self._cache.get(key)
        if cached is not None:
            return cached
        el = table.element(key)
        cur = table.identity.key
        # walk the stored reduced word, reusing cached prefixes
        for s in el.word:
            nxt = table.right_multiply_key(cur, s)
            if nxt not in self._cache:
                self._cache[nxt] = self._cache[cur] * self.gen_images[s]
            cur = nxt
        return self._cache[key]

    # exact determinant routes used by the identity verifiers; dense here,
    # overridden by representations with a faster exact route

    def finite_det_hook(self, table, elements):
        """det of sum rho(e_w) u^l(w) over a finite element set."""
        return FiniteTwistedSeries(self, elements, table).det()

    def cyclic_det_hook(self, table, element):
        """det(I - rho(e_w) u^l(w)) as an exact polynomial."""
        return char_matrix_det(self.image(table, element), element.length)

    def det_series_hook(self, table, order):
        """Trace-log determinant of the truncated twisted group sum."""
        return det_series(twisted_group_sum(self, table, order))

    def __repr__(self):
        return "Representation(dim=%d, q=%s, scalar=%s)" % (self.dim, self.q, self.scalar_kind)


def validate_representation(system, matrices, q=None, report_only=False,
                            table=None, cache_depth=6):
    """Check the quadratic and braid relations exactly; return the
    Representation on success, raise ValidationError otherwise.

    When a table is supplied the image cache is built eagerly up to
    cache_depth and path independence is checked on that sample (every
    length-additive extension by a generator)."""
    q = formal_q() if q is None else q
    matrices = tuple(m if isinstance(m, Matrix) else Matrix(m) for m in matrices)
    k = system.num_generators
    failures = []
    if len(matrices) != k:
        failures.append({"relation": "arity", "detail": "expected %d generator images" % k})
        raise ValidationError({"ok": False, "failures": failures})
    dim = matrices[0].nrows
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
        report = {"ok": False, "failures": failures}
        if report_only:
            return report
        raise ValidationError(report)
    scalar_kind = "q-poly" if isinstance(q, QPolynomial) and q.degree >= 1 else "rational"
    rep = Representation(system, matrices, q, scalar_kind)
    if table is not None and not check_word_products(rep, table, max_length=cache_depth):
        failures.append({"relation": "path-independence",
                         "detail": "image of some reduced word depends on the path"})
        report = {"ok": False, "failures": failures}
        if report_only:
            return report
        raise ValidationError(report)
    if report_only:
        return {"ok": True, "dim": dim, "scalar": scalar_kind}
    return rep


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
            for s in range(table.system.num_generators):
                key = table.right_multiply_key(el.key, s)
                if key not in table.index:
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
    """Sum of rho(e_w) u^l(w) over a finite element set: a matrix polynomial."""

    def __init__(self, rep, elements, table):
        self.rep = rep
        self.elements = tuple(elements)
        max_len = max(e.length for e in self.elements)
        dim = rep.dim
        one = scalar_one_like(rep.q)
        coeffs = [Matrix.identity(dim, one) * 0 for _ in range(max_len + 1)]
        for el in self.elements:
            coeffs[el.length] = coeffs[el.length] + rep.image(table, el)
        self.poly = Poly(coeffs)

    def truncate(self, order):
        return self.poly.truncate(order)

    def det(self):
        rows = [
            [Poly([m.rows[i][j] for m in self.poly.coeffs]) for j in range(self.rep.dim)]
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

    def det_inverse(self):
        """det(I - A u^l) as an exact polynomial."""
        return char_matrix_det(self.a, self.length)

    def entry_rational(self, i, j):
        """Entry (i, j) of the inverse, as an exact rational function."""
        det = self.det_inverse()
        n = self.a.nrows
        one = scalar_one_like(self.rep.q)
        # adj(I - A t) = sum_m (sum_{k<=m} det_k A^{m-k}) t^m, deg < n in t
        det_t = [det.coeff(d * self.length) for d in range(det.degree // self.length + 1)]
        powers = [Matrix.identity(n, one)]
        for _ in range(n - 1):
            powers.append(powers[-1] * self.a)
        num_coeffs = []
        for m in range(n):
            acc = powers[0] * 0
            for k in range(m + 1):
                if k < len(det_t):
                    acc = acc + powers[m - k] * det_t[k]
            num_coeffs.append(acc.rows[i][j])
        num = Poly(
            [
                num_coeffs[d // self.length] if d % self.length == 0 and d // self.length < n else 0
                for d in range((n - 1) * self.length + 1)
            ]
        )
        return RationalFunction(num, det)


def twisted_series(table, descriptor, rep, order=None):
    """Twisted Poincare series of an element subset.

    descriptor: ("parabolic", gens) | ("coset", J, I, side) |
    ("cyclic", element) | ("elements", iterable) — the cyclic case returns
    the exact closed form, everything else an exact matrix polynomial.
    """
    from . import coxeter as cox

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


# ---------------------------------------------------------------------------
# JSON ingestion


def _scalar_from_json(v, scalar):
    if scalar == "rational":
        if isinstance(v, int):
            return v
        if isinstance(v, list) and len(v) == 2:
            f = Fraction(v[0], v[1])
            return f.numerator if f.denominator == 1 else f
        raise HeckeError("bad rational entry %r" % (v,))
    if scalar == "q-poly":
        if isinstance(v, int):
            return QPolynomial((v,))
        if isinstance(v, list):
            coeffs = []
            for c in v:
                if isinstance(c, int):
                    coeffs.append(c)
                elif isinstance(c, list) and len(c) == 2:
                    f = Fraction(c[0], c[1])
                    coeffs.append(f.numerator if f.denominator == 1 else f)
                else:
                    raise HeckeError("bad q-poly coefficient %r" % (c,))
            return QPolynomial(coeffs)
    raise HeckeError("unknown scalar kind %r" % (scalar,))


def representation_from_json(system, obj, table=None):
    """Ingest {dim, generators: {s1: [[...]], ...}, scalar, q} and validate."""
    if isinstance(obj, str):
        obj = json.loads(obj)
    scalar = obj.get("scalar", "rational")
    dim = obj["dim"]
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
        if name not in obj["generators"]:
            raise HeckeError("missing generator image %s" % name)
        rows = obj["generators"][name]
        if len(rows) != dim or any(len(r) != dim for r in rows):
            raise HeckeError("generator %s is not %dx%d" % (name, dim, dim))
        mats.append(Matrix([[_scalar_from_json(v, scalar) for v in row] for row in rows]))
    return validate_representation(system, mats, qval, table=table)
