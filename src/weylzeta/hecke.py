"""Hecke algebra of a Coxeter system: basis arithmetic over exact
q-polynomials, one-dimensional characters, validated matrix
representations, and twisted Poincare series of element subsets.
"""

import json
from collections import Counter
from functools import lru_cache, reduce
from itertools import compress
from operator import add

from .coxeter import OutOfTableError
from .series import (
    Matrix,
    Poly,
    PowerSeries,
    QPolynomial,
    RationalFunction,
    SeriesError,
    _from_kronecker,
    _int_rows,
    _packed_rows,
    char_matrix_det,
    det_poly_matrix,
    det_series,
    scalar_from_json,
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
    key of the underlying group element.

    A product over Z[q] stays in its Kronecker-packed form: `packed` maps
    each key to the int its coefficient takes at q = 2^width, with no
    coefficient of absolute value reaching 2^(width - 1), and `norm`
    bounds the total coefficient 1-norm.  `terms` unpacks from it through
    series' int rows on first read.  An element built from terms has packed = None."""

    __slots__ = ("table", "_terms", "packed", "width", "norm")

    def __init__(self, table, terms):
        self.table = table
        self._terms = {k: c for k, c in terms.items() if c != 0}
        self.packed = self.width = self.norm = None

    @classmethod
    def _from_packed(cls, table, packed, width, norm):
        element = cls.__new__(cls)
        element.table, element._terms = table, None
        element.packed, element.width, element.norm = packed, width, norm
        return element

    @property
    def terms(self):
        if self._terms is None:  # a nonzero packed value unpacks to a nonzero coefficient
            self._terms = {k: QPolynomial(_from_kronecker(v, self.width, 1, 1, 0)) for k, v in self.packed.items()}
        return self._terms

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
        return self + HeckeElement(self.table, {k: -c for k, c in other.terms.items()})

    def __eq__(self, other):
        """At one width the packed ints fix the coefficients (every digit
        lies in (-2^(width-1), 2^(width-1))), so they are compared as they are."""
        if not isinstance(other, HeckeElement):
            return NotImplemented
        if self.packed is not None and other.packed is not None and self.width == other.width:
            return self.packed == other.packed
        keys = set(self.terms) | set(other.terms)
        return all(self.terms.get(k, 0) == other.terms.get(k, 0) for k in keys)

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __repr__(self):
        """Terms by length, then by word (a key's order is no reading order)."""
        words = {k: self.table.element(k).word for k in self.terms}
        bits = ["(%s)*e[%s]" % (c, ",".join(str(i + 1) for i in words[k]) or "e")
                for k, c in sorted(self.terms.items(), key=lambda kv: (len(words[kv[0]]), words[kv[0]]))]
        return " + ".join(bits) if bits else "0"


def basis_element(table, element, q=None):
    """T_w; at the formal q it is born packed (the constant 1 is 1 at every width)."""
    if q is None:
        return HeckeElement._from_packed(table, {element.key: 1}, _width(1), 1)
    return HeckeElement(table, {element.key: scalar_one_like(q)})


def _width(bound):
    """The least width b = 32 * 2^i with 2^(b-1) > bound, so that chained
    products, and both sides of a comparison, mostly share one width."""
    b = 32
    while bound >> (b - 1):
        b *= 2
    return b


def hecke_mul(table, x, y, q=None):
    """Product in the Hecke algebra, by right-multiplication recursion along a
    reduced word of each basis element of y: T_w T_s is T_ws on an ascent and
    (q - 1) T_w + q T_ws on a descent (key[s] < 0), so with t = c q a descent
    leaves t - c on w and t on ws.

    Over Z[q] (the formal q by default) x and y become series' int rows
    over L_x and L_y, the lcms of their denominators, packed into ints at
    q = 2^b.  A descent step turns a coefficient c into c(q - 1) and cq,
    of 1-norm at most (2|q|_1 + 1)|c|_1, and merging terms only lowers the
    total 1-norm; so x T_y has total 1-norm at most |x|_1 (2|q|_1 + 1)^l(y),
    and no coefficient of L_x L_y x y exceeds its total 1-norm, at most
    B = |L_x x|_1 sum_y |L_y c_y|_1 (2|q|_1 + 1)^l(y) < 2^(b-1).  A packed
    operand brings its stored bound on |x|_1 in place of its terms (for y,
    times (2|q|_1 + 1) to its greatest length), which keeps B a bound.
    The width b comes from `_width`, and an operand packed at b is used as
    it is.  Over Z the product stays packed at b, with norm bound B; with a
    Fraction it unpacks into QPolynomials over Fractions (the int-row type
    rule).  Any other q runs the same loop on the coefficients as given.

    The loop runs on the table's positions and neighbours, y's words from its
    memo; an operand key outside the table raises OutOfTableError, as an escape does."""
    index = table.index
    q_coeffs = (0, 1) if q is None else q.coeffs if isinstance(q, QPolynomial) else None
    grow = 3 if q is None else q_coeffs and 2 * sum(map(abs, q_coeffs)) + 1
    pack = type(grow) is int  # q in Z[q]
    x_terms = x.packed if pack and x.packed is not None else x.terms
    y_terms = y.packed if pack and y.packed is not None else y.terms
    try:
        xs = {index[k].position: c for k, c in x_terms.items()}
        y_lengths = [index[k].length for k in y_terms]
    except KeyError:
        raise OutOfTableError("a Hecke operand has a term outside the table bound %d" % table.bound) from None
    b = 0
    if pack:
        x_rows, x_norm, x_scale, x_kind = (None, x.norm, 1, 0) if x.packed is not None else _int_terms(x, index, 1)
        y_rows, y_norm, y_scale, y_kind = (None, y.norm * grow ** max(y_lengths or [0]), 1, 0) if (
            y.packed is not None) else _int_terms(y, index, grow)
        norm, scale, kind = x_norm * y_norm, x_scale * y_scale, x_kind | y_kind
        b = _width(norm)
        if x.width != b:
            xs = {index[k].position: v for k, v in _packed(x, x_rows, x_kind, b).items()}
        if y.width != b:
            y_terms = _packed(y, y_rows, y_kind, b)
        if q is not None:
            q = _packed_rows([q_coeffs], b, 2)[0]
    shift = b if q_coeffs == (0, 1) else 0  # at the formal q a descent step is a shift
    neighbours, words, elements = table.neighbours, table.words, table.elements
    out = {}
    for k_y, c_y in y_terms.items():
        state = xs
        for s in words[k_y] if k_y in words else walk_word(index[k_y], words, lambda w, s: w + (s,)):
            row = neighbours[s]
            new = {}
            for p, c in state.items():
                ws = row[p]
                if ws is None:
                    raise OutOfTableError("Hecke product support escapes the table bound %d" % table.bound)
                if ws > p:  # an ascent
                    new[ws] = new[ws] + c if ws in new else c
                else:
                    t = c << shift if shift else c * q
                    new[p] = new[p] + t - c if p in new else t - c
                    new[ws] = new[ws] + t if ws in new else t
            state = new
        for p, c in state.items():
            k, t = elements[p].key, c * c_y
            out[k] = out[k] + t if k in out else t
    if not b:
        return HeckeElement(table, out)
    if not kind & 1:  # over Z[q]; a merge can cancel a packed coefficient to 0
        return HeckeElement._from_packed(table, {k: v for k, v in out.items() if v} if 0 in out.values() else out,
                                         b, norm)
    return HeckeElement(table, {k: QPolynomial(_from_kronecker(v, b, 1, scale, 1)) for k, v in out.items() if v})


def _int_terms(element, index, grow):
    """(rows, norm, scale, kind): the coefficients as int rows over scale,
    and norm = sum |row|_1 grow^l(w) over the terms c T_w."""
    terms = element.terms
    rows, _width, scale, kind = _int_rows(list(terms.values()))
    norm = sum(sum(map(abs, row if kind & 2 else (row,))) * grow ** index[k].length for k, row in zip(terms, rows))
    return rows, norm, scale, kind


def _packed(element, rows, kind, b):
    """{key: int at q = 2^b}; rows None reads an element packed at another width."""
    if rows is None:
        rows, _width, _scale, kind = _int_rows(list(element.terms.values()))
    return dict(zip(element.terms, _packed_rows(rows, b, kind)))


# ---------------------------------------------------------------------------
# one-dimensional characters


class Character:
    """Map sending each generator to q or -1, constant on the classes of
    generators joined by odd bond orders (so the braid relations hold)."""

    def __init__(self, system, signs):
        self.system = system
        self.signs = signs  # True where the generator maps to q, False where to -1

    def __eq__(self, other):
        return other.__class__ is self.__class__ and vars(self) == vars(other)

    def __hash__(self):
        return hash(tuple(vars(self).values()))

    def name(self):
        return "".join("q" if s else "-" for s in self.signs)

    def as_representation(self, q=None):
        """Its own representation: a character needs no validation."""
        return CharacterRepresentation(self, formal_q() if q is None else q)


def odd_bond_classes(system):
    """The generators as classes joined by odd bonds (connected components),
    each in increasing order, ordered by their least generator."""
    k = system.num_generators
    label = list(range(k))
    for i in range(k):
        for j in range(i + 1, k):
            if system.bond(i, j) % 2:  # odd, so not 0 (no bond)
                label = [label[i] if a == label[j] else a for a in label]
    return sorted([i for i in range(k) if label[i] == c] for c in set(label))


def characters(system):
    """All one-dimensional characters: sign patterns constant on odd-bond
    classes.  The all-q character comes first."""
    classes = odd_bond_classes(system)
    minus = [[i for b, cls in enumerate(classes) if mask >> b & 1 for i in cls] for mask in range(2 ** len(classes))]
    out = [Character(system, tuple(i not in m for i in range(system.num_generators))) for m in minus]
    out.sort(key=lambda ch: sum(0 if s else 1 << i for i, s in enumerate(ch.signs)))
    return out


@lru_cache(maxsize=256)
def _class_counts(system, elements):
    """How many elements w of the set have each c(w), w's letters in each
    odd-bond class along its breadth-first parents: an odd braid move swaps
    letters of one class and an even one keeps each count, so c(w) is w's alone."""
    classes = odd_bond_classes(system)
    units = [tuple(int(i in cls) for cls in classes) for i in range(system.num_generators)]
    cache = {system.word_key(()): (0,) * len(classes)}
    return tuple(Counter(walk_word(el, cache, lambda c, i: tuple(map(add, c, units[i]))) for el in elements).items())


class CharacterRepresentation:
    """A character with no matrices: chi(e_w) = (-1)^(l(w) - p(w)) q^p(w), p(w)
    w's letters in the q-classes, so a set's twisted series has u^d coefficient
    sum_p A(d, p) (-1)^(d - p) q^p over its A(d, p) elements of length d with p
    (`_class_counts`): a QPolynomial at the formal q, else Horner from q's zero."""

    dim = 1

    def __init__(self, character, q):
        self.system, self.q, self._zero = character.system, q, scalar_one_like(q) * 0
        self._q_classes = [character.signs[cls[0]] for cls in odd_bond_classes(character.system)]
        self._formal = isinstance(q, QPolynomial) and q.coeffs == (0, 1)

    def _coeffs(self, elements):
        """sum chi(e_w) u^l(w) over the set, by degree up to its longest element."""
        counts = _class_counts(self.system, tuple(elements))
        rows = [[0] * (d + 1) for d in range(max(sum(c) for c, _n in counts) + 1)]
        for c, n in counts:
            d, p = sum(c), sum(compress(c, self._q_classes))
            rows[d][p] += -n if (d - p) & 1 else n
        if self._formal:
            return [QPolynomial(row) for row in rows]
        return [reduce(lambda value, a: value * self.q + a, reversed(row), self._zero) for row in rows]

    def finite_series(self, elements, order):
        cs = self._coeffs(elements)[: order + 1]
        return PowerSeries(cs + [self._zero] * (order + 1 - len(cs)), order)

    def cyclic_series(self, element, order):
        return RationalFunction(Poly.one(), 1 - Poly.u(element.length, self._coeffs((element,))[-1])).expand(order)

    def finite_det_factor(self, elements):
        return RationalFunction(Poly(self._coeffs(elements)))

    def cyclic_det_factor(self, element):
        return RationalFunction(char_matrix_det(Matrix(((self._coeffs((element,))[-1],),)), element.length))

    def det_series_hook(self, table, order):  # the group sum is its own 1x1 determinant
        return twisted_group_sum(self, table, order)


# ---------------------------------------------------------------------------
# matrix representations


def walk_word(element, cache, step):
    """Value at e_w of a map cached by element key, built along the
    breadth-first parents of the GroupElement w: each v s_i missing from
    the cache becomes step(cache[v], i), for its parent v and letter i.
    The cache must hold the identity's value."""
    chain = []
    while element.key not in cache:
        chain.append(element)
        element = element.parent
    value = cache[element.key]
    for el in reversed(chain):
        value = cache[el.key] = step(value, el.letter)
    return value


class Representation:
    """Validated matrix images of the generators over exact scalars."""

    def __init__(self, system, gen_images, q):
        self.system = system
        self.gen_images = tuple(gen_images)
        self.q = q
        self.dim = gen_images[0].nrows
        self._cache = {system.word_key(()): Matrix.identity(self.dim, scalar_one_like(q))}

    def image(self, element):
        """Image of a basis vector e_w, built along the stored reduced word."""
        return walk_word(element, self._cache, lambda m, s: m * self.gen_images[s])

    # exact determinant routes used by the identity verifiers, dense here
    # (zeta.TorusQuotient has permutation routes of the same names).  A
    # factor is a value the verifiers multiply, divide and compare: here a
    # RationalFunction.

    def finite_series(self, elements, order):
        """sum rho(e_w) u^l(w) over a finite element set, to u^order."""
        cs = FiniteTwistedSeries(self, elements).coeffs[: order + 1]
        return PowerSeries(cs + (cs[0] * 0,) * (order + 1 - len(cs)), order)

    def cyclic_series(self, element, order):
        """(I - rho(e_w) u^l(w))^-1 to u^order: the powers of rho(e_w) at the multiples of l(w)."""
        a, power = self.image(element), Matrix.identity(self.dim, scalar_one_like(self.q))
        coeffs = [power * 0] * (order + 1)
        for d in range(0, order + 1, element.length):
            coeffs[d], power = power, power * a
        return PowerSeries(coeffs, order)

    def finite_det_factor(self, elements):
        """det of sum rho(e_w) u^l(w) over a finite element set."""
        return RationalFunction(FiniteTwistedSeries(self, elements).det())

    def cyclic_det_factor(self, element):
        """det(I - rho(e_w) u^l(w)), an exact polynomial, as a factor."""
        return RationalFunction(char_matrix_det(self.image(element), element.length))

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
    for t in range(m):
        out = out * (a, b)[t % 2]
    return out


def check_word_products(rep, table, max_length=None):
    """Path-independence property: for every length-additive pair
    (w, s) in the table, rho(e_w) rho(e_s) == rho(e_{ws})."""
    max_length = table.bound if max_length is None else max_length
    for layer in table.layers:
        for el in layer:
            if el.length + 1 > max_length:
                return True
            m, p = rep.image(el), el.position
            for s, row in enumerate(table.neighbours):  # the ascents: ws > p
                ws = row[p]
                if ws is not None and ws > p and not (m * rep.gen_images[s] == rep.image(table.elements[ws])):
                    return False
    return True


# ---------------------------------------------------------------------------
# twisted Poincare series


def twisted_group_sum(rep, table, order):
    """Truncated twisted Poincare series of the whole group, sum of
    rho(e_w) u^l(w) over `table.ball(order)`, by the representation's route."""
    return rep.finite_series(table.ball(order), order)


class FiniteTwistedSeries:
    """Sum of rho(e_w) u^l(w) over a finite element set: a matrix
    polynomial, held as its tuple of matrix coefficients by degree."""

    def __init__(self, rep, elements):
        self.rep = rep
        self.elements = tuple(elements)
        images = [[] for _ in range(max(e.length for e in self.elements) + 1)]
        for el in self.elements:
            images[el.length].append(rep.image(el).rows)
        zero = scalar_one_like(rep.q) * 0
        # one entrywise sum per degree (row i of every image, then entry j)
        self.coeffs = tuple(Matrix.of_rows(
            tuple([tuple([sum(entries, zero) for entries in zip(*rows)]) for rows in zip(*ms)]) if ms
            else ((zero,) * rep.dim,) * rep.dim) for ms in images)

    def det(self):
        cs, dim = self.coeffs, self.rep.dim
        return det_poly_matrix([[Poly([m.rows[i][j] for m in cs]) for j in range(dim)] for i in range(dim)])


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
