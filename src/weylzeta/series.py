"""Exact coefficient arithmetic: q-polynomials, truncated power series,
rational functions, determinants, and Poincare series of Coxeter groups.

All arithmetic is exact.  Scalars are Python ints, fractions.Fraction, or
QPolynomial (integer/rational coefficients in a formal parameter q).
Nothing here ever touches floating point.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, chain, compress, pairwise, repeat
from operator import add, mul, sub


class SeriesError(Exception):
    pass


def scalar_one_like(x):
    if isinstance(x, Matrix):
        return Matrix.identity(x.nrows)
    return x * 0 + 1


def _is_zero(x):
    if isinstance(x, Matrix):
        return x.is_zero()
    return x == 0


# ---------------------------------------------------------------------------
# dense polynomials over a scalar ring: Z[q], Q[q] and R[u]


def _power(base, n, one):
    """base ** n by square-and-multiply, for n >= 0; one is the unit."""
    if n < 0:
        raise SeriesError("negative power of %s" % type(base).__name__)
    out = one
    while n:
        if n & 1:
            out = out * base
        n >>= 1
        if n:
            base = base * base
    return out


class _DensePoly:
    """Dense polynomial over a commutative ring of scalars.

    Coefficients are stored by degree with trailing zeros pruned, so equal
    polynomials have equal tuples.  A subclass names its variable and the
    types that count as its scalar coefficients.
    """

    __slots__ = ("coeffs",)
    var = None
    scalars = ()

    def __init__(self, coeffs=()):
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @classmethod
    def one(cls):
        return cls((1,))

    @classmethod
    def coerce(cls, x):
        if isinstance(x, cls):
            return x
        if isinstance(x, cls.scalars):
            return cls((x,))
        raise TypeError("cannot coerce %r into a %s-polynomial" % (x, cls.var))

    @property
    def degree(self):
        return len(self.coeffs) - 1

    def is_zero(self):
        return not self.coeffs

    def constant(self):
        return self.coeffs[0] if self.coeffs else 0

    def __add__(self, other):
        try:
            other = self.coerce(other)
        except TypeError:
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = out[i] + c
        return type(self)(_widest(out, a + b))

    __radd__ = __add__

    def __neg__(self):
        return type(self)([-c for c in self.coeffs])

    def __sub__(self, other):
        try:
            other = self.coerce(other)
        except TypeError:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return self.coerce(other) - self

    def __mul__(self, other):
        """The product on common-denominator int rows: one int convolution,
        each coefficient built once; int values are their own rows.  A
        scalar is its constant polynomial, under the same type rule."""
        cls = type(self)
        if not isinstance(other, cls):
            if not isinstance(other, cls.scalars):
                return NotImplemented
            other = cls((other,))
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return cls(())
        if len(b) < len(a):  # the shorter operand runs the outer loop
            a, b = b, a
        out = cls.__new__(cls)  # the leading coefficient a_top b_top is not 0
        if _INT.issuperset(map(type, a + b)):
            out.coeffs = tuple(_convolve(a, b, [0] * (len(a) + len(b) - 1)))
            return out
        flat_a, flat_b, stride, scale, kind = _int_operands(a, b)
        values = _convolve(flat_a, flat_b, [0] * ((len(a) + len(b) - 1) * stride))
        out.coeffs = tuple(_from_int_rows(values, stride, scale, kind))
        return out

    __rmul__ = __mul__

    def __pow__(self, n):
        """By the type rule, p ** 0 is 1 in the kind of p's coefficients."""
        return _power(self, n, self.one()) if n else type(self)(_one_kind([1], _int_rows(self.coeffs)[3]))

    def __eq__(self, other):
        if type(other) is int:
            return self.coeffs == ((other,) if other else ())
        try:
            other = self.coerce(other)
        except TypeError:
            return NotImplemented
        return self.coeffs == other.coeffs

    # a constant hashes like its coefficient, as it compares equal to it
    def __hash__(self):
        if len(self.coeffs) <= 1:
            return hash(self.constant())
        return hash(self.coeffs)

    def exact_div(self, other):
        """Exact division by another polynomial; raises on nonzero remainder.
        Its coefficients take the widest kind of theirs and the operands'."""
        other = self.coerce(other)
        if other.is_zero():
            raise ZeroDivisionError("%s-polynomial division by zero" % self.var)
        rem = list(self.coeffs)
        lead = other.coeffs[-1]
        dq = other.degree
        out = [0] * max(len(rem) - dq, 0)
        for i in range(len(rem) - 1, dq - 1, -1):
            c = rem[i]
            if c == 0:
                continue
            f = _divide_scalar(c, lead)
            out[i - dq] = f
            for j, oc in enumerate(other.coeffs):
                rem[i - dq + j] -= f * oc
        if any(c != 0 for c in rem):
            raise SeriesError("inexact %s-polynomial division" % self.var)
        return type(self)(_one_kind(out, _int_rows(list(self.coeffs + other.coeffs))[3]))

    def __repr__(self):
        return "%s(%r)" % (type(self).__name__, list(self.coeffs))

    def __str__(self):
        return format_poly(self.coeffs, self.var)


class QPolynomial(_DensePoly):
    """Polynomial in the formal Hecke parameter q over int/Fraction."""

    __slots__ = ()
    var = "q"
    scalars = (int, Fraction)

    @staticmethod
    def q(power=1):
        return QPolynomial((0,) * power + (1,))


def format_poly(coeffs, var):
    parts = []
    for d in compress(range(len(coeffs)), coeffs):  # the nonzero terms
        c = coeffs[d]
        if c == 0:  # a zero QPolynomial is truthy
            continue
        cs = str(c)
        if isinstance(c, QPolynomial) and ("+" in cs or "-" in cs[1:]):
            cs = "(%s)" % cs
        if d:
            term = var if d == 1 else "%s^%d" % (var, d)
            cs = term if cs == "1" else "-" + term if cs == "-1" else "%s*%s" % (cs, term)
        parts.append(cs if not parts else " - " + cs[1:] if cs[0] == "-" else " + " + cs)
    return "".join(parts) or "0"


class Poly(_DensePoly):
    """Polynomial in the series variable u over int, Fraction or
    QPolynomial scalars, mixed freely (they all embed in Q[q])."""

    __slots__ = ()
    var = "u"
    scalars = (int, Fraction, QPolynomial)

    @staticmethod
    def u(power=1, coeff=1):
        return Poly((0,) * power + (coeff,))


def _divide_scalar(a, b):
    """Exact scalar division a / b in whatever ring the scalars live in; by
    the type rule of the int rows, an int comes only from two ints."""
    if isinstance(a, QPolynomial) or isinstance(b, QPolynomial):
        return QPolynomial.coerce(a).exact_div(b)
    if type(a) is int and type(b) is int:
        quotient, remainder = divmod(a, b)
        if not remainder:
            return quotient
    return Fraction(a, b)


# ---------------------------------------------------------------------------
# common-denominator int rows: the dense product, RationalFunction.expand,
# the product of power series, det_poly_matrix and hecke_mul flatten each
# operand once into ints over a scale (the last two packed at X = 2^b) and
# build each result coefficient once.  Type rule, on every route: a
# result's coefficients take the widest kind among its operands':
# QPolynomials, else Fractions (whole ones too), else ints; a
# QPolynomial's own coefficients are Fractions when any value is one.
# Sums, differences, p ** 0, a series times a scalar and det_series take
# it too (_widest).


def _int_rows(values):
    """(rows, width, scale, kind): each value as its row of q-coefficients
    times scale, the lcm of all their denominators; width is the longest
    row, and kind has bit 2 when a value is a QPolynomial, bit 1 when a
    Fraction occurs.  Without bit 2 a row is its one int."""
    if _INT.issuperset(map(type, values)):
        return values, 1, 1, 0
    kind = 2 if QPolynomial in set(map(type, values)) else 0
    rows = [c.coeffs if type(c) is QPolynomial else (c,) for c in values] if kind else values
    scalars, scale = list(chain.from_iterable(rows)) if kind else values, 1
    if Fraction in set(map(type, scalars)):
        kind, scale = kind | 1, math.lcm(*[x.denominator for x in scalars])
        rows = [[x.numerator * (scale // x.denominator) for x in row] for row in rows] if kind & 2 else [
            x.numerator * (scale // x.denominator) for x in rows]
    return rows, (max(map(len, rows)) or 1) if kind & 2 else 1, scale, kind


_INT = frozenset((int,))


def _widest(values, operands):
    """The values in the widest kind among the operands'; ints from ints
    stay as they are."""
    return values if _INT.issuperset(map(type, operands)) else _one_kind(values, _int_rows(operands)[3])


def _one_kind(values, kind=0):
    """The values in the widest kind among theirs and `kind`'s."""
    rows, width, scale, own = _int_rows(values)
    return _from_int_rows(_spread(rows, width, own), width, scale, own | kind)


def _spread(rows, stride, kind):
    """Int rows laid out in one list, `stride` places per row."""
    if not kind & 2:  # a row is its one int
        if stride == 1:
            return rows
        rows = [(v,) for v in rows]
    out = [0] * (len(rows) * stride)
    for p, row in zip(range(0, len(out), stride), rows):
        out[p:p + len(row)] = row
    return out


def _int_operands(a, b):
    """The operands of a product spread at one stride: (flat_a, flat_b,
    stride, scale, kind), scale and kind those of the product."""
    (rows_a, width_a, scale_a, kind_a), (rows_b, width_b, scale_b, kind_b) = _int_rows(a), _int_rows(b)
    stride = width_a + width_b - 1
    return _spread(rows_a, stride, kind_a), _spread(rows_b, stride, kind_b), stride, scale_a * scale_b, kind_a | kind_b


def _convolve(a, b, out):
    """Adds a * b into out, as far as out reaches, for int sequences a and
    b; returns out."""
    end = len(out) - len(b)  # a place up to end keeps all of b
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b if i <= end else b[:len(out) - i], i):
                out[j] += x * y
    return out


def _from_int_rows(values, stride, scale, kind):
    """The coefficients of spread int rows over scale, of the given kind."""
    if kind & 1:
        values = [Fraction(v, scale) for v in values]
    if kind & 2:
        return [QPolynomial(values[p:p + stride]) for p in range(0, len(values), stride)]
    return values


def _kronecker(values, b):
    """sum_i v_i 2^(b i): the int that a sequence of ints takes at X = 2^b."""
    out = 0
    for v in reversed(values):
        out = (out << b) + v
    return out


def _packed_rows(rows, b, kind):
    """Each row of `_int_rows` as the int it takes at X = 2^b."""
    return [_kronecker(row, b) for row in rows] if kind & 2 else rows


def signed_digits(packed, b):
    """Digits in [-2^(b-1), 2^(b-1)) of a Kronecker-packed int, lowest first."""
    digits = []
    top, mask = 1 << (b - 1), (1 << b) - 1
    for _ in range(packed.bit_length() // b + 1):
        digit = ((packed + top) & mask) - top
        digits.append(digit)
        packed = (packed - digit) >> b
    if packed:
        raise SeriesError("packed value has no signed base-2^%d digits" % b)
    return digits


def _from_kronecker(packed, b, stride, scale, kind):
    """The coefficients whose int rows over scale, spread at stride, pack to `packed`."""
    return _from_int_rows(signed_digits(packed, b), stride, scale, kind)


# ---------------------------------------------------------------------------
# square matrices over exact scalars


class Matrix:
    """Immutable dense matrix over exact scalars (int/Fraction/QPolynomial)."""

    __slots__ = ("rows",)

    def __init__(self, rows):
        self.rows = tuple(tuple(r) for r in rows)

    @staticmethod
    def of_rows(rows):
        """The matrix on a tuple of row tuples, taken as it is (no copy)."""
        m = Matrix.__new__(Matrix)
        m.rows = rows
        return m

    @staticmethod
    def identity(n, one=1):
        z = one * 0
        return Matrix.of_rows(tuple(tuple([one if i == j else z for j in range(n)]) for i in range(n)))

    @property
    def nrows(self):
        return len(self.rows)

    @property
    def ncols(self):
        return len(self.rows[0]) if self.rows else 0

    def __add__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return Matrix.of_rows(tuple([tuple(map(add, ra, rb)) for ra, rb in zip(self.rows, other.rows)]))

    def __sub__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return Matrix.of_rows(tuple([tuple(map(sub, ra, rb)) for ra, rb in zip(self.rows, other.rows)]))

    def __mul__(self, other):
        if isinstance(other, Matrix):
            cols = tuple(zip(*other.rows))
            return Matrix.of_rows(tuple([tuple([_dot(row, col) for col in cols]) for row in self.rows]))
        if isinstance(other, Poly.scalars):
            return Matrix.of_rows(tuple([tuple([a * other for a in r]) for r in self.rows]))
        return NotImplemented

    __rmul__ = __mul__  # the scalars commute

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return (self.nrows, self.ncols) == (other.nrows, other.ncols) and all(
            a == b for ra, rb in zip(self.rows, other.rows) for a, b in zip(ra, rb))

    def __hash__(self):
        return hash(self.rows)

    def is_zero(self):
        return all(_is_zero(a) for r in self.rows for a in r)

    def is_identity(self):
        return all((a == 1 if i == j else _is_zero(a)) for i, r in enumerate(self.rows) for j, a in enumerate(r))

    def __repr__(self):
        return "Matrix(%r)" % (list(map(list, self.rows)),)


def _dot(row, col):
    it = iter(zip(row, col))
    a, b = next(it)
    acc = a * b
    for a, b in it:
        acc = acc + a * b
    return acc


# ---------------------------------------------------------------------------
# truncated power series


class PowerSeries:
    """Truncated power series: coefficients c_0..c_order in an exact ring."""

    __slots__ = ("coeffs", "order")

    def __init__(self, coeffs, order=None):
        coeffs = list(coeffs)
        if order is None:
            order = len(coeffs) - 1
        if len(coeffs) != order + 1:
            raise SeriesError("series needs order+1 coefficients")
        self.coeffs = tuple(coeffs)
        self.order = order

    def coeff(self, d):
        return self.coeffs[d]

    def __sub__(self, other):
        """The difference to the lower order, under the type rule."""
        other = self._match(other)
        n = min(self.order, other.order)
        a, b = self.coeffs[: n + 1], other.coeffs[: n + 1]
        return PowerSeries(_widest(list(map(sub, a, b)), a + b), n)

    def _match(self, other):
        """A polynomial or a scalar as a series to self's order."""
        if isinstance(other, PowerSeries):
            return other
        if isinstance(other, (Poly, *Poly.scalars)):
            cs = Poly.coerce(other).coeffs[: self.order + 1]
            return PowerSeries(cs + (0,) * (self.order - len(cs) + 1), self.order)
        raise TypeError("cannot combine %r with a power series" % (other,))

    def __mul__(self, other):
        """The product to the lower order, on common-denominator int rows
        (_series_product): a series of matrices by its entries' u-series, a
        scalar series as the one entry of a 1x1 matrix.  A scalar multiplies
        each coefficient, under the type rule for a series of scalars."""
        if isinstance(other, Poly.scalars):
            cs = [c * other for c in self.coeffs]
            return PowerSeries(cs if isinstance(cs[0], Matrix) else _widest(cs, self.coeffs + (other,)), self.order)
        other = self._match(other)
        n = min(self.order, other.order)
        a, b = self.coeffs[: n + 1], other.coeffs[: n + 1]
        if isinstance(a[0], Matrix) != isinstance(b[0], Matrix):
            raise SeriesError("a series of matrices times a series of scalars")
        if not isinstance(a[0], Matrix):
            return PowerSeries(_series_product([a], [b], 1, 1, 1)[0], n)
        h, m, w = a[0].nrows, a[0].ncols, b[0].ncols
        out = _series_product([[x.rows[r][t] for x in a] for r in range(h) for t in range(m)],
                              [[x.rows[t][c] for x in b] for t in range(m) for c in range(w)], h, m, w)
        # out[r w + c] is entry (r, c) by degree; the coefficient of degree d takes each entry's d-th
        return PowerSeries([Matrix.of_rows(rows) for rows in zip(*[tuple(zip(*out[r * w:(r + 1) * w]))
                                                                    for r in range(h)])], n)

    __rmul__ = __mul__

    def inverse(self):
        """Multiplicative inverse, the expansion of 1 / self; the constant
        term must be a unit."""
        return RationalFunction(Poly.one(), Poly(self.coeffs)).expand(self.order)

    def __eq__(self, other):
        try:
            other = self._match(other)
        except TypeError:
            return NotImplemented
        n = min(self.order, other.order)
        return all(self.coeffs[i] == other.coeffs[i] for i in range(n + 1))

    # equality compares up to the shorter truncation order, so hashing
    # would be inconsistent
    __hash__ = None

    def __repr__(self):
        return "PowerSeries(%r, order=%d)" % (list(self.coeffs), self.order)


def _series_product(a, b, h, m, w):
    """Entry (r, c), as a u-series, of the product of an h x m and an m x w
    matrix of u-series of one length, cut at that length; a and b list the
    entries' series row by row.  On common-denominator int rows: every
    scalar of an operand shares its scale, and entry (r, c) is the sum over
    t of a's (r, t) convolved with b's (t, c)."""
    flat_a, flat_b, stride, scale, kind = _int_operands(list(chain.from_iterable(a)), list(chain.from_iterable(b)))
    span = len(a[0]) * stride
    entries_a = [flat_a[p:p + span] for p in range(0, h * m * span, span)]
    entries_b = [flat_b[p:p + span] for p in range(0, m * w * span, span)]
    out = []
    for r in range(h):
        for c in range(w):
            acc = [0] * span
            for t in range(m):
                _convolve(entries_a[r * m + t], entries_b[t * w + c], acc)
            out.append(_from_int_rows(acc, stride, scale, kind))
    return out


# ---------------------------------------------------------------------------
# rational functions


class RationalFunction:
    """Quotient num/den of u-polynomials; den has unit constant term.

    Normalised so that den(0) == 1, and not reduced: equality is tested by
    cross multiplication, exact over any integral coefficient domain; it
    has products and inverses but no sums.  Products of (1-u^d)^m factors
    are read as exponent maps and put in lowest terms without a gcd
    (binomial_factors, binomial_product); a value known as such a product
    from the start is an ExponentMap, and its arithmetic runs on the map.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den=Poly((1,))):
        num = Poly.coerce(num)
        den = Poly.coerce(den)
        c0 = den.constant()
        if c0 == 0:
            raise SeriesError("rational function denominator vanishes at u=0")
        if c0 != 1:
            if isinstance(c0, QPolynomial):
                if c0.degree != 0:
                    raise SeriesError("denominator constant term is not a unit")
                c0 = c0.constant()
            inv = _divide_scalar(1, c0)
            num = num * inv
            den = den * inv
        self.num = num
        self.den = den

    @staticmethod
    def coerce(x):
        if isinstance(x, RationalFunction):
            return x
        return RationalFunction(Poly.coerce(x))

    def __mul__(self, other):
        other = RationalFunction.coerce(other)
        return RationalFunction(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def inverse(self):
        return RationalFunction(self.den, self.num)

    def __eq__(self, other):
        try:
            other = RationalFunction.coerce(other)
        except TypeError:
            return NotImplemented
        return self.num * other.den == other.num * self.den

    # equality is by cross multiplication, so distinct representations of
    # one value must not be hashed
    __hash__ = None

    def expand(self, order):
        """Power series to u^order: out_n = num_n - sum_{k>=1} den_k out_{n-k},
        as den(0) = 1, on common-denominator int rows.  With L the lcm of
        the denominators of num and den, N_n = L num_n and E_k = L den_k,
        the int rows y_n = L^n N_n - sum_{k>=1} L^(k-1) E_k y_(n-k) are
        y_n = L^(n+1) out_n.  They are spread at a stride past their q-width
        (deg y_n <= max_m deg N_m + r (n - m), r >= deg E_k / k), and each
        place, once final, is pushed into the later ones.  Coefficients follow
        the type rule of _int_rows over num and den."""
        num, den = self.num.coeffs, self.den.coeffs
        rows, _, scale, kind = _int_rows(num + den)
        nums, dens = rows[:min(len(num), order + 1)], rows[len(num) + 1:len(num) + 1 + order]
        stride = 1
        if kind & 2:
            rate = max([(len(e) + k - 2) // k for k, e in enumerate(dens, 1)] + [0])
            stride = max([len(r) + rate * (order - n) for n, r in enumerate(nums)] + [1])
        size, powers = (order + 1) * stride, list(accumulate(repeat(scale, order), mul, initial=1))
        # L^n at every place of row n
        places = list(chain.from_iterable(map(repeat, powers, repeat(stride)))) if stride > 1 else powers
        y = list(map(mul, _spread(nums, stride, kind), places))
        y += [0] * (size - len(y))
        # y(u) times the tail of den, -sum_k L^(k-1) E_k u^k, at places t >= stride
        pairs = [(t, -x) for t, x in enumerate(map(mul, _spread(dens, stride, kind), places), stride) if x]
        end = size - (pairs[-1][0] if pairs else 0)  # a place before end keeps every pair
        for i, x in enumerate(y):  # y's places before i are final
            if x:
                for j, e in pairs if i < end else pairs[:bisect_left(pairs, (size - i,))]:
                    y[i + j] += x * e
        if scale > 1:  # over one denominator, y_n L^(order-n) = L^(order+1) out_n
            y = list(map(mul, y, reversed(places)))
        return PowerSeries(_from_int_rows(y, stride, scale ** (order + 1), kind), order)

    def as_polynomial(self):
        return self.num.exact_div(self.den)

    def reduced(self):
        """Lowest terms of a product of (1-u^d) factors, through its exponent
        map; any other value raises SeriesError, as no gcd is taken."""
        factors = self.binomial_factors()
        if factors is None:
            raise SeriesError("not a product of (1-u^d) factors: %r" % (self,))
        return binomial_product(factors)

    def binomial_factors(self):
        """Write the rational function as a product of (1-u^d)^m factors.

        Returns the exponent map as a sorted list of (d, m), or None when
        there is none.  A gcd-free exact peel: where N = num and M = den
        first differ, at u^d, N/M = 1 - m_d u^d + ..., and multiplying M or
        N by (1-u^d)^|m_d| makes them agree there; N == M ends the peel and
        is the exact check.  A true product has |m_d| <= D = deg num +
        deg den and d <= 2 D^2 (phi(e) >= sqrt(e/2)), so beyond either
        bound there is no factorisation.

        N and M are plain coefficient lists of one length, both grown by
        d |m_d| before a step, and each factor (1-u^d) is multiplied in
        place as c[i] -= c[i-d] over every i >= d, each c[i-d] read before
        it is written: no polynomial is built and no power taken.
        """
        def plain(p):
            out = []
            for c in p.coeffs:
                if isinstance(c, QPolynomial):
                    if c.degree > 0:
                        return None
                    c = c.constant()
                out.append(c)
            return out

        top, bottom = plain(self.num), plain(self.den)
        if top is None or bottom is None or not top or top[0] != 1:
            return None
        bound = len(top) + len(bottom) - 2
        size = max(len(top), len(bottom))
        top += [0] * (size - len(top))
        bottom += [0] * (size - len(bottom))
        factors = []
        d = 1
        while top != bottom:
            while top[d] == bottom[d]:
                d += 1
            c = top[d] - bottom[d]
            if Fraction(c).denominator != 1 or abs(c) > bound or d > 2 * bound * bound:
                return None
            m = -int(c)
            top += [0] * (d * abs(m))
            bottom += [0] * (d * abs(m))
            side = bottom if m > 0 else top
            for _ in range(abs(m)):
                side[d:] = map(sub, side[d:], side[:-d])
            factors.append((d, m))
        return factors

    def __repr__(self):
        return "RationalFunction(%r, %r)" % (self.num, self.den)

    def __str__(self):
        facs = self.binomial_factors()
        if facs is None:
            return "(%s) / (%s)" % (self.num, self.den)
        return _format_binomial_factors(facs)


def _format_binomial_factors(facs):
    """Product form of sorted (d, m) pairs: (1-u^d)^m numerator factors
    over the denominator ones."""
    def side(sign):
        return "".join(
            ("(1-u^%d)" % d if d > 1 else "(1-u)") + ("^%d" % abs(m) if abs(m) > 1 else "")
            for d, m in facs
            if m * sign > 0
        )

    downs = side(-1)
    return (side(1) or "1") + (" / " + downs if downs else "")


def _add_exponents(a, b):
    out = dict(a)
    for key, m in b.items():
        out[key] = out.get(key, 0) + m
    return out


class ExponentMap:
    """prod (1-u^d)^m over an exponent map d -> m.

    The 1-u^d are multiplicatively independent, so the map is the
    canonical form of a binomial product: products and quotients add and
    subtract maps, and equality compares them.  `expand`, `as_polynomial`,
    `power_sums` and `str` are for output and the truncated cross-checks;
    `str` reads the map, with no peel.
    """

    __slots__ = ("exponents",)

    def __init__(self, exponents=()):
        self.exponents = {d: m for d, m in dict(exponents).items() if m}
        if any(not isinstance(d, int) or d < 1 for d in self.exponents):
            raise SeriesError("exponent map degrees must be positive integers")

    def __mul__(self, other):
        if not isinstance(other, ExponentMap):
            return NotImplemented
        return ExponentMap(_add_exponents(self.exponents, other.exponents))

    def inverse(self):
        return ExponentMap({d: -m for d, m in self.exponents.items()})

    def __truediv__(self, other):
        if not isinstance(other, ExponentMap):
            return NotImplemented
        return self * other.inverse()

    def __eq__(self, other):
        if not isinstance(other, ExponentMap):
            return NotImplemented
        return self.exponents == other.exponents

    def first_difference(self, other):
        """The least d whose exponent differs between the two maps, or None."""
        keys = self.exponents.keys() | other.exponents.keys()
        return min((d for d in keys if self.exponents.get(d, 0) != other.exponents.get(d, 0)),
                   default=None)

    def substitute_power(self, m):
        """The product at u^m."""
        if m < 1:
            raise SeriesError("substitution power must be positive")
        return ExponentMap({d * m: e for d, e in self.exponents.items()})

    def expand(self, order):
        """Power series to u^order: the binomial series of the map."""
        return PowerSeries(_dense(_binomial_series(self.exponents, order), order + 1), order)

    def power_sums(self, order):
        """p_1..p_order of the product = exp(sum p_j u^j / j): p_j = -sum_(d|j) d m_d."""
        return [-sum(d * m for d, m in self.exponents.items() if j % d == 0) for j in range(1, order + 1)]

    def as_polynomial(self):
        """The product as a polynomial; every exponent must be positive."""
        if any(m < 0 for m in self.exponents.values()):
            raise SeriesError("not a polynomial: %r" % (self,))
        top = sum(d * m for d, m in self.exponents.items())
        return Poly(_dense(_binomial_series(self.exponents, top), top + 1))

    def __repr__(self):
        return "ExponentMap(%r)" % (self.exponents,)

    def __str__(self):
        return _format_binomial_factors(sorted(self.exponents.items()))


def _binomial_series(exponents, top):
    """prod (1-u^d)^m over a map d -> m, up to u^top, as a sparse {e: c}
    map.  Each factor is its binomial series sum_j (-1)^j C(m, j) u^(d j),
    for either sign of m (it ends at j = m when m >= 0), multiplied in
    over the nonzero terms only."""
    terms = None
    for d, m in sorted(exponents.items()):
        binom, c = [], 1
        for j in range(top // d + 1):
            if not c:
                break
            binom.append((d * j, c))
            c = c * (j - m) // (j + 1)
        if terms is None:  # the first factor is its own series
            terms = dict(binom)
            continue
        prod = {}
        for a, x in terms.items():
            for s, y in binom:
                if a + s > top:
                    break
                prod[a + s] = prod.get(a + s, 0) + x * y
        terms = {e: c for e, c in prod.items() if c}
    return {0: 1} if terms is None else terms


def _dense(terms, length):
    coeffs = [0] * length
    for e, c in terms.items():
        coeffs[e] = c
    return coeffs


@lru_cache(maxsize=None)
def _cyclotomic(e):
    """Phi_e, normalised to constant term 1: Phi_1 = 1-u, and
    Phi_e = (1-u^e) / prod of Phi_d over the proper divisors d of e."""
    out = 1 - Poly.u(e)
    for d in range(1, e):
        if e % d == 0:
            out = out.exact_div(_cyclotomic(d))
    return out


def binomial_product(factors):
    """The product of (1-u^d)^m over an exponent map d -> m (a mapping or
    (d, m) pairs) in lowest terms.  1-u^d is the product of Phi_e over
    e | d, so the map becomes cyclotomic multiplicities c_e, which put
    each Phi_e on one side only; with den(0) = 1 this form is unique."""
    cyclo = Counter()
    for d, m in dict(factors).items():
        for e in range(1, d + 1):
            if d % e == 0:
                cyclo[e] += m
    num, den = Poly.one(), Poly.one()
    for e, c in sorted(cyclo.items()):
        if c > 0:
            num = num * _cyclotomic(e) ** c
        elif c < 0:
            den = den * _cyclotomic(e) ** -c
    return RationalFunction(num, den)


# ---------------------------------------------------------------------------
# determinants


def _scalar_to_json(c):
    if isinstance(c, Fraction):
        return c.numerator if c.denominator == 1 else [c.numerator, c.denominator]
    if isinstance(c, int):
        return c
    raise SeriesError("only integer/rational entries serialize to JSON")


def scalar_from_json(v):
    """The exact scalar of a JSON value: an int, or a [num, den] pair of
    ints with den != 0 (a whole fraction comes back as an int).  Anything
    else, floats and booleans included, raises SeriesError."""
    if type(v) is int:
        return v
    if isinstance(v, list) and len(v) == 2 and all(type(x) is int for x in v) and v[1]:
        f = Fraction(v[0], v[1])
        return f.numerator if f.denominator == 1 else f
    raise SeriesError("not an exact scalar: %r" % (v,))


def series_to_json(rf, ps):
    """Serialize a rational function together with its truncation."""
    return {
        "num": [_scalar_to_json(c) for c in rf.num.coeffs],
        "den": [_scalar_to_json(c) for c in rf.den.coeffs],
        "coeffs": [_scalar_to_json(c) for c in ps.coeffs],
        "order": ps.order,
    }


def det_series(ps):
    """Determinant of a matrix-valued power series with constant term I,
    truncated at the series' own order.

    Gaussian elimination over R[[u]]/(u^(order+1)).  The constant term is
    I, so every Schur complement has constant term I as well: each pivot
    is a unit series whose inverse needs only products and differences,
    and the determinant is the product of the pivots.  There is no pivot
    search and no division, so entries stay in their own ring (ints stay
    ints); the coefficients take the type rule's widest kind among the
    entries', a 1x1 series' as well.
    """
    order, c0 = ps.order, ps.coeffs[0]
    if not isinstance(c0, Matrix) or not c0.is_identity():
        raise SeriesError("det_series needs identity constant term")
    n = c0.nrows
    rows = [
        [PowerSeries([ps.coeffs[d].rows[i][j] for d in range(order + 1)], order) for j in range(n)]
        for i in range(n)
    ]
    det = rows[0][0]
    for k in range(n - 1):
        inv = rows[k][k].inverse()
        for i in range(k + 1, n):
            f = rows[i][k] * inv
            rows[i][k + 1:] = [a - f * b for a, b in zip(rows[i][k + 1:], rows[k][k + 1:])]
        det = det * rows[k + 1][k + 1]
    return PowerSeries(_widest(list(det.coeffs), [x for c in ps.coeffs for r in c.rows for x in r]), order)


def power_sum_exp(power_sums, order):
    """exp(sum_k p_k u^k / k) up to u^order from the power sums
    p_1, ..., p_order, by Newton's identities: e_0 = 1 and
    m e_m = sum_{k<=m} p_k e_{m-k}.  Each division by m is exact in the
    scalars' own ring where it can be, so int power sums of a series with
    int coefficients never make a Fraction; one Fraction makes all Fractions."""
    out = [1]
    for m in range(1, order + 1):
        acc = 0
        for k in range(1, m + 1):
            acc = acc + power_sums[k - 1] * out[m - k]
        out.append(_divide_scalar(acc, m))
    return PowerSeries(_one_kind(out), order)


def det_poly_matrix(rows):
    """Exact determinant of a square matrix of u-polynomials over Q[q]:
    Z[u], Q[u], Z[q][u] or Q[q][u].

    One integer determinant by Kronecker substitution (von zur Gathen and
    Gerhard, Modern Computer Algebra, 8.4): row i becomes int rows over the
    lcm L_i of its denominators (`_int_rows`), and each entry packs into the
    int it takes at q = X, u = X^(D+1) with X = 2^b, where D, the sum over
    the rows of their largest q-degree, bounds the q-degree of every minor.  A
    coefficient is at most the largest modulus on |u| = |q| = 1 (Cauchy's
    estimate), where |a_ij| <= |a_ij|_1, the coefficient 1-norm of a scaled
    entry; there Hadamard's inequality bounds a minor by the product of its
    rows' Euclidean norms, so every coefficient of every minor is at most
    sqrt(prod_i max(1, sum_j |a_ij|_1^2)) < 2^(b-1): a polynomial packs to 0
    only if it is 0 and unpacks from its signed base-X digits.

    Bareiss's fraction-free elimination (Math. Comp. 22, 1968) then runs
    on the packed ints: after step k every entry below the pivot row is a
    (k+2)-minor, so the division by the previous pivot is exact, in Z[u]
    as in Z.  A zero pivot is swapped with a lower row that has a nonzero
    entry in its column, flipping the sign; with no such row the
    determinant is 0.  The result unpacks over prod_i L_i, its
    coefficients of one kind by the type rule of the int rows; a matrix of
    size at most 1 returns its entry, and a matrix of ints packs as itself.
    """
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise SeriesError("determinant of a non-square matrix")
    if n <= 1:
        return Poly.coerce(rows[0][0]) if n else Poly.one()
    if _INT.issuperset(map(type, chain.from_iterable(rows))):  # each int is its own packed value
        a, unpack = [list(r) for r in rows], lambda det: (det,)
    else:
        coeffs = [[Poly.coerce(entry).coeffs for entry in r] for r in rows]
        flat = [_int_rows(list(chain.from_iterable(r))) for r in coeffs]
        stride = 1 + sum(width - 1 for _rows, width, _scale, _kind in flat)  # D + 1
        bound, scale, kind, spread = 1, 1, 0, []
        for r, (ints, _width, row_scale, row_kind) in zip(coeffs, flat):  # entry j's u-coefficients, spread
            entries = [_spread(ints[s:e], stride, row_kind) for s, e in pairwise([0, *accumulate(map(len, r))])]
            bound *= max(1, sum([sum(map(abs, e)) ** 2 for e in entries]))
            scale, kind = scale * row_scale, kind | row_kind
            spread.append(entries)
        b = (math.isqrt(bound) + 1).bit_length() + 1
        a = [[_kronecker(e, b) for e in entries] for entries in spread]
        unpack = lambda det: _from_kronecker(det, b, stride, scale, kind)
    sign, prev = 1, 1
    for k in range(n - 1):
        if not a[k][k]:
            swap = next((i for i in range(k + 1, n) if a[i][k]), None)
            if swap is None:
                return Poly()
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        pivot_row, cols = a[k], range(k + 1, n)
        pivot = pivot_row[k]
        for row in a[k + 1:]:
            lead = row[k]
            for j in cols:
                quotient, remainder = divmod(row[j] * pivot - lead * pivot_row[j], prev)
                if remainder:
                    raise SeriesError("inexact Bareiss division")
                row[j] = quotient
        prev = pivot
    # coefficient of q^e u^d at place d (D+1) + e
    return Poly(unpack(sign * a[-1][-1]))


def char_matrix_det(mat, shift_power=1):
    """det(I - M u^shift_power) for a scalar matrix M, as an exact Poly."""
    n = mat.nrows
    rows = [
        [
            Poly([1] + [0] * (shift_power - 1) + [-mat.rows[i][j]]) if i == j
            else Poly([0] * shift_power + [-mat.rows[i][j]])
            for j in range(n)
        ]
        for i in range(n)
    ]
    return det_poly_matrix(rows)


# ---------------------------------------------------------------------------
# Poincare series of Coxeter groups


def poincare_parabolic(table, gens):
    """Length generating polynomial of the finite parabolic subgroup
    generated by the given generator indices."""
    counts = Counter(e.length for e in table.parabolic_elements(gens))
    return Poly([counts[d] for d in range(max(counts) + 1)])


def _affine_maps(system, order, table=None):
    """The exponent maps of the proper parabolics' Poincare series, by
    subset, and of W(u), whose truncation at order is checked exactly
    against the layer counts: the table's or else a streaming count
    (coxeter.layer_sizes).  Returns (maps, W(u)'s map, truncation).

    A finite W_J(u) is Macdonald's height product over the roots of its
    Cartan submatrix (rootsys.root_heights), of finite type for a proper J
    (Kac, Infinite-dimensional Lie algebras, Prop. 4.7): no element is
    enumerated.  The parabolic with the most roots is a special node's
    complement, a copy of the finite Weyl group W0 (any other maximal
    parabolic is a proper reflection subgroup of it), and Bott's formula
    (Bott 1956; Macdonald 1972) gives W(u) = W0(u) / prod (1 - u^(d_i - 1))
    over W0's degrees d_i.
    """
    from . import coxeter, rootsys

    if not system.is_affine:
        raise SeriesError("Poincare series in closed form needs an affine system")
    c = system.cartan
    roots = {J: rootsys.root_heights([[c[i][j] for j in J] for i in J])
             for J in coxeter.all_proper_subsets(system.num_generators)}
    maps = {J: ExponentMap(rootsys._height_map(heights.values())) for J, heights in roots.items()}
    w0 = maps[max(roots, key=lambda J: len(roots[J]))]
    full = w0 / ExponentMap({d - 1: m for d, m in w0.exponents.items() if d > 1})
    # the layers first: their count meets the element cap before W(u)
    # expands, whose denominator series never ends
    layers = table.layer_sizes() if table is not None else coxeter.layer_sizes(system, order)
    ps = full.expand(order)
    for d, count in enumerate(layers[: order + 1]):
        if ps.coeff(d) != count:
            raise SeriesError("affine Poincare series disagrees with BFS layers at degree %d" % d)
    return maps, full, ps


def poincare_affine(system, order):
    """The Poincare series W(u) of an affine system as its exponent map,
    plus its truncation, checked against the BFS layers (_affine_maps)."""
    _, full, ps = _affine_maps(system, order)
    return full, ps


def alt_product_rational(system):
    """Alternating product of parabolic Poincare series over all subsets
    of the generators, as an exponent map: each proper W_J(u) to the power
    (-1)^(k - |J|), times W(u) (_affine_maps, whose W(u) is checked
    against the BFS layers up to 2k + 16); no element is enumerated."""
    k = system.num_generators
    maps, out, _ = _affine_maps(system, 2 * k + 16)
    for subset, w in maps.items():
        out = out * (w if (len(subset) + k) % 2 == 0 else w.inverse())
    return out
