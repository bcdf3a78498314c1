"""Exact coefficient arithmetic: q-polynomials, truncated power series,
rational functions, determinants, and Poincare series of Coxeter groups.

All arithmetic is exact.  Scalars are Python ints, fractions.Fraction, or
QPolynomial (integer/rational coefficients in a formal parameter q).
Nothing here ever touches floating point.
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import combinations


class SeriesError(Exception):
    pass


def scalar_zero_like(x):
    if isinstance(x, Matrix):
        return Matrix.zeros(x.nrows, x.ncols)
    return x * 0


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
    def zero(cls):
        return cls(())

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

    def coeff(self, d):
        return self.coeffs[d] if d < len(self.coeffs) else 0

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
        return type(self)(out)

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
        cls = type(self)
        if not isinstance(other, cls):
            if isinstance(other, cls.scalars):
                return cls([c * other for c in self.coeffs])
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return cls(())
        out = [0] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca == 0:
                continue
            for j, cb in enumerate(b):
                out[i + j] += ca * cb
        return cls(out)

    __rmul__ = __mul__

    def __pow__(self, n):
        return _power(self, n, self.one())

    def __eq__(self, other):
        if type(other) is int:
            return self.coeffs == ((other,) if other else ())
        try:
            other = self.coerce(other)
        except TypeError:
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def evaluate(self, value):
        """Horner evaluation at a scalar value of the variable."""
        out = 0
        for c in reversed(self.coeffs):
            out = out * value + c
        return out

    def exact_div(self, other):
        """Exact division by another polynomial; raises on nonzero remainder."""
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
        return type(self)(out)

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

    # a constant hashes like its coefficient, as it compares equal to it
    def __hash__(self):
        if len(self.coeffs) <= 1:
            return hash(self.constant())
        return hash(self.coeffs)


def format_poly(coeffs, var):
    if not coeffs:
        return "0"
    parts = []
    for d, c in enumerate(coeffs):
        if c == 0:
            continue
        cs = str(c)
        if isinstance(c, QPolynomial) and ("+" in cs or "-" in cs[1:]):
            cs = "(%s)" % cs
        if d == 0:
            parts.append(cs)
        else:
            term = var if d == 1 else "%s^%d" % (var, d)
            if cs == "1":
                parts.append(term)
            elif cs == "-1":
                parts.append("-" + term)
            else:
                parts.append("%s*%s" % (cs, term))
    if not parts:
        return "0"
    out = parts[0]
    for p in parts[1:]:
        out += " - " + p[1:] if p.startswith("-") else " + " + p
    return out


class Poly(_DensePoly):
    """Polynomial in the series variable u over int, Fraction or
    QPolynomial scalars, mixed freely (they all embed in Q[q])."""

    __slots__ = ()
    var = "u"
    scalars = (int, Fraction, QPolynomial)

    @staticmethod
    def u(power=1, coeff=1):
        return Poly((0,) * power + (coeff,))

    def substitute_power(self, m):
        """The polynomial p(u^m)."""
        if m < 1:
            raise SeriesError("substitution power must be positive")
        out = [0] * (self.degree * m + 1)
        out[::m] = self.coeffs
        return Poly(out)

    def truncate(self, order):
        cs = self.coeffs[: order + 1]
        return PowerSeries(cs + (0,) * (order + 1 - len(cs)), order)


def _divide_scalar(a, b):
    """Exact scalar division a / b in whatever ring the scalars live in."""
    if isinstance(a, QPolynomial) or isinstance(b, QPolynomial):
        return QPolynomial.coerce(a).exact_div(b)
    if type(a) is int and type(b) is int:
        quotient, remainder = divmod(a, b)
        if not remainder:
            return quotient
    f = Fraction(a) / Fraction(b)
    return f.numerator if f.denominator == 1 else f


# ---------------------------------------------------------------------------
# square matrices over exact scalars


class Matrix:
    """Immutable dense matrix over exact scalars (int/Fraction/QPolynomial)."""

    __slots__ = ("rows",)

    def __init__(self, rows):
        self.rows = tuple(tuple(r) for r in rows)

    @staticmethod
    def identity(n, one=1):
        z = scalar_zero_like(one)
        return Matrix(tuple(tuple(one if i == j else z for j in range(n)) for i in range(n)))

    @staticmethod
    def zeros(n, m=None):
        m = n if m is None else m
        return Matrix(tuple((0,) * m for _ in range(n)))

    @property
    def nrows(self):
        return len(self.rows)

    @property
    def ncols(self):
        return len(self.rows[0]) if self.rows else 0

    def __add__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return Matrix(tuple(tuple(a + b for a, b in zip(ra, rb)) for ra, rb in zip(self.rows, other.rows)))

    def __sub__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return Matrix(tuple(tuple(a - b for a, b in zip(ra, rb)) for ra, rb in zip(self.rows, other.rows)))

    def __neg__(self):
        return Matrix(tuple(tuple(-a for a in r) for r in self.rows))

    def __mul__(self, other):
        if isinstance(other, Matrix):
            bt = tuple(zip(*other.rows))
            return Matrix(
                tuple(tuple(_dot(row, col) for col in bt) for row in self.rows)
            )
        if isinstance(other, Poly.scalars):
            return Matrix(tuple(tuple(a * other for a in r) for r in self.rows))
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, Poly.scalars):
            return Matrix(tuple(tuple(other * a for a in r) for r in self.rows))
        return NotImplemented

    def __pow__(self, n):
        return _power(self, n, Matrix.identity(self.nrows, scalar_one_like(self.rows[0][0])))

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return self.nrows == other.nrows and all(
            a == b for ra, rb in zip(self.rows, other.rows) for a, b in zip(ra, rb)
        )

    def __hash__(self):
        return hash(self.rows)

    def is_zero(self):
        return all(_is_zero(a) for r in self.rows for a in r)

    def is_identity(self):
        return all(
            (a == 1 if i == j else _is_zero(a))
            for i, r in enumerate(self.rows)
            for j, a in enumerate(r)
        )

    def trace(self):
        t = self.rows[0][0]
        for i in range(1, self.nrows):
            t = t + self.rows[i][i]
        return t

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

    def __add__(self, other):
        other = self._match(other)
        n = min(self.order, other.order)
        return PowerSeries([self.coeffs[i] + other.coeffs[i] for i in range(n + 1)], n)

    def __sub__(self, other):
        other = self._match(other)
        n = min(self.order, other.order)
        return PowerSeries([self.coeffs[i] - other.coeffs[i] for i in range(n + 1)], n)

    def __neg__(self):
        return PowerSeries([-c for c in self.coeffs], self.order)

    def _match(self, other):
        if isinstance(other, PowerSeries):
            return other
        if isinstance(other, Poly):
            return other.truncate(self.order)
        if isinstance(other, Poly.scalars):
            return Poly.coerce(other).truncate(self.order)
        raise TypeError("cannot combine %r with a power series" % (other,))

    def __mul__(self, other):
        if isinstance(other, Poly.scalars):
            return PowerSeries([c * other for c in self.coeffs], self.order)
        other = self._match(other)
        n = min(self.order, other.order)
        z = scalar_zero_like(self.coeffs[0] * other.coeffs[0])
        out = [z] * (n + 1)
        for i, a in enumerate(self.coeffs[: n + 1]):
            if _is_zero(a):
                continue
            for j in range(0, n + 1 - i):
                b = other.coeffs[j]
                if _is_zero(b):
                    continue
                out[i + j] = out[i + j] + a * b
        return PowerSeries(out, n)

    __rmul__ = __mul__

    def inverse(self):
        """Multiplicative inverse; the constant term must be a unit."""
        c0 = self.coeffs[0]
        one = scalar_one_like(c0)
        if isinstance(c0, Matrix):
            if not c0.is_identity():
                raise SeriesError("matrix series inverse needs identity constant term")
            inv0 = one
        else:
            if _is_zero(c0):
                raise SeriesError("series with zero constant term has no inverse")
            if isinstance(c0, QPolynomial):
                if c0.degree != 0:
                    raise SeriesError("q-polynomial constant term is not a unit")
                inv0 = QPolynomial((_divide_scalar(1, c0.constant()),))
            else:
                inv0 = _divide_scalar(1, c0)
        out = [inv0]
        for n in range(1, self.order + 1):
            acc = scalar_zero_like(c0)
            for k in range(1, n + 1):
                if k < len(self.coeffs) and not _is_zero(self.coeffs[k]):
                    acc = acc + self.coeffs[k] * out[n - k]
            out.append(-(inv0 * acc) if not isinstance(c0, Matrix) else -acc)
        return PowerSeries(out, self.order)

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

    def truncate(self, order):
        if order > self.order:
            raise SeriesError("cannot extend a truncated series")
        return PowerSeries(self.coeffs[: order + 1], order)

    def __repr__(self):
        return "PowerSeries(%r, order=%d)" % (list(self.coeffs), self.order)


# ---------------------------------------------------------------------------
# rational functions


class RationalFunction:
    """Quotient num/den of u-polynomials; den has unit constant term.

    Normalised so that den(0) == 1, and not reduced: equality is tested by
    cross multiplication, exact over any integral coefficient domain.
    Products of (1-u^d)^m factors are read as exponent maps and put in
    lowest terms without a gcd (binomial_factors, binomial_product); a
    value known as such a product from the start is an ExponentMap.
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

    def __truediv__(self, other):
        other = RationalFunction.coerce(other)
        return RationalFunction(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other):
        return RationalFunction.coerce(other) / self

    def __add__(self, other):
        other = RationalFunction.coerce(other)
        return RationalFunction(self.num * other.den + other.num * self.den, self.den * other.den)

    __radd__ = __add__

    def __neg__(self):
        return RationalFunction(-self.num, self.den)

    def __sub__(self, other):
        return self + (-RationalFunction.coerce(other))

    def __rsub__(self, other):
        return RationalFunction.coerce(other) - self

    def __pow__(self, n):
        base = self if n >= 0 else self.inverse()
        return _power(base, abs(n), RationalFunction(Poly.one()))

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
        """Power series to u^order: out_n = num_n - sum_{k>=1} den_k out_{n-k}, as
        den(0) = 1, each summed onto 1/den(0) * num(0) * 0, the ring inversion gives."""
        num, den = self.num.coeffs, self.den.coeffs
        zero = (den[0] if isinstance(den[0], QPolynomial) else 1) * (num[0] if num else 0) * 0
        terms = [(k, -c) for k, c in enumerate(den[1:order + 1], start=1) if num and c != 0]
        out = []
        for n in range(order + 1):
            start = zero + num[n] if n < len(num) else zero
            out.append(sum([c * out[n - k] for k, c in terms if k <= n], start))
        return PowerSeries(out, order)

    def substitute_power(self, m):
        return RationalFunction(self.num.substitute_power(m), self.den.substitute_power(m))

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
        """
        def plain(p):
            out = []
            for c in p.coeffs:
                if isinstance(c, QPolynomial):
                    if c.degree > 0:
                        return None
                    c = c.constant()
                out.append(c)
            return Poly(out)

        top, bottom = plain(self.num), plain(self.den)
        if top is None or bottom is None or top.constant() != 1:
            return None
        bound = top.degree + bottom.degree
        factors = []
        d = 1
        while top != bottom:
            while top.coeff(d) == bottom.coeff(d):
                d += 1
            c = top.coeff(d) - bottom.coeff(d)
            if Fraction(c).denominator != 1 or abs(c) > bound or d > 2 * bound * bound:
                return None
            m = -int(c)
            if m > 0:
                bottom = (1 - Poly.u(d)) ** m * bottom
            else:
                top = (1 - Poly.u(d)) ** -m * top
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
    """prod (1-u^d)^m over an exponent map d -> m, times prod p^k over
    residual polynomials p that did not peel into such factors.

    The 1-u^d are multiplicatively independent, so the map is the
    canonical form of a binomial product: products and quotients add and
    subtract maps, and equality compares them.  Only a residual falls
    back to cross-multiplication.  `rational`, `expand`, `as_polynomial`
    and `str` are for output and the truncated cross-checks; `str` reads
    the map, with no peel.
    """

    __slots__ = ("exponents", "residual")

    def __init__(self, exponents=(), residual=()):
        self.exponents = {d: m for d, m in dict(exponents).items() if m}
        if any(not isinstance(d, int) or d < 1 for d in self.exponents):
            raise SeriesError("exponent map degrees must be positive integers")
        self.residual = {p: k for p, k in dict(residual).items() if k}

    @staticmethod
    def of_poly(poly, mult=1):
        """poly ** mult, by its exponent map when the exact peel finds one;
        otherwise poly stays as a residual factor."""
        factors = RationalFunction(poly).binomial_factors()
        if factors is None:
            return ExponentMap(residual={poly: mult})
        return ExponentMap({d: m * mult for d, m in factors})

    def __mul__(self, other):
        if not isinstance(other, ExponentMap):
            return NotImplemented
        return ExponentMap(_add_exponents(self.exponents, other.exponents),
                           _add_exponents(self.residual, other.residual))

    def inverse(self):
        return ExponentMap({d: -m for d, m in self.exponents.items()},
                           {p: -k for p, k in self.residual.items()})

    def __truediv__(self, other):
        if not isinstance(other, ExponentMap):
            return NotImplemented
        return self * other.inverse()

    def __eq__(self, other):
        if not isinstance(other, ExponentMap):
            return NotImplemented
        quotient = self / other
        if not quotient.residual:
            return not quotient.exponents
        rf = quotient.rational()
        return rf.num == rf.den

    # equal values can carry different residuals, so no hash
    __hash__ = None

    def first_difference(self, other):
        """The least d whose exponent differs between the two maps, or None."""
        keys = self.exponents.keys() | other.exponents.keys()
        return min((d for d in keys if self.exponents.get(d, 0) != other.exponents.get(d, 0)),
                   default=None)

    def substitute_power(self, m):
        """The product at u^m."""
        if m < 1:
            raise SeriesError("substitution power must be positive")
        return ExponentMap({d * m: e for d, e in self.exponents.items()},
                           {p.substitute_power(m): k for p, k in self.residual.items()})

    def expand(self, order):
        """Power series to u^order: the binomial series of the map, times
        the truncated residual factors."""
        series = PowerSeries(_dense(_binomial_series(self.exponents, order), order + 1), order)
        for p, k in self.residual.items():
            factor = p.truncate(order)
            if k < 0:
                factor = factor.inverse()
            for _ in range(abs(k)):
                series = series * factor
        return series

    def as_polynomial(self):
        """The product as a polynomial; every exponent must be positive."""
        if any(m < 0 for m in self.exponents.values()) or any(k < 0 for k in self.residual.values()):
            raise SeriesError("not a polynomial: %r" % (self,))
        top = sum(d * m for d, m in self.exponents.items())
        out = Poly(_dense(_binomial_series(self.exponents, top), top + 1))
        for p, k in self.residual.items():
            out = out * p ** k
        return out

    def rational(self):
        """Unreduced num/den: the positive factors expanded sparsely into
        num, the negative ones into den."""
        num = ExponentMap({d: m for d, m in self.exponents.items() if m > 0},
                          {p: k for p, k in self.residual.items() if k > 0})
        return RationalFunction(num.as_polynomial(), (num / self).as_polynomial())

    def __repr__(self):
        return "ExponentMap(%r, %r)" % (self.exponents, self.residual)

    def __str__(self):
        if self.residual:
            return str(self.rational())
        return _format_binomial_factors(sorted(self.exponents.items()))


def _binomial_series(exponents, top):
    """prod (1-u^d)^m over a map d -> m, up to u^top, as a sparse {e: c}
    map.  Each factor is its binomial series sum_j (-1)^j C(m, j) u^(d j),
    for either sign of m (it ends at j = m when m >= 0), multiplied in
    over the nonzero terms only."""
    terms = {0: 1}
    for d, m in sorted(exponents.items()):
        binom, c = [], 1
        for j in range(top // d + 1):
            if not c:
                break
            binom.append((d * j, c))
            c = c * (j - m) // (j + 1)
        prod = {}
        for a, x in terms.items():
            for s, y in binom:
                if a + s > top:
                    break
                prod[a + s] = prod.get(a + s, 0) + x * y
        terms = {e: c for e, c in prod.items() if c}
    return terms


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


def series_from_json(obj):
    rf = RationalFunction(
        Poly([scalar_from_json(v) for v in obj["num"]]),
        Poly([scalar_from_json(v) for v in obj["den"]]),
    )
    ps = PowerSeries([scalar_from_json(v) for v in obj["coeffs"]], obj["order"])
    return rf, ps


def det_series(ps, order=None):
    """Determinant of a matrix-valued power series with constant term I,
    truncated at u^order (by default the series' own order).

    Gaussian elimination over R[[u]]/(u^(order+1)).  The constant term is
    I, so every Schur complement has constant term I as well: each pivot
    is a unit series whose inverse needs only products and differences,
    and the determinant is the product of the pivots.  There is no pivot
    search and no division, so entries stay in their own ring (ints stay
    ints), and a 1x1 series is its single entry.
    """
    if order is None:
        order = ps.order
    if order > ps.order:
        raise SeriesError("cannot extend a truncated series")
    c0 = ps.coeffs[0]
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
    return det


def power_sum_exp(power_sums, order):
    """exp(sum_k p_k u^k / k) up to u^order from the power sums
    p_1, ..., p_order, by Newton's identities: e_0 = 1 and
    m e_m = sum_{k<=m} p_k e_{m-k}.  Each division by m is exact in the
    scalars' own ring where it can be, so int power sums of a series with
    int coefficients never make a Fraction."""
    out = [1]
    for m in range(1, order + 1):
        acc = 0
        for k in range(1, m + 1):
            acc = acc + power_sums[k - 1] * out[m - k]
        out.append(_divide_scalar(acc, m))
    return PowerSeries(out, order)


def signed_digits(packed, b, scale=1):
    """Digits in [-2^(b-1), 2^(b-1)) of a Kronecker-packed int, lowest
    first, each divided by scale: the unpack of every packed route."""
    digits = []
    top, mask = 1 << (b - 1), (1 << b) - 1
    for _ in range(packed.bit_length() // b + 1):
        digit = ((packed + top) & mask) - top
        digits.append(digit)
        packed = (packed - digit) >> b
    if packed:
        raise SeriesError("packed value has no signed base-2^%d digits" % b)
    return digits if scale == 1 else [_divide_scalar(d, scale) for d in digits]


def det_poly_matrix(rows):
    """Exact determinant of a square matrix of u-polynomials whose
    coefficients lie in one integral domain: Z[u], Q[u] or Z[q][u].

    One integer determinant by Kronecker substitution (von zur Gathen and
    Gerhard, Modern Computer Algebra, 8.4): row i is scaled by the lcm L_i
    of its denominators, and each entry packs into the int it takes at
    q = X, u = X^(D+1) with X = 2^b, where D, the sum over the rows of
    their largest q-degree, bounds the q-degree of every minor.  Every
    coefficient of every minor is at most B = prod_i max(1, sum_j |a_ij|_1)
    in absolute value (the product of the scaled rows' coefficient
    1-norms), and 2^(b-1) > B, so a polynomial packs to 0 only if it is 0
    and unpacks from its signed base-X digits.

    Bareiss's fraction-free elimination (Math. Comp. 22, 1968) then runs
    on the packed ints: after step k every entry below the pivot row is a
    (k+2)-minor, so the division by the previous pivot is exact, in Z[u]
    as in Z.  A zero pivot is swapped with a lower row that has a nonzero
    entry in its column, flipping the sign; with no such row the
    determinant is 0.  The result is divided by prod_i L_i.  Coefficients
    come out as ints where integral, else Fractions, and as QPolynomials
    when any entry has one; a matrix of size at most 1 returns its entry.
    """
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise SeriesError("determinant of a non-square matrix")
    if n <= 1:
        return Poly.coerce(rows[0][0]) if n else Poly.one()
    # each row as its nonzero terms (column, u-degree, q-degree, coefficient);
    # an int entry is its own constant term
    terms, over_q = [], False
    for r in rows:
        row = []
        for j, entry in enumerate(r):
            if type(entry) is int:
                if entry:
                    row.append((j, 0, 0, entry))
                continue
            for d, c in enumerate(Poly.coerce(entry).coeffs):
                if isinstance(c, QPolynomial):
                    over_q = True
                    row.extend((j, d, e, x) for e, x in enumerate(c.coeffs) if x)
                elif c:
                    row.append((j, d, 0, c))
        terms.append(row)
    bound, q_degree, scale = 1, 0, 1
    for i, row in enumerate(terms):
        if any(type(t[3]) is not int for t in row):
            lcm = math.lcm(*(t[3].denominator for t in row))
            terms[i] = row = [(j, d, e, int(c * lcm)) for j, d, e, c in row]
            scale *= lcm
        bound *= max(1, sum(abs(t[3]) for t in row))
        if over_q:
            q_degree += max((t[2] for t in row), default=0)
    b = bound.bit_length() + 1
    step = b * (q_degree + 1)
    a = []
    for row in terms:
        ints = [0] * n
        for j, d, e, c in row:
            ints[j] += c << (d * step + e * b)
        a.append(ints)
    sign, prev = 1, 1
    for k in range(n - 1):
        if not a[k][k]:
            swap = next((i for i in range(k + 1, n) if a[i][k]), None)
            if swap is None:
                return Poly.zero()
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
    digits = signed_digits(sign * a[-1][-1], b, scale)
    if not over_q:
        return Poly(digits)
    width = q_degree + 1
    coeffs = [QPolynomial(digits[i:i + width]) for i in range(0, len(digits), width)]
    return Poly([0 if c.is_zero() else c for c in coeffs])


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
# Poincare series of Coxeter groups (consumes coxeter tables)


def poincare_parabolic(table, gens):
    """Length generating polynomial of the finite parabolic subgroup
    generated by the given generator indices."""
    elements = table.parabolic_elements(gens)
    max_len = max(e.length for e in elements)
    counts = [0] * (max_len + 1)
    for e in elements:
        counts[e.length] += 1
    return Poly(counts)


def _require_affine(system):
    if not system.is_affine:
        raise SeriesError("Poincare series in closed form needs an affine system")


def poincare_affine(system, order, table=None):
    """Exact rational Poincare series of an affine system, plus its truncation.

    The rational function comes from the alternating sum over proper
    parabolic subgroups; the truncation is cross-checked against BFS layer
    counts when a table is supplied.
    """
    from . import coxeter

    _require_affine(system)
    if table is None:
        table = coxeter.enumerate_elements(system, order)
    k = system.num_generators
    gens = range(k)
    total = RationalFunction(Poly.zero())
    for size in range(k):
        for subset in combinations(gens, size):
            w_i = poincare_parabolic(table, subset)
            sign = (-1) ** (size + k + 1)
            total = total + RationalFunction(Poly((sign,)), w_i)
    rf = total.inverse()
    ps = rf.expand(order)
    layers = table.layer_sizes()
    for d in range(min(order, table.bound) + 1):
        if ps.coeff(d) != layers[d]:
            raise SeriesError(
                "affine Poincare series disagrees with BFS layers at degree %d" % d
            )
    return rf, ps


def alt_product_rational(system, table=None):
    """Alternating product of parabolic Poincare series over all subsets
    of the generators (the full group included via its rational series,
    checked against the table's layers up to 2k + 16)."""
    from . import coxeter

    _require_affine(system)  # before a finite group is enumerated
    k = system.num_generators
    order = 2 * k + 16
    if table is None:
        table = coxeter.enumerate_elements(system, order)
    rf_full, _ = poincare_affine(system, order, table)
    out = RationalFunction(Poly.one())
    for size in range(k + 1):
        for subset in combinations(range(k), size):
            if size == k:
                factor = rf_full
            else:
                factor = RationalFunction(poincare_parabolic(table, subset))
            exponent = (-1) ** (size + k)
            out = out * (factor if exponent == 1 else factor.inverse())
    return out
