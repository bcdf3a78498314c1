"""Exact coefficient arithmetic: q-polynomials, truncated power series,
rational functions, determinants, and Poincare series of Coxeter groups.

All arithmetic is exact.  Scalars are Python ints, fractions.Fraction, or
QPolynomial (integer/rational coefficients in a formal parameter q).
Nothing here ever touches floating point.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations


class SeriesError(Exception):
    pass


def _is_scalar(x):
    return isinstance(x, (int, Fraction, QPolynomial))


def scalar_zero_like(x):
    if isinstance(x, QPolynomial):
        return QPolynomial.zero()
    if isinstance(x, Matrix):
        return Matrix.zeros(x.nrows, x.ncols)
    return x * 0


def scalar_one_like(x):
    if isinstance(x, QPolynomial):
        return QPolynomial.one()
    if isinstance(x, Matrix):
        return Matrix.identity(x.nrows)
    return x * 0 + 1


def _is_zero(x):
    if isinstance(x, Matrix):
        return x.is_zero()
    return x == 0


# ---------------------------------------------------------------------------
# polynomials in the formal Hecke parameter q


class QPolynomial:
    """Polynomial in the formal parameter q with int/Fraction coefficients.

    Coefficients are stored densely by degree with trailing zeros pruned,
    so equal polynomials have equal tuples.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @staticmethod
    def zero():
        return QPolynomial(())

    @staticmethod
    def one():
        return QPolynomial((1,))

    @staticmethod
    def q(power=1):
        return QPolynomial((0,) * power + (1,))

    @staticmethod
    def coerce(x):
        if isinstance(x, QPolynomial):
            return x
        if isinstance(x, (int, Fraction)):
            return QPolynomial((x,))
        raise TypeError("cannot coerce %r into a q-polynomial" % (x,))

    @property
    def degree(self):
        return len(self.coeffs) - 1

    def is_zero(self):
        return not self.coeffs

    def constant(self):
        return self.coeffs[0] if self.coeffs else 0

    def __add__(self, other):
        try:
            other = QPolynomial.coerce(other)
        except TypeError:
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = out[i] + c
        return QPolynomial(out)

    __radd__ = __add__

    def __neg__(self):
        return QPolynomial(tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        try:
            other = QPolynomial.coerce(other)
        except TypeError:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return QPolynomial.coerce(other) - self

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return QPolynomial(tuple(c * other for c in self.coeffs))
        if not isinstance(other, QPolynomial):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return QPolynomial(())
        out = [0] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca == 0:
                continue
            for j, cb in enumerate(b):
                out[i + j] += ca * cb
        return QPolynomial(out)

    __rmul__ = __mul__

    def __pow__(self, n):
        if n < 0:
            raise SeriesError("negative power of a q-polynomial")
        out = QPolynomial.one()
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __eq__(self, other):
        try:
            other = QPolynomial.coerce(other)
        except TypeError:
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        if len(self.coeffs) <= 1:
            return hash(self.constant())
        return hash(self.coeffs)

    def evaluate(self, value):
        out = 0
        for c in reversed(self.coeffs):
            out = out * value + c
        return out

    def exact_div(self, other):
        """Exact polynomial division; raises if the remainder is nonzero."""
        other = QPolynomial.coerce(other)
        if other.is_zero():
            raise ZeroDivisionError("q-polynomial division by zero")
        rem = list(self.coeffs)
        lead = other.coeffs[-1]
        dq = other.degree
        out = [0] * max(len(rem) - dq, 0)
        for i in range(len(rem) - 1, dq - 1, -1):
            c = rem[i]
            if c == 0:
                continue
            f = Fraction(c, 1) / lead if not isinstance(c, Fraction) else c / lead
            if f.denominator == 1:
                f = f.numerator
            out[i - dq] = f
            for j, oc in enumerate(other.coeffs):
                rem[i - dq + j] -= f * oc
        if any(c != 0 for c in rem):
            raise SeriesError("inexact q-polynomial division")
        return QPolynomial(out)

    def __repr__(self):
        return "QPolynomial(%r)" % (list(self.coeffs),)

    def __str__(self):
        return format_poly(self.coeffs, "q")


def format_poly(coeffs, var):
    if not coeffs:
        return "0"
    parts = []
    for d, c in enumerate(coeffs):
        if _is_zero(c):
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


# ---------------------------------------------------------------------------
# dense polynomials in the series variable u


class Poly:
    """Polynomial in the series variable u.

    Coefficients may be ints, Fractions, QPolynomials, or Matrix values,
    mixed freely as long as they live in one commutative ring.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = list(coeffs)
        while cs and _is_zero(cs[-1]):
            cs.pop()
        self.coeffs = tuple(cs)

    @staticmethod
    def zero():
        return Poly(())

    @staticmethod
    def one():
        return Poly((1,))

    @staticmethod
    def u(power=1, coeff=1):
        return Poly((0,) * power + (coeff,))

    @staticmethod
    def coerce(x):
        if isinstance(x, Poly):
            return x
        if _is_scalar(x) or isinstance(x, Matrix):
            return Poly((x,))
        raise TypeError("cannot coerce %r into a u-polynomial" % (x,))

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
            other = Poly.coerce(other)
        except TypeError:
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = out[i] + c
        return Poly(out)

    __radd__ = __add__

    def __neg__(self):
        return Poly(tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        try:
            other = Poly.coerce(other)
        except TypeError:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return Poly.coerce(other) - self

    def __mul__(self, other):
        if _is_scalar(other) or isinstance(other, Matrix):
            return Poly(tuple(c * other for c in self.coeffs))
        if not isinstance(other, Poly):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return Poly(())
        out = [None] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if _is_zero(ca):
                continue
            for j, cb in enumerate(b):
                t = ca * cb
                out[i + j] = t if out[i + j] is None else out[i + j] + t
        z = scalar_zero_like(a[0] * b[0])
        return Poly(tuple(z if c is None else c for c in out))

    def __rmul__(self, other):
        if _is_scalar(other) or isinstance(other, Matrix):
            return Poly(tuple(other * c for c in self.coeffs))
        return NotImplemented

    def __pow__(self, n):
        if n < 0:
            raise SeriesError("negative power of a polynomial")
        out = Poly.one()
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __eq__(self, other):
        try:
            other = Poly.coerce(other)
        except TypeError:
            return NotImplemented
        if len(self.coeffs) != len(other.coeffs):
            return False
        return all(a == b for a, b in zip(self.coeffs, other.coeffs))

    def __hash__(self):
        return hash(self.coeffs)

    def evaluate(self, value):
        """Horner evaluation at a scalar value of u."""
        if not self.coeffs:
            return 0
        out = scalar_zero_like(self.coeffs[0])
        for c in reversed(self.coeffs):
            out = out * value + c
        return out

    def substitute_power(self, m):
        """The polynomial p(u^m)."""
        if m < 1:
            raise SeriesError("substitution power must be positive")
        out = []
        for c in self.coeffs:
            out.append(c)
            out.extend([scalar_zero_like(c)] * (m - 1))
        return Poly(out[: (self.degree * m + 1)] if self.coeffs else ())

    def truncate(self, order):
        cs = list(self.coeffs[: order + 1])
        z = scalar_zero_like(self.coeffs[0]) if self.coeffs else 0
        cs += [z] * (order + 1 - len(cs))
        return PowerSeries(cs, order)

    def exact_div(self, other):
        """Exact division by another polynomial; raises on nonzero remainder."""
        other = Poly.coerce(other)
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        lead = other.coeffs[-1]
        dq = other.degree
        out = [0] * max(len(rem) - dq, 0)
        for i in range(len(rem) - 1, dq - 1, -1):
            c = rem[i]
            if _is_zero(c):
                continue
            f = _divide_scalar(c, lead)
            out[i - dq] = f
            for j, oc in enumerate(other.coeffs):
                rem[i - dq + j] = rem[i - dq + j] - f * oc
        if any(not _is_zero(c) for c in rem):
            raise SeriesError("inexact polynomial division")
        return Poly(out)

    def __repr__(self):
        return "Poly(%r)" % (list(self.coeffs),)

    def __str__(self):
        return format_poly(self.coeffs, "u")


def _divide_scalar(a, b):
    """Exact scalar division a / b in whatever ring the scalars live in."""
    if isinstance(a, QPolynomial) or isinstance(b, QPolynomial):
        return QPolynomial.coerce(a).exact_div(b)
    f = Fraction(a) / Fraction(b)
    return f.numerator if f.denominator == 1 else f


def _shifted_log_derivative(p):
    """-u p'/p as a rational function (denominator constant term is p(0))."""
    deriv = Poly([i * c for i, c in enumerate(p.coeffs)][1:])
    return RationalFunction(-Poly((0, 1)) * deriv, p)


def _poly_gcd_rational(a, b):
    """Monic gcd of u-polynomials with int/Fraction coefficients."""
    fa = Poly([Fraction(c) for c in a.coeffs])
    fb = Poly([Fraction(c) for c in b.coeffs])
    while not fb.is_zero():
        fa, fb = fb, _poly_mod(fa, fb)
    if fa.is_zero():
        return Poly.one()
    lead = fa.coeffs[-1]
    monic = Poly([c / lead for c in fa.coeffs])
    return Poly(_normalize_fractions(list(monic.coeffs)))


def _poly_mod(a, b):
    rem = list(a.coeffs)
    lead = b.coeffs[-1]
    db = b.degree
    for i in range(len(rem) - 1, db - 1, -1):
        c = rem[i]
        if c == 0:
            continue
        f = c / lead
        for j, bc in enumerate(b.coeffs):
            rem[i - db + j] -= f * bc
    return Poly(rem[:db])


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
        if _is_scalar(other):
            return Matrix(tuple(tuple(a * other for a in r) for r in self.rows))
        return NotImplemented

    def __rmul__(self, other):
        if _is_scalar(other):
            return Matrix(tuple(tuple(other * a for a in r) for r in self.rows))
        return NotImplemented

    def __pow__(self, n):
        if n < 0:
            raise SeriesError("negative matrix power")
        out = Matrix.identity(self.nrows, scalar_one_like(self.rows[0][0]))
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

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
        if _is_scalar(other) or isinstance(other, Matrix):
            return Poly.coerce(other).truncate(self.order)
        raise TypeError("cannot combine %r with a power series" % (other,))

    def __mul__(self, other):
        if _is_scalar(other):
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

    Normalised so that den(0) == 1.  Equality is tested by cross
    multiplication, which is exact over any integral coefficient domain.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den=Poly((1,))):
        num = Poly.coerce(num)
        den = Poly.coerce(den)
        c0 = den.constant()
        if _is_zero(c0):
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
        if n < 0:
            return RationalFunction(self.den, self.num) ** (-n)
        out = RationalFunction(Poly.one())
        for _ in range(n):
            out = out * self
        return out

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
        return self.den.truncate(order).inverse() * self.num.truncate(order)

    def substitute_power(self, m):
        return RationalFunction(self.num.substitute_power(m), self.den.substitute_power(m))

    def is_polynomial(self):
        try:
            self.num.exact_div(self.den)
            return True
        except SeriesError:
            return False

    def as_polynomial(self):
        return self.num.exact_div(self.den)

    def reduced(self):
        """Cancel the num/den gcd (rational coefficients only)."""
        if any(
            isinstance(c, (QPolynomial, Matrix))
            for p in (self.num, self.den)
            for c in p.coeffs
        ):
            return self
        g = _poly_gcd_rational(self.num, self.den)
        if g.degree < 1:
            return self
        return RationalFunction(self.num.exact_div(g), self.den.exact_div(g))

    def binomial_factors(self):
        """Write the rational function as a product of (1-u^d)^m factors.

        Returns a sorted list of (d, m) with m positive or negative, or
        None when no such factorisation exists.  Works through the
        logarithmic derivative: -u f'/f of such a product has n-th
        coefficient sum of d*m_d over d dividing n, which peels off the
        multiplicities; the candidate is then verified exactly.
        """
        def plain(p):
            out = []
            for c in p.coeffs:
                if isinstance(c, Matrix):
                    return None
                if isinstance(c, QPolynomial):
                    if c.degree > 0:
                        return None
                    c = c.constant()
                out.append(c)
            return Poly(out)

        num, den = plain(self.num), plain(self.den)
        if num is None or den is None:
            return None
        red = RationalFunction(num, den).reduced()
        if red.num.constant() != 1:
            return None
        # generous degree heuristic; cyclotomic cancellation can push the
        # largest factor beyond the reduced degrees, and the final exact
        # verification rejects anything the peeling got wrong
        bound = 2 * (red.num.degree + red.den.degree)
        if bound == 0:
            return [] if red.num == red.den else None
        log_der = _shifted_log_derivative(red.num).expand(bound) - _shifted_log_derivative(red.den).expand(bound)
        mults = {}
        for d in range(1, bound + 1):
            acc = sum(e * m for e, m in mults.items() if d % e == 0)
            v = log_der.coeff(d) - acc
            if isinstance(v, Fraction):
                if v.denominator != 1:
                    return None
                v = v.numerator
            if v % d:
                return None
            if v:
                mults[d] = v // d
        candidate = RationalFunction(Poly.one())
        for d, m in mults.items():
            candidate = candidate * RationalFunction(Poly((1,) + (0,) * (d - 1) + (-1,))) ** m
        if not (candidate == red):
            return None
        return sorted(mults.items())

    def __repr__(self):
        return "RationalFunction(%r, %r)" % (self.num, self.den)

    def __str__(self):
        facs = self.binomial_factors()
        if facs is not None:
            if not facs:
                return "1"
            ups = [
                ("(1-u^%d)" % d if d > 1 else "(1-u)") + ("^%d" % m if m > 1 else "")
                for d, m in facs
                if m > 0
            ]
            downs = [
                ("(1-u^%d)" % d if d > 1 else "(1-u)") + ("^%d" % -m if m < -1 else "")
                for d, m in facs
                if m < 0
            ]
            num = "".join(ups) or "1"
            return num + (" / " + "".join(downs) if downs else "")
        return "(%s) / (%s)" % (self.num, self.den)


# ---------------------------------------------------------------------------
# determinants


def _scalar_to_json(c):
    if isinstance(c, Fraction):
        return c.numerator if c.denominator == 1 else [c.numerator, c.denominator]
    if isinstance(c, int):
        return c
    raise SeriesError("only integer/rational entries serialize to JSON")


def _scalar_from_json(v):
    if isinstance(v, list):
        f = Fraction(v[0], v[1])
        return f.numerator if f.denominator == 1 else f
    return v


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
        Poly([_scalar_from_json(v) for v in obj["num"]]),
        Poly([_scalar_from_json(v) for v in obj["den"]]),
    )
    ps = PowerSeries([_scalar_from_json(v) for v in obj["coeffs"]], obj["order"])
    return rf, ps


def det_series(ps, order=None):
    """Determinant of a matrix-valued power series via trace-log expansion.

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
    """exp of a scalar series with zero constant term."""
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


def det_poly_matrix(rows):
    """Exact determinant of a square matrix of u-polynomials.

    Interpolation at integer points with fraction-free elimination when the
    coefficients are rational; division-free expansion over q-polynomial
    coefficients.
    """
    n = len(rows)
    if n == 0:
        return Poly.one()
    rows = [[Poly.coerce(e) for e in r] for r in rows]
    if any(len(r) != n for r in rows):
        raise SeriesError("determinant of a non-square matrix")
    if n == 1:
        return rows[0][0]
    has_qpoly = any(
        isinstance(c, QPolynomial) for r in rows for e in r for c in e.coeffs
    )
    if has_qpoly:
        return _det_berkowitz(rows)
    deg_bound = sum(max((e.degree for e in r if not e.is_zero()), default=0) for r in rows)
    points = _interp_points(deg_bound + 1)
    values = []
    for x in points:
        mat = [[Fraction(e.evaluate(x)) for e in r] for r in rows]
        values.append(_det_fraction_matrix(mat))
    return _interpolate(points, values)


def _interp_points(count):
    pts = [0]
    k = 1
    while len(pts) < count:
        pts.append(k)
        if len(pts) < count:
            pts.append(-k)
        k += 1
    return pts[:count]


def _det_fraction_matrix(mat):
    """Bareiss fraction-free determinant over Fractions cleared to ints."""
    n = len(mat)
    scale = Fraction(1)
    rows = []
    for r in mat:
        den = 1
        for e in r:
            den = den * e.denominator // _gcd(den, e.denominator)
        scale /= den
        rows.append([int(e * den) for e in r])
    prev = 1
    sign = 1
    for k in range(n - 1):
        if rows[k][k] == 0:
            for i in range(k + 1, n):
                if rows[i][k] != 0:
                    rows[k], rows[i] = rows[i], rows[k]
                    sign = -sign
                    break
            else:
                return Fraction(0)
        pk = rows[k][k]
        for i in range(k + 1, n):
            rik = rows[i][k]
            for j in range(k + 1, n):
                rows[i][j] = (rows[i][j] * pk - rik * rows[k][j]) // prev
            rows[i][k] = 0
        prev = pk
    return sign * scale * rows[n - 1][n - 1]


def _gcd(a, b):
    while b:
        a, b = b, a % b
    return a if a > 0 else -a


def _interpolate(points, values):
    """Newton interpolation returning an exact Poly with int/Fraction coeffs."""
    n = len(points)
    table = [Fraction(v) for v in values]
    coeffs_newton = [table[0]]
    for level in range(1, n):
        for i in range(n - level):
            table[i] = (table[i + 1] - table[i]) / (points[i + level] - points[i])
        coeffs_newton.append(table[0])
    poly = Poly((coeffs_newton[-1],))
    for k in range(n - 2, -1, -1):
        poly = poly * Poly((-points[k], 1)) + Poly((coeffs_newton[k],))
    return Poly(_normalize_fractions(list(poly.coeffs)))


def _det_berkowitz(rows):
    """Division-free determinant (works over any commutative ring)."""
    n = len(rows)
    one = Poly.one()
    zero = Poly.zero()
    # Berkowitz: iteratively build the characteristic-polynomial vector of
    # leading principal submatrices; determinant is the last entry up to sign.
    vec = [one, -rows[0][0]]
    for m in range(1, n):
        a = rows[m][m]
        row = [Poly.coerce(rows[m][j]) for j in range(m)]
        col = [Poly.coerce(rows[j][m]) for j in range(m)]
        sub = [[Poly.coerce(rows[i][j]) for j in range(m)] for i in range(m)]
        powers = [col]
        for _ in range(m - 1):
            prev = powers[-1]
            powers.append([
                sum((sub[i][j] * prev[j] for j in range(m)), zero) for i in range(m)
            ])
        c = [one, -a]
        for k in range(1, m + 1):
            dot = sum((row[j] * powers[k - 1][j] for j in range(m)), zero)
            c.append(-dot)
        new = [zero] * (m + 2)
        for i, ci in enumerate(c):
            if ci.is_zero():
                continue
            for j, vj in enumerate(vec):
                if i + j <= m + 1:
                    new[i + j] = new[i + j] + ci * vj
        # toeplitz multiply truncates correctly because len(vec) == m+1
        vec = new
    det = vec[n]
    return det if n % 2 == 0 else -det


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


def poincare_affine(system, order, table=None):
    """Exact rational Poincare series of an affine system, plus its truncation.

    The rational function comes from the alternating sum over proper
    parabolic subgroups; the truncation is cross-checked against BFS layer
    counts when a table is supplied.
    """
    from . import coxeter

    if not system.is_affine:
        raise SeriesError("Poincare series in closed form needs an affine system")
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


def alt_product_rational(system, table=None, order=None):
    """Alternating product of parabolic Poincare series over all subsets
    of the generators (the full group included via its rational series)."""
    from . import coxeter

    k = system.num_generators
    if order is None:
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
