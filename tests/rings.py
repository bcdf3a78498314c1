"""The scalar rings that the int-row tests draw from, and the one type
rule that every route on common-denominator int rows follows (documented
in series above `_int_rows`): every coefficient of a result takes one
kind, the widest among its operands' coefficients (QPolynomial over
Fraction over int; a QPolynomial's own coefficients are Fractions when
any value is one).  An oracle promotes position by position, so its
values are brought under that rule before two type lists are compared."""

from fractions import Fraction

from hypothesis import strategies as st

from weylzeta.series import QPolynomial

whole_fractions = st.integers(-3, 3).map(Fraction)
ring_values = {
    "Z": st.integers(-5, 5),
    "Q": st.one_of(st.fractions(min_value=-4, max_value=4, max_denominator=6), whole_fractions),
    "Z[q]": st.lists(st.integers(-4, 4), max_size=4).map(QPolynomial),
    "Q[q]": st.lists(st.one_of(st.fractions(min_value=-3, max_value=3, max_denominator=4), whole_fractions),
                     max_size=4).map(QPolynomial),
}
ring_values["mixed"] = st.one_of(*ring_values.values())
ring_units = {"Z": st.sampled_from((1, -1, 2, -3)), "Q": st.fractions(min_value=-3, max_value=3).filter(bool),
              "Z[q]": st.sampled_from((1, -2)).map(lambda c: QPolynomial((c,)))}
ring_units.update({"Q[q]": ring_units["Z[q]"], "mixed": st.one_of(*ring_units.values())})
rings = sorted(ring_values)


def scalars_of(values):
    """The int and Fraction scalars of values, a QPolynomial's coefficients included."""
    return [x for c in values for x in (c.coeffs if isinstance(c, QPolynomial) else (c,))]


def rule_kind(values):
    """The (coefficient type, q-coefficient type) the rule gives a result
    whose operands have these coefficients."""
    inner = Fraction if any(isinstance(x, Fraction) for x in scalars_of(values)) else int
    return (QPolynomial if any(isinstance(c, QPolynomial) for c in values) else inner), inner


def _under_rule(c, kind):
    outer, inner = kind
    return QPolynomial([inner(x) for x in QPolynomial.coerce(c).coeffs]) if outer is QPolynomial else outer(c)


def _types(values):
    return [(type(c), tuple(map(type, c.coeffs)) if isinstance(c, QPolynomial) else ()) for c in values]


def assert_rule(got, want, kind):
    """got equals want value by value, and its types are want's under the rule."""
    assert list(got) == list(want)
    assert _types(got) == _types([_under_rule(c, kind) for c in want])
