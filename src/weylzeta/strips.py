"""Rank-2 straight-strip combinatorics: the cyclic strip generators, the
power length additivity check, the explicit length-preserving
factorizations of the affine group, and the determinant identity relating
the two strip factors to the alternating product of parabolic series.
"""

import operator
from functools import cached_property, lru_cache, reduce

from . import coxeter as cox
from .hecke import twisted_group_sum
from .series import ExponentMap, _affine_maps


class StripsError(Exception):
    pass


# words in 0-based generator indices; s3 (index 2) is the affine reflection
_STRIP_WORDS = {
    "A2t": ((2, 1, 0), (2, 0, 1)),
    "C2t": ((2, 0, 1, 0), (2, 0, 1)),
    "G2t": ((2, 0, 1), (2, 0, 1, 0, 1)),
}

# the geometric strip stabilizer word for G2t before conjugating it into
# a power-length-additive generator; kept for the negative check
_G2T_RAW_WORD = (2, 0, 1, 2, 0)


class StripSpec:
    def __init__(self, type_tag, index, word, length):
        self.type_tag = type_tag
        self.index = index  # 1 or 2
        self.word = word
        self.length = length

    def __eq__(self, other):
        return other.__class__ is self.__class__ and vars(self) == vars(other)

    def __hash__(self):
        return hash(tuple(vars(self).values()))


@lru_cache(maxsize=None)
def strip_generators(type_tag):
    """The two straight-strip generators of a rank-2 affine type, with
    lengths verified against the geometric representation, once per type."""
    if type_tag not in _STRIP_WORDS:
        raise StripsError("no strip generators for type %r" % (type_tag,))
    system = cox.build_system(type_tag)
    out = []
    for idx, word in enumerate(_STRIP_WORDS[type_tag], start=1):
        length, _ = cox.length_and_word(system, system.word_key(word))
        if length != len(word):
            raise StripsError("strip word %r is not reduced" % (word,))
        out.append(StripSpec(type_tag, idx, word, length))
    return tuple(out)


def unreplaced_strip_generator():
    """The raw first strip-stabilizer generator of G2t (the one whose
    powers fail length additivity, motivating the conjugated word)."""
    system = cox.build_system("G2t")
    length, _ = cox.length_and_word(system, system.word_key(_G2T_RAW_WORD))
    return StripSpec("G2t", 1, _G2T_RAW_WORD, length)


class PowerLengthReport:
    def __init__(self, spec, k_max, ok, first_failure=None, lengths=None):
        # first_failure is (k, expected, actual); each report has its own lengths list
        self.spec, self.k_max, self.ok, self.first_failure = spec, k_max, ok, first_failure
        self.lengths = [] if lengths is None else lengths

    def as_json(self):
        return {
            "type": self.spec.type_tag,
            "word": [i + 1 for i in self.spec.word],
            "k_max": self.k_max,
            "pass": self.ok,
            "lengths": self.lengths,
            "first_failure": list(self.first_failure) if self.first_failure else None,
        }


def check_power_lengths(table, spec, k_max):
    """Check l(w^k) == k * l(w) for 0 <= k <= k_max.

    Each power walks the strip word on from the last.  Lengths come from
    the descent walk on the key.
    """
    key = table.identity.key
    report = PowerLengthReport(spec, k_max, True)
    for k in range(k_max + 1):
        expected = k * spec.length
        actual, _ = cox.length_and_word(table.system, key)
        report.lengths.append(actual)
        if actual != expected and report.ok:
            report.ok = False
            report.first_failure = (k, expected, actual)
        key = table.walk_key(key, spec.word)
    return report


# ---------------------------------------------------------------------------
# factorization schemes


class FactorizationScheme:
    """Ordered factor descriptors whose set product is the whole group.

    Factor kinds: ("coset", J, I, side), ("parabolic", gens),
    ("cyclic", strip_index).
    """

    def __init__(self, type_tag, factors):
        self.type_tag = type_tag
        self.factors = factors

    def __eq__(self, other):
        return other.__class__ is self.__class__ and vars(self) == vars(other)

    def __hash__(self):
        return hash(tuple(vars(self).values()))


def scheme_for(type_tag):
    if type_tag in ("A2t", "C2t"):
        factors = (
            ("coset", (0, 1), (1,), "right"),
            ("cyclic", 1),
            ("coset", (1, 2), (2,), "right"),
            ("cyclic", 2),
            ("coset", (0, 2), (0,), "left"),
        )
    elif type_tag == "G2t":
        # the census admits exactly one ordering of the two cyclic factors:
        # the long strip generator must precede the short one
        factors = (
            ("coset", (0, 1), (0,), "right"),
            ("cyclic", 2),
            ("cyclic", 1),
            ("parabolic", (0, 2)),
        )
    else:
        raise StripsError("no factorization scheme for type %r" % (type_tag,))
    return FactorizationScheme(type_tag, factors)


def realize_factors(table, scheme):
    """Resolve the abstract factor descriptors into element data.

    Returns a list of ("finite", elements) and ("cyclic", element) entries,
    in scheme order.
    """
    if table.system.type_tag != scheme.type_tag:
        raise StripsError("scheme %s applied to a %s table" % (scheme.type_tag, table.system.type_tag))
    specs = {s.index: s for s in strip_generators(scheme.type_tag)}
    out = []
    for factor in scheme.factors:
        kind = factor[0]
        if kind == "coset":
            _, J, I, side = factor
            out.append(("finite", cox.min_coset_reps(table, J, I, side)))
        elif kind == "parabolic":
            out.append(("finite", table.parabolic_elements(factor[1])))
        elif kind == "cyclic":
            spec = specs[factor[1]]
            out.append(("cyclic", table.element_of_word(spec.word)))
        else:
            raise StripsError("unknown factor kind %r" % (kind,))
    return out


class CensusReport:
    def __init__(self, type_tag, order, counts, expected, length_additive_ok, distinct_ok,
                 counts_ok, witness=None):
        self.type_tag, self.order, self.counts, self.expected = type_tag, order, counts, expected
        self.length_additive_ok, self.distinct_ok, self.counts_ok = length_additive_ok, distinct_ok, counts_ok
        self.witness = witness

    @property
    def ok(self):
        return self.length_additive_ok and self.distinct_ok and self.counts_ok

    def as_json(self):
        return {
            "type": self.type_tag,
            "scheme": "strip-factorization",
            "L": self.order,
            "slice_counts": self.counts,
            "expected_counts": self.expected,
            "pass": bool(self.ok),
            "witness": self.witness,
        }


def factorization_census(table, scheme, order):
    """Enumerate all factor tuples of total length <= order and check that
    the factorization is length preserving, injective, and complete.

    (a) every product has length equal to the sum of factor lengths;
    (b) distinct tuples give distinct products;
    (c) the number of tuples of total length k equals the coefficient of
        u^k in the Poincare series of the group.
    """
    if order > table.bound:
        raise StripsError("order exceeds the table bound")
    # every factor element as its (length, word) pair: each word is checked
    # once here and then walked one unchecked step a letter
    system, multiply = table.system, table.right_multiply_key
    factors = [(kind, [(el.length, system.checked_word(el.word)) for el in data] if kind == "finite"
                else (data.length, system.checked_word(data.word)))
               for kind, data in realize_factors(table, scheme)]

    def walk(key, word):
        for s in word:
            key = multiply(key, s)
        return key

    counts = [0] * (order + 1)
    seen = {}
    report = CensusReport(scheme.type_tag, order, counts, [], True, True, True)

    def witness(kind, tup, extra):
        if report.witness is None:
            report.witness = {
                "check": kind,
                "tuple": [[i + 1 for i in w] for w in tup],
                **extra,
            }

    def descend(i, key, total, words):
        if i == len(factors):
            el = table.element(key)
            if el.length != total and report.length_additive_ok:
                report.length_additive_ok = False
                witness("length", words, {"expected": total, "actual": el.length})
            if key in seen:
                report.distinct_ok = False
                witness("distinct", words, {"collides_with": [[i + 1 for i in w] for w in seen[key]]})
            else:
                seen[key] = words
            counts[total] += 1
            return
        kind, data = factors[i]
        if kind == "finite":
            for length, word in data:
                if total + length <= order:
                    descend(i + 1, walk(key, word), total + length, words + (word,))
        else:
            step, word = data
            cur = key
            k = 0
            while total + k * step <= order:
                descend(i + 1, cur, total + k * step, words + (word * k,))
                cur = walk(cur, word)
                k += 1

    descend(0, table.identity.key, 0, ())
    _, _, ps = _affine_maps(system, order, table)
    report.expected = [ps.coeff(d) for d in range(order + 1)]
    if counts != report.expected:
        report.counts_ok = False
        if report.witness is None:
            bad = next(d for d in range(order + 1) if counts[d] != report.expected[d])
            report.witness = {"check": "counts", "degree": bad,
                              "expected": report.expected[bad], "actual": counts[bad]}
    return report


# ---------------------------------------------------------------------------
# twisted factorization at the series level


class TwistedFactorizationReport:
    def __init__(self, type_tag, order, ok, first_mismatch=None):
        self.type_tag, self.order, self.ok, self.first_mismatch = type_tag, order, ok, first_mismatch

    def as_json(self):
        return {
            "type": self.type_tag,
            "L": self.order,
            "pass": bool(self.ok),
            "first_mismatch_degree": self.first_mismatch,
        }


def verify_twisted_factorization(table, scheme, rep, order):
    """Check that the ordered product of the twisted factor series equals
    the twisted series of the whole group, each by the representation's route."""
    if order > table.bound:
        raise StripsError("order exceeds the table bound")
    product = None
    for kind, data in realize_factors(table, scheme):
        ts = rep.finite_series(data, order) if kind == "finite" else rep.cyclic_series(data, order)
        product = ts if product is None else product * ts
    direct = twisted_group_sum(rep, table, order)
    report = TwistedFactorizationReport(scheme.type_tag, order, True)
    for d in range(order + 1):
        if not (product.coeffs[d] == direct.coeffs[d]):
            report.ok = False
            report.first_mismatch = d
            break
    return report


# ---------------------------------------------------------------------------
# the determinant identity


class DetIdentityReport:
    """`strip_dets` takes the two strip determinant factors, each an
    ExponentMap or a RationalFunction, and reads back as polynomials,
    expanded when first read."""

    def __init__(self, type_tag, ok, strip_dets, alt_det, dual_check_order, dual_check_ok,
                 witness=None):
        self.type_tag, self.ok, self._strip_factors = type_tag, ok, strip_dets
        self.alt_det = alt_det  # a RationalFunction or an ExponentMap
        self.dual_check_order, self.dual_check_ok = dual_check_order, dual_check_ok
        self.witness = witness  # None on a pass

    def as_json(self):
        out = {
            "type": self.type_tag,
            "pass": bool(self.ok),
            "strip_det_inverses": [str(p) for p in self.strip_dets],
            "alt_det": str(self.alt_det),
            "dual_check": {"order": self.dual_check_order, "pass": bool(self.dual_check_ok)},
        }
        if self.witness is not None:
            out["witness"] = self.witness
        return out

    @cached_property
    def strip_dets(self):
        return [det.as_polynomial() for det in self._strip_factors]


def check_identity_type(system):
    """Raise StripsError unless the system is a rank-2 affine type with strip generators."""
    if system.type_tag not in _STRIP_WORDS:
        raise StripsError("determinant identity applies to rank-2 affine types")


def verify_determinant_identity(system, rep, table=None):
    """Exact check that the product of the two inverse strip determinants
    equals the alternating product of twisted parabolic determinants.

    Each determinant is a factor of the representation: a RationalFunction
    for a dense representation, an ExponentMap on the torus, where the
    products and the comparison are sums and comparisons of maps.  The
    full-group factor of the alternating product is obtained through the
    length-preserving factorization; as an independent route its truncated
    expansion is compared with the representation's det_series_hook, the
    determinant of the truncated group series summed over the ball.  A
    failure records a witness: the check that failed, the first degree
    where its two sides differ (for the identity, the first d whose
    (1-u^d) exponents differ, when both sides are maps), and the form of
    each factor.
    """
    check_identity_type(system)
    if table is None:
        table = cox.enumerate_elements(system, cox.DEFAULT_BOUND)
    scheme = scheme_for(system.type_tag)
    named = [
        ("factor %d (%s)" % (i, kind), kind, rep.finite_det_factor(data) if kind == "finite"
         else rep.cyclic_det_factor(data))
        for i, (kind, data) in enumerate(realize_factors(table, scheme), start=1)
    ]

    # determinants of the two cyclic strip factors: det(I - A_i u^{l_i})
    strip_factors = [det for _name, kind, det in named if kind == "cyclic"]
    lhs = reduce(operator.mul, strip_factors).inverse()

    # det of the full-group twisted series, through the factorization
    det_full = reduce(operator.mul, (det if kind == "finite" else det.inverse()
                                     for _name, kind, det in named))

    # independent truncated route for the full-group determinant
    dual_check_order = 8 if rep.dim <= 8 else 6
    truncated = rep.det_series_hook(table, dual_check_order)
    expanded = det_full.expand(dual_check_order)
    dual_ok = truncated == expanded

    # alternating product over all parabolic subsets; the full subset,
    # det_full, enters with exponent +1
    k = system.num_generators
    alt = det_full
    for subset in cox.all_proper_subsets(k):
        d_i = rep.finite_det_factor(table.parabolic_elements(subset))
        named.append(("parabolic {%s}" % ",".join(str(i + 1) for i in subset), "finite", d_i))
        alt = alt * (d_i if (len(subset) + k) % 2 == 0 else d_i.inverse())

    identity_ok = lhs == alt
    witness = None
    if not dual_ok:
        degree = next(d for d in range(dual_check_order + 1)
                      if truncated.coeffs[d] != expanded.coeffs[d])
        witness = {"check": "dual", "degree": degree,
                   "lhs": str(truncated.coeffs[degree]), "rhs": str(expanded.coeffs[degree])}
    elif not identity_ok:
        witness = exponent_witness("identity", lhs, alt)
    if witness is not None:
        witness["factors"] = [{"factor": name, "form": _factor_form(det)} for name, _kind, det in named]
    return DetIdentityReport(system.type_tag, dual_ok and identity_ok, strip_factors, alt,
                             dual_check_order, dual_ok, witness)


def exponent_witness(check, lhs, rhs):
    """Witness of a failed check of lhs == rhs: the first d whose (1-u^d)
    exponents differ, when both sides are exponent maps; no degree
    otherwise."""
    if isinstance(rhs, ExponentMap):
        degree = lhs.first_difference(rhs)
        return {"check": check, "degree": degree,
                "lhs": lhs.exponents.get(degree, 0), "rhs": rhs.exponents.get(degree, 0)}
    return {"check": check, "degree": None}


def _factor_form(det):
    return "exponent map" if isinstance(det, ExponentMap) else "rational function"
