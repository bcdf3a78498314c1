"""Rank-1 integration: the infinite dihedral apartment quotient is a cycle
graph, and the operator determinant identity specializes to the classical
edge-operator zeta formula.

Chambers of the line modulo k lattice translations form the edge set of
the 2k-cycle; right multiplication by the primitive rotation gives the
strip operator whose determinant reproduces the graph zeta function.
"""

from oracles import column_sums, cycle_graph, mat_identity, mat_mul
from weylzeta import coxeter, zeta
from weylzeta.series import Poly, RationalFunction
from weylzeta.zeta import ihara_zeta


def _shear_coords(delta, key):
    n = len(key)
    r = next(i for i in range(n) if delta[i] != 0)
    out = []
    for col in range(n):
        num = key[r][col] - (1 if r == col else 0)
        if num % delta[r]:
            return None
        t = num // delta[r]
        for a in range(n):
            if key[a][col] - (1 if a == col else 0) != t * delta[a]:
                return None
        out.append(t)
    return tuple(out)


class LineQuotient:
    """Chambers of the rank-1 apartment modulo k translation steps."""

    def __init__(self, k, bound=16):
        self.k = k
        self.system = coxeter.build_system("A1t")
        self.table = coxeter.enumerate_elements(self.system, bound)
        delta = self.system.delta
        taus = []
        for el in self.table.index.values():
            if el.length == 0:
                continue
            tau = _shear_coords(delta, self.system.word_matrix(el.word))
            if tau is not None:
                taus.append(tau)
        # one-dimensional lattice: the shortest shear generates it
        gen = min(taus, key=lambda t: max(abs(x) for x in t))
        assert all(t[0] * gen[1] == t[1] * gen[0] for t in taus)
        coord = 0 if gen[0] else 1
        assert all(t[coord] % gen[coord] == 0 for t in taus)
        self._gen = gen
        self._coord = coord
        w0 = self.table.parabolic_elements((0,))
        self._section = [self.system.word_matrix(el.word) for el in w0]
        self._section_inv = [self.system.word_matrix(reversed(el.word)) for el in w0]
        self._lin_index = {self._linear(kk): i for i, kk in enumerate(self._section)}
        start = self.system.word_matrix(())
        labels = {self.label(start): 0}
        reps = [start]
        frontier = [start]
        while frontier:
            nxt = []
            for key in frontier:
                for i in range(2):
                    nk = self.system.right_reflect(key, i)
                    lb = self.label(nk)
                    if lb not in labels:
                        labels[lb] = len(reps)
                        reps.append(nk)
                        nxt.append(nk)
            frontier = nxt
        assert len(reps) == 2 * self.k
        self.chambers = reps
        self._label_index = labels

    def _linear(self, key):
        delta = self.system.delta
        c = [key[a][0] for a in range(2)]
        t = c[1] // delta[1]
        return c[0] - t * delta[0]

    def label(self, key):
        j = self._lin_index[self._linear(key)]
        tau = _shear_coords(self.system.delta, mat_mul(key, self._section_inv[j]))
        return (j, (tau[self._coord] // self._gen[self._coord]) % self.k)

    def permutation(self, element):
        return tuple(
            self._label_index[self.label(mat_mul(key_c, self.system.word_matrix(element.word)))]
            for key_c in self.chambers
        )


def perm_char_poly(perm, shift):
    out = Poly.one()
    seen = [False] * len(perm)
    for i in range(len(perm)):
        if seen[i]:
            continue
        ln, j = 0, i
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            ln += 1
        d = ln * shift
        out = out * Poly((1,) + (0,) * (d - 1) + (-1,))
    return out


def test_line_quotient_realizes_cycle_zeta():
    for k in (2, 3, 4):
        lq = LineQuotient(k)
        t = lq.table
        # graph-side zeta of the 2k-cycle
        graph_inv = ihara_zeta(cycle_graph(2 * k), 4 * k).inverse_poly
        # operator side: rotation by the primitive even-length element
        rot = t.element_of_word((1, 0))
        det_rot = perm_char_poly(lq.permutation(rot), 2)
        assert det_rot == graph_inv
        # alternating product of the parabolic determinants through the
        # reduced factorization <s1> . {(s2 s1)^m} . <s2>
        d1 = perm_char_poly(lq.permutation(t.generator(0)), 1)
        d2 = perm_char_poly(lq.permutation(t.generator(1)), 1)
        det_full = (
            RationalFunction(d1)
            * RationalFunction(Poly.one(), det_rot)
            * RationalFunction(d2)
        )
        alt = det_full * (RationalFunction(d1) * RationalFunction(d2)).inverse()
        assert alt == RationalFunction(Poly.one(), graph_inv)


def test_line_factorization_is_length_additive():
    # every element splits uniquely as s1^a (s2 s1)^m s2^b with lengths adding
    lq = LineQuotient(2, bound=12)
    t = lq.table
    rot = lq.system.word_matrix(t.element_of_word((1, 0)).word)
    s1, s2 = (lq.system.word_matrix(t.generator(i).word) for i in (0, 1))
    seen = {}
    for a in (0, 1):
        for b in (0, 1):
            cur = mat_identity(2)
            for m in range(6):
                total = a + 2 * m + b
                if total > t.bound:
                    break
                key = cur
                if a:
                    key = mat_mul(s1, key)
                if b:
                    key = mat_mul(key, s2)
                el = t.element(column_sums(key))
                assert el.length == total
                assert key not in seen, "duplicate product"
                seen[key] = (a, m, b)
                cur = mat_mul(cur, rot)
    # completeness on the ball of radius 6
    count = sum(1 for el in seen if t.element(column_sums(el)).length <= 6)
    assert count == sum(len(layer) for layer in t.layers[:7])
