"""The graded ring in ``Fraction`` arithmetic, as an oracle for the integer one.

``GradedRing`` and ``_poly_mul`` below are the implementation that
``topfan.invariants`` used before its arithmetic became integer, kept as they
were: every substitution form, degree row and reduction is a dict or list of
``Fraction``s, and the rows are reduced by ``tests/rref_oracle.py``'s dense
``Fraction`` elimination.  ``tests/test_invariants.py`` holds ranks, bases
and reductions of the production ring against it.
"""

from fractions import Fraction
from itertools import combinations_with_replacement

from topfan.invariants import CohomPresentation
from tests.rref_oracle import dense_rref


class GradedRing:
    """Exact graded model of the cohomology ring of a fan.

    The linear relations eliminate one pivot generator per ambient coordinate
    (pivots are the lowest-index generators); the ring then lives on the
    surviving generators modulo the substituted non-face monomials.  Per
    degree we keep a reduced row basis for the ideal and a monomial basis of
    the quotient; squarefree monomials are preferred as basis representatives.
    """

    def __init__(self, presentation: CohomPresentation):
        self.m = presentation.m
        reduced, pivots = dense_rref(presentation.relation_matrix)
        if len(pivots) != len(presentation.relation_matrix):
            raise ValueError("linear relations are degenerate")
        self.pivots = pivots  # 0-based generator indices eliminated by relations
        self.survivors = [j for j in range(self.m) if j not in pivots]
        # substitution: pivot generator -> linear form over survivors
        self.substitution = {}
        for r, p in enumerate(pivots):
            form = {}
            for pos, j in enumerate(self.survivors):
                coeff = -reduced[r][j]
                if coeff != 0:
                    form[pos] = coeff
            self.substitution[p] = form
        self.sr_polynomials = [
            self._substitute_monomial({i - 1: 1 for i in mono})
            for mono in presentation.sr_monomials
        ]
        self._degree_cache = {}

    # -- polynomials over survivors: dict exponent tuple -> Fraction ---------

    def _substitute_monomial(self, exponents):
        """Rewrite a monomial over all generators into survivor coordinates."""
        s = len(self.survivors)
        poly = {(0,) * s: Fraction(1)}
        survivor_pos = {j: pos for pos, j in enumerate(self.survivors)}
        for gen, power in exponents.items():
            if power == 0:
                continue
            if gen in survivor_pos:
                factor = {tuple(power if k == survivor_pos[gen] else 0
                                for k in range(s)): Fraction(1)}
                poly = _poly_mul(poly, factor)
            else:
                linear = {}
                for pos, coeff in self.substitution[gen].items():
                    mono = tuple(1 if k == pos else 0 for k in range(s))
                    linear[mono] = coeff
                for _ in range(power):
                    poly = _poly_mul(poly, linear)
        return poly

    def _monomials_of_degree(self, k):
        s = len(self.survivors)
        if s == 0:
            return [()] if k == 0 else []
        out = []
        for combo in combinations_with_replacement(range(s), k):
            exp = [0] * s
            for idx in combo:
                exp[idx] += 1
            out.append(tuple(exp))
        return out

    def _degree_data(self, k):
        if k in self._degree_cache:
            return self._degree_cache[k]
        monomials = self._monomials_of_degree(k)
        # Non-squarefree columns first so that the greedy pivot scan leaves
        # squarefree monomials in the quotient basis whenever possible.
        order = sorted(
            range(len(monomials)),
            key=lambda idx: (all(e <= 1 for e in monomials[idx]),
                             tuple(-e for e in monomials[idx])),
        )
        col_of_mono = {monomials[idx]: pos for pos, idx in enumerate(order)}
        columns = [monomials[idx] for idx in order]
        rows = []
        for g in self.sr_polynomials:
            if not g:
                continue
            gdeg = sum(next(iter(g)))
            if gdeg > k:
                continue
            for mult in self._monomials_of_degree(k - gdeg):
                row = [Fraction(0)] * len(columns)
                for mono, coeff in g.items():
                    shifted = tuple(a + b for a, b in zip(mono, mult))
                    row[col_of_mono[shifted]] += coeff
                if any(x != 0 for x in row):
                    rows.append(row)
        reduced, pivots = dense_rref(rows)
        # emit the basis in generator order (earlier generators first)
        basis_cols = sorted(
            (c for c in range(len(columns)) if c not in pivots),
            key=lambda c: tuple(-e for e in columns[c]),
        )
        data = {
            "columns": columns,
            "col_of_mono": col_of_mono,
            # the nonzero (column, entry) pairs of each nonzero reduced row
            "reduced_rows": [[(c, x) for c, x in enumerate(reduced[r]) if x]
                             for r in range(len(pivots))],
            "pivots": pivots,
            "basis_cols": basis_cols,
        }
        self._degree_cache[k] = data
        return data

    def rank(self, k):
        return len(self._degree_data(k)["basis_cols"])

    def basis_monomials(self, k):
        """Quotient basis in degree k, as exponent tuples over all m generators."""
        data = self._degree_data(k)
        return [self._lift(data["columns"][c]) for c in data["basis_cols"]]

    def _lift(self, survivor_mono):
        exp = [0] * self.m
        for pos, power in enumerate(survivor_mono):
            exp[self.survivors[pos]] = power
        return tuple(exp)

    def reduce(self, polynomial, k):
        """Coordinates of a degree-k polynomial on the quotient basis.

        ``polynomial`` maps exponent tuples over all m generators to rational
        coefficients; every monomial must have total degree k.
        """
        for mono in polynomial:
            if sum(mono) != k:
                raise ValueError("polynomial is not homogeneous of the requested degree")
        data = self._degree_data(k)
        vec = [Fraction(0)] * len(data["columns"])
        for mono, coeff in polynomial.items():
            if coeff == 0:
                continue
            sub = self._substitute_monomial({i: e for i, e in enumerate(mono) if e})
            for smono, scoeff in sub.items():
                vec[data["col_of_mono"][smono]] += Fraction(coeff) * scoeff
        for row, pivot in zip(data["reduced_rows"], data["pivots"]):
            factor = vec[pivot]
            if factor:
                for c, x in row:
                    vec[c] -= factor * x
        return [vec[c] for c in data["basis_cols"]]


def _poly_mul(a, b):
    out = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            mono = tuple(x + y for x, y in zip(ma, mb))
            val = out.get(mono, Fraction(0)) + ca * cb
            if val == 0:
                out.pop(mono, None)
            else:
                out[mono] = val
    return out
