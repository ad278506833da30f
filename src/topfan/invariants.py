"""Topological invariants computed from a validated fan.

The cohomology is presented as a polynomial ring on one degree-two generator
per vertex, modulo the monomials of minimal non-faces and one linear relation
per ambient coordinate.  Additive ranks come from two independent routes: the
h-vector of the complex and exact graded linear algebra in the quotient ring;
tests hold the two against each other.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, combinations_with_replacement

from . import linalg
from .complexes import FVector
from .fans import TopologicalFan


def minimal_non_faces(complex_):
    """Inclusion-minimal vertex sets that are not faces (sizes 2..dim+2)."""
    out = []
    for size in range(2, complex_.dim + 3):
        for subset in combinations(range(1, complex_.m + 1), size):
            if complex_.has_face(subset):
                continue
            if all(complex_.has_face(subset[:k] + subset[k + 1:]) for k in range(size)):
                out.append(subset)
    return tuple(out)


@dataclass
class CohomPresentation:
    """Generators mu_1..mu_m, squarefree relation monomials, linear relations."""

    m: int
    sr_monomials: tuple[tuple[int, ...], ...]
    relation_matrix: tuple[tuple[int, ...], ...]  # one row per ambient coordinate

    def to_json(self):
        return {
            "generators": self.m,
            "sr_monomials": [list(t) for t in self.sr_monomials],
            "linear_relations": [list(r) for r in self.relation_matrix],
        }


def cohomology_presentation(fan: TopologicalFan) -> CohomPresentation:
    fan.require_valid()
    relations = tuple(
        tuple(fan.ray(i).v[k] for i in range(1, fan.m + 1)) for k in range(fan.n)
    )
    return CohomPresentation(fan.m, minimal_non_faces(fan.complex), relations)


def betti_numbers(fan: TopologicalFan):
    """Even Betti numbers (b_0, b_2, ..., b_2n), read off the h-vector."""
    fan.require_valid()
    return FVector.of(fan.complex).h


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
        reduced, pivots = linalg.rref(presentation.relation_matrix)
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
        reduced, pivots = linalg.rref(rows) if rows else ([], [])
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


@dataclass
class GradedClass:
    """Coordinates of a cohomology class on the emitted monomial basis."""

    degree: int  # cohomological degree, twice the polynomial degree
    basis: tuple[tuple[int, ...], ...]
    coords: tuple[Fraction, ...]

    @property
    def is_integral(self):
        return all(c.denominator == 1 for c in self.coords)

    def is_zero(self):
        return all(c == 0 for c in self.coords)

    def to_json(self):
        return {
            "degree": self.degree,
            "basis": [list(b) for b in self.basis],
            "coords": [linalg.format_rational(c) for c in self.coords],
            "integral": self.is_integral,
        }


def _ring_for(fan: TopologicalFan) -> GradedRing:
    # cached on the fan itself, so it is freed with the fan
    if fan._ring is None:
        fan._ring = GradedRing(cohomology_presentation(fan))
    return fan._ring


def graded_rank(fan: TopologicalFan, k) -> int:
    if not 0 <= k <= fan.n:
        raise ValueError(f"degree {k} out of range 0..{fan.n}")
    return _ring_for(fan).rank(k)


def normal_form(fan: TopologicalFan, polynomial, k) -> GradedClass:
    ring = _ring_for(fan)
    if not 0 <= k <= fan.n:
        raise ValueError(f"degree {k} out of range 0..{fan.n}")
    coords = ring.reduce(polynomial, k)
    return GradedClass(2 * k, tuple(ring.basis_monomials(k)), tuple(coords))


def pontrjagin_class(fan: TopologicalFan):
    """Reduced graded pieces of prod_i (1 + mu_i^2), one per quarter-degree."""
    fan.require_valid()
    classes = []
    for k in range(0, fan.n // 2 + 1):
        poly = {}
        for subset in combinations(range(fan.m), k):
            mono = [0] * fan.m
            for i in subset:
                mono[i] = 2
            poly[tuple(mono)] = Fraction(1)
        classes.append(normal_form(fan, poly, 2 * k))
    return classes


@dataclass
class OmniWeights:
    """Per-facet orientation weights; +1 when chart and ambient agree."""

    weights: dict  # facet tuple -> +-1

    def w(self, facet):
        return self.weights[tuple(sorted(facet))]

    def w_pair(self, facet):
        return (1, 0) if self.w(facet) == 1 else (0, 1)

    def to_json(self):
        return {",".join(map(str, f)): w for f, w in sorted(self.weights.items())}


def omni_weights(fan: TopologicalFan) -> OmniWeights:
    fan.require_valid()
    # sign det B · det V of the facet's cached integer blocks; a positive
    # rescaling of the b's moves no sign
    weights = {}
    for f in fan.complex.facets:
        det = fan._adjugate("b", f)[0] * fan._adjugate("v", f)[0]
        weights[f] = 1 if det > 0 else -1
    return OmniWeights(weights)


class DegenerateDirectionError(ValueError):
    """The supplied direction is zero or lies in a wall's cone."""


def todd_genus(fan: TopologicalFan, direction=None) -> int:
    """Signed count of top cones in the multi-fan containing a regular direction.

    Without ``direction`` one is drawn from ``Random(0)``; a given one must
    pass ``TopologicalFan.is_regular`` for the v-cones.
    """
    fan.require_valid()
    weights = omni_weights(fan)
    if direction is not None:
        direction = [Fraction(x) for x in direction]
        if len(direction) != fan.n:
            raise ValueError(
                f"direction has {len(direction)} coordinates, the fan has dimension {fan.n}")
        if not fan.is_regular(direction, "v"):
            raise DegenerateDirectionError(
                f"direction {','.join(map(linalg.format_rational, direction))} lies on a cone wall")
    else:
        direction = fan.generic_direction(random.Random(0), "v")
    hits = fan.locate_cone(direction, mode="v")
    return sum(weights.w(f) for f in hits)
