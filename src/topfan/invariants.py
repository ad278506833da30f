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
from itertools import combinations, combinations_with_replacement, compress
from math import lcm
from operator import add

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

    The arithmetic is integer.  With q the least common denominator of the
    reduced relations on the survivor columns, each pivot generator is an
    integer linear form in the survivors over q, so a monomial with j pivot
    factors is an integer polynomial over q^j.  The degree rows are those
    integer polynomials: a row scaled by q^j spans the same line, so
    ``rref`` gives the same reduced rows and pivots, and the quotient basis
    is the same.  ``reduce`` sums integer images of the columns over one
    common denominator and builds one ``Fraction`` per coordinate.
    """

    def __init__(self, presentation: CohomPresentation):
        self.m = presentation.m
        reduced, pivots = linalg.rref(
            [dict(compress(enumerate(r), r)) for r in presentation.relation_matrix])
        if len(pivots) != len(presentation.relation_matrix):
            raise ValueError("linear relations are degenerate")
        self.pivots = pivots  # 0-based generator indices eliminated by relations
        self.survivors = [j for j in range(self.m) if j not in pivots]
        self._survivor_pos = {j: pos for pos, j in enumerate(self.survivors)}
        s = len(self.survivors)
        # a primitive row zero on the other pivots: its reduced entries have
        # least common denominator |e[p]|
        self.q = lcm(*(e[p] for e, p in zip(reduced, pivots)))
        # substitution: pivot generator -> q times its linear form over the
        # survivors, as an integer polynomial
        self.substitution = {}
        for e, p in zip(reduced, pivots):
            self.substitution[p] = {
                tuple(int(k == pos) for k in range(s)): -e[j] * (self.q // e[p])
                for pos, j in enumerate(self.survivors) if j in e
            }
        self.sr_polynomials = [
            self._substitute_monomial({i - 1: 1 for i in mono})[0]
            for mono in presentation.sr_monomials
        ]
        self._degree_cache = {}

    # -- polynomials over survivors: dict exponent tuple -> int --------------

    def _substitute_monomial(self, exponents):
        """Rewrite a monomial over all generators into survivor coordinates.

        Returns ``(poly, j)``: the monomial equals the integer polynomial
        ``poly`` over q^j, j being the number of pivot factors.
        """
        shift = [0] * len(self.survivors)
        poly, j = {tuple(shift): 1}, 0
        for gen, power in exponents.items():
            pos = self._survivor_pos.get(gen)
            if pos is not None:
                shift[pos] += power
                continue
            for _ in range(power):
                poly = _poly_mul(poly, self.substitution[gen])
            j += power
        if any(shift):
            poly = {tuple(map(add, mono, shift)): c for mono, c in poly.items()}
        return poly, j

    def _monomials_of_degree(self, k):
        s = len(self.survivors)
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
            # a nonzero polynomial shifted by a monomial: a nonzero row
            for mult in self._monomials_of_degree(k - gdeg):
                rows.append({col_of_mono[tuple(map(add, mono, mult))]: coeff
                             for mono, coeff in g.items()})
        reduced, pivots = linalg.rref(rows) if rows else ([], [])
        # emit the basis in generator order (earlier generators first)
        taken = set(pivots)
        basis_cols = sorted(
            (c for c in range(len(columns)) if c not in taken),
            key=lambda c: tuple(-e for e in columns[c]),
        )
        # A reduced row is zero on the other pivots, so reducing a vector
        # sends each column to a fixed image on the basis: a basis column to
        # itself, a pivot column p to minus the basis part of its row e over
        # e[p].  Both are kept times den, the lcm of the |e[p]|.
        position = {c: b for b, c in enumerate(basis_cols)}
        den = lcm(*(e[p] for e, p in zip(reduced, pivots)))
        images = [[(position[c], den)] if c in position else None
                  for c in range(len(columns))]
        for e, p in zip(reduced, pivots):
            images[p] = [(position[c], -x * (den // e[p])) for c, x in e.items() if c != p]
        data = {
            "columns": columns,
            "col_of_mono": col_of_mono,
            "basis_cols": basis_cols,
            "images": images,
            "den": den,
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

        ``polynomial`` maps exponent tuples over all m generators to ``int``
        or ``Fraction`` coefficients; every monomial must have total degree k.
        """
        for mono in polynomial:
            if sum(mono) != k:
                raise ValueError("polynomial is not homogeneous of the requested degree")
        data = self._degree_data(k)
        col_of_mono, images = data["col_of_mono"], data["images"]
        # one common denominator: the coefficients' lcm times q^k times den
        scale = lcm(*(c.denominator for c in polynomial.values()))
        total = [0] * len(data["basis_cols"])
        for mono, coeff in polynomial.items():
            if coeff == 0:
                continue
            sub, j = self._substitute_monomial({i: e for i, e in enumerate(mono) if e})
            f = coeff.numerator * (scale // coeff.denominator) * self.q ** (k - j)
            for smono, scoeff in sub.items():
                for b, x in images[col_of_mono[smono]]:
                    total[b] += f * scoeff * x
        den = scale * self.q ** k * data["den"]
        return [Fraction(t, den) for t in total]


def _poly_mul(a, b):
    out = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            mono = tuple(map(add, ma, mb))
            val = out.get(mono, 0) + ca * cb
            if val:
                out[mono] = val
            else:
                del out[mono]
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
            "coords": [str(c) for c in self.coords],
            "integral": self.is_integral,
        }


def _ring_for(fan: TopologicalFan, k) -> GradedRing:
    """The fan's graded ring, once degree k is checked to lie in 0..n; cached on the fan."""
    if not 0 <= k <= fan.n:
        raise ValueError(f"degree {k} out of range 0..{fan.n}")
    if fan._ring is None:
        fan._ring = GradedRing(cohomology_presentation(fan))
    return fan._ring


def graded_rank(fan: TopologicalFan, k) -> int:
    return _ring_for(fan, k).rank(k)


def normal_form(fan: TopologicalFan, polynomial, k) -> GradedClass:
    ring = _ring_for(fan, k)
    coords = ring.reduce(polynomial, k)
    return GradedClass(2 * k, tuple(ring.basis_monomials(k)), tuple(coords))


def pontrjagin_class(fan: TopologicalFan):
    """Reduced graded pieces of prod_i (1 + mu_i^2), one per quarter-degree."""
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
    pass ``TopologicalFan.is_regular`` for the v-cones.  For n = 0 nothing
    is drawn: the cone of the empty face is all of R^0, so the point's
    genus is 1.
    """
    fan.require_valid()
    if fan.n == 0 and direction is None:
        return 1
    weights = omni_weights(fan)
    if direction is not None:
        direction = [Fraction(x) for x in direction]
        if len(direction) != fan.n:
            raise ValueError(
                f"direction has {len(direction)} coordinates, the fan has dimension {fan.n}")
        hits, regular = fan._locate(direction, "v")
        if not regular:
            raise DegenerateDirectionError(
                f"direction {','.join(map(str, direction))} lies on a cone wall")
    else:
        hits = fan._draw(random.Random(0), "v")[1]
    return sum(weights.w(f) for f in hits)
