"""Bundled example data: complexes, fans, and vertex positions.

Everything here is exact and deterministic.  The eight-vertex non-polytopal
sphere ships with a reference vertex order per facet (determinant signs are
order-sensitive), a complete-fan b-set found by a guided search and verified
by the validator, and a unimodular labeling certificate found by the search
engine in this package.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import lcm
from operator import mul

from . import linalg
from .complexes import SimplicialComplex, cyclic_polytope_boundary
from .fans import Ray, TopologicalFan


# -- the two-overlap four-gon fan (a non-algebraic example in dimension 2) ------


def cp2cp2_fan() -> TopologicalFan:
    """Complete non-singular fan on the square whose multi-fan overlaps once."""
    complex_ = SimplicialComplex(4, [(1, 2), (2, 3), (3, 4), (4, 1)])
    rays = [
        Ray.from_parts((1, 0), v=(1, 0)),
        Ray.from_parts((0, 1), v=(0, 1)),
        Ray.from_parts((-1, 0), v=(-1, -2)),
        Ray.from_parts((-1, -1), v=(-1, -1)),
    ]
    return TopologicalFan(2, complex_, rays)


def projective_fan(n) -> TopologicalFan:
    """The fan of the n-dimensional projective pattern: n+1 rays, one relation."""
    facets = []
    for drop in range(1, n + 2):
        facets.append(tuple(v for v in range(1, n + 2) if v != drop))
    complex_ = SimplicialComplex(n + 1, facets)
    rays = []
    for i in range(n):
        e = tuple(1 if k == i else 0 for k in range(n))
        rays.append(Ray.from_parts(e))
    rays.append(Ray.from_parts((-1,) * n))
    return TopologicalFan(n, complex_, rays)


def segment_fan() -> TopologicalFan:
    """The complete fan on the line: two opposite rays."""
    complex_ = SimplicialComplex(2, [(1,), (2,)])
    return TopologicalFan(1, complex_, [Ray.from_parts((1,)), Ray.from_parts((-1,))])


# -- octahedron, tetrahedron, icosahedron -----------------------------------------


def octahedron_complex() -> SimplicialComplex:
    facets = []
    for i in (1, 4):
        for j in (2, 5):
            for k in (3, 6):
                facets.append((i, j, k))
    return SimplicialComplex(6, facets)


def octahedron_positions():
    return [
        (1, 0, 0), (0, 1, 0), (0, 0, 1),
        (-1, 0, 0), (0, -1, 0), (0, 0, -1),
    ]


def octahedron_fan() -> TopologicalFan:
    """The ordinary fan over the octahedron (b = v = vertex positions)."""
    complex_ = octahedron_complex()
    rays = [Ray.from_parts(p) for p in octahedron_positions()]
    return TopologicalFan(3, complex_, rays)


def tetrahedron_complex() -> SimplicialComplex:
    return SimplicialComplex(4, [(1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4)])


def tetrahedron_positions():
    return [(1, 1, 1), (1, -1, -1), (-1, 1, -1), (-1, -1, 1)]


def icosahedron_complex_and_positions():
    """A rational icosahedron: hull facets of twelve points near the round one.

    The golden ratio is replaced by 13/8; the hull is computed exactly and
    stays combinatorially an icosahedron (20 triangles, 30 edges).
    """
    t = Fraction(13, 8)
    points = []
    for a in (1, -1):
        for b in (t, -t):
            points.append((0, a, b))
    for a in (1, -1):
        for b in (t, -t):
            points.append((b, 0, a))
    for a in (1, -1):
        for b in (t, -t):
            points.append((a, b, 0))
    facets = _hull_facets(points)
    complex_ = SimplicialComplex(len(points), facets)
    return complex_, points


def _hull_facets(points):
    """Facets of a simplicial convex hull in R^3, by exact plane sidedness.

    A triangle is a facet when its normal is nonzero and every other point
    lies strictly on one side of its plane.  Scaling every point by one
    positive number moves no side, so the points are made integral first.
    """
    den = lcm(*(Fraction(x).denominator for p in points for x in p))
    pts = [tuple(int(Fraction(x) * den) for x in p) for p in points]
    facets = []
    for i, j, k in combinations(range(len(pts)), 3):
        a, b, c = pts[i], pts[j], pts[k]
        normal = linalg._det_form([y - x for x, y in zip(a, b)], [y - x for x, y in zip(a, c)])
        heights = [sum(map(mul, normal, p)) for p in pts]
        # each other point's side of the plane: -1, 0 (on it) or 1
        sides = {(h > heights[i]) - (h < heights[i])
                 for q, h in enumerate(heights) if q not in (i, j, k)}
        if any(normal) and 0 not in sides and len(sides) < 2:
            facets.append((i + 1, j + 1, k + 1))
    return facets


# -- the eight-vertex non-polytopal sphere ------------------------------------------

# Facets in their reference vertex orders; vertices 1..4 are the inner
# tetrahedron (labels e1..e4), 5..8 the outer one (labels d1..d4).  Signs are
# determinant signs relative to these orders, seeded +1 at facet (1,2,3,4).
BARNETTE_FACET_ORDERS = (
    (1, 2, 3, 4),
    (5, 2, 3, 4),
    (1, 6, 3, 4),
    (1, 2, 7, 4),
    (1, 2, 3, 8),
    (5, 6, 3, 4),
    (1, 6, 7, 4),
    (5, 2, 7, 4),
    (1, 6, 3, 7),
    (1, 2, 7, 5),
    (5, 2, 3, 6),
    (1, 2, 5, 8),
    (1, 7, 3, 8),
    (6, 2, 3, 8),
    (1, 5, 7, 8),
    (5, 2, 6, 8),
    (7, 6, 3, 8),
    (5, 6, 7, 4),
    (5, 6, 7, 8),
)

BARNETTE_LABELS = {1: "e1", 2: "e2", 3: "e3", 4: "e4", 5: "d1", 6: "d2", 7: "d3", 8: "d4"}


def barnette_complex() -> SimplicialComplex:
    return SimplicialComplex(8, BARNETTE_FACET_ORDERS, BARNETTE_LABELS)


# Rational b-vectors realizing the sphere as a complete fan in R^4: the inner
# tetrahedron is realized inside the outer one as a geometric 3-diagram, then
# lifted below the origin while the outer one sits above it.  Found by an
# orientation-guided search and frozen; the validator re-checks them exactly
# (see the fixture tests).
BARNETTE_B_VECTORS = (
    ("-1/4", "1/8", "0", "-31/32"),
    ("5/32", "0", "1/4", "-31/32"),
    ("1/32", "-1/4", "-3/32", "-31/32"),
    ("1/8", "5/32", "-3/16", "-31/32"),
    ("15/32", "1/2", "17/32", "1/2"),
    ("1/2", "-1/2", "-1/2", "1/2"),
    ("-17/32", "15/32", "-1/2", "1/2"),
    ("-1/2", "-1/2", "1/2", "15/32"),
)

# A unimodular labeling certificate with the inner tetrahedron pinned to the
# standard basis; found by search_labeling at entry bound 1 and re-verified
# by the independent determinant checker.
BARNETTE_UNIMODULAR_CERTIFICATE = {
    1: (1, 0, 0, 0),
    2: (0, 1, 0, 0),
    3: (0, 0, 1, 0),
    4: (0, 0, 0, 1),
    5: (-1, -1, -1, -1),
    6: (0, -1, 0, -1),
    7: (0, -1, -1, 0),
    8: (-1, -1, 0, -1),
}


def barnette_fan() -> TopologicalFan:
    """The sphere as a complete non-singular topological fan of dimension 4."""
    rays = [Ray.from_parts(b, v=BARNETTE_UNIMODULAR_CERTIFICATE[v])
            for v, b in enumerate(BARNETTE_B_VECTORS, 1)]
    return TopologicalFan(4, barnette_complex(), rays)


cyclic_complex = cyclic_polytope_boundary
