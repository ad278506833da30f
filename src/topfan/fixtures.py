"""Bundled example data: complexes, fans, and vertex positions.

Everything here is exact and deterministic.  The eight-vertex non-polytopal
sphere ships with a reference vertex order per facet (determinant signs are
order-sensitive), a complete-fan b-set found by a guided search and verified
by the validator, and a unimodular labeling certificate found by the search
engine in this package.
"""

from __future__ import annotations

from fractions import Fraction

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


# The 20 hull facets of the icosahedron's points below, vertices numbered
# from 1 in the order the points are listed.
ICOSAHEDRON_FACETS = (
    (1, 3, 5), (1, 3, 6), (1, 5, 9), (1, 6, 11), (1, 9, 11),
    (2, 4, 7), (2, 4, 8), (2, 7, 9), (2, 8, 11), (2, 9, 11),
    (3, 5, 10), (3, 6, 12), (3, 10, 12), (4, 7, 10), (4, 8, 12),
    (4, 10, 12), (5, 7, 9), (5, 7, 10), (6, 8, 11), (6, 8, 12),
)


def icosahedron_complex_and_positions():
    """A rational icosahedron: twelve points near the round one and their hull facets.

    The golden ratio is replaced by 13/8; the points stay in convex position
    and their hull is combinatorially an icosahedron (20 triangles, 30
    edges), the facets ``ICOSAHEDRON_FACETS``.
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
    return SimplicialComplex(len(points), ICOSAHEDRON_FACETS), points


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
