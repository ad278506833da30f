"""Topological fans: a simplicial complex with one exact ray per vertex.

A ray carries three vectors (b rational, c rational, v integer with v
primitive), stored in integers (``rays.Ray``).  The b-parts must assemble
into an honest simplicial fan of cones in R^n; the v-parts form a multi-fan
whose cones may overlap.  Validation checks are exact and every negative
verdict carries a machine-checkable witness.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm
from operator import mul
from typing import Optional

from . import linalg
from .complexes import SimplicialComplex, backtrack
from .rays import Ray, lowest_terms
from .ring import BSingularError, RElem, VNotUnimodularError


@dataclass
class Verdict:
    ok: bool
    witness: Optional[dict] = None

    def __bool__(self):
        return self.ok

    def to_json(self):
        return {"ok": self.ok, "witness": self.witness}


@dataclass
class ValidationReport:
    fan_condition_ok: bool
    completeness_ok: bool
    nonsingularity_ok: bool
    involutive: bool
    witnesses: dict = field(default_factory=dict)

    @property
    def ok(self):
        return self.fan_condition_ok and self.completeness_ok and self.nonsingularity_ok

    def to_json(self):
        return {
            "fan_condition_ok": self.fan_condition_ok,
            "completeness_ok": self.completeness_ok,
            "nonsingularity_ok": self.nonsingularity_ok,
            "involutive": self.involutive,
            "ok": self.ok,
            "witnesses": self.witnesses,
        }


class TopologicalFan:
    """A pair (complex, rays) with exact validation and chart data."""

    # Caches of data derived from the (immutable) rays and complex.  One
    # (det, adjugate) record per (part, top facet) is the facet's only
    # factorization: validation, the wall tests, cone location, regularity,
    # orientation weights and the dual bases of the chart tables (filled by
    # ``charts`` from the integer-scaled rays) all read it.  The graded ring
    # is filled by ``invariants``.  Each lives and dies with its fan.
    __slots__ = ("n", "complex", "rays", "_scaled", "_chart_tables", "_ring",
                 "_complete", "_report", "_int_b", "_adjugates")

    def __init__(self, n, complex_: SimplicialComplex, rays):
        if n < 0:
            raise ValueError(f"n must be a non-negative integer, not {n}")
        rays = tuple(rays)
        if len(rays) != complex_.m:
            raise ValueError("one ray per vertex is required")
        for ray in rays:
            if ray.n != n:
                raise ValueError("ray dimension does not match the fan dimension")
        self.n = int(n)
        self.complex = complex_
        self.rays = rays
        self._scaled = None
        self._chart_tables = {}
        self._ring = None
        self._complete = None
        self._report = None
        self._int_b = None
        self._adjugates = {}

    @property
    def m(self):
        return self.complex.m

    def ray(self, i) -> Ray:
        return self.rays[i - 1]

    def rvec(self, i) -> tuple[RElem, ...]:
        return self.rays[i - 1].rvec()

    def _int_b_column(self, i):
        # cone arithmetic is scale-invariant, so integer-primitive b's suffice
        if self._int_b is None:
            self._int_b = tuple(_primitive(r.b_int[0]) for r in self.rays)
        return self._int_b[i - 1]

    def _int_columns(self, part, indices):
        """The integer b-columns (``_int_b_column``) or the v-columns of the given rays."""
        if part == "b":
            return [self._int_b_column(i) for i in indices]
        return [self.ray(i).v for i in indices]

    def _adjugate(self, part, facet):
        """``linalg.adjugate`` of a sorted top facet's b- or v-block (``_int_columns``), cached."""
        key = (part, facet)
        record = self._adjugates.get(key)
        if record is None:
            record = self._adjugates[key] = linalg.adjugate(self._int_columns(part, facet))
        return record

    def _block_minor(self, part, facet):
        """The signed minor of a facet's b- or v-block: a top facet's det (``_adjugate``),
        else the gcd of the maximal minors (``linalg.maximal_minor_gcd``)."""
        if len(facet) == self.n:
            return self._adjugate(part, facet)[0]
        return linalg.maximal_minor_gcd(self._int_columns(part, facet))

    def _top_facet(self, facet):
        key = tuple(sorted(facet))
        if key not in self.complex.facets or len(key) != self.n:
            raise ValueError(f"{key} is not a top-dimensional facet")
        return key

    # -- chart data ---------------------------------------------------------

    def _scaled_rvecs(self):
        """Cached ``(q, rays)``: q = lcm of all b, c denominators; ray i is beta_i * (q, 0, 1)."""
        if self._scaled is None:
            q = lcm(*(r.b_int[1] for r in self.rays), *(r.c_int[1] for r in self.rays))
            self._scaled = q, tuple(_scaled_rvec(r, q) for r in self.rays)
        return self._scaled

    def _scaled_dual(self, facet):
        """``(sigma, duals)``: an integer sigma > 0 and J's integer ring vectors sigma * alpha_j.

        alpha_j is row j of [[B^-1, 0], [-V^-1 C B^-1, V^-1]] for J's rays
        [[B, 0], [C, V]] (``dual_basis``).  From the cached adjugates
        (``_adjugate``), with q * b_j = t_j * ``_int_b_column(j)`` (q from
        ``_scaled_rvecs``) and L = +-lcm(t_j) of det B's sign: B^-1 = M / Delta
        for M_j = q (L / t_j) adj_j and Delta = det B * L > 0, and
        V^-1 = det V * adj V.  So sigma = q * Delta gives sigma * alpha_j =
        (q M_j, -(V^-1 (qC) M)_j, sigma V^-1_j).  Raises BSingularError when B
        is singular and VNotUnimodularError when det V != +-1.
        """
        facet = self._top_facet(facet)
        b_det, b_adj = self._adjugate("b", facet)
        if b_det == 0:
            raise BSingularError(f"real parts of rays {facet} are linearly dependent")
        v_det, v_adj = self._adjugate("v", facet)
        if abs(v_det) != 1:
            raise VNotUnimodularError(
                f"winding parts of rays {facet} have determinant {v_det}, not a Z-basis")
        q, rays = self._scaled_rvecs()
        t = [gcd(*(e.b for e in rays[j - 1])) for j in facet]
        scale = lcm(*t) if b_det > 0 else -lcm(*t)
        sigma = q * b_det * scale
        m = [[q * (scale // tj) * a for a in row] for row, tj in zip(b_adj, t)]
        v_inv = [[v_det * a for a in row] for row in v_adj]
        vc = [[_dot(row, [e.c for e in rays[j - 1]]) for j in facet] for row in v_inv]  # V^-1 qC
        m_cols = list(zip(*m))
        return sigma, tuple(tuple(RElem(q * b, -_dot(vc_row, col), sigma * v)
                                  for b, col, v in zip(m_row, m_cols, v_row))
                            for m_row, vc_row, v_row in zip(m, vc, v_inv))

    def dual_basis(self, facet):
        """The dual basis ``{j: alpha_j}`` of a top facet J: pairing(alpha_j, beta_i) = delta_ij.

        It is ``_scaled_dual`` with sigma divided out and raises its errors."""
        sigma, duals = self._scaled_dual(facet)
        return {j: tuple(RElem(Fraction(e.b, sigma), Fraction(e.c, sigma), e.v // sigma)
                         for e in alpha) for j, alpha in zip(self._top_facet(facet), duals)}

    # -- validation ---------------------------------------------------------

    def check_fan_condition(self) -> Verdict:
        """Per-facet independence of b's and v's, and proper cone intersections.

        Facets are taken in order, each b-block before its v-block.  A block
        is independent when its ``_block_minor`` is nonzero: a top facet's
        det from the cached ``(det, adj)`` record that cone location, the
        weights and the charts read as well, or for a facet of any other
        size the gcd of its maximal minors.

        Once the b-columns of every facet are independent, a fan that passes
        ``check_complete`` certifies its own intersections by a local
        argument, the degree of a multi-fan (Hattori-Masuda, Osaka J. Math.
        40, 2003).  For n >= 1 that check asks K to be pure of dimension n-1
        with every wall in exactly two facets, the two rays off every wall
        strictly on opposite sides, and one regular direction (nonzero and
        in no wall's cone, see ``is_regular``) in exactly one cone.  Then:

        - Orientation: opposite sides give the two facets at a wall opposite
          signs of det(B_wall, b_extra), so ordering every facet to make
          det B positive orients K coherently, and each cone containing a
          regular direction counts +1 in the degree of |K| -> S^{n-1}.
        - Constant count: along a path of regular directions that crosses
          wall images only in their relative interiors, each crossing
          leaves one facet at that wall and enters the other, so the count
          d of cones over a regular direction is the same everywhere; d >= 1
          since a direction inside any cone counts.
        - Codimension 2: the images of faces of K of dimension n-3 or less
          have codimension at least 2 in the sphere, so they do not
          disconnect the regular directions and such a path always exists.
        - No overlaps when d = 1: if cone(F) and cone(G) meet at a point p
          outside cone(F & G), p lies in the relative interiors of the cones
          of two distinct faces R of F and R' of G.  The link of each face
          satisfies the same hypotheses one dimension lower, so its degree
          is at least 1 and the star of each face covers a whole
          neighbourhood of p.  A regular direction near p then has a
          preimage near R and another near R', a count of at least 2.

        Every side question above is a sign read from a facet's cached
        ``(det, adj)`` record: the wall test reads the sign of the
        coordinate of the ray across W (``_opposite_sides``), and locating
        a direction reads the signs of its coordinates in each facet
        (``_locate``).  No rational inverse is built.

        For n = 1 the one wall is the empty face, so the wall test accepts
        exactly two rays on opposite sides, which meet only at the origin;
        any other count of rays is ``bad-ray-count``.  When the certificate
        is not taken the cones are compared facet pair by facet pair
        (``_check_facet_pairs``): adjacent top facets whose rays off the
        common wall lie on opposite sides meet properly, and every other
        pair is one exact Phase-I LP (``_cone_pair_witness``).  That scan
        also produces every witness, a primitive integer point in both
        cones and outside their common face.
        """
        for f in self.complex.facets:
            for part in ("b", "v"):
                if self._block_minor(part, f) == 0:
                    return Verdict(False, {"kind": f"dependent-{part}", "facet": list(f)})
        if self.check_complete().ok:
            return Verdict(True)
        return self._check_facet_pairs()

    def _check_facet_pairs(self) -> Verdict:
        """Proper cone intersections compared on every facet pair.

        Facet pairs suffice: each simplex sits in a facet and
        representations in a simplicial cone are unique.  Requires
        independent b-columns in every facet.
        """
        facets = self.complex.facets
        for a in range(len(facets)):
            for b in range(a + 1, len(facets)):
                bad = self._cone_pair_witness(facets[a], facets[b])
                if bad is not None:
                    return Verdict(
                        False,
                        {"kind": "cone-overlap", "pair": [list(facets[a]), list(facets[b])],
                         "point": [str(x) for x in bad]},
                    )
        return Verdict(True)

    def _cone_pair_witness(self, fi, fj):
        """A primitive integer point of cone(fi) \\cap cone(fj) outside cone(fi & fj), or None.

        Adjacent top facets whose rays off the common wall lie strictly on
        opposite sides meet in that wall.  Any other pair is one Phase-I LP
        (``linalg.nonneg_solution``) for s, t >= 0 with B_i s = B_j t and
        the entries of s off the common face summing to 1.  Since fi's
        columns are independent, s holds the coordinates of B_i s in fi, so
        that point lies outside cone(fi & fj) exactly when s does not vanish
        off the common face; the sum fixes the scale.  No solution means
        the cones meet properly.  Requires independent b-columns in fi,
        which the fan condition checks before it compares any pair.
        """
        common = set(fi) & set(fj)
        if (len(fi) == len(fj) == self.n and len(common) == self.n - 1
                and self._opposite_sides(fi, fj)):
            return None
        rows_i = list(zip(*self._int_columns("b", fi)))
        rows_j = list(zip(*self._int_columns("b", fj)))
        rows = [list(a) + [-x for x in b] for a, b in zip(rows_i, rows_j)]
        rows.append([int(i not in common) for i in fi] + [0] * len(fj))
        x = linalg.nonneg_solution(rows, [0] * self.n + [1])
        if x is None:
            return None
        s = x[:len(fi)]
        return linalg.clear_denominators([_dot(row, s) for row in rows_i])

    def _opposite_sides(self, f0, f1):
        """True when the rays of two top facets off their common wall lie strictly on opposite sides.

        With x and y the vertices of f0 and f1 off the wall, row k of f0's
        b-record (``_adjugate``), for x in position k, vanishes on the wall
        and takes det at b_x, so y is across when det * (adj_k . b_y) < 0.
        """
        (x,), (y,) = set(f0) - set(f1), set(f1) - set(f0)
        det, adj = self._adjugate("b", f0)
        return det != 0 and det * _dot(adj[f0.index(x)], self._int_b_column(y)) < 0

    def check_complete(self) -> Verdict:
        """Wall-pairing completeness decided by one generic direction, cached per fan.

        Pure of top dimension, every wall in exactly two facets with the two
        opposite rays strictly on opposite sides, connected dual graph; then
        one regular direction drawn from ``Random(0)`` must lie in exactly
        one facet cone.  Once the walls pass, every regular direction lies in
        the same number d >= 1 of cones (see ``check_fan_condition``), so that
        one draw decides for all of them: it passes on a complete fan, and
        where d >= 2 every draw would be multi-covered.  No draw is uncovered
        (d >= 1: a direction inside any cone counts), so a failed draw is
        ``multi-covered-direction``.  The verdict is computed once and serves
        both the fan condition's certificate and the completeness verdict of
        ``validate``.
        """
        if self._complete is None:
            self._complete = self._wall_pairing_verdict()
        return self._complete

    def _wall_pairing_verdict(self) -> Verdict:
        if self.n == 0:
            return Verdict(True)
        if not self.complex.facets:
            return Verdict(False, {"kind": "empty"})
        if self.complex.dim != self.n - 1 or not self.complex.is_pure():
            small = min(self.complex.facets, key=len)
            return Verdict(False, {"kind": "not-pure", "facet": list(small)})
        if self.n == 1 and len(self.complex.facets) != 2:
            return Verdict(False, {"kind": "bad-ray-count"})
        for wall, facets in self.complex.walls().items():
            if len(facets) != 2:
                return Verdict(
                    False,
                    {"kind": "boundary-wall" if len(facets) < 2 else "overcrowded-wall",
                     "wall": list(wall), "facets": [list(f) for f in facets]},
                )
            if not self._opposite_sides(*facets):
                return Verdict(
                    False,
                    {"kind": "same-side-wall", "wall": list(wall),
                     "facets": [list(f) for f in facets]},
                )
        if not self.complex.dual_graph_connected():
            return Verdict(False, {"kind": "disconnected"})
        direction, hits = self._draw(random.Random(0), "b")
        if len(hits) != 1:
            return Verdict(
                False,
                {"kind": "multi-covered-direction", "direction": [str(x) for x in direction],
                 "facets": [list(f) for f in hits]},
            )
        return Verdict(True)

    def generic_direction(self, rng, part):
        """A regular rational direction for the b-cones or the v-cones (see ``_draw``)."""
        return self._draw(rng, part)[0]

    def _draw(self, rng, part):
        """``(direction, hits)``: a regular direction and the top facets whose cone contains it.

        ``part`` is ``"b"`` or ``"v"``.  Candidates are drawn from ``rng``
        until one ``_locate`` pass finds it regular (``is_regular``); its hits
        come from that pass.  Every top facet's part must be nonsingular.
        """
        if self.n == 0:
            raise ValueError("dimension 0 has no nonzero direction")
        while True:
            cand = [Fraction(rng.randint(-99, 99), rng.randint(1, 9)) for _ in range(self.n)]
            hits, regular = self._locate(cand, part)
            if regular:
                return cand, hits

    def is_regular(self, x, part="b"):
        """True when x is nonzero and lies in no wall's cone of the b-cones or v-cones.

        That is, no top facet gives x coordinates that are all >= 0 with one
        of them 0 (``_locate``).  Regular directions are the ones the degree
        argument of ``check_fan_condition`` counts over.
        """
        return self._locate(x, part)[1]

    def check_nonsingular(self) -> Verdict:
        """Every facet's v-columns extend to a Z-basis (subsets inherit).

        Each facet's v-block ``_block_minor`` must be +-1: a top facet's det,
        from its cached ``(det, adj)`` record with the columns in sorted
        facet order (witness ``bad-determinant``), or for a facet of any
        other size the gcd of its maximal minors (``bad-minor-gcd``).
        """
        for f in self.complex.facets:
            d = self._block_minor("v", f)
            if abs(d) != 1:
                kind, key = (("bad-determinant", "det") if len(f) == self.n
                             else ("bad-minor-gcd", "gcd"))
                return Verdict(False, {"kind": kind, "facet": list(f), key: d})
        return Verdict(True)

    def check_involutive(self) -> bool:
        return not any(any(ray.c_int[0]) for ray in self.rays)

    def validate(self) -> ValidationReport:
        """The validation report, computed once per fan.

        The completeness verdict is the one ``check_fan_condition`` already
        read as its certificate; it is not drawn again.
        """
        if self._report is not None:
            return self._report
        fan_v, nonsing_v = self.check_fan_condition(), self.check_nonsingular()
        if fan_v.ok:
            complete_v = self.check_complete()
        else:
            complete_v = Verdict(False, {"kind": "fan-condition-failed"})
        verdicts = {"fan_condition": fan_v, "completeness": complete_v, "nonsingularity": nonsing_v}
        witnesses = {name: v.witness for name, v in verdicts.items() if not v.ok}
        self._report = ValidationReport(
            fan_v.ok, complete_v.ok, nonsing_v.ok, self.check_involutive(), witnesses
        )
        return self._report

    def require_valid(self):
        """The validation report; raises ValueError when the fan is invalid."""
        report = self.validate()
        if not report.ok:
            raise ValueError(f"fan is not complete non-singular: {report.witnesses}")
        return report

    # -- cone location ------------------------------------------------------

    def locate_cone(self, x, mode="b"):
        """Top facets whose cone (b-cones or v-cones) contains the point x."""
        return self._locate(x, mode)[0]

    def _locate(self, x, part):
        """``(hits, regular)``: the top facets whose cone contains x, and whether x is regular.

        x is scaled by a positive number to a primitive integer point, which
        moves no sign.  adj . x is det times x's coordinates in a facet's
        basis (``_adjugate``), so det * (row . point) has the sign of
        coordinate k: the facet is a hit when the least of them is >= 0, and
        x lies on a wall's cone when that least one is 0.  Raises ValueError
        on a point of the wrong length, a part other than ``"b"`` or ``"v"``,
        a non-top facet or a singular block.
        """
        if len(x) != self.n:
            raise ValueError(f"point has {len(x)} coordinates, the fan has dimension {self.n}")
        if part not in ("b", "v"):
            raise ValueError("part must be 'b' or 'v'")
        point = linalg.clear_denominators(x)
        hits, regular = [], any(point)
        for f in self.complex.facets:
            if len(f) != self.n:
                raise ValueError(f"{f} is not a top-dimensional facet")
            det, adj = self._adjugate(part, f)
            if det == 0:
                raise ValueError(f"the {part}-columns of {f} are singular")
            least = min(det * _dot(row, point) for row in adj)
            if least >= 0:
                hits.append(f)
                regular = regular and least != 0
        return hits, regular

    # -- serialization -------------------------------------------------------

    def to_json(self):
        return {
            "n": self.n,
            "complex": self.complex.to_json(),
            "rays": [ray.to_json() for ray in self.rays],
        }

    @staticmethod
    def from_json(data) -> "TopologicalFan":
        if not isinstance(data, dict):
            raise ValueError(f"a fan must be a JSON object, not {type(data).__name__}")
        n = data["n"]
        if isinstance(n, bool) or not isinstance(n, int):
            raise ValueError(f"n must be an integer, not {n!r}")
        return TopologicalFan(
            n,
            SimplicialComplex.from_json(data["complex"]),
            [Ray.from_json(r) for r in linalg.json_array(data["rays"], "rays")],
        )

    def __eq__(self, other):
        return (
            isinstance(other, TopologicalFan)
            and self.n == other.n
            and self.complex == other.complex
            and self.rays == other.rays
        )

    def __hash__(self):
        return hash((self.n, self.complex, self.rays))

    def __repr__(self):
        return f"TopologicalFan(n={self.n}, m={self.m}, facets={len(self.complex.facets)})"


def _dot(a, b):
    return sum(map(mul, a, b))


def _primitive(nums):
    """A nonzero integer vector divided by the gcd of its entries."""
    g = gcd(*nums)
    return nums if g == 1 else tuple(x // g for x in nums)


def _scaled_rvec(ray, q):
    """The ring vector of ray * (q, 0, 1), integer for q a multiple of b's and c's denominators."""
    (bn, bd), (cn, cd) = ray.b_int, ray.c_int
    return tuple(map(RElem, [x * (q // bd) for x in bn], [x * (q // cd) for x in cn], ray.v))


# -- canonical form ----------------------------------------------------------


def h_canonical_form(fan: TopologicalFan) -> TopologicalFan:
    """Normalize every ray inside its orbit under the homeomorphism scalars.

    One scalar (s, t, eps) is applied per ray (``_h_normalizer``) so that
    afterwards b has L1 norm one, the first nonzero entry of v is positive,
    and c is orthogonal to v.  Idempotent and constant on orbits.
    """
    rays = [ray.right_mul(_h_normalizer(ray)) for ray in fan.rays]
    return TopologicalFan(fan.n, fan.complex, rays)


def _h_normalizer(ray: Ray) -> RElem:
    """The homeomorphism scalar (s, t, eps) that takes a ray to its h-canonical form.

    s = 1 / |b|_1 and t = -s (c.v) / (v.v), read from the integer form:
    s = bd / |bn|_1 and t = -s (cn.v) / (cd (v.v)); eps is the sign of v's
    first nonzero entry.
    """
    (bn, bd), (cn, cd), v = ray.b_int, ray.c_int, ray.v
    s = Fraction(bd, sum(map(abs, bn)))
    t = -s * Fraction(_dot(cn, v), cd * _dot(v, v))
    eps = 1 if next(x for x in v if x != 0) > 0 else -1
    return RElem(s, t, eps)


def _homeo_inverse(mu: RElem) -> RElem:
    """(s, t, eps)^-1 = (1/s, -t*eps/s, eps), the inverse matrix of [[s, 0], [t, eps]]."""
    return RElem(1 / mu.b, -mu.c * mu.v / mu.b, mu.v)


# -- equivalence --------------------------------------------------------------


@dataclass
class Isomorphism:
    """A simplicial isomorphism with the per-ray scalars that realize it."""

    sigma: dict
    scalars: Optional[dict] = None

    def to_json(self):
        out = {"sigma": {str(i): j for i, j in self.sigma.items()}}
        if self.scalars is not None:
            out["scalars"] = {str(i): mu.to_json() for i, mu in self.scalars.items()}
        return out


def _h_key(ray: Ray):
    """The h-canonical ray (``h_canonical_form``) in integers.

    Its b, b / |b|_1, is fixed by b's primitive integer vector.  Its c is
    (c (v.v) - (c.v) v) / (|b|_1 (v.v)); with b = bn / bd and c = cn / cd
    that is bd w / (cd |bn|_1 (v.v)) for the integer vector
    w = cn (v.v) - (cn.v) v, reduced to lowest terms.  Its v has a positive
    first nonzero entry.
    """
    (bn, bd), (cn, cd), v = ray.b_int, ray.c_int, ray.v
    vv, cv = _dot(v, v), _dot(cn, v)
    w = [bd * (x * vv - cv * y) for x, y in zip(cn, v)]
    den = cd * sum(map(abs, bn)) * vv
    first = next(x for x in v if x != 0)
    return (_primitive(bn), lowest_terms(w, den), v if first > 0 else tuple(-x for x in v))


# One key per mode whose equality is exactly the mode's orbit relation on
# rays: equal rays ('strict'), equal up to the v-flip scalar MU0, which
# sends (b, c, v) to (b, c, -v) ('d'), and equal up to a homeomorphism
# scalar ('h'), whose orbits each hold one h-canonical ray.
_ORBIT_KEYS = {
    "strict": lambda ray: ray,
    "d": lambda ray: (ray.b_int, ray.c_int, max(ray.v, tuple(-x for x in ray.v))),
    "h": _h_key,
}


def equivalent(a: TopologicalFan, b: TopologicalFan, mode="strict",
               stats=None) -> Optional[Isomorphism]:
    """Search for a simplicial isomorphism matching rays in the given mode.

    mode 'strict' requires equal rays, 'd' allows the v-flip scalar per ray,
    'h' allows any homeomorphism scalar per ray; any other mode raises
    ValueError.  The target's rays are bucketed once by the mode's orbit
    key: the ray itself ('strict'), the ray with v up to sign ('d'), or its
    h-canonical form ('h').  Two rays match exactly when their keys are
    equal, so a source ray's bucket is its candidate list.  Exhaustive
    backtracking over vertex bijections then assigns vertices 1..m in order
    and candidates in ascending order, pruned by the stars of the target's
    vertices; the returned sigma is the lexicographically least one.  The
    search runs on ``complexes.backtrack``, so its depth is not bounded by
    Python's recursion limit.

    In mode 'h' the scalar of i -> j is composed from the two rays'
    normalizers (``_h_normalizer``), built for the pairs of the returned
    sigma only: a_i * mu_i = b_j * mu_j, so b_j = a_i * (mu_i * mu_j^-1).

    When ``stats`` is a dict, it receives the counts of the call: the
    ``candidates`` (source, target) pairs that shared a key, the search
    ``nodes`` visited (partial bijections, the empty and a complete one
    included) and the ``backtracks`` (vertices whose every candidate failed).
    """
    mode = mode.lower()
    orbit_key = _ORBIT_KEYS.get(mode)
    if orbit_key is None:
        raise ValueError(f"unknown mode {mode!r}")
    if stats is None:
        stats = {}
    stats.update(candidates=0, nodes=0, backtracks=0)
    if (a.n != b.n or a.m != b.m
            or sorted(map(len, a.complex.facets)) != sorted(map(len, b.complex.facets))):
        return None
    m = a.m
    buckets = {}
    for j in range(1, m + 1):
        buckets.setdefault(orbit_key(b.ray(j)), []).append(j)
    allowed = {}
    for i in range(1, m + 1):
        allowed[i] = buckets.get(orbit_key(a.ray(i)), ())
        stats["candidates"] += len(allowed[i])
        if not allowed[i]:
            return None

    facets_b = set(b.complex.facets)
    star_b = {j: [frozenset(g) for g in b.complex.star(j)] for j in range(1, m + 1)}
    sigma = {}
    used = set()

    def consistent(i):
        # every facet through i has a partial image through sigma[i]
        for f in a.complex.star(i):
            image = [sigma[v] for v in f if v in sigma]
            if len(image) == len(f):
                if tuple(sorted(image)) not in facets_b:
                    return False
            elif not any(face.issuperset(image) for face in star_b[sigma[i]]):
                return False
        return True

    def candidates(depth):
        # ``used`` holds j while vertex i keeps it: the kernel resumes this
        # generator only after unassigning every deeper vertex
        i = depth + 1
        for j in allowed[i]:
            if j not in used:
                sigma[i] = j
                if consistent(i):
                    used.add(j)
                    yield j
                    used.remove(j)

    search = {}
    found = backtrack(range(1, m + 1), candidates, sigma, search)
    stats.update(nodes=search["nodes"], backtracks=search["backtracks"])
    if not found:
        return None
    scalars = None
    if mode == "h":
        scalars = {i: _h_normalizer(a.ray(i)) * _homeo_inverse(_h_normalizer(b.ray(j)))
                   for i, j in sigma.items()}
    return Isomorphism(dict(sigma), scalars)
