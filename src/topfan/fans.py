"""Topological fans: a simplicial complex with one exact ray per vertex.

A ray carries three vectors (b rational, c rational, v integer with v
primitive).  The b-parts must assemble into an honest simplicial fan of cones
in R^n; the v-parts form a multi-fan whose cones may overlap.  Validation
checks are exact and every negative verdict carries a machine-checkable
witness.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from typing import Optional

from . import linalg
from .complexes import SimplicialComplex
from .ring import MU0, DualBasis, RElem, RVec


@dataclass(frozen=True)
class Ray:
    """One ray (b, c, v); b nonzero rational, v primitive integral."""

    b: tuple[Fraction, ...]
    c: tuple[Fraction, ...]
    v: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "b", tuple(Fraction(x) for x in self.b))
        object.__setattr__(self, "c", tuple(Fraction(x) for x in self.c))
        object.__setattr__(self, "v", tuple(int(x) for x in self.v))
        if not (len(self.b) == len(self.c) == len(self.v)):
            raise ValueError("b, c, v must have equal lengths")
        if all(x == 0 for x in self.b):
            raise ValueError("b must be nonzero")
        if linalg.vec_gcd(self.v) != 1:
            raise ValueError(f"v = {self.v} is not primitive")

    @property
    def n(self):
        return len(self.b)

    def rvec(self) -> RVec:
        return RVec.from_parts(self.b, self.c, self.v)

    def right_mul(self, mu: RElem) -> "Ray":
        vec = self.rvec().right_mul(mu)
        return Ray(tuple(vec.b_part()), tuple(vec.c_part()), tuple(vec.v_part()))

    def conjugate(self) -> "Ray":
        return Ray(self.b, tuple(-x for x in self.c), tuple(-x for x in self.v))

    def to_json(self):
        return {
            "b": [linalg.format_rational(x) for x in self.b],
            "c": [linalg.format_rational(x) for x in self.c],
            "v": list(self.v),
        }

    @staticmethod
    def from_json(data) -> "Ray":
        return Ray(
            tuple(linalg.parse_rational(x) for x in data["b"]),
            tuple(linalg.parse_rational(x) for x in data.get("c", [0] * len(data["b"]))),
            tuple(int(x) for x in data["v"]),
        )

    @staticmethod
    def from_parts(b, c=None, v=None) -> "Ray":
        b = tuple(Fraction(x) for x in b)
        if v is None:
            v = tuple(int(x) for x in b)
        if c is None:
            c = tuple(Fraction(0) for _ in b)
        return Ray(b, tuple(Fraction(x) for x in c), tuple(int(x) for x in v))


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
    # ``DualBasis`` per facet serves validation, cone location, the chart
    # tables (filled by ``charts``) and the orientation weights; the graded
    # ring is filled by ``invariants``.  Each lives and dies with its fan.
    __slots__ = ("n", "complex", "rays", "_rvecs", "_dual_cache", "_chart_tables", "_ring",
                 "_structure", "_reports", "_int_b", "_hyperplanes")

    def __init__(self, n, complex_: SimplicialComplex, rays):
        rays = tuple(rays)
        if len(rays) != complex_.m:
            raise ValueError("one ray per vertex is required")
        for ray in rays:
            if ray.n != n:
                raise ValueError("ray dimension does not match the fan dimension")
        self.n = int(n)
        self.complex = complex_
        self.rays = rays
        self._rvecs = None
        self._dual_cache = {}
        self._chart_tables = {}
        self._ring = None
        self._structure = None
        self._reports = {}
        self._int_b = None
        self._hyperplanes = {}

    @property
    def m(self):
        return self.complex.m

    def ray(self, i) -> Ray:
        return self.rays[i - 1]

    def rvec(self, i) -> RVec:
        if self._rvecs is None:
            self._rvecs = tuple(ray.rvec() for ray in self.rays)
        return self._rvecs[i - 1]

    def b_columns(self, indices):
        return [list(self.ray(i).b) for i in indices]

    def v_columns(self, indices):
        return [list(self.ray(i).v) for i in indices]

    def _columns(self, indices, part):
        if part == "b":
            return self.b_columns(indices)
        if part == "v":
            return self.v_columns(indices)
        raise ValueError("part must be 'b' or 'v'")

    def _int_b_column(self, i):
        # cone arithmetic is scale-invariant, so integer-primitive b's suffice
        if self._int_b is None:
            self._int_b = tuple(linalg.clear_denominators(r.b) for r in self.rays)
        return self._int_b[i - 1]

    # -- chart data ---------------------------------------------------------

    def _dual(self, facet):
        """The cached factorization of a sorted facet's rays.

        Built on first use with two ``linalg.inverse`` calls; a bad block
        raises only when the record's ``alphas`` are read.
        """
        record = self._dual_cache.get(facet)
        if record is None:
            record = self._dual_cache[facet] = DualBasis({i: self.rvec(i) for i in facet})
        return record

    def dual_basis(self, facet):
        """The facet's dual basis; raises BSingularError or VNotUnimodularError on a bad block."""
        key = tuple(sorted(facet))
        if key not in self.complex.facets:
            raise ValueError(f"{key} is not a facet")
        record = self._dual(key)
        record.alphas  # raises when a block is bad
        return record

    # -- validation ---------------------------------------------------------

    def check_fan_condition(self) -> Verdict:
        """Per-facet independence of b's and v's, and proper cone intersections.

        Once the b-columns of every facet are independent, a fan that passes
        ``check_complete`` certifies its own intersections by a local
        argument, the degree of a multi-fan (Hattori-Masuda, Osaka J. Math.
        40, 2003).  For n >= 2 that check asks K to be pure of dimension n-1
        with every wall in exactly two facets, the two rays off every wall
        strictly on opposite sides, and one regular direction (off every
        hyperplane spanned by n-1 rays) in exactly one cone.  Then:

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

        For n = 1 the check accepts exactly two rays on opposite sides,
        which meet only at the origin.  When the certificate is not taken
        the cones are compared facet pair by facet pair
        (``_check_facet_pairs``), which also produces every witness.
        """
        for f in self.complex.facets:
            if linalg.rank(linalg.transpose(self.b_columns(f))) != len(f):
                return Verdict(False, {"kind": "dependent-b", "facet": list(f)})
            if linalg.rank(linalg.transpose([[Fraction(x) for x in col]
                                             for col in self.v_columns(f)])) != len(f):
                return Verdict(False, {"kind": "dependent-v", "facet": list(f)})
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
        """A point of cone(fi) \\cap cone(fj) outside cone(fi & fj), or None.

        Requires independent b-columns in fi, which the fan condition checks
        before it compares any pair.
        """
        common = tuple(sorted(set(fi) & set(fj)))
        # Adjacent full facets: a strict separating wall settles the pair.
        if len(fi) == len(fj) == self.n and len(common) == self.n - 1:
            if self._opposite_sides(fi, fj):
                return None
            # fall through to the general computation to produce a witness
        cols_i = [self._int_b_column(i) for i in fi]
        cols_j = [self._int_b_column(j) for j in fj]
        # Solutions of B_i s - B_j t = 0 with s, t >= 0 parameterize the
        # intersection.  Since fi's columns are independent, s holds the
        # point's unique coordinates in fi, so the point lies in cone(common)
        # exactly when s vanishes off common.
        rows = [[cols_i[p][k] for p in range(len(fi))] +
                [-cols_j[q][k] for q in range(len(fj))] for k in range(self.n)]
        outside = [p for p, i in enumerate(fi) if i not in common]
        for u in _extreme_rays_nonneg_kernel(rows):
            if any(u[p] for p in outside):
                return [sum(u[p] * cols_i[p][k] for p in range(len(fi))) for k in range(self.n)]
        return None

    def _opposite_sides(self, f0, f1):
        """True when the rays of two top facets off their common wall lie strictly on opposite sides.

        Let x and y be the vertices of f0 and f1 off the wall W.  In f0's
        basis, b_y = sum_w a_w b_w + a_x b_x, and a wall normal phi vanishes
        on every b_w, so phi . b_y = a_x (phi . b_x): the sides are opposite
        exactly when the coordinate a_x is negative.  It is read from f0's
        cached inverse; a singular f0 counts as one side.
        """
        (x,), (y,) = set(f0) - set(f1), set(f1) - set(f0)
        b_inv = self._dual(f0).b_inv
        if b_inv is None:
            return False
        row = b_inv[f0.index(x)]
        return sum(a * b for a, b in zip(row, self.ray(y).b)) < 0

    def check_complete(self, seed=0) -> Verdict:
        """Wall-pairing completeness decided by one generic direction.

        Pure of top dimension, every wall in exactly two facets with the two
        opposite rays strictly on opposite sides, connected dual graph; then
        one direction drawn from ``Random(seed)`` must lie in exactly one
        facet cone.  Once the walls pass, every regular direction lies in the
        same number d >= 1 of cones (see ``check_fan_condition``), so that one
        draw decides for all of them: it passes on a complete fan, and where
        d >= 2 it and every later draw would be multi-covered.
        """
        if self.n == 0:
            return Verdict(True)
        if not self.complex.facets:
            return Verdict(False, {"kind": "empty"})
        if self.complex.dim != self.n - 1 or not self.complex.is_pure():
            small = min(self.complex.facets, key=len)
            return Verdict(False, {"kind": "not-pure", "facet": list(small)})
        if self.n == 1:
            if len(self.complex.facets) != 2:
                return Verdict(False, {"kind": "bad-ray-count"})
            (i,), (j,) = self.complex.facets
            if self.ray(i).b[0] * self.ray(j).b[0] < 0:
                return Verdict(True)
            return Verdict(False, {"kind": "same-side-wall", "wall": [], "facets": [[i], [j]]})
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
        direction = self.generic_direction(random.Random(seed), "b")
        hits = self.locate_cone(direction, mode="b")
        if len(hits) != 1:
            return Verdict(
                False,
                {"kind": "uncovered-direction" if not hits else "multi-covered-direction",
                 "direction": [str(x) for x in direction],
                 "facets": [list(f) for f in hits]},
            )
        return Verdict(True)

    def generic_direction(self, rng, part):
        """A rational direction off every hyperplane spanned by n-1 b-rays or v-rays.

        ``part`` is ``"b"`` or ``"v"``.  Candidates are drawn from ``rng`` until
        one is nonzero and avoids every such hyperplane; the hyperplane normals
        are computed once per part.
        """
        if self.n == 0:
            raise ValueError("dimension 0 has no nonzero direction")
        normals = self._hyperplanes.get(part)
        if normals is None:
            normals = set()
            if self.n > 1:
                for subset in combinations(range(1, self.m + 1), self.n - 1):
                    kernel = linalg.kernel_basis(self._columns(subset, part))
                    if len(kernel) == 1:
                        normals.add(tuple(linalg.clear_denominators(kernel[0])))
            self._hyperplanes[part] = normals
        while True:
            cand = [Fraction(rng.randint(-99, 99), rng.randint(1, 9)) for _ in range(self.n)]
            if all(x == 0 for x in cand):
                continue
            if any(sum(h[k] * cand[k] for k in range(self.n)) == 0 for h in normals):
                continue
            return cand

    def check_nonsingular(self) -> Verdict:
        """Every facet's v-columns extend to a Z-basis (subsets inherit)."""
        for f in self.complex.facets:
            cols = self.v_columns(f)
            rows = [[cols[j][k] for j in range(len(f))] for k in range(self.n)]
            if len(f) == self.n:
                d = linalg.int_det(rows)
                if abs(d) != 1:
                    return Verdict(False, {"kind": "bad-determinant", "facet": list(f), "det": d})
            else:
                g = linalg.maximal_minor_gcd(rows, len(f))
                if g != 1:
                    return Verdict(False, {"kind": "bad-minor-gcd", "facet": list(f), "gcd": g})
        return Verdict(True)

    def check_involutive(self) -> bool:
        return all(all(x == 0 for x in ray.c) for ray in self.rays)

    def validate(self, seed=0) -> ValidationReport:
        """The validation report, cached per ``seed``.

        Only the completeness draw depends on the seed; the fan condition and
        non-singularity verdicts are computed once per fan.
        """
        if seed in self._reports:
            return self._reports[seed]
        if self._structure is None:
            self._structure = (self.check_fan_condition(), self.check_nonsingular())
        fan_v, nonsing_v = self._structure
        if fan_v.ok:
            complete_v = self.check_complete(seed=seed)
        else:
            complete_v = Verdict(False, {"kind": "fan-condition-failed"})
        witnesses = {}
        if not fan_v.ok:
            witnesses["fan_condition"] = fan_v.witness
        if not complete_v.ok:
            witnesses["completeness"] = complete_v.witness
        if not nonsing_v.ok:
            witnesses["nonsingularity"] = nonsing_v.witness
        report = ValidationReport(
            fan_v.ok, complete_v.ok, nonsing_v.ok, self.check_involutive(), witnesses
        )
        self._reports[seed] = report
        return report

    def require_valid(self):
        """The validation report; raises ValueError when the fan is invalid.

        An ok report already cached for any seed is returned as it is, so a
        command that validated with its own seed does not draw a completeness
        direction again with seed 0.
        """
        report = next((r for r in self._reports.values() if r.ok), None) or self.validate()
        if not report.ok:
            raise ValueError(f"fan is not complete non-singular: {report.witnesses}")
        return report

    # -- cone location ------------------------------------------------------

    def coordinates(self, facet, x, part="b"):
        """The coordinates of x in the basis of a top facet's b- or v-columns.

        x lies in the facet's cone exactly when they are all >= 0, and on the
        cone's boundary when moreover one of them is 0.  They are read from
        the block inverses of the facet's cached ``DualBasis``.
        """
        if len(x) != self.n:
            raise ValueError(f"point has {len(x)} coordinates, the fan has dimension {self.n}")
        facet = tuple(sorted(facet))
        if facet not in self.complex.facets or len(facet) != self.n:
            raise ValueError(f"{facet} is not a top-dimensional facet")
        if part not in ("b", "v"):
            raise ValueError("part must be 'b' or 'v'")
        record = self._dual(facet)
        inv = record.b_inv if part == "b" else record.v_inv
        if inv is None:
            raise ValueError(f"the {part}-columns of {facet} are singular")
        return linalg.mat_vec(inv, x)

    def locate_cone(self, x, mode="b"):
        """Top facets whose cone (b-cones or v-cones) contains the point x."""
        point = [Fraction(v) for v in x]
        return [f for f in self.complex.facets
                if all(s >= 0 for s in self.coordinates(f, point, mode))]

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
            [Ray.from_json(r) for r in data["rays"]],
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


def _extreme_rays_nonneg_kernel(rows):
    """Extreme rays of {u >= 0 : A u = 0} for an integer matrix A, exactly.

    Works in kernel coordinates: with K a kernel basis of A (columns), the
    cone is {z : K z >= 0} and extreme rays activate k-1 independent
    inequalities.  Candidate directions come from signed maximal minors, so
    the whole enumeration stays in integer arithmetic.
    """
    if not rows:
        return []
    d = len(rows[0])
    kern = [linalg.clear_denominators(vec) for vec in linalg.kernel_basis(rows)]
    k = len(kern)
    if k == 0:
        return []
    # Inequality r reads sum_j ineq[r][j] z_j >= 0.
    ineq = [[kern[j][r] for j in range(k)] for r in range(d)]

    rays = []
    seen = set()

    def push(u):
        if all(x >= 0 for x in u) and any(x > 0 for x in u):
            g = linalg.vec_gcd(u)
            key = tuple(x // g for x in u)
            if key not in seen:
                seen.add(key)
                rays.append(list(key))

    if k == 1:
        push([ineq[r][0] for r in range(d)])
        push([-ineq[r][0] for r in range(d)])
        return rays
    for active in combinations(range(d), k - 1):
        sub = [ineq[r] for r in active]
        # one-dimensional kernel of a (k-1) x k integer matrix via minors
        z = [(-1) ** j * linalg.int_det([row[:j] + row[j + 1:] for row in sub])
             for j in range(k)]
        if all(x == 0 for x in z):
            continue
        u = [sum(ineq[r][j] * z[j] for j in range(k)) for r in range(d)]
        push(u)
        push([-x for x in u])
    return rays


# -- canonical form ----------------------------------------------------------


def h_canonical_form(fan: TopologicalFan) -> TopologicalFan:
    """Normalize every ray inside its orbit under the homeomorphism scalars.

    One scalar (s, t, eps) is applied per ray so that afterwards b has L1 norm
    one, the first nonzero entry of v is positive, and c is orthogonal to v.
    Idempotent and constant on orbits.
    """
    new_rays = []
    for ray in fan.rays:
        norm = sum(abs(x) for x in ray.b)
        s = Fraction(1) / norm
        vv = sum(x * x for x in ray.v)
        cv = sum(Fraction(cx) * vx for cx, vx in zip(ray.c, ray.v))
        t = -cv / vv * s
        first = next(x for x in ray.v if x != 0)
        eps = 1 if first > 0 else -1
        new_rays.append(ray.right_mul(RElem(s, t, eps)))
    return TopologicalFan(fan.n, fan.complex, new_rays)


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


def _h_scalar(source: Ray, target: Ray) -> Optional[RElem]:
    """Solve target = source * mu with mu a homeomorphism scalar, if possible."""
    s = None
    for bs, bt in zip(source.b, target.b):
        if bs != 0:
            s = bt / bs
            break
    if s is None or s <= 0:
        return None
    if any(bt != s * bs for bs, bt in zip(source.b, target.b)):
        return None
    if target.v == source.v:
        eps = 1
    elif target.v == tuple(-x for x in source.v):
        eps = -1
    else:
        return None
    t = None
    for cs, ct, vs in zip(source.c, target.c, source.v):
        if vs != 0:
            t = (ct - s * cs) / vs
            break
    if t is None:
        t = Fraction(0)
    if any(ct != s * cs + t * vs for cs, ct, vs in zip(source.c, target.c, source.v)):
        return None
    return RElem(s, t, eps)


def _ray_match_scalar(source: Ray, target: Ray, mode) -> Optional[RElem]:
    if mode == "strict":
        return RElem(1, 0, 1) if source == target else None
    if mode == "d":
        if source == target:
            return RElem(1, 0, 1)
        if source.right_mul(MU0) == target:
            return MU0
        return None
    if mode == "h":
        return _h_scalar(source, target)
    raise ValueError(f"unknown mode {mode!r}")


def equivalent(a: TopologicalFan, b: TopologicalFan, mode="strict") -> Optional[Isomorphism]:
    """Search for a simplicial isomorphism matching rays in the given mode.

    mode 'strict' requires equal rays, 'd' allows the v-flip scalar per ray,
    'h' allows any homeomorphism scalar per ray.  Exhaustive backtracking over
    vertex bijections with facet-structure pruning; the returned sigma is the
    lexicographically least one.
    """
    mode = mode.lower()
    if a.n != b.n or a.m != b.m or len(a.complex.facets) != len(b.complex.facets):
        return None
    if sorted(map(len, a.complex.facets)) != sorted(map(len, b.complex.facets)):
        return None
    m = a.m
    allowed = {}
    for i in range(1, m + 1):
        opts = {}
        for j in range(1, m + 1):
            mu = _ray_match_scalar(a.ray(i), b.ray(j), mode)
            if mu is not None:
                opts[j] = mu
        if not opts:
            return None
        allowed[i] = opts

    facets_b = set(b.complex.facets)
    facets_of_vertex = {i: [f for f in a.complex.facets if i in f] for i in range(1, m + 1)}
    sigma = {}
    used = set()

    def consistent(i):
        for f in facets_of_vertex[i]:
            image = [sigma[v] for v in f if v in sigma]
            if len(image) == len(f):
                if tuple(sorted(image)) not in facets_b:
                    return False
            else:
                img = set(image)
                if not any(img <= set(g) for g in facets_b):
                    return False
        return True

    def backtrack(i):
        if i > m:
            return True
        for j in sorted(allowed[i]):
            if j in used:
                continue
            sigma[i] = j
            used.add(j)
            if consistent(i) and backtrack(i + 1):
                return True
            del sigma[i]
            used.remove(j)
        return False

    if not backtrack(1):
        return None
    scalars = {i: allowed[i][sigma[i]] for i in sigma} if mode == "h" else None
    return Isomorphism(dict(sigma), scalars)
