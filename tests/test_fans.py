"""Fan validation, cone location, canonical forms, and the three equivalences."""

import random
from fractions import Fraction
from itertools import combinations

import pytest

from topfan import fans as fans_module
from topfan import linalg
from topfan.complexes import SimplicialComplex
from topfan.fans import Ray, RElem, TopologicalFan, equivalent, h_canonical_form
from topfan.fixtures import (
    barnette_fan,
    cp2cp2_fan,
    octahedron_fan,
    projective_fan,
    segment_fan,
)
from topfan.realize import product_fan, suspend_fan
from tests.conftest import random_valid_fan


def _solve(fan, indices, point, part="b"):
    """Coordinates of point in the given rays' b- or v-columns by a fresh row reduction.

    None when the point is outside their span; this is the reference the
    cached per-facet inverses are held against.
    """
    cols = fan.b_columns(indices) if part == "b" else fan.v_columns(indices)
    return linalg.solve_unique_columns(cols, point)


def _in_cone_by_solve(fan, indices, point, part="b"):
    if not indices:
        return all(x == 0 for x in point)
    coeffs = _solve(fan, indices, point, part)
    return coeffs is not None and all(s >= 0 for s in coeffs)


def test_ray_invariants():
    with pytest.raises(ValueError):
        Ray((Fraction(0), Fraction(0)), (Fraction(0), Fraction(0)), (1, 0))
    with pytest.raises(ValueError):
        Ray((Fraction(1), Fraction(0)), (Fraction(0), Fraction(0)), (2, 0))
    with pytest.raises(ValueError):
        Ray((Fraction(1),), (Fraction(0), Fraction(0)), (1, 0))


def test_square_fan_validates(square_fan):
    report = square_fan.validate()
    assert report.ok
    assert report.fan_condition_ok and report.completeness_ok and report.nonsingularity_ok
    assert report.involutive


def test_validate_cache_is_keyed_on_seed(monkeypatch, square_fan):
    calls = []
    check_complete = TopologicalFan.check_complete
    check_fan_condition = TopologicalFan.check_fan_condition

    def spy_complete(self, seed=0):
        calls.append(("complete", seed))
        return check_complete(self, seed=seed)

    def spy_fan_condition(self):
        calls.append(("fan-condition",))
        return check_fan_condition(self)

    monkeypatch.setattr(TopologicalFan, "check_complete", spy_complete)
    monkeypatch.setattr(TopologicalFan, "check_fan_condition", spy_fan_condition)
    first = square_fan.validate(seed=0)
    other = square_fan.validate(seed=5)
    assert other is not first and other.ok
    assert square_fan.validate(seed=0) is first
    assert square_fan.validate(seed=5) is other
    # the argument-free checks run once per fan; the fan condition's
    # certificate is the completeness check with seed 0
    assert calls == [("fan-condition",), ("complete", 0), ("complete", 0), ("complete", 5)]


def test_completeness_draws_one_direction(monkeypatch, oct_fan):
    draws = []
    generic_direction = TopologicalFan.generic_direction

    def spy(self, rng, part):
        draws.append(part)
        return generic_direction(self, rng, part)

    monkeypatch.setattr(TopologicalFan, "generic_direction", spy)
    assert oct_fan.check_complete(seed=3).ok
    assert draws == ["b"]


def test_fan_condition_overlap_witness():
    complex_ = SimplicialComplex(3, [(1, 2), (1, 3)])
    rays = [
        Ray.from_parts((1, 0)),
        Ray.from_parts((0, 1)),
        Ray.from_parts((1, 1), v=(1, 1)),
    ]
    fan = TopologicalFan(2, complex_, rays)
    verdict = fan.check_fan_condition()
    assert not verdict.ok
    assert verdict.witness["kind"] == "cone-overlap"
    # the witness point really lies in both cones but not in the common one
    point = [Fraction(x) for x in verdict.witness["point"]]
    pair = [tuple(f) for f in verdict.witness["pair"]]
    assert all(_in_cone_by_solve(fan, f, point) for f in pair)
    common = tuple(sorted(set(pair[0]) & set(pair[1])))
    assert not _in_cone_by_solve(fan, common, point)


def test_fan_condition_more_overlap_geometries():
    # nested cones: one strictly inside the other
    nested = TopologicalFan(
        2,
        SimplicialComplex(4, [(1, 2), (3, 4)]),
        [
            Ray.from_parts((1, 0)),
            Ray.from_parts((0, 1)),
            Ray.from_parts((2, 1), v=(2, 1)),
            Ray.from_parts((1, 2), v=(1, 2)),
        ],
    )
    assert not nested.check_fan_condition().ok

    # crossing cones in dimension 3 sharing no generator
    crossing = TopologicalFan(
        3,
        SimplicialComplex(4, [(1, 2), (3, 4)]),
        [
            Ray.from_parts((1, 1, 0), v=(1, 1, 0)),
            Ray.from_parts((-1, 1, 0), v=(-1, 1, 0)),
            Ray.from_parts((0, 1, 1), v=(0, 1, 1)),
            Ray.from_parts((0, 1, -1), v=(0, 1, -1)),
        ],
    )
    verdict = crossing.check_fan_condition()
    assert not verdict.ok
    point = [Fraction(x) for x in verdict.witness["point"]]
    assert _in_cone_by_solve(crossing, (1, 2), point)
    assert _in_cone_by_solve(crossing, (3, 4), point)

    # sharing a ray but overlapping beyond it
    shared = TopologicalFan(
        2,
        SimplicialComplex(3, [(1, 2), (1, 3)]),
        [
            Ray.from_parts((1, 0)),
            Ray.from_parts((1, 2), v=(1, 2)),
            Ray.from_parts((2, 1), v=(2, 1)),
        ],
    )
    assert not shared.check_fan_condition().ok


def test_single_facet_fan_condition():
    complex_ = SimplicialComplex(2, [(1, 2)])
    fan = TopologicalFan(2, complex_, [Ray.from_parts((1, 0)), Ray.from_parts((0, 1))])
    assert fan.check_fan_condition().ok
    assert not fan.check_complete().ok


def test_dependent_b_witness():
    complex_ = SimplicialComplex(2, [(1, 2)])
    rays = [Ray.from_parts((1, 0)), Ray.from_parts((2, 0), v=(0, 1))]
    fan = TopologicalFan(2, complex_, rays)
    verdict = fan.check_fan_condition()
    assert not verdict.ok and verdict.witness["kind"] == "dependent-b"


def test_completeness_deleted_facet():
    complex_ = SimplicialComplex(4, [(1, 2), (2, 3), (3, 4)])
    base = cp2cp2_fan()
    fan = TopologicalFan(2, complex_, base.rays)
    verdict = fan.check_complete()
    assert not verdict.ok
    assert verdict.witness["kind"] in ("boundary-wall", "uncovered-direction")


def test_completeness_of_fixtures(square_fan, oct_fan):
    assert square_fan.check_complete().ok
    assert oct_fan.check_complete().ok
    assert projective_fan(3).check_complete().ok
    assert segment_fan().check_complete().ok


def test_nonsingular_square(square_fan):
    assert square_fan.check_nonsingular().ok
    dets = {}
    from topfan import linalg

    for f in square_fan.complex.facets:
        cols = square_fan.v_columns(f)
        dets[f] = linalg.int_det([[cols[j][k] for j in range(2)] for k in range(2)])
    # ascending vertex order; all unimodular, one orientation-reversing pair
    assert dets == {(1, 2): 1, (2, 3): 1, (3, 4): -1, (1, 4): -1}
    assert all(abs(d) == 1 for d in dets.values())


def test_nonsingular_witness():
    complex_ = SimplicialComplex(2, [(1, 2)])
    rays = [Ray.from_parts((1, 0), v=(1, 0)), Ray.from_parts((0, 1), v=(1, 2))]
    fan = TopologicalFan(2, complex_, rays)
    verdict = fan.check_nonsingular()
    assert not verdict.ok and abs(verdict.witness["det"]) == 2


def test_nonsingular_minor_gcd_for_small_facets():
    # facets smaller than the ambient dimension use the maximal-minor gcd
    complex_ = SimplicialComplex(2, [(1,), (2,)])
    good = TopologicalFan(3, complex_, [
        Ray.from_parts((1, 0, 0), v=(2, 3, 0)),
        Ray.from_parts((-1, 0, 0), v=(0, 0, 1)),
    ])
    assert good.check_nonsingular().ok
    bad = TopologicalFan(3, complex_, [
        Ray.from_parts((1, 0, 0), v=(2, 3, 0)),  # primitive but 2x gcd below
        Ray.from_parts((-1, 0, 0), v=(2, 0, 3)),
    ])
    assert bad.check_nonsingular().ok  # each single column is primitive
    # a genuinely non-extendable column set needs |I| >= 2
    complex2 = SimplicialComplex(2, [(1, 2)])
    pair = TopologicalFan(3, complex2, [
        Ray.from_parts((1, 0, 0), v=(1, 0, 1)),
        Ray.from_parts((0, 1, 0), v=(0, 1, 1)),  # minors: 1, 1, -1 -> fine
    ])
    assert pair.check_nonsingular().ok
    pair2 = TopologicalFan(3, complex2, [
        Ray.from_parts((1, 0, 0), v=(1, 2, 1)),
        Ray.from_parts((0, 1, 0), v=(1, 0, 1)),  # minors: -2, 0, 2 -> gcd 2
    ])
    verdict = pair2.check_nonsingular()
    assert not verdict.ok and verdict.witness["gcd"] == 2


def test_involutive(square_fan):
    assert square_fan.check_involutive()
    rays = list(square_fan.rays)
    rays[0] = Ray(rays[0].b, (Fraction(0), Fraction(1)), rays[0].v)
    assert not TopologicalFan(2, square_fan.complex, rays).check_involutive()


def test_empty_fan_involutive():
    fan = TopologicalFan(0, SimplicialComplex(0, []), [])
    assert fan.check_involutive()


def test_locate_cone_square(square_fan):
    assert square_fan.locate_cone([1, 1], "b") == [(1, 2)]
    hits = square_fan.locate_cone([Fraction(-1), Fraction(-3, 2)], "v")
    assert hits == [(1, 4), (2, 3), (3, 4)]
    # a ray generator sits exactly on the facets containing it
    b1 = list(square_fan.ray(1).b)
    assert square_fan.locate_cone(b1, "b") == [(1, 2), (1, 4)]


def test_locate_cone_unique_for_generic_directions(square_fan, oct_fan):
    rng = random.Random(5)
    for fan in (square_fan, oct_fan):
        for _ in range(1000):
            direction = fan.generic_direction(rng, "b")
            assert len(fan.locate_cone(direction, "b")) == 1


def _location_test_points(fan, part, rng):
    """Ray generators, sums of two rays in or across a wall, and seeded random points."""
    gens = [list(fan.ray(i).b) if part == "b" else list(fan.ray(i).v)
            for i in range(1, fan.m + 1)]
    points = list(gens)
    for wall, facets in fan.complex.walls().items():
        across = [i for f in facets for i in f if i not in wall]
        for i, j in list(combinations(wall, 2)) + list(combinations(across, 2)):
            points.append([x + y for x, y in zip(gens[i - 1], gens[j - 1])])
    for _ in range(20):
        points.append([Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(fan.n)])
    return points


def test_locate_cone_agrees_with_row_reduction():
    fans = [cp2cp2_fan(), octahedron_fan(), barnette_fan()]
    fans += [random_valid_fan(random.Random(seed)) for seed in range(8)]
    boundary_hits = 0
    for fan in fans:
        rng = random.Random(fan.m)
        for part in ("b", "v"):
            for point in _location_test_points(fan, part, rng):
                inside, boundary = [], []
                for f in fan.complex.facets:
                    coeffs = _solve(fan, f, point, part)
                    if coeffs is not None and all(s >= 0 for s in coeffs):
                        inside.append(f)
                        if any(s == 0 for s in coeffs):
                            boundary.append(f)
                assert fan.locate_cone(point, part) == inside, (fan, part, point)
                assert [f for f in fan.complex.facets
                        if min(fan.coordinates(f, point, part)) == 0] == boundary
                boundary_hits += len(boundary)
    assert boundary_hits > 0


def test_generic_direction_draws_off_every_hyperplane():
    for seed, fan in enumerate([cp2cp2_fan(), octahedron_fan(), barnette_fan()]
                               + [random_valid_fan(random.Random(s)) for s in range(8)]):
        for part in ("b", "v"):
            gens = [fan.ray(i).b if part == "b" else fan.ray(i).v for i in range(1, fan.m + 1)]
            spans = [rows for rows in map(list, combinations(gens, fan.n - 1))
                     if linalg.rank(rows) == fan.n - 1] if fan.n > 1 else []
            ours, reference = random.Random(seed), random.Random(seed)
            for _ in range(5):
                # the reference: redraw until the candidate leaves every span
                while True:
                    cand = [Fraction(reference.randint(-99, 99), reference.randint(1, 9))
                            for _ in range(fan.n)]
                    if any(cand) and all(linalg.rank(rows + [cand]) == fan.n for rows in spans):
                        break
                assert fan.generic_direction(ours, part) == cand


def test_locate_cone_rejects_non_top_facets_and_wrong_lengths(square_fan):
    partial = TopologicalFan(2, SimplicialComplex(3, [(1, 2), (3,)]), square_fan.rays[:3])
    with pytest.raises(ValueError, match="not a top-dimensional facet"):
        partial.locate_cone([1, 1])
    with pytest.raises(ValueError, match="3 coordinates"):
        square_fan.locate_cone([1, 1, 1])
    with pytest.raises(ValueError):
        square_fan.locate_cone([1, 1], "c")


def _kernel_normal_sides(fan, f0, f1):
    """The reference wall test: a kernel normal of the common wall's b-rows.

    True when the normal takes strictly opposite signs on the two rays off
    the wall.
    """
    wall = [list(fan.ray(w).b) for w in sorted(set(f0) & set(f1))]
    (phi,) = linalg.kernel_basis(wall or [[Fraction(0)] * fan.n])
    (x,), (y,) = set(f0) - set(f1), set(f1) - set(f0)
    sx, sy = (sum(p * b for p, b in zip(phi, fan.ray(i).b)) for i in (x, y))
    return sx * sy < 0


def _negate_b(fan, k):
    ray = fan.rays[k]
    rays = list(fan.rays)
    rays[k] = Ray(tuple(-x for x in ray.b), ray.c, ray.v)
    return TopologicalFan(fan.n, fan.complex, rays)


def test_wall_test_matches_kernel_normal_signs(fan_generator):
    """The wall test read from a facet's cached inverse, on every wall, both facet orders."""
    fans = [cp2cp2_fan(), octahedron_fan(), projective_fan(3), segment_fan()]
    fans += [fan_generator(random.Random(seed)) for seed in range(8)]
    verdicts = set()
    for fan in fans:
        for subject in [fan] + [_negate_b(fan, k) for k in range(fan.m)]:
            for f0, f1 in subject.complex.walls().values():
                for a, b in ((f0, f1), (f1, f0)):
                    expected = _kernel_normal_sides(subject, a, b)
                    assert subject._opposite_sides(a, b) == expected, (subject, a, b)
                    verdicts.add(expected)
    assert verdicts == {True, False}


def test_json_roundtrip(square_fan):
    data = square_fan.to_json()
    assert TopologicalFan.from_json(data) == square_fan


# -- canonical form ------------------------------------------------------------


def test_canonical_form_examples(square_fan):
    canon = h_canonical_form(square_fan)
    assert canon.ray(4).b == (Fraction(-1, 2), Fraction(-1, 2))
    ray = Ray((Fraction(2), Fraction(0)), (Fraction(3), Fraction(0)), (-1, 0))
    fan = TopologicalFan(
        2,
        SimplicialComplex(2, [(1, 2)]),
        [ray, Ray.from_parts((0, 1))],
    )
    canon2 = h_canonical_form(fan)
    assert canon2.ray(1) == Ray((Fraction(1), Fraction(0)), (Fraction(0), Fraction(0)), (1, 0))


def test_canonical_form_idempotent(fan_generator):
    rng = random.Random(23)
    for _ in range(60):
        fan = fan_generator(rng, max_m=7)
        once = h_canonical_form(fan)
        twice = h_canonical_form(once)
        assert once.rays == twice.rays


def test_canonical_form_orbit_invariant(fan_generator):
    rng = random.Random(29)
    for _ in range(40):
        fan = fan_generator(rng, max_m=6)
        scaled = TopologicalFan(
            fan.n,
            fan.complex,
            [r.right_mul(RElem(Fraction(rng.randint(1, 4)), Fraction(rng.randint(-2, 2)),
                               rng.choice([1, -1]))) for r in fan.rays],
        )
        assert h_canonical_form(fan).rays == h_canonical_form(scaled).rays


def test_canonical_form_is_h_equivalent(square_fan):
    canon = h_canonical_form(square_fan)
    iso = equivalent(square_fan, canon, "h")
    assert iso is not None
    assert iso.sigma == {i: i for i in range(1, 5)}


# -- equivalence ---------------------------------------------------------------


def test_equivalent_identity(square_fan):
    iso = equivalent(square_fan, square_fan, "strict")
    assert iso is not None and iso.sigma == {1: 1, 2: 2, 3: 3, 4: 4}


def test_equivalent_d_mode_flip(square_fan):
    from topfan.ring import MU0

    flipped = TopologicalFan(
        2, square_fan.complex, [r.right_mul(MU0) for r in square_fan.rays]
    )
    assert equivalent(square_fan, flipped, "strict") is None
    iso = equivalent(square_fan, flipped, "d")
    assert iso is not None and iso.sigma == {1: 1, 2: 2, 3: 3, 4: 4}


def test_equivalent_h_mode_scaled(square_fan):
    mu = RElem(2, 3, 1)
    rays = list(square_fan.rays)
    rays[0] = rays[0].right_mul(mu)
    scaled = TopologicalFan(2, square_fan.complex, rays)
    assert equivalent(square_fan, scaled, "strict") is None
    iso = equivalent(square_fan, scaled, "h")
    assert iso is not None
    assert iso.sigma == {1: 1, 2: 2, 3: 3, 4: 4}
    assert iso.scalars[1] == mu


def test_equivalent_respects_relabeling(square_fan):
    mapping = {1: 3, 2: 4, 3: 1, 4: 2}
    relabeled = TopologicalFan(
        2,
        square_fan.complex.relabeled(mapping),
        [square_fan.ray(old) for old in sorted(mapping, key=mapping.get)],
    )
    iso = equivalent(square_fan, relabeled, "strict")
    assert iso is not None and iso.sigma == mapping


def test_equivalence_mode_implications(fan_generator):
    from topfan.ring import MU0

    rng = random.Random(31)
    for _ in range(25):
        fan = fan_generator(rng, max_m=6)
        rays = []
        for r in fan.rays:
            if rng.random() < 0.5:
                r = r.right_mul(MU0)
            rays.append(r)
        twisted = TopologicalFan(fan.n, fan.complex, rays)
        assert equivalent(fan, twisted, "d") is not None
        assert equivalent(fan, twisted, "h") is not None
        scaled = TopologicalFan(
            fan.n,
            fan.complex,
            [r.right_mul(RElem(Fraction(2), Fraction(1), 1)) for r in fan.rays],
        )
        assert equivalent(fan, scaled, "h") is not None


def test_equivalent_size_mismatch(square_fan):
    assert equivalent(square_fan, projective_fan(2), "h") is None


def test_validation_on_random_fans(fan_generator):
    rng = random.Random(37)
    for _ in range(15):
        fan = fan_generator(rng, max_m=7)
        report = fan.validate()
        assert report.ok, report.witnesses


def test_facet_pairs_suffice_for_all_simplex_pairs(fan_generator):
    """Oracle for checking intersections on facet pairs only: re-check every
    simplex pair directly and expect no violation on valid fans."""
    rng = random.Random(101)
    for _ in range(6):
        fan = fan_generator(rng, max_m=6)
        assert fan.check_fan_condition().ok
        faces = fan.complex.faces()
        for a in range(len(faces)):
            for b in range(a + 1, len(faces)):
                assert fan._cone_pair_witness(faces[a], faces[b]) is None, \
                    (faces[a], faces[b])


def _subfan(fan, facets):
    """The fan on the given facets, vertices relabeled onto the ones they cover."""
    kept = sorted({v for f in facets for v in f})
    label = {v: k for k, v in enumerate(kept, start=1)}
    complex_ = SimplicialComplex(len(kept), [[label[v] for v in f] for f in facets])
    return TopologicalFan(fan.n, complex_, [fan.ray(v) for v in kept])


def _certificate_cases():
    """(fan, known complete) pairs: fixtures, seeded fans and their involutive
    twins, then their b-negated, incomplete and non-pure relatives and fans
    on the line, some of which are fans and some not."""
    complete = [cp2cp2_fan(), octahedron_fan(), projective_fan(2), barnette_fan(), segment_fan()]
    for seed in range(8):
        fan = random_valid_fan(random.Random(seed))
        complete.append(fan)
        complete.append(TopologicalFan(fan.n, fan.complex,
                                       [Ray(r.b, (0,) * fan.n, r.v) for r in fan.rays]))
    one_dim = [
        TopologicalFan(1, SimplicialComplex(3, [(1,), (2,), (3,)]),
                       [Ray.from_parts((1,)), Ray.from_parts((-1,)), Ray.from_parts((1,))]),
        TopologicalFan(1, SimplicialComplex(2, [(1,), (2,)]),
                       [Ray.from_parts((1,)), Ray.from_parts((2,), v=(1,))]),
        TopologicalFan(1, SimplicialComplex(1, [(1,)]), [Ray.from_parts((-1,))]),
    ]
    # an 8-cycle winding twice around the origin passes every wall test, and
    # so does its suspension; one direction then lies in two cones
    twice = TopologicalFan(2, SimplicialComplex(8, [(k, k % 8 + 1) for k in range(1, 9)]),
                           [Ray.from_parts(b) for b in [(1, 0), (0, 1), (-1, 0), (0, -1),
                                                        (1, 1), (-1, 1), (-1, -1), (1, -1)]])
    degree_two = [twice, suspend_fan(twice, validate=False)]
    assert all(f.check_complete().witness["kind"] == "multi-covered-direction"
               for f in degree_two)
    cases = [(fan, True) for fan in complete] + [(fan, False) for fan in one_dim + degree_two]
    for k, fan in enumerate(complete):
        relatives = [_negate_b(fan, k % fan.m)]
        if len(fan.complex.facets) > 2:
            relatives.append(_subfan(fan, fan.complex.facets[1:]))
        if fan.n >= 2:
            rest = [f for f in fan.complex.facets if fan.m not in f]
            relatives.append(_subfan(fan, rest + [(fan.m,)]))
        for other in list(relatives):
            relatives.append(_negate_b(other, 0))
        cases += [(other, False) for other in relatives]
    return cases


def test_certificate_agrees_with_pairwise_scan(monkeypatch):
    """The degree-one certificate against the facet-pair scan it short-cuts:
    same verdict and witness everywhere, and no scan on complete fans."""
    scans = []
    check_facet_pairs = TopologicalFan._check_facet_pairs

    def spy(self):
        scans.append(self)
        return check_facet_pairs(self)

    monkeypatch.setattr(TopologicalFan, "_check_facet_pairs", spy)
    verdicts = set()
    for fan, complete in _certificate_cases():
        scans.clear()
        verdict = fan.check_fan_condition()
        if complete:
            assert verdict.ok and not scans, fan
        assert verdict == check_facet_pairs(fan), fan
        verdicts.add(verdict.ok)
    assert verdicts == {True, False}


def test_complete_fans_skip_the_extreme_ray_scan(monkeypatch):
    calls = []
    kernel = fans_module._extreme_rays_nonneg_kernel
    monkeypatch.setattr(fans_module, "_extreme_rays_nonneg_kernel",
                        lambda rows: calls.append(rows) or kernel(rows))
    for fan in [cp2cp2_fan(), barnette_fan(),
                product_fan(projective_fan(3), projective_fan(3), validate=False),
                product_fan(projective_fan(3), projective_fan(4), validate=False)]:
        assert fan.validate().ok
    assert calls == []
    verdict = _negate_b(barnette_fan(), 0).check_fan_condition()
    assert calls
    assert not verdict.ok and verdict.witness["kind"] == "cone-overlap"


def test_canonical_form_h_identity_on_random_fans(fan_generator):
    rng = random.Random(103)
    for _ in range(10):
        fan = fan_generator(rng, max_m=6)
        iso = equivalent(fan, h_canonical_form(fan), "h")
        assert iso is not None
        assert iso.sigma == {i: i for i in range(1, fan.m + 1)}


def test_strict_implies_d_implies_h(fan_generator):
    rng = random.Random(107)
    for _ in range(10):
        fan = fan_generator(rng, max_m=6)
        mapping = dict(zip(range(1, fan.m + 1),
                           rng.sample(range(1, fan.m + 1), fan.m)))
        relabeled = TopologicalFan(
            fan.n,
            fan.complex.relabeled(mapping),
            [fan.ray(old) for old in sorted(mapping, key=mapping.get)],
        )
        assert equivalent(fan, relabeled, "strict") is not None
        assert equivalent(fan, relabeled, "d") is not None
        assert equivalent(fan, relabeled, "h") is not None
