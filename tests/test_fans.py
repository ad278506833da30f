"""Fan validation, cone location, canonical forms, and the three equivalences."""

import json
import random
from fractions import Fraction
from itertools import combinations, permutations

import pytest

from topfan import fans as fans_module
from topfan import linalg
from topfan.cli import main
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
from tests import chart_oracle, cone_oracle, equivalence_oracle, search_oracle
from tests.conftest import random_valid_fan


def _solve(fan, indices, point, part="b"):
    """Coordinates of point in the given rays' b- or v-columns by a fresh row reduction.

    None when the point is outside their span; this is the reference the
    cached per-facet adjugates are held against.
    """
    cols = [fan.ray(i).b if part == "b" else fan.ray(i).v for i in indices]
    return chart_oracle.solve_unique_columns(cols, point)


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


@pytest.mark.parametrize("v", [(1.7, 1), (Fraction(3, 2), 1), (1, 0.5)])
def test_ray_rejects_a_non_integral_v(v):
    with pytest.raises(ValueError, match=r"^v = .* is not integral$"):
        Ray((1, 2), (0, 0), v)


def _reference_ray(b, c, v):
    """``Ray`` with every entry of b and c passed through ``Fraction`` and v
    through ``int``, whatever its type: the reference for the constructor,
    which keeps a tuple of ``Fraction``s (of ``int``s for v) as it is."""
    b = tuple(Fraction(x) for x in b)
    c = tuple(Fraction(x) for x in c)
    given = tuple(v)
    v = tuple(map(int, given))
    if v != given:
        raise ValueError(f"v = {given} is not integral")
    return Ray(b, c, v)


def _ray_outcome(make, *args):
    try:
        ray = make(*args)
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc)
    return [(type(part), [(type(x), x) for x in part]) for part in (ray.b, ray.c, ray.v)]


@pytest.mark.parametrize("b, c, v", [
    ([1, 2], [0, 0], [1, 2]),
    ((Fraction(1, 2), 1), (0, Fraction(3)), (1, 0)),
    ((1.5, -2.0), (0.25, 0), (1.0, 2)),
    ((True, False), (False, True), (True, False)),
    ((Fraction(1), True), (0, 0), (Fraction(2), 1)),
    (5, (0,), (1,)),
    ((1,), 0, (1,)),
    ((1,), (0,), 1),
    ((1,), (0,), True),
    (1.5, (0,), (1,)),
    ((1, 2), (0, 0), (1.5, 1)),
    ((1, 2), (0, 0), [True, 2.0]),
    ((0, 0), (0, 0), (1, 0)),
    ((1, 0), (0, 0), (2, 0)),
    ((1,), (0, 0), (1, 0)),
    ((Fraction(1),), (Fraction(0),), (float("nan"),)),
])
def test_ray_fields_agree_with_the_reference_on_any_input(b, c, v):
    """Lists, ints, floats and bools give the reference's fields, with their
    types, or its exact error."""
    assert _ray_outcome(Ray, b, c, v) == _ray_outcome(_reference_ray, b, c, v)


def test_ray_keeps_tuples_of_fractions():
    b, c, v = (Fraction(1, 2), Fraction(-3)), (Fraction(0), Fraction(5, 7)), (1, -2)
    ray = Ray(b, c, v)
    assert ray.b is b and ray.c is c and ray.v is v


def test_ray_from_parts_keeps_v_exact():
    # v defaults to b, which must then be integral itself
    with pytest.raises(ValueError, match=r"^v = .* is not integral$"):
        Ray.from_parts((Fraction(1, 2), 1))
    assert Ray.from_parts((Fraction(2), 1)).v == (2, 1)
    assert Ray((1, 2), (0, 0), (Fraction(4, 2), 1.0)).v == (2, 1)


def test_square_fan_validates(square_fan):
    report = square_fan.validate()
    assert report.ok
    assert report.fan_condition_ok and report.completeness_ok and report.nonsingularity_ok
    assert report.involutive


def test_validate_computes_one_cached_report(monkeypatch, square_fan):
    calls, verdicts, draws = [], [], []
    check_complete = TopologicalFan.check_complete
    check_fan_condition = TopologicalFan.check_fan_condition
    draw = TopologicalFan._draw

    def spy_complete(self):
        calls.append("complete")
        verdicts.append(check_complete(self))
        return verdicts[-1]

    def spy_fan_condition(self):
        calls.append("fan-condition")
        return check_fan_condition(self)

    def spy_draw(self, rng, part):
        draws.append((part, rng.getstate() == random.Random(0).getstate()))
        return draw(self, rng, part)

    monkeypatch.setattr(TopologicalFan, "check_complete", spy_complete)
    monkeypatch.setattr(TopologicalFan, "check_fan_condition", spy_fan_condition)
    monkeypatch.setattr(TopologicalFan, "_draw", spy_draw)
    first = square_fan.validate()
    assert first.ok
    assert square_fan.validate() is first
    assert square_fan.require_valid() is first
    # the fan condition runs once; its certificate and the completeness
    # verdict are one computed result, from one draw
    assert calls == ["fan-condition", "complete", "complete"]
    assert verdicts[0] is verdicts[1]
    assert draws == [("b", True)]


def test_completeness_draws_one_direction(monkeypatch, oct_fan):
    """One draw from Random(0), and no point is located twice: the draw's hits are read."""
    draws, located = [], []
    draw, locate = TopologicalFan._draw, TopologicalFan._locate

    def spy(self, rng, part):
        draws.append((part, rng.getstate() == random.Random(0).getstate()))
        return draw(self, rng, part)

    def spy_locate(self, x, part):
        located.append((tuple(x), part))
        return locate(self, x, part)

    monkeypatch.setattr(TopologicalFan, "_draw", spy)
    monkeypatch.setattr(TopologicalFan, "_locate", spy_locate)
    assert oct_fan.check_complete().ok
    assert draws == [("b", True)]
    assert located and len(set(located)) == len(located)


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
    assert verdict.witness["kind"] == "boundary-wall"


def test_completeness_of_fixtures(square_fan, oct_fan):
    assert square_fan.check_complete().ok
    assert oct_fan.check_complete().ok
    assert projective_fan(3).check_complete().ok
    assert segment_fan().check_complete().ok


def _cp2cp2_with_a_fifth_ray(facet):
    """cp2cp2 with a fifth ray along (1, 1) and one more facet through it."""
    base = cp2cp2_fan()
    complex_ = SimplicialComplex(5, base.complex.facets + (facet,))
    return TopologicalFan(2, complex_, base.rays + (Ray.from_parts((1, 1)),))


def test_completeness_witnesses_of_impure_overcrowded_and_disconnected_complexes(square_fan):
    verdict = _cp2cp2_with_a_fifth_ray((5,)).check_complete()
    assert (verdict.ok, verdict.witness) == (False, {"kind": "not-pure", "facet": [5]})
    verdict = _cp2cp2_with_a_fifth_ray((1, 5)).check_complete()
    assert (verdict.ok, verdict.witness) == (False, {
        "kind": "overcrowded-wall", "wall": [1], "facets": [[1, 2], [1, 4], [1, 5]]})
    shifted = tuple(tuple(v + 4 for v in f) for f in square_fan.complex.facets)
    twice = TopologicalFan(2, SimplicialComplex(8, square_fan.complex.facets + shifted),
                           square_fan.rays * 2)
    verdict = twice.check_complete()
    assert (verdict.ok, verdict.witness) == (False, {"kind": "disconnected"})


def _line_fan(*bs):
    """A fan on the line with one ray per entry of bs, each its own facet."""
    return TopologicalFan(1, SimplicialComplex(len(bs), [(k,) for k in range(1, len(bs) + 1)]),
                          [Ray.from_parts((b,), v=(1 if b > 0 else -1,)) for b in bs])


def test_fans_on_the_line_keep_their_verdicts():
    """n = 1: opposite rays are complete; two rays on one side fail the wall
    test at the empty wall and overlap at their common side; one or three
    rays are a bad count."""
    assert _line_fan(1, -1).check_complete().ok and _line_fan(-2, 3).validate().ok
    for bs, point in [((1, 2), "1"), ((-1, -3), "-1"), ((-2, Fraction(-1, 2)), "-1")]:
        fan = _line_fan(*bs)
        assert fan.check_complete().to_json() == {
            "ok": False, "witness": {"kind": "same-side-wall", "wall": [], "facets": [[1], [2]]}}
        assert fan.validate().to_json()["witnesses"] == {
            "fan_condition": {"kind": "cone-overlap", "pair": [[1], [2]], "point": [point]},
            "completeness": {"kind": "fan-condition-failed"}}
    for bs in [(1,), (-1,), (1, -1, 1)]:
        assert _line_fan(*bs).check_complete().to_json() == {
            "ok": False, "witness": {"kind": "bad-ray-count"}}


def test_projective_space_of_dimension_16_validates():
    # each facet's (det, adj) record of dimension 16 is one elimination pass,
    # not a 2^15-term exterior product per wall
    assert projective_fan(16).validate().ok


def test_nonsingular_square(square_fan):
    assert square_fan.check_nonsingular().ok
    dets = {}
    for f in square_fan.complex.facets:
        cols = [square_fan.ray(i).v for i in f]
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
                assert fan.is_regular(point, part) == (any(point) and not boundary)
                boundary_hits += len(boundary)
    assert boundary_hits > 0


def _seeded_fan_of_dimension(rng, n):
    """A valid seeded fan of dimension n: a random fan of dimension <= 3 times further ones."""
    fan = random_valid_fan(rng, max_m=6, max_n=min(n, 3))
    while fan.n < n:
        fan = product_fan(fan, random_valid_fan(rng, max_m=5, max_n=min(n - fan.n, 3)),
                          validate=False)
    return fan


def _oracle_points(fan, part, rng):
    """Ray generators, points inside and across a few walls, and seeded random points."""
    gens = [list(fan.ray(i).b) if part == "b" else list(fan.ray(i).v)
            for i in range(1, fan.m + 1)]
    points = [list(g) for g in gens]
    walls = sorted(fan.complex.walls().items())
    for wall, facets in rng.sample(walls, min(3, len(walls))):
        across = [i for f in facets for i in f if i not in wall]
        for group in (wall, across, wall[:2]):
            points.append([sum(gens[i - 1][k] for i in group) for k in range(fan.n)])
    for _ in range(5):
        points.append([Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(fan.n)])
    return points


def test_cone_tests_agree_with_oracle_inverses_and_row_reduction():
    """Cone location and regularity from the cached adjugates, held against each facet's
    Gauss–Jordan block inverse and a fresh row reduction, for n = 1..6."""
    fans = [cp2cp2_fan(), octahedron_fan(), barnette_fan(), segment_fan(), projective_fan(3)]
    fans += [_seeded_fan_of_dimension(random.Random(100 * n + seed), n)
             for n in range(1, 7) for seed in range(2 if n <= 4 else 1)]
    assert {fan.n for fan in fans} == set(range(1, 7))
    boundary_hits = 0
    for fan in fans:
        rng = random.Random(fan.m)
        blocks = {f: chart_oracle.blocks({i: fan.rvec(i) for i in f}) for f in fan.complex.facets}
        for part in ("b", "v"):
            for point in _oracle_points(fan, part, rng):
                inside, boundary = [], []
                for f in fan.complex.facets:
                    b, _, v = blocks[f]
                    inv, _ = chart_oracle.inverse(b if part == "b" else v)
                    coords = chart_oracle.mat_vec(inv, point)
                    assert coords == _solve(fan, f, point, part)
                    if min(coords) >= 0:
                        inside.append(f)
                        if min(coords) == 0:
                            boundary.append(f)
                assert fan.locate_cone(point, part) == inside, (fan, part, point)
                assert fan.is_regular(point, part) == (any(point) and not boundary)
                boundary_hits += len(boundary)
        assert len(fan._adjugates) <= 2 * len(fan.complex.facets)
    assert boundary_hits > 0


def test_cone_tests_reject_singular_and_non_top_facets():
    b = [(1, 0), (2, 1), (-1, 0), (0, -1)]
    v = [(1, 0), (0, 1), (-1, 0), (0, -1)]
    complex_ = SimplicialComplex(4, [(1, 2), (2, 3), (3, 4), (1, 4)])
    # b-columns of (1, 3) are dependent; so are the v-columns of (1, 3)
    fan = TopologicalFan(2, SimplicialComplex(4, [(1, 3), (2, 4)]),
                         [Ray.from_parts(bb, v=vv) for bb, vv in zip(b, v)])
    for part in ("b", "v"):
        with pytest.raises(ValueError, match=f"the {part}-columns of \\(1, 3\\) are singular"):
            fan.locate_cone([1, 1], part)
        with pytest.raises(ValueError, match=f"the {part}-columns of \\(1, 3\\) are singular"):
            fan.is_regular([1, 1], part)
    # only the v-block of (1, 2) is singular
    v_singular = TopologicalFan(2, complex_, [Ray.from_parts(bb, v=vv) for bb, vv in
                                              zip(b, [(1, 0), (1, 0), (-1, 0), (0, -1)])])
    assert v_singular.locate_cone([1, 1], "b") == [(2, 3)]
    assert v_singular.is_regular([1, 1], "b")
    with pytest.raises(ValueError, match="v-columns of \\(1, 2\\) are singular"):
        v_singular.locate_cone([1, 1], "v")
    with pytest.raises(ValueError, match="v-columns of \\(1, 2\\) are singular"):
        v_singular.is_regular([1, 1], "v")
    partial = TopologicalFan(2, SimplicialComplex(3, [(1, 2), (3,)]),
                             [Ray.from_parts(bb, v=vv) for bb, vv in zip(b[:3], v[:3])])
    for part in ("b", "v"):
        with pytest.raises(ValueError, match="not a top-dimensional facet"):
            partial.locate_cone([1, 1], part)
        with pytest.raises(ValueError, match="not a top-dimensional facet"):
            partial.is_regular([1, 1], part)


def test_generic_direction_draws_off_every_hyperplane():
    for seed, fan in enumerate([cp2cp2_fan(), octahedron_fan(), barnette_fan()]
                               + [random_valid_fan(random.Random(s)) for s in range(8)]):
        for part in ("b", "v"):
            gens = [fan.ray(i).b if part == "b" else fan.ray(i).v for i in range(1, fan.m + 1)]
            spans = [rows for rows in map(list, combinations(gens, fan.n - 1))
                     if chart_oracle.rank(rows) == fan.n - 1] if fan.n > 1 else []
            ours, reference = random.Random(seed), random.Random(seed)
            for _ in range(5):
                # the reference: redraw until the candidate leaves every span
                while True:
                    cand = [Fraction(reference.randint(-99, 99), reference.randint(1, 9))
                            for _ in range(fan.n)]
                    if any(cand) and all(chart_oracle.rank(rows + [cand]) == fan.n for rows in spans):
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
    (phi,) = cone_oracle.kernel_basis(wall or [[Fraction(0)] * fan.n])
    (x,), (y,) = set(f0) - set(f1), set(f1) - set(f0)
    sx, sy = (sum(p * b for p, b in zip(phi, fan.ray(i).b)) for i in (x, y))
    return sx * sy < 0


def _negate_b(fan, k):
    ray = fan.rays[k]
    rays = list(fan.rays)
    rays[k] = Ray(tuple(-x for x in ray.b), ray.c, ray.v)
    return TopologicalFan(fan.n, fan.complex, rays)


def test_wall_test_matches_kernel_normal_signs(fan_generator):
    """The wall test read from one facet's cached record, on every wall, both facet orders."""
    fans = [cp2cp2_fan(), octahedron_fan(), projective_fan(3), segment_fan()]
    # n >= 5: adjugates from one elimination pass rather than cofactor rows
    fans += [projective_fan(5), product_fan(projective_fan(3), projective_fan(3), validate=False),
             suspend_fan(projective_fan(4), validate=False)]
    fans += [fan_generator(random.Random(seed)) for seed in range(8)]
    assert {fan.n for fan in fans} >= {2, 3, 5, 6}
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


def test_equivalent_compares_facet_sizes_before_any_ray():
    """Equal n, m and facet count, facet sizes 2, 2 against 1, 3: no ray is compared."""
    rays = [Ray.from_parts(e) for e in ((1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1))]
    a = TopologicalFan(3, SimplicialComplex(4, [(1, 2), (3, 4)]), rays)
    b = TopologicalFan(3, SimplicialComplex(4, [(1, 2, 3), (4,)]), rays)
    stats = {}
    assert equivalent(a, b, stats=stats) is None
    assert stats == {"candidates": 0, "nodes": 0, "backtracks": 0}


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
        cases += [(other, False) for other in _relatives(fan, k)]
    return cases


def _relatives(fan, k):
    """fan with rays[k % m] b-negated, less its first facet, and made non-pure;
    each of these also with rays[0] b-negated."""
    relatives = [_negate_b(fan, k % fan.m)]
    if len(fan.complex.facets) > 2:
        relatives.append(_subfan(fan, fan.complex.facets[1:]))
    if fan.n >= 2:
        rest = [f for f in fan.complex.facets if fan.m not in f]
        relatives.append(_subfan(fan, rest + [(fan.m,)]))
    for other in list(relatives):
        relatives.append(_negate_b(other, 0))
    return relatives


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


def _with_ray(fan, i, b=None, v=None):
    """fan with ray i's b or v replaced."""
    rays = list(fan.rays)
    ray = rays[i - 1]
    rays[i - 1] = Ray(ray.b if b is None else b, ray.c, ray.v if v is None else v)
    return TopologicalFan(fan.n, fan.complex, rays)


def _broken_facet_cases(fan):
    """fan with its last facet F made dependent in b, and with v_u of F's last
    vertex u replaced by k·v_u + v_w for F's first vertex w, which multiplies
    det V_F by k: dependent in v at k = 0, det +-2 and -3 otherwise."""
    facet = fan.complex.facets[-1]
    u, w = facet[-1], facet[0]
    if u == w:
        return []
    cases = [_with_ray(fan, u, b=fan.ray(w).b)]
    sign = linalg.int_det(list(zip(*(fan.ray(i).v for i in facet))))
    for k in (0, 2, -2, -3 * sign):
        v = tuple(k * a + b for a, b in zip(fan.ray(u).v, fan.ray(w).v))
        if linalg.vec_gcd(v) == 1:
            cases.append(_with_ray(fan, u, v=v))
    return cases


def _small_validation_cases():
    """Facets with more than n vertices, smaller facets with a non-unimodular
    minor gcd, and facet orders that put a bad small facet first or last."""
    plane = [Ray.from_parts(b, v=v) for b, v in [((1, 0), (1, 0)), ((0, 1), (0, 1)),
                                                  ((-1, -1), (-1, -1)), ((1, 1), (1, 2)),
                                                  ((2, 1), (1, 0))]]
    space = [Ray.from_parts(b, v=v) for b, v in [((1, 0, 0), (1, 2, 1)), ((0, 1, 0), (1, 0, 1)),
                                                  ((0, 0, 1), (0, 0, 1)), ((-1, -1, -1), (1, 1, 1))]]
    return [
        TopologicalFan(2, SimplicialComplex(3, [(1, 2, 3)]), plane[:3]),
        TopologicalFan(2, SimplicialComplex(4, [(1, 2), (2, 3, 4)]), plane[:4]),
        TopologicalFan(2, SimplicialComplex(5, [(1, 2), (2, 3), (3, 4, 5)]), plane),
        TopologicalFan(2, SimplicialComplex(5, [(1, 4), (2, 3, 5)]), plane),
        TopologicalFan(2, SimplicialComplex(5, [(1, 5), (2, 3, 4)]), plane),
        TopologicalFan(3, SimplicialComplex(2, [(1, 2)]), space[:2]),
        TopologicalFan(3, SimplicialComplex(4, [(1, 2), (2, 3, 4)]), space),
        TopologicalFan(3, SimplicialComplex(4, [(1, 3, 4), (2,)]), space),
        TopologicalFan(3, SimplicialComplex(4, [(1, 2, 3, 4)]), space),
    ]


def _oracle_cases():
    """Fixtures, seeded fans and their relatives, broken facets, facets larger
    or smaller than n, and n = 1 and n = 8."""
    fans = [fan for fan, _ in _certificate_cases()]
    fans += [product_fan(projective_fan(3), projective_fan(3), validate=False), projective_fan(8)]
    for fan in list(fans):
        fans += _broken_facet_cases(fan)
    return fans + _small_validation_cases()


def test_validation_reads_the_adjugates_as_the_row_reduction_decides():
    """Both per-facet verdicts, from the cached (det, adj) records, against
    row reduction and separate determinants (``cone_oracle``): the same
    JSON on every ``_oracle_cases`` fan.  Each side sees a fresh fan."""
    fans = _oracle_cases()
    kinds, dets = set(), set()
    for fan in fans:
        for check in ("check_fan_condition", "check_nonsingular"):
            fresh = TopologicalFan(fan.n, fan.complex, fan.rays)
            verdict = getattr(fan, check)().to_json()
            assert verdict == getattr(cone_oracle, check)(fresh).to_json(), (fan, check)
            if not verdict["ok"]:
                kinds.add(verdict["witness"]["kind"])
                dets.add(verdict["witness"].get("det"))
    assert {"dependent-b", "dependent-v", "cone-overlap", "bad-determinant",
            "bad-minor-gcd"} <= kinds
    assert {0, 2, -2, -3} <= dets
    assert {fan.n for fan in fans} >= {1, 2, 3, 8}
    assert any(len(f) > fan.n for fan in fans for f in fan.complex.facets)


def test_block_minor_is_the_determinant_or_the_minor_gcd():
    """``_block_minor`` of every facet and part of the ``_oracle_cases`` fans:
    a top facet's signed ``int_det``, any other facet's gcd of maximal minors
    by enumeration (``cone_oracle``), which is 0 above n."""
    sizes, signs = set(), set()
    for fan in _oracle_cases():
        for f in fan.complex.facets:
            for part in ("b", "v"):
                minor = fan._block_minor(part, f)
                rows = [list(r) for r in zip(*fan._int_columns(part, f))]
                if len(f) == fan.n:
                    assert minor == linalg.int_det(rows), (fan, f, part)
                    signs.add((minor > 0) - (minor < 0))
                else:
                    assert minor == cone_oracle.maximal_minor_gcd(rows, len(f)), (fan, f, part)
                sizes.add((len(f) > fan.n) - (len(f) < fan.n))
    assert signs == {-1, 0, 1} and sizes == {-1, 0, 1}


def test_cone_pair_lp_agrees_with_extreme_ray_oracle():
    """Every facet pair, in both orders, gets the enumeration's verdict; each LP
    point is primitive, lies in both cones and outside their common face, and
    the pair scan names the first pair the enumeration finds overlapping.

    The enumeration runs once per pair: an improper intersection is symmetric.
    """
    fans = [fan for fan, _ in _certificate_cases()]
    for seed in range(8, 14):
        fan = random_valid_fan(random.Random(seed))
        fans += [fan] + _relatives(fan, seed)
    overlaps = 0
    for fan in fans:
        facets = fan.complex.facets
        first = None
        for a in range(len(facets)):
            for b in range(a + 1, len(facets)):
                expected = cone_oracle.cone_pair_witness(fan, facets[a], facets[b])
                if expected is not None and first is None:
                    first = [list(facets[a]), list(facets[b])]
                for fi, fj in ((facets[a], facets[b]), (facets[b], facets[a])):
                    point = fan._cone_pair_witness(fi, fj)
                    assert (point is None) == (expected is None), (fan, fi, fj)
                    if point is None:
                        continue
                    overlaps += 1
                    assert linalg.vec_gcd(point) == 1
                    point = [Fraction(x) for x in point]
                    assert _in_cone_by_solve(fan, fi, point)
                    assert _in_cone_by_solve(fan, fj, point)
                    assert not _in_cone_by_solve(fan, sorted(set(fi) & set(fj)), point)
        verdict = fan._check_facet_pairs()
        assert verdict.ok == (first is None)
        if first is not None:
            assert verdict.witness["pair"] == first
    assert overlaps > 0


def _spy_pair_lps(monkeypatch):
    """``(rows, rhs)`` of every ``linalg.nonneg_solution`` call, appended as they come."""
    calls = []
    solve = linalg.nonneg_solution
    monkeypatch.setattr(linalg, "nonneg_solution",
                        lambda rows, rhs: calls.append((rows, rhs)) or solve(rows, rhs))
    return calls


def test_pair_lps_return_the_fraction_tableaus_x(monkeypatch):
    """Every LP that ``_cone_pair_witness`` solves on the certificate cases,
    each facet pair in both orders, gets the x of the ``Fraction`` tableau
    (``cone_oracle.nonneg_solution``), not only its verdict."""
    solve = linalg.nonneg_solution
    calls = _spy_pair_lps(monkeypatch)
    for fan, _ in _certificate_cases():
        for fi, fj in permutations(fan.complex.facets, 2):
            fan._cone_pair_witness(fi, fj)
    verdicts = set()
    for rows, rhs in calls:
        x = solve(rows, rhs)
        assert x == cone_oracle.nonneg_solution(rows, rhs), rows
        verdicts.add(x is None)
    assert verdicts == {True, False}


def test_complete_fans_solve_no_pair_lp(monkeypatch):
    calls = _spy_pair_lps(monkeypatch)
    for fan in [cp2cp2_fan(), barnette_fan(),
                product_fan(projective_fan(3), projective_fan(3), validate=False),
                product_fan(projective_fan(3), projective_fan(4), validate=False)]:
        assert fan.validate().ok
    assert calls == []
    verdict = _negate_b(barnette_fan(), 0).check_fan_condition()
    assert calls
    assert not verdict.ok and verdict.witness["kind"] == "cone-overlap"


def test_validation_and_todd_call_no_row_reduction(monkeypatch, capsys, tmp_path):
    """Counts, not times: complete fans are validated, and the Todd genus drawn,
    from the cached facet adjugates; nothing row-reduces or takes a separate
    determinant, and only the pair scan solves LPs."""
    reductions = []
    for name in ("rref", "int_det"):
        original = getattr(linalg, name)
        monkeypatch.setattr(linalg, name, lambda *args, _name=name, _original=original:
                            reductions.append(_name) or _original(*args))
    lps = _spy_pair_lps(monkeypatch)
    for fan in [cp2cp2_fan(), barnette_fan(),
                product_fan(projective_fan(3), projective_fan(3), validate=False),
                projective_fan(16)]:
        assert fan.validate().ok
    path = tmp_path / "cp2cp2.json"
    path.write_text(json.dumps(cp2cp2_fan().to_json()))
    assert main(["invariants", str(path), "--todd"]) == 0
    assert json.loads(capsys.readouterr().out)["result"] == {"todd_genus": 1}
    assert reductions == [] and lps == []
    verdict = _negate_b(barnette_fan(), 0).check_fan_condition()
    assert lps and reductions == []
    assert not verdict.ok and verdict.witness["kind"] == "cone-overlap"


@pytest.mark.parametrize("a, b", [(3, 3), (3, 4)])
def test_large_incomplete_products_validate(capsys, tmp_path, a, b):
    """P^a x P^b less one facet: no certificate applies, so every facet pair is
    settled by its wall or one LP, and the missing facet leaves a boundary wall."""
    whole = product_fan(projective_fan(a), projective_fan(b), validate=False)
    fan = _subfan(whole, whole.complex.facets[1:])
    report = fan.validate()
    assert report.fan_condition_ok and not report.completeness_ok
    assert report.witnesses["completeness"]["kind"] == "boundary-wall"
    path = tmp_path / "incomplete.json"
    path.write_text(json.dumps(fan.to_json()))
    assert main(["validate", str(path)]) == 1
    result = json.loads(capsys.readouterr().out)["result"]
    assert result["fan_condition_ok"] and not result["completeness_ok"]
    assert result["witnesses"] == report.to_json()["witnesses"]


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


# -- orbit-keyed candidates, held against the all-pairs oracle -------------------


def _relabeled(fan, rng, transform=lambda ray: ray):
    """fan with its vertices permuted at random and ``transform`` applied to every ray."""
    mapping = dict(zip(range(1, fan.m + 1), rng.sample(range(1, fan.m + 1), fan.m)))
    return TopologicalFan(fan.n, fan.complex.relabeled(mapping),
                          [transform(fan.ray(old)) for old in sorted(mapping, key=mapping.get)])


def _moved(fan, rng):
    """fan with one ray's b replaced by a direction off every ray's b (n >= 2)."""
    rays = list(fan.rays)
    k = rng.randrange(fan.m)
    lines = {tuple(linalg.clear_denominators(r.b)) for r in fan.rays}
    while True:
        b = tuple(Fraction(rng.randint(-5, 5)) for _ in range(fan.n))
        if any(b) and tuple(linalg.clear_denominators(b)) not in lines:
            break
    rays[k] = Ray(b, rays[k].c, rays[k].v)
    return TopologicalFan(fan.n, fan.complex, rays)


def _pooled(fan, rng):
    """fan with every ray drawn from two of its rays, so rays repeat and buckets hold several."""
    pool = rng.sample(fan.rays, min(2, fan.m))
    return TopologicalFan(fan.n, fan.complex, [rng.choice(pool) for _ in fan.rays])


def _random_homeo_scalar(rng):
    return RElem(Fraction(rng.randint(1, 5), rng.randint(1, 3)),
                 Fraction(rng.randint(-3, 3), rng.randint(1, 3)), rng.choice([1, -1]))


def _shape(fan):
    return fan.n, fan.m, sorted(map(len, fan.complex.facets))


def test_equivalent_matches_the_all_pairs_oracle(fan_generator):
    """Also held against the explicit-stack search it replaced: sigma, scalars and stats."""
    from topfan.ring import MU0

    rng = random.Random(113)
    outcomes = {mode: set() for mode in ("strict", "d", "h")}
    exits = set()
    for _ in range(30):
        fan = fan_generator(rng, max_m=8)
        pooled = _pooled(fan, rng)
        targets = [
            (fan, _relabeled(fan, rng)),
            (fan, _relabeled(fan, rng, lambda r: r.right_mul(_random_homeo_scalar(rng)))),
            (fan, _relabeled(fan, rng, lambda r: r.right_mul(MU0) if rng.random() < 0.5 else r)),
            (pooled, _relabeled(pooled, rng)),
            (pooled, _relabeled(pooled, rng, lambda r: r.right_mul(MU0))),
            (pooled, _pooled(fan, rng)),
            (fan, fan_generator(rng, max_m=8)),
        ]
        if fan.n >= 2:
            targets.append((fan, _moved(_relabeled(fan, rng), rng)))
        for source, target in targets:
            for mode in ("strict", "d", "h"):
                stats, stack_stats = {}, {}
                got = equivalent(source, target, mode, stats=stats)
                stack = search_oracle.equivalent(source, target, mode, stats=stack_stats)
                want = equivalence_oracle.equivalent(source, target, mode)
                assert stats == stack_stats, (source, target, mode)
                if want is None:
                    assert got is None and stack is None, (source, target, mode)
                else:
                    assert got is not None, (source, target, mode)
                    assert got.sigma == want.sigma == stack.sigma
                    assert got.scalars == want.scalars == stack.scalars
                outcomes[mode].add(want is not None)
                if _shape(source) != _shape(target):
                    exits.add("size")
                elif stats["nodes"] == 0:
                    exits.add("empty bucket")
                else:
                    exits.add(("found" if want else "exhausted", stats["backtracks"] > 0))
    assert all(seen == {True, False} for seen in outcomes.values())
    assert exits == {"size", "empty bucket", ("found", False), ("found", True),
                     ("exhausted", True)}, exits


def test_orbit_key_equality_is_exactly_a_ray_match(fan_generator):
    from topfan.ring import MU0

    rng = random.Random(127)
    counts = {(mode, matched): 0 for mode in ("strict", "d", "h") for matched in (True, False)}
    for _ in range(40):
        fan = fan_generator(rng, max_m=7)
        rays = list(fan.rays)
        images = rays + [r.right_mul(MU0) for r in rays]
        images += [r.right_mul(_random_homeo_scalar(rng)) for r in rays]
        for source in rays:
            for target in images:
                for mode, orbit_key in fans_module._ORBIT_KEYS.items():
                    want = equivalence_oracle._ray_match_scalar(source, target, mode)
                    (key_s, mu_s), (key_t, mu_t) = orbit_key(source), orbit_key(target)
                    matched = key_s == key_t
                    assert matched == (want is not None), (source, target, mode)
                    counts[mode, matched] += 1
                    if mode == "h" and matched:
                        mu = mu_s * fans_module._homeo_inverse(mu_t)
                        assert equivalence_oracle.is_homeo_scalar(mu)
                        assert source.right_mul(mu) == target
                        assert mu == want and mu.to_json() == want.to_json()
    assert all(counts.values()), counts


def test_equivalent_stats_on_a_relabelled_copy():
    fan = barnette_fan()
    assert len(set(fan.rays)) == fan.m
    copy = _relabeled(fan, random.Random(131))
    stats = {}
    iso = equivalent(fan, copy, "strict", stats=stats)
    assert iso is not None
    assert stats == {"candidates": fan.m, "nodes": fan.m + 1, "backtracks": 0}


def test_equivalent_rejects_an_unknown_mode(square_fan, oct_fan):
    # also when the sizes differ: the mode is checked first
    assert equivalent(square_fan, oct_fan, "strict") is None
    for target in (square_fan, oct_fan):
        with pytest.raises(ValueError, match="unknown mode 'x'"):
            equivalent(square_fan, target, "x")

