"""Sign tables, labeling searches, obstructions, 2-sphere fans, surgeries."""

import random
from fractions import Fraction
from itertools import combinations

import pytest

from topfan import realize
from topfan.complexes import SimplicialComplex, cyclic_polytope_boundary
from topfan.fans import Ray, TopologicalFan
from topfan.fixtures import (
    BARNETTE_FACET_ORDERS,
    BARNETTE_UNIMODULAR_CERTIFICATE,
    barnette_complex,
    barnette_fan,
    cp2cp2_fan,
    icosahedron_complex_and_positions,
    octahedron_complex,
    octahedron_positions,
    projective_fan,
    segment_fan,
    tetrahedron_complex,
    tetrahedron_positions,
)
from topfan.realize import (
    Infeasible,
    LabelingProblem,
    LabelingSolution,
    PositionsNotStarShaped,
    SignContradiction,
    SignTable,
    Unsat,
    derive_sign_table,
    find_clique,
    product_fan,
    realize_2sphere,
    search_labeling,
    stellar_subdivide_fan,
    suspend_fan,
    verify_labeling,
)
from tests import search_oracle
from tests.barnette_oracle import (
    barnette_system_exhaustive,
    barnette_toric_certificate,
    verify_barnette_system,
)
from tests.conftest import random_valid_fan


def square():
    return SimplicialComplex(4, [(1, 2), (2, 3), (3, 4), (4, 1)])


# -- sign tables -----------------------------------------------------------------


def test_sign_table_square_matches_fan_determinants():
    """Propagated signs agree with the determinants of an actual fan labeling."""
    table = derive_sign_table(square(), (1, 2), 1)
    fan = product_fan(segment_fan(), segment_fan(), validate=False)
    # that fan's complex is the square with facets (1,3),(1,4),(2,3),(2,4)
    v = {i: fan.ray(i).v for i in range(1, 5)}
    from topfan import linalg

    for f in fan.complex.facets:
        cols = [v[i] for i in sorted(f)]
        det = linalg.int_det([[cols[j][k] for j in range(2)] for k in range(2)])
        seeded = derive_sign_table(fan.complex, fan.complex.facets[0],
                                   1 if f != fan.complex.facets[0] else 1)
    # seed the table at the first facet with its actual determinant
    first = fan.complex.facets[0]
    cols = [v[i] for i in first]
    seed_sign = linalg.int_det([[cols[j][k] for j in range(2)] for k in range(2)])
    table = derive_sign_table(fan.complex, first, seed_sign)
    for f in fan.complex.facets:
        cols = [v[i] for i in f]
        det = linalg.int_det([[cols[j][k] for j in range(2)] for k in range(2)])
        assert table.sign(f) == det


def test_sign_table_unique_given_seed():
    k = square()
    t1 = derive_sign_table(k, (1, 2), 1)
    t2 = derive_sign_table(k, (3, 4), t1.sign((3, 4)))
    assert t1.signs == t2.signs


def test_sign_table_triangle_is_consistent():
    """The triangle boundary admits a sign table (the projective-plane fan
    of dimension 2 realizes it), so propagation must close without conflict."""
    k = SimplicialComplex(3, [(1, 2), (2, 3), (1, 3)])
    table = derive_sign_table(k, (1, 2), 1)
    assert isinstance(table, SignTable)
    fan = projective_fan(2)
    from topfan import linalg

    for f in fan.complex.facets:
        cols = [fan.ray(i).v for i in f]
        det = linalg.int_det([[cols[j][t] for j in range(2)] for t in range(2)])
        assert table.sign(f) == det


def test_sign_table_contradiction_on_nonorientable():
    # minimal 6-vertex triangulation of the real projective plane
    rp2 = SimplicialComplex(6, [
        (1, 2, 3), (1, 2, 4), (1, 3, 5), (1, 4, 6), (1, 5, 6),
        (2, 3, 6), (2, 4, 5), (2, 5, 6), (3, 4, 5), (3, 4, 6),
    ])
    assert rp2.is_pseudomanifold()
    result = derive_sign_table(rp2, (1, 2, 3), 1)
    assert isinstance(result, SignContradiction)
    assert len(result.cycle) >= 3


def test_sign_table_barnette_reproduces_published_signs():
    table = derive_sign_table(barnette_complex(), (1, 2, 3, 4), 1,
                              ref_orders=BARNETTE_FACET_ORDERS)
    published = [1, -1, -1, -1, -1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, -1, 1]
    got = [table.sign(order) for order in BARNETTE_FACET_ORDERS]
    assert got == published


def test_sign_table_requires_cover():
    with pytest.raises(ValueError):
        derive_sign_table(square(), (1, 2), 1, ref_orders=[(1, 2)])


def test_sign_table_rejects_a_facet_ordered_twice():
    orders = [(1, 2), (2, 1), (2, 3), (3, 4), (1, 4)]
    with pytest.raises(ValueError, match="must cover every facet exactly once"):
        derive_sign_table(square(), (1, 2), 1, ref_orders=orders)
    # each facet once, in any vertex order, is accepted
    assert derive_sign_table(square(), (1, 2), 1, ref_orders=orders[1:]).sign((1, 2)) == 1


# -- labeling searches -------------------------------------------------------------


def test_search_square_toric_sign():
    k = square()
    table = derive_sign_table(k, (1, 2), 1)
    problem = LabelingProblem(k, "toric_sign", bound=2, normalization=(1, 2),
                              sign_table=table)
    result = search_labeling(problem)
    assert isinstance(result, LabelingSolution)
    # the standard product labeling is a verifying certificate
    certificate = {1: (1, 0), 2: (0, 1), 3: (-1, 0), 4: (0, -1)}
    ok, dets, failures = verify_labeling(k, certificate, "toric_sign", table)
    assert ok, failures
    assert all(abs(d) == 1 for d in dets.values())


def test_search_square_unimodular_bound1():
    problem = LabelingProblem(square(), "unimodular", bound=1, normalization=(1, 2))
    result = search_labeling(problem)
    assert isinstance(result, LabelingSolution)


def test_search_results_reverify():
    rng = random.Random(71)
    for _ in range(5):
        fan = random_valid_fan(rng, max_m=6, max_n=2)
        problem = LabelingProblem(fan.complex, "unimodular", bound=2)
        result = search_labeling(problem)
        if isinstance(result, LabelingSolution):
            ok, _, failures = verify_labeling(fan.complex, result.assignment, "unimodular")
            assert ok, failures


def _octahedron_sign_tables():
    """The octahedron's sign tables seeded +1 and -1 on its first facet, the default pin."""
    complex_ = octahedron_complex()
    return complex_, [derive_sign_table(complex_, complex_.facets[0], s) for s in (1, -1)]


def test_a_sign_table_negative_on_the_pinned_facet_is_flipped():
    """Pinning the standard basis forces +1 there, so the -1 table searches as the +1 one."""
    complex_, tables = _octahedron_sign_tables()
    plus, minus = (search_labeling(LabelingProblem(complex_, "toric_sign", sign_table=t))
                   for t in tables)
    assert isinstance(plus, LabelingSolution)
    assert (minus, minus.stats) == (plus, plus.stats)


def test_the_checker_names_each_facet_off_its_table_sign():
    complex_, (plus_table, minus_table) = _octahedron_sign_tables()
    solution = search_labeling(LabelingProblem(complex_, "toric_sign", sign_table=plus_table))
    ok, dets, failures = verify_labeling(complex_, solution.assignment, "toric_sign", minus_table)
    assert not ok
    assert failures == [{"facet": list(f), "det": d, "expected": -d} for f, d in dets.items()]


def test_search_barnette_unimodular():
    problem = LabelingProblem(barnette_complex(), "unimodular", bound=1,
                              normalization=(1, 2, 3, 4))
    result = search_labeling(problem)
    assert isinstance(result, LabelingSolution)
    assert all(abs(d) == 1 for d in result.facet_dets.values())


def test_barnette_certificate_verifies():
    ok, dets, failures = verify_labeling(
        barnette_complex(), BARNETTE_UNIMODULAR_CERTIFICATE, "unimodular"
    )
    assert ok, failures
    assert sorted(set(abs(d) for d in dets.values())) == [1]


def test_search_barnette_toric_small_bound_unsat():
    k = barnette_complex()
    table = derive_sign_table(k, (1, 2, 3, 4), 1, ref_orders=BARNETTE_FACET_ORDERS)
    problem = LabelingProblem(k, "toric_sign", bound=2, normalization=(1, 2, 3, 4),
                              sign_table=table)
    result = search_labeling(problem)
    assert isinstance(result, Unsat)
    assert result.bound == 2


def test_toric_unsat_stable_under_vertex_relabeling():
    """UNSAT does not depend on the backtracking order of the free vertices."""
    k = barnette_complex()
    for mapping in ({5: 6, 6: 5, 7: 8, 8: 7}, {5: 8, 8: 5, 6: 7, 7: 6}):
        full = {v: mapping.get(v, v) for v in range(1, 9)}
        relabeled = k.relabeled(full)
        orders = [tuple(full[v] for v in order) for order in BARNETTE_FACET_ORDERS]
        table = derive_sign_table(relabeled, (1, 2, 3, 4), 1, ref_orders=orders)
        problem = LabelingProblem(relabeled, "toric_sign", bound=1,
                                  normalization=(1, 2, 3, 4), sign_table=table)
        assert isinstance(search_labeling(problem), Unsat)


def test_stellar_subdivided_barnette_still_obstructed():
    """Subdividing the outer facet keeps the sign system infeasible."""
    k = barnette_complex().stellar_subdivide((5, 6, 7, 8))
    table = derive_sign_table(k, (1, 2, 3, 4), 1)
    assert isinstance(table, SignTable)
    problem = LabelingProblem(k, "toric_sign", bound=1, normalization=(1, 2, 3, 4),
                              sign_table=table)
    assert isinstance(search_labeling(problem), Unsat)


# -- the equation system -------------------------------------------------------------


def test_equation_families_on_bad_table():
    table = {(i, j): 1 for i in range(1, 5) for j in range(1, 5)}
    report = verify_barnette_system(table)
    assert not all(ok for _, ok in report["eq2"])
    assert not report["all_hold"]


def test_equation_d3_case_forced_contradiction():
    forced = {(i, i): -1 for i in range(1, 5)}
    forced.update({(2, 1): 0, (3, 2): 0, (1, 3): 0})
    forced.update({(1, 4): -1, (2, 4): -1, (3, 4): -1})
    forced.update({(4, 1): 1, (4, 2): 1, (4, 3): 1})
    forced.update({(1, 2): 1, (2, 3): 1, (3, 1): 1})
    report = verify_barnette_system(forced)
    for fam in ("eq1", "eq2", "eq3", "eq4", "eq5"):
        assert all(ok for _, ok in report[fam]), fam
    assert not report["eq6"][0][1]


def test_equation_exhaustive_small_bounds():
    assert barnette_system_exhaustive(2)["solutions"] == 0
    assert barnette_system_exhaustive(5)["solutions"] == 0


def test_case_analysis_certificate():
    cert = barnette_toric_certificate()
    assert isinstance(cert, Infeasible)
    assert cert.reason == "case-analysis"
    assert cert.witness["complete"]
    assert cert.witness["cyclic_symmetry_verified"]
    assert all(c["contradiction"] for c in cert.witness["cases"])


# -- pigeonhole obstruction ------------------------------------------------------------


def test_cyclic_16_clique_infeasible():
    k = cyclic_polytope_boundary(4, 16)
    result = search_labeling(LabelingProblem(k, "mod2"))
    assert isinstance(result, Infeasible)
    assert result.reason == "clique"
    assert sorted(result.witness["clique"]) == list(range(1, 17))


def test_search_labeling_tries_the_clique_first_in_mod2_mode():
    """No search runs: the clique is a bound-free certificate, as ``realize --mode mod2`` reports."""
    result = search_labeling(LabelingProblem(cyclic_polytope_boundary(4, 16), "mod2"))
    assert isinstance(result, Infeasible) and result.reason == "clique"
    assert result.witness == {"clique": list(range(1, 17)), "classes": 15}
    assert result.stats is None


def test_cyclic_15_no_pigeonhole_verdict():
    k = cyclic_polytope_boundary(4, 15)
    assert find_clique(k, 16) is None
    assert find_clique(k, 15) is not None


def _seeded_complexes(seed, count):
    """Random complexes, pure and of mixed dimension, with their facets kept inclusion-maximal."""
    rng = random.Random(seed)
    for _ in range(count):
        pool = range(1, rng.randint(2, 14) + 1)
        sizes = [rng.randint(1, 4)] if rng.random() < 0.5 else [1, 2, 3, 4]
        drawn = {tuple(sorted(rng.sample(pool, min(rng.choice(sizes), len(pool)))))
                 for _ in range(rng.randint(1, 12))}
        facets = [f for f in drawn if not any(set(f) < set(g) for g in drawn)]
        covered = sorted({v for f in facets for v in f})
        relabel = {v: i for i, v in enumerate(covered, 1)}
        yield SimplicialComplex(len(covered), [[relabel[v] for v in f] for f in facets])


def _clique_instances():
    yield from (barnette_complex(), octahedron_complex(), icosahedron_complex_and_positions()[0])
    yield from (cyclic_polytope_boundary(n, m) for n, m in ((3, 8), (4, 9), (4, 16), (5, 12)))
    yield from _seeded_complexes(157, 60)
    # the complete 4-partite graph on 16 vertices and a 4-simplex: the
    # simplex comes last in degree order, after more than 100 nodes of 4-cliques
    parts = [range(1, 5), range(5, 9), range(9, 13), range(13, 17)]
    edges = [(a, b) for p, q in combinations(parts, 2) for a in p for b in q]
    yield SimplicialComplex(21, edges + [tuple(range(17, 22))])


@pytest.mark.parametrize("limit", [1, 5, 50, None])
def test_find_clique_matches_its_recursive_search(monkeypatch, limit):
    """The kernel-run clique search against the recursion it replaced, budget cut-offs included."""
    if limit is not None:
        monkeypatch.setattr(realize, "_CLIQUE_NODE_LIMIT", limit)
    budget = realize._CLIQUE_NODE_LIMIT
    outcomes = set()
    for k in _clique_instances():
        for size in range(2, (1 << (k.dim + 1)) + 2):
            want = search_oracle.find_clique(k, size, budget)
            assert find_clique(k, size) == want, (k, size)
            unlimited = search_oracle.find_clique(k, size, 10 ** 9)
            outcomes.add((want is not None, unlimited is not None))
    # none at all, found unless the budget is one node, and none although
    # one exists exactly when the budget runs out
    assert (False, False) in outcomes
    assert ((True, True) in outcomes) == (limit != 1)
    assert ((False, True) in outcomes) == (limit is not None)


def _step_data(step):
    return (step.vertex, [(c.others, c.position, c.allowed) for c in step.completes], step.mates)


def test_plan_matches_the_max_planner():
    rng = random.Random(163)
    pure = [k for k in _seeded_complexes(167, 80) if k.is_pure()]
    instances = [barnette_complex(), octahedron_complex(), cyclic_polytope_boundary(4, 11),
                 icosahedron_complex_and_positions()[0], square(), *pure]
    for k in instances:
        table = SignTable({f: rng.choice((1, -1)) for f in k.facets}, {f: f for f in k.facets})
        for pinned in {k.facets[0], rng.choice(k.facets)}:
            for mode in ("unimodular", "toric_sign", "mod2"):
                got = realize._plan(k, pinned, mode, table)
                want = search_oracle.plan(k, pinned, mode, table)
                assert list(map(_step_data, got)) == list(map(_step_data, want)), (k, pinned)


def test_octahedron_mod2_feasible():
    result = search_labeling(LabelingProblem(octahedron_complex(), "mod2"))
    assert isinstance(result, LabelingSolution)
    ok, _, failures = verify_labeling(octahedron_complex(), result.assignment, "mod2")
    assert ok, failures


def test_mod2_infeasible_implies_unimodular_unsat():
    k = cyclic_polytope_boundary(4, 16)
    result = search_labeling(LabelingProblem(k, "mod2"))
    assert isinstance(result, Infeasible)
    problem = LabelingProblem(k, "unimodular", bound=1)
    assert not isinstance(search_labeling(problem), LabelingSolution)


# -- 2-sphere realization ---------------------------------------------------------------


def test_realize_octahedron():
    fan = realize_2sphere(octahedron_complex(), octahedron_positions())
    assert fan.validate().ok
    palette = {(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)}
    assert set(r.v for r in fan.rays) <= palette


def test_realize_icosahedron():
    complex_, positions = icosahedron_complex_and_positions()
    fan = realize_2sphere(complex_, positions)
    assert fan.validate().ok
    palette = {(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)}
    assert set(r.v for r in fan.rays) <= palette


def test_realize_tetrahedron_uses_four_colors():
    fan = realize_2sphere(tetrahedron_complex(), tetrahedron_positions())
    assert fan.validate().ok
    assert len(set(r.v for r in fan.rays)) == 4


def test_realize_rejects_bad_positions():
    # all vertices in a halfspace: the origin is not wrapped
    positions = [(1, 0, 0), (2, 1, 0), (2, -1, 0), (1, 0, 1), (1, 0, -1), (3, 0, 0)]
    with pytest.raises(PositionsNotStarShaped):
        realize_2sphere(octahedron_complex(), positions)


def test_realize_requires_2_sphere():
    with pytest.raises(ValueError):
        realize_2sphere(square(), [(1, 0, 0)] * 4)


# -- fan surgeries -----------------------------------------------------------------------


def test_stellar_fan_square(square_fan):
    out = stellar_subdivide_fan(square_fan, (1, 2))
    assert out.m == 5
    new = out.ray(5)
    assert new.b == (Fraction(1), Fraction(1))
    assert new.v == (1, 1)
    assert all(x == 0 for x in new.c)
    assert out.validate().ok


def test_suspend_fan_square(square_fan):
    out = suspend_fan(square_fan)
    assert out.n == 3 and out.m == 6
    assert out.ray(5).v == (0, 0, 1)
    assert out.ray(6).v == (0, 0, -1)
    assert out.validate().ok


def test_product_fan_projective_lines():
    out = product_fan(projective_fan(1), projective_fan(1))
    assert out.n == 2 and out.m == 4
    assert sorted(r.v for r in out.rays) == [(-1, 0), (0, -1), (0, 1), (1, 0)]
    assert out.validate().ok


def test_surgeries_preserve_validity_random():
    rng = random.Random(73)
    for _ in range(12):
        fan = random_valid_fan(rng, max_m=6)
        if fan.n >= 2:
            facet = rng.choice(fan.complex.facets)
            assert stellar_subdivide_fan(fan, facet).validate().ok
        if fan.n <= 2:
            assert suspend_fan(fan).validate().ok


def test_stellar_fan_rejects_non_facet(square_fan):
    with pytest.raises(ValueError):
        stellar_subdivide_fan(square_fan, (1, 3))


def test_barnette_fan_fixture_validates():
    fan = barnette_fan()
    report = fan.validate()
    assert report.ok
    assert report.involutive
