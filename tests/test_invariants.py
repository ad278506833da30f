"""Cohomology presentation, graded ranks, Pontrjagin class, weights, Todd genus."""

import random
from fractions import Fraction
from itertools import combinations
from math import lcm

import pytest

from topfan import invariants, linalg
from topfan.fans import Ray, TopologicalFan
from topfan.fixtures import barnette_fan, cp2cp2_fan, octahedron_fan, projective_fan, segment_fan
from topfan.invariants import (
    DegenerateDirectionError,
    betti_numbers,
    cohomology_presentation,
    graded_rank,
    minimal_non_faces,
    normal_form,
    omni_weights,
    pontrjagin_class,
    todd_genus,
)
from topfan.realize import product_fan, suspend_fan
from topfan.ring import MU0
from tests import chart_oracle, graded_oracle
from tests.conftest import random_valid_fan


def _mono(m, *pairs):
    exp = [0] * m
    for i, e in pairs:
        exp[i - 1] = e
    return tuple(exp)


def test_presentation_square(square_fan):
    pres = cohomology_presentation(square_fan)
    assert pres.sr_monomials == ((1, 3), (2, 4))
    assert pres.relation_matrix == ((1, 0, -1, -1), (0, 1, -2, -1))


def test_presentation_projective():
    pres = cohomology_presentation(projective_fan(3))
    assert pres.sr_monomials == ((1, 2, 3, 4),)


def test_presentation_suspension(square_fan):
    susp = suspend_fan(square_fan)
    pres = cohomology_presentation(susp)
    assert (5, 6) in pres.sr_monomials
    assert pres.relation_matrix[2] == (0, 0, 0, 0, 1, -1)


def test_betti_square(square_fan):
    assert betti_numbers(square_fan) == (1, 2, 1)
    assert [graded_rank(square_fan, k) for k in range(3)] == [1, 2, 1]


def test_betti_octahedron(oct_fan):
    assert betti_numbers(oct_fan) == (1, 3, 3, 1)
    assert [graded_rank(oct_fan, k) for k in range(4)] == [1, 3, 3, 1]


def test_betti_projective_pattern():
    for n in (1, 2, 3):
        fan = projective_fan(n)
        assert betti_numbers(fan) == (1,) * (n + 1)
        assert [graded_rank(fan, k) for k in range(n + 1)] == [1] * (n + 1)


def test_graded_basis_square(square_fan):
    nf = normal_form(square_fan, {_mono(4, (3, 1)): Fraction(1)}, 1)
    assert nf.basis == (_mono(4, (3, 1)), _mono(4, (4, 1)))
    assert nf.coords == (Fraction(1), Fraction(0))
    nf2 = normal_form(square_fan, {_mono(4, (3, 2)): Fraction(1)}, 2)
    assert nf2.basis == (_mono(4, (3, 1), (4, 1)),)
    assert nf2.coords == (Fraction(-1),)
    nf3 = normal_form(square_fan, {_mono(4, (4, 2)): Fraction(1)}, 2)
    assert nf3.coords == (Fraction(-2),)


def test_normal_form_of_sr_monomial_is_zero(square_fan):
    nf = normal_form(square_fan, {_mono(4, (1, 1), (3, 1)): Fraction(1)}, 2)
    assert nf.is_zero()


def _negated_first_b(fan):
    rays = list(fan.rays)
    rays[0] = Ray(tuple(-x for x in rays[0].b), rays[0].c, rays[0].v)
    return TopologicalFan(fan.n, fan.complex, rays)


def test_normal_form_degree_guard(square_fan):
    with pytest.raises(ValueError):
        normal_form(square_fan, {_mono(4, (3, 1)): Fraction(1)}, 2)
    with pytest.raises(ValueError):
        graded_rank(square_fan, 5)
    # the degree is checked before the fan is validated
    bad = _negated_first_b(square_fan)
    for call in (lambda: graded_rank(bad, 3), lambda: normal_form(bad, {}, 3)):
        with pytest.raises(ValueError, match=r"^degree 3 out of range 0\.\.2$"):
            call()


def test_invariants_of_an_invalid_fan_raise(square_fan):
    bad = _negated_first_b(square_fan)
    for invariant in (betti_numbers, pontrjagin_class):
        with pytest.raises(ValueError, match=r"^fan is not complete non-singular: \{'fan_cond"):
            invariant(bad)


def test_pontrjagin_square(square_fan):
    classes = pontrjagin_class(square_fan)
    assert classes[0].coords == (Fraction(1),)
    p1 = classes[1]
    assert p1.basis == (_mono(4, (3, 1), (4, 1)),)
    assert p1.coords == (Fraction(-6),)
    assert p1.is_integral


def test_pontrjagin_truncates_in_low_dimension():
    classes = pontrjagin_class(segment_fan())
    assert len(classes) == 1
    assert classes[0].coords == (Fraction(1),)


def test_pontrjagin_whitney_product(square_fan):
    a = projective_fan(1)
    prod = product_fan(a, a)
    classes = pontrjagin_class(prod)
    # p1 of the product equals the sum of the factors' p1 pullbacks, which
    # vanish here; the degree-4 class is the reduction of mu_1^2 + .. + mu_4^2
    poly = {tuple(2 if i == j else 0 for i in range(4)): Fraction(1) for j in range(4)}
    direct = normal_form(prod, poly, 2)
    assert classes[1].coords == direct.coords


def test_minimal_non_faces_of_octahedron():
    from topfan.fixtures import octahedron_complex

    assert minimal_non_faces(octahedron_complex()) == ((1, 4), (2, 5), (3, 6))


def _w_pair(weights, facet):
    """A facet's weight as the pair (1, 0) for +1 and (0, 1) for -1."""
    return (1, 0) if weights.w(facet) == 1 else (0, 1)


def test_omni_weights_square(square_fan):
    w = omni_weights(square_fan)
    assert w.w((1, 2)) == 1
    assert w.w((2, 3)) == 1
    assert w.w((3, 4)) == -1
    assert w.w((4, 1)) == 1
    assert _w_pair(w, (3, 4)) == (0, 1)


def test_omni_weights_ordinary_fans_positive(oct_fan):
    for fan in (oct_fan, projective_fan(2), projective_fan(3)):
        assert set(omni_weights(fan).weights.values()) == {1}


def _reference_weight(fan, facet):
    """sign det B · det V from integer determinants of the facet's columns."""
    b_rows = chart_oracle.transpose([linalg.clear_denominators(fan.ray(i).b) for i in facet])
    v_rows = chart_oracle.transpose([list(fan.ray(i).v) for i in facet])
    d = linalg.int_det(b_rows) * linalg.int_det(v_rows)
    assert d != 0
    return 1 if d > 0 else -1


def test_omni_weights_match_integer_determinants(fan_generator):
    fans = [cp2cp2_fan(), octahedron_fan(), projective_fan(2), projective_fan(3), segment_fan()]
    fans += [fan_generator(random.Random(seed)) for seed in range(8)]
    seen = set()
    for fan in fans:
        twin = TopologicalFan(fan.n, fan.complex, [ray.right_mul(MU0) for ray in fan.rays])
        for f in (fan, twin):
            weights = omni_weights(f).weights
            assert weights == {facet: _reference_weight(f, facet) for facet in f.complex.facets}
            seen.update(weights.values())
    assert seen == {1, -1}


def test_weight_flip_under_v_negation(square_fan):
    from topfan.fans import Ray, TopologicalFan

    rays = list(square_fan.rays)
    rays[0] = Ray(rays[0].b, rays[0].c, tuple(-x for x in rays[0].v))
    flipped = TopologicalFan(2, square_fan.complex, rays)
    w0 = omni_weights(square_fan)
    # the flipped fan is no longer non-singular-complete in the same way but
    # the orientation determinant itself is still defined per facet
    for f in square_fan.complex.facets:
        s0 = chart_oracle.orientation_sign([square_fan.rvec(i) for i in f])
        s1 = chart_oracle.orientation_sign([flipped.rvec(i) for i in f])
        assert s1 == (-s0 if 1 in f else s0)
    assert w0.w((1, 2)) == 1


def test_todd_genus_square(square_fan):
    assert todd_genus(square_fan, [1, 1]) == 1
    assert todd_genus(square_fan, [Fraction(-1), Fraction(-3, 2)]) == 1
    for seed in range(100):
        assert todd_genus(square_fan, square_fan.generic_direction(random.Random(seed), "v")) == 1


def test_todd_genus_ordinary_fan_is_one(oct_fan):
    for seed in range(20):
        assert todd_genus(oct_fan, oct_fan.generic_direction(random.Random(seed), "v")) == 1
    p3 = projective_fan(3)
    assert todd_genus(p3, p3.generic_direction(random.Random(3), "v")) == 1


def test_todd_genus_direction_independent_on_random_fans(fan_generator):
    rng = random.Random(83)
    for _ in range(8):
        fan = fan_generator(rng, max_m=6)
        values = {todd_genus(fan, fan.generic_direction(random.Random(s), "v"))
                  for s in range(10)}
        assert len(values) == 1


def test_todd_genus_rejects_boundary_direction(square_fan):
    with pytest.raises(DegenerateDirectionError):
        todd_genus(square_fan, [1, 0])
    with pytest.raises(DegenerateDirectionError):
        todd_genus(square_fan, [0, 0])


def _big_ring_rank(fan, k):
    """Independent rank oracle working in all m variables, no elimination.

    Spans the degree-k monomials, quotients by multiples of the non-face
    monomials and of the linear relations, and measures the leftover rank.
    """
    from itertools import combinations_with_replacement

    from topfan.invariants import minimal_non_faces

    m = fan.m
    if k == 0:
        return 1
    monos = []
    for combo in combinations_with_replacement(range(m), k):
        exp = [0] * m
        for i in combo:
            exp[i] += 1
        monos.append(tuple(exp))
    index = {mono: i for i, mono in enumerate(monos)}
    rows = []
    # squarefree non-face monomials times everything of complementary degree
    for nf in minimal_non_faces(fan.complex):
        base = [0] * m
        for i in nf:
            base[i - 1] += 1
        d = len(nf)
        if d > k:
            continue
        for combo in combinations_with_replacement(range(m), k - d):
            exp = list(base)
            for i in combo:
                exp[i] += 1
            row = [Fraction(0)] * len(monos)
            row[index[tuple(exp)]] = Fraction(1)
            rows.append(row)
    # linear relations times everything of degree k-1
    for coord in range(fan.n):
        for combo in combinations_with_replacement(range(m), k - 1):
            row = [Fraction(0)] * len(monos)
            for i in range(m):
                exp = [0] * m
                for j in combo:
                    exp[j] += 1
                exp[i] += 1
                row[index[tuple(exp)]] += Fraction(fan.ray(i + 1).v[coord])
            if any(x != 0 for x in row):
                rows.append(row)
    return len(monos) - chart_oracle.rank(rows)


def test_graded_rank_against_big_ring_oracle(square_fan, oct_fan, fan_generator):
    for fan in (square_fan, oct_fan, projective_fan(2)):
        for k in range(fan.n + 1):
            assert graded_rank(fan, k) == _big_ring_rank(fan, k)
    rng = random.Random(89)
    for _ in range(6):
        fan = fan_generator(rng, max_m=6)
        for k in range(fan.n + 1):
            assert graded_rank(fan, k) == _big_ring_rank(fan, k), (fan, k)


def test_betti_equals_graded_rank_on_random_fans(fan_generator):
    rng = random.Random(61)
    for _ in range(30):
        fan = fan_generator(rng, max_m=7)
        h = betti_numbers(fan)
        ranks = [graded_rank(fan, k) for k in range(fan.n + 1)]
        assert list(h) == ranks, (fan, h, ranks)


def test_poincare_duality_of_ranks(fan_generator):
    rng = random.Random(67)
    for _ in range(20):
        fan = fan_generator(rng, max_m=7)
        h = betti_numbers(fan)
        assert h == tuple(reversed(h))


def test_suspension_betti(square_fan):
    susp = suspend_fan(square_fan)
    assert betti_numbers(susp) == (1, 3, 3, 1)


def test_integrality_flag(square_fan):
    for cls in pontrjagin_class(square_fan):
        assert cls.is_integral


def test_pontrjagin_degree_zero_and_parity(fan_generator):
    rng = random.Random(79)
    for _ in range(8):
        fan = fan_generator(rng, max_m=6)
        classes = pontrjagin_class(fan)
        assert classes[0].coords == (Fraction(1),)
        # only quarter-degree pieces exist: the expansion has no odd terms
        assert [cls.degree for cls in classes] == [4 * k for k in range(len(classes))]


def test_graded_ring_cached_on_the_fan(monkeypatch):
    built = []

    class CountingRing(invariants.GradedRing):
        def __init__(self, presentation):
            built.append(presentation)
            super().__init__(presentation)

    def module_state():
        return {k: len(v) for k, v in vars(invariants).items()
                if isinstance(v, (dict, list, set))}

    monkeypatch.setattr(invariants, "GradedRing", CountingRing)
    before = module_state()
    for _ in range(20):
        graded_rank(cp2cp2_fan(), 1)
    assert len(built) == 20
    assert module_state() == before  # nothing kept per fan at module level
    fan = cp2cp2_fan()
    assert [graded_rank(fan, k) for k in range(3)] == [1, 2, 1]
    normal_form(fan, {_mono(4, (1, 1)): Fraction(1)}, 1)
    assert len(built) == 21  # one ring for the fan, reused


def _seeded_fan(rng, n, max_m):
    while True:
        fan = random_valid_fan(rng, max_m=max_m, max_n=n)
        if fan.n == n:
            return fan


def _oracle_fans(rng):
    """Seeded valid fans with n = 2, 3, 4 in turn (n = 4 by suspension or
    product), every other one with c = 0 on all rays and the rest with c != 0
    on all rays, each also relabeled so that the pivot generators need not
    span a facet; then cp2cp2, the octahedron, P^2 x P^2 and Barnette's
    sphere."""
    fans = []
    for i in range(30):
        n = 2 + i % 3
        if n < 4:
            fan = _seeded_fan(rng, n, 9)
        elif rng.random() < 0.5:
            fan = suspend_fan(_seeded_fan(rng, 3, 7), validate=False)
        else:
            fan = product_fan(_seeded_fan(rng, 2, 5), _seeded_fan(rng, 2, 5), validate=False)
        rays = []
        for ray in fan.rays:
            c = (0,) * fan.n if i % 2 == 0 else tuple(
                Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 3)) for _ in range(fan.n))
            rays.append(Ray(ray.b, c, ray.v))
        fan = TopologicalFan(fan.n, fan.complex, rays)
        # n rays with |det v| > 1 first, when there are such, so that the
        # substitution has a denominator q > 1
        front = next((s for s in combinations(range(1, fan.m + 1), fan.n)
                      if abs(linalg.int_det([fan.ray(i).v for i in s])) > 1), ())
        rest = [i for i in range(1, fan.m + 1) if i not in front]
        rng.shuffle(rest)
        mapping = {old: new for new, old in enumerate([*front, *rest], 1)}
        moved = [None] * fan.m
        for old, new in mapping.items():
            moved[new - 1] = fan.ray(old)
        fans += [fan, TopologicalFan(fan.n, fan.complex.relabeled(mapping), moved)]
    return fans + [cp2cp2_fan(), octahedron_fan(),
                   product_fan(projective_fan(2), projective_fan(2)), barnette_fan()]


def _random_polynomial(rng, m, k):
    poly = {}
    for _ in range(rng.randint(1, 6)):
        exp = [0] * m
        for i in rng.choices(range(m), k=k):
            exp[i] += 1
        poly[tuple(exp)] = rng.choice([rng.randint(-9, 9), Fraction(rng.randint(-9, 9), rng.randint(1, 12))])
    return poly


def _pontrjagin_polynomial(m, k):
    """The degree-k piece of prod_i (1 + mu_i^2), k even."""
    return {tuple(2 if i in subset else 0 for i in range(m)): Fraction(1)
            for subset in combinations(range(m), k // 2)}


def test_integer_graded_ring_matches_the_fraction_oracle():
    """Ranks, bases and reductions of random rational polynomials and of the
    Pontrjagin pieces agree, degree by degree, with the Fraction-arithmetic ring;
    q and each degree's den are the lcm of the reduced denominators there."""
    rng = random.Random(199)
    denominators, image_denominators = [], []
    for fan in _oracle_fans(rng):
        presentation = cohomology_presentation(fan)
        ring = invariants.GradedRing(presentation)
        oracle = graded_oracle.GradedRing(presentation)
        assert ring.pivots == oracle.pivots and ring.survivors == oracle.survivors
        assert ring.q == lcm(*(x.denominator for form in oracle.substitution.values()
                               for x in form.values())), fan
        denominators.append(ring.q)
        for k in range(fan.n + 1):
            assert ring.rank(k) == oracle.rank(k), (fan, k)
            assert ring.basis_monomials(k) == oracle.basis_monomials(k), (fan, k)
            reduced_rows = oracle._degree_data(k)["reduced_rows"]
            den = ring._degree_data(k)["den"]
            assert den == lcm(*(x.denominator for row in reduced_rows for _, x in row)), (fan, k)
            image_denominators.append(den)
            polys = [_random_polynomial(rng, fan.m, k) for _ in range(4)]
            if k % 2 == 0:
                polys.append(_pontrjagin_polynomial(fan.m, k))
            for poly in polys:
                coords = ring.reduce(poly, k)
                assert coords == oracle.reduce(poly, k), (fan, k, poly)
                assert all(type(x) is Fraction for x in coords)
    # the relabeled fans reach substitutions over a denominator q > 1, and a
    # few degrees whose reduced rows are not integral on the basis columns
    assert sum(q > 1 for q in denominators) >= 10
    assert sum(d > 1 for d in image_denominators) >= 2
