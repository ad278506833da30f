"""Kernel presentations, transition matrices, cocycle identities, face poset."""

import json
import random
from fractions import Fraction
from math import lcm
from operator import mul

import pytest

from topfan import cli
from topfan.charts import (
    TransitionMatrix,
    chart_table,
    check_cocycle,
    check_conjugation_equivariant,
    kernel_presentation,
    orbit_face_poset,
    transition_matrix,
)
from topfan.complexes import SimplicialComplex
from topfan.fans import Ray, TopologicalFan
from topfan.fixtures import cp2cp2_fan, octahedron_fan, projective_fan
from topfan.realize import product_fan
from topfan.ring import ONE, ZERO, RElem, pairing
from tests import chart_oracle, complex_oracle
from tests.conftest import random_valid_fan


def test_kernel_generators_square_fan(square_fan):
    pres = kernel_presentation(square_fan, (1, 2))
    assert pres.base == (1, 2)
    assert set(pres.generators) == {3, 4}
    g3 = pres.generators[3]
    assert g3[3] == ONE
    assert g3[1] == ONE  # -<alpha_1, beta_3> = -(-1) = 1
    assert g3[2] == RElem(0, 0, 2)
    assert 4 not in g3
    g4 = pres.generators[4]
    assert g4 == {4: ONE, 1: ONE, 2: ONE}


def test_kernel_residual_vanishes(square_fan):
    for base in square_fan.complex.facets:
        pres = kernel_presentation(square_fan, base)
        for k in pres.generators:
            assert all(e.is_zero() for e in chart_oracle.kernel_residual(square_fan, pres, k))


def test_kernel_zero_generators_when_every_vertex_in_base():
    complex_ = SimplicialComplex(2, [(1, 2)])
    fan = TopologicalFan(2, complex_, [Ray.from_parts((1, 0)), Ray.from_parts((0, 1))])
    pres = kernel_presentation(fan, (1, 2))
    assert pres.generators == {}


def test_kernel_requires_facet(square_fan):
    with pytest.raises(ValueError):
        kernel_presentation(square_fan, (1, 3))


def test_kernel_base_independence(square_fan):
    """Different base facets present the same subgroup.

    The v-parts of the exponent vectors span the same integer kernel lattice
    of the map v, and the (b, c)-parts the same rational kernel of (b, c).
    """
    lattices = []
    spaces = []
    for base in square_fan.complex.facets:
        pres = kernel_presentation(square_fan, base)
        v_rows = []
        bc_rows = []
        for k in sorted(pres.generators):
            exps = [pres.exponent(k, j) for j in range(1, square_fan.m + 1)]
            v_rows.append([Fraction(e.v) for e in exps])
            bc_rows.append([e.b for e in exps] + [e.c for e in exps])
        lattices.append(v_rows)
        spaces.append(bc_rows)
    for other in lattices[1:]:
        assert chart_oracle.rank(lattices[0] + other) == chart_oracle.rank(lattices[0])
    for other in spaces[1:]:
        assert chart_oracle.rank(spaces[0] + other) == chart_oracle.rank(spaces[0])


def test_transition_identity(square_fan):
    mat = transition_matrix(square_fan, (1, 2), (1, 2))
    for j in (1, 2):
        for i in (1, 2):
            assert mat.entry(j, i) == (ONE if i == j else ZERO)


def test_transition_published_example(square_fan):
    mat = transition_matrix(square_fan, (1, 2), (2, 3))
    assert mat.entry(3, 1) == RElem(-1, 0, -1)
    # second coordinate of the gluing map: the conjugate-monomial exponent
    assert mat.entry(2, 1) == RElem(0, 0, -2)
    assert chart_oracle.laurent_exponents(mat.entry(2, 1)) == (-1, 1)
    assert mat.entry(2, 2) == ONE
    assert mat.entry(3, 2) == ZERO


def test_transition_kronecker_rows_on_shared_vertices(square_fan):
    mat = transition_matrix(square_fan, (2, 3), (3, 4))
    assert mat.entry(3, 3) == ONE
    assert mat.entry(4, 3) == ZERO


@pytest.mark.parametrize("fan", [cp2cp2_fan(), octahedron_fan()], ids=["cp2cp2", "octahedron"])
def test_transition_json_with_shared_records_equals_it_without(fan):
    facets = [f for f in fan.complex.facets if len(f) == fan.n]
    shared = {tgt: {} for tgt in facets}
    for src in facets:
        for tgt in facets:
            mat = transition_matrix(fan, src, tgt)
            assert mat.to_json(shared[tgt]) == mat.to_json(), (src, tgt)
    for tgt in facets:
        assert all(e is ZERO for row in chart_table(fan, tgt) for e in row if e == ZERO)


@pytest.mark.parametrize("fan", [cp2cp2_fan(), octahedron_fan()], ids=["cp2cp2", "octahedron"])
def test_charts_report_holds_one_record_per_target_entry(monkeypatch, tmp_path, fan):
    """The transitions of one report into a target share their entry records."""
    path = tmp_path / "fan.json"
    path.write_text(json.dumps(fan.to_json()))
    written = []
    monkeypatch.setattr(cli, "_write_json", lambda data, stream: written.append(data))
    assert cli.main(["charts", str(path), "--transitions"]) == 0
    entries = [(tuple(mat["target"]), entry) for mat in written[0]["result"]["transitions"]
               for entry in mat["entries"]]
    records = {}
    for target, entry in entries:
        records.setdefault((target, entry["row"], entry["col"]), set()).add(id(entry))
    assert all(len(ids) == 1 for ids in records.values())
    assert len(records) < len(entries)  # entries repeat across transitions


def test_cocycle_square_and_fixtures(square_fan, oct_fan):
    assert check_cocycle(square_fan).ok
    assert check_cocycle(oct_fan).ok
    assert check_cocycle(projective_fan(2)).ok


def test_cocycle_random_fans(fan_generator):
    rng = random.Random(41)
    for _ in range(12):
        fan = fan_generator(rng, max_m=7)
        assert check_cocycle(fan).ok


def test_cocycle_detects_corruption(square_fan):
    good = transition_matrix(square_fan, (1, 2), (2, 3))
    bad_entries = dict(good.entries)
    bad_entries[(2, 1)] = bad_entries[(2, 1)] + ONE
    bad = TransitionMatrix(good.source, good.target, bad_entries)
    back = transition_matrix(square_fan, (2, 3), (1, 2))
    assert not chart_oracle.is_identity(chart_oracle.compose(back, bad))
    assert chart_oracle.is_identity(chart_oracle.compose(back, good))


def _oracle_fans():
    """Fixtures plus seeded random fans, each with an involutive twin."""
    fans = [cp2cp2_fan(), octahedron_fan(), projective_fan(2), projective_fan(3)]
    rng = random.Random(59)
    for _ in range(8):
        fan = random_valid_fan(rng, max_m=7)
        fans.append(fan)
        flat = [Ray(r.b, (0,) * fan.n, r.v) for r in fan.rays]
        fans.append(TopologicalFan(fan.n, fan.complex, flat))
    return fans


def test_chart_table_agrees_with_cubic_oracle():
    """Sliced transitions, the per-facet cocycle certificate and the
    conjugation scan against their F^2 / F^3 definitions."""
    seen_equivariant = set()
    for fan in _oracle_fans():
        facets = chart_oracle.top_facets(fan)
        for src in facets:
            for tgt in facets:
                fast = transition_matrix(fan, src, tgt)
                assert fast.entries == chart_oracle.reference_transition(fan, src, tgt).entries
        assert chart_oracle.cocycle_failure(fan) is None
        assert check_cocycle(fan).ok
        equivariant = chart_oracle.conjugation_equivariant(fan)
        assert check_conjugation_equivariant(fan) == equivariant
        seen_equivariant.add(equivariant)
    assert seen_equivariant == {True, False}


def _rescaled(fan, rng):
    """fan with every b rescaled by a random positive rational and a random nonzero c."""
    rays = []
    for ray in fan.rays:
        scale = Fraction(rng.randint(1, 9), rng.randint(1, 9))
        c = tuple(Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(fan.n))
        if not any(c):
            c = (Fraction(1),) + c[1:]
        rays.append(Ray(tuple(x * scale for x in ray.b), c, ray.v))
    return TopologicalFan(fan.n, fan.complex, rays)


def test_dual_basis_matches_gauss_jordan_oracle_on_seeded_fans():
    """The adjugate-built dual basis equals the rational block inverse on every top facet
    of seeded fans with rescaled (non-integer) b's and nonzero c's, n = 1..4."""
    rng = random.Random(61)
    facets = non_integer_b = 0
    dimensions = set()
    while facets < 300:
        fan = random_valid_fan(rng, max_m=9)
        if rng.random() < 0.3:
            fan = product_fan(fan, random_valid_fan(rng, max_m=5, max_n=2), validate=False)
        fan = _rescaled(fan, rng)
        dimensions.add(fan.n)
        for f in chart_oracle.top_facets(fan):
            expected = chart_oracle.dual_basis({i: fan.rvec(i) for i in f})
            assert fan.dual_basis(f) == expected, (fan, f)
            facets += 1
            non_integer_b += any(x.denominator != 1 for i in f for x in fan.ray(i).b)
    assert non_integer_b > 100 and dimensions >= {1, 2, 3, 4}


def test_chart_table_equals_oracle_products_on_rescaled_fans():
    """Each entry of the integer-scaled chart table equals the Fraction product D_J·R of
    the Gauss–Jordan dual basis with the rays, ``to_json`` included, on seeded fans with
    non-integer b's and c's (q > 1), both signs of det B_J and n = 1..4."""
    rng = random.Random(67)
    facets = 0
    scaled, signs, dimensions = set(), set(), set()
    while facets < 200:
        fan = random_valid_fan(rng, max_m=9)
        if rng.random() < 0.3:
            fan = product_fan(fan, random_valid_fan(rng, max_m=5, max_n=2), validate=False)
        fan = _rescaled(fan, rng)
        dimensions.add(fan.n)
        scaled.add(lcm(*(x.denominator for r in fan.rays for x in r.b + r.c)) > 1)
        betas = [fan.rvec(k) for k in range(1, fan.m + 1)]
        for f in chart_oracle.top_facets(fan):
            rvecs = {i: fan.rvec(i) for i in f}
            duals = chart_oracle.dual_basis(rvecs)
            signs.add(chart_oracle.inverse(chart_oracle.blocks(rvecs)[0])[1] > 0)
            expected = [[pairing(duals[j], beta) for beta in betas] for j in f]
            table = chart_table(fan, f)
            assert fan._scaled_dual(f)[0] > 0, (fan, f)
            assert [list(row) for row in table] == expected, (fan, f)
            assert ([[e.to_json() for e in row] for row in table]
                    == [[e.to_json() for e in row] for row in expected]), (fan, f)
            facets += 1
    assert True in scaled and signs == {True, False} and dimensions >= {1, 2, 3, 4}


def test_cocycle_certificate_catches_corrupt_adjugate():
    """One wrong entry of any facet's cached b- or v-adjugate fails that facet's certificate."""
    for part in ("b", "v"):
        for facet in cp2cp2_fan().complex.facets:
            fan = cp2cp2_fan()
            assert check_cocycle(fan).ok
            record = fan._adjugate(part, facet)
            assert record is fan._adjugates[(part, facet)]
            det, rows = record
            # a slot where the facet's second column is nonzero, so row 0 stops
            # vanishing on it; + 7 cannot cancel the unit determinant
            col = fan._int_columns(part, facet[1:])[0]
            k = next(i for i, x in enumerate(col) if x)
            row = list(rows[0])
            row[k] += 7
            fan._adjugates[(part, facet)] = (det, (tuple(row),) + rows[1:])
            del fan._chart_tables[facet]
            report = check_cocycle(fan)
            assert not report.ok
            assert report.failure == {"kind": "inverse", "pair": [list(facet), list(facet)]}
            assert chart_oracle.cocycle_failure(fan) is None  # the rays themselves are fine


def _rational(rng):
    if rng.random() < 0.3:
        return rng.choice([0, Fraction(0)])
    if rng.random() < 0.4:
        return rng.randint(-9, 9)
    return Fraction(rng.randint(-9, 9), rng.randint(1, 12))


def test_rational_dot_matches_the_fraction_sum_on_seeded_ints_and_fractions():
    rng = random.Random(17)
    for _ in range(3000):
        n = rng.randint(0, 7)
        a = [_rational(rng) for _ in range(n)]
        b = [_rational(rng) for _ in range(n)]
        dot = chart_oracle.rational_dot(a, b)
        assert type(dot) is Fraction
        assert dot == sum(map(mul, a, b))


@pytest.mark.parametrize("a, b, expected", [
    ([], [], 0),
    ([0, Fraction(0)], [Fraction(5, 3), 7], 0),
    ([1, 2, 3], [4, 5, 6], 32),
    ([Fraction(1, 2), Fraction(1, 3), Fraction(1, 6)], [1, 1, 1], 1),
    ([Fraction(1, 4), Fraction(-1, 6)], [Fraction(2, 3), Fraction(3, 5)], Fraction(1, 15)),
])
def test_rational_dot_examples(a, b, expected):
    dot = chart_oracle.rational_dot(a, b)
    assert type(dot) is Fraction and dot == expected
    assert (dot.numerator, dot.denominator) == (expected.numerator, expected.denominator)


def test_conjugation_equivariance(square_fan, fan_generator):
    assert check_conjugation_equivariant(square_fan)
    rng = random.Random(43)
    for _ in range(10):
        fan = fan_generator(rng, max_m=6)
        if fan.check_involutive():
            assert check_conjugation_equivariant(fan)
    # a c-vector on one ray generically breaks it
    rays = list(square_fan.rays)
    rays[0] = Ray(rays[0].b, (Fraction(1), Fraction(0)), rays[0].v)
    fan = TopologicalFan(2, square_fan.complex, rays)
    assert not check_conjugation_equivariant(fan)


def test_transition_v_parts_ignore_b_and_c(square_fan):
    """The winding parts of all chart data depend only on the v-vectors."""
    rays = []
    rng = random.Random(47)
    for ray in square_fan.rays:
        b = tuple(x * Fraction(rng.randint(1, 3)) for x in ray.b)
        c = tuple(Fraction(rng.randint(-2, 2)) for _ in ray.c)
        rays.append(Ray(b, c, ray.v))
    perturbed = TopologicalFan(2, square_fan.complex, rays)
    for src in square_fan.complex.facets:
        for tgt in square_fan.complex.facets:
            a = transition_matrix(square_fan, src, tgt)
            b = transition_matrix(perturbed, src, tgt)
            assert {k: mu.v for k, mu in a.entries.items()} == \
                {k: mu.v for k, mu in b.entries.items()}
        pres_a = kernel_presentation(square_fan, src)
        pres_b = kernel_presentation(perturbed, src)
        for k in pres_a.generators:
            assert {j: mu.v for j, mu in pres_a.generators[k].items()} == \
                {j: mu.v for j, mu in pres_b.generators[k].items()}


def test_face_poset_square(square_fan):
    poset = orbit_face_poset(square_fan)
    assert poset.rank_counts() == {0: 1, 1: 4, 2: 4}
    assert poset.elements[0] == ()
    # reverse inclusion: the empty face is the top element
    for e in poset.elements:
        assert complex_oracle.face_poset_leq(e, ())
    # facets are minimal
    for f in square_fan.complex.facets:
        assert not any(a == f for a, _ in poset.covers if len(a) > len(f))


def test_face_poset_octahedron_is_cube(oct_fan):
    poset = orbit_face_poset(oct_fan)
    assert poset.rank_counts() == {0: 1, 1: 6, 2: 12, 3: 8}


def test_face_poset_counts_match_f_vector(fan_generator):
    rng = random.Random(53)
    for _ in range(10):
        fan = fan_generator(rng, max_m=7)
        poset = orbit_face_poset(fan)
        counts = poset.rank_counts()
        f = fan.complex.f_vector()
        for k, fk in enumerate(f):
            assert counts[k + 1] == fk
