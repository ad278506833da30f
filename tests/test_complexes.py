"""Simplicial complex surgeries and counting, with brute-force oracles."""

import random
from collections import Counter
from fractions import Fraction
from itertools import combinations
from math import comb

import pytest

from topfan import charts, realize
from topfan.complexes import FVector, SimplicialComplex, backtrack, cyclic_polytope_boundary
from topfan.fixtures import (
    barnette_complex,
    barnette_fan,
    cp2cp2_fan,
    icosahedron_complex_and_positions,
    octahedron_complex,
    octahedron_fan,
    octahedron_positions,
    projective_fan,
    segment_fan,
    tetrahedron_complex,
)
from topfan.invariants import minimal_non_faces
from tests import complex_oracle
from tests.conftest import random_valid_fan


def square():
    return SimplicialComplex(4, [(1, 2), (2, 3), (3, 4), (4, 1)])


def test_construction_rejects_nested_facets():
    with pytest.raises(ValueError):
        SimplicialComplex(3, [(1, 2, 3), (1, 2)])


def test_construction_rejects_uncovered_vertices():
    with pytest.raises(ValueError):
        SimplicialComplex(4, [(1, 2, 3)])
    with pytest.raises(ValueError, match=r"^vertex 2 appears in no facet \(3 uncovered in all\)$"):
        SimplicialComplex(5, [(1, 4)])
    # the count comes from the facets alone: a huge m builds no vertex set
    with pytest.raises(ValueError, match=r"^vertex 3 appears in no facet \(99999999998 uncovered"):
        SimplicialComplex(10 ** 11, [(1, 2)])


def test_construction_rejects_non_integral_input():
    """A vertex or an m that differs from its int() is named, not truncated;
    integral floats and Fractions are taken as their ints."""
    with pytest.raises(ValueError, match=r"^facet \(1\.7, 2, 3\) is not integral$"):
        SimplicialComplex(3, [(1.7, 2, 3)])
    with pytest.raises(ValueError, match=r"^facet \(Fraction\(5, 2\), 1\) is not integral$"):
        SimplicialComplex(3, [(Fraction(5, 2), 1), (2, 3)])
    with pytest.raises(ValueError, match=r"^m = 2\.5 is not an integer$"):
        SimplicialComplex(2.5, [(1, 2)])
    k = SimplicialComplex(Fraction(3), [[1.0, Fraction(2), 3]])
    assert k.m == 3 and k.facets == ((1, 2, 3),)
    assert all(type(v) is int for v in k.facets[0])


def test_construction_rejects_a_negative_vertex_count():
    with pytest.raises(ValueError, match=r"^m must be a non-negative integer, not -1$"):
        SimplicialComplex(-1, [])


def test_purity():
    assert square().is_pure()
    assert not SimplicialComplex(3, [(1, 2), (3,)]).is_pure()
    assert barnette_complex().is_pure()
    assert SimplicialComplex(1, [(1,)]).is_pure()
    assert cyclic_polytope_boundary(4, 9).is_pure()
    # one facet of another size anywhere in the facet order breaks purity
    assert not SimplicialComplex(4, [(1, 2, 3), (3, 4)]).is_pure()
    assert not SimplicialComplex(4, [(1,), (2, 3, 4)]).is_pure()
    assert not SimplicialComplex(5, [(1, 2), (2, 3), (3, 4, 5)]).is_pure()
    polygon = [(i, i % 1500 + 1) for i in range(1, 1501)]
    assert SimplicialComplex(1500, polygon).is_pure()
    assert not SimplicialComplex(1501, polygon + [(1501,)]).is_pure()


def test_face_membership():
    k = square()
    assert k.has_face((1, 2))
    assert k.has_face((2,))
    assert not k.has_face((1, 3))


def test_link_of_square_vertex():
    link = square().link(1)
    assert link.facets == ((1,), (2,))
    assert sorted(link.labels.values()) == ["2", "4"]


def test_link_out_of_range():
    with pytest.raises(ValueError):
        square().link(9)


def test_link_of_suspension_pole_recovers_base():
    base = square()
    susp = base.suspend()
    link = susp.link(base.m + 1)
    relabel = {new: int(old) for new, old in link.labels.items()}
    assert link.relabeled(relabel) == base


def test_link_octahedron_is_square():
    oct_ = octahedron_complex()
    link = oct_.link(1)
    fv = FVector.of(link)
    assert fv.f == (4, 4)


def test_stellar_subdivision_square():
    out = square().stellar_subdivide((1, 2))
    assert out.m == 5
    assert len(out.facets) == 4 - 1 + 2
    assert out.is_pseudomanifold()


def test_stellar_subdivision_triangle_boundary():
    k = SimplicialComplex(4, [(1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4)])
    out = k.stellar_subdivide((1, 2, 3))
    assert len(out.facets) == 4 - 1 + 3
    assert out.m == 5
    assert out.is_pseudomanifold()


def test_stellar_subdivision_facet_count_rule():
    k = barnette_complex()
    out = k.stellar_subdivide((5, 6, 7, 8))
    assert out.m == 9
    assert len(out.facets) == 19 - 1 + 4 == 22
    assert out.is_pseudomanifold()


def test_stellar_rejects_non_facets():
    with pytest.raises(ValueError):
        square().stellar_subdivide((1, 3))


def test_suspension_of_two_points_is_square():
    k = SimplicialComplex(2, [(1,), (2,)])
    susp = k.suspend()
    assert FVector.of(susp).f == (4, 4)
    assert susp.is_pseudomanifold()


def test_suspension_of_square_is_octahedron():
    susp = square().suspend()
    assert FVector.of(susp).f == (6, 12, 8)


def _brute_faces(complex_):
    seen = set()
    for f in complex_.facets:
        for k in range(1, len(f) + 1):
            seen.update(combinations(f, k))
    return seen


def test_suspension_face_counts_join_formula():
    for k in (square(), octahedron_complex(), barnette_complex()):
        susp = k.suspend()
        base_faces = _brute_faces(k)
        susp_faces = _brute_faces(susp)
        # join with two points: every face F gives F, F+N, F+S
        assert len(susp_faces) == 3 * len(base_faces) + 2


def test_f_h_vectors_frozen():
    assert FVector.of(square()) == FVector((4, 4), (1, 2, 1))
    assert FVector.of(octahedron_complex()) == FVector((6, 12, 8), (1, 3, 3, 1))


def test_simplex_boundary_binomials():
    n = 4
    k = SimplicialComplex(n + 1, list(combinations(range(1, n + 2), n)))
    fv = FVector.of(k)
    assert fv.f == tuple(comb(n + 1, j + 1) for j in range(n))


def test_one_skeleton_square():
    assert square().one_skeleton() == [(1, 2), (1, 4), (2, 3), (3, 4)]


def test_cyclic_polytope_pentagon():
    k = cyclic_polytope_boundary(2, 5)
    assert set(k.facets) == {(1, 2), (2, 3), (3, 4), (4, 5), (1, 5)}


def test_cyclic_polytope_complete_graphs():
    for m in (8, 16):
        k = cyclic_polytope_boundary(4, m)
        assert k.one_skeleton() == list(combinations(range(1, m + 1), 2))


def test_cyclic_polytope_3d_euler():
    for m in (5, 6, 9):
        k = cyclic_polytope_boundary(3, m)
        f = k.f_vector()
        assert f[2] == 2 * m - 4
        assert f[0] - f[1] + f[2] == 2
        assert k.is_pseudomanifold()


def test_cyclic_polytope_facets_match_the_gale_filter():
    """The pruned generation gives the facets, in the same order, that testing
    every n-subset against Gale's evenness criterion does."""
    for n in range(2, 7):
        for m in range(n + 1, 15):
            assert list(cyclic_polytope_boundary(n, m).facets) == complex_oracle.cyclic_facets(n, m)


def test_cyclic_polytope_bad_parameters():
    with pytest.raises(ValueError):
        cyclic_polytope_boundary(4, 4)


def test_barnette_complex_shape():
    k = barnette_complex()
    assert k.f_vector() == (8, 27, 38, 19)
    assert complex_oracle.euler_characteristic(k) == 0
    assert k.is_pseudomanifold()
    # the single missing edge
    assert not k.has_face((4, 8))


def test_json_roundtrip():
    for k in (square(), barnette_complex(), cyclic_polytope_boundary(3, 7)):
        assert SimplicialComplex.from_json(k.to_json()) == k


# -- the backtracking kernel -------------------------------------------------------


def test_backtrack_on_no_vertices_enters_only_the_root():
    assignment, stats = {}, {"nodes": 9}
    assert backtrack([], lambda depth: pytest.fail("there is no depth to enter"), assignment, stats)
    assert assignment == {}
    assert stats == {"nodes": 1, "candidates": 0, "backtracks": 0}


@pytest.mark.parametrize("total, found", [(6, True), (7, False)])
def test_backtrack_asks_lazily_and_counts(total, found):
    """Values 1..2 for x, y, z with x + y + z == total; the last depth filters."""
    vertices = ["x", "y", "z"]
    assignment, stats = {}, {}
    entered = []

    def candidates(depth):
        # entering a depth, and every resumption, sees the earlier vertices only
        assert list(assignment) == vertices[:depth]
        entered.append(tuple(assignment.values()))
        for value in (1, 2):
            if depth < 2 or sum(assignment.values()) + value == total:
                yield value
                assert list(assignment) == vertices[:depth + 1]

    assert backtrack(vertices, candidates, assignment, stats) is found
    if found:
        assert assignment == {"x": 2, "y": 2, "z": 2}
        # every tried value opens a node; the complete assignment is the last
        assert entered == [(), (1,), (1, 1), (1, 2), (2,), (2, 1), (2, 2)]
        assert stats == {"nodes": 8, "candidates": 7, "backtracks": 4}
    else:
        assert assignment == {}
        # an exhausted tree fails at every node, the root included
        assert stats == {"nodes": 7, "candidates": 6, "backtracks": 7}


# -- the incidence index against the per-call derivations ---------------------------


def _random_complex(rng, pure):
    """Maximal random subsets of a few vertices, renamed onto 1..m."""
    size = rng.randint(1, 4)
    pool = range(1, rng.randint(size, 8) + 1)
    drawn = {tuple(sorted(rng.sample(pool, size if pure else rng.randint(1, size))))
             for _ in range(rng.randint(1, 10))}
    maximal = [f for f in drawn if not any(set(f) < set(g) for g in drawn)]
    used = sorted({v for f in maximal for v in f})
    rename = {v: i + 1 for i, v in enumerate(used)}
    return SimplicialComplex(len(used), [[rename[v] for v in f] for f in maximal])


def _disjoint_union(a, b):
    return SimplicialComplex(a.m + b.m, list(a.facets) + [[v + a.m for v in f] for f in b.facets])


def _index_cases():
    """Seeded pure, non-pure and disconnected complexes, the empty one and the fixtures."""
    cases = {"empty": SimplicialComplex(0, [])}
    for seed in range(25):
        rng = random.Random(seed)
        cases[f"pure-{seed}"] = _random_complex(rng, pure=True)
        cases[f"non-pure-{seed}"] = _random_complex(rng, pure=False)
        cases[f"disconnected-{seed}"] = _disjoint_union(
            _random_complex(rng, pure=rng.random() < 0.5), _random_complex(rng, pure=False))
    cases.update({
        "barnette": barnette_complex(),
        "octahedron": octahedron_complex(),
        "tetrahedron": tetrahedron_complex(),
        "icosahedron": icosahedron_complex_and_positions()[0],
        "cyclic-4-8": cyclic_polytope_boundary(4, 8),
        "cp2cp2": cp2cp2_fan().complex,
        "projective-3": projective_fan(3).complex,
        "segment": segment_fan().complex,
        "labeled": SimplicialComplex(4, [(1, 2, 3), (3, 4)], {1: "a", 3: "c", 4: "d"}),
    })
    return cases


def _link_or_error(link, *args):
    try:
        out = link(*args)
    except ValueError as exc:
        return str(exc)
    return out.m, out.facets, out.labels


@pytest.mark.parametrize("name", sorted(_index_cases()))
def test_incidence_index_agrees_with_the_per_call_derivations(name):
    k = _index_cases()[name]
    walls = complex_oracle.walls(k)
    # values and order: walls in insertion order, stars in facet order, faces by (size, lex)
    assert list(k.walls().items()) == [(w, tuple(fs)) for w, fs in walls.items()]
    assert {v: list(k.star(v)) for v in range(1, k.m + 1)} == complex_oracle.plan_stars(k)
    assert ({j: [frozenset(g) for g in k.star(j)] for j in range(1, k.m + 1)}
            == complex_oracle.target_stars(k))
    assert realize._neighbors(k) == complex_oracle.neighbors(k)
    assert k.faces() == complex_oracle.faces(k)
    for d in range(-1, k.dim + 3):
        assert k.faces_of_dim(d) == complex_oracle.faces_of_dim(k, d)
    assert k.one_skeleton() == complex_oracle.faces_of_dim(k, 1)
    assert k.f_vector() == complex_oracle.f_vector(k)
    # vertices 0 and m + 1 lie outside 1..m; the empty subset is a face of a nonempty complex
    for size in range(4):
        for subset in combinations(range(k.m + 2), size):
            assert k.has_face(subset) == complex_oracle.has_face(k, subset), subset
    assert k.has_face(()) is complex_oracle.has_face(k, ()) is bool(k.facets)
    assert k.has_face((1, 1)) == complex_oracle.has_face(k, (1, 1))
    assert minimal_non_faces(k) == complex_oracle.minimal_non_faces(k)
    for v in range(1, k.m + 1):
        # the link of a vertex that is a facet has an empty facet: both raise
        assert _link_or_error(k.link, v) == _link_or_error(complex_oracle.link, k, v)
    for v in (0, k.m + 1):
        with pytest.raises(ValueError, match=rf"^vertex {v} out of range 1\.\.{k.m}$"):
            k.link(v)
        with pytest.raises(ValueError, match=rf"^vertex {v} out of range 1\.\.{k.m}$"):
            k.star(v)


def test_face_poset_agrees_with_the_per_call_derivation():
    fans = [cp2cp2_fan(), octahedron_fan(), barnette_fan(), projective_fan(3), segment_fan()]
    fans += [random_valid_fan(random.Random(seed)) for seed in range(20)]
    for fan in fans:
        assert charts.orbit_face_poset(fan) == complex_oracle.orbit_face_poset(fan.complex)


def test_returned_incidence_cannot_change_the_index():
    k = barnette_complex()
    faces, edges, walls = k.faces(), k.one_skeleton(), dict(k.walls())
    for got in (k.faces(), k.faces_of_dim(1), k.one_skeleton()):
        got.clear()
    view = k.walls()
    with pytest.raises(TypeError):
        view[(1, 2, 3)] = ()
    with pytest.raises(TypeError):
        del view[next(iter(view))]
    assert all(type(fs) is tuple for fs in view.values())
    assert type(k.star(1)) is tuple
    assert k.faces() == faces and k.one_skeleton() == edges and k.walls() == walls
    assert k.f_vector() == (8, 27, 38, 19)


def test_walls_are_built_once_per_complex(monkeypatch):
    """One walls build per complex, however often validation and the sign
    and sphere routines read the walls (directly and for the dual graph)."""
    slot = SimplicialComplex.__dict__["_walls"]
    builds = Counter()

    class Spy:
        def __get__(self, obj, owner=None):
            return slot.__get__(obj, owner)

        def __set__(self, obj, value):
            if value is not None:
                builds[id(obj)] += 1
            slot.__set__(obj, value)

    monkeypatch.setattr(SimplicialComplex, "_walls", Spy())
    fans = [cp2cp2_fan(), octahedron_fan(), barnette_fan(), projective_fan(3)]
    for fan in fans:
        assert fan.validate().ok
        assert fan.complex.is_pseudomanifold()
        realize.derive_sign_table(fan.complex, fan.complex.facets[0], 1)
        assert builds[id(fan.complex)] == 1
    sphere = realize.realize_2sphere(octahedron_complex(), octahedron_positions())
    assert builds[id(sphere.complex)] == 1
    assert len(builds) == len(fans) + 1
