"""The labeling search kernel against the rational reference in ``labeling_oracle``.

Every search node's candidate list must equal the oracle's (the facets the
vertex completes found by scanning, the linear forms from n determinants,
the box points from one ``rref`` per combination of target determinants),
and so must the box points of every probe (the known facets of a later
vertex); whole-search verdicts, first solutions and counts must agree.
"""

import random

import pytest

from topfan import linalg, realize
from topfan.complexes import SimplicialComplex
from topfan.fixtures import (
    BARNETTE_FACET_ORDERS,
    cyclic_complex,
    icosahedron_complex_and_positions,
    octahedron_complex,
)
from topfan.realize import (
    Infeasible,
    LabelingProblem,
    LabelingSolution,
    Unsat,
    derive_sign_table,
    search_labeling,
)
from tests import labeling_oracle as oracle


def _barnette(seed=None):
    """Barnette's sphere with its reference orders, its vertices relabeled by a seed.

    A seeded 4-set of labels goes to the inner tetrahedron 1..4 and the rest
    to the outer one 5..8, each in increasing order (the benchmark's copies).
    """
    images = list(range(1, 9))
    if seed is not None:
        inner = sorted(random.Random(seed).sample(images, 4))
        images = inner + sorted(set(images) - set(inner))
    orders = [tuple(images[v - 1] for v in f) for f in BARNETTE_FACET_ORDERS]
    complex_ = SimplicialComplex(8, orders)
    pinned = tuple(sorted(orders[0]))
    return complex_, pinned, derive_sign_table(complex_, pinned, 1, ref_orders=orders)


def _instances():
    yield "octahedron", octahedron_complex(), None, None
    yield "icosahedron", icosahedron_complex_and_positions()[0], None, None
    yield "C4(7)", cyclic_complex(4, 7), None, None
    yield ("barnette",) + _barnette()
    for seed in (1, 2, 3, 4):
        yield (f"barnette-relabeled-{seed}",) + _barnette(seed)


INSTANCES = {name: (k, pinned, table) for name, k, pinned, table in _instances()}


def _watch(monkeypatch, name, expected, complex_, pinned):
    """Wrap the kernel's candidate generator ``name``; compare every node with ``expected``.

    Also checks that the node's vertex is the oracle's vertex at that depth.
    Returns the oracle's candidate lists by node, for ``oracle.search``.
    """
    generator = getattr(realize, name)
    start = pinned or complex_.facets[0]
    order = oracle.vertex_order(complex_, start)
    memo = {}

    def watched(step, assignment, n, bound):
        got = generator(step, assignment, n, bound)
        assert step.vertex == order[len(assignment) - len(start)]
        want = expected(step.vertex, assignment, n, bound)
        assert list(got) == want, step.vertex
        memo[oracle.node_key(step.vertex, assignment)] = want
        return got

    monkeypatch.setattr(realize, name, watched)
    return memo


def _watch_probes(monkeypatch, expected, complex_, pinned):
    """Wrap the kernel's probe; compare each probe's box points and verdict with ``expected``.

    Also checks that the probed vertex is one the oracle probes there.
    Returns the oracle's candidate lists by probe, for ``oracle.search``.
    """
    probe = realize._has_candidate
    start = pinned or complex_.facets[0]
    order = oracle.vertex_order(complex_, start)
    memo = {}

    def watched(step, assignment, n, bound):
        got = probe(step, assignment, n, bound)
        depth = len(assignment) - len(start) - 1
        assert step.vertex in oracle.probed_vertices(complex_, order, depth, set(assignment))
        want = expected(step.vertex, assignment, n, bound)
        assert sorted(realize._box_points(step, assignment, n, bound)) == want, step.vertex
        assert got == bool(want), step.vertex
        memo[oracle.node_key(step.vertex, assignment)] = want
        return got

    monkeypatch.setattr(realize, "_has_candidate", watched)
    return memo


def _assert_same_verdict(result, reference):
    assert type(result) is type(reference)
    if isinstance(result, LabelingSolution):
        assert result.assignment == reference.assignment
    else:
        assert result.to_json() == reference.to_json()


def _match_the_oracle_at_every_node(monkeypatch, complex_, pinned, table, mode, bound):
    """Search, comparing every node and probe with the oracle; returns the oracle's node lists."""
    effective = None
    if mode == "toric_sign":
        effective = oracle.effective_sign_table(complex_, pinned or complex_.facets[0], table)

    def expected(vertex, assignment, n, bound_):
        return oracle.integer_candidates(complex_, n, mode, bound_, effective, vertex, assignment)

    memo = _watch(monkeypatch, "_integer_candidates", expected, complex_, pinned)
    probes = _watch_probes(monkeypatch, expected, complex_, pinned)
    result = search_labeling(LabelingProblem(complex_, mode, bound=bound,
                                             normalization=pinned, sign_table=table))
    monkeypatch.undo()
    stats = {}
    reference = oracle.search(complex_, mode, bound, pinned, table, memo={**probes, **memo},
                              stats=stats)
    _assert_same_verdict(result, reference)
    assert result.stats["nodes"] == len(memo) + (1 if isinstance(result, LabelingSolution) else 0)
    assert result.stats["probes"] == len(probes)
    assert result.stats == stats
    return memo


@pytest.mark.parametrize("bound", [1, 2])
@pytest.mark.parametrize("mode", ["unimodular", "toric_sign"])
@pytest.mark.parametrize("name", list(INSTANCES))
def test_integer_candidates_match_the_oracle_at_every_node(monkeypatch, name, mode, bound):
    complex_, pinned, table = INSTANCES[name]
    table = table if mode == "toric_sign" else None
    _match_the_oracle_at_every_node(monkeypatch, complex_, pinned, table, mode, bound)


@pytest.mark.parametrize("bound", [1, 2])
def test_a_vertex_that_completes_no_facet_takes_every_primitive_box_point(monkeypatch, bound):
    """Two vertex-disjoint squares: vertex 5 completes no facet, so its candidates are
    ``_box_points``'s unconstrained ones.  Unimodular mode only: ``derive_sign_table``
    refuses the disconnected dual graph."""
    squares = SimplicialComplex(8, [(1, 2), (2, 3), (3, 4), (1, 4),
                                    (5, 6), (6, 7), (7, 8), (5, 8)])
    memo = _match_the_oracle_at_every_node(monkeypatch, squares, None, None, "unimodular", bound)
    primitive = [x for x in oracle.full_box(2, bound) if any(x) and linalg.vec_gcd(x) == 1]
    assert [want for (vertex, _), want in memo.items() if vertex == 5] == [primitive]


def _subdivided(seed):
    """The octahedron or C4(7), stellarly subdivided at one to four seeded facets."""
    rng = random.Random(seed)
    complex_ = rng.choice((octahedron_complex, lambda: cyclic_complex(4, 7)))()
    for _ in range(rng.randint(1, 4)):
        complex_ = complex_.stellar_subdivide(rng.choice(complex_.facets))
    return complex_


PRUNING_INSTANCES = {
    "octahedron": octahedron_complex(),
    "C4(7)": cyclic_complex(4, 7),
    # seed 0 subdivides C4(7) into a toric-sign search of 16,275 unpruned nodes (9 s)
    **{f"subdivided-{seed}": _subdivided(seed) for seed in range(1, 10)},
}


@pytest.mark.parametrize("bound", [1, 2])
@pytest.mark.parametrize("mode", ["unimodular", "toric_sign"])
@pytest.mark.parametrize("name", list(PRUNING_INSTANCES))
def test_probes_keep_the_verdict_and_the_first_solution(name, mode, bound):
    """Forward checking drops only candidates without a completion: the unpruned search agrees."""
    complex_ = PRUNING_INSTANCES[name]
    result = search_labeling(LabelingProblem(complex_, mode, bound=bound))
    stats = {}
    reference = oracle.search(complex_, mode, bound, prune=False, stats=stats)
    _assert_same_verdict(result, reference)
    assert stats["probes"] == stats["pruned"] == 0
    assert result.stats["nodes"] <= stats["nodes"]


@pytest.mark.parametrize("name", list(INSTANCES))
def test_mod2_candidates_match_the_oracle_at_every_node(monkeypatch, name):
    complex_, pinned, _ = INSTANCES[name]

    def expected(vertex, assignment, n, bound_):
        return oracle.mod2_candidates(complex_, n, vertex, assignment)

    memo = _watch(monkeypatch, "_mod2_candidates", expected, complex_, pinned)
    result = search_labeling(LabelingProblem(complex_, "mod2", normalization=pinned))
    monkeypatch.undo()
    stats = {}
    reference = oracle.search(complex_, "mod2", normalization=pinned, memo=memo, stats=stats)
    _assert_same_verdict(result, reference)
    assert result.stats["nodes"] == len(memo) + 1
    assert result.stats == stats


@pytest.mark.parametrize("mode, generator, bad", [
    ("unimodular", "_integer_candidates", [(2, 0, 0)]),
    ("mod2", "_mod2_candidates", [1]),
])
def test_every_sat_answer_is_reverified(monkeypatch, mode, generator, bad):
    """A generator that hands out a wrong value cannot slip a labeling through."""
    monkeypatch.setattr(realize, generator, lambda step, assignment, n, bound: bad)
    # probes that pass everything, so the wrong value reaches the checker
    monkeypatch.setattr(realize, "_has_candidate", lambda step, assignment, n, bound: True)
    with pytest.raises(AssertionError, match="invalid labeling"):
        search_labeling(LabelingProblem(octahedron_complex(), mode))


def test_search_counts_nodes_candidates_and_backtracks():
    complex_, pinned, table = INSTANCES["barnette"]
    unsat = search_labeling(LabelingProblem(complex_, "toric_sign", bound=1,
                                            normalization=pinned, sign_table=table))
    assert isinstance(unsat, Unsat)
    # an exhausted tree fails at every node, the root included
    stats = unsat.stats
    assert stats["nodes"] == stats["backtracks"] == stats["candidates"] + 1
    assert "stats" not in unsat.to_json()
    assert stats == {"nodes": 16, "candidates": 15, "backtracks": 16, "probes": 131, "pruned": 59}
    wider = search_labeling(LabelingProblem(complex_, "toric_sign", bound=2,
                                            normalization=pinned, sign_table=table))
    assert isinstance(wider, Unsat)
    assert wider.stats == {"nodes": 83, "candidates": 82, "backtracks": 83,
                           "probes": 845, "pruned": 468}

    sat = search_labeling(LabelingProblem(complex_, "unimodular", normalization=pinned))
    assert isinstance(sat, LabelingSolution)
    # the complete assignment is a node, and every candidate opens one
    assert sat.stats["nodes"] == sat.stats["candidates"] + 1
    assert sat.stats["backtracks"] < sat.stats["nodes"]
    assert set(sat.to_json()) == {"mode", "assignment", "facet_dets"}

    # n = 5: each facet's form comes from one linalg.reduce_system pass
    c5_9 = search_labeling(LabelingProblem(cyclic_complex(5, 9), "unimodular", bound=1))
    assert isinstance(c5_9, Unsat)
    assert c5_9.stats == {"nodes": 329, "candidates": 328, "backtracks": 329,
                          "probes": 5168, "pruned": 4192}
    c5_8 = search_labeling(LabelingProblem(cyclic_complex(5, 8), "unimodular"))
    assert isinstance(c5_8, LabelingSolution)
    assert c5_8.stats == {"nodes": 6, "candidates": 5, "backtracks": 2, "probes": 32, "pruned": 25}

    mod2 = search_labeling(LabelingProblem(octahedron_complex(), "mod2"))
    assert mod2.stats == {"nodes": 4, "candidates": 3, "backtracks": 0}
    clique = search_labeling(LabelingProblem(cyclic_complex(4, 16), "mod2"))
    assert isinstance(clique, Infeasible) and clique.stats is None


def test_cofactor_row_expands_the_determinant():
    rng = random.Random(11)
    for n in range(1, 7):
        for _ in range(30):
            cols = tuple(tuple(rng.randint(-3, 3) for _ in range(n)) for _ in range(n - 1))
            position = rng.randrange(n)
            form = linalg.cofactor_row(cols, position)
            for _ in range(3):
                x = tuple(rng.randint(-4, 4) for _ in range(n))
                full = cols[:position] + (x,) + cols[position:]
                rows = [[full[j][t] for j in range(n)] for t in range(n)]
                assert sum(a * b for a, b in zip(form, x)) == linalg.int_det(rows)
