"""Realizability searches and fan surgeries.

Which simplicial spheres carry the integer data of a (topological) toric
manifold?  This module answers bounded versions of that question: sign-table
propagation on pseudomanifolds, backtracking searches for unimodular /
sign-matched / mod-2 vertex labelings, the pigeonhole clique obstruction, the
four-color construction for 2-spheres, and the surgeries (stellar
subdivision, suspension, product) that transport complete non-singular fans
to new ones.

Search verdicts distinguish UNSAT relative to an entry bound from INFEASIBLE
with a bound-free certificate (a sign contradiction, a clique, or an
exhausted finite domain); every SAT answer carries a certificate that an
independent checker re-verifies.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from heapq import heapify, heappop, heappush
from itertools import product
from math import gcd
from operator import mul
from typing import Optional

from . import linalg
from .complexes import SimplicialComplex, backtrack
from .fans import Ray, TopologicalFan
from .fixtures import segment_fan


# -- sign tables ---------------------------------------------------------------


@dataclass
class SignTable:
    """One determinant sign per facet, relative to a reference vertex order."""

    signs: dict  # facet (sorted tuple) -> +-1
    ref_orders: dict  # facet (sorted tuple) -> vertex order the sign refers to

    def sign(self, facet):
        return self.signs[tuple(sorted(facet))]

    def ascending_sign(self, facet):
        """The sign re-expressed for ascending vertex order."""
        key = tuple(sorted(facet))
        return self.signs[key] * linalg.parity(self.ref_orders[key])


@dataclass
class SignContradiction:
    """An orientation-reversing dual cycle; no consistent sign table exists."""

    cycle: list  # facets along the closed dual walk

    def to_json(self):
        return {"kind": "sign-contradiction", "cycle": [list(f) for f in self.cycle]}


def derive_sign_table(complex_: SimplicialComplex, seed_facet, seed_sign, ref_orders=None):
    """Propagate determinant signs across walls from one seeded facet.

    Adjacent facets must carry opposite determinants once their vertex orders
    agree on the shared wall, so each wall crossing flips the sign up to the
    parity between the facets' reference orders.  Returns the unique table on
    an orientable pseudomanifold, or a SignContradiction carrying a closed
    dual walk that cannot be consistently signed.
    """
    if not complex_.is_pure():
        raise ValueError("complex must be pure")
    if not complex_.dual_graph_connected():
        raise ValueError("dual graph must be connected")
    facets = complex_.facets
    if ref_orders is None:
        orders = {f: f for f in facets}
    else:
        orders = {tuple(sorted(o)): tuple(o) for o in ref_orders}
        if len(orders) != len(ref_orders) or set(orders) != set(facets):
            raise ValueError("reference orders must cover every facet exactly once")
    seed = tuple(sorted(seed_facet))
    if seed not in facets:
        raise ValueError(f"{seed} is not a facet")

    def crossing_flip(fa, fb, wall):
        # parity of each facet's reference order against (wall, apex); walls() keys are sorted
        (xa,), (xb,) = set(fa) - set(wall), set(fb) - set(wall)
        pa = linalg.parity([orders[fa].index(x) for x in wall + (xa,)])
        pb = linalg.parity([orders[fb].index(x) for x in wall + (xb,)])
        return -pa * pb

    adjacency = {f: [] for f in facets}
    for wall, fs in complex_.walls().items():
        if len(fs) == 2:
            adjacency[fs[0]].append((fs[1], wall))
            adjacency[fs[1]].append((fs[0], wall))

    signs = {seed: int(seed_sign)}
    parent = {seed: None}
    queue = [seed]
    for current in queue:  # grows as facets are reached: a FIFO walk
        for neighbor, wall in adjacency[current]:
            implied = crossing_flip(current, neighbor, wall) * signs[current]
            if neighbor not in signs:
                signs[neighbor] = implied
                parent[neighbor] = current
                queue.append(neighbor)
            elif signs[neighbor] != implied:
                # each end's path up the parent chain to the seed
                paths = []
                for node in (current, neighbor):
                    paths.append([])
                    while node is not None:
                        paths[-1].append(node)
                        node = parent[node]
                return SignContradiction(paths[0][::-1] + paths[1])
    return SignTable(signs, orders)


# -- labeling problems ----------------------------------------------------------


@dataclass
class LabelingProblem:
    """A search instance: pure pseudomanifold, constraint mode, entry bound."""

    complex: SimplicialComplex
    mode: str  # 'unimodular' | 'toric_sign' | 'mod2'
    bound: int = 1
    normalization: Optional[tuple] = None  # facet pinned to the standard basis
    sign_table: Optional[SignTable] = None  # toric_sign only; derived when absent

    def __post_init__(self):
        if self.mode not in ("unimodular", "toric_sign", "mod2"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.bound < 1:
            raise ValueError("bound must be >= 1")
        if self.normalization is not None:
            key = tuple(sorted(self.normalization))
            if key not in self.complex.facets:
                raise ValueError(f"normalization {key} is not a facet")
            self.normalization = key


@dataclass
class LabelingSolution:
    assignment: dict  # vertex -> integer tuple (or bitmask int for mod2)
    facet_dets: dict  # facet -> determinant (ascending vertex order)
    mode: str
    stats: Optional[dict] = field(default=None, compare=False, repr=False)  # search counts

    def to_json(self):
        return {
            "mode": self.mode,
            "assignment": {str(v): (list(x) if isinstance(x, tuple) else x)
                           for v, x in sorted(self.assignment.items())},
            "facet_dets": {",".join(map(str, f)): d for f, d in sorted(self.facet_dets.items())},
        }


@dataclass
class Unsat:
    """No solution with entries bounded by ``bound``; says nothing beyond it."""

    bound: int
    stats: Optional[dict] = field(default=None, compare=False, repr=False)  # search counts

    def to_json(self):
        return {"kind": "unsat", "bound": self.bound}


@dataclass
class Infeasible:
    """A bound-free obstruction; ``witness`` is machine-checkable."""

    reason: str
    witness: object = None
    stats: Optional[dict] = field(default=None, compare=False, repr=False)  # search counts

    def to_json(self):
        witness = self.witness
        if hasattr(witness, "to_json"):
            witness = witness.to_json()
        return {"kind": "infeasible", "reason": self.reason, "witness": witness}


def verify_labeling(complex_, assignment, mode, sign_table=None):
    """From-scratch determinant checker for a labeling; independent of the search.

    Returns (ok, facet_dets, failures).
    """
    dets = {}
    failures = []
    for f in complex_.facets:
        if mode == "mod2":
            vecs = [assignment[v] for v in f]
            ok = _gf2_rank(vecs) == len(f)
            dets[f] = 1 if ok else 0
            if not ok:
                failures.append({"facet": list(f), "kind": "gf2-dependent"})
            continue
        # the labels of the sorted facet as rows: det A^T = det A
        d = linalg.int_det([assignment[v] for v in f])
        dets[f] = d
        if mode == "unimodular":
            if abs(d) != 1:
                failures.append({"facet": list(f), "det": d})
        elif mode == "toric_sign":
            if d != sign_table.ascending_sign(f):
                failures.append({"facet": list(f), "det": d,
                                 "expected": sign_table.ascending_sign(f)})
    return (not failures), dets, failures


def _gf2_rank(masks):
    basis = []
    for x in masks:
        for b in basis:
            x = min(x, x ^ b)
        if x:
            basis.append(x)
    basis.sort(reverse=True)
    return len(basis)


def search_labeling(problem: LabelingProblem):
    """Backtracking search for a vertex labeling satisfying the mode constraints.

    The one search of every mode.  In mod2 mode a clique of 2^n vertices
    in the 1-skeleton is tried first: adjacent vertices need distinct
    nonzero classes, so it is a bound-free obstruction.  Otherwise the
    normalization facet is pinned to the standard basis and the other
    vertices are assigned in one facet-greedy order, planned once.  In the
    integer modes, the facets a vertex completes make its determinant
    constraints linear, so the candidates are the integer box points of the
    affine solution set, and pass through the depth's probes.  The search
    eliminates each system once: its reductions live in one trie (see
    ``_plan``), and each probe or depth extends the node its vertex's
    previous probe reached.  A SAT answer is re-verified by
    ``verify_labeling``.  Returns a LabelingSolution, Unsat(bound), or
    Infeasible ("sign-contradiction", "clique" or "exhausted"), with the
    search's ``stats``: the nodes visited (partial assignments, the root
    and a complete one included), the candidates tried, the backtracks
    (vertices whose every candidate failed) and, in the integer modes, the
    ``probes`` solved, the candidates they ``pruned`` and the forms
    ``reduced`` (the trie's misses).  A sign contradiction or a clique has
    no stats.
    """
    complex_ = problem.complex
    if not complex_.is_pure():
        raise ValueError("complex must be pure")
    mode, bound = problem.mode, problem.bound
    n = complex_.dim + 1
    normalization = problem.normalization or complex_.facets[0]

    sign_table = problem.sign_table
    if mode == "toric_sign":
        if sign_table is None:
            sign_table = derive_sign_table(complex_, normalization, 1)
            if isinstance(sign_table, SignContradiction):
                return Infeasible("sign-contradiction", sign_table)
        elif sign_table.ascending_sign(normalization) != 1:
            # pinning the standard basis forces +1 on the normalization facet;
            # a global flip (a reflection of the lattice) makes that harmless
            sign_table = SignTable(
                {f: -s for f, s in sign_table.signs.items()}, sign_table.ref_orders
            )
    if mode == "mod2":
        clique = find_clique(complex_, 1 << n)
        if clique is not None:
            return Infeasible("clique", {"clique": clique, "classes": (1 << n) - 1})
        assignment = {v: 1 << pos for pos, v in enumerate(sorted(normalization))}
        generate, stats, trie = _mod2_candidates, {}, None
    else:
        assignment = {v: tuple(1 if k == pos else 0 for k in range(n))
                      for pos, v in enumerate(sorted(normalization))}
        generate = _integer_candidates
        stats = {"nodes": 0, "candidates": 0, "backtracks": 0, "probes": 0, "pruned": 0,
                 "reduced": 0}
        trie = _Trie(stats)
    plan = _plan(complex_, assignment, mode, sign_table, trie)

    def candidates(depth):
        step = plan[depth]
        values = generate(step, assignment, n, bound)
        return _probed(step, values, assignment, n, bound, stats) if step.probes else values

    vertices = [step.vertex for step in plan]
    if not backtrack(vertices, candidates, assignment, stats):
        if mode == "mod2":
            return Infeasible("exhausted", {"classes": (1 << n) - 1}, stats=stats)
        return Unsat(bound, stats=stats)
    ok, dets, failures = verify_labeling(complex_, assignment, mode, sign_table)
    if not ok:
        raise AssertionError(f"search produced an invalid labeling: {failures}")
    return LabelingSolution(dict(assignment), dets, mode, stats=stats)


# Linear forms kept per completed facet and search.  The trie is keyed by
# forms, so a walk builds the form of each facet it adds; branches and
# probes reach the same labels, and about half of these lookups hit
# (Barnette's toric-sign search at bound 2).  Forms up to n = 4 take under
# 2 us, and there the cache saves 0-9 % (Barnette toric-sign at bounds 1
# and 2, unimodular C4(7), the icosahedron and C4(9) at bound 2).  Above
# n = 4 a form takes one ``reduce_system`` pass, 21-52 us, and the cache
# saves 44-54 % on the unimodular cyclic:5:9 and cyclic:5:10 at bound 1
# (medians of 7 interleaved runs, 2-vCPU host).  The cap bounds memory:
# C4(9)'s unimodular search at bound 4 reaches it on a facet.
_FORMS_PER_FACET = 4096

# Nodes the elimination trie of one search holds, its root included; when
# full, the trie drops them all and starts again.  Each node keeps its
# reduced system, whose targets grow with n: traced, the trie adds at most
# 2.3 MB to Barnette's toric-sign search at bound 7, 2.8 MB to C4(9)'s
# unimodular one at bound 4, and 4.4 and 7.2 MB to cyclic:5:9's and
# cyclic:7:10's at bound 1.  Four times the cap made cyclic:7:10 15-25 %
# faster but its peak RSS 49 MB instead of 31 MB.
_TRIE_NODES = 4096


class _Completion:
    """A facet completed by a step's vertex, as that step sees it."""

    __slots__ = ("others", "position", "allowed", "pairs")

    def __init__(self, others, position, allowed):
        self.others = others  # the facet's other vertices, ascending; all assigned earlier
        self.position = position  # the vertex's column in the facet's ascending order
        self.allowed = allowed  # allowed determinants: (1, -1), or the sign table's sign
        self.pairs = {}  # the others' labels -> (form, allowed), this search only

    def pair(self, assignment):
        """The facet's determinant as a linear form in the vertex's label, with ``allowed``."""
        labels = tuple(map(assignment.__getitem__, self.others))
        pair = self.pairs.get(labels)
        if pair is None:
            pair = linalg.cofactor_row(labels, self.position), self.allowed
            if len(self.pairs) < _FORMS_PER_FACET:
                self.pairs[labels] = pair
        return pair


class _Node:
    """The system reduced from the pairs on a trie path, and what follows it."""

    __slots__ = ("system", "children", "point")

    def __init__(self, system):
        self.system = system  # ``linalg.reduce_system``'s result; None: no target survives
        self.children = {}  # the next pair -> its _Node; None once the trie dropped this one
        self.point = None if system else False  # whether the system has a box point, once known


class _Trie:
    """One search's eliminations, keyed by the sequence of (form, allowed) pairs.

    A miss eliminates one pair from the parent's system and counts in
    ``stats["reduced"]``.  At ``_TRIE_NODES`` nodes the trie drops every
    node (a dropped node keeps its system but takes no children) and starts
    again from a new root.
    """

    __slots__ = ("stats", "root", "nodes")

    def __init__(self, stats):
        self.stats = stats
        self.nodes = ()
        self.clear()

    def clear(self):
        for node in self.nodes:
            node.children = None
        self.root = _Node(linalg.reduce_system(()))
        self.nodes = [self.root]

    def child(self, node, pair):
        """The node below ``node`` along ``pair``; eliminated and kept on a miss."""
        if node.children is not None:
            child = node.children.get(pair)
            if child is not None:
                return child
            if len(self.nodes) >= _TRIE_NODES:
                self.clear()  # drops ``node`` too
        child = _Node(linalg.reduce_system((pair,), node.system))
        self.stats["reduced"] += 1
        if node.children is None:
            child.children = None  # below a dropped node nothing is kept
        else:
            node.children[pair] = child
            self.nodes.append(child)
        return child


class _Step:
    """One depth of the search, or one probe: a vertex and the facets that constrain it."""

    __slots__ = ("vertex", "completes", "mates", "probes", "resume", "fresh", "trie", "node")

    def __init__(self, vertex, completes, mates, resume=None, trie=None):
        self.vertex = vertex
        self.completes = completes  # a _Completion per facet it completes (a probe: known)
        self.mates = mates  # the vertex's facets' members assigned earlier (maximal sets)
        self.probes = ()  # later vertices' known facets, solved once this vertex is placed
        self.resume = resume  # the vertex's probe at the latest earlier depth, if any
        self.fresh = completes[len(resume.completes):] if resume else completes
        self.trie = trie  # the search's _Trie (integer modes)
        self.node = None  # the trie node the last walk reached


def _plan(complex_, pinned, mode, sign_table, trie=None):
    """One step per depth; the vertex order never changes during a search.

    The order is greedy: next comes the vertex completing the most facets,
    the smallest index among ties.  A heap holds (-ready, vertex) entries,
    ready counting the facets the vertex alone leaves open; a count only
    grows, so an entry whose count has since grown is stale and skipped.

    In the integer modes a step's completed facets are in the order they
    become known: by the depth of their last other vertex (the pinned ones
    first), then in star order.  Each step also gets its probes (forward
    checking, Haralick and Elliott, Artificial Intelligence 14, 1980).  A
    later step's known facets at this depth, those whose other vertices
    are all placed once this step's vertex is, are a prefix of its facets.
    When they number two or more and one of them has just become known, a
    probe, a ``_Step`` of the later vertex with those facets'
    ``_Completion`` objects (and so their form cache), joins this step's
    probes, in plan order.  Its system stays fixed until the search
    backtracks past this step, so a candidate that leaves it no box point
    extends to no labeling and is dropped at once.

    Every step and probe shares ``trie``, the search's eliminations, and
    resumes from the node that its vertex's probe at the latest earlier
    depth reached.  On the search's current path that probe last ran for
    the assignment that holds now, over a prefix of the facets, so a walk
    looks up (or on a miss eliminates) only the newly known facets' forms.
    """
    placed = dict.fromkeys(pinned, -1)  # each placed vertex's depth, -1 if pinned
    missing = {f: sum(1 for u in f if u not in placed) for f in complex_.facets}
    ready = {v: sum(1 for f in complex_.star(v) if missing[f] == 1)
             for v in range(1, complex_.m + 1) if v not in placed}
    heap = [(-count, v) for v, count in ready.items()]
    heapify(heap)
    plan = []
    while heap:
        count, vertex = heappop(heap)
        if -count != ready[vertex]:
            continue
        completes = []
        mates = set()
        for f in complex_.star(vertex):
            earlier = tuple(u for u in f if u in placed)
            mates.add(frozenset(earlier))
            if missing[f] == 1:
                allowed = (sign_table.ascending_sign(f),) if mode == "toric_sign" else (1, -1)
                completes.append(_Completion(earlier, f.index(vertex), allowed))
            missing[f] -= 1
            if missing[f] == 1:
                last = next(u for u in f if u != vertex and u not in placed)
                ready[last] += 1
                heappush(heap, (-ready[last], last))
        resume = None
        if mode != "mod2":
            # each facet is known from the depth that places its last other vertex
            known = {c: max(map(placed.__getitem__, c.others), default=-1) for c in completes}
            completes.sort(key=known.__getitem__)
            for d in sorted(set(known.values()) - {-1}):
                part = tuple(c for c in completes if known[c] <= d)
                if len(part) >= 2:
                    resume = _Step(vertex, part, (), resume, trie)
                    plan[d].probes += (resume,)
        maximal = sorted(tuple(sorted(s)) for s in mates if not any(s < t for t in mates))
        placed[vertex] = len(plan)
        plan.append(_Step(vertex, tuple(completes), tuple(maximal), resume, trie))
    return plan


def _walk(step, assignment):
    """The trie node of ``step``'s system under ``assignment``.

    It starts from the node of ``step.resume`` (the root when there is
    none or the trie has dropped that node) and stops at the first pair
    that no target survives.
    """
    earlier = step.resume
    node = earlier.node if earlier is not None else None
    if node is None or node.children is None:
        node, fresh = step.trie.root, step.completes
    else:
        fresh = step.fresh
    for c in fresh:
        if node.system is None:
            break
        node = step.trie.child(node, c.pair(assignment))
    step.node = node
    return node


def _integer_candidates(step, assignment, n, bound):
    """The vectors x with |x_i| <= bound giving each facet of ``step`` an allowed determinant.

    Sorted ascending; ``_box_points`` finds them.
    """
    return sorted(_box_points(step, assignment, n, bound))


def _has_candidate(step, assignment, n, bound):
    """Whether ``step`` has a candidate; known at its trie node once asked."""
    node = _walk(step, assignment)
    if node.point is None:
        node.point = next(_solutions(node.system, n, bound), None) is not None
    return node.point


def _box_points(step, assignment, n, bound):
    """The candidates of ``step`` in the box, unsorted, one at a time.

    A form equal to ±1 makes x primitive, so only the unconstrained box
    needs filtering.
    """
    if not step.completes:
        span = range(-bound, bound + 1)
        return (x for x in product(span, repeat=n) if gcd(*x) == 1)
    node = _walk(step, assignment)
    return iter(()) if node.point is False else _solutions(node.system, n, bound)


def _solutions(system, n, bound):
    """The integer points in the box of a system that ``linalg.reduce_system`` returned.

    Each pivot row reads ``d·x_p + g·y = c·t`` for the free coordinates y
    and a surviving target tuple t, so x_p = (c·t - g·y)/d must be an
    integer in the bound.
    """
    span = range(-bound, bound + 1)
    det, pivots, rows, targets = system
    free = [j for j in range(n) if j not in pivots]
    shift = [[row[j] for j in free] for row in rows]
    combinations = [row[n:] for row in rows]
    tops = [[sum(map(mul, c, t)) for c in combinations] for t in targets]
    x = [0] * n
    for y in product(span, repeat=len(free)):
        for j, value in zip(free, y):
            x[j] = value
        moved = [sum(map(mul, row, y)) for row in shift]
        for top in tops:
            for p, a, b in zip(pivots, top, moved):
                num = a - b
                if num % det or abs(num // det) > bound:
                    break
                x[p] = num // det
            else:
                yield tuple(x)


def _probed(step, values, assignment, n, bound, stats):
    """The ``values`` of ``step``, in order, that leave each of its probes a box point."""
    for x in values:
        assignment[step.vertex] = x
        for probe in step.probes:
            stats["probes"] += 1
            if not _has_candidate(probe, assignment, n, bound):
                stats["pruned"] += 1
                break
        else:
            yield x


def _mod2_candidates(step, assignment, n, bound=None):
    """The nonzero classes outside the span of each facet's earlier members, ascending.

    Those members are independent (every earlier step kept them so), so a
    class keeps a facet independent exactly when it avoids their span.
    """
    forbidden = {0}
    for members in step.mates:
        span = {0}
        for u in members:
            x = assignment[u]
            span |= {s ^ x for s in span}
        forbidden |= span
    return [c for c in range(1, 1 << n) if c not in forbidden]


# -- pigeonhole obstruction ------------------------------------------------------


# Branch-and-bound nodes ``find_clique`` visits before it gives up.
_CLIQUE_NODE_LIMIT = 200000


def _neighbors(complex_):
    """Each vertex's set of neighbours in the 1-skeleton: the other vertices of its star."""
    return {v: {u for f in complex_.star(v) for u in f if u != v}
            for v in range(1, complex_.m + 1)}


def find_clique(complex_, size):
    """A clique of the requested size in the 1-skeleton, or None.

    Branch and bound over vertices sorted by degree, one ``backtrack``
    depth per member: a depth's candidates are the previous depth's later
    candidates adjacent to its pick.  Entering a depth with enough of them
    costs one node; the search gives up after ``_CLIQUE_NODE_LIMIT`` nodes
    (``search_labeling`` falls back to the full mod2 search then).
    """
    neighbors = _neighbors(complex_)
    budget = _CLIQUE_NODE_LIMIT
    # later[d]: depth d + 1's candidates, for depth d's current pick
    later = {-1: sorted(neighbors, key=lambda v: -len(neighbors[v]))}
    clique = {}

    def candidates(depth):
        nonlocal budget
        pool = later[depth - 1]
        if depth + len(pool) < size or budget <= 0:
            return
        budget -= 1
        for idx, v in enumerate(pool):
            later[depth] = [u for u in pool[idx + 1:] if u in neighbors[v]]
            yield v

    if not backtrack(range(size), candidates, clique, {}):
        return None
    return [clique[depth] for depth in range(size)]


# -- four-color realization of 2-spheres ------------------------------------------


class PositionsNotStarShaped(ValueError):
    """The supplied vertex positions do not wrap the origin properly."""


def realize_2sphere(complex_, positions) -> TopologicalFan:
    """Build a dimension-3 fan from a simplicial 2-sphere with placed vertices.

    The b-vectors are the given positions; the v-vectors come from a proper
    4-coloring of the 1-skeleton with the colors e1, e2, e3, e1+e2+e3 (any
    three distinct colors form a Z-basis).  The result must validate complete
    and non-singular, which certifies that the positions wrap the origin.
    """
    if complex_.dim != 2 or not complex_.is_pseudomanifold():
        raise ValueError("need a pure 2-dimensional pseudomanifold")
    if len(positions) != complex_.m:
        raise ValueError("one position per vertex is required")
    colors = _four_coloring(complex_)
    palette = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)]
    rays = [Ray.from_parts(positions[v - 1], v=palette[colors[v]])
            for v in range(1, complex_.m + 1)]
    fan = TopologicalFan(3, complex_, rays)
    report = fan.validate()
    if not report.ok:
        raise PositionsNotStarShaped(f"validation failed: {report.witnesses}")
    return fan


def _four_coloring(complex_):
    """The first proper 4-coloring of the 1-skeleton, coloring vertices 1..m in order."""
    neighbors = _neighbors(complex_)
    coloring = {}

    def colors(depth):
        taken = {coloring.get(u) for u in neighbors[depth + 1]}
        return [color for color in range(4) if color not in taken]

    if not backtrack(range(1, complex_.m + 1), colors, coloring, {}):
        raise ValueError("no proper 4-coloring found")
    return coloring


# -- fan surgeries -----------------------------------------------------------------


class SurgeryValidationError(ValueError):
    def __init__(self, report):
        self.report = report
        super().__init__(f"surgery output failed validation: {report.witnesses}")


def _checked(fan, validate):
    if validate:
        report = fan.validate()
        if not report.ok:
            raise SurgeryValidationError(report)
    return fan


def stellar_subdivide_fan(fan: TopologicalFan, sigma, validate=True) -> TopologicalFan:
    """Subdivide one facet; the new vertex's ray is the sum of the facet's rays."""
    s = tuple(sorted(sigma))
    new_complex = fan.complex.stellar_subdivide(s)
    ray = Ray.sum_of(fan.ray(i) for i in s)
    return _checked(TopologicalFan(fan.n, new_complex, fan.rays + (ray,)), validate)


def suspend_fan(fan: TopologicalFan, validate=True) -> TopologicalFan:
    """One dimension up: the product's rays with ``segment_fan``, on the suspended complex."""
    rays = _block_rays(fan, segment_fan())
    return _checked(TopologicalFan(fan.n + 1, fan.complex.suspend(), rays), validate)


def product_fan(a: TopologicalFan, b: TopologicalFan, validate=True) -> TopologicalFan:
    """Join of the complexes with block-concatenated rays."""
    facets = []
    for fa in a.complex.facets:
        for fb in b.complex.facets:
            facets.append(tuple(fa) + tuple(v + a.m for v in fb))
    complex_ = SimplicialComplex(a.m + b.m, facets)
    return _checked(TopologicalFan(a.n + b.n, complex_, _block_rays(a, b)), validate)


def _block_rays(a: TopologicalFan, b: TopologicalFan):
    """The rays of a product: a's rays, then b's, each zero-extended into the other block."""
    return ([r.zero_extended(0, b.n) for r in a.rays]
            + [r.zero_extended(a.n, 0) for r in b.rays])

