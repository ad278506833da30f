"""The searches as they were before ``complexes.backtrack`` ran them, used only by tests.

``topfan.fans.equivalent`` and ``topfan.realize.find_clique`` now hand their
candidates to the one kernel ``complexes.backtrack``, and ``realize._plan``
picks its next vertex from a heap.  This module keeps the earlier code,
copied as it was: ``equivalent`` walks its own explicit stack with its own
node and backtrack counts, ``find_clique`` recurses with its own node
budget (here a parameter, ``budget``, in place of the module's
``_CLIQUE_NODE_LIMIT``), and ``plan`` takes a ``max`` over every remaining
vertex.  The new code must return the same sigma, scalars and stats, the
same clique or None, and the same plan.
"""

from topfan.fans import _ORBIT_KEYS, Isomorphism, _homeo_inverse
from topfan.realize import _Completion, _Step


def equivalent(a, b, mode="strict", stats=None):
    mode = mode.lower()
    if stats is None:
        stats = {}
    stats.update(candidates=0, nodes=0, backtracks=0)
    if a.n != b.n or a.m != b.m or len(a.complex.facets) != len(b.complex.facets):
        return None
    if sorted(map(len, a.complex.facets)) != sorted(map(len, b.complex.facets)):
        return None
    orbit_key = _ORBIT_KEYS.get(mode)
    if orbit_key is None:
        raise ValueError(f"unknown mode {mode!r}")
    m = a.m
    buckets, target_mu = {}, {}
    for j in range(1, m + 1):
        key, target_mu[j] = orbit_key(b.ray(j))
        buckets.setdefault(key, []).append(j)
    allowed, source_mu = {}, {}
    for i in range(1, m + 1):
        key, source_mu[i] = orbit_key(a.ray(i))
        allowed[i] = buckets.get(key, ())
        stats["candidates"] += len(allowed[i])
        if not allowed[i]:
            return None

    facets_b = set(b.complex.facets)
    star_b = {j: [] for j in range(1, m + 1)}
    for g in b.complex.facets:
        face = frozenset(g)
        for j in g:
            star_b[j].append(face)
    facets_of_vertex = {i: [f for f in a.complex.facets if i in f] for i in range(1, m + 1)}
    sigma = {}
    used = set()

    def consistent(i):
        # every facet through i has a partial image through sigma[i]
        for f in facets_of_vertex[i]:
            image = [sigma[v] for v in f if v in sigma]
            if len(image) == len(f):
                if tuple(sorted(image)) not in facets_b:
                    return False
            elif not any(face.issuperset(image) for face in star_b[sigma[i]]):
                return False
        return True

    # stack[i - 1] iterates vertex i's candidates; a candidate that passes
    # ``consistent`` opens the next vertex, an exhausted vertex backtracks
    stats["nodes"] += 1
    stack = [iter(allowed[1])] if m else []
    while stack:
        i = len(stack)
        if i in sigma:  # the child of the current candidate failed
            used.remove(sigma.pop(i))
        for j in stack[-1]:
            if j not in used:
                sigma[i] = j
                used.add(j)
                if consistent(i):
                    break
                del sigma[i]
                used.remove(j)
        else:
            stats["backtracks"] += 1
            stack.pop()
            continue
        stats["nodes"] += 1
        if i == m:
            break
        stack.append(iter(allowed[i + 1]))
    if len(sigma) < m:
        return None
    scalars = None
    if mode == "h":
        scalars = {i: source_mu[i] * _homeo_inverse(target_mu[j]) for i, j in sigma.items()}
    return Isomorphism(dict(sigma), scalars)


def _degrees(m, edges):
    """Each vertex's degree in the graph on 1..m with the given edge pairs, in vertex order."""
    degree = dict.fromkeys(range(1, m + 1), 0)
    for a, b in edges:
        degree[a] += 1
        degree[b] += 1
    return degree


def find_clique(complex_, size, budget):
    """A clique of the requested size in the 1-skeleton, or None.

    Branch and bound over vertices sorted by degree; gives up after
    ``budget`` nodes.
    """
    skeleton = complex_.one_skeleton()
    edges = set(skeleton)
    vertices = list(range(1, complex_.m + 1))

    def adjacent(a, b):
        return (min(a, b), max(a, b)) in edges

    degree = _degrees(complex_.m, skeleton)
    vertices.sort(key=lambda v: -degree[v])
    budget = [budget]

    def extend(clique, candidates):
        if len(clique) == size:
            return list(clique)
        if len(clique) + len(candidates) < size:
            return None
        if budget[0] <= 0:
            return None
        budget[0] -= 1
        for idx, v in enumerate(candidates):
            rest = [u for u in candidates[idx + 1:] if adjacent(u, v)]
            found = extend(clique + [v], rest)
            if found:
                return found
        return None

    return extend([], vertices)


def plan(complex_, pinned, mode, sign_table):
    """One step per depth; the vertex order never changes during a search.

    The order is greedy: next comes the vertex completing the most facets,
    the smallest index among ties.
    """
    placed = set(pinned)
    star = {v: [] for v in range(1, complex_.m + 1)}
    for f in complex_.facets:
        for v in f:
            star[v].append(f)
    missing = {f: sum(1 for u in f if u not in placed) for f in complex_.facets}
    remaining = [v for v in range(1, complex_.m + 1) if v not in placed]
    plan = []
    while remaining:
        vertex = max(remaining, key=lambda v: (sum(1 for f in star[v] if missing[f] == 1), -v))
        completes = []
        mates = set()
        for f in star[vertex]:
            earlier = tuple(u for u in f if u in placed)
            mates.add(frozenset(earlier))
            if missing[f] == 1:
                allowed = (sign_table.ascending_sign(f),) if mode == "toric_sign" else (1, -1)
                completes.append(_Completion(earlier, f.index(vertex), allowed))
            missing[f] -= 1
        maximal = sorted(tuple(sorted(s)) for s in mates if not any(s < t for t in mates))
        plan.append(_Step(vertex, tuple(completes), tuple(maximal)))
        placed.add(vertex)
        remaining.remove(vertex)
    return plan
