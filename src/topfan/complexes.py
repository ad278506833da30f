"""Finite abstract simplicial complexes stored by their maximal faces.

Vertices are the integers 1..m.  Complexes are immutable, so each derives
its incidence once, on first use: the vertex stars, the wall -> facets map
and one face index ordered by (size, lexicographic).  Every star, wall and
face query reads these.  Sphere-ness is never decided: callers get purity
and pseudomanifold checks as sanity gates and otherwise trust their
fixtures.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import chain, combinations, count
from math import comb
from types import MappingProxyType

from .linalg import parse_int


class SimplicialComplex:
    """An abstract simplicial complex on the vertex set ``{1, .., m}``."""

    __slots__ = ("m", "facets", "labels", "_stars", "_walls", "_faces")

    def __init__(self, m, facets, labels=None):
        if int(m) != m:
            raise ValueError(f"m = {m!r} is not an integer")
        if m < 0:
            raise ValueError(f"m must be a non-negative integer, not {m}")
        facet_set = set()
        for f in facets:
            f = tuple(f)
            t = tuple(map(int, f))
            if t != f:
                raise ValueError(f"facet {f} is not integral")
            t = tuple(sorted(set(t)))
            if not t:
                raise ValueError("empty facet")
            if t[0] < 1 or t[-1] > m:
                raise ValueError(f"facet {t} out of vertex range 1..{m}")
            facet_set.add(t)
        # only a strictly smaller facet can lie in another: pure complexes skip the scan
        if len({len(f) for f in facet_set}) > 1:
            for f in facet_set:
                for g in facet_set:
                    if len(f) < len(g) and set(f) <= set(g):
                        raise ValueError(f"facet {f} is contained in facet {g}")
        covered = set()
        for f in facet_set:
            covered.update(f)
        # covered lies in 1..m, so counting suffices; m may be far beyond any facet
        missing = m - len(covered)
        if missing > 0:
            first = next(v for v in count(1) if v not in covered)
            raise ValueError(f"vertex {first} appears in no facet ({missing} uncovered in all)")
        self.m = int(m)
        self.facets = tuple(sorted(facet_set))
        self.labels = dict(labels) if labels else None
        self._stars = self._walls = self._faces = None

    # -- basic queries ----------------------------------------------------

    @property
    def dim(self):
        return max((len(f) for f in self.facets), default=0) - 1

    def is_pure(self):
        size = self.dim + 1
        return all(len(f) == size for f in self.facets)

    def star(self, v):
        """The facets containing vertex v, in facet order (a tuple); ValueError outside 1..m."""
        if self._stars is None:
            stars = {u: [] for u in range(1, self.m + 1)}
            for f in self.facets:
                for u in f:
                    stars[u].append(f)
            self._stars = {u: tuple(fs) for u, fs in stars.items()}
        if v not in self._stars:
            raise ValueError(f"vertex {v} out of range 1..{self.m}")
        return self._stars[v]

    def _face_index(self):
        """Every face, the empty one included, as dict keys sorted by (size, lexicographic)."""
        if self._faces is None:
            faces = set(chain.from_iterable(combinations(f, k) for f in self.facets
                                            for k in range(len(f) + 1)))
            self._faces = dict.fromkeys(sorted(sorted(faces), key=len))
        return self._faces

    def has_face(self, subset):
        return tuple(sorted(set(subset))) in self._face_index()

    def faces(self):
        """All nonempty faces, sorted by (size, lexicographic), as a new list."""
        return list(self._face_index())[1:]

    def faces_of_dim(self, k):
        """All faces with k+1 vertices, as a new list."""
        return [f for f in self._face_index() if len(f) == k + 1]

    def one_skeleton(self):
        """Edge set as sorted pairs."""
        return self.faces_of_dim(1)

    def f_vector(self):
        return tuple(Counter(map(len, self._face_index())).values())[1:]

    # -- pseudomanifold structure ------------------------------------------

    def walls(self):
        """Read-only map (dim-1)-face -> its facets, in facet order (pure complexes)."""
        if self._walls is None:
            walls = {}
            for f in self.facets:
                for w in combinations(f, len(f) - 1):
                    walls.setdefault(w, []).append(f)
            self._walls = MappingProxyType({w: tuple(fs) for w, fs in walls.items()})
        return self._walls

    def dual_graph_connected(self):
        if not self.facets:
            return True
        adjacency = {f: set() for f in self.facets}
        for facets in self.walls().values():
            for a in facets:
                adjacency[a].update(facets)
        seen = {self.facets[0]}
        stack = [self.facets[0]]
        while stack:
            for nb in adjacency[stack.pop()]:
                if nb not in seen:
                    seen.add(nb)
                    stack.append(nb)
        return len(seen) == len(self.facets)

    def is_pseudomanifold(self):
        """Pure, every wall in exactly two facets, connected dual graph."""
        if not self.is_pure():
            return False
        if any(len(fs) != 2 for fs in self.walls().values()):
            return False
        return self.dual_graph_connected()

    # -- surgeries ----------------------------------------------------------

    def link(self, v):
        """Link of a vertex, relabeled onto 1..k with original ids as labels."""
        star = self.star(v)
        old_vertices = sorted({u for f in star for u in f} - {v})
        new_of_old = {old: i + 1 for i, old in enumerate(old_vertices)}
        facets = [tuple(new_of_old[u] for u in f if u != v) for f in star]
        labels = {}
        for old in old_vertices:
            original = self.labels.get(old, str(old)) if self.labels else str(old)
            labels[new_of_old[old]] = original
        return SimplicialComplex(len(old_vertices), facets, labels)

    def stellar_subdivide(self, sigma):
        """Replace a maximal-dimension facet by the cone over its boundary."""
        s = tuple(sorted(sigma))
        if s not in self.facets:
            raise ValueError(f"{s} is not a facet")
        if len(s) != self.dim + 1:
            raise ValueError(f"{s} is not of maximal dimension")
        if len(s) < 2:
            raise ValueError("cannot subdivide a single vertex")
        new_vertex = self.m + 1
        facets = [f for f in self.facets if f != s]
        for j in s:
            facets.append(tuple(sorted((set(s) - {j}) | {new_vertex})))
        return SimplicialComplex(self.m + 1, facets, self.labels)

    def suspend(self):
        """Join with two new poles m+1 and m+2; dimension goes up by one."""
        north, south = self.m + 1, self.m + 2
        facets = []
        for f in self.facets:
            facets.append(f + (north,))
            facets.append(f + (south,))
        return SimplicialComplex(self.m + 2, facets, self.labels)

    def relabeled(self, mapping):
        """Apply a vertex bijection {old: new} and return the renamed complex."""
        facets = [tuple(sorted(mapping[v] for v in f)) for f in self.facets]
        labels = None
        if self.labels:
            labels = {mapping[v]: lab for v, lab in self.labels.items()}
        return SimplicialComplex(self.m, facets, labels)

    # -- serialization and equality ------------------------------------------

    def to_json(self):
        data = {"m": self.m, "facets": [list(f) for f in self.facets]}
        if self.labels:
            data["labels"] = {str(v): lab for v, lab in self.labels.items()}
        return data

    @staticmethod
    def from_json(data):
        if not isinstance(data, dict):
            raise ValueError(f"a complex must be a JSON object, not {type(data).__name__}")
        m = parse_int(data["m"], "m")
        facets = [[parse_int(v, "facets") for v in f] for f in data["facets"]]
        for f in facets:
            if len(set(f)) != len(f):
                raise ValueError(f"facet {f} repeats a vertex")
        return SimplicialComplex(m, facets, _parse_labels(data.get("labels"), m))

    def __eq__(self, other):
        return (
            isinstance(other, SimplicialComplex)
            and self.m == other.m
            and self.facets == other.facets
        )

    def __hash__(self):
        return hash((self.m, self.facets))

    def __repr__(self):
        return f"SimplicialComplex(m={self.m}, facets={len(self.facets)}, dim={self.dim})"


def _parse_labels(raw, m):
    """Vertex labels read from JSON: one string each for distinct vertices 1..m.

    An absent field, ``null`` and ``{}`` mean no labels; any other value that
    is not an object is a ValueError, and so is a key that is not ASCII
    digits naming a vertex.
    """
    if raw is None:
        return None
    if type(raw) is not dict:
        raise ValueError(f"labels must be an object from vertices to strings, not {raw!r}")
    labels = {}
    for key, label in raw.items():
        try:
            vertex = int(key) if key.isascii() and key.isdecimal() else 0
        except ValueError:  # more digits than int() converts
            vertex = 0
        if not 1 <= vertex <= m:
            raise ValueError(f"label key {key!r} is not a vertex in 1..{m}")
        if vertex in labels:
            raise ValueError(f"label key {key!r} names vertex {vertex} a second time")
        if not isinstance(label, str):
            raise ValueError(f"label of vertex {key!r} is not a string: {label!r}")
        labels[vertex] = label
    return labels


def backtrack(vertices, candidates, assignment, stats):
    """Depth-first search assigning ``vertices`` in order, on an explicit stack.

    ``candidates(depth)`` gives the values for ``vertices[depth]`` given the
    earlier ones in ``assignment``; it is called each time the search
    enters that depth, and its values are tried in order.  It may be a
    lazy iterator: a depth's next value is asked for only after every
    deeper vertex has been removed from ``assignment``.  ``stats`` receives
    the ``nodes`` entered (partial assignments, the empty and a complete
    one included), the ``candidates`` tried and the ``backtracks`` (depths
    whose every candidate failed).  Returns True with every vertex
    assigned, or False with none of them assigned.
    """
    stats.update(nodes=0, candidates=0, backtracks=0)
    stack = []  # the remaining candidates of each depth entered
    while True:
        stats["nodes"] += 1
        if len(stack) == len(vertices):
            return True
        stack.append(iter(candidates(len(stack))))
        while True:
            vertex = vertices[len(stack) - 1]
            value = next(stack[-1], None)  # no candidate value is None
            if value is not None:
                break
            assignment.pop(vertex, None)
            stats["backtracks"] += 1
            stack.pop()
            if not stack:
                return False
        stats["candidates"] += 1
        assignment[vertex] = value


@dataclass(frozen=True)
class FVector:
    """Face counts f_0..f_{n-1} together with the derived h-vector."""

    f: tuple[int, ...]
    h: tuple[int, ...]

    @staticmethod
    def of(complex_: SimplicialComplex) -> "FVector":
        f = complex_.f_vector()
        n = len(f)

        def f_at(i):
            return 1 if i == -1 else f[i]

        h = tuple(
            sum((-1) ** (k - i) * comb(n - i, k - i) * f_at(i - 1) for i in range(k + 1))
            for k in range(n + 1)
        )
        if n > 0 and sum(h) != f[n - 1]:
            raise AssertionError("h-vector consistency check failed")
        return FVector(f, h)


def cyclic_polytope_boundary(n, m) -> SimplicialComplex:
    """Boundary complex of the cyclic polytope with m vertices in dimension n.

    Facets are picked by Gale's evenness criterion: an n-subset S of 1..m is a
    facet iff every maximal run of consecutive members of S that touches
    neither 1 nor m has even length.  The subsets grow one member at a time,
    smallest first, so the facets come in lexicographic order.  A member
    that skips a value closes the run before it, and a prefix whose closed
    run breaks the rule is not extended, so the work follows the number of
    facets rather than the C(m, n) subsets.
    """
    if not (m > n >= 2):
        raise ValueError("need m > n >= 2")
    facets = []
    prefix, runs = [], []  # runs[i]: length of the run that ends at prefix[i]
    v = 1
    while True:
        k = len(prefix)
        if k == n:
            # the last run may touch m, or 1 if it is the only one
            if prefix[-1] in (m, runs[-1]) or runs[-1] % 2 == 0:
                facets.append(tuple(prefix))
        elif v <= m - n + k + 1:  # room is left for the members after v
            if k and v == prefix[-1] + 1:
                prefix.append(v)
                runs.append(runs[-1] + 1)
                v += 1
                continue
            # v closes the open run, and so would every larger v
            if not k or prefix[-1] == runs[-1] or runs[-1] % 2 == 0:
                prefix.append(v)
                runs.append(1)
                v += 1
                continue
        if not prefix:
            return SimplicialComplex(m, facets)
        v = prefix.pop() + 1
        runs.pop()
