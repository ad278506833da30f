"""Per-call incidence derivations, used only by tests.

``SimplicialComplex`` derives its incidence once per complex: the vertex
stars, the wall -> facets map and one face index ordered by (size,
lexicographic), which every star, wall, face and neighbour query reads.
This module keeps the derivations each caller made for itself before: the
star loops of the labeling plan and of ``equivalent``, the neighbour pass
over the one-skeleton, the facet scans of ``has_face`` and ``link``, one
face enumeration per dimension for the f-vector, and the face poset's
membership test and re-sort.  Each takes the complex as its first argument
and must give the same values in the same order as the index.  Two
readings that no caller in the package needs live here too: the Euler
characteristic of a complex and the order of the face poset.
"""

from itertools import combinations

from topfan.charts import FacePoset
from topfan.complexes import SimplicialComplex


def walls(complex_):
    """Map (dim-1)-face -> list of facets containing it (pure complexes)."""
    out = {}
    for f in complex_.facets:
        for w in combinations(f, len(f) - 1):
            out.setdefault(w, []).append(f)
    return out


def plan_stars(complex_):
    """The labeling plan's stars: vertex -> facets through it, in facet order."""
    star = {v: [] for v in range(1, complex_.m + 1)}
    for f in complex_.facets:
        for v in f:
            star[v].append(f)
    return star


def target_stars(complex_):
    """``equivalent``'s stars of the target: vertex -> frozensets of its facets."""
    star_b = {j: [] for j in range(1, complex_.m + 1)}
    for g in complex_.facets:
        face = frozenset(g)
        for j in g:
            star_b[j].append(face)
    return star_b


def has_face(complex_, subset):
    s = set(subset)
    return any(s <= set(f) for f in complex_.facets)


def faces(complex_):
    """All nonempty faces, sorted by (size, lexicographic)."""
    seen = set()
    for f in complex_.facets:
        for k in range(1, len(f) + 1):
            seen.update(combinations(f, k))
    return sorted(seen, key=lambda t: (len(t), t))


def faces_of_dim(complex_, k):
    """All faces with k+1 vertices."""
    seen = set()
    for f in complex_.facets:
        if len(f) >= k + 1:
            seen.update(combinations(f, k + 1))
    return sorted(seen)


def neighbors(complex_):
    """Each vertex's set of neighbours in the 1-skeleton."""
    out = {v: set() for v in range(1, complex_.m + 1)}
    for a, b in faces_of_dim(complex_, 1):
        out[a].add(b)
        out[b].add(a)
    return out


def f_vector(complex_):
    counts = []
    k = 0
    while True:
        found = faces_of_dim(complex_, k)
        if not found:
            break
        counts.append(len(found))
        k += 1
    return tuple(counts)


def link(complex_, v):
    """Link of a vertex, relabeled onto 1..k with original ids as labels."""
    if not 1 <= v <= complex_.m:
        raise ValueError(f"vertex {v} out of range 1..{complex_.m}")
    star = [f for f in complex_.facets if v in f]
    old_vertices = sorted({u for f in star for u in f} - {v})
    new_of_old = {old: i + 1 for i, old in enumerate(old_vertices)}
    facets = [tuple(new_of_old[u] for u in f if u != v) for f in star]
    labels = {}
    for old in old_vertices:
        original = complex_.labels.get(old, str(old)) if complex_.labels else str(old)
        labels[new_of_old[old]] = original
    return SimplicialComplex(len(old_vertices), facets, labels)


def minimal_non_faces(complex_):
    """Inclusion-minimal vertex sets that are not faces (sizes 2..dim+2)."""
    out = []
    for size in range(2, complex_.dim + 3):
        for subset in combinations(range(1, complex_.m + 1), size):
            if has_face(complex_, subset):
                continue
            if all(has_face(complex_, subset[:k] + subset[k + 1:]) for k in range(size)):
                out.append(subset)
    return tuple(out)


def orbit_face_poset(complex_):
    """The face poset of the fan's complex (the fan's validity is the caller's check)."""
    elements = [()] + list(faces(complex_))
    element_set = set(elements)
    covers = []
    for e in elements:
        if len(e) == 0:
            continue
        for drop in e:
            smaller = tuple(v for v in e if v != drop)
            if smaller in element_set:
                covers.append((e, smaller))
    elements.sort(key=lambda t: (len(t), t))
    return FacePoset(tuple(elements), tuple(sorted(covers)))


def euler_characteristic(complex_):
    return sum((-1) ** k * fk for k, fk in enumerate(complex_.f_vector()))


def face_poset_leq(a, b):
    """a <= b in the orbit-space face poset, i.e. the face a contains the face b."""
    return set(b) <= set(a)


def cyclic_facets(n, m):
    """Facets of the boundary of the cyclic polytope, by testing Gale's evenness
    criterion on every n-subset of 1..m in ``combinations`` order."""
    facets = []
    for s in combinations(range(1, m + 1), n):
        runs = []
        current = [s[0]]
        for v in s[1:]:
            if v == current[-1] + 1:
                current.append(v)
            else:
                runs.append(current)
                current = [v]
        runs.append(current)
        ok = True
        for run in runs:
            if run[0] == 1 or run[-1] == m:
                continue
            if len(run) % 2 != 0:
                ok = False
                break
        if ok:
            facets.append(s)
    return facets
