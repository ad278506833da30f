"""All-pairs reference for fan equivalence, used only by tests.

``topfan.fans.equivalent`` buckets the target's rays by an orbit key and
tries ``_ray_match_scalar`` only inside a source ray's own bucket; its
search checks partial facet images against the stars of the target's
vertices.  This module keeps the plain version: every (source, target) ray
pair goes through ``_ray_match_scalar``, and every partial image is compared
with every target facet.  Both search vertices 1..m with ascending
candidates, so they must return the same sigma, scalars and None.
"""

from topfan.fans import Isomorphism, _ray_match_scalar


def equivalent(a, b, mode="strict"):
    mode = mode.lower()
    if a.n != b.n or a.m != b.m or len(a.complex.facets) != len(b.complex.facets):
        return None
    if sorted(map(len, a.complex.facets)) != sorted(map(len, b.complex.facets)):
        return None
    m = a.m
    allowed = {}
    for i in range(1, m + 1):
        opts = {}
        for j in range(1, m + 1):
            mu = _ray_match_scalar(a.ray(i), b.ray(j), mode)
            if mu is not None:
                opts[j] = mu
        if not opts:
            return None
        allowed[i] = opts

    facets_b = set(b.complex.facets)
    facets_of_vertex = {i: [f for f in a.complex.facets if i in f] for i in range(1, m + 1)}
    sigma = {}
    used = set()

    def consistent(i):
        for f in facets_of_vertex[i]:
            image = [sigma[v] for v in f if v in sigma]
            if len(image) == len(f):
                if tuple(sorted(image)) not in facets_b:
                    return False
            elif not any(set(image) <= set(g) for g in facets_b):
                return False
        return True

    def backtrack(i):
        if i > m:
            return True
        for j in sorted(allowed[i]):
            if j in used:
                continue
            sigma[i] = j
            used.add(j)
            if consistent(i) and backtrack(i + 1):
                return True
            del sigma[i]
            used.remove(j)
        return False

    if not backtrack(1):
        return None
    scalars = {i: allowed[i][sigma[i]] for i in sigma} if mode == "h" else None
    return Isomorphism(dict(sigma), scalars)
