"""All-pairs reference for fan equivalence, used only by tests.

``topfan.fans.equivalent`` buckets the target's rays by an orbit key, takes
a source ray's own bucket as its candidates, composes the ``h`` scalars
from the rays' normalizers, and checks partial facet images against the
stars of the target's vertices.  This module keeps the plain version:
every (source, target) ray pair is decided by solving for its scalar
(``_ray_match_scalar``), and every partial image is compared with every
target facet.  Both search vertices 1..m with ascending candidates, so they
must return the same sigma, scalars and None.  ``is_homeo_scalar`` tells
the scalars that the ``h`` mode allows.
"""

from fractions import Fraction
from typing import Optional

from topfan.fans import Isomorphism, Ray
from topfan.ring import MU0, RElem


def is_homeo_scalar(mu: RElem) -> bool:
    """True when the endomorphism extends to a homeomorphism of C.

    That is b > 0 and v = +-1; these are exactly the scalars allowed in
    the per-ray matching of H-equivalence.
    """
    return mu.b > 0 and mu.v in (1, -1)


def _h_scalar(source: Ray, target: Ray) -> Optional[RElem]:
    """Solve target = source * mu with mu a homeomorphism scalar, if possible."""
    s = None
    for bs, bt in zip(source.b, target.b):
        if bs != 0:
            s = bt / bs
            break
    if s is None or s <= 0:
        return None
    if any(bt != s * bs for bs, bt in zip(source.b, target.b)):
        return None
    if target.v == source.v:
        eps = 1
    elif target.v == tuple(-x for x in source.v):
        eps = -1
    else:
        return None
    t = None
    for cs, ct, vs in zip(source.c, target.c, source.v):
        if vs != 0:
            t = (ct - s * cs) / vs
            break
    if t is None:
        t = Fraction(0)
    if any(ct != s * cs + t * vs for cs, ct, vs in zip(source.c, target.c, source.v)):
        return None
    return RElem(s, t, eps)


def _ray_match_scalar(source: Ray, target: Ray, mode) -> Optional[RElem]:
    if mode == "strict":
        return RElem(1, 0, 1) if source == target else None
    if mode == "d":
        if source == target:
            return RElem(1, 0, 1)
        if source.right_mul(MU0) == target:
            return MU0
        return None
    if mode == "h":
        return _h_scalar(source, target)
    raise ValueError(f"unknown mode {mode!r}")


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
