"""Rational reference for the labeling search, used only by tests.

``topfan.realize`` plans the vertex order once, reads each completed facet's
linear form from one cofactor vector and solves the small system from one
integer factorization per search node.  This module recomputes the same
data from the definitions instead: the facets a vertex completes by scanning
every facet, each linear form from n determinants with a unit column, and
the box points by one dense ``Fraction`` row reduction (``dense_rref``) per
combination of target determinants.  It also keeps a complete backtracking
search of its own for each mode, so whole-search verdicts, first solutions
and search counts can be compared, with the kernel's forward checking or
without it.
"""

from fractions import Fraction
from itertools import product

from topfan import linalg
from topfan.realize import (
    Infeasible,
    LabelingSolution,
    SignContradiction,
    SignTable,
    Unsat,
    _gf2_rank,
    derive_sign_table,
)
from tests.rref_oracle import dense_rref


def vertex_order(complex_, assigned):
    """Greedy max-constraint order: most completed facets first, then index."""
    order = []
    assigned = set(assigned)
    remaining = [v for v in range(1, complex_.m + 1) if v not in assigned]
    while remaining:
        best = max(remaining, key=lambda v: (len(completed_facets(complex_, v, assigned)), -v))
        order.append(best)
        assigned.add(best)
        remaining.remove(best)
    return order


def completed_facets(complex_, vertex, assigned):
    return [f for f in complex_.facets
            if vertex in f and all(u in assigned or u == vertex for u in f)]


def full_box(n, bound):
    return list(product(range(-bound, bound + 1), repeat=n))


def box_solutions(rows, targets, n, bound):
    """Integer points x with rows . x = targets and |x_i| <= bound, by ``dense_rref``."""
    if not rows:
        return full_box(n, bound)
    aug = [list(map(Fraction, row)) + [Fraction(t)] for row, t in zip(rows, targets)]
    reduced, pivots = dense_rref(aug)
    if n in pivots:
        return []
    free = [c for c in range(n) if c not in pivots]
    out = []
    for values in product(range(-bound, bound + 1), repeat=len(free)):
        x = [Fraction(0)] * n
        for c, val in zip(free, values):
            x[c] = Fraction(val)
        ok = True
        for r, p in enumerate(pivots):
            val = reduced[r][n] - sum(reduced[r][c] * x[c] for c in free)
            if val.denominator != 1 or abs(val) > bound:
                ok = False
                break
            x[p] = val
        if ok:
            out.append(tuple(int(v) for v in x))
    return out


def integer_candidates(complex_, n, mode, bound, sign_table, vertex, assigned):
    """Nonzero primitive box vectors meeting every facet ``vertex`` completes, sorted."""
    rows = []
    facets = completed_facets(complex_, vertex, assigned)
    for f in facets:
        row = []
        for k in range(n):
            cols = [tuple(1 if t == k else 0 for t in range(n)) if u == vertex else assigned[u]
                    for u in sorted(f)]
            row.append(linalg.int_det([[cols[j][t] for j in range(n)] for t in range(n)]))
        rows.append(row)
    if mode == "toric_sign":
        target_sets = [[sign_table.ascending_sign(f)] for f in facets]
    else:
        target_sets = [[1, -1] for _ in facets]
    found = set()
    for targets in product(*target_sets):
        found.update(box_solutions(rows, list(targets), n, bound))
    return sorted(v for v in found if any(v) and linalg.vec_gcd(v) == 1)


def mod2_candidates(complex_, n, vertex, assigned):
    """The classes keeping every facet of ``vertex`` GF(2)-independent, ascending."""
    out = []
    for c in range(1, 1 << n):
        trial = dict(assigned)
        trial[vertex] = c
        if all(_gf2_rank([trial[u] for u in f if u in trial]) == len([u for u in f if u in trial])
               for f in complex_.facets if vertex in f):
            out.append(c)
    return out


def node_key(vertex, assignment):
    return vertex, tuple(sorted(assignment.items()))


def effective_sign_table(complex_, normalization, sign_table=None):
    """The table a toric-sign search works with: derived from +1 on the pinned
    facet, or the given one flipped globally so that facet carries +1."""
    if sign_table is None:
        return derive_sign_table(complex_, normalization, 1)
    if sign_table.ascending_sign(normalization) != 1:
        return SignTable({f: -s for f, s in sign_table.signs.items()}, sign_table.ref_orders)
    return sign_table


def probed_vertices(complex_, order, idx, assigned):
    """The later vertices an integer search probes once ``order[idx]`` is placed.

    Those whose facets with every other vertex in ``assigned`` (the facets
    known so far) number two or more, one of them through ``order[idx]``;
    in the order's order.
    """
    vertex = order[idx]
    out = []
    for w in order[idx + 1:]:
        known = completed_facets(complex_, w, assigned)
        if len(known) >= 2 and any(vertex in f for f in known):
            out.append(w)
    return out


def search(complex_, mode, bound=1, normalization=None, sign_table=None, memo=None,
           prune=True, stats=None):
    """The whole search from the definitions; the same verdicts as ``search_labeling``.

    ``memo`` maps ``(vertex, sorted assignment items)`` to this module's
    candidate list there; pass a dict filled from the same complex, mode,
    bound and sign table to skip recomputing nodes already seen.  With
    ``prune`` an integer search drops each candidate that leaves a probed
    vertex (``probed_vertices``) no candidate among its known facets, as
    the kernel does; without it every candidate opens a node.  ``stats``
    receives the kernel's counts: ``nodes``, ``candidates`` and
    ``backtracks``, and ``probes`` and ``pruned`` in the integer modes.
    """
    n = complex_.dim + 1
    normalization = tuple(sorted(normalization or complex_.facets[0]))
    if mode == "toric_sign":
        sign_table = effective_sign_table(complex_, normalization, sign_table)
        if isinstance(sign_table, SignContradiction):
            return Infeasible("sign-contradiction", sign_table)
    if mode == "mod2":
        assignment = {v: 1 << pos for pos, v in enumerate(normalization)}
    else:
        assignment = {v: tuple(1 if k == pos else 0 for k in range(n))
                      for pos, v in enumerate(normalization)}
    order = vertex_order(complex_, assignment)
    counts = {"nodes": 0, "candidates": 0, "backtracks": 0}
    if mode != "mod2":
        counts.update(probes=0, pruned=0)

    def candidates(vertex):
        key = node_key(vertex, assignment)
        if memo is not None and key in memo:
            return memo[key]
        if mode == "mod2":
            return mod2_candidates(complex_, n, vertex, assignment)
        return integer_candidates(complex_, n, mode, bound, sign_table, vertex, assignment)

    def survives(idx):
        if mode == "mod2" or not prune:
            return True
        for w in probed_vertices(complex_, order, idx, set(assignment)):
            counts["probes"] += 1
            if not candidates(w):
                counts["pruned"] += 1
                return False
        return True

    def backtrack(idx):
        counts["nodes"] += 1
        if idx == len(order):
            return True
        vertex = order[idx]
        for value in candidates(vertex):
            assignment[vertex] = value
            if survives(idx):
                counts["candidates"] += 1
                if backtrack(idx + 1):
                    return True
            del assignment[vertex]
        counts["backtracks"] += 1
        return False

    found = backtrack(0)
    if stats is not None:
        stats.update(counts)
    if not found:
        if mode == "mod2":
            return Infeasible("exhausted", {"classes": (1 << n) - 1})
        return Unsat(bound)
    return LabelingSolution(dict(assignment), {}, mode)
