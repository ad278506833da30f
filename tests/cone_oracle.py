"""Slow references for validation, used only by tests.

``TopologicalFan._cone_pair_witness`` settles a facet pair by one Phase-I
LP.  This module decides the same pair from the definitions instead: the
intersection of two simplicial cones is the cone {u >= 0 : [B_i | -B_j] u = 0},
and the pair overlaps improperly exactly when one of that cone's extreme
rays has support off the common face.  The extreme rays are enumerated
over a kernel basis, one signed maximal minor per choice of active
inequalities, in integer arithmetic.

``check_fan_condition`` and ``check_nonsingular`` decide every facet
without the cached ``(det, adj)`` records: independence by the
fraction-free row reduction ``independent_rows`` below, of both parts, and
unimodularity by ``linalg.int_det`` of each top facet's v-block
(``maximal_minor_gcd`` below, one ``int_det`` per choice of rows and
columns, for the other facets).  ``independent_rows`` is
also the tests' reference for the rank that ``linalg.rref``'s pivots give
and for the rows that ``linalg.reduce_system`` keeps.  ``kernel_basis``
reads the dense reference ``dense_rref``.

``nonneg_solution`` is the Phase-I LP with every entry a ``Fraction``.
It makes the same pivots as the fraction-free ``linalg.nonneg_solution``,
so it is the reference for the exact x that one returns.
"""

from fractions import Fraction
from itertools import combinations
from math import gcd

from topfan import linalg
from topfan.fans import Verdict
from tests.rref_oracle import dense_rref


def independent_rows(rows):
    """A maximal independent subset of integer rows, and its pivots.

    Fraction-free elimination in list order: each row is reduced by cross
    multiplication against the rows kept before it, and kept when something
    is left; its pivot is its first nonzero column then.  The kept rows
    restricted to the pivot columns form a nonsingular square block, since
    their reductions are triangular there.  Returns ``(chosen, pivots)``.
    """
    chosen, pivots, echelon = [], [], []
    for i, row in enumerate(rows):
        for p, e in zip(pivots, echelon):
            c = row[p]
            if c:
                a = e[p]
                row = [a * x - c * y for x, y in zip(row, e)]
        lead = next((j for j, x in enumerate(row) if x), None)
        if lead is not None:
            chosen.append(i)
            pivots.append(lead)
            echelon.append(row)
    return chosen, pivots


def check_fan_condition(fan):
    """``TopologicalFan.check_fan_condition`` with every facet row-reduced."""
    for f in fan.complex.facets:
        if len(independent_rows(fan._int_columns("b", f))[0]) != len(f):
            return Verdict(False, {"kind": "dependent-b", "facet": list(f)})
        if len(independent_rows(fan._int_columns("v", f))[0]) != len(f):
            return Verdict(False, {"kind": "dependent-v", "facet": list(f)})
    if fan.check_complete().ok:
        return Verdict(True)
    return fan._check_facet_pairs()


def check_nonsingular(fan):
    """``TopologicalFan.check_nonsingular`` with one ``int_det`` per top facet."""
    for f in fan.complex.facets:
        cols = [list(fan.ray(i).v) for i in f]
        rows = [[cols[j][k] for j in range(len(f))] for k in range(fan.n)]
        if len(f) == fan.n:
            d = linalg.int_det(rows)
            if abs(d) != 1:
                return Verdict(False, {"kind": "bad-determinant", "facet": list(f), "det": d})
        else:
            g = maximal_minor_gcd(rows, len(f))
            if g != 1:
                return Verdict(False, {"kind": "bad-minor-gcd", "facet": list(f), "gcd": g})
    return Verdict(True)


def maximal_minor_gcd(int_rows, size):
    """gcd of all size x size minors of an integer matrix (rows x cols)."""
    nrows = len(int_rows)
    ncols = len(int_rows[0]) if int_rows else 0
    g = 0
    for ri in combinations(range(nrows), size):
        for ci in combinations(range(ncols), size):
            minor = [[int_rows[i][j] for j in ci] for i in ri]
            g = gcd(g, abs(linalg.int_det(minor)))
            if g == 1:
                return 1
    return g


def nonneg_solution(rows, rhs):
    """A rational x >= 0 with rows . x = rhs, or None when there is none.

    ``rows`` is a nonempty integer or rational matrix and rhs >= 0.

    Phase I of the simplex method: the start basis is one artificial
    variable per row, and the columns of ``rows`` enter by Bland's rule
    (the first column with a negative reduced cost enters; among the rows
    of least ratio, the one whose basic variable comes first leaves), so it
    cannot cycle.  The system is solvable exactly when the artificial sum
    falls to 0.  Every entry stays a ``Fraction``.
    """
    ncols = len(rows[0])
    table = [[Fraction(a) for a in row] + [Fraction(r)] for row, r in zip(rows, rhs)]
    basis = [ncols + i for i in range(len(table))]
    # reduced costs of the artificial sum; the last entry is minus its value
    cost = [-sum(column) for column in zip(*table)]
    while True:
        enter = next((j for j in range(ncols) if cost[j] < 0), None)
        if enter is None:
            break
        # the artificial sum is bounded below by 0, so some entry is positive
        _, _, r = min((row[-1] / row[enter], basis[i], i)
                      for i, row in enumerate(table) if row[enter] > 0)
        pivot = table[r] = [a / table[r][enter] for a in table[r]]
        for row in table + [cost]:
            f = row[enter]
            if f and row is not pivot:
                row[:] = [a - f * b if b else a for a, b in zip(row, pivot)]
        basis[r] = enter
    if cost[-1]:
        return None
    x = [Fraction(0)] * ncols
    for i, j in enumerate(basis):
        if j < ncols:
            x[j] = table[i][-1]
    return x


def kernel_basis(rows):
    """Basis of the right kernel {x : A x = 0}, one vector per free column."""
    if not rows:
        return []
    ncols = len(rows[0])
    red, pivots = dense_rref(rows)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free:
        vec = [Fraction(0)] * ncols
        vec[f] = Fraction(1)
        for r, p in enumerate(pivots):
            vec[p] = -red[r][f]
        basis.append(vec)
    return basis


def extreme_rays_nonneg_kernel(rows):
    """Extreme rays of {u >= 0 : A u = 0} for an integer matrix A, exactly.

    Works in kernel coordinates: with K a kernel basis of A (columns), the
    cone is {z : K z >= 0} and extreme rays activate k-1 independent
    inequalities.  Candidate directions come from signed maximal minors, so
    the whole enumeration stays in integer arithmetic.
    """
    if not rows:
        return []
    d = len(rows[0])
    kern = [linalg.clear_denominators(vec) for vec in kernel_basis(rows)]
    k = len(kern)
    if k == 0:
        return []
    # Inequality r reads sum_j ineq[r][j] z_j >= 0.
    ineq = [[kern[j][r] for j in range(k)] for r in range(d)]

    rays = []
    seen = set()

    def push(u):
        if all(x >= 0 for x in u) and any(x > 0 for x in u):
            g = gcd(*u)
            key = tuple(x // g for x in u)
            if key not in seen:
                seen.add(key)
                rays.append(list(key))

    if k == 1:
        push([ineq[r][0] for r in range(d)])
        push([-ineq[r][0] for r in range(d)])
        return rays
    for active in combinations(range(d), k - 1):
        sub = [ineq[r] for r in active]
        # one-dimensional kernel of a (k-1) x k integer matrix via minors
        z = [(-1) ** j * linalg.int_det([row[:j] + row[j + 1:] for row in sub])
             for j in range(k)]
        if all(x == 0 for x in z):
            continue
        u = [sum(ineq[r][j] * z[j] for j in range(k)) for r in range(d)]
        push(u)
        push([-x for x in u])
    return rays


def cone_pair_witness(fan, fi, fj):
    """A point of cone(fi) \\cap cone(fj) outside cone(fi & fj), or None, by enumeration.

    Every pair goes through the extreme rays; there is no wall shortcut.
    Requires independent b-columns in fi.
    """
    common = set(fi) & set(fj)
    cols_i = [linalg.clear_denominators(fan.ray(i).b) for i in fi]
    cols_j = [linalg.clear_denominators(fan.ray(j).b) for j in fj]
    # Solutions of B_i s - B_j t = 0 with s, t >= 0 parameterize the
    # intersection.  Since fi's columns are independent, s holds the
    # point's unique coordinates in fi, so the point lies in cone(common)
    # exactly when s vanishes off common.
    rows = [[cols_i[p][k] for p in range(len(fi))] +
            [-cols_j[q][k] for q in range(len(fj))] for k in range(fan.n)]
    outside = [p for p, i in enumerate(fi) if i not in common]
    for u in extreme_rays_nonneg_kernel(rows):
        if any(u[p] for p in outside):
            return [sum(u[p] * cols_i[p][k] for p in range(len(fi))) for k in range(fan.n)]
    return None
