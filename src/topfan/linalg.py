"""Exact linear algebra over the rationals and the integers.

Matrices are plain lists of lists holding ``Fraction`` or ``int`` entries,
except in ``rref``, whose rows are sparse dicts of nonzero ``int`` entries.
Nothing touches floating point.  Everything downstream (cone membership,
dual bases, graded ranks, labeling searches) relies on that exactness, so
keep it that way.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction
from itertools import combinations
from math import gcd, lcm
from operator import mul


def rref(rows):
    """Reduced row echelon form of sparse integer rows.

    ``rows`` is a list of dicts from column to nonzero ``int``.  Returns
    ``(reduced, pivots)``: one primitive integer dict per pivot, in
    ascending pivot order, each zero on the other pivots.  Row e divided by
    e[p] is pivot p's row of the unique reduced echelon form of the row
    space.  Deterministic: pivots are the leftmost nonzero columns, scanned
    top to bottom.  The input is left as it was.

    Fraction-free.  The rows join one at a time.  A new row is cleared on
    each kept pivot p by cross multiplication against that pivot's row e,
    ``row <- e[p]·row - row[p]·e``, and divided by its content (the gcd of
    its entries).  If anything is left, its leftmost column becomes a pivot,
    and the kept rows are cleared on that column the same way.
    """
    kept = {}  # pivot column -> its row
    for row in rows:
        new = row
        for p in [j for j in row if j in kept]:
            new = _cross(new, kept[p], p)
        if not new:
            continue
        if new is row:
            c = gcd(*row.values())
            new = {j: x // c for j, x in row.items()}
        lead = min(new)
        for p, e in kept.items():
            if lead in e:
                kept[p] = _cross(e, new, lead)
        kept[lead] = new
    pivots = sorted(kept)
    return [kept[p] for p in pivots], pivots


def _cross(row, e, p):
    """``e[p]·row - row[p]·e`` over the two factors' gcd, divided by its content.

    Sparse integer rows; the result is zero at p, and empty if nothing is left.
    """
    a, b = e[p], row[p]
    g = gcd(a, b)
    if g != 1:
        a, b = a // g, b // g
    out = {j: a * x for j, x in row.items()} if a != 1 else dict(row)
    for j, y in e.items():
        v = out.get(j, 0) - b * y
        if v:
            out[j] = v
        else:
            del out[j]
    c = gcd(*out.values())
    if c > 1:
        out = {j: x // c for j, x in out.items()}
    return out


def int_det(rows):
    """Determinant of an integer matrix via fraction-free (Bareiss) elimination."""
    a = [[int(x) for x in row] for row in rows]
    n = len(a)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = None
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    swap = i
                    break
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


# Largest n that ``_det_form`` writes out; above it ``cofactor_row`` and
# ``adjugate`` take one ``reduce_system`` pass.  Per call (Python 3.11.7,
# 2-vCPU host, entries in -3..3) a form takes 0.4-1.1 us at n = 2..4 and the
# pass 3-12 us; a block's n rows take 3.1-6.5 us and its pass 10-23 us.  At
# n = 5/6/7/10 the pass takes 21/34/52/138 us a form and 36/54/81/216 us a
# block.
_DET_FORM_MAX_N = 4


def _det_form(u=None, w=None, z=None):
    """The form x -> det(x, u, w, z) of the n - 1 <= 3 integer columns given, as a tuple.

    n = 1 is the constant 1, n = 2 a swap, n = 3 the cross product; n = 4
    expands each 3x3 minor along u over the six 2x2 minors of w and z.
    """
    if w is None:
        return (1,) if u is None else (u[1], -u[0])
    if z is None:
        return (u[1] * w[2] - u[2] * w[1], u[2] * w[0] - u[0] * w[2], u[0] * w[1] - u[1] * w[0])
    m01, m02, m03 = w[0] * z[1] - w[1] * z[0], w[0] * z[2] - w[2] * z[0], w[0] * z[3] - w[3] * z[0]
    m12, m13, m23 = w[1] * z[2] - w[2] * z[1], w[1] * z[3] - w[3] * z[1], w[2] * z[3] - w[3] * z[2]
    return (u[1] * m23 - u[2] * m13 + u[3] * m12, u[2] * m03 - u[0] * m23 - u[3] * m02,
            u[0] * m13 - u[1] * m03 + u[3] * m01, u[1] * m02 - u[0] * m12 - u[2] * m01)


def cofactor_row(cols, position):
    """The integer form c with ``c . x`` = det of ``cols`` with x inserted as column ``position``.

    ``cols`` are n - 1 integer vectors of length n; the result is a tuple.
    Expanding along the inserted column gives ``c_k = (-1)^(k + position)``
    times the minor of ``cols`` without row k.  Up to ``_DET_FORM_MAX_N``
    that is ``_det_form``, negated at odd positions: about 1 us, 4 (n = 2)
    to 8-16 (n = 4) times faster than n ``int_det`` minors.  Above it the
    form comes from one ``reduce_system`` pass over ``cols`` as rows, each
    with target 0.  With fewer than n - 1 pivots the form is zero.
    Otherwise let f be the free column: the rows are d on their own pivot
    and 0 on the others, so the kernel of ``cols`` is spanned by z with
    z_f = d and z_p = -row_p[f].  d is the determinant of ``cols`` on the
    pivot columns in pivot order, so the form is ε·z with
    ε = (-1)^(inv + n - 1 + position), where inv counts the inversions of
    ``pivots + [f]`` (``parity``).
    """
    n = len(cols) + 1
    if n <= _DET_FORM_MAX_N:
        form = _det_form(*cols)
        return tuple([-c for c in form]) if position % 2 else form
    d, pivots, rows, _ = reduce_system((col, (0,)) for col in cols)
    if len(pivots) < n - 1:
        return (0,) * n
    order = pivots + [sum(range(n)) - sum(pivots)]
    free = order[-1]
    sign = parity(order) * (-1) ** (n - 1 + position)
    c = [0] * n
    c[free] = sign * d
    for p, row in zip(pivots, rows):
        c[p] = -sign * row[free]
    return tuple(c)


def parity(seq):
    """(-1)^inversions of a sequence of distinct items: the sign of the permutation sorting it."""
    return -1 if sum(a > b for a, b in combinations(seq, 2)) % 2 else 1


def reduce_system(pairs, start=None):
    """One fraction-free Gauss-Jordan pass over ``form . x = t``, t in ``allowed``.

    ``pairs`` yields integer forms of one length with nonempty tuples of
    values, read lazily.  Each kept row is d on its pivot and 0 on the other
    pivots, followed by its integer combination c of the kept forms' targets
    t, so ``row . x = c . t``; a new pivot clears the other rows, and
    dividing them by the old d is exact (Bareiss, Math. Comp. 22, 1968).  A
    form reduced to zero keeps only the tuples t that give it an allowed
    value.  Returns None at the first form no tuple survives, reading no
    further; else ``(d, pivots, rows, targets)``, the tuples in ``product``
    order.  ``start``, a result of an earlier pass, resumes that pass: the
    result is the one pass over its pairs and then ``pairs``.  ``start``
    itself is left unchanged.
    """
    if start is None:
        rows, pivots, targets, d = [], [], [()], 1
    else:
        d, pivots, rows, targets = start
        pivots, rows = pivots[:], [e[:] for e in rows]
    for form, allowed in pairs:
        row = [d * x for x in form] if d != 1 else list(form)
        row += [0] * len(rows)
        for p, e in zip(pivots, rows):
            c = form[p]
            if c:
                row = [x - c * y for x, y in zip(row, e)]
        for lead in range(len(form)):
            if row[lead]:
                break
        else:
            # 0 = row . x = d * (its target) + c . t
            c, scaled = row[len(form):], {-d * a for a in allowed}
            targets = [t for t in targets if sum(map(mul, c, t)) in scaled]
            if not targets:
                return None
            continue
        row.append(d)
        top = row[lead]
        for k, e in enumerate(rows):
            e.append(0)
            c = e[lead]
            if c or top != d:
                rows[k] = [(top * x - c * y) // d for x, y in zip(e, row)]
        rows.append(row)
        pivots.append(lead)
        d = top
        targets = [t + (a,) for t in targets for a in allowed]
    return d, pivots, rows, targets


def adjugate(cols):
    """``(det, rows)`` of the square integer block with these columns, ``(0, ())`` if singular.

    Row k is the form x -> det of the block with x in place of column k.  No
    caller reads a singular block's rows: cone location and the dual bases
    raise on det 0, and the wall test stops there.  Up to ``_DET_FORM_MAX_N``
    row k is ``cofactor_row`` of the other columns.  Above it the
    ``reduce_system`` pass over the block's rows keeps, per pivot p, d on p
    and a combination c of the rows with c . block = d e_p; with s the
    ``parity`` of the pivot order, det = s·d and row p = s·c.
    """
    n = len(cols)
    if 0 < n <= _DET_FORM_MAX_N:
        rows = tuple(cofactor_row(cols[:k] + cols[k + 1:], k) for k in range(n))
        det = sum(map(mul, rows[0], cols[0]))
        return (det, rows) if det else (0, ())
    d, pivots, reduced, _ = reduce_system((form, (0,)) for form in zip(*cols))
    if len(pivots) < n:
        return 0, ()
    sign = parity(pivots)
    return sign * d, tuple(tuple(sign * c for c in row[n:])
                           for _, row in sorted(zip(pivots, reduced)))


def nonneg_solution(rows, rhs):
    """A rational x >= 0 with rows . x = rhs, or None when there is none.

    ``rows`` is a nonempty integer or rational matrix and rhs >= 0.

    Phase I of the simplex method: the start basis is one artificial
    variable per row, and the columns of ``rows`` enter by Bland's rule
    (the first column with a negative reduced cost enters; among the rows
    of least ratio, the one whose basic variable comes first leaves), so it
    cannot cycle.  The system is solvable exactly when the artificial sum
    falls to 0.

    The tableau T, cost row included, holds integers over d = |det| of the
    basis; rational input is scaled once to integers, which moves no pivot.
    A pivot p = T[r][e] keeps row r and sets each other row to
    ``(p·row - row[e]·T[r]) // d``, exact by Bareiss (Math. Comp. 22,
    1968); then d = p.  As d > 0 and ratios are cross-multiplied, these are
    the pivots, and x the basic solution, of the same tableau in ``Fraction``s.
    """
    ncols = len(rows[0])
    table = [list(row) + [r] for row, r in zip(rows, rhs)]
    if any(type(a) is not int for row in table for a in row):
        flat = clear_denominators([a for row in table for a in row])
        table = [flat[k:k + ncols + 1] for k in range(0, len(flat), ncols + 1)]
    basis = [ncols + i for i in range(len(table))]
    # reduced costs of the artificial sum; the last entry is minus its value
    cost = [-sum(column) for column in zip(*table)]
    d = 1
    while True:
        enter = next((j for j in range(ncols) if cost[j] < 0), None)
        if enter is None:
            break
        # the artificial sum is bounded below by 0, so some entry is positive
        r = None
        for i, row in enumerate(table):
            a = row[enter]
            # least ratio row[-1] / a (cross-multiplied: a, p > 0); ties to the least basis[i]
            if a > 0 and (r is None or (row[-1] * p, basis[i]) < (pivot[-1] * a, basis[r])):
                r, p, pivot = i, a, row
        for row in table + [cost]:
            f = row[enter]
            if row is not pivot and (f or p != d):
                row[:] = [(p * a - f * b) // d for a, b in zip(row, pivot)]
        d = p
        basis[r] = enter
    if cost[-1]:
        return None
    x = [Fraction(0)] * ncols
    for i, j in enumerate(basis):
        if j < ncols:
            x[j] = Fraction(table[i][-1], d)
    return x


def maximal_minor_gcd(columns):
    """gcd of the k x k minors of the integer matrix with these k columns (0 if they are dependent).

    Unimodular row operations keep that gcd, so Euclidean elimination brings
    the matrix to row echelon form without changing it: a column without a
    pivot makes every k x k minor 0, and otherwise the only nonzero one is
    the product of the pivots.
    """
    rows = [list(row) for row in zip(*columns)]
    g = 1
    for k in range(len(columns)):
        while True:
            live = [row for row in rows if row[k]]
            if not live:
                return 0
            pivot = min(live, key=lambda row: abs(row[k]))
            if len(live) == 1:
                break
            for row in live:
                if row is not pivot:
                    q = row[k] // pivot[k]
                    for j in range(k, len(row)):
                        row[j] -= q * pivot[j]
        rows = [row for row in rows if row is not pivot]
        g *= abs(pivot[k])
    return g


def clear_denominators(vec):
    """Scale a rational vector to a primitive integer vector (same ray)."""
    fracs = [x if type(x) is Fraction else Fraction(x) for x in vec]
    den = lcm(*(f.denominator for f in fracs))
    ints = [f.numerator * (den // f.denominator) for f in fracs]
    g = gcd(*ints)
    if g > 1:
        ints = [x // g for x in ints]
    return ints


# an optional sign and digits, optionally "/" and digits, with the surrounding
# whitespace that ``Fraction`` strips; no decimal point, exponent or "_", and
# ASCII digits only (``\d`` and ``Fraction`` take every script's)
_RATIONAL = re.compile(r"\s*([-+]?[0-9]+)(?:/([0-9]+))?\s*")


def parse_rational(value):
    """Parse a JSON rational to a ``Fraction``: the one-entry case of ``parse_ratios``."""
    (num,), den = parse_ratios([value])
    return Fraction(num, den)


def parse_ratios(values):
    """``(numerators, denominator)`` of a list of JSON rationals, over their common denominator.

    Each entry is an int, or a string like ``"-3/4"`` or ``"5"``; the
    denominator is the positive lcm of the entries' (the pair is not
    reduced).  A zero denominator is a ValueError, and so are other strings
    (``"0.5"``, ``"1e9"``, ``"1_000"``): an exponent would otherwise build a
    number of any size.
    """
    nums = []
    for x in values:
        # "-?[0-9]+" of at most 18 characters, far below any digit limit of int()
        if (type(x) is str and len(x) < 19 and (x[1:] if x[:1] == "-" else x).isdigit()
                and x.isascii()):
            nums.append(int(x))
        else:
            break
    else:
        return nums, 1
    pairs = [_parse_ratio(x) for x in values]
    den = lcm(*(d for _, d in pairs))
    return [n * (den // d) for n, d in pairs], den


def _parse_ratio(value):
    """``(numerator, denominator)`` of one JSON rational, the denominator positive."""
    if isinstance(value, bool):
        raise ValueError(f"not a rational: {value!r}")
    if isinstance(value, int):
        return value, 1
    if isinstance(value, str):
        match = _RATIONAL.fullmatch(value)
        if match is None:
            raise ValueError(f"not a rational: {value!r}")
        num, den = match.groups()
        num = parse_digits(num, "not a rational: numerator")
        if den is None:
            return num, 1
        den = parse_digits(den, "not a rational: denominator")
        if den == 0:
            raise ValueError(f"not a rational: {value!r} has a zero denominator")
        return num, den
    raise ValueError(f"not a rational: {value!r}")


def parse_digits(digits, what):
    """``int`` of a string of ASCII digits with an optional sign, which ``what`` names.

    Past ``sys.get_int_max_str_digits()`` digits ``int`` refuses with advice
    on the interpreter's settings; this ValueError names the value and the limit.
    """
    try:
        return int(digits)
    except ValueError:
        raise ValueError(f"{what} {digits[:15]}... has {len(digits.lstrip('+-'))} digits, "
                         f"more than the limit of {sys.get_int_max_str_digits()}") from None


def parse_int(value, field):
    """Parse a JSON integer of the named field; a float, a bool or a string is a ValueError."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"not an integer in {field}: {value!r}")
    return value


def json_array(value, field):
    """A JSON array of the named field, as it is; any other JSON value is a ValueError.

    A string or an object would iterate as its characters or its keys.
    """
    if not isinstance(value, list):
        raise ValueError(f"{field} must be a JSON array, not {value!r}")
    return value
