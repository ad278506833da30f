"""Dense ``Fraction`` row reduction, used only by tests.

``topfan.linalg.rref`` takes and returns sparse primitive integer rows.  The
oracles that row-reduce a rational matrix read ``dense_rref`` below instead:
textbook Gauss–Jordan elimination on list rows of ``Fraction``s, which is
also the reference ``tests/test_linalg.py`` holds ``rref`` against.
"""

from fractions import Fraction
from math import lcm


def dense_rref(rows):
    """Reduced row echelon form of a rational matrix.

    Returns ``(reduced, pivot_columns)`` where ``reduced`` keeps the original
    number of rows (zero rows at the bottom) and every entry is a
    ``Fraction``.  Deterministic: pivots are the leftmost nonzero columns,
    scanned top to bottom.  The input is left as it was.
    """
    m = [[Fraction(x) for x in row] for row in rows]
    if not m:
        return [], []
    nrows, ncols = len(m), len(m[0])
    pivots = []
    r = 0
    for col in range(ncols):
        pivot_row = None
        for i in range(r, nrows):
            if m[i][col] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        inv = Fraction(1) / m[r][col]
        m[r] = [x * inv for x in m[r]]
        for i in range(nrows):
            if i != r and m[i][col] != 0:
                f = m[i][col]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(col)
        r += 1
        if r == nrows:
            break
    return m, pivots


def sparse_rows(rows):
    """Rational list rows as the rows ``linalg.rref`` reads.

    Each row is scaled by the lcm of its denominators (an integer row stays
    as it is) and becomes the dict of its nonzero entries.
    """
    out = []
    for row in rows:
        row = [Fraction(x) for x in row]
        den = lcm(*(x.denominator for x in row))
        out.append({j: int(x * den) for j, x in enumerate(row) if x})
    return out
