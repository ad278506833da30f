"""Exact integer linear algebra against its definitions."""

import random

from topfan import linalg


def _minor_row(cols, position):
    """c_k = (-1)^(k + position) times the minor of ``cols`` (as columns) without row k."""
    rows = [list(r) for r in zip(*cols)]
    return tuple((-1) ** (k + position) * linalg.int_det(rows[:k] + rows[k + 1:])
                 for k in range(len(rows)))


def test_cofactor_row_matches_the_minors_on_both_paths():
    rng = random.Random(137)
    for n in range(2, 14):
        for _ in range(3):
            cols = [tuple(rng.randint(-3, 3) for _ in range(n)) for _ in range(n - 1)]
            position = rng.randrange(n)
            row = linalg.cofactor_row(cols, position)
            assert row == _minor_row(cols, position), (n, cols, position)
            x = [rng.randint(-3, 3) for _ in range(n)]
            block = cols[:position] + [x] + cols[position:]
            assert sum(a * b for a, b in zip(row, x)) == linalg.int_det(list(zip(*block)))


def test_cofactor_row_keeps_no_table_above_the_wedge_limit():
    linalg._wedge_levels.cache_clear()
    rng = random.Random(139)
    for n in range(linalg._WEDGE_MAX_N + 1, linalg._WEDGE_MAX_N + 4):
        cols = [tuple(rng.randint(-2, 2) for _ in range(n)) for _ in range(n - 1)]
        linalg.cofactor_row(cols, 0)
    assert linalg._wedge_levels.cache_info().currsize == 0
