"""Exact linear algebra against its definitions and a dense reference elimination."""

import itertools
import random
import sys
from collections import Counter
from fractions import Fraction
from math import gcd
from operator import mul

import pytest

from topfan import linalg
from tests import chart_oracle, cone_oracle, rref_oracle


def _minor_row(cols, position):
    """c_k = (-1)^(k + position) times the minor of ``cols`` (as columns) without row k."""
    rows = [list(r) for r in zip(*cols)] if cols else [[]]  # n = 1: one empty row
    return tuple((-1) ** (k + position) * linalg.int_det(rows[:k] + rows[k + 1:])
                 for k in range(len(rows)))


def _cofactor_cases(rng, n):
    """n - 1 columns of Z^n: random ones (almost never singular), then a zero
    column, a repeated column, a column that is the sum of two others, and
    leading zeros that make the elimination swap rows, at every position."""
    def column():
        return [rng.randint(-3, 3) for _ in range(n)]

    yield [column() for _ in range(n - 1)]
    yield [column() for _ in range(n - 1)]
    if n < 3:
        yield [[0] * n] * (n - 1)
        return
    cols = [column() for _ in range(n - 1)]
    cols[rng.randrange(n - 1)] = [0] * n
    yield cols
    cols = [column() for _ in range(n - 1)]
    cols[-1] = list(cols[0])
    yield cols
    if n > 3:
        cols = [column() for _ in range(n - 1)]
        cols[1] = [a + b for a, b in zip(cols[0], cols[-1])]
        yield cols
    for zeros in (1, 2, n - 2):
        cols = [column() for _ in range(n - 1)]
        for col in cols[:zeros]:
            col[0] = 0
        cols[-1][0] = rng.choice([-2, -1, 1, 2])
        yield cols
    # the first coordinate vanishes everywhere, so column 0 has no pivot
    yield [[0] + column()[1:] for _ in range(n - 1)]


def test_cofactor_row_matches_the_minors_on_both_paths():
    """Both routes: straight-line forms (n <= ``_DET_FORM_MAX_N``) and the
    ``reduce_system`` pass (above), with singular cases on each."""
    rng = random.Random(137)
    singular = Counter()
    for n in range(1, 17):
        route = "straight-line form" if n <= linalg._DET_FORM_MAX_N else "reduce_system pass"
        for cols in _cofactor_cases(rng, n):
            position = rng.randrange(n)
            row = linalg.cofactor_row(cols, position)
            assert row == _minor_row(cols, position), (route, n, cols, position)
            singular[route] += not any(row)
            x = [rng.randint(-3, 3) for _ in range(n)]
            block = cols[:position] + [x] + cols[position:]
            assert sum(a * b for a, b in zip(row, x)) == linalg.int_det(list(zip(*block)))
    assert set(singular) == {"straight-line form", "reduce_system pass"}
    assert min(singular.values()) >= 5 and sum(singular.values()) > 40, singular


def _adjugate_cases(rng, n):
    """Square integer blocks with n columns: random ones (almost never singular),
    then a repeated column, a zero column and a column the sum of two others."""
    def block():
        return [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]

    for _ in range(6):
        yield block()
    if n >= 2:
        cols = block()
        cols[-1] = list(cols[0])
        yield cols
        cols = block()
        cols[rng.randrange(n)] = [0] * n
        yield cols
    if n >= 3:
        cols = block()
        cols[1] = [a + b for a, b in zip(cols[0], cols[-1])]
        yield cols


def test_adjugate_matches_the_minors_on_both_routes():
    """det is ``int_det`` and row k, entry j is the det with e_j in place of column k,
    both from n cofactor rows (n <= ``_DET_FORM_MAX_N``) and from one
    ``reduce_system`` pass (above)."""
    rng = random.Random(149)
    singular = {"cofactor rows": 0, "reduce_system pass": 0}
    for n in range(1, 11):
        route = "cofactor rows" if n <= linalg._DET_FORM_MAX_N else "reduce_system pass"
        for cols in _adjugate_cases(rng, n):
            det, rows = linalg.adjugate(cols)
            assert det == linalg.int_det(list(zip(*cols))), (route, n, cols)
            if det == 0:
                assert rows == (), (route, n, cols)
                singular[route] += 1
                continue
            assert rows == _adjugate_by_minors(cols), (route, n, cols)
    assert min(singular.values()) >= 10
    assert 1 <= linalg._DET_FORM_MAX_N < 10


def test_cofactor_row_pass_agrees_with_the_forms_up_to_n_4(monkeypatch):
    """``_DET_FORM_MAX_N`` picks a route only for speed: with the limit at 0 the
    ``reduce_system`` pass gives the straight-line forms' rows for n = 1..4."""
    rng = random.Random(139)
    cases = [(cols, rng.randrange(n)) for n in range(1, linalg._DET_FORM_MAX_N + 1)
             for cols in _cofactor_cases(rng, n)]
    forms = [linalg.cofactor_row(cols, position) for cols, position in cases]
    monkeypatch.setattr(linalg, "_DET_FORM_MAX_N", 0)
    for (cols, position), form in zip(cases, forms):
        assert linalg.cofactor_row(cols, position) == form == _minor_row(cols, position)
    assert sum(not any(form) for form in forms) >= 5


def test_adjugate_pass_agrees_with_the_cofactor_rows_up_to_n_4(monkeypatch):
    """With the limit at 0, blocks of n = 1..4 take the ``reduce_system`` pass and
    give the det and rows of the n cofactor rows, ``(0, ())`` when singular."""
    rng = random.Random(157)
    blocks = [cols for n in range(1, linalg._DET_FORM_MAX_N + 1)
              for cols in _adjugate_cases(rng, n)]
    by_rows = [linalg.adjugate(cols) for cols in blocks]
    monkeypatch.setattr(linalg, "_DET_FORM_MAX_N", 0)
    for cols, expected in zip(blocks, by_rows):
        assert linalg.adjugate(cols) == expected, cols
        assert expected[0] == linalg.int_det(list(zip(*cols)))
    assert sum(det == 0 for det, _ in by_rows) >= 5


def _adjugate_by_minors(cols):
    """Row k, entry j: ``int_det`` of the block with e_j in place of column k."""
    n = len(cols)
    unit = [[int(i == j) for i in range(n)] for j in range(n)]
    return tuple(tuple(linalg.int_det(list(zip(*(cols[:k] + [e] + cols[k + 1:]))))
                       for e in unit) for k in range(n))


def test_straight_line_forms_on_bigints_zero_columns_and_singular_blocks():
    """n <= 4 with entries up to 10^40: random blocks, a zero column and a column
    a multiple of another, through ``adjugate`` and every position's cofactor row."""
    rng = random.Random(151)
    big = 10 ** 40
    zero_rows = Counter()
    for n in range(1, 5):
        for _ in range(10):
            cols = [[rng.randint(-big, big) for _ in range(n)] for _ in range(n)]
            zero = [list(col) for col in cols]
            zero[rng.randrange(n)] = [0] * n
            blocks = {"random": cols, "zero column": zero}
            if n >= 2:
                multiple = [list(col) for col in cols]
                factor = rng.choice((-3, 2))
                multiple[-1] = [factor * x for x in cols[0]]
                blocks["multiple"] = multiple
            for kind, block in blocks.items():
                det, rows = linalg.adjugate(block)
                assert det == linalg.int_det(list(zip(*block))), (n, kind, block)
                assert (det == 0) == (kind != "random"), (n, kind, block)
                assert rows == (_adjugate_by_minors(block) if det else ()), (n, kind, block)
                for k in range(n):
                    others = block[:k] + block[k + 1:]
                    row = linalg.cofactor_row(others, k)
                    assert row == _minor_row(others, k), (n, kind, block, k)
                    zero_rows[kind] += not any(row)
    # a row is zero exactly when the other columns are dependent
    assert zero_rows["random"] == 0
    assert zero_rows["zero column"] == 10 * (0 + 1 + 2 + 3)  # n - 1 rows hold it
    assert zero_rows["multiple"] == 10 * (0 + 1 + 2)  # n - 2 rows hold both columns


def _minor_gcd_cases(rng):
    """k integer columns of Z^n for n <= 6 and k <= n + 1: random ones, then a zero
    column, a column a combination of others, and columns scaled to share a factor."""
    for n in range(0, 7):
        for k in range(0, n + 2):
            for _ in range(20):
                cols = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(k)]
                yield cols
                if k:
                    i = rng.randrange(k)
                    yield cols[:i] + [[0] * n] + cols[i + 1:]
                    scaled = [[rng.choice((2, 3)) * x for x in col] for col in cols]
                    yield scaled
                if k >= 2:
                    a, b = rng.randint(-2, 2), rng.randint(-2, 2)
                    combo = [a * x + b * y for x, y in zip(cols[0], cols[1])]
                    yield cols[:-1] + [combo]


def _cycle_sign(perm):
    """(-1)^(length - cycles) of a permutation of range(length), cycles counted by walking them."""
    seen, cycles = set(), 0
    for start in range(len(perm)):
        if start not in seen:
            cycles += 1
            k = start
            while k not in seen:
                seen.add(k)
                k = perm[k]
    return (-1) ** (len(perm) - cycles)


def test_parity_is_the_sign_of_every_permutation_up_to_length_6():
    """On each permutation and on distinct labels in its order (spaced, negative)."""
    for length in range(7):
        for perm in itertools.permutations(range(length)):
            sign = _cycle_sign(perm)
            assert linalg.parity(perm) == sign, perm
            assert linalg.parity([7 * p - 20 for p in perm]) == sign, perm


def test_maximal_minor_gcd_matches_every_minor():
    rng = random.Random(29)
    zero = above_one = 0
    for cols in _minor_gcd_cases(rng):
        rows = [list(r) for r in zip(*cols)] if cols and cols[0] else []
        g = linalg.maximal_minor_gcd(cols)
        assert g == cone_oracle.maximal_minor_gcd(rows, len(cols)), cols
        zero += g == 0
        above_one += g > 1
    assert zero > 300 and above_one > 300


def to_fractions(rows):
    return [[Fraction(x) for x in row] for row in rows]


def _random_matrix(rng, nrows, ncols, density, rational):
    def entry():
        if rng.random() >= density:
            return Fraction(0) if rational else 0
        if rational:
            return Fraction(rng.randint(-9, 9), rng.randint(1, 6))
        return rng.randint(-4, 4)
    return [[entry() for _ in range(ncols)] for _ in range(nrows)]


def _rref_cases():
    rng = random.Random(149)
    shapes = [(3, 3), (2, 7), (9, 2), (1, 5), (6, 1), (5, 5), (12, 8), (4, 0), (1, 0)]
    for nrows, ncols in shapes:
        for density in (0.1, 0.3, 0.6, 1.0):
            for rational in (False, True):
                rows = _random_matrix(rng, nrows, ncols, density, rational)
                yield rows
                if nrows > 1:
                    # a zero row, a repeated row and a zero column
                    zero = Fraction(0) if rational else 0
                    rows = [list(r) for r in rows]
                    rows[rng.randrange(nrows)] = [zero] * ncols
                    rows.insert(rng.randrange(nrows), list(rows[rng.randrange(nrows)]))
                    if ncols:
                        column = rng.randrange(ncols)
                        for row in rows:
                            row[column] = zero
                    yield rows
    # integer entries up to 10^12
    for nrows, ncols in ((3, 3), (4, 6), (7, 4), (6, 6)):
        yield [[rng.choice([0, rng.randint(-10 ** 12, 10 ** 12)]) for _ in range(ncols)]
               for _ in range(nrows)]
    # proportional rows, and rows whose content is greater than 1
    for _ in range(8):
        ncols = rng.randint(2, 7)
        base = [rng.randint(-5, 5) for _ in range(ncols)]
        rows = [[f * x for x in base] for f in rng.sample([1, -1, 2, -3, 6, 10 ** 6], 3)]
        rows += [[content * rng.randint(-4, 4) for _ in range(ncols)]
                 for content in rng.sample([2, 3, 4, 6, 35, 10 ** 9], rng.randint(1, 3))]
        rng.shuffle(rows)
        yield rows
        yield to_fractions(rows)
    # Fraction rows whose entries have pairwise different denominators
    primes = (2, 3, 5, 7, 11, 13, 17, 19, 23)
    for nrows, ncols in ((2, 3), (3, 5), (4, 4), (5, 7), (3, 9)):
        yield [[Fraction(rng.choice([-1, 1]) * rng.randint(1, p - 1), p)
                for p in rng.sample(primes, ncols)] for _ in range(nrows)]
    yield []
    yield [[0, 0, 0], [0, 0, 0]]


def test_rref_matches_the_dense_gauss_jordan_reference():
    """Every case, each row scaled to integers: divided by its pivot entries,
    the output is the reference's reduced form; each output row is primitive
    and zero on the other pivots, and the input dicts are left unchanged."""
    for rows in _rref_cases():
        ncols = len(rows[0]) if rows else 0
        sparse = rref_oracle.sparse_rows(rows)
        before = [dict(row) for row in sparse]
        reduced, pivots = linalg.rref(sparse)
        want, want_pivots = rref_oracle.dense_rref(rows)
        assert pivots == want_pivots, rows
        assert len(reduced) == len(pivots), rows
        assert [[Fraction(e.get(j, 0), e[p]) for j in range(ncols)]
                for e, p in zip(reduced, pivots)] == want[:len(pivots)], rows
        for e, p in zip(reduced, pivots):
            assert all(type(x) is int and x for x in e.values()), rows
            assert gcd(*e.values()) == 1, rows
            assert [q for q in pivots if q in e] == [p], rows
        assert sparse == before, rows


def _seeded_rows(rng, n):
    """0-9 rows of Z^n: random ones and combinations of a few random ones."""
    basis = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(rng.randint(1, n))]
    rows = []
    for _ in range(rng.randint(0, 9)):
        if rng.random() < 0.4:
            rows.append(tuple(rng.randint(-3, 3) for _ in range(n)))
        else:
            coefs = [rng.randint(-2, 2) for _ in basis]
            rows.append(tuple(sum(c * b[j] for c, b in zip(coefs, basis)) for j in range(n)))
    return rows


def _forced_value(rows, chosen, pivots, targets, i):
    """``rows[i] . x`` for any rational x with ``rows[chosen] . x = targets``.

    Solved on the pivot block by ``dense_rref`` (the free coordinates 0); rows[i]
    lies in the span of the chosen rows, so any such x gives the same value.
    """
    block = [[rows[k][p] for p in pivots] + [t] for k, t in zip(chosen, targets)]
    reduced, _ = rref_oracle.dense_rref(block)
    x = [Fraction(0)] * len(rows[i])
    for p, solved in zip(pivots, reduced):
        x[p] = solved[-1]
    return sum(map(mul, rows[i], x))


def test_reduce_system_writes_each_other_row_through_the_kept_ones():
    """Each kept form's target is pinned to one value; each other form then
    survives exactly when its allowed values hold the rational value that the
    pinned targets force on it, and the reduced rows are integer combinations
    of the kept forms, d on their own pivot and 0 on the others."""
    rng = random.Random(157)
    for _ in range(400):
        n = rng.randint(1, 6)
        rows = _seeded_rows(rng, n)
        chosen, pivots = cone_oracle.independent_rows(rows)
        assert len(chosen) == len(pivots) == chart_oracle.rank(rows), rows
        assert len(pivots) == len(linalg.rref(rref_oracle.sparse_rows(rows))[1]), rows
        block = [[rows[i][p] for p in pivots] for i in chosen]
        assert linalg.int_det(block) != 0
        # consistent targets (those of an integer point) or arbitrary ones
        point = [rng.randint(-2, 2) for _ in range(n)]
        if rng.random() < 0.5:
            targets = tuple(sum(map(mul, rows[i], point)) for i in chosen)
        else:
            targets = tuple(rng.randint(-4, 4) for _ in chosen)
        pairs, survives = [], True
        for i, row in enumerate(rows):
            if i in chosen:
                pairs.append((row, (targets[chosen.index(i)],)))
                continue
            forced = _forced_value(rows, chosen, pivots, targets, i)
            allowed = (rng.randint(-4, 4), int(forced)) if forced.denominator == 1 else (0, 1, -1)
            if rng.random() < 0.3:
                allowed = tuple(a for a in allowed if a != forced) or (int(forced) + 1,)
            pairs.append((row, rng.sample(allowed, len(allowed))))
            survives = survives and forced in allowed
        system = linalg.reduce_system(iter(pairs))
        if not survives:
            assert system is None, rows
            continue
        d, got_pivots, reduced, kept = system
        assert got_pivots == pivots and kept == [targets], rows
        assert abs(d) == abs(linalg.int_det(block)), rows
        for k, row in enumerate(reduced):
            form, combination = row[:n], row[n:]
            assert [form[p] for p in pivots] == [d if j == k else 0 for j in range(len(pivots))]
            assert len(combination) == len(chosen)
            combined = [sum(c * rows[i][j] for c, i in zip(combination, chosen)) for j in range(n)]
            assert list(form) == combined, rows


def _box_solutions(system, n, bound):
    """The integer x in the box that ``reduce_system``'s result describes."""
    d, pivots, rows, targets = system
    free = [j for j in range(n) if j not in pivots]
    found = set()
    for y in itertools.product(range(-bound, bound + 1), repeat=len(free)):
        for t in targets:
            x = [0] * n
            for j, value in zip(free, y):
                x[j] = value
            for p, row in zip(pivots, rows):
                num = sum(map(mul, row[n:], t)) - sum(row[j] * x[j] for j in free)
                if num % d or abs(num // d) > bound:
                    break
                x[p] = num // d
            else:
                found.add(tuple(x))
    return found


def test_reduce_system_matches_the_whole_box():
    """n = 1..6, bounds 1-3 (the box kept to at most 7^4 points), allowed sets
    (1,), (-1,) and (1, -1) mixed; zero, repeated and dependent forms."""
    rng = random.Random(163)
    outcomes = set()
    for _ in range(800):
        n = rng.randint(1, 6)
        bound = rng.randint(1, 3)
        while (2 * bound + 1) ** n > 7 ** 4:
            bound -= 1
        forms = list(_seeded_rows(rng, n))
        if forms and rng.random() < 0.3:
            forms.insert(rng.randrange(len(forms) + 1), rng.choice(forms))
        if rng.random() < 0.1:
            forms.insert(rng.randrange(len(forms) + 1), (0,) * n)
        # mostly sets that a box point meets, so that dependent forms often hold
        point = [rng.randint(-bound, bound) for _ in range(n)]
        pairs = []
        for form in forms:
            sets = [(1,), (-1,), (1, -1)]
            met = [a for a in sets if sum(map(mul, form, point)) in a]
            pairs.append((form, rng.choice(met if met and rng.random() < 0.7 else sets)))
        box = itertools.product(range(-bound, bound + 1), repeat=n)
        want = {x for x in box
                if all(sum(map(mul, form, x)) in allowed for form, allowed in pairs)}
        system = linalg.reduce_system(iter(pairs))
        got = set() if system is None else _box_solutions(system, n, bound)
        assert got == want, pairs
        outcomes.add((system is None, bool(want)))
    # no solution at all, no box point of a rational solution, and box points
    assert outcomes == {(True, False), (False, False), (False, True)}


def test_reduce_system_reads_no_form_after_the_first_that_fails():
    def pairs():
        yield (1, 0, 0), (1,)
        yield (0, 1, 0), (1, -1)
        yield (1, 1, 0), (3,)  # 1 + (+-1) is never 3
        raise AssertionError("read past the first form no target survives")

    assert linalg.reduce_system(pairs()) is None
    assert linalg.reduce_system(iter([((0, 0), (1, -1))])) is None
    assert linalg.reduce_system(iter([])) == (1, [], [], [()])


def test_parse_rational_agrees_with_fraction_on_the_accepted_forms():
    rng = random.Random(151)
    for _ in range(300):
        text = rng.choice(["", "+", "-"]) + str(rng.randint(0, 10 ** rng.randint(1, 30)))
        if rng.random() < 0.7:
            text += "/" + str(rng.randint(1, 10 ** rng.randint(1, 30)))
        text = rng.choice(["", " ", "\t"]) + text + rng.choice(["", " ", "\n"])
        assert linalg.parse_rational(text) == Fraction(text), text
    for text in ("0.5", "1e3", "1_000", "", "/2", "1/", "1 / 2", "0x10", "1/-2",
                 "\u0661", "\u0663/\u0664", "1/\uff12"):
        with pytest.raises(ValueError, match="not a rational"):
            linalg.parse_rational(text)


def _regex_route(value):
    """``parse_rational`` of a string through ``_RATIONAL`` alone: the reference
    that its fast check for short integers is held against."""
    match = linalg._RATIONAL.fullmatch(value)
    if match is None:
        raise ValueError(f"not a rational: {value!r}")
    num, den = match.groups()
    try:
        return Fraction(int(num), int(den or 1))
    except ZeroDivisionError:
        raise ValueError(f"not a rational: {value!r} has a zero denominator") from None
    except ValueError:
        linalg.parse_digits(num, "not a rational: numerator")
        linalg.parse_digits(den, "not a rational: denominator")
        raise


def _outcome(parse, value):
    try:
        result = parse(value)
    except ValueError as exc:
        return ValueError, str(exc)
    return type(result), result


def test_parse_rational_fast_check_gives_the_regex_routes_value_or_error():
    """Short "-?[0-9]+" strings skip the regex; every string, taken or not, gets
    the regex route's value as a ``Fraction``, or its exact error."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    long = "7" * max(5000, limit + 700)
    texts = ["0", "-0", "007", "-007", "+3", " 4", "4\n", "-", "--1", "+-1", "-\u0661",
             "\u00b2", "9" * 18, "-" + "9" * 17, "-" + "9" * 18, "9" * 19, "3/4",
             long, "-" + long, "1/" + long]
    rng = random.Random(157)
    texts += [str(rng.randint(-10 ** 20, 10 ** 20)) for _ in range(200)]
    for text in texts:
        assert _outcome(linalg.parse_rational, text) == _outcome(_regex_route, text), text
    assert _outcome(linalg.parse_rational, "-0") == (Fraction, 0)
    if limit:  # else this interpreter converts integers of any length
        assert _outcome(linalg.parse_rational, long) == (
            ValueError, f"not a rational: numerator {long[:15]}... has {len(long)} digits, "
                        f"more than the limit of {limit}")


def test_nonneg_solution_returns_the_fraction_tableaus_x():
    """The integer tableau makes the pivots of the ``Fraction`` one
    (``cone_oracle.nonneg_solution``), so it returns the same x, not only the
    same verdict: 20,000 integer systems (1-6 rows, 1-9 columns, entries in
    -3..3, right-hand sides from {0, 0, 1, 2, 5}) and 3,000 with ``Fraction``
    entries, integers mixed in."""
    rng = random.Random(163)
    verdicts = Counter()
    for case in range(23000):
        k, n = rng.randint(1, 6), rng.randint(1, 9)
        rows = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(k)]
        rhs = [rng.choice((0, 0, 1, 2, 5)) for _ in range(k)]
        if case >= 20000:
            rows = [[Fraction(a, rng.randint(1, 4)) if rng.random() < 0.8 else a for a in row]
                    for row in rows]
            rhs = [Fraction(b, rng.randint(1, 3)) for b in rhs]
        x = linalg.nonneg_solution(rows, rhs)
        assert x == cone_oracle.nonneg_solution(rows, rhs), (rows, rhs)
        assert x is None or all(type(a) is Fraction for a in x)
        verdicts[x is not None, case >= 20000] += 1
    assert min(verdicts.values()) > 1000, verdicts
