"""Ring arithmetic against an explicit 2x2-matrix oracle."""

import json
import random
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from topfan.ring import (
    MU0,
    ONE,
    ZERO,
    BSingularError,
    RElem,
    VNotUnimodularError,
    pairing,
)
from topfan import linalg
from topfan.complexes import SimplicialComplex
from topfan.fans import Ray, TopologicalFan
from tests.chart_oracle import (
    dual_basis,
    inverse,
    is_laurent,
    laurent_exponents,
    mat_mul,
    orientation_sign,
    rank,
)
from tests.cone_oracle import extreme_rays_nonneg_kernel, independent_rows
from tests.equivalence_oracle import is_homeo_scalar
from tests.rref_oracle import sparse_rows

import pytest


def as_matrix(x):
    """The ring element as its matrix [[b, 0], [c, v]]."""
    return [[x.b, Fraction(0)], [x.c, Fraction(x.v)]]


def mat_oracle_mul(x, y):
    """2x2 rational matrix product, kept independent of RElem.__mul__."""
    a, b = as_matrix(x), as_matrix(y)
    return [
        [a[0][0] * b[0][0] + a[0][1] * b[1][0], a[0][0] * b[0][1] + a[0][1] * b[1][1]],
        [a[1][0] * b[0][0] + a[1][1] * b[1][0], a[1][0] * b[0][1] + a[1][1] * b[1][1]],
    ]


def random_elem(rng):
    return RElem(
        Fraction(rng.randint(-9, 9), rng.randint(1, 5)),
        Fraction(rng.randint(-9, 9), rng.randint(1, 5)),
        rng.randint(-4, 4),
    )


def test_product_matches_matrix_oracle_bulk():
    rng = random.Random(42)
    for _ in range(10_000):
        x, y = random_elem(rng), random_elem(rng)
        assert as_matrix(x * y) == mat_oracle_mul(x, y)


def test_ring_axioms_bulk():
    rng = random.Random(7)
    for _ in range(10_000):
        x, y, z = (random_elem(rng) for _ in range(3))
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z
        assert (x + y) * z == x * z + y * z


def test_identity_and_zero():
    assert MU0 * MU0 == ONE
    m = RElem(Fraction(5, 3), Fraction(-2), 7)
    assert m * ONE == m
    assert ONE * m == m
    assert m * ZERO == ZERO
    assert m + ZERO == m


def test_worked_product():
    assert RElem(1, 2, 3) * RElem(2, 0, 1) == RElem(2, 4, 3)


def test_mu0_right_multiplication_flips_v_only():
    m = RElem(Fraction(3, 2), Fraction(7), -2)
    assert m * MU0 == RElem(Fraction(3, 2), Fraction(7), 2)
    # left multiplication is conjugation
    assert MU0 * m == m.conjugate()


def test_conjugate_involution():
    rng = random.Random(3)
    for _ in range(100):
        m = random_elem(rng)
        assert m.conjugate().conjugate() == m


def test_homeo_scalar_predicate():
    assert is_homeo_scalar(MU0)
    assert not is_homeo_scalar(RElem(0, 0, 1))
    assert is_homeo_scalar(RElem(Fraction(1, 2), 7, 1))
    assert not is_homeo_scalar(RElem(1, 0, 2))


def test_laurent_exponents():
    m = RElem(0, 0, -2)
    assert is_laurent(m) and laurent_exponents(m) == (-1, 1)
    assert not is_laurent(RElem(Fraction(1, 2), 0, 0))
    assert not is_laurent(RElem(1, 1, 1))
    assert laurent_exponents(RElem(3, 0, 1)) == (2, 1)


def test_algebraic_subring_closed():
    # elements with b = v integral and c = 0 stay in that set under products
    rng = random.Random(11)
    for _ in range(500):
        v1, v2 = rng.randint(-5, 5), rng.randint(-5, 5)
        x, y = RElem(v1, 0, v1), RElem(v2, 0, v2)
        p = x * y
        assert p.c == 0 and p.b == p.v


def test_serialization_roundtrip():
    m = RElem(Fraction(-3, 4), Fraction(5, 7), -2)
    assert RElem.from_json(m.to_json()) == m


def _unit(n, k):
    """The ring vector with ONE in slot k (0-based) and ZERO elsewhere."""
    return tuple(ONE if i == k else ZERO for i in range(n))


def _rvec(b, c, v):
    """The ring vector with entries RElem(b_k, c_k, v_k)."""
    return tuple(RElem(Fraction(bb), Fraction(cc), int(vv)) for bb, cc, vv in zip(b, c, v))


def test_pairing_standard_basis():
    for n in (1, 2, 4):
        for i in range(n):
            alpha = _unit(n, i)
            beta = _unit(n, i)
            assert pairing(alpha, beta) == ONE


def test_pairing_length_mismatch():
    with pytest.raises(ValueError):
        pairing(_unit(2, 0), _unit(3, 0))


def _sparse_entry(rng):
    """A ring entry whose b, c and v are each zero or not by a random mask of the three.

    So some entries are zero in just one or two of the parts (``RElem(0, c, 0)``
    and ``RElem(0, c, v)`` are not zero and must be paired), and some in all three.
    """
    mask = rng.randrange(8)
    b = Fraction(rng.choice([-3, -1, 1, 2, 5]), rng.randint(1, 4)) if mask & 1 else Fraction(0)
    c = Fraction(rng.choice([-2, -1, 1, 3]), rng.randint(1, 4)) if mask & 2 else Fraction(0)
    v = rng.choice([-2, -1, 1, 3]) if mask & 4 else 0
    return RElem(b, c, v)


def _sparse_vector(rng, n):
    if rng.random() < 0.15:
        return (ZERO,) * n
    return tuple(_sparse_entry(rng) for _ in range(n))


def _dense_pairing_matrix(alpha, beta):
    """sum_k alpha^k * beta^k as a 2x2 matrix, every term multiplied and added."""
    total = [[Fraction(0), Fraction(0)], [Fraction(0), Fraction(0)]]
    for a, b in zip(alpha, beta):
        term = mat_oracle_mul(a, b)
        total = [[x + y for x, y in zip(r, t)] for r, t in zip(total, term)]
    return total


def test_sparse_pairing_matches_the_dense_sum_on_seeded_sparse_vectors():
    rng = random.Random(2024)
    zero_parts = set()
    for _ in range(3000):
        n = rng.randint(0, 5)
        alpha, beta = _sparse_vector(rng, n), _sparse_vector(rng, n)
        zero_parts.update(tuple(x == 0 for x in (e.b, e.c, e.v)) for e in alpha + beta)
        assert as_matrix(pairing(alpha, beta)) == _dense_pairing_matrix(alpha, beta)
    assert len(zero_parts) == 8  # every pattern of zero parts was paired


def test_an_all_zero_pairing_is_zero_and_serializes_as_zero():
    rng = random.Random(5)
    alpha = _sparse_vector(rng, 3)
    for pair in [((), ()), ((ZERO,) * 3, alpha), (alpha, (ZERO,) * 3),
                 ((RElem(Fraction(0), Fraction(0), 0),) * 2, (ONE, MU0))]:
        total = pairing(*pair)
        assert total == ZERO
        assert total.to_json() == [0, 1, 0, 1, 0]


# vectors of the four-gon example used throughout: (b, v) columns
_EX_BETAS = {
    1: _rvec((1, 0), (0, 0), (1, 0)),
    2: _rvec((0, 1), (0, 0), (0, 1)),
    3: _rvec((-1, 0), (0, 0), (-1, -2)),
    4: _rvec((-1, -1), (0, 0), (-1, -1)),
}


def test_pairing_published_values():
    duals_23 = dual_basis({2: _EX_BETAS[2], 3: _EX_BETAS[3]})
    alpha2 = duals_23[2]
    assert alpha2 == _rvec((0, 1), (0, 0), (-2, 1))
    assert pairing(duals_23[2], _EX_BETAS[3]) == ZERO
    duals_12 = dual_basis({1: _EX_BETAS[1], 2: _EX_BETAS[2]})
    assert pairing(duals_12[1], _EX_BETAS[1]) == ONE


def test_dual_basis_identity_blocks():
    betas = {i: _unit(3, i) for i in range(3)}
    duals = dual_basis(betas)
    for i in range(3):
        assert duals[i] == _unit(3, i)


def test_dual_basis_published_table():
    expected = {
        (3, 4): {3: ((-1, 1), (1, -1)), 4: ((0, -1), (-2, 1))},
        (4, 1): {4: ((0, -1), (0, -1)), 1: ((1, -1), (1, -1))},
    }
    for facet, alphas in expected.items():
        duals = dual_basis({i: _EX_BETAS[i] for i in facet})
        for i, (b, v) in alphas.items():
            assert duals[i] == _rvec(b, (0, 0), v)


def test_dual_basis_error_kinds():
    degenerate_b = {
        1: _rvec((1, 0), (0, 0), (1, 0)),
        2: _rvec((2, 0), (0, 0), (0, 1)),
    }
    with pytest.raises(BSingularError):
        dual_basis(degenerate_b)
    bad_v = {
        1: _rvec((1, 0), (0, 0), (1, 0)),
        2: _rvec((0, 1), (0, 0), (0, 2)),
    }
    with pytest.raises(VNotUnimodularError):
        dual_basis(bad_v)


def test_fan_dual_basis_reports_each_bad_block():
    """A bad block of a facet raises its own error kind from ``TopologicalFan.dual_basis``,
    and the facet's cached adjugate records keep both determinants readable."""
    complex_ = SimplicialComplex(2, [(1, 2)])
    degenerate_b = TopologicalFan(2, complex_, [Ray.from_parts((1, 0), v=(1, 0)),
                                                Ray.from_parts((2, 0), v=(0, 1))])
    with pytest.raises(BSingularError):
        degenerate_b.dual_basis((1, 2))
    assert degenerate_b._adjugate("b", (1, 2))[0] == 0
    assert degenerate_b._adjugate("v", (1, 2))[0] == 1
    bad_v = TopologicalFan(2, complex_, [Ray.from_parts((1, 0), v=(1, -1)),
                                         Ray.from_parts((0, 1), v=(1, 1))])
    with pytest.raises(VNotUnimodularError):
        bad_v.dual_basis((1, 2))
    assert bad_v._adjugate("v", (1, 2))[0] == 2
    assert bad_v._adjugate("b", (1, 2))[0] == 1


def test_inverse_returns_the_determinant():
    rng = random.Random(23)
    for _ in range(200):
        n = rng.randint(0, 4)
        rows = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
        inv, det = inverse(rows)
        assert det == linalg.int_det(rows)
        if det == 0:
            assert inv is None
        else:
            identity = [[int(i == j) for j in range(n)] for i in range(n)]
            assert mat_mul(rows, inv) == identity


def test_independent_rows_agrees_with_rank():
    """Fraction-free independence against the row-reduction rank, on 1-8
    integer vectors in Z^1..Z^6, more vectors than coordinates included.
    ``rank`` is the dense reference's pivot count, and ``linalg.rref``'s
    pivot count on the same rows is the rank validation reads for a facet of
    any size but n."""
    rng = random.Random(29)
    for _ in range(2000):
        n, k = rng.randint(1, 6), rng.randint(1, 8)
        rows = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(k)]
        chosen, pivots = independent_rows(rows)
        assert len(chosen) == len(pivots) == rank(rows), rows
        assert len(pivots) == len(linalg.rref(sparse_rows(rows))[1]), rows
        # the kept rows on the pivot columns form a nonsingular block
        assert linalg.int_det([[rows[i][p] for p in pivots] for i in chosen]) != 0


def test_nonneg_solution_agrees_with_extreme_rays():
    """Phase I against the enumeration: A x = b has a solution x >= 0 exactly
    when some extreme ray of {u >= 0 : [A | -b] u = 0} has a positive last
    entry.  1-4 rows and 1-6 columns, degenerate right-hand sides included."""
    rng = random.Random(31)
    verdicts = set()
    for _ in range(600):
        k, n = rng.randint(1, 4), rng.randint(1, 6)
        rows = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(k)]
        rhs = [rng.choice([0, 0, 1, 2]) for _ in range(k)]
        x = linalg.nonneg_solution(rows, rhs)
        augmented = [row + [-b] for row, b in zip(rows, rhs)]
        expected = any(u[-1] > 0 for u in extreme_rays_nonneg_kernel(augmented))
        assert (x is not None) == expected, (rows, rhs)
        if x is not None:
            assert all(type(a) is Fraction and a >= 0 for a in x)
            assert [sum(a * b for a, b in zip(row, x)) for row in rows] == rhs
        verdicts.add(expected)
    assert verdicts == {True, False}


def _random_unimodular(rng, n):
    mat = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(3 * n):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        f = rng.randint(-2, 2)
        for k in range(n):
            mat[i][k] += f * mat[j][k]
    return mat


def test_dual_basis_property_random():
    rng = random.Random(19)
    for _ in range(150):
        n = rng.randint(1, 4)
        v = _random_unimodular(rng, n)
        while True:
            b = [[Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(n)]
                 for _ in range(n)]
            if inverse(b)[1] != 0:
                break
        c = [[Fraction(rng.randint(-3, 3)) for _ in range(n)] for _ in range(n)]
        betas = {
            i: _rvec([b[k][i] for k in range(n)],
                     [c[k][i] for k in range(n)],
                     [v[k][i] for k in range(n)])
            for i in range(n)
        }
        duals = dual_basis(betas)
        for i in range(n):
            for j in range(n):
                assert pairing(duals[i], betas[j]) == (ONE if i == j else ZERO)


@settings(max_examples=200, deadline=None)
@given(
    st.integers(-30, 30), st.integers(1, 9), st.integers(-30, 30), st.integers(1, 9),
    st.integers(-5, 5), st.integers(-30, 30), st.integers(1, 9), st.integers(-30, 30),
    st.integers(1, 9), st.integers(-5, 5),
)
def test_product_matches_oracle_hypothesis(bn1, bd1, cn1, cd1, v1, bn2, bd2, cn2, cd2, v2):
    x = RElem(Fraction(bn1, bd1), Fraction(cn1, cd1), v1)
    y = RElem(Fraction(bn2, bd2), Fraction(cn2, cd2), v2)
    assert as_matrix(x * y) == mat_oracle_mul(x, y)


def test_integer_and_fraction_parts_give_one_element():
    ints, fractions = RElem(1, 0, 1), RElem(Fraction(1), Fraction(0), 1)
    assert ints == fractions and hash(ints) == hash(fractions)
    assert json.dumps(ints.to_json()) == json.dumps(fractions.to_json())


def test_orientation_sign_examples():
    std = [_unit(2, 0), _unit(2, 1)]
    assert orientation_sign(std) == 1
    assert orientation_sign([_EX_BETAS[3], _EX_BETAS[4]]) == -1
    assert orientation_sign([_EX_BETAS[1], _EX_BETAS[2]]) == 1
    # invariant under reordering: both block determinants flip together
    assert orientation_sign([_EX_BETAS[4], _EX_BETAS[3]]) == -1


def test_orientation_sign_matches_dual():
    betas = {i: _EX_BETAS[i] for i in (3, 4)}
    duals = dual_basis(betas)
    assert orientation_sign(betas.values()) == orientation_sign(duals.values())


def test_orientation_sign_singular():
    with pytest.raises(ValueError):
        orientation_sign([_EX_BETAS[1], _EX_BETAS[1]])
