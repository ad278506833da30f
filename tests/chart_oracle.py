"""Cubic reference for the chart layer, used only by tests.

``topfan.charts`` slices every transition out of one cached table per facet
and certifies the cocycle facet by facet, and ``TopologicalFan._scaled_dual``
reads each facet's integer-scaled dual basis off its integer adjugates.
This module recomputes the same data from the definitions instead: the dual basis by a
rational Gauss–Jordan block inverse (``inverse``), each of the F^2
transitions from it and ``pairing``, and the identities by composing all
F^2 pairs and F^3 triples of transition matrices over the ring.  ``rank``
reads a rational matrix's rank off the dense reference ``dense_rref``, for
the tests of other layers, ``laurent_exponents`` reads a transition
entry as a monomial in g and conj(g), and ``rational_dot`` sums a dot
product of ints and ``Fraction``s over one running denominator.
"""

from fractions import Fraction

from topfan.charts import TransitionMatrix
from topfan.ring import (
    ONE,
    ZERO,
    BSingularError,
    RElem,
    VNotUnimodularError,
    pairing,
)
from tests.rref_oracle import dense_rref


def transpose(rows):
    return [list(col) for col in zip(*rows)]


def mat_mul(a, b):
    bt = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in bt] for row in a]


def mat_vec(a, x):
    return [sum(r * v for r, v in zip(row, x)) for row in a]


def inverse(rows):
    """Inverse and determinant of a square rational matrix, from one Gauss–Jordan pass.

    Returns ``(inverse, det)``; the inverse is None when the matrix is
    singular, and its determinant is 0 then.
    """
    n = len(rows)
    m = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(rows)]
    det = Fraction(1)
    for col in range(n):
        pivot_row = next((i for i in range(col, n) if m[i][col] != 0), None)
        if pivot_row is None:
            return None, Fraction(0)
        if pivot_row != col:
            m[col], m[pivot_row] = m[pivot_row], m[col]
            det = -det
        pivot = m[col][col]
        det *= pivot
        m[col] = [x / pivot for x in m[col]]
        for i in range(n):
            f = m[i][col]
            if i != col and f != 0:
                m[i] = [a - f * b for a, b in zip(m[i], m[col])]
    return [row[n:] for row in m], det


def rank(rows):
    return len(dense_rref(rows)[1])


def solve_unique_columns(cols, target):
    """Solve ``sum_i x_i * cols[i] = target`` by a fresh row reduction.

    Returns the coefficient list, or None when the system is inconsistent.
    Raises ValueError if the columns are dependent (solution not unique).
    """
    ncols = len(cols)
    aug = [[Fraction(cols[j][i]) for j in range(ncols)] + [Fraction(target[i])]
           for i in range(len(target))]
    red, pivots = dense_rref(aug)
    if ncols in pivots:
        return None
    if pivots != list(range(ncols)):
        raise ValueError("columns are linearly dependent")
    return [red[i][ncols] for i in range(ncols)]


def blocks(betas):
    """The B, C and V blocks of n ring vectors written columnwise, in sorted index order."""
    columns = [betas[i] for i in sorted(betas)]
    coords = range(len(columns))
    return ([[col[k].b for col in columns] for k in coords],
            [[col[k].c for col in columns] for k in coords],
            [[col[k].v for col in columns] for k in coords])


def dual_basis(betas):
    """``{i: alpha_i}`` with pairing(alpha_i, beta_j) = delta_ij, by the block inverse.

    With the rays columnwise as [[B, 0], [C, V]], the alphas are the rows of
    [[B^-1, 0], [-V^-1 C B^-1, V^-1]]; B must be invertible over Q and V
    over Z.
    """
    indices = sorted(betas)
    b, c, v = blocks(betas)
    b_inv, _ = inverse(b)
    if b_inv is None:
        raise BSingularError(f"real parts of rays {tuple(indices)} are linearly dependent")
    v_inv, v_det = inverse(v)
    if abs(v_det) != 1:
        raise VNotUnimodularError(f"winding parts of rays {tuple(indices)} have determinant "
                                  f"{v_det}, not a Z-basis")
    c_block = mat_mul(mat_mul(v_inv, c), b_inv)
    return {
        i: tuple(RElem(bb, -cc, int(vv)) for bb, cc, vv in zip(b_row, c_row, v_row))
        for i, b_row, c_row, v_row in zip(indices, b_inv, c_block, v_inv)
    }


def orientation_sign(betas):
    """Sign of the 2n x 2n real determinant of the given rays, det(B) * det(V)."""
    b, _, v = blocks(dict(enumerate(betas)))
    product = inverse(b)[1] * inverse(v)[1]
    if product == 0:
        raise ValueError("singular input: rays do not span")
    return 1 if product > 0 else -1


def kernel_residual(fan, pres, k):
    """sum_j ray_j * E_j for generator k; the zero vector certifies membership."""
    out = []
    for coord in range(fan.n):
        total = ZERO
        for j, exp in pres.generators[k].items():
            total = total + fan.rvec(j)[coord] * exp
        out.append(total)
    return out


def top_facets(fan):
    return [f for f in fan.complex.facets if len(f) == fan.n]


def reference_transition(fan, source, target) -> TransitionMatrix:
    """D_J·R_I entry by entry, without any cache of the fan."""
    duals = dual_basis({j: fan.ray(j).rvec() for j in target})
    entries = {(j, i): pairing(duals[j], fan.ray(i).rvec()) for j in target for i in source}
    return TransitionMatrix(tuple(source), tuple(target), entries)


def compose(second: TransitionMatrix, first: TransitionMatrix) -> dict:
    """Matrix product over the ring; models composing the monomial maps."""
    if second.source != first.target:
        raise ValueError("matrices do not compose")
    out = {}
    for k in second.target:
        for i in first.source:
            total = ZERO
            for j in first.target:
                total = total + second.entry(k, j) * first.entry(j, i)
            out[(k, i)] = total
    return out


def is_identity(product) -> bool:
    return all(mu == (ONE if i == j else ZERO) for (j, i), mu in product.items())


def cocycle_failure(fan):
    """The first pair or triple whose identity fails, or None: the F^3 definition."""
    facets = top_facets(fan)
    mats = {(s, t): reference_transition(fan, s, t) for s in facets for t in facets}
    for fi in facets:
        for fj in facets:
            if not is_identity(compose(mats[(fj, fi)], mats[(fi, fj)])):
                return ("inverse", fi, fj)
    for fi in facets:
        for fj in facets:
            for fk in facets:
                if compose(mats[(fj, fk)], mats[(fi, fj)]) != mats[(fi, fk)].entries:
                    return ("triple", fi, fj, fk)
    return None


def is_laurent(mu) -> bool:
    """True when g^mu is a Laurent monomial in g and conj(g)."""
    return mu.c == 0 and mu.b.denominator == 1 and (mu.b.numerator - mu.v) % 2 == 0


def laurent_exponents(mu):
    """Exponents (p, q) with g^mu = g^p conj(g)^q, or None."""
    if not is_laurent(mu):
        return None
    b = mu.b.numerator
    return ((b + mu.v) // 2, (b - mu.v) // 2)


def conjugation_equivariant(fan) -> bool:
    """Every entry of every F^2 transition has zero c-part."""
    facets = top_facets(fan)
    return all(
        mu.c == 0
        for s in facets
        for t in facets
        for mu in reference_transition(fan, s, t).entries.values()
    )


def rational_dot(a, b):
    """The dot product of two vectors of ints and ``Fraction``s, as one ``Fraction``.

    Equals ``sum(map(mul, a, b))``, but the numerator products are summed
    as plain ints over one running denominator, which grows only by a
    term's denominator that does not already divide it, and the ``Fraction``
    is built (and reduced) once at the end instead of once per term.
    """
    num, den = 0, 1
    for x, y in zip(a, b):
        term = x.numerator * y.numerator
        if term:
            d = x.denominator * y.denominator
            if den % d:
                num = num * d + term * den
                den *= d
            else:
                num += term * (den // d)
    return Fraction(num, den)
