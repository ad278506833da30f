"""Arithmetic in the ring of smooth endomorphisms of the punctured plane.

A smooth group endomorphism ``g -> |g|^(b+ic) * (g/|g|)^v`` of ``C*`` is
encoded by the lower-triangular 2x2 matrix ``[[b, 0], [c, v]]`` with ``b, c``
rational and ``v`` an integer.  Addition is pointwise multiplication of
endomorphisms (matrix sum); multiplication is composition (matrix product),
which is not commutative, so the factor order in every product below matters.

The module also provides vectors over this ring, the exponent pairing, dual
bases (the block-inverse construction), and the orientation determinant used
for omniorientation weights.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from typing import Iterable, Mapping

from . import linalg


class BSingularError(ValueError):
    """The real parts of the given rays do not form a basis."""


class VNotUnimodularError(ValueError):
    """The winding parts of the given rays do not form a Z-basis."""


@dataclass(frozen=True)
class RElem:
    """One ring element ``(b, c, v)``, i.e. the matrix ``[[b, 0], [c, v]]``."""

    b: Fraction
    c: Fraction
    v: int

    def __mul__(self, other: "RElem") -> "RElem":
        # Matrix product self . other; composition (g^other)^self = g^(self*other).
        return RElem(
            self.b * other.b,
            self.c * other.b + self.v * other.c,
            self.v * other.v,
        )

    def __add__(self, other: "RElem") -> "RElem":
        return RElem(self.b + other.b, self.c + other.c, self.v + other.v)

    def __neg__(self) -> "RElem":
        return RElem(-self.b, -self.c, -self.v)

    def __sub__(self, other: "RElem") -> "RElem":
        return self + (-other)

    def conjugate(self) -> "RElem":
        """Complex conjugate endomorphism: (b, -c, -v)."""
        return RElem(self.b, -self.c, -self.v)

    def is_zero(self) -> bool:
        return self.b == 0 and self.c == 0 and self.v == 0

    def is_homeo_scalar(self) -> bool:
        """True when the endomorphism extends to a homeomorphism of C.

        That is b > 0 and v = +-1; these are exactly the scalars allowed in
        the per-ray matching of H-equivalence.
        """
        return self.b > 0 and self.v in (1, -1)

    def is_laurent(self) -> bool:
        """True when g^mu is a Laurent monomial in g and conj(g)."""
        return self.c == 0 and self.b.denominator == 1 and (self.b.numerator - self.v) % 2 == 0

    def laurent_exponents(self):
        """Exponents (p, q) with g^mu = g^p conj(g)^q, or None."""
        if not self.is_laurent():
            return None
        b = self.b.numerator
        return ((b + self.v) // 2, (b - self.v) // 2)

    def as_matrix(self):
        return [[self.b, Fraction(0)], [self.c, Fraction(self.v)]]

    def to_json(self):
        return [self.b.numerator, self.b.denominator, self.c.numerator, self.c.denominator, self.v]

    @staticmethod
    def from_json(data) -> "RElem":
        bn, bd, cn, cd, v = data
        return RElem(Fraction(bn, bd), Fraction(cn, cd), v)

    def __repr__(self):
        return f"RElem({self.b}, {self.c}, {self.v})"


ONE = RElem(1, 0, 1)
ZERO = RElem(0, 0, 0)
MU0 = RElem(1, 0, -1)  # right-multiplication flips v; corresponds to conjugating the dual chart


@dataclass(frozen=True)
class RVec:
    """A vector over the ring; one entry per ambient coordinate."""

    entries: tuple[RElem, ...]

    def __post_init__(self):
        object.__setattr__(self, "entries", tuple(self.entries))

    def __len__(self):
        return len(self.entries)

    def __getitem__(self, k) -> RElem:
        return self.entries[k]

    def __iter__(self):
        return iter(self.entries)

    def __add__(self, other: "RVec") -> "RVec":
        if len(self) != len(other):
            raise ValueError("length mismatch")
        return RVec(tuple(a + b for a, b in zip(self.entries, other.entries)))

    def right_mul(self, mu: RElem) -> "RVec":
        """Componentwise beta^k * mu (scalar acting on the source side)."""
        return RVec(tuple(e * mu for e in self.entries))

    def conjugate(self) -> "RVec":
        return RVec(tuple(e.conjugate() for e in self.entries))

    def b_part(self):
        return [e.b for e in self.entries]

    def c_part(self):
        return [e.c for e in self.entries]

    def v_part(self):
        return [e.v for e in self.entries]

    def to_json(self):
        return [e.to_json() for e in self.entries]

    @staticmethod
    def from_json(data) -> "RVec":
        return RVec(tuple(RElem.from_json(e) for e in data))

    @staticmethod
    def from_parts(b, c, v) -> "RVec":
        return RVec(tuple(RElem(Fraction(bb), Fraction(cc), int(vv)) for bb, cc, vv in zip(b, c, v)))


def standard_basis_rvec(n, k) -> RVec:
    """The vector with the ring identity in slot ``k`` (0-based) and zeros elsewhere."""
    return RVec(tuple(ONE if i == k else ZERO for i in range(n)))


def pairing(alpha: RVec, beta: RVec) -> RElem:
    """Exponent pairing sum_k alpha^k * beta^k (alpha factors on the left)."""
    if len(alpha) != len(beta):
        raise ValueError("length mismatch")
    total = ZERO
    for a, b in zip(alpha, beta):
        total = total + a * b
    return total


class DualBasis:
    """The block inverse of n ring vectors, from one elimination of each block.

    Writing the rays columnwise as the block matrix [[B, 0], [C, V]], one
    ``linalg.inverse`` call per block gives ``b_inv`` and ``b_det``, ``v_inv``
    and ``v_det`` (an inverse is None when its block is singular).  ``sign``
    is the sign of det(B) * det(V), the orientation sign of the rays, and 0
    when a block is singular.  The dual vectors ``alphas``, with
    pairing(alpha_i, beta_j) = delta_ij * ONE, are the rows of
    [[B^-1, 0], [-V^-1 C B^-1, V^-1]].  They are built on first read, which
    requires B invertible over Q and V invertible over Z; the two failure
    modes are reported distinctly because they correspond to defects in
    different parts of the fan data.  A fan builds one per facet only for its
    chart tables, which read ``alphas``; its wall, cone, regularity and
    orientation tests use integer wall normals and determinants instead.
    """

    def __init__(self, betas: Mapping[int, RVec]):
        self.indices = indices = tuple(sorted(betas))
        n = len(indices)
        for i in indices:
            if len(betas[i]) != n:
                raise ValueError("each vector must have length equal to the number of vectors")
        columns = [betas[i] for i in indices]
        self._c = [[col[k].c for col in columns] for k in range(n)]
        self.b_inv, self.b_det = linalg.inverse([[col[k].b for col in columns] for k in range(n)])
        self.v_inv, self.v_det = linalg.inverse([[col[k].v for col in columns] for k in range(n)])
        product = self.b_det * self.v_det
        self.sign = (product > 0) - (product < 0)

    @cached_property
    def alphas(self) -> tuple[RVec, ...]:
        if self.b_inv is None:
            raise BSingularError(f"real parts of rays {self.indices} are linearly dependent")
        if abs(self.v_det) != 1:
            raise VNotUnimodularError(
                f"winding parts of rays {self.indices} have determinant {self.v_det}, "
                "not a Z-basis"
            )
        c_block = linalg.mat_mul(linalg.mat_mul(self.v_inv, self._c), self.b_inv)
        return tuple(
            RVec(tuple(RElem(b, -c, int(v)) for b, c, v in zip(b_row, c_row, v_row)))
            for b_row, c_row, v_row in zip(self.b_inv, c_block, self.v_inv)
        )

    def __getitem__(self, index) -> RVec:
        return self.alphas[self.indices.index(index)]

    def items(self):
        return zip(self.indices, self.alphas)


def dual_basis(betas: Mapping[int, RVec]) -> DualBasis:
    """The dual set of n ring vectors; raises BSingularError or VNotUnimodularError.

    See ``DualBasis`` for the construction.
    """
    duals = DualBasis(betas)
    duals.alphas  # raises when a block is bad
    return duals


def orientation_sign(betas: Iterable[RVec]) -> int:
    """Sign of the 2n x 2n real determinant assembled from the given rays.

    In block form the determinant is det(B) * det(V); it is invariant under
    reordering the rays, since a swap flips both block determinants.
    """
    sign = DualBasis(dict(enumerate(betas))).sign
    if sign == 0:
        raise ValueError("singular input: rays do not span")
    return sign
