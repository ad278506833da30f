"""Arithmetic in the ring of smooth endomorphisms of the punctured plane.

A smooth group endomorphism ``g -> |g|^(b+ic) * (g/|g|)^v`` of ``C*`` is
encoded by the lower-triangular 2x2 matrix ``[[b, 0], [c, v]]`` with ``b, c``
rational and ``v`` an integer.  Addition is pointwise multiplication of
endomorphisms (matrix sum); multiplication is composition (matrix product),
which is not commutative, so the factor order in every product below matters.

A vector over the ring is a plain tuple of ``RElem``, one entry per ambient
coordinate; the module provides the exponent pairing of two such vectors,
which skips every term with a zero factor (``b``, ``c`` and ``v`` all 0).  A
facet's dual basis, the block inverse of its rays, is built by
``TopologicalFan._scaled_dual`` from the facet's integer adjugates, scaled by
an integer so that every entry is integral; the exceptions below name its
two failure modes.

Every chart-table entry is one ``pairing`` of such integer ring vectors,
the scaled dual with the ray scaled by ``(q, 0, 1)``, after which the
common scale is divided out once.  Elements with integer ``b`` and ``c``
multiply as ints, so no ``Fraction`` is built inside the pairing.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction


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

    def conjugate(self) -> "RElem":
        """Complex conjugate endomorphism: (b, -c, -v)."""
        return RElem(self.b, -self.c, -self.v)

    def is_zero(self) -> bool:
        return self.b == 0 and self.c == 0 and self.v == 0

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


def pairing(alpha, beta) -> RElem:
    """Exponent pairing sum_k alpha^k * beta^k of two ring vectors (alpha factors on the left).

    A term with a zero factor is zero and is skipped; a factor is zero only
    when its b, c and v all are, so ``RElem(0, c, 0)`` with c != 0 is paired.
    The other terms are multiplied and added in the ring, in order.  With
    no term left the result is ``ZERO``.
    """
    if len(alpha) != len(beta):
        raise ValueError("length mismatch")
    total = ZERO
    for a, b in zip(alpha, beta):
        if (a.b or a.c or a.v) and (b.b or b.c or b.v):
            total = total + a * b
    return total
