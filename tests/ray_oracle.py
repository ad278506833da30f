"""The ray as tuples of ``Fraction``, used only by tests.

``topfan.rays.Ray`` stores b and c as integer numerators over one positive
denominator in lowest terms, and the cone tests, the chart tables and the
``h`` orbit keys read that form.  This module keeps the rational version:
``FractionRay`` holds one ``Fraction`` per entry and multiplies in
``Fraction``s, ``int_b_column`` and ``scaled_rvecs`` clear the denominators
of those ``Fraction``s, and ``h_key`` is the h-canonical ray reached by the
rational normalizer.  The integer form must give the same values.
"""

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from topfan import linalg
from topfan.ring import RElem


@dataclass(frozen=True)
class FractionRay:
    b: tuple
    c: tuple
    v: tuple

    @staticmethod
    def of(b, c, v):
        return FractionRay(tuple(map(Fraction, b)), tuple(map(Fraction, c)), tuple(v))

    def right_mul(self, mu: RElem) -> "FractionRay":
        return FractionRay(tuple(b * mu.b for b in self.b),
                           tuple(c * mu.b + v * mu.c for c, v in zip(self.c, self.v)),
                           tuple(v * mu.v for v in self.v))

    def to_json(self):
        return {"b": [str(x) for x in self.b], "c": [str(x) for x in self.c],
                "v": list(self.v)}


def int_b_column(ray):
    """b cleared of denominators and divided by its gcd: a primitive integer vector."""
    return tuple(linalg.clear_denominators(ray.b))


def scaled_rvecs(rays):
    """``(q, rays)``: q the lcm of every b and c denominator, each ray times (q, 0, 1)."""
    q = lcm(*(x.denominator for r in rays for x in r.b + r.c))
    return q, tuple(tuple(RElem(int(q * b), int(q * c), v) for b, c, v in zip(r.b, r.c, r.v))
                    for r in rays)


def h_normalizer(ray) -> RElem:
    """(s, t, eps): s = 1 / |b|_1, t = -s (c.v) / (v.v), eps the sign of v's first nonzero."""
    s = 1 / sum(abs(x) for x in ray.b)
    t = -s * sum(c * v for c, v in zip(ray.c, ray.v)) / sum(v * v for v in ray.v)
    eps = 1 if next(x for x in ray.v if x != 0) > 0 else -1
    return RElem(s, t, eps)


def h_key(ray) -> FractionRay:
    """The h-canonical ray: the ray times its normalizer."""
    return ray.right_mul(h_normalizer(ray))
