"""One ray of a topological fan, stored in integers.

A ray beta = (b + i c, v) has b nonzero rational, c rational and v a
primitive integer vector (one entry per coordinate of R^n).  Each rational
part is kept as integer numerators over one positive denominator, in lowest
terms, so equal vectors have equal stored forms; the ``Fraction`` tuples of
the Python API are built from it on first read.  JSON rays are parsed
straight into that form (``Ray.from_json``).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from . import linalg
from .ring import RElem


class Ray:
    """One ray (b, c, v); b nonzero rational, v primitive integral.

    b and c are stored as integers: each part is ``(numerators,
    denominator)``, one positive denominator in lowest terms (``b_int``,
    ``c_int``), which the cone tests, the chart tables and the orbit keys
    read.  ``b`` and ``c`` are the parts as tuples of ``Fraction``, built on
    first read and kept; a ray constructed from tuples of ``Fraction``s keeps
    those.  Equality and hashing are those of the rational vectors.
    """

    __slots__ = ("_b_int", "_c_int", "_v", "_b", "_c")

    def __init__(self, b, c, v):
        self._b, self._b_int = _rational_part(b)
        self._c, self._c_int = _rational_part(c)
        if type(v) is not tuple or any(type(x) is not int for x in v):
            given = tuple(v)
            v = tuple(map(int, given))
            if v != given:
                raise ValueError(f"v = {given} is not integral")
        self._v = v
        self._check()

    @classmethod
    def _from_ints(cls, b_int, c_int, v) -> "Ray":
        """The ray with ``b = b_int[0] / b_int[1]``, c likewise, and the tuple of ints v.

        Each part is integer numerators over one positive denominator; it is
        reduced to lowest terms here.
        """
        ray = cls.__new__(cls)
        ray._b_int, ray._c_int = lowest_terms(*b_int), lowest_terms(*c_int)
        ray._v, ray._b, ray._c = v, None, None
        ray._check()
        return ray

    def _check(self):
        if not (len(self._b_int[0]) == len(self._c_int[0]) == len(self._v)):
            raise ValueError("b, c, v must have equal lengths")
        if not any(self._b_int[0]):
            raise ValueError("b must be nonzero")
        if gcd(*self._v) != 1:
            raise ValueError(f"v = {self._v} is not primitive")

    @property
    def b(self) -> tuple[Fraction, ...]:
        if self._b is None:
            self._b = _fractions(*self._b_int)
        return self._b

    @property
    def c(self) -> tuple[Fraction, ...]:
        if self._c is None:
            self._c = _fractions(*self._c_int)
        return self._c

    @property
    def v(self) -> tuple[int, ...]:
        return self._v

    @property
    def b_int(self):
        """``(numerators, denominator)`` of b in lowest terms."""
        return self._b_int

    @property
    def c_int(self):
        """``(numerators, denominator)`` of c in lowest terms."""
        return self._c_int

    @property
    def n(self):
        return len(self._v)

    def __eq__(self, other):
        if type(other) is not Ray:
            return NotImplemented
        return (self._v == other._v and self._b_int == other._b_int
                and self._c_int == other._c_int)

    def __hash__(self):
        return hash((self._b_int, self._c_int, self._v))

    def __repr__(self):
        return f"Ray(b={self.b!r}, c={self.c!r}, v={self.v!r})"

    def rvec(self) -> tuple[RElem, ...]:
        """The ray as a ring vector: one ``RElem(b_k, c_k, v_k)`` per coordinate."""
        return tuple(map(RElem, self.b, self.c, self._v))

    def right_mul(self, mu: RElem) -> "Ray":
        """The ray with each coordinate's ring entry times mu on the right (``RElem.__mul__``).

        mu's b and c are rational and its v an integer: b' = b s, c' = c s + v t, v' = v e
        for mu = (s, t, e).
        """
        (bn, bd), (cn, cd), v = self._b_int, self._c_int, self._v
        s, t = Fraction(mu.b), Fraction(mu.c)
        sn, sd, tn, td = s.numerator, s.denominator, t.numerator, t.denominator
        return Ray._from_ints(([x * sn for x in bn], bd * sd),
                             ([x * sn * td + y * tn * cd * sd for x, y in zip(cn, v)],
                              cd * sd * td),
                             tuple(x * mu.v for x in v))

    def zero_extended(self, before, after) -> "Ray":
        """The ray with ``before`` zero coordinates ahead of its own and ``after`` behind."""
        head, tail = (0,) * before, (0,) * after
        (bn, bd), (cn, cd) = self._b_int, self._c_int
        return Ray._from_ints((head + bn + tail, bd), (head + cn + tail, cd),
                             head + self._v + tail)

    @staticmethod
    def sum_of(rays) -> "Ray":
        """The ray whose b, c and v are the sums of the given rays' (of one length)."""
        rays = list(rays)
        return Ray._from_ints(_sum_parts([r._b_int for r in rays]),
                             _sum_parts([r._c_int for r in rays]),
                             tuple(map(sum, zip(*(r._v for r in rays)))))

    def to_json(self):
        return {"b": _texts(*self._b_int), "c": _texts(*self._c_int), "v": list(self._v)}

    @staticmethod
    def from_json(data) -> "Ray":
        """The ray of a JSON object whose b, c and v are arrays; c may be absent (zero).

        b and c hold rationals (``linalg.parse_ratios``) and v integers.
        """
        if not isinstance(data, dict):
            raise ValueError(f"a ray must be a JSON object, not {data!r}")
        array = linalg.json_array
        b_int = linalg.parse_ratios(array(data["b"], "ray field b"))
        c_int = linalg.parse_ratios(array(data["c"], "ray field c")) if "c" in data else (
            [0] * len(b_int[0]), 1)
        v = tuple(linalg.parse_int(x, "v") for x in array(data["v"], "ray field v"))
        return Ray._from_ints(b_int, c_int, v)

    @staticmethod
    def from_parts(b, v=None) -> "Ray":
        b = tuple(Fraction(x) for x in b)
        return Ray(b, (0,) * len(b), b if v is None else v)


def _rational_part(values):
    """``(fractions, (numerators, denominator))`` of a rational vector, in lowest terms.

    A tuple of ints gives no ``fractions`` (None); a tuple of ``Fraction``s
    is kept as them; anything else is passed through ``Fraction`` entry by entry.
    """
    if type(values) is tuple:
        if all(type(x) is int for x in values):
            return None, (values, 1)
        if not all(type(x) is Fraction for x in values):
            values = tuple(map(Fraction, values))
    else:
        values = tuple(map(Fraction, values))
    den = lcm(*(x.denominator for x in values))
    if den == 1:
        return values, (tuple(x.numerator for x in values), 1)
    return values, (tuple(x.numerator * (den // x.denominator) for x in values), den)


def lowest_terms(nums, den):
    """Integer numerators over a positive denominator, divided by their common gcd."""
    g = gcd(den, *nums)
    if g == 1:
        return tuple(nums), den
    return tuple(x // g for x in nums), den // g


def _fractions(nums, den):
    if den == 1:
        return tuple(map(Fraction, nums))
    return tuple(Fraction(x, den) for x in nums)


def _texts(nums, den):
    """The JSON strings of a part's entries, as ``str`` of their ``Fraction``s spells them."""
    if den == 1:
        return [str(x) for x in nums]
    return [str(Fraction(x, den)) for x in nums]


def _sum_parts(parts):
    """The entrywise sum of parts given as ``(numerators, denominator)``, not reduced."""
    den = lcm(*(d for _, d in parts))
    return [sum(col) for col in zip(*([x * (den // d) for x in nums] for nums, d in parts))], den
