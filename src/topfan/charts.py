"""Combinatorial shadow of the quotient construction.

The manifold itself is never built; everything here is exponent bookkeeping.
Charts are indexed by top-dimensional simplices, the gluing data is a matrix
of ring elements per ordered facet pair, and the subgroup cutting the quotient
is presented by one exponent vector per vertex outside a base facet.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .fans import TopologicalFan
from .ring import ONE, ZERO, RElem, pairing


@dataclass
class KernelPresentation:
    """Generators of the subgroup by which the chart union is divided.

    For the base facet I, each vertex k outside I yields one generator: the
    exponent vector with ONE at slot k, minus the pairing against the chart
    duals on I, and ZERO elsewhere.  Exponents are indexed 1..m.
    """

    base: tuple[int, ...]
    generators: dict  # k -> {j: RElem}

    def exponent(self, k, j) -> RElem:
        return self.generators[k].get(j, ZERO)

    def to_json(self):
        return {
            "base": list(self.base),
            "generators": {
                str(k): {str(j): mu.to_json() for j, mu in exps.items()}
                for k, exps in self.generators.items()
            },
        }


def _top_facets(fan: TopologicalFan):
    return [f for f in fan.complex.facets if len(f) == fan.n]


def chart_table(fan: TopologicalFan, facet):
    """The matrix D_J·R of the top facet J, cached on the fan.

    Row p pairs the J-chart dual at the p-th vertex j of J (sorted) with
    every ray: ``chart_table(fan, J)[p][k - 1] = pairing(alpha^J_j, beta_k)``,
    read off one ``pairing(sigma * alpha_j, beta_k * (q, 0, 1))`` of integer
    ring vectors (``_scaled_dual``, ``_scaled_rvecs``): b and c over q * sigma,
    v over sigma; a zero pairing is ``ZERO`` itself.  Its columns at a facet
    I form the transition I -> J, its columns outside J give the kernel
    generators over the base J, and its columns at J itself certify the
    cocycle (see ``check_cocycle``).
    """
    key = fan._top_facet(facet)
    table = fan._chart_tables.get(key)
    if table is None:
        q, betas = fan._scaled_rvecs()
        sigma, alphas = fan._scaled_dual(key)
        qs = q * sigma
        table = fan._chart_tables[key] = tuple(
            tuple(RElem(Fraction(e.b, qs), Fraction(e.c, qs), e.v // sigma)
                  if e.b or e.c or e.v else ZERO
                  for e in (pairing(alpha, beta) for beta in betas))
            for alpha in alphas)
    return table


def kernel_presentation(fan: TopologicalFan, facet) -> KernelPresentation:
    base = fan._top_facet(facet)
    table = chart_table(fan, base)
    generators = {}
    for k in range(1, fan.m + 1):
        if k in base:
            continue
        exps = {k: ONE}
        for i, row in zip(base, table):
            exps[i] = -row[k - 1]
        generators[k] = exps
    return KernelPresentation(base, generators)


@dataclass
class TransitionMatrix:
    """Exponent matrix of the chart change from facet I to facet J.

    Entry (j, i) is the pairing of the J-chart dual at j with the ray at i;
    the j-th target coordinate is the monomial prod_i w_i^(entry(j, i)).
    """

    source: tuple[int, ...]
    target: tuple[int, ...]
    entries: dict  # (j, i) -> RElem

    def entry(self, j, i) -> RElem:
        return self.entries[(j, i)]

    def to_json(self, shared=None):
        """The matrix as JSON; ``shared`` maps (j, i) to the entry records of the target.

        A report that writes several transitions into one target passes them
        one such dict, so that each entry is built once and every transition
        holds the same record (which the JSON writer then encodes once).
        """
        if shared is None:
            shared = {}
        entries = []
        for (j, i), mu in sorted(self.entries.items()):
            record = shared.get((j, i))
            if record is None:
                record = shared[(j, i)] = {"row": j, "col": i, "value": mu.to_json()}
            entries.append(record)
        return {"source": list(self.source), "target": list(self.target), "entries": entries}


def transition_matrix(fan: TopologicalFan, source, target) -> TransitionMatrix:
    """The columns of ``chart_table(fan, target)`` at the source facet."""
    src = fan._top_facet(source)
    tgt = fan._top_facet(target)
    table = chart_table(fan, tgt)
    entries = {(j, i): row[i - 1] for j, row in zip(tgt, table) for i in src}
    return TransitionMatrix(src, tgt, entries)


@dataclass
class CocycleReport:
    ok: bool
    failure: Optional[dict] = None

    def __bool__(self):
        return self.ok

    def to_json(self):
        return {"ok": self.ok, "failure": self.failure}


def check_cocycle(fan: TopologicalFan) -> CocycleReport:
    """Composition and inverse identities for all facet pairs and triples.

    They are certified facet by facet: the transition I -> J is D_J·R_I, with
    D_J the dual basis of J and R_I the rays of I as columns, so it suffices
    that D_J·R_J = 1 for every top facet J, i.e. the J-columns of
    ``chart_table(fan, J)`` form the identity.  Sending each ring entry to
    its 2x2 block is an injective ring homomorphism M_n(R) -> M_2n(Q), so
    D_J·R_J = 1 implies R_J·D_J = 1, and then
    T_{J->K}·T_{I->J} = D_K·R_J·D_J·R_I = D_K·R_I = T_{I->K}; the inverse
    identity is the case K = I.  A failure names the facet whose dual basis
    does not invert its rays.
    """
    for facet in _top_facets(fan):
        for j, row in zip(facet, chart_table(fan, facet)):
            if any(row[i - 1] != (ONE if i == j else ZERO) for i in facet):
                failure = {"kind": "inverse", "pair": [list(facet), list(facet)]}
                return CocycleReport(False, failure)
    return CocycleReport(True)


def check_conjugation_equivariant(fan: TopologicalFan) -> bool:
    """True when every transition exponent commutes with complex conjugation.

    Equivalent to every pairing entry having zero c-part; holds in particular
    whenever the fan is involutive.  The transitions into J are the columns of
    ``chart_table(fan, J)`` at vertices of top facets, so those are scanned.
    """
    facets = _top_facets(fan)
    columns = sorted({i - 1 for f in facets for i in f})
    for facet in facets:
        for row in chart_table(fan, facet):
            if any(row[k].c != 0 for k in columns):
                return False
    return True


@dataclass
class FacePoset:
    """The orbit-space face poset: simplices under reverse inclusion.

    The empty face is the top element (the whole orbit space) and the facets
    are minimal.
    """

    elements: tuple[tuple[int, ...], ...]
    covers: tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]

    def rank_counts(self):
        counts = {}
        for e in self.elements:
            counts[len(e)] = counts.get(len(e), 0) + 1
        return counts

    def to_json(self):
        return {
            "elements": [list(e) for e in self.elements],
            "covers": [[list(a), list(b)] for a, b in self.covers],
            "rank_counts": {str(k): v for k, v in sorted(self.rank_counts().items())},
        }


def orbit_face_poset(fan: TopologicalFan) -> FacePoset:
    fan.require_valid()
    # faces() is sorted by (size, lex); each face's codimension-one subsets are faces
    elements = [()] + fan.complex.faces()
    covers = [(e, e[:k] + e[k + 1:]) for e in elements for k in range(len(e))]
    return FacePoset(tuple(elements), tuple(sorted(covers)))
