"""Cubic reference for the chart layer, used only by tests.

``topfan.charts`` slices every transition out of one cached table per facet
and certifies the cocycle facet by facet.  This module recomputes the same
data from the definitions instead: each of the F^2 transitions from a fresh
dual basis and ``pairing``, and the identities by composing all F^2 pairs
and F^3 triples of transition matrices over the ring.
"""

from topfan.charts import TransitionMatrix
from topfan.ring import ONE, ZERO, dual_basis, pairing


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


def conjugation_equivariant(fan) -> bool:
    """Every entry of every F^2 transition has zero c-part."""
    facets = top_facets(fan)
    return all(
        mu.c == 0
        for s in facets
        for t in facets
        for mu in reference_transition(fan, s, t).entries.values()
    )
