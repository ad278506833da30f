"""Exact computations with topological fans.

A topological fan pairs a finite simplicial complex with one ray per vertex,
each ray carrying a rational vector b, a rational vector c and a primitive
integer vector v.  The package validates the completeness and non-singularity
conditions, decides three equivalence relations, computes chart-transition
combinatorics and topological invariants of the associated space, performs
fan surgeries, and runs integer-labeling realizability searches.  All
arithmetic is exact.
"""

from .complexes import FVector, SimplicialComplex, cyclic_polytope_boundary
from .fans import (
    Isomorphism,
    Ray,
    TopologicalFan,
    ValidationReport,
    equivalent,
    h_canonical_form,
)
from .ring import MU0, ONE, ZERO, RElem, pairing

__all__ = [
    "FVector",
    "SimplicialComplex",
    "cyclic_polytope_boundary",
    "Isomorphism",
    "Ray",
    "TopologicalFan",
    "ValidationReport",
    "equivalent",
    "h_canonical_form",
    "MU0",
    "ONE",
    "ZERO",
    "RElem",
    "pairing",
]

__version__ = "0.1.0"
