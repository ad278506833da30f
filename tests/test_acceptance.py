"""Acceptance suite: one test per shipped criterion, each printing PASS/FAIL.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines.  Runtime bounds are asserted with the wall clock.
"""

import json
import random
import time
from fractions import Fraction

from topfan.charts import check_cocycle, check_conjugation_equivariant, kernel_presentation
from topfan.cli import main as cli_main
from topfan.complexes import cyclic_polytope_boundary
from topfan.fixtures import (
    BARNETTE_FACET_ORDERS,
    BARNETTE_UNIMODULAR_CERTIFICATE,
    barnette_complex,
    barnette_fan,
    cp2cp2_fan,
    icosahedron_complex_and_positions,
    octahedron_complex,
    octahedron_fan,
    octahedron_positions,
    projective_fan,
)
from topfan.invariants import betti_numbers, graded_rank, omni_weights, pontrjagin_class, todd_genus
from topfan.realize import (
    Infeasible,
    LabelingProblem,
    Unsat,
    derive_sign_table,
    realize_2sphere,
    search_labeling,
    stellar_subdivide_fan,
    suspend_fan,
    verify_labeling,
)
from topfan.ring import RElem
from tests import chart_oracle
from tests.barnette_oracle import barnette_toric_certificate
from tests.conftest import random_valid_fan


class _Criterion:
    def __init__(self, number, description):
        self.number = number
        self.description = description

    def __enter__(self):
        self.start = time.monotonic()
        return self

    @property
    def elapsed(self):
        return time.monotonic() - self.start

    def __exit__(self, exc_type, exc, tb):
        verdict = "PASS" if exc_type is None else "FAIL"
        print(f"ACCEPTANCE {self.number}: {verdict} "
              f"({self.elapsed:.2f}s) - {self.description}")
        return False


PUBLISHED_ALPHA_TABLE = {
    (1, 2): {1: ((1, 0), (1, 0)), 2: ((0, 1), (0, 1))},
    (2, 3): {2: ((0, 1), (-2, 1)), 3: ((-1, 0), (-1, 0))},
    (3, 4): {3: ((-1, 1), (1, -1)), 4: ((0, -1), (-2, 1))},
    (1, 4): {4: ((0, -1), (0, -1)), 1: ((1, -1), (1, -1))},
}

PUBLISHED_SIGNS = [1, -1, -1, -1, -1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, -1, 1]


def test_criterion_1_fixture_validates_and_dual_bases_match(tmp_path, capsys):
    with _Criterion(1, "fixture validates; dual bases match the published table") as c:
        path = tmp_path / "cp2cp2.json"
        path.write_text(json.dumps(cp2cp2_fan().to_json()))
        assert cli_main(["validate", str(path)]) == 0
        capsys.readouterr()
        fan = cp2cp2_fan()
        for facet, alphas in PUBLISHED_ALPHA_TABLE.items():
            duals = fan.dual_basis(facet)
            for i, (b, v) in alphas.items():
                assert duals[i] == tuple(map(RElem, b, (0, 0), v)), (facet, i)
        assert c.elapsed < 1.0


def test_criterion_2_invariants_of_the_fixture():
    with _Criterion(2, "Betti ranks agree; p1 = -6; weights; Todd genus 1 x100") as c:
        fan = cp2cp2_fan()
        assert betti_numbers(fan) == (1, 2, 1)
        assert [graded_rank(fan, k) for k in range(3)] == [1, 2, 1]
        p1 = pontrjagin_class(fan)[1]
        assert p1.basis == ((0, 0, 1, 1),)
        assert p1.coords == (Fraction(-6),)
        weights = omni_weights(fan)
        assert [weights.w(f) for f in ((1, 2), (2, 3), (3, 4), (4, 1))] == [1, 1, -1, 1]
        for seed in range(100):
            assert todd_genus(fan, fan.generic_direction(random.Random(seed), "v")) == 1
        assert c.elapsed < 5.0


def test_criterion_3_barnette_suite():
    with _Criterion(3, "sign table; unimodular certificate; toric UNSAT(5); "
                       "bound-free case analysis") as c:
        complex_ = barnette_complex()
        table = derive_sign_table(complex_, (1, 2, 3, 4), 1,
                                  ref_orders=BARNETTE_FACET_ORDERS)
        assert [table.sign(o) for o in BARNETTE_FACET_ORDERS] == PUBLISHED_SIGNS

        ok, dets, failures = verify_labeling(
            complex_, BARNETTE_UNIMODULAR_CERTIFICATE, "unimodular"
        )
        assert ok, failures
        assert all(abs(d) == 1 for d in dets.values())

        t_search = time.monotonic()
        problem = LabelingProblem(complex_, "toric_sign", bound=5,
                                  normalization=(1, 2, 3, 4), sign_table=table)
        result = search_labeling(problem)
        search_elapsed = time.monotonic() - t_search
        assert isinstance(result, Unsat) and result.bound == 5
        assert search_elapsed < 60.0

        t_cert = time.monotonic()
        certificate = barnette_toric_certificate()
        cert_elapsed = time.monotonic() - t_cert
        assert isinstance(certificate, Infeasible)
        assert certificate.reason == "case-analysis"
        assert certificate.witness["complete"]
        assert cert_elapsed < 1.0


def test_criterion_4_cyclic_polytope_obstruction():
    with _Criterion(4, "C4(16) pigeonhole-infeasible; C4(8) skeleton complete") as c:
        t0 = time.monotonic()
        result = search_labeling(LabelingProblem(cyclic_polytope_boundary(4, 16), "mod2"))
        assert isinstance(result, Infeasible) and result.reason == "clique"
        assert sorted(result.witness["clique"]) == list(range(1, 17))
        assert time.monotonic() - t0 < 1.0
        from itertools import combinations

        k8 = cyclic_polytope_boundary(4, 8)
        assert k8.one_skeleton() == list(combinations(range(1, 9), 2))


def test_criterion_5_surgery_preservation():
    with _Criterion(5, "stellar and suspension outputs validate on 100 random fans") as c:
        fixture = cp2cp2_fan()
        assert stellar_subdivide_fan(fixture, (1, 2), validate=False).validate().ok
        assert suspend_fan(fixture, validate=False).validate().ok
        rng = random.Random(505)
        for _ in range(100):
            fan = random_valid_fan(rng, max_m=8, max_n=3)
            if fan.n >= 2:
                stellar = stellar_subdivide_fan(fan, fan.complex.facets[0], validate=False)
                assert stellar.validate().ok, stellar.validate().witnesses
            suspended = suspend_fan(fan, validate=False)
            assert suspended.validate().ok, suspended.validate().witnesses
        assert c.elapsed < 60.0


def test_criterion_6_quotient_chart_properties():
    with _Criterion(6, "kernel residues vanish; cocycle and inverse identities; "
                       "involutive implies conjugation-equivariant") as c:
        fixture_fans = [cp2cp2_fan(), octahedron_fan(), projective_fan(2), barnette_fan()]
        for fan in fixture_fans:
            fan.require_valid()
            for base in fan.complex.facets:
                pres = kernel_presentation(fan, base)
                for k in pres.generators:
                    assert all(e.is_zero() for e in chart_oracle.kernel_residual(fan, pres, k))
            assert check_cocycle(fan).ok
            if fan.check_involutive():
                assert check_conjugation_equivariant(fan)
        assert c.elapsed < 10.0


def test_criterion_7_betti_oracle_equivalence():
    with _Criterion(7, "h-vector Betti equals graded rank on 200 random fans") as c:
        rng = random.Random(707)
        mismatches = 0
        for _ in range(200):
            fan = random_valid_fan(rng, max_m=8, max_n=3)
            assert fan.validate().ok
            h = betti_numbers(fan)
            ranks = tuple(graded_rank(fan, k) for k in range(fan.n + 1))
            if h != ranks:
                mismatches += 1
        assert mismatches == 0
        assert c.elapsed < 120.0


def test_criterion_8_two_sphere_realizations():
    with _Criterion(8, "octahedron and icosahedron realize as valid fans") as c:
        palette = {(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)}
        fan = realize_2sphere(octahedron_complex(), octahedron_positions())
        assert fan.validate().ok
        assert set(r.v for r in fan.rays) <= palette
        complex_, positions = icosahedron_complex_and_positions()
        fan2 = realize_2sphere(complex_, positions)
        assert fan2.validate().ok
        assert set(r.v for r in fan2.rays) <= palette
        assert c.elapsed < 5.0
