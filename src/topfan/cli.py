"""Command-line interface.

Verdict commands print a run report (command echo, input digests, seed,
timings, result) as JSON on stdout and use the exit code contract: 0 for
success / SAT / true, 1 for a semantic negative, 2 for usage or parse errors.
Commands that produce fans or complexes print the bare artifact JSON so their
output can be fed back in.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
from fractions import Fraction

from . import fixtures
from .charts import (
    check_cocycle,
    check_conjugation_equivariant,
    kernel_presentation,
    orbit_face_poset,
    transition_matrix,
)
from .complexes import SimplicialComplex
from .fans import TopologicalFan, equivalent
from .invariants import betti_numbers, graded_rank, omni_weights, pontrjagin_class, todd_genus
from .linalg import parse_rational
from .realize import (
    Infeasible,
    LabelingProblem,
    LabelingSolution,
    SignContradiction,
    derive_sign_table,
    mod2_obstruction,
    product_fan,
    realize_2sphere,
    search_labeling,
    stellar_subdivide_fan,
    suspend_fan,
)

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_USAGE = 2


def _digest(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        h.update(fh.read())
    return h.hexdigest()[:16]


def _load_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _parse(from_json, data):
    """Build an object from parsed JSON; a field of the wrong JSON type is a ValueError.

    Such a field surfaces as TypeError or AttributeError inside the loader.
    """
    try:
        return from_json(data)
    except (TypeError, AttributeError) as exc:
        raise ValueError(f"malformed input: {exc}") from exc


def _load_fan(path):
    return _parse(TopologicalFan.from_json, _load_json(path))


class _Report:
    def __init__(self, command, inputs, seed=None):
        self.data = {
            "command": command,
            "inputs": {p: _digest(p) for p in inputs},
            "seed": seed,
        }
        self.start = time.monotonic()

    def emit(self, result, stream=None, **extra):
        stream = stream or sys.stdout
        self.data["elapsed_ms"] = round(1000 * (time.monotonic() - self.start), 3)
        self.data.update(extra)
        self.data["result"] = result
        json.dump(self.data, stream, indent=2)
        stream.write("\n")


def _parse_facet(text):
    return tuple(sorted(int(x) for x in text.split(",")))


def _parse_direction(text):
    return [parse_rational(x) for x in text.split(",")]


def _parse_positions(positions):
    return [[parse_rational(x) for x in p] for p in positions]


def cmd_validate(args):
    report = _Report("validate", [args.fan], seed=args.seed)
    fan = _load_fan(args.fan)
    result = fan.validate(seed=args.seed)
    report.emit(result.to_json())
    return EXIT_OK if result.ok else EXIT_NEGATIVE


def cmd_invariants(args):
    report = _Report("invariants", [args.fan], seed=args.seed)
    fan = _load_fan(args.fan)
    validation = fan.validate(seed=args.seed)
    if not validation.ok:
        report.emit({"validation": validation.to_json()})
        return EXIT_NEGATIVE
    out = {}
    everything = not (args.betti or args.pontrjagin or args.weights or args.todd)
    if args.betti or everything:
        h = betti_numbers(fan)
        out["betti"] = list(h)
        out["graded_ranks"] = [graded_rank(fan, k) for k in range(fan.n + 1)]
    if args.pontrjagin or everything:
        out["pontrjagin"] = [cls.to_json() for cls in pontrjagin_class(fan)]
    if args.weights or everything:
        out["weights"] = omni_weights(fan).to_json()
    if args.todd or everything:
        direction = _parse_direction(args.dir) if args.dir else None
        out["todd_genus"] = todd_genus(fan, direction=direction, seed=args.seed)
    report.emit(out)
    return EXIT_OK


def cmd_charts(args):
    report = _Report("charts", [args.fan])
    fan = _load_fan(args.fan)
    validation = fan.validate()
    if not validation.ok:
        report.emit({"validation": validation.to_json()})
        return EXIT_NEGATIVE
    out = {}
    if args.kernel:
        facet = _parse_facet(args.kernel)
        out["kernel"] = kernel_presentation(fan, facet).to_json()
    if args.transitions:
        facets = [f for f in fan.complex.facets if len(f) == fan.n]
        out["transitions"] = [
            transition_matrix(fan, src, tgt).to_json() for src in facets for tgt in facets
        ]
    ok = True
    if args.cocycle:
        verdict = check_cocycle(fan)
        out["cocycle"] = verdict.to_json()
        out["conjugation_equivariant"] = check_conjugation_equivariant(fan)
        ok = ok and verdict.ok
    if args.faceposet:
        out["face_poset"] = orbit_face_poset(fan).to_json()
    report.emit(out)
    return EXIT_OK if ok else EXIT_NEGATIVE


def cmd_equiv(args):
    report = _Report("equiv", [args.fan_a, args.fan_b])
    fan_a = _load_fan(args.fan_a)
    fan_b = _load_fan(args.fan_b)
    iso = equivalent(fan_a, fan_b, mode=args.mode)
    if iso is None:
        report.emit({"equivalent": False, "mode": args.mode})
        return EXIT_NEGATIVE
    report.emit({"equivalent": True, "mode": args.mode, **iso.to_json()})
    return EXIT_OK


def cmd_surgery(args):
    fan = _load_fan(args.fan)
    if args.stellar:
        out = stellar_subdivide_fan(fan, _parse_facet(args.stellar))
    elif args.suspend:
        out = suspend_fan(fan)
    elif args.product:
        other = _load_fan(args.product)
        out = product_fan(fan, other)
    else:
        print("surgery requires one of --stellar/--suspend/--product", file=sys.stderr)
        return EXIT_USAGE
    json.dump(out.to_json(), sys.stdout, indent=2)
    sys.stdout.write("\n")
    return EXIT_OK


def cmd_realize(args):
    report = _Report("realize", [args.complex])
    raw = _load_json(args.complex)
    complex_ = _parse(SimplicialComplex.from_json, raw)

    if args.mode == "sphere":
        positions = raw.get("positions")
        if positions is None:
            print("sphere mode needs a 'positions' field in the complex file",
                  file=sys.stderr)
            return EXIT_USAGE
        fan = realize_2sphere(complex_, _parse(_parse_positions, positions))
        json.dump(fan.to_json(), sys.stdout, indent=2)
        sys.stdout.write("\n")
        return EXIT_OK

    if not complex_.facets:
        raise ValueError("the complex has no facets")
    mode = args.mode.replace("-", "_")
    normalization = _parse_facet(args.normalize) if args.normalize else None
    if mode == "mod2":
        result = mod2_obstruction(complex_, complex_.dim + 1)
        report.emit(result.to_json(), stats=result.stats)
        return EXIT_OK if isinstance(result, LabelingSolution) else EXIT_NEGATIVE
    sign_table = None
    if mode == "toric_sign":
        ref_orders = [tuple(f) for f in raw["facets"]]
        seed_facet = normalization or complex_.facets[0]
        derived = derive_sign_table(complex_, seed_facet, 1, ref_orders=ref_orders)
        if isinstance(derived, SignContradiction):
            report.emit(Infeasible("sign-contradiction", derived).to_json(), stats=None)
            return EXIT_NEGATIVE
        sign_table = derived
    problem = LabelingProblem(complex_, mode, bound=args.bound,
                              normalization=normalization, sign_table=sign_table)
    result = search_labeling(problem)
    if isinstance(result, LabelingSolution):
        payload = result.to_json()
        if mode == "toric_sign":
            payload["note"] = "necessary conditions satisfied"
        report.emit(payload, stats=result.stats)
        return EXIT_OK
    report.emit(result.to_json(), stats=result.stats)
    return EXIT_NEGATIVE


def _fixture_files(name):
    if name == "barnette":
        complex_json = fixtures.barnette_complex().to_json()
        complex_json["facets"] = [list(f) for f in fixtures.BARNETTE_FACET_ORDERS]
        return {
            "barnette.complex.json": complex_json,
            "barnette.fan.json": fixtures.barnette_fan().to_json(),
        }
    if name == "cp2cp2":
        return {"cp2cp2.json": fixtures.cp2cp2_fan().to_json()}
    if name == "octahedron":
        data = fixtures.octahedron_complex().to_json()
        data["positions"] = [[str(x) for x in p] for p in fixtures.octahedron_positions()]
        return {
            "octahedron.complex.json": data,
            "octahedron.fan.json": fixtures.octahedron_fan().to_json(),
        }
    if name == "icosahedron":
        complex_, positions = fixtures.icosahedron_complex_and_positions()
        data = complex_.to_json()
        data["positions"] = [[str(Fraction(x)) for x in p] for p in positions]
        return {"icosahedron.complex.json": data}
    if name.startswith("cyclic:"):
        _, n, m = name.split(":")
        key = f"cyclic_{n}_{m}.complex.json"
        return {key: fixtures.cyclic_complex(int(n), int(m)).to_json()}
    raise ValueError(f"unknown fixture {name!r}")


def cmd_fixtures(args):
    try:
        files = _fixture_files(args.name)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_USAGE
    os.makedirs(args.dir, exist_ok=True)
    manifest = {}
    for filename, data in files.items():
        path = os.path.join(args.dir, filename)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(data, fh, indent=2)
            fh.write("\n")
        manifest[filename] = _digest(path)
    json.dump({"written": manifest, "dir": args.dir}, sys.stdout, indent=2)
    sys.stdout.write("\n")
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="topfan",
        description="Exact computations with topological fans.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("validate", help="check the fan and completeness conditions")
    p.add_argument("fan")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("invariants", help="Betti numbers, Pontrjagin class, weights, Todd genus")
    p.add_argument("fan")
    p.add_argument("--betti", action="store_true")
    p.add_argument("--pontrjagin", action="store_true")
    p.add_argument("--weights", action="store_true")
    p.add_argument("--todd", action="store_true")
    p.add_argument("--dir", help="explicit direction for the Todd genus, e.g. 1,2/3")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_invariants)

    p = sub.add_parser("charts", help="kernel presentation, transitions, cocycle, face poset")
    p.add_argument("fan")
    p.add_argument("--kernel", help="base facet, e.g. 1,2")
    p.add_argument("--transitions", action="store_true")
    p.add_argument("--cocycle", action="store_true")
    p.add_argument("--faceposet", action="store_true")
    p.set_defaults(func=cmd_charts)

    p = sub.add_parser("equiv", help="decide fan equivalence in a given mode")
    p.add_argument("fan_a")
    p.add_argument("fan_b")
    p.add_argument("--mode", choices=["strict", "d", "h"], default="strict")
    p.set_defaults(func=cmd_equiv)

    p = sub.add_parser("surgery", help="stellar subdivision, suspension, or product")
    p.add_argument("fan")
    p.add_argument("--stellar", help="facet to subdivide, e.g. 1,2")
    p.add_argument("--suspend", action="store_true")
    p.add_argument("--product", help="second fan file")
    p.set_defaults(func=cmd_surgery)

    p = sub.add_parser("realize", help="labeling searches and 2-sphere realization")
    p.add_argument("complex")
    p.add_argument("--mode", choices=["unimodular", "toric-sign", "mod2", "sphere"],
                   required=True)
    p.add_argument("--bound", type=int, default=1)
    p.add_argument("--normalize", help="facet pinned to the standard basis, e.g. 1,2,3,4")
    p.set_defaults(func=cmd_realize)

    p = sub.add_parser("fixtures", help="write bundled fixture files")
    p.add_argument("name", help="barnette | cp2cp2 | octahedron | icosahedron | cyclic:<n>:<m>")
    p.add_argument("--dir", default=".")
    p.set_defaults(func=cmd_fixtures)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
