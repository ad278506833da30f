"""Command-line interface.

Verdict commands print a run report (command echo, input digests, timings,
result) as JSON on stdout and use the exit code contract: 0 for
success / SAT / true, 1 for a semantic negative, 2 for usage or parse errors.
Commands that produce fans or complexes print the bare artifact JSON so their
output can be fed back in.
"""

from __future__ import annotations

import argparse
import functools
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
    LabelingProblem,
    LabelingSolution,
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
        try:
            return json.load(fh)
        except RecursionError:
            raise ValueError("malformed input: JSON nested too deeply") from None


_encode_str = json.encoder.encode_basestring_ascii

# The JSON text of a scalar by its exact type: a subclass is not a scalar here.
# Floats are rare in the output (one elapsed_ms a report), so json spells them.
_SCALAR_TEXT = {
    str: _encode_str,
    int: int.__repr__,
    bool: lambda value: "true" if value else "false",
    type(None): lambda value: "null",
    float: json.dumps,
}


def _encode(value, indent):
    """The JSON text of ``value``, whose line starts with ``indent`` (a newline and spaces).

    ``json.dumps(indent=2)`` runs as pure-Python generators and costs about
    twice as much; here each container is joined once, its scalar items are
    looked up in the loop, and only containers recurse.
    """
    inner = indent + "  "
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = []
        for key, item in value.items():
            if type(key) is not str:  # coerced as json.dumps coerces it
                text = _SCALAR_TEXT.get(type(key))
                if text is None:
                    raise TypeError(f"keys must be str, int, float, bool or None, "
                                    f"not {key.__class__.__name__}")
                key = text(key)
            text = _SCALAR_TEXT.get(type(item))
            item_text = _encode(item, inner) if text is None else text(item)
            items.append(_encode_str(key) + ": " + item_text)
        return "{" + inner + ("," + inner).join(items) + indent + "}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        items = []
        for item in value:
            text = _SCALAR_TEXT.get(type(item))
            items.append(_encode(item, inner) if text is None else text(item))
        return "[" + inner + ("," + inner).join(items) + indent + "]"
    text = _SCALAR_TEXT.get(type(value))
    if text is None:
        raise TypeError(f"Object of type {value.__class__.__name__} is not JSON serializable")
    return text(value)


def _write_json(data, stream):
    """The artifact or report as ``json.dumps(data, indent=2)`` and a newline, in one write.

    A subclass of ``str``, ``int`` or ``float`` raises ``TypeError``, as any
    other value that is not JSON does, before anything is written.
    """
    stream.write(_encode(data, "\n") + "\n")


def _parse(from_json, data):
    """Build an object from parsed JSON; a field of the wrong JSON type is a ValueError.

    Such a field surfaces as TypeError or AttributeError inside the loader,
    and a missing one as KeyError.
    """
    try:
        return from_json(data)
    except (TypeError, AttributeError) as exc:
        raise ValueError(f"malformed input: {exc}") from exc
    except KeyError as exc:
        raise ValueError(f"malformed input: missing field {exc}") from exc


def _load_fan(path):
    return _parse(TopologicalFan.from_json, _load_json(path))


class _Report:
    def __init__(self, command, inputs):
        self.data = {"command": command, "inputs": {p: _digest(p) for p in inputs}}
        self.start = time.monotonic()

    def emit(self, result, **extra):
        self.data["elapsed_ms"] = round(1000 * (time.monotonic() - self.start), 3)
        self.data.update(extra)
        self.data["result"] = result
        _write_json(self.data, sys.stdout)


def _parse_facet(text):
    return tuple(sorted(int(x) for x in text.split(",")))


def _parse_direction(text):
    return [parse_rational(x) for x in text.split(",")]


def _parse_positions(positions):
    return [[parse_rational(x) for x in p] for p in positions]


def cmd_validate(args):
    report = _Report("validate", [args.fan])
    fan = _load_fan(args.fan)
    result = fan.validate()
    report.emit(result.to_json())
    return EXIT_OK if result.ok else EXIT_NEGATIVE


def cmd_invariants(args):
    selected = args.betti or args.pontrjagin or args.weights or args.todd
    if args.dir is not None and selected and not args.todd:
        raise ValueError("--dir applies only to --todd")
    report = _Report("invariants", [args.fan])
    fan = _load_fan(args.fan)
    validation = fan.validate()
    if not validation.ok:
        report.emit({"validation": validation.to_json()})
        return EXIT_NEGATIVE
    out = {}
    everything = not selected
    if args.betti or everything:
        h = betti_numbers(fan)
        out["betti"] = list(h)
        out["graded_ranks"] = [graded_rank(fan, k) for k in range(fan.n + 1)]
    if args.pontrjagin or everything:
        out["pontrjagin"] = [cls.to_json() for cls in pontrjagin_class(fan)]
    if args.weights or everything:
        out["weights"] = omni_weights(fan).to_json()
    if args.todd or everything:
        direction = _parse_direction(args.dir) if args.dir is not None else None
        out["todd_genus"] = todd_genus(fan, direction=direction)
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
    if args.kernel is not None:
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
    stats = {}
    iso = equivalent(fan_a, fan_b, mode=args.mode, stats=stats)
    found = {} if iso is None else iso.to_json()
    report.emit({"equivalent": iso is not None, "mode": args.mode, **found}, stats=stats)
    return EXIT_NEGATIVE if iso is None else EXIT_OK


def cmd_surgery(args):
    fan = _load_fan(args.fan)
    if args.stellar is not None:
        out = stellar_subdivide_fan(fan, _parse_facet(args.stellar))
    elif args.suspend:
        out = suspend_fan(fan)
    else:
        out = product_fan(fan, _load_fan(args.product))
    _write_json(out.to_json(), sys.stdout)
    return EXIT_OK


def cmd_realize(args):
    if args.mode in ("sphere", "mod2"):
        for option, value in (("--normalize", args.normalize), ("--bound", args.bound)):
            if value is not None:
                raise ValueError(f"{option} does not apply to --mode {args.mode}")
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
        _write_json(fan.to_json(), sys.stdout)
        return EXIT_OK

    if not complex_.facets:
        raise ValueError("the complex has no facets")
    mode = args.mode.replace("-", "_")
    normalization = _parse_facet(args.normalize) if args.normalize is not None else None
    if mode == "mod2":
        result = mod2_obstruction(complex_, complex_.dim + 1)
    else:
        bound = 1 if args.bound is None else args.bound
        result = search_labeling(
            LabelingProblem(complex_, mode, bound=bound, normalization=normalization))
    solved = isinstance(result, LabelingSolution)
    payload = result.to_json()
    if solved and mode == "toric_sign":
        payload["note"] = "necessary conditions satisfied"
    report.emit(payload, stats=result.stats)
    return EXIT_OK if solved else EXIT_NEGATIVE


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
            _write_json(data, fh)
        manifest[filename] = _digest(path)
    _write_json({"written": manifest, "dir": args.dir}, sys.stdout)
    return EXIT_OK


@functools.cache
def build_parser():
    """The CLI parser, built on first use and shared by every ``main`` call: do not mutate it."""
    parser = argparse.ArgumentParser(
        prog="topfan",
        description="Exact computations with topological fans.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("validate", help="check the fan and completeness conditions")
    p.add_argument("fan")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("invariants", help="Betti numbers, Pontrjagin class, weights, Todd genus")
    p.add_argument("fan")
    p.add_argument("--betti", action="store_true")
    p.add_argument("--pontrjagin", action="store_true")
    p.add_argument("--weights", action="store_true")
    p.add_argument("--todd", action="store_true")
    p.add_argument("--dir", help="explicit direction for the Todd genus, e.g. 1,2/3")
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
    operation = p.add_mutually_exclusive_group(required=True)
    operation.add_argument("--stellar", help="facet to subdivide, e.g. 1,2")
    operation.add_argument("--suspend", action="store_true")
    operation.add_argument("--product", help="second fan file")
    p.set_defaults(func=cmd_surgery)

    p = sub.add_parser("realize", help="labeling searches and 2-sphere realization")
    p.add_argument("complex")
    p.add_argument("--mode", choices=["unimodular", "toric-sign", "mod2", "sphere"],
                   required=True)
    p.add_argument("--bound", type=int)
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
