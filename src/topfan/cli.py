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
_INF = float("inf")


def _float_text(value):
    if value != value:
        return "NaN"
    if value == _INF:
        return "Infinity"
    if value == -_INF:
        return "-Infinity"
    return float.__repr__(value)


# the JSON text of a scalar by its exact type; other types go to _subclass_text
_SCALAR_TEXT = {
    str: _encode_str,
    int: int.__repr__,
    bool: lambda value: "true" if value else "false",
    type(None): lambda value: "null",
    float: _float_text,
}


def _subclass_text(value):
    """The JSON text of a str, int or float subclass; None for anything else."""
    if isinstance(value, str):
        return _encode_str(value)
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        return _float_text(value)
    return None


def _scalar_text(value):
    """The JSON text of a string, number, bool or None; None for anything else."""
    return _SCALAR_TEXT.get(type(value), _subclass_text)(value)


def _key_text(key):
    """A dict key as a JSON string, coerced as ``json.dumps`` coerces it."""
    if not isinstance(key, str):
        text = _scalar_text(key)
        if text is None:
            raise TypeError(f"keys must be str, int, float, bool or None, "
                            f"not {key.__class__.__name__}")
        key = text
    return _encode_str(key)


def _encode(value, level, levels, parts):
    """Append the JSON text of a list, tuple or dict at nesting ``level`` to ``parts``.

    ``levels`` holds, per nesting level and shared by all its containers,
    the newline and indent of the items, the separator between them and the
    newline and indent of the closing bracket.  A list of scalars is joined
    in one ``str.join``.
    """
    if level == len(levels):
        inner = "\n" + "  " * (level + 1)
        levels.append((inner, "," + inner, inner[:-2]))
    inner, sep, outer = levels[level]
    if isinstance(value, dict):
        if not value:
            parts.append("{}")
            return
        lead = "{" + inner
        for key, item in value.items():
            parts.append(lead + (_encode_str(key) if type(key) is str else _key_text(key)) + ": ")
            lead = sep
            text = _SCALAR_TEXT.get(type(item), _subclass_text)(item)
            if text is None:
                _encode(item, level + 1, levels, parts)
            else:
                parts.append(text)
        parts.append(outer + "}")
    elif isinstance(value, (list, tuple)):
        if not value:
            parts.append("[]")
            return
        texts = [_SCALAR_TEXT.get(type(x), _subclass_text)(x) for x in value]
        if None not in texts:
            parts.append("[" + inner + sep.join(texts) + outer + "]")
            return
        lead = "[" + inner
        for item, text in zip(value, texts):
            parts.append(lead)
            lead = sep
            if text is None:
                _encode(item, level + 1, levels, parts)
            else:
                parts.append(text)
        parts.append(outer + "]")
    else:
        raise TypeError(f"Object of type {value.__class__.__name__} is not JSON serializable")


def _write_json(data, stream):
    """The artifact or report as indented JSON and a newline, in one write.

    The bytes are those of ``json.dumps(data, indent=2)``, whose indented
    encoder runs as pure-Python generators; a value that cannot be
    serialized raises that call's ``TypeError`` before anything is written.
    """
    text = _scalar_text(data)
    if text is None:
        parts = []
        _encode(data, 0, [], parts)
        text = "".join(parts)
    stream.write(text + "\n")


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

    def emit(self, result, stream=None, **extra):
        stream = stream or sys.stdout
        self.data["elapsed_ms"] = round(1000 * (time.monotonic() - self.start), 3)
        self.data.update(extra)
        self.data["result"] = result
        _write_json(self.data, stream)


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
    report = _Report("invariants", [args.fan])
    fan = _load_fan(args.fan)
    validation = fan.validate()
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
    if iso is None:
        report.emit({"equivalent": False, "mode": args.mode}, stats=stats)
        return EXIT_NEGATIVE
    report.emit({"equivalent": True, "mode": args.mode, **iso.to_json()}, stats=stats)
    return EXIT_OK


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
        report.emit(result.to_json(), stats=result.stats)
        return EXIT_OK if isinstance(result, LabelingSolution) else EXIT_NEGATIVE
    bound = 1 if args.bound is None else args.bound
    problem = LabelingProblem(complex_, mode, bound=bound, normalization=normalization)
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
