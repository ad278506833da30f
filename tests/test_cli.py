"""CLI exit codes, JSON reports, and artifact round-trips."""

import contextlib
import copy
import enum
import hashlib
import io
import json
import os
import random
import re
import subprocess
import sys
import tempfile
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from topfan import cli
from topfan.cli import build_parser, main
from topfan.complexes import SimplicialComplex, cyclic_polytope_boundary
from topfan.fans import Ray, TopologicalFan
from topfan.fixtures import (
    barnette_complex,
    cp2cp2_fan,
    octahedron_complex,
    octahedron_fan,
    octahedron_positions,
    projective_fan,
    segment_fan,
)
from topfan.realize import LabelingProblem, LabelingSolution, search_labeling


@pytest.fixture
def cp2cp2_path(tmp_path):
    path = tmp_path / "cp2cp2.json"
    path.write_text(json.dumps(cp2cp2_fan().to_json()))
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_validate_ok(capsys, cp2cp2_path):
    code, out, _ = run_cli(capsys, "validate", cp2cp2_path)
    assert code == 0
    report = json.loads(out)
    assert report["result"]["ok"]
    assert "seed" not in report
    assert cp2cp2_path in report["inputs"]


def test_validate_negative_exit(capsys, tmp_path):
    fan = cp2cp2_fan()
    data = fan.to_json()
    data["complex"]["facets"] = [[1, 2], [2, 3], [3, 4]]
    del data["complex"]["m"]
    data["complex"]["m"] = 4
    path = tmp_path / "incomplete.json"
    path.write_text(json.dumps(data))
    code, out, _ = run_cli(capsys, "validate", str(path))
    assert code == 1
    report = json.loads(out)
    assert not report["result"]["completeness_ok"]
    assert report["result"]["witnesses"]


def test_validate_malformed_json(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{не json")
    code, _, err = run_cli(capsys, "validate", str(path))
    assert code == 2
    assert err


def _wide_facet_fan():
    """n = 24, one facet of twelve rays with v-columns e_{2j-1} +- e_{2j}: minor gcd 2^6."""
    rays = []
    for j in range(6):
        for sign in (1, -1):
            v = [0] * 24
            v[2 * j], v[2 * j + 1] = 1, sign
            rays.append({"b": v, "v": v})
    return {"n": 24, "complex": {"m": 12, "facets": [list(range(1, 13))]}, "rays": rays}


def test_validate_wide_facet_reports_its_minor_gcd_at_once(capsys, tmp_path):
    # C(24, 12) maximal minors: one int_det per minor did not finish in 30 s
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(_wide_facet_fan()))
    start = time.monotonic()
    code, out, _ = run_cli(capsys, "validate", str(path))
    assert time.monotonic() - start < 1
    assert code == 1
    assert json.loads(out)["result"]["witnesses"]["nonsingularity"] == {
        "kind": "bad-minor-gcd", "facet": list(range(1, 13)), "gcd": 64}


@pytest.mark.parametrize("command", ["validate", "invariants", "charts", "equiv", "realize"])
def test_each_input_file_is_read_once(capsys, monkeypatch, tmp_path, cp2cp2_path, command):
    other = tmp_path / "other.json"
    other.write_text(json.dumps(cp2cp2_fan().to_json()))
    inputs = {"equiv": [cp2cp2_path, str(other)], "realize": [str(other)]}.get(command,
                                                                               [cp2cp2_path])
    if command == "realize":
        other.write_text(json.dumps(octahedron_complex().to_json()))
    argv = [command, *inputs] + (["--mode", "mod2"] if command == "realize" else [])
    opened = []

    def spy_open(path, *args, **kwargs):
        opened.append(str(path))
        return open(path, *args, **kwargs)

    monkeypatch.setattr(cli, "open", spy_open, raising=False)
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    assert opened == inputs
    digests = json.loads(out)["inputs"]
    for path in inputs:
        with open(path, "rb") as fh:
            assert digests[path] == hashlib.sha256(fh.read()).hexdigest()[:16]


def test_missing_input_exits_2_with_the_os_error(capsys, tmp_path, cp2cp2_path):
    missing = str(tmp_path / "missing.json")
    for argv in (["validate", missing], ["equiv", cp2cp2_path, missing],
                 ["realize", missing, "--mode", "mod2"]):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert err == f"error: [Errno 2] No such file or directory: {missing!r}\n"


@pytest.mark.parametrize("text", ["{\r\n  \"n\": 2,\r\n  \"n\" 3}", "\ufeff{}", "{\"a\": \"x\ry\"}",
                                  "[" * 100_000])
def test_malformed_input_reports_what_text_mode_json_load_reports(capsys, tmp_path, text):
    path = tmp_path / "bad.json"
    path.write_bytes(text.encode("utf-8"))
    try:
        with open(path, encoding="utf-8") as fh:
            json.load(fh)
    except json.JSONDecodeError as exc:
        expected = f"error: {exc}\n"
    except RecursionError:
        expected = "error: malformed input: JSON nested too deeply\n"
    code, out, err = run_cli(capsys, "validate", str(path))
    assert (code, out, err) == (2, "", expected)


def _malformed_fans():
    """Malformed fan files, each with a fragment of its error message."""
    bad_b = cp2cp2_fan().to_json()
    bad_b["rays"][0]["b"] = ["1/0", "0"]
    wrong_type = cp2cp2_fan().to_json()
    wrong_type["rays"] = 5
    string_n = cp2cp2_fan().to_json()
    string_n["n"] = "2"
    three_rays = cp2cp2_fan().to_json()
    del three_rays["rays"][3]
    wide_ray = cp2cp2_fan().to_json()
    wide_ray["rays"][0] = {"b": ["1", "0", "0"], "c": ["0", "0", "0"], "v": [1, 0, 0]}
    bool_b = cp2cp2_fan().to_json()
    bool_b["rays"][0]["b"] = [True, 0]
    return {
        "zero-denominator": (bad_b, "zero denominator"),
        "top-level-list": ([1, 2], "must be a JSON object"),
        "rays-not-a-list": (wrong_type, "malformed input"),
        "n-not-an-integer": (string_n, "n must be an integer"),
        "three-rays": (three_rays, "error: one ray per vertex is required\n"),
        "ray-of-three-entries": (wide_ray,
                                 "error: ray dimension does not match the fan dimension\n"),
        "b-entry-true": (bool_b, "error: not a rational: True\n"),
    }


@pytest.mark.parametrize("case", sorted(_malformed_fans()))
def test_loader_failures_exit_2(capsys, tmp_path, case):
    data, message = _malformed_fans()[case]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    for command in ("validate", "charts", "invariants"):
        code, out, err = run_cli(capsys, command, str(path))
        assert code == 2, (command, err)
        assert err.startswith("error:") and message in err
        assert out == ""


@pytest.mark.parametrize("text", ["0.5", ".5", "1e1000", "1E-3", "1_000", "1/2.0", "1/1e3"])
def test_rationals_are_integers_or_fractions(capsys, tmp_path, cp2cp2_path, text):
    """b, c, sphere positions and --dir take an optional sign, digits and
    optionally "/" and digits: no decimal point, exponent or underscore."""
    message = f"error: not a rational: {text!r}\n"
    for part in ("b", "c"):
        data = cp2cp2_fan().to_json()
        data["rays"][0][part] = [text, "0"]
        path = tmp_path / f"bad_{part}.json"
        path.write_text(json.dumps(data))
        assert run_cli(capsys, "validate", str(path)) == (2, "", message)
    data = octahedron_complex().to_json()
    data["positions"] = [[str(x) for x in p] for p in octahedron_positions()]
    data["positions"][0][0] = text
    path = tmp_path / "bad_positions.json"
    path.write_text(json.dumps(data))
    assert run_cli(capsys, "realize", str(path), "--mode", "sphere") == (2, "", message)
    assert run_cli(capsys, "invariants", cp2cp2_path, "--todd", f"--dir={text},1") == (2, "", message)


_DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()


@pytest.mark.skipif(not _DIGIT_LIMIT, reason="this interpreter converts integers of any length")
@pytest.mark.parametrize("case", ["rational", "json-integer", "option", "fixture"])
def test_numbers_past_the_digit_limit_exit_2_naming_the_value_and_the_limit(capsys, tmp_path,
                                                                           case):
    """A rational, a JSON integer, an option value or a fixture size with more
    digits than ``int`` converts (4300 by default) is a usage error that names
    the value and the limit, not the interpreter's advice on its settings."""
    digits = _DIGIT_LIMIT + 700
    long = "9" * digits
    data = cp2cp2_fan().to_json()
    path = tmp_path / "long.json"
    if case == "rational":
        data["rays"][0]["b"] = ["1/" + long, "0"]
        path.write_text(json.dumps(data))
        argv, value = ["validate", str(path)], "not a rational: denominator"
    elif case == "json-integer":
        data["rays"][0]["v"] = [12345, 0]
        path.write_text(json.dumps(data).replace("12345", long))
        argv, value = ["validate", str(path)], "malformed input: JSON integer"
    elif case == "option":
        path.write_text(json.dumps(octahedron_complex().to_json()))
        argv, value = ["realize", str(path), "--mode", "unimodular", "--bound", long], "--bound"
    else:
        argv = ["fixtures", f"cyclic:4:{long}", "--dir", str(tmp_path)]
        value = "fixture cyclic:<n>:<m>"
    message = (f"error: {value} 999999999999999... has {digits} digits, "
               f"more than the limit of {_DIGIT_LIMIT}\n")
    assert run_cli(capsys, *argv) == (2, "", message)


@pytest.mark.parametrize("data, mode", [([1, 2], "mod2")] + [
    ({"m": 0, "facets": []}, mode) for mode in ("mod2", "unimodular", "toric-sign")])
def test_complex_loader_failure_exits_2(capsys, tmp_path, data, mode):
    path = tmp_path / "bad_complex.json"
    path.write_text(json.dumps(data))
    code, out, err = run_cli(capsys, "realize", str(path), "--mode", mode)
    assert code == 2 and err.startswith("error:") and out == ""


@pytest.mark.parametrize("fan", [cp2cp2_fan(), octahedron_fan()], ids=["cp2cp2", "octahedron"])
def test_each_top_facet_is_factored_once_per_command(capsys, monkeypatch, tmp_path, fan):
    """Within one command every (part, top facet) adjugate is read, and computed
    once: each read returns the same object.  Validation and invariants build no dual
    vector; the chart tables build one integer-scaled dual basis
    (``_scaled_dual``) per top facet."""
    path = tmp_path / "fan.json"
    path.write_text(json.dumps(fan.to_json()))
    results, duals = {}, []
    adjugate = TopologicalFan._adjugate

    def spy(self, part, facet):
        out = adjugate(self, part, facet)
        results.setdefault((part, facet), []).append(out)
        return out

    monkeypatch.setattr(TopologicalFan, "_adjugate", spy)
    scaled_dual = TopologicalFan._scaled_dual
    monkeypatch.setattr(TopologicalFan, "_scaled_dual",
                        lambda self, facet: duals.append(facet) or scaled_dual(self, facet))
    base = ",".join(map(str, fan.complex.facets[0]))
    for argv, expected in (
            (["validate"], 0),
            (["charts", "--kernel", base, "--transitions", "--cocycle", "--faceposet"],
             len(fan.complex.facets)),
            (["invariants"], 0)):
        results.clear()
        duals.clear()
        code, _, _ = run_cli(capsys, argv[0], str(path), *argv[1:])
        assert code == 0
        assert len(duals) == expected, argv
        assert set(results) == {(part, f) for part in "bv" for f in fan.complex.facets}, argv
        for key, outs in results.items():
            assert all(out is outs[0] for out in outs), (argv, key)


def test_validate_bad_usage(capsys):
    code, _, _ = run_cli(capsys, "validate")
    assert code == 2


def test_invariants_report(capsys, cp2cp2_path):
    code, out, _ = run_cli(capsys, "invariants", cp2cp2_path)
    assert code == 0
    result = json.loads(out)["result"]
    assert result["betti"] == [1, 2, 1]
    assert result["graded_ranks"] == [1, 2, 1]
    assert result["todd_genus"] == 1
    assert result["weights"]["3,4"] == -1


def test_invariants_direction_flag(capsys, cp2cp2_path):
    # leading-dash values need the = form
    code, out, _ = run_cli(capsys, "invariants", cp2cp2_path, "--todd", "--dir=-1,-3/2")
    assert code == 0
    assert json.loads(out)["result"]["todd_genus"] == 1


@pytest.mark.parametrize("direction", ["1,2,3,4,5", "1"])
def test_invariants_direction_of_wrong_length_exits_2(capsys, cp2cp2_path, direction):
    code, out, err = run_cli(capsys, "invariants", cp2cp2_path, "--todd", f"--dir={direction}")
    assert code == 2 and out == ""
    count = len(direction.split(","))
    assert err == f"error: direction has {count} coordinates, the fan has dimension 2\n"


@pytest.mark.parametrize("selector", ["--betti", "--pontrjagin", "--weights"])
def test_invariants_direction_without_todd_exits_2(capsys, cp2cp2_path, selector):
    code, out, err = run_cli(capsys, "invariants", cp2cp2_path, selector, "--dir", "0,0")
    assert (code, out) == (2, "")
    assert err == "error: --dir applies only to --todd\n"


def test_todd_in_dimension_zero_is_the_points_genus(capsys, tmp_path):
    """No nonzero direction exists in R^0, so nothing is drawn: the cone of the
    empty face is all of R^0 and the point's Todd genus is 1, for --todd and for
    the full report alike, on the fan validate accepts.  A given direction has
    no coordinate to give and still exits 2."""
    path = tmp_path / "point.json"
    path.write_text(json.dumps({"n": 0, "complex": {"m": 0, "facets": []}, "rays": []}))
    assert run_cli(capsys, "validate", str(path))[0] == 0
    code, out, err = run_cli(capsys, "invariants", str(path), "--todd")
    assert (code, err) == (0, "") and json.loads(out)["result"] == {"todd_genus": 1}
    code, out, err = run_cli(capsys, "invariants", str(path))
    result = json.loads(out)["result"]
    assert (code, err) == (0, "") and result["todd_genus"] == 1 and result["betti"] == [1]
    code, out, err = run_cli(capsys, "invariants", str(path), "--todd", "--dir", "0")
    assert (code, out) == (2, "")
    assert err == "error: direction has 1 coordinates, the fan has dimension 0\n"


def test_negative_dimension_exits_2(capsys, tmp_path, cp2cp2_path):
    """A negative n is refused by the fan constructor, so no command gets a verdict from it."""
    path = tmp_path / "negative.json"
    path.write_text(json.dumps({"n": -1, "complex": {"m": 0, "facets": []}, "rays": []}))
    with pytest.raises(ValueError, match=r"^n must be a non-negative integer, not -1$"):
        TopologicalFan(-1, SimplicialComplex(0, []), [])
    message = "error: n must be a non-negative integer, not -1\n"
    for argv in (["validate", str(path)], ["invariants", str(path)], ["charts", str(path)],
                 ["equiv", str(path), cp2cp2_path], ["equiv", cp2cp2_path, str(path)],
                 ["surgery", str(path), "--suspend"],
                 ["surgery", cp2cp2_path, "--product", str(path)]):
        assert run_cli(capsys, *argv) == (2, "", message), argv


def test_negative_vertex_count_exits_2(capsys, tmp_path):
    """A negative m is refused by the complex constructor, in a fan and on its own."""
    complex_json = {"m": -1, "facets": []}
    complex_path = tmp_path / "negative.complex.json"
    complex_path.write_text(json.dumps(complex_json))
    fan_path = tmp_path / "negative.fan.json"
    fan_path.write_text(json.dumps({"n": 2, "complex": complex_json, "rays": []}))
    message = "error: m must be a non-negative integer, not -1\n"
    for argv in (["validate", str(fan_path)], ["realize", str(complex_path), "--mode", "mod2"]):
        assert run_cli(capsys, *argv) == (2, "", message), argv


def test_validate_of_an_empty_complex_fails_completeness_only(capsys, tmp_path):
    path = tmp_path / "empty.json"
    path.write_text(json.dumps({"n": 2, "complex": {"m": 0, "facets": []}, "rays": []}))
    code, out, err = run_cli(capsys, "validate", str(path))
    result = json.loads(out)["result"]
    assert (code, err) == (1, "")
    assert result["fan_condition_ok"] and result["nonsingularity_ok"]
    assert not result["completeness_ok"]
    assert result["witnesses"] == {"completeness": {"kind": "empty"}}


def test_charts_report(capsys, cp2cp2_path):
    code, out, _ = run_cli(
        capsys, "charts", cp2cp2_path, "--kernel", "1,2", "--cocycle", "--faceposet"
    )
    assert code == 0
    result = json.loads(out)["result"]
    assert result["cocycle"]["ok"]
    assert result["conjugation_equivariant"]
    assert result["kernel"]["base"] == [1, 2]
    assert result["face_poset"]["rank_counts"] == {"0": 1, "1": 4, "2": 4}


def test_charts_transitions(capsys, cp2cp2_path):
    code, out, _ = run_cli(capsys, "charts", cp2cp2_path, "--transitions")
    assert code == 0
    mats = json.loads(out)["result"]["transitions"]
    assert len(mats) == 16  # all ordered facet pairs
    wanted = next(m for m in mats if m["source"] == [1, 2] and m["target"] == [2, 3])
    entry = next(e for e in wanted["entries"] if e["row"] == 3 and e["col"] == 1)
    assert entry["value"] == [-1, 1, 0, 1, -1]


def test_equiv_command(capsys, tmp_path, cp2cp2_path):
    from topfan.fans import TopologicalFan
    from topfan.ring import RElem

    fan = cp2cp2_fan()
    rays = list(fan.rays)
    rays[0] = rays[0].right_mul(RElem(2, 3, 1))
    scaled = TopologicalFan(2, fan.complex, rays)
    other = tmp_path / "scaled.json"
    other.write_text(json.dumps(scaled.to_json()))

    code, out, _ = run_cli(capsys, "equiv", cp2cp2_path, str(other), "--mode", "h")
    assert code == 0
    report = json.loads(out)
    assert list(report) == ["command", "inputs", "elapsed_ms", "stats", "result"]
    assert report["stats"] == {"candidates": 4, "nodes": 5, "backtracks": 0}
    result = report["result"]
    assert result["equivalent"]
    assert result["sigma"] == {"1": 1, "2": 2, "3": 3, "4": 4}
    assert result["scalars"]["1"] == [2, 1, 3, 1, 1]

    code, out, _ = run_cli(capsys, "equiv", cp2cp2_path, str(other), "--mode", "strict")
    assert code == 1
    report = json.loads(out)
    assert report["result"] == {"equivalent": False, "mode": "strict"}
    assert report["stats"] == {"candidates": 0, "nodes": 0, "backtracks": 0}


def test_surgery_roundtrip(capsys, tmp_path, cp2cp2_path):
    code, out, _ = run_cli(capsys, "surgery", cp2cp2_path, "--stellar", "1,2")
    assert code == 0
    fan = TopologicalFan.from_json(json.loads(out))
    assert fan.m == 5
    path = tmp_path / "stellar.json"
    path.write_text(out)
    code, out2, _ = run_cli(capsys, "validate", str(path))
    assert code == 0

    code, out3, _ = run_cli(capsys, "surgery", cp2cp2_path, "--suspend")
    assert code == 0
    assert TopologicalFan.from_json(json.loads(out3)).n == 3


def test_surgery_requires_an_operation(capsys, cp2cp2_path):
    code, _, err = run_cli(capsys, "surgery", cp2cp2_path)
    assert code == 2


@pytest.mark.parametrize("flags", [["--stellar", "1,2", "--suspend"],
                                   ["--suspend", "--product", "other.json"],
                                   ["--stellar", "1,2", "--product", "other.json"]])
def test_surgery_takes_exactly_one_operation(capsys, cp2cp2_path, flags):
    code, out, err = run_cli(capsys, "surgery", cp2cp2_path, *flags)
    assert code == 2
    assert out == ""
    assert "not allowed with argument" in err


@pytest.mark.parametrize("operation, fan_condition", [
    (["--suspend"],
     {"kind": "cone-overlap", "pair": [[1, 2, 5], [2, 3, 5]], "point": ["-1", "0", "0"]}),
    (["--stellar", "2,3"],
     {"kind": "cone-overlap", "pair": [[1, 2], [2, 5]], "point": ["-1", "1"]}),
], ids=["suspend", "stellar"])
def test_surgery_of_an_invalid_fan_exits_2_with_the_witnesses(capsys, tmp_path, operation,
                                                              fan_condition):
    """cp2cp2 with ray 1's b negated: the output fails its fan condition, and its
    completeness is then reported as not checked."""
    data = cp2cp2_fan().to_json()
    data["rays"][0]["b"] = [str(-Fraction(x)) for x in data["rays"][0]["b"]]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    witnesses = {"fan_condition": fan_condition, "completeness": {"kind": "fan-condition-failed"}}
    assert run_cli(capsys, "surgery", str(path), *operation) == (
        2, "", f"error: surgery output failed validation: {witnesses}\n")


@pytest.mark.parametrize("argv", [
    ["invariants", "--todd", "--dir="],
    ["charts", "--kernel="],
    ["surgery", "--stellar="],
])
def test_empty_option_values_are_parsed_not_ignored(capsys, cp2cp2_path, argv):
    code, out, err = run_cli(capsys, argv[0], cp2cp2_path, *argv[1:])
    assert code == 2, (out, err)
    assert err.startswith("error: ")


@pytest.mark.parametrize("value", ["0_1,2,3,4", "+1,2,3,4", " 1,2,3,4", "\u0661,2,3,4",
                                   "1,,2", "1,2,", "-1,2,3,4", "1;2;3;4"])
@pytest.mark.parametrize("command", [["realize", "barnette.complex.json", "--mode", "toric-sign",
                                      "--normalize"],
                                     ["charts", "barnette.fan.json", "--kernel"],
                                     ["surgery", "barnette.fan.json", "--stellar"]])
def test_facet_options_take_ascii_vertex_numbers_only(capsys, tmp_path, command, value):
    """``int`` alone would read "0_1", "+1", " 1" and the Arabic-Indic one as vertex 1."""
    run_cli(capsys, "fixtures", "barnette", "--dir", str(tmp_path))
    name, path, *options, option = command
    code, out, err = run_cli(capsys, name, str(tmp_path / path), *options, f"{option}={value}")
    assert (code, out) == (2, "")
    assert err == f"error: {option} takes comma-separated vertex numbers, not {value!r}\n"


@pytest.mark.parametrize("value", ["\u0661", "\uff12", " 1", "1 ", "+4", "1_0", "-1", "1.0", ""])
def test_realize_bound_takes_ascii_digits_only(capsys, tmp_path, value):
    """``int`` alone would read the Arabic-Indic one, " 1", "+4" and "1_0" as a bound."""
    run_cli(capsys, "fixtures", "barnette", "--dir", str(tmp_path))
    code, out, err = run_cli(capsys, "realize", str(tmp_path / "barnette.complex.json"),
                             "--mode", "unimodular", f"--bound={value}")
    assert (code, out) == (2, "")
    assert err == f"error: --bound takes a number in ASCII digits, not {value!r}\n"


@pytest.mark.parametrize("name", ["cyclic:4", "cyclic:4:7:1", "cyclic:+4:7", "cyclic: 4:7",
                                  "cyclic:4:1_0", "cyclic:\u0664:\u0667", "cyclic:4:", "cyclic:"])
def test_cyclic_fixture_takes_two_ascii_numbers(capsys, tmp_path, name):
    code, out, err = run_cli(capsys, "fixtures", name, "--dir", str(tmp_path))
    assert (code, out) == (2, "")
    assert err == f"error: fixture cyclic:<n>:<m> takes n and m in ASCII digits, not {name!r}\n"
    assert list(tmp_path.iterdir()) == []


def test_cyclic_fixture_names_its_file_by_the_numbers(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "fixtures", "cyclic:04:7", "--dir", str(tmp_path))
    assert code == 0
    assert list(json.loads(out)["written"]) == ["cyclic_4_7.complex.json"]


def test_cyclic_fixture_with_many_vertices(capsys, tmp_path):
    """The cyclic 4-polytope with m vertices has m(m - 3)/2 facets."""
    code, out, _ = run_cli(capsys, "fixtures", "cyclic:4:120", "--dir", str(tmp_path))
    assert code == 0
    assert list(json.loads(out)["written"]) == ["cyclic_4_120.complex.json"]
    data = json.loads((tmp_path / "cyclic_4_120.complex.json").read_text())
    assert data["m"] == 120 and len(data["facets"]) == 7020


def test_realize_empty_normalize_is_parsed_not_ignored(capsys, tmp_path):
    path = tmp_path / "square.json"
    path.write_text(json.dumps(SimplicialComplex(4, [(1, 2), (2, 3), (3, 4), (4, 1)]).to_json()))
    code, out, err = run_cli(capsys, "realize", str(path), "--mode", "unimodular",
                             "--normalize=")
    assert code == 2
    assert out == "" and err.startswith("error: ")


@pytest.mark.parametrize("mode", ["sphere", "mod2"])
@pytest.mark.parametrize("option, value", [("--normalize", "9,9,9"), ("--bound", "7"),
                                           ("--bound", "0")])
def test_realize_options_of_the_labeling_modes_exit_2_elsewhere(capsys, tmp_path, mode,
                                                                 option, value):
    data = octahedron_complex().to_json()
    data["positions"] = [[str(x) for x in p] for p in octahedron_positions()]
    path = tmp_path / "oct.json"
    path.write_text(json.dumps(data))
    code, out, err = run_cli(capsys, "realize", str(path), "--mode", mode, option, value)
    assert code == 2 and out == ""
    assert err == f"error: {option} does not apply to --mode {mode}\n"


@pytest.mark.parametrize("data, argv, message", [
    (barnette_complex().to_json(), ["realize", "--mode", "unimodular", "--bound", "0"],
     "bound must be >= 1"),
    (segment_fan().to_json(), ["surgery", "--stellar", "1"], "cannot subdivide a single vertex"),
    ({"m": 4, "facets": [[1, 2, 3], [1, 2, 4]],
      "positions": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"], ["-1", "-1", "-1"]]},
     ["realize", "--mode", "sphere"], "need a pure 2-dimensional pseudomanifold"),
    ({"m": 6, "facets": [[1, 2], [2, 3], [1, 3], [4, 5], [5, 6], [4, 6]]},
     ["realize", "--mode", "toric-sign"], "dual graph must be connected"),
], ids=["bound-0", "stellar-of-a-vertex", "sphere-of-two-triangles", "disconnected-toric-sign"])
def test_refused_inputs_exit_2_with_their_message(capsys, tmp_path, data, argv, message):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(data))
    command, *options = argv
    assert run_cli(capsys, command, str(path), *options) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("mode", ["mod2", "unimodular", "toric-sign"])
def test_realize_non_pure_complex_exits_2_in_every_labeling_mode(capsys, tmp_path, mode):
    path = tmp_path / "non_pure.json"
    path.write_text(json.dumps({"m": 4, "facets": [[1, 2], [2, 3, 4]]}))
    code, out, err = run_cli(capsys, "realize", str(path), "--mode", mode)
    assert code == 2 and out == ""
    assert err == "error: complex must be pure\n"


def _write_repeated_vertex_files(tmp_path):
    """A fan and a complex whose first facet repeats a vertex: P^2 with [1, 1, 2]."""
    facets = [[1, 1, 2], [2, 3], [3, 1]]
    fan = projective_fan(2).to_json()
    fan["complex"]["facets"] = facets
    fan_path, complex_path = tmp_path / "fan.json", tmp_path / "complex.json"
    fan_path.write_text(json.dumps(fan))
    complex_path.write_text(json.dumps({"m": 3, "facets": facets}))
    return str(fan_path), str(complex_path)


@pytest.mark.parametrize("command", [["validate"], ["realize", "--mode", "unimodular"],
                                     ["realize", "--mode", "toric-sign"],
                                     ["realize", "--mode", "mod2"]])
def test_facet_repeating_a_vertex_exits_2(capsys, tmp_path, command):
    fan_path, complex_path = _write_repeated_vertex_files(tmp_path)
    path = fan_path if command == ["validate"] else complex_path
    code, out, err = run_cli(capsys, command[0], path, *command[1:])
    assert (code, out) == (2, "")
    assert err == "error: facet [1, 1, 2] repeats a vertex\n"


@pytest.mark.parametrize("mode", ["unimodular", "toric-sign"])
def test_realize_normalization_off_the_complex_exits_2(capsys, tmp_path, mode):
    path = tmp_path / "square.json"
    path.write_text(json.dumps(SimplicialComplex(4, [(1, 2), (2, 3), (3, 4), (4, 1)]).to_json()))
    code, out, err = run_cli(capsys, "realize", str(path), "--mode", mode, "--normalize", "1,3")
    assert (code, out) == (2, "")
    assert err == "error: normalization (1, 3) is not a facet\n"


def test_degenerate_direction_prints_rationals(capsys, cp2cp2_path):
    code, out, err = run_cli(capsys, "invariants", cp2cp2_path, "--todd", "--dir=0,0")
    assert code == 2
    assert err == "error: direction 0,0 lies on a cone wall\n"
    code, out, err = run_cli(capsys, "invariants", cp2cp2_path, "--todd", "--dir=1/2,0")
    assert code == 2
    assert err == "error: direction 1/2,0 lies on a cone wall\n"


@pytest.mark.parametrize("field", ["n", "complex", "rays"])
def test_missing_top_level_field_is_named(capsys, tmp_path, field):
    data = cp2cp2_fan().to_json()
    del data[field]
    path = tmp_path / "fan.json"
    path.write_text(json.dumps(data))
    code, out, err = run_cli(capsys, "validate", str(path))
    assert code == 2
    assert err == f"error: malformed input: missing field '{field}'\n"


def test_missing_complex_field_is_named(capsys, tmp_path):
    data = cp2cp2_fan().to_json()
    del data["complex"]["m"]
    path = tmp_path / "fan.json"
    path.write_text(json.dumps(data))
    code, _, err = run_cli(capsys, "validate", str(path))
    assert code == 2
    assert err == "error: malformed input: missing field 'm'\n"


def _set_first_v_entry(data, value):
    data["rays"][0]["v"][0] = value


def _set_first_vertex(data, value):
    data["complex"]["facets"][0][0] = value


def _set_m(data, value):
    data["complex"]["m"] = value


@pytest.mark.parametrize("mutate, field, value", [
    (_set_first_v_entry, "v", 1.4),
    (_set_first_vertex, "facets", 1.7),
    (_set_first_vertex, "facets", True),
    (_set_m, "m", 4.0),
])
def test_non_integer_v_entry_or_fan_vertex_exits_2(capsys, tmp_path, mutate, field, value):
    data = cp2cp2_fan().to_json()
    mutate(data, value)
    path = tmp_path / "fan.json"
    path.write_text(json.dumps(data))
    for argv in (["validate", str(path)], ["equiv", str(path), str(path)]):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert err == f"error: not an integer in {field}: {value!r}\n"


def _labeled_cp2cp2(tmp_path, labels):
    data = cp2cp2_fan().to_json()
    data["complex"]["labels"] = labels
    path = tmp_path / "labeled.json"
    path.write_text(json.dumps(data))
    return str(path)


@pytest.mark.parametrize("labels, message", [
    ({"0": "x"}, "label key '0' is not a vertex in 1..4"),
    ({"99": "far"}, "label key '99' is not a vertex in 1..4"),
    ({"-1": "neg"}, "label key '-1' is not a vertex in 1..4"),
    ({"one": "x"}, "label key 'one' is not a vertex in 1..4"),
    ({" 1": "x"}, "label key ' 1' is not a vertex in 1..4"),
    ({"9" * 5000: "x"}, f"label key '{'9' * 5000}' is not a vertex in 1..4"),
    ({"1": 5}, "label of vertex '1' is not a string: 5"),
    ({"1": ["a"]}, "label of vertex '1' is not a string: ['a']"),
    ({"1": "a", "01": "b"}, "label key '01' names vertex 1 a second time"),
    # digits of other scripts are not ASCII digits, as everywhere else in the input
    ({"\u0661": "a"}, "label key '\u0661' is not a vertex in 1..4"),
    ({"1": "a", "\uff12": "b"}, "label key '\uff12' is not a vertex in 1..4"),
])
def test_labels_off_the_vertices_or_not_strings_exit_2(capsys, tmp_path, labels, message):
    code, out, err = run_cli(capsys, "surgery", _labeled_cp2cp2(tmp_path, labels), "--suspend")
    assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("labels", [[], 0, "", False, [1], "x", 3])
def test_labels_that_are_not_an_object_exit_2_naming_the_field(capsys, tmp_path, labels):
    code, out, err = run_cli(capsys, "validate", _labeled_cp2cp2(tmp_path, labels))
    assert (code, out) == (2, "")
    assert err == f"error: labels must be an object from vertices to strings, not {labels!r}\n"


@pytest.mark.parametrize("labels", ["absent", None, {}])
def test_absent_null_or_empty_labels_mean_no_labels(capsys, tmp_path, cp2cp2_path, labels):
    path = cp2cp2_path if labels == "absent" else _labeled_cp2cp2(tmp_path, labels)
    code, out, err = run_cli(capsys, "validate", path)
    assert (code, err) == (0, "")
    assert json.loads(out)["result"]["ok"]


def test_labels_on_distinct_vertices_pass_through_surgery(capsys, tmp_path):
    labels = {"1": "a", "4": "d"}
    code, out, _ = run_cli(capsys, "surgery", _labeled_cp2cp2(tmp_path, labels), "--suspend")
    assert code == 0 and json.loads(out)["complex"]["labels"] == labels


def _octahedron_with_first_vertex(value):
    data = octahedron_complex().to_json()
    data["facets"][0][0] = value
    return data


@pytest.mark.parametrize("data, field, value", [
    (_octahedron_with_first_vertex(1.7), "facets", 1.7),
    (_octahedron_with_first_vertex(True), "facets", True),
    ({"m": True, "facets": [[1]]}, "m", True),
])
def test_non_integer_complex_vertex_or_m_exits_2(capsys, tmp_path, data, field, value):
    path = tmp_path / "complex.json"
    path.write_text(json.dumps(data))
    code, out, err = run_cli(capsys, "realize", str(path), "--mode", "mod2")
    assert (code, out) == (2, "")
    assert err == f"error: not an integer in {field}: {value!r}\n"


HUGE_M = 10 ** 12


def _write_huge_m_files(tmp_path):
    """A complex and a fan on the vertex set 1..HUGE_M with one covered vertex."""
    complex_json = {"m": HUGE_M, "facets": [[1]]}
    complex_path = tmp_path / "huge.complex.json"
    complex_path.write_text(json.dumps(complex_json))
    fan_path = tmp_path / "huge.fan.json"
    fan_path.write_text(json.dumps({"n": 1, "complex": complex_json,
                                    "rays": [{"b": ["1"], "v": [1]}]}))
    return str(complex_path), str(fan_path)


def test_huge_vertex_count_exits_2_with_a_short_message(capsys, tmp_path):
    """An m far beyond the facets is counted, never enumerated."""
    complex_path, fan_path = _write_huge_m_files(tmp_path)
    for argv in (["validate", fan_path], ["realize", complex_path, "--mode", "mod2"]):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert err == f"error: vertex 2 appears in no facet ({HUGE_M - 1} uncovered in all)\n"


def _write_deeply_nested(tmp_path, depth=200_000):
    path = tmp_path / "nested.json"
    path.write_text("[" * depth + "]" * depth)
    return str(path)


@pytest.mark.parametrize("argv", [["validate", "{nested}"],
                                  ["realize", "{nested}", "--mode", "mod2"],
                                  ["equiv", "{nested}", "{fan}"],
                                  ["equiv", "{fan}", "{nested}"]],
                         ids=["validate", "realize", "equiv-first", "equiv-second"])
def test_deeply_nested_json_exits_2(capsys, tmp_path, cp2cp2_path, argv):
    nested = _write_deeply_nested(tmp_path)
    argv = [a.format(nested=nested, fan=cp2cp2_path) for a in argv]
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == "error: malformed input: JSON nested too deeply\n"


def _square_ring(k):
    """k distinct integer points around the boundary of a square about the origin, in cyclic order."""
    r = k // 4
    sides = ([(r, t) for t in range(-r, r)] + [(t, r) for t in range(r, -r, -1)]
             + [(-r, t) for t in range(r, -r, -1)] + [(t, -r) for t in range(-r, r)])
    return sides[::len(sides) // k][:k]


DEEP_POLYGON, DEEP_EQUATOR = 1500, 1200


def _write_deep_inputs(tmp_path, polygon=DEEP_POLYGON, equator=DEEP_EQUATOR):
    """A polygon fan (n = 2, v alternating e1, e2) and the bipyramid over an equator with positions.

    Each search of these files assigns one vertex per depth, so the depth is m.
    """
    facets = [sorted((i, i % polygon + 1)) for i in range(1, polygon + 1)]
    rays = [{"b": [str(x), str(y)], "v": [[1, 0], [0, 1]][i % 2]}
            for i, (x, y) in enumerate(_square_ring(polygon))]
    fan = {"n": 2, "complex": {"m": polygon, "facets": facets}, "rays": rays}
    top, bottom = equator + 1, equator + 2
    sphere = {
        "m": equator + 2,
        "facets": [sorted((i, i % equator + 1, pole)) for i in range(1, equator + 1)
                   for pole in (top, bottom)],
        "positions": [[str(x), str(y), "0"] for x, y in _square_ring(equator)]
        + [["0", "0", "1"], ["0", "0", "-1"]],
    }
    paths = {}
    for name, data in (("fan", fan), ("polygon", fan["complex"]), ("sphere", sphere)):
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(json.dumps(data))
    return paths


@pytest.mark.parametrize("argv", [["equiv", "{fan}", "{fan}"],
                                  ["realize", "{polygon}", "--mode", "unimodular"],
                                  ["realize", "{polygon}", "--mode", "mod2"],
                                  ["realize", "{sphere}", "--mode", "sphere"]],
                         ids=["equiv", "unimodular", "mod2", "sphere"])
def test_searches_deeper_than_the_recursion_limit_succeed(capsys, tmp_path, argv):
    paths = _write_deep_inputs(tmp_path)
    assert min(DEEP_POLYGON, DEEP_EQUATOR) > sys.getrecursionlimit()
    code, out, err = run_cli(capsys, *[a.format(**paths) for a in argv])
    assert (code, err) == (0, "")
    json.loads(out)


def test_realize_square_toric(capsys, tmp_path):
    k = SimplicialComplex(4, [(1, 2), (2, 3), (3, 4), (4, 1)])
    path = tmp_path / "square.json"
    path.write_text(json.dumps(k.to_json()))
    code, out, _ = run_cli(
        capsys, "realize", str(path), "--mode", "toric-sign", "--bound", "2",
        "--normalize", "1,2",
    )
    assert code == 0
    result = json.loads(out)["result"]
    assert result["note"] == "necessary conditions satisfied"
    assert set(result["assignment"]) == {"1", "2", "3", "4"}


def test_realize_barnette_toric_sign_unsat(capsys, tmp_path):
    # fixtures -> realize chain; the written facet lists double as the
    # determinant reference orders
    code, _, _ = run_cli(capsys, "fixtures", "barnette", "--dir", str(tmp_path))
    assert code == 0
    path = tmp_path / "barnette.complex.json"
    code, out, _ = run_cli(
        capsys, "realize", str(path), "--mode", "toric-sign", "--bound", "1",
        "--normalize", "1,2,3,4",
    )
    assert code == 1
    result = json.loads(out)["result"]
    assert result == {"kind": "unsat", "bound": 1}

    code, out, _ = run_cli(
        capsys, "realize", str(path), "--mode", "unimodular", "--bound", "1",
        "--normalize", "1,2,3,4",
    )
    assert code == 0
    dets = json.loads(out)["result"]["facet_dets"]
    assert all(abs(d) == 1 for d in dets.values())


def test_realize_report_carries_search_stats(capsys, tmp_path):
    """The search's counts sit next to the result, never inside it."""
    run_cli(capsys, "fixtures", "barnette", "--dir", str(tmp_path))
    path = str(tmp_path / "barnette.complex.json")
    code, out, _ = run_cli(capsys, "realize", path, "--mode", "toric-sign", "--bound", "1")
    assert code == 1
    report = json.loads(out)
    assert report["result"] == {"kind": "unsat", "bound": 1}
    assert "seed" not in report
    stats = report["stats"]
    assert set(stats) == {"nodes", "candidates", "backtracks", "probes", "pruned"}
    assert stats["nodes"] == stats["backtracks"] == stats["candidates"] + 1 > 1
    assert stats["probes"] >= stats["pruned"] > 0

    code, out, _ = run_cli(capsys, "realize", path, "--mode", "mod2")
    assert code == 0
    assert json.loads(out)["stats"]["nodes"] == 5  # the root, four free vertices

    k = cyclic_polytope_boundary(4, 16)
    clique_path = tmp_path / "c4_16.json"
    clique_path.write_text(json.dumps(k.to_json()))
    code, out, _ = run_cli(capsys, "realize", str(clique_path), "--mode", "mod2")
    assert code == 1
    assert json.loads(out)["stats"] is None  # the clique decides; no search runs


def test_charts_and_realize_take_no_seed(capsys, tmp_path, cp2cp2_path):
    """No verdict command takes a seed: every direction is drawn from Random(0)."""
    code, out, _ = run_cli(capsys, "charts", cp2cp2_path, "--cocycle")
    assert code == 0 and "seed" not in json.loads(out)
    path = tmp_path / "oct.json"
    path.write_text(json.dumps(octahedron_complex().to_json()))
    for argv in (["validate", cp2cp2_path], ["invariants", cp2cp2_path],
                 ["charts", cp2cp2_path, "--cocycle"], ["equiv", cp2cp2_path, cp2cp2_path],
                 ["realize", str(path), "--mode", "mod2"]):
        code, out, _ = run_cli(capsys, *argv, "--seed", "5")
        assert code == 2 and out == "", argv


def test_invariants_draws_completeness_once(capsys, monkeypatch, cp2cp2_path):
    """The command's validation is the only one; the invariants reuse it."""
    code, out, _ = run_cli(capsys, "invariants", cp2cp2_path)
    assert code == 0
    expected = json.loads(out)["result"]
    draws = []
    draw = TopologicalFan._draw

    def drawn(self, rng, part):
        draws.append((part, rng.getstate() == random.Random(0).getstate()))
        return draw(self, rng, part)

    monkeypatch.setattr(TopologicalFan, "_draw", drawn)
    code, out, _ = run_cli(capsys, "invariants", cp2cp2_path)
    assert code == 0
    # one completeness draw, read by the fan condition and the validation; one Todd draw
    assert draws == [("b", True), ("v", True)]
    assert json.loads(out)["result"] == expected


def test_charts_on_an_invalid_fan_exits_1_like_invariants(capsys, tmp_path):
    fan = TopologicalFan(1, SimplicialComplex(3, [(1,), (2,), (3,)]),
                         [Ray.from_parts((1,)), Ray.from_parts((-1,)), Ray.from_parts((1,))])
    path = tmp_path / "three_rays.json"
    path.write_text(json.dumps(fan.to_json()))
    code, out, err = run_cli(capsys, "invariants", str(path))
    assert code == 1 and err == ""
    validation = json.loads(out)["result"]["validation"]
    assert validation["witnesses"]["fan_condition"]["kind"] == "cone-overlap"
    code, out, err = run_cli(capsys, "charts", str(path), "--cocycle")
    assert code == 1 and err == ""
    assert json.loads(out)["result"] == {"validation": validation}


def test_realize_toric_sign_contradiction(capsys, tmp_path):
    rp2 = SimplicialComplex(6, [
        (1, 2, 3), (1, 2, 4), (1, 3, 5), (1, 4, 6), (1, 5, 6),
        (2, 3, 6), (2, 4, 5), (2, 5, 6), (3, 4, 5), (3, 4, 6),
    ])
    path = tmp_path / "rp2.json"
    path.write_text(json.dumps(rp2.to_json()))
    code, out, _ = run_cli(capsys, "realize", str(path), "--mode", "toric-sign")
    assert code == 1
    result = json.loads(out)["result"]
    assert result["kind"] == "infeasible"
    assert result["reason"] == "sign-contradiction"
    assert result["witness"]["cycle"]


def test_realize_mod2_clique_obstruction(capsys, tmp_path):
    from topfan.complexes import cyclic_polytope_boundary

    k = cyclic_polytope_boundary(4, 16)
    path = tmp_path / "c4_16.json"
    path.write_text(json.dumps(k.to_json()))
    code, out, _ = run_cli(capsys, "realize", str(path), "--mode", "mod2")
    assert code == 1
    result = json.loads(out)["result"]
    assert result["kind"] == "infeasible" and result["reason"] == "clique"
    assert sorted(result["witness"]["clique"]) == list(range(1, 17))

    oct_path = tmp_path / "oct.json"
    from topfan.fixtures import octahedron_complex

    oct_path.write_text(json.dumps(octahedron_complex().to_json()))
    code, out, _ = run_cli(capsys, "realize", str(oct_path), "--mode", "mod2")
    assert code == 0
    assert json.loads(out)["result"]["mode"] == "mod2"


def test_realize_mod2_exhausts_the_wheel_w5(capsys, tmp_path):
    """The wheel W5 (hub 1, rim 2..6) needs four colours but has no K4, so the
    clique check cannot decide it and the search over 3 classes runs out."""
    rim = [2, 3, 4, 5, 6]
    facets = [[1, v] for v in rim] + [sorted(e) for e in zip(rim, rim[1:] + rim[:1])]
    path = tmp_path / "w5.json"
    path.write_text(json.dumps({"m": 6, "facets": facets}))
    code, out, err = run_cli(capsys, "realize", str(path), "--mode", "mod2")
    report = json.loads(out)
    assert (code, err) == (1, "")
    assert report["result"] == {"kind": "infeasible", "reason": "exhausted",
                                "witness": {"classes": 3}}
    assert report["stats"] == {"nodes": 4, "candidates": 3, "backtracks": 4}


def _wheel_w5():
    rim = [2, 3, 4, 5, 6]
    return SimplicialComplex(6, [(1, v) for v in rim] + list(zip(rim, rim[1:] + rim[:1])))


@pytest.mark.parametrize("complex_", [
    octahedron_complex(), _wheel_w5(), cyclic_polytope_boundary(4, 7),
    cyclic_polytope_boundary(4, 16)], ids=["octahedron", "W5", "C4(7)", "C4(16)"])
def test_realize_mod2_reports_what_search_labeling_returns(capsys, tmp_path, complex_):
    """The CLI's mod2 mode is the library's: the clique first, then the search."""
    path = tmp_path / "complex.json"
    path.write_text(json.dumps(complex_.to_json()))
    code, out, err = run_cli(capsys, "realize", str(path), "--mode", "mod2")
    report = json.loads(out)
    result = search_labeling(LabelingProblem(complex_, "mod2"))
    assert (report["result"], report["stats"]) == (result.to_json(), result.stats)
    assert (code, err) == (0 if isinstance(result, LabelingSolution) else 1, "")


def test_realize_sphere_mode(capsys, tmp_path):
    from topfan.fixtures import octahedron_complex, octahedron_positions

    data = octahedron_complex().to_json()
    data["positions"] = [[str(x) for x in p] for p in octahedron_positions()]
    path = tmp_path / "oct.json"
    path.write_text(json.dumps(data))
    code, out, _ = run_cli(capsys, "realize", str(path), "--mode", "sphere")
    assert code == 0
    fan = TopologicalFan.from_json(json.loads(out))
    assert fan.validate().ok


def test_realize_sphere_on_the_seven_vertex_torus_exits_2(capsys, tmp_path):
    """The 7-vertex torus is a 2-dimensional pseudomanifold whose 1-skeleton is K7."""
    facets = [sorted((i + d) % 7 + 1 for d in t) for i in range(7) for t in ((0, 1, 3), (0, 2, 3))]
    positions = [[str(x) for x in p] for p in octahedron_positions()] + [["1", "1", "1"]]
    path = tmp_path / "torus.json"
    path.write_text(json.dumps({"m": 7, "facets": facets, "positions": positions}))
    assert run_cli(capsys, "realize", str(path), "--mode", "sphere") == (
        2, "", "error: no proper 4-coloring found\n")


@pytest.mark.parametrize("positions", [5, "one position per vertex", [1] * 6, [None] * 6])
def test_realize_sphere_malformed_positions_exit_2(capsys, tmp_path, positions):
    from topfan.fixtures import octahedron_complex

    data = octahedron_complex().to_json()
    data["positions"] = positions
    path = tmp_path / "oct.json"
    path.write_text(json.dumps(data))
    code, out, err = run_cli(capsys, "realize", str(path), "--mode", "sphere")
    assert code == 2 and out == ""
    assert err.startswith("error:") and "Traceback" not in err


def test_unknown_fixture_and_sphere_without_positions_exit_2_with_the_error_prefix(
        capsys, tmp_path):
    code, out, err = run_cli(capsys, "fixtures", "bogus", "--dir", str(tmp_path))
    assert (code, out, err) == (2, "", "error: unknown fixture 'bogus'\n")
    assert os.listdir(tmp_path) == []

    path = tmp_path / "oct.json"
    path.write_text(json.dumps(octahedron_complex().to_json()))
    code, out, err = run_cli(capsys, "realize", str(path), "--mode", "sphere")
    assert (code, out) == (2, "")
    assert err == "error: sphere mode needs a 'positions' field in the complex file\n"


def test_fixtures_roundtrip(capsys, tmp_path):
    for name in ("cp2cp2", "barnette", "octahedron", "icosahedron", "cyclic:3:6"):
        code, out, _ = run_cli(capsys, "fixtures", name, "--dir", str(tmp_path))
        assert code == 0
        manifest = json.loads(out)["written"]
        for filename in manifest:
            with open(tmp_path / filename, "r", encoding="utf-8") as fh:
                data = json.load(fh)
            if filename.endswith(".fan.json") or name == "cp2cp2":
                fan = TopologicalFan.from_json(data)
                assert fan.to_json() == TopologicalFan.from_json(fan.to_json()).to_json()
            else:
                k = SimplicialComplex.from_json(data)
                assert SimplicialComplex.from_json(k.to_json()) == k


def test_console_script_subprocess(cp2cp2_path):
    proc = subprocess.run(
        [sys.executable, "-m", "topfan.cli", "validate", cp2cp2_path],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["result"]["ok"]


def test_parser_is_built_once_and_shared(capsys, cp2cp2_path):
    for argv in (["validate", cp2cp2_path], ["validate"], ["charts", cp2cp2_path]):
        run_cli(capsys, *argv)
    assert build_parser() is build_parser()
    assert build_parser.cache_info().currsize == 1


def _outcome(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    return code, re.sub(r'"elapsed_ms": [0-9.]+', '"elapsed_ms": _', out), err


def test_shared_parser_keeps_no_state_between_calls(capsys, monkeypatch, cp2cp2_path):
    argvs = [
        ["validate", cp2cp2_path],
        ["surgery", cp2cp2_path, "--suspend", "--stellar", "1"],
        ["--help"],
        ["validate", "--help"],
        ["charts", cp2cp2_path, "--kernel", "1,2"],
    ]
    first = []
    for argv in argvs:
        build_parser.cache_clear()
        first.append(_outcome(capsys, argv))
    assert [code for code, _, _ in first] == [0, 2, 0, 0, 0]
    assert first[2][1].startswith("usage: topfan") and "not allowed with" in first[1][2]
    for order in (range(len(argvs)), reversed(range(len(argvs)))):
        for i in order:
            assert _outcome(capsys, argvs[i]) == first[i], argvs[i]
    monkeypatch.setattr(cli, "build_parser", build_parser.__wrapped__)
    assert [_outcome(capsys, argv) for argv in argvs] == first


def test_invariants_deterministic(capsys, cp2cp2_path):
    code1, out1, _ = run_cli(capsys, "invariants", cp2cp2_path, "--todd")
    code2, out2, _ = run_cli(capsys, "invariants", cp2cp2_path, "--todd")
    assert code1 == code2 == 0
    assert json.loads(out1)["result"] == json.loads(out2)["result"]


# -- fuzzing the loaders through the CLI ------------------------------------------

_JUNK = [None, True, 0, -1, 2, 7, 1.5, "x", "1/0", "3/2", [], [0], [1, 2, 3], {}, {"b": [1]}]


def _json_paths(node, prefix=()):
    yield prefix
    children = node.items() if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ())
    for key, child in children:
        yield from _json_paths(child, prefix + (key,))


@st.composite
def _mutated(draw, document):
    """The document with one to three of its values retyped, deleted, or resized."""
    data = json.loads(json.dumps(document))
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(list(_json_paths(data))))
        if not path:
            data = copy.deepcopy(draw(st.sampled_from(_JUNK)))
            continue
        parent = data
        for key in path[:-1]:
            parent = parent[key]
        target = parent[path[-1]]
        kind = draw(st.sampled_from(["retype", "delete", "grow", "shrink"]))
        if kind == "delete":
            del parent[path[-1]]
        elif kind == "grow" and isinstance(target, list):
            target.append(copy.deepcopy(target[-1]) if target else 1)
        elif kind == "shrink" and isinstance(target, list) and target:
            target.pop()
        else:
            parent[path[-1]] = copy.deepcopy(draw(st.sampled_from(_JUNK)))
    return data


def _sphere_complex():
    data = octahedron_complex().to_json()
    data["positions"] = [[str(x) for x in p] for p in octahedron_positions()]
    return data


@settings(max_examples=60, deadline=None)
@given(
    fan=st.one_of(_mutated(cp2cp2_fan().to_json()), _mutated(octahedron_fan().to_json())),
    complex_=_mutated(_sphere_complex()),
    direction=st.sampled_from(["1,2", "1", "1,2,3", "1,2,3,4,5", "0,0", "1/0,1", "a,b",
                               "-1,-3/2", "2,-1,3/5"]),
)
def test_cli_survives_mutated_inputs(fan, complex_, direction):
    with tempfile.TemporaryDirectory() as tmp:
        fan_path = os.path.join(tmp, "fan.json")
        complex_path = os.path.join(tmp, "complex.json")
        with open(fan_path, "w", encoding="utf-8") as fh:
            json.dump(fan, fh)
        with open(complex_path, "w", encoding="utf-8") as fh:
            json.dump(complex_, fh)
        runs = [
            ["validate", fan_path],
            ["charts", fan_path, "--transitions", "--cocycle", "--faceposet"],
            ["invariants", fan_path, "--todd", f"--dir={direction}"],
            ["realize", complex_path, "--mode", "sphere"],
            ["realize", complex_path, "--mode", "mod2"],
        ] + [["equiv", fan_path, fan_path, "--mode", mode] for mode in ("strict", "d", "h")]
        for argv in runs:
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()) as err:
                code = main(argv)
            assert code in (0, 1, 2), (argv, code)
            assert "Traceback" not in err.getvalue()


# -- the JSON writer against json.dumps(indent=2) ---------------------------------

_SCALARS = [0, 1, -1, 7, 10 ** 30, -(10 ** 40), 2 ** 64 + 1, True, False, None,
            0.1, 1e300, -0.0, 2.5e-8, float("nan"), float("inf"), float("-inf"),
            "", "plain", "é and 日本 and \U0001F600", 'say "hi"', "back\\slash",
            "\x00\x01\n\t\r\x1f\x7f", " /</"]
_KEYS = ["", "k", "é", 'q"uote', "\\", "\n", 0, -3, 10 ** 20, 0.5, -0.0, float("nan"),
         float("inf"), True, False, None]


def _random_json_value(rng, depth):
    kind = rng.random() if depth else 0
    if kind < 0.4:
        return rng.choice(_SCALARS + [rng.randint(-10 ** 6, 10 ** 6), rng.uniform(-1e6, 1e6)])
    items = [_random_json_value(rng, depth - 1) for _ in range(rng.randint(0, 4))]
    if kind < 0.6:
        return items
    if kind < 0.75:
        return tuple(items)
    return {rng.choice(_KEYS): item for item in items}


def _written(data):
    stream = io.StringIO()
    cli._write_json(data, stream)
    return stream.getvalue()


def test_writer_matches_json_dumps_on_seeded_values():
    rng = random.Random(163)
    fixed = [[], {}, (), [[]], [{}], {"a": {}}, [(), [[], {}]], {"a": [[]]}, _SCALARS,
             tuple(_SCALARS), {k: i for i, k in enumerate(_KEYS)}, *_SCALARS]
    for value in fixed + [_random_json_value(rng, 5) for _ in range(400)]:
        assert _written(value) == json.dumps(value, indent=2) + "\n", value


@pytest.mark.parametrize("value", [Fraction(1, 2), [1, [2, {"a": Fraction(3)}]],
                                   {"a": [1, {2}]}, [[object()], Fraction(1)],
                                   {(1, 2): 3}, {"a": {Fraction(1): 2}}])
def test_writer_raises_the_stdlib_type_error_and_writes_nothing(value):
    with pytest.raises(TypeError) as expected:
        json.dumps(value, indent=2)
    stream = io.StringIO()
    with pytest.raises(TypeError) as raised:
        cli._write_json(value, stream)
    assert str(raised.value) == str(expected.value)
    assert stream.getvalue() == ""


class _Color(enum.IntEnum):
    RED = 1


class _Text(str):
    pass


class _Real(float):
    pass


@pytest.mark.parametrize("scalar", [_Text("a"), _Color.RED, _Real(0.5)],
                         ids=["str", "IntEnum", "float"])
def test_writer_raises_on_scalar_subclasses_and_writes_nothing(scalar):
    """json.dumps writes these as their base type; the writer takes scalars by exact type."""
    name = type(scalar).__name__
    for value, message in [([1, scalar], f"Object of type {name} is not JSON serializable"),
                           ({"a": scalar}, f"Object of type {name} is not JSON serializable"),
                           ({scalar: 1}, f"keys must be str, int, float, bool or None, "
                                         f"not {name}")]:
        stream = io.StringIO()
        with pytest.raises(TypeError, match=re.escape(message)):
            cli._write_json(value, stream)
        assert stream.getvalue() == ""


def _is_record(value):
    return isinstance(value, dict) and all(
        type(item) in cli._SCALAR_TEXT
        or isinstance(item, (list, tuple)) and all(type(x) in cli._SCALAR_TEXT for x in item)
        for item in value.values())


def _memoized(data):
    """The objects whose text the writer memoized in one write of ``data``, with their indents."""
    records = {}
    assert cli._encode(data, "\n", records) + "\n" == _written(data)
    objects = {}
    stack = [data]
    while stack:
        value = stack.pop()
        if isinstance(value, (dict, list, tuple)):
            objects[id(value)] = value
            stack.extend(value.values() if isinstance(value, dict) else value)
    return [(objects[key], indent) for key, indent in records]


def test_writer_encodes_a_repeated_record_once_per_indent():
    record = {"row": 1, "col": 2, "value": [1, 1, 0, 1, -1]}
    repeated = [record, record, record]
    assert _written(repeated) == json.dumps(repeated, indent=2) + "\n"
    assert _memoized(repeated) == [(record, "\n  ")]
    nested = {"a": record, "b": [record, [record, record]], "c": record}
    assert _written(nested) == json.dumps(nested, indent=2) + "\n"
    assert sorted(len(indent) for value, indent in _memoized(nested)
                  if value is record) == [3, 5, 7]


def test_writer_memoizes_no_dict_that_holds_a_dict():
    inner = {"x": 1, "y": [2, 3]}
    holders = [{"inner": inner, "z": 4}, {"list": [inner], "z": 4}, {"deep": [[1]], "z": 4}]
    data = [holders, holders, inner]
    assert _written(data) == json.dumps(data, indent=2) + "\n"
    memoized = _memoized(data)
    assert memoized and all(value is inner for value, _ in memoized)


def _shared_json_value(rng, depth, made):
    """Like ``_random_json_value``, but a container is now and then one made before."""
    if made and rng.random() < 0.3:
        return rng.choice(made)
    kind = rng.random() if depth else 0
    if kind < 0.3:
        return rng.choice(_SCALARS + [rng.randint(-10 ** 6, 10 ** 6)])
    if kind < 0.5:  # a record: scalars and lists of scalars
        value = {rng.choice(_KEYS): rng.choice(_SCALARS) for _ in range(rng.randint(1, 3))}
        value["value"] = [rng.randint(-9, 9) for _ in range(5)]
    else:
        items = [_shared_json_value(rng, depth - 1, made) for _ in range(rng.randint(0, 4))]
        value = items if kind < 0.7 else tuple(items) if kind < 0.8 else {
            rng.choice(_KEYS): item for item in items}
    made.append(value)
    return value


def test_writer_matches_json_dumps_on_seeded_values_that_share_sub_values():
    rng = random.Random(271)
    for _ in range(300):
        value = _shared_json_value(rng, 5, [])
        assert _written(value) == json.dumps(value, indent=2) + "\n", value
        assert all(_is_record(record) for record, _ in _memoized(value)), value


@pytest.mark.parametrize("record", [{"a": Fraction(1, 2)}, {"a": [1, Fraction(1)]},
                                    {"a": 1, "b": {2}}, {"a": [1, object()]}])
def test_writer_raises_the_stdlib_type_error_on_a_shared_record(record):
    value = {"first": [record, 1], "again": [record, record]}
    with pytest.raises(TypeError) as expected:
        json.dumps(value, indent=2)
    stream = io.StringIO()
    with pytest.raises(TypeError) as raised:
        cli._write_json(value, stream)
    assert str(raised.value) == str(expected.value)
    assert stream.getvalue() == ""


def _fixture_argvs(name, directory, written):
    """Every command on the fixture's files: fan commands on fans, labeling modes on complexes."""
    argvs = [["fixtures", name, "--dir", directory]]
    for filename in written:
        path = os.path.join(directory, filename)
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
        if "rays" in data:
            facet = ",".join(map(str, data["complex"]["facets"][0]))
            argvs += [["validate", path], ["invariants", path],
                      ["charts", path, "--kernel", facet, "--transitions", "--cocycle",
                       "--faceposet"],
                      ["surgery", path, "--stellar", facet], ["surgery", path, "--suspend"],
                      ["surgery", path, "--product", path]]
            argvs += [["equiv", path, path, "--mode", mode] for mode in ("strict", "d", "h")]
        else:
            facet = ",".join(map(str, data["facets"][0]))
            argvs += [["realize", path, "--mode", mode, "--bound", "1", "--normalize", facet]
                      for mode in ("toric-sign", "unimodular")]
            argvs.append(["realize", path, "--mode", "mod2"])
            if "positions" in data:
                argvs.append(["realize", path, "--mode", "sphere"])
    return argvs


@pytest.mark.parametrize("name", ["cp2cp2", "octahedron", "barnette"])
def test_every_command_prints_json_dumps_indent_2(capsys, tmp_path, name):
    code, out, _ = run_cli(capsys, "fixtures", name, "--dir", str(tmp_path))
    assert code == 0
    written = json.loads(out)["written"]
    for filename in written:
        text = (tmp_path / filename).read_text(encoding="utf-8")
        assert text == json.dumps(json.loads(text), indent=2) + "\n", filename
    for argv in _fixture_argvs(name, str(tmp_path), written):
        code, out, err = run_cli(capsys, *argv)
        assert code in (0, 1) and err == "", (argv, err)
        assert out == json.dumps(json.loads(out), indent=2) + "\n", argv
