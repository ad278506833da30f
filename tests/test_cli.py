"""CLI exit codes, JSON reports, and artifact round-trips."""

import contextlib
import copy
import io
import json
import os
import subprocess
import sys
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from topfan import linalg
from topfan.cli import main
from topfan.complexes import SimplicialComplex, cyclic_polytope_boundary
from topfan.fans import Ray, TopologicalFan
from topfan.fixtures import cp2cp2_fan, octahedron_complex, octahedron_fan, octahedron_positions


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
    assert report["seed"] == 0
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


def _malformed_fans():
    """Malformed fan files, each with a fragment of its error message."""
    bad_b = cp2cp2_fan().to_json()
    bad_b["rays"][0]["b"] = ["1/0", "0"]
    wrong_type = cp2cp2_fan().to_json()
    wrong_type["rays"] = 5
    string_n = cp2cp2_fan().to_json()
    string_n["n"] = "2"
    return {
        "zero-denominator": (bad_b, "zero denominator"),
        "top-level-list": ([1, 2], "must be a JSON object"),
        "rays-not-a-list": (wrong_type, "malformed input"),
        "n-not-an-integer": (string_n, "n must be an integer"),
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


@pytest.mark.parametrize("data, mode", [([1, 2], "mod2")] + [
    ({"m": 0, "facets": []}, mode) for mode in ("mod2", "unimodular", "toric-sign")])
def test_complex_loader_failure_exits_2(capsys, tmp_path, data, mode):
    path = tmp_path / "bad_complex.json"
    path.write_text(json.dumps(data))
    code, out, err = run_cli(capsys, "realize", str(path), "--mode", mode)
    assert code == 2 and err.startswith("error:") and out == ""


@pytest.mark.parametrize("fan", [cp2cp2_fan(), octahedron_fan()], ids=["cp2cp2", "octahedron"])
def test_each_top_facet_is_factored_once_per_command(capsys, monkeypatch, tmp_path, fan):
    """Two ``linalg.inverse`` calls per top facet (its b- and v-blocks) serve a whole command."""
    path = tmp_path / "fan.json"
    path.write_text(json.dumps(fan.to_json()))
    calls = []
    inverse = linalg.inverse
    monkeypatch.setattr(linalg, "inverse", lambda rows: calls.append(rows) or inverse(rows))
    base = ",".join(map(str, fan.complex.facets[0]))
    for argv in (["validate"], ["charts", "--kernel", base, "--transitions", "--cocycle",
                                "--faceposet"], ["invariants"]):
        calls.clear()
        code, _, _ = run_cli(capsys, argv[0], str(path), *argv[1:])
        assert code == 0
        assert len(calls) == 2 * len(fan.complex.facets), argv


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


def test_todd_in_dimension_zero_exits_2(capsys, tmp_path):
    # no nonzero direction exists, so the draw for the Todd genus must fail, not spin
    path = tmp_path / "point.json"
    path.write_text(json.dumps({"n": 0, "complex": {"m": 0, "facets": []}, "rays": []}))
    code, _, err = run_cli(capsys, "invariants", str(path), "--todd")
    assert code == 2 and err.startswith("error:")


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
    result = json.loads(out)["result"]
    assert result["equivalent"]
    assert result["sigma"] == {"1": 1, "2": 2, "3": 3, "4": 4}
    assert result["scalars"]["1"] == [2, 1, 3, 1, 1]

    code, _, _ = run_cli(capsys, "equiv", cp2cp2_path, str(other), "--mode", "strict")
    assert code == 1


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
    assert report["seed"] is None
    stats = report["stats"]
    assert set(stats) == {"nodes", "candidates", "backtracks"}
    assert stats["nodes"] == stats["backtracks"] == stats["candidates"] + 1 > 1

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
    code, out, _ = run_cli(capsys, "charts", cp2cp2_path, "--cocycle")
    assert code == 0 and json.loads(out)["seed"] is None
    code, _, _ = run_cli(capsys, "charts", cp2cp2_path, "--cocycle", "--seed", "5")
    assert code == 2
    path = tmp_path / "oct.json"
    path.write_text(json.dumps(octahedron_complex().to_json()))
    code, _, _ = run_cli(capsys, "realize", str(path), "--mode", "mod2", "--seed", "5")
    assert code == 2


def test_invariants_draws_completeness_once(capsys, monkeypatch, cp2cp2_path):
    """The command's own --seed validation is the only one; the invariants reuse it."""
    code, out, _ = run_cli(capsys, "invariants", cp2cp2_path, "--seed", "0")
    assert code == 0
    expected = json.loads(out)["result"]
    seeds, draws = [], []
    check_complete = TopologicalFan.check_complete
    generic_direction = TopologicalFan.generic_direction

    def counted(self, seed=0):
        seeds.append(seed)
        return check_complete(self, seed=seed)

    def drawn(self, rng, part):
        draws.append(part)
        return generic_direction(self, rng, part)

    monkeypatch.setattr(TopologicalFan, "check_complete", counted)
    monkeypatch.setattr(TopologicalFan, "generic_direction", drawn)
    code, out, _ = run_cli(capsys, "invariants", cp2cp2_path, "--seed", "5")
    assert code == 0
    # the fan condition's certificate draws with seed 0, the validation with --seed
    assert seeds == [0, 5]
    assert draws.count("b") == 2
    report = json.loads(out)
    assert report["seed"] == 5
    assert report["result"] == expected


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


def test_seed_embedded_and_deterministic(capsys, cp2cp2_path):
    code1, out1, _ = run_cli(capsys, "invariants", cp2cp2_path, "--todd", "--seed", "5")
    code2, out2, _ = run_cli(capsys, "invariants", cp2cp2_path, "--todd", "--seed", "5")
    r1, r2 = json.loads(out1), json.loads(out2)
    assert r1["seed"] == r2["seed"] == 5
    assert r1["result"] == r2["result"]


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
        ]
        for argv in runs:
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()) as err:
                code = main(argv)
            assert code in (0, 1, 2), (argv, code)
            assert "Traceback" not in err.getvalue()
