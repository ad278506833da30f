"""Tests of the benchmark itself: inputs, checkers, tracer, metric names.

Run from the repository root:

    PYTHONPATH=src python -m pytest -q perfbench
"""

import contextlib
import io
import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import checks  # noqa: E402
import inputs  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
from topfan import cli  # noqa: E402


def _files(directory):
    out = {}
    for name in sorted(os.listdir(directory)):
        with open(os.path.join(directory, name), "rb") as fh:
            out[name] = fh.read()
    return out


def _call(job):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(job.argv)
    return code, buf.getvalue()


@pytest.fixture(scope="module")
def mixes(tmp_path_factory):
    return {wl: inputs.build(wl, 7, str(tmp_path_factory.mktemp(wl))) for wl in inputs.WORKLOADS}


def _job(jobs, label):
    return next(j for j in jobs if j.label == label)


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_same_seed_gives_identical_inputs(tmp_path, workload):
    first = inputs.build(workload, 11, str(tmp_path / "a"))
    second = inputs.build(workload, 11, str(tmp_path / "b"))
    other = inputs.build(workload, 12, str(tmp_path / "c"))
    assert _files(tmp_path / "a") == _files(tmp_path / "b")
    assert _files(tmp_path / "a") != _files(tmp_path / "c")
    assert [j.label for j in first] == [j.label for j in second]
    assert len(first) >= 40


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_every_corrupted_fan_exits_1_with_a_witness(tmp_path, seed):
    jobs = [j for j in inputs.build("fan-check", seed, str(tmp_path))
            if j.label.startswith("validate:corrupt")]
    assert len(jobs) >= 8
    for job in jobs:
        code, out = _call(job)
        assert code == 1, (job.label, code)
        assert checks.check(job, code, out) is None


def _mutated(job, edit):
    code, out = _call(job)
    assert checks.check(job, code, out) is None, job.label
    data = json.loads(out)
    edit(data)
    return checks.check(job, code, json.dumps(data))


def _first(jobs, prefix):
    return next(j for j in jobs if j.label.startswith(prefix))


def test_checkers_reject_corrupted_outputs(mixes):
    fan_check, chart_ring, label_search = (mixes[w] for w in inputs.WORKLOADS)

    def set_key(*path_and_value):
        *path, value = path_and_value

        def edit(data):
            for key in path[:-1]:
                data = data[key]
            data[path[-1]] = value
        return edit

    valid = _first(fan_check, "validate:valid-n2")
    assert _mutated(valid, set_key("result", "completeness_ok", False))
    assert _mutated(valid, set_key("result", "involutive", not valid.expect["involutive"]))
    corrupt = _first(fan_check, "validate:corrupt")
    assert _mutated(corrupt, set_key("result", "witnesses", {}))

    def move_overlap_point(data):
        witness = data["result"]["witnesses"].get("fan_condition")
        if witness and witness["kind"] == "cone-overlap":
            witness["point"] = [str(-int(x.split("/")[0])) for x in witness["point"]]
        else:
            data["result"]["ok"] = True
    assert _mutated(corrupt, move_overlap_point)

    surgery = _first(fan_check, "surgery:stellar")
    assert _mutated(surgery, lambda d: d["complex"].update(m=d["complex"]["m"] - 1))

    def scale_v(data):
        data["rays"][0]["v"] = [2 * x for x in data["rays"][0]["v"]]
    assert _mutated(surgery, scale_v)
    sphere = _first(fan_check, "sphere:octahedron")
    assert _mutated(sphere, lambda d: d["rays"][0].update(b=["7", "0", "0"]))

    charts = _job(chart_ring, "anchor:charts:cp2cp2")
    assert _mutated(charts, set_key("result", "cocycle", "ok", False))
    assert _mutated(charts, lambda d: d["result"]["transitions"].pop())
    assert _mutated(charts, set_key("result", "face_poset", "rank_counts", "1", 5))
    invariants = _job(chart_ring, "anchor:invariants:cp2cp2")
    assert _mutated(invariants, set_key("result", "graded_ranks", [1, 3, 1]))
    assert _mutated(invariants, set_key("result", "weights", "1,2", -1))

    unimodular = _job(label_search, "unimodular:octahedron")

    def double_label(data):
        data["result"]["assignment"]["1"] = [2 * x for x in data["result"]["assignment"]["1"]]
    assert _mutated(unimodular, double_label)
    mod2 = _job(label_search, "mod2:octahedron")

    def repeat_class(data):
        assignment = data["result"]["assignment"]
        assignment["2"] = assignment["1"]
    assert _mutated(mod2, repeat_class)
    clique = _job(label_search, "mod2:C4(16)-clique")
    assert _mutated(clique, lambda d: d["result"]["witness"]["clique"].pop())
    unsat = _job(label_search, "anchor:toric-sign-barnette-b1")
    assert _mutated(unsat, set_key("result", "bound", 2))

    for mode in ("strict", "d", "h"):
        copy = _first(label_search, f"equiv:{mode}-copy")

        def swap(data):
            sigma = data["result"]["sigma"]
            sigma["1"], sigma["2"] = sigma["2"], sigma["1"]
        assert _mutated(copy, swap)
    h_copy = _first(label_search, "equiv:h-copy")
    assert _mutated(h_copy, lambda d: d["result"]["scalars"]["1"].__setitem__(0, 5))

    perturbed = _first(label_search, "equiv:h-perturbed")
    code, out = _call(perturbed)
    assert checks.check(perturbed, code, out) is None
    assert checks.check(perturbed, 0, out) is not None


def test_tracer_counts_through_from_imports_and_uninstall_restores(mixes):
    import topfan.charts
    import topfan.cli
    import topfan.fans
    import topfan.ring

    before = {name: dict(vars(mod)) for name, mod in sys.modules.items()
              if name == "topfan" or name.startswith("topfan.")}
    classes = (topfan.fans.TopologicalFan, topfan.ring.RElem)
    before_classes = {cls: dict(vars(cls)) for cls in classes}

    trace = tracer.LayerTracer()
    trace.install()
    try:
        assert topfan.charts.pairing is not before["topfan.charts"]["pairing"]
        job = _job(mixes["chart-ring"], "anchor:charts:cp2cp2")
        code, out = _call(job)
    finally:
        trace.uninstall()
    assert checks.check(job, code, out) is None
    assert trace.stats["ring.pairing"].calls > 0  # reached through charts' own binding
    assert trace.stats["fans.TopologicalFan.validate"].calls >= 1
    assert trace.stats["ring.RElem.__mul__"].calls > 0
    assert trace.stats["charts.check_cocycle"].self_s > 0

    for name, namespace in before.items():
        for attr, value in namespace.items():
            assert vars(sys.modules[name])[attr] is value, (name, attr)
    for cls, namespace in before_classes.items():
        for attr, value in namespace.items():
            assert vars(cls)[attr] is value, (cls, attr)


def test_tracer_records_zero_calls_for_deleted_names():
    trace = tracer.LayerTracer({"linalg": ("no_such_function",), "nowhere": ("f",),
                                "fans": ("NoClass.method",)})
    trace.install()
    trace.uninstall()
    assert sorted(trace.missing) == ["fans.NoClass.method", "linalg.no_such_function",
                                     "nowhere.f"]
    assert all(stat.calls == 0 for stat in trace.stats.values())


def test_benchmark_json_matches_the_metrics_printed():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(inputs.WORKLOADS)


def test_refuses_to_run_without_the_program(tmp_path):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", "fan-check",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
