"""Benchmark of the topfan command line: three seeded job mixes, run in-process.

Run from the repository root:

    python3 perfbench/run.py --workload fan-check --seed 1 --seconds 40 --trace 0

Load model: a closed loop with one caller in one process.  Each job is one
``topfan.cli.main(argv)`` call on generated JSON files, with stdout captured
and checked by ``checks.py``; the next job starts when the previous one has
returned.  A round is the workload's whole job list.  Rounds repeat while the
next one is expected to end within ``--seconds``; at least three always run.

Host speed: on a shared host the same job can take twice as long from one
minute to the next.  So a fixed stdlib reference loop (``reference_time``)
is timed before the first job and after every job, and each latency is
scaled by ``REFERENCE_S`` over the mean of the two loop times around it.
The printed lines also give the raw wall-clock numbers.

``--trace 0`` prints the end-to-end metrics, in reference seconds:

* ``setup_s``: median over seven set-ups of importing ``topfan`` afresh and
  generating and writing the seeded inputs (bytecode is cached after the
  first);
* ``wall_s``: time to all verdicts of one round, the checking left out:
  median over rounds of the round's summed ``cli.main`` latencies;
* ``job_p50_ms`` / ``job_p90_ms``: median over rounds of the 50th and 90th
  percentile of the round's ``cli.main`` latencies;
* ``peak_rss_mb``: ``ru_maxrss`` of this process at the end of the first
  round, so it covers set-up plus one pass over the mix whatever the number
  of rounds.

``--trace 1`` runs untraced rounds for half the time, then wraps the public
functions of every ``topfan`` module (``tracer.py``) and runs traced rounds
for the rest; it prints per-layer counts and self-time shares per traced
round, and the tracing overhead.

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  The lines above it give the same numbers for
people, with the host and every failed job.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
from fractions import Fraction
from time import perf_counter

import checks
import inputs
import tracer

SETUPS = 7
# at least three rounds, so that a median over rounds ignores one round run
# at an odd host speed
MIN_ROUNDS = 3
# Latencies are reported in reference seconds: measured seconds scaled by
# REFERENCE_S over the time the reference loop takes around the same job.
# REFERENCE_S is about the loop's time on a busy 2-vCPU Intel Xeon host
# under Python 3.11, so reference seconds are close to wall seconds there.
REFERENCE_S = 0.0006
MODULES = tuple(tracer.LAYERS)

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "job_p50_ms": "ms",
    "job_p90_ms": "ms",
    "peak_rss_mb": "MB",
}

# Layers that every workload reaches report a self time; the others report
# only a share, since a time metric must never read exactly zero.
_TIMED_MODULES = ("cli", "complexes", "linalg", "fans")
_CALLS = (
    "linalg.rref", "linalg.int_det", "linalg.kernel_basis", "linalg.solve_unique_columns",
    "linalg.inverse", "ring.dual_basis", "ring.pairing", "ring.RElem.__mul__",
    "fans.TopologicalFan.validate", "fans.TopologicalFan.check_fan_condition",
    "fans.TopologicalFan.check_complete", "fans.TopologicalFan.locate_cone",
    "fans.TopologicalFan.dual_basis", "fans.equivalent", "charts.check_cocycle",
    "charts.transition_matrix", "invariants.GradedRing.__init__", "invariants.graded_rank",
    "invariants.normal_form", "realize.search_labeling", "realize.verify_labeling",
    "realize.find_clique",
)
_SHARES = (
    "linalg.rref", "linalg.int_det", "ring.pairing", "fans.TopologicalFan.check_fan_condition",
    "fans.TopologicalFan.check_complete", "charts.check_cocycle", "realize.search_labeling",
)
_RATIOS = (
    "fans.dual_cache_hit_ratio", "fans.validate_reuse_ratio", "invariants.ring_reuse_ratio",
    "realize.clique_hit_ratio", "realize.verify_per_sat",
)

PER_LAYER = {
    "trace.overhead_frac": "fraction",
    "trace.round_s": "s",
    "trace.errors": "count",
    **{f"{mod}.calls": "count" for mod in MODULES},
    **{f"{mod}.self_share": "fraction" for mod in MODULES},
    **{f"{mod}.self_s": "s" for mod in _TIMED_MODULES},
    **{f"{key}.calls": "count" for key in _CALLS},
    "linalg.rref.cells": "count",
    "linalg.int_det.cells": "count",
    **{f"{key}.self_share": "fraction" for key in _SHARES},
    **{name: "ratio" for name in _RATIOS},
    "realize.sat_verdicts": "count",
}


def _reference_loop():
    """Fixed stdlib Fraction arithmetic, no topfan code: its time is the host's speed."""
    acc = Fraction(0)
    for i in range(1, 100):
        acc += Fraction(i % 7 + 1, i % 11 + 1) * Fraction(i % 13 + 1, 3)
    return acc


def reference_time():
    """Median of three timings of the reference loop: the host's speed now."""
    times = []
    for _ in range(3):
        start = perf_counter()
        _reference_loop()
        times.append(perf_counter() - start)
    return statistics.median(times)


class Round:
    def __init__(self):
        self.latencies = []  # reference seconds
        self.raw = []  # wall-clock seconds
        self.failures = []
        self.sat = 0
        self.elapsed = 0.0
        self.rss_mb = 0.0  # ru_maxrss when the round ended


def over_rounds(rounds, stat, raw=False):
    """Median over rounds of a statistic of each round's latencies."""
    return statistics.median(stat(r.raw if raw else r.latencies) for r in rounds)


def p90(latencies):
    return statistics.quantiles(latencies, n=10, method="inclusive")[8]


def _checkout_src():
    src = os.path.join(os.getcwd(), "src")
    if not os.path.isfile(os.path.join(src, "topfan", "__init__.py")):
        raise SystemExit("error: run from a checkout of topfan: ./src/topfan is missing")
    return src


def _fresh_import(src):
    for name in [n for n in sys.modules if n == "topfan" or n.startswith("topfan.")]:
        del sys.modules[name]
    cli = importlib.import_module("topfan.cli")
    if not os.path.abspath(cli.__file__).startswith(src + os.sep):
        raise SystemExit(f"error: imported topfan from {cli.__file__}, not from {src}")
    return cli


def setup(workload, seed, workdir, src):
    """Jobs, and the median set-up time over SETUPS fresh imports and input
    generations in reference and in wall-clock seconds."""
    times, raw = [], []
    before = reference_time()
    for _ in range(SETUPS):
        shutil.rmtree(workdir, ignore_errors=True)
        start = perf_counter()
        _fresh_import(src)
        jobs = inputs.build(workload, seed, workdir)
        raw.append(perf_counter() - start)
        after = reference_time()
        times.append(raw[-1] * REFERENCE_S / ((before + after) / 2))
        before = after
    return jobs, statistics.median(times), statistics.median(raw)


def run_job(job):
    """(wall-clock latency, failure reason or None) of one cli.main call."""
    cli = sys.modules["topfan.cli"]  # looked up per call, so a traced main is used
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = perf_counter()
        try:
            code = cli.main(job.argv)
        except Exception as exc:  # a raising job is a failed job, not a crashed benchmark
            code = exc
        latency = perf_counter() - start
    if isinstance(code, Exception):
        return latency, f"raised {type(code).__name__}: {code}"
    return latency, checks.check(job, code, out.getvalue())


def run_rounds(jobs, budget, min_rounds):
    """At least min_rounds whole rounds, then more while the next one is
    expected to end within budget seconds."""
    rounds = []
    start = perf_counter()
    before = reference_time()
    while True:
        rnd = Round()
        round_start = perf_counter()
        for job in jobs:
            latency, reason = run_job(job)
            after = reference_time()
            rnd.raw.append(latency)
            rnd.latencies.append(latency * REFERENCE_S / ((before + after) / 2))
            before = after
            if reason is not None:
                rnd.failures.append(f"{job.label} {job.argv[0]}: {reason}")
            elif job.kind == "realize" and job.expect["exit"] == 0:
                rnd.sat += 1
        rnd.elapsed = perf_counter() - round_start
        rnd.rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        rounds.append(rnd)
        if len(rounds) >= min_rounds and perf_counter() - start + rnd.elapsed > budget:
            return rounds


def _ratio(num, den):
    return num / den if den else 0.0


def _one_minus(num, den):
    """1 - num/den: the share of attempts that were saved; 0 with no attempts."""
    return 1.0 - num / den if den else 0.0


def layer_metrics(trace, rounds, wall, traced_wall, sat):
    """Per-round per-layer metrics from a tracer that saw ``rounds`` rounds."""
    stats = trace.stats
    per = float(rounds)

    def calls(key):
        return stats[key].calls / per

    totals = trace.module_totals()
    self_total = sum(s for _, s in totals.values()) or 1.0
    metrics = {
        "trace.overhead_frac": traced_wall / wall - 1.0,
        "trace.round_s": traced_wall,
        "trace.errors": sum(s.errors for s in stats.values()) / per,
    }
    for mod, (n_calls, self_s) in totals.items():
        metrics[f"{mod}.calls"] = n_calls / per
        metrics[f"{mod}.self_share"] = self_s / self_total
        if mod in _TIMED_MODULES:
            metrics[f"{mod}.self_s"] = self_s / per
    for key in _CALLS:
        metrics[f"{key}.calls"] = calls(key)
    metrics["linalg.rref.cells"] = stats["linalg.rref"].cells / per
    metrics["linalg.int_det.cells"] = stats["linalg.int_det"].cells / per
    for key in _SHARES:
        metrics[f"{key}.self_share"] = stats[key].self_s / self_total
    metrics["fans.dual_cache_hit_ratio"] = _one_minus(
        calls("ring.dual_basis"), calls("fans.TopologicalFan.dual_basis"))
    metrics["fans.validate_reuse_ratio"] = _one_minus(
        calls("fans.TopologicalFan.check_fan_condition"), calls("fans.TopologicalFan.validate"))
    metrics["invariants.ring_reuse_ratio"] = _one_minus(
        calls("invariants.GradedRing.__init__"),
        calls("invariants.graded_rank") + calls("invariants.normal_form"))
    metrics["realize.clique_hit_ratio"] = _ratio(
        stats["realize.find_clique"].results / per, calls("realize.find_clique"))
    metrics["realize.sat_verdicts"] = sat
    metrics["realize.verify_per_sat"] = _ratio(calls("realize.verify_labeling"), sat)
    return metrics


def _host():
    model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return f"python {platform.python_version()}, nproc {os.cpu_count()}, cpu {model}"


def _print_failures(rounds):
    seen = set()
    for rnd in rounds:
        for failure in rnd.failures:
            if failure not in seen:
                seen.add(failure)
                print(f"FAILED {failure}")


def _print_anchors(jobs, rounds):
    """Median latency of each fixed anchor job over the untraced rounds."""
    for idx, job in enumerate(jobs):
        if job.label.startswith("anchor:"):
            ref = statistics.median(rnd.latencies[idx] for rnd in rounds)
            raw = statistics.median(rnd.raw[idx] for rnd in rounds)
            print(f"anchor {job.label[7:]}: median {ref:.3f} reference s, {raw:.3f} s wall clock, "
                  f"over {len(rounds)} rounds")


def _print_trace_table(trace, rounds):
    print(f"{'function':58s} {'calls':>10s} {'self_s':>9s} {'errors':>6s} {'cells':>10s}")
    for key, stat in trace.stats.items():
        print(f"{key:58s} {stat.calls / rounds:10.1f} {stat.self_s / rounds:9.4f} "
              f"{stat.errors / rounds:6.1f} {stat.cells / rounds:10.0f}")
    for key in trace.missing:
        print(f"{key}: not present, recorded as 0 calls")


def _emit(metrics, units, attempted, failed):
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = _checkout_src()
    sys.path.insert(0, src)
    workdir = os.path.join(os.getcwd(), ".perfbench_work",
                           f"{args.workload}-{args.seed}-{os.getpid()}")
    try:
        jobs, setup_s, setup_raw = setup(args.workload, args.seed, workdir, src)
        print(f"# {args.workload} seed {args.seed}: {len(jobs)} jobs per round; {_host()}")
        if args.trace:
            untraced = run_rounds(jobs, args.seconds / 2, 1)
            trace = tracer.LayerTracer()
            trace.install()
            try:
                remaining = args.seconds - sum(r.elapsed for r in untraced)
                traced = run_rounds(jobs, remaining, 1)
            finally:
                trace.uninstall()
            timed, rounds = untraced, untraced + traced
            metrics = layer_metrics(trace, len(traced), over_rounds(untraced, sum),
                                    over_rounds(traced, sum), traced[0].sat)
            _print_trace_table(trace, len(traced))
            units = PER_LAYER
        else:
            rounds = timed = run_rounds(jobs, args.seconds, MIN_ROUNDS)
            metrics = {
                "setup_s": setup_s,
                "wall_s": over_rounds(rounds, sum),
                "job_p50_ms": 1000 * over_rounds(rounds, statistics.median),
                "job_p90_ms": 1000 * over_rounds(rounds, p90),
                "peak_rss_mb": rounds[0].rss_mb,
            }
            units = END_TO_END
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(os.path.dirname(workdir))

    attempted = sum(len(r.latencies) for r in rounds)
    failed = sum(len(r.failures) for r in rounds)
    _print_failures(rounds)
    _print_anchors(jobs, timed)
    print(f"rounds {len(rounds)}, jobs {attempted} (percentile samples), failed {failed}, "
          f"error_rate {failed / attempted:.4f}")
    if not args.trace:
        print(f"wall clock: setup_s {setup_raw:.6g} s, "
              f"wall_s {over_rounds(rounds, sum, True):.6g} s, "
              f"job_p50_ms {1000 * over_rounds(rounds, statistics.median, True):.6g} ms, "
              f"job_p90_ms {1000 * over_rounds(rounds, p90, True):.6g} ms")
    for name, unit in units.items():
        print(f"{name} = {metrics[name]:.6g} {unit}")
    _emit(metrics, units, attempted, failed)
    return 0


if __name__ == "__main__":
    sys.exit(main())
