"""Times of the three multi-second anchor jobs that the rounds leave out.

Run from the repository root:

    python3 perfbench/anchors.py [repeats]

Runs the Barnette cocycle (``charts --cocycle``), P3xP3 validation and the
Barnette toric-sign search at bound 3 through ``topfan.cli.main``, each
``repeats`` times (default 3), checks every output like the benchmark does,
and prints the median time of each in reference and in wall-clock seconds.
"""

from __future__ import annotations

import os
import shutil
import statistics
import sys

import inputs
import run


def main(argv):
    repeats = int(argv[0]) if argv else 3
    src = run._checkout_src()
    sys.path.insert(0, src)
    run._fresh_import(src)
    workdir = os.path.join(os.getcwd(), ".perfbench_work", f"anchors-{os.getpid()}")
    try:
        for job in inputs.anchors(workdir):
            ref, raw = [], []
            for _ in range(repeats):
                before = run.reference_time()
                latency, reason = run.run_job(job)
                after = run.reference_time()
                if reason is not None:
                    raise SystemExit(f"{job.label}: {reason}")
                raw.append(latency)
                ref.append(latency * run.REFERENCE_S / ((before + after) / 2))
            print(f"{job.label}: median {statistics.median(ref):.2f} reference s, "
                  f"{statistics.median(raw):.2f} s wall clock (range {min(raw):.2f}-"
                  f"{max(raw):.2f} s) over {repeats} runs")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
