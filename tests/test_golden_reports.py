"""Byte-exact chart and invariant reports on three fans.

``tests/golden`` holds three fan files and, per fan, the stdout of

    topfan charts FAN --kernel F --transitions --cocycle --faceposet
    topfan invariants FAN

(F the fan's first top facet) with the ``elapsed_ms`` line removed,
gzip-compressed.  The fans are cp2cp2, the octahedron and
``random_valid_fan(random.Random(24), max_m=7, max_n=3)`` from ``conftest``,
a fan with nonzero ``c`` entries whose transitions are not
conjugation-equivariant.  Each report is run from inside ``tests/golden`` so
that its ``inputs`` key is the bare file name.

A change to the chart or invariant arithmetic that moves any output byte
fails here.  To record new reports after a deliberate output change, run
``PYTHONPATH=src python tests/test_golden_reports.py`` from the repository
root.
"""

import contextlib
import gzip
import io
import json
import os
import re

import pytest

from topfan.cli import main

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")
FANS = ("cp2cp2.json", "octahedron.json", "seeded.json")
COMMANDS = ("charts", "invariants")
_ELAPSED = re.compile(r'\n  "elapsed_ms": [^\n]*,')


def _argv(command, fan_file):
    if command == "invariants":
        return ["invariants", fan_file]
    with open(os.path.join(GOLDEN, fan_file), encoding="utf-8") as fh:
        data = json.load(fh)
    first = next(f for f in data["complex"]["facets"] if len(f) == data["n"])
    kernel = ",".join(map(str, first))
    return ["charts", fan_file, "--kernel", kernel, "--transitions", "--cocycle", "--faceposet"]


def _report(command, fan_file):
    """Exit code and stdout (less ``elapsed_ms``) of one command, run inside ``GOLDEN``."""
    out = io.StringIO()
    cwd = os.getcwd()
    os.chdir(GOLDEN)
    try:
        with contextlib.redirect_stdout(out):
            code = main(_argv(command, fan_file))
    finally:
        os.chdir(cwd)
    text, removed = _ELAPSED.subn("", out.getvalue(), count=1)
    assert removed == 1
    return code, text.encode("utf-8")


def _golden_path(command, fan_file):
    return os.path.join(GOLDEN, f"{fan_file[:-len('.json')]}.{command}.out.gz")


@pytest.mark.parametrize("command", COMMANDS)
@pytest.mark.parametrize("fan_file", FANS)
def test_report_matches_golden_bytes(command, fan_file):
    code, text = _report(command, fan_file)
    assert code == 0
    with gzip.open(_golden_path(command, fan_file), "rb") as fh:
        expected = fh.read()
    assert text == expected


def test_seeded_fan_is_not_conjugation_equivariant():
    with gzip.open(_golden_path("charts", "seeded.json"), "rb") as fh:
        report = json.loads(fh.read())
    assert report["result"]["conjugation_equivariant"] is False
    assert report["result"]["cocycle"]["ok"] is True


def _record():
    for fan_file in FANS:
        for command in COMMANDS:
            code, text = _report(command, fan_file)
            assert code == 0, (command, fan_file, code)
            with open(_golden_path(command, fan_file), "wb") as fh:
                fh.write(gzip.compress(text, mtime=0))


if __name__ == "__main__":
    _record()
