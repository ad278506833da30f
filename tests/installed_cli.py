"""End-to-end checks of the installed ``topfan`` command.

Run after ``pip install .``, from any directory:

    python tests/installed_cli.py

Every check runs the ``topfan`` console script on ``PATH`` in a temporary
directory and compares its exit code and, where pinned, its output.  The
script first makes sure that ``topfan`` imports from site-packages and not
from this checkout's ``src/``, so it tests what was installed.  Stdlib only;
the address-space limit needs a POSIX ``resource`` module.  pytest does not
collect this file (no ``test_`` prefix).
"""

import json
import os
import resource
import shutil
import subprocess
import sys
import sysconfig
import tempfile
from fractions import Fraction
from pathlib import Path

CHECKOUT_SRC = Path(__file__).resolve().parents[1] / "src"


def require(ok, message):
    if not ok:
        sys.exit(f"installed_cli: {message}")


def topfan(*args, code=0, out=None, timeout=None, address_space=None):
    """Run ``topfan *args``; require exit ``code``; return stdout as text.

    ``out`` names a file that receives stdout byte for byte.  ``timeout``
    is in seconds.  ``address_space`` caps the child's address space, in
    bytes, as ``ulimit -v`` does.
    """
    print("$ topfan", *args, flush=True)

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (address_space, address_space))

    try:
        result = subprocess.run(["topfan", *args], stdout=subprocess.PIPE, timeout=timeout,
                                preexec_fn=limit if address_space else None)
    except subprocess.TimeoutExpired:
        sys.exit(f"installed_cli: topfan {' '.join(args)} ran longer than {timeout} s")
    if out is not None:
        Path(out).write_bytes(result.stdout)
    require(result.returncode == code,
            f"topfan {' '.join(args)} exited {result.returncode}, not {code}")
    return result.stdout.decode("utf-8")


def load(path):
    return json.loads(Path(path).read_text(encoding="utf-8"))


def check_installed():
    """``topfan`` imports from site-packages, not ``src/``, and its command is on PATH."""
    try:
        import topfan as package
    except ImportError:
        sys.exit("installed_cli: topfan is not installed (pip install . first)")
    where = Path(package.__file__).resolve().parent
    require(CHECKOUT_SRC not in where.parents, f"topfan imports from the checkout: {where}")
    site = {Path(sysconfig.get_path(key)).resolve() for key in ("purelib", "platlib")}
    site.add(Path(sysconfig.get_path("purelib", f"{os.name}_user")).resolve())
    require(where.parent in site, f"topfan is not installed in site-packages: {where}")
    require(shutil.which("topfan") is not None, "no topfan command on PATH")
    print(f"topfan from {where}", flush=True)


def graded_ranks_are_betti(report, name):
    r = json.loads(report)["result"]
    require(r["graded_ranks"] == r["betti"],
            f"{name}: graded ranks {r['graded_ranks']} != betti {r['betti']}")


def homeomorphism_copy(fan):
    """The fan with ray k times the scalar ((k mod 3 + 1)/2, (k mod 5 - 2)/3, (-1)^k)."""
    for k, r in enumerate(fan["rays"]):
        s, t, e = Fraction(k % 3 + 1, 2), Fraction(k % 5 - 2, 3), (-1) ** k
        r.update(b=[str(Fraction(x) * s) for x in r["b"]],
                 c=[str(Fraction(c) * s + v * t) for c, v in zip(r["c"], r["v"])],
                 v=[e * v for v in r["v"]])
    return fan


def scalars_map_each_ray(a, b, result):
    """Every reported scalar mu has b > 0 and v = +-1, and a_i * mu = b_sigma(i) entry by entry."""
    for i, j in result["sigma"].items():
        s = result["scalars"][i]
        mu_b, mu_c = Fraction(s[0], s[1]), Fraction(s[2], s[3])
        if not (s[0] * s[1] > 0 and s[4] in (1, -1)):
            return False
        x, y = a[int(i) - 1], b[j - 1]
        for xb, xc, xv, yb, yc, yv in zip(x["b"], x["c"], x["v"], y["b"], y["c"], y["v"]):
            if not (Fraction(xb) * mu_b == Fraction(yb)
                    and Fraction(xc) * mu_b + xv * mu_c == Fraction(yc)
                    and xv * s[4] == yv):
                return False
    return len(result["scalars"]) == len(a)


def main():
    check_installed()
    os.makedirs("fx")

    topfan("fixtures", "cp2cp2", "--dir", "fx")
    topfan("validate", "fx/cp2cp2.json")
    topfan("charts", "fx/cp2cp2.json", "--kernel", "1,2", "--transitions", "--cocycle",
           "--faceposet")
    topfan("invariants", "fx/cp2cp2.json")
    topfan("surgery", "fx/cp2cp2.json", "--product", "fx/cp2cp2.json", out="fx/cp2cp2_2.json")
    # the integer-scaled chart tables of cp2cp2^2 (n = 4) certify the cocycle
    text = topfan("charts", "fx/cp2cp2_2.json", "--transitions", "--cocycle")
    cocycle = json.loads(text)["result"]["cocycle"]
    require(cocycle["ok"] is True, f"cocycle of cp2cp2^2: {cocycle!r}")
    # the report, whose transitions share entry records, is json.dumps(indent=2) byte for byte
    require(text == json.dumps(json.loads(text), indent=2) + "\n",
            "charts of cp2cp2^2 differ from json.dumps(indent=2)")
    # the triple product of cp2cp2 (n = 6): invariants exits 0, and the
    # graded ranks of the integer ring equal the h-vector Betti numbers
    topfan("surgery", "fx/cp2cp2_2.json", "--product", "fx/cp2cp2.json", out="fx/cp2cp2_3.json")
    graded_ranks_are_betti(topfan("invariants", "fx/cp2cp2_3.json"), "cp2cp2^3")
    # cp2cp2^4 (n = 8) validates (exit 0): above n = 4 each block's adjugate
    # comes from one linalg.reduce_system pass, not one cofactor row per wall
    topfan("surgery", "fx/cp2cp2_3.json", "--product", "fx/cp2cp2.json", out="fx/cp2cp2_4.json")
    topfan("validate", "fx/cp2cp2_4.json")
    # its invariants fit in 1 GB of address space (ulimit -v 1000000: the degree-8
    # ring reduces 13,728 sparse rows of 6,435 columns), with graded ranks = betti
    text = topfan("invariants", "fx/cp2cp2_4.json", address_space=1_000_000 * 1024)
    graded_ranks_are_betti(text, "cp2cp2^4")
    # cp2cp2^5 (n = 10, 1,024 top facets) validates within a minute (exit 0)
    topfan("surgery", "fx/cp2cp2_4.json", "--product", "fx/cp2cp2.json", out="fx/cp2cp2_5.json")
    topfan("validate", "fx/cp2cp2_5.json", timeout=60)
    # --dir for the Todd genus: a regular direction exits 0, one on a cone wall exits 2
    topfan("invariants", "fx/cp2cp2.json", "--todd", "--dir=1,2")
    topfan("invariants", "fx/cp2cp2.json", "--todd", "--dir=1,0", code=2)

    # n = 24 with one facet of twelve rays, v-columns e_2j-1 +- e_2j: the gcd
    # of its C(24, 12) maximal minors is 64, found by elimination (exit 1),
    # and the facet's block minor is the nonsingularity witness
    def e(j, s):
        return [int(k == 2 * j) + s * int(k == 2 * j + 1) for k in range(24)]

    rays = [{"b": e(j, s), "v": e(j, s)} for j in range(6) for s in (1, -1)]
    wide = {"n": 24, "complex": {"m": 12, "facets": [list(range(1, 13))]}, "rays": rays}
    Path("fx/wide.json").write_text(json.dumps(wide) + "\n")
    text = topfan("validate", "fx/wide.json", code=1, timeout=60)
    w = json.loads(text)["result"]["witnesses"]["nonsingularity"]
    require(w == {"kind": "bad-minor-gcd", "facet": list(range(1, 13)), "gcd": 64},
            f"witness of fx/wide.json: {w!r}")

    topfan("fixtures", "octahedron", "--dir", "fx")
    topfan("realize", "fx/octahedron.complex.json", "--mode", "mod2")
    # Barnette's sphere: no toric-sign labeling (exit 1), a unimodular one (exit 0)
    topfan("fixtures", "barnette", "--dir", "fx")
    topfan("realize", "fx/barnette.complex.json", "--mode", "toric-sign", "--bound", "2", code=1)
    # at bound 5 too (exit 1), within 60 s and a 200,000 KiB address space:
    # the search keeps its eliminations in a trie of bounded size, and
    # "reduced" counts the forms it eliminated
    text = topfan("realize", "fx/barnette.complex.json", "--mode", "toric-sign", "--bound", "5",
                  code=1, timeout=60, address_space=200_000 * 1024)
    stats = json.loads(text)["stats"]
    require(stats == {"nodes": 723, "candidates": 722, "backtracks": 723, "probes": 10695,
                      "pruned": 6992, "reduced": 5571}, f"stats of barnette at bound 5: {stats!r}")
    topfan("realize", "fx/barnette.complex.json", "--mode", "unimodular")
    # the suspension of Barnette's fan validates (exit 0): n = 5, m = 10,
    # and the input's vertex labels; a stellar subdivision validates too
    topfan("surgery", "fx/barnette.fan.json", "--suspend", out="fx/barnette_susp.json")
    topfan("validate", "fx/barnette_susp.json")
    a, s = load("fx/barnette.fan.json"), load("fx/barnette_susp.json")
    got = (s["n"], s["complex"]["m"], s["complex"].get("labels"))
    require(got == (5, 10, a["complex"]["labels"]), f"suspension of barnette: {got!r}")
    topfan("surgery", "fx/barnette.fan.json", "--stellar", "1,2,3,4",
           out="fx/barnette_stellar.json")
    topfan("validate", "fx/barnette_stellar.json")
    # Barnette's fan against a copy with ray k times the homeomorphism scalar
    # ((k mod 3 + 1)/2, (k mod 5 - 2)/3, (-1)^k): equiv --mode h exits 0, and every
    # reported scalar mu is one (b > 0, v = +-1) with a_i * mu = b_sigma(i) entry by entry
    copy = homeomorphism_copy(load("fx/barnette.fan.json"))
    Path("fx/barnette_h.json").write_text(json.dumps(copy))
    text = topfan("equiv", "fx/barnette.fan.json", "fx/barnette_h.json", "--mode", "h")
    r = json.loads(text)["result"]
    require(scalars_map_each_ray(a["rays"], copy["rays"], r), f"scalars of barnette_h: {r!r}")
    # the copy with ray 1's b moved off its direction is not h-equivalent (exit 1)
    b = copy["rays"][0]["b"]
    b[0] = str(Fraction(b[0]) + 1)
    Path("fx/barnette_moved.json").write_text(json.dumps(copy))
    topfan("equiv", "fx/barnette.fan.json", "fx/barnette_moved.json", "--mode", "h", code=1)

    # the wheel W5 (hub 1, rim 2..6) has no K4, so the clique check cannot
    # decide it, and the search over the three mod-2 classes runs out (exit 1)
    w5 = {"m": 6, "facets": [[1, 2], [1, 3], [1, 4], [1, 5], [1, 6],
                             [2, 3], [3, 4], [4, 5], [5, 6], [2, 6]]}
    Path("fx/w5.json").write_text(json.dumps(w5) + "\n")
    r = json.loads(topfan("realize", "fx/w5.json", "--mode", "mod2", code=1))["result"]
    require(r["reason"] == "exhausted", f"realize of W5: {r!r}")
    # the boundary of the cyclic 4-polytope with 16 vertices: its 1-skeleton is
    # K16, more vertices than the 15 nonzero mod-2 classes, so the clique
    # decides before any search (exit 1, no stats)
    topfan("fixtures", "cyclic:4:16", "--dir", "fx")
    r = json.loads(topfan("realize", "fx/cyclic_4_16.complex.json", "--mode", "mod2", code=1))
    w = r["result"]["witness"]
    require(r["result"]["reason"] == "clique" and sorted(w["clique"]) == list(range(1, 17))
            and w["classes"] == 15 and r["stats"] is None, f"realize of C4(16): {r!r}")

    # Barnette's fan with ray 1's b negated is no fan (exit 1): the witness
    # point is the basic solution of the first overlapping pair's LP, which
    # the integer tableau finds by the Fraction tableau's pivots
    bad = load("fx/barnette.fan.json")
    bad["rays"][0]["b"] = [str(-Fraction(x)) for x in bad["rays"][0]["b"]]
    Path("fx/bad.json").write_text(json.dumps(bad))
    text = topfan("validate", "fx/bad.json", code=1)
    w = json.loads(text)["result"]["witnesses"]["fan_condition"]
    require(w == {"kind": "cone-overlap", "pair": [[1, 2, 3, 4], [2, 3, 4, 5]],
                  "point": ["374678", "-8280", "238664", "-1043119"]},
            f"witness of fx/bad.json: {w!r}")

    # the boundary of the cyclic 4-polytope with 9 vertices: no unimodular
    # labeling with entries in -2..2 (exit 1)
    topfan("fixtures", "cyclic:4:9", "--dir", "fx")
    topfan("realize", "fx/cyclic_4_9.complex.json", "--mode", "unimodular", "--bound", "2",
           code=1)
    # the boundary of the cyclic 5-polytope with 8 vertices: a unimodular
    # labeling (exit 0).  Above n = 4 linalg.cofactor_row builds each
    # facet's form by one linalg.reduce_system pass, and verify_labeling
    # re-checks every facet with the independent linalg.int_det
    topfan("fixtures", "cyclic:5:8", "--dir", "fx")
    topfan("realize", "fx/cyclic_5_8.complex.json", "--mode", "unimodular")
    # the cyclic 5-polytope with 9 vertices: no unimodular labeling with
    # entries in -1..1 (exit 1), and "stats" pins the size of the search
    topfan("fixtures", "cyclic:5:9", "--dir", "fx")
    text = topfan("realize", "fx/cyclic_5_9.complex.json", "--mode", "unimodular",
                  "--bound", "1", code=1)
    stats = json.loads(text)["stats"]
    require(stats == {"nodes": 329, "candidates": 328, "backtracks": 329, "probes": 5168,
                      "pruned": 4192, "reduced": 5759}, f"stats of cyclic:5:9: {stats!r}")
    # a bound in other digits than ASCII is a usage error (exit 2)
    topfan("realize", "fx/barnette.complex.json", "--mode", "toric-sign", "--bound", "١",
           code=2)
    print("installed_cli: all checks passed")


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as workdir:
        os.chdir(workdir)
        main()
