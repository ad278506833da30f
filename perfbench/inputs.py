"""Seeded job mixes for the three benchmark workloads.

``build(workload, seed, workdir)`` writes the input files of one round into
``workdir`` and returns the jobs that read them.  Every job records the
verdict it must produce; that verdict is known by construction, never by
running the program:

* fans made from the bundled fixtures by stellar subdivision, suspension,
  product, homeomorphism scalars and arbitrary ``c`` vectors are complete and
  non-singular;
* negating one ray's ``b`` puts that ray on the wrong side of every wall of
  its star, so the fan is invalid (exit 1, with a witness);
* the eight-vertex sphere has no sign-matched labeling at any bound, and
  neither has any relabeling of it;
* the complex of a non-singular fan has a mod-2 labeling (``v`` mod 2);
* relabelled and rescaled copies of a fan are equivalent to it, and a copy
  with one ray moved off every original ray direction is not.

Only the public API is used: the fixtures, the surgeries, ``Ray.right_mul``,
``SimplicialComplex.relabeled`` and the JSON writers.  Modules are imported
inside ``build`` so that a re-imported ``topfan`` is the one used.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass, field
from fractions import Fraction

WORKLOADS = ("fan-check", "chart-ring", "label-search")

_SCALES = (Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(2), Fraction(3))


@dataclass
class Job:
    """One ``topfan.cli.main`` call and the verdict it must produce."""

    argv: list
    kind: str  # validate | surgery | sphere | charts | invariants | realize | equiv
    expect: dict = field(default_factory=dict)

    @property
    def label(self):
        return self.expect.get("label", self.kind)


class _Topfan:
    """The topfan modules as they are imported now."""

    def __init__(self):
        from topfan import fixtures, realize
        from topfan.fans import Ray, TopologicalFan
        from topfan.ring import MU0, RElem

        self.fixtures = fixtures
        self.realize = realize
        self.Ray = Ray
        self.TopologicalFan = TopologicalFan
        self.RElem = RElem
        self.MU0 = MU0

    def base(self, name):
        fx, rz = self.fixtures, self.realize
        seg, proj = fx.segment_fan, fx.projective_fan

        def prod(a, b):
            return rz.product_fan(a, b, validate=False)

        def susp(a):
            return rz.suspend_fan(a, validate=False)

        builders = {
            "P1": seg,
            "cp2cp2": fx.cp2cp2_fan,
            "P2": lambda: proj(2),
            "P1xP1": lambda: prod(seg(), seg()),
            "oct": fx.octahedron_fan,
            "P3": lambda: proj(3),
            "susp-cp2cp2": lambda: susp(fx.cp2cp2_fan()),
            "P1xP2": lambda: prod(seg(), proj(2)),
            "susp-oct": lambda: susp(fx.octahedron_fan()),
            "P2xP2": lambda: prod(proj(2), proj(2)),
            "P1xP3": lambda: prod(seg(), proj(3)),
            "P4": lambda: proj(4),
            "P2xP3": lambda: prod(proj(2), proj(3)),
            "P5": lambda: proj(5),
            "P1xP4": lambda: prod(seg(), proj(4)),
            "P6": lambda: proj(6),
            "barnette": fx.barnette_fan,
        }
        return builders[name]()


# -- seeded moves ----------------------------------------------------------------


def _subdivide(tf, rng, fan, times):
    for _ in range(times):
        facet = rng.choice(fan.complex.facets)
        fan = tf.realize.stellar_subdivide_fan(fan, facet, validate=False)
    return fan


def _homeo_scalar(tf, rng):
    t = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
    return tf.RElem(rng.choice(_SCALES), t, rng.choice((1, -1)))


def _rescale(tf, rng, fan, involutive):
    """Homeomorphism scalars on some rays and, unless involutive, random c's."""
    rays = []
    for ray in fan.rays:
        if rng.random() < 0.6:
            ray = ray.right_mul(_homeo_scalar(tf, rng))
        if involutive:
            ray = tf.Ray(ray.b, (0,) * fan.n, ray.v)
        elif rng.random() < 0.5:
            c = tuple(Fraction(rng.randint(-2, 2), rng.randint(1, 2)) for _ in range(fan.n))
            ray = tf.Ray(ray.b, c, ray.v)
        rays.append(ray)
    return tf.TopologicalFan(fan.n, fan.complex, rays)


def _seeded_fan(tf, rng, base, subdivisions, involutive=None):
    if involutive is None:
        involutive = rng.random() < 0.5
    fan = _subdivide(tf, rng, tf.base(base), subdivisions)
    return _rescale(tf, rng, fan, involutive)


def _corrupt(tf, rng, fan):
    """Negate one ray's b: that ray lands on the wrong side of its star's walls."""
    i = rng.randrange(fan.m)
    rays = list(fan.rays)
    ray = rays[i]
    rays[i] = tf.Ray(tuple(-x for x in ray.b), ray.c, ray.v)
    return tf.TopologicalFan(fan.n, fan.complex, rays)


def _relabel_fan(tf, rng, fan, transform):
    """A copy with vertices permuted and each ray passed through ``transform``."""
    images = list(range(1, fan.m + 1))
    rng.shuffle(images)
    sigma = {i + 1: images[i] for i in range(fan.m)}
    complex_ = fan.complex.relabeled(sigma)
    rays = [None] * fan.m
    for i, ray in enumerate(fan.rays, start=1):
        rays[sigma[i] - 1] = transform(ray)
    return tf.TopologicalFan(fan.n, complex_, rays)


def _parallel(a, b):
    """True when the rational vectors a and b point the same way."""
    ratio = None
    for x, y in zip(a, b):
        if (x == 0) != (y == 0):
            return False
        if x != 0:
            r = Fraction(y) / Fraction(x)
            if r <= 0 or (ratio is not None and r != ratio):
                return False
            ratio = r
    return True


def _perturb(tf, rng, fan, originals):
    """Move one ray's b off the direction of every ray in ``originals``."""
    rays = list(fan.rays)
    i = rng.randrange(fan.m)
    ray = rays[i]
    directions = [r.b for r in originals]
    step = 1
    while True:
        k = rng.randrange(fan.n)
        b = tuple(x + step if j == k else x for j, x in enumerate(ray.b))
        if any(x != 0 for x in b) and not any(_parallel(d, b) for d in directions):
            break
        step += 1
    rays[i] = tf.Ray(b, ray.c, ray.v)
    return tf.TopologicalFan(fan.n, fan.complex, rays)


def _top_facets(fan_json):
    n = fan_json["n"]
    return [f for f in fan_json["complex"]["facets"] if len(f) == n]


# -- writing -----------------------------------------------------------------------


class _Writer:
    def __init__(self, workdir):
        self.workdir = workdir
        self.count = 0
        os.makedirs(workdir, exist_ok=True)

    def write(self, label, data):
        self.count += 1
        path = os.path.join(self.workdir, f"{self.count:03d}-{label}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(data, fh, sort_keys=True)
            fh.write("\n")
        return path


def _fan_facts(fan_json):
    rays = fan_json["rays"]
    return {
        "fan": fan_json,
        "m": fan_json["complex"]["m"],
        "n": fan_json["n"],
        "facets": len(fan_json["complex"]["facets"]),
        "involutive": all(Fraction(x) == 0 for r in rays for x in r["c"]),
    }


# -- the three mixes ---------------------------------------------------------------

# (base, stellar subdivisions, fans per round, of which corrupted)
_FAN_CHECK_STRATA = (
    ("cp2cp2", 2, 16, 4), ("P2", 3, 16, 4), ("P1xP1", 3, 16, 4),
    ("oct", 1, 6, 2), ("P3", 2, 6, 2), ("susp-cp2cp2", 1, 6, 2), ("P1xP2", 2, 6, 2),
    ("susp-oct", 0, 2, 1), ("P2xP2", 1, 2, 0), ("P1xP3", 1, 2, 1), ("P4", 2, 2, 1),
    ("P2xP3", 0, 1, 0), ("P5", 1, 1, 0), ("P1xP4", 0, 1, 1),
    ("P6", 0, 1, 0),
)

_SURGERY_SOURCES = (("cp2cp2", 1), ("P2", 2), ("oct", 0), ("P1xP2", 1), ("P3", 1), ("P1", 0))


def _fan_check(tf, rng, out):
    jobs = []
    anchor = tf.base("barnette").to_json()
    jobs.append(Job(["validate", out.write("barnette", anchor)], "validate",
                    {"label": "anchor:validate-barnette", "exit": 0, **_fan_facts(anchor)}))
    for base, subdivisions, count, corrupted in _FAN_CHECK_STRATA:
        for k in range(count):
            fan = _seeded_fan(tf, rng, base, subdivisions, involutive=k % 2 == 1)
            bad = k < corrupted
            if bad:
                fan = _corrupt(tf, rng, fan)
            data = fan.to_json()
            label = f"{'corrupt' if bad else 'valid'}-n{fan.n}-{base}"
            jobs.append(Job(["validate", out.write(label, data)], "validate",
                            {"label": f"validate:{label}", "exit": 1 if bad else 0,
                             **_fan_facts(data)}))

    sources = []
    for base, subdivisions in _SURGERY_SOURCES:
        data = _seeded_fan(tf, rng, base, subdivisions).to_json()
        sources.append((out.write(f"surgery-src-{base}", data), data))
    for path, data in sources[:-1]:
        facet = rng.choice(_top_facets(data))
        jobs.append(Job(["surgery", path, "--stellar", ",".join(map(str, facet))], "surgery",
                        {"label": "surgery:stellar", "m": data["complex"]["m"] + 1,
                         "n": data["n"], "facets": len(data["complex"]["facets"]) + data["n"] - 1}))
        jobs.append(Job(["surgery", path, "--suspend"], "surgery",
                        {"label": "surgery:suspend", "m": data["complex"]["m"] + 2,
                         "n": data["n"] + 1, "facets": 2 * len(data["complex"]["facets"])}))
    for (path_a, a), (path_b, b) in ((sources[0], sources[1]), (sources[0], sources[-1]),
                                     (sources[1], sources[-1])):
        jobs.append(Job(["surgery", path_a, "--product", path_b], "surgery",
                        {"label": "surgery:product", "m": a["complex"]["m"] + b["complex"]["m"],
                         "n": a["n"] + b["n"],
                         "facets": len(a["complex"]["facets"]) * len(b["complex"]["facets"])}))

    fx = tf.fixtures
    ico_complex, ico_positions = fx.icosahedron_complex_and_positions()
    for name, complex_, positions in (
        ("octahedron", fx.octahedron_complex(), fx.octahedron_positions()),
        ("icosahedron", ico_complex, ico_positions),
    ):
        scaled = [[str(rng.choice(_SCALES) * Fraction(x)) for x in p] for p in positions]
        data = complex_.to_json()
        data["positions"] = scaled
        jobs.append(Job(["realize", out.write(f"sphere-{name}", data), "--mode", "sphere"],
                        "sphere", {"label": f"sphere:{name}", "m": complex_.m, "n": 3,
                                   "facets": len(complex_.facets), "positions": scaled}))
    rng.shuffle(jobs)
    return jobs


# (base, stellar subdivisions) of the seeded fans: a spread of facet counts,
# since the cocycle check costs F^3
_CHART_RING_FANS = (
    ("cp2cp2", 1), ("cp2cp2", 2), ("cp2cp2", 3), ("cp2cp2", 4),
    ("P2", 2), ("P2", 3), ("P2", 4), ("P2", 5),
    ("P1xP1", 1), ("P1xP1", 2), ("P1xP1", 3), ("P1xP1", 4),
    ("oct", 0), ("P3", 2), ("P1xP2", 1), ("susp-cp2cp2", 0), ("P4", 0),
)


def _chart_jobs(path, data, label, kernel):
    facts = _fan_facts(data)
    argv = ["charts", path, "--kernel", ",".join(map(str, kernel)), "--transitions",
            "--cocycle", "--faceposet"]
    return [
        Job(argv, "charts", {"label": f"charts:{label}", "kernel": kernel, **facts}),
        Job(["invariants", path], "invariants", {"label": f"invariants:{label}", **facts}),
    ]


def _chart_ring(tf, rng, out):
    jobs = []
    for base in ("cp2cp2", "oct", "P2", "P2xP2", "barnette"):
        data = tf.base(base).to_json()
        path = out.write(f"anchor-{base}", data)
        for job in _chart_jobs(path, data, base, _top_facets(data)[0]):
            job.expect["label"] = "anchor:" + job.expect["label"]
            # Barnette's charts (a 7-10 s cocycle) would be most of a round
            if job.kind == "invariants" or base != "barnette":
                jobs.append(job)
    for idx, (base, subdivisions) in enumerate(_CHART_RING_FANS):
        data = _seeded_fan(tf, rng, base, subdivisions, involutive=idx % 2 == 0).to_json()
        label = f"n{data['n']}-{base}"
        kernel = rng.choice(_top_facets(data))
        jobs.extend(_chart_jobs(out.write(label, data), data, label, kernel))
    rng.shuffle(jobs)
    return jobs


# (base, stellar subdivisions) of the fans whose complexes get a mod-2 search
_MOD2_SOURCES = (
    ("cp2cp2", 12), ("P2", 12), ("oct", 10), ("oct", 12), ("P3", 10), ("susp-cp2cp2", 8),
    ("P1xP2", 8), ("P1xP3", 6), ("P4", 6), ("susp-oct", 5),
)
# (base, stellar subdivisions) of the fans compared with their copies
_EQUIV_SOURCES = (("cp2cp2", 14), ("oct", 12), ("susp-cp2cp2", 10), ("P1xP2", 12), ("P2xP2", 8))


def _complex_facts(data):
    return {"m": data["m"], "complex_facets": [sorted(f) for f in data["facets"]]}


def _label_search(tf, rng, out):
    jobs = []
    fx = tf.fixtures

    def realize(label, path, mode, exit_code, data, bound=None, **extra):
        argv = ["realize", path, "--mode", mode]
        if bound is not None:
            argv += ["--bound", str(bound)]
        expect = {"label": label, "mode": mode, "exit": exit_code, "bound": bound,
                  **_complex_facts(data), **extra}
        jobs.append(Job(argv, "realize", expect))

    barnette = fx.barnette_complex().to_json()
    barnette["facets"] = [list(f) for f in fx.BARNETTE_FACET_ORDERS]
    path = out.write("barnette", barnette)
    for bound in (1, 2):
        realize(f"anchor:toric-sign-barnette-b{bound}", path, "toric-sign", 1, barnette, bound)
    realize("anchor:unimodular-barnette", path, "unimodular", 0, barnette, 1)
    for k in range(8):
        # Seeded labels for the inner and the outer tetrahedron, each kept in
        # its order: arbitrary relabelings change the search tree by up to
        # 1.8x (5,184 to 9,520 int_det calls at bound 1), which would tie the
        # round time to the seed.  Each ordered facet is relabeled in place;
        # ``relabeled`` would sort it and lose the reference order.
        inner = sorted(rng.sample(range(1, 9), 4))
        images = inner + sorted(set(range(1, 9)) - set(inner))
        data = {"m": 8, "facets": [[images[v - 1] for v in f] for f in fx.BARNETTE_FACET_ORDERS]}
        realize("toric-sign:barnette-relabeled", out.write(f"barnette-relabeled-{k}", data),
                "toric-sign", 1, data, 1)

    c47 = fx.cyclic_complex(4, 7).to_json()
    realize("unimodular:C4(7)", out.write("c4-7", c47), "unimodular", 0, c47, 1)
    c416 = fx.cyclic_complex(4, 16).to_json()
    realize("mod2:C4(16)-clique", out.write("c4-16", c416), "mod2", 1, c416, dim=4)
    ico_complex, _ = fx.icosahedron_complex_and_positions()
    for name, complex_ in (("octahedron", fx.octahedron_complex()), ("icosahedron", ico_complex)):
        data = complex_.to_json()
        path = out.write(name, data)
        realize(f"unimodular:{name}", path, "unimodular", 0, data, 1)
        realize(f"mod2:{name}", path, "mod2", 0, data, dim=3)

    for base, subdivisions in _MOD2_SOURCES:
        fan = _seeded_fan(tf, rng, base, subdivisions)
        data = fan.complex.to_json()
        realize(f"mod2:surgery-{base}", out.write(f"mod2-{base}", data), "mod2", 0, data,
                dim=fan.n)

    for base, subdivisions in _EQUIV_SOURCES:
        fan = _seeded_fan(tf, rng, base, subdivisions)
        source = fan.to_json()
        path = out.write(f"equiv-{base}", source)
        copies = {
            "strict": _relabel_fan(tf, rng, fan, lambda r: r),
            "d": _relabel_fan(tf, rng, fan,
                              lambda r: r.right_mul(tf.MU0) if rng.random() < 0.5 else r),
            "h": _relabel_fan(tf, rng, fan, lambda r: r.right_mul(_homeo_scalar(tf, rng))),
        }
        for mode, copy in copies.items():
            for equivalent, other in ((True, copy), (False, _perturb(tf, rng, copy, fan.rays))):
                target = other.to_json()
                tag = "copy" if equivalent else "perturbed"
                jobs.append(Job(
                    ["equiv", path, out.write(f"equiv-{base}-{mode}-{tag}", target),
                     "--mode", mode],
                    "equiv",
                    {"label": f"equiv:{mode}-{tag}", "mode": mode, "exit": 0 if equivalent else 1,
                     "source": source, "target": target}))
    rng.shuffle(jobs)
    return jobs


_MIXES = {"fan-check": _fan_check, "chart-ring": _chart_ring, "label-search": _label_search}


def anchors(workdir):
    """The three multi-second jobs that the rounds leave out, with their checks:
    the Barnette cocycle, P3xP3 validation and Barnette toric-sign at bound 3."""
    tf = _Topfan()
    out = _Writer(workdir)
    barnette = tf.base("barnette").to_json()
    charts = _chart_jobs(out.write("barnette", barnette), barnette, "barnette",
                         _top_facets(barnette)[0])[0]
    p3p3 = tf.realize.product_fan(tf.base("P3"), tf.base("P3"), validate=False).to_json()
    complex_ = tf.fixtures.barnette_complex().to_json()
    complex_["facets"] = [list(f) for f in tf.fixtures.BARNETTE_FACET_ORDERS]
    return [
        charts,
        Job(["validate", out.write("P3xP3", p3p3)], "validate",
            {"label": "validate:P3xP3", "exit": 0, **_fan_facts(p3p3)}),
        Job(["realize", out.write("barnette-complex", complex_), "--mode", "toric-sign",
             "--bound", "3"], "realize",
            {"label": "toric-sign:barnette-b3", "mode": "toric-sign", "exit": 1, "bound": 3,
             **_complex_facts(complex_)}),
    ]


def build(workload, seed, workdir):
    """Write one round of the workload's inputs into ``workdir``; return its jobs."""
    if workload not in _MIXES:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    rng = random.Random(f"{workload}/{seed}")
    return _MIXES[workload](_Topfan(), rng, _Writer(workdir))
