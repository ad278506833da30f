"""Independent checks of ``topfan`` CLI outputs.

Each checker re-derives what it can with its own exact arithmetic, never with
``topfan``: determinants of labelings and of the ``v``-columns of produced
fans, GF(2) ranks, cone membership of overlap witnesses, face counts, and the
ray scalars of an equivalence.  ``check(job, exit_code, stdout)`` returns
``None`` for a correct output and a one-line reason otherwise.
"""

from __future__ import annotations

import json
from fractions import Fraction
from itertools import combinations


class CheckFailed(Exception):
    pass


def _require(condition, message):
    if not condition:
        raise CheckFailed(message)


# -- exact arithmetic of our own -------------------------------------------------


def det(rows):
    """Determinant of a square matrix by Gaussian elimination over Q."""
    m = [[Fraction(x) for x in row] for row in rows]
    n = len(m)
    result = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            result = -result
        result *= m[col][col]
        for r in range(col + 1, n):
            factor = m[r][col] / m[col][col]
            if factor:
                m[r] = [a - factor * b for a, b in zip(m[r], m[col])]
    return result


def _columns_det(columns):
    n = len(columns)
    return det([[columns[j][k] for j in range(n)] for k in range(n)])


def solve(columns, target):
    """Coefficients x with sum_j x_j columns[j] = target, or None; columns independent."""
    k, n = len(columns), len(target)
    aug = [[Fraction(columns[j][i]) for j in range(k)] + [Fraction(target[i])] for i in range(n)]
    row = 0
    pivots = []
    for col in range(k):
        pivot = next((r for r in range(row, n) if aug[r][col] != 0), None)
        if pivot is None:
            continue
        aug[row], aug[pivot] = aug[pivot], aug[row]
        inv = 1 / aug[row][col]
        aug[row] = [x * inv for x in aug[row]]
        for r in range(n):
            if r != row and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [a - f * b for a, b in zip(aug[r], aug[row])]
        pivots.append(col)
        row += 1
    if any(all(x == 0 for x in aug[r][:k]) and aug[r][k] != 0 for r in range(n)):
        return None
    if len(pivots) != k:
        raise CheckFailed("cone columns are dependent")
    return [aug[r][k] for r in range(k)]


def gf2_rank(masks):
    basis = []
    for x in masks:
        for b in basis:
            x = min(x, x ^ b)
        if x:
            basis.append(x)
    return len(basis)


def _in_cone(columns, point):
    if not columns:
        return all(x == 0 for x in point)
    coeffs = solve(columns, point)
    return coeffs is not None and all(c >= 0 for c in coeffs)


def _faces(facets):
    faces = set()
    for f in facets:
        for k in range(1, len(f) + 1):
            faces.update(combinations(sorted(f), k))
    return faces


def _edges(facets):
    return {frozenset(e) for f in facets for e in combinations(f, 2)}


def _rays(fan_json):
    return [([Fraction(x) for x in r["b"]], [Fraction(x) for x in r["c"]], [int(x) for x in r["v"]])
            for r in fan_json["rays"]]


def _check_v_unimodular(fan_json):
    rays = _rays(fan_json)
    n = fan_json["n"]
    for f in fan_json["complex"]["facets"]:
        if len(f) == n:
            d = _columns_det([rays[i - 1][2] for i in f])
            _require(abs(d) == 1, f"facet {f} has v-determinant {d}")


def _top_facets(fan_json):
    return [f for f in fan_json["complex"]["facets"] if len(f) == fan_json["n"]]


# -- one checker per job kind ---------------------------------------------------------


def _check_validate(expect, out):
    result = out["result"]
    if expect["exit"] == 0:
        for key in ("fan_condition_ok", "completeness_ok", "nonsingularity_ok", "ok"):
            _require(result[key] is True, f"{key} is not true on a valid fan")
        _require(result["witnesses"] == {}, "a valid fan reported witnesses")
        _require(result["involutive"] == expect["involutive"], "involutive flag is wrong")
        return
    _require(result["ok"] is False, "an invalid fan reported ok")
    witnesses = result["witnesses"]
    _require(witnesses, "an invalid fan carried no witness")
    _require(all(isinstance(w, dict) and "kind" in w for w in witnesses.values()),
             "a witness has no kind")
    overlap = witnesses.get("fan_condition")
    if overlap and overlap["kind"] == "cone-overlap":
        rays = _rays(expect["fan"])
        fi, fj = overlap["pair"]
        point = [Fraction(x) for x in overlap["point"]]
        common = sorted(set(fi) & set(fj))
        _require(_in_cone([rays[i - 1][0] for i in fi], point), "overlap point outside cone 1")
        _require(_in_cone([rays[i - 1][0] for i in fj], point), "overlap point outside cone 2")
        _require(not _in_cone([rays[i - 1][0] for i in common], point),
                 "overlap point lies in the common face")


def _check_fan_shape(expect, fan):
    _require(fan["n"] == expect["n"], f"n = {fan['n']}, expected {expect['n']}")
    m = fan["complex"]["m"]
    _require(m == expect["m"], f"m = {m}, expected {expect['m']}")
    _require(len(fan["rays"]) == expect["m"], "one ray per vertex is missing")
    _require(len(fan["complex"]["facets"]) == expect["facets"], "wrong facet count")
    _check_v_unimodular(fan)


def _check_surgery(expect, out):
    _check_fan_shape(expect, out)


def _check_sphere(expect, out):
    _check_fan_shape(expect, out)
    for ray, position in zip(out["rays"], expect["positions"]):
        _require([Fraction(x) for x in ray["b"]] == [Fraction(x) for x in position],
                 "a b-vector differs from its vertex position")


def _check_charts(expect, out):
    result = out["result"]
    _require(result["cocycle"]["ok"] is True, "cocycle identities failed on a valid fan")
    if expect["involutive"]:
        _require(result["conjugation_equivariant"] is True,
                 "an involutive fan is not conjugation-equivariant")
    top = _top_facets(expect["fan"])
    _require(len(result["transitions"]) == len(top) ** 2, "wrong number of transition matrices")
    _require(result["kernel"]["base"] == sorted(expect["kernel"]), "wrong kernel base")
    counts = {"0": 1}
    for face in _faces(expect["fan"]["complex"]["facets"]):
        counts[str(len(face))] = counts.get(str(len(face)), 0) + 1
    _require(result["face_poset"]["rank_counts"] == counts, "face poset rank counts are wrong")


def _check_invariants(expect, out):
    result = out["result"]
    betti, ranks = result["betti"], result["graded_ranks"]
    _require(betti == ranks, f"betti {betti} != graded ranks {ranks}")
    _require(betti[0] == 1 and betti == betti[::-1], f"betti {betti} is not a sphere's h-vector")
    _require(sum(betti) == expect["facets"], "betti numbers do not sum to the facet count")
    _require(len(result["pontrjagin"]) == expect["n"] // 2 + 1, "wrong Pontrjagin piece count")
    _require(isinstance(result["todd_genus"], int), "Todd genus is not an integer")
    rays = _rays(expect["fan"])
    weights = result["weights"]
    _require(len(weights) == expect["facets"], "one weight per facet is missing")
    for f in expect["fan"]["complex"]["facets"]:
        sign = _columns_det([rays[i - 1][0] for i in f]) * _columns_det([rays[i - 1][2] for i in f])
        _require(weights[",".join(map(str, f))] == (1 if sign > 0 else -1),
                 f"orientation weight of {f} is wrong")


def _check_realize(expect, out):
    result = out["result"]
    mode = expect["mode"]
    facets = expect["complex_facets"]
    if mode == "toric-sign":
        _require(result == {"kind": "unsat", "bound": expect["bound"]}, f"not UNSAT: {result}")
        return
    if mode == "mod2" and expect["exit"] == 1:
        _require(result["kind"] == "infeasible" and result["reason"] == "clique", "no clique")
        clique = result["witness"]["clique"]
        edges = _edges(facets)
        _require(len(set(clique)) > (1 << expect["dim"]) - 1, "clique is too small")
        _require(all(frozenset(e) in edges for e in combinations(clique, 2)),
                 "clique vertices are not pairwise adjacent")
        return
    assignment = {int(v): x for v, x in result["assignment"].items()}
    _require(sorted(assignment) == list(range(1, expect["m"] + 1)), "a vertex is unlabelled")
    for f in facets:
        if mode == "mod2":
            masks = [assignment[v] for v in f]
            _require(all(0 < x < (1 << expect["dim"]) for x in masks), "class out of range")
            _require(gf2_rank(masks) == len(f), f"facet {f} is GF(2)-dependent")
        else:
            d = _columns_det([assignment[v] for v in f])
            _require(abs(d) == 1, f"facet {f} has determinant {d}")


def _ring_mul(entry, mu):
    b, c, v = entry
    mb, mc, mv = mu
    return (b * mb, c * mb + v * mc, v * mv)


def _check_equiv(expect, out):
    result = out["result"]
    if expect["exit"] == 1:
        _require(result["equivalent"] is False, "inequivalent fans reported equivalent")
        return
    _require(result["equivalent"] is True, "equivalent fans reported inequivalent")
    source, target = expect["source"], expect["target"]
    m = source["complex"]["m"]
    sigma = {int(i): int(j) for i, j in result["sigma"].items()}
    _require(sorted(sigma) == list(range(1, m + 1)) and sorted(sigma.values()) == sorted(sigma),
             "sigma is not a bijection")
    image = {tuple(sorted(sigma[v] for v in f)) for f in source["complex"]["facets"]}
    _require(image == {tuple(sorted(f)) for f in target["complex"]["facets"]},
             "sigma does not map facets onto facets")
    rays_a, rays_b = _rays(source), _rays(target)
    for i in range(1, m + 1):
        a, b = rays_a[i - 1], rays_b[sigma[i] - 1]
        if expect["mode"] == "strict":
            _require(a == b, f"ray {i} differs from its image")
        elif expect["mode"] == "d":
            flipped = (a[0], a[1], [-x for x in a[2]])
            _require(b in (a, flipped), f"ray {i} is not its image up to a v-flip")
        else:
            bn, bd, cn, cd, mv = result["scalars"][str(i)]
            mu = (Fraction(bn, bd), Fraction(cn, cd), mv)
            _require(mu[0] > 0 and mv in (1, -1), f"scalar of ray {i} is not a homeomorphism")
            product = [_ring_mul(e, mu) for e in zip(*a)]
            _require(product == list(zip(*b)), f"scalar of ray {i} does not reproduce its image")


_CHECKERS = {
    "validate": _check_validate,
    "surgery": _check_surgery,
    "sphere": _check_sphere,
    "charts": _check_charts,
    "invariants": _check_invariants,
    "realize": _check_realize,
    "equiv": _check_equiv,
}


def check(job, exit_code, stdout):
    """None when the output is right for the job, else the reason it is not."""
    expected_exit = job.expect.get("exit", 0)
    if exit_code != expected_exit:
        return f"exit code {exit_code}, expected {expected_exit}"
    try:
        out = json.loads(stdout)
        _CHECKERS[job.kind](job.expect, out)
    except CheckFailed as exc:
        return str(exc)
    except (ValueError, KeyError, TypeError, IndexError, ZeroDivisionError) as exc:
        return f"malformed output: {type(exc).__name__}: {exc}"
    return None
