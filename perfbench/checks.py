"""Compare each replayed call with its answer key.

`check_call` returns the list of disagreements for one call; an empty list
means the exit code and every checked field of the report match the answer
derived in `answers` and `workloads`.
"""

from __future__ import annotations

import json
from fractions import Fraction as F
from pathlib import Path

import answers as A


def check_call(key: dict, code, report: dict | None, root: Path) -> list[str]:
    if not isinstance(code, int):
        return [f"raised: {code}"]
    errors = []
    if code != key["exit"]:
        errors.append(f"exit {code}, expected {key['exit']}")
    if code == 2 or report is None:
        return errors + ["no report"]
    errors += KINDS[key["kind"]](key, code, report.get("outputs", {}), root)
    return errors


def _verdict(key, code, out, root):
    v = out.get("verdict", {})
    errors = []
    if v.get("feasible") != key["feasible"]:
        errors.append(f"feasible={v.get('feasible')}, expected {key['feasible']}")
    missing = set(key["violates"]) - set(v.get("violated", []))
    if missing:
        errors.append(f"rows {sorted(missing)} not reported violated")
    return errors


def _reduce(key, code, out, root):
    if code != 0:
        return []
    errors = []
    if (out.get("num_vars"), out.get("num_rows")) != (key["num_vars"], key["num_rows"]):
        errors.append(f"shape {out.get('num_vars')}x{out.get('num_rows')}, expected {key['num_vars']}x{key['num_rows']}")
    verdict = out.get("witness_verdict")
    if key["witness"] == "feasible" and not (verdict and verdict["feasible"]):
        errors.append("witness not feasible")
    if key["witness"] == "eps":
        # only the coupling row may be violated, by at most eps
        if not verdict or set(verdict["violated"]) - set(key["may_violate"]):
            errors.append("witness violates rows outside the coupling row")
        elif F(verdict["worst_violation"]) > F(key["eps"]):
            errors.append(f"worst violation {verdict['worst_violation']} > eps")
    if "clauses" in key:
        bits = out.get("assignment", "")
        if not A.satisfies(key["clauses"], [b == "1" for b in bits]):
            errors.append(f"assignment {bits!r} does not satisfy the formula")
    return errors


def _ray(key, code, out, root):
    got = out.get("classification")
    return [] if got == key["classification"] else [f"classification {got}, expected {key['classification']}"]


def _rationalize(key, code, out, root):
    k, c, eps = key["k"], key["c"], F(key["eps"])
    x = A.parse_point(out["point"])
    v = A.parse_point(out["direction"])
    errors = []
    if not all(isinstance(q, F) for q in x + v):
        return ["rationalized ray is not rational"]
    if not (all(abs(q) <= eps for q in x) and A.closer_than(v[0], F(1), k, eps) and A.closer_than(v[1], F(c), k, eps)):
        errors.append(f"ray ({x}, {v}) not within {eps} of (0, (1, {c}) sqrt {k})")
    if v[0] <= 0:
        errors.append("x1^3 does not grow along the rationalized direction")
    if key["polytope"] and (x[1] > c * x[0] or v[1] > c * v[0]):
        errors.append("rationalized ray leaves the cone x2 <= c x1")
    want = {"growth_order": 3, "direction": "to_plus_infinity", "leading": A.rat(v[0] ** 3)}
    if out.get("classification") != want:
        errors.append(f"classification {out.get('classification')}, expected {want}")
    return errors


def _gadget(key, code, out, root):
    rows = A.load_rows(json.loads((root / key["system"]).read_text()))
    landmarks = json.loads((root / key["landmarks"]).read_text())
    errors = []
    if {lm["name"] for lm in landmarks} != set(key["expect"]):
        errors.append(f"landmarks {[lm['name'] for lm in landmarks]}, expected {sorted(key['expect'])}")
    for lm in landmarks:
        want = key["expect"].get(lm["name"])
        own = not A.violated_rows(rows, A.parse_point(lm["point"]))
        if lm["expect_feasible"] != want or own != want:
            errors.append(f"landmark {lm['name']}: stated {lm['expect_feasible']}, evaluated {own}, expected {want}")
    return errors


def _certify(key, code, out, root):
    rows = A.load_rows(json.loads((root / key["system"]).read_text()))
    cert = out["certificate"]
    point = A.parse_point(cert["point"])
    radius = F(key["big_m"]) / int(cert["phi"])
    errors = []
    if any(abs(p - F(x)) > radius for p, x in zip(point, key["x_tilde"])):
        errors.append("certificate farther than M/phi from x~")
    ell = sum(tag == "nonlinear" for _, _, tag in rows)
    bad = A.violated_rows(rows, point, relax=(ell, key["delta"]))
    if bad:
        errors.append(f"certificate violates relaxed rows {bad}")
    if not out["check"]["feasible"]:
        errors.append("certify reports its own check infeasible")
    return errors


def _separable(key, code, out, root):
    if out.get("status") != key["status"]:
        return [f"status {out.get('status')}, expected {key['status']}"]
    if key["status"] != "point":
        return []
    x = A.parse_point(out["point"])
    errors = []
    if any(not F(lo) <= q <= F(hi) for q, (lo, hi) in zip(x, key["box"])):
        errors.append(f"point {x} outside the box")
    value = sum(((F(a) * q + F(b)) * q + F(c)) * q + F(d) for q, (a, b, c, d) in zip(x, key["coeffs"]))
    if value > 0:
        errors.append(f"f(point) = {value} > 0")
    return errors


def _bounds(key, code, out, root):
    got = out.get("bounds", {})
    return [f"{name} differs" for name, want in key["expect"].items() if got.get(name) != want]


KINDS = {
    "verdict": _verdict,
    "reduce": _reduce,
    "ray": _ray,
    "rationalize": _rationalize,
    "gadget": _gadget,
    "certify": _certify,
    "separable": _separable,
    "bounds": _bounds,
}
