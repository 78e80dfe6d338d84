"""Seeded call lists for the three workloads.

A plan is a fixed list of polycert CLI calls plus the input files they
read.  Every call carries the answer key the checker compares its exit code
and report against; the keys come from `answers`, never from polycert.  The
same seed always gives the same plan.

Workloads (closed loop: one caller, each call waits for the previous one):

- cnf-scale: planted-satisfiable random 3-CNF, m = 2n, on the doubling
  ladder n in {16, 32, 64}, with the superopt reduction on the first rung;
  the rational path at scale, where dense monomials, JSON I/O and verify do
  the work and AlgebraicElement is never entered.  The ladder stops at 64
  so that a pass takes about 6 s and several fit in one run: the ladder
  {25, 50, 100} took about 14 s a pass, and two passes a run left the
  latency percentiles too noisy to compare.  verify still grows with a
  log-log slope near 1.7 on this ladder.
- algebraic: points over Q[t]/(t^3 - 2) and Q(sqrt k); ratcore scalar
  arithmetic and sign refinement dominate.
- desk-solvers: a few hundred millisecond-scale calls on small instances;
  per-call overhead in cli, JSON and Polynomial construction, plus linear,
  separable, certify and bounds.
"""

from __future__ import annotations

import itertools
import json
import random
from fractions import Fraction as F
from pathlib import Path

import answers as A

CNF_LADDER = (16, 32, 64)
ALG_LADDER = (10, 25, 50)
CHECK_DELTA = 1000000
SOCP_QUADRUPLES = ((1, 2, 2, 3), (2, 3, 6, 7), (1, 4, 8, 9), (4, 4, 7, 9), (2, 6, 9, 11), (6, 6, 7, 11), (2, 5, 14, 15))


class Plan:
    """Accumulates calls and writes their input files under `root/in`."""

    def __init__(self, root: Path, workload: str, seed: int):
        self.root = root
        self.workload = workload
        self.seed = seed
        self.calls: list[dict] = []
        (root / "in").mkdir(parents=True, exist_ok=True)
        (root / "out").mkdir(parents=True, exist_ok=True)

    def input(self, name: str, payload) -> str:
        text = payload if isinstance(payload, str) else json.dumps(payload)
        (self.root / "in" / name).write_text(text)
        return f"in/{name}"

    def call(self, argv, key, step, rung=None, writes=(), save=None) -> None:
        self.calls.append(
            {
                "argv": [str(a) for a in argv],
                "key": key,
                "step": step,
                "rung": rung,
                "writes": list(writes),
                "save": save,
            }
        )

    def to_json(self) -> dict:
        return {"workload": self.workload, "seed": self.seed, "calls": self.calls}


def verdict(feasible: bool, violates=()) -> dict:
    return {"kind": "verdict", "exit": 0 if feasible else 1, "feasible": feasible, "violates": list(violates)}


def reduce_key(variant, n, m, witness=None, **extra) -> dict:
    nv, rows = A.layout(variant, n, m)
    return {"kind": "reduce", "exit": 0, "num_vars": nv, "num_rows": rows, "witness": witness, **extra}


# -- cnf-scale -----------------------------------------------------------------


def cnf_scale(plan: Plan, rng: random.Random) -> None:
    rungs = []
    for n in CNF_LADDER:
        first = len(plan.calls)
        m = 2 * n
        plant = [rng.random() < 0.5 for _ in range(n)]
        cnf = plan.input(f"f{n}.cnf", A.dimacs(n, A.random_clauses(rng, n, m, plant)))
        good = A.quad_point(plant)
        bad = list(good)
        bad[n] = -bad[n]  # x_{n+1} flipped: the pairing row x_1 + x_{n+1} = 0 breaks
        sq, sc, su = f"out/quad{n}.json", f"out/cubic{n}.json", f"out/unb{n}.json"
        plan.call(["reduce", "--cnf", cnf, "--variant", "quad", "--out", sq],
                  reduce_key("quad", n, m), "reduce", n, writes=[sq])
        plan.call(["verify", "--system", sq, "--point", plan.input(f"quad{n}.json", A.point_json(good))],
                  verdict(True), "verify", n)
        plan.call(["verify", "--system", sq, "--point", plan.input(f"bad{n}.json", A.point_json(bad))],
                  verdict(False, [A.pairing_row(n)]), "verify-negative", n)
        plan.call(["check", "--system", sq, "--point", f"in/quad{n}.json", "--delta", CHECK_DELTA],
                  verdict(True), "check", n)
        plan.call(["reduce", "--cnf", cnf, "--variant", "cubic", "--out", sc],
                  reduce_key("cubic", n, m), "reduce-cubic", n, writes=[sc])
        plan.call(["verify", "--system", sc, "--point", plan.input(f"cubic{n}.json", A.point_json(A.cubic_point(plant)))],
                  verdict(True), "verify-cubic", n)
        plan.call(["reduce", "--cnf", cnf, "--variant", "unbounded", "--out", su],
                  reduce_key("unbounded", n, m), "reduce-unbounded", n, writes=[su],
                  save=[["outputs", "objective"], f"out/pi{n}.json"])
        lead = -A.h_value(*A.Y_BAR)
        plan.call(["ray", "--poly", f"out/pi{n}.json",
                   "--from", plan.input(f"origin{n}.json", A.point_json([F(0)] * (2 * n + 5))),
                   "--dir", plan.input(f"dir{n}.json", A.point_json(A.ray_direction(plant)))],
                  {"kind": "ray", "exit": 0, "classification": {
                      "growth_order": 3, "direction": "to_plus_infinity", "leading": A.rat(lead)}},
                  "ray", n)
        if n == CNF_LADDER[0]:
            so = f"out/superopt{n}.json"
            eps = F(1, 1000)
            plan.call(["reduce", "--cnf", cnf, "--variant", "superopt", "--witness", f"eps:{A.rat(eps)}", "--out", so],
                      reduce_key("superopt", n, m, "eps", eps=A.rat(eps),
                                 may_violate=[A.superopt_coupling_row(n, m)]),
                      "reduce-superopt", n, writes=[so])
        rungs.append(plan.calls[first:])
    # Stage-major order: each stage runs at every rung before the next one.
    # The calls of one rung sit next to each other in the latency ranking, and
    # a slow spell of the shared host spans several consecutive calls; this
    # keeps the calls that set the percentiles apart in time.
    plan.calls[:] = [c for stage in itertools.zip_longest(*rungs) for c in stage if c is not None]


# -- algebraic -----------------------------------------------------------------


def algebraic(plan: Plan, rng: random.Random) -> None:
    t = A.Radical(3, 2, (0, 1))
    for n in ALG_LADDER:
        m = 2 * n
        plant = [rng.random() < 0.5 for _ in range(n)]
        cnf = plan.input(f"f{n}.cnf", A.dimacs(n, A.random_clauses(rng, n, m, plant)))
        ones = [F(1)] * n + [F(-1)] * n
        sc, su = f"out/cubic{n}.json", f"out/unb{n}.json"
        # the exact minimizer y = (2^(1/3), 2^(2/3)) with gamma = 0, Delta = 2
        minimizer = ones + [F(0), F(2), t, t * t]
        plan.call(["reduce", "--cnf", cnf, "--variant", "cubic", "--witness", "always", "--out", sc],
                  reduce_key("cubic", n, m, "feasible"), "reduce", n, writes=[sc])
        plan.call(["verify", "--system", sc, "--point", plan.input(f"min{n}.json", A.point_json(minimizer))],
                  verdict(True), "verify", n)
        # d~ = (x, y = (t, t^2, 1), Delta = 2, gamma = 0): h(y) = 0 kills the
        # cubic term of pi along d~, leaving order 2 with leading coefficient y_1 = t
        d_tilde = ones + [t, t * t, F(1), F(2), F(0)]
        plan.call(["reduce", "--cnf", cnf, "--variant", "unbounded", "--out", su],
                  reduce_key("unbounded", n, m), "reduce-unbounded", n, writes=[su],
                  save=[["outputs", "objective"], f"out/pi{n}.json"])
        dt = plan.input(f"dtilde{n}.json", A.point_json(d_tilde))
        plan.call(["verify", "--system", su, "--point", dt], verdict(True), "verify-cone", n)
        plan.call(["ray", "--poly", f"out/pi{n}.json",
                   "--from", plan.input(f"origin{n}.json", A.point_json([F(0)] * (2 * n + 5))), "--dir", dt],
                  {"kind": "ray", "exit": 0, "classification": {
                      "growth_order": 2, "direction": "to_plus_infinity",
                      "leading": {"e": 3, "k": 2, "coeffs": ["0/1", "1/1", "0/1"]}}},
                  "ray", n)
    cube = plan.input("x1cubed.json", A.poly_json(2, {(3, 0): 1}))
    origin = plan.input("origin2.json", A.point_json([F(0), F(0)]))
    for i in range(6):
        k = rng.choice((2, 3, 5, 6, 7))
        eps = rng.choice((F(1, 10), F(1, 100)))
        c = rng.randint(1, 40) if i % 2 else 0
        direction = plan.input(f"sqrt{i}.json", A.point_json([A.Radical(2, k, (0, 1)), A.Radical(2, k, (0, c))]))
        argv = ["ray", "--poly", cube, "--from", origin, "--dir", direction, "--rationalize", A.rat(eps)]
        if c:  # the cone x_2 <= c x_1 keeps the direction on its boundary
            argv += ["--polytope", plan.input(f"cone{i}.json", A.system_json(2, [({(1, 0): -c, (0, 1): 1}, "LE0", "linear")]))]
        plan.call(argv, {"kind": "rationalize", "exit": 0, "k": k, "c": c, "eps": A.rat(eps), "polytope": bool(c)},
                  "ray-rationalize")
    gammas = rng.sample((F(0), F(1, 2), F(2), F(3999, 1000), F(4), F(5)), 3)
    gadgets = [("h", {"gamma": A.rat(g)}, {"ystar": True, "ybar": g >= F(3999, 1000)}) for g in gammas]
    gadgets += [("socp", dict(zip("abcd", map(str, q))), {"corner": True}) for q in rng.sample(SOCP_QUADRUPLES, 3)]
    gadgets += [("badboy", {"N": str(N)}, {"near_feasible": False, "zero_tail": False}) for N in (4, 5, 6)]
    for i, (name, params, expect) in enumerate(gadgets):
        gadget_call(plan, f"g{i}", name, params, expect)


def gadget_call(plan: Plan, tag: str, name: str, params: dict, expect: dict) -> None:
    sys_path, lm_path = f"out/{tag}.json", f"out/{tag}-landmarks.json"
    argv = ["gadget", "--name", name, "--out", sys_path, "--landmarks", lm_path]
    for key, val in params.items():
        argv += ["--param", f"{key}={val}"]
    plan.call(argv, {"kind": "gadget", "exit": 0, "system": sys_path, "landmarks": lm_path, "expect": expect},
              "gadget", writes=[sys_path, lm_path])


# -- desk-solvers ----------------------------------------------------------------


def desk_solvers(plan: Plan, rng: random.Random) -> None:
    """The seed draws every instance; the slot index fixes its shape (sizes,
    variant, verdict), so that two seeds give passes of equal cost."""
    for i in range(30):
        certify_pair(plan, rng, i, n=1 + i % 3, rows=1 + i // 3 % 3)
    for i in range(60):
        separable_call(plan, rng, i, n=1 + i % 2, want="point" if i // 2 % 2 else "infeasible")
    for i in range(40):
        n, sat = 3 + i // 2 % 6, i % 2 == 0
        m = 3 * n if sat else 7 * n
        clauses = A.random_clauses(rng, n, m)
        while A.satisfiable(n, clauses) != sat:
            clauses = A.random_clauses(rng, n, m)
        variant = ("quad", "cubic", "unbounded")[i % 3]
        out = f"out/sat{i}.json"
        key = reduce_key(variant, n, m, "feasible" if sat else None, clauses=clauses, exit=0 if sat else 1)
        plan.call(["reduce", "--cnf", plan.input(f"sat{i}.cnf", A.dimacs(n, clauses)), "--variant", variant,
                   "--witness", "sat", "--out", out], key, "reduce", writes=[out])
    for i in range(40):
        # (n, d) = (3, 4) is left out: its delta has about 19k bits, past the
        # 4300-digit limit of int-to-str conversion in the report
        n, d = ((2, 2), (2, 4), (3, 2))[i % 3]
        m, ell, H, loose = rng.randint(1, 8), rng.randint(1, 3), rng.randint(1, 9), rng.random() < 0.3
        argv = ["bounds", "--n", n, "--m", m, "--ell", ell, "--d", d, "--H", H] + (["--loose"] if loose else [])
        plan.call(argv, {"kind": "bounds", "exit": 0, "expect": A.bound_answers(n, m, ell, d, H, loose)}, "bounds")
    for i in range(40):
        if i % 2:
            gadget_call(plan, f"k{i}", "khachiyan", {"n": str(1 + i // 2 % 6)}, {"min_chain": True})
        else:
            gadget_call(plan, f"t{i}", "tiny", {"n": str(1 + i // 2 % 8)}, {"max_s": True, "origin": True})


def certify_pair(plan: Plan, rng: random.Random, i: int, n: int, rows: int) -> None:
    """The planted-box family: x~ strictly inside a box, each of the
    nonlinear rows g = q - q(x~) - 1/2 so that g(x~) = -1/2."""
    lo = [F(rng.randint(-16, 8), 8) for _ in range(n)]
    hi = [v + F(rng.randint(4, 16), 8) for v in lo]
    x_tilde = [v + (w - v) * F(rng.randint(1, 7), 8) for v, w in zip(lo, hi)]
    system = A.box_rows(list(zip(lo, hi)))
    for _ in range(rows):
        terms = {}
        for _ in range(4):
            e = tuple(rng.randint(0, 2) for _ in range(n))
            if sum(e) <= 2:
                terms[e] = F(rng.randint(-3, 3))
        const = (0,) * n
        shift = A.poly_value(list(terms.items()), x_tilde) + F(1, 2)
        terms[const] = terms.get(const, F(0)) - shift
        system.append((terms, "LE0", "nonlinear"))
    sys_path = plan.input(f"box{i}.json", A.system_json(n, system))
    point = plan.input(f"xt{i}.json", A.point_json(x_tilde))
    cert = f"out/cert{i}.json"
    plan.call(["certify", "--system", sys_path, "--point", point, "--delta", CHECK_DELTA, "--big-m", "4"],
              {"kind": "certify", "exit": 0, "system": sys_path, "x_tilde": [A.rat(v) for v in x_tilde],
               "big_m": "4", "delta": CHECK_DELTA},
              "certify", save=[["outputs", "certificate", "point"], cert])
    plan.call(["check", "--system", sys_path, "--point", cert, "--delta", CHECK_DELTA], verdict(True), "check")


def separable_call(plan: Plan, rng: random.Random, i: int, n: int, want: str) -> None:
    """A separable cubic on a box whose verdict the grid bracket decides as
    `want`: grid minimum <= -margin ("point") or lower bound >= margin
    ("infeasible").  Undecided or other draws are redrawn."""
    margin = F(1, 256)
    while True:
        coeffs = [(rng.choice((1, -1)) * rng.randint(1, 10), rng.randint(-10, 10), rng.randint(-10, 10), rng.randint(-10, 10))
                  for _ in range(n)]
        box = []
        for _ in range(n):
            low = F(rng.randint(-8, 6), 2)
            box.append((low, low + F(rng.randint(1, 8), 2)))
        lower, grid = F(0), F(0)
        for (a, b, c, d), (lo, hi) in zip(coeffs, box):
            lb, gm = A.cubic_min_bracket(a, b, c, d, lo, hi, 12 if n == 1 else 10)
            lower, grid = lower + lb, grid + gm
        if (grid <= -margin) if want == "point" else (lower >= margin):
            break
    sys_path = plan.input(f"sepbox{i}.json", A.system_json(n, A.box_rows(box)))
    cubic = plan.input(f"cubic{i}.json", {"n": n, "coeffs": [[A.rat(v) for v in q] for q in coeffs]})
    plan.call(["separable", "--system", sys_path, "--cubic", cubic],
              {"kind": "separable", "exit": 0 if want == "point" else 1, "status": want,
               "coeffs": [[A.rat(v) for v in q] for q in coeffs], "box": [[A.rat(lo), A.rat(hi)] for lo, hi in box]},
              "separable")


WORKLOADS = {"cnf-scale": cnf_scale, "algebraic": algebraic, "desk-solvers": desk_solvers}


def build(workload: str, seed: int, root: Path) -> Plan:
    plan = Plan(root, workload, seed)
    WORKLOADS[workload](plan, random.Random(f"{workload}:{seed}"))
    return plan
