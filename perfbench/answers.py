"""Answers derived without polycert.

Everything here is the benchmark's own exact arithmetic over Fraction: CNF
evaluation and brute-force satisfiability, the witness layouts documented in
polycert's reductions module, a small Q[t]/(t^e - k) scalar, a sparse
evaluator for system JSON, a dyadic grid bracket for separable cubics, and
the closed forms behind the bound report.  Nothing imports polycert, so a
defect in the program cannot hide in its own answer key.
"""

from __future__ import annotations

import itertools
from fractions import Fraction as F

Y_BAR = (F(-274, 100), F(1588, 1000))


def rat(q) -> str:
    q = F(q)
    return f"{q.numerator}/{q.denominator}"


# -- CNF ---------------------------------------------------------------------


def random_clauses(rng, n: int, m: int, plant=None) -> list[tuple[int, int, int]]:
    """m clauses over 3 distinct variables each; with a planted assignment,
    only clauses it satisfies are kept."""
    clauses = []
    while len(clauses) < m:
        cl = tuple(v if rng.random() < 0.5 else -v for v in rng.sample(range(1, n + 1), 3))
        if plant is None or any((lit > 0) == plant[abs(lit) - 1] for lit in cl):
            clauses.append(cl)
    return clauses


def dimacs(n: int, clauses) -> str:
    return f"p cnf {n} {len(clauses)}\n" + "".join(f"{a} {b} {c} 0\n" for a, b, c in clauses)


def satisfies(clauses, assignment) -> bool:
    return all(any((lit > 0) == assignment[abs(lit) - 1] for lit in cl) for cl in clauses)


def satisfiable(n: int, clauses) -> bool:
    """Decided by enumerating all 2^n assignments."""
    return any(satisfies(clauses, a) for a in itertools.product((False, True), repeat=n))


# -- witness layouts (documented variable order of the reductions) -----------


def np_hard_point(plant) -> list[F]:
    """x_j = +-1 by truth value, x_{n+j} = -x_j, gamma = 4, Delta = 0,
    y = (-2.74, 1.588), d = s = 0: the 3n + 5 satisfiable-case layout."""
    x = [F(1) if b else F(-1) for b in plant]
    return x + [-v for v in x] + [F(4), F(0), *Y_BAR] + [F(0)] * (len(plant) + 1)


def quad_point(plant) -> list[F]:
    """The quadratized layout appends y_12 = y_1^2 and y_22 = y_2^2."""
    return np_hard_point(plant) + [Y_BAR[0] ** 2, Y_BAR[1] ** 2]


def cubic_point(plant) -> list[F]:
    return np_hard_point(plant)[: 2 * len(plant) + 4]


def ray_direction(plant) -> list[F]:
    """Direction of the cone K: x, y = (-2.74, 1.588, 1), Delta = 0, gamma = 4."""
    x = [F(1) if b else F(-1) for b in plant]
    return x + [-v for v in x] + [Y_BAR[0], Y_BAR[1], F(1), F(0), F(4)]


def h_value(y1, y2):
    return 2 * y1 ** 3 + y2 ** 3 - 6 * y1 * y2 + 4


def layout(variant: str, n: int, m: int) -> tuple[int, int]:
    """(variables, rows) of each reduction: 4n box rows, n pairing rows, m
    clause rows and 8 region rows are shared; the chain adds 2n + 2 rows."""
    shared = 5 * n + m + 8
    return {
        "quad": (3 * n + 7, shared + 2 * n + 2 + 3),
        "cubic": (2 * n + 4, shared + 1),
        "superopt": (3 * n + 7, shared + 2 * n + 2 + 1 + 4),
        "unbounded": (2 * n + 5, shared + 1),
    }[variant]


def superopt_coupling_row(n: int, m: int) -> int:
    """Index of the degree-3 row that couples s to y in the superopt system."""
    return 5 * n + m + 8 + 2 * n + 2


def pairing_row(n: int) -> int:
    """Index of the row x_1 + x_{n+1} = 0."""
    return 4 * n


# -- scalars of Q[t]/(t^e - k) ------------------------------------------------


def iroot(x: int, e: int) -> int:
    """floor(x^(1/e)) for x >= 1 by integer Newton iteration from above."""
    r = 1 << -(-x.bit_length() // e)
    while True:
        s = ((e - 1) * r + x // r ** (e - 1)) // e
        if s >= r:
            return r
        r = s


class Radical:
    """c_0 + c_1 t + ... + c_{e-1} t^(e-1) with t = k^(1/e) > 0."""

    __slots__ = ("e", "k", "c")

    def __init__(self, e: int, k: int, c):
        self.e, self.k = e, k
        self.c = tuple(F(v) for v in c) + (F(0),) * (e - len(c))

    def _lift(self, o) -> "Radical":
        return o if isinstance(o, Radical) else Radical(self.e, self.k, (o,))

    def __add__(self, o):
        o = self._lift(o)
        return Radical(self.e, self.k, [a + b for a, b in zip(self.c, o.c)])

    __radd__ = __add__

    def __mul__(self, o):
        o = self._lift(o)
        e = self.e
        prod = [F(0)] * (2 * e - 1)
        for i, a in enumerate(self.c):
            for j, b in enumerate(o.c):
                prod[i + j] += a * b
        for i in range(2 * e - 2, e - 1, -1):
            prod[i - e] += self.k * prod[i]
        return Radical(e, self.k, prod[:e])

    __rmul__ = __mul__

    def __pow__(self, p: int):
        out = Radical(self.e, self.k, (1,))
        for _ in range(p):
            out = out * self
        return out

    def sign(self) -> int:
        if not any(self.c):
            return 0
        bits = 64
        while True:
            r = iroot(self.k << (self.e * bits), self.e)
            lo, hi = F(r, 1 << bits), F(r + 1, 1 << bits)
            vlo = sum(c * (lo if c > 0 else hi) ** j for j, c in enumerate(self.c))
            vhi = sum(c * (hi if c > 0 else lo) ** j for j, c in enumerate(self.c))
            if vlo > 0 or vhi < 0:
                return 1 if vlo > 0 else -1
            bits *= 2


def sign(v) -> int:
    return v.sign() if isinstance(v, Radical) else (v > 0) - (v < 0)


def point_json(values) -> dict:
    """Point file in polycert's format; Radical coordinates share one field."""
    algs = [v for v in values if isinstance(v, Radical)]
    if not algs:
        return {"values": [rat(v) for v in values]}
    e, k = algs[0].e, algs[0].k
    rows = [[rat(c) for c in (v.c if isinstance(v, Radical) else Radical(e, k, (v,)).c)] for v in values]
    return {"e": e, "k": k, "values": rows}


def parse_point(data: dict) -> list:
    if "e" in data:
        return [Radical(int(data["e"]), int(data["k"]), row) for row in data["values"]]
    return [F(v) for v in data["values"]]


# -- systems -----------------------------------------------------------------


def poly_json(n: int, terms: dict) -> dict:
    """Polynomial file from {exponent tuple: coefficient}."""
    return {
        "n": n,
        "terms": [{"exps": list(e), "coef": rat(c)} for e, c in terms.items() if c],
    }


def system_json(n: int, rows) -> dict:
    """System file from (terms, rel, tag) rows."""
    return {
        "version": 1,
        "n": n,
        "var_names": [f"x{i + 1}" for i in range(n)],
        "constraints": [
            {"poly": poly_json(n, terms), "rel": rel, "tag": tag} for terms, rel, tag in rows
        ],
    }


def box_rows(bounds) -> list:
    """lo_i - x_i <= 0 and x_i - hi_i <= 0 for every coordinate."""
    n = len(bounds)
    rows = []
    for i, (lo, hi) in enumerate(bounds):
        unit = tuple(1 if j == i else 0 for j in range(n))
        rows.append(({unit: F(-1), (0,) * n: F(lo)}, "LE0", "linear"))
        rows.append(({unit: F(1), (0,) * n: -F(hi)}, "LE0", "linear"))
    return rows


def poly_value(terms, point):
    """terms: [(exponent list, coefficient)]; point may hold Radicals."""
    total = F(0)
    for exps, coef in terms:
        v = coef
        for x, e in zip(point, exps):
            if e:
                v = v * x ** e
        total = v + total
    return total


def load_rows(sys_json: dict) -> list:
    return [
        (
            [(t["exps"], F(t["coef"])) for t in c["poly"]["terms"]],
            c["rel"],
            c["tag"],
        )
        for c in sys_json["constraints"]
    ]


def violated_rows(rows, point, relax=None) -> list[int]:
    """Rows violated at point; relax = (ell, delta) weakens every nonlinear
    LE0 row g <= 0 to ell * delta * g - 1 <= 0."""
    out = []
    for i, (terms, rel, tag) in enumerate(rows):
        r = poly_value(terms, point)
        if relax and tag == "nonlinear" and rel == "LE0":
            r = relax[0] * relax[1] * r + F(-1)
        s = sign(r)
        if (rel == "LE0" and s > 0) or (rel == "EQ0" and s != 0):
            out.append(i)
    return out


# -- separable cubics --------------------------------------------------------


def cubic_min_bracket(a, b, c, d, lo: F, hi: F, k: int) -> tuple[F, F]:
    """(lower bound, grid minimum) of a x^3 + b x^2 + c x + d on [lo, hi].

    The grid has 2^k + 1 points; integer arithmetic over the common
    denominator D = 2^k * den(lo) * den(hi) keeps it cheap."""
    D = (1 << k) * lo.denominator * hi.denominator
    X0, W = int(lo * D), int((hi - lo) * D) >> k
    best = F(min(((a * X + b * D) * X + c * D * D) * X + d * D ** 3 for X in range(X0, X0 + (W << k) + 1, W)), D ** 3)
    radius = max(abs(lo), abs(hi))
    lip = 3 * abs(a) * radius * radius + 2 * abs(b) * radius + abs(c)
    return best - lip * (hi - lo) / (1 << k), best


# -- bound report ------------------------------------------------------------


def bound_answers(n: int, m: int, ell: int, d: int, H: int, loose: bool) -> dict:
    """Closed forms: M = (nH)^n, L = n d H M^(d-1) (n+d)^(d-1),
    1/eps = (2^(4 - n/2) max(H, 2n + 2m) d^n)^E with E = n 2^n d^n,
    delta = 2/eps and phi = L M ell delta.  E is even, so 2^(4 - n/2)
    raised to E is 2^((8 - n) E / 2); loose rounds 2^(4 - n/2) up to
    2^ceil(4 - n/2)."""
    M = (n * H) ** n
    L = n * d * H * M ** (d - 1) * (n + d) ** (d - 1)
    E = n * 2 ** n * d ** n
    twos = -(-(8 - n) // 2) * E if loose else (8 - n) * E // 2
    inv_eps = 2 ** twos * (max(H, 2 * n + 2 * m) * d ** n) ** E
    delta = 2 * inv_eps
    return {
        "M": str(M),
        "L": str(L),
        "epsilon_inverse": str(inv_eps),
        "delta": str(delta),
        "phi": str(L * M * ell * delta),
    }


def closer_than(q: F, coef: F, k: int, eps: F) -> bool:
    """|q - coef * sqrt(k)| <= eps, decided over Q (coef >= 0)."""
    lo, hi = q - eps, q + eps
    target = coef * coef * k
    return (lo <= 0 or lo * lo <= target) and hi >= 0 and target <= hi * hi
