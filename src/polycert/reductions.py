"""3-SAT parsing, the hardness-instance constructions, and witness builders.

Every generated system uses a fixed, documented variable order so witness
vectors are position-stable:

  quadratic / cubic-constraint system ("np-hard"):
      x_1..x_{2n}, gamma, Delta, y_1, y_2, d_1..d_n, s        (3n + 5)
      quadratized: append y_12, y_22                          (3n + 7)
  cubic single-constraint system:
      x_1..x_{2n}, gamma, Delta, y_1, y_2                     (2n + 4)
  superoptimal problem:
      np-hard variables, then z_1, z_2                        (3n + 7)
  unbounded cone K:
      x_1..x_{2n}, y_1, y_2, y_3, Delta, gamma                (2n + 5)

The cone K is the polytope P of the reduction homogenized by y_3: every
constant becomes a multiple of y_3.  Its objective is pi = y_1 y_3 minus
the reduction's cubic row homogenized by y_3.  Rows are written as
arithmetic on Polynomial.variable, and every shared piece (P, h, the cubic
row, the d-chain, the z-circles) has one builder here that gadgets reuses.

Literal u maps to coordinate u-1 (positive) or n + |u| - 1 (negated).
Decimal interval endpoints are exact rationals with power-of-ten
denominators (1.259 -> 1259/1000, etc.).
"""

from __future__ import annotations

import re
import warnings
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .ratcore import AlgebraicElement, check_tower_bits, refine_dyadic, theta_enclosure
from .polyalg import Polynomial
from .systems import EQ0, LE0, PolySystem

Y1_LO = Fraction(1259, 1000)
Y1_HI = Fraction(1260, 1000)
Y2_LO = Fraction(1587, 1000)
Y2_HI = Fraction(1590, 1000)
Y_BAR = (Fraction(-274, 100), Fraction(1588, 1000))


@dataclass(frozen=True)
class CnfFormula:
    """3-CNF formula in DIMACS literal convention (+j for w_j, -j for not w_j)."""

    num_vars: int
    clauses: tuple[tuple[int, int, int], ...]

    def __post_init__(self) -> None:
        if self.num_vars < 1:
            raise ValueError("formula needs at least one variable")
        for cl in self.clauses:
            if len(cl) != 3:
                raise ValueError("clause arity must be exactly 3")
            for lit in cl:
                if lit == 0 or abs(lit) > self.num_vars:
                    raise ValueError(f"literal {lit} out of range")

    def satisfied_by(self, assignment: Sequence[bool]) -> bool:
        if len(assignment) != self.num_vars:
            raise ValueError("assignment length mismatch")
        return all(
            any((lit > 0) == bool(assignment[abs(lit) - 1]) for lit in cl)
            for cl in self.clauses
        )


_DIMACS_INTS = re.compile(r"[+-]?[0-9]+(?:\s+[+-]?[0-9]+)*")


def parse_dimacs(text: str) -> CnfFormula:
    """Parse DIMACS CNF with exactly-3-literal clauses; comments skipped.
    Every number is [+-]digits in ASCII, the integer grammar of parse_int."""
    num_vars = None
    tokens: list[int] = []
    for number, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("c") or line.startswith("%"):
            continue
        if line.startswith("p"):
            parts = line.split()
            if len(parts) < 4 or parts[1] != "cnf" or not _DIMACS_INTS.fullmatch(f"{parts[2]} {parts[3]}"):
                raise ValueError(f"bad DIMACS header: {line!r}")
            num_vars = int(parts[2])
            continue
        if not _DIMACS_INTS.fullmatch(line):
            raise ValueError(f"line {number}: expected integers in ASCII digits")
        tokens.extend(map(int, line.split()))
    clauses: list[tuple[int, int, int]] = []
    cur: list[int] = []
    for t in tokens:
        if t == 0:
            if cur:
                if len(cur) != 3:
                    raise ValueError(f"clause arity {len(cur)} != 3: {cur}")
                clauses.append(tuple(cur))
                cur = []
        else:
            cur.append(t)
    if cur:
        if len(cur) != 3:
            raise ValueError(f"clause arity {len(cur)} != 3: {cur}")
        clauses.append(tuple(cur))
    if num_vars is None:
        num_vars = max((abs(l) for cl in clauses for l in cl), default=1)
    return CnfFormula(num_vars, tuple(clauses))


def _lit_coord(lit: int, n: int) -> int:
    return lit - 1 if lit > 0 else n + (-lit) - 1


def _check_n(cnf: CnfFormula) -> None:
    if cnf.num_vars < 1:
        raise ValueError("need n >= 1")
    if cnf.num_vars < 3:
        warnings.warn("constructions are stated for n >= 3; smaller n is well-defined but outside the stated hypothesis")


def _np_hard_names(n: int, quadratize: bool) -> list[str]:
    names = [f"x{j}" for j in range(1, 2 * n + 1)] + ["gamma", "Delta", "y1", "y2"]
    names += [f"d{k}" for k in range(1, n + 1)] + ["s"]
    if quadratize:
        names += ["y12", "y22"]
    return names


# -- shared pieces ------------------------------------------------------------
# Each piece takes its variables as polynomials (constants may stand in for
# some of them), so one builder serves every instance that contains it.


def h(y1, y2, one=1, squares=None):
    """h(y) = 2 y1^3 + y2^3 - 6 y1 y2 + 4, minimized at (2^(1/3), 2^(2/3)),
    homogenized by `one`; `squares` stands in for (y1^2, y2^2) in the
    quadratized row.  Polynomials and plain numbers alike."""
    sq1, sq2 = squares or (y1 * y1, y2 * y2)
    return 2 * y1 * sq1 + y2 * sq2 - 6 * y1 * y2 * one + 4 * one ** 3


def cubic_row(n: int, x, y1, y2, one=1, squares=None):
    """h(y) + n^6 - n^5 sum_{j <= n} x_j^2, homogenized by `one`: the
    degree-3 row of the reduction, before the chain slack s."""
    return h(y1, y2, one, squares) + n ** 6 * one ** 3 - n ** 5 * one * sum(xj * xj for xj in x[:n])


def y_box_rows(y1, y2, gamma, one=1) -> list[tuple]:
    """y in R_gamma = [1.259 - gamma, 1.26] x [1.587, 1.59], homogenized by `one`."""
    return [
        (Y1_LO * one - gamma - y1, LE0),
        (y1 - Y1_HI * one, LE0),
        (Y2_LO * one - y2, LE0),
        (y2 - Y2_HI * one, LE0),
    ]


def polytope_rows(cnf: CnfFormula, x, gamma, delta, y1, y2, one=1) -> list[tuple]:
    """The polytope P: boxes -1 <= x_j <= 1, pairing x_j + x_{n+j} = 0, one
    row per clause, the (gamma, Delta) region and y in R_gamma.  With
    one = y3 every constant becomes a multiple of y3 and the rows cut out
    the cone K, which also needs y3 >= 0 (placed before the clause rows)."""
    n = cnf.num_vars
    rows: list[tuple] = []
    for xj in x:
        rows += [(-xj - one, LE0), (xj - one, LE0)]
    rows += [(x[j] + x[n + j], EQ0) for j in range(n)]
    if one != 1:
        rows.append((-one, LE0))
    for cl in cnf.clauses:
        rows.append((-one - delta - sum(x[_lit_coord(lit, n)] for lit in cl), LE0))
    rows += [
        (-gamma, LE0),
        (-delta, LE0),
        (delta - 2 * one, LE0),
        (delta + gamma / 2 - 2 * one, LE0),
    ]
    return rows + y_box_rows(y1, y2, gamma, one)


def d_chain_rows(d, s) -> list[tuple]:
    """0 <= d_1 <= 1/2, 0 <= d_k <= d_{k-1}^2 and 0 <= s <= d_n^2."""
    rows = [(-d[0], LE0), (d[0] - Fraction(1, 2), LE0)]
    for prev, dk in zip(d, d[1:]):
        rows += [(-dk, LE0), (dk - prev ** 2, LE0)]
    return rows + [(-s, LE0), (s - d[-1] ** 2, LE0)]


def circle_rows(z1, z2, slack, radius2=5, cap=4) -> list[tuple]:
    """(z1 - 1)^2 + z2^2 >= radius2 + slack, (z1 + 1)^2 + z2^2 >= radius2 and
    z1^2/10 + z2^2 <= cap: the two-circle gap of the superoptimal problem."""
    return [
        (radius2 + slack - (z1 - 1) ** 2 - z2 ** 2, LE0),
        (radius2 - (z1 + 1) ** 2 - z2 ** 2, LE0),
        (z1 ** 2 / 10 + z2 ** 2 - cap, LE0),
    ]


# -- instances ----------------------------------------------------------------


def _np_hard_rows(cnf: CnfFormula, v: list[Polynomial], quadratize: bool) -> list[tuple]:
    """Rows of the np-hard system over variables v in its documented order;
    v may run past them (superopt appends z_1, z_2)."""
    n = cnf.num_vars
    x, (gamma, delta, y1, y2) = v[: 2 * n], v[2 * n : 2 * n + 4]
    d, s = v[2 * n + 4 : 3 * n + 4], v[3 * n + 4]
    rows = polytope_rows(cnf, x, gamma, delta, y1, y2) + d_chain_rows(d, s)
    squares = None
    if quadratize:
        squares = v[3 * n + 5 : 3 * n + 7]
        rows += [(sq - y ** 2, EQ0) for sq, y in zip(squares, (y1, y2))]
    rows.append((cubic_row(n, x, y1, y2, squares=squares) - s, LE0))
    return rows


def build_np_hard_system(cnf: CnfFormula, quadratize: bool = False) -> PolySystem:
    """Quadratic-constraint feasibility system over 3n+5 variables (3n+7 when
    quadratized).  Feasible iff the formula is not always falsifiable in the
    sense of the construction; see the witness builders."""
    _check_n(cnf)
    names = _np_hard_names(cnf.num_vars, quadratize)
    v = Polynomial.variables(len(names))
    return PolySystem(len(names), _np_hard_rows(cnf, v, quadratize), names)


def build_cubic_system(cnf: CnfFormula) -> PolySystem:
    """Variant with one degree-3 constraint and no (d, s) chain: 2n+4 variables."""
    _check_n(cnf)
    n = cnf.num_vars
    v = Polynomial.variables(2 * n + 4)
    x, (gamma, delta, y1, y2) = v[: 2 * n], v[2 * n :]
    rows = polytope_rows(cnf, x, gamma, delta, y1, y2) + [(cubic_row(n, x, y1, y2), LE0)]
    return PolySystem(2 * n + 4, rows, _np_hard_names(n, False)[: 2 * n + 4])


def build_superopt_problem(cnf: CnfFormula) -> tuple[PolySystem, Polynomial]:
    """Maximize z_2 subject to the quadratic system plus the z-circle rows.

    Returns (system, objective).  The shared variable s couples the circle
    row (z_1-1)^2 + z_2^2 >= 5 + s to the chain; the objective z_2 is also
    stored on the system itself.
    """
    _check_n(cnf)
    n = cnf.num_vars
    names = _np_hard_names(n, False) + ["z1", "z2"]
    v = Polynomial.variables(len(names))
    s, z1, z2 = v[3 * n + 4], v[-2], v[-1]
    rows = _np_hard_rows(cnf, v, False) + circle_rows(z1, z2, s) + [(-z2, LE0)]
    return PolySystem(len(names), rows, names, objective=z2), z2


def build_unbounded_instance(cnf: CnfFormula) -> tuple[PolySystem, Polynomial]:
    """The cone K over x_1..x_{2n}, y_1, y_2, y_3, Delta, gamma (the polytope
    P homogenized by y_3) and the cubic objective pi = y_1 y_3 minus the
    reduction's cubic row homogenized by y_3."""
    _check_n(cnf)
    n = cnf.num_vars
    v = Polynomial.variables(2 * n + 5)
    x, (y1, y2, y3, delta, gamma) = v[: 2 * n], v[2 * n :]
    rows = polytope_rows(cnf, x, gamma, delta, y1, y2, one=y3)
    pi = y1 * y3 - cubic_row(n, x, y1, y2, one=y3)
    names = [f"x{j}" for j in range(1, 2 * n + 1)] + ["y1", "y2", "y3", "Delta", "gamma"]
    return PolySystem(2 * n + 5, rows, names, objective=pi), pi


# -- witnesses ----------------------------------------------------------------


def assignment_vector(cnf: CnfFormula, assignment: Sequence[bool]) -> list[Fraction]:
    """The canonical satisfiable-case vector for an arbitrary assignment
    (feasible iff the assignment satisfies every clause): x_j = +-1 by truth
    value, x_{n+j} = -x_j, Delta=0, gamma=4, y = (-2.74, 1.588), d = s = 0."""
    n = cnf.num_vars
    if len(assignment) != n:
        raise ValueError("assignment length mismatch")
    x = [Fraction(1) if b else Fraction(-1) for b in assignment]
    vec = x + [-v for v in x]
    vec += [Fraction(4), Fraction(0), Y_BAR[0], Y_BAR[1]]
    vec += [Fraction(0)] * n + [Fraction(0)]
    return vec


def witness_satisfiable(cnf: CnfFormula, assignment: Sequence[bool]) -> list[Fraction]:
    """Feasible point of build_np_hard_system(cnf) from a satisfying assignment."""
    if not cnf.satisfied_by(assignment):
        raise ValueError("assignment does not satisfy the formula")
    return assignment_vector(cnf, assignment)


def find_y_hat(bound: Fraction) -> tuple[Fraction, Fraction]:
    """Rational point of R_0 with h(y) <= bound, by truncating the exact
    minimizer (2^(1/3), 2^(2/3)) to k fractional bits, doubling k until the
    exact evaluation passes.  Raises PrecisionCapError past the cap."""
    bound = Fraction(bound)
    if bound <= 0:
        raise ValueError("bound must be positive")

    def try_at(k: int) -> tuple[Fraction, Fraction] | None:
        y1, y2 = theta_enclosure(3, 2, k)[0], theta_enclosure(3, 4, k)[0]
        if (
            Y1_LO <= y1 <= Y1_HI
            and Y2_LO <= y2 <= Y2_HI
            and h(y1, y2) <= bound
        ):
            return y1, y2
        return None

    return refine_dyadic(try_at, "dyadic point with h(y) below the bound")


def witness_always(cnf: CnfFormula) -> list[Fraction]:
    """Feasible point of build_np_hard_system(cnf) that exists for every
    formula: tight doubly-exponential chain d_k = 2^(-2^(k-1)), s = 2^(-2^n),
    y a dyadic point with h(y) <= s."""
    n = cnf.num_vars
    s = Fraction(1, 2 ** (2 ** n))
    y1, y2 = find_y_hat(s)
    vec = [Fraction(1)] * n + [Fraction(-1)] * n
    vec += [Fraction(0), Fraction(2), y1, y2]
    vec += [Fraction(1, 2 ** (2 ** (k - 1))) for k in range(1, n + 1)]
    vec += [s]
    return vec


def cubic_algebraic_witness(cnf: CnfFormula) -> list:
    """Feasible point of build_cubic_system(cnf) that exists for every
    formula: x_j = 1 = -x_{n+j}, gamma = 0, Delta = 2, and y the exact cubic
    minimizer (2^(1/3), 2^(2/3)) in Q[t]/(t^3 - 2).  The degree-3 row holds
    with residual exactly zero; with gamma = 0 no rational y can do that, so
    coordinates of this witness are necessarily irrational."""
    n = cnf.num_vars
    t = AlgebraicElement(3, 2, (Fraction(0), Fraction(1), Fraction(0)))
    vec: list = [Fraction(1)] * n + [Fraction(-1)] * n
    vec += [Fraction(0), Fraction(2), t, t * t]
    return vec


def witness_epsilon(cnf: CnfFormula, eps: Fraction) -> list[Fraction]:
    """Near-feasible point of the superoptimal system: all violation is
    confined to the single coupling row and bounded by eps, while z = (0, 2)
    is exactly feasible with objective value 2."""
    eps = Fraction(eps)
    if not 0 < eps < 1:
        raise ValueError("eps must lie in (0, 1)")
    n = cnf.num_vars
    y1, y2 = find_y_hat(eps)
    vec = [Fraction(1)] * n + [Fraction(-1)] * n
    vec += [Fraction(0), Fraction(2), y1, y2]
    vec += [Fraction(0)] * n + [Fraction(0)]
    vec += [Fraction(0), Fraction(2)]
    return vec


def unbounded_ray_witness(cnf: CnfFormula, assignment: Sequence[bool]) -> list[Fraction]:
    """Rational ray direction of the cone K along which the objective grows
    cubically, from a satisfying assignment: x_j = +-1, x_{n+j} = -x_j,
    y = (-2.74, 1.588, 1), Delta = 0, gamma = 4.

    The pairing rows force x_{n+j} = -x_j; a variant with x_{n+j} = 0 would
    leave the pairing equations unsatisfied, so it is not generated.
    """
    if not cnf.satisfied_by(assignment):
        raise ValueError("assignment does not satisfy the formula")
    x = [Fraction(1) if b else Fraction(-1) for b in assignment]
    return x + [-v for v in x] + [Y_BAR[0], Y_BAR[1], Fraction(1), Fraction(0), Fraction(4)]


def _with_squares(cnf: CnfFormula, point: list) -> list:
    """A point of the np-hard layout extended by y_12 = y_1^2, y_22 = y_2^2."""
    y1, y2 = point[2 * cnf.num_vars + 2 : 2 * cnf.num_vars + 4]
    return point + [y1 * y1, y2 * y2]


def _quad_witness_always(cnf: CnfFormula) -> list[Fraction]:
    # y_1 and y_2 have up to 2^n fractional bits, so y_1^2 up to 2^(n+1)
    check_tower_bits(cnf.num_vars + 1, "the always witness of the quad variant")
    return _with_squares(cnf, witness_always(cnf))


# The CLI's reduction variants.  "build" maps a formula to (system,
# objective or None); each witness mode maps to the builder of a feasible
# point in the variant's layout: "sat" takes (cnf, assignment), "always"
# takes (cnf) and "eps" takes (cnf, eps).
VARIANTS = {
    "quad": {
        "build": lambda cnf: (build_np_hard_system(cnf, quadratize=True), None),
        "sat": lambda cnf, assignment: _with_squares(cnf, witness_satisfiable(cnf, assignment)),
        "always": _quad_witness_always,
    },
    "cubic": {
        "build": lambda cnf: (build_cubic_system(cnf), None),
        # the cubic layout is the np-hard layout without the (d, s) chain
        "sat": lambda cnf, assignment: witness_satisfiable(cnf, assignment)[: 2 * cnf.num_vars + 4],
        "always": cubic_algebraic_witness,
    },
    "superopt": {
        "build": build_superopt_problem,
        # z = (0, 2) is feasible on the circle rows when s = 0
        "sat": lambda cnf, assignment: witness_satisfiable(cnf, assignment) + [Fraction(0), Fraction(2)],
        "eps": witness_epsilon,
    },
    "unbounded": {"build": build_unbounded_instance, "sat": unbounded_ray_witness},
}


def extract_assignment(point: Sequence[Fraction], n: int | None = None) -> tuple[bool, ...]:
    """Sign-rounded assignment from the x-prefix: w_j true iff x_j > 0
    (zero maps to false).  n is inferred for the 3n+5 layout when omitted."""
    if n is None:
        if (len(point) - 5) % 3 != 0 or len(point) < 8:
            raise ValueError("cannot infer n from point length; pass n explicitly")
        n = (len(point) - 5) // 3
    if len(point) < n:
        raise ValueError("point too short")
    return tuple(Fraction(point[j]) > 0 for j in range(n))


def brute_force_sat(cnf: CnfFormula) -> tuple[bool, ...] | None:
    """Lex-first satisfying assignment (False < True, variable index order)
    via DPLL with unit propagation, or None; desk-scale (n <= 25)."""
    n = cnf.num_vars
    if n > 25:
        raise ValueError("brute_force_sat is desk-scale only (n <= 25)")
    clauses = [tuple(cl) for cl in cnf.clauses]

    def propagate(values: dict[int, bool]) -> dict[int, bool] | None:
        values = dict(values)
        changed = True
        while changed:
            changed = False
            for cl in clauses:
                unassigned = []
                satisfied = False
                for lit in cl:
                    v = values.get(abs(lit))
                    if v is None:
                        unassigned.append(lit)
                    elif (lit > 0) == v:
                        satisfied = True
                        break
                if satisfied:
                    continue
                if not unassigned:
                    return None
                if len(unassigned) == 1:
                    lit = unassigned[0]
                    values[abs(lit)] = lit > 0
                    changed = True
        return values

    def search(values: dict[int, bool]) -> dict[int, bool] | None:
        values = propagate(values)
        if values is None:
            return None
        var = next((j for j in range(1, n + 1) if j not in values), None)
        if var is None:
            return values
        for b in (False, True):
            trial = dict(values)
            trial[var] = b
            found = search(trial)
            if found is not None:
                return found
        return None

    result = search({})
    if result is None:
        return None
    return tuple(result[j] for j in range(1, n + 1))
