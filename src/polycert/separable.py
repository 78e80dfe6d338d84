"""Rational feasibility for linear constraints plus one separable cubic.

The solver handles n in {1, 2}: it enumerates the faces of the (bounded)
polytope, pins the exact sign of the cubic's minimum on each face using
radical arithmetic, and either returns a rational feasible point, certifies
infeasibility, or flags the knife-edge case where the minimum is exactly 0
and attained only at irrational points.  No floating point anywhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from operator import index

from .ratcore import (
    AlgebraicElement,
    Rat,
    dyadic_floor,
    encoding_size_vec,
    format_rat,
    parse_rat,
    precision_cap,
    rational_sqrt,
    refine_dyadic,
    sign,
    squarefree_split,
)
from .polyalg import Polynomial, uni_derivative, uni_eval
from .systems import PolySystem
from .linear import enumerate_vertices, linear_rows, recession_ray, satisfies
from . import bounds

DEFAULT_DYADIC_CAP = 1 << 16


@dataclass(frozen=True)
class SeparableCubic:
    """f(x) = sum_i a_i x_i^3 + b_i x_i^2 + c_i x_i + d_i with a_i != 0."""

    coeffs: tuple[tuple[Fraction, Fraction, Fraction, Fraction], ...]

    def __post_init__(self) -> None:
        norm = tuple(
            tuple(Fraction(v) for v in quad) for quad in self.coeffs
        )
        object.__setattr__(self, "coeffs", norm)
        if not norm:
            raise ValueError("need at least one variable")
        for i, (a, _, _, _) in enumerate(norm):
            if a == 0:
                raise ValueError(f"leading coefficient a_{i + 1} must be nonzero")

    @property
    def n(self) -> int:
        return len(self.coeffs)

    def polynomial(self) -> Polynomial:
        x = Polynomial.variables(self.n)
        terms = (a * xi ** 3 + b * xi ** 2 + c * xi + d for xi, (a, b, c, d) in zip(x, self.coeffs))
        return sum(terms, Polynomial.zero(self.n))

    def univariate(self, i: int) -> list[Fraction]:
        a, b, c, d = self.coeffs[i]
        return [d, c, b, a]

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "coeffs": [
                [format_rat(v) for v in quad] for quad in self.coeffs
            ],
        }

    @classmethod
    def from_json(cls, data: dict) -> "SeparableCubic":
        quads = tuple(tuple(map(_coefficient, quad)) for quad in data["coeffs"])
        if "n" in data and index(data["n"]) != len(quads):
            raise ValueError(f"n is {data['n']} but there are {len(quads)} coefficient rows")
        return cls(quads)


def _coefficient(v) -> Fraction:
    """A coefficient read from JSON: a "num/den" string or an integer.  A JSON
    float is refused: its binary rounding would enter the exact solver."""
    if isinstance(v, str):
        return parse_rat(v)
    if isinstance(v, int) and not isinstance(v, bool):
        return Fraction(v)
    raise TypeError(f"coefficient {v!r} must be a \"num/den\" string or an integer")


@dataclass(frozen=True)
class ShiftedCubic:
    """Depressed form: per coordinate f_i(y - b_i/(3a_i)) = a_i y^3 + ct_i y + dt_i."""

    terms: tuple[tuple[Fraction, Fraction, Fraction], ...]

    @property
    def n(self) -> int:
        return len(self.terms)


def tartaglia_shift(sc: SeparableCubic) -> ShiftedCubic:
    """Per-coordinate depressed cubic: ct = (27a^2 c - 9a b^2)/(27a^2),
    dt = (27a^2 d - 9abc + 2b^3)/(27a^2)."""
    out = []
    for a, b, c, d in sc.coeffs:
        ct = (27 * a * a * c - 9 * a * b * b) / (27 * a * a)
        dt = (27 * a * a * d - 9 * a * b * c + 2 * b ** 3) / (27 * a * a)
        out.append((a, ct, dt))
    return ShiftedCubic(tuple(out))


def critical_radical(a: Rat, ct: Rat) -> tuple[Fraction, int] | None:
    """q = -ct/(3a) with the local-minimum branch sign, or None when q < 0
    (the depressed cubic is strictly monotone)."""
    a = Fraction(a)
    ct = Fraction(ct)
    if a == 0:
        raise ValueError("leading coefficient must be nonzero")
    q = -ct / (3 * a)
    if q < 0:
        return None
    return q, (1 if a > 0 else -1)


def rational_local_min(sc: SeparableCubic) -> tuple[list[Fraction], Fraction] | None:
    """Coordinates of the separable local minimum and its value, when every
    critical radical is rational; None as soon as one radical is irrational."""
    shifted = tartaglia_shift(sc)
    xs: list[Fraction] = []
    for i, (a, ct, _) in enumerate(shifted.terms):
        cr = critical_radical(a, ct)
        if cr is None:
            raise ValueError(f"coordinate {i + 1} has no real critical pair")
        q, sign = cr
        r = rational_sqrt(q)
        if r is None:
            return None
        b = sc.coeffs[i][1]
        xs.append(sign * r - b / (3 * a))
    gamma = sc.polynomial().eval(xs)
    return xs, gamma


def irrational_coordinate(sc: SeparableCubic) -> int | None:
    """First coordinate (0-based) whose critical radical exists but is
    irrational; None when all radicals are rational or absent."""
    shifted = tartaglia_shift(sc)
    for i, (a, ct, _) in enumerate(shifted.terms):
        cr = critical_radical(a, ct)
        if cr is not None and rational_sqrt(cr[0]) is None:
            return i
    return None


def _uni_scale_to_int(p: list[Fraction]) -> list[int]:
    lcm = 1
    for c in p:
        lcm = lcm * c.denominator // math.gcd(lcm, c.denominator)
    return [int(c * lcm) for c in p]


def gamma_star_root_bound(sc: SeparableCubic) -> int:
    """Integer delta with |gamma*| >= 1/delta, from Cauchy bounds on the
    integer polynomial (quadratic for n=1, quartic for n=2) having the
    critical value gamma* among its roots.  The gamma* = 0 case is rejected;
    callers handle it separately."""
    if sc.n not in (1, 2):
        raise ValueError("root bound is defined for n in {1, 2}")
    shifted = tartaglia_shift(sc)
    for i, (a, ct, _) in enumerate(shifted.terms):
        if critical_radical(a, ct) is None:
            raise ValueError(f"coordinate {i + 1} has no real critical pair")
    D = sum(dt for _, _, dt in shifted.terms)
    A = [-4 * ct ** 3 / (27 * a) for a, ct, _ in shifted.terms]
    # polynomial in u = gamma - D
    if sc.n == 1:
        pu = [-A[0], Fraction(0), Fraction(1)]  # u^2 - A1
    else:
        # (u^2 - A1 - A2)^2 - 4 A1 A2
        s = A[0] + A[1]
        pu = [
            s * s - 4 * A[0] * A[1],
            Fraction(0),
            -2 * s,
            Fraction(0),
            Fraction(1),
        ]
    # substitute u = gamma - D by Horner with polynomial coefficients
    pg = [Fraction(0)]
    for coef in reversed(pu):
        # pg = pg * (gamma - D) + coef
        shifted_up = [Fraction(0)] + pg
        scaled = [c * (-D) for c in pg] + [Fraction(0)]
        pg = [x + y for x, y in zip(shifted_up, scaled)]
        pg[0] += coef
    while len(pg) > 1 and pg[-1] == 0:
        pg.pop()
    while pg and pg[0] == 0:
        pg.pop(0)
    if len(pg) <= 1:
        raise ValueError("critical value is 0; no positive root bound exists")
    ip = _uni_scale_to_int(pg)
    _, delta = bounds.cauchy_bounds([Fraction(c) for c in ip])
    return math.ceil(delta)


# -- exact sign of r0 + sum_i c_i sqrt(w_i) -----------------------------------


class RadicalSum:
    """Sum of a rational and rational multiples of square roots.

    Radicals are normalized to distinct squarefree integer cores, so the sum
    is zero exactly when every stored coefficient is zero, and any nonzero
    sum's sign is decided by interval refinement that must terminate.
    """

    __slots__ = ("rational", "parts")

    def __init__(self) -> None:
        self.rational = Fraction(0)
        self.parts: dict[int, Fraction] = {}

    def add_rational(self, q: Rat) -> "RadicalSum":
        self.rational += Fraction(q)
        return self

    def add_sqrt(self, coef: Rat, w: Rat) -> "RadicalSum":
        """Adds coef * sqrt(w), w >= 0."""
        coef = Fraction(coef)
        w = Fraction(w)
        if w < 0:
            raise ValueError("radicand must be nonnegative")
        if coef == 0 or w == 0:
            return self
        outer, core = squarefree_split(w.numerator * w.denominator)
        scale = Fraction(outer, w.denominator)
        if core == 1:
            self.rational += coef * scale
        else:
            cur = self.parts.get(core, Fraction(0)) + coef * scale
            if cur:
                self.parts[core] = cur
            else:
                self.parts.pop(core, None)
        return self

    def is_rational(self) -> bool:
        return not self.parts

    def sign(self) -> int:
        if not self.parts:
            return sign(self.rational)
        bits = 32
        while True:
            lo = hi = self.rational
            for core, coef in self.parts.items():
                s = math.isqrt(core << (2 * bits))
                r_lo = Fraction(s, 1 << bits)
                r_hi = Fraction(s + 1, 1 << bits)
                if coef >= 0:
                    lo += coef * r_lo
                    hi += coef * r_hi
                else:
                    lo += coef * r_hi
                    hi += coef * r_lo
            if lo > 0:
                return 1
            if hi < 0:
                return -1
            bits *= 2


def _sqrt_parts(w: Fraction) -> tuple[Fraction, int]:
    """sqrt(w) = m * sqrt(core) with core squarefree (core = 1 when rational)."""
    if w < 0:
        raise ValueError("radicand must be nonnegative")
    if w == 0:
        return Fraction(0), 1
    outer, core = squarefree_split(w.numerator * w.denominator)
    return Fraction(outer, w.denominator), core


def _quad_value(rho0: Fraction, rho1: Fraction, core: int):
    """rho0 + rho1 sqrt(core) as a Fraction (core = 1) or field element."""
    if core == 1 or rho1 == 0:
        return rho0 + rho1
    return AlgebraicElement(2, core, (rho0, rho1))


@dataclass(frozen=True)
class SolveResult:
    """Outcome of solve_separable: a verified rational point, a certified
    'infeasible', or 'needs_irrational' when the minimum is exactly zero and
    attained only at irrational points."""

    status: str  # "point" | "infeasible" | "needs_irrational"
    point: list[Fraction] | None = None
    note: str | None = None
    size_bits: int | None = None

    @property
    def feasible(self) -> bool:
        return self.status == "point"

    def to_json(self) -> dict:
        out: dict = {"status": self.status}
        if self.point is not None:
            out["point"] = {
                "values": [format_rat(v) for v in self.point]
            }
            out["size_bits"] = self.size_bits
        if self.note:
            out["note"] = self.note
        return out


def _result_point(point: list[Fraction], note: str | None = None) -> SolveResult:
    return SolveResult("point", list(point), note, encoding_size_vec(point))


def _edges_of(rows, verts: list[tuple[Fraction, ...]]):
    """Edges of a 2-D polytope as vertex pairs, from shared active rows."""
    seen = set()
    edges = []
    for a, b in rows:
        active = [v for v in verts if sum(ai * vi for ai, vi in zip(a, v)) == b]
        if len(active) < 2:
            continue
        active.sort()
        for v0, v1 in zip(active, active[1:]):
            if v0 == v1:
                continue
            key = (v0, v1)
            if key not in seen:
                seen.add(key)
                edges.append(key)
    return edges


def _derivative_roots(p: list[Fraction]):
    """Roots of p' as (value, is_rational) pairs, exact, ascending."""
    dp = uni_derivative(p)
    while dp and dp[-1] == 0:
        dp.pop()
    if len(dp) == 3:
        c0, c1, c2 = dp
        disc = c1 * c1 - 4 * c2 * c0
        if disc < 0:
            return []
        m, core = _sqrt_parts(disc)
        base = -c1 / (2 * c2)
        spread = m / (2 * c2)
        roots = [
            _quad_value(base, -abs(spread), core),
            _quad_value(base, abs(spread), core),
        ]
        if core == 1 or spread == 0:
            return [(v, True) for v in sorted(set(roots))]
        return [(roots[0], False), (roots[1], False)]
    if len(dp) == 2:
        return [(-dp[0] / dp[1], True)]
    return []


def solve_separable(sc: SeparableCubic, linear: PolySystem) -> SolveResult:
    """Rational point of {x in P : f(x) <= 0} for a bounded linear P and the
    separable cubic f, or a certified negative outcome.

    Faces are scanned deterministically (vertices in lexicographic order,
    then edges, then the interior); the first face whose exact minimum sign
    qualifies produces the answer, dyadically refined when the minimizer
    itself is irrational.
    """
    n = sc.n
    if n not in (1, 2):
        raise ValueError("solver handles n in {1, 2} only")
    if linear.num_vars != n:
        raise ValueError("system dimension does not match the cubic")
    if linear.num_nonlinear:
        raise ValueError("constraint system must be purely linear")
    rows = linear_rows(linear)
    ray = recession_ray(rows, n)
    if ray is not None:
        raise ValueError(
            "polytope is unbounded; bound it explicitly (ray classification lives in the rays module)"
        )
    verts = enumerate_vertices(rows, n)
    if not verts:
        return SolveResult("infeasible", note="empty polytope")
    g = sc.polynomial()
    cap = precision_cap(DEFAULT_DYADIC_CAP)
    zero_note: str | None = None

    for v in verts:
        if g.eval(list(v)) <= 0:
            return _result_point(list(v))

    if n == 2:
        for v0, v1 in _edges_of(rows, verts):
            direction = [b - a for a, b in zip(v0, v1)]
            p = g.restrict_to_ray(list(v0), direction)
            for t_star, is_rat in _derivative_roots(p):
                if not (sign(t_star) > 0 and sign(t_star - 1) < 0):
                    continue
                s = sign(uni_eval(p, t_star))
                if is_rat and s <= 0:
                    return _result_point([a + t_star * (b - a) for a, b in zip(v0, v1)])
                if s < 0:

                    def try_at(k: int) -> SolveResult | None:
                        t = min(max(dyadic_floor(t_star, k), Fraction(0)), Fraction(1))
                        if uni_eval(p, t) <= 0:
                            return _result_point([a + t * (b - a) for a, b in zip(v0, v1)])
                        return None

                    return refine_dyadic(try_at, cap, "dyadic point with f <= 0 on an edge")
                if s == 0:
                    zero_note = "minimum 0 attained at an irrational edge point"

    # interior critical point (the per-coordinate local-minimum branch)
    shifted = tartaglia_shift(sc)
    interior = []
    for i, (a, ct, _) in enumerate(shifted.terms):
        cr = critical_radical(a, ct)
        if cr is None:
            interior = None
            break
        q, branch = cr
        m, core = _sqrt_parts(q)
        b = sc.coeffs[i][1]
        interior.append((Fraction(-b, 1) / (3 * a), Fraction(branch) * m, core, q, branch))
    if interior is not None:
        inside = True
        for arow, brhs in rows:
            rs = RadicalSum().add_rational(-brhs)
            for j, (base, _, _, q, branch) in enumerate(interior):
                rs.add_rational(arow[j] * base)
                rs.add_sqrt(arow[j] * branch, q)
            if rs.sign() > 0:
                inside = False
                break
        if inside:
            value = RadicalSum()
            for i, (a, ct, dt) in enumerate(shifted.terms):
                q, branch = interior[i][3], interior[i][4]
                value.add_rational(dt)
                value.add_sqrt(Fraction(2, 3) * ct * branch, q)
            vsign = value.sign()
            coords = [_quad_value(base, coef, core) for base, coef, core, _, _ in interior]
            if vsign < 0:

                def try_at(k: int) -> SolveResult | None:
                    x = [dyadic_floor(c, k) for c in coords]
                    if satisfies(rows, x) and g.eval(x) <= 0:
                        return _result_point(x)
                    return None

                return refine_dyadic(
                    try_at, cap, "dyadic point with f <= 0 near the interior minimizer"
                )
            if vsign == 0:
                if all(core == 1 for _, _, core, _, _ in interior):
                    if satisfies(rows, coords) and g.eval(coords) <= 0:
                        return _result_point(coords)
                else:
                    zero_note = "minimum 0 attained only at an irrational interior point"

    if zero_note:
        return SolveResult("needs_irrational", note=zero_note)
    return SolveResult("infeasible")
