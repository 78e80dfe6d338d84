"""Rational feasibility for linear constraints plus one separable cubic.

The solver handles n in {1, 2}: it enumerates the faces of the (bounded)
polytope, pins the exact sign of the cubic's minimum on each face, and
either returns a rational feasible point or certifies infeasibility.  No
floating point anywhere.

An irrational critical point lies in Q(sqrt k) for k the numerator times the
denominator of a discriminant.  k is never factored, so the time is
polynomial in the coefficients' bits; _sum_sign decides a sum over two such
fields with AlgebraicElement arithmetic.

A minimum of exactly 0 is always attained at a rational point.  At a
critical point y = +-sqrt(q) of a depressed cubic a y^3 + C y + D the value
is D + (2C/3) y with C = -3aq != 0, so an irrational critical point gives a
value with a nonzero sqrt part; at the interior local minimum that part is
negative in every coordinate, so the parts of two coordinates cannot cancel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from operator import index

from .ratcore import (
    AlgebraicElement,
    dyadic_floor,
    encoding_size_vec,
    format_rat,
    parse_rat,
    refine_dyadic,
    sign,
    sign_plus_root,
)
from .polyalg import Polynomial, uni_derivative, uni_eval
from .systems import PolySystem
from .linear import enumerate_vertices, linear_rows, satisfies


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


def _sum_sign(terms) -> int:
    """Exact sign of a sum of Fractions and elements of Q(sqrt k) from at most
    two fields.  With two, the sum is u + d sqrt(q) for u in Q(sqrt p), whose
    sign sign_plus_root reads off u, d and u^2 - d^2 q in Q(sqrt p), whether
    or not p and q are squarefree."""
    rational = Fraction(0)
    fields: dict[int, AlgebraicElement] = {}
    for x in terms:
        if isinstance(x, AlgebraicElement):
            fields[x.k] = fields[x.k] + x if x.k in fields else x
        else:
            rational += x
    if len(fields) > 2:
        raise ValueError("more than two square-root fields in one sum")
    if len(fields) < 2:
        return sign(sum(fields.values(), rational))
    u, w = fields.values()
    return sign_plus_root(u + rational + w.coeffs[0], w.coeffs[1], w.k)


@dataclass(frozen=True)
class SolveResult:
    """Outcome of solve_separable: a verified rational point or a certified
    'infeasible'."""

    status: str  # "point" | "infeasible"
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


def _result_point(point: list[Fraction]) -> SolveResult:
    return SolveResult("point", list(point), size_bits=encoding_size_vec(point))


def _derivative_roots(p: list[Fraction]) -> list:
    """Real roots of p', exact and ascending: a root is a Fraction, or an
    element of Q(sqrt k) when the discriminant num/den is not a rational
    square, with sqrt(num/den) written as sqrt(k)/den for k = num * den."""
    dp = uni_derivative(p)
    while dp and dp[-1] == 0:
        dp.pop()
    if len(dp) == 3:
        c0, c1, c2 = dp
        disc = c1 * c1 - 4 * c2 * c0
        if disc < 0:
            return []
        base = -c1 / (2 * c2)
        if disc == 0:
            return [base]
        k = disc.numerator * disc.denominator
        root = math.isqrt(k)
        scale = 1 / abs(disc.denominator * 2 * c2)
        if root * root == k:
            return [base - root * scale, base + root * scale]
        return [AlgebraicElement(2, k, (base, -scale)), AlgebraicElement(2, k, (base, scale))]
    if len(dp) == 2:
        return [-dp[0] / dp[1]]
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
    verts, edges = enumerate_vertices(rows, n)
    if not verts:
        return SolveResult("infeasible", note="empty polytope")
    g = sc.polynomial()

    for v in verts:
        if g.eval(list(v)) <= 0:
            return _result_point(list(v))

    for v0, v1 in edges:
        direction = [b - a for a, b in zip(v0, v1)]
        p = g.restrict_to_ray(list(v0), direction)
        for t_star in _derivative_roots(p):
            if not (sign(t_star) > 0 and sign(t_star - 1) < 0):
                continue
            s = sign(uni_eval(p, t_star))
            if isinstance(t_star, Fraction) and s <= 0:
                return _result_point([a + t_star * (b - a) for a, b in zip(v0, v1)])
            if s < 0:

                def try_at(k: int) -> SolveResult | None:
                    t = min(max(dyadic_floor(t_star, k), Fraction(0)), Fraction(1))
                    if uni_eval(p, t) <= 0:
                        return _result_point([a + t * (b - a) for a, b in zip(v0, v1)])
                    return None

                return refine_dyadic(try_at, "dyadic point with f <= 0 on an edge")

    # interior critical point: per coordinate, the root of f_i' where f_i'' > 0
    coords = []
    for i, (a, _, _, _) in enumerate(sc.coeffs):
        roots = _derivative_roots(sc.univariate(i))
        if not roots:
            return SolveResult("infeasible")
        coords.append(roots[-1] if a > 0 else roots[0])
    if any(_sum_sign([-b] + [aj * xj for aj, xj in zip(arow, coords)]) > 0 for arow, b in rows):
        return SolveResult("infeasible")
    vsign = _sum_sign([uni_eval(sc.univariate(i), x) for i, x in enumerate(coords)])
    if vsign < 0:

        def try_at(k: int) -> SolveResult | None:
            x = [dyadic_floor(c, k) for c in coords]
            if satisfies(rows, x) and g.eval(x) <= 0:
                return _result_point(x)
            return None

        return refine_dyadic(try_at, "dyadic point with f <= 0 near the interior minimizer")
    if vsign == 0:  # a zero minimum lies at a rational critical point
        return _result_point(coords)
    return SolveResult("infeasible")
