"""Growth classification of polynomials along rays, and rationalization of
cubically-unbounded rays inside polyhedra."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .ratcore import dyadic_floor, field_of, refine_dyadic, sign
from .polyalg import Polynomial, uni_degree
from .systems import PolySystem, scalar_to_json
from .linear import dot, linear_rows, project_to_nullspace, satisfies

TO_PLUS_INFINITY = "to_plus_infinity"
TO_MINUS_INFINITY = "to_minus_infinity"
BOUNDED_CONSTANT = "bounded_constant"


def _is_zero_vec(v: Sequence) -> bool:
    return all(sign(c) == 0 for c in v)


@dataclass(frozen=True)
class RayClass:
    """Growth order (degree of the restriction's leading nonzero term) and
    direction of f(x0 + t v) as t -> +infinity; order 0 is always
    bounded_constant regardless of the constant's sign."""

    growth_order: int
    direction: str
    leading: object = None

    def to_json(self) -> dict:
        out = {"growth_order": self.growth_order, "direction": self.direction}
        if self.leading is not None:
            out["leading"] = scalar_to_json(self.leading)
        return out


def classify_ray(f: Polynomial, x0: Sequence, v: Sequence) -> RayClass:
    """Exact growth class of t -> f(x0 + t v); coordinates may be rational
    or share one algebraic extension field."""
    if len(x0) != f.num_vars or len(v) != f.num_vars:
        raise ValueError("dimension mismatch")
    if _is_zero_vec(v):
        raise ValueError("direction must be nonzero")
    rest = f.restrict_to_ray(list(x0), list(v))
    order = uni_degree(rest)
    lead = rest[order]
    if order == 0:
        return RayClass(0, BOUNDED_CONSTANT, lead)
    return RayClass(order, TO_PLUS_INFINITY if sign(lead) > 0 else TO_MINUS_INFINITY, lead)


def rationalize_unbounded_ray(
    f: Polynomial,
    x_bar: Sequence,
    v_bar: Sequence,
    polytope: PolySystem | None = None,
    eps: Fraction = Fraction(1, 10),
) -> tuple[list[Fraction], list[Fraction]]:
    """Rational (x, v) close to (x_bar, v_bar) keeping cubic growth to
    +infinity: dyadic floor at doubling precision until both points are
    within eps and f3(v) > 0 exactly; with a polytope, x must satisfy it and
    v must stay in the recession cone (projecting onto the active rows at
    v_bar when rounding exits, and re-checking f3 > 0)."""
    eps = Fraction(eps)
    if eps <= 0:
        raise ValueError("eps must be positive")
    cls = classify_ray(f, x_bar, v_bar)
    if cls.growth_order != 3 or cls.direction != TO_PLUS_INFINITY:
        raise ValueError(
            f"ray must grow cubically to +infinity (got order {cls.growth_order}, {cls.direction})"
        )
    f3 = f.homogeneous_component(3)
    rows = None
    if polytope is not None:
        if polytope.num_nonlinear:
            raise ValueError("polytope must be purely linear")
        rows = linear_rows(polytope)
        for a, b in rows:
            if sign(dot(a, x_bar) - b) > 0:
                raise ValueError("base point does not satisfy the polytope")
            if sign(dot(a, v_bar)) > 0:
                raise ValueError("direction is not in the recession cone")

    if field_of(list(x_bar) + list(v_bar)) is None:
        return [Fraction(c) for c in x_bar], [Fraction(c) for c in v_bar]

    def try_at(k: int) -> tuple[list[Fraction], list[Fraction]] | None:
        if Fraction(1, 1 << k) > eps:
            return None
        x_t = [dyadic_floor(c, k) for c in x_bar]
        v_t = [dyadic_floor(c, k) for c in v_bar]
        if f3.eval(v_t) <= 0:
            return None
        if rows is None:
            return x_t, v_t
        if not satisfies(rows, x_t):
            return None
        if all(dot(a, v_t) <= 0 for a, _ in rows):
            return x_t, v_t
        active = [a for a, _ in rows if sign(dot(a, v_bar)) == 0]
        v_p = project_to_nullspace(v_t, active)
        if _is_zero_vec(v_p) or any(dot(a, v_p) > 0 for a, _ in rows):
            return None
        if f3.eval(v_p) > 0:
            return x_t, v_p
        raise ValueError("projection onto the recession cone lost cubic growth (f3 <= 0)")

    return refine_dyadic(try_at, "qualifying dyadic pair")


def quartic_counterexample() -> Polynomial:
    """y2 - (y2 - y1^2)^2: bounded along every ray of the plane yet
    unbounded above over the plane (take the parabola points (k, k^2))."""
    y1, y2 = Polynomial.variables(2)
    return y2 - (y2 - y1 ** 2) ** 2
