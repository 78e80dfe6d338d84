"""Polynomial inequality/equation systems and exact feasibility verification.

A system is a list of constraints p(x) <= 0 (LE0) or p(x) = 0 (EQ0) over a
shared variable list.  Each constraint carries a tag: "linear" rows make up
the polytope part, "nonlinear" rows are the polynomial part that relaxation
weakens.  Tags default by degree but may be forced to "nonlinear" so that a
degree-one row can still be treated as one of the relaxed constraints.

Verification plugs a point in and reports exact residuals; nothing is ever
rounded.  Points may be rational vectors or vectors over one extension field
Q[t]/(t^e - k).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from operator import index
from typing import Sequence

from .ratcore import (
    AlgebraicElement,
    Scalar,
    field_of,
    format_rat,
    json_chunks,
    lift,
    parse_rat,
    scalars,
    sign,
)
from .polyalg import Polynomial

LE0 = "LE0"
EQ0 = "EQ0"


@dataclass(frozen=True)
class Constraint:
    poly: Polynomial
    rel: str
    tag: str

    def __post_init__(self) -> None:
        if self.rel not in (LE0, EQ0):
            raise ValueError(f"relation must be {LE0} or {EQ0}")
        if self.tag not in ("linear", "nonlinear"):
            raise ValueError("tag must be 'linear' or 'nonlinear'")
        if self.tag == "linear" and self.poly.degree() > 1:
            raise ValueError("'linear' tag on a constraint of degree > 1")


class PolySystem:
    """Immutable system of polynomial constraints with optional objective."""

    __slots__ = ("num_vars", "var_names", "constraints", "objective")

    def __init__(
        self,
        num_vars: int,
        constraints: Sequence[tuple | Constraint],
        var_names: Sequence[str] | None = None,
        objective: Polynomial | None = None,
    ):
        if var_names is None:
            var_names = [f"x{i + 1}" for i in range(num_vars)]
        if len(var_names) != num_vars:
            raise ValueError("var_names length mismatch")
        rows: list[Constraint] = []
        for item in constraints:
            if isinstance(item, Constraint):
                c = item
            else:
                poly, rel, *rest = item
                tag = rest[0] if rest else None
                if tag is None:
                    tag = "linear" if poly.degree() <= 1 else "nonlinear"
                c = Constraint(poly, rel, tag)
            if c.poly.num_vars != num_vars:
                raise ValueError("constraint variable count mismatch")
            rows.append(c)
        if objective is not None and objective.num_vars != num_vars:
            raise ValueError("objective variable count mismatch")
        self.num_vars = num_vars
        self.var_names = tuple(str(v) for v in var_names)
        self.constraints = tuple(rows)
        self.objective = objective

    # -- metadata ------------------------------------------------------------

    @property
    def num_nonlinear(self) -> int:
        return sum(1 for c in self.constraints if c.tag == "nonlinear")

    @property
    def max_degree(self) -> int:
        return max((c.poly.degree() for c in self.constraints), default=0)

    @property
    def height(self) -> int:
        """Max integer coefficient height after clearing each row's denominators."""
        return max((c.poly.height_and_degree()[0] for c in self.constraints), default=0)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, PolySystem)
            and self.num_vars == other.num_vars
            and self.var_names == other.var_names
            and self.constraints == other.constraints
            and self.objective == other.objective
        )

    def __repr__(self) -> str:
        return f"PolySystem(n={self.num_vars}, rows={len(self.constraints)})"

    # -- serialization ---------------------------------------------------------

    def to_json(self) -> dict:
        data = {
            "version": 1,
            "n": self.num_vars,
            "var_names": list(self.var_names),
            "constraints": [
                {"poly": c.poly.to_json(), "rel": c.rel, "tag": c.tag}
                for c in self.constraints
            ],
        }
        if self.objective is not None:
            data["objective"] = self.objective.to_json()
        return data

    @classmethod
    def from_json(cls, data: dict) -> "PolySystem":
        if data.get("version") != 1:
            raise ValueError("unsupported system file version")
        constraints = [
            Constraint(Polynomial.from_json(c["poly"]), c["rel"], c["tag"])
            for c in data["constraints"]
        ]
        objective = (
            Polynomial.from_json(data["objective"]) if "objective" in data else None
        )
        return cls(index(data["n"]), constraints, data["var_names"], objective)

    def dumps(self) -> str:
        """The compact file text, json.dumps(..., separators=(",", ":"))."""
        return "".join(json_chunks(self.to_json()))

    @classmethod
    def loads(cls, text: str) -> "PolySystem":
        return cls.from_json(json.loads(text))


def scalar_to_json(v: Scalar):
    """"num/den" for a rational, {"e", "k", "coeffs"} for a field element."""
    if isinstance(v, AlgebraicElement):
        return {"e": v.e, "k": v.k, "coeffs": [format_rat(c) for c in v.coeffs]}
    return format_rat(v)


@dataclass(frozen=True)
class Verdict:
    """Exact verification outcome: residual of every row and the worst violation.

    For LE0 rows the violation is max(residual, 0); for EQ0 rows it is
    |residual|.  feasible holds iff the worst violation is exactly zero.
    """

    feasible: bool
    residuals: tuple
    worst_violation: Scalar
    violated: tuple[int, ...] = field(default=())

    def to_json(self) -> dict:
        return {
            "feasible": self.feasible,
            "worst_violation": scalar_to_json(self.worst_violation),
            "residuals": [scalar_to_json(r) for r in self.residuals],
            "violated": list(self.violated),
        }


def _violation(residual: Scalar, rel: str) -> Scalar:
    s = sign(residual)
    if rel == LE0:
        return residual if s > 0 else Fraction(0)
    return -residual if s < 0 else residual


def _max_scalar(a: Scalar, b: Scalar) -> Scalar:
    """The larger of a and b (a on ties), lifted to the field of either."""
    return lift(b if b > a else a, field_of((a, b)))


def verify(sys_: PolySystem, x: Sequence[Scalar]) -> Verdict:
    """Exact feasibility check of a point with rational coordinates or
    coordinates in one field Q[t]/(t^e - k); residuals lie in the point's
    field if it has one."""
    if len(x) != sys_.num_vars:
        raise ValueError("point dimension mismatch")
    pt = scalars(x)
    ext = field_of(pt)
    residuals = []
    worst: Scalar = Fraction(0)
    violated = []
    for i, c in enumerate(sys_.constraints):
        r = lift(c.poly.eval_scalars(pt), ext)
        residuals.append(r)
        v = _violation(r, c.rel)
        if sign(v) > 0:
            violated.append(i)
        worst = _max_scalar(worst, v)
    return Verdict(sign(worst) == 0, tuple(residuals), worst, tuple(violated))


verify_alg = verify  # former algebraic-only name, kept for callers


def relax(sys_: PolySystem, delta: int) -> PolySystem:
    """Weaken every nonlinear row g <= 0 to ell*delta*g - 1 <= 0.

    Linear rows pass through unchanged, as do nonlinear EQ0 rows (relaxation
    is defined for inequality rows).  With ell = 0 this is the identity.
    """
    if delta < 1:
        raise ValueError("delta must be >= 1")
    ell = sys_.num_nonlinear
    rows = []
    for c in sys_.constraints:
        if c.tag == "nonlinear" and c.rel == LE0:
            rows.append(Constraint(c.poly * (ell * delta) - 1, LE0, "nonlinear"))
        else:
            rows.append(c)
    return PolySystem(sys_.num_vars, rows, sys_.var_names, sys_.objective)


# -- point files ------------------------------------------------------------


def point_to_json(x: Sequence[Scalar]) -> dict:
    ext = field_of(x)
    if ext is None:
        return {"values": [format_rat(v) for v in x]}
    rows = [[format_rat(c) for c in lift(v, ext).coeffs] for v in x]
    return {"e": ext[0], "k": ext[1], "values": rows}


def point_from_json(data: dict) -> list:
    if "e" in data:
        e, k = index(data["e"]), index(data["k"])
        return [
            AlgebraicElement(e, k, tuple(parse_rat(c) for c in row))
            for row in data["values"]
        ]
    return [parse_rat(v) for v in data["values"]]
