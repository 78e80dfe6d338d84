"""Small standalone example systems, each bundled with exact landmark points.

Every bundle validates its landmarks at construction time: the stated
verdict, worst violation, violated rows, spot residuals, and objective
value are all recomputed exactly and construction fails on any mismatch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .ratcore import AlgebraicElement, Rat, check_tower_bits, format_rat, sign
from .polyalg import Polynomial
from .reductions import Y1_LO, Y_BAR, circle_rows, d_chain_rows, h, y_box_rows
from .systems import EQ0, LE0, PolySystem, Verdict, point_to_json, verify


@dataclass(frozen=True)
class Landmark:
    """A named point with its exact expected verification outcome."""

    name: str
    point: tuple
    expect_feasible: bool
    expect_worst: Fraction = Fraction(0)
    expect_violated: tuple[int, ...] | None = None
    expect_residuals: dict[int, Fraction] | None = None
    expect_objective: object | None = None

    def to_json(self) -> dict:
        out = {
            "name": self.name,
            "point": point_to_json(list(self.point)),
            "expect_feasible": self.expect_feasible,
            "expect_worst": format_rat(self.expect_worst),
        }
        if self.expect_violated is not None:
            out["expect_violated"] = list(self.expect_violated)
        return out


@dataclass(frozen=True)
class GadgetBundle:
    system: PolySystem
    landmarks: tuple[Landmark, ...]
    notes: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        for lm in self.landmarks:
            v = self.check(lm)
            if v.feasible != lm.expect_feasible:
                raise AssertionError(
                    f"landmark {lm.name!r}: feasible={v.feasible}, expected {lm.expect_feasible}"
                )
            worst = v.worst_violation
            if sign(worst - lm.expect_worst) != 0:
                raise AssertionError(
                    f"landmark {lm.name!r}: worst violation {worst}, expected {lm.expect_worst}"
                )
            if lm.expect_violated is not None and tuple(v.violated) != lm.expect_violated:
                raise AssertionError(
                    f"landmark {lm.name!r}: violated rows {v.violated}, expected {lm.expect_violated}"
                )
            if lm.expect_residuals:
                for idx, target in lm.expect_residuals.items():
                    if sign(v.residuals[idx] - target) != 0:
                        raise AssertionError(
                            f"landmark {lm.name!r}: residual[{idx}] = {v.residuals[idx]}, expected {target}"
                        )
            if lm.expect_objective is not None:
                if self.system.objective is None:
                    raise AssertionError(f"landmark {lm.name!r} expects an objective value but the system has no objective")
                val = self.system.objective.eval(list(lm.point))
                if sign(val - lm.expect_objective) != 0:
                    raise AssertionError(
                        f"landmark {lm.name!r}: objective {val}, expected {lm.expect_objective}"
                    )

    def check(self, lm: Landmark) -> Verdict:
        return verify(self.system, list(lm.point))

    def to_json(self) -> dict:
        return {
            "system": self.system.to_json(),
            "landmarks": [lm.to_json() for lm in self.landmarks],
            "notes": list(self.notes),
        }


def h_polynomial() -> Polynomial:
    """h(y1, y2) = 2 y1^3 + y2^3 - 6 y1 y2 + 4, minimized at (2^(1/3), 2^(2/3))."""
    return h(*Polynomial.variables(2))


def gadget_h(gamma: Rat) -> GadgetBundle:
    """Box [1.259 - gamma, 1.26] x [1.587, 1.59] intersected with h(y) <= 0.

    At gamma = 0 the only point of the region is the irrational minimizer
    (2^(1/3), 2^(2/3)); once gamma >= 3999/1000 the rational point
    (-137/50, 397/250) with h < -7 enters the box.
    """
    gamma = Fraction(gamma)
    if gamma < 0:
        raise ValueError("gamma must be nonnegative")
    y1, y2 = Polynomial.variables(2)
    rows = y_box_rows(y1, y2, gamma) + [(h(y1, y2), LE0)]
    t = AlgebraicElement.root(3, 2)
    ystar = (t, t * t)
    entry = Y1_LO - Y_BAR[0]
    ybar_feasible = gamma >= entry
    landmarks = (
        Landmark("ystar", ystar, True, expect_residuals={4: Fraction(0)}),
        Landmark(
            "ybar",
            Y_BAR,
            ybar_feasible,
            expect_worst=Fraction(0) if ybar_feasible else entry - gamma,
            expect_violated=() if ybar_feasible else (0,),
        ),
    )
    notes = (
        "the irrational point ystar is the unique feasible point at gamma = 0 (grid evidence, not a proof here)",
        f"ybar enters the box exactly at gamma = {entry}",
    )
    return GadgetBundle(PolySystem(2, rows, ["y1", "y2"]), landmarks, notes)


def gadget_tiny(n: int) -> GadgetBundle:
    """Doubly-shrinking chain over (s, d_1..d_n): 0 <= d_1 <= 1/2,
    0 <= d_k <= d_{k-1}^2, 0 <= s <= d_n^2.  The largest attainable s is
    2^(-2^n), so every feasible s needs at least 2^n bits unless it is 0."""
    if n < 1:
        raise ValueError("need n >= 1")
    check_tower_bits(n, "gadget tiny")
    nv = n + 1
    s, *d = Polynomial.variables(nv)
    rows = d_chain_rows(d, s)
    names = ["s"] + [f"d{k}" for k in range(1, n + 1)]
    max_point = tuple(
        [Fraction(1, 2 ** (2 ** n))] + [Fraction(1, 2 ** (2 ** (k - 1))) for k in range(1, n + 1)]
    )
    landmarks = (
        Landmark("max_s", max_point, True),
        Landmark("origin", tuple([Fraction(0)] * nv), True),
    )
    return GadgetBundle(PolySystem(nv, rows, names), landmarks)


def gadget_khachiyan(n: int) -> GadgetBundle:
    """Doubly-growing chain y_1 >= 2, y_{i+1} >= y_i^2; every feasible point
    has y_n >= 2^(2^(n-1)), so feasible points need exponentially many bits."""
    if n < 1:
        raise ValueError("need n >= 1")
    check_tower_bits(n - 1, "gadget khachiyan")
    y = Polynomial.variables(n)
    rows = [(2 - y[0], LE0)] + [(yi ** 2 - yj, LE0) for yi, yj in zip(y, y[1:])]
    chain = tuple(Fraction(2 ** (2 ** i)) for i in range(n))
    landmarks = (
        Landmark(
            "min_chain",
            chain,
            True,
            expect_residuals={i: Fraction(0) for i in range(n)},
        ),
    )
    names = [f"y{i}" for i in range(1, n + 1)]
    return GadgetBundle(PolySystem(n, rows, names), landmarks)


def gadget_badboy(N: int) -> GadgetBundle:
    """Bounded QCQP (max x_2) whose near-feasible points wildly overshoot the
    true optimum.  Variables (x_1, x_2, d_1..d_N).

    The bundled near-feasible point attains objective sqrt(2) with a single
    violation of exactly 2^(-2^N) (at the first row), while every truly
    feasible point has x_2 <= 1.228; that bound is recorded as documentation
    and spot-checked by tests, not proved here.
    """
    if N < 2:
        raise ValueError("need N >= 2")
    check_tower_bits(N, "gadget badboy")
    nv = N + 2
    x1, x2, *d = Polynomial.variables(nv)
    # (x1 - 1)^2 + x2^2 - d_N^2 >= 3, (x1 + 1)^2 + x2^2 >= 3, x1^2/10 + x2^2 <= 2
    rows = circle_rows(x1, x2, d[-1] ** 2, radius2=3, cap=2)
    rows += [(d[0] + d[-1] - Fraction(1, 2), EQ0), (-d[0], LE0)]
    rows += [(di ** 2 - dj, LE0) for di, dj in zip(d, d[1:])]
    names = ["x1", "x2"] + [f"d{i}" for i in range(1, N + 1)]
    system = PolySystem(nv, rows, names, objective=x2)

    sqrt2 = AlgebraicElement.root(2, 2)
    tail = Fraction(1, 2 ** (2 ** (N - 1)))
    near = [Fraction(0), sqrt2, Fraction(1, 2) - tail]
    near += [Fraction(1, 2 ** (2 ** (i - 1))) for i in range(2, N + 1)]
    violation = Fraction(1, 2 ** (2 ** N))
    landmarks = [
        Landmark(
            "near_feasible",
            tuple(near),
            False,
            expect_worst=violation,
            expect_violated=(0,),
            expect_residuals={0: violation},
            expect_objective=sqrt2,
        )
    ]
    if N >= 3:
        # zero-tail variant: chain start left at 1/2, middle entries squared
        # once more, last entry 0; violates two chain rows, worst 3/16
        zt = [Fraction(0), sqrt2, Fraction(1, 2)]
        zt += [Fraction(1, 2 ** (2 ** i)) for i in range(2, N)]
        zt += [Fraction(0)]
        landmarks.append(
            Landmark(
                "zero_tail",
                tuple(zt),
                False,
                expect_worst=Fraction(3, 16),
                expect_violated=(5, 3 + N),
                expect_residuals={5: Fraction(3, 16), 3 + N: violation},
                expect_objective=sqrt2,
            )
        )
    notes = (
        "true optimum is below 1.23 even though the near-feasible landmark attains sqrt(2)",
        "third row's right-hand side is 2 here; the otherwise-parallel two-circle system uses 4",
        "the zero-tail landmark keeps the last chain violation 2^(-2^N) but also breaks the first chain row by 3/16; near_feasible repairs that by shifting d_1",
    )
    return GadgetBundle(system, tuple(landmarks), notes)


def gadget_socp(a: int, b: int, c: int, d: int) -> GadgetBundle:
    """Squared second-order-cone system whose feasible points are all
    irrational: x_1^2 + x_2^2 <= x_0^2, x_0^2 + x_3^2 <= d^2, a <= x_1,
    b <= x_2, c <= x_3, x_0 >= 0, for a Pythagorean quadruple a^2+b^2+c^2 = d^2.
    The landmark pins x_0 = sqrt(a^2 + b^2)."""
    for v in (a, b, c, d):
        if not isinstance(v, int) or v < 1:
            raise ValueError("a, b, c, d must be positive integers")
    if a * a + b * b + c * c != d * d:
        raise ValueError("not a Pythagorean quadruple: a^2+b^2+c^2 != d^2")
    x0, x1, x2, x3 = Polynomial.variables(4)
    rows = [
        (x1 ** 2 + x2 ** 2 - x0 ** 2, LE0),
        (x0 ** 2 + x3 ** 2 - d * d, LE0),
        (a - x1, LE0),
        (b - x2, LE0),
        (c - x3, LE0),
        (-x0, LE0),
    ]
    s = a * a + b * b
    r = math.isqrt(s)
    root = Fraction(r) if r * r == s else AlgebraicElement.root(2, s)
    point = (root, Fraction(a), Fraction(b), Fraction(c))
    landmarks = (
        Landmark(
            "corner",
            point,
            True,
            expect_residuals={i: Fraction(0) for i in range(5)},
        ),
    )
    names = ["x0", "x1", "x2", "x3"]
    return GadgetBundle(PolySystem(4, rows, names), landmarks)


def gadget_unlucky(sigma: Rat) -> GadgetBundle:
    """Two-circle gap system over (z_1, z_2): (z_1-1)^2 + z_2^2 >= 5 + sigma,
    (z_1+1)^2 + z_2^2 >= 5, z_1^2/10 + z_2^2 <= 4, z_2 >= 0.

    At sigma = 0 the point (0, 2) is feasible and tight on the first three
    rows; for sigma > 0 the strip -2 < z_1 < 2 empties out and z_2^2 <= 18/5.
    """
    sigma = Fraction(sigma)
    if not 0 <= sigma <= 1:
        raise ValueError("sigma must lie in [0, 1]")
    z1, z2 = Polynomial.variables(2)
    rows = circle_rows(z1, z2, sigma) + [(-z2, LE0)]
    feasible = sigma == 0
    landmarks = (
        Landmark(
            "z_star",
            (Fraction(0), Fraction(2)),
            feasible,
            expect_worst=sigma,
            expect_violated=() if feasible else (0,),
        ),
    )
    notes = ("no feasible point has 0 < |z_1| < 2",)
    return GadgetBundle(PolySystem(2, rows, ["z1", "z2"]), landmarks, notes)


GADGET_BUILDERS = {
    "h": gadget_h,
    "tiny": gadget_tiny,
    "khachiyan": gadget_khachiyan,
    "badboy": gadget_badboy,
    "socp": gadget_socp,
    "unlucky": gadget_unlucky,
}

# Each builder's keyword parameters and their defaults; the type of a
# default is the type a caller's value is parsed to (Fraction or int).
GADGET_DEFAULTS = {
    "h": {"gamma": Fraction(0)},
    "tiny": {"n": 3},
    "khachiyan": {"n": 3},
    "badboy": {"N": 2},
    "socp": {"a": 2, "b": 2, "c": 1, "d": 3},
    "unlucky": {"sigma": Fraction(0)},
}
