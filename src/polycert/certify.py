"""Short feasibility certificates for relaxed polynomial systems.

A certificate is a vertex of the polytope intersected with one implicit
grid cell around a known feasible point: its lexicographically least point,
found by exact linear programs.  The grid granularity phi is chosen
so that moving within a cell changes each nonlinear constraint by at most
1/(ell*delta), which is exactly the slack the relaxed system grants.  The
grid itself is never materialized; only the one cell index is computed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .ratcore import Scalar, encoding_size_vec, field_of, format_int, format_rat
from .systems import EQ0, PolySystem, Verdict, relax, verify
from .linear import Simplex, cell_lex_min, integer_row, linear_rows, signed_units
from .bounds import delta_bound, lipschitz_constant, phi_bound


@dataclass(frozen=True)
class Certificate:
    point: tuple[Fraction, ...]
    delta_used: int
    phi: int
    box_index: tuple[int, ...]
    size_bits: int
    check: Verdict | None = None  # the relaxed verdict of point; not written

    def to_json(self) -> dict:
        return {
            "point": {"values": [format_rat(v) for v in self.point]},
            "delta_used": format_int(self.delta_used),
            "phi": format_int(self.phi),
            "box_index": [format_int(j) for j in self.box_index],
            "size_bits": self.size_bits,
        }


def grid_certificate(
    system: PolySystem,
    delta: int | None,
    x_tilde: Sequence[Fraction],
    M: Fraction | None = None,
    L: Fraction | None = None,
) -> Certificate:
    """Vertex certificate for the delta-relaxed system, built from a feasible
    point of the exact system: its rows tagged "linear" are the polytope P,
    kept exact, and its nonlinear LE0 rows are the g that relaxation weakens.
    A delta of None is the paper bound for the system's shape.  M and L can
    be overridden with exact values (they must still bound the box and the
    Lipschitz constant for the certificate to verify; verification is always
    re-run here)."""
    n = system.num_vars
    g_list = []
    for c in system.constraints:
        if c.tag == "nonlinear":
            if c.rel == EQ0:
                raise ValueError("cannot certify a system with nonlinear equality rows")
            g_list.append(c.poly)
    if not 1 <= n <= 3:
        raise ValueError("certify is desk-scale (1 <= n <= 3)")
    if not g_list:
        raise ValueError("need at least one nonlinear constraint to certify")
    if delta is None:  # only now: its value can be astronomically large
        delta = delta_bound(
            n, len(system.constraints), max(system.max_degree, 1), max(system.height, 1)
        )
    delta = int(delta)
    if delta < 1:
        raise ValueError("delta must be a positive integer")
    if field_of(x_tilde) is not None:
        raise ValueError("x_tilde must be rational: the grid cell is located by exact floors")
    x_tilde = [Fraction(c) for c in x_tilde]
    v0 = verify(system, x_tilde)
    if not v0.feasible:
        raise ValueError(
            f"x_tilde does not satisfy the exact system (worst violation {v0.worst_violation})"
        )
    rows = [integer_row(a, b) for a, b in linear_rows(system)]
    lp = Simplex(rows, n)
    tops = [lp.maximize(c) for c in signed_units(n)]  # P holds x_tilde: bounded iff all have an optimum
    if any(top.status == "unbounded" for top in tops):
        raise ValueError("polytope is unbounded")
    if M is None:
        M = max([top.value for top in tops] + [Fraction(1)])
    else:
        M = Fraction(M)
        if M < 1:
            raise ValueError("M must be >= 1")
    ell = len(g_list)
    if L is None:
        d = max(g.degree() for g in g_list)
        H = max(g.height_and_degree()[0] for g in g_list)
        L = lipschitz_constant(n, max(d, 1), max(H, 1), M)
    else:
        L = Fraction(L)
        if L < 1:
            raise ValueError("L must be >= 1")
    phi = phi_bound(L, M, ell, delta)
    width = Fraction(M, phi)
    box_index = [max(-phi, min(phi - 1, math.floor(xi * phi / M))) for xi in x_tilde]
    x_bar = cell_lex_min(rows, [width * j for j in box_index], width)
    if x_bar is None:
        raise ValueError("P intersected with the containing cell has no vertex")
    vr = check_certificate(system, delta, x_bar)
    if not vr.feasible:
        raise ValueError(
            f"certificate failed relaxed verification (worst {vr.worst_violation}); "
            "M or L override too small?"
        )
    return Certificate(
        x_bar,
        delta,
        phi,
        tuple(box_index),
        encoding_size_vec(x_bar),
        vr,
    )


def check_certificate(system: PolySystem, delta: int, x_bar: Sequence[Scalar]) -> Verdict:
    """The checking direction: exact verification of x_bar, rational or over
    one field Q[t]/(t^e - k), against the delta-relaxed system.  Polynomial
    time in certificate and system size."""
    return verify(relax(system, int(delta)), x_bar)

