"""Exact linear algebra over Q for low-dimensional polyhedra.

Polyhedra arrive as lists of rows (a, b) meaning a.x <= b.  Everything here
is exact.  `Simplex` answers linear programs over the rows with integer
pivots, and every polyhedral question is put to it: vertices, edges and
boundedness are read off the optimal points of linear programs, for n in
{1, 2}, and a polyhedron is rounded into a grid cell by the cell's
lexicographically least point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .systems import EQ0, PolySystem

Row = tuple[tuple[Fraction, ...], Fraction]


def linear_rows(sys_: PolySystem) -> list[Row]:
    """Rows (a, b) with a.x <= b for the constraints tagged "linear".

    EQ0 rows become two opposite inequalities.
    """
    rows: list[Row] = []
    n = sys_.num_vars
    for c in sys_.constraints:
        if c.tag != "linear":  # a Constraint keeps this tag to degree <= 1
            continue
        a = tuple(c.poly.terms.get(((i, 1),), Fraction(0)) for i in range(n))
        b = -c.poly.constant_term()
        rows.append((a, b))
        if c.rel == EQ0:
            rows.append((tuple(-x for x in a), -b))
    return rows


def dot(a: Sequence, x: Sequence):
    """a.x, exact; entries may be rational or lie in one algebraic field."""
    return sum(ai * xi for ai, xi in zip(a, x))


def satisfies(rows: Sequence[Row], x: Sequence[Fraction]) -> bool:
    return all(dot(row, x) <= b for row, b in rows)


@dataclass(frozen=True)
class LPResult:
    """One answer of `Simplex.maximize`: "optimal" with the optimum and a
    vertex attaining it, "unbounded", or "infeasible"."""

    status: str
    value: Fraction | None = None
    point: tuple[Fraction, ...] | None = None


def integer_row(a: Sequence[Fraction], b: Fraction) -> tuple[tuple[int, ...], int]:
    """a and b times the least common multiple of their denominators,
    divided by the gcd of the results: the same half-space a.x <= b over Z,
    primitive.  The entries may be ints or Fractions."""
    scale = math.lcm(b.denominator, *(v.denominator for v in a))
    row = [v.numerator * (scale // v.denominator) for v in a]
    row.append(b.numerator * (scale // b.denominator))
    g = math.gcd(*row) or 1
    return tuple(v // g for v in row[:-1]), row[-1] // g


class Simplex:
    """Exact simplex over {x : a.x <= b for each row} with x free.

    The tableau is kept over Z with one common denominator d > 0, the
    determinant of the basis: row i says d * basic_i + sum_j T[i][j] *
    nonbasic_j = T[i][-1].  A pivot replaces each entry by a 2x2 minor
    divided exactly by the previous d (Edmonds 1967, Bareiss 1968), so no
    Fraction and no gcd enters a pivot and every entry stays a minor of the
    integer rows.  Variable ids are 0..n-1 for x, n..n+m-1 for the slack
    of each row and n+m for the phase-one variable.  First each x enters
    the basis (a ratio test keeps a feasible start feasible); then, if the
    basic point violates a row, one added variable relaxes every violated
    row and is driven to 0 (Chvatal's phase one).  Pivots follow Bland's
    rule (smallest entering id, ties in the ratio test to the smallest
    leaving id), so the method terminates on degenerate polyhedra.
    Successive `maximize` and `lex_min` calls start from the last optimal
    basis.  The rows are ints: the code that builds an LP scales them once
    with `integer_row`.
    """

    def __init__(self, rows: Sequence[tuple[Sequence[int], int]], n: int):
        self.n = n
        self.d = 1
        self.T = [[*a, b] for a, b in rows]
        if not all(type(u) is int for t in self.T for u in t):  # a pivot's // would floor a Fraction
            raise TypeError("Simplex takes integer rows; scale them with integer_row")
        self.basis = list(range(n, n + len(self.T)))
        self.cobasis = list(range(n))
        for s in range(n):  # x_s enters through the row that blocks it first, either way
            r = None
            for i, t in enumerate(self.T):
                if t[s] and self.basis[i] >= n and (r is None or t[-1] * abs(self.T[r][s]) < self.T[r][-1] * abs(t[s])):
                    r = i
            if r is not None:
                self._pivot(r, s)
        self.feasible = self._phase_one()

    def _pivot(self, r: int, s: int, objective: list[int] | None = None) -> None:
        T, d = self.T, self.d
        row = T[r]
        p = row[s]
        rows = T if objective is None else T + [objective]
        for i, t in enumerate(rows):
            if t is row:
                continue
            f = t[s]
            if f:
                t[:] = [(p * u - f * v) // d for u, v in zip(t, row)]
                t[s] = -f
            elif p != d:
                t[:] = [p * u // d for u in t]
        row[s] = d
        if p < 0:
            for t in rows:
                t[:] = [-u for u in t]
        self.d = abs(p)
        self.basis[r], self.cobasis[s] = self.cobasis[s], self.basis[r]

    def _phase_one(self) -> bool:
        n, T = self.n, self.T
        slack = [i for i, b in enumerate(self.basis) if b >= n]
        r = min(slack, key=lambda i: (T[i][-1], self.basis[i]), default=None)
        if r is None or T[r][-1] >= 0:
            return True
        aux = n + len(T)
        for i, t in enumerate(T):
            t.insert(-1, -self.d if self.basis[i] >= n else 0)
        self.cobasis.append(aux)
        s = len(self.cobasis) - 1
        self._pivot(r, s)
        objective = [-u for u in T[r]]
        self._optimize(objective)
        if objective[-1] < 0:
            return False
        if aux in self.basis:  # at 0; its row has a nonzero, as aux can grow freely
            r = self.basis.index(aux)
            self._pivot(r, next(j for j, u in enumerate(T[r][:-1]) if u))
        s = self.cobasis.index(aux)
        for t in T:
            del t[s]
        del self.cobasis[s]
        return True

    def _objective(self, c: Sequence[Fraction]) -> list[int]:
        """The row of c.x in the current tableau, c scaled to integers."""
        c = integer_row(c, 0)[0]
        d = self.d
        objective = [0] * (len(self.cobasis) + 1)
        for i, b in enumerate(self.basis):
            if b < self.n and c[b]:
                objective = [u + c[b] * v for u, v in zip(objective, self.T[i])]
        for j, b in enumerate(self.cobasis):
            if b < self.n:
                objective[j] -= c[b] * d
        return objective

    def _optimize(self, objective: list[int], fixed: set[int] = frozenset()) -> int | None:
        """Pivot until objective (the row of a quantity to maximize) can
        grow no more, the variables in fixed held at 0; returns None then,
        or the column along which it grows without bound."""
        n, T, basis, cobasis = self.n, self.T, self.basis, self.cobasis
        while True:
            s = None
            for j, b in enumerate(cobasis):
                u = objective[j]
                if (u < 0 or (u and b < n)) and b not in fixed and (s is None or b < cobasis[s]):
                    s = j
            if s is None:
                return None
            if cobasis[s] < n:
                return s
            r = None
            for i, t in enumerate(T):
                f = t[s]
                if f > 0 and basis[i] >= n:
                    if r is None:
                        r = i
                        continue
                    lhs, rhs = t[-1] * T[r][s], T[r][-1] * f
                    if lhs < rhs or (lhs == rhs and basis[i] < basis[r]):
                        r = i
            if r is None:
                return s
            self._pivot(r, s, objective)

    def _point(self) -> tuple[Fraction, ...]:
        """The current basic point."""
        x = [Fraction(0)] * self.n
        for i, b in enumerate(self.basis):
            if b < self.n:
                x[b] = Fraction(self.T[i][-1], self.d)
        return tuple(x)

    def maximize(self, c: Sequence[Fraction]) -> LPResult:
        """max c.x over the rows, from the last optimal basis."""
        if not self.feasible:
            return LPResult("infeasible")
        if self._optimize(self._objective(c)) is not None:
            return LPResult("unbounded")
        x = self._point()
        return LPResult("optimal", dot(c, x), x)

    def lex_min(self) -> tuple[Fraction, ...] | None:
        """The lexicographically least feasible point, or None when there
        is none: n sequential LPs that minimize x_1, then x_2 on the face
        where x_1 is least, and so on.  Each optimum fixes at 0 every
        nonbasic variable whose reduced cost is nonzero, which cuts the
        feasible set down to that face.  An unbounded stage raises."""
        if not self.feasible:
            return None
        fixed: set[int] = set()
        for c in signed_units(self.n)[1::2]:
            objective = self._objective(c)
            if self._optimize(objective, fixed) is not None:
                raise ValueError("no lexicographic minimum: the polyhedron is unbounded below")
            fixed.update(b for b, u in zip(self.cobasis, objective) if u)
        return self._point()


def cell_lex_min(rows: Sequence[Row], lo: Sequence[Fraction], width: Fraction) -> tuple[Fraction, ...] | None:
    """The lexicographically least point of {x : rows} in the closed cell
    lo <= x <= lo + width, or None when they do not meet.

    The LP is built in the cell's own coordinates y = (x - lo) / width, where
    the cell is 0 <= y <= 1 and no entry carries width; a row that holds on
    the whole cell is dropped.  x is increasing in each y, so the lex-min y
    gives the lex-min x."""
    n = len(lo)
    cell_rows = [integer_row(a, (b - dot(a, lo)) / width) for a, b in rows]
    cell_rows = [(a, b) for a, b in cell_rows if sum(max(u, 0) for u in a) > b]
    y = Simplex(cell_rows + [(e, max(0, *e)) for e in signed_units(n)], n).lex_min()
    return None if y is None else tuple(l + width * u for l, u in zip(lo, y))


def enumerate_vertices(rows: Sequence[Row], n: int) -> tuple[list[tuple[Fraction, ...]], list[tuple]]:
    """(vertices, edges) of the polytope {x : rows}: the vertices lex-sorted
    and the edges as sorted vertex pairs, all optimal points of `Simplex`.

    Each row is scaled to integers once.  n = 1: the least and the greatest
    x, and no edges.  n = 2: each vertex ends the segment where some row
    (a, b) with a != 0 is tight, so one LP per such row, over the rows plus
    -a.x <= -b, is maximized along (-a2, a1) and along (a2, -a1).  Two
    distinct ends are that row's edge; no vertex lies inside an edge, so
    the edges are these pairs in row order, without repeats.  An empty
    polyhedron gives no vertices.  An unbounded end, or a feasible system
    with no row a != 0, means the polyhedron is unbounded, and raises."""
    rows = [integer_row(a, b) for a, b in rows]
    if n == 1:
        lp = Simplex(rows, 1)
        pairs = [[lp.maximize(c) for c in signed_units(1)]]
    elif n == 2:
        pairs = []
        for a, b in rows:
            if not any(a):
                continue
            lp = Simplex([*rows, ((-a[0], -a[1]), -b)], 2)
            pairs.append([lp.maximize((-a[1], a[0])), lp.maximize((a[1], -a[0]))])
    else:
        raise ValueError("vertex enumeration supported for n in {1, 2}")
    if any(end.status == "unbounded" for pair in pairs for end in pair) or (not pairs and all(b >= 0 for _, b in rows)):
        raise ValueError("polytope is unbounded; bound it explicitly (ray classification lives in the rays module)")
    # both ends of one LP are optimal or both infeasible
    segments = dict.fromkeys(tuple(sorted((p.point, q.point))) for p, q in pairs if p.status == "optimal")
    vertices = sorted({v for segment in segments for v in segment})
    edges = [segment for segment in segments if segment[0] != segment[1]] if n == 2 else []
    return vertices, edges


def signed_units(n: int) -> list[tuple[int, ...]]:
    """e_1, -e_1, e_2, -e_2, ..., e_n, -e_n, over Z."""
    return [tuple(s * (j == i) for j in range(n)) for i in range(n) for s in (1, -1)]


def recession_ray(rows: Sequence[Row], n: int) -> tuple[Fraction, ...] | None:
    """A nonzero v with a.v <= 0 for every row, or None when the recession
    cone is trivial (i.e. the polyhedron is bounded if nonempty).

    2n LPs over the cone cut to the box -1 <= v <= 1: the cone is trivial
    exactly when every coordinate is 0 at the maximum and the minimum.
    Kept to 1 <= n <= 3, the desk scale of the callers."""
    if n < 1 or n > 3:
        raise ValueError("recession ray search supported for 1 <= n <= 3")
    units = signed_units(n)
    lp = Simplex([integer_row(a, 0) for a, _ in rows] + [(e, 1) for e in units], n)
    for c in units:
        best = lp.maximize(c)
        if best.value > 0:
            return best.point
    return None
