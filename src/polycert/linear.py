"""Exact linear algebra over Q for low-dimensional polyhedra.

Polyhedra arrive as lists of rows (a, b) meaning a.x <= b.  Everything here
is exact; vertex enumeration solves every n-subset of rows and is meant for
n <= 3 at desk scale.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from typing import Sequence

from .polyalg import monomial
from .systems import EQ0, PolySystem

Row = tuple[tuple[Fraction, ...], Fraction]


def linear_rows(sys_: PolySystem, tags: tuple[str, ...] = ("linear",)) -> list[Row]:
    """Rows (a, b) with a.x <= b for the tagged degree-<=1 constraints.

    EQ0 rows become two opposite inequalities.
    """
    rows: list[Row] = []
    n = sys_.num_vars
    for c in sys_.constraints:
        if c.tag not in tags:
            continue
        if c.poly.degree() > 1:
            raise ValueError("non-linear row in linear extraction")
        a = tuple(c.poly.coefficient(monomial(n, (i, 1))) for i in range(n))
        b = -c.poly.constant_term()
        rows.append((a, b))
        if c.rel == EQ0:
            rows.append((tuple(-x for x in a), -b))
    return rows


def solve_square(A: Sequence[Sequence[Fraction]], b: Sequence[Fraction]) -> list[Fraction] | None:
    """Solve A x = b exactly for square A; None when A is singular."""
    n = len(A)
    M = [list(map(Fraction, row)) + [Fraction(rhs)] for row, rhs in zip(A, b)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if M[r][col]), None)
        if pivot is None:
            return None
        M[col], M[pivot] = M[pivot], M[col]
        inv = 1 / M[col][col]
        M[col] = [v * inv for v in M[col]]
        for r in range(n):
            if r != col and M[r][col]:
                f = M[r][col]
                M[r] = [v - f * w for v, w in zip(M[r], M[col])]
    return [M[r][n] for r in range(n)]


def rank(rows: Sequence[Sequence[Fraction]]) -> int:
    M = [list(map(Fraction, r)) for r in rows]
    if not M:
        return 0
    n = len(M[0])
    rk = 0
    for col in range(n):
        pivot = next((r for r in range(rk, len(M)) if M[r][col]), None)
        if pivot is None:
            continue
        M[rk], M[pivot] = M[pivot], M[rk]
        inv = 1 / M[rk][col]
        M[rk] = [v * inv for v in M[rk]]
        for r in range(len(M)):
            if r != rk and M[r][col]:
                f = M[r][col]
                M[r] = [v - f * w for v, w in zip(M[r], M[rk])]
        rk += 1
        if rk == len(M):
            break
    return rk


def dot(a: Sequence, x: Sequence):
    """a.x, exact; entries may be rational or lie in one algebraic field."""
    return sum(ai * xi for ai, xi in zip(a, x))


def satisfies(rows: Sequence[Row], x: Sequence[Fraction]) -> bool:
    return all(dot(row, x) <= b for row, b in rows)


def enumerate_vertices(rows: Sequence[Row], n: int) -> list[tuple[Fraction, ...]]:
    """All vertices of {x : rows}, lex-sorted, by solving n-subsets of tight rows."""
    if n < 1 or n > 3:
        raise ValueError("vertex enumeration supported for 1 <= n <= 3")
    seen: set[tuple[Fraction, ...]] = set()
    for subset in combinations(range(len(rows)), n):
        A = [rows[i][0] for i in subset]
        b = [rows[i][1] for i in subset]
        x = solve_square(A, b)
        if x is not None and satisfies(rows, x):
            seen.add(tuple(x))
    return sorted(seen)


def _recession_candidates(rows: Sequence[Row], n: int):
    normals = [a for a, _ in rows if any(a)]
    if n == 1:
        yield (Fraction(1),)
        yield (Fraction(-1),)
    elif n == 2:
        for a in normals:
            r = (-a[1], a[0])
            yield r
            yield (-r[0], -r[1])
    else:
        for a, b in combinations(normals, 2):
            r = (
                a[1] * b[2] - a[2] * b[1],
                a[2] * b[0] - a[0] * b[2],
                a[0] * b[1] - a[1] * b[0],
            )
            if any(r):
                yield r
                yield tuple(-v for v in r)


def recession_ray(rows: Sequence[Row], n: int) -> tuple[Fraction, ...] | None:
    """A nonzero v with a.v <= 0 for every row, or None when the recession
    cone is trivial (i.e. the polyhedron is bounded if nonempty).

    Candidate rays come from cross products of normals, which covers
    1 <= n <= 3 only; larger n raises rather than answer "bounded" wrongly."""
    if n < 1 or n > 3:
        raise ValueError("recession ray search supported for 1 <= n <= 3")
    normals = [a for a, _ in rows if any(a)]
    if rank(normals) < n:
        # a nonzero null-space vector of the normals; some unit vector projects to one
        for i in range(n):
            v = project_to_nullspace([Fraction(int(j == i)) for j in range(n)], normals)
            if any(v):
                return tuple(v)
        return None
    for cand in _recession_candidates(rows, n):
        if all(dot(row, cand) <= 0 for row, _ in rows):
            return cand
    return None


def _reject(v: Sequence[Fraction], basis: Sequence[list[Fraction]]) -> list[Fraction]:
    """v minus its projection onto the span of an orthogonal basis."""
    out = list(map(Fraction, v))
    for w in basis:
        c = dot(out, w) / dot(w, w)
        out = [a - c * b for a, b in zip(out, w)]
    return out


def _orthogonalize(rows: Sequence[Sequence[Fraction]]) -> list[list[Fraction]]:
    out: list[list[Fraction]] = []
    for r in rows:
        v = _reject(r, out)
        if any(v):
            out.append(v)
    return out


def project_to_nullspace(v: Sequence[Fraction], normals: Sequence[Sequence[Fraction]]) -> list[Fraction]:
    """Orthogonal projection of v onto {x : a.x = 0 for each normal a}, exact."""
    return _reject(v, _orthogonalize(normals))
