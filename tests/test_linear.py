"""Exact low-dimensional linear algebra and vertex enumeration."""

from fractions import Fraction

import pytest

from polycert.polyalg import Polynomial
from polycert.systems import EQ0, LE0, PolySystem
from polycert.linear import (
    enumerate_vertices,
    linear_rows,
    project_to_nullspace,
    rank,
    recession_ray,
    satisfies,
    solve_square,
)

F = Fraction


def rows_box(n, lo, hi):
    rows = []
    for i in range(n):
        e = [F(0)] * n
        e[i] = F(-1)
        rows.append((tuple(e), F(-lo)))
        e2 = [F(0)] * n
        e2[i] = F(1)
        rows.append((tuple(e2), F(hi)))
    return rows


class TestSolveAndRank:
    def test_solve_2x2(self):
        A = [[F(2), F(1)], [F(1), F(-1)]]
        assert solve_square(A, [F(5), F(1)]) == [F(2), F(1)]

    def test_singular_returns_none(self):
        A = [[F(1), F(2)], [F(2), F(4)]]
        assert solve_square(A, [F(1), F(2)]) is None

    def test_rank(self):
        assert rank([[F(1), F(2)], [F(2), F(4)], [F(0), F(1)]]) == 2
        assert rank([]) == 0


class TestVertices:
    def test_unit_square(self):
        verts = enumerate_vertices(rows_box(2, 0, 1), 2)
        assert verts == [
            (F(0), F(0)),
            (F(0), F(1)),
            (F(1), F(0)),
            (F(1), F(1)),
        ]

    def test_lex_order_is_canonical(self):
        verts = enumerate_vertices(rows_box(2, -1, 2), 2)
        assert verts[0] == (F(-1), F(-1)) and verts[-1] == (F(2), F(2))

    def test_cube_has_eight(self):
        assert len(enumerate_vertices(rows_box(3, 0, 1), 3)) == 8

    def test_triangle(self):
        rows = [
            ((F(-1), F(0)), F(0)),
            ((F(0), F(-1)), F(0)),
            ((F(1), F(1)), F(1)),
        ]
        verts = enumerate_vertices(rows, 2)
        assert verts == [(F(0), F(0)), (F(0), F(1)), (F(1), F(0))]

    def test_empty_polytope(self):
        rows = [((F(1),), F(0)), ((F(-1),), F(-1))]  # x <= 0 and x >= 1
        assert enumerate_vertices(rows, 1) == []

    def test_interval(self):
        rows = [((F(-1),), F(2)), ((F(1),), F(5))]
        assert enumerate_vertices(rows, 1) == [(F(-2),), (F(5),)]


class TestRecession:
    def test_box_is_bounded(self):
        assert recession_ray(rows_box(2, 0, 1), 2) is None

    def test_halfspace_has_ray(self):
        rows = [((F(-1), F(0)), F(0))]  # x1 >= 0
        ray = recession_ray(rows, 2)
        assert ray is not None
        assert all(sum(a * r for a, r in zip(row[0], ray)) <= 0 for row in rows)
        assert any(ray)

    def test_quadrant_ray(self):
        rows = [((F(-1), F(0)), F(0)), ((F(0), F(-1)), F(0))]
        ray = recession_ray(rows, 2)
        assert ray is not None and all(c >= 0 for c in ray)

    def test_more_than_three_dimensions_rejected(self):
        """{|x1|, |x2|, |x3| <= 1, x4 >= 0, x4 >= -x1} is unbounded along e4;
        3-D cross products of normals cannot find that ray."""
        rows = rows_box(3, -1, 1)
        rows = [(a + (F(0),), b) for a, b in rows]
        rows += [((F(0), F(0), F(0), F(-1)), F(0)), ((F(-1), F(0), F(0), F(-1)), F(0))]
        with pytest.raises(ValueError):
            recession_ray(rows, 4)


class TestRowHelpers:
    def test_linear_rows_splits_equalities(self):
        sys_ = PolySystem(
            1,
            [
                (Polynomial(1, {(1,): F(1), (0,): F(-1)}), EQ0),
                (Polynomial(1, {(1,): F(1)}), LE0),
            ],
        )
        rows = linear_rows(sys_)
        assert len(rows) == 3  # equality contributes two opposite rows

    def test_linear_tag_on_nonlinear_row_rejected_at_construction(self):
        with pytest.raises(ValueError):
            PolySystem(1, [(Polynomial(1, {(2,): F(1)}), LE0, "linear")])

    def test_satisfies(self):
        rows = rows_box(2, 0, 1)
        assert satisfies(rows, [F(1, 2), F(1, 2)])
        assert not satisfies(rows, [F(2), F(0)])


class TestProjection:
    def test_projection_is_orthogonal_to_normals(self):
        v = [F(3), F(1)]
        normals = [[F(1), F(-1)]]
        w = project_to_nullspace(v, normals)
        assert sum(a * b for a, b in zip(w, normals[0])) == 0

    def test_projection_fixes_vectors_already_in_nullspace(self):
        v = [F(1), F(1)]
        assert project_to_nullspace(v, [[F(1), F(-1)]]) == v

    def test_projection_onto_full_space(self):
        assert project_to_nullspace([F(2), F(3)], []) == [F(2), F(3)]
