"""Exact low-dimensional linear algebra, the simplex and vertex enumeration.

`subset_vertices`, the row-subset vertex search that `enumerate_vertices`
replaced, stays here as the oracle the simplex and the LP vertex search are
checked against; `edges_of`, the active-row scan that the LP ends replaced,
is the oracle of the edges."""

import math
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polycert import separable
from polycert.polyalg import Polynomial
from polycert.ratcore import sign
from polycert.systems import EQ0, LE0, PolySystem
from polycert.linear import (
    Simplex,
    dot,
    enumerate_vertices,
    integer_row,
    linear_rows,
    project_to_nullspace,
    recession_ray,
    satisfies,
    signed_units,
)
from polycert.separable import SeparableCubic, solve_separable

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


def solve_square(A, b):
    """Solve A x = b exactly for square A; None when A is singular."""
    n = len(A)
    M = [list(map(F, row)) + [F(rhs)] for row, rhs in zip(A, b)]
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


def subset_vertices(rows, n):
    """All vertices of {x : rows}, lex-sorted: every n-subset of rows solved
    as equalities, each solution kept if it satisfies every row."""
    seen = set()
    for subset in combinations(rows, n):
        x = solve_square([a for a, _ in subset], [b for _, b in subset])
        if x is not None and satisfies(rows, x):
            seen.add(tuple(x))
    return sorted(seen)


def edges_of(rows, verts):
    """Edges of a 2-D polytope as sorted vertex pairs, in row order without
    repeats: consecutive vertices on which a row is tight.  A row with a = 0
    is tight at every vertex or at none and bounds no face, so it is skipped."""
    seen = set()
    edges = []
    for a, b in rows:
        if not any(a):
            continue
        active = sorted(v for v in verts if dot(a, v) == b)
        for key in zip(active, active[1:]):
            if key not in seen:
                seen.add(key)
                edges.append(key)
    return edges


class TestSolveAndRank:
    def test_solve_2x2(self):
        A = [[F(2), F(1)], [F(1), F(-1)]]
        assert solve_square(A, [F(5), F(1)]) == [F(2), F(1)]

    def test_singular_returns_none(self):
        A = [[F(1), F(2)], [F(2), F(4)]]
        assert solve_square(A, [F(1), F(2)]) is None


class TestVertices:
    def test_unit_square(self):
        verts, edges = enumerate_vertices(rows_box(2, 0, 1), 2)
        assert verts == [
            (F(0), F(0)),
            (F(0), F(1)),
            (F(1), F(0)),
            (F(1), F(1)),
        ]
        assert edges == [(verts[0], verts[1]), (verts[2], verts[3]), (verts[0], verts[2]), (verts[1], verts[3])]

    def test_row_tight_at_one_vertex_is_no_edge(self):
        """x1 + x2 <= 2 touches the unit square only at (1, 1): its LP's two
        ends coincide, and that one-point segment is not an edge."""
        verts, edges = enumerate_vertices([*rows_box(2, 0, 1), ((F(1), F(1)), F(2))], 2)
        assert (verts, edges) == enumerate_vertices(rows_box(2, 0, 1), 2)

    def test_lex_order_is_canonical(self):
        verts, _ = enumerate_vertices(rows_box(2, -1, 2), 2)
        assert verts[0] == (F(-1), F(-1)) and verts[-1] == (F(2), F(2))

    def test_cube_has_eight(self):
        assert len(subset_vertices(rows_box(3, 0, 1), 3)) == 8

    @pytest.mark.parametrize("n", [0, 3])
    def test_outside_one_and_two_dimensions_refused(self, n):
        with pytest.raises(ValueError):
            enumerate_vertices(rows_box(n, 0, 1), n)

    def test_triangle(self):
        rows = [
            ((F(-1), F(0)), F(0)),
            ((F(0), F(-1)), F(0)),
            ((F(1), F(1)), F(1)),
        ]
        verts, edges = enumerate_vertices(rows, 2)
        assert verts == [(F(0), F(0)), (F(0), F(1)), (F(1), F(0))]
        assert edges == [(verts[0], verts[1]), (verts[0], verts[2]), (verts[1], verts[2])]

    def test_empty_polytope(self):
        rows = [((F(1),), F(0)), ((F(-1),), F(-1))]  # x <= 0 and x >= 1
        assert enumerate_vertices(rows, 1) == ([], [])
        # the same rows in the plane: empty, though the cone {v1 = 0} is a line
        rows = [((F(1), F(0)), F(0)), ((F(-1), F(0)), F(-1))]
        assert enumerate_vertices(rows, 2) == ([], [])

    def test_plane_without_a_nonzero_normal(self):
        """No row, or only rows 0 <= b: the whole plane, unless some b < 0."""
        for rows in ([], [((F(0), F(0)), F(1))]):
            with pytest.raises(ValueError, match="unbounded"):
                enumerate_vertices(rows, 2)
        assert enumerate_vertices([((F(0), F(0)), F(1)), ((F(0), F(0)), F(-1))], 2) == ([], [])

    def test_interval(self):
        rows = [((F(-1),), F(2)), ((F(1),), F(5))]
        assert enumerate_vertices(rows, 1) == ([(F(-2),), (F(5),)], [])


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


# -- the simplex against enumeration -------------------------------------------


def candidate_recession_ray(rows, n):
    """The candidate search recession_ray used before the simplex: the
    null space of the normals when they have rank < n, else cross products
    of pairs of normals (n = 3), perpendiculars of normals (n = 2) or +-1
    (n = 1), each kept if every row allows it."""
    normals = [a for a, _ in rows if any(a)]
    if rank(normals) < n:
        for i in range(n):
            v = project_to_nullspace([F(int(j == i)) for j in range(n)], normals)
            if any(v):
                return tuple(v)
        return None
    if n == 1:
        candidates = [(F(1),), (F(-1),)]
    elif n == 2:
        candidates = [r for a in normals for r in ((-a[1], a[0]), (a[1], -a[0]))]
    else:
        candidates = []
        for a, b in combinations(normals, 2):
            r = (a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0])
            if any(r):
                candidates += [r, tuple(-v for v in r)]
    return next((r for r in candidates if all(dot(a, r) <= 0 for a, _ in rows)), None)


def rank(vectors):
    """Rank by exact Gaussian elimination."""
    M = [list(v) for v in vectors]
    rk = 0
    for col in range(len(M[0]) if M else 0):
        pivot = next((r for r in range(rk, len(M)) if M[r][col]), None)
        if pivot is None:
            continue
        M[rk], M[pivot] = M[pivot], M[rk]
        for r in range(rk + 1, len(M)):
            f = M[r][col] / M[rk][col]
            M[r] = [u - f * w for u, w in zip(M[r], M[rk])]
        rk += 1
    return rk


def test_rank_oracle():
    assert rank([[F(1), F(2)], [F(2), F(4)], [F(0), F(1)]]) == 2
    assert rank([]) == 0


BIG = 10**6  # past every vertex coordinate the families below can produce


def boxed_vertices(rows, n, bound):
    return subset_vertices(rows + rows_box(n, -bound, bound), n)


def oracle_max(verts, verts2, c):
    """max c.x from the vertices of P cut to |x_i| <= BIG and to 2 * BIG:
    None when P is empty, "unbounded" when doubling the cut raises it."""
    if not verts:
        return None
    best = max(dot(c, v) for v in verts)
    return "unbounded" if max(dot(c, v) for v in verts2) > best else best


small = st.fractions(min_value=-4, max_value=4, max_denominator=3)


@st.composite
def polyhedra(draw, n):
    """Random small rational rows plus degenerate pieces: a box, many rows
    through one vertex, duplicate and scaled rows, an equality (a flat set)
    and a contradiction (an empty set)."""
    vec = st.tuples(*[small] * n)
    rows = draw(st.lists(st.tuples(vec, small), max_size=3))
    if draw(st.booleans()):
        lo = draw(small)
        rows += rows_box(n, lo, lo + draw(st.integers(0, 3)))
    if draw(st.booleans()):
        v = draw(vec)
        rows += [(a, dot(a, v)) for a in draw(st.lists(vec, max_size=3))]
    for a, b in draw(st.lists(st.sampled_from(rows), max_size=2)) if rows else ():
        k = draw(st.sampled_from([F(1), F(2), F(1, 3)]))
        rows.append((tuple(k * u for u in a), k * b))
    if draw(st.booleans()):
        a, b = draw(vec), draw(small)
        rows += [(a, b), (tuple(-u for u in a), -b)]
    if draw(st.integers(0, 5)) == 0:
        a, b = draw(vec), draw(small)
        rows += [(a, b), (tuple(-u for u in a), -b - 1)]
    return draw(st.permutations(rows))


class TestSimplex:
    @pytest.mark.parametrize("n", [1, 2, 3])
    @settings(max_examples=50, deadline=None)
    @given(data=st.data())
    def test_agrees_with_enumeration(self, n, data):
        """Per coordinate max and min, a random objective, the lex-min point,
        emptiness and the recession ray, against the vertices of P cut to
        |x_i| <= BIG and to 2 * BIG and against the candidate search."""
        rows = data.draw(polyhedra(n))
        verts = boxed_vertices(rows, n, BIG)
        verts2 = boxed_vertices(rows, n, 2 * BIG)
        int_rows = [integer_row(a, b) for a, b in rows]
        lp = Simplex(int_rows, n)
        assert lp.feasible == bool(verts)
        for c in signed_units(n) + [data.draw(st.tuples(*[small] * n))]:
            want = oracle_max(verts, verts2, c)
            got = lp.maximize(c)
            if want is None:
                assert got.status == "infeasible"
            elif want == "unbounded":
                assert got.status == "unbounded"
            else:
                assert (got.status, got.value) == ("optimal", want)
                assert satisfies(rows, got.point) and dot(c, got.point) == want
        # the lex-min point exists exactly when doubling the cut leaves the
        # first cut vertex where it is
        if verts[:1] != verts2[:1]:
            with pytest.raises(ValueError):
                Simplex(int_rows, n).lex_min()
        else:
            assert Simplex(int_rows, n).lex_min() == (verts[0] if verts else None)
        ray = recession_ray(rows, n)
        assert (ray is None) == (candidate_recession_ray(rows, n) is None)
        if ray is not None:
            assert any(ray) and all(dot(a, ray) <= 0 for a, _ in rows)
        if verts:
            assert (ray is None) == (verts == verts2)
            if ray is None:
                assert Simplex(int_rows, n).lex_min() == subset_vertices(rows, n)[0]

    def test_empty_polyhedron_with_nontrivial_cone(self):
        """{x1 <= 0, x1 >= 1} in the plane is empty, yet its cone {v1 = 0}
        is a line: the LP answers infeasible and recession_ray a ray."""
        rows = [((F(1), F(0)), F(0)), ((F(-1), F(0)), F(-1))]
        int_rows = [integer_row(a, b) for a, b in rows]
        assert not Simplex(int_rows, 2).feasible
        assert recession_ray(rows, 2) is not None
        assert Simplex(int_rows, 2).lex_min() is None

    def test_many_rows_through_one_vertex(self):
        """Degenerate at the optimum: every row is tight at (1, 1, 1)."""
        normals = [(F(a), F(b), F(c)) for a in (1, 2) for b in (1, 3) for c in (1, 5)]
        rows = [(a, sum(a)) for a in normals] + rows_box(3, -2, 2)
        lp = Simplex([integer_row(a, b) for a, b in rows], 3)
        assert lp.maximize((F(1), F(1), F(1))).value == 3
        assert lp.maximize((F(1), F(2), F(3))).point == (F(1), F(1), F(1))


    def test_fraction_entry_is_refused(self):
        """A pivot's floor division would silently floor a Fraction."""
        with pytest.raises(TypeError, match="integer_row"):
            Simplex([((1, 0), 1), ((F(-1), 0), 0)], 2)


@pytest.mark.parametrize("n", [1, 2, 3])
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_integer_row_is_primitive_and_keeps_the_half_space(n, data):
    """Primitive integers (gcd 1 unless the row is zero) with the same sign
    of a.x - b as the rational row at random rational points x."""
    for a, b in data.draw(polyhedra(n)):
        ia, ib = integer_row(a, b)
        assert all(type(u) is int for u in (*ia, ib))
        assert math.gcd(*ia, ib) == (1 if any(a) or b else 0)
        x = data.draw(st.tuples(*[small] * n))
        assert sign(dot(ia, x) - ib) == sign(dot(a, x) - b)


# -- vertices from linear programs against the subset oracle ------------------


@pytest.mark.parametrize("n", [1, 2])
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_lp_vertices_agree_with_subset_oracle(n, data):
    """Vertices against the subset oracle and edges (none for n = 1) against
    the active-row scan, order included.  An unbounded draw, whose vertices
    cut to |x_i| <= BIG move when the cut doubles, raises."""
    rows = data.draw(polyhedra(n))
    if boxed_vertices(rows, n, BIG) != boxed_vertices(rows, n, 2 * BIG):
        with pytest.raises(ValueError, match="unbounded"):
            enumerate_vertices(rows, n)
        return
    verts = subset_vertices(rows, n)
    assert enumerate_vertices(rows, n) == (verts, edges_of(rows, verts) if n == 2 else [])


def outcome(rows, n):
    """enumerate_vertices' answer, or the message it raises."""
    try:
        return enumerate_vertices(rows, n)
    except ValueError as e:
        return str(e)


@settings(max_examples=100, deadline=None)
@given(rows=polyhedra(2))
def test_zero_row_changes_no_vertex_or_edge(rows):
    """0.x <= 0 holds and is tight everywhere but bounds no face."""
    assert outcome(rows + [((F(0), F(0)), F(0))], 2) == outcome(rows, 2)


def polygon_instance(m):
    """m rows a.x <= 1 with rational a on the unit circle, half of them at
    t = -1, -1 + 2/h, ..., 1 - 2/h (h = m // 2) of (1 - t^2, 2t) / (1 + t^2)
    and the other half their negatives, with x^3 - 3x + 5 in each of two
    variables: positive on the polygon, so every face is scanned."""
    h = m // 2
    normals = []
    for j in range(h):
        t = F(2 * j - h, h)
        a = ((1 - t * t) / (1 + t * t), 2 * t / (1 + t * t))
        normals += [a, (-a[0], -a[1])]
    x = Polynomial.variables(2)
    linear = PolySystem(2, [(a1 * x[0] + a2 * x[1] - 1, LE0) for a1, a2 in normals])
    return SeparableCubic(((1, 0, -3, 5),) * 2), linear


@pytest.mark.parametrize("m", [10, 20, 40])
def test_polygon_report_same_with_subset_oracle(m, monkeypatch):
    cubic, linear = polygon_instance(m)
    report = solve_separable(cubic, linear).to_json()
    assert report == {"status": "infeasible"}

    def oracle(rows, n):
        verts = subset_vertices(rows, n)
        return verts, edges_of(rows, verts)

    monkeypatch.setattr(separable, "enumerate_vertices", oracle)
    assert solve_separable(cubic, linear).to_json() == report
