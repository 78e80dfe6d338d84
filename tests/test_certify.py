"""Grid-cell vertex certificates for relaxed systems."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polycert.bounds import delta_bound, lipschitz_constant, phi_bound
from polycert.polyalg import Polynomial
from polycert.ratcore import AlgebraicElement, encoding_size_vec
from polycert.systems import EQ0, LE0, PolySystem
from polycert.linear import Simplex, dot, enumerate_vertices, integer_row, linear_rows, signed_units
from polycert.certify import Certificate, check_certificate, grid_certificate
from test_linear import polyhedra, rows_box, small

F = Fraction


def unit_box(n) -> PolySystem:
    rows = []
    zero = tuple([0] * n)
    for i in range(n):
        e = [0] * n
        e[i] = 1
        m = tuple(e)
        rows.append((Polynomial(n, {m: F(-1)}), LE0))
        rows.append((Polynomial(n, {m: F(1), zero: F(-1)}), LE0))
    return PolySystem(n, rows)


def combined(P, g_list) -> PolySystem:
    """P's rows, then each g <= 0 tagged "nonlinear"."""
    rows = [(c.poly, c.rel, c.tag) for c in P.constraints]
    rows += [(g, LE0, "nonlinear") for g in g_list]
    return PolySystem(P.num_vars, rows, P.var_names)


DISC = Polynomial(2, {(2, 0): F(2), (0, 2): F(2), (0, 0): F(-1)})
DISC_BOX = combined(unit_box(2), [DISC])
X_TILDE = [F(1, 3), F(1, 3)]


class TestWorkedExample:
    def test_with_overrides(self):
        c = grid_certificate(DISC_BOX, 10, X_TILDE, M=F(1), L=F(4))
        assert c.point == (F(13, 40), F(13, 40))
        assert c.phi == 40 and c.box_index == (13, 13)
        assert c.size_bits == 22 == encoding_size_vec(c.point)
        assert c.delta_used == 10

    def test_default_bounds(self):
        c = grid_certificate(DISC_BOX, 10, X_TILDE)
        assert c.phi == 320  # L = 32 from the Lipschitz formula, M = 1
        assert c.point == (F(53, 160), F(53, 160))
        assert c.box_index == (106, 106) and c.size_bits == 30

    def test_certificate_point_stays_near_x_tilde(self):
        c = grid_certificate(DISC_BOX, 10, X_TILDE, M=F(1), L=F(4))
        width = F(1, c.phi)  # M / phi
        assert max(abs(a - b) for a, b in zip(c.point, X_TILDE)) <= width
        assert abs(c.point[0] - F(1, 3)) == F(1, 120)

    def test_relaxed_slack_inequality(self):
        """|g(x_bar) - g(x_tilde)| <= L*M/phi <= 1/(ell*delta), the chain that
        makes the relaxed system accept the vertex."""
        c = grid_certificate(DISC_BOX, 10, X_TILDE)
        drift = abs(DISC.eval(list(c.point)) - DISC.eval(X_TILDE))
        assert drift <= F(32 * 1, c.phi) <= F(1, 1 * 10)
        assert DISC.eval(list(c.point)) <= F(1, 10)

    def test_checking_direction(self):
        c = grid_certificate(DISC_BOX, 10, X_TILDE)
        assert check_certificate(DISC_BOX, 10, list(c.point)).feasible
        assert not check_certificate(DISC_BOX, 10, [F(1), F(1)]).feasible

    def test_row_through_the_cell_moves_the_vertex(self):
        """x1 + x2 >= 2/3 cuts the cell [13/40, 14/40]^2 off its lower corner;
        the box rows hold on the whole cell."""
        cut = Polynomial(2, {(1, 0): F(-1), (0, 1): F(-1), (0, 0): F(2, 3)})
        sys_ = PolySystem(2, list(DISC_BOX.constraints) + [(cut, LE0, "linear")])
        c = grid_certificate(sys_, 10, X_TILDE, M=F(1), L=F(4))
        assert c.box_index == (13, 13) and c.point == (F(13, 40), F(41, 120))

    def test_json_round_trip_values(self):
        c = grid_certificate(DISC_BOX, 10, X_TILDE, M=F(1), L=F(4))
        data = c.to_json()
        assert data["point"]["values"] == ["13/40", "13/40"]
        assert data["phi"] == "40" and data["box_index"] == ["13", "13"]


class TestRejections:
    def test_infeasible_seed_point(self):
        with pytest.raises(ValueError, match="x_tilde"):
            grid_certificate(DISC_BOX, 10, [F(1), F(1)])

    def test_unbounded_polytope(self):
        P = PolySystem(2, [(Polynomial(2, {(1, 0): F(-1)}), LE0)])
        for big_m in (None, F(4)):  # an M given still runs the LPs for boundedness
            with pytest.raises(ValueError, match="unbounded"):
                grid_certificate(combined(P, [DISC]), 10, [F(1, 3), F(0)], M=big_m)

    def test_empty_g_list(self):
        with pytest.raises(ValueError, match="at least one"):
            grid_certificate(unit_box(2), 10, X_TILDE)

    def test_dimension_cap(self):
        g4 = Polynomial(4, {(2, 0, 0, 0): F(1), (0,) * 4: F(-1)})
        with pytest.raises(ValueError, match="n <= 3"):
            grid_certificate(combined(unit_box(4), [g4]), 10, [F(0)] * 4)
        g0 = Polynomial.constant(0, F(-1))
        with pytest.raises(ValueError, match="1 <= n"):
            grid_certificate(PolySystem(0, [(g0, LE0, "nonlinear")]), 10, [])

    def test_nonlinear_equality_row(self):
        sys_ = PolySystem(2, list(DISC_BOX.constraints) + [(DISC, EQ0)])
        with pytest.raises(ValueError, match="nonlinear equality rows"):
            grid_certificate(sys_, 10, X_TILDE)

    def test_delta_domain(self):
        with pytest.raises(ValueError):
            grid_certificate(DISC_BOX, 0, X_TILDE)

    def test_small_bound_overrides(self):
        with pytest.raises(ValueError):
            grid_certificate(DISC_BOX, 10, X_TILDE, M=F(1, 2))
        with pytest.raises(ValueError):
            grid_certificate(DISC_BOX, 10, X_TILDE, L=F(1, 2))


class TestSystemAsRead:
    """grid_certificate takes one system: the rows tagged "linear" are P and
    the nonlinear LE0 rows are relaxed, whatever their degree."""

    def test_tag_not_degree_puts_row_in_p(self):
        cut = Polynomial(2, {(1, 0): F(1), (0, 1): F(1), (0, 0): F(-2, 3)})
        exact = PolySystem(2, list(DISC_BOX.constraints) + [(cut, LE0, "linear")])
        relaxed = PolySystem(2, list(DISC_BOX.constraints) + [(cut, LE0, "nonlinear")])
        assert relaxed.num_nonlinear == 2
        in_p = grid_certificate(exact, 10, X_TILDE, M=F(1), L=F(4))
        as_g = grid_certificate(relaxed, 10, X_TILDE, M=F(1), L=F(4))
        assert in_p.phi == 40 and as_g.phi == 80  # phi = L * M * ell * delta
        assert check_certificate(relaxed, 10, list(as_g.point)).feasible
        # the cut is exceeded by 1/100 <= 1/(ell * delta) = 1/20
        over = [F(1, 3) + F(1, 100), F(1, 3)]
        assert check_certificate(relaxed, 10, over).feasible
        assert not check_certificate(exact, 10, over).feasible

    def test_delta_none_is_the_paper_bound(self):
        c = grid_certificate(DISC_BOX, None, X_TILDE, M=F(1), L=F(4))
        assert c.delta_used == delta_bound(2, 5, 2, 2)
        assert check_certificate(DISC_BOX, c.delta_used, list(c.point)).feasible


class TestRandomized:
    def test_plant_and_certify(self):
        """Random bounded instances with a planted interior point: the
        certificate always exists and always checks."""
        rng = random.Random(42)
        for _ in range(5):
            n = rng.randint(1, 3)
            P = unit_box(n)
            x_t = [F(rng.randint(1, 7), 8) for _ in range(n)]
            gs = []
            for _ in range(rng.randint(1, 3)):
                terms = {}
                for _ in range(3):
                    e = [0] * n
                    for _ in range(2):
                        e[rng.randrange(n)] += 1
                    terms[tuple(e)] = F(rng.randint(-5, 5))
                q = Polynomial(n, terms)
                margin = F(1, rng.choice([2, 4]))
                gs.append(q - q.eval(x_t) - margin)
            delta = 10 ** 6
            R = combined(P, gs)
            c = grid_certificate(R, delta, x_t)
            assert check_certificate(R, delta, list(c.point)).feasible
            ell = len(gs)
            assert max(abs(a - b) for a, b in zip(c.point, x_t)) <= F(1, c.phi)
            for g in gs:
                assert g.eval(list(c.point)) <= F(1, ell * delta)

    def test_relaxation_is_sound_for_exact_points(self):
        """Any exactly feasible point also satisfies every relaxation."""
        for delta in (1, 10, 10 ** 9):
            assert check_certificate(DISC_BOX, delta, [F(1, 2), F(0)]).feasible


def test_certificate_is_frozen_dataclass():
    c = Certificate((F(0),), 1, 1, (0,), 2)
    with pytest.raises(Exception):
        c.phi = 2


class TestAlgebraicPoints:
    def sqrt2_system(self):
        x = Polynomial.variable(1, 0)
        return PolySystem(1, [(-x, LE0), (x - 2, LE0), (x * x - 2, LE0)])

    def test_check_accepts_a_point_over_an_extension_field(self):
        v = check_certificate(self.sqrt2_system(), 10, [AlgebraicElement.root(2, 2)])
        assert v.feasible

    def test_grid_certificate_refuses_an_irrational_seed(self):
        with pytest.raises(ValueError, match="rational"):
            grid_certificate(self.sqrt2_system(), 10, [AlgebraicElement.root(2, 2)])


# -- the cell LP in the cell's own coordinates against the x-coordinate LP ------


def x_cell_certificate(system, delta, x_tilde):
    """(phi, box_index, point) as grid_certificate found them in x's own
    coordinates: P's rows plus the cell's 2n bounds, each of about log phi
    bits, in one Simplex, whose lex-min point is the certificate."""
    n = system.num_vars
    rows = [integer_row(a, b) for a, b in linear_rows(system)]
    units = signed_units(n)
    lp = Simplex(rows, n)
    M = max([lp.maximize(c).value for c in units] + [F(1)])
    g_list = [c.poly for c in system.constraints if c.tag == "nonlinear"]
    d = max(g.degree() for g in g_list)
    H = max(g.height_and_degree()[0] for g in g_list)
    phi = phi_bound(lipschitz_constant(n, max(d, 1), max(H, 1), M), M, len(g_list), delta)
    width = F(M, phi)
    box_index, cell_rows = [], list(rows)
    for i, xi in enumerate(x_tilde):
        j = max(-phi, min(phi - 1, math.floor(xi * phi / M)))
        box_index.append(j)
        cell_rows.append(integer_row(units[2 * i + 1], -width * j))
        cell_rows.append(integer_row(units[2 * i], width * (j + 1)))
    return phi, tuple(box_index), Simplex(cell_rows, n).lex_min()


@st.composite
def certify_instances(draw):
    """A polyhedra(2) draw cut to a box, each row moved out to hold at a
    point p of the box, then p or a vertex as x~, one quadratic row g with
    g(x~) < 0, and a delta of up to about 2^2000."""
    lo, k = draw(small), draw(st.integers(0, 3))
    p = [lo + k * draw(st.fractions(0, 1, max_denominator=6)) for _ in range(2)]
    rows = [(a, max(b, dot(a, p))) for a, b in draw(polyhedra(2)) + rows_box(2, lo, lo + k)]
    verts, _ = enumerate_vertices(rows, 2)
    x_tilde = list(draw(st.sampled_from(verts + [tuple(p)])))
    exps = [(2, 0), (1, 1), (0, 2), (1, 0), (0, 1)]
    q = Polynomial(2, {e: F(draw(st.integers(-3, 3))) for e in exps})
    g = q - q.eval(x_tilde) - draw(st.sampled_from([F(1), F(1, 4), F(1, 1000)]))
    x1, x2 = Polynomial.variables(2)
    P = [(a1 * x1 + a2 * x2 - b, LE0, "linear") for (a1, a2), b in rows]
    bits = draw(st.integers(0, 2000))
    delta = draw(st.integers(1 << bits, (2 << bits) - 1))
    return PolySystem(2, P + [(g, LE0, "nonlinear")]), delta, x_tilde


@settings(max_examples=100, deadline=None)
@given(instance=certify_instances())
def test_cell_coordinates_agree_with_the_x_coordinate_oracle(instance):
    system, delta, x_tilde = instance
    c = grid_certificate(system, delta, x_tilde)
    assert (c.phi, c.box_index, c.point) == x_cell_certificate(system, delta, x_tilde)
