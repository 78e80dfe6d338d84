"""Growth of polynomials along rays and rationalization of unbounded rays."""

import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from polycert.linear import dot, satisfies
from polycert.ratcore import PRECISION_CAP_ENV, AlgebraicElement, PrecisionCapError, dyadic_floor, sign
from polycert.polyalg import Polynomial
from polycert.systems import LE0, PolySystem
from polycert.rays import (
    BOUNDED_CONSTANT,
    TO_MINUS_INFINITY,
    TO_PLUS_INFINITY,
    RayClass,
    classify_ray,
    quartic_counterexample,
    rationalize_unbounded_ray,
)
from test_linear import polyhedra, small

F = Fraction


def cubic_plus_quadratic() -> Polynomial:
    """c(y) + q(y) with c = -2y1^3 - y2^3 + 6y1y2y3 - 4y3^3 and q = y1y3."""
    return Polynomial(
        3,
        {
            (3, 0, 0): F(-2),
            (0, 3, 0): F(-1),
            (1, 1, 1): F(6),
            (0, 0, 3): F(-4),
            (1, 0, 1): F(1),
        },
    )


class TestClassify:
    def test_algebraic_direction_cancels_cubic_growth(self):
        """Along (t, t^2, 1) with t = 2^(1/3) the cubic part vanishes exactly
        and the quadratic term q takes over with leading coefficient t."""
        f = cubic_plus_quadratic()
        t = AlgebraicElement.root(3, 2)
        cls = classify_ray(f, [F(0)] * 3, [t, t * t, F(1)])
        assert cls.growth_order == 2
        assert cls.direction == TO_PLUS_INFINITY
        assert (cls.leading - t).is_zero()

    def test_rational_direction_grows_cubically_down(self):
        f = cubic_plus_quadratic()
        cls = classify_ray(f, [F(0)] * 3, [F(5, 4), F(8, 5), F(1)])
        assert cls.growth_order == 3
        assert cls.direction == TO_MINUS_INFINITY
        assert cls.leading == F(-9, 4000)

    def test_up_direction(self):
        f = Polynomial(1, {(3,): F(1)})
        cls = classify_ray(f, [F(2)], [F(1)])
        assert cls.growth_order == 3 and cls.direction == TO_PLUS_INFINITY

    def test_constant_restriction(self):
        f = Polynomial(2, {(1, 0): F(1), (0, 0): F(7)})
        cls = classify_ray(f, [F(0), F(0)], [F(0), F(1)])
        assert cls == RayClass(0, BOUNDED_CONSTANT, F(7))

    def test_zero_polynomial_is_bounded(self):
        cls = classify_ray(Polynomial.zero(2), [F(0), F(0)], [F(1), F(0)])
        assert cls.growth_order == 0 and cls.direction == BOUNDED_CONSTANT

    def test_algebraic_base_point(self):
        s = AlgebraicElement.root(2, 2)
        f = Polynomial(2, {(2, 0): F(1), (0, 0): F(-2)})
        cls = classify_ray(f, [s, F(0)], [F(1), F(0)])
        assert cls.growth_order == 2 and cls.direction == TO_PLUS_INFINITY

    def test_rejects_zero_direction(self):
        with pytest.raises(ValueError):
            classify_ray(Polynomial.variable(2, 0), [F(0), F(0)], [F(0), F(0)])

    def test_rejects_dimension_mismatch(self):
        with pytest.raises(ValueError):
            classify_ray(Polynomial.variable(2, 0), [F(0)], [F(1), F(0)])

    def test_json_shapes(self):
        t = AlgebraicElement.root(3, 2)
        f = cubic_plus_quadratic()
        alg = classify_ray(f, [F(0)] * 3, [t, t * t, F(1)]).to_json()
        assert alg["leading"]["coeffs"] == ["0/1", "1/1", "0/1"]
        rat = classify_ray(f, [F(0)] * 3, [F(5, 4), F(8, 5), F(1)]).to_json()
        assert rat["leading"] == "-9/4000"


class TestQuarticCounterexample:
    def test_unbounded_on_parabola_points(self):
        f = quartic_counterexample()
        for k in range(1, 11):
            assert f.eval([F(k), F(k * k)]) == k * k

    def test_no_ray_goes_to_plus_infinity(self):
        f = quartic_counterexample()
        rng = random.Random(3)
        for _ in range(50):
            v = [F(rng.randint(-9, 9)), F(rng.randint(-9, 9))]
            if v == [F(0), F(0)]:
                continue
            x0 = [F(rng.randint(-3, 3)), F(rng.randint(-3, 3))]
            assert classify_ray(f, x0, v).direction != TO_PLUS_INFINITY

    def test_vertical_ray_bends_down(self):
        f = quartic_counterexample()
        cls = classify_ray(f, [F(0), F(0)], [F(0), F(1)])
        assert cls.growth_order == 2
        assert cls.direction == TO_MINUS_INFINITY and cls.leading == F(-1)


class TestRationalize:
    def test_algebraic_direction_floored(self):
        f = Polynomial(2, {(3, 0): F(1)})
        s = AlgebraicElement.root(2, 2)
        x, v = rationalize_unbounded_ray(f, [F(0), F(0)], [s, F(0)])
        assert x == [F(0), F(0)]
        assert v == [F(181, 128), F(0)]
        assert classify_ray(f, x, v).direction == TO_PLUS_INFINITY

    def test_rational_input_returned_verbatim(self):
        f = Polynomial(1, {(3,): F(1)})
        x, v = rationalize_unbounded_ray(f, [F(7, 3)], [F(2, 5)])
        assert (x, v) == ([F(7, 3)], [F(2, 5)])

    def test_eps_controls_precision(self):
        f = Polynomial(2, {(3, 0): F(1)})
        s = AlgebraicElement.root(2, 2)
        _, v = rationalize_unbounded_ray(f, [F(0), F(0)], [s, F(0)], eps=F(1, 1 << 12))
        assert v[0].denominator >= 1 << 12
        assert abs(v[0] * v[0] - 2) < F(1, 1 << 11)

    def test_requires_cubic_up_growth(self):
        f = Polynomial(1, {(2,): F(1)})
        with pytest.raises(ValueError, match="cubically"):
            rationalize_unbounded_ray(f, [F(0)], [F(1)])
        g = Polynomial(1, {(3,): F(1)})
        with pytest.raises(ValueError, match="cubically"):
            rationalize_unbounded_ray(g, [F(0)], [F(-1)])

    def test_polytope_membership_validated(self):
        f = Polynomial(2, {(3, 0): F(1)})
        P = PolySystem(2, [(Polynomial(2, {(1, 0): F(1), (0, 0): F(-1)}), LE0)])
        with pytest.raises(ValueError, match="base point"):
            rationalize_unbounded_ray(f, [F(2), F(0)], [F(1), F(0)], polytope=P)
        with pytest.raises(ValueError, match="recession cone"):
            rationalize_unbounded_ray(f, [F(0), F(0)], [F(1), F(0)], polytope=P)

    def test_cell_vertex_repairs_cone_exit(self):
        """Flooring (sqrt2, 26 sqrt2) at 8 bits leaves the cone of
        x2 <= 26 x1 (the second coordinate's floor picks up a carry), so the
        direction is the cone's lex-least point in the floor's cell, which
        lies on the active row."""
        f = Polynomial(2, {(3, 0): F(1)})
        s = AlgebraicElement.root(2, 2)
        row = Polynomial(2, {(1, 0): F(-26), (0, 1): F(1)})
        P = PolySystem(2, [(row, LE0)])
        x, v = rationalize_unbounded_ray(
            f, [F(0), F(0)], [s, 26 * s], polytope=P
        )
        assert v != [F(181, 128), F(9413, 256)]  # raw floors exit the cone
        assert v[1] == 26 * v[0]  # back on the active hyperplane
        assert f.homogeneous_component(3).eval(v) > 0
        assert classify_ray(f, x, v).direction == TO_PLUS_INFINITY

    def test_cone_drops_the_right_side(self):
        """P = {x2 <= 26 x1 + 1} has the cone x2 <= 26 x1.  The direction's
        floor (181/128, 9413/256) lies in P but not in the cone, so it is
        not returned."""
        f = Polynomial(2, {(3, 0): F(1)})
        s = AlgebraicElement.root(2, 2)
        row = Polynomial(2, {(1, 0): F(-26), (0, 1): F(1), (0, 0): F(-1)})
        x, v = rationalize_unbounded_ray(f, [F(0), F(0)], [s, 26 * s], polytope=PolySystem(2, [(row, LE0)]))
        assert x == [F(0), F(0)]
        assert v == [F(9413, 6656), F(9413, 256)]

    def test_precision_cap(self, monkeypatch):
        monkeypatch.setenv(PRECISION_CAP_ENV, "16")
        f = Polynomial(1, {(3,): F(1)})
        s = AlgebraicElement.root(2, 2)
        with pytest.raises(PrecisionCapError):
            rationalize_unbounded_ray(f, [F(0)], [s], eps=F(1, 1 << 30))

    def test_eps_domain(self):
        f = Polynomial(1, {(3,): F(1)})
        with pytest.raises(ValueError):
            rationalize_unbounded_ray(f, [F(0)], [F(1)], eps=F(0))


def in_cell(x, x_bar, k):
    """floor_k(x_bar) <= x <= floor_k(x_bar) + 2^-k in each coordinate."""
    return all(0 <= xi - dyadic_floor(c, k) <= F(1, 1 << k) for xi, c in zip(x, x_bar))


@st.composite
def rounding_instances(draw):
    """(f, rows, x_bar, v_bar) over Q(sqrt k): x_bar = p + q sqrt k and
    v_bar = u + w sqrt k, f a cubic with f3(v_bar) > 0, and rows from
    polyhedra(2) plus a row normal to q (tight at x_bar) and one normal to w,
    each turned to hold on v_bar's ray and kept only if x_bar satisfies it."""
    s = AlgebraicElement.root(2, draw(st.sampled_from([2, 3, 5])))
    vec = st.one_of(st.just((F(0), F(0))), st.tuples(small, small))
    p, q, u, w = (draw(vec) for _ in range(4))
    assume(any(q) or any(w))
    x_bar = [pi + qi * s for pi, qi in zip(p, q)]
    v_bar = [ui + wi * s for ui, wi in zip(u, w)]
    f = Polynomial(2, {e: F(draw(st.integers(-2, 2))) for e in [(3, 0), (2, 1), (1, 2), (0, 3)]})
    f += Polynomial(2, {(1, 1): F(draw(st.integers(-2, 2)))})
    assume(sign(f.homogeneous_component(3).eval(v_bar)) > 0)
    rows = []
    for a, b in draw(polyhedra(2)) + [((-q[1], q[0]), dot((-q[1], q[0]), p)), ((-w[1], w[0]), draw(small))]:
        if sign(dot(a, v_bar)) > 0:
            a, b = tuple(-ai for ai in a), -b
        if sign(dot(a, x_bar) - b) <= 0:
            rows.append((a, b))
    return f, rows, x_bar, v_bar


@settings(max_examples=60, deadline=None)
@given(instance=rounding_instances(), eps=st.sampled_from([F(1, 10), F(1, 100)]))
def test_rounded_ray_stays_in_p_and_its_cone(instance, eps):
    """x in P, v in K, each within 2^-8 <= eps of x_bar and v_bar, f3(v) > 0;
    where the 8-bit floors already qualify, they are the answer."""
    f, rows, x_bar, v_bar = instance
    x1, x2 = Polynomial.variables(2)
    P = PolySystem(2, [(a1 * x1 + a2 * x2 - b, LE0, "linear") for (a1, a2), b in rows])
    x, v = rationalize_unbounded_ray(f, x_bar, v_bar, P, eps)
    f3 = f.homogeneous_component(3)
    assert satisfies(rows, x) and all(dot(a, v) <= 0 for a, _ in rows)
    assert in_cell(x, x_bar, 8) and in_cell(v, v_bar, 8)
    assert f3.eval(v) > 0
    x8, v8 = [dyadic_floor(c, 8) for c in x_bar], [dyadic_floor(c, 8) for c in v_bar]
    if satisfies(rows, x8) and all(dot(a, v8) <= 0 for a, _ in rows) and f3.eval(v8) > 0:
        assert (x, v) == (x8, v8)
