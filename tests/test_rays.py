"""Growth of polynomials along rays and rationalization of unbounded rays."""

import random
from fractions import Fraction

import pytest

from polycert.ratcore import PRECISION_CAP_ENV, AlgebraicElement, PrecisionCapError
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

    def test_projection_repairs_cone_exit(self):
        """Flooring (sqrt2, 26 sqrt2) at 8 bits leaves the cone of
        x2 <= 26 x1 (the second coordinate's floor picks up a carry), so the
        direction is projected back onto the active row."""
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
