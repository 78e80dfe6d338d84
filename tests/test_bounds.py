"""Numeric bound formulas."""

import random
from fractions import Fraction

import pytest

from polycert.bounds import (
    BoundReport,
    bound_report,
    box_bound,
    delta_bound,
    epsilon_inverse,
    lipschitz_constant,
    phi_bound,
)
from polycert.polyalg import Polynomial
from polycert.ratcore import MAX_PARSED_BITS


class TestLipschitz:
    def test_formula_value(self):
        # n*d*H*M^(d-1)*(n+d)^(d-1)
        assert lipschitz_constant(2, 2, 2, 16) == 512

    def test_degree_one_is_slope_bound(self):
        assert lipschitz_constant(3, 1, 5, 100) == 15

    def test_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            lipschitz_constant(0, 2, 1, 1)

    def test_bounds_increments_of_random_polynomials(self):
        """|g(y) - g(z)| <= L * |y - z|_inf, exact, on a spot sample."""
        rng = random.Random(7)
        for _ in range(200):
            n = rng.randint(1, 3)
            d = rng.randint(1, 4)
            terms = {}
            for _ in range(rng.randint(1, 6)):
                e = [0] * n
                for _ in range(d):
                    if rng.random() < 0.7:
                        e[rng.randrange(n)] += 1
                coef = rng.randint(-10, 10)
                if coef:
                    terms[tuple(e)] = Fraction(coef)
            g = Polynomial(n, terms)
            H, dd, _ = g.height_and_degree()
            if g.is_zero():
                continue
            M = rng.randint(1, 4)
            L = lipschitz_constant(n, max(dd, 1), H, Fraction(M))
            y = [Fraction(rng.randint(-4 * M, 4 * M), 4) for _ in range(n)]
            z = [Fraction(rng.randint(-4 * M, 4 * M), 4) for _ in range(n)]
            gap = max(abs(a - b) for a, b in zip(y, z))
            assert abs(g.eval(y) - g.eval(z)) <= L * gap


class TestBoxAndPhi:
    def test_box_bound(self):
        assert box_bound(2, 2) == 16
        assert box_bound(1, 1) == 1

    def test_phi_is_ceiling(self):
        assert phi_bound(Fraction(3, 2), Fraction(5), 2, 10) == 150
        assert phi_bound(Fraction(1, 3), Fraction(1), 1, 1) == 1

    def test_phi_rejects_bad_counts(self):
        with pytest.raises(ValueError):
            phi_bound(1, 1, 0, 1)


class TestDeltaFormula:
    def test_hand_derived_value(self):
        # inner constant 2^3 * max(2, 4+2) * 2^2 = 192; exponent 2*4*4 = 32
        assert delta_bound(2, 1, 2, 2) == 2 * 192 ** 32

    def test_epsilon_inverse_is_half(self):
        assert epsilon_inverse(2, 1, 2, 2) == 192 ** 32

    def test_monotone_in_m(self):
        for n in (2, 3):
            for d in (2, 4):
                for H in (1, 2, 3):
                    vals = [delta_bound(n, m, d, H) for m in (1, 2, 3)]
                    assert vals[0] < vals[1] < vals[2]

    def test_monotone_in_other_arguments(self):
        assert delta_bound(2, 1, 2, 2) < delta_bound(2, 1, 2, 20)
        assert delta_bound(2, 1, 2, 2) < delta_bound(2, 1, 4, 2)

    def test_odd_n_uses_exact_sqrt2_power(self):
        # 2^(5/2) enters the base; the even exponent returns it to Q
        v = delta_bound(3, 1, 2, 1)
        assert isinstance(v, int) and v > 0

    def test_loose_mode_dominates(self):
        assert delta_bound(3, 1, 2, 1, loose=True) >= delta_bound(3, 1, 2, 1)

    def test_domain_guards(self):
        with pytest.raises(ValueError):
            delta_bound(1, 1, 2, 2)
        with pytest.raises(ValueError):
            delta_bound(2, 1, 3, 2)  # odd degree bound


class TestBoundReport:
    def test_assembles_consistently(self):
        r = bound_report(2, 1, 1, 2, 2)
        assert r.M == box_bound(2, 2)
        assert r.delta == delta_bound(2, 1, 2, 2)
        assert r.phi == phi_bound(Fraction(r.L), Fraction(r.M), 1, r.delta)
        assert r.mode == "exact"

    def test_json_reports_bit_lengths(self):
        data = bound_report(2, 1, 1, 2, 2).to_json()
        assert data["delta_bits"] == (2 * 192 ** 32).bit_length()
        assert data["phi_bits"] >= data["delta_bits"]

    def test_validation(self):
        with pytest.raises(ValueError):
            BoundReport(M=0, L=1, epsilon_inverse=1, delta=1, phi=1)
        with pytest.raises(ValueError):
            BoundReport(M=1, L=1, epsilon_inverse=1, delta=1, phi=1, mode="fast")


class TestDeltaSizeCap:
    @pytest.mark.parametrize("n, d", [(6, 2), (7, 2), (8, 2), (3, 10), (16, 2), (2, 1 << 20), (10 ** 9, 2)])
    def test_oversized_shape_is_refused_before_delta_is_built(self, n, d):
        with pytest.raises(ValueError, match="bits"):
            delta_bound(n, 1, d, 1)
        with pytest.raises(ValueError, match="bits"):
            bound_report(n, 1, 1, d, 1)

    @pytest.mark.parametrize("n, d", [(4, 4), (3, 4)])
    def test_shapes_below_the_cap_are_computed(self, n, d):
        assert 0 < delta_bound(n, 1, d, 1).bit_length() <= MAX_PARSED_BITS
