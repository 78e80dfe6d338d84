"""Named example bundles and their exact landmark outcomes."""

import inspect
from fractions import Fraction

import pytest

from polycert.ratcore import AlgebraicElement, encoding_size
from polycert.systems import verify
from polycert.gadgets import (
    GADGET_BUILDERS,
    GADGET_DEFAULTS,
    GadgetBundle,
    Landmark,
    gadget_badboy,
    gadget_h,
    gadget_khachiyan,
    gadget_socp,
    gadget_tiny,
    gadget_unlucky,
    h_polynomial,
)

F = Fraction


def test_every_bundle_constructs():
    """GadgetBundle re-verifies each landmark at construction, so building
    all six is itself a check of the recorded outcomes."""
    bundles = [
        gadget_h(F(0)),
        gadget_tiny(3),
        gadget_khachiyan(4),
        gadget_badboy(3),
        gadget_socp(2, 2, 1, 3),
        gadget_unlucky(F(0)),
    ]
    for b in bundles:
        assert isinstance(b, GadgetBundle) and b.landmarks


def test_bundle_rejects_wrong_expectation():
    good = gadget_unlucky(F(0))
    bad = Landmark("z_star", good.landmarks[0].point, expect_feasible=False)
    with pytest.raises(AssertionError):
        GadgetBundle(good.system, (bad,))


class TestH:
    def test_polynomial_min_is_zero_at_cube_roots(self):
        h = h_polynomial()
        t = AlgebraicElement.root(3, 2)
        assert h.eval_alg([t, t * t]).is_zero()

    def test_irrational_point_always_feasible(self):
        for gamma in (F(0), F(1)):
            b = gadget_h(gamma)
            lm = b.landmarks[0]
            assert lm.name == "ystar" and b.check(lm).feasible

    @pytest.mark.parametrize(
        "gamma,feasible,worst",
        [
            (F(0), False, F(3999, 1000)),
            (F(1), False, F(2999, 1000)),
            (F(3999, 1000), True, F(0)),
            (F(4), True, F(0)),
        ],
    )
    def test_rational_point_enters_box_with_gamma(self, gamma, feasible, worst):
        b = gadget_h(gamma)
        lm = b.landmarks[1]
        assert lm.name == "ybar"
        v = b.check(lm)
        assert v.feasible is feasible and v.worst_violation == worst

    def test_negative_gamma_rejected(self):
        with pytest.raises(ValueError):
            gadget_h(F(-1))


class TestTiny:
    def test_shape(self):
        b = gadget_tiny(4)
        assert b.system.num_vars == 5 and len(b.system.constraints) == 10

    def test_max_s_needs_doubly_exponential_bits(self):
        b = gadget_tiny(10)
        s = b.landmarks[0].point[0]
        assert s == F(1, 2 ** 1024)
        assert s.denominator.bit_length() == 1025
        assert encoding_size(s) >= 2 ** 10

    def test_overshooting_s_infeasible(self):
        b = gadget_tiny(3)
        pt = list(b.landmarks[0].point)
        pt[0] = F(1, 2 ** 8) + F(1, 2 ** 20)
        v = verify(b.system, pt)
        assert not v.feasible and v.violated == (7,)

    def test_origin_feasible(self):
        b = gadget_tiny(2)
        assert b.check(b.landmarks[1]).feasible


class TestKhachiyan:
    @pytest.mark.parametrize("n,last", [(3, 16), (4, 256), (6, 4294967296)])
    def test_min_chain_grows_doubly_exponentially(self, n, last):
        b = gadget_khachiyan(n)
        chain = b.landmarks[0].point
        assert chain[-1] == last == 2 ** (2 ** (n - 1))
        v = b.check(b.landmarks[0])
        assert v.feasible and all(r == 0 for r in v.residuals)

    def test_below_chain_infeasible(self):
        b = gadget_khachiyan(3)
        assert not verify(b.system, [F(2), F(4), F(15)]).feasible

    def test_domain(self):
        with pytest.raises(ValueError):
            gadget_khachiyan(0)


class TestBadboy:
    @pytest.mark.parametrize("N,worst", [(2, F(1, 16)), (3, F(1, 256)), (4, F(1, 65536))])
    def test_near_feasible_single_tiny_violation(self, N, worst):
        b = gadget_badboy(N)
        lm = b.landmarks[0]
        assert lm.name == "near_feasible"
        v = b.check(lm)
        assert not v.feasible
        assert v.violated == (0,)
        assert worst == F(1, 2 ** 2 ** N)
        assert (v.worst_violation - worst).is_zero()  # residual lives in Q(sqrt 2)

    def test_overshoot_objective_is_sqrt_two(self):
        b = gadget_badboy(3)
        val = b.system.objective.eval_alg(list(b.landmarks[0].point))
        assert (val * val - 2).is_zero()

    def test_zero_tail_breaks_two_rows(self):
        b = gadget_badboy(4)
        lm = b.landmarks[1]
        assert lm.name == "zero_tail"
        v = b.check(lm)
        assert v.violated == (5, 7)
        assert (v.worst_violation - F(3, 16)).is_zero()
        assert (v.residuals[7] - F(1, 2 ** 16)).is_zero()

    def test_no_zero_tail_below_three(self):
        assert [lm.name for lm in gadget_badboy(2).landmarks] == ["near_feasible"]

    def test_truly_feasible_points_stay_low(self):
        """Exactly feasible rational points found by a coarse grid never get
        objective value near sqrt(2) ~ 1.414."""
        b = gadget_badboy(2)
        best = None
        for i in range(-12, 13):
            for j in range(0, 15):
                x1, x2 = F(i, 3), F(j, 10)
                for d1 in (F(0), F(1, 4), F(1, 2)):
                    pt = [x1, x2, d1, F(1, 2) - d1]
                    if verify(b.system, pt).feasible:
                        if best is None or x2 > best:
                            best = x2
        assert best is not None and best <= F(123, 100)

    def test_domain(self):
        with pytest.raises(ValueError):
            gadget_badboy(1)


class TestSocp:
    def test_irrational_corner_two_sqrt_two(self):
        b = gadget_socp(2, 2, 1, 3)
        x0 = b.landmarks[0].point[0]
        assert isinstance(x0, AlgebraicElement)
        assert (x0 * x0 - 8).is_zero()
        v = b.check(b.landmarks[0])
        assert v.feasible and all(v.residuals[i].is_zero() for i in range(5))

    def test_rational_corner_when_sum_is_square(self):
        b = gadget_socp(3, 4, 12, 13)
        assert b.landmarks[0].point[0] == F(5)

    def test_sqrt_five_corner(self):
        b = gadget_socp(1, 2, 2, 3)
        x0 = b.landmarks[0].point[0]
        assert isinstance(x0, AlgebraicElement) and (x0 * x0 - 5).is_zero()

    def test_rational_x0_below_corner_infeasible(self):
        b = gadget_socp(1, 2, 2, 3)
        for x0 in (F(2), F(22, 10), F(9, 4)):
            assert not verify(b.system, [x0, F(1), F(2), F(2)]).feasible

    def test_invalid_quadruple(self):
        with pytest.raises(ValueError):
            gadget_socp(1, 1, 1, 2)
        with pytest.raises(ValueError):
            gadget_socp(0, 2, 2, 3)


class TestUnlucky:
    def test_sigma_zero_kissing_point(self):
        b = gadget_unlucky(F(0))
        lm = b.landmarks[0]
        assert lm.point == (F(0), F(2))
        v = b.check(lm)
        assert v.feasible
        assert v.residuals[0] == 0 and v.residuals[1] == 0 and v.residuals[2] == 0

    def test_positive_sigma_evicts_the_point(self):
        b = gadget_unlucky(F(1, 2))
        v = b.check(b.landmarks[0])
        assert not v.feasible and v.worst_violation == F(1, 2)

    def test_gap_strip_empties_out(self):
        """With sigma > 0 no grid point with 0 < |z1| < 2 stays feasible."""
        b = gadget_unlucky(F(1, 2))
        for i in list(range(-7, 0)) + list(range(1, 8)):
            for j in range(0, 17):
                pt = [F(i, 4), F(j, 8)]
                assert not verify(b.system, pt).feasible

    def test_sigma_domain(self):
        with pytest.raises(ValueError):
            gadget_unlucky(F(-1, 2))
        with pytest.raises(ValueError):
            gadget_unlucky(F(3, 2))


def test_bundle_json_smoke():
    b = gadget_badboy(3)
    data = b.to_json()
    assert set(data) == {"system", "landmarks", "notes"}
    assert data["landmarks"][0]["expect_worst"] == "1/256"
    h = gadget_h(F(0)).to_json()
    assert h["landmarks"][0]["name"] == "ystar"


def test_defaults_name_every_builder_parameter():
    for name, builder in GADGET_BUILDERS.items():
        assert list(inspect.signature(builder).parameters) == list(GADGET_DEFAULTS[name])
        builder(**GADGET_DEFAULTS[name])
