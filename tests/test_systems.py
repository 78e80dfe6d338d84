"""Constraint systems, exact verification, and the delta relaxation."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polycert.ratcore import AlgebraicElement
from polycert.polyalg import Polynomial
from polycert.systems import (
    Constraint,
    EQ0,
    LE0,
    PolySystem,
    point_from_json,
    point_to_json,
    relax,
    verify,
    verify_alg,
)


def P(n, terms):
    return Polynomial(n, {e: Fraction(c) for e, c in terms.items()})


def box_rows(n, lo, hi):
    rows = []
    for i in range(n):
        e = tuple(1 if j == i else 0 for j in range(n))
        rows.append((Polynomial(n, {e: Fraction(-1), (0,) * n: Fraction(lo)}), LE0))
        rows.append((Polynomial(n, {e: Fraction(1), (0,) * n: Fraction(-hi)}), LE0))
    return rows


H_POLY = P(2, {(3, 0): 2, (0, 3): 1, (1, 1): -6, (0, 0): 4})


def r0_system():
    """h <= 0 over the box [1259/1000, 1260/1000] x [1587/1000, 1590/1000]."""
    rows = [
        (P(2, {(1, 0): -1, (0, 0): Fraction(1259, 1000)}), LE0),
        (P(2, {(1, 0): 1, (0, 0): Fraction(-1260, 1000)}), LE0),
        (P(2, {(0, 1): -1, (0, 0): Fraction(1587, 1000)}), LE0),
        (P(2, {(0, 1): 1, (0, 0): Fraction(-1590, 1000)}), LE0),
        (H_POLY, LE0),
    ]
    return PolySystem(2, rows, ["y1", "y2"])


class TestConstruction:
    def test_tag_defaults_by_degree(self):
        s = PolySystem(1, [(P(1, {(1,): 1}), LE0), (P(1, {(2,): 1}), LE0)])
        assert s.constraints[0].tag == "linear"
        assert s.constraints[1].tag == "nonlinear"

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            PolySystem(2, [(P(1, {(1,): 1}), LE0)])

    def test_bad_rel_rejected(self):
        with pytest.raises(ValueError):
            Constraint(P(1, {(1,): 1}), "LT0", "linear")
        with pytest.raises(ValueError):
            PolySystem(1, [(P(1, {(1,): 1}), "GE0")])


class TestVerify:
    def test_feasible_point(self):
        s = r0_system()
        v = verify(s, [Fraction(1259, 1000), Fraction(1587, 1000)])
        assert not v.feasible  # h > 0 at every rational point of the box

    def test_residuals_and_violated_indices(self):
        s = PolySystem(1, [(P(1, {(1,): 1, (0,): -1}), LE0), (P(1, {(1,): 1}), EQ0)])
        v = verify(s, [Fraction(2)])
        assert v.residuals == (Fraction(1), Fraction(2))
        assert v.violated == (0, 1)
        assert v.worst_violation == 2

    def test_eq0_violation_is_absolute(self):
        s = PolySystem(1, [(P(1, {(1,): 1}), EQ0)])
        assert verify(s, [Fraction(-3)]).worst_violation == 3

    def test_le0_negative_residual_is_no_violation(self):
        s = PolySystem(1, [(P(1, {(1,): 1}), LE0)])
        v = verify(s, [Fraction(-5)])
        assert v.feasible and v.worst_violation == 0

    def test_algebraic_point_exactly_on_surface(self):
        t = AlgebraicElement.root(3, 2)
        v = verify_alg(r0_system(), [t, t * t])
        assert v.feasible
        assert all(
            r.is_zero() if isinstance(r, AlgebraicElement) else True
            for r in (v.residuals[4],)
        )

    def test_mixed_fields_rejected(self):
        s = PolySystem(2, box_rows(2, 0, 2))
        with pytest.raises(ValueError):
            verify_alg(s, [AlgebraicElement.root(2, 2), AlgebraicElement.root(2, 3)])

    @settings(max_examples=40)
    @given(
        st.lists(
            st.fractions(min_value=Fraction(-3), max_value=Fraction(3), max_denominator=8),
            min_size=2,
            max_size=2,
        ),
        st.sampled_from([(3, 2), (2, 2), (2, 5)]),
        st.tuples(st.booleans(), st.booleans()).filter(any),
    )
    def test_embedded_rational_point_gives_lifted_verdict(self, pt, field, mask):
        """verify at a field-embedded rational point equals the rational
        verdict with residuals and worst violation lifted into the field."""
        s = PolySystem(
            2,
            box_rows(2, -2, 2)
            + [(P(2, {(2, 0): 1, (0, 2): 1, (0, 0): -4}), LE0), (P(2, {(1, 1): 1}), EQ0)],
        )
        up = lambda q: AlgebraicElement.from_rational(*field, q)
        embedded = [up(x) if m else x for x, m in zip(pt, mask)]
        rat, alg = verify(s, pt), verify(s, embedded)
        assert (alg.feasible, alg.violated) == (rat.feasible, rat.violated)
        assert list(alg.residuals) == [up(r) for r in rat.residuals]
        assert up(0) + alg.worst_violation == up(rat.worst_violation)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            verify(r0_system(), [Fraction(1)])


class TestRelax:
    def test_nonlinear_row_scaled_and_slackened(self):
        s = r0_system()
        r = relax(s, 10 ** 6)
        # ell = 1 nonlinear row: g -> (ell*delta)*g - 1
        g = r.constraints[4].poly
        assert g == H_POLY * (10 ** 6) - 1

    def test_linear_rows_unchanged(self):
        s = r0_system()
        r = relax(s, 10 ** 6)
        for i in range(4):
            assert r.constraints[i].poly == s.constraints[i].poly

    def test_detunes_near_optimal_point(self):
        """A dyadic point with h > 0 exactly, accepted by the relaxation."""
        y = [Fraction(1259921, 10 ** 6), Fraction(1587401, 10 ** 6)]
        s = r0_system()
        assert not verify(s, y).feasible
        assert verify(s, y).worst_violation == Fraction(16123, 10 ** 18)
        assert verify(relax(s, 10 ** 6), y).feasible

    def test_ell_counts_all_nonlinear_rows(self):
        rows = [(P(1, {(2,): 1, (0,): -1}), LE0), (P(1, {(3,): 1, (0,): -1}), LE0)]
        s = PolySystem(1, rows)
        r = relax(s, 5)
        assert r.constraints[0].poly == rows[0][0] * 10 - 1

    def test_eq0_rows_pass_through(self):
        s = PolySystem(1, [(P(1, {(2,): 1, (0,): -1}), EQ0)])
        assert relax(s, 9).constraints[0].poly == s.constraints[0].poly

    def test_delta_must_be_positive(self):
        with pytest.raises(ValueError):
            relax(r0_system(), 0)

    @settings(max_examples=40)
    @given(
        st.lists(
            st.fractions(min_value=Fraction(-3), max_value=Fraction(3), max_denominator=8),
            min_size=2,
            max_size=2,
        ),
        st.integers(min_value=1, max_value=1000),
    )
    def test_relaxation_contains_original(self, pt, delta):
        """R subseteq S: any point feasible for the system is feasible after relaxing."""
        s = PolySystem(
            2,
            box_rows(2, -3, 3)
            + [(P(2, {(2, 0): 1, (0, 2): 1, (0, 0): -4}), LE0)],
        )
        if verify(s, pt).feasible:
            assert verify(relax(s, delta), pt).feasible


class TestPointJson:
    def test_rational_round_trip(self):
        x = [Fraction(1, 3), Fraction(-2)]
        assert point_from_json(point_to_json(x)) == x

    def test_algebraic_round_trip(self):
        t = AlgebraicElement.root(3, 2)
        x = [t, t * t, Fraction(1)]
        back = point_from_json(point_to_json(x))
        assert all((a - b).is_zero() for a, b in zip(back, x))

    def test_algebraic_encoding_shape(self):
        t = AlgebraicElement.root(2, 5)
        data = point_to_json([t])
        assert data["e"] == 2 and data["k"] == 5
        assert data["values"] == [["0/1", "1/1"]]

    def test_mixed_fields_rejected(self):
        with pytest.raises(ValueError):
            point_to_json([AlgebraicElement.root(2, 2), AlgebraicElement.root(3, 2)])


class TestSystemJson:
    def test_round_trip_identity(self):
        s = r0_system()
        assert PolySystem.from_json(s.to_json()) == s

    def test_text_round_trip(self):
        s = PolySystem(1, [(P(1, {(2,): Fraction(1, 3)}), EQ0)], objective=P(1, {(1,): 1}))
        assert PolySystem.loads(s.dumps()) == s

    def test_objective_survives(self):
        s = PolySystem(1, [(P(1, {(1,): 1}), LE0)], objective=P(1, {(1,): 2}))
        assert PolySystem.from_json(s.to_json()).objective == s.objective
