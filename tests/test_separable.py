"""Separable-cubic feasibility: radical signs, derivative roots, the solver."""

import random
from fractions import Fraction
from math import isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polycert.polyalg import Polynomial, uni_derivative, uni_eval
from polycert.ratcore import AlgebraicElement, encoding_size_vec, sign
from polycert.systems import LE0, PolySystem
from polycert.linear import linear_rows, satisfies
from polycert.separable import (
    SeparableCubic,
    _derivative_roots,
    _sum_sign,
    solve_separable,
)

F = Fraction


def cubic(*quads) -> SeparableCubic:
    return SeparableCubic(tuple(tuple(F(v) for v in q) for q in quads))


def box(bounds) -> PolySystem:
    n = len(bounds)
    rows = []
    zero = tuple([0] * n)
    for i, (lo, hi) in enumerate(bounds):
        e = [0] * n
        e[i] = 1
        m = tuple(e)
        rows.append((Polynomial(n, {m: F(-1), zero: F(lo)}), LE0))
        rows.append((Polynomial(n, {m: F(1), zero: F(-hi)}), LE0))
    return PolySystem(n, rows)


def isqrt_oracle_sign(r, parts) -> int:
    """Sign of r + sum c * sqrt(k) over (c, k) pairs, without field arithmetic.

    Zero exactly when the parts cancel once each k is split into s^2 times a
    squarefree core, because square roots of distinct squarefree integers are
    linearly independent over Q; otherwise isqrt enclosures of each sqrt(k) at
    doubling precision decide the sign."""
    by_core = {1: F(r)}
    for c, k in parts:
        s, core = 1, 1
        p, rest = 2, k
        while p * p <= rest:
            while rest % (p * p) == 0:
                rest //= p * p
                s *= p
            if rest % p == 0:
                rest //= p
                core *= p
            p += 1
        core *= rest
        by_core[core] = by_core.get(core, 0) + c * s
    if not any(by_core.values()):
        return 0
    bits = 8
    while True:
        lo = hi = F(r)
        for c, k in parts:
            root = isqrt(k << (2 * bits))
            r_lo, r_hi = F(root, 1 << bits), F(root + 1, 1 << bits)
            lo += c * (r_lo if c > 0 else r_hi)
            hi += c * (r_hi if c > 0 else r_lo)
        if lo > 0:
            return 1
        if hi < 0:
            return -1
        bits *= 2


def sqrt_of(k, c=1, r=0):
    """r + c sqrt(k) as an element of Q(sqrt k)."""
    return AlgebraicElement(2, k, (F(r), F(c)))


class TestRadicalSum:
    """Signs of radical sums r + sum c_i sqrt(k_i), decided by _sum_sign."""

    def test_normalization_cancels(self):
        terms = [sqrt_of(8), sqrt_of(2, -2)]
        assert _sum_sign(terms) == 0 == isqrt_oracle_sign(0, [(1, 8), (-2, 2)])

    def test_signs(self):
        assert _sum_sign([F(1), sqrt_of(2), sqrt_of(5, -1)]) == 1
        assert _sum_sign([F(3), sqrt_of(2, -1), sqrt_of(3, -1)]) == -1
        assert _sum_sign([F(-141, 100), sqrt_of(2)]) == 1
        assert _sum_sign([F(-142, 100), sqrt_of(2)]) == -1

    def test_rational_only(self):
        assert _sum_sign([F(1, 3), F(-1, 3)]) == 0
        assert _sum_sign([F(1, 3), F(-1, 2)]) == -1
        assert _sum_sign([]) == 0

    def test_one_field(self):
        assert _sum_sign([sqrt_of(12, 1, -3), sqrt_of(12, 1, -1), F(1)]) == 1
        assert _sum_sign([sqrt_of(3, 2), sqrt_of(3, -2)]) == 0
        assert _sum_sign([sqrt_of(18, -1, 4)]) == -1  # 4 - sqrt(18)

    def test_two_distinct_fields(self):
        # sqrt(2) + sqrt(3) against 3.14626...
        assert _sum_sign([sqrt_of(2), sqrt_of(3), F(-314, 100)]) == 1
        assert _sum_sign([sqrt_of(2), sqrt_of(3), F(-315, 100)]) == -1
        # sqrt(50) - sqrt(48) is positive though both radicands carry squares
        assert _sum_sign([sqrt_of(50), sqrt_of(48, -1)]) == 1

    def test_equal_fields_under_different_radicands(self):
        # 3 sqrt(8) = 6 sqrt(2) and 2 sqrt(18) = 6 sqrt(2)
        assert _sum_sign([sqrt_of(8, 3, 1), sqrt_of(18, -2, -1)]) == 0
        assert _sum_sign([sqrt_of(8, 3), sqrt_of(18, -2), F(1, 10 ** 30)]) == 1

    def test_more_than_two_fields_refused(self):
        with pytest.raises(ValueError, match="two"):
            _sum_sign([sqrt_of(2), sqrt_of(3), sqrt_of(5)])

    @settings(max_examples=80)
    @given(
        st.fractions(min_value=-20, max_value=20, max_denominator=12),
        st.fractions(min_value=-20, max_value=20, max_denominator=12),
        st.sampled_from([2, 3, 5, 6, 7, 10, 11, 13]),
    )
    def test_agrees_with_field_sign(self, c0, c1, k):
        """ratcore.sign of c0 + c1 sqrt(k) in Q(sqrt k) matches the radical sum."""
        x = AlgebraicElement(2, k, (c0, c1))
        assert sign(x) == _sum_sign([x]) == _sum_sign([c0, sqrt_of(k, c1)])

    @settings(max_examples=150)
    @given(
        st.fractions(min_value=-20, max_value=20, max_denominator=12),
        st.lists(
            st.tuples(
                st.sampled_from([-3, -2, -1, F(1, 2), 1, 2, 3]),
                st.sampled_from([2, 3, 8, 12, 18, 27, 50, 75]),
            ),
            max_size=2,
        ),
    )
    def test_agrees_with_isqrt_oracle(self, r, parts):
        """Radicands with square factors, equal or distinct fields."""
        terms = [r] + [sqrt_of(k, c) for c, k in parts]
        assert _sum_sign(terms) == isqrt_oracle_sign(r, parts)


class TestDerivativeRoots:
    def test_perfect_square_discriminant_gives_fractions(self):
        # p' = 3x^2 - 3, disc 36; p' = 3x^2 - 3/4 with disc 9, roots +-1/2
        assert _derivative_roots([F(0), F(-3), F(0), F(1)]) == [F(-1), F(1)]
        roots = _derivative_roots([F(0), F(-3, 4), F(0), F(1)])
        assert roots == [F(-1, 2), F(1, 2)]
        assert all(type(t) is F for t in roots)

    def test_fractional_discriminant_gives_exact_roots(self):
        # p' = x^2 - 1/8: disc 1/2, roots +-sqrt(1/8) = +-sqrt(2)/4
        p = [F(0), F(-1, 8), F(0), F(1, 3)]
        lo, hi = _derivative_roots(p)
        assert (lo, hi) == (sqrt_of(2, F(-1, 4)), sqrt_of(2, F(1, 4)))
        for t in (lo, hi):
            assert (t * t - F(1, 8)).is_zero()
            assert sign(uni_eval(uni_derivative(p), t)) == 0

    def test_radicand_is_not_factored(self):
        # p' = x^2 - 2: disc 8 is kept as the field Q(sqrt 8), roots +-sqrt(8)/2
        lo, hi = _derivative_roots([F(0), F(-2), F(0), F(1, 3)])
        assert (lo.k, lo.coeffs, hi.coeffs) == (8, (0, F(-1, 2)), (0, F(1, 2)))
        assert (hi * hi - 2).is_zero() and sign(lo) == -1


class TestCriticalValues:
    """The fact that makes a zero minimum rational: a cubic's value at an
    irrational critical point has a nonzero sqrt part, negative at the
    local minimum."""

    @settings(max_examples=200)
    @given(
        st.fractions(min_value=-20, max_value=20, max_denominator=12).filter(bool),
        st.fractions(min_value=-20, max_value=20, max_denominator=12),
        st.fractions(min_value=-20, max_value=20, max_denominator=12),
        st.fractions(min_value=-20, max_value=20, max_denominator=12),
    )
    def test_irrational_critical_value_has_a_nonzero_sqrt_part(self, a, b, c, d):
        p = [d, c, b, a]
        dp = uni_derivative(p)
        for t in _derivative_roots(p):
            assert sign(uni_eval(dp, t)) == 0
            if isinstance(t, Fraction):
                continue
            value = uni_eval(p, t)
            assert value.coeffs[1] != 0
            if sign(uni_eval(uni_derivative(dp), t)) > 0:
                assert value.coeffs[1] < 0


class TestSolver:
    def test_interior_rational_critical_point(self):
        r = solve_separable(cubic((1, 0, -3, 2)), box([(0, 3)]))
        assert r.status == "point" and r.point == [F(1)]

    def test_vertex_hit(self):
        r = solve_separable(cubic((1, 0, 0, -2)), box([(0, 3)]))
        assert r.status == "point" and r.point == [F(0)]

    def test_infeasible_when_box_misses_cube_root(self):
        r = solve_separable(cubic((1, 0, 0, -2)), box([(F(13, 10), 3)]))
        assert r.status == "infeasible" and not r.feasible

    def test_irrational_minimizer_refined_dyadically(self):
        sc = cubic((1, 0, -6, 5), (1, 0, -6, 5))
        r = solve_separable(sc, box([(0, 3), (0, 3)]))
        assert r.status == "point"
        assert r.point == [F(181, 128), F(181, 128)]
        assert r.size_bits == 34 == encoding_size_vec(r.point)
        assert sc.polynomial().eval(r.point) <= 0

    def test_degenerate_edge_segment(self):
        sc = cubic((1, 0, -6, 5), (1, 0, -6, 5))
        r = solve_separable(sc, box([(0, 3), (1, 1)]))
        assert r.status == "point" and r.point == [F(45, 32), F(1)]

    def test_empty_polytope(self):
        r = solve_separable(cubic((1, 0, 0, -2)), box([(2, 1)]))
        assert r.status == "infeasible" and r.note == "empty polytope"

    def test_zero_row_is_no_face(self):
        """A linear row 0 <= 0 (no terms) is tight at every point but bounds
        no face, so no chord of the box is scanned as an edge."""
        sc = cubic((-2, 9, 8, -89), (-1, 5, 2, 88))
        plain = box([(-5, 5), (-5, 5)])
        zero_row = (Polynomial.zero(2), LE0, "linear")
        r = solve_separable(sc, PolySystem(2, [*plain.constraints, zero_row]))
        assert r == solve_separable(sc, plain)
        assert r.point == [F(-101, 256), F(-49, 256)]

    def test_unbounded_rejected(self):
        only_lower = PolySystem(1, [(Polynomial(1, {(1,): F(-1)}), LE0)])
        with pytest.raises(ValueError, match="unbounded"):
            solve_separable(cubic((1, 0, 0, -2)), only_lower)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            solve_separable(cubic((1, 0, 0, -2)), box([(0, 1), (0, 1)]))

    def test_nonlinear_rows_rejected(self):
        rows = [(Polynomial(1, {(2,): F(1), (0,): F(-4)}), LE0)]
        with pytest.raises(ValueError):
            solve_separable(cubic((1, 0, 0, -2)), PolySystem(1, rows))

    def test_result_json_shape(self):
        r = solve_separable(cubic((1, 0, -3, 2)), box([(0, 3)]))
        data = r.to_json()
        assert data["status"] == "point"
        assert data["point"]["values"] == ["1/1"]
        assert data["size_bits"] == r.size_bits


# -- randomized agreement with a dyadic grid oracle ---------------------------


def _uni_min_bracket(p, lo, hi, k):
    """(grid_min, slack) for min of the univariate cubic p on [lo, hi]:
    the true minimum lies in [grid_min - slack, grid_min]."""
    d, c, b, a = p
    R = max(abs(lo), abs(hi))
    lip = 3 * abs(a) * R * R + 2 * abs(b) * R + abs(c)
    n = 1 << k
    step = (hi - lo) / n
    best = None
    for j in range(n + 1):
        x = lo + j * step
        v = uni_eval([d, c, b, a], x)
        if best is None or v < best:
            best = v
    return best, lip * step / 2


def grid_oracle(sc, bounds, k):
    """'point' / 'infeasible' / None (undecidable at 2^-k resolution)."""
    total = F(0)
    slack = F(0)
    for i, (lo, hi) in enumerate(bounds):
        m, s = _uni_min_bracket(sc.univariate(i), lo, hi, k)
        total += m
        slack += s
    if total <= 0:
        return "point"
    if total - slack > 0:
        return "infeasible"
    return None


@pytest.mark.parametrize("n,cases,k", [(1, 60, 12), (2, 25, 9)])
def test_solver_agrees_with_grid_oracle(n, cases, k):
    rng = random.Random(100 + n)
    checked = 0
    for _ in range(cases):
        quads = []
        for _ in range(n):
            a = rng.choice([-3, -2, -1, 1, 2, 3])
            quads.append((a, rng.randint(-4, 4), rng.randint(-8, 8), rng.randint(-8, 8)))
        sc = cubic(*quads)
        bounds = []
        for _ in range(n):
            lo = F(rng.randint(-8, 4), 2)
            bounds.append((lo, lo + F(rng.randint(1, 8), 2)))
        r = solve_separable(sc, box(bounds))
        assert r.status in ("point", "infeasible")
        if r.status == "point":
            rows = linear_rows(box(bounds))
            assert satisfies(rows, r.point)
            assert sc.polynomial().eval(r.point) <= 0
        verdict = grid_oracle(sc, bounds, k)
        if verdict is None:
            continue  # undecidable at this resolution; solver answer already self-verified
        checked += 1
        assert r.status == verdict
    assert checked >= cases // 2


class TestCubicJson:
    def test_integer_and_string_coefficients_agree(self):
        a = SeparableCubic.from_json({"n": 1, "coeffs": [[1, 0, -6, 5]]})
        b = SeparableCubic.from_json({"coeffs": [["1", "0", "-6/1", "5"]]})
        assert a == b

    @pytest.mark.parametrize("bad", [0.1, 1.0, True, None])
    def test_other_json_values_are_refused(self, bad):
        with pytest.raises(TypeError):
            SeparableCubic.from_json({"coeffs": [["1", "0", "0", bad]]})

    def test_n_must_match_the_rows(self):
        with pytest.raises(ValueError, match="coefficient rows"):
            SeparableCubic.from_json({"n": 2, "coeffs": [["1", "0", "0", "0"]]})
