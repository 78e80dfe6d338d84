"""Sparse multivariate polynomials and univariate helpers."""

import operator
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polycert.ratcore import AlgebraicElement
from polycert.polyalg import (
    Polynomial,
    _checked_key,
    uni_degree,
    uni_derivative,
    uni_eval,
)


def P(n, terms):
    return Polynomial(n, {e: Fraction(c) for e, c in terms.items()})


coeffs = st.fractions(min_value=Fraction(-9), max_value=Fraction(9), max_denominator=8)


def poly_strategy(n, max_deg=3, max_terms=5):
    exps = st.tuples(*([st.integers(min_value=0, max_value=max_deg)] * n))
    return st.dictionaries(exps, coeffs, max_size=max_terms).map(lambda d: Polynomial(n, d))


points = st.tuples(coeffs, coeffs)
fields = st.sampled_from([(3, 2), (3, 5), (2, 2), (2, 3), (2, 7)])
# which coordinates to embed; at least one, up to all
masks = st.tuples(st.booleans(), st.booleans()).filter(any)


def embed(point, field, mask):
    """The rational point with the masked coordinates written as field elements."""
    return [AlgebraicElement.from_rational(*field, x) if m else x for x, m in zip(point, mask)]


class TestConstruction:
    def test_zero_coefficients_dropped(self):
        p = P(2, {(1, 0): 0, (0, 1): 3})
        assert len(p.terms) == 1 and p.coefficient((0, 1)) == 3

    def test_exponent_arity_checked(self):
        with pytest.raises(ValueError):
            Polynomial(2, {(1,): Fraction(1)})

    def test_negative_exponent_rejected(self):
        with pytest.raises(ValueError, match="negative exponent"):
            Polynomial(2, {(1, -1): Fraction(1)})

    def test_duplicate_json_monomial_rejected(self):
        term = {"exps": [1, 0], "coef": "1/1"}
        with pytest.raises(ValueError, match="duplicate monomial"):
            Polynomial.from_json({"n": 2, "terms": [term, term]})

    def test_degree_and_constant(self):
        p = P(2, {(2, 1): 1, (0, 0): -5})
        assert p.degree() == 3
        assert p.constant_term() == -5

    def test_graded_lex_term_order(self):
        p = P(2, {(0, 0): 1, (2, 0): 1, (1, 1): 1, (0, 1): 1})
        order = [e for e, _ in p.sorted_terms()]
        assert order == [(2, 0), (1, 1), (0, 1), (0, 0)]

    def test_variable_and_constant_builders(self):
        x = Polynomial.variable(2, 0)
        assert x.eval([Fraction(7), Fraction(0)]) == 7
        assert Polynomial.constant(2, Fraction(5, 2)).eval([0, 0]) == Fraction(5, 2)

    def test_rows_built_from_variables(self):
        x1, x2 = Polynomial.variables(2)
        assert x1 == Polynomial.variable(2, 0) and x2 == Polynomial.variable(2, 1)
        assert x1 ** 2 / 10 + x2 - 4 == P(2, {(2, 0): Fraction(1, 10), (0, 1): 1, (0, 0): -4})


class TestArithmetic:
    @settings(max_examples=50)
    @given(poly_strategy(2), poly_strategy(2), points)
    def test_sum_evaluates_pointwise(self, p, q, pt):
        assert (p + q).eval(pt) == p.eval(pt) + q.eval(pt)

    @settings(max_examples=50)
    @given(poly_strategy(2), poly_strategy(2), points)
    def test_product_evaluates_pointwise(self, p, q, pt):
        assert (p * q).eval(pt) == p.eval(pt) * q.eval(pt)

    @settings(max_examples=30)
    @given(poly_strategy(2), points)
    def test_scalar_ops(self, p, pt):
        assert (2 * p - p).eval(pt) == p.eval(pt)
        assert (p - p).is_zero()

    def test_pow(self):
        x = Polynomial.variable(1, 0)
        assert (x + 1) ** 3 == P(1, {(3,): 1, (2,): 3, (1,): 3, (0,): 1})
        assert x ** 0 == Polynomial.constant(1, 1) and x ** 1 == x

    @settings(max_examples=30)
    @given(poly_strategy(2), poly_strategy(2))
    def test_results_hold_only_nonzero_fractions(self, p, q):
        # arithmetic skips the key checks of __init__, so its results must
        # already be what __init__ would have built
        for r in (p + q, p - q, -p, p * q, 3 * p, p / 3, p ** 2, p + 1, 1 - p):
            assert all(type(c) is Fraction and c for c in r.terms.values())
            assert Polynomial.from_json(r.to_json()) == r


class TestCalculusAndStructure:
    def test_homogeneous_component(self):
        p = P(2, {(3, 0): 2, (1, 1): 1, (0, 0): 4})
        assert p.homogeneous_component(3) == P(2, {(3, 0): 2})
        assert p.homogeneous_component(1).is_zero()

    def test_height_and_degree_clears_denominators(self):
        p = P(2, {(1, 0): Fraction(1, 2), (0, 1): Fraction(1, 3)})
        H, d, D = p.height_and_degree()
        assert (H, d, D) == (3, 1, 6)

    @settings(max_examples=40)
    @given(poly_strategy(2))
    def test_affine_identity_substitution(self, p):
        eye = [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]]
        zero = [Fraction(0), Fraction(0)]
        assert p.affine_substitute(eye, zero) == p

    @settings(max_examples=40)
    @given(poly_strategy(2), points, points, coeffs)
    def test_restriction_agrees_with_eval(self, p, x0, v, lam):
        coeff = p.restrict_to_ray(x0, v)
        moved = [x + lam * d for x, d in zip(x0, v)]
        assert uni_eval(coeff, lam) == p.eval(moved)

    @settings(max_examples=40)
    @given(poly_strategy(2), points, points, fields, masks, masks)
    def test_embedded_rational_data_gives_lifted_results(self, p, x0, v, field, m0, m1):
        """eval and restrict_to_ray at field-embedded rational data equal the
        rational results lifted into the field."""
        up = lambda q: AlgebraicElement.from_rational(*field, q)
        assert p.eval(embed(x0, field, m0)) == up(p.eval(x0))
        rest = p.restrict_to_ray(embed(x0, field, m0), embed(v, field, m1))
        assert rest == [up(c) for c in p.restrict_to_ray(x0, v)]

    def test_restriction_with_algebraic_direction(self):
        t = AlgebraicElement.root(3, 2)
        p = P(2, {(1, 1): 1})  # x*y
        coeff = p.restrict_to_ray_alg([Fraction(0), Fraction(0)], [t, t * t])
        # x*y along (t, t^2) is t^3 lam^2 = 2 lam^2
        assert uni_degree(coeff) == 2
        lead = coeff[2]
        assert lead.to_rational() == 2 if isinstance(lead, AlgebraicElement) else lead == 2


# Dense reference arithmetic over {exponent tuple: coefficient} dicts, for
# checking the sparse keys that Polynomial holds inside.


def dense_eval(terms, pt):
    total = Fraction(0)
    for exps, c in terms.items():
        v = Fraction(c)
        for x, e in zip(pt, exps):
            v *= x ** e
        total += v
    return total


def dense_mul(a, b):
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(i + j for i, j in zip(e1, e2))
            out[e] = out.get(e, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def dense_restrict(terms, x0, v):
    """Ascending coefficients of lam -> p(x0 + lam v), trailing zeros cut."""
    out = [Fraction(0)]
    for exps, c in terms.items():
        uni = [Fraction(c)]
        for x, d, e in zip(x0, v, exps):
            for _ in range(e):
                uni = [a * x + b * d for a, b in zip(uni + [0], [0] + uni)]
        width = max(len(out), len(uni))
        out = [a + b for a, b in zip(out + [0] * (width - len(out)), uni + [0] * (width - len(uni)))]
    while len(out) > 1 and out[-1] == 0:
        out.pop()
    return out


@st.composite
def wide_cases(draw, max_vars=7):
    """(n, dense terms of p, dense terms of q, point, direction): up to seven
    variables, exponents mostly zero, so the sparse keys are short and vary
    in which variables they name."""
    n = draw(st.integers(min_value=0, max_value=max_vars))
    exps = st.tuples(*[st.sampled_from([0, 0, 0, 1, 2, 3])] * n)
    p, q = (draw(st.dictionaries(exps, coeffs, max_size=6)) for _ in range(2))
    vec = st.lists(coeffs, min_size=n, max_size=n)
    return n, p, q, draw(vec), draw(vec)


class TestSparseAgainstDense:
    @settings(max_examples=40)
    @given(wide_cases())
    def test_eval_product_and_restriction(self, case):
        n, p, q, x0, v = case
        poly = Polynomial(n, p)
        assert poly.eval(x0) == dense_eval(p, x0)
        assert dict((poly * Polynomial(n, q)).sorted_terms()) == dense_mul(p, q)
        assert poly.restrict_to_ray(x0, v) == dense_restrict(p, x0, v)

    @settings(max_examples=40)
    @given(wide_cases())
    def test_dense_views_and_json_round_trip(self, case):
        n, p, _, _, _ = case
        poly = Polynomial(n, p)
        nonzero = {e: c for e, c in p.items() if c}
        order = sorted(nonzero, key=lambda e: (sum(e), e), reverse=True)
        assert poly.sorted_terms() == [(e, nonzero[e]) for e in order]
        assert poly.degree() == max(map(sum, nonzero), default=0)
        assert poly.constant_term() == nonzero.get((0,) * n, 0)
        assert all(poly.coefficient(e) == c for e, c in nonzero.items())
        for d in range(4):
            part = {e: c for e, c in nonzero.items() if sum(e) == d}
            assert poly.homogeneous_component(d) == Polynomial(n, part)
        assert Polynomial.from_json(poly.to_json()) == poly


class TestJson:
    @settings(max_examples=40)
    @given(poly_strategy(3))
    def test_round_trip(self, p):
        assert Polynomial.from_json(p.to_json()) == p

    def test_coefficients_serialized_as_strings(self):
        p = P(1, {(2,): Fraction(-3, 2)})
        data = p.to_json()
        assert data["terms"][0]["coef"] == "-3/2"


class TestUnivariateHelpers:
    def test_uni_degree_trims_zeros(self):
        assert uni_degree([Fraction(1), Fraction(0), Fraction(0)]) == 0

    def test_uni_degree_of_empty_is_minus_inf_sentinel(self):
        assert uni_degree([]) == -1

    def test_uni_derivative(self):
        # 2 + 3x + 4x^2 -> 3 + 8x
        d = uni_derivative([Fraction(2), Fraction(3), Fraction(4)])
        assert d == [Fraction(3), Fraction(8)]

    def test_uni_eval_horner(self):
        p = [Fraction(2), Fraction(0), Fraction(1)]  # 2 + x^2
        assert uni_eval(p, Fraction(3)) == 11

    def test_uni_eval_accepts_algebraic_argument(self):
        t = AlgebraicElement.root(2, 2)
        p = [Fraction(-2), Fraction(0), Fraction(1)]  # x^2 - 2
        assert uni_eval(p, t).is_zero()

    def test_uni_degree_with_algebraic_zero_leading(self):
        t = AlgebraicElement.root(2, 2)
        zero = t - t
        assert uni_degree([Fraction(1), zero]) == 0


class TestKeyValidation:
    @pytest.mark.parametrize("key", [(1.5, 0), ("2", 0), (None, 0)])
    def test_non_integer_exponent_rejected(self, key):
        with pytest.raises(TypeError):
            Polynomial(2, {key: Fraction(1)})

    @pytest.mark.parametrize("exps", [[1.5, 0], ["2", 0], [None, 0], [True, False], [1, False], [0.0, 1]])
    def test_json_exponents_must_be_integers(self, exps):
        with pytest.raises(TypeError):
            Polynomial.from_json({"n": 2, "terms": [{"exps": exps, "coef": "1"}]})

    def test_json_n_must_be_an_integer(self):
        with pytest.raises(TypeError):
            Polynomial.from_json({"n": "2", "terms": []})

    @given(
        st.lists(
            st.integers(min_value=-2, max_value=3)
            | st.sampled_from([0, 0, 0, 10 ** 40, 0.0, 1.5, "2", None, True, False]),
            max_size=8,
        ),
        st.integers(min_value=0, max_value=8),
    )
    def test_key_agrees_with_operator_index(self, exps, n):
        """The reference: map every exponent through operator.index, refuse a
        boolean, a miscounted list or a negative entry, and pair the nonzero
        positions with their values."""
        try:
            dense = [operator.index(e) for e in exps]
            if any(isinstance(e, bool) for e in exps) or len(dense) != n or min(dense, default=0) < 0:
                raise ValueError
            expected = tuple((i, e) for i, e in enumerate(dense) if e)
        except (TypeError, ValueError):
            with pytest.raises((TypeError, ValueError)):
                _checked_key(exps, n)
        else:
            assert _checked_key(exps, n) == _checked_key(tuple(exps), n) == expected
