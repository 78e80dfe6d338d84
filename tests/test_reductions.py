"""Hardness-instance generators and their exact witnesses."""

import itertools
import random
from fractions import Fraction

import pytest

from polycert.ratcore import AlgebraicElement, PRECISION_CAP_ENV, PrecisionCapError, encoding_size, encoding_size_vec
from polycert.systems import EQ0, verify, verify_alg
from polycert.reductions import (
    VARIANTS,
    CnfFormula,
    Y_BAR,
    assignment_vector,
    brute_force_sat,
    build_cubic_system,
    build_np_hard_system,
    build_superopt_problem,
    build_unbounded_instance,
    cubic_algebraic_witness,
    extract_assignment,
    find_y_hat,
    parse_dimacs,
    unbounded_ray_witness,
    witness_always,
    witness_epsilon,
    witness_satisfiable,
)

F = Fraction

TWO_CLAUSE = "p cnf 3 2\n1 -2 3 0\n-1 2 3 0\n"

UNSAT_8 = "p cnf 3 8\n" + "\n".join(
    f"{'-' if a else ''}1 {'-' if b else ''}2 {'-' if c else ''}3 0"
    for a in (0, 1) for b in (0, 1) for c in (0, 1)
)


def random_cnf(rng, n, m):
    clauses = []
    for _ in range(m):
        vs = rng.sample(range(1, n + 1), 3)
        clauses.append(tuple(v if rng.random() < 0.5 else -v for v in vs))
    return CnfFormula(n, tuple(clauses))


def exhaustive_sat(cnf):
    for bits in itertools.product((False, True), repeat=cnf.num_vars):
        if cnf.satisfied_by(bits):
            return bits
    return None


class TestDimacs:
    def test_parses_and_counts(self):
        cnf = parse_dimacs(TWO_CLAUSE)
        assert cnf.num_vars == 3
        assert cnf.clauses == ((1, -2, 3), (-1, 2, 3))

    def test_skips_comments_and_percent(self):
        text = "c a comment\np cnf 2 1\nc mid\n1 2 -1 0\n%\n0\n"
        cnf = parse_dimacs(text)
        assert cnf.clauses == ((1, 2, -1),)

    def test_rejects_wrong_arity(self):
        with pytest.raises(ValueError):
            parse_dimacs("p cnf 2 1\n1 2 0\n")

    def test_rejects_out_of_range_literal(self):
        with pytest.raises(ValueError):
            parse_dimacs("p cnf 2 1\n1 2 5 0\n")

    def test_satisfied_by(self):
        cnf = parse_dimacs(TWO_CLAUSE)
        assert cnf.satisfied_by((False, False, True))
        assert cnf.satisfied_by((True, True, False))


class TestBruteForce:
    def test_unsat_detected(self):
        assert brute_force_sat(parse_dimacs(UNSAT_8)) is None

    def test_zero_clauses_gives_all_false(self):
        assert brute_force_sat(CnfFormula(3, ())) == (False, False, False)

    def test_matches_exhaustive_lex_first(self):
        rng = random.Random(11)
        for _ in range(40):
            cnf = random_cnf(rng, rng.randint(3, 6), rng.randint(2, 12))
            assert brute_force_sat(cnf) == exhaustive_sat(cnf)

    def test_too_many_variables_rejected(self):
        with pytest.raises(ValueError):
            brute_force_sat(CnfFormula(26, ()))


class TestSystemShape:
    def test_row_layout(self):
        """Fixed order: box pairs, pairing, clauses, gamma/Delta, y-box, chain, coupling."""
        S = build_np_hard_system(parse_dimacs(TWO_CLAUSE))
        assert S.num_vars == 14 and len(S.constraints) == 34
        assert [c.rel for c in S.constraints[12:15]] == [EQ0] * 3  # pairing
        assert S.constraints[33].poly.degree() == 3  # coupling row
        assert all(c.poly.degree() == 1 for c in S.constraints[:25])
        assert [c.poly.degree() for c in S.constraints[25:33]] == [1, 1, 1, 2, 1, 2, 1, 2]

    def test_quadratized_shape(self):
        S = build_np_hard_system(parse_dimacs(TWO_CLAUSE), quadratize=True)
        assert S.num_vars == 16 and len(S.constraints) == 36
        assert S.constraints[34].rel == EQ0 and S.constraints[35].poly.degree() == 2
        assert S.max_degree == 2

    def test_variable_names(self):
        S = build_np_hard_system(parse_dimacs(TWO_CLAUSE))
        assert S.var_names[:2] == ("x1", "x2")
        assert S.var_names[6:10] == ("gamma", "Delta", "y1", "y2")
        assert S.var_names[-1] == "s"

    def test_cubic_variant_shape(self):
        S = build_cubic_system(parse_dimacs(TWO_CLAUSE))
        assert S.num_vars == 10 and len(S.constraints) == 26
        assert S.constraints[25].poly.degree() == 3

    def test_small_n_warns(self):
        with pytest.warns(UserWarning):
            build_np_hard_system(parse_dimacs("p cnf 2 1\n1 2 -1 0\n"))

    def test_small_n_superopt_warns_once(self):
        with pytest.warns(UserWarning) as record:
            build_superopt_problem(parse_dimacs("p cnf 2 1\n1 2 -1 0\n"))
        assert len(record) == 1


class TestSatWitness:
    def test_verifies_feasible(self):
        cnf = parse_dimacs(TWO_CLAUSE)
        S = build_np_hard_system(cnf)
        w = witness_satisfiable(cnf, (True, False, True))
        assert verify(S, w).feasible

    def test_rejects_unsatisfying_assignment(self):
        cnf = parse_dimacs("p cnf 3 1\n1 1 1 0\n")
        with pytest.raises(ValueError):
            witness_satisfiable(cnf, (False, True, True))

    def test_assignment_vector_tracks_satisfaction(self):
        """The canonical vector is built for any assignment but is feasible
        only when the assignment satisfies every clause."""
        cnf = parse_dimacs(TWO_CLAUSE)
        S = build_np_hard_system(cnf)
        assert verify(S, assignment_vector(cnf, (True, False, True))).feasible
        v = verify(S, assignment_vector(cnf, (True, False, False)))
        assert not v.feasible
        assert 16 in v.violated  # second clause row

    def test_h_at_ybar_below_minus_seven(self):
        y1, y2 = Y_BAR
        h = 2 * y1 ** 3 + y2 ** 3 - 6 * y1 * y2 + 4
        assert h == F(-109849977, 15625000)
        assert h < -7

    def test_size_linear_in_n(self):
        rng = random.Random(5)
        for n in (3, 5, 8):
            cnf = random_cnf(rng, n, 4)
            a = exhaustive_sat(cnf)
            if a is None:
                continue
            w = witness_satisfiable(cnf, a)
            assert encoding_size_vec(w) <= 4 * n + 128

    def test_quadratize_equivalence_both_directions(self):
        cnf = parse_dimacs(TWO_CLAUSE)
        S = build_np_hard_system(cnf)
        Q = build_np_hard_system(cnf, quadratize=True)
        w = witness_satisfiable(cnf, (False, False, True))
        y1, y2 = w[8], w[9]
        extended = list(w) + [y1 * y1, y2 * y2]
        assert verify(Q, extended).feasible
        assert verify(S, extended[:14]).feasible  # projection back


class TestAlwaysWitness:
    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_feasible_with_doubly_exponential_tail(self, n):
        rng = random.Random(n)
        cnf = random_cnf(rng, n, 5)
        S = build_np_hard_system(cnf)
        w = witness_always(cnf)
        assert verify(S, w).feasible
        s = w[-1]
        assert s == F(1, 2 ** (2 ** n))
        assert encoding_size(s) >= 2 ** n

    def test_chain_is_exactly_tight(self):
        cnf = parse_dimacs(TWO_CLAUSE)
        w = witness_always(cnf)
        d = w[10:13]
        assert d[0] == F(1, 2)
        for k in range(2):
            assert d[k] ** 2 == d[k + 1]
        assert d[-1] ** 2 == w[-1]

    def test_unsatisfiable_formula_still_feasible(self):
        cnf = parse_dimacs(UNSAT_8)
        assert verify(build_np_hard_system(cnf), witness_always(cnf)).feasible


class TestFindYHat:
    def test_coarse_bound(self):
        y1, y2 = find_y_hat(F(1))
        assert F(1259, 1000) <= y1 <= F(1260, 1000)
        assert F(1587, 1000) <= y2 <= F(1590, 1000)
        assert 65536 % y1.denominator == 0 and 65536 % y2.denominator == 0
        h = 2 * y1 ** 3 + y2 ** 3 - 6 * y1 * y2 + 4
        assert 0 < h <= 1

    def test_tight_bound_exact(self):
        bound = F(1, 2 ** 8)
        y1, y2 = find_y_hat(bound)
        h = 2 * y1 ** 3 + y2 ** 3 - 6 * y1 * y2 + 4
        assert h <= bound

    def test_rejects_nonpositive_bound(self):
        with pytest.raises(ValueError):
            find_y_hat(F(0))

    def test_precision_cap(self, monkeypatch):
        monkeypatch.setenv(PRECISION_CAP_ENV, "16")
        with pytest.raises(PrecisionCapError):
            find_y_hat(F(1, 2 ** 200))

    def test_no_step_past_a_cap_between_powers_of_two(self, monkeypatch):
        """k = 8 misses the box and k = 16 would pass, but 16 exceeds a cap of 12."""
        monkeypatch.setenv(PRECISION_CAP_ENV, "12")
        with pytest.raises(PrecisionCapError):
            find_y_hat(F(1))


class TestEpsilonWitness:
    def test_violation_confined_to_coupling_row(self):
        cnf = parse_dimacs(TWO_CLAUSE)
        S, objective = build_superopt_problem(cnf)
        w = witness_epsilon(cnf, F(1, 100))
        v = verify(S, w)
        assert not v.feasible
        assert v.violated == (33,)
        assert v.worst_violation == F(211695, 2 ** 48)
        assert v.worst_violation <= F(1, 100)

    def test_z_exactly_feasible_objective_two(self):
        cnf = parse_dimacs(TWO_CLAUSE)
        S, objective = build_superopt_problem(cnf)
        w = witness_epsilon(cnf, F(1, 2))
        v = verify(S, w)
        assert v.violated == (33,)
        assert objective.eval(w) == 2
        assert w[-2:] == [F(0), F(2)]
        assert w[13] == 0  # s

    def test_epsilon_domain(self):
        cnf = parse_dimacs(TWO_CLAUSE)
        with pytest.raises(ValueError):
            witness_epsilon(cnf, F(2))
        with pytest.raises(ValueError):
            witness_epsilon(cnf, F(0))


class TestCubicVariantWitness:
    def test_algebraic_point_exactly_feasible(self):
        cnf = parse_dimacs(TWO_CLAUSE)
        S = build_cubic_system(cnf)
        w = cubic_algebraic_witness(cnf)
        v = verify_alg(S, w)
        assert v.feasible
        r = v.residuals[25]
        assert isinstance(r, AlgebraicElement) and r.is_zero()

    def test_no_rational_point_with_gamma_zero_on_grid(self):
        """Rational grid points near the cubic minimizer all violate the
        degree-3 row when gamma = 0 and x is a sign vector."""
        cnf = parse_dimacs(TWO_CLAUSE)
        S = build_cubic_system(cnf)
        base = cubic_algebraic_witness(cnf)
        for dy1 in range(3):
            for dy2 in range(4):
                y = [F(1259, 1000) + F(dy1, 2000), F(1587, 1000) + F(dy2, 1000)]
                w = list(base[:8]) + y
                assert not verify(S, w).feasible


class TestUnboundedCone:
    def test_all_rows_homogeneous_linear(self):
        cnf = parse_dimacs(TWO_CLAUSE)
        K, pi = build_unbounded_instance(cnf)
        assert K.num_vars == 11 and len(K.constraints) == 26
        for c in K.constraints:
            assert c.poly.degree() == 1
            assert c.poly.constant_term() == 0

    def test_closed_under_positive_scaling(self):
        cnf = parse_dimacs(TWO_CLAUSE)
        K, _ = build_unbounded_instance(cnf)
        w = unbounded_ray_witness(cnf, (False, False, True))
        assert verify(K, w).feasible
        for lam in (F(7), F(1, 3)):
            assert verify(K, [lam * c for c in w]).feasible

    def test_objective_terms(self):
        cnf = parse_dimacs(TWO_CLAUSE)
        _, pi = build_unbounded_instance(cnf)
        assert pi.coefficient((0,) * 8 + (3, 0, 0)) == -733  # -n^6 - 4 at n=3
        assert pi.coefficient((2,) + (0,) * 7 + (1, 0, 0)) == 243  # n^5 x_j^2 y_3

    def test_satisfying_ray_grows_cubically(self):
        cnf = parse_dimacs(TWO_CLAUSE)
        K, pi = build_unbounded_instance(cnf)
        w = unbounded_ray_witness(cnf, (True, False, True))
        rest = pi.restrict_to_ray([F(0)] * 11, w)
        assert rest == [F(0), F(0), F(-137, 50), F(109849977, 15625000)]

    def test_algebraic_ray_loses_cubic_term(self):
        cnf = parse_dimacs(TWO_CLAUSE)
        K, pi = build_unbounded_instance(cnf)
        t = AlgebraicElement.root(3, 2)
        ray = [F(1)] * 3 + [F(-1)] * 3 + [t, t * t, F(1), F(2), F(0)]
        assert verify_alg(K, ray).feasible
        rest = pi.restrict_to_ray_alg([F(0)] * 11, ray)
        assert len(rest) == 3  # cubic coefficient cancels exactly
        lead = rest[2]
        assert isinstance(lead, AlgebraicElement)
        assert (lead - t).is_zero()  # leading growth rate is 2^(1/3)

    def test_rejects_unsatisfying_assignment(self):
        cnf = parse_dimacs("p cnf 3 1\n1 1 1 0\n")
        with pytest.raises(ValueError):
            unbounded_ray_witness(cnf, (False, True, False))


class TestExtractAssignment:
    def test_round_trip(self):
        cnf = parse_dimacs(TWO_CLAUSE)
        a = (True, False, True)
        assert extract_assignment(witness_satisfiable(cnf, a)) == a

    def test_zero_maps_to_false(self):
        assert extract_assignment([F(0)] * 14) == (False, False, False)

    def test_negative_half_is_false(self):
        point = [F(-1, 2)] + [F(1)] * 13
        assert extract_assignment(point) == (False, True, True)

    def test_explicit_n(self):
        assert extract_assignment([F(1), F(-1), F(0), F(5)], n=2) == (True, False)

    def test_ambiguous_length_needs_n(self):
        with pytest.raises(ValueError):
            extract_assignment([F(1)] * 7)


class TestVariants:
    """Every witness mode of every CLI variant gives a point of its layout."""

    @pytest.mark.parametrize(
        "variant, mode",
        [(v, m) for v, table in VARIANTS.items() for m in table if m != "build"],
    )
    def test_witness_fits_the_built_system(self, variant, mode):
        cnf = parse_dimacs(TWO_CLAUSE)
        system, _ = VARIANTS[variant]["build"](cnf)
        args = {"sat": (brute_force_sat(cnf),), "eps": (F(1, 100),), "always": ()}[mode]
        v = verify(system, VARIANTS[variant][mode](cnf, *args))
        assert v.feasible or (mode == "eps" and v.worst_violation <= F(1, 100))
