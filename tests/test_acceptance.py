"""Acceptance suite: nine end-to-end criteria, one pass line each.

Each criterion is a single test that exercises one headline guarantee of
the library with exact arithmetic, asserts the expected outcome, checks
its own wall-clock budget, and prints a PASS line. Run with ``-s`` (or
read captured stdout) to see the per-criterion lines.
"""

import itertools
import random
import time
from fractions import Fraction as F

from polycert.bounds import delta_bound, lipschitz_constant
from polycert.certify import check_certificate, grid_certificate
from polycert.gadgets import gadget_badboy, gadget_khachiyan, gadget_socp, h_polynomial
from polycert.polyalg import Polynomial
from polycert.ratcore import AlgebraicElement, encoding_size, encoding_size_vec
from polycert.rays import (
    TO_MINUS_INFINITY,
    TO_PLUS_INFINITY,
    classify_ray,
    quartic_counterexample,
)
from polycert.reductions import (
    CnfFormula,
    Y1_HI,
    Y1_LO,
    Y2_HI,
    Y2_LO,
    assignment_vector,
    brute_force_sat,
    build_np_hard_system,
    build_unbounded_instance,
    parse_dimacs,
    witness_always,
    witness_satisfiable,
)
from polycert.separable import SeparableCubic, solve_separable
from polycert.systems import LE0, PolySystem, verify
from polycert.systems import verify_alg

TWO_CLAUSE = "p cnf 3 2\n1 -2 3 0\n-1 2 3 0\n"


def report_pass(num: int, started: float, budget: float, detail: str) -> None:
    elapsed = time.monotonic() - started
    assert elapsed < budget, f"criterion {num} overran its {budget}s budget: {elapsed:.2f}s"
    print(f"criterion {num}: PASS ({elapsed:.2f}s) {detail}")


def random_cnf(rng: random.Random, n: int, m: int) -> CnfFormula:
    clauses = []
    for _ in range(m):
        vs = rng.sample(range(1, n + 1), 3)
        clauses.append(tuple(v if rng.random() < 0.5 else -v for v in vs))
    return CnfFormula(n, tuple(clauses))


def box_system(bounds) -> PolySystem:
    n = len(bounds)
    rows = []
    for i, (lo, hi) in enumerate(bounds):
        rows.append((lo - Polynomial.variable(n, i), LE0))
        rows.append((Polynomial.variable(n, i) - hi, LE0))
    return PolySystem(n, rows)


def test_criterion_1_algebraic_landmarks():
    """Cube root and square root landmarks have zero residual."""
    started = time.monotonic()
    t = AlgebraicElement.root(3, 2)

    # the coupling polynomial vanishes exactly at (t, t^2)
    h = h_polynomial()
    assert h.eval_alg([t, t * t]).is_zero()

    # the irrational recession direction has leading ray coefficient t
    cnf = parse_dimacs(TWO_CLAUSE)
    system, objective = build_unbounded_instance(cnf)
    d_tilde = [F(1)] * 3 + [F(-1)] * 3 + [t, t * t, F(1), F(2), F(0)]
    assert verify_alg(system, d_tilde).feasible
    rc = classify_ray(objective, [F(0)] * 11, d_tilde)
    assert rc.growth_order == 2
    assert rc.direction == TO_PLUS_INFINITY
    assert (rc.leading - t).is_zero()

    # second-order cone corner at sqrt(5) is exactly feasible
    bundle = gadget_socp(1, 2, 2, 3)
    corner = next(lm for lm in bundle.landmarks if lm.name == "corner")
    x0 = corner.point[0]
    assert isinstance(x0, AlgebraicElement)
    assert (x0 * x0 - 5).is_zero()
    assert bundle.check(corner).feasible

    report_pass(1, started, 1.0, "h(y*)=0, ray leading 2^(1/3), socp corner sqrt(5)")


def test_criterion_2_reduction_matches_sat_oracle():
    """Feasibility of the encoded system tracks satisfiability exactly."""
    started = time.monotonic()
    rng = random.Random(20817)
    sat_count = 0
    for i in range(200):
        if i % 2:
            n, m = 3, rng.randint(10, 15)  # clause-heavy, often unsatisfiable
        else:
            n, m = rng.randint(3, 8), rng.randint(1, 15)
        cnf = random_cnf(rng, n, m)
        model = brute_force_sat(cnf)
        system = build_np_hard_system(cnf)
        found = False
        for bits in itertools.product((False, True), repeat=n):
            if verify(system, assignment_vector(cnf, bits)).feasible:
                found = True
                break
        assert found == (model is not None)
        if model is not None:
            sat_count += 1
            w = witness_satisfiable(cnf, model)
            assert verify(system, w).feasible
            assert encoding_size_vec(w) <= 4 * n + 128
    assert sat_count >= 150  # the mix must exercise the feasible branch
    assert sat_count <= 195  # and the infeasible branch more than once
    report_pass(2, started, 60.0, f"200 instances, {sat_count} satisfiable, all agree")


def test_criterion_3_always_feasible_witness():
    """The unconditional witness verifies with a doubly small slack value."""
    started = time.monotonic()
    rng = random.Random(31)
    for n in (3, 4, 5, 6):
        for _ in range(20):
            cnf = random_cnf(rng, n, rng.randint(1, 10))
            system = build_np_hard_system(cnf)
            w = witness_always(cnf)
            assert verify(system, w).feasible
            s = w[3 * n + 4]
            assert s == F(1, 2 ** (2**n))
            assert encoding_size(s) >= 2**n
    report_pass(3, started, 10.0, "80 witnesses, s = 2^(-2^n) with >= 2^n bits")


def test_criterion_4_lipschitz_bound_is_exact():
    """The closed-form constant dominates every sampled difference quotient."""
    started = time.monotonic()
    rng = random.Random(4451)
    for _ in range(10_000):
        n = rng.randint(1, 3)
        d = rng.randint(1, 4)
        H = rng.randint(1, 10)
        M = rng.randint(1, 4)
        terms = {}
        for _ in range(rng.randint(1, 6)):
            while True:
                e = tuple(rng.randint(0, d) for _ in range(n))
                if sum(e) <= d:
                    break
            c = rng.randint(-H, H)
            if c:
                terms[e] = F(c)
        if not terms:
            terms[(0,) * n] = F(H)
        g = Polynomial(n, terms)
        L = lipschitz_constant(n, d, H, M)
        y = [F(rng.randint(-4 * M, 4 * M), 4) for _ in range(n)]
        z = [F(rng.randint(-4 * M, 4 * M), 4) for _ in range(n)]
        gap = max(abs(a - b) for a, b in zip(y, z))
        assert abs(g.eval(y) - g.eval(z)) <= L * gap
    report_pass(4, started, 30.0, "10000 triples, zero violations")


def test_criterion_5_certificate_chain():
    """Planted instances yield certificates satisfying the full drift chain."""
    started = time.monotonic()
    rng = random.Random(557)
    delta = 10**6
    big_m = F(4)
    for _ in range(50):
        n = rng.randint(1, 3)
        lo = [F(rng.randint(-16, 8), 8) for _ in range(n)]
        hi = [l + F(rng.randint(4, 16), 8) for l in lo]
        x_tilde = [l + (h - l) * F(rng.randint(1, 7), 8) for l, h in zip(lo, hi)]
        P = box_system(list(zip(lo, hi)))
        g_list = []
        for _ in range(rng.randint(1, 3)):
            terms = {}
            for _ in range(4):
                e = tuple(rng.randint(0, 2) for _ in range(n))
                if sum(e) <= 2:
                    terms[e] = F(rng.randint(-3, 3))
            q = Polynomial(n, terms)
            g_list.append(q - q.eval(x_tilde) - F(1, 2))
        ell = len(g_list)

        # tagged, so that a g of degree <= 1 is relaxed too, not put in P
        full = PolySystem(
            n,
            [(c.poly, c.rel) for c in P.constraints] + [(g, LE0, "nonlinear") for g in g_list],
        )
        cert = grid_certificate(full, delta, x_tilde, M=big_m)
        assert check_certificate(full, delta, cert.point).feasible
        assert max(abs(a - b) for a, b in zip(cert.point, x_tilde)) <= big_m / cert.phi
        for g in g_list:
            assert abs(g.eval(cert.point) - g.eval(x_tilde)) <= F(1, ell * delta)
        envelope = n * (2 * cert.phi.bit_length() + 11) + 8
        assert cert.size_bits <= envelope
    report_pass(5, started, 60.0, "50 planted instances, chain and size envelope hold")


def test_criterion_6_separable_solver_vs_grid_oracle():
    """Solver verdicts match a dyadic grid oracle on decidable instances."""
    started = time.monotonic()
    rng = random.Random(6103)
    margin = F(1, 256)

    def grid_min_1d(a, b, c, d, lo, hi, k):
        # bracket the min of a cubic on [lo, hi]: (lower bound, grid value)
        q = lambda x: ((a * x + b) * x + c) * x + d
        width = hi - lo
        if width == 0:
            v = q(lo)
            return v, v
        radius = max(abs(lo), abs(hi))
        lip = 3 * abs(a) * radius * radius + 2 * abs(b) * radius + abs(c)
        step = width / 2**k
        best = min(q(lo + step * i) for i in range(2**k + 1))
        return best - lip * step, best

    accepted = 0
    attempts = 0
    feasible_count = 0
    while accepted < 100:
        attempts += 1
        assert attempts <= 1000, "oracle rejected too many candidates"
        n = rng.choice((1, 2))
        coeffs = []
        for _ in range(n):
            a = rng.choice((1, -1)) * rng.randint(1, 10)
            coeffs.append(
                (a, rng.randint(-10, 10), rng.randint(-10, 10), rng.randint(-10, 10))
            )
        bounds = []
        for _ in range(n):
            low = F(rng.randint(-8, 6), 2)
            bounds.append((low, low + F(rng.randint(1, 8), 2)))
        k = 12 if n == 1 else 9
        lo_sum = F(0)
        up_sum = F(0)
        for (a, b, c, d), (lo, hi) in zip(coeffs, bounds):
            lb, ub = grid_min_1d(F(a), F(b), F(c), F(d), lo, hi, k)
            lo_sum += lb
            up_sum += ub
        if not (up_sum <= -margin or lo_sum >= margin):
            continue  # min too close to zero for the oracle to decide
        accepted += 1
        sc = SeparableCubic(tuple(tuple(F(v) for v in row) for row in coeffs))
        box = box_system(bounds)
        res = solve_separable(sc, box)
        assert res.feasible == (up_sum <= -margin)
        if res.feasible:
            feasible_count += 1
            assert verify(box, res.point).feasible
            assert sc.polynomial().eval(res.point) <= 0
    assert 0 < feasible_count < 100  # both verdicts must occur
    report_pass(
        6, started, 120.0, f"100 decided instances ({feasible_count} feasible) agree"
    )


def test_criterion_7_ray_classification():
    """Rational recession directions plunge; the algebraic one climbs."""
    started = time.monotonic()
    cnf = parse_dimacs(TWO_CLAUSE)
    system, objective = build_unbounded_instance(cnf)
    base = [F(0)] * 11

    for i in range(21):
        for j in range(21):
            a = Y1_LO + (Y1_HI - Y1_LO) * F(i, 20)
            b = Y2_LO + (Y2_HI - Y2_LO) * F(j, 20)
            v = [F(1)] * 3 + [F(-1)] * 3 + [a, b, F(1), F(2), F(0)]
            assert verify(system, v).feasible  # direction lies in the cone
            rc = classify_ray(objective, base, v)
            assert rc.growth_order == 3
            assert rc.direction == TO_MINUS_INFINITY
            assert rc.leading < 0

    t = AlgebraicElement.root(3, 2)
    d_tilde = [F(1)] * 3 + [F(-1)] * 3 + [t, t * t, F(1), F(2), F(0)]
    rc = classify_ray(objective, base, d_tilde)
    assert rc.growth_order == 2
    assert rc.direction == TO_PLUS_INFINITY
    assert (rc.leading - t).is_zero()

    f = quartic_counterexample()
    for k in range(1, 11):
        assert f.eval([F(k), F(k * k)]) == F(k * k)
    rng = random.Random(7919)
    for _ in range(1000):
        x0 = [F(rng.randint(-12, 12), 4) for _ in range(2)]
        v = [F(rng.randint(-12, 12), 4) for _ in range(2)]
        if all(c == 0 for c in v):
            v[rng.randrange(2)] = F(1)
        assert classify_ray(f, x0, v).direction != TO_PLUS_INFINITY
    report_pass(7, started, 20.0, "441 grid rays down, d~ up at order 2, quartic never up")


def test_criterion_8_gadget_magnitudes():
    """Doubly exponential chain values and the square root objective."""
    started = time.monotonic()
    for n in range(1, 7):
        bundle = gadget_khachiyan(n)
        chain = next(lm for lm in bundle.landmarks if lm.name == "min_chain")
        assert chain.point[-1] == 2 ** (2 ** (n - 1))
        assert bundle.check(chain).feasible

    bundle = gadget_badboy(4)
    near = next(lm for lm in bundle.landmarks if lm.name == "near_feasible")
    verdict = bundle.check(near)
    assert not verdict.feasible
    assert (verdict.worst_violation - F(1, 2**16)).is_zero()
    val = near.point[1]
    assert isinstance(val, AlgebraicElement)
    assert val.e == 2 and val.k == 2
    assert (val * val - 2).is_zero()
    report_pass(8, started, 5.0, "chain tops 2^(2^(n-1)), badboy gap 2^-16, obj sqrt(2)")


def test_criterion_9_delta_formula():
    """Hand-derived value and monotonicity in the row count."""
    started = time.monotonic()
    assert delta_bound(2, 1, 2, 2) == 2 * 192**32
    for n in (2, 3, 4):
        for H in (2, 3, 4):
            vals = [delta_bound(n, m, 2, H) for m in (1, 2, 3, 4)]
            assert all(x < y for x, y in zip(vals, vals[1:]))
    report_pass(9, started, 1.0, "delta(2,1,2,2) = 2*192^32, increasing in m")
