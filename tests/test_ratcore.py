"""Exact rational and algebraic scalar layer."""

import decimal
import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from polycert import ratcore
from polycert.ratcore import (
    MAX_PARSED_BITS,
    AlgebraicElement,
    PRECISION_CAP_ENV,
    PrecisionCapError,
    SQUAREFREE_SPLIT_MAX,
    check_tower_bits,
    dyadic_floor,
    encoding_size,
    encoding_size_vec,
    field_of,
    format_int,
    format_rat,
    integer_nth_root,
    json_chunks,
    json_text,
    lift,
    parse_int,
    parse_rat,
    precision_cap,
    refine_dyadic,
    squarefree_split,
    theta_enclosure,
)

rats = st.fractions(
    min_value=Fraction(-50), max_value=Fraction(50), max_denominator=40
)


class TestRationalCodec:
    def test_parse_plain_integer(self):
        assert parse_rat("7") == Fraction(7)

    def test_parse_fraction_with_sign(self):
        assert parse_rat("-3/2") == Fraction(-3, 2)

    def test_parse_strips_whitespace(self):
        assert parse_rat("  5/8 ") == Fraction(5, 8)

    def test_format_uses_num_den(self):
        assert format_rat(Fraction(-3, 2)) == "-3/2"

    @given(rats)
    def test_round_trip(self, q):
        assert parse_rat(format_rat(q)) == q

    def test_garbage_rejected(self):
        with pytest.raises(ValueError):
            parse_rat("one half")

    def test_format_past_int_str_digit_limit(self):
        """str() refuses integers of more than 4300 digits by default."""
        assert format_int(10 ** 5000) == "1" + "0" * 5000
        assert format_rat(Fraction(-1, 10 ** 5000)) == "-1/1" + "0" * 5000
        assert parse_rat("-1/1" + "0" * 5000) == Fraction(-1, 10 ** 5000)

    def test_parse_caps_integers_at_max_parsed_bits(self):
        largest = 2 ** MAX_PARSED_BITS - 1
        assert parse_rat(f"3/{format_int(largest)}") == Fraction(3, largest)
        with pytest.raises(ValueError, match="bits"):
            parse_rat(format_int(largest + 1))
        with pytest.raises(ValueError, match="bits"):
            parse_rat("1/" + "1" * 10 ** 6)

    def test_max_parsed_digits_are_those_of_the_cap(self):
        assert ratcore._MAX_PARSED_DIGITS == len(format_int(1 << MAX_PARSED_BITS))

    def test_check_tower_bits_refuses_past_the_cap(self):
        check_tower_bits(17, "x")  # 2^17 + 1 bits
        for m in (18, 10 ** 12):
            with pytest.raises(ValueError, match=f"x needs integers of 2\\^{m} \\+ 1 bits"):
                check_tower_bits(m, "x")

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=1 << 12, max_value=MAX_PARSED_BITS), st.booleans(), st.randoms())
    def test_big_integer_round_trip(self, bits, negative, rng):
        """format_int agrees with Decimal's exact (quadratic) conversion, and
        parse_rat reads its text back, from 2^12 to 2^18 bits."""
        x = rng.getrandbits(bits) | (1 << (bits - 1))
        x = -x if negative else x
        text = format_int(x)
        assert text == str(decimal.Decimal(x))
        assert parse_rat(text) == x
        assert parse_rat(f"{text}/7") == Fraction(x, 7)

    def test_only_integer_literals_take_the_long_path(self):
        with pytest.raises(ValueError, match='expected "num/den"'):
            parse_rat("1." + "0" * 5000)


# Digit strings of 1 to about 8000 digits, leading zeros included: a short
# block repeated, so that forms past the 4300-digit int-to-str limit are cheap.
digit_strings = st.builds(
    lambda block, times: block * times,
    st.text(alphabet="0123456789", min_size=1, max_size=8),
    st.integers(min_value=1, max_value=1000),
)
blanks = st.sampled_from(["", " ", "  ", "\t", "\n", " \r\n "])
REFUSED = ["1e5", "0.5", "1_000", "\u0661", "1/-2", "", "  ", "-", "1/", "/2", "+-1", "1 /2", "0x10", "inf", "nan"]


def exact_int(sign: str, digits: str) -> int:
    """The value of a digit string by Decimal, which no digit limit covers."""
    return int(decimal.Decimal(sign + digits))


class TestLiteralGrammar:
    """parse_rat reads "[+-]digits" and "[+-]digits/digits" and nothing else;
    parse_int reads the first form only."""

    @settings(max_examples=200, deadline=None)
    @given(blanks, st.sampled_from(["", "+", "-"]), digit_strings, st.none() | digit_strings, blanks)
    @example("", "-", "000" + "7" * 5000, "9" * 4400, " ")
    @example("\t", "+", "1" * 4301, None, "")
    @example("", "", "00010000" * 538, "0", "")  # Fraction(num, 0) would print num's 4301 digits
    def test_documented_forms_read_exactly(self, before, sign, num, den, after):
        text = before + sign + num + ("" if den is None else "/" + den) + after
        want_num = exact_int(sign, num)
        if den is None:
            assert parse_rat(text) == want_num
            assert parse_int(text) == want_num
            return
        want_den = exact_int("", den)
        if want_den == 0:
            with pytest.raises(ZeroDivisionError):
                parse_rat(text)
        else:
            assert parse_rat(text) == Fraction(want_num, want_den)
        with pytest.raises(ValueError, match="not a fraction"):
            parse_int(text)

    @pytest.mark.parametrize("text", REFUSED)
    def test_other_forms_are_refused(self, text):
        with pytest.raises(ValueError, match='expected "num/den"'):
            parse_rat(text)
        with pytest.raises(ValueError, match="expected"):
            parse_int(text)

    def test_parse_int_refuses_a_fraction_even_when_whole(self):
        with pytest.raises(ValueError, match="not a fraction"):
            parse_int("10/2")

    def test_parse_int_shares_the_cap(self):
        largest = 2 ** MAX_PARSED_BITS - 1
        assert parse_int(format_int(-largest)) == -largest
        with pytest.raises(ValueError, match="bits"):
            parse_int(format_int(largest + 1))

    def test_exponent_literal_in_a_system_file_is_refused_in_a_subprocess(self, tmp_path):
        """A 10^7-digit coefficient written as an exponent is a malformed
        literal: verify exits 2 at once instead of building the integer."""
        row = {"poly": {"n": 1, "terms": [{"exps": [1], "coef": "-1e10000000"}]}, "rel": "LE0", "tag": "linear"}
        system = {"version": 1, "n": 1, "var_names": ["x1"], "constraints": [row]}
        (tmp_path / "s.json").write_text(json.dumps(system))
        (tmp_path / "p.json").write_text(json.dumps({"values": ["0/1"]}))
        src = Path(__file__).resolve().parent.parent / "src"
        env = {**os.environ, "PYTHONPATH": str(src)}
        proc = subprocess.run(
            [sys.executable, "-m", "polycert.cli", "verify", "--system", "s.json", "--point", "p.json"],
            cwd=tmp_path, env=env, capture_output=True, text=True, timeout=5,
        )
        assert proc.returncode == 2, proc.stderr
        assert proc.stdout == ""
        assert 'expected "num/den"' in proc.stderr


json_leaves = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=-(10 ** 400), max_value=10 ** 400)
    | st.text()  # non-ASCII, quotes, backslashes and control characters
    | st.sampled_from(['"', "\\", "\n\t\x00\x1f", "é€😀", ""])
)
json_trees = st.recursive(
    json_leaves,
    lambda kids: (
        st.lists(kids)
        | st.lists(kids).map(tuple)
        | st.lists(st.integers() | st.booleans())
        | st.lists(st.text())
        | st.dictionaries(st.text(), kids)
    ),
    max_leaves=40,
)


def compact(obj) -> str:
    return json.dumps(obj, separators=(",", ":"))


class TestJsonText:
    """json_text equals json.dumps(obj, indent=2), the report layout;
    json_chunks joined equals the compact layout every file is written in."""

    @given(json_trees)
    def test_equals_indented_json_dumps(self, obj):
        assert json_text(obj) == json.dumps(obj, indent=2)
        assert "".join(json_chunks(obj)) == compact(obj)

    @pytest.mark.parametrize("obj", [[], {}, (), [[]], {"a": {}}, [True, 1, False, 0], [1, True]])
    def test_empty_containers_and_mixed_int_bool_lists(self, obj):
        assert json_text(obj) == json.dumps(obj, indent=2)
        assert "".join(json_chunks(obj)) == compact(obj)

    @pytest.mark.parametrize(
        "obj",
        [
            [0],
            [0, 0, 0, 0],
            [7],
            [-3],
            [0, 0, 2, 0, 1],
            [4, 0, 0, 0],
            [0, 0, 5, 0, -3, 0, 0],
            [-1, -2, 0, -(10 ** 401)],
            [10 ** 400, 0, 0, 1],
            (0, 3, 0),
            [0, False, 0, 1],
            [True, 0, 0],
            [[0, 0, 1], [2, 0, 0], [0] * 9],
            {"exps": [0, 0, 1, 0], "coef": "1/1"},
        ],
    )
    def test_int_lists_written_by_zero_runs(self, obj):
        assert json_text(obj) == json.dumps(obj, indent=2)
        assert "".join(json_chunks(obj)) == compact(obj)

    @given(st.lists(st.sampled_from([0, 0, 0, 1, -1, 2, 10 ** 30]), min_size=1, max_size=40))
    def test_sparse_int_lists(self, items):
        assert json_text(items) == json.dumps(items, indent=2)
        assert "".join(json_chunks({"a": [items]})) == compact({"a": [items]})

    @pytest.mark.parametrize(
        "obj", [1.5, [1.5], {"a": {1, 2}}, {1: "int key"}, [object()], [{"a": {2: "int key"}}]]
    )
    def test_other_types_raise_type_error(self, obj):
        with pytest.raises(TypeError):
            json_text(obj)
        with pytest.raises(TypeError):
            "".join(json_chunks(obj))


class TestEncodingSize:
    """size(p/q) = 1 + ceil(log2(|p|+1)) + ceil(log2(q+1))."""

    def test_zero(self):
        assert encoding_size(Fraction(0)) == 2

    def test_one(self):
        assert encoding_size(Fraction(1)) == 3

    def test_minus_three_halves(self):
        assert encoding_size(Fraction(-3, 2)) == 5

    def test_tiny_dyadic(self):
        assert encoding_size(Fraction(1, 65536)) == 19

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_doubly_exponential_scale(self, n):
        s = Fraction(1, 2 ** (2 ** n))
        assert encoding_size(s) >= 2 ** n

    @given(rats)
    def test_sign_invariant(self, q):
        assert encoding_size(q) == encoding_size(-q)

    def test_vector_is_sum(self):
        xs = [Fraction(0), Fraction(1), Fraction(-3, 2)]
        assert encoding_size_vec(xs) == sum(encoding_size(x) for x in xs)


class TestRoots:
    @given(st.integers(min_value=0, max_value=10 ** 24), st.integers(min_value=2, max_value=5))
    def test_integer_nth_root_brackets(self, x, e):
        r = integer_nth_root(x, e)
        assert r ** e <= x < (r + 1) ** e

    def test_exact_cube(self):
        assert integer_nth_root(2 ** 30, 3) == 2 ** 10

    @given(st.integers(min_value=1, max_value=1 << 4000), st.integers(min_value=3, max_value=5), st.integers(-1, 1))
    def test_integer_nth_root_from_the_top_bits(self, r, e, offset):
        """A root of 256 bits or more starts from the root of the top bits."""
        x = max(r ** e + offset, 0)
        root = integer_nth_root(x, e)
        assert root ** e <= x < (root + 1) ** e

    def test_theta_enclosure_brackets_cube_root_of_two(self):
        lo, hi = theta_enclosure(3, 2, 40)
        assert lo ** 3 <= 2 <= hi ** 3
        assert hi - lo == Fraction(1, 2 ** 40)


def trial_division_split(m: int) -> tuple[int, int]:
    """The former squarefree_split: trial division up to the square root."""
    outer, inner = 1, 1
    p = 2
    mm = m
    while p * p <= mm:
        if mm % p == 0:
            e = 0
            while mm % p == 0:
                mm //= p
                e += 1
            outer *= p ** (e // 2)
            inner *= p ** (e % 2)
        p += 1 if p == 2 else 2
    return outer, inner * mm


class TestSquarefreeSplit:
    @pytest.mark.parametrize(
        "m,outer,inner", [(1, 1, 1), (2, 1, 2), (8, 2, 2), (12, 2, 3), (72, 6, 2), (49, 7, 1)]
    )
    def test_known_splits(self, m, outer, inner):
        assert squarefree_split(m) == (outer, inner)

    @given(st.integers(min_value=1, max_value=100000))
    def test_reconstruction_and_squarefree(self, m):
        outer, inner = squarefree_split(m)
        assert outer * outer * inner == m
        for p in range(2, 200):
            if p * p > inner:
                break
            assert inner % (p * p) != 0

    def test_agrees_with_trial_division_to_the_square_root(self):
        for m in range(1, 10 ** 5 + 1):
            assert squarefree_split(m) == trial_division_split(m), m

    @given(
        st.integers(min_value=1, max_value=10 ** 4),
        st.integers(min_value=1, max_value=10 ** 4),
        st.integers(min_value=1, max_value=100),
    )
    def test_agrees_with_trial_division_on_squares_of_large_factors(self, a, b, c):
        """a^2 * b * c: a cofactor above the cube root is often a square."""
        m = a * a * b * c
        assert squarefree_split(m) == trial_division_split(m)

    @pytest.mark.parametrize(
        "m, split",
        [
            (1000003 ** 2, (1000003, 1)),  # a prime square above the cube root
            (1000003 * 1000033, (1, 1000003 * 1000033)),
            (12 * 1000003 ** 2, (2 * 1000003, 3)),
            (2 ** 60, (2 ** 30, 1)),
            (2 ** 60 - 93, None),  # no factor below its cube root 2^20
        ],
    )
    def test_large_factors_up_to_the_bound(self, m, split):
        outer, inner = squarefree_split(m)
        assert outer * outer * inner == m
        if split is not None:
            assert (outer, inner) == split

    def test_refuses_past_2_to_the_60(self):
        assert squarefree_split(SQUAREFREE_SPLIT_MAX) == (2 ** 30, 1)
        with pytest.raises(ValueError, match="2\\^60"):
            squarefree_split(SQUAREFREE_SPLIT_MAX + 1)


class TestAlgebraicElement:
    def test_cube_root_cubes_to_two(self):
        t = AlgebraicElement.root(3, 2)
        assert (t ** 3).to_rational() == 2

    def test_product_of_powers(self):
        t = AlgebraicElement.root(3, 2)
        assert (t * (t * t)).to_rational() == 2

    def test_sqrt_two_squares(self):
        r = AlgebraicElement.root(2, 2)
        assert (r * r).to_rational() == 2

    def test_inverse(self):
        t = AlgebraicElement.root(3, 2)
        x = 1 + t
        assert (x * x.inverse()).to_rational() == 1

    def test_division(self):
        t = AlgebraicElement.root(3, 2)
        assert ((t / t).to_rational()) == 1

    def test_right_operand_coercion(self):
        t = AlgebraicElement.root(3, 2)
        assert (Fraction(1) + t) - t == AlgebraicElement.from_rational(3, 2, 1)
        assert (2 * t).coeffs[1] == 2
        assert ((1 - t) + t).to_rational() == 1
        q = 1 / (1 + t)
        assert (q * (1 + t)).to_rational() == 1

    def test_sign_brackets_cube_root(self):
        t = AlgebraicElement.root(3, 2)
        assert (t - Fraction(1259, 1000)).sign() > 0
        assert (t - Fraction(1260, 1000)).sign() < 0
        assert (t - t).sign() == 0

    def test_norm(self):
        t = AlgebraicElement.root(3, 2)
        assert t.norm() == 2 and (1 + t).norm() == 3
        assert AlgebraicElement(2, 2, (Fraction(3), Fraction(2))).norm() == 1
        assert AlgebraicElement.from_rational(2, 5, Fraction(-1, 2)).norm() == Fraction(1, 4)

    def test_comparisons(self):
        t = AlgebraicElement.root(3, 2)
        assert t > 1 and t < 2
        assert t <= t and t >= t

    def test_floor_scaled(self):
        t = AlgebraicElement.root(3, 2)
        # 8 * 2^(1/3) = 10.079...
        assert t.floor_scaled(3) == 10

    def test_floor_scaled_rational_branch(self):
        half = AlgebraicElement.from_rational(2, 2, Fraction(1, 2))
        assert half.floor_scaled(4) == 8

    def test_mixed_fields_rejected(self):
        with pytest.raises(ValueError):
            AlgebraicElement.root(2, 2) + AlgebraicElement.root(2, 3)

    def test_bad_degree_rejected(self):
        with pytest.raises(ValueError):
            AlgebraicElement(4, 2, (Fraction(0),))

    def test_perfect_power_radicand_rejected(self):
        with pytest.raises(ValueError):
            AlgebraicElement.root(2, 4)
        with pytest.raises(ValueError):
            AlgebraicElement.root(3, 8)

    def test_small_radicand_rejected(self):
        with pytest.raises(ValueError):
            AlgebraicElement.root(2, 1)

    def test_dyadic_floor_of_rational_and_algebraic(self):
        assert dyadic_floor(Fraction(-1, 3), 2) == Fraction(-2, 4)
        assert dyadic_floor(AlgebraicElement.root(3, 2), 3) == Fraction(10, 8)

    def test_field_of_and_lift(self):
        t = AlgebraicElement.root(3, 2)
        assert field_of([Fraction(1), 2]) is None
        assert field_of([Fraction(1), t, t * t]) == (3, 2)
        with pytest.raises(ValueError):
            field_of([t, AlgebraicElement.root(2, 2)])
        assert lift(Fraction(1, 2), (3, 2)) == AlgebraicElement.from_rational(3, 2, Fraction(1, 2))
        assert lift(Fraction(1, 2), None) == Fraction(1, 2)


small_coeffs = st.tuples(
    st.fractions(min_value=Fraction(-4), max_value=Fraction(4), max_denominator=6),
    st.fractions(min_value=Fraction(-4), max_value=Fraction(4), max_denominator=6),
    st.fractions(min_value=Fraction(-4), max_value=Fraction(4), max_denominator=6),
)


def _elem(coeffs) -> AlgebraicElement:
    return AlgebraicElement(3, 2, coeffs)


class TestFieldAxioms:
    @settings(max_examples=60)
    @given(small_coeffs, small_coeffs, small_coeffs)
    def test_distributivity(self, a, b, c):
        x, y, z = _elem(a), _elem(b), _elem(c)
        assert x * (y + z) == x * y + x * z

    @settings(max_examples=60)
    @given(small_coeffs, small_coeffs, small_coeffs)
    def test_mul_associativity(self, a, b, c):
        x, y, z = _elem(a), _elem(b), _elem(c)
        assert (x * y) * z == x * (y * z)

    @settings(max_examples=60)
    @given(small_coeffs)
    def test_inverse_of_nonzero(self, a):
        x = _elem(a)
        if x.is_zero():
            return
        assert (x * x.inverse()).to_rational() == 1

    @settings(max_examples=60)
    @given(small_coeffs)
    def test_sign_cubed_consistency(self, a):
        """sign(x)^3 agrees with sign(x^3), whose leading term is rational-dominated."""
        x = _elem(a)
        assert (x * x * x).sign() == x.sign() ** 3


class TestPrecisionCap:
    def test_default_when_unset(self, monkeypatch):
        """Half the parse cap: the last doubling whose dyadic points, with
        denominator 2^k of k + 1 bits, parse_rat reads back."""
        monkeypatch.delenv(PRECISION_CAP_ENV, raising=False)
        k = precision_cap()
        assert k == MAX_PARSED_BITS // 2
        point = Fraction(-3, 1 << k)
        assert parse_rat(format_rat(point)) == point
        with pytest.raises(ValueError, match="bits"):
            parse_rat(format_rat(Fraction(-3, 1 << 2 * k)))

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv(PRECISION_CAP_ENV, "64")
        assert precision_cap() == 64

    def test_refine_dyadic_doubles_while_within_cap(self, monkeypatch):
        monkeypatch.setenv(PRECISION_CAP_ENV, "100")
        tried = []
        with pytest.raises(PrecisionCapError, match="no target within 100 bits"):
            refine_dyadic(tried.append, "target")
        assert tried == [8, 16, 32, 64]

    def test_refine_dyadic_returns_first_hit(self, monkeypatch):
        monkeypatch.setenv(PRECISION_CAP_ENV, str(1 << 16))
        assert refine_dyadic(lambda k: k if k >= 32 else None, "target") == 32


def _bracket_sign(x: AlgebraicElement) -> int:
    """The sign by refining an enclosure of the real value until it
    excludes zero; terminates for x != 0."""
    if x.is_zero():
        return 0
    bits = 64
    while True:
        lo, hi = x.interval(bits)
        if lo > 0 or hi < 0:
            return 1 if lo > 0 else -1
        bits *= 2


fields = st.sampled_from([(2, 2), (2, 3), (2, 7), (3, 2), (3, 3), (3, 10)])


@st.composite
def near_zero(draw):
    """c + t^j with c a dyadic floor or ceiling of -t^j: signs mixed and the
    value within 2^-bits of zero, so the bracket needs many bits."""
    e, k = draw(fields)
    j = draw(st.integers(min_value=1, max_value=e - 1))
    bits = draw(st.integers(min_value=0, max_value=300))
    lo, _ = theta_enclosure(e, k ** j, bits)  # t^j = (k^j)^(1/e)
    c = -lo - draw(st.sampled_from([0, Fraction(1, 1 << bits)]))
    scale = draw(st.fractions(min_value=Fraction(-9), max_value=Fraction(9), max_denominator=7))
    coeffs = [c, Fraction(0), Fraction(0)][:e]
    coeffs[j] = Fraction(1)
    return AlgebraicElement(e, k, tuple(v * scale for v in coeffs))


any_element = st.builds(
    lambda field, coeffs: AlgebraicElement(*field, tuple(coeffs[: field[0]])),
    fields,
    st.lists(rats, min_size=3, max_size=3),
)


@settings(max_examples=500, deadline=None)
@given(st.one_of(any_element, near_zero()))
def test_sign_by_norm_agrees_with_an_enclosure(x):
    assert x.sign() == _bracket_sign(x)


def _loop_floor(x: AlgebraicElement, bits: int) -> int:
    """floor(x * 2^bits) by doubling an enclosure's precision until both of
    its ends floor alike; terminates for x not a multiple of 2^-bits."""
    prec = max(64, bits + 16)
    while True:
        lo, hi = x.interval(prec)
        if math.floor(lo * (1 << bits)) == math.floor(hi * (1 << bits)):
            return math.floor(lo * (1 << bits))
        prec *= 2


@settings(max_examples=500, deadline=None)
@given(
    st.one_of(any_element, near_zero()),
    st.integers(min_value=0, max_value=400),
    st.integers(min_value=-300, max_value=300),
    st.integers(min_value=0, max_value=120),
)
def test_floor_from_one_enclosure_agrees_with_the_loop(x, bits, j, scale_bits):
    """Shifted by j/2^bits, a near_zero element lies next to the boundary
    between floors j - 1 and j, where one enclosure cannot decide; scaled by
    2^scale_bits, its coefficients set the enclosure's precision."""
    x = x * (1 << scale_bits) + Fraction(j, 1 << bits)
    assert x.floor_scaled(bits) == _loop_floor(x, bits)


def test_floor_near_a_deep_dyadic_boundary_in_a_subprocess():
    """x = 5/256 + (cbrt 2 - lo) with 0 < cbrt 2 - lo < 2^-260000, so
    floor(x * 2^8) = 5; doubling the enclosure's precision until both ends
    floored alike took 8.6 s."""
    code = (
        "from fractions import Fraction\n"
        "from polycert.ratcore import AlgebraicElement, theta_enclosure\n"
        "lo = theta_enclosure(3, 2, 260000)[0]\n"
        "print((Fraction(5, 256) - lo + AlgebraicElement.root(3, 2)).floor_scaled(8))\n"
    )
    src = str(Path(ratcore.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=5,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "5"
