"""Exact rational scalars and real algebraic field elements.

Rationals are stdlib ``fractions.Fraction`` values, which are kept in
canonical form (gcd-reduced, positive denominator) by construction.
Algebraic numbers live in Q[t]/(t^e - k) for e in {2, 3} and a positive
integer k that is not a perfect e-th power, with t standing for the real
positive e-th root of k.  All arithmetic is exact; a sign is read off the
field norm, and a floor off one dyadic enclosure of t and at most one sign.
The text forms every report uses live here too: format_rat, parse_rat,
json_text and json_chunks.
"""

from __future__ import annotations

import decimal
import math
import os
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import compress, repeat
from json.encoder import encode_basestring_ascii
from typing import Callable, Iterable, Iterator, TypeVar, Union

Rat = Fraction
RatLike = Union[int, Fraction]


# The largest integer parse_rat reads, in bits (half of it is precision_cap's
# default), and the most decimal digits an integer below 2^MAX_PARSED_BITS
# can have: those of 2^MAX_PARSED_BITS.
MAX_PARSED_BITS = 1 << 18
_MAX_PARSED_DIGITS = 78914
_INT_RATIONAL = re.compile(r"([+-]?[0-9]+)(?:/([0-9]+))?")


def check_tower_bits(m: int, what: str) -> None:
    """Refuse, before it is built, a value whose integers reach 2^(2^m), so
    2^m + 1 bits, when parse_rat could not read them back."""
    if m >= MAX_PARSED_BITS.bit_length() or (1 << m) + 1 > MAX_PARSED_BITS:
        raise ValueError(
            f"{what} needs integers of 2^{format_int(m)} + 1 bits, past the {MAX_PARSED_BITS}-bit limit of parse_rat"
        )


def parse_rat(text: str) -> Fraction:
    """The exact value of a "num/den" or "num" literal, num being [+-]digits
    and den digits, in ASCII, with surrounding whitespace.  Every other form
    (decimal, exponent, underscore) is refused, as is an integer past
    MAX_PARSED_BITS bits.  A zero denominator raises ZeroDivisionError
    here: Fraction's own message would print the numerator, which fails
    past the interpreter's int-to-str digit limit."""
    m = _INT_RATIONAL.fullmatch(text.strip())
    if m is None:
        raise ValueError('expected "num/den" or an integer in ASCII digits')
    num, den = map(_parse_big_int, m.groups("1"))
    if den == 0:
        raise ZeroDivisionError("zero denominator")
    return Fraction(num, den)


def parse_int(text: str) -> int:
    """The value of a "num" literal, by parse_rat's grammar and cap."""
    if "/" in text:
        raise ValueError("expected an integer, not a fraction")
    return parse_rat(text).numerator


def _parse_big_int(digits: str) -> int:
    """A signed decimal literal as an int, refused by its digit count before
    converting when it could exceed MAX_PARSED_BITS bits."""
    body = digits.lstrip("+-0")
    if len(body) <= _MAX_PARSED_DIGITS:
        value = _digits_value(body) if body else 0
        if value.bit_length() <= MAX_PARSED_BITS:
            return -value if digits.startswith("-") else value
    raise ValueError(f"integer literal exceeds {MAX_PARSED_BITS} bits")


def _digits_value(digits: str) -> int:
    """int(digits) for a string of decimal digits of any length: the halves
    are converted apart and joined by one multiplication, so the time is
    that of int multiplication, not quadratic in the digits."""
    if len(digits) <= 512:  # under every int-to-str digit limit (at least 640)
        return int(digits)
    low = len(digits) >> 1
    return _digits_value(digits[:-low]) * _pow10(low) + _digits_value(digits[-low:])


@lru_cache(maxsize=128)
def _pow10(n: int) -> int:
    return 10 ** n


_EXACT = decimal.Context(prec=decimal.MAX_PREC, Emax=decimal.MAX_EMAX, traps=[decimal.Inexact])


def format_int(x: int) -> str:
    """Exact decimal string of an integer of any size.

    str() refuses integers past the interpreter's int-to-str digit limit.
    Past it, the bits are split in halves, each half becomes a Decimal, and
    the halves are joined by exact decimal multiplication and addition, which
    is subquadratic; Decimal's str() is not subject to the limit.
    """
    try:
        return str(x)
    except ValueError:
        with decimal.localcontext(_EXACT):
            text = str(_decimal_value(abs(x), abs(x).bit_length()))
        return "-" + text if x < 0 else text


def _decimal_value(x: int, bits: int) -> decimal.Decimal:
    """Decimal(x) for 0 <= x < 2^bits, exact in the _EXACT context."""
    if bits <= 1024:
        return decimal.Decimal(x)
    low = bits >> 1
    high = _decimal_value(x >> low, bits - low)
    return high * _decimal_pow2(low) + _decimal_value(x & ((1 << low) - 1), low)


@lru_cache(maxsize=128)
def _decimal_pow2(n: int) -> decimal.Decimal:
    return _EXACT.power(2, n)


def format_rat(q: RatLike) -> str:
    """Canonical "num/den" string, denominator always explicit."""
    q = Fraction(q)
    return f"{format_int(q.numerator)}/{format_int(q.denominator)}"


def json_text(obj) -> str:
    """Exactly json.dumps(obj, indent=2) for trees of dict (str keys), list,
    tuple, str, int, bool and None; any other type raises TypeError.

    json.dumps falls back to its pure-Python encoder whenever indent is set;
    here a list of all-str or all-int items is written by a single join."""
    return _json_text(obj, "\n")


def json_chunks(obj) -> Iterator[str]:
    """Exactly json.dumps(obj, separators=(",", ":")) in pieces, for the same
    trees as json_text, so that a large file is written without its whole
    text in memory: the outer two container levels are walked item by item,
    and each value below them (one row of a system file, one landmark) is
    written whole by _json_text."""
    return _json_chunks(obj, 2)


def _json_chunks(obj, levels: int) -> Iterator[str]:
    if not (levels and obj and isinstance(obj, (dict, list, tuple))):
        yield _json_text(obj, "")
        return
    if isinstance(obj, dict):
        for key in obj:
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
        heads = [encode_basestring_ascii(key) + ":" for key in obj]
        brackets, values = "{}", obj.values()
    else:
        brackets, heads, values = "[]", repeat(""), obj
    sep = brackets[0]
    for head, value in zip(heads, values):
        if levels == 1:  # the same text as recursing, in one chunk per item
            yield sep + head + _json_text(value, "")
        else:
            yield sep + head
            yield from _json_chunks(value, levels - 1)
        sep = ","
    yield brackets[1]


def _json_text(obj, nl: str) -> str:
    """obj written at a line break plus indent nl, or compactly for nl = ""."""
    if isinstance(obj, str):
        return encode_basestring_ascii(obj)
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    inner = nl and nl + "  "
    sep = "," + inner
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        colon = ": " if nl else ":"
        items = []
        for key, value in obj.items():
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            items.append(encode_basestring_ascii(key) + colon + _json_text(value, inner))
        return "{" + inner + sep.join(items) + nl + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        kinds = set(map(type, obj))
        if kinds == {int}:
            body = _int_items(obj, sep)
        elif kinds == {str}:
            body = sep.join(map(encode_basestring_ascii, obj))
        else:
            body = sep.join([_json_text(v, inner) for v in obj])
        return "[" + inner + body + nl + "]"
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _int_items(items, sep: str) -> str:
    """sep.join(map(int.__repr__, items)) for a nonempty list of ints, with
    Python-level work only per nonzero item: a run of r zeros is one
    repetition ("0" + sep) * r."""
    zeros = "0" + sep
    parts, start = [], 0
    for i in compress(range(len(items)), items):
        parts += zeros * (i - start), int.__repr__(items[i]), sep
        start = i + 1
    parts.append(zeros * (len(items) - start))
    return "".join(parts)[: -len(sep)]


def _ceil_log2(x: int) -> int:
    # ceil(log2(x)) for x >= 1
    return (x - 1).bit_length()


def encoding_size(q: RatLike) -> int:
    """Bit size of a rational: 1 + ceil(log2(|num|+1)) + ceil(log2(den+1))."""
    q = Fraction(q)
    return 1 + _ceil_log2(abs(q.numerator) + 1) + _ceil_log2(q.denominator + 1)


def encoding_size_vec(values: Iterable[RatLike]) -> int:
    """Total bit size of a rational vector (sum of coordinate sizes)."""
    return sum(encoding_size(v) for v in values)


def integer_nth_root(x: int, e: int) -> int:
    """floor(x ** (1/e)) for x >= 0, e >= 1, by Newton iteration on integers."""
    if x < 0:
        raise ValueError("integer_nth_root of a negative value")
    if e < 1:
        raise ValueError("root order must be >= 1")
    if e == 1 or x in (0, 1):
        return x
    if e == 2:
        return math.isqrt(x)
    # one more than the root of x's top bits, shifted back up, lies above the
    # root by a relative 2^-s or so: Newton from there takes two or three
    # full-size divisions, where from a power of two it takes log2(s) or more
    s = x.bit_length() // (2 * e)
    if s >= 128:
        r = (integer_nth_root(x >> (e * s), e) + 1) << s
    else:
        r = 1 << ((x.bit_length() + e - 1) // e)
    while True:
        nr = ((e - 1) * r + x // r ** (e - 1)) // e
        if nr >= r:
            break
        r = nr
    while r ** e > x:
        r -= 1
    return r


@lru_cache(maxsize=256)
def _is_perfect_power(k: int, e: int) -> bool:
    r = integer_nth_root(k, e)
    return r ** e == k


def theta_enclosure(e: int, k: int, bits: int) -> tuple[Fraction, Fraction]:
    """Dyadic interval [lo, hi] with lo <= k^(1/e) <= hi and hi - lo = 2^-bits."""
    l = integer_nth_root(k << (e * bits), e)
    return Fraction(l, 1 << bits), Fraction(l + 1, 1 << bits)


PRECISION_CAP_ENV = "POLYCERT_PRECISION_CAP"


class PrecisionCapError(RuntimeError):
    """A dyadic refinement loop hit its precision cap before meeting its target."""


def precision_cap() -> int:
    """Bit budget of refine_dyadic: POLYCERT_PRECISION_CAP, else the largest
    k = 8 * 2^i whose dyadic points (k + 1-bit denominators) parse_rat reads."""
    raw = os.environ.get(PRECISION_CAP_ENV)
    return parse_int(raw) if raw else MAX_PARSED_BITS // 2


T = TypeVar("T")


def refine_dyadic(try_at: Callable[[int], T | None], target: str) -> T:
    """First non-None try_at(k) for k = 8, 16, 32, ... while k <= precision_cap().

    Raises PrecisionCapError, naming the target sought, once k passes the cap.
    """
    cap = precision_cap()
    k = 8
    while k <= cap:
        hit = try_at(k)
        if hit is not None:
            return hit
        k *= 2
    raise PrecisionCapError(f"no {target} within {cap} bits")


@dataclass(frozen=True)
class AlgebraicElement:
    """Element c0 + c1*t + ... + c_{e-1}*t^(e-1) of Q[t]/(t^e - k), t = k^(1/e) > 0."""

    e: int
    k: int
    coeffs: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if self.e not in (2, 3):
            raise ValueError("extension degree must be 2 or 3")
        if not (isinstance(self.k, int) and self.k >= 2):
            raise ValueError("radicand must be an integer >= 2")
        if _is_perfect_power(self.k, self.e):
            raise ValueError(f"{self.k} is a perfect power; extension would not be a field")
        cs = tuple(Fraction(c) for c in self.coeffs)
        if len(cs) > self.e:
            raise ValueError("too many coefficients")
        cs = cs + (Fraction(0),) * (self.e - len(cs))
        object.__setattr__(self, "coeffs", cs)

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_rational(cls, e: int, k: int, q: RatLike) -> "AlgebraicElement":
        return cls(e, k, (Fraction(q),))

    @classmethod
    def root(cls, e: int, k: int) -> "AlgebraicElement":
        """The generator t = k^(1/e) itself."""
        return cls(e, k, (Fraction(0), Fraction(1)))

    # -- structure ---------------------------------------------------------

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def is_rational(self) -> bool:
        return all(c == 0 for c in self.coeffs[1:])

    def to_rational(self) -> Fraction | None:
        return self.coeffs[0] if self.is_rational() else None

    def _coerce(self, other: "AlgebraicElement | RatLike") -> "AlgebraicElement":
        if isinstance(other, AlgebraicElement):
            if (other.e, other.k) != (self.e, self.k):
                raise ValueError("mixed algebraic fields")
            return other
        return AlgebraicElement.from_rational(self.e, self.k, other)

    # -- ring operations ---------------------------------------------------

    def __add__(self, other: "AlgebraicElement | RatLike") -> "AlgebraicElement":
        o = self._coerce(other)
        return AlgebraicElement(self.e, self.k, tuple(a + b for a, b in zip(self.coeffs, o.coeffs)))

    __radd__ = __add__

    def __neg__(self) -> "AlgebraicElement":
        return AlgebraicElement(self.e, self.k, tuple(-a for a in self.coeffs))

    def __sub__(self, other: "AlgebraicElement | RatLike") -> "AlgebraicElement":
        return self + (-self._coerce(other))

    def __rsub__(self, other: RatLike) -> "AlgebraicElement":
        return self._coerce(other) - self

    def __mul__(self, other: "AlgebraicElement | RatLike") -> "AlgebraicElement":
        o = self._coerce(other)
        e, k = self.e, self.k
        prod = [Fraction(0)] * (2 * e - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(o.coeffs):
                    if b:
                        prod[i + j] += a * b
        # reduce t^(e+j) = k * t^j
        for idx in range(2 * e - 2, e - 1, -1):
            if prod[idx]:
                prod[idx - e] += k * prod[idx]
                prod[idx] = Fraction(0)
        return AlgebraicElement(e, k, tuple(prod[:e]))

    __rmul__ = __mul__

    def norm(self) -> Fraction:
        """N(x) = x * adj(x), the product of x and its conjugates: rational,
        and nonzero for x != 0 because t^e - k is irreducible.  N(a + b t) =
        a^2 - k b^2 and N(a + b t + c t^2) = a^3 + k b^3 + k^2 c^3 - 3kabc."""
        k = self.k
        if self.e == 2:
            a, b = self.coeffs
            return a * a - k * b * b
        a, b, c = self.coeffs
        return a ** 3 + k * b ** 3 + k * k * c ** 3 - 3 * k * a * b * c

    def inverse(self) -> "AlgebraicElement":
        """adj(x) / N(x).  For x = a + b t (e = 2), adj = a - b t; for
        x = a + b t + c t^2 (e = 3), adj = (a^2 - kbc) + (kc^2 - ab) t +
        (b^2 - ac) t^2."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero algebraic element")
        k = self.k
        if self.e == 2:
            a, b = self.coeffs
            adj = (a, -b)
        else:
            a, b, c = self.coeffs
            adj = (a * a - k * b * c, k * c * c - a * b, b * b - a * c)
        norm = self.norm()
        return AlgebraicElement(self.e, k, tuple(x / norm for x in adj))

    def __truediv__(self, other: "AlgebraicElement | RatLike") -> "AlgebraicElement":
        return self * self._coerce(other).inverse()

    def __rtruediv__(self, other: RatLike) -> "AlgebraicElement":
        return self._coerce(other) * self.inverse()

    def __pow__(self, n: int) -> "AlgebraicElement":
        if n < 0:
            return self.inverse() ** (-n)
        result = AlgebraicElement.from_rational(self.e, self.k, 1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    # -- order -------------------------------------------------------------

    def interval(self, bits: int) -> tuple[Fraction, Fraction]:
        """Rational enclosure of the real value at roughly 2^-bits width."""
        lo, hi = theta_enclosure(self.e, self.k, bits)
        plo = [lo ** j for j in range(self.e)]
        phi = [hi ** j for j in range(self.e)]
        tot_lo = Fraction(0)
        tot_hi = Fraction(0)
        for j, c in enumerate(self.coeffs):
            if c > 0:
                tot_lo += c * plo[j]
                tot_hi += c * phi[j]
            elif c < 0:
                tot_lo += c * phi[j]
                tot_hi += c * plo[j]
        return tot_lo, tot_hi

    def sign(self) -> int:
        """Exact sign of the real value, -1, 0 or +1, by algebra alone.  For
        e = 3 it is the sign of N(x): the two complex conjugates of x
        multiply to |x'|^2 > 0.  For e = 2 it is sign_plus_root."""
        if self.is_zero():
            return 0
        if self.is_rational():
            return sign(self.coeffs[0])
        if self.e == 3:
            return sign(self.norm())
        return sign_plus_root(*self.coeffs, self.k)

    def compare(self, other: "AlgebraicElement | RatLike") -> int:
        return (self - other).sign()

    def __lt__(self, other): return self.compare(other) < 0
    def __le__(self, other): return self.compare(other) <= 0
    def __gt__(self, other): return self.compare(other) > 0
    def __ge__(self, other): return self.compare(other) >= 0

    def floor_scaled(self, bits: int) -> int:
        """floor(value * 2^bits), exact, from one enclosure and at most one
        sign.  c_j t^j widens the enclosure by at most |c_j| j (k+1)^(j-1)
        2^-prec, so at this prec it is narrower than 2^-(bits+1): its ends
        floor to j or j + 1, and the sign of value - (j+1)/2^bits decides."""
        if self.is_rational():
            return math.floor(self.coeffs[0] * (1 << bits))
        spread = sum(abs(c) * j * (self.k + 1) ** (j - 1) for j, c in enumerate(self.coeffs[1:], 1))
        lo, hi = self.interval(max(64, bits + 16, bits + 1 + math.ceil(spread).bit_length()))
        j = math.floor(lo * (1 << bits))
        if j == math.floor(hi * (1 << bits)) or (self - Fraction(j + 1, 1 << bits)).sign() < 0:
            return j
        return j + 1

    def __str__(self) -> str:
        return " + ".join(f"({format_rat(c)})*t^{j}" for j, c in enumerate(self.coeffs))


# -- one scalar path: helpers shared by rational and algebraic values --------

Scalar = Union[int, Fraction, AlgebraicElement]
Field = tuple[int, int]


def sign(x: Scalar) -> int:
    """Exact sign of a rational or algebraic scalar: -1, 0, or +1."""
    if isinstance(x, AlgebraicElement):
        return x.sign()
    return (x > 0) - (x < 0)


def sign_plus_root(a: Scalar, b: Fraction, k: int) -> int:
    """Exact sign of a + b sqrt(k) for a rational or algebraic a: the common
    sign of a and b; when their signs differ, the sign of a times that of
    a^2 - k b^2 = (a + b sqrt k)(a - b sqrt k), as a - b sqrt k then has the
    sign of a."""
    sa, sb = sign(a), sign(b)
    if sa * sb >= 0:
        return sa or sb
    return sa * sign(a * a - k * b * b)


def dyadic_floor(x: Scalar, bits: int) -> Fraction:
    """floor(x * 2^bits) / 2^bits for a rational or algebraic scalar, exact."""
    if isinstance(x, AlgebraicElement):
        return Fraction(x.floor_scaled(bits), 1 << bits)
    return Fraction(math.floor(Fraction(x) * (1 << bits)), 1 << bits)


def field_of(values: Iterable[Scalar]) -> Field | None:
    """The field (e, k) shared by the algebraic entries, or None when all are
    rational; ValueError when two entries live in different fields."""
    field = None
    for x in values:
        if isinstance(x, AlgebraicElement):
            if field is None:
                field = (x.e, x.k)
            elif (x.e, x.k) != field:
                raise ValueError("mixed algebraic fields")
    return field


def lift(x: Scalar, field: Field | None) -> Scalar:
    """x as an element of field; unchanged when field is None or x is algebraic."""
    if field is None or isinstance(x, AlgebraicElement):
        return x
    return AlgebraicElement.from_rational(field[0], field[1], x)


def scalars(values: Iterable[Scalar]) -> list:
    """Coordinates as Fractions, keeping algebraic entries as they are."""
    return [x if isinstance(x, AlgebraicElement) else Fraction(x) for x in values]
