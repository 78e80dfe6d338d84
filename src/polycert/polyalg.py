"""Sparse multivariate polynomials with exact rational coefficients.

A polynomial over variables x1..xn maps monomial keys to nonzero Fractions.
Inside, a key lists only the nonzero exponents, as sorted ((var, exp), ...)
pairs with 0-based var and () for the constant, so evaluation, products and
ray restriction never visit a zero exponent.  At the boundary (__init__,
coefficient, sorted_terms and the JSON and text forms) monomials are dense
exponent tuples of length n.  Term order everywhere (printing,
serialization) is graded lexicographic on the dense tuples, highest first,
so equal polynomials always serialize to identical bytes.  Univariate
restrictions are dense coefficient lists in ascending degree order; their
entries are Fractions or AlgebraicElements depending on the data of the ray.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import compress
from operator import countOf, index
from typing import Sequence

from .ratcore import (
    AlgebraicElement,
    RatLike,
    Scalar,
    field_of,
    format_rat,
    lift,
    parse_rat,
    scalars,
)

Monomial = tuple[int, ...]  # dense exponents, one per variable
Key = tuple[tuple[int, int], ...]  # sorted (var, exp) pairs with exp > 0
UniPoly = list  # dense, ascending; entries all Fraction or all AlgebraicElement of one field


def _key(exps: Monomial) -> Key:
    """The sparse key of a dense exponent tuple; Python touches only the
    nonzero entries."""
    nonzero = list(compress(range(len(exps)), exps))
    return tuple(zip(nonzero, map(exps.__getitem__, nonzero)))


def _checked_key(exps: Sequence[int], num_vars: int) -> Key:
    """The sparse key of dense exponents read from a caller or a file,
    refusing a miscounted list or an exponent that is negative or not an
    int (1.5, "2", null, true).  Only C-level passes visit every entry."""
    if countOf(map(type, exps), int) != len(exps):
        bad = next(e for e in exps if type(e) is not int)
        index(bad)  # the TypeError of 1.5, "2" or None
        raise TypeError(f"exponent {bad!r} is not an int")
    if len(exps) != num_vars:
        raise ValueError("exponent tuple length does not match num_vars")
    key = _key(exps)
    if any(e < 0 for _, e in key):
        raise ValueError("negative exponent")
    return key


def _key_mul(a: Key, b: Key) -> Key:
    """The key of the product of two monomials."""
    if not a:
        return b
    if not b:
        return a
    exps = dict(a)
    for i, e in b:
        exps[i] = exps.get(i, 0) + e
    return tuple(sorted(exps.items()))


def _key_degree(key: Key) -> int:
    return sum(e for _, e in key)


class Polynomial:
    """Immutable-by-convention sparse polynomial over Q."""

    __slots__ = ("num_vars", "terms")

    def __init__(self, num_vars: int, terms: dict | None = None):
        """terms maps dense exponent tuples (or lists) of length num_vars to
        rational coefficients; zero coefficients are dropped."""
        if num_vars < 0:
            raise ValueError("num_vars must be >= 0")
        clean: dict[Key, Fraction] = {}
        for exps, coef in (terms or {}).items():
            key = _checked_key(exps, num_vars)
            c = Fraction(coef)
            if c:
                clean[key] = c
        self.num_vars = num_vars
        self.terms = clean

    @classmethod
    def _from_terms(cls, num_vars: int, terms: dict) -> "Polynomial":
        """Result of arithmetic on validated polynomials: the keys are already
        sparse keys over num_vars variables and the coefficients Fractions,
        so only the zero coefficients are dropped."""
        p = object.__new__(cls)
        p.num_vars = num_vars
        p.terms = {e: c for e, c in terms.items() if c}
        return p

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, num_vars: int) -> "Polynomial":
        return cls(num_vars, {})

    @classmethod
    def constant(cls, num_vars: int, c: RatLike) -> "Polynomial":
        if num_vars < 0:
            raise ValueError("num_vars must be >= 0")
        return cls._from_terms(num_vars, {(): Fraction(c)})

    @classmethod
    def variable(cls, num_vars: int, index: int) -> "Polynomial":
        """The monomial x_{index}, 0-based."""
        if not 0 <= index < num_vars:
            raise ValueError("variable index out of range")
        return cls._from_terms(num_vars, {((index, 1),): Fraction(1)})

    @classmethod
    def variables(cls, num_vars: int) -> list["Polynomial"]:
        """x_1..x_n as polynomials, for building rows by arithmetic."""
        return [cls.variable(num_vars, i) for i in range(num_vars)]

    # -- structure ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        """Total degree; 0 for the zero polynomial."""
        return max(map(_key_degree, self.terms), default=0)

    def constant_term(self) -> Fraction:
        return self.terms.get((), Fraction(0))

    def coefficient(self, exps: Sequence[int]) -> Fraction:
        """Coefficient of the monomial with dense exponents exps."""
        return self.terms.get(_key(exps), Fraction(0))

    def sorted_terms(self) -> list[tuple[Monomial, Fraction]]:
        """(dense exponent tuple, coefficient) pairs in graded lex order,
        highest first."""
        return [(tuple(exps), c) for exps, c in self._dense_terms()]

    def _dense_terms(self) -> list[tuple[list[int], Fraction]]:
        n = self.num_vars
        rows = []
        for key, c in self.terms.items():
            exps = [0] * n
            for i, e in key:
                exps[i] = e
            rows.append((_key_degree(key), exps, c))
        rows.sort(reverse=True)  # the exponent lists differ, so c is never compared
        return [(exps, c) for _, exps, c in rows]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Polynomial)
            and self.num_vars == other.num_vars
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.num_vars, frozenset(self.terms.items())))

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: "Polynomial | RatLike") -> "Polynomial":
        out = dict(self.terms)
        for e, c in self._coerce(other).terms.items():
            out[e] = out[e] + c if e in out else c
        return Polynomial._from_terms(self.num_vars, out)

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        return Polynomial._from_terms(self.num_vars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other: "Polynomial | RatLike") -> "Polynomial":
        return self + (-self._coerce(other))

    def __rsub__(self, other: RatLike) -> "Polynomial":
        return self._coerce(other) - self

    def __mul__(self, other: "Polynomial | RatLike") -> "Polynomial":
        if isinstance(other, (int, Fraction)):
            c = Fraction(other)
            return Polynomial._from_terms(self.num_vars, {e: c * v for e, v in self.terms.items()})
        o = self._coerce(other)
        out: dict[Key, Fraction] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in o.terms.items():
                e = _key_mul(e1, e2)
                c = c1 * c2
                out[e] = out[e] + c if e in out else c
        return Polynomial._from_terms(self.num_vars, out)

    __rmul__ = __mul__

    def __truediv__(self, other: RatLike) -> "Polynomial":
        return self * (1 / Fraction(other))

    def __pow__(self, n: int) -> "Polynomial":
        if n < 0:
            raise ValueError("negative polynomial power")
        result = self if n else self._coerce(1)
        for _ in range(n - 1):
            result = result * self
        return result

    def _coerce(self, other: "Polynomial | RatLike") -> "Polynomial":
        if isinstance(other, Polynomial):
            if other.num_vars != self.num_vars:
                raise ValueError("mixed variable counts")
            return other
        return Polynomial._from_terms(self.num_vars, {(): Fraction(other)})

    # -- evaluation --------------------------------------------------------

    def eval(self, point: Sequence[Scalar]) -> Scalar:
        """Value at a point with rational coordinates or coordinates in one
        field Q[t]/(t^e - k); the value lies in the point's field if it has one."""
        if len(point) != self.num_vars:
            raise ValueError("point dimension mismatch")
        pt = scalars(point)
        return lift(self.eval_scalars(pt), field_of(pt))

    eval_alg = eval  # former algebraic-only name, kept for callers

    def eval_scalars(self, pt: Sequence[Scalar]) -> Scalar:
        """Value at a point already converted by ratcore.scalars, unlifted:
        Fraction arithmetic throughout, until an algebraic coordinate enters."""
        total = Fraction(0)
        for key, coef in self.terms.items():
            v = coef
            for i, e in key:
                v *= pt[i] ** e
            total += v
        return total

    # -- structure maps ------------------------------------------------------

    def homogeneous_component(self, d: int) -> "Polynomial":
        return Polynomial._from_terms(
            self.num_vars, {e: c for e, c in self.terms.items() if _key_degree(e) == d}
        )

    def affine_substitute(self, A: Sequence[Sequence[RatLike]], b: Sequence[RatLike]) -> "Polynomial":
        """p(A y + b): row i of A gives the expansion of old x_i over the new variables."""
        if len(A) != self.num_vars or len(b) != self.num_vars:
            raise ValueError("substitution shape mismatch")
        m = len(A[0]) if self.num_vars else 0
        if any(len(row) != m for row in A):
            raise ValueError("ragged substitution matrix")
        images = []
        for i in range(self.num_vars):
            terms: dict[Key, Fraction] = {(): Fraction(b[i])}
            for j, a in enumerate(A[i]):
                terms[((j, 1),)] = Fraction(a)
            images.append(Polynomial._from_terms(m, terms))
        powers: list[dict[int, Polynomial]] = [dict() for _ in range(self.num_vars)]
        out = Polynomial.zero(m)
        for key, coef in self.terms.items():
            term = Polynomial.constant(m, coef)
            for i, e in key:
                if e not in powers[i]:
                    powers[i][e] = images[i] ** e
                term = term * powers[i][e]
            out = out + term
        return out

    def restrict_to_ray(self, x0: Sequence[Scalar], v: Sequence[Scalar]) -> UniPoly:
        """Dense coefficients of lambda -> p(x0 + lambda v), ascending degree.

        Base point and direction may share one field Q[t]/(t^e - k); the
        coefficients then lie in that field."""
        if len(x0) != self.num_vars or len(v) != self.num_vars:
            raise ValueError("ray dimension mismatch")
        x0, v = scalars(x0), scalars(v)
        field = field_of(x0 + v)
        out = [Fraction(0)]
        for key, coef in self.terms.items():
            dense = [coef]
            for i, e in key:
                for _ in range(e):
                    dense = _dense_mul(dense, [x0[i], v[i]])
            out += [Fraction(0)] * (len(dense) - len(out))
            for i, c in enumerate(dense):
                out[i] = out[i] + c
        return _uni_trim([lift(c, field) for c in out])

    restrict_to_ray_alg = restrict_to_ray  # former algebraic-only name, kept for callers

    # -- integer height ------------------------------------------------------

    def height_and_degree(self) -> tuple[int, int, int]:
        """(H, d, D): clear denominators by D = lcm(dens); H = max |coef| of D*p; d = total degree."""
        if not self.terms:
            return 0, 0, 1
        D = 1
        for c in self.terms.values():
            D = D * c.denominator // math.gcd(D, c.denominator)
        H = max(abs(c.numerator) * (D // c.denominator) for c in self.terms.values())
        return H, self.degree(), D

    # -- text and JSON -------------------------------------------------------

    def to_text(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for exps, coef in self._dense_terms():
            factors = [format_rat(coef)]
            for i, e in enumerate(exps):
                if e == 1:
                    factors.append(f"x{i + 1}")
                elif e > 1:
                    factors.append(f"x{i + 1}^{e}")
            parts.append("*".join(factors))
        return " + ".join(parts)

    def to_json(self) -> dict:
        return {
            "n": self.num_vars,
            "terms": [
                {"exps": exps, "coef": format_rat(c)} for exps, c in self._dense_terms()
            ],
        }

    @classmethod
    def from_json(cls, data: dict) -> "Polynomial":
        """Each exponent list is validated and keyed once, as in __init__."""
        n = index(data["n"])
        if n < 0:
            raise ValueError("num_vars must be >= 0")
        terms: dict[Key, Fraction] = {}
        for t in data["terms"]:
            key = _checked_key(t["exps"], n)
            if key in terms:
                raise ValueError("duplicate monomial in polynomial JSON")
            terms[key] = parse_rat(t["coef"])
        return cls._from_terms(n, terms)

    def __repr__(self) -> str:
        return f"Polynomial({self.to_text()})"


# -- dense univariate helpers -------------------------------------------------

def _dense_mul(a: list, b: list) -> list:
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] = out[i + j] + ai * bj
    return out


def _is_zero_entry(c) -> bool:
    return c.is_zero() if isinstance(c, AlgebraicElement) else c == 0


def _uni_trim(p: UniPoly) -> UniPoly:
    return p[: uni_degree(p) + 1]


def uni_degree(p: UniPoly) -> int:
    """Degree after stripping exactly-zero leading coefficients (zero poly -> 0)."""
    d = len(p) - 1
    while d > 0 and _is_zero_entry(p[d]):
        d -= 1
    return d


def uni_eval(p: UniPoly, x):
    """Horner evaluation; x may be rational or a field element."""
    if not isinstance(x, AlgebraicElement):
        x = Fraction(x)
    total = x * 0
    for c in reversed(p):
        total = total * x + c
    return total


def uni_derivative(p: UniPoly) -> UniPoly:
    if len(p) <= 1:
        return [Fraction(0)]
    return _uni_trim([c * i for i, c in enumerate(p)][1:])
