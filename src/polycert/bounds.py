"""Explicit numeric bounds: Lipschitz constants, bounding boxes, and separation
bounds.

The separation bound delta(n, m, d, H) involves 2^(4 - n/2), irrational for
odd n; it is raised to an even power, so delta is computed exactly in
integer arithmetic.  A "loose" mode rounds that factor up to the next integer
power of two, which only enlarges delta and stays safe for every use here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .ratcore import MAX_PARSED_BITS, RatLike, format_int


def lipschitz_constant(n: int, d: int, H: RatLike, M: RatLike) -> Fraction:
    """n*d*H*M^(d-1)*(n+d)^(d-1): Lipschitz bound in the sup norm on [-M, M]^n
    for any polynomial of total degree <= d whose coefficients are bounded by H."""
    if n < 1 or d < 1:
        raise ValueError("n and d must be >= 1")
    H = Fraction(H)
    M = Fraction(M)
    if H < 0 or M < 0:
        raise ValueError("H and M must be >= 0")
    return n * d * H * M ** (d - 1) * Fraction(n + d) ** (d - 1)


def box_bound(n: int, H: int) -> int:
    """(nH)^n: any bounded polyhedron with integer data of height H and n
    variables lies inside [-M, M]^n for M = (nH)^n."""
    if n < 1 or H < 1:
        raise ValueError("n and H must be >= 1")
    return (n * H) ** n


def _one_over_eps(n: int, m: int, d: int, H: int, loose: bool) -> Fraction:
    """(2^(4-n/2) * max(H, 2n+2m) * d^n) ^ (n * 2^n * d^n), exact.

    With 2^(4-n/2) = 2^q2 * sqrt(2)^r2, the exponent E = n*2^n*d^n is even
    for n >= 1, so the value is the rational (2^q2 * C)^E * 2^(r2*E/2).
    Shapes whose value would pass MAX_PARSED_BITS bits, past what `--delta`
    reads back, are refused before the number is built.
    """
    if n < 2 or m < 1 or H < 1:
        raise ValueError("need n >= 2, m >= 1, H >= 1")
    if d < 2 or d % 2 != 0:
        raise ValueError("degree bound d must be an even integer >= 2")
    if n * d.bit_length() >= MAX_PARSED_BITS.bit_length():  # E >= 2^(n bitlen(d)) is past the cap
        raise ValueError(f"delta for this shape has more than {MAX_PARSED_BITS} bits")
    C = max(H, 2 * n + 2 * m) * d ** n
    E = n * 2 ** n * d ** n
    q2, r2 = divmod(8 - n, 2)  # 2^(4-n/2) = 2^q2 * sqrt(2)^r2
    if loose and r2:
        q2, r2 = q2 + 1, 0
    bits = E * (q2 + C.bit_length()) + r2 * E // 2  # upper bound on the bit length
    if bits > MAX_PARSED_BITS:
        raise ValueError(f"delta for this shape has about {bits} bits, past the cap of {MAX_PARSED_BITS}")
    return (Fraction(2) ** q2 * C) ** E * 2 ** (r2 * E // 2)


def epsilon_inverse(n: int, m: int, d: int, H: int, loose: bool = False) -> int:
    """Ceiling of 1/eps(n, m, d, H)."""
    return math.ceil(_one_over_eps(n, m, d, H, loose))


def delta_bound(n: int, m: int, d: int, H: int, loose: bool = False) -> int:
    """delta(n,m,d,H) = ceil(2 * (2^(4-n/2) * max(H, 2n+2m) * d^n)^(n*2^n*d^n))."""
    return math.ceil(2 * _one_over_eps(n, m, d, H, loose))


def phi_bound(L: RatLike, M: RatLike, ell: int, delta: int) -> int:
    """phi = ceil(L*M*ell*delta), the per-axis grid half-count."""
    if ell < 1 or delta < 1:
        raise ValueError("ell and delta must be >= 1")
    return math.ceil(Fraction(L) * Fraction(M) * ell * delta)


@dataclass(frozen=True)
class BoundReport:
    """The numeric bound bundle for one (n, m, ell, d, H) instance shape."""

    M: int
    L: int
    epsilon_inverse: int
    delta: int
    phi: int
    mode: str = "exact"

    def __post_init__(self) -> None:
        if min(self.M, self.L, self.delta, self.phi) < 1:
            raise ValueError("bounds must all be >= 1")
        if self.mode not in ("exact", "loose"):
            raise ValueError("mode must be 'exact' or 'loose'")

    def to_json(self) -> dict:
        return {
            "M": format_int(self.M),
            "L": format_int(self.L),
            "epsilon_inverse": format_int(self.epsilon_inverse),
            "delta": format_int(self.delta),
            "phi": format_int(self.phi),
            "delta_bits": self.delta.bit_length(),
            "phi_bits": self.phi.bit_length(),
            "mode": self.mode,
        }


def bound_report(n: int, m: int, ell: int, d: int, H: int, loose: bool = False) -> BoundReport:
    """Assemble the full report for a system shape: m linear rows, ell
    nonlinear rows of degree <= d, all heights <= H, n variables."""
    inv_eps = epsilon_inverse(n, m, d, H, loose)  # first: it refuses oversized shapes
    delta = delta_bound(n, m, d, H, loose)
    M = box_bound(n, H)
    L = lipschitz_constant(n, d, H, M)
    phi = phi_bound(L, M, ell, delta)
    assert L.denominator == 1
    return BoundReport(
        M=M,
        L=L.numerator,
        epsilon_inverse=inv_eps,
        delta=delta,
        phi=phi,
        mode="loose" if loose else "exact",
    )
