"""Exact-arithmetic toolkit for polynomial feasibility and optimization.

Everything here computes over the rationals or over simple radical
extensions Q[t]/(t^e - k); no floating point enters any verdict.  The
package provides:

- hardness-instance generators from 3-CNF formulas, with exact witnesses
  (`reductions`),
- named example systems with verified landmark points (`gadgets`),
- feasibility checking, relaxation, and short vertex certificates
  (`systems`, `certify`),
- rational solutions for separable cubic objectives over polytopes
  (`separable`),
- growth classification of polynomials along rays and rationalization of
  unbounded directions (`rays`),
- the numeric bound formulas tying them together (`bounds`).

The `polycert` console script exposes all of it with JSON I/O.  Import each
name from its module; the package itself exports only `__version__`.
"""

__version__ = "0.1.0"
