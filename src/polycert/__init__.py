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

The `polycert` console script exposes all of it with JSON I/O.
"""

from .ratcore import (
    AlgebraicElement,
    PRECISION_CAP_ENV,
    PrecisionCapError,
    Rat,
    encoding_size,
    encoding_size_vec,
    format_rat,
    parse_rat,
)
from .polyalg import Polynomial
from .systems import (
    Constraint,
    EQ0,
    GE0,
    LE0,
    PolySystem,
    Verdict,
    point_from_json,
    point_to_json,
    relax,
    verify,
    verify_alg,
)
from .bounds import (
    BoundReport,
    bound_report,
    box_bound,
    delta_bound,
    epsilon_inverse,
    lipschitz_constant,
    phi_bound,
)
from .linear import enumerate_vertices, linear_rows, recession_ray
from .reductions import (
    CnfFormula,
    brute_force_sat,
    build_cubic_system,
    build_np_hard_system,
    build_superopt_problem,
    build_unbounded_instance,
    extract_assignment,
    find_y_hat,
    parse_dimacs,
    unbounded_ray_witness,
    witness_always,
    witness_epsilon,
    witness_satisfiable,
)
from .gadgets import GADGET_BUILDERS, GadgetBundle, Landmark
from .separable import SeparableCubic, SolveResult, solve_separable
from .rays import (
    RayClass,
    classify_ray,
    quartic_counterexample,
    rationalize_unbounded_ray,
)
from .certify import Certificate, check_certificate, grid_certificate, sos_combine

__version__ = "0.1.0"

__all__ = [
    "AlgebraicElement",
    "BoundReport",
    "Certificate",
    "CnfFormula",
    "Constraint",
    "EQ0",
    "GADGET_BUILDERS",
    "GE0",
    "GadgetBundle",
    "LE0",
    "Landmark",
    "PRECISION_CAP_ENV",
    "PolySystem",
    "Polynomial",
    "PrecisionCapError",
    "Rat",
    "RayClass",
    "SeparableCubic",
    "SolveResult",
    "Verdict",
    "bound_report",
    "box_bound",
    "brute_force_sat",
    "build_cubic_system",
    "build_np_hard_system",
    "build_superopt_problem",
    "build_unbounded_instance",
    "check_certificate",
    "classify_ray",
    "delta_bound",
    "encoding_size",
    "encoding_size_vec",
    "enumerate_vertices",
    "epsilon_inverse",
    "extract_assignment",
    "find_y_hat",
    "format_rat",
    "grid_certificate",
    "linear_rows",
    "lipschitz_constant",
    "parse_dimacs",
    "parse_rat",
    "phi_bound",
    "point_from_json",
    "point_to_json",
    "quartic_counterexample",
    "rationalize_unbounded_ray",
    "recession_ray",
    "relax",
    "solve_separable",
    "sos_combine",
    "unbounded_ray_witness",
    "verify",
    "verify_alg",
    "witness_always",
    "witness_epsilon",
    "witness_satisfiable",
]
