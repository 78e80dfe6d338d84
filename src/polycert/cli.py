"""Command-line front end with JSON payloads and machine-readable exit codes.

Exit codes form a trichotomy so shell pipelines can tell "checked and false"
from "could not check": 0 = success or feasible; 1 = well-formed negative
verdict (infeasible, unsatisfiable, a refinement that reached its precision
cap, or a precondition of the mathematics not met); 2 = usage or I/O error.

Every payload is one JSON object on standard output; diagnostics go to
standard error.  Numbers inside payloads are "num/den" strings and every
verdict is computed in exact arithmetic; the report's "exact" flag documents
that no floating point was involved.  The environment variable
POLYCERT_PRECISION_CAP (integer bits) overrides the dyadic refinement cap.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from fractions import Fraction
from itertools import chain

from .ratcore import PRECISION_CAP_ENV, PrecisionCapError, format_int, json_chunks, json_text
from .ratcore import format_rat, parse_int, parse_rat, precision_cap
from .polyalg import Polynomial
from .systems import PolySystem, point_from_json, point_to_json, verify
from .bounds import bound_report
from .reductions import VARIANTS, brute_force_sat, parse_dimacs
from .gadgets import GADGET_BUILDERS, GADGET_DEFAULTS
from .separable import SeparableCubic, solve_separable
from .rays import classify_ray, rationalize_unbounded_ray
from .certify import check_certificate, grid_certificate


class UsageError(Exception):
    """Bad flags or unreadable input: exit code 2."""


class NegativeVerdict(Exception):
    """Well-formed negative outcome: exit code 1."""


# -- input and output -----------------------------------------------------


def _load(inputs: dict, key: str, path: str, parse, what: str):
    """Read the file at path once, record the digest of its bytes as
    inputs[key] and parse its UTF-8 text; an unreadable or malformed file is
    a usage error."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
        text = data.decode("utf-8")
    except (OSError, UnicodeDecodeError) as e:
        raise UsageError(f"cannot read {path}: {e}") from e
    inputs[key] = {"path": path, "sha256": hashlib.sha256(data).hexdigest()}
    del data  # the parse holds about twice the file size; not the bytes too
    try:
        return parse(text)
    except json.JSONDecodeError as e:
        raise UsageError(f"{path} is not valid JSON: {e}") from e
    except (AttributeError, KeyError, TypeError, ValueError, ZeroDivisionError) as e:
        raise UsageError(f"{path}: bad {what}: {e}") from e


def _json(from_json):
    """A parser of JSON text from a parser of the decoded object."""
    return lambda text: from_json(json.loads(text))


def _point_arg(data) -> list:
    """Accept a bare point object or a landmark object wrapping one."""
    if isinstance(data, dict) and "point" in data and "values" not in data:
        data = data["point"]
    if not isinstance(data, dict) or "values" not in data:
        raise UsageError("point file must contain a point object with 'values'")
    return point_from_json(data)


def _load_point(inputs: dict, key: str, path: str, num_vars: int) -> list:
    point = _load(inputs, key, path, _json(_point_arg), "point")
    if len(point) != num_vars:
        raise UsageError(f"{path}: point has {len(point)} coordinates, expected {num_vars}")
    return point


def _flag(parse, name: str, raw: str):
    """The value of a flag; a malformed one is a usage error echoing at most 40 characters."""
    try:
        return parse(raw)
    except (ValueError, ZeroDivisionError) as e:
        shown = raw if len(raw) <= 40 else raw[:37] + "..."
        raise UsageError(f"bad {name} value {shown!r}: {e}") from e


def _shape_int(text: str) -> int:
    """A `bounds` shape value.  The report echoes it as a JSON integer, so it
    stays under 4300 digits, the interpreter's default int-to-str limit."""
    value = parse_int(text)
    if abs(value) >= 10 ** 4300:
        raise ValueError("more than 4300 digits")
    return value


def _delta_flag(raw) -> int:
    delta = _flag(parse_int, "--delta", raw)
    if delta < 1:
        raise UsageError("--delta must be a positive integer")
    return delta


# Chunks are encoded, hashed and written in batches of at least this many
# characters, not one by one: a system file has a chunk per row.
_WRITE_BATCH = 1 << 16


def _batches(chunks, least: int):
    """The chunks joined into runs of at least `least` characters, encoded."""
    batch, size = [], 0
    for chunk in chunks:
        batch.append(chunk)
        size += len(chunk)
        if size >= least:
            yield "".join(batch).encode()
            batch, size = [], 0
    yield "".join(batch).encode()


def _write_json(path: str, payload) -> str:
    """Write json_chunks(payload), the compact JSON text, and a newline to
    path without holding the whole text, and return the sha256 of the bytes
    written."""
    digest = hashlib.sha256()
    try:
        with open(path, "wb") as fh:
            for data in _batches(chain(json_chunks(payload), ("\n",)), _WRITE_BATCH):
                digest.update(data)
                fh.write(data)
    except OSError as e:
        raise UsageError(f"cannot write {path}: {e}") from e
    return digest.hexdigest()


def _emit(outputs: dict, key: str, payload, path: str | None) -> None:
    """Write payload to path and report its digest, or inline it without a path."""
    if path:
        outputs[f"{key}_path"] = path
        outputs[f"{key}_sha256"] = _write_json(path, payload)
    else:
        outputs[key] = payload


def _check_precision_cap() -> None:
    """A malformed cap override is a usage error, caught before any work."""
    try:
        precision_cap()
    except ValueError as e:
        raise UsageError(f"{PRECISION_CAP_ENV} must be an integer number of bits: {e}") from e


# -- subcommand handlers --------------------------------------------------


def _cmd_verify(args, inputs: dict) -> tuple[int, dict]:
    sys_ = _load(inputs, "system", args.system, _json(PolySystem.from_json), "system")
    point = _load_point(inputs, "point", args.point, sys_.num_vars)
    v = verify(sys_, point)
    if not v.feasible:
        print(f"point violates rows {list(v.violated)}", file=sys.stderr)
    return (0 if v.feasible else 1), {"verdict": v.to_json()}


def _cmd_certify(args, inputs: dict) -> tuple[int, dict]:
    delta = None if args.delta == "paper" else _delta_flag(args.delta)
    big_m = _flag(parse_rat, "--big-m", args.big_m) if args.big_m else None
    lip = _flag(parse_rat, "--lipschitz", args.lipschitz) if args.lipschitz else None
    sys_ = _load(inputs, "system", args.system, _json(PolySystem.from_json), "system")
    x_tilde = _load_point(inputs, "point", args.point, sys_.num_vars)
    inputs["delta"] = args.delta
    cert = grid_certificate(sys_, delta, x_tilde, M=big_m, L=lip)
    return 0, {"certificate": cert.to_json(), "check": cert.check.to_json()}


def _cmd_check(args, inputs: dict) -> tuple[int, dict]:
    delta = _delta_flag(args.delta)
    sys_ = _load(inputs, "system", args.system, _json(PolySystem.from_json), "system")
    x_bar = _load_point(inputs, "point", args.point, sys_.num_vars)
    inputs["delta"] = args.delta
    v = check_certificate(sys_, delta, x_bar)
    if not v.feasible:
        print(f"relaxed system violated at rows {list(v.violated)}", file=sys.stderr)
    return (0 if v.feasible else 1), {"verdict": v.to_json()}


def _cmd_gadget(args, inputs: dict) -> tuple[int, dict]:
    defaults = GADGET_DEFAULTS[args.name]
    params = dict(defaults)
    for raw in args.param or []:
        key, sep, val = raw.partition("=")
        if not sep or key not in defaults:
            allowed = ", ".join(sorted(defaults)) or "none"
            raise UsageError(
                f"bad --param {raw!r}; gadget {args.name} takes: {allowed}"
            )
        parse = parse_rat if isinstance(defaults[key], Fraction) else parse_int
        params[key] = _flag(parse, f"--param {key}", val)
    inputs["name"] = args.name
    inputs["params"] = {k: format_int(v) if isinstance(v, int) else format_rat(v) for k, v in sorted(params.items())}
    bundle = GADGET_BUILDERS[args.name](**params)
    outputs: dict = {"notes": list(bundle.notes)}
    _emit(outputs, "system", bundle.system.to_json(), args.out)
    _emit(outputs, "landmarks", [lm.to_json() for lm in bundle.landmarks], args.landmarks)
    return 0, outputs


def _cmd_reduce(args, inputs: dict) -> tuple[int, dict]:
    cnf = _load(inputs, "cnf", args.cnf, parse_dimacs, "DIMACS CNF")
    inputs["variant"] = args.variant
    variant = VARIANTS[args.variant]
    mode, witness_args, assignment = None, (), None
    if args.witness:
        inputs["witness"] = args.witness
        mode, _, eps = args.witness.partition(":")
        if args.witness not in ("sat", "always") and not args.witness.startswith("eps:"):
            raise UsageError("--witness takes one of: sat, always, eps:<rat>")
        if mode not in variant:
            applies = ", ".join(name for name, v in VARIANTS.items() if mode in v)
            raise UsageError(f"--witness {mode} applies to variants {applies}")
        if mode == "eps":
            witness_args = (_flag(parse_rat, "epsilon", eps),)
        elif mode == "sat":
            assignment = brute_force_sat(cnf)
            if assignment is None:
                raise NegativeVerdict(
                    "formula is unsatisfiable: witness requires a satisfying assignment"
                )
            witness_args = (assignment,)
    sys_, objective = variant["build"](cnf)
    witness = variant[mode](cnf, *witness_args) if mode else None
    outputs: dict = {"num_vars": sys_.num_vars, "num_rows": len(sys_.constraints)}
    _emit(outputs, "system", sys_.to_json(), args.out)
    if objective is not None:
        outputs["objective"] = objective.to_json()
    if witness is not None:
        outputs["witness"] = point_to_json(witness)
        outputs["witness_verdict"] = verify(sys_, witness).to_json()
    if assignment is not None:
        outputs["assignment"] = "".join("1" if b else "0" for b in assignment)
    return 0, outputs


def _cmd_separable(args, inputs: dict) -> tuple[int, dict]:
    sys_ = _load(inputs, "system", args.system, _json(PolySystem.from_json), "system")
    sc = _load(inputs, "cubic", args.cubic, _json(SeparableCubic.from_json), "separable cubic")
    res = solve_separable(sc, sys_)
    out = res.to_json()
    if not res.feasible:
        print(f"verdict: {out['status']}", file=sys.stderr)
    return (0 if res.feasible else 1), out


def _cmd_ray(args, inputs: dict) -> tuple[int, dict]:
    if args.polytope and args.rationalize is None:
        raise UsageError("--polytope applies only with --rationalize")
    eps = _flag(parse_rat, "--rationalize", args.rationalize) if args.rationalize is not None else None
    f = _load(inputs, "poly", args.poly, _json(Polynomial.from_json), "polynomial")
    x0 = _load_point(inputs, "from", args.from_, f.num_vars)
    v = _load_point(inputs, "dir", args.dir, f.num_vars)
    polytope = None
    if args.polytope:
        polytope = _load(inputs, "polytope", args.polytope, _json(PolySystem.from_json), "system")
        if polytope.num_vars != f.num_vars:
            raise UsageError(f"{args.polytope}: polytope has {polytope.num_vars} variables, expected {f.num_vars}")
    if eps is None:
        return 0, {"classification": classify_ray(f, x0, v).to_json()}
    inputs["rationalize"] = args.rationalize
    x, v2 = rationalize_unbounded_ray(f, x0, v, polytope, eps)
    return 0, {
        "point": point_to_json(x),
        "direction": point_to_json(v2),
        "classification": classify_ray(f, x, v2).to_json(),
    }


def _cmd_bounds(args, inputs: dict) -> tuple[int, dict]:
    shape = {key: _flag(_shape_int, f"--{key}", getattr(args, key)) for key in ("n", "m", "ell", "d", "H")}
    inputs.update(shape, loose=args.loose)
    report = bound_report(**shape, loose=args.loose)
    return 0, {"bounds": report.to_json()}


# -- parser and entry point ------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polycert",
        description="Exact instance generators, feasibility certificates, "
        "separable cubic solutions, and ray classification.",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("reduce", help="generate a hardness instance from a 3-CNF formula")
    p.add_argument("--cnf", required=True, help="DIMACS CNF file (3 literals per clause)")
    p.add_argument("--variant", required=True, choices=list(VARIANTS))
    p.add_argument("--out", help="write the system JSON here instead of inlining it")
    p.add_argument(
        "--witness",
        help="attach a witness: 'sat' (finds a satisfying assignment), "
        "'always', or 'eps:<rat>' for the superopt variant",
    )
    p.set_defaults(handler=_cmd_reduce)

    p = sub.add_parser("verify", help="exact feasibility check of a point")
    p.add_argument("--system", required=True)
    p.add_argument("--point", required=True)
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser("certify", help="build a vertex certificate for the relaxed system")
    p.add_argument("--system", required=True, help="linear rows plus nonlinear <= 0 rows")
    p.add_argument("--point", required=True, help="exactly feasible point x~")
    p.add_argument("--delta", required=True, help="positive integer, or 'paper' for the derived bound")
    p.add_argument("--big-m", dest="big_m", help="override the box bound M (rational)")
    p.add_argument("--lipschitz", help="override the Lipschitz constant L (rational)")
    p.set_defaults(handler=_cmd_certify)

    p = sub.add_parser("check", help="verify a point against the delta-relaxed system")
    p.add_argument("--system", required=True)
    p.add_argument("--delta", required=True)
    p.add_argument("--point", required=True)
    p.set_defaults(handler=_cmd_check)

    p = sub.add_parser("gadget", help="emit a named example system with landmark points")
    p.add_argument("--name", required=True, choices=sorted(GADGET_BUILDERS))
    takes = "; ".join(f"{name}: {','.join(params)}" for name, params in GADGET_DEFAULTS.items())
    p.add_argument("--param", action="append", help=f"key=value, repeatable ({takes})")
    p.add_argument("--out", help="write the system JSON here")
    p.add_argument("--landmarks", help="write the landmark list here")
    p.set_defaults(handler=_cmd_gadget)

    p = sub.add_parser("separable", help="rational solution of a separable cubic over a polytope")
    p.add_argument("--system", required=True, help="linear constraint system JSON")
    p.add_argument("--cubic", required=True, help="separable cubic JSON")
    p.set_defaults(handler=_cmd_separable)

    p = sub.add_parser("ray", help="classify polynomial growth along a ray")
    p.add_argument("--poly", required=True)
    p.add_argument("--from", dest="from_", required=True, help="base point JSON")
    p.add_argument("--dir", required=True, help="direction JSON")
    p.add_argument("--polytope", help="with --rationalize: keep the point in this polyhedron, the direction in its cone")
    p.add_argument("--rationalize", metavar="EPS", help="round an algebraic ray to rationals")
    p.set_defaults(handler=_cmd_ray)

    p = sub.add_parser("bounds", help="numeric bound report for an instance shape")
    p.add_argument("--n", required=True, help="variables")
    p.add_argument("--m", required=True, help="constraints")
    p.add_argument("--ell", required=True, help="nonlinear rows")
    p.add_argument("--d", required=True, help="max degree")
    p.add_argument("--H", required=True, help="max height")
    p.add_argument("--loose", action="store_true", help="use the simplified power-of-two bound")
    p.set_defaults(handler=_cmd_bounds)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 0 if not e.code else 2
    t0 = time.perf_counter()
    inputs: dict = {}
    try:
        _check_precision_cap()
        code, outputs = args.handler(args, inputs)
    except UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (NegativeVerdict, PrecisionCapError, ValueError) as e:
        print(str(e), file=sys.stderr)
        code, outputs = 1, {"error": str(e)}
    report = {
        "subcommand": args.cmd,
        "inputs": inputs,
        "outputs": outputs,
        "timing_ms": int((time.perf_counter() - t0) * 1000),
        "exact": True,
    }
    sys.stdout.write(json_text(report))
    print()
    return code


if __name__ == "__main__":
    sys.exit(main())
