"""Mutants that the tests must keep killing.

Each mutant is one exact text replacement in one file and the test ids that
must fail on it.  The script copies the repository to a temporary directory,
runs every named test once on the unmutated copy (they must pass), then
applies each mutant in turn and runs only its tests.  It fails when a mutant
survives, or when a mutant's old text no longer occurs exactly once in its
file: that mutant must then be restated or retired.

Known equivalent mutants are listed with their reason and are not run; only
their old text is checked.

    python tools/mutants.py
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "perfbench", "pyproject.toml")


@dataclass(frozen=True)
class Mutant:
    name: str
    path: str
    old: str
    new: str
    killers: tuple[str, ...]


LINEAR = "src/polycert/linear.py"
CLI = "src/polycert/cli.py"
GADGETS = "src/polycert/gadgets.py"
REDUCTIONS = "src/polycert/reductions.py"
RAYS = "src/polycert/rays.py"

MUTANTS = [
    Mutant(
        "edges reversed",
        LINEAR,
        "tuple(sorted((p.point, q.point)))",
        "tuple(sorted((p.point, q.point), reverse=True))",
        ("tests/test_linear.py::TestVertices::test_unit_square",),
    ),
    Mutant(
        "unbounded end not checked",
        LINEAR,
        'if any(end.status == "unbounded" for pair in pairs for end in pair) or (',
        "if (",
        ("tests/test_separable.py::TestSolver::test_unbounded_rejected",),
    ),
    Mutant(
        "no-nonzero-normal check removed",
        LINEAR,
        " or (not pairs and all(b >= 0 for _, b in rows))",
        "",
        ("tests/test_linear.py::TestVertices::test_plane_without_a_nonzero_normal",),
    ),
    Mutant(
        "one-point segments kept as edges",
        LINEAR,
        "[segment for segment in segments if segment[0] != segment[1]]",
        "list(segments)",
        ("tests/test_linear.py::TestVertices::test_row_tight_at_one_vertex_is_no_edge",),
    ),
    Mutant(
        "each row maximized one way only",
        LINEAR,
        "[lp.maximize((-a[1], a[0])), lp.maximize((a[1], -a[0]))]",
        "[lp.maximize((-a[1], a[0]))] * 2",
        ("tests/test_linear.py::TestVertices::test_unit_square",),
    ),
    Mutant(
        "Simplex type guard removed",
        LINEAR,
        "if not all(type(u) is int for t in self.T for u in t):",
        "if False:",
        ("tests/test_linear.py::TestSimplex::test_fraction_entry_is_refused",),
    ),
    Mutant(
        "cell vertex not scaled back by the cell width",
        LINEAR,
        "tuple(l + width * u for l, u in zip(lo, y))",
        "tuple(l + u for l, u in zip(lo, y))",
        ("tests/test_certify.py::TestWorkedExample::test_row_through_the_cell_moves_the_vertex",),
    ),
    Mutant(
        "cell row drop inverted",
        LINEAR,
        "if sum(max(u, 0) for u in a) > b]",
        "if sum(max(u, 0) for u in a) <= b]",
        ("tests/test_certify.py::TestWorkedExample::test_row_through_the_cell_moves_the_vertex",),
    ),
    Mutant(
        "shape flag cap removed",
        CLI,
        "if abs(value) >= 10 ** 4300:",
        "if False:",
        ("tests/test_cli.py::TestBounds::test_shape_flags_are_integer_literals[5000-digits]",),
    ),
    Mutant(
        "shape flags read with int",
        CLI,
        '_flag(_shape_int, f"--{key}"',
        '_flag(int, f"--{key}"',
        ("tests/test_cli.py::TestBounds::test_shape_flags_are_integer_literals[underscore]",),
    ),
    Mutant(
        "DIMACS header numbers not checked",
        REDUCTIONS,
        ' or not _DIMACS_INTS.fullmatch(f"{parts[2]} {parts[3]}")',
        "",
        ("tests/test_cli.py::TestReduce::test_dimacs_numbers_are_ascii_digits[header-underscore]",),
    ),
    Mutant(
        "DIMACS clause lines not checked",
        REDUCTIONS,
        "if not _DIMACS_INTS.fullmatch(line):",
        "if False:",
        ("tests/test_cli.py::TestReduce::test_dimacs_numbers_are_ascii_digits[literal-underscore]",),
    ),
    Mutant(
        "nonlinear polytope rows dropped again",
        RAYS,
        "if polytope.num_nonlinear:",
        "if False:",
        ("tests/test_cli.py::TestRay::test_rationalize_refuses_a_nonlinear_polytope_row",),
    ),
    Mutant(
        "recession cone built from the polytope's right sides",
        RAYS,
        "cone = [(a, 0) for a, _ in rows]",
        "cone = list(rows)",
        ("tests/test_rays.py::TestRationalize::test_cone_drops_the_right_side",),
    ),
    Mutant(
        "base point rounded by its floor alone",
        RAYS,
        "x = cell_lex_min(rows, [dyadic_floor(c, k) for c in x_bar], width)",
        "x = [dyadic_floor(c, k) for c in x_bar]",
        ("tests/test_cli.py::TestRay::test_rationalize_base_point_on_the_polytope_boundary",),
    ),
    Mutant(
        "socp corner never rational",
        GADGETS,
        "Fraction(r) if r * r == s else AlgebraicElement.root(2, s)",
        "AlgebraicElement.root(2, s)",
        ("tests/test_gadgets.py::TestSocp::test_rational_corner_when_sum_is_square",),
    ),
    Mutant(
        "ray --polytope accepted without --rationalize",
        CLI,
        "if args.polytope and args.rationalize is None:",
        "if False:",
        ("tests/test_cli.py::TestRay::test_polytope_without_rationalize_is_a_usage_error",),
    ),
]

# (name, path, old, new, reason): mutants that change no answer.
EQUIVALENT = [
    (
        "cell rows tight at a corner kept",
        LINEAR,
        "if sum(max(u, 0) for u in a) > b]",
        "if sum(max(u, 0) for u in a) >= b]",
        "a row whose largest a.y on the cell equals its right side holds on the "
        "whole cell; keeping it leaves the cell LP's feasible set as it was",
    ),
]


def run_tests(copy: Path, ids) -> int:
    env = dict(os.environ, PYTHONPATH=str(copy / "src"))
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *ids]
    return subprocess.run(cmd, cwd=copy, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL).returncode


def main() -> int:
    problems = []
    for name, path, old in [(m.name, m.path, m.old) for m in MUTANTS] + [e[:3] for e in EQUIVALENT]:
        count = (ROOT / path).read_text().count(old)
        if count != 1:
            problems.append(f"{name}: old text occurs {count} times in {path}; restate or retire it")
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp)
        for item in COPIED:
            src = ROOT / item
            if src.is_dir():
                shutil.copytree(src, copy / item, ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
            else:
                shutil.copy2(src, copy / item)
        killers = sorted({k for m in MUTANTS for k in m.killers})
        baseline_passes = run_tests(copy, killers) == 0
        if not baseline_passes:
            problems.append("the named tests do not all pass on the unmutated copy")
        for m in MUTANTS if baseline_passes else []:
            target = copy / m.path
            text = target.read_text()
            if text.count(m.old) != 1:
                continue  # reported above
            t0 = time.perf_counter()
            target.write_text(text.replace(m.old, m.new))
            try:
                code = run_tests(copy, m.killers)
            finally:
                target.write_text(text)
            verdict = "killed" if code == 1 else "SURVIVED" if code == 0 else f"pytest exit {code}"
            print(f"{verdict:>10}  {m.name}  ({time.perf_counter() - t0:.1f} s)")
            if verdict != "killed":
                problems.append(f"{m.name}: {verdict}")
    for name, *_, reason in EQUIVALENT:
        print(f"{'equivalent':>10}  {name}: {reason}")
    for problem in problems:
        print(f"FAIL: {problem}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
