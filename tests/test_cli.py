"""End-to-end tests for the command line interface.

Every test drives ``main(argv)`` and inspects the JSON run report on
stdout, the diagnostics on stderr, and the exit code.  Most call it
directly; a test that bounds a run's time calls it in a subprocess.
"""

import decimal
import hashlib
import json
import math
import os
import random
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction as F
from pathlib import Path

import pytest

from polycert import certify, cli
from polycert.bounds import delta_bound
from polycert.cli import main
from polycert.polyalg import Polynomial
from polycert.reductions import CnfFormula, build_np_hard_system
from polycert.systems import LE0, PolySystem, point_from_json, point_to_json
from polycert.ratcore import AlgebraicElement, format_rat, integer_nth_root, parse_rat

TWO_CLAUSE = "p cnf 3 2\n1 -2 3 0\n-1 2 3 0\n"
UNSAT_8 = "p cnf 3 8\n" + "\n".join(
    f"{s1}1 {s2}2 {s3}3 0" for s1 in ("", "-") for s2 in ("", "-") for s3 in ("", "-")
) + "\n"


def run(capsys, argv):
    """Invoke the CLI and return (exit code, parsed report or None, stderr)."""
    code = main(argv)
    captured = capsys.readouterr()
    report = json.loads(captured.out) if captured.out.strip() else None
    return code, report, captured.err


def write_json(path, payload):
    path.write_text(json.dumps(payload, indent=2) + "\n")
    return str(path)


def unit_box_with_disc(tmp_path):
    """A [0,1]^2 box plus one nonlinear row 2x^2 + 2y^2 - 1 <= 0."""
    rows = []
    for i in range(2):
        rows.append((-Polynomial.variable(2, i), LE0))
        rows.append((Polynomial.variable(2, i) - 1, LE0))
    disc = Polynomial(2, {(2, 0): F(2), (0, 2): F(2), (0, 0): F(-1)})
    rows.append((disc, LE0))
    sys_ = PolySystem(2, rows)
    return write_json(tmp_path / "system.json", sys_.to_json())


class TestReportShape:
    def test_report_envelope(self, capsys, tmp_path):
        path = unit_box_with_disc(tmp_path)
        pt = write_json(tmp_path / "pt.json", point_to_json([F(1, 3), F(1, 3)]))
        code, report, _ = run(capsys, ["verify", "--system", path, "--point", pt])
        assert code == 0
        assert set(report) == {"subcommand", "inputs", "outputs", "timing_ms", "exact"}
        assert report["subcommand"] == "verify"
        assert report["exact"] is True
        assert isinstance(report["timing_ms"], int)
        digest = report["inputs"]["system"]
        assert digest["path"] == path
        assert len(digest["sha256"]) == 64

    def test_deterministic_apart_from_timing(self, capsys):
        code1, rep1, _ = run(capsys, ["gadget", "--name", "h"])
        code2, rep2, _ = run(capsys, ["gadget", "--name", "h"])
        assert code1 == code2 == 0
        rep1.pop("timing_ms")
        rep2.pop("timing_ms")
        assert rep1 == rep2


class TestVerify:
    def test_feasible_point_exits_zero(self, capsys, tmp_path):
        path = unit_box_with_disc(tmp_path)
        pt = write_json(tmp_path / "pt.json", point_to_json([F(1, 3), F(1, 3)]))
        code, report, err = run(capsys, ["verify", "--system", path, "--point", pt])
        assert code == 0
        assert report["outputs"]["verdict"]["feasible"] is True
        assert err == ""

    def test_violating_point_exits_one_and_names_rows(self, capsys, tmp_path):
        path = unit_box_with_disc(tmp_path)
        pt = write_json(tmp_path / "pt.json", point_to_json([F(2), F(0)]))
        code, report, err = run(capsys, ["verify", "--system", path, "--point", pt])
        assert code == 1
        assert report["outputs"]["verdict"]["feasible"] is False
        assert "point violates rows" in err

    def test_landmark_file_is_accepted_as_point(self, capsys, tmp_path):
        path = unit_box_with_disc(tmp_path)
        wrapped = {"name": "seed", "point": point_to_json([F(0), F(2)])}
        pt = write_json(tmp_path / "lm.json", wrapped)
        code, report, err = run(capsys, ["verify", "--system", path, "--point", pt])
        assert code == 1  # upper box row for x2 is violated
        assert 3 in report["outputs"]["verdict"]["violated"]

    def test_algebraic_point_verifies_in_extension_field(self, capsys, tmp_path):
        rows = [(Polynomial(1, {(2,): F(1), (0,): F(-2)}), LE0)]
        path = write_json(tmp_path / "s.json", PolySystem(1, rows).to_json())
        pt = write_json(
            tmp_path / "p.json", point_to_json([AlgebraicElement.root(2, 2)])
        )
        code, report, _ = run(capsys, ["verify", "--system", path, "--point", pt])
        assert code == 0
        assert report["outputs"]["verdict"]["feasible"] is True


class TestUsageErrors:
    def test_unknown_subcommand(self, capsys):
        code, report, _ = run(capsys, ["frobnicate"])
        assert code == 2
        assert report is None

    def test_no_arguments(self, capsys):
        code, report, _ = run(capsys, [])
        assert code == 2
        assert report is None

    def test_missing_file_prints_error_without_report(self, capsys, tmp_path):
        pt = write_json(tmp_path / "pt.json", point_to_json([F(0)]))
        code, report, err = run(
            capsys, ["verify", "--system", str(tmp_path / "nope.json"), "--point", pt]
        )
        assert code == 2
        assert report is None
        assert err.startswith("error:")

    def test_malformed_json_is_a_usage_error(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        pt = write_json(tmp_path / "pt.json", point_to_json([F(0)]))
        code, report, err = run(capsys, ["verify", "--system", str(bad), "--point", pt])
        assert code == 2
        assert report is None
        assert "not valid JSON" in err

    def test_point_file_without_values_is_rejected(self, capsys, tmp_path):
        path = unit_box_with_disc(tmp_path)
        pt = write_json(tmp_path / "pt.json", {"coords": ["1/2"]})
        code, report, err = run(capsys, ["verify", "--system", path, "--point", pt])
        assert code == 2
        assert report is None
        assert "point object" in err


MALFORMED = {
    "system": {
        "no-constraints": {"version": 1, "n": 2, "var_names": ["x1", "x2"]},
        "version-7": {"version": 7, "n": 2, "var_names": ["x1", "x2"], "constraints": []},
        "not-an-object": [1, 2],
    },
    "point": {
        "zero-denominator": {"values": ["1/0", "0"]},
        "wrong-length": {"values": ["0", "0", "0"]},
        "not-a-number": {"values": ["abc", "0"]},
        "fractional-field-degree": {"e": 2.9, "k": 2, "values": [["0", "1"], ["0", "1"]]},
        "string-radicand": {"e": 2, "k": "2", "values": [["0", "1"], ["0", "1"]]},
    },
    "poly": {
        "no-n": {"terms": []},
        "zero-denominator": {"n": 2, "terms": [{"exps": [1, 0], "coef": "1/0"}]},
        "fractional-exponent": {"n": 2, "terms": [{"exps": [1.5, 0], "coef": "1"}]},
        "string-exponent": {"n": 2, "terms": [{"exps": ["2", 0], "coef": "1"}]},
        "boolean-exponent": {"n": 2, "terms": [{"exps": [True, False], "coef": "1"}]},
    },
    "cubic": {
        "no-coeffs": {"rows": []},
        "zero-denominator": {"coeffs": [["1/0", "0", "0", "0"], ["1", "0", "0", "0"]]},
        "float-coefficient": {"coeffs": [["1", "0", "-6", 0.1], ["1", "0", "-6", "5"]]},
        "n-mismatch": {"n": 3, "coeffs": [["1", "0", "-6", "5"], ["1", "0", "-6", "5"]]},
    },
}

SUBCOMMAND_FILES = {
    "verify": ["--system", "{system}", "--point", "{point}"],
    "certify": ["--system", "{system}", "--point", "{point}", "--delta", "10"],
    "check": ["--system", "{system}", "--delta", "10", "--point", "{point}"],
    "separable": ["--system", "{system}", "--cubic", "{cubic}"],
    "ray": ["--poly", "{poly}", "--from", "{point}", "--dir", "{point}"],
}


class TestMalformedInput:
    """Every subcommand x every malformed file it reads: exit 2, no report."""

    @pytest.mark.parametrize(
        "cmd, slot, kind",
        [
            (cmd, slot, kind)
            for cmd, argv in SUBCOMMAND_FILES.items()
            for slot in MALFORMED
            if "{%s}" % slot in argv
            for kind in MALFORMED[slot]
        ],
    )
    def test_malformed_file_is_a_usage_error(self, capsys, tmp_path, cmd, slot, kind):
        files = {
            "system": unit_box_with_disc(tmp_path),
            "point": write_json(tmp_path / "pt.json", point_to_json([F(1, 3), F(1, 3)])),
            "poly": write_json(tmp_path / "f.json", Polynomial.variable(2, 0).to_json()),
            "cubic": write_json(tmp_path / "cubic.json", {"coeffs": [["1", "0", "-6", "5"]] * 2}),
        }
        files[slot] = write_json(tmp_path / "bad.json", MALFORMED[slot][kind])
        code, report, err = run(capsys, [cmd] + [a.format(**files) for a in SUBCOMMAND_FILES[cmd]])
        assert code == 2
        assert report is None
        assert err.startswith("error:") and "bad.json" in err

    def test_boolean_exponents_are_a_usage_error(self, capsys, tmp_path):
        """JSON integers only: x1 - 4 <= 0 with x1 written as [true, false]
        is refused, not verified at (3, 0) with residual -1."""
        row = {"n": 2, "terms": [{"exps": [True, False], "coef": "1"}, {"exps": [0, 0], "coef": "-4"}]}
        system = {"version": 1, "n": 2, "var_names": ["x1", "x2"],
                  "constraints": [{"poly": row, "rel": "LE0", "tag": "linear"}]}
        path = write_json(tmp_path / "bool.json", system)
        pt = write_json(tmp_path / "pt.json", point_to_json([F(3), F(0)]))
        code, report, err = run(capsys, ["verify", "--system", path, "--point", pt])
        assert code == 2
        assert report is None
        assert "bool.json" in err and "True" in err

    def test_polytope_of_another_dimension_is_a_usage_error(self, capsys, tmp_path):
        poly = write_json(tmp_path / "f.json", Polynomial.variable(2, 0).to_json())
        pt = write_json(tmp_path / "pt.json", point_to_json([F(0), F(1)]))
        box = write_json(tmp_path / "box.json", PolySystem(1, [(-Polynomial.variable(1, 0), LE0)]).to_json())
        code, report, err = run(
            capsys, ["ray", "--poly", poly, "--from", pt, "--dir", pt, "--polytope", box, "--rationalize", "1/10"]
        )
        assert code == 2
        assert report is None
        assert "box.json" in err


class TestGadget:
    def test_system_and_landmarks_inline_by_default(self, capsys):
        code, report, _ = run(capsys, ["gadget", "--name", "socp"])
        assert code == 0
        out = report["outputs"]
        sys_ = PolySystem.from_json(out["system"])
        assert sys_.num_vars == 4
        assert len(sys_.constraints) == 6
        names = [lm["name"] for lm in out["landmarks"]]
        assert "corner" in names
        assert report["inputs"]["name"] == "socp"

    def test_socp_past_the_squarefree_bound_is_refused_quickly(self):
        """a^2 + b^2 = 2^104 + 1 is past squarefree_split's 2^60: exit 1 at
        once, where trial division to the square root ran without bound."""
        b, c = 2 ** 52, 2 ** 103
        src = str(Path(cli.__file__).resolve().parents[1])
        proc = subprocess.run(
            [sys.executable, "-c", "import sys; from polycert.cli import main; sys.exit(main(sys.argv[1:]))",
             "gadget", "--name", "socp", "--param", "a=1", "--param", f"b={b}",
             "--param", f"c={c}", "--param", f"d={c + 1}"],
            capture_output=True, text=True, timeout=20,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert proc.returncode == 1, proc.stderr
        assert "2^60" in json.loads(proc.stdout)["outputs"]["error"]

    def test_out_files_round_trip_canonically(self, capsys, tmp_path):
        sys_path = tmp_path / "sys.json"
        lm_path = tmp_path / "lms.json"
        code, report, _ = run(
            capsys,
            [
                "gadget", "--name", "badboy", "--param", "N=3",
                "--out", str(sys_path), "--landmarks", str(lm_path),
            ],
        )
        assert code == 0
        out = report["outputs"]
        assert out["system_path"] == str(sys_path)
        on_disk = json.loads(sys_path.read_text())
        reparsed = PolySystem.from_json(on_disk)
        assert reparsed.to_json() == on_disk
        assert "system" not in out
        lms = json.loads(lm_path.read_text())
        assert any(lm["name"] == "near_feasible" for lm in lms)

    def test_param_changes_shape(self, capsys):
        code, report, _ = run(capsys, ["gadget", "--name", "tiny", "--param", "n=5"])
        assert code == 0
        sys_ = PolySystem.from_json(report["outputs"]["system"])
        assert sys_.num_vars == 6
        assert len(sys_.constraints) == 12
        assert report["inputs"]["params"] == {"n": "5"}

    def test_unknown_param_is_usage_error(self, capsys):
        code, report, err = run(capsys, ["gadget", "--name", "tiny", "--param", "m=5"])
        assert code == 2
        assert report is None
        assert "error:" in err

    def test_bad_param_value_is_usage_error(self, capsys):
        code, report, _ = run(capsys, ["gadget", "--name", "tiny", "--param", "n=two"])
        assert code == 2
        assert report is None

    def test_integer_params_take_the_literal_grammar(self, capsys):
        code, report, _ = run(capsys, ["gadget", "--name", "tiny", "--param", "n= +05"])
        assert code == 0
        assert report["inputs"]["params"] == {"n": "5"}
        code, report, err = run(capsys, ["gadget", "--name", "tiny", "--param", "n=1_0"])
        assert code == 2
        assert report is None
        assert "ASCII digits" in err

    @pytest.mark.parametrize("name, param, reason", [("socp", "a", "not a Pythagorean quadruple"), ("tiny", "n", "needs integers of 2^1000")])
    def test_integer_param_past_the_digit_limit_is_a_negative_outcome(self, capsys, name, param, reason):
        big = "1" + "0" * 5000
        code, report, _ = run(capsys, ["gadget", "--name", name, "--param", f"{param}={big}"])
        assert code == 1
        assert report["inputs"]["params"][param] == big
        assert reason in report["outputs"]["error"]

    def test_unknown_gadget_name_rejected_by_parser(self, capsys):
        code, report, _ = run(capsys, ["gadget", "--name", "mystery"])
        assert code == 2
        assert report is None

    @pytest.mark.parametrize(
        "name,param,value",
        [("tiny", "n=14", F(1, 2 ** 2 ** 14)), ("khachiyan", "n=15", F(2 ** 2 ** 14))],
    )
    def test_values_past_int_str_digit_limit_are_written_exactly(self, capsys, name, param, value):
        code, report, _ = run(capsys, ["gadget", "--name", name, "--param", param])
        assert code == 0
        written = [v for lm in report["outputs"]["landmarks"] for v in lm["point"]["values"]]
        num, den = (decimal.Decimal(value.numerator), decimal.Decimal(value.denominator))
        assert f"{num}/{den}" in written

    def test_sigma_param_takes_a_fraction(self, capsys):
        code, report, _ = run(
            capsys, ["gadget", "--name", "unlucky", "--param", "sigma=1/2"]
        )
        assert code == 0
        lms = report["outputs"]["landmarks"]
        star = next(lm for lm in lms if lm["name"] == "z_star")
        assert star["expect_feasible"] is False
        assert star["expect_worst"] == "1/2"
        assert report["inputs"]["params"] == {"sigma": "1/2"}
        # rational params echo as "num/den" even when integer-valued
        code, report, _ = run(capsys, ["gadget", "--name", "h", "--param", "gamma=4/1"])
        assert code == 0
        assert report["inputs"]["params"] == {"gamma": "4/1"}
        code, report, _ = run(capsys, ["gadget", "--name", "h"])
        assert code == 0
        assert report["inputs"]["params"] == {"gamma": "0/1"}


class TestReduce:
    def test_quad_variant_with_sat_witness(self, capsys, tmp_path):
        cnf = tmp_path / "f.cnf"
        cnf.write_text(TWO_CLAUSE)
        sys_path = tmp_path / "sys.json"
        code, report, err = run(
            capsys,
            [
                "reduce", "--cnf", str(cnf), "--variant", "quad",
                "--witness", "sat", "--out", str(sys_path),
            ],
        )
        assert code == 0
        out = report["outputs"]
        assert out["num_vars"] == 16
        assert out["num_rows"] == 36
        assert out["assignment"] == "000"
        assert out["witness_verdict"]["feasible"] is True

        # the emitted artifacts feed straight back into verify
        pt_path = write_json(tmp_path / "w.json", out["witness"])
        code2, report2, _ = run(
            capsys, ["verify", "--system", str(sys_path), "--point", str(pt_path)]
        )
        assert code2 == 0
        assert report2["outputs"]["verdict"]["feasible"] is True

    def test_unsat_formula_fails_sat_witness_with_verdict(self, capsys, tmp_path):
        cnf = tmp_path / "u.cnf"
        cnf.write_text(UNSAT_8)
        code, report, err = run(
            capsys, ["reduce", "--cnf", str(cnf), "--variant", "quad", "--witness", "sat"]
        )
        assert code == 1
        assert "unsatisfiable" in err
        assert "unsatisfiable" in report["outputs"]["error"]

    def test_always_witness_ignores_satisfiability(self, capsys, tmp_path):
        cnf = tmp_path / "u.cnf"
        cnf.write_text(UNSAT_8)
        code, report, _ = run(
            capsys,
            ["reduce", "--cnf", str(cnf), "--variant", "quad", "--witness", "always"],
        )
        assert code == 0
        assert report["outputs"]["witness_verdict"]["feasible"] is True

    def test_always_witness_past_the_int_digit_limit(self, capsys, tmp_path):
        # at 14 variables s = 2^-(2^14) has more digits than str() of an int
        # allows, so no message along the way may format it, and verify must
        # read it back
        cnf = tmp_path / "f14.cnf"
        cnf.write_text("p cnf 14 2\n1 -2 3 0\n-4 5 14 0\n")
        sys_path = tmp_path / "sys.json"
        code, report, err = run(
            capsys,
            ["reduce", "--cnf", str(cnf), "--variant", "quad", "--witness", "always",
             "--out", str(sys_path)],
        )
        assert code == 0, err
        assert report["outputs"]["witness_verdict"]["feasible"] is True
        pt = write_json(tmp_path / "w.json", report["outputs"]["witness"])
        code, report, err = run(capsys, ["verify", "--system", str(sys_path), "--point", pt])
        assert code == 0, err
        assert report["outputs"]["verdict"]["feasible"] is True

    def test_cubic_variant_always_witness_is_algebraic(self, capsys, tmp_path):
        cnf = tmp_path / "f.cnf"
        cnf.write_text(TWO_CLAUSE)
        code, report, _ = run(
            capsys,
            ["reduce", "--cnf", str(cnf), "--variant", "cubic", "--witness", "always"],
        )
        assert code == 0
        out = report["outputs"]
        assert out["num_vars"] == 10
        assert out["witness"]["e"] == 3
        assert out["witness"]["k"] == 2
        assert out["witness_verdict"]["feasible"] is True
        point = point_from_json(out["witness"])
        assert isinstance(point[-1], AlgebraicElement)

    def test_superopt_eps_witness_reports_violation(self, capsys, tmp_path):
        cnf = tmp_path / "f.cnf"
        cnf.write_text(TWO_CLAUSE)
        code, report, _ = run(
            capsys,
            [
                "reduce", "--cnf", str(cnf), "--variant", "superopt",
                "--witness", "eps:1/100",
            ],
        )
        assert code == 0
        out = report["outputs"]
        assert out["num_vars"] == 16
        assert "objective" in out
        verdict = out["witness_verdict"]
        assert verdict["feasible"] is False
        assert verdict["violated"] == [33]
        assert F(verdict["worst_violation"]) == F(211695, 2**48)

    def test_unbounded_variant_emits_objective(self, capsys, tmp_path):
        cnf = tmp_path / "f.cnf"
        cnf.write_text(TWO_CLAUSE)
        code, report, _ = run(
            capsys, ["reduce", "--cnf", str(cnf), "--variant", "unbounded"]
        )
        assert code == 0
        out = report["outputs"]
        assert out["num_rows"] == 26
        obj = Polynomial.from_json(out["objective"])
        assert obj.degree() == 3

    def test_eps_witness_outside_superopt_is_usage_error(self, capsys, tmp_path):
        cnf = tmp_path / "f.cnf"
        cnf.write_text(TWO_CLAUSE)
        code, report, _ = run(
            capsys,
            ["reduce", "--cnf", str(cnf), "--variant", "quad", "--witness", "eps:1/100"],
        )
        assert code == 2
        assert report is None

    def test_always_witness_outside_quad_cubic_is_usage_error(self, capsys, tmp_path):
        cnf = tmp_path / "f.cnf"
        cnf.write_text(TWO_CLAUSE)
        code, report, err = run(
            capsys,
            ["reduce", "--cnf", str(cnf), "--variant", "superopt", "--witness", "always"],
        )
        assert code == 2
        assert report is None
        assert "always" in err

    def test_unknown_witness_kind_is_usage_error(self, capsys, tmp_path):
        cnf = tmp_path / "f.cnf"
        cnf.write_text(TWO_CLAUSE)
        code, report, _ = run(
            capsys,
            ["reduce", "--cnf", str(cnf), "--variant", "quad", "--witness", "maybe"],
        )
        assert code == 2
        assert report is None

    @pytest.mark.parametrize(
        "text",
        ["p cnf 1_0 1\n1 2 3 0\n", "p cnf 3 1\n1 2 \u0663 0\n", "p cnf 30 1\n1 -2 3_0 0\n", "p cnf 3 x\n1 2 3 0\n"],
        ids=["header-underscore", "arabic-digit", "literal-underscore", "clause-count"],
    )
    def test_dimacs_numbers_are_ascii_digits(self, capsys, tmp_path, text):
        cnf = tmp_path / "f.cnf"
        cnf.write_text(text, encoding="utf-8")
        code, report, err = run(capsys, ["reduce", "--cnf", str(cnf), "--variant", "quad"])
        assert code == 2
        assert report is None
        assert "bad DIMACS CNF" in err

    def test_bad_dimacs_is_usage_error(self, capsys, tmp_path):
        cnf = tmp_path / "f.cnf"
        cnf.write_text("p cnf 3 1\n1 2 0\n")
        code, report, err = run(
            capsys, ["reduce", "--cnf", str(cnf), "--variant", "quad"]
        )
        assert code == 2
        assert report is None
        assert str(cnf) in err


def _writer_argv(tmp_path, builder: str, n: int) -> list[str]:
    """The argv that writes the builder's output at size n to tmp_path."""
    sys_path = str(tmp_path / "sys.json")
    if builder == "quad":
        cnf = tmp_path / "f.cnf"
        cnf.write_text(f"p cnf {n} 1\n1 -2 {n} 0\n")
        return ["reduce", "--cnf", str(cnf), "--variant", "quad", "--witness", "always", "--out", sys_path]
    param = "N" if builder == "badboy" else "n"
    return ["gadget", "--name", builder, "--param", f"{param}={n}", "--out", sys_path,
            "--landmarks", str(tmp_path / "lms.json")]


class TestWriterReaderAgree:
    """Each builder whose integers grow as 2^(2^n) refuses, with exit 1, the
    first size whose file parse_rat could not read back (2^18 + 1 bits);
    one size below, what it writes goes back through verify."""

    @pytest.mark.parametrize("builder, refused", [("tiny", 18), ("khachiyan", 19), ("badboy", 18), ("quad", 17)])
    def test_refused_at_the_threshold_and_read_back_below(self, capsys, tmp_path, builder, refused):
        code, report, err = run(capsys, _writer_argv(tmp_path, builder, refused))
        assert code == 1
        assert "needs integers of 2^18 + 1 bits" in report["outputs"]["error"], err
        assert not (tmp_path / "sys.json").exists()

        code, report, err = run(capsys, _writer_argv(tmp_path, builder, refused - 1))
        assert code == 0, err
        sys_path = str(tmp_path / "sys.json")
        if builder == "quad":
            points = [(report["outputs"]["witness"], True)]
        else:
            lms = json.loads((tmp_path / "lms.json").read_text())
            assert all(parse_rat(lm["expect_worst"]) >= 0 for lm in lms)
            points = [(lm["point"], lm["expect_feasible"]) for lm in lms]
        for point, feasible in points:
            pt = write_json(tmp_path / "pt.json", point)
            code, report, err = run(capsys, ["verify", "--system", sys_path, "--point", pt])
            assert code == (0 if feasible else 1), err


class TestCertifyAndCheck:
    def test_pipeline_certify_then_check(self, capsys, tmp_path):
        path = unit_box_with_disc(tmp_path)
        pt = write_json(tmp_path / "pt.json", point_to_json([F(1, 3), F(1, 3)]))
        code, report, _ = run(
            capsys,
            [
                "certify", "--system", path, "--point", pt,
                "--delta", "10", "--big-m", "1", "--lipschitz", "4",
            ],
        )
        assert code == 0
        cert = report["outputs"]["certificate"]
        assert cert["phi"] == "40"
        assert cert["point"]["values"] == ["13/40", "13/40"]
        assert cert["box_index"] == ["13", "13"]
        assert report["outputs"]["check"]["feasible"] is True

        xbar = write_json(tmp_path / "xbar.json", cert["point"])
        code2, report2, _ = run(
            capsys, ["check", "--system", path, "--delta", "10", "--point", xbar]
        )
        assert code2 == 0
        assert report2["outputs"]["verdict"]["feasible"] is True

    def test_default_bounds_pick_the_worked_values(self, capsys, tmp_path):
        path = unit_box_with_disc(tmp_path)
        pt = write_json(tmp_path / "pt.json", point_to_json([F(1, 3), F(1, 3)]))
        code, report, _ = run(
            capsys, ["certify", "--system", path, "--point", pt, "--delta", "10"]
        )
        assert code == 0
        cert = report["outputs"]["certificate"]
        assert cert["phi"] == "320"
        assert cert["point"]["values"] == ["53/160", "53/160"]

    def test_delta_paper_uses_instance_shape_bound(self, capsys, tmp_path):
        path = unit_box_with_disc(tmp_path)
        pt = write_json(tmp_path / "pt.json", point_to_json([F(1, 3), F(1, 3)]))
        code, report, _ = run(
            capsys, ["certify", "--system", path, "--point", pt, "--delta", "paper"]
        )
        assert code == 0
        cert = report["outputs"]["certificate"]
        assert int(cert["delta_used"]) > 10**9
        assert report["outputs"]["check"]["feasible"] is True

    def test_delta_paper_checks_scope_before_computing_delta(self, capsys, tmp_path, monkeypatch):
        # 16 variables of degree 2: the paper delta would have ~10^12 bits
        cnf = tmp_path / "f.cnf"
        cnf.write_text(TWO_CLAUSE)
        out = tmp_path / "superopt.json"
        code, _, _ = run(capsys, ["reduce", "--cnf", str(cnf), "--variant", "superopt", "--out", str(out)])
        assert code == 0

        def refuse(*args):
            raise AssertionError("delta_bound called on an out-of-scope system")

        monkeypatch.setattr(certify, "delta_bound", refuse)
        pt = write_json(tmp_path / "pt.json", point_to_json([F(0)] * 16))
        code, report, _ = run(capsys, ["certify", "--system", str(out), "--point", pt, "--delta", "paper"])
        assert code == 1
        assert "n <= 3" in report["outputs"]["error"]

    def test_delta_paper_past_the_digit_limit_round_trips(self, capsys, tmp_path):
        """The unit box in three variables with x1^4 - 1 <= 0: the paper delta
        and the cell index both pass 4300 digits, the report writes them as
        strings, and check accepts delta_used back."""
        xs = Polynomial.variables(3)
        rows = [(-x, LE0) for x in xs] + [(x - 1, LE0) for x in xs] + [(xs[0] ** 4 - 1, LE0)]
        path = write_json(tmp_path / "system.json", PolySystem(3, rows).to_json())
        pt = write_json(tmp_path / "pt.json", point_to_json([F(1, 2)] * 3))
        code, report, err = run(capsys, ["certify", "--system", path, "--point", pt, "--delta", "paper"])
        assert code == 0, err
        cert = report["outputs"]["certificate"]
        assert len(cert["delta_used"]) > 4300 and min(map(len, cert["box_index"])) > 4300
        assert report["outputs"]["check"]["feasible"] is True
        xbar = write_json(tmp_path / "xbar.json", cert["point"])
        code, report, err = run(capsys, ["check", "--system", path, "--delta", cert["delta_used"], "--point", xbar])
        assert code == 0, err
        assert report["inputs"]["delta"] == cert["delta_used"]
        assert report["outputs"]["verdict"]["feasible"] is True

    def test_bounds_delta_feeds_check_and_certify(self, capsys, tmp_path):
        """Deltas up to the cap read back: (n, d) = (4, 4) gives 218,268 bits."""
        path = unit_box_with_disc(tmp_path)
        pt = write_json(tmp_path / "pt.json", point_to_json([F(1, 3), F(1, 3)]))
        for (n, m, d, H), digits in [(("3", "6", "4", "10"), 5859), (("4", "1", "4", "1"), 65706)]:
            code, report, _ = run(capsys, ["bounds", "--n", n, "--m", m, "--ell", "1", "--d", d, "--H", H])
            delta = report["outputs"]["bounds"]["delta"]
            assert code == 0 and len(delta) == digits
            for sub in ("certify", "check"):
                code, report, err = run(capsys, [sub, "--system", path, "--point", pt, "--delta", delta])
                assert code == 0, err
                assert report["inputs"]["delta"] == delta
            assert report["outputs"]["verdict"]["feasible"] is True

    def test_non_integer_delta_is_usage_error(self, capsys, tmp_path):
        path = unit_box_with_disc(tmp_path)
        pt = write_json(tmp_path / "pt.json", point_to_json([F(1, 3), F(1, 3)]))
        for sub in ("certify", "check"):
            code, report, err = run(
                capsys, [sub, "--system", path, "--point", pt, "--delta", "soon"]
            )
            assert code == 2
            assert report is None
            assert "bad --delta value 'soon'" in err

    def test_infeasible_seed_is_a_hard_failure(self, capsys, tmp_path):
        path = unit_box_with_disc(tmp_path)
        pt = write_json(tmp_path / "pt.json", point_to_json([F(2), F(2)]))
        code, report, err = run(
            capsys, ["certify", "--system", path, "--point", pt, "--delta", "10"]
        )
        assert code == 1
        assert "x_tilde" in report["outputs"]["error"]

    def test_check_rejects_point_outside_relaxation(self, capsys, tmp_path):
        path = unit_box_with_disc(tmp_path)
        pt = write_json(tmp_path / "pt.json", point_to_json([F(1), F(1)]))
        code, report, err = run(
            capsys, ["check", "--system", path, "--delta", "10", "--point", pt]
        )
        assert code == 1
        assert report["outputs"]["verdict"]["feasible"] is False
        assert "relaxed system violated at rows" in err

    def test_too_small_overrides_are_an_error_report(self, capsys, tmp_path):
        """x in [0, 10] with 51/2 - x^2 <= 0 at x~ = 101/20: M = 10 and
        L = 1 put the certificate where the relaxed row fails, a negative
        outcome with its reason, not a traceback."""
        x = Polynomial.variable(1, 0)
        sys_ = PolySystem(1, [(-x, LE0), (x - 10, LE0), (F(51, 2) - x * x, LE0)])
        path = write_json(tmp_path / "system.json", sys_.to_json())
        pt = write_json(tmp_path / "pt.json", point_to_json([F(101, 20)]))
        argv = ["certify", "--system", path, "--point", pt, "--delta", "10", "--big-m", "10", "--lipschitz", "1"]
        code, report, err = run(capsys, argv)
        assert code == 1
        assert "M or L override too small" in report["outputs"]["error"]
        assert "Traceback" not in err

    def test_hundred_rows_certify_in_a_subprocess(self, tmp_path):
        """An n = 3 box with 94 random cuts, some through x~: M, boundedness and the vertex
        come from linear programs, where solving all C(100, 3) row triples
        took about 48 s."""
        rng = random.Random(100)
        x_tilde = [F(2, 7), F(-3, 11), F(5, 13)]
        xs = Polynomial.variables(3)
        rows = [(sign * x - 2, LE0) for x in xs for sign in (1, -1)]
        while len(rows) < 100:
            a = [rng.randint(-9, 9) for _ in xs]
            if any(a):
                b = sum(ai * xi for ai, xi in zip(a, x_tilde)) + F(rng.randint(0, 9), 4)
                rows.append((sum((ai * x for ai, x in zip(a, xs)), -b), LE0))
        disc = sum((x * x for x in xs), Polynomial.constant(3, -2))
        path = write_json(tmp_path / "system.json", PolySystem(3, rows + [(disc, LE0)]).to_json())
        pt = write_json(tmp_path / "pt.json", point_to_json(x_tilde))
        src = str(Path(cli.__file__).resolve().parents[1])
        proc = subprocess.run(
            [sys.executable, "-m", "polycert.cli", "certify", "--system", path, "--point", pt, "--delta", "1000"],
            capture_output=True, text=True, timeout=20,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert proc.returncode == 0, proc.stderr
        outputs = json.loads(proc.stdout)["outputs"]
        assert outputs["check"]["feasible"] is True


class TestSeparable:
    def cubic_json(self, tmp_path, coeffs):
        return write_json(
            tmp_path / "cubic.json",
            {"coeffs": [[str(c) for c in row] for row in coeffs]},
        )

    def box_json(self, tmp_path, bounds):
        n = len(bounds)
        rows = []
        for i, (lo, hi) in enumerate(bounds):
            rows.append((lo - Polynomial.variable(n, i), LE0))
            rows.append((Polynomial.variable(n, i) - hi, LE0))
        return write_json(tmp_path / "box.json", PolySystem(n, rows).to_json())

    def test_two_variable_minimum_exits_zero(self, capsys, tmp_path):
        cubic = self.cubic_json(tmp_path, [(1, 0, -6, 5), (1, 0, -6, 5)])
        box = self.box_json(tmp_path, [(F(0), F(3)), (F(0), F(3))])
        code, report, err = run(
            capsys, ["separable", "--system", box, "--cubic", cubic]
        )
        assert code == 0
        out = report["outputs"]
        assert out["status"] == "point"
        assert out["point"]["values"] == ["181/128", "181/128"]
        assert out["size_bits"] == 34
        assert err == ""

    def test_empty_polytope_exits_one_with_infeasible_status(self, capsys, tmp_path):
        cubic = self.cubic_json(tmp_path, [(1, 0, -2, 0)])
        box = self.box_json(tmp_path, [(F(3), F(1))])
        code, report, err = run(
            capsys, ["separable", "--system", box, "--cubic", cubic]
        )
        assert code == 1
        assert report["outputs"]["status"] == "infeasible"
        assert "verdict: infeasible" in err

    def test_empty_polytope_with_a_line_of_recession_is_infeasible(self, capsys, tmp_path):
        """{x1 <= 0, x1 >= 1} in the plane is empty, though every (0, t) is
        a recession direction of its rows: empty, not unbounded."""
        cubic = self.cubic_json(tmp_path, [(1, 0, -3, 0), (1, 0, -3, 0)])
        x1 = Polynomial.variable(2, 0)
        rows = [(x1, LE0), (1 - x1, LE0)]
        strip = write_json(tmp_path / "strip.json", PolySystem(2, rows).to_json())
        code, report, err = run(capsys, ["separable", "--system", strip, "--cubic", cubic])
        assert code == 1
        assert report["outputs"] == {"status": "infeasible", "note": "empty polytope"}
        assert "verdict: infeasible" in err

    def test_unbounded_polytope_is_reported_not_crashed(self, capsys, tmp_path):
        cubic = self.cubic_json(tmp_path, [(1, 0, -3, 0)])
        rows = [(-Polynomial.variable(1, 0), LE0)]
        box = write_json(tmp_path / "ray.json", PolySystem(1, rows).to_json())
        code, report, err = run(
            capsys, ["separable", "--system", box, "--cubic", cubic]
        )
        assert code == 1
        assert "unbounded" in report["outputs"]["error"]

    def test_prime_coefficient_answers_in_polynomial_time(self, tmp_path):
        """x^3 - P x + c with the 33-digit prime P = 2^107 - 1: the critical
        point sqrt(P/3) is found without factoring the discriminant."""
        P = 2 ** 107 - 1
        m = math.isqrt(P // 3)
        c = -(m ** 3 - P * m) - 1
        cubic = self.cubic_json(tmp_path, [(1, 0, -P, c)])
        box = self.box_json(tmp_path, [(F(m - 1), F(m + 2))])
        src = str(Path(cli.__file__).resolve().parents[1])
        proc = subprocess.run(
            [sys.executable, "-c", "import sys; from polycert.cli import main; sys.exit(main(sys.argv[1:]))",
             "separable", "--system", box, "--cubic", cubic],
            capture_output=True, text=True, timeout=20,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["outputs"]["status"] == "point"

    def test_bad_cubic_payload_is_usage_error(self, capsys, tmp_path):
        bad = write_json(tmp_path / "cubic.json", {"rows": []})
        box = self.box_json(tmp_path, [(F(0), F(1))])
        code, report, err = run(capsys, ["separable", "--system", box, "--cubic", bad])
        assert code == 2
        assert report is None
        assert "bad separable cubic" in err


class TestRay:
    def poly_json(self, tmp_path):
        f = Polynomial(
            3,
            {
                (3, 0, 0): F(-2),
                (0, 3, 0): F(-1),
                (1, 1, 1): F(6),
                (0, 0, 3): F(-4),
                (1, 0, 1): F(1),
            },
        )
        return write_json(tmp_path / "f.json", f.to_json())

    def test_classify_rational_ray(self, capsys, tmp_path):
        poly = self.poly_json(tmp_path)
        frm = write_json(tmp_path / "x.json", point_to_json([F(0)] * 3))
        dr = write_json(
            tmp_path / "v.json", point_to_json([F(5, 4), F(8, 5), F(1)])
        )
        code, report, _ = run(
            capsys, ["ray", "--poly", poly, "--from", frm, "--dir", dr]
        )
        assert code == 0
        cls = report["outputs"]["classification"]
        assert cls["growth_order"] == 3
        assert cls["direction"] == "to_minus_infinity"
        assert cls["leading"] == "-9/4000"
        assert "point" not in report["outputs"]

    def test_classify_algebraic_ray_leading_in_extension(self, capsys, tmp_path):
        poly = self.poly_json(tmp_path)
        t = AlgebraicElement.root(3, 2)
        frm = write_json(tmp_path / "x.json", point_to_json([F(0)] * 3))
        dr = write_json(tmp_path / "v.json", point_to_json([t, t * t, F(1)]))
        code, report, _ = run(
            capsys, ["ray", "--poly", poly, "--from", frm, "--dir", dr]
        )
        assert code == 0
        cls = report["outputs"]["classification"]
        assert cls["growth_order"] == 2
        assert cls["direction"] == "to_plus_infinity"
        assert cls["leading"]["coeffs"] == ["0/1", "1/1", "0/1"]

    def test_rationalize_replaces_algebraic_direction(self, capsys, tmp_path):
        f = Polynomial(2, {(3, 0): F(1)})
        poly = write_json(tmp_path / "f.json", f.to_json())
        frm = write_json(tmp_path / "x.json", point_to_json([F(0), F(0)]))
        dr = write_json(
            tmp_path / "v.json",
            point_to_json([AlgebraicElement.root(2, 2), F(0)]),
        )
        code, report, _ = run(
            capsys,
            ["ray", "--poly", poly, "--from", frm, "--dir", dr, "--rationalize", "1/10"],
        )
        assert code == 0
        out = report["outputs"]
        assert out["direction"]["values"] == ["181/128", "0/1"]
        assert out["classification"]["direction"] == "to_plus_infinity"
        assert out["classification"]["growth_order"] == 3

    def test_rationalize_rejects_bounded_ray(self, capsys, tmp_path):
        f = Polynomial(1, {(3,): F(1)})
        poly = write_json(tmp_path / "f.json", f.to_json())
        frm = write_json(tmp_path / "x.json", point_to_json([F(0)]))
        dr = write_json(tmp_path / "v.json", point_to_json([F(-1)]))
        code, report, err = run(
            capsys,
            ["ray", "--poly", poly, "--from", frm, "--dir", dr, "--rationalize", "1/10"],
        )
        assert code == 1
        assert "cubically" in report["outputs"]["error"]

    def test_rationalize_respects_polytope_membership(self, capsys, tmp_path):
        f = Polynomial(2, {(3, 0): F(1)})
        poly = write_json(tmp_path / "f.json", f.to_json())
        frm = write_json(tmp_path / "x.json", point_to_json([F(-5), F(0)]))
        dr = write_json(
            tmp_path / "v.json",
            point_to_json([AlgebraicElement.root(2, 2), F(0)]),
        )
        rows = [(-Polynomial.variable(2, 0), LE0), (-Polynomial.variable(2, 1), LE0)]
        pol = write_json(tmp_path / "P.json", PolySystem(2, rows).to_json())
        code, report, err = run(
            capsys,
            [
                "ray", "--poly", poly, "--from", frm, "--dir", dr,
                "--polytope", pol, "--rationalize", "1/10",
            ],
        )
        assert code == 1
        assert "base point" in report["outputs"]["error"]

    def test_rationalize_refuses_a_nonlinear_polytope_row(self, capsys, tmp_path):
        """The disc row used to be dropped: (181/128, 543/128) came back with
        exit 0 though it leaves the disc x1^2 + x2^2 <= 1/100 at once."""
        poly = write_json(tmp_path / "f.json", Polynomial(2, {(3, 0): F(1)}).to_json())
        frm = write_json(tmp_path / "x.json", point_to_json([F(0), F(0)]))
        r = AlgebraicElement.root(2, 2)
        dr = write_json(tmp_path / "v.json", point_to_json([r, 3 * r]))
        x1, x2 = Polynomial.variables(2)
        rows = [(x2 - 3 * x1, LE0), (x1 ** 2 + x2 ** 2 - F(1, 100), LE0)]
        pol = write_json(tmp_path / "P.json", PolySystem(2, rows).to_json())
        argv = ["ray", "--poly", poly, "--from", frm, "--dir", dr, "--polytope", pol, "--rationalize", "1/10"]
        code, report, _ = run(capsys, argv)
        assert code == 1
        assert "must be purely linear" in report["outputs"]["error"]

    def test_bad_rationalize_value_is_usage_error(self, capsys, tmp_path):
        f = Polynomial(1, {(3,): F(1)})
        poly = write_json(tmp_path / "f.json", f.to_json())
        frm = write_json(tmp_path / "x.json", point_to_json([F(0)]))
        dr = write_json(tmp_path / "v.json", point_to_json([F(1)]))
        code, report, _ = run(
            capsys,
            ["ray", "--poly", poly, "--from", frm, "--dir", dr, "--rationalize", "0/0"],
        )
        assert code == 2
        assert report is None

    def test_precision_cap_env_var_bounds_the_search(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("POLYCERT_PRECISION_CAP", "16")
        f = Polynomial(2, {(3, 0): F(1)})
        poly = write_json(tmp_path / "f.json", f.to_json())
        frm = write_json(tmp_path / "x.json", point_to_json([F(0), F(0)]))
        dr = write_json(
            tmp_path / "v.json",
            point_to_json([AlgebraicElement.root(2, 2), F(0)]),
        )
        code, report, err = run(
            capsys,
            [
                "ray", "--poly", poly, "--from", frm, "--dir", dr,
                "--rationalize", "1/1073741824",
            ],
        )
        assert code == 1
        assert "bits" in report["outputs"]["error"]

    def test_malformed_precision_cap_is_usage_error(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("POLYCERT_PRECISION_CAP", "abc")
        f = Polynomial(2, {(3, 0): F(1)})
        poly = write_json(tmp_path / "f.json", f.to_json())
        frm = write_json(tmp_path / "x.json", point_to_json([F(0), F(0)]))
        dr = write_json(tmp_path / "v.json", point_to_json([AlgebraicElement.root(2, 2), F(0)]))
        code, report, err = run(
            capsys,
            ["ray", "--poly", poly, "--from", frm, "--dir", dr, "--rationalize", "1/10"],
        )
        assert code == 2
        assert report is None
        assert "POLYCERT_PRECISION_CAP" in err


class TestBounds:
    def test_report_for_small_shape(self, capsys):
        code, report, _ = run(
            capsys,
            ["bounds", "--n", "2", "--m", "1", "--ell", "1", "--d", "2", "--H", "2"],
        )
        assert code == 0
        b = report["outputs"]["bounds"]
        assert b["M"] == "16"
        assert b["L"] == "512"
        assert b["delta_bits"] == 244
        assert b["phi_bits"] == 257
        assert b["mode"] == "exact"
        assert report["inputs"]["n"] == 2

    def test_loose_mode_weakens_but_still_reports(self, capsys):
        code, exact, _ = run(
            capsys,
            ["bounds", "--n", "2", "--m", "1", "--ell", "1", "--d", "2", "--H", "2"],
        )
        code2, loose, _ = run(
            capsys,
            [
                "bounds", "--n", "2", "--m", "1", "--ell", "1", "--d", "2",
                "--H", "2", "--loose",
            ],
        )
        assert code == code2 == 0
        assert loose["outputs"]["bounds"]["mode"] == "loose"
        assert int(loose["outputs"]["bounds"]["delta"]) >= int(
            exact["outputs"]["bounds"]["delta"]
        )

    def test_oversized_delta_is_refused_before_it_is_built(self, capsys):
        code, report, _ = run(
            capsys,
            ["bounds", "--n", "8", "--m", "1", "--ell", "1", "--d", "2", "--H", "1"],
        )
        assert code == 1
        assert "bits" in report["outputs"]["error"]

    @pytest.mark.parametrize(
        "flag, value, reason",
        [
            ("--H", "1_0", "ASCII digits"),
            ("--n", " \u0663", "ASCII digits"),
            ("--m", "1/1", "not a fraction"),
            ("--H", "9" * 5000, "more than 4300 digits"),
        ],
        ids=["underscore", "arabic-digit", "fraction", "5000-digits"],
    )
    def test_shape_flags_are_integer_literals(self, capsys, flag, value, reason):
        argv = {"--n": "2", "--m": "1", "--ell": "1", "--d": "2", "--H": "2", flag: value}
        code, report, err = run(capsys, ["bounds", *(a for item in argv.items() for a in item)])
        assert code == 2
        assert report is None
        assert f"bad {flag} value" in err and reason in err
        assert len(err) < 150

    def test_delta_past_int_str_digit_limit_is_reported_exactly(self, capsys):
        code, report, _ = run(
            capsys,
            ["bounds", "--n", "3", "--m", "1", "--ell", "1", "--d", "4", "--H", "1"],
        )
        assert code == 0
        delta = delta_bound(3, 1, 4, 1)
        b = report["outputs"]["bounds"]
        assert decimal.Decimal(b["delta"]) == decimal.Decimal(delta)
        assert b["delta_bits"] == delta.bit_length()


class TestFlagsAndFiles:
    """Bad flags exit 2 without a report; each input file is read once."""

    @pytest.mark.parametrize("cmd, delta", [("check", "0"), ("certify", "-3")])
    def test_nonpositive_delta_is_usage_error(self, capsys, tmp_path, cmd, delta):
        path = unit_box_with_disc(tmp_path)
        pt = write_json(tmp_path / "pt.json", point_to_json([F(1, 3), F(1, 3)]))
        code, report, err = run(capsys, [cmd, "--system", path, "--point", pt, "--delta", delta])
        assert code == 2
        assert report is None
        assert "--delta" in err

    @pytest.mark.parametrize("delta, reason", [("9" * 80000, "exceeds 262144 bits"), ("1e5", "ASCII digits")])
    def test_bad_delta_is_echoed_in_at_most_40_characters(self, capsys, tmp_path, delta, reason):
        path = unit_box_with_disc(tmp_path)
        pt = write_json(tmp_path / "pt.json", point_to_json([F(1, 3), F(1, 3)]))
        code, report, err = run(capsys, ["check", "--system", path, "--point", pt, "--delta", delta])
        assert code == 2
        assert report is None
        assert reason in err
        echoed = err.split("value ", 1)[1].split(": ", 1)[0]
        assert len(echoed) <= 40 + 2  # with its quotes

    def test_zero_denominator_flag_is_usage_error(self, capsys, tmp_path):
        path = unit_box_with_disc(tmp_path)
        pt = write_json(tmp_path / "pt.json", point_to_json([F(1, 3), F(1, 3)]))
        code, report, err = run(
            capsys, ["certify", "--system", path, "--point", pt, "--delta", "10", "--big-m", "1/0"]
        )
        assert code == 2
        assert report is None
        assert "--big-m" in err

    def test_file_that_is_not_utf8_is_usage_error(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_bytes(b"\xff\xfe{}")
        pt = write_json(tmp_path / "pt.json", point_to_json([F(0)]))
        code, report, err = run(capsys, ["verify", "--system", str(bad), "--point", pt])
        assert code == 2
        assert report is None
        assert "bad.json" in err

    def test_digest_is_that_of_the_file_bytes(self, capsys, tmp_path):
        cnf = tmp_path / "crlf.cnf"
        cnf.write_bytes(TWO_CLAUSE.replace("\n", "\r\n").encode())
        code, report, _ = run(capsys, ["reduce", "--cnf", str(cnf), "--variant", "quad"])
        assert code == 0
        assert report["inputs"]["cnf"]["sha256"] == hashlib.sha256(cnf.read_bytes()).hexdigest()

    def test_integer_past_the_parse_cap_is_refused_quickly(self, capsys, tmp_path):
        # converting a million digits would take about half a minute
        path = unit_box_with_disc(tmp_path)
        pt = write_json(tmp_path / "pt.json", {"values": ["1/" + "1" * 10 ** 6, "0"]})
        started = time.perf_counter()
        code, report, err = run(capsys, ["verify", "--system", path, "--point", pt])
        assert time.perf_counter() - started < 5
        assert code == 2
        assert report is None
        assert "bits" in err

    @pytest.mark.parametrize(
        "argv, outputs",
        [
            (["reduce", "--cnf", "{cnf}", "--variant", "cubic", "--out", "{a}"], ["system"]),
            (["gadget", "--name", "tiny", "--out", "{a}", "--landmarks", "{b}"], ["system", "landmarks"]),
        ],
    )
    def test_reported_digests_are_those_of_the_written_bytes(self, capsys, tmp_path, argv, outputs):
        cnf = tmp_path / "f.cnf"
        cnf.write_text(TWO_CLAUSE)
        files = {"cnf": cnf, "a": tmp_path / "a.json", "b": tmp_path / "b.json"}
        code, report, _ = run(capsys, [a.format(**files) for a in argv])
        assert code == 0
        for key in outputs:
            written = Path(report["outputs"][f"{key}_path"]).read_bytes()
            assert written.endswith(b"\n")
            assert report["outputs"][f"{key}_sha256"] == hashlib.sha256(written).hexdigest()

    @pytest.mark.parametrize("cmd", ["verify", "check", "certify", "separable", "ray", "reduce"])
    def test_each_input_file_is_opened_once(self, capsys, tmp_path, monkeypatch, cmd):
        box_rows = []
        for i in range(2):
            box_rows += [(-Polynomial.variable(2, i), LE0), (Polynomial.variable(2, i) - 3, LE0)]
        cnf = tmp_path / "f.cnf"
        cnf.write_text(TWO_CLAUSE)
        files = {
            "system": unit_box_with_disc(tmp_path),
            "point": write_json(tmp_path / "pt.json", point_to_json([F(1, 3), F(1, 3)])),
            "box": write_json(tmp_path / "box.json", PolySystem(2, box_rows).to_json()),
            "cubic": write_json(tmp_path / "cubic.json", {"coeffs": [["1", "0", "-6", "5"]] * 2}),
            "poly": write_json(tmp_path / "f.json", Polynomial.variable(2, 0).to_json()),
            "dir": write_json(tmp_path / "dir.json", point_to_json([F(1), F(0)])),
            "cnf": str(cnf),
        }
        argv = {
            "verify": ["--system", "{system}", "--point", "{point}"],
            "check": ["--system", "{system}", "--point", "{point}", "--delta", "10"],
            "certify": ["--system", "{system}", "--point", "{point}", "--delta", "10"],
            "separable": ["--system", "{box}", "--cubic", "{cubic}"],
            "ray": ["--poly", "{poly}", "--from", "{point}", "--dir", "{dir}", "--polytope", "{box}"],
            "reduce": ["--cnf", "{cnf}", "--variant", "quad"],
        }[cmd]
        argv = [cmd] + [a.format(**files) for a in argv]
        reads = []

        def counting_open(path, mode="r", *args, **kwargs):
            if "r" in mode:
                reads.append(path)
            return open(path, mode, *args, **kwargs)

        monkeypatch.setattr(cli, "open", counting_open, raising=False)
        code, report, _ = run(capsys, argv)
        assert code == 0
        read_paths = [a for a in argv if a in files.values()]
        assert sorted(reads) == sorted(read_paths)
        assert [d["path"] for d in report["inputs"].values() if isinstance(d, dict)] == read_paths


class TestAlgebraicPoints:
    """Points over Q(sqrt k) reach check and certify without a traceback."""

    def sqrt2_files(self, tmp_path):
        x = Polynomial.variable(1, 0)
        rows = [(-x, LE0), (x - 2, LE0), (x * x - 2, LE0)]
        path = write_json(tmp_path / "s.json", PolySystem(1, rows).to_json())
        pt = write_json(tmp_path / "p.json", point_to_json([AlgebraicElement.root(2, 2)]))
        return path, pt

    def test_check_verifies_in_the_extension_field(self, capsys, tmp_path):
        path, pt = self.sqrt2_files(tmp_path)
        code, report, _ = run(capsys, ["check", "--system", path, "--delta", "10", "--point", pt])
        assert code == 0
        verdict = report["outputs"]["verdict"]
        assert verdict["feasible"] is True
        assert verdict["residuals"][2] == {"e": 2, "k": 2, "coeffs": ["-1/1", "0/1"]}

    def test_certify_refuses_an_irrational_seed(self, capsys, tmp_path):
        path, pt = self.sqrt2_files(tmp_path)
        code, report, _ = run(capsys, ["certify", "--system", path, "--point", pt, "--delta", "10"])
        assert code == 1
        assert "rational" in report["outputs"]["error"]

    def test_near_zero_cube_root_coordinate_in_a_subprocess(self, tmp_path):
        """x = a + cbrt(2) with a = -floor(cbrt(2) * 2^131072) / 2^131072, so
        0 < x < 2^-131072, against x <= 0: a 79 KB point file.  The sign is
        read off the field norm; refining an enclosure of cbrt(2) until it
        excluded zero took about 33 s."""
        bits = 131072
        a = F(-integer_nth_root(2 << (3 * bits), 3), 1 << bits)
        x = Polynomial.variable(1, 0)
        path = write_json(tmp_path / "s.json", PolySystem(1, [(x, LE0)]).to_json())
        pt = write_json(tmp_path / "p.json", {"e": 3, "k": 2, "values": [[format_rat(a), "1", "0"]]})
        src = str(Path(cli.__file__).resolve().parents[1])
        proc = subprocess.run(
            [sys.executable, "-m", "polycert.cli", "verify", "--system", path, "--point", pt],
            capture_output=True, text=True, timeout=10,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert proc.returncode == 1, proc.stderr
        verdict = json.loads(proc.stdout)["outputs"]["verdict"]
        residual = {"e": 3, "k": 2, "coeffs": [format_rat(a), "1/1", "0/1"]}
        assert verdict == {
            "feasible": False, "worst_violation": residual, "residuals": [residual], "violated": [0]
        }


class TestFileMemory:
    """Writing a system file holds a fraction of its text and reading it about
    two copies of its indented text (the parsed lists, whatever the layout);
    measured on a planted 3-CNF of 32 variables, whose quad system is 1.5 MB
    at indent=2 and about a seventh of that as written."""

    @pytest.fixture(scope="class")
    def quad_system(self):
        rng = random.Random(32)
        n = 32
        plant = [rng.random() < 0.5 for _ in range(n)]
        clauses = []
        for _ in range(2 * n):
            vs = rng.sample(range(1, n + 1), 3)
            lits = [v if rng.random() < 0.5 else -v for v in vs]
            lits[0] = vs[0] if plant[vs[0] - 1] else -vs[0]  # true under the plant
            clauses.append(tuple(lits))
        return build_np_hard_system(CnfFormula(n, tuple(clauses)), quadratize=True)

    @staticmethod
    def traced_peak(fn):
        tracemalloc.start()
        try:
            fn()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_write_peak_is_under_half_the_file(self, quad_system, tmp_path):
        payload = quad_system.to_json()
        path = tmp_path / "quad.json"
        peak = self.traced_peak(lambda: cli._write_json(str(path), payload))
        assert path.read_text() == json.dumps(payload, separators=(",", ":")) + "\n"
        indented = len(json.dumps(payload, indent=2))
        assert peak < 0.5 * indented
        assert path.stat().st_size <= 0.2 * indented

    def test_load_peak_is_at_most_2_2_times_the_file(self, quad_system, tmp_path):
        path = tmp_path / "quad.json"
        path.write_text(quad_system.dumps() + "\n")
        loaded = []
        parse = cli._json(PolySystem.from_json)
        peak = self.traced_peak(
            lambda: loaded.append(cli._load({}, "system", str(path), parse, "system"))
        )
        assert loaded[0].to_json() == quad_system.to_json()
        assert peak <= 2.2 * len(json.dumps(quad_system.to_json(), indent=2))
