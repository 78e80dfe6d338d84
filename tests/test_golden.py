"""Golden digests of generated systems.

System JSON v1 is a file format: what every builder writes for a fixed input
is pinned here, so a refactor of how polynomials are built cannot change an
instance silently.  A digest covers the system's JSON at indent=2 and, for
builders that return one, the objective's.  Files are written compactly
(`PolySystem.dumps()`, json.dumps with separators (",", ":")), which holds
the same value; the indented text, which is how files were written before,
still loads to the same systems.

The separable solver's reports over a fixed seeded family are pinned the
same way, so a change to how it finds critical points cannot change a
verdict, a point or its size silently.
"""

import hashlib
import json
import math
import random
from fractions import Fraction

import pytest

from polycert.gadgets import GADGET_BUILDERS, GADGET_DEFAULTS
from polycert.polyalg import Polynomial
from polycert.reductions import VARIANTS, CnfFormula
from polycert.separable import SeparableCubic, solve_separable
from polycert.systems import LE0, PolySystem

CNF3 = CnfFormula(3, ((1, -2, 3), (-1, 2, 3)))
CNF5 = CnfFormula(5, ((1, -2, 3), (-1, 4, 5), (2, -3, -5), (-4, 5, 1), (3, 4, -2)))


def digest(system, objective=None) -> str:
    text = json.dumps(system.to_json(), indent=2)
    if objective is not None:
        text += "\n" + json.dumps(objective.to_json(), indent=2)
    return hashlib.sha256(text.encode()).hexdigest()


REDUCTION_DIGESTS = {
    ("quad", 3): "f823e2e22d6480ae7ed9d1e809e37b24ebd742aedfb124c27c259d8eedec0dc9",
    ("cubic", 3): "aa7febfacff145953a1ce1eaf9ca44854e294c4a9cd1c748e9a37f3f2404f779",
    ("superopt", 3): "46aa6899282653b9425466d0255511625b2d3724ca13d00061e3e59484d1312c",
    ("unbounded", 3): "491896a3ddb7276809dffaf6a726a73260c60610233378fe4c549ecfa9da0e2c",
    ("quad", 5): "b9fe7e9f29aeceaf2aa5a1fc57993ac5986237da7b0840c6bfc52e2b8a444b04",
    ("cubic", 5): "3593d8ac61bd6b3c315c5d9c9f9a2ffbd63ed497f0b6662f81d9358374d3e6ea",
    ("superopt", 5): "77311b6ad0878ec74c879e30fa1c63c10be0cbc996c807c2fbd57b4205e4b0b1",
    ("unbounded", 5): "e63f65eaccdaaa3b41cff91e2a602535ba70f03caef1f082b44c99dafa2a0f2c",
}

GADGET_DIGESTS = {
    "h": "7a932bf268119c5683cb9910e78592de1e38bb306e97844c6ead70779644c1b2",
    "tiny": "442fa1ad47360b67735106b71cd74082ffab2b4af9d768e61c6ef1ae058650fd",
    "khachiyan": "9954212d471194c7249d59fb07bf036e4eb56762464c0b3cb74bf8d45a96ee03",
    "badboy": "775df11d4c99698d6c46f0bcf6e5e826f25960938c6330d6f0364309e7e9b502",
    "socp": "0142793fc1fce7acc99e42a34e9a8cba26d49bcb241ec8a0e48b79bc075488b6",
    "unlucky": "3fd3dc8c39b0805e761daef3319e13251e19c5da541f9f8af4efadb5d46b6180",
}


@pytest.mark.parametrize("variant, n", sorted(REDUCTION_DIGESTS))
def test_reduction_bytes_are_pinned(variant, n):
    cnf = {3: CNF3, 5: CNF5}[n]
    assert digest(*VARIANTS[variant]["build"](cnf)) == REDUCTION_DIGESTS[variant, n]


@pytest.mark.parametrize("name", sorted(GADGET_DIGESTS))
def test_gadget_bytes_at_cli_defaults_are_pinned(name):
    bundle = GADGET_BUILDERS[name](**GADGET_DEFAULTS[name])
    assert digest(bundle.system) == GADGET_DIGESTS[name]


def golden_systems():
    """Every pinned system: the reductions of CNF3 and CNF5, then the gadgets."""
    for variant, n in sorted(REDUCTION_DIGESTS):
        yield VARIANTS[variant]["build"]({3: CNF3, 5: CNF5}[n])[0]
    for name in sorted(GADGET_DIGESTS):
        yield GADGET_BUILDERS[name](**GADGET_DEFAULTS[name]).system


def test_files_are_written_compactly():
    for system in golden_systems():
        assert system.dumps() == json.dumps(system.to_json(), separators=(",", ":"))


def test_indented_files_still_load_to_equal_systems():
    for system in golden_systems():
        text = json.dumps(system.to_json(), indent=2)
        assert PolySystem.loads(text) == system
        assert PolySystem.loads(system.dumps()) == system


SEPARABLE_DIGEST = "84c5d9bbf52eeb1ddddc57d17b2490947cee61b13b7967700c285afc8b9a845b"


def separable_family():
    """160 instances: n = 1 and 2, boxes and boxes cut by a slanted
    half-plane.  Every third instance puts each coordinate's local minimum
    at +-sqrt(q) with its value just below or at 0, so the family reaches
    the dyadic refinement and the exact zero minimum as well as vertex hits."""
    rng = random.Random(5)
    for i in range(160):
        n = 1 + i % 2
        xs = Polynomial.variables(n)
        quads, rows = [], []
        for xi in xs:
            if i % 3 == 2:
                a, q = rng.choice([-2, -1, 1, 2]), rng.randint(1, 7)
                quads.append((a, 0, -3 * a * q, math.isqrt(4 * a * a * q ** 3)))
                lo, hi = (0, q) if a > 0 else (-q, 0)
            else:
                quads.append((rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(-4, 4), rng.randint(-8, 8), rng.randint(-8, 8)))
                lo = Fraction(rng.randint(-8, 4), 2)
                hi = lo + Fraction(rng.randint(1, 8), 2)
            rows += [(-xi + lo, LE0), (xi - hi, LE0)]
        if n == 2 and i % 4 == 3:
            rows.append((rng.randint(-3, 3) * xs[0] + rng.randint(1, 3) * xs[1] - rng.randint(-4, 4), LE0))
        yield SeparableCubic(tuple(quads)), PolySystem(n, rows)


def test_separable_reports_are_pinned():
    reports = [solve_separable(sc, system).to_json() for sc, system in separable_family()]
    assert {r["status"] for r in reports} == {"point", "infeasible"}
    refined = [r for r in reports if "point" in r and any(Fraction(v).denominator >= 256 for v in r["point"]["values"])]
    assert refined
    assert hashlib.sha256(json.dumps(reports).encode()).hexdigest() == SEPARABLE_DIGEST
