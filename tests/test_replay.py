"""The benchmark's seed-1 plans, replayed in-process and pinned.

perfbench/workloads.py builds each workload's call list with an answer key
derived without polycert; perfbench/replay.py runs the calls through
`cli.main` and perfbench/checks.py compares each outcome with its key.  Here
every call must pass its check, and one sha256 per workload pins what the
calls produced: exit code, report without `timing_ms`, stderr and every
written file's bytes.  A digest may move only with a declared file-format
change.
"""

import gc
import hashlib
import importlib.util
import json
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load(name):
    spec = importlib.util.spec_from_file_location(name, PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def bench():
    """workloads, replay and checks, which import `answers` by its bare name."""
    sys.path.insert(0, str(PERFBENCH))
    try:
        yield load("workloads"), load("replay"), load("checks")
    finally:
        sys.path.remove(str(PERFBENCH))


DIGESTS = {
    "cnf-scale": "994e73e8661c2b7006e94f75d2f74987ea5d03efe23f6d223f18b0f7f1d00090",
    "algebraic": "a3054921a33bc587a851f79029cc0f29c712c2c972b8be3a4766040c68cf285d",
    "desk-solvers": "f4c33d88d66ac56c4c124ea8c4c31a7a5de366d77fafe23e7db382ca98516f6a",
}


@pytest.mark.parametrize("workload", sorted(DIGESTS))
def test_seed_one_replay(bench, workload, tmp_path, monkeypatch):
    workloads, replay, checks = bench
    plan = workloads.build(workload, 1, tmp_path).to_json()
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("POLYCERT_PRECISION_CAP", raising=False)
    gc.freeze()  # replay collects before each call; leave the test runner's heap out of it
    try:
        result = replay.replay(plan)
    finally:
        gc.unfreeze()
    digest = hashlib.sha256()
    failures = []
    for i, (call, rec) in enumerate(zip(plan["calls"], result["calls"])):
        report = json.loads(rec["report"]) if rec["report"].strip() else None
        errors = checks.check_call(call["key"], rec["code"], report, tmp_path)
        if errors:
            failures.append((i, call["argv"][0], errors))
        if report is not None:
            del report["timing_ms"]
        digest.update(json.dumps([rec["code"], report, rec["stderr"]]).encode())
        for path in map(tmp_path.joinpath, call["writes"]):
            digest.update(path.read_bytes() if path.exists() else b"absent")
    assert not failures
    assert len(result["calls"]) == len(plan["calls"])
    assert digest.hexdigest() == DIGESTS[workload]


# Where a report may hold a JSON integer (README, "Command line"); a list's
# items count under the list's key.  Every other number in a report is an
# exact "num/den" or decimal string, and none is a float.  Fixed places are
# keyed by subcommand and path:
INTEGER_PATHS = {
    *(("bounds", f"inputs.{key}") for key in ("n", "m", "ell", "d", "H")),
    ("bounds", "outputs.bounds.delta_bits"),
    ("bounds", "outputs.bounds.phi_bits"),
    ("certify", "outputs.certificate.size_bits"),
    ("separable", "outputs.size_bits"),
    ("ray", "outputs.classification.growth_order"),
    ("reduce", "outputs.num_vars"),
    ("reduce", "outputs.num_rows"),
}
# and objects that may appear anywhere by the key beside them: a point or a
# scalar over Q[t]/(t^e - k), an inline polynomial and its terms, a verdict.
INTEGER_BESIDE = {
    "e": {"values", "coeffs"},
    "k": {"values", "coeffs"},
    "n": {"terms"},
    "exps": {"coef"},
    "violated": {"feasible"},
}


def numbers_off_contract(report) -> list:
    """(path, value) for each float in a report, and for each JSON integer
    that is not at `timing_ms`, one of INTEGER_PATHS or an INTEGER_BESIDE key
    next to its sibling."""
    found = []

    def walk(value, path, allowed):
        if isinstance(value, dict):
            for key, item in value.items():
                at = f"{path}.{key}" if path else key
                ok = at == "timing_ms" or (report["subcommand"], at) in INTEGER_PATHS
                walk(item, at, ok or not INTEGER_BESIDE.get(key, set()).isdisjoint(value))
        elif isinstance(value, list):
            for item in value:
                walk(item, path, allowed)
        elif type(value) is float or (type(value) is int and not allowed):
            found.append((path, value))

    walk(report, "", False)
    return found


def test_contract_walk_flags_floats_and_stray_integers():
    report = {
        "subcommand": "reduce",
        "timing_ms": 3,
        "outputs": {
            "witness": {"values": ["1/2"], "e": 2, "k": 3},
            "objective": {"n": 2, "terms": [{"exps": [0, 1], "coef": "1/1"}]},
        },
    }
    assert numbers_off_contract(report) == []
    report["outputs"].update(residual=0.5, num_vars=4, point={"values": ["1/2"], "d": 2}, size={"n": 2})
    assert numbers_off_contract(report) == [("outputs.residual", 0.5), ("outputs.point.d", 2), ("outputs.size.n", 2)]
    assert numbers_off_contract({"subcommand": "check", "inputs": {"n": 2}, "outputs": {"num_vars": 4}}) == [
        ("inputs.n", 2),
        ("outputs.num_vars", 4),
    ]


@pytest.mark.parametrize("workload", sorted(DIGESTS))
def test_seed_one_reports_keep_the_number_contract(bench, workload, tmp_path, monkeypatch):
    workloads, replay, _ = bench
    plan = workloads.build(workload, 1, tmp_path).to_json()
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("POLYCERT_PRECISION_CAP", raising=False)
    reports = [json.loads(rec["report"]) for rec in replay.replay(plan)["calls"] if rec["report"].strip()]
    assert reports
    assert [bad for report in reports for bad in numbers_off_contract(report)] == []
