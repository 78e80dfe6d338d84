"""polycert benchmark: seeded CLI pipelines, timed end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is cnf-scale, algebraic, desk-solvers, or all.  Run from anywhere in
a checkout that holds src/polycert; nothing is installed.

A run builds the workload's call list from the seed (workloads.py), with an
answer key derived without polycert (answers.py).  It then replays the list
in fresh subprocesses, one pass at a time, while one more pass fits in S
seconds (at least one pass), and checks every call of every pass
(checks.py).  Each pass runs in a clean environment (POLYCERT_PRECISION_CAP
unset) with one process and no extra threads.

--trace 0 reports the end-to-end metrics: wall_s (sum of the call
latencies of one pass), peak_rss_mb (ru_maxrss of the pass process) and
output_mb (report and file bytes of one pass), each the median over the
passes; call_ms_p50 and call_ms_tail over the call latencies of all passes
pooled, the tail at the highest percentile of one pass with at least ten
calls beyond it; and setup_s (median of at least ten cold
`python -m polycert.cli --help` runs, two before each pass).
--trace 1 follows every untraced pass with a traced one (probes.py) and
reports the per-layer metrics (medians over the traced passes), the ladder
slopes and trace.overhead, the traced wall_s over the untraced one.

The last line of stdout is one JSON object with correct, attempted, failed
and metrics.  `failed` counts calls whose exit code or report disagrees with
the answer key, so failed / attempted is the error rate.  Exit code 2 means
the benchmark itself could not run; no result line is printed then.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import checks
import probes
import workloads

HERE = Path(__file__).resolve().parent
PASS_TIMEOUT_S = 175
SETUP_REPS = 10
STARTS_PER_ROUND = 2

END_TO_END = {
    "wall_s": "s",
    "call_ms_p50": "ms",
    "call_ms_tail": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "output_mb": "MB",
}

PER_LAYER = {
    "ratcore.alg_new.calls": "count",
    "ratcore.alg_mul.calls": "count",
    "ratcore.alg_sign.calls": "count",
    "ratcore.alg_sign.s": "s",
    "ratcore.interval_bits.max": "bits",
    "ratcore.floor_scaled.calls": "count",
    "ratcore.floor_scaled.s": "s",
    "ratcore.parse_rat.calls": "count",
    "ratcore.format_rat.calls": "count",
    "polyalg.poly_new.calls": "count",
    "polyalg.poly_new.s": "s",
    "polyalg.stored_exps": "count",
    "polyalg.eval.calls": "count",
    "polyalg.eval.s": "s",
    "polyalg.eval_alg.s": "s",
    "polyalg.restrict.s": "s",
    "polyalg.affine_substitute.s": "s",
    "polyalg.to_json.s": "s",
    "polyalg.from_json.s": "s",
    "systems.verify.s": "s",
    "systems.verify_alg.s": "s",
    "systems.relax.s": "s",
    "systems.to_json.s": "s",
    "systems.from_json.s": "s",
    "systems.system_bytes": "bytes",
    "linear.enumerate_vertices.calls": "count",
    "linear.enumerate_vertices.s": "s",
    "linear.subsets": "count",
    "linear.recession_ray.s": "s",
    "bounds.lipschitz.s": "s",
    "bounds.delta_bound.s": "s",
    "bounds.delta_bits.max": "bits",
    "reductions.parse_dimacs.s": "s",
    "reductions.build.s": "s",
    "reductions.build_superopt.s": "s",
    "reductions.witness.s": "s",
    "reductions.sat_oracle.s": "s",
    "gadgets.build.s": "s",
    "separable.solve.calls": "count",
    "separable.solve.s": "s",
    "rays.classify.s": "s",
    "rays.rationalize.s": "s",
    "certify.grid.s": "s",
    "certify.check.s": "s",
    "certify.size_bits.p50": "bits",
    "cli.self.s": "s",
    **{f"cli.{sub}.ms_p50": "ms" for sub in ("reduce", "verify", "check", "certify", "separable", "ray", "gadget", "bounds")},
    "slope.reduce_s": "slope",
    "slope.verify_s": "slope",
    "slope.check_s": "slope",
    "slope.system_bytes": "slope",
    "trace.overhead": "ratio",
}

# step of the plan whose per-rung value each slope fits
SLOPES = {"slope.reduce_s": "reduce", "slope.verify_s": "verify", "slope.check_s": "check", "slope.system_bytes": "reduce"}


class BenchError(Exception):
    """The benchmark could not run; exit code 2."""


def clean_env(root: Path) -> dict:
    return {
        "PATH": os.environ.get("PATH", "/usr/bin:/bin"),
        "PYTHONPATH": str(root / "src"),
        "PYTHONHASHSEED": "0",
    }


def subprocess_run(cmd, cwd: Path, env: dict) -> None:
    try:
        proc = subprocess.run(cmd, cwd=cwd, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                              text=True, timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired as e:
        raise BenchError(f"{cmd[1:3]} timed out after {PASS_TIMEOUT_S} s") from e
    if proc.returncode != 0:
        raise BenchError(f"{cmd[1:3]} exited {proc.returncode}: {proc.stderr[-2000:]}")


def cold_start(env: dict, cwd: Path) -> float:
    """Wall time of one fresh `python -m polycert.cli --help`."""
    t0 = perf_counter()
    subprocess_run([sys.executable, "-m", "polycert.cli", "--help"], cwd, env)
    return perf_counter() - t0


def run_pass(plan: dict, plan_path: Path, pass_dir: Path, env: dict, traced: bool) -> dict:
    shutil.rmtree(pass_dir / "out")
    (pass_dir / "out").mkdir()
    result_path = pass_dir.parent / "result.json"
    cmd = [sys.executable, str(HERE / "replay.py"), str(plan_path), str(result_path)] + (["--trace"] if traced else [])
    subprocess_run(cmd, pass_dir, env)
    result = json.loads(result_path.read_text())
    result["errors"] = []
    for i, (call, rec) in enumerate(zip(plan["calls"], result["calls"])):
        try:
            report = json.loads(rec["report"]) if rec["report"].strip() else None
        except json.JSONDecodeError:
            report = None
        errors = checks.check_call(call["key"], rec["code"], report, pass_dir)
        if errors:
            result["errors"].append((i, call["argv"][0], errors))
        rec["report"] = report
    return result


def checker_self_test(plan: dict, result: dict, pass_dir: Path) -> bool:
    """Corrupt the first expected verdict and require the checker to flag it."""
    for call, rec in zip(plan["calls"], result["calls"]):
        if call["key"]["kind"] == "verdict":
            key = dict(call["key"], exit=1 - call["key"]["exit"], feasible=not call["key"]["feasible"])
            return bool(checks.check_call(key, rec["code"], rec["report"], pass_dir))
    return False


def pass_metrics(result: dict) -> dict:
    return {
        "wall_s": sum(rec["s"] for rec in result["calls"]),
        "peak_rss_mb": result["maxrss_kb"] * 1024 / 1e6,
        "output_mb": sum(rec["bytes"] for rec in result["calls"]) / 1e6,
    }


def tail_rank(calls: int) -> int:
    """0-based rank in one pass of the highest percentile with at least ten
    calls beyond it."""
    return max(0, calls - 11)


def latency_metrics(results: list[dict]) -> dict:
    """call_ms_p50 and call_ms_tail over the latencies of all passes pooled.
    A single pass's median is one call of the list, whose latency on a
    shared host swings by a quarter from pass to pass; pooling samples every
    call once per pass.  The tail is read at the percentile of one pass, so
    that it does not move with the number of passes that fit in the run."""
    ms = sorted(rec["s"] * 1000 for r in results for rec in r["calls"])
    return {
        "call_ms_p50": statistics.median(ms),
        "call_ms_tail": ms[(tail_rank(len(results[0]["calls"])) + 1) * len(results) - 1],
    }


def rung_values(plan: dict, results: list[dict]) -> dict:
    """Per-rung medians over the passes: seconds of each slope's step, and
    the bytes of the system file the step writes."""
    values: dict[str, dict[int, list]] = {name: {} for name in SLOPES}
    for result in results:
        for call, rec in zip(plan["calls"], result["calls"]):
            for name, step in SLOPES.items():
                if call["step"] == step and call["rung"] is not None:
                    v = rec["written"][0] if name == "slope.system_bytes" else rec["s"]
                    values[name].setdefault(call["rung"], []).append(v)
    return {name: {n: statistics.median(v) for n, v in sorted(by.items())} for name, by in values.items()}


def loglog_slope(points: dict) -> float:
    """Least-squares slope of log(value) against log(n); 0 with fewer than
    two rungs."""
    pts = [(math.log(n), math.log(v)) for n, v in points.items() if v > 0]
    if len(pts) < 2:
        return 0.0
    mx = statistics.fmean(x for x, _ in pts)
    my = statistics.fmean(y for _, y in pts)
    return sum((x - mx) * (y - my) for x, y in pts) / sum((x - mx) ** 2 for x, _ in pts)


def layer_predictions(workload: str, layer: dict) -> list[str]:
    """The predictions stated when the workloads were chosen; each returned
    string is one that the traced pass contradicts."""
    broken = []
    alg_mul = layer["ratcore.alg_mul.calls"]
    if workload == "cnf-scale" and alg_mul != 0:
        broken.append(f"ratcore.alg_mul.calls = {alg_mul} on cnf-scale, predicted 0")
    if workload == "algebraic" and alg_mul == 0:
        broken.append("ratcore.alg_mul.calls = 0 on algebraic, predicted > 0")
    vertices = layer["linear.enumerate_vertices.calls"]
    if (vertices > 0) != (workload == "desk-solvers"):
        broken.append(f"linear.enumerate_vertices.calls = {vertices} on {workload}")
    return broken


def run_workload(name: str, seed: int, seconds: float, traced: bool, root: Path, work: Path) -> dict:
    pass_dir = work / name / "pass"
    plan = workloads.build(name, seed, pass_dir).to_json()
    plan_path = work / name / "plan.json"
    plan_path.write_text(json.dumps(plan))
    env = clean_env(root)
    cold_start(env, pass_dir)  # untimed: leaves the bytecode cache warm
    # Cold starts interleave with the passes, and traced passes with
    # untraced ones, so that every kind samples the whole run; a round
    # starts only if one more of the last one's length fits.
    starts, results, traced_results = [], [], []
    deadline = perf_counter() + seconds
    while True:
        t0 = perf_counter()
        starts += [cold_start(env, pass_dir) for _ in range(STARTS_PER_ROUND)]
        results.append(run_pass(plan, plan_path, pass_dir, env, traced=False))
        if traced:
            traced_results.append(run_pass(plan, plan_path, pass_dir, env, traced=True))
        if 2 * perf_counter() - t0 > deadline:
            break
    while len(starts) < SETUP_REPS:
        starts.append(cold_start(env, pass_dir))
    untraced = [pass_metrics(r) for r in results]
    medians = {m: statistics.median(p[m] for p in untraced) for m in untraced[0]}
    medians.update(latency_metrics(results), setup_s=statistics.median(starts))
    e2e = {m: medians[m] for m in END_TO_END}
    errors = [err for r in results + traced_results for err in r["errors"]]
    summary = {
        "workload": name,
        "seed": seed,
        "passes": len(untraced),
        "calls_per_pass": len(plan["calls"]),
        "tail_percentile": 100 * (tail_rank(len(plan["calls"])) + 1) / len(plan["calls"]),
        "attempted": sum(len(r["calls"]) for r in results + traced_results),
        "failed": len(errors),
        "errors": errors[:20],
        "checker_self_test": checker_self_test(plan, results[0], pass_dir),
        "end_to_end": e2e,
    }
    if traced:
        layers = [probes.summarize(r["trace"]) for r in traced_results]
        layer = {m: statistics.median(p.get(m, 0) for p in layers) for m in PER_LAYER}
        layer["systems.system_bytes"] = sum(rec["written"][0] for rec in results[0]["calls"] if rec["written"])
        rungs = rung_values(plan, results)
        layer.update({name: loglog_slope(points) for name, points in rungs.items()})
        layer["trace.overhead"] = statistics.median(pass_metrics(r)["wall_s"] for r in traced_results) / e2e["wall_s"]
        summary["per_layer"] = layer
        summary["slope_rungs"] = rungs
        summary["predictions_broken"] = layer_predictions(name, summary["per_layer"])
    return summary


def print_summary(s: dict, traced: bool) -> None:
    print(f"== {s['workload']} (seed {s['seed']}): {s['passes']} untraced pass(es) of {s['calls_per_pass']} calls")
    units = PER_LAYER if traced else END_TO_END
    for name, value in (s["per_layer"] if traced else s["end_to_end"]).items():
        note = ""
        if name == "call_ms_tail":
            note = f"  (p{s['tail_percentile']:.1f}, 10 calls beyond it)"
        elif name in s.get("slope_rungs", {}):
            note = f"  (per rung: {s['slope_rungs'][name]})"
        print(f"  {name:34s} {value:>14.6g} {units[name]}{note}")
    print(f"  {'error_rate':34s} {s['failed'] / s['attempted']:>14.6g} ratio  ({s['failed']}/{s['attempted']} calls)")
    for i, sub, errs in s["errors"]:
        print(f"  ERROR call {i} ({sub}): {'; '.join(errs)}")
    print(f"  checker self-test (one corrupted verdict is flagged): {'ok' if s['checker_self_test'] else 'FAILED'}")
    for broken in s.get("predictions_broken", []):
        print(f"  layer prediction contradicted: {broken}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = HERE.parent
    if not (root / "src" / "polycert" / "cli.py").is_file():
        print(f"error: no polycert sources under {root / 'src'}", file=sys.stderr)
        return 2
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    work = HERE / ".work" / f"run-{os.getpid()}"
    traced = bool(args.trace)
    try:
        summaries = [run_workload(n, args.seed, args.seconds, traced, root, work) for n in names]
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()  # only when no other run is using it
    metrics = {}
    for s in summaries:
        print_summary(s, traced)
        units = PER_LAYER if traced else END_TO_END
        prefix = f"{s['workload']}." if len(summaries) > 1 else ""
        for name, value in (s["per_layer"] if traced else s["end_to_end"]).items():
            metrics[prefix + name] = {"value": value, "unit": units[name]}
    failed = sum(s["failed"] for s in summaries)
    result = {
        "correct": failed == 0 and all(s["checker_self_test"] for s in summaries),
        "attempted": sum(s["attempted"] for s in summaries),
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
