"""Replay one pass of a plan through polycert.cli.main inside this process.

    python3 replay.py PLAN RESULT [--trace]

Run from the plan's directory with polycert importable.  Each call starts
from a collected heap, has its stdout and stderr captured, and is timed
around `cli.main` alone.  Between calls, a call's `save` entry copies part
of its report into a file a later call reads.  The result file holds, per
call, the exit code (or the exception it raised), seconds, report text and
bytes written; then the pass's peak RSS and, with --trace, the trace.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import os
import resource
import sys
import traceback
from time import perf_counter


def replay(plan: dict, tracer=None) -> dict:
    from polycert import cli

    if tracer is not None:
        tracer.install()
    records = []
    for call in plan["calls"]:
        gc.collect()
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = perf_counter()
            try:
                code = cli.main(call["argv"])
            except Exception:
                code = traceback.format_exc(limit=3)
            seconds = perf_counter() - t0
        text = out.getvalue()
        written = [os.path.getsize(p) if os.path.exists(p) else 0 for p in call["writes"]]
        if call["save"] and code == 0:
            path, target = call["save"]
            node = json.loads(text)
            for part in path:
                node = node[part]
            with open(target, "w", encoding="utf-8") as fh:
                json.dump(node, fh)
        records.append(
            {
                "code": code,
                "s": seconds,
                "report": text,
                "stderr": err.getvalue()[-2000:],
                "bytes": len(text.encode()) + sum(written),
                "written": written,
            }
        )
    return {
        "calls": records,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "trace": tracer.to_json() if tracer is not None else None,
    }


def main() -> int:
    plan_path, result_path, *flags = sys.argv[1:]
    with open(plan_path, encoding="utf-8") as fh:
        plan = json.load(fh)
    tracer = None
    if "--trace" in flags:
        from probes import Tracer

        tracer = Tracer()
    result = replay(plan, tracer)
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
