"""Probes around polycert's public functions, installed from outside the
package for one traced pass.

Three kinds of probe:

- span: records [name, call id, parent span, start, end, label] for every
  call.  Spans live in memory and are written out with the pass result;
  `summarize` derives inclusive time (outermost span of a name only) and
  self time (duration minus the direct child spans).
- timer: call count plus time at the outermost nesting, for functions too
  hot to keep one span per call (scalar arithmetic, per-row eval).
- count: call count only.

A probe replaces every binding of the function: the attribute on its home
module, every `from ... import` copy in another polycert module and every
dict value that holds it (GADGET_BUILDERS), and, for a method, every class
attribute that aliases it (AlgebraicElement.__rmul__ = __mul__).
"""

from __future__ import annotations

import math
import statistics
import sys
from time import perf_counter

# (metric prefix, module, attribute path, kind)
PROBES = [
    ("ratcore.alg_new", "polycert.ratcore", "AlgebraicElement.__post_init__", "count"),
    ("ratcore.alg_mul", "polycert.ratcore", "AlgebraicElement.__mul__", "count"),
    ("ratcore.alg_sign", "polycert.ratcore", "AlgebraicElement.sign", "timer"),
    ("ratcore.interval", "polycert.ratcore", "AlgebraicElement.interval", "count"),
    ("ratcore.floor_scaled", "polycert.ratcore", "AlgebraicElement.floor_scaled", "timer"),
    ("ratcore.parse_rat", "polycert.ratcore", "parse_rat", "count"),
    ("ratcore.format_rat", "polycert.ratcore", "format_rat", "count"),
    ("polyalg.poly_new", "polycert.polyalg", "Polynomial.__init__", "timer"),
    ("polyalg.eval", "polycert.polyalg", "Polynomial.eval", "timer"),
    ("polyalg.eval_alg", "polycert.polyalg", "Polynomial.eval_alg", "timer"),
    ("polyalg.restrict", "polycert.polyalg", "Polynomial.restrict_to_ray", "timer"),
    ("polyalg.restrict", "polycert.polyalg", "Polynomial.restrict_to_ray_alg", "timer"),
    ("polyalg.affine_substitute", "polycert.polyalg", "Polynomial.affine_substitute", "timer"),
    ("polyalg.to_json", "polycert.polyalg", "Polynomial.to_json", "timer"),
    ("polyalg.from_json", "polycert.polyalg", "Polynomial.from_json", "timer"),
    ("systems.new", "polycert.systems", "PolySystem.__init__", "count"),
    ("systems.verify", "polycert.systems", "verify", "span"),
    ("systems.verify_alg", "polycert.systems", "verify_alg", "span"),
    ("systems.relax", "polycert.systems", "relax", "span"),
    ("systems.to_json", "polycert.systems", "PolySystem.to_json", "span"),
    ("systems.from_json", "polycert.systems", "PolySystem.from_json", "span"),
    ("linear.enumerate_vertices", "polycert.linear", "enumerate_vertices", "span"),
    ("linear.recession_ray", "polycert.linear", "recession_ray", "span"),
    ("bounds.lipschitz", "polycert.bounds", "lipschitz_constant", "span"),
    ("bounds.delta_bound", "polycert.bounds", "delta_bound", "span"),
    ("reductions.parse_dimacs", "polycert.reductions", "parse_dimacs", "span"),
    ("reductions.build", "polycert.reductions", "build_np_hard_system", "span"),
    ("reductions.build", "polycert.reductions", "build_cubic_system", "span"),
    ("reductions.build", "polycert.reductions", "build_unbounded_instance", "span"),
    ("reductions.build_superopt", "polycert.reductions", "build_superopt_problem", "span"),
    ("reductions.witness", "polycert.reductions", "witness_satisfiable", "span"),
    ("reductions.witness", "polycert.reductions", "witness_always", "span"),
    ("reductions.witness", "polycert.reductions", "witness_epsilon", "span"),
    ("reductions.witness", "polycert.reductions", "cubic_algebraic_witness", "span"),
    ("reductions.witness", "polycert.reductions", "unbounded_ray_witness", "span"),
    ("reductions.sat_oracle", "polycert.reductions", "brute_force_sat", "span"),
    ("separable.solve", "polycert.separable", "solve_separable", "span"),
    ("rays.classify", "polycert.rays", "classify_ray", "span"),
    ("rays.rationalize", "polycert.rays", "rationalize_unbounded_ray", "span"),
    ("certify.grid", "polycert.certify", "grid_certificate", "span"),
    ("certify.check", "polycert.certify", "check_certificate", "span"),
    ("cli.main", "polycert.cli", "main", "span"),
] + [
    ("gadgets.build", "polycert.gadgets", f"gadget_{name}", "span")
    for name in ("h", "tiny", "khachiyan", "badboy", "socp", "unlucky")
]


def _observe(tracer: "Tracer", name: str, args, result) -> None:
    """Work counts read off arguments and results at the probe boundary."""
    if name == "ratcore.interval":
        tracer.maxima["ratcore.interval_bits.max"] = max(tracer.maxima.get("ratcore.interval_bits.max", 0), args[1])
    elif name == "linear.enumerate_vertices":
        tracer.add("linear.subsets", math.comb(len(args[0]), args[1]))
    elif name == "bounds.delta_bound":
        tracer.maxima["bounds.delta_bits.max"] = max(tracer.maxima.get("bounds.delta_bits.max", 0), result.bit_length())
    elif name == "certify.grid":
        tracer.samples.setdefault("certify.size_bits", []).append(result.size_bits)
    elif name == "systems.new":
        sys_ = args[0]
        polys = [c.poly for c in sys_.constraints] + ([sys_.objective] if sys_.objective else [])
        tracer.add("polyalg.stored_exps", sum(len(p.terms) for p in polys) * sys_.num_vars)


OBSERVED = {"ratcore.interval", "linear.enumerate_vertices", "bounds.delta_bound", "certify.grid", "systems.new"}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.call_id = -1
        self.timers: dict[str, list] = {}  # name -> [calls, seconds, active]
        self.totals: dict[str, int] = {}
        self.maxima: dict[str, int] = {}
        self.samples: dict[str, list] = {}

    def add(self, name: str, amount: int) -> None:
        self.totals[name] = self.totals.get(name, 0) + amount

    def wrap(self, name: str, kind: str, fn):
        observe = name in OBSERVED
        if kind == "span":
            spans, stack = self.spans, self.stack

            def probe(*args, **kwargs):
                if name == "cli.main":
                    self.call_id += 1
                sid = len(spans)
                label = args[0][0] if name == "cli.main" else None
                rec = [name, self.call_id, stack[-1] if stack else -1, 0.0, 0.0, label]
                spans.append(rec)
                stack.append(sid)
                rec[3] = perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    rec[4] = perf_counter()
                    stack.pop()
                if observe:
                    _observe(self, name, args, result)
                return result

        else:
            slot = self.timers.setdefault(name, [0, 0.0, False])

            def probe(*args, **kwargs):
                slot[0] += 1
                if kind == "count" or slot[2]:
                    result = fn(*args, **kwargs)
                else:
                    slot[2] = True
                    t0 = perf_counter()
                    try:
                        result = fn(*args, **kwargs)
                    finally:
                        slot[1] += perf_counter() - t0
                        slot[2] = False
                if observe:
                    _observe(self, name, args, result)
                return result

        return probe

    def install(self) -> None:
        import importlib

        for name, module, path, kind in PROBES:
            owner = importlib.import_module(module)
            *classes, attr = path.split(".")
            for cls in classes:
                owner = getattr(owner, cls)
            if classes:
                raw = owner.__dict__[attr]
                is_cm = isinstance(raw, classmethod)
                probe = self.wrap(name, kind, raw.__func__ if is_cm else raw)
                new = classmethod(probe) if is_cm else probe
                for key, val in list(owner.__dict__.items()):
                    if val is raw:
                        setattr(owner, key, new)
            else:
                fn = getattr(owner, attr)
                probe = self.wrap(name, kind, fn)
                for mod_name, mod in list(sys.modules.items()):
                    if mod_name == "polycert" or mod_name.startswith("polycert."):
                        _rebind(vars(mod), fn, probe)

    def to_json(self) -> dict:
        return {
            "spans": self.spans,
            "timers": {k: v[:2] for k, v in self.timers.items()},
            "totals": self.totals,
            "maxima": self.maxima,
            "samples": self.samples,
        }


def _rebind(namespace: dict, fn, probe) -> None:
    """Replace fn by probe in a module namespace and the dicts it holds."""
    for key, val in list(namespace.items()):
        if val is fn:
            namespace[key] = probe
        elif isinstance(val, dict) and key != "__builtins__":
            _rebind(val, fn, probe)


def summarize(trace: dict) -> dict:
    """Per-layer metrics from one traced pass."""
    spans = trace["spans"]
    out: dict[str, float] = {}
    for name, (calls, seconds) in trace["timers"].items():
        out[f"{name}.calls"] = calls
        out[f"{name}.s"] = seconds
    child_time = [0.0] * len(spans)
    for name, call_id, parent, t0, t1, label in spans:
        if parent >= 0:
            child_time[parent] += t1 - t0
    by_sub: dict[str, list] = {}
    for sid, (name, call_id, parent, t0, t1, label) in enumerate(spans):
        out[f"{name}.calls"] = out.get(f"{name}.calls", 0) + 1
        out.setdefault(f"{name}.s", 0.0)
        if not _nested_in_same(spans, sid):
            out[f"{name}.s"] += t1 - t0
        if name == "cli.main":
            out["cli.self.s"] = out.get("cli.self.s", 0.0) + (t1 - t0) - child_time[sid]
            by_sub.setdefault(label, []).append((t1 - t0) * 1000)
    for sub, ms in by_sub.items():
        out[f"cli.{sub}.ms_p50"] = statistics.median(ms)
    out.update(trace["totals"])
    out.update(trace["maxima"])
    for name, values in trace["samples"].items():
        out[f"{name}.p50"] = statistics.median(values)
    return out


def _nested_in_same(spans, sid: int) -> bool:
    name = spans[sid][0]
    parent = spans[sid][2]
    while parent >= 0:
        if spans[parent][0] == name:
            return True
        parent = spans[parent][2]
    return False
