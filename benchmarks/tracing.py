"""Per-layer tracing from outside the program.

``Tracer.install`` wraps the public functions of each layer of
``simpson_nd`` without touching a source file.  A wrapper replaces the
attribute on the defining module or class, on every ``simpson_nd`` module
that imported the name with ``from .x import y``, and in module-level
name tables (``rules._NAMED_FIXED`` maps names to the builders);
``Tracer.uninstall`` puts every original back.

Three kinds of wrapper:

* span: one record per call with name, start, end, parent span and
  request id, kept in flat arrays and written out at the end; a span
  with no parent (``cli.run``) starts a new request;
* timed leaf (hot calls): call count and total time, aggregated into the
  enclosing span instead of one record per call;
* counted (scalar ops): call count only.

A span's self time is its duration minus what its child spans and its
timed leaf calls cover.  Leaves contain no spans and do not nest.
"""

from __future__ import annotations

import functools
import gzip
import sys
from array import array
from collections import Counter
from time import perf_counter

# layer -> the program attributes it wraps ("module:attr" or "module:Class.attr")
SPANS = {
    "cli.run": ["cli:run"],
    "claims.run_claims": ["claims:run_claims"],
    "rules.build": [
        f"rules:{name}" for name in (
            "named_rule", "cr1", "cr2", "cr3", "cr4", "cr5", "cr5_conjugate", "cr6",
            "triangle_midedge", "blend", "boundary_rule", "midpoint_rule", "vertex_rule",
        )
    ],
    "rules.apply_poly": ["rules:CubatureRule.apply_poly"],
    "regions.moment": [f"regions:{c}.moment" for c in ("Simplex", "Cube", "Polygon", "UnitDisc")],
    "regions.contains": [
        f"regions:{c}.contains" for c in ("Simplex", "Cube", "Polygon", "UnitDisc")
    ],
    "regions.polygon_new": ["regions:Polygon.__init__"],
    "exactness.exactness_degree": ["exactness:exactness_degree"],
    "exactness.residual": ["exactness:residual"],
    "exactness.solve": ["exactness:solve_lambda", "exactness:solve_weights"],
    "families.system": [
        f"families:{name}" for name in (
            "triangle_system", "square_system", "trapezoid_system", "simplex3_face_system",
        )
    ],
    "families.linalg": [
        "families:exact_det", "families:solve_linear_system", "families:integrate_interpolant",
    ],
    "families.roots": ["families:rational_roots"],
    "compound.apply": ["compound:compound_apply"],
    "expr.parse": ["expr:parse"],
}
LEAVES = {
    "rules.evaluate": ["rules:MonomialPoly.evaluate"],
    "compound.triangle_children": ["compound:triangle_children"],
}
COUNTED = {
    "scalars.add": "scalars:add",
    "scalars.mul": "scalars:mul",
    "scalars.div": "scalars:div",
    "scalars.as_scalar": "scalars:as_scalar",
    "scalars.quad_new": "scalars:Quad.__init__",
}

# Which end-to-end metric each layer metric should move, and on which
# workload; written down before any optimisation is measured.
_PREDICTIONS = [
    # (metrics as (name, unit), end-to-end metrics moved, workloads)
    ([("scalars.mul.calls", "count"), ("scalars.add.calls", "count"),
      ("scalars.div.calls", "count"), ("scalars.as_scalar.calls", "count")],
     "requests_per_s, latency_p50_ms",
     "certify, exact-fields (flat on compound except the triangle path)"),
    ([("scalars.quad_new.calls", "count"), ("scalars.quad_share", "ratio")],
     "latency_tail_ms", "exact-fields (flat on certify, compound)"),
    ([("rules.evaluate.calls", "count"), ("rules.evaluate.self_s", "s"),
      ("rules.apply_poly.calls", "count"), ("rules.apply_poly.self_s", "s")],
     "requests_per_s, latency_tail_ms", "certify (flat on compound)"),
    ([("rules.build.calls", "count"), ("rules.build.self_s", "s")],
     "latency_p50_ms", "certify"),
    ([("regions.moment.calls", "count"), ("regions.moment.self_s", "s"),
      ("regions.polygon_new.calls", "count"), ("regions.polygon_new.self_s", "s"),
      ("regions.contains.calls", "count"), ("regions.contains.self_s", "s")],
     "latency_p50_ms, latency_tail_ms", "exact-fields (flat on compound)"),
    ([("exactness.exactness_degree.calls", "count"), ("exactness.exactness_degree.self_s", "s"),
      ("exactness.residual.calls", "count"), ("exactness.residual.self_s", "s"),
      ("exactness.residuals_per_certify", "count")],
     "requests_per_s, latency_tail_ms", "certify"),
    ([("exactness.solve.calls", "count"), ("exactness.solve.self_s", "s")],
     "latency_p50_ms", "exact-fields (flat on certify, compound)"),
    ([("families.system.calls", "count"), ("families.system.self_s", "s"),
      ("families.linalg.calls", "count"), ("families.linalg.self_s", "s"),
      ("families.roots.self_s", "s")],
     "latency_p50_ms", "exact-fields, certify via verify --all"),
    ([("compound.apply.calls", "count"), ("compound.apply.self_s", "s"),
      ("compound.cells", "count"), ("compound.triangle_children.calls", "count")],
     "requests_per_s, latency_tail_ms, peak_rss_mb", "compound (flat on exact-fields)"),
    ([("expr.parse.self_s", "s"), ("expr.eval.calls", "count"), ("expr.eval.self_s", "s")],
     "requests_per_s", "compound"),
    ([("claims.run_claims.self_s", "s")], "latency_tail_ms", "certify"),
    ([("cli.run.self_s", "s")], "latency_p50_ms", "all three, mostly their smallest requests"),
    ([("trace.requests_per_s", "1/s"), ("trace.untraced_requests_per_s", "1/s"),
      ("trace.overhead", "ratio")],
     "none: the cost of tracing (untraced over traced requests_per_s)", "all three"),
    ([("input.repeat_share", "ratio")],
     "none: share of requests seen before in the run", "certify, compound high; exact-fields 0"),
]
_HIGHER_IS_BETTER = {"trace.requests_per_s", "trace.untraced_requests_per_s", "input.repeat_share"}
# name, unit, better, end-to-end metrics it should move, workloads
LAYER_METRICS = [
    (name, unit, "higher" if name in _HIGHER_IS_BETTER else "lower", moves, workloads)
    for metrics, moves, workloads in _PREDICTIONS
    for name, unit in metrics
]


def _resolve(spec: str):
    """'module:attr' or 'module:Class.attr' -> (owner, attr, original)."""
    module_name, _, path = spec.partition(":")
    owner = sys.modules[f"simpson_nd.{module_name}"]
    *classes, attr = path.split(".")
    for cls in classes:
        owner = getattr(owner, cls)
    return owner, attr, owner.__dict__[attr] if classes else getattr(owner, attr)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("H")
        self.parent = array("i")
        self.request = array("I")
        self.start = array("d")
        self.end = array("d")
        self.leaf_cover = array("d")
        self.stack: list[int] = []
        self.leaf_calls: Counter = Counter()
        self.leaf_time: Counter = Counter()
        self.counts: Counter = Counter()
        self.request_id = -1
        self._undo: list = []

    # ------------------------------------------------------------ wrappers

    def _span(self, name: str, fn, on_result=None):
        nid = self._name_ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        stack = self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(self.start)
            if not stack:
                self.request_id += 1
            self.span_name.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.request.append(self.request_id)
            self.leaf_cover.append(0.0)
            self.end.append(0.0)
            stack.append(idx)
            self.start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = perf_counter()
                stack.pop()
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def _leaf(self, name: str, fn):
        stack = self.stack
        calls, total, cover = self.leaf_calls, self.leaf_time, self.leaf_cover

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                calls[name] += 1
                total[name] += dt
                if stack:
                    cover[stack[-1]] += dt

        return wrapper

    def _counted(self, name: str, fn, quad_type=None):
        counts = self.counts

        if quad_type is None:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
        else:
            @functools.wraps(fn)
            def wrapper(x, y):
                counts[name] += 1
                if type(x) is quad_type or type(y) is quad_type:
                    counts["quad_operand"] += 1
                return fn(x, y)

        return wrapper

    # ------------------------------------------------------------ patching

    def _replace(self, spec: str, make):
        owner, attr, original = _resolve(spec)
        wrapper = make(original)
        if isinstance(owner, type):
            self._undo.append((owner, attr, original))
            setattr(owner, attr, wrapper)
            return
        for name, module in list(sys.modules.items()):
            if module is None or not (name == "simpson_nd" or name.startswith("simpson_nd.")):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    self._undo.append((module, key, original))
                    setattr(module, key, wrapper)
                elif type(value) is dict and not key.startswith("__"):
                    for k, v in value.items():
                        if v is original:
                            self._undo.append((value, k, original))
                            value[k] = wrapper

    def install(self) -> None:
        import simpson_nd.cli  # noqa: F401  (loads every layer module)
        from simpson_nd.scalars import Quad

        for name in ("scalars.add", "scalars.mul"):
            self._replace(COUNTED[name], lambda fn, n=name: self._counted(n, fn, Quad))
        for name in ("scalars.div", "scalars.as_scalar", "scalars.quad_new"):
            self._replace(COUNTED[name], lambda fn, n=name: self._counted(n, fn))
        for layer, specs in LEAVES.items():
            for spec in specs:
                self._replace(spec, lambda fn, n=layer: self._leaf(n, fn))
        for layer, specs in SPANS.items():
            on_result = self._count_cells if layer == "compound.apply" else None
            for spec in specs:
                self._replace(spec, lambda fn, n=layer, r=on_result: self._span(n, fn, r))
        # expr.eval: time every call of the integrand function built by as_function
        self._replace(
            "expr:as_function",
            lambda fn: functools.wraps(fn)(lambda e: self._leaf("expr.eval", fn(e))),
        )

    def _count_cells(self, estimate) -> None:
        self.counts["compound.cells"] += estimate.cells

    def uninstall(self) -> None:
        while self._undo:
            owner, key, original = self._undo.pop()
            if type(owner) is dict:
                owner[key] = original
            else:
                setattr(owner, key, original)

    # ------------------------------------------------------------- results

    def self_times(self) -> tuple[Counter, Counter]:
        """Per layer: span count and summed self time."""
        n = len(self.start)
        cover = array("d", self.leaf_cover)
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                cover[p] += self.end[i] - self.start[i]
        calls: Counter = Counter()
        self_s: Counter = Counter()
        for i in range(n):
            name = self.names[self.span_name[i]]
            calls[name] += 1
            self_s[name] += self.end[i] - self.start[i] - cover[i]
        return calls, self_s

    def layer_metrics(self) -> dict[str, float]:
        calls, self_s = self.self_times()
        calls.update(self.leaf_calls)
        self_s.update(self.leaf_time)
        c = self.counts
        out: dict[str, float] = {}
        for name in ("mul", "add", "div", "as_scalar", "quad_new"):
            out[f"scalars.{name}.calls"] = c[f"scalars.{name}"]
        binary = c["scalars.add"] + c["scalars.mul"]
        out["scalars.quad_share"] = c["quad_operand"] / binary if binary else 0.0
        for layer in ("rules.evaluate", "rules.apply_poly", "rules.build", "regions.moment",
                      "regions.polygon_new", "regions.contains", "exactness.exactness_degree",
                      "exactness.residual", "exactness.solve", "families.system",
                      "families.linalg", "compound.apply", "expr.eval"):
            out[f"{layer}.calls"] = calls[layer]
            out[f"{layer}.self_s"] = self_s[layer]
        certifies = calls["exactness.exactness_degree"]
        out["exactness.residuals_per_certify"] = (
            calls["exactness.residual"] / certifies if certifies else 0.0
        )
        out["families.roots.self_s"] = self_s["families.roots"]
        out["compound.cells"] = c["compound.cells"]
        out["compound.triangle_children.calls"] = calls["compound.triangle_children"]
        for layer in ("expr.parse", "claims.run_claims", "cli.run"):
            out[f"{layer}.self_s"] = self_s[layer]
        return out

    def write_spans(self, path) -> int:
        """Spans as gzip TSV: request, span, parent, name, start_s, end_s."""
        t0 = self.start[0] if len(self.start) else 0.0
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("request\tspan\tparent\tname\tstart_s\tend_s\n")
            for i in range(len(self.start)):
                fh.write(
                    f"{self.request[i]}\t{i}\t{self.parent[i]}\t{self.names[self.span_name[i]]}\t"
                    f"{self.start[i] - t0:.9f}\t{self.end[i] - t0:.9f}\n"
                )
        return len(self.start)
