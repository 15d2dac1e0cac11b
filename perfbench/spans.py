"""Layer spans recorded from outside the program.

The tracer replaces each public function named in LAYER_FUNCTIONS with a
wrapper at every place a g2knot module binds it (module globals, dicts held
in module globals, and class attributes for methods), so calls made through
names imported with `from .loops import integrate` are caught as well as
calls through `loops.integrate`. A span is [name, start, end, parent, ok];
spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
import time

# (module, attribute) for every function whose calls and self time are
# reported; "Class.method" names a method, and "Loop7" times construction.
LAYER_FUNCTIONS = [
    ("forms", "hodge_star"), ("forms", "wedge"), ("forms", "AltForm.tensor"),
    ("algebra", "two_form_operator_matrix"), ("algebra", "two_form_decompose"),
    ("algebra", "cross_field"), ("algebra", "is_associative"),
    ("loops", "Loop7"), ("loops", "spectral_derivative"),
    ("loops", "arclength_params"), ("loops", "trig_interpolate"),
    ("loops", "loop_from_json"), ("loops", "loop_to_json"),
    ("cli", "run"),
    ("knots", "omega"), ("knots", "d_omega"), ("knots", "d_omega_fd"),
    ("knots", "hermitian_metric"), ("knots", "acs_apply"), ("knots", "nijenhuis"),
    ("knots", "KnotChart.acs"), ("knots", "chart_bracket"),
    ("twistor", "omega3_integrand"), ("twistor", "omega3_eval"),
    ("twistor", "xi_eval"), ("twistor", "d_omega3_vs_xi"),
    ("twistor", "cartan_check"), ("twistor", "lift_tangent"),
    ("twistor", "lift_tangent_fd"), ("twistor", "lknot_lift"),
    ("instanton", "is_g2_instanton"), ("instanton", "lifted_curvature_type_residual"),
    ("verify", "suite_kahler"), ("verify", "suite_twistor"),
    ("verify", "suite_associative"), ("verify", "suite_instanton"),
    ("verify", "random_normal_field"),
]

# Traced for the derived metrics only: the cold build of the G2 structure and
# the rejection sampling of random loops.
EXTRA_FUNCTIONS = [("algebra", "standard_g2"), ("verify", "random_loop"),
                   ("loops", "loop_from_fourier")]


def span_name(module: str, attr: str) -> str:
    return f"{module}.{attr}"


def metric_names() -> list[str]:
    """Every per-layer metric a traced run reports, in a fixed order."""
    names = []
    for module, attr in LAYER_FUNCTIONS:
        names += [f"{span_name(module, attr)}.calls", f"{span_name(module, attr)}.s"]
    return names + ["algebra.standard_g2.s", "loops.arclength_params.newton_steps",
                    "verify.random_loop.accept_ratio"]


class Tracer:
    """Wraps g2knot's public functions and records spans while `recording`."""

    def __init__(self):
        self.spans: list[list] = []
        self.recording = False
        self._stack: list[int] = []

    def _wrap(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            span = [name, time.perf_counter(), 0.0,
                    tracer._stack[-1] if tracer._stack else -1, False]
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(span)
            try:
                result = fn(*args, **kwargs)
                span[4] = True
                return result
            finally:
                span[2] = time.perf_counter()
                tracer._stack.pop()
        return traced

    def install(self):
        """Replace every binding of the traced functions in loaded g2knot modules."""
        modules = [m for n, m in sys.modules.items()
                   if m is not None and (n == "g2knot" or n.startswith("g2knot."))]
        for module, attr in LAYER_FUNCTIONS + EXTRA_FUNCTIONS:
            owner = sys.modules[f"g2knot.{module}"]
            name = span_name(module, attr)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                setattr(cls, meth, self._wrap(name, getattr(cls, meth)))
                continue
            original = getattr(owner, attr)
            if isinstance(original, type):
                original.__init__ = self._wrap(name, original.__init__)
                continue
            wrapper = self._wrap(name, original)
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is original:
                        setattr(mod, key, wrapper)
                    elif isinstance(val, dict):
                        for dkey, dval in list(val.items()):
                            if dval is original:
                                val[dkey] = wrapper

    def window(self, start: int, end: int | None = None) -> dict:
        """Calls, self seconds and derived ratios over spans[start:end]."""
        spans = self.spans[start:end]
        child = [0.0] * len(spans)
        for s in spans:
            if s[3] >= start:
                child[s[3] - start] += s[2] - s[1]
        calls: dict[str, int] = {}
        self_s: dict[str, float] = {}
        for s, c in zip(spans, child):
            calls[s[0]] = calls.get(s[0], 0) + 1
            self_s[s[0]] = self_s.get(s[0], 0.0) + (s[2] - s[1]) - c

        def inside(s, ancestor: str) -> bool:
            p = s[3]
            while p >= start:
                if self.spans[p][0] == ancestor:
                    return True
                p = self.spans[p][3]
            return False

        arclength = calls.get("loops.arclength_params", 0)
        newton = sum(1 for s in spans if s[0] == "loops.trig_interpolate"
                     and inside(s, "loops.arclength_params"))
        attempts = sum(1 for s in spans if s[0] == "loops.loop_from_fourier"
                       and inside(s, "verify.random_loop"))
        accepted = sum(1 for s in spans if s[0] == "verify.random_loop" and s[4])
        return {"calls": calls, "self_s": self_s,
                "newton_steps": newton / arclength if arclength else 0.0,
                "accept_ratio": accepted / attempts if attempts else 0.0}

    def dump(self, path: str):
        """Write the spans as one JSON list per line: name, start, end, parent, ok."""
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")


def layer_metrics(setup: dict, passes: list[dict]) -> tuple[dict, list[str]]:
    """Per-layer metrics from the cold-setup window and identical traced passes.

    Calls are per pass and must repeat exactly between passes; self times are
    medians over the passes; standard_g2's self time is its cold build.
    """
    problems = []
    first = passes[0]
    for i, p in enumerate(passes[1:], start=2):
        if p["calls"] != first["calls"]:
            problems.append(f"call counts of traced pass {i} differ from pass 1")
    metrics = {}
    for module, attr in LAYER_FUNCTIONS:
        name = span_name(module, attr)
        metrics[f"{name}.calls"] = {"value": first["calls"].get(name, 0), "unit": "count"}
        metrics[f"{name}.s"] = {
            "value": statistics.median(p["self_s"].get(name, 0.0) for p in passes),
            "unit": "s"}
    metrics["algebra.standard_g2.s"] = {
        "value": setup["self_s"].get("algebra.standard_g2", 0.0), "unit": "s"}
    metrics["loops.arclength_params.newton_steps"] = {
        "value": first["newton_steps"], "unit": "steps/call"}
    metrics["verify.random_loop.accept_ratio"] = {
        "value": first["accept_ratio"], "unit": "ratio"}
    return metrics, problems
