"""Outside-in layer tracing for the benchmark.

The program is not edited.  Each traced function is replaced, at every
module attribute it is looked up through (``polysmith.detadj.adjoint`` and
also ``polysmith.gcdkit.adjoint``, ``polysmith.snf_opt.adjoint``, ...), by a
wrapper that records a span: name, start, end, parent span and job id.
``lm_minimize`` also wraps the residual and Hessian callables it receives,
named after the solver module that called it.  Spans stay in memory and are
written out when the run ends.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
from time import perf_counter

# (defining module, function, span name).  matpoly is not traced: its work
# counts inside the spans of its callers.
TARGETS = [
    ("polysmith.cli", "run", "cli.run"),
    ("polysmith.cli", "parse", "cli.parse"),
    ("polysmith.cli", "_cmd_check", "cli.command"),
    ("polysmith.cli", "_cmd_bound", "cli.command"),
    ("polysmith.cli", "_cmd_snf", "cli.command"),
    ("polysmith.cli", "_cmd_mccoy", "cli.command"),
    ("polysmith.lmsolve", "lm_step", "lmsolve.lm_step"),
    ("polysmith.snf_opt", "solve", "snf_opt.solve"),
    ("polysmith.snf_opt", "initial_guess", "snf_opt.initial_guess"),
    ("polysmith.snf_opt", "certify", "snf_opt.certify"),
    ("polysmith.mccoy_opt", "solve_mccoy", "mccoy_opt.solve"),
    ("polysmith.mccoy_opt", "initial_guess_mccoy", "mccoy_opt.initial_guess"),
    ("polysmith.mccoy_opt", "companion_linearization", "mccoy_opt.linearize"),
    ("polysmith.detadj", "adjoint", "detadj.adjoint"),
    ("polysmith.detadj", "determinant", "detadj.determinant"),
    ("polysmith.detadj", "jacobian_adj", "detadj.jacobian_adj"),
    ("polysmith.gcdkit", "triviality_report", "gcdkit.triviality_report"),
    ("polysmith.gcdkit", "reachable_adjoint_degrees", "gcdkit.reachable_degrees"),
    ("polysmith.gcdkit", "detect_unattainable", "gcdkit.detect_unattainable"),
    ("polysmith.gcdkit", "distance_lower_bound", "gcdkit.lower_bound"),
    ("polysmith.gcdkit", "approx_gcd", "gcdkit.approx_gcd"),
    ("polysmith.gcdkit", "approx_gcd_candidates", "gcdkit.approx_gcd"),
    ("polysmith.structured", "block_conv_matrix", "structured.block_conv"),
    ("polysmith.structured", "generalized_sylvester", "structured.sylvester"),
    ("polysmith.structured", "numeric_rank", "structured.numeric_rank"),
]
LM_MODULE, LM_FUNCTION = "polysmith.lmsolve", "lm_minimize"
CONVERGED = ("GradTol", "StepTol")


class Tracer:
    """Span store for one traced pass; a stack gives each span its parent."""

    def __init__(self):
        self.names, self.start, self.end, self.parent, self.job = [], [], [], [], []
        self.nested = []  # True when an enclosing span has the same name
        self._stack = []
        self._active = {}
        self.job_id = -1
        self.lm_iterations = 0
        self.lm_unconverged = 0

    def open(self, name: str) -> int:
        idx = len(self.names)
        depth = self._active.get(name, 0)
        self._active[name] = depth + 1
        self.names.append(name)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.job.append(self.job_id)
        self.nested.append(depth > 0)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def close(self, idx: int):
        self.end[idx] = perf_counter()
        self._stack.pop()
        self._active[self.names[idx]] -= 1

    def span(self, fn, name: str):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(idx)

        return traced

    def lm_wrapper(self, fn, caller: str):
        """lm_minimize seen from `caller`: residual and Hessian callables get
        spans named after the caller, and the returned trace is counted."""

        @functools.wraps(fn)
        def traced(g_fn, h_fn, z0, cfg=None):
            idx = self.open("lmsolve.lm_minimize")
            try:
                z, trace = fn(self.span(g_fn, f"{caller}.residual"),
                              self.span(h_fn, f"{caller}.hessian"), z0, cfg)
            finally:
                self.close(idx)
            self.lm_iterations += trace.iterations
            self.lm_unconverged += trace.termination.value not in CONVERGED
            return z, trace

        return traced

    def write(self, fh, pass_index: int):
        """One JSON line per span; times in seconds from the first span."""
        t0 = self.start[0] if self.start else 0.0
        for i, name in enumerate(self.names):
            fh.write(json.dumps({
                "pass": pass_index, "id": i, "name": name, "parent": self.parent[i],
                "job": self.job[i], "start": self.start[i] - t0, "end": self.end[i] - t0,
            }) + "\n")


def span_cost() -> float:
    """Seconds one span adds to a call: median over 5 rounds of 20,000 calls
    to a no-op function, wrapped against bare."""

    def noop():
        return None

    calls, costs = 20000, []
    for _ in range(5):
        wrapped = Tracer().span(noop, "noop")
        start = perf_counter()
        for _ in range(calls):
            noop()
        bare = perf_counter() - start
        start = perf_counter()
        for _ in range(calls):
            wrapped()
        costs.append((perf_counter() - start - bare) / calls)
    return statistics.median(costs)


class Patch:
    """Installs a tracer's wrappers in every polysmith module and undoes it."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self._saved = []

    def __enter__(self):
        modules = {name: mod for name, mod in sys.modules.items()
                   if name == "polysmith" or name.startswith("polysmith.")}
        spans = {}
        for mod_name, fn_name, span_name in TARGETS:
            fn = getattr(modules[mod_name], fn_name)
            spans[id(fn)] = (fn, span_name)
        lm = getattr(modules[LM_MODULE], LM_FUNCTION)
        for mod_name, mod in modules.items():
            for attr, value in list(vars(mod).items()):
                if value is lm:
                    wrapped = self.tracer.lm_wrapper(lm, mod_name.rsplit(".", 1)[-1])
                elif id(value) in spans and spans[id(value)][0] is value:
                    wrapped = self.tracer.span(value, spans[id(value)][1])
                else:
                    continue
                self._saved.append((mod, attr, value))
                setattr(mod, attr, wrapped)
        return self.tracer

    def __exit__(self, *exc):
        for mod, attr, value in reversed(self._saved):
            setattr(mod, attr, value)
        self._saved.clear()
        return False


def layer_metrics(tracer: Tracer, commands: dict) -> dict:
    """Per-layer metrics of one traced pass.

    `commands` maps job id to CLI command.  A `_s` metric is the inclusive
    time of the outermost spans of that name; `self_s` of a layer is the
    time its spans cover minus the time their child spans cover.
    """
    n = len(tracer.names)
    dur = [tracer.end[i] - tracer.start[i] for i in range(n)]
    child = [0.0] * n
    for i in range(n):
        if tracer.parent[i] >= 0:
            child[tracer.parent[i]] += dur[i]
    calls, incl, self_layer, self_name = {}, {}, {}, {}
    adjoints_in_checks = 0
    for i, name in enumerate(tracer.names):
        calls[name] = calls.get(name, 0) + 1
        if not tracer.nested[i]:
            incl[name] = incl.get(name, 0.0) + dur[i]
        own = dur[i] - child[i]
        layer = name.split(".", 1)[0]
        self_layer[layer] = self_layer.get(layer, 0.0) + own
        self_name[name] = self_name.get(name, 0.0) + own
        if name == "detadj.adjoint" and commands.get(tracer.job[i]) == "check":
            adjoints_in_checks += 1
    checks = sum(1 for c in commands.values() if c == "check")
    trials = calls.get("lmsolve.lm_step", 0)
    iterations = tracer.lm_iterations
    c = lambda name: calls.get(name, 0)  # noqa: E731
    s = lambda name: incl.get(name, 0.0)  # noqa: E731
    return {
        "lmsolve.iterations": iterations,
        "lmsolve.trials": trials,
        "lmsolve.rejected_trials": trials - iterations,
        "lmsolve.accept_ratio": iterations / trials if trials else 0.0,
        "lmsolve.unconverged": tracer.lm_unconverged,
        "lmsolve.step_s": s("lmsolve.lm_step"),
        "lmsolve.self_s": self_name.get("lmsolve.lm_minimize", 0.0),
        "snf_opt.residual_calls": c("snf_opt.residual"),
        "snf_opt.residual_s": s("snf_opt.residual"),
        "snf_opt.hessian_calls": c("snf_opt.hessian"),
        "snf_opt.hessian_s": s("snf_opt.hessian"),
        "snf_opt.initial_guess_s": s("snf_opt.initial_guess"),
        "snf_opt.certify_s": s("snf_opt.certify"),
        "snf_opt.self_s": self_layer.get("snf_opt", 0.0),
        "mccoy_opt.residual_s": s("mccoy_opt.residual"),
        "mccoy_opt.hessian_calls": c("mccoy_opt.hessian"),
        "mccoy_opt.hessian_s": s("mccoy_opt.hessian"),
        "mccoy_opt.initial_guess_s": s("mccoy_opt.initial_guess"),
        "mccoy_opt.linearize_calls": c("mccoy_opt.linearize"),
        "mccoy_opt.self_s": self_layer.get("mccoy_opt", 0.0),
        "detadj.adjoint_calls": c("detadj.adjoint"),
        "detadj.adjoint_s": s("detadj.adjoint"),
        "detadj.determinant_calls": c("detadj.determinant"),
        "detadj.jacobian_adj_calls": c("detadj.jacobian_adj"),
        "detadj.jacobian_adj_s": s("detadj.jacobian_adj"),
        "detadj.adjoints_per_check": adjoints_in_checks / checks if checks else 0.0,
        "detadj.self_s": self_layer.get("detadj", 0.0),
        "gcdkit.triviality_report_s": s("gcdkit.triviality_report"),
        "gcdkit.reachable_degrees_s": s("gcdkit.reachable_degrees"),
        "gcdkit.detect_unattainable_s": s("gcdkit.detect_unattainable"),
        "gcdkit.lower_bound_s": s("gcdkit.lower_bound"),
        "gcdkit.approx_gcd_s": s("gcdkit.approx_gcd"),
        "gcdkit.self_s": self_layer.get("gcdkit", 0.0),
        "structured.block_conv_calls": c("structured.block_conv"),
        "structured.block_conv_s": s("structured.block_conv"),
        "structured.sylvester_calls": c("structured.sylvester"),
        "structured.numeric_rank_calls": c("structured.numeric_rank"),
        "structured.self_s": self_layer.get("structured", 0.0),
        "cli.parse_s": s("cli.parse"),
        "cli.self_s": s("cli.run") - s("cli.command"),
    }
