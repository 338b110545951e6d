"""Spans around tvckit's public functions, installed at run time from the
benchmark's own files, and the per-layer metrics derived from them.

No tvckit source file changes.  Each wrapped function is replaced in every
tvckit module that binds it (``tvckit.euler.partial_slot``,
``tvckit.tvc.partial_slot``, ...), so calls between modules are seen too.
A span records its name, start, end, parent span and job id; spans stay in
memory in flat arrays and are written out when the pass ends.
"""

from __future__ import annotations

import gzip
import sys
from array import array
from collections import Counter
from time import perf_counter

# (defining module, attribute, span name, result measure -> counter name)
TARGETS = (
    ("tvckit.core", "perturb", "core.perturb", None),
    ("tvckit.core", "time_derivative", "core.time_derivative", None),
    ("tvckit.objectives", "partial_slot", "objectives.partial", None),
    ("tvckit.objectives", "fd_partial_slot", "objectives.fd_partial", None),
    ("tvckit.objectives", "gradient_check", "objectives.gradient_check", None),
    ("tvckit.expr", "eval_ast", "expr.eval", None),
    ("tvckit.euler", "euler_report", "euler.report",
     ("euler.rows", lambda rep: len(rep.indices))),
    ("tvckit.euler", "discrete_euler_residual", "euler.residual", None),
    ("tvckit.euler", "continuous_euler_residual_series", "euler.residual", None),
    ("tvckit.tvc", "tvc_liminf_discrete", "tvc.liminf", None),
    ("tvckit.tvc", "tvc_liminf_continuous", "tvc.liminf", None),
    ("tvckit.tvc", "discrete_tvc_tail", "tvc.tail", None),
    ("tvckit.tvc", "boundary_bracket_series", "tvc.bracket", None),
    ("tvckit.tvc", "variation_decomposition_check", "tvc.decomposition", None),
    ("tvckit.tvc", "truncated_objective", "tvc.truncated_objective", None),
    ("tvckit.diagnostics", "a_grid", "diagnostics.a_grid",
     ("diagnostics.cells", lambda matrix: int(matrix.values.size))),
    ("tvckit.diagnostics", "uniformity_verdict", "diagnostics.verdict", None),
    ("tvckit.solvers", "newton_euler_solve", "solvers.newton",
     ("solvers.newton_iterations", lambda out: int(sum(out[1].iterations)))),
    ("tvckit.solvers", "brute_force_solve", "solvers.brute_force", None),
    ("tvckit.solvers", "correspondence_check", "solvers.correspond", None),
    ("tvckit.scenario", "parse_scenario", "scenario.parse", None),
    ("tvckit.cli", "main", "cli.main", None),
)

# Per-layer metrics that are exact work counts: two traced passes with the
# same seed must agree on every one of them.
COUNT_METRICS = (
    "scenario.parse_calls", "cli.report_bytes", "core.perturb_calls",
    "core.time_derivative_calls", "objectives.value_calls",
    "objectives.partial_calls", "objectives.fd_partial_calls",
    "expr.eval_calls", "euler.rows", "euler.residual_calls",
    "tvc.tail_calls", "tvc.truncated_objective_calls", "diagnostics.cells",
    "solvers.newton_iterations", "solvers.newton_partial_calls",
    "solvers.newton_value_calls", "solvers.brute_force_value_calls",
)


class Tracer:
    """In-memory span recorder; one per traced process."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.job = array("i")
        self.stack = [-1]
        self.job_id = -1
        self.counters: Counter = Counter()

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, span_name, fn, measure=None):
        nid = self._name_id(span_name)
        stack, counters = self.stack, self.counters

        def traced(*args, **kwargs):
            i = len(self.start)
            self.name.append(nid)
            self.parent.append(stack[-1])
            self.job.append(self.job_id)
            self.end.append(0.0)
            stack.append(i)
            self.start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[i] = perf_counter()
                stack.pop()
            if measure is not None:
                counters[measure[0]] += measure[1](result)
            return result

        return traced

    def install(self):
        """Wrap every target in every tvckit module that binds it."""
        modules = [mod for name, mod in sys.modules.items()
                   if name == "tvckit" or name.startswith("tvckit.")]
        for mod_name, attr, span_name, measure in TARGETS:
            orig = getattr(sys.modules[mod_name], attr)
            traced = self.wrap(span_name, orig, measure)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, key, traced)
        objective_cls = sys.modules["tvckit.objectives"]._Objective
        objective_cls.value = self.wrap("objectives.value", objective_cls.value)

    def write(self, path):
        """Spans as gzipped CSV: name, start, end, parent, job."""
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as fh:
            fh.write("span,name,start_s,end_s,parent,job\n")
            for i in range(len(self.start)):
                fh.write(f"{i},{self.names[self.name[i]]},{self.start[i]:.9f},"
                         f"{self.end[i]:.9f},{self.parent[i]},{self.job[i]}\n")

    def layer_metrics(self, report_bytes: int) -> tuple[dict, dict]:
        """(per-layer metrics, self time per span name)."""
        names, parent = self.names, self.parent
        n = len(self.start)
        dur = [e - s for s, e in zip(self.start, self.end)]
        child = [0.0] * n
        # bit per span name of an enclosing span; parents precede children
        bit = {name: 1 << i for i, name in enumerate(names)}
        inside = [0] * n
        count: Counter = Counter()
        total: Counter = Counter()
        selft: Counter = Counter()
        under: Counter = Counter()  # (name, enclosing name) -> count
        under_s: Counter = Counter()
        watch = ("solvers.newton", "solvers.brute_force", "scenario.parse",
                 "objectives.fd_partial")
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += dur[i]
                inside[i] = inside[p] | bit[names[self.name[p]]]
        for i in range(n):
            name = names[self.name[i]]
            count[name] += 1
            total[name] += dur[i]
            selft[name] += dur[i] - child[i]
            for outer in watch:
                if inside[i] & bit[outer]:
                    under[name, outer] += 1
                    under_s[name, outer] += dur[i]
        c = self.counters
        # fd_partial_slot reaches partial_slot on a copy without analytic
        # partials; those calls belong to the FD path, not to partial_*
        fd = ("objectives.partial", "objectives.fd_partial")
        metrics = {
            "scenario.parse_calls": count["scenario.parse"],
            "scenario.parse_s": total["scenario.parse"],
            "scenario.gradient_check_s": under_s["objectives.gradient_check", "scenario.parse"],
            "cli.self_s": selft["cli.main"],
            "cli.report_bytes": report_bytes,
            "core.perturb_calls": count["core.perturb"],
            "core.perturb_s": total["core.perturb"],
            "core.time_derivative_calls": count["core.time_derivative"],
            "core.time_derivative_s": total["core.time_derivative"],
            "objectives.value_calls": count["objectives.value"],
            "objectives.value_s": total["objectives.value"],
            "objectives.partial_calls": count["objectives.partial"] - under[fd],
            "objectives.partial_s": total["objectives.partial"] - under_s[fd],
            "objectives.fd_partial_calls": count["objectives.fd_partial"],
            "expr.eval_calls": count["expr.eval"],
            "expr.eval_s": total["expr.eval"],
            "euler.report_s": total["euler.report"],
            "euler.rows": c["euler.rows"],
            "euler.residual_calls": count["euler.residual"],
            "tvc.liminf_s": total["tvc.liminf"],
            "tvc.tail_calls": count["tvc.tail"],
            "tvc.bracket_s": total["tvc.bracket"],
            "tvc.decomposition_s": total["tvc.decomposition"],
            "tvc.truncated_objective_calls": count["tvc.truncated_objective"],
            "diagnostics.a_grid_s": total["diagnostics.a_grid"],
            "diagnostics.cells": c["diagnostics.cells"],
            "diagnostics.verdict_s": total["diagnostics.verdict"],
            "solvers.newton_s": total["solvers.newton"],
            "solvers.newton_iterations": c["solvers.newton_iterations"],
            "solvers.newton_partial_calls": under["objectives.partial", "solvers.newton"],
            "solvers.newton_value_calls": under["objectives.value", "solvers.newton"],
            "solvers.brute_force_s": total["solvers.brute_force"],
            "solvers.brute_force_value_calls": under["objectives.value", "solvers.brute_force"],
            "solvers.correspond_s": total["solvers.correspond"],
        }
        metrics = {k: float(v) if k.endswith("_s") else v for k, v in metrics.items()}
        return metrics, dict(sorted(selft.items()))
