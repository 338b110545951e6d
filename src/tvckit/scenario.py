"""Scenario files: JSON schema validation, defaults, and model construction.

A scenario bundles a time domain, a finite sample space, an objective (builtin
or DSL expression), a path and an optional perturbation plus per-engine
tolerances.  Validation errors always name the offending key path.  DSL
objectives are gradient-checked at load time; failures surface as warnings,
not errors.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .core import (PerturbationCurve, SampleSpace, StochasticPath, TimeDomain,
                   compact_support_curve, eventually_constant_curve,
                   quintic_ramp_curve)
from .errors import InputError
from .expr import dsl_continuous_objective, dsl_discrete_objective
from .objectives import (QuadLinParams, constant_alpha_path, gradient_check,
                         household_log, quadlin_continuous, quadlin_discrete,
                         quadlin_euler_path)
from .solvers import SolveSpec, newton_euler_solve

BUILTIN_OBJECTIVES = ("quadlin-discrete", "quadlin-continuous", "household-log")
CLOSED_FORM_PATHS = ("quadlin-euler", "constant-alpha")
PERTURBATION_KINDS = ("eventually-constant", "compact-support", "ramp", "explicit")

DEFAULT_SEED = 0

_TOP_KEYS = {"time", "omega", "order", "objective", "path", "perturbation",
             "diagnostics", "tolerances", "seed"}


class SchemaError(InputError):
    """Scenario schema violation; the message starts with the key path."""

    def __init__(self, key_path: str, message: str):
        super().__init__(f"{key_path}: {message}")
        self.key_path = key_path


def _require_mapping(node, key_path):
    if not isinstance(node, dict):
        raise SchemaError(key_path, f"expected an object, got {type(node).__name__}")
    return node


def _reject_unknown(node, allowed, key_path):
    extra = set(node) - set(allowed)
    if extra:
        raise SchemaError(f"{key_path}.{sorted(extra)[0]}", "unknown key")


def _get(node, key, key_path, required=True):
    if key not in node:
        if required:
            raise SchemaError(f"{key_path}.{key}", "missing required key")
        return None
    return node[key]


def _number(value, key_path):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SchemaError(key_path, f"expected a number, got {value!r}")
    return float(value)


def _integer(value, key_path):
    if isinstance(value, bool) or not isinstance(value, int):
        raise SchemaError(key_path, f"expected an integer, got {value!r}")
    return value


def _number_list(value, key_path):
    if not isinstance(value, list) or not value:
        raise SchemaError(key_path, "expected a non-empty list of numbers")
    return [_number(v, f"{key_path}[{i}]") for i, v in enumerate(value)]


@dataclass(frozen=True)
class Scenario:
    """A validated scenario with defaults resolved.

    `echo` is the normalized JSON-compatible dict; reparsing it yields an
    identical scenario.  `warnings` carries load-time diagnostics such as
    DSL gradient-check failures.
    """

    domain: TimeDomain
    space: SampleSpace
    order: int
    echo: dict
    warnings: tuple[str, ...] = ()

    def objective(self):
        spec = self.echo["objective"]
        if "builtin" in spec:
            return _build_builtin(spec, self.order)
        constants = {k: tuple(v) if isinstance(v, list) else v
                     for k, v in spec.get("constants", {}).items()}
        builder = (dsl_continuous_objective if self.domain.kind == "continuous"
                   else dsl_discrete_objective)
        return builder(spec["expr"], self.order, constants)

    def path(self):
        solve = self.solve_spec()
        if solve is not None:
            path, _ = newton_euler_solve(self.objective(), solve)
            return path
        spec = self.echo["path"]
        if "closed_form" in spec:
            params = _quadlin_params(self.echo["objective"])
            if spec["closed_form"] == "quadlin-euler":
                return quadlin_euler_path(self.domain, self.space, params)
            return constant_alpha_path(self.domain, self.space, params)
        if "constant" in spec:
            return StochasticPath.constant(self.domain, self.space, spec["constant"])
        return StochasticPath(self.domain, self.space, np.asarray(spec["values"]))

    def solve_spec(self) -> SolveSpec | None:
        """The Newton solve of the path's solve directive, from a constant guess;
        None when the path has no solve directive."""
        solve = self.echo["path"].get("solve")
        if solve is None:
            return None
        guess = StochasticPath.constant(self.domain, self.space, solve["guess_constant"])
        return SolveSpec(horizon=solve["horizon"], guess=guess, mode=solve["mode"],
                         head=solve.get("head"), tail=solve.get("tail"),
                         tolerance=solve.get("tolerance", 1e-10),
                         max_iterations=solve.get("max_iterations", 100))

    def perturbation(self) -> PerturbationCurve | None:
        spec = self.echo.get("perturbation")
        if spec is None:
            return None
        kind = spec["kind"]
        if kind == "eventually-constant":
            return eventually_constant_curve(self.domain, self.space,
                                             spec["onset"], np.asarray(spec["value"]))
        if kind == "compact-support":
            return compact_support_curve(self.domain, self.space, spec["onset"],
                                         spec["cutoff"], np.asarray(spec["value"]))
        if kind == "ramp":
            return quintic_ramp_curve(self.domain, self.space,
                                      np.asarray(spec["target"]),
                                      ramp_end=spec["ramp_end"])
        return PerturbationCurve(self.domain, self.space, np.asarray(spec["values"]))

    def tolerance(self, engine: str) -> float | None:
        value = self.echo.get("tolerances", {}).get(engine)
        return None if value is None else float(value)

    @property
    def seed(self) -> int:
        return self.echo["seed"]

    @property
    def eps_grid(self):
        return self.echo.get("diagnostics", {}).get("eps_grid")

    @property
    def tprime_grid(self):
        return self.echo.get("diagnostics", {}).get("tprime_grid")


def _build_builtin(spec, order):
    name = spec["builtin"]
    params = spec.get("params", {})
    if name == "household-log":
        return household_log(params["discount"], params.get("n", order),
                             zero_head=params.get("zero_head", True))
    qp = _quadlin_params(spec)
    return quadlin_discrete(qp) if name == "quadlin-discrete" else quadlin_continuous(qp)


def _quadlin_params(obj_spec):
    params = obj_spec.get("params", {})
    if not {"alpha", "beta", "gamma"} <= set(params):
        raise SchemaError("path.closed_form",
                          "closed-form paths need a quadlin objective with alpha/beta/gamma")
    return QuadLinParams(alpha=tuple(params["alpha"]), beta=tuple(params["beta"]),
                        gamma=tuple(params["gamma"]))


# ---------------------------------------------------------------------------
# Validation

def _validate_time(node):
    node = _require_mapping(node, "time")
    kind = _get(node, "kind", "time")
    if kind == "discrete":
        _reject_unknown(node, {"kind", "t_max"}, "time")
        t_max = _integer(_get(node, "t_max", "time"), "time.t_max")
        if t_max < 0:
            raise SchemaError("time.t_max", "must be >= 0")
        return {"kind": "discrete", "t_max": t_max}, TimeDomain.discrete(t_max)
    if kind == "continuous":
        _reject_unknown(node, {"kind", "t_end", "h"}, "time")
        t_end = _number(_get(node, "t_end", "time"), "time.t_end")
        h = _number(_get(node, "h", "time"), "time.h")
        try:
            domain = TimeDomain.continuous(t_end, h)
        except InputError as exc:
            raise SchemaError("time", str(exc)) from exc
        return {"kind": "continuous", "t_end": t_end, "h": h}, domain
    raise SchemaError("time.kind", f"must be 'discrete' or 'continuous', got {kind!r}")


def _validate_omega(node):
    node = _require_mapping(node, "omega")
    _reject_unknown(node, {"probs"}, "omega")
    probs = _number_list(_get(node, "probs", "omega"), "omega.probs")
    try:
        space = SampleSpace(tuple(probs))
    except InputError as exc:
        raise SchemaError("omega.probs", str(exc)) from exc
    return {"probs": probs}, space


def _validate_objective(node, order, space, domain, warnings):
    node = _require_mapping(node, "objective")
    if "builtin" in node:
        _reject_unknown(node, {"builtin", "params"}, "objective")
        name = node["builtin"]
        if name not in BUILTIN_OBJECTIVES:
            raise SchemaError("objective.builtin",
                              f"unknown builtin {name!r}; expected one of {BUILTIN_OBJECTIVES}")
        params = _require_mapping(node.get("params", {}), "objective.params")
        if name == "household-log":
            _reject_unknown(params, {"discount", "n", "zero_head"}, "objective.params")
            discount = _number(_get(params, "discount", "objective.params"),
                               "objective.params.discount")
            if not 0.0 < discount < 1.0:
                raise SchemaError("objective.params.discount", "must lie in (0, 1)")
            n = params.get("n", order)
            if _integer(n, "objective.params.n") != order:
                raise SchemaError("objective.params.n", f"must match order={order}")
            zero_head = params.get("zero_head", True)
            if not isinstance(zero_head, bool):
                raise SchemaError("objective.params.zero_head", "expected a boolean")
            return {"builtin": name,
                    "params": {"discount": discount, "n": order,
                               "zero_head": zero_head}}
        _reject_unknown(params, {"alpha", "beta", "gamma"}, "objective.params")
        out = {}
        for key in ("alpha", "beta", "gamma"):
            vals = _number_list(_get(params, key, "objective.params"),
                                f"objective.params.{key}")
            if len(vals) != space.m:
                raise SchemaError(f"objective.params.{key}",
                                  f"needs one value per state ({space.m})")
            if any(v <= 0 for v in vals):
                raise SchemaError(f"objective.params.{key}", "values must be positive")
            out[key] = vals
        if order != 2:
            raise SchemaError("order", f"{name} has order 2, scenario says {order}")
        expected_kind = "discrete" if name.endswith("discrete") else "continuous"
        if domain.kind != expected_kind:
            raise SchemaError("objective.builtin",
                              f"{name} needs a {expected_kind} time domain")
        return {"builtin": name, "params": out}
    if "expr" not in node:
        raise SchemaError("objective", "needs either 'builtin' or 'expr'")
    _reject_unknown(node, {"expr", "constants"}, "objective")
    source = node["expr"]
    if not isinstance(source, str):
        raise SchemaError("objective.expr", "expected an expression string")
    constants = _require_mapping(node.get("constants", {}), "objective.constants")
    norm_constants = {}
    for cname, cval in constants.items():
        if isinstance(cval, list):
            vals = _number_list(cval, f"objective.constants.{cname}")
            if len(vals) != space.m:
                raise SchemaError(f"objective.constants.{cname}",
                                  f"needs one value per state ({space.m})")
            norm_constants[cname] = vals
        else:
            norm_constants[cname] = _number(cval, f"objective.constants.{cname}")
    builder = (dsl_continuous_objective if domain.kind == "continuous"
               else dsl_discrete_objective)
    obj = builder(source, order, {k: tuple(v) if isinstance(v, list) else v
                                  for k, v in norm_constants.items()})
    rng = np.random.default_rng(12345)
    points = [(rng.uniform(0.5, 2.0, size=(order + 1, 1)), t, w)
              for t in range(3) for w in range(space.m)]
    report = gradient_check(obj, points)
    if not report.passed:
        warnings.append(
            f"objective.expr: gradient check {report.verdict}"
            f" (max relative gap {report.max_rel_gap:.3g})")
    return {"expr": source, "constants": norm_constants}


def _validate_path(node, domain, space, order):
    node = _require_mapping(node, "path")
    keys = {"closed_form", "constant", "values", "solve"}
    present = [k for k in keys if k in node]
    if len(present) != 1:
        raise SchemaError("path", f"needs exactly one of {sorted(keys)}, got {present}")
    _reject_unknown(node, keys, "path")
    kind = present[0]
    if kind == "closed_form":
        name = node["closed_form"]
        if name not in CLOSED_FORM_PATHS:
            raise SchemaError("path.closed_form",
                              f"unknown closed form {name!r}; expected one of {CLOSED_FORM_PATHS}")
        expected = "discrete" if name == "quadlin-euler" else "continuous"
        if domain.kind != expected:
            raise SchemaError("path.closed_form", f"{name} needs a {expected} domain")
        return {"closed_form": name}
    if kind == "constant":
        return {"constant": _number(node["constant"], "path.constant")}
    if kind == "values":
        vals = np.asarray(node["values"], dtype=float)
        if vals.ndim not in (2, 3):
            raise SchemaError("path.values", "expected a (time, state[, dim]) array")
        if vals.shape[0] != domain.num_points or vals.shape[1] != space.m:
            raise SchemaError("path.values",
                              f"shape {vals.shape} does not match "
                              f"({domain.num_points}, {space.m}[, dim])")
        if not np.isfinite(vals).all():
            raise SchemaError("path.values", "values must be finite")
        return {"values": node["values"]}
    solve = _require_mapping(node["solve"], "path.solve")
    allowed = {"horizon", "guess_constant", "mode", "head", "tail",
               "tolerance", "max_iterations"}
    _reject_unknown(solve, allowed, "path.solve")
    horizon = _integer(_get(solve, "horizon", "path.solve"), "path.solve.horizon")
    if horizon + order != domain.t_max:
        raise SchemaError("path.solve.horizon",
                          f"horizon + order must equal time.t_max={domain.t_max}")
    out = {"horizon": horizon,
           "guess_constant": _number(solve.get("guess_constant", 0.0),
                                     "path.solve.guess_constant"),
           "mode": solve.get("mode", "paper_literal")}
    if out["mode"] not in ("paper_literal", "fixed"):
        raise SchemaError("path.solve.mode", f"unknown mode {out['mode']!r}")
    for key in ("head", "tail"):
        if key in solve:
            arr = np.asarray(solve[key], dtype=float)
            if arr.ndim != 2 or arr.shape[1] != space.m:
                raise SchemaError(f"path.solve.{key}",
                                  "expected a (length, state) array of numbers")
            out[key] = solve[key]
    if "tolerance" in solve:
        out["tolerance"] = _number(solve["tolerance"], "path.solve.tolerance")
    if "max_iterations" in solve:
        out["max_iterations"] = _integer(solve["max_iterations"],
                                         "path.solve.max_iterations")
    return {"solve": out}


def _validate_perturbation(node, domain, space):
    if node is None:
        return None
    node = _require_mapping(node, "perturbation")
    kind = _get(node, "kind", "perturbation", required=False)
    if kind is None and "values" in node:
        kind = "explicit"
        node = dict(node, kind="explicit")
    if kind not in PERTURBATION_KINDS:
        raise SchemaError("perturbation.kind",
                          f"expected one of {PERTURBATION_KINDS}, got {kind!r}")
    if kind == "eventually-constant":
        _reject_unknown(node, {"kind", "onset", "value"}, "perturbation")
        onset = _integer(_get(node, "onset", "perturbation"), "perturbation.onset")
        if domain.kind != "discrete":
            raise SchemaError("perturbation.kind", "eventually-constant is discrete-only")
        if not 0 <= onset <= domain.t_max:
            raise SchemaError("perturbation.onset", f"must lie in 0..{domain.t_max}")
        return {"kind": kind, "onset": onset,
                "value": _value_field(node, space, "perturbation.value")}
    if kind == "compact-support":
        _reject_unknown(node, {"kind", "onset", "cutoff", "value"}, "perturbation")
        onset = _integer(_get(node, "onset", "perturbation"), "perturbation.onset")
        cutoff = _integer(_get(node, "cutoff", "perturbation"), "perturbation.cutoff")
        if domain.kind != "discrete":
            raise SchemaError("perturbation.kind", "compact-support is discrete-only")
        if not 0 <= onset <= cutoff <= domain.t_max:
            raise SchemaError("perturbation.cutoff",
                              f"need 0 <= onset <= cutoff <= {domain.t_max}")
        return {"kind": kind, "onset": onset, "cutoff": cutoff,
                "value": _value_field(node, space, "perturbation.value")}
    if kind == "ramp":
        _reject_unknown(node, {"kind", "target", "ramp_end"}, "perturbation")
        if domain.kind != "continuous":
            raise SchemaError("perturbation.kind", "ramp curves are continuous-only")
        out = {"kind": kind, "target": _value_field(node, space, "perturbation.target")}
        ramp_end = _number(node.get("ramp_end", 1.0), "perturbation.ramp_end")
        if ramp_end <= 0:
            raise SchemaError("perturbation.ramp_end", "must be positive")
        out["ramp_end"] = ramp_end
        return out
    _reject_unknown(node, {"kind", "values"}, "perturbation")
    vals = np.asarray(_get(node, "values", "perturbation"), dtype=float)
    if vals.ndim not in (2, 3) or vals.shape[0] != domain.num_points or vals.shape[1] != space.m:
        raise SchemaError("perturbation.values",
                          f"shape {vals.shape} does not match the domain and state count")
    return {"kind": "explicit", "values": node["values"]}


def _value_field(node, space, key_path):
    parent, key = key_path.rsplit(".", 1)
    value = _get(node, key, parent)
    if isinstance(value, list):
        vals = _number_list(value, key_path)
        if len(vals) != space.m:
            raise SchemaError(key_path, f"needs one value per state ({space.m})")
        return vals
    return _number(value, key_path)


def _validate_diagnostics(node):
    if node is None:
        return None
    node = _require_mapping(node, "diagnostics")
    _reject_unknown(node, {"eps_grid", "tprime_grid"}, "diagnostics")
    out = {}
    if "eps_grid" in node:
        grid = _number_list(node["eps_grid"], "diagnostics.eps_grid")
        if any(e2 >= e1 for e1, e2 in zip(grid, grid[1:])) or any(e <= 0 for e in grid):
            raise SchemaError("diagnostics.eps_grid",
                              "must be strictly decreasing and positive")
        out["eps_grid"] = grid
    if "tprime_grid" in node:
        grid = _number_list(node["tprime_grid"], "diagnostics.tprime_grid")
        if any(t2 <= t1 for t1, t2 in zip(grid, grid[1:])):
            raise SchemaError("diagnostics.tprime_grid", "must be strictly increasing")
        out["tprime_grid"] = grid
    return out or None


def _validate_tolerances(node):
    if node is None:
        return None
    node = _require_mapping(node, "tolerances")
    _reject_unknown(node, {"euler", "tvc"}, "tolerances")
    out = {}
    for key, value in node.items():
        tol = _number(value, f"tolerances.{key}")
        if tol <= 0:
            raise SchemaError(f"tolerances.{key}", "must be positive")
        out[key] = tol
    return out or None


def parse_scenario(data: dict) -> Scenario:
    """Validate a scenario dict and resolve defaults."""
    data = _require_mapping(data, "$")
    _reject_unknown(data, _TOP_KEYS, "$")
    time_echo, domain = _validate_time(_get(data, "time", "$"))
    omega_echo, space = _validate_omega(_get(data, "omega", "$"))
    order = _integer(_get(data, "order", "$"), "order")
    if order < 0:
        raise SchemaError("order", "must be >= 0")
    warnings: list[str] = []
    objective_echo = _validate_objective(_get(data, "objective", "$"), order,
                                         space, domain, warnings)
    path_echo = _validate_path(_get(data, "path", "$"), domain, space, order)
    echo = {"time": time_echo, "omega": omega_echo, "order": order,
            "objective": objective_echo, "path": path_echo,
            "seed": _integer(data.get("seed", DEFAULT_SEED), "seed")}
    pert = _validate_perturbation(data.get("perturbation"), domain, space)
    if pert is not None:
        echo["perturbation"] = pert
    diag = _validate_diagnostics(data.get("diagnostics"))
    if diag is not None:
        echo["diagnostics"] = diag
    tols = _validate_tolerances(data.get("tolerances"))
    if tols is not None:
        echo["tolerances"] = tols
    return Scenario(domain=domain, space=space, order=order, echo=echo,
                    warnings=tuple(warnings))


def load_scenario(path) -> Scenario:
    """Read, parse and validate a scenario file (UTF-8 JSON)."""
    path = Path(path)
    if not path.exists():
        raise InputError(f"scenario file not found: {path}")
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise InputError(f"invalid JSON in {path}: {exc}") from exc
    return parse_scenario(data)
