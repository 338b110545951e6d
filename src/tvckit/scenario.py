"""Scenario files: JSON schema validation, defaults, and model construction.

A scenario bundles a time domain, a finite sample space, an objective (builtin
or DSL expression), a path and an optional perturbation plus per-engine
tolerances.  Each model is built once, at load, by the library constructor
that checks it; its input errors are re-raised as SchemaError at the key path,
so every command accepts and rejects the same scenarios.  DSL objectives are
gradient-checked at load time; failures surface as warnings, not errors.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .core import (GRID_BUDGET, PerturbationCurve, SampleSpace, StochasticPath,
                   TimeDomain, compact_support_curve, eventually_constant_curve,
                   quintic_ramp_curve)
from .errors import HorizonError, InputError
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
    """A finite number; JSON's NaN and Infinity are refused."""
    if not isinstance(value, bool) and isinstance(value, (int, float)):
        try:
            if math.isfinite(value):
                return float(value)
        except OverflowError:
            pass
    raise SchemaError(key_path, f"expected a finite number, got {value!r}")


def _integer(value, key_path):
    if isinstance(value, bool) or not isinstance(value, int):
        raise SchemaError(key_path, f"expected an integer, got {value!r}")
    return value


def _number_list(value, key_path):
    if not isinstance(value, list) or not value:
        raise SchemaError(key_path, "expected a non-empty list of numbers")
    return [_number(v, f"{key_path}[{i}]") for i, v in enumerate(value)]


def _per_state(value, key_path, space):
    vals = _number_list(value, key_path)
    if len(vals) != space.m:
        raise SchemaError(key_path, f"needs one value per state ({space.m})")
    return vals


def _array(value, key_path):
    """A rectangular nested list of numbers as a float array."""
    try:
        cells = np.array(value, dtype=object)
        if {type(v) for v in cells.flat} <= {int, float}:
            return cells.astype(float)
    except (ValueError, OverflowError):
        pass
    raise SchemaError(key_path, "expected a rectangular array of numbers")


def _build(key_path, constructor, *args, **kwargs):
    """constructor(*args, **kwargs), its input errors re-raised at key_path."""
    try:
        return constructor(*args, **kwargs)
    except (InputError, HorizonError) as exc:
        raise SchemaError(key_path, str(exc)) from exc


@dataclass(frozen=True)
class Scenario:
    """A validated scenario with defaults resolved and its models built.

    `echo` is the normalized JSON-compatible dict; reparsing it yields an
    equal scenario (the built models are not compared).  `warnings` carries
    load-time diagnostics such as DSL gradient-check failures.
    """

    domain: TimeDomain
    space: SampleSpace
    order: int
    echo: dict
    _objective: object = field(compare=False)
    _path: StochasticPath | SolveSpec = field(compare=False)
    _curve: PerturbationCurve | None = field(compare=False)
    warnings: tuple[str, ...] = ()

    def objective(self):
        return self._objective

    def path(self):
        """The fixed path, or the Newton solution of the solve directive (solved
        at each call)."""
        if isinstance(self._path, SolveSpec):
            return newton_euler_solve(self._objective, self._path)[0]
        return self._path

    def solve_spec(self) -> SolveSpec | None:
        """The Newton solve of the path's solve directive, from a constant guess;
        None when the path has no solve directive."""
        return self._path if isinstance(self._path, SolveSpec) else None

    def perturbation(self) -> PerturbationCurve | None:
        return self._curve

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


# ---------------------------------------------------------------------------
# Validation

def _validate_time(node):
    node = _require_mapping(node, "time")
    kind = _get(node, "kind", "time")
    if kind == "discrete":
        _reject_unknown(node, {"kind", "t_max"}, "time")
        t_max = _integer(_get(node, "t_max", "time"), "time.t_max")
        return ({"kind": "discrete", "t_max": t_max},
                _build("time.t_max", TimeDomain.discrete, t_max))
    if kind == "continuous":
        _reject_unknown(node, {"kind", "t_end", "h"}, "time")
        t_end = _number(_get(node, "t_end", "time"), "time.t_end")
        h = _number(_get(node, "h", "time"), "time.h")
        return ({"kind": "continuous", "t_end": t_end, "h": h},
                _build("time.t_end", TimeDomain.continuous, t_end, h))
    raise SchemaError("time.kind", f"must be 'discrete' or 'continuous', got {kind!r}")


def _validate_omega(node):
    node = _require_mapping(node, "omega")
    _reject_unknown(node, {"probs"}, "omega")
    probs = _number_list(_get(node, "probs", "omega"), "omega.probs")
    return {"probs": probs}, _build("omega.probs", SampleSpace, tuple(probs))


def _validate_objective(node, order, space, domain, warnings):
    """(echo, objective, QuadLinParams or None)."""
    node = _require_mapping(node, "objective")
    if "builtin" in node:
        _reject_unknown(node, {"builtin", "params"}, "objective")
        name = node["builtin"]
        if name not in BUILTIN_OBJECTIVES:
            raise SchemaError("objective.builtin",
                              f"unknown builtin {name!r}; expected one of {BUILTIN_OBJECTIVES}")
        params = _require_mapping(node.get("params", {}), "objective.params")
        if name == "household-log":
            if domain.kind != "discrete":
                raise SchemaError("objective.builtin", f"{name} needs a discrete time domain")
            _reject_unknown(params, {"discount", "n", "zero_head"}, "objective.params")
            discount = _number(_get(params, "discount", "objective.params"),
                               "objective.params.discount")
            n = params.get("n", order)
            if _integer(n, "objective.params.n") != order:
                raise SchemaError("objective.params.n", f"must match order={order}")
            zero_head = params.get("zero_head", True)
            if not isinstance(zero_head, bool):
                raise SchemaError("objective.params.zero_head", "expected a boolean")
            obj = _build("objective.params", household_log, discount, order,
                         zero_head=zero_head)
            return ({"builtin": name,
                     "params": {"discount": discount, "n": order, "zero_head": zero_head}},
                    obj, None)
        _reject_unknown(params, {"alpha", "beta", "gamma"}, "objective.params")
        out = {key: _per_state(_get(params, key, "objective.params"),
                               f"objective.params.{key}", space)
               for key in ("alpha", "beta", "gamma")}
        qp = _build("objective.params", QuadLinParams,
                    **{k: tuple(v) for k, v in out.items()})
        if order != 2:
            raise SchemaError("order", f"{name} has order 2, scenario says {order}")
        expected_kind = "discrete" if name.endswith("discrete") else "continuous"
        if domain.kind != expected_kind:
            raise SchemaError("objective.builtin",
                              f"{name} needs a {expected_kind} time domain")
        builder = quadlin_discrete if expected_kind == "discrete" else quadlin_continuous
        return {"builtin": name, "params": out}, builder(qp), qp
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
            norm_constants[cname] = _per_state(cval, f"objective.constants.{cname}", space)
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
    return {"expr": source, "constants": norm_constants}, obj, None


def _validate_path(node, domain, space, order, params):
    """(echo, fixed path or SolveSpec); params are the objective's QuadLinParams."""
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
        if params is None:
            raise SchemaError("path.closed_form",
                              "closed-form paths need a quadlin objective with alpha/beta/gamma")
        build = quadlin_euler_path if name == "quadlin-euler" else constant_alpha_path
        return {"closed_form": name}, build(domain, space, params)
    if kind == "constant":
        value = _number(node["constant"], "path.constant")
        return {"constant": value}, StochasticPath.constant(domain, space, value)
    if kind == "values":
        vals = _array(node["values"], "path.values")
        return {"values": node["values"]}, _build("path.values", StochasticPath,
                                                  domain, space, vals)
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
    arrays = {}
    for key in ("head", "tail"):
        if key in solve:
            out[key], arrays[key] = solve[key], _array(solve[key], f"path.solve.{key}")
    if "tolerance" in solve:
        out["tolerance"] = _number(solve["tolerance"], "path.solve.tolerance")
    if "max_iterations" in solve:
        out["max_iterations"] = _integer(solve["max_iterations"],
                                         "path.solve.max_iterations")
    guess = StochasticPath.constant(domain, space, out["guess_constant"])
    spec = _build("path.solve", SolveSpec, horizon=horizon, guess=guess, mode=out["mode"],
                  tolerance=out.get("tolerance", 1e-10),
                  max_iterations=out.get("max_iterations", 100), **arrays)
    return {"solve": out}, spec


def _validate_perturbation(node, domain, space):
    """(echo, curve)."""
    node = _require_mapping(node, "perturbation")
    kind = _get(node, "kind", "perturbation", required=False)
    if kind is None and "values" in node:
        kind = "explicit"
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
        value = _value_field(node, space, "perturbation.value")
        return ({"kind": kind, "onset": onset, "value": value},
                eventually_constant_curve(domain, space, onset, value))
    if kind == "compact-support":
        _reject_unknown(node, {"kind", "onset", "cutoff", "value"}, "perturbation")
        onset = _integer(_get(node, "onset", "perturbation"), "perturbation.onset")
        cutoff = _integer(_get(node, "cutoff", "perturbation"), "perturbation.cutoff")
        if domain.kind != "discrete":
            raise SchemaError("perturbation.kind", "compact-support is discrete-only")
        value = _value_field(node, space, "perturbation.value")
        return ({"kind": kind, "onset": onset, "cutoff": cutoff, "value": value},
                _build("perturbation.cutoff", compact_support_curve, domain, space,
                       onset, cutoff, value))
    if kind == "ramp":
        _reject_unknown(node, {"kind", "target", "ramp_end"}, "perturbation")
        if domain.kind != "continuous":
            raise SchemaError("perturbation.kind", "ramp curves are continuous-only")
        target = _value_field(node, space, "perturbation.target")
        ramp_end = _number(node.get("ramp_end", 1.0), "perturbation.ramp_end")
        if ramp_end <= 0:
            raise SchemaError("perturbation.ramp_end", "must be positive")
        return ({"kind": kind, "target": target, "ramp_end": ramp_end},
                _build("perturbation.ramp_end", quintic_ramp_curve, domain, space,
                       target, ramp_end=ramp_end))
    _reject_unknown(node, {"kind", "values"}, "perturbation")
    values = _get(node, "values", "perturbation")
    return ({"kind": "explicit", "values": values},
            _build("perturbation.values", PerturbationCurve, domain, space,
                   _array(values, "perturbation.values")))


def _value_field(node, space, key_path):
    parent, key = key_path.rsplit(".", 1)
    value = _get(node, key, parent)
    if isinstance(value, list):
        return _per_state(value, key_path, space)
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
    """Validate a scenario dict, resolve defaults and build its models."""
    data = _require_mapping(data, "$")
    _reject_unknown(data, _TOP_KEYS, "$")
    time_echo, domain = _validate_time(_get(data, "time", "$"))
    omega_echo, space = _validate_omega(_get(data, "omega", "$"))
    cells = (domain.num_points - 1) * space.m  # steps x states: 10**6 steps take 10 states
    if cells > 10 * GRID_BUDGET:
        raise SchemaError("omega.probs", f"{domain.num_points - 1} grid steps times "
                          f"{space.m} states exceed the budget of {10 * GRID_BUDGET} cells")
    order = _integer(_get(data, "order", "$"), "order")
    if order < 0:
        raise SchemaError("order", "must be >= 0")
    warnings: list[str] = []
    objective_echo, obj, params = _validate_objective(
        _get(data, "objective", "$"), order, space, domain, warnings)
    path_echo, path = _validate_path(_get(data, "path", "$"), domain, space, order, params)
    seed = _integer(data.get("seed", DEFAULT_SEED), "seed")
    if seed < 0:
        raise SchemaError("seed", "must be >= 0")
    echo = {"time": time_echo, "omega": omega_echo, "order": order,
            "objective": objective_echo, "path": path_echo, "seed": seed}
    curve = None
    if data.get("perturbation") is not None:
        echo["perturbation"], curve = _validate_perturbation(data["perturbation"],
                                                             domain, space)
    diag = _validate_diagnostics(data.get("diagnostics"))
    if diag is not None:
        echo["diagnostics"] = diag
    tols = _validate_tolerances(data.get("tolerances"))
    if tols is not None:
        echo["tolerances"] = tols
    return Scenario(domain=domain, space=space, order=order, echo=echo, _objective=obj,
                    _path=path, _curve=curve, warnings=tuple(warnings))


def load_scenario(path) -> Scenario:
    """Read, parse and validate a scenario file (UTF-8 JSON)."""
    path = Path(path)
    if not path.exists():
        raise InputError(f"scenario file not found: {path}")
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except ValueError as exc:  # bad JSON, or an integer literal too long to convert
        raise InputError(f"invalid JSON in {path}: {exc}") from exc
    return parse_scenario(data)
