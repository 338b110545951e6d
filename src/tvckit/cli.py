"""Command-line interface: scenario-driven runs and named demo presets.

Exit codes: 0 all verdicts pass, 1 a model condition failed (non-stationary
path, violated tail condition, non-uniformity when uniformity was asserted),
2 input error, 3 numerical failure.  Reports are ASCII JSON with a 2-space
indent and sorted keys, written in one pass by _render, so identical inputs
produce byte-identical output.

A demo preset is a fixed list of commands run on the shipped scenario files;
each step goes through the same parser and handler as the command itself.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import sys
from json.encoder import encode_basestring_ascii
from pathlib import Path

import numpy as np

from . import __version__
from .diagnostics import a_grid, uniformity_verdict
from .errors import (DomainError, InputError, NumericalError, ToolkitError)
from .euler import BoundaryMode, euler_report
from .scenario import _require_mapping, parse_scenario
from .solvers import (correspondence_check, discrete_to_continuous,
                      newton_euler_solve)
from .tvc import tvc_liminf_continuous, tvc_liminf_discrete

SCENARIOS = Path(__file__).resolve().parents[2] / "scenarios"

# preset -> (command, scenario file stem) steps
DEMOS = {
    "continuous-counterexample": (("euler", "continuous-counterexample"),
                                  ("tvc", "continuous-counterexample")),
    "discrete-counterexample": (("euler", "discrete-counterexample"),
                                ("tvc", "discrete-counterexample")),
    "assumption": (("assume", "discrete-counterexample"),
                   ("assume", "quadlin-dsl")),
    "correspondence": (("correspond", "discrete-counterexample"),),
    "household": (("solve", "household"),),
}

EXIT_OK = 0
EXIT_VERDICT = 1
EXIT_INPUT = 2
EXIT_NUMERICAL = 3


def _numbers(texts, values) -> list:
    """The number texts of a flat run of values, the non-finite ones quoted."""
    texts = list(texts)
    if not np.isfinite(values).all():
        for i in np.flatnonzero(~np.isfinite(values)):
            texts[i] = f'"{texts[i]}"'  # "nan", "inf" or "-inf"
    return texts


def _rows(cells, shape, level) -> str:
    """The text of an array of element texts (flat, row-major, of the given
    shape) at depth `level`, built axis by axis from the innermost out with one
    join per row: the separator at an axis closes and reopens every axis inside."""
    if 0 in shape:  # the subarrays along the first zero-length axis are each "[]"
        shape = shape[: shape.index(0)]
        cells = ["[]"] * math.prod(shape)
    opens = ["[\n" + "  " * (level + a + 1) for a in range(len(shape))]
    closes = ["\n" + "  " * (level + a) + "]" for a in range(len(shape))]
    for axis in range(len(shape) - 1, -1, -1):
        sep = ("".join(closes[:axis:-1]) + ",\n" + "  " * (level + axis + 1)
               + "".join(opens[axis + 1 :]))
        cells = list(map(sep.join, zip(*[iter(cells)] * shape[axis])))
    return "".join(opens) + cells[0] + "".join(reversed(closes))


def _render(value, level: int) -> str:
    """The JSON text of a report value at nesting depth `level`: 2-space
    indent, sorted keys, ASCII; numpy scalars and arrays written as Python
    numbers and lists, and nan, inf and -inf as the strings "nan", "inf" and
    "-inf".  Raises TypeError on a value JSON cannot hold, np.bool_ included."""
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if isinstance(value, dict):
        if not value:
            return "{}"
        value = {str(k): v for k, v in value.items()}
        pad = "\n" + "  " * (level + 1)
        items = (f"{encode_basestring_ascii(k)}: {_render(value[k], level + 1)}"
                 for k in sorted(value))
        return "{" + pad + ("," + pad).join(items) + "\n" + "  " * level + "}"
    if isinstance(value, (list, tuple)):
        if all(isinstance(v, float) for v in value):  # np.float64 included
            cells = _numbers(map(float.__repr__, value), value)
        elif all(type(v) is int for v in value):  # bool excluded
            cells = map(int.__repr__, value)
        else:
            cells = [_render(v, level + 1) for v in value]
        return _rows(cells, (len(value),), level)
    if isinstance(value, np.ndarray):
        if value.ndim == 0 or value.dtype.char not in "efd":  # tolist gives no Python floats
            return _render(value.tolist(), level)
        flat = value.ravel()
        return _rows(_numbers(map(float.__repr__, flat.tolist()), flat), value.shape, level)
    if isinstance(value, bool):
        return "true" if value else "false"
    if value is None:
        return "null"
    if isinstance(value, (int, np.integer)):
        return int.__repr__(int(value))
    if isinstance(value, (float, np.floating)):
        value = float(value)
        text = float.__repr__(value)
        return text if math.isfinite(value) else f'"{text}"'
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _csv(section) -> str:
    """The A(T', eps) matrix of an assume section, one row per T'."""
    lines = ["tprime," + ",".join(repr(e) for e in section["eps_grid"])]
    for tp, values in zip(section["tprime_grid"], section["matrix"]):
        lines.append(f"{tp}," + ",".join(repr(float(v)) for v in values))
    return "\n".join(lines) + "\n"


def _emit(report: dict, args) -> None:
    """Write the report to --out, else to stdout unless --quiet."""
    if args.quiet and not args.out:
        return
    if getattr(args, "format", "json") == "csv":
        text = _csv(report["assume"])
    else:
        text = _render(report, 0) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    elif not args.quiet:
        sys.stdout.write(text)


def _load(args):
    """Parse the scenario file with the --tmax, --seed and --eps-grid overrides
    written into it; a node an override lands in must be an object."""
    with open(args.scenario, encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except ValueError as exc:  # bad JSON, or an integer literal too long to convert
            raise InputError(str(exc)) from exc
    data = _require_mapping(data, "$")
    if args.tmax is not None:
        time = _require_mapping(data.get("time", {}), "time")
        if time.get("kind") != "discrete":
            raise InputError("--tmax applies to discrete scenarios only")
        time["t_max"] = args.tmax
    # only the commands that read --seed or --eps-grid take them
    if getattr(args, "seed", None) is not None:
        data["seed"] = args.seed
    if getattr(args, "eps_grid", None) is not None:
        if data.get("diagnostics") is None:  # null reads as absent
            data["diagnostics"] = {}
        _require_mapping(data["diagnostics"], "diagnostics")["eps_grid"] = args.eps_grid
    return parse_scenario(data)


def _boundary_mode(args, scenario) -> BoundaryMode:
    """--boundary when given, else the rows the scenario's solve directive imposes."""
    spec = args.boundary
    if spec is None:
        solve = scenario.solve_spec()
        return BoundaryMode.paper_literal() if solve is None else solve.boundary
    if spec == "paper-literal":
        return BoundaryMode.paper_literal()
    if spec.startswith("fixed:"):
        try:
            return BoundaryMode.fixed_initial(int(spec.split(":", 1)[1]))
        except ValueError:
            raise InputError(f"bad --boundary value {spec!r}") from None
    raise InputError(f"--boundary must be paper-literal or fixed:<k>, got {spec!r}")


def _tolerance(args, default):
    """--tolerance when given (finite, 0 included), else the scenario's value."""
    if args.tolerance is not None and not 0.0 <= args.tolerance < math.inf:
        raise InputError(f"--tolerance must be finite and >= 0, got {args.tolerance!r}")
    return default if args.tolerance is None else args.tolerance


def _base_report(command: str, scenario=None, seed=None) -> dict:
    out = {"command": command, "version": __version__}
    if scenario is not None:
        out["scenario"] = scenario.echo
        out["seed"] = scenario.seed
        if scenario.warnings:
            out["warnings"] = list(scenario.warnings)
    if seed is not None:
        out["seed"] = seed
    return out


def _cmd_euler(args):
    scenario = _load(args)
    obj = scenario.objective()
    path = scenario.path()
    tol = _tolerance(args, scenario.tolerance("euler"))
    rep = euler_report(obj, path, mode=_boundary_mode(args, scenario), tolerance=tol)
    report = _base_report("euler", scenario)
    report["euler"] = {
        "verdict": rep.verdict, "max_abs_residual": rep.max_abs,
        "tolerance": rep.tolerance, "mode": rep.mode,
        "indices": rep.indices, "expected_residuals": rep.expected,
    }
    return report, EXIT_OK if rep.stationary else EXIT_VERDICT


def _cmd_tvc(args):
    scenario = _load(args)
    obj = scenario.objective()
    path = scenario.path()
    q = scenario.perturbation()
    if q is None:
        raise InputError("perturbation: the tvc command needs a perturbation")
    tol = _tolerance(args, scenario.tolerance("tvc"))
    if scenario.domain.kind == "discrete":
        rep = tvc_liminf_discrete(obj, path, q, tolerance=tol)
    else:
        t_end = scenario.domain.t_end
        t_list = [float(t) for t in np.arange(2.0, t_end - 1.0 + 1e-9, 1.0)]
        rep = tvc_liminf_continuous(obj, path, q, t_list, tolerance=tol)
    report = _base_report("tvc", scenario)
    report["tvc"] = {
        "verdict": rep.verdict, "liminf_estimate": rep.liminf_estimate,
        "tolerance": rep.tolerance, "kind": rep.kind,
        "finite_horizon_caveat": rep.finite_horizon_caveat,
        "truncations": list(rep.truncations), "values": rep.values,
        "running_inf": rep.running_inf,
        "limsup_estimate": rep.limsup_estimate, "limsup_holds": rep.limsup_holds,
    }
    return report, EXIT_OK if rep.satisfied else EXIT_VERDICT


def _cmd_assume(args):
    scenario = _load(args)
    obj = scenario.objective()
    path = scenario.path()
    q = scenario.perturbation()
    if q is None:
        raise InputError("perturbation: the assume command needs a perturbation")
    eps_grid = scenario.eps_grid
    kwargs = {}
    if eps_grid is not None:
        kwargs["eps_grid"] = tuple(eps_grid)
    if scenario.tprime_grid is not None:
        kwargs["tprime_grid"] = list(scenario.tprime_grid)
    matrix = a_grid(obj, path, q, **kwargs)
    verdict = uniformity_verdict(matrix)
    report = _base_report("assume", scenario)
    report["assume"] = {
        "verdict": verdict.verdict, "reason": verdict.reason,
        "gap": verdict.gap,
        "eps_grid": list(matrix.eps_grid),
        "tprime_grid": list(matrix.tprime_grid),
        "matrix": matrix.values,
        "per_eps_slopes": (list(verdict.limits.per_eps_slopes)
                           if verdict.limits else None),
        "asserted_uniform": bool(args.assert_uniform),
    }
    if args.assert_uniform and verdict.verdict != "UNIFORM":
        return report, EXIT_VERDICT
    return report, EXIT_OK


def _cmd_solve(args):
    scenario = _load(args)
    spec = scenario.solve_spec()
    if spec is None:
        raise InputError("path.solve: the solve command needs a solve directive")
    spec = dataclasses.replace(spec, tolerance=_tolerance(args, spec.tolerance))
    path, rep = newton_euler_solve(scenario.objective(), spec)
    report = _base_report("solve", scenario)
    report["solve"] = {
        "converged": rep.converged, "iterations": list(rep.iterations),
        "max_abs_residual": rep.max_abs_residual, "tolerance": rep.tolerance,
        "curvature": list(rep.curvature), "mode": rep.mode,
        "path": path.values,
    }
    return report, EXIT_OK if rep.converged else EXIT_NUMERICAL


def _cmd_correspond(args):
    scenario = _load(args)
    obj = scenario.objective()
    pair = discrete_to_continuous(obj)
    rng = np.random.default_rng(scenario.seed)
    segments = [(rng.uniform(0.5, 3.0, size=5), int(rng.integers(0, 10)),
                 int(rng.integers(0, scenario.space.m)))
                for _ in range(100)]
    rep = correspondence_check(pair, segments)
    report = _base_report("correspond", scenario)
    report["correspond"] = {
        "verdict": rep.verdict, "max_partial_gap": rep.max_partial_gap,
        "max_euler_gap": rep.max_euler_gap, "tolerance": rep.tolerance,
        "checked": rep.checked, "skipped": rep.skipped,
    }
    if rep.verdict == "INCONCLUSIVE":  # no sample was checked
        return report, EXIT_NUMERICAL
    return report, EXIT_OK if rep.passed else EXIT_VERDICT


def _cmd_demo(args):
    """Run the preset's steps; report each step's section, exit with the worst code."""
    if not SCENARIOS.is_dir():
        raise InputError(f"demo scenarios not found: {SCENARIOS}")
    seed = args.seed if args.seed is not None else 0
    if seed < 0:
        raise InputError(f"--seed must be >= 0, got {seed}")
    parser = build_parser()
    report = _base_report(f"demo:{args.preset}", seed=seed)
    report["demo"] = {}
    code = EXIT_OK
    for command, name in DEMOS[args.preset]:
        argv = [command, "--scenario", str(SCENARIOS / f"{name}.json")]
        if "--seed" in _COMMAND_FLAGS[command]:
            argv += ["--seed", str(seed)]
        step = parser.parse_args(argv)
        step_report, step_code = _HANDLERS[command](step)
        report["demo"][f"{command}:{name}"] = step_report[command]
        code = max(code, step_code)
    return report, code


# ---------------------------------------------------------------------------
# Argument parsing

_FLAGS = {
    "--scenario": {"required": True},
    "--tmax": {"type": int, "help": "override the discrete horizon"},
    "--eps-grid": {"type": lambda s: [float(v) for v in s.split(",")],
                   "help": "comma-separated decreasing eps values"},
    "--seed": {"type": int},
    "--tolerance": {"type": float},
    "--boundary": {"help": "paper-literal or fixed:<k>"},
    "--format": {"choices": ("json", "csv"), "default": "json"},
    "--assert-uniform": {"action": "store_true",
                         "help": "exit 1 unless the verdict is UNIFORM"},
    "--out": {"help": "write the report to this file"},
    "--quiet": {"action": "store_true"},
}

# the flags each command reads, besides --out and --quiet
_SCENARIO_FLAGS = ("--scenario", "--tmax")
_COMMAND_FLAGS = {
    "euler": _SCENARIO_FLAGS + ("--tolerance", "--boundary"),
    "tvc": _SCENARIO_FLAGS + ("--tolerance",),
    "assume": _SCENARIO_FLAGS + ("--eps-grid", "--format", "--assert-uniform"),
    "solve": _SCENARIO_FLAGS + ("--tolerance",),
    "correspond": _SCENARIO_FLAGS + ("--seed",),
    "demo": ("--seed",),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every command, built once per process: parse_args keeps
    no state between calls."""
    parser = argparse.ArgumentParser(
        prog="tvckit",
        description="Stationarity and tail-condition checks for stochastic "
                    "higher-order intertemporal models")
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command", required=True)
    for name, flags in _COMMAND_FLAGS.items():
        sub = subs.add_parser(name)
        if name == "demo":
            sub.add_argument("preset", choices=DEMOS)
        for flag in flags + ("--out", "--quiet"):
            sub.add_argument(flag, **_FLAGS[flag])
    return parser


_HANDLERS = {"euler": _cmd_euler, "tvc": _cmd_tvc, "assume": _cmd_assume,
             "solve": _cmd_solve, "correspond": _cmd_correspond, "demo": _cmd_demo}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        report, code = _HANDLERS[args.command](args)
        _emit(report, args)
        return code
    except (NumericalError, DomainError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (ToolkitError, OSError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
