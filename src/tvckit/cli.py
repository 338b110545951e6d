"""Command-line interface: scenario-driven runs and named demo presets.

Exit codes: 0 all verdicts pass, 1 a model condition failed (non-stationary
path, violated tail condition, non-uniformity when uniformity was asserted),
2 input error, 3 numerical failure.  Reports are JSON with sorted keys, so
identical inputs produce byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import __version__
from .core import (SampleSpace, StochasticPath, TimeDomain,
                   compact_support_curve, eventually_constant_curve,
                   quintic_ramp_curve)
from .diagnostics import a_grid, uniformity_verdict
from .errors import (DomainError, InputError, NumericalError, ToolkitError)
from .euler import BoundaryMode, euler_report
from .objectives import (QuadLinParams, constant_alpha_path, gradient_check,
                         household_log, quadlin_continuous, quadlin_discrete,
                         quadlin_euler_path)
from .scenario import load_scenario, parse_scenario
from .solvers import (SolveSpec, correspondence_check, discrete_to_continuous,
                      newton_euler_solve)
from .tvc import (discrete_tvc_tail, tvc_liminf_continuous, tvc_liminf_discrete)

DEMOS = ("continuous-counterexample", "discrete-counterexample", "assumption",
         "correspondence", "household")

EXIT_OK = 0
EXIT_VERDICT = 1
EXIT_INPUT = 2
EXIT_NUMERICAL = 3

# the worked example's constants, used by every demo preset
_DEMO_PROBS = (0.5, 0.5)
_DEMO_PARAMS = QuadLinParams(alpha=(1.0, 2.0), beta=(0.5, 0.4), gamma=(0.25, 0.2))
_DEMO_DISCOUNT = 0.9


def _jsonify(value):
    if isinstance(value, dict):
        return {str(k): _jsonify(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonify(v) for v in value]
    if isinstance(value, np.ndarray):
        return _jsonify(value.tolist())
    if isinstance(value, (np.floating, float)):
        value = float(value)
        if value != value:
            return "nan"
        if value == float("inf"):
            return "inf"
        if value == float("-inf"):
            return "-inf"
        return value
    if isinstance(value, (np.integer,)):
        return int(value)
    return value


def _emit(report: dict, args) -> None:
    text = json.dumps(_jsonify(report), sort_keys=True, indent=2) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    if not args.quiet and not args.out:
        sys.stdout.write(text)


def _emit_csv(matrix, args) -> None:
    lines = ["tprime," + ",".join(repr(e) for e in matrix.eps_grid)]
    for it, tp in enumerate(matrix.tprime_grid):
        row = ",".join(repr(float(v)) for v in matrix.values[it])
        lines.append(f"{tp},{row}")
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    if not args.quiet and not args.out:
        sys.stdout.write(text)


def _load(args):
    with open(args.scenario, encoding="utf-8") as fh:
        data = json.load(fh)
    if args.tmax is not None:
        if data.get("time", {}).get("kind") != "discrete":
            raise InputError("--tmax applies to discrete scenarios only")
        data["time"]["t_max"] = args.tmax
    if args.seed is not None:
        data["seed"] = args.seed
    if args.eps_grid is not None:
        data.setdefault("diagnostics", {})["eps_grid"] = args.eps_grid
    return parse_scenario(data)


def _boundary_mode(args) -> BoundaryMode:
    spec = args.boundary
    if spec in (None, "paper-literal"):
        return BoundaryMode.paper_literal()
    if spec.startswith("fixed:"):
        try:
            return BoundaryMode.fixed_initial(int(spec.split(":", 1)[1]))
        except ValueError:
            raise InputError(f"bad --boundary value {spec!r}") from None
    raise InputError(f"--boundary must be paper-literal or fixed:<k>, got {spec!r}")


def _tolerance(args, default):
    """--tolerance when given (0 included), else the scenario's value."""
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


def _cmd_euler(args) -> int:
    scenario = _load(args)
    obj = scenario.objective()
    path = scenario.path()
    tol = _tolerance(args, scenario.tolerance("euler", None))
    rep = euler_report(obj, path, mode=_boundary_mode(args), tolerance=tol)
    report = _base_report("euler", scenario)
    report["euler"] = {
        "verdict": rep.verdict, "max_abs_residual": rep.max_abs,
        "tolerance": rep.tolerance, "mode": rep.mode,
        "indices": list(rep.indices), "expected_residuals": rep.expected,
    }
    _emit(report, args)
    return EXIT_OK if rep.stationary else EXIT_VERDICT


def _cmd_tvc(args) -> int:
    scenario = _load(args)
    obj = scenario.objective()
    path = scenario.path()
    q = scenario.perturbation()
    if q is None:
        raise InputError("perturbation: the tvc command needs a perturbation")
    tol = _tolerance(args, scenario.tolerance("tvc", None))
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
    _emit(report, args)
    return EXIT_OK if rep.satisfied else EXIT_VERDICT


def _cmd_assume(args) -> int:
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
    if args.format == "csv":
        _emit_csv(matrix, args)
    else:
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
        _emit(report, args)
    if args.assert_uniform and verdict.verdict != "UNIFORM":
        return EXIT_VERDICT
    return EXIT_OK


def _cmd_solve(args) -> int:
    scenario = _load(args)
    if "solve" not in scenario.echo["path"]:
        raise InputError("path.solve: the solve command needs a solve directive")
    obj = scenario.objective()
    solve = scenario.echo["path"]["solve"]
    guess = StochasticPath.constant(scenario.domain, scenario.space,
                                    solve["guess_constant"])
    spec = SolveSpec(horizon=solve["horizon"], guess=guess, mode=solve["mode"],
                     head=solve.get("head"), tail=solve.get("tail"),
                     tolerance=_tolerance(args, solve.get("tolerance", 1e-10)),
                     max_iterations=solve.get("max_iterations", 100))
    path, rep = newton_euler_solve(obj, spec)
    report = _base_report("solve", scenario)
    report["solve"] = {
        "converged": rep.converged, "iterations": list(rep.iterations),
        "max_abs_residual": rep.max_abs_residual, "tolerance": rep.tolerance,
        "curvature": list(rep.curvature), "mode": rep.mode,
        "path": path.values,
    }
    _emit(report, args)
    if not rep.converged:
        return EXIT_NUMERICAL
    return EXIT_OK


def _cmd_correspond(args) -> int:
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
    _emit(report, args)
    return EXIT_OK if rep.passed else EXIT_VERDICT


# ---------------------------------------------------------------------------
# Demo presets

def _demo_discrete_counterexample(seed):
    space = SampleSpace(_DEMO_PROBS)
    domain = TimeDomain.discrete(50)
    obj = quadlin_discrete(_DEMO_PARAMS)
    path = quadlin_euler_path(domain, space, _DEMO_PARAMS)
    erep = euler_report(obj, path)
    q = eventually_constant_curve(domain, space, onset=1, value=1.0)
    trep = tvc_liminf_discrete(obj, path, q)
    report = {
        "euler": {"verdict": erep.verdict, "max_abs_residual": erep.max_abs,
                  "tolerance": erep.tolerance},
        "tvc": {"verdict": trep.verdict, "liminf_estimate": trep.liminf_estimate,
                "tolerance": trep.tolerance, "values": trep.values,
                "truncations": list(trep.truncations),
                "finite_horizon_caveat": trep.finite_horizon_caveat},
    }
    code = EXIT_OK if (erep.stationary and trep.satisfied) else EXIT_VERDICT
    return report, code


def _demo_continuous_counterexample(seed):
    space = SampleSpace(_DEMO_PROBS)
    domain = TimeDomain.continuous(10.0, 0.01)
    obj = quadlin_continuous(_DEMO_PARAMS)
    path = constant_alpha_path(domain, space, _DEMO_PARAMS)
    erep = euler_report(obj, path)
    p = quintic_ramp_curve(domain, space, target=1.0)
    t_list = [float(t) for t in np.arange(2.0, 9.0 + 1e-9, 1.0)]
    trep = tvc_liminf_continuous(obj, path, p, t_list)
    report = {
        "euler": {"verdict": erep.verdict, "max_abs_residual": erep.max_abs,
                  "tolerance": erep.tolerance},
        "tvc": {"verdict": trep.verdict, "liminf_estimate": trep.liminf_estimate,
                "tolerance": trep.tolerance, "values": trep.values,
                "truncations": list(trep.truncations),
                "finite_horizon_caveat": trep.finite_horizon_caveat},
    }
    code = EXIT_OK if (erep.stationary and trep.satisfied) else EXIT_VERDICT
    return report, code


def _demo_assumption(seed):
    space = SampleSpace(_DEMO_PROBS)
    domain = TimeDomain.discrete(60)
    obj = quadlin_discrete(_DEMO_PARAMS)
    path = quadlin_euler_path(domain, space, _DEMO_PARAMS)
    tprimes = [12, 15, 20, 25, 30, 35, 40, 45]
    q_ec = eventually_constant_curve(domain, space, onset=1, value=1.0)
    m_ec = a_grid(obj, path, q_ec, tprime_grid=tprimes)
    v_ec = uniformity_verdict(m_ec)
    q_cs = compact_support_curve(domain, space, onset=0, cutoff=10, value=1.0)
    m_cs = a_grid(obj, path, q_cs, tprime_grid=tprimes)
    v_cs = uniformity_verdict(m_cs)
    report = {
        "eventually_constant": {
            "verdict": v_ec.verdict, "reason": v_ec.reason,
            "per_eps_slopes": (list(v_ec.limits.per_eps_slopes)
                               if v_ec.limits else None),
            "matrix": m_ec.values, "eps_grid": list(m_ec.eps_grid),
            "tprime_grid": list(m_ec.tprime_grid),
        },
        "compact_support": {
            "verdict": v_cs.verdict, "reason": v_cs.reason, "gap": v_cs.gap,
            "matrix": m_cs.values, "eps_grid": list(m_cs.eps_grid),
            "tprime_grid": list(m_cs.tprime_grid),
        },
    }
    # both outcomes are the expected findings here, so neither fails the run
    return report, EXIT_OK


def _demo_correspondence(seed):
    obj = quadlin_discrete(_DEMO_PARAMS)
    pair = discrete_to_continuous(obj)
    rng = np.random.default_rng(seed)
    segments = [(rng.uniform(0.5, 3.0, size=5), int(rng.integers(0, 10)),
                 int(rng.integers(0, 2))) for _ in range(100)]
    rep = correspondence_check(pair, segments)
    report = {
        "verdict": rep.verdict, "max_partial_gap": rep.max_partial_gap,
        "max_euler_gap": rep.max_euler_gap, "tolerance": rep.tolerance,
        "checked": rep.checked, "skipped": rep.skipped,
    }
    return report, EXIT_OK if rep.passed else EXIT_VERDICT


def _demo_household(seed):
    n, disc = 2, _DEMO_DISCOUNT
    space = SampleSpace(_DEMO_PROBS)
    obj = household_log(disc, n)
    rng = np.random.default_rng(seed)
    T = 30
    domain = TimeDomain.discrete(T + n)
    vals = rng.uniform(1.0, 1.9, size=(domain.num_points, space.m, 1))
    path = StochasticPath(domain, space, vals)
    worst = 0.0
    from .euler import discrete_euler_residual
    for t in range(2 * n, T + 1):
        res = discrete_euler_residual(obj, path, t)
        for w in range(space.m):
            c = [float(np.sum(vals[s : s + n, w, 0]) - vals[s + n, w, 0])
                 for s in (t - 2, t - 1, t)]
            analytic = disc ** (t - 2) * (-1.0 / c[0] + disc / c[1] + disc**2 / c[2])
            gap = abs(res[w, 0] - analytic) / max(1.0, abs(analytic))
            worst = max(worst, gap)
    identity_ok = worst <= 1e-9

    # finite-horizon solve uses the live-head variant (well-posed truncation)
    solve_obj = household_log(disc, n, zero_head=False)
    T10 = 10
    dom10 = TimeDomain.discrete(T10 + n)
    idx = np.arange(dom10.num_points, dtype=float)
    guess_vals = np.interp(idx, [0, 1, T10 + 1, T10 + 2], [1.0, 1.0, 0.2, 0.1])
    guess = StochasticPath(dom10, space,
                           np.repeat(guess_vals[:, None], space.m, axis=1))
    head = np.ones((2, space.m))
    tail = np.array([[0.2] * space.m, [0.1] * space.m])
    spec = SolveSpec(horizon=T10, guess=guess, mode="fixed", head=head, tail=tail)
    solved, srep = newton_euler_solve(solve_obj, spec)
    report = {
        "identity": {"max_relative_gap": worst, "tolerance": 1e-9,
                     "verdict": "PASS" if identity_ok else "FAIL"},
        "solve": {"converged": srep.converged, "iterations": list(srep.iterations),
                  "max_abs_residual": srep.max_abs_residual,
                  "tolerance": srep.tolerance, "curvature": list(srep.curvature),
                  "path": solved.values},
    }
    code = EXIT_OK if (identity_ok and srep.converged) else EXIT_VERDICT
    return report, code


_DEMO_FNS = {"continuous-counterexample": _demo_continuous_counterexample,
             "discrete-counterexample": _demo_discrete_counterexample,
             "assumption": _demo_assumption,
             "correspondence": _demo_correspondence,
             "household": _demo_household}


def _cmd_demo(args) -> int:
    if args.preset not in DEMOS:
        raise InputError(f"unknown demo {args.preset!r}; expected one of {DEMOS}")
    seed = args.seed if args.seed is not None else 0
    body, code = _DEMO_FNS[args.preset](seed)
    report = _base_report(f"demo:{args.preset}", seed=seed)
    report["demo"] = body
    _emit(report, args)
    return code


# ---------------------------------------------------------------------------
# Argument parsing

def _add_common(sub):
    sub.add_argument("--out", help="write the report to this file")
    sub.add_argument("--format", choices=("json", "csv"), default="json")
    sub.add_argument("--tmax", type=int, help="override the discrete horizon")
    sub.add_argument("--eps-grid", type=lambda s: [float(v) for v in s.split(",")],
                     help="comma-separated decreasing eps values")
    sub.add_argument("--seed", type=int)
    sub.add_argument("--tolerance", type=float)
    sub.add_argument("--boundary", help="paper-literal or fixed:<k>")
    sub.add_argument("--quiet", action="store_true")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tvckit",
        description="Stationarity and tail-condition checks for stochastic "
                    "higher-order intertemporal models")
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command", required=True)
    for name, needs_scenario in (("euler", True), ("tvc", True), ("assume", True),
                                 ("solve", True), ("correspond", True)):
        sub = subs.add_parser(name)
        sub.add_argument("--scenario", required=True)
        if name == "assume":
            sub.add_argument("--assert-uniform", action="store_true",
                             help="exit 1 unless the verdict is UNIFORM")
        _add_common(sub)
    demo = subs.add_parser("demo")
    demo.add_argument("preset", choices=DEMOS)
    _add_common(demo)
    return parser


_HANDLERS = {"euler": _cmd_euler, "tvc": _cmd_tvc, "assume": _cmd_assume,
             "solve": _cmd_solve, "correspond": _cmd_correspond, "demo": _cmd_demo}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except (NumericalError, DomainError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (ToolkitError, OSError, json.JSONDecodeError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
