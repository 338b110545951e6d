"""Seeded inputs, jobs and expected answers of the four benchmark workloads.

A workload is a pool of instances built from the seed.  One instance is one
cycle of jobs; a job is one engine call (or one ``tvckit`` command) on one
generated input.  Each job returns a small outcome dict, which is checked
against the expected answer fixed here.  Every tvckit function is looked up
on its module at call time, so the spans that ``spans.Tracer`` installs see
the calls.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import tvckit as tk
import tvckit.cli

ROOT = Path(__file__).resolve().parents[1]

SIZES = {
    # solve_T = 20 rather than 30: a 25 s run then holds about 15 cycles
    # instead of 7, which keeps the cycle median steady on a noisy host.
    "full": {"pool": 4, "discrete_T": 1000, "discrete_m": 3, "cont_h": 0.002,
             "solve_T": 20, "brute_grid": 21, "segments": 100, "grad_points": 50},
    "toy": {"pool": 1, "discrete_T": 40, "discrete_m": 3, "cont_h": 0.05,
            "solve_T": 6, "brute_grid": 11, "segments": 10, "grad_points": 5},
}

DSL = "(y0 - a)^2 + b*y1 + g*y2 + d*y3"
DSL_ORDER = 3

# Direct eps-derivative vs Euler rows + tail: central differences with
# eps = 1e-6 of a sum of about T = 1000 windows of size <= 10 carry a
# rounding error near 2.2e-16 * 1e4 / 1e-6 = 2e-6.
DECOMPOSITION_TOL = 1e-5
# The tail of an eventually constant perturbation is E[(b + 2g + 3d) v] at
# every T' past the onset; the engine sums the same terms in another order.
LIMINF_REL_TOL = 1e-12
# Brute-force oracle: value gap allowed above the Newton optimum.
VALUE_GAP_TOL = 1e-12


@dataclass
class Job:
    op: str                                  # latency metric <op>_s it feeds
    name: str                                # unique within the workload
    run: Callable[[], dict]                  # outcome: a small JSON-able dict
    check: Callable[[dict], str | None]      # None when the outcome is expected
    defect: dict | None = None               # known defect: outcome fields today


def build(workload: str, seed: int, size: str = "full") -> list[list[Job]]:
    """The instance pool of a workload: a list of job cycles."""
    sizes = SIZES[size]
    rng = np.random.default_rng(seed)
    if workload == "cli-small":
        _cli_setup()
        return [_cli_cycle(rng)]
    make = {"discrete-horizon": _discrete_instance,
            "continuous-grid": _continuous_instance,
            "solve-oracle": _solve_instance}[workload]
    return [make(rng, sizes, i) for i in range(sizes["pool"])]


def _expect(field, want):
    def check(out):
        got = out[field]
        return None if got == want else f"{field} is {got!r}, expected {want!r}"
    return check


def _probs(rng, m):
    p = rng.uniform(0.5, 1.5, m)
    return [float(v) for v in p / p.sum()]


# ---------------------------------------------------------------------------
# discrete-horizon: DSL objective of order 3 on 3 states at T = 1000

def _discrete_instance(rng, sizes, i):
    T, m = sizes["discrete_T"], sizes["discrete_m"]
    probs = _probs(rng, m)
    a, b, g, d = (rng.uniform(lo, hi, m) for lo, hi in
                  ((0.5, 2.0), (0.2, 0.8), (0.1, 0.5), (0.05, 0.3)))
    onset = int(rng.integers(1, 20))
    v = float(rng.uniform(0.5, 1.5))
    # closed-form stationary path: row t sums 2(y_t - a) and the linear
    # coefficients of the slots that window t-k puts on y_t
    y = np.empty((T + 1, m))
    y[0], y[1], y[2], y[3:] = a, a - b / 2, a - (b + g) / 2, a - (b + g + d) / 2
    scenario = tk.parse_scenario({
        "time": {"kind": "discrete", "t_max": T},
        "omega": {"probs": probs},
        "order": DSL_ORDER,
        "objective": {"expr": DSL, "constants": {
            "a": a.tolist(), "b": b.tolist(), "g": g.tolist(), "d": d.tolist()}},
        "path": {"values": y.tolist()},
        "perturbation": {"kind": "eventually-constant", "onset": onset, "value": v},
    })
    obj, path, q = scenario.objective(), scenario.path(), scenario.perturbation()
    liminf = v * float(np.dot(probs, b + 2 * g + 3 * d))

    def check_tvc(out):
        if out["verdict"] != "VIOLATED":
            return f"verdict is {out['verdict']}, expected VIOLATED"
        if abs(out["liminf"] - liminf) > LIMINF_REL_TOL * max(1.0, abs(liminf)):
            return f"liminf {out['liminf']!r}, closed form {liminf!r}"
        return None

    def check_gap(out):
        gap = out["gap"]
        return None if gap <= DECOMPOSITION_TOL else f"decomposition gap {gap:.3g}"

    return [
        Job("euler", f"euler#{i}",
            lambda: {"verdict": tk.euler_report(obj, path).verdict},
            _expect("verdict", "STATIONARY")),
        Job("tvc", f"tvc#{i}", lambda: _tvc_outcome(tk.tvc_liminf_discrete(obj, path, q)),
            check_tvc),
        Job("assume", f"assume#{i}", lambda: _assume_outcome(obj, path, q),
            _expect("verdict", "NON_UNIFORM")),
        Job("oracle", f"decomposition#{i}",
            lambda: {"gap": tk.variation_decomposition_check(obj, path, q)},
            check_gap),
    ]


def _tvc_outcome(rep):
    return {"verdict": rep.verdict, "liminf": rep.liminf_estimate}


def _assume_outcome(obj, path, curve):
    verdict = tk.uniformity_verdict(tk.a_grid(obj, path, curve))
    return {"verdict": verdict.verdict}


# ---------------------------------------------------------------------------
# continuous-grid: builtin quadlin_continuous on 2 states, t_end = 10

def _continuous_instance(rng, sizes, i):
    m = 2
    scenario = tk.parse_scenario({
        "time": {"kind": "continuous", "t_end": 10.0, "h": sizes["cont_h"]},
        "omega": {"probs": _probs(rng, m)},
        "order": 2,
        "objective": {"builtin": "quadlin-continuous", "params": {
            "alpha": rng.uniform(0.5, 2.0, m).tolist(),
            "beta": rng.uniform(0.2, 0.8, m).tolist(),
            "gamma": rng.uniform(0.1, 0.5, m).tolist()}},
        "path": {"closed_form": "constant-alpha"},
        "perturbation": {"kind": "ramp", "target": float(rng.uniform(0.5, 1.5)),
                         "ramp_end": 1.0},
    })
    obj, path, p = scenario.objective(), scenario.path(), scenario.perturbation()
    truncations = [float(t) for t in range(2, 10)]
    return [
        Job("euler", f"euler#{i}",
            lambda: {"verdict": tk.euler_report(obj, path).verdict},
            _expect("verdict", "STATIONARY")),
        Job("tvc", f"tvc#{i}",
            lambda: _tvc_outcome(tk.tvc_liminf_continuous(obj, path, p, truncations)),
            _expect("verdict", "VIOLATED")),
        Job("assume", f"assume#{i}", lambda: _assume_outcome(obj, path, p),
            _expect("verdict", "NON_UNIFORM")),
    ]


# ---------------------------------------------------------------------------
# solve-oracle: household_log with a live head, fixed mode

def _household_solve(obj, space, T, head, tail):
    """Fixed-mode spec with the guess interpolated as in the household demo."""
    n = obj.order
    domain = tk.TimeDomain.discrete(T + n)
    idx = np.arange(domain.num_points, dtype=float)
    guess = np.interp(idx, [0, 1, T + 1, T + 2], [head, head, tail[0], tail[1]])
    guess_path = tk.StochasticPath(domain, space,
                                   np.repeat(guess[:, None], space.m, axis=1))
    return tk.SolveSpec(horizon=T, guess=guess_path, mode="fixed",
                        head=np.full((n, space.m), head),
                        tail=np.array([[tail[0]] * space.m, [tail[1]] * space.m]))


def _solve_outcome(obj, spec):
    _, rep = tk.newton_euler_solve(obj, spec)
    return {"converged": rep.converged, "curvature": list(rep.curvature)}


def _check_solve(out):
    if not out["converged"]:
        return "Newton did not converge"
    if any(c != "concave" for c in out["curvature"]):
        return f"curvature {out['curvature']}, expected concave"
    return None


def _solve_instance(rng, sizes, i):
    space = tk.SampleSpace((0.5, 0.5))
    discount = float(rng.uniform(0.88, 0.92))
    head = float(rng.uniform(0.95, 1.05))
    tail = (float(rng.uniform(0.18, 0.22)), float(rng.uniform(0.09, 0.11)))
    obj = tk.household_log(discount, 2, zero_head=False)
    spec = _household_solve(obj, space, sizes["solve_T"], head, tail)

    # oracle inputs: brute force over 3 of the 4 free indices at horizon 5
    small = _household_solve(obj, space, 5, head, tail)
    grid = np.linspace(0.1, 2.1, sizes["brute_grid"])
    params = tk.QuadLinParams(alpha=tuple(rng.uniform(0.5, 2.0, 2)),
                              beta=tuple(rng.uniform(0.2, 0.8, 2)),
                              gamma=tuple(rng.uniform(0.1, 0.5, 2)))
    pair = tk.discrete_to_continuous(tk.quadlin_discrete(params))
    segments = [(rng.uniform(0.5, 3.0, size=5), int(rng.integers(0, 10)),
                 int(rng.integers(0, 2))) for _ in range(sizes["segments"])]
    dsl = tk.dsl_discrete_objective(DSL, DSL_ORDER, {
        k: tuple(rng.uniform(0.1, 2.0, 2)) for k in "abgd"})
    household_points = [(rng.uniform(1.0, 1.9, size=3), int(rng.integers(0, 10)),
                         int(rng.integers(0, 2))) for _ in range(sizes["grad_points"])]
    dsl_points = [(rng.uniform(-2.0, 4.0, size=DSL_ORDER + 1), int(rng.integers(0, 10)),
                   int(rng.integers(0, 2))) for _ in range(sizes["grad_points"])]

    def oracle():
        newton, rep = tk.newton_euler_solve(obj, small)
        brute = tk.brute_force_solve(obj, newton, [2, 3, 4], [grid] * 3)
        return {
            "converged": rep.converged, "curvature": list(rep.curvature),
            "cell_gap": float(np.abs(brute.path.values[2:5] - newton.values[2:5]).max()),
            "cell": brute.grid_resolution,
            "value_gap": brute.value - tk.objective_value(obj, newton),
            "correspond": tk.correspondence_check(pair, segments).verdict,
            "gradient": [tk.gradient_check(obj, household_points).verdict,
                         tk.gradient_check(dsl, dsl_points).verdict],
        }

    def check_oracle(out):
        problems = [_check_solve(out)]
        if out["cell_gap"] > out["cell"]:
            problems.append(f"brute-force argmax {out['cell_gap']:.3g} from Newton")
        if out["value_gap"] > VALUE_GAP_TOL:
            problems.append(f"brute force beats Newton by {out['value_gap']:.3g}")
        if out["correspond"] != "PASS" or out["gradient"] != ["PASS", "PASS"]:
            problems.append(f"correspond {out['correspond']}, gradient {out['gradient']}")
        problems = [p for p in problems if p]
        return "; ".join(problems) or None

    return [Job("solve", f"solve#{i}", lambda: _solve_outcome(obj, spec), _check_solve),
            Job("oracle", f"oracle#{i}", oracle, check_oracle)]


# ---------------------------------------------------------------------------
# cli-small: the shipped scenarios and demo presets through tvckit.cli.main

# (scenario, command) -> exit code the README's contract asks for; exit 0
# from correspond also means it did not report FAIL
CLI_EXPECTED = {
    ("discrete-counterexample", "euler"): 0,
    ("discrete-counterexample", "tvc"): 1,
    ("discrete-counterexample", "assume"): 0,
    ("discrete-counterexample", "correspond"): 0,
    ("continuous-counterexample", "euler"): 0,
    ("continuous-counterexample", "tvc"): 1,
    ("continuous-counterexample", "assume"): 0,
    ("continuous-counterexample", "correspond"): 2,
    ("household", "euler"): 0,
    ("household", "solve"): 0,
    ("household", "correspond"): 0,
    ("quadlin-dsl", "euler"): 1,
    ("quadlin-dsl", "tvc"): 0,
    ("quadlin-dsl", "assume"): 0,
    ("quadlin-dsl", "correspond"): 0,
}
DEMO_EXPECTED = {"discrete-counterexample": 1, "continuous-counterexample": 1,
                 "assumption": 0, "correspondence": 0, "household": 0}

# Defects listed in ROADMAP item 4: the outcome each command gives today.
# They count in failed_share until fixed; any third outcome is a failure.
KNOWN_DEFECTS = {
    ("household", "euler"): {"exit": 1, "verdict": "NOT_STATIONARY"},
    ("household", "correspond"): {"exit": 1, "verdict": "FAIL"},
    ("continuous-counterexample", "correspond"): {"exit": 0, "verdict": "PASS"},
}

OP_OF_COMMAND = {"euler": "euler", "tvc": "tvc", "assume": "assume",
                 "solve": "solve", "correspond": "oracle", "demo": "demo"}


def _run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = tvckit.cli.main(argv)
    text = out.getvalue().encode("utf-8")
    verdict = None
    if argv[0] != "demo" and text:
        verdict = json.loads(text)[argv[0]].get("verdict")
    return {"exit": code, "verdict": verdict, "bytes": len(text),
            "sha256": hashlib.sha256(text).hexdigest()}


def _cli_cycle(rng):
    jobs = []
    for key, want in CLI_EXPECTED.items():
        scenario, command = key
        argv = [command, "--scenario", str(ROOT / "scenarios" / f"{scenario}.json")]
        jobs.append(Job(OP_OF_COMMAND[command], f"{command}:{scenario}",
                        lambda argv=argv: _run_cli(argv), _expect("exit", want),
                        KNOWN_DEFECTS.get(key)))
    demo_seed = str(int(rng.integers(0, 2**31)))
    for preset, want in DEMO_EXPECTED.items():
        argv = ["demo", preset, "--seed", demo_seed]
        jobs.append(Job("demo", f"demo:{preset}", lambda argv=argv: _run_cli(argv),
                        _expect("exit", want)))
    order = rng.permutation(len(jobs))
    return [jobs[k] for k in order]


def _cli_setup():
    """Parse every shipped scenario and build its objective, path and curve."""
    for path in sorted((ROOT / "scenarios").glob("*.json")):
        scenario = tk.load_scenario(path)
        scenario.objective()
        scenario.path()
        scenario.perturbation()
