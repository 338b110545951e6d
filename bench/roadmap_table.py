"""Re-measure the baseline table of ROADMAP item 1 at the current commit.

    python3 bench/roadmap_table.py

Each row is the median of three calls on the worked example's constants
(two equally likely states, alpha=(1,2), beta=(0.5,0.4), gamma=(0.25,0.2);
household lag order 2, discount 0.9).  The Newton solve at T = 120 runs
once.  Prints one markdown table.
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import tvckit as tk  # noqa: E402

SPACE = tk.SampleSpace((0.5, 0.5))
PARAMS = tk.QuadLinParams(alpha=(1.0, 2.0), beta=(0.5, 0.4), gamma=(0.25, 0.2))
DEMOS = ("discrete-counterexample", "continuous-counterexample", "assumption",
         "correspondence", "household")
REPEATS = 3


def _median_time(fn, repeats=REPEATS):
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def _per_call(fn, calls=20000):
    t0 = time.perf_counter()
    for _ in range(calls):
        fn()
    return (time.perf_counter() - t0) / calls


def _household_spec(T):
    obj = tk.household_log(0.9, 2, zero_head=False)
    dom = tk.TimeDomain.discrete(T + 2)
    guess = np.interp(np.arange(T + 3.0), [0, 1, T + 1, T + 2], [1.0, 1.0, 0.2, 0.1])
    spec = tk.SolveSpec(horizon=T, mode="fixed",
                        guess=tk.StochasticPath(dom, SPACE, np.repeat(guess[:, None], 2, axis=1)),
                        head=np.ones((2, 2)), tail=np.array([[0.2, 0.2], [0.1, 0.1]]))
    return obj, spec


def _subprocess_s(code_or_args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return _median_time(lambda: subprocess.run([sys.executable, *code_or_args], env=env,
                                               capture_output=True, check=False))


def main() -> int:
    rows = []

    obj = tk.quadlin_discrete(PARAMS)
    for T in (50, 500, 5000):
        dom = tk.TimeDomain.discrete(T)
        path = tk.quadlin_euler_path(dom, SPACE, PARAMS)
        q = tk.eventually_constant_curve(dom, SPACE, onset=1, value=1.0)
        rows.append(("discrete `euler_report`", f"T = {T}",
                     _median_time(lambda: tk.euler_report(obj, path))))
        rows.append(("`tvc_liminf_discrete`", f"T = {T}",
                     _median_time(lambda: tk.tvc_liminf_discrete(obj, path, q))))
        rows.append(("`variation_decomposition_check`", f"T = {T}",
                     _median_time(lambda: tk.variation_decomposition_check(obj, path, q))))

    cobj = tk.quadlin_continuous(PARAMS)
    for h in (0.01, 0.002):
        dom = tk.TimeDomain.continuous(10.0, h)
        path = tk.constant_alpha_path(dom, SPACE, PARAMS)
        p = tk.quintic_ramp_curve(dom, SPACE, target=1.0)
        rows.append(("continuous `euler_report`", f"t_end = 10, h = {h}",
                     _median_time(lambda: tk.euler_report(cobj, path))))
        rows.append(("continuous `a_grid`", f"t_end = 10, h = {h}",
                     _median_time(lambda: tk.a_grid(cobj, path, p))))

    for T in (10, 40, 120):
        hobj, spec = _household_spec(T)
        rows.append(("Newton, `household_log` live head, fixed mode", f"T = {T}",
                     _median_time(lambda: tk.newton_euler_solve(hobj, spec),
                                  1 if T == 120 else REPEATS)))

    for preset in DEMOS:
        rows.append((f"`tvckit demo {preset}`", "end to end",
                     _subprocess_s(["-m", "tvckit.cli", "demo", preset])))
    rows.append(("`import tvckit`", "fresh interpreter",
                 _subprocess_s(["-c", "import tvckit"]) - _subprocess_s(["-c", "pass"])))

    point = np.array([[1.0], [1.2], [0.9]])
    dsl = tk.dsl_discrete_objective("(y0 - a)^2 + b * y1 + g * y2", 2,
                                    {"a": (1.0, 2.0), "b": (0.5, 0.4), "g": (0.25, 0.2)})
    house = tk.household_log(0.9, 2, zero_head=False)
    for name, o in (("quadlin", obj), ("DSL", dsl), ("household", house)):
        rows.append((f"`value` per call, {name}", "one point",
                     _per_call(lambda: o.value(point, 3, 1))))
        rows.append((f"FD partial per call, {name}", "one point",
                     _per_call(lambda: tk.fd_partial_slot(o, 1, point, 3, 1), 5000)))

    print("| Row | Sizes | Time (s) |\n|---|---|---|")
    for name, size, secs in rows:
        print(f"| {name} | {size} | {secs:.3g} |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
