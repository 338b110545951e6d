"""One benchmark process: import tvckit, build a workload's inputs, then run it.

Modes:
  setup  import and build only, report the set-up time;
  run    run whole job cycles until --seconds have passed (closed loop, one
         client) with the reference kernel around each job; report per-cycle
         job, CPU and reference times, latencies and failures;
  pass   run the first cycle once, with the reference kernel around each
         job and --trace to record spans; report each job's outcome, the
         pass's cost in reference units and the per-layer metrics.

Prints one JSON object on stdout.  run.py starts each mode in a fresh process.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent


def _execute(job):
    """(outcome, status, message); status is ok, known_defect or failed."""
    try:
        outcome = job.run()
    except Exception as exc:  # a job that raises is a failed job, not a crash
        return None, "failed", f"{type(exc).__name__}: {exc}"
    problem = job.check(outcome)
    if problem is None:
        return outcome, "ok", None
    if job.defect and all(outcome[k] == v for k, v in job.defect.items()):
        return outcome, "known_defect", problem
    return outcome, "failed", problem


RANK = {"ok": 0, "known_defect": 1, "failed": 2}

# The reference kernel runs for this share of each job's time, half just
# before the job (sized by the job's previous duration) and half just after,
# so the two samples bracket the job.
REF_SHARE = 0.1


class _Node:
    __slots__ = ("op", "left", "right")

    def __init__(self, op, left=None, right=None):
        self.op, self.left, self.right = op, left, right


_REF_TREE = _Node("+", _Node("*", _Node("-", _Node("y0"), _Node("c")),
                             _Node("-", _Node("y0"), _Node("c"))),
                  _Node("*", _Node("k"), _Node("y1")))


def _ref_eval(node, env):
    if node.op == "+":
        return _ref_eval(node.left, env) + _ref_eval(node.right, env)
    if node.op == "-":
        return _ref_eval(node.left, env) - _ref_eval(node.right, env)
    if node.op == "*":
        return _ref_eval(node.left, env) * _ref_eval(node.right, env)
    return env[node.op]


def _reference_kernel(values):
    """Fixed work shaped like tvckit's hot path, one Python call per window
    and state over numpy slices plus a small expression-tree walk, but with
    no tvckit code, so a change to tvckit never moves it.  Its speed tracks
    the speed the host gives this process at that moment."""
    total = 0.0
    for t in range(values.shape[0] - 2):
        window = values[t : t + 3]
        for w in range(values.shape[1]):
            point = window[:, w, :]
            total += _ref_eval(_REF_TREE, {"y0": float(point[0, 0]), "y1": float(point[1, 0]),
                                           "c": 1.0, "k": 0.5})
    return total


def _reference(seconds, values):
    """Run the reference kernel for about `seconds`: (calls, wall s, CPU s)."""
    calls = 0
    w0, c0 = time.perf_counter(), time.process_time()
    while True:
        _reference_kernel(values)
        calls += 1
        if time.perf_counter() - w0 >= seconds:
            return calls, time.perf_counter() - w0, time.process_time() - c0


def _reference_values():
    import numpy as np
    return np.linspace(0.5, 2.0, 240).reshape(40, 3, 2)


def _bracketed(job, before_s, ref_values):
    """Run one job between two reference samples, the first of about
    `before_s` and the second of REF_SHARE / 2 of the job's wall time:
    (outcome, status, message, wall s, CPU s, (ref calls, ref wall s, ref CPU s))."""
    before = _reference(before_s, ref_values)
    t0, p0 = time.perf_counter(), time.process_time()
    outcome, status, message = _execute(job)
    dt, cpu = time.perf_counter() - t0, time.process_time() - p0
    after = _reference(REF_SHARE / 2 * dt, ref_values)
    ref = tuple(a + b for a, b in zip(before, after))
    return outcome, status, message, dt, cpu, ref


def _timed_run(cycles, seconds):
    ref_values = _reference_values()
    first = {}        # job name -> outcome of its first call
    statuses = {}     # job name -> worst status over its calls
    messages = {}
    counts = dict.fromkeys(RANK, 0)
    latency = {}      # op -> per-cycle mean latency
    per_cycle = {key: [] for key in ("wall_s", "cpu_s", "ref_calls", "ref_s", "ref_cpu_s")}
    last = {}         # job name -> duration of its previous call
    wall0 = time.perf_counter()
    k = 0
    while True:
        per_op = {}
        sums = dict.fromkeys(per_cycle, 0)
        for job in cycles[k % len(cycles)]:
            outcome, status, message, dt, cpu, ref = _bracketed(
                job, REF_SHARE / 2 * last.get(job.name, 0.0), ref_values)
            last[job.name] = dt
            sums["cpu_s"] += cpu
            sums["wall_s"] += dt
            per_op.setdefault(job.op, []).append(dt)
            for key, value in zip(("ref_calls", "ref_s", "ref_cpu_s"), ref):
                sums[key] += value
            if status != "failed" and first.setdefault(job.name, outcome) != outcome:
                status, message = "failed", "outcome differs from the first call"
            counts[status] += 1
            if RANK[status] > RANK[statuses.get(job.name, "ok")]:
                messages[job.name] = message
            statuses[job.name] = max(status, statuses.get(job.name, "ok"), key=RANK.get)
        for key, value in sums.items():
            per_cycle[key].append(value)
        for op, times in per_op.items():
            latency.setdefault(op, []).append(sum(times) / len(times))
        k += 1
        if time.perf_counter() - wall0 >= seconds:
            break
    return {
        "jobs": sum(counts.values()), "failed_jobs": counts["failed"],
        "defect_jobs": counts["known_defect"], "cycles": k,
        "failed": sorted(n for n, s in statuses.items() if s == "failed"),
        "known_defects": sorted(n for n, s in statuses.items() if s == "known_defect"),
        "messages": messages, "latency": latency, "per_cycle": per_cycle,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def _blas_threads() -> int:
    """Threads in this process after a BLAS call: the main thread plus the
    BLAS pool's workers."""
    import numpy as np
    a = np.ones((256, 256))
    a @ a
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("Threads:"):
                return int(line.split()[1])
    return -1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--mode", choices=("setup", "run", "pass"), required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", default="full")
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans-out")
    args = parser.parse_args(argv)

    t0 = time.perf_counter()
    import tvckit.cli  # noqa: F401  (the package and its CLI; timed as set-up)
    import_s = time.perf_counter() - t0
    sys.path.insert(0, str(HERE))
    tracer = None
    if args.trace:
        from spans import Tracer
        tracer = Tracer()
        tracer.install()
    import workloads
    t1 = time.perf_counter()
    cycles = workloads.build(args.workload, args.seed, args.size)
    setup_s = import_s + (time.perf_counter() - t1)
    out = {"import_s": import_s, "setup_s": setup_s}

    if args.mode == "run":
        out.update(_timed_run(cycles, args.seconds))
        out["blas_threads"] = _blas_threads()
        out["numpy"] = sys.modules["numpy"].__version__
    elif args.mode == "pass":
        outcomes, statuses, report_bytes = {}, {}, 0
        ref_values = _reference_values()
        wall_s = ref_cost = 0.0
        for job_id, job in enumerate(cycles[0]):
            if tracer is not None:
                tracer.job_id = job_id
            outcome, statuses[job.name], _, dt, _, (calls, ref_s, _) = _bracketed(
                job, 0.0, ref_values)
            wall_s += dt
            ref_cost += dt * calls / ref_s
            outcomes[job.name] = outcome
            report_bytes += (outcome or {}).get("bytes", 0)
        out["wall_s"] = wall_s
        out["ref_cost"] = ref_cost
        out["outcomes"] = outcomes
        out["statuses"] = statuses
        if tracer is not None:
            out["layers"], out["self_s"] = tracer.layer_metrics(report_bytes)
            out["spans"] = len(tracer.start)
            if args.spans_out:
                tracer.write(args.spans_out)
    json.dump(out, sys.stdout)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
