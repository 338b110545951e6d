"""tvckit benchmark: time-to-verdict per engine on four workloads.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Load shape: closed loop, one client.  Each workload runs in fresh worker
processes (bench/worker.py) that import tvckit from ./src, build the seeded
inputs and run whole job cycles; no threads are added beyond numpy's BLAS
pool, which is capped at nproc.

A cycle runs every operation once on one instance of the seeded pool.
Around each job the worker runs a fixed reference kernel (no tvckit code)
for 10% of the job's time, half before and half after.
ref_cost_per_verification is the median over cycles of the cycle's wall
time per job divided by its mean time per reference call, and
ref_cpu_per_verification the same with CPU time: verification cost in units
of the host's speed at that moment, which stays steady while a shared
host's speed swings by 1.5-2x.  The raw verifications_per_s and
cpu_s_per_verification are jobs per job-second and CPU seconds per job over
the run, reference time excluded.  setup_s is the median of seven
fresh-process set-ups taken before and after the run.

--trace 0 prints the end-to-end metrics of BENCHMARK.json.  --trace 1 also
runs the first cycle four times, untraced, traced, traced and untraced, with
the reference kernel around each job; it checks that both traced passes give
identical work counts and that all four give identical verdicts, and prints
the per-layer metrics.  trace.overhead_ratio is the traced passes' cost over
the untraced passes' cost, both in reference units.  The line before the
last holds the full record: environment, latency sample counts, failures by
name and the per-layer self times.  The last line is the result object.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import COUNT_METRICS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".bench_out"

WORKLOADS = ("discrete-horizon", "continuous-grid", "solve-oracle", "cli-small")
OPS = ("euler", "tvc", "assume", "solve", "oracle", "demo")
SETUP_SAMPLES = {"full": 7, "toy": 1}
# time allowed beyond --seconds for the set-up processes, the timed run's
# last cycle and the traced passes, before the workers are stopped
MARGIN_S = 145.0


class Runner:
    """Starts worker processes with a shared deadline and a fixed environment."""

    def __init__(self, workload, seed, size, seconds):
        self.base = ["--workload", workload, "--seed", str(seed), "--size", size]
        nproc = str(len(os.sched_getaffinity(0)))
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0",
                        OPENBLAS_NUM_THREADS=nproc, OMP_NUM_THREADS=nproc,
                        MKL_NUM_THREADS=nproc)
        self.deadline = time.monotonic() + seconds + MARGIN_S

    def __call__(self, *args) -> dict:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), *self.base, *args],
            env=self.env, cwd=ROOT, capture_output=True, text=True,
            timeout=max(1.0, self.deadline - time.monotonic()))
        if proc.returncode != 0:
            raise RuntimeError(f"worker {' '.join(args)} failed:\n{proc.stderr}")
        return json.loads(proc.stdout)


def _cpu_model() -> str:
    with open("/proc/cpuinfo", encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    return platform.processor()


def _latencies(run: dict) -> dict:
    """Median over cycles of the cycle's mean latency, per operation."""
    out = {}
    for op in OPS:
        samples = run["latency"].get(op, [])
        entry = {"value": statistics.median(samples) if samples else 0.0,
                 "unit": "s", "samples": len(samples)}
        if len(samples) >= 100:  # at least ten samples beyond the 90th percentile
            entry["p90"] = statistics.quantiles(samples, n=10)[-1]
        out[f"{op}_s"] = entry
    return out


def _trace(runner: Runner, workload: str, seed: int) -> tuple[dict, list[str]]:
    """Per-layer record of the first cycle and the problems found checking it."""
    OUT_DIR.mkdir(exist_ok=True)
    plain = runner("--mode", "pass")
    first = runner("--mode", "pass", "--trace",
                   "--spans-out", str(OUT_DIR / f"spans-{workload}-seed{seed}.csv.gz"))
    second = runner("--mode", "pass", "--trace")
    plain_after = runner("--mode", "pass")
    problems = []
    for name in COUNT_METRICS:
        if first["layers"][name] != second["layers"][name]:
            problems.append(f"traced count {name} differs between same-seed passes: "
                            f"{first['layers'][name]} vs {second['layers'][name]}")
    for other in (first, second, plain_after):
        if other["outcomes"] != plain["outcomes"]:
            problems.append("traced and untraced passes gave different verdicts")
            break
    layers = dict(first["layers"])
    layers["tvckit.import_s"] = first["import_s"]
    layers["trace.overhead_ratio"] = ((first["ref_cost"] + second["ref_cost"])
                                      / (plain["ref_cost"] + plain_after["ref_cost"]))
    record = {"layers": layers, "self_s": first["self_s"], "spans": first["spans"],
              "traced_wall_s": [first["wall_s"], second["wall_s"]],
              "untraced_wall_s": [plain["wall_s"], plain_after["wall_s"]],
              "traced_ref_cost": [first["ref_cost"], second["ref_cost"]],
              "untraced_ref_cost": [plain["ref_cost"], plain_after["ref_cost"]]}
    return record, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="length of the timed run; the whole run is stopped "
                             f"after --seconds + {MARGIN_S:.0f} s")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=tuple(SETUP_SAMPLES), default="full",
                        help="toy runs every workload at tiny sizes (self-test)")
    args = parser.parse_args(argv)

    for needed in (ROOT / "src" / "tvckit" / "__init__.py", ROOT / "scenarios",
                   ROOT / "BENCHMARK.json"):
        if not needed.exists():
            print(f"bench: {needed.relative_to(ROOT)} not found; run from a "
                  f"tvckit checkout", file=sys.stderr)
            return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

    runner = Runner(args.workload, args.seed, args.size, args.seconds)
    # set-up samples on both sides of the timed run, so they see more than
    # one phase of a shared host's load
    extra = SETUP_SAMPLES[args.size] - 1
    setups = [runner("--mode", "setup")["setup_s"] for _ in range(extra // 2)]
    run = runner("--mode", "run", "--seconds", str(args.seconds))
    setups.append(run["setup_s"])
    setups += [runner("--mode", "setup")["setup_s"] for _ in range(extra - extra // 2)]

    jobs = run["jobs"]
    per_cycle = jobs / run["cycles"]  # every cycle runs the same number of jobs
    cyc = run["per_cycle"]

    def ref_cost(time_key, ref_key):
        """Median over cycles of time per job over time per reference call."""
        return statistics.median(t * n / r / per_cycle for t, n, r in
                                 zip(cyc[time_key], cyc["ref_calls"], cyc[ref_key]))

    values = {
        "setup_s": statistics.median(setups),
        "ref_cost_per_verification": ref_cost("wall_s", "ref_s"),
        "ref_cpu_per_verification": ref_cost("cpu_s", "ref_cpu_s"),
        "verifications_per_s": jobs / sum(cyc["wall_s"]),
        "cpu_s_per_verification": sum(cyc["cpu_s"]) / jobs,
        "peak_rss_mb": run["peak_rss_mb"],
        "failed_share": (run["failed_jobs"] + run["defect_jobs"]) / jobs,
    }
    latency = _latencies(run)
    values.update({name: entry["value"] for name, entry in latency.items()})
    problems = [f"{name}: {run['messages'][name]}" for name in run["failed"]]
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "size": args.size,
        "env": {"python": platform.python_version(), "numpy": run["numpy"],
                "nproc": len(os.sched_getaffinity(0)), "cpu": _cpu_model(),
                "blas_threads": run["blas_threads"]},
        "setup_samples": setups, "cycles": run["cycles"], "per_cycle": cyc,
        "latency": latency,
        "failed_share": {"value": values["failed_share"], "base": jobs,
                         "failed": run["failed"], "known_defects": run["known_defects"],
                         "messages": run["messages"]},
    }
    if args.trace:
        record["trace"], trace_problems = _trace(runner, args.workload, args.seed)
        problems += trace_problems
        values.update(record["trace"]["layers"])
    record["problems"] = problems

    record["metrics"] = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                         for m in spec["end_to_end"] + spec["per_layer"]
                         if m["name"] in values}
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {m["name"]: record["metrics"][m["name"]] for m in wanted}
    print(json.dumps(record, sort_keys=True))
    print(json.dumps({"correct": not problems, "attempted": jobs,
                      "failed": run["failed_jobs"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
