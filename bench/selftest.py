"""Toy-size self-test of the benchmark runner.

    python3 bench/selftest.py

Runs every workload at tiny sizes for one cycle, traced, and checks that:
every metric the benchmark defines is printed under its name with the unit
BENCHMARK.json gives it; no job fails; only the three known-defect commands
of cli-small count in failed_share; and a directory holding only
BENCHMARK.json and bench/ makes the runner exit non-zero without a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# metrics every run computes, with their units
RUN_METRICS = {"setup_s": "s", "ref_cost_per_verification": "ref",
               "ref_cpu_per_verification": "ref", "verifications_per_s": "jobs/s",
               "cpu_s_per_verification": "s", "peak_rss_mb": "MB", "failed_share": "ratio",
               "euler_s": "s", "tvc_s": "s", "assume_s": "s", "solve_s": "s",
               "oracle_s": "s", "demo_s": "s"}
KNOWN_DEFECTS = ["correspond:continuous-counterexample", "correspond:household",
                 "euler:household"]
CLI_COMMANDS = 20


def _fail(message: str):
    sys.exit(f"selftest: {message}")


def _run(root: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(root / "bench" / "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "0", "--trace", str(trace), "--size", "toy"],
        cwd=root, capture_output=True, text=True, timeout=170)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    for name, unit in RUN_METRICS.items():
        if units.get(name) != unit:
            _fail(f"BENCHMARK.json gives {name} unit {units.get(name)!r}, expected {unit!r}")

    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1) if workload == "cli-small" else (1,):
            proc = _run(ROOT, workload, trace)
            if proc.returncode != 0:
                _fail(f"{workload} --trace {trace} exited {proc.returncode}:\n{proc.stderr}")
            *_, detail, last = proc.stdout.strip().splitlines()
            result, record = json.loads(last), json.loads(detail)
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                _fail(f"{workload}: result keys {sorted(result)}")
            if not result["correct"] or result["failed"]:
                _fail(f"{workload}: problems {record['problems']}")
            wanted = spec["per_layer"] if trace else spec["end_to_end"]
            printed = {n: m["unit"] for n, m in result["metrics"].items()}
            if printed != {m["name"]: m["unit"] for m in wanted}:
                _fail(f"{workload} --trace {trace}: metrics {printed}")
            if {n: m["unit"] for n, m in record["metrics"].items()
                    if n in RUN_METRICS} != RUN_METRICS:
                _fail(f"{workload}: record metrics {sorted(record['metrics'])}")
            share = record["failed_share"]
            defects = KNOWN_DEFECTS if workload == "cli-small" else []
            if share["known_defects"] != defects or share["failed"]:
                _fail(f"{workload}: failed {share['failed']}, "
                      f"known defects {share['known_defects']}")
            if workload == "cli-small" and share["value"] != len(defects) / CLI_COMMANDS:
                _fail(f"cli-small: failed_share {share['value']}")
            print(f"selftest: {workload} --trace {trace} ok "
                  f"({result['attempted']} jobs)")

    bare = ROOT / ".bench_out" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = _run(bare, "cli-small", 0)
    shutil.rmtree(bare)
    if proc.returncode == 0 or proc.stdout.strip():
        _fail("runner without a tvckit checkout did not fail cleanly")
    print("selftest: bench-only directory exits non-zero without a result")
    return 0


if __name__ == "__main__":
    sys.exit(main())
