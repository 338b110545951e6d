"""The names the benchmark harness hooks into must exist.

bench/spans.py wraps every TARGETS entry by name and bench/workloads.py runs
the shipped scenarios and demo presets; a missing name or file would only
show as a crash of the traced benchmark run.  Both files are imported here,
nothing in them is run.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import tvckit.cli
import tvckit.objectives

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _bench_module(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


def test_span_targets_resolve():
    spans = _bench_module("spans")
    missing = [f"{mod}.{attr}" for mod, attr, _, _ in spans.TARGETS
               if not hasattr(importlib.import_module(mod), attr)]
    assert missing == []
    assert callable(tvckit.objectives._Objective.value)


def test_cli_workload_inputs_exist():
    workloads = _bench_module("workloads")
    scenarios = workloads.ROOT / "scenarios"
    missing = sorted({name for name, _ in workloads.CLI_EXPECTED
                      if not (scenarios / f"{name}.json").is_file()})
    assert missing == []
    assert set(workloads.DEMO_EXPECTED) == set(tvckit.cli.DEMOS)
