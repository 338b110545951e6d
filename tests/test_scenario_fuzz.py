"""The exit-code contract on mutated shipped scenarios.

Each example mutates one of the shipped scenarios (one leaf replaced, one key
dropped, or a random DSL source) and runs one command on it through
`tvckit.cli.main` in-process.  No exception may escape, the exit code is one
of 0 (pass), 1 (failed verdict), 2 (bad input) or 3 (numerical failure), and
exit 1 comes only with a report whose verdict failed.  Finite replacement
numbers stay at magnitude <= 100, so that no mutation asks for a huge grid.
The override flags (--tmax, --seed, --eps-grid) are also run on scenarios
whose root or a top-level node, the ones they write into, is wrongly typed.
"""

import contextlib
import copy
import io
import json
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from test_expr import _ast_strategy, _leaves
from tvckit.cli import main
from tvckit.expr import to_source

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
BASES = {p.stem: json.loads(p.read_text()) for p in sorted(SCENARIOS.glob("*.json"))}
COMMANDS = ("euler", "tvc", "assume", "solve", "correspond")
FAILED_VERDICTS = {"NOT_STATIONARY", "VIOLATED", "FAIL"}

DROP = object()
REPLACEMENTS = (float("nan"), float("inf"), float("-inf"), -1, 0, 3, "x", True, None,
                [], [[1.0, 2.0], [3.0]])


def _leaf_paths(node, prefix=()):
    if isinstance(node, (dict, list)):
        items = node.items() if isinstance(node, dict) else enumerate(node)
        for key, child in items:
            yield from _leaf_paths(child, prefix + (key,))
    else:
        yield prefix


def _key_paths(node, prefix=()):
    if isinstance(node, dict):
        for key, child in node.items():
            yield prefix + (key,)
            yield from _key_paths(child, prefix + (key,))


_LEAF_MUTATIONS = [(stem, path, value) for stem, data in BASES.items()
                   for path in _leaf_paths(data) for value in REPLACEMENTS]
_DROPS = [(stem, path, DROP) for stem, data in BASES.items()
          for path in _key_paths(data)]
_DSL_SOURCES = _ast_strategy(
    st.sampled_from([-1.0, 0.5, 2.0, 3.0]), max_leaves=8,
    leaves=_leaves(("y0", "y1", "y2", "t", "a"))).map(
        lambda ast: ("quadlin-dsl", ("objective", "expr"), to_source(ast)))
# a wrongly typed root or top-level node, diagnostics included where it is absent
_NODE_MUTATIONS = [(stem, path, value) for stem, data in BASES.items()
                   for path in [()] + [(key,) for key in sorted(set(data) | {"diagnostics"})]
                   for value in REPLACEMENTS]
# the command and flag of each override written into the file before validation
_OVERRIDES = [(command, ["--tmax", "5"]) for command in COMMANDS] + [
    ("correspond", ["--seed", "1"]), ("assume", ["--eps-grid", "0.5,0.1"])]
_SETTINGS = dict(deadline=None, derandomize=True,
                 suppress_health_check=[HealthCheck.function_scoped_fixture])


def _mutated(stem, path, value):
    if not path:
        return value
    data = copy.deepcopy(BASES[stem])
    node = data
    for key in path[:-1]:
        node = node[key]
    if value is DROP:
        del node[path[-1]]
    else:
        node[path[-1]] = value
    return data


def _check_contract(tmp_path, mutation, command, flags=()):
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps(_mutated(*mutation)))
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main([command, "--scenario", str(scenario), *flags])
    assert code in (0, 1, 2, 3)
    if code == 1:
        assert json.loads(out.getvalue())[command]["verdict"] in FAILED_VERDICTS


@given(st.sampled_from(_LEAF_MUTATIONS + _DROPS), st.sampled_from(COMMANDS))
@settings(max_examples=400, **_SETTINGS)
def test_leaf_and_key_mutations(tmp_path, mutation, command):
    _check_contract(tmp_path, mutation, command)


@given(_DSL_SOURCES, st.sampled_from(COMMANDS))
@settings(max_examples=200, **_SETTINGS)
def test_random_dsl_sources(tmp_path, mutation, command):
    _check_contract(tmp_path, mutation, command)


@given(st.sampled_from(_NODE_MUTATIONS), st.sampled_from(_OVERRIDES))
@settings(max_examples=200, **_SETTINGS)
def test_overrides_on_wrongly_typed_nodes(tmp_path, mutation, override):
    _check_contract(tmp_path, mutation, *override)
