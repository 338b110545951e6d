import hashlib
import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import reference
import tvckit as tk
import tvckit.cli
import tvckit.scenario
from tvckit.cli import DEMOS, main
from tvckit.scenario import SchemaError, load_scenario, parse_scenario

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def minimal_scenario(**overrides):
    data = {
        "time": {"kind": "discrete", "t_max": 20},
        "omega": {"probs": [0.5, 0.5]},
        "order": 2,
        "objective": {"builtin": "quadlin-discrete",
                      "params": {"alpha": [1.0, 2.0], "beta": [0.5, 0.4],
                                 "gamma": [0.25, 0.2]}},
        "path": {"closed_form": "quadlin-euler"},
    }
    data.update(overrides)
    return data


class TestScenarioLoading:
    def test_shipped_fixture(self):
        scenario = load_scenario(SCENARIOS / "discrete-counterexample.json")
        assert scenario.echo["time"]["t_max"] == 50
        assert scenario.space.m == 2
        path = scenario.path()
        assert path.values[1, 1, 0] == pytest.approx(1.8)
        q = scenario.perturbation()
        assert q.tail_kind == "eventually-constant"

    def test_all_shipped_fixtures_load(self):
        for name in sorted(SCENARIOS.glob("*.json")):
            scenario = load_scenario(name)
            assert scenario.objective() is not None

    def test_bad_probs_names_key(self):
        with pytest.raises(SchemaError) as err:
            parse_scenario(minimal_scenario(omega={"probs": [0.5, 0.4]}))
        assert err.value.key_path == "omega.probs"

    def test_unknown_key_rejected(self):
        with pytest.raises(SchemaError) as err:
            parse_scenario(minimal_scenario(extra=1))
        assert "extra" in str(err.value)

    def test_undeclared_dsl_symbol(self):
        data = minimal_scenario(
            objective={"expr": "y0 + delta", "constants": {}},
            path={"constant": 1.0})
        with pytest.raises(tk.ExprSyntaxError) as err:
            parse_scenario(data)
        assert "delta" in str(err.value)

    def test_dsl_gradient_check_at_load(self):
        data = minimal_scenario(
            objective={"expr": "(y0 - 1)^2 + y1 + y2", "constants": {}},
            path={"constant": 1.0})
        scenario = parse_scenario(data)
        assert scenario.warnings == ()

    def test_dsl_gradient_check_below_rounding_is_no_failure(self):
        """A constant of 1e13 leaves the differences of the values at rounding
        level: the load-time check cannot compare, which is not a failure."""
        data = minimal_scenario(
            objective={"expr": "1e13 + (y0 - 1)^2 + y1 + y2", "constants": {}},
            path={"constant": 1.0})
        assert parse_scenario(data).warnings == (
            "objective.expr: gradient check INCONCLUSIVE (max relative gap nan)",)

    def test_missing_file(self, tmp_path):
        with pytest.raises(tk.InputError):
            load_scenario(tmp_path / "missing.json")

    def test_echo_round_trip(self):
        scenario = load_scenario(SCENARIOS / "discrete-counterexample.json")
        again = parse_scenario(json.loads(json.dumps(scenario.echo)))
        assert again.echo == scenario.echo

    @pytest.mark.parametrize("key", ["gradient", "decomposition"])
    def test_unread_tolerance_key_rejected(self, key):
        # only the euler and tvc tolerances are read by any command
        with pytest.raises(SchemaError) as err:
            parse_scenario(minimal_scenario(tolerances={"euler": 1e-8, key: 1e-30}))
        assert err.value.key_path == f"tolerances.{key}"

    def test_solve_horizon_consistency(self):
        data = minimal_scenario(path={"solve": {"horizon": 5, "guess_constant": 0.0}})
        with pytest.raises(SchemaError) as err:
            parse_scenario(data)
        assert err.value.key_path == "path.solve.horizon"


def _mutated(stem, keys, value):
    data = json.loads((SCENARIOS / f"{stem}.json").read_text())
    node = data
    for key in keys[:-1]:
        node = node[key]
    node[keys[-1]] = value
    return data


NAN, INF = float("nan"), float("inf")
# a continuous objective whose partials and values overflow on a constant path
_OVERFLOWING_JETS = {"objective": {"expr": "1e307 * x0 * x1 + 1e307 * x0 * x2"}, "order": 2,
                     "path": {"constant": 100.0}}
COMMANDS = ("euler", "tvc", "assume", "solve", "correspond")


class TestSchemaAtLoad:
    """Each model is built when the scenario is parsed, so every command
    accepts and rejects the same scenarios, naming the key path."""

    @pytest.mark.parametrize("stem, keys, value, key_path", [
        ("quadlin-dsl", ("path",), {"closed_form": "quadlin-euler"}, "path.closed_form"),
        ("quadlin-dsl", ("path",), {"solve": {"horizon": 18, "tolerance": 0}}, "path.solve"),
        ("quadlin-dsl", ("path",), {"solve": {"horizon": 18, "mode": "fixed"}}, "path.solve"),
        ("household", ("path", "solve", "tail"), [[0.2, 0.2]] * 3, "path.solve"),
        ("quadlin-dsl", ("perturbation",), {"values": [[NAN, 0.0]] + [[0.0, 0.0]] * 20},
         "perturbation.values"),
        ("continuous-counterexample", ("perturbation", "ramp_end"), 0.333,
         "perturbation.ramp_end"),
        ("continuous-counterexample", ("time", "t_end"), INF, "time.t_end"),
        ("continuous-counterexample", ("perturbation", "ramp_end"), INF,
         "perturbation.ramp_end"),
        ("continuous-counterexample", ("time", "h"), NAN, "time.h"),
        ("quadlin-dsl", ("omega", "probs"), [NAN, 1.0], "omega.probs[0]"),
        ("quadlin-dsl", ("objective", "constants", "a"), [INF, 2], "objective.constants.a[0]"),
        ("quadlin-dsl", ("seed",), -1, "seed"),
        ("quadlin-dsl", ("path",), {"values": [[1.0, 1.0]] * 20 + [[1.0]]}, "path.values"),
        ("quadlin-dsl", ("perturbation",), {"values": [[0.0, 0.0]] * 20 + [[0.0]]},
         "perturbation.values"),
        ("household", ("path", "solve", "head"), [[1.0, 1.0], [1.0]], "path.solve.head"),
        ("household", ("path", "solve", "tail"), [[0.2], [0.1, 0.1]], "path.solve.tail"),
        # rectangular, but not (rows, state): the SolveSpec refuses it
        ("household", ("path", "solve", "head"), [[1.0, 1.0, 1.0]] * 2, "path.solve"),
        ("household", ("path", "solve", "tail"), [0.2, 0.1], "path.solve"),
        # past the grid budget: refused before any array is built
        ("discrete-counterexample", ("time", "t_max"), 10**11, "time.t_max"),
        ("continuous-counterexample", ("time", "t_end"), 1e11, "time.t_end"),
    ])
    def test_every_command_exits_2_at_the_key(self, tmp_path, capsys, stem, keys, value,
                                              key_path):
        f = tmp_path / "s.json"
        f.write_text(json.dumps(_mutated(stem, keys, value)))
        with pytest.raises(SchemaError) as err:
            load_scenario(f)
        assert err.value.key_path == key_path
        for command in COMMANDS:
            assert main([command, "--scenario", str(f), "--quiet"]) == 2, command
            assert capsys.readouterr().err.startswith(f"input error: {key_path}: "), command

    def test_household_log_needs_a_discrete_domain(self, tmp_path, capsys):
        # the discrete objective would be evaluated on jets
        data = _mutated("continuous-counterexample", ("objective",),
                        {"builtin": "household-log", "params": {"discount": 0.9}})
        f = tmp_path / "s.json"
        f.write_text(json.dumps(data))
        with pytest.raises(SchemaError) as err:
            load_scenario(f)
        assert err.value.key_path == "objective.builtin"
        for command in COMMANDS:
            assert main([command, "--scenario", str(f), "--quiet"]) == 2, command
            assert capsys.readouterr().err == ("input error: objective.builtin: household-log "
                                               "needs a discrete time domain\n"), command

    def test_two_point_continuous_grid(self, tmp_path, capsys):
        # the ramp's head check needs three grid points for a first derivative
        data = _mutated("continuous-counterexample", ("time",),
                        {"kind": "continuous", "t_end": 0.5, "h": 0.5})
        data["perturbation"]["ramp_end"] = 0.5
        f = tmp_path / "s.json"
        f.write_text(json.dumps(data))
        with pytest.raises(SchemaError) as err:
            load_scenario(f)
        assert err.value.key_path == "perturbation.ramp_end"
        for command in ("euler", "tvc", "assume"):
            assert main([command, "--scenario", str(f), "--quiet"]) == 2, command
            assert capsys.readouterr().err.startswith(
                "input error: perturbation.ramp_end: a time derivative needs at least 3 grid "
                "points"), command

    def test_dense_jacobians_past_the_budget(self, tmp_path, capsys):
        # 2 states x 99999 unknowns would take 149 GiB of Jacobians
        data = _mutated("household", ("time", "t_max"), 100002)
        data["path"]["solve"]["horizon"] = 100000
        f = tmp_path / "s.json"
        f.write_text(json.dumps(data))
        with pytest.raises(SchemaError) as err:
            load_scenario(f)
        assert err.value.key_path == "path.solve"
        assert main(["solve", "--scenario", str(f), "--quiet"]) == 2
        assert capsys.readouterr().err.startswith("input error: path.solve: the dense Newton "
                                                  "Jacobians of 2 states x 99999 unknowns")

    def test_dsl_objective_built_once(self, monkeypatch):
        calls = []
        build = tvckit.scenario.dsl_discrete_objective
        monkeypatch.setattr(tvckit.scenario, "dsl_discrete_objective",
                            lambda *args: calls.append(args) or build(*args))
        scenario = load_scenario(SCENARIOS / "quadlin-dsl.json")
        assert scenario.objective() is scenario.objective()
        scenario.path()
        scenario.perturbation()
        assert len(calls) == 1

    def test_solve_spec_is_built_once(self):
        scenario = load_scenario(SCENARIOS / "household.json")
        assert scenario.solve_spec() is scenario.solve_spec()
        assert scenario.solve_spec().tail.shape == (2, 2, 1)
        assert load_scenario(SCENARIOS / "quadlin-dsl.json").solve_spec() is None


class TestCliExitCodes:
    def test_tvc_counterexample_exit_1(self, capsys):
        code = main(["tvc", "--scenario",
                     str(SCENARIOS / "discrete-counterexample.json"), "--quiet"])
        assert code == 1

    def test_euler_closed_form_exit_0(self):
        code = main(["euler", "--scenario",
                     str(SCENARIOS / "discrete-counterexample.json"), "--quiet"])
        assert code == 0

    def test_missing_scenario_exit_2(self, capsys):
        code = main(["euler", "--scenario", "/nonexistent.json", "--quiet"])
        assert code == 2

    def test_bad_schema_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(minimal_scenario(omega={"probs": [0.9]})))
        assert main(["euler", "--scenario", str(bad), "--quiet"]) == 2

    @pytest.mark.parametrize("expr, error", [
        (" + ".join(["y0"] * 1200), "expression too deep: slot-partials over 750 levels"),
        ("(" * 200 + "y0" + ")" * 200, "nested deeper than 125 levels (at position 125)"),
    ], ids=["sum-1200", "parentheses-200"])
    def test_deeply_nested_dsl_exit_2(self, tmp_path, capsys, expr, error):
        """Nesting past the DSL's limits is refused at parse, before a pass
        over the tree could exhaust the stack."""
        f = tmp_path / "s.json"
        f.write_text(json.dumps(minimal_scenario(
            objective={"expr": expr, "constants": {}}, path={"constant": 1.0})))
        assert main(["euler", "--scenario", str(f), "--quiet"]) == 2
        assert capsys.readouterr().err == f"input error: {error}\n"

    @pytest.mark.parametrize("expr", [" + ".join(["y0"] * 198 + ["y1", "y2"]),
                                      "(" * 100 + "y0" + ")" * 100 + " + y1 + y2"],
                             ids=["sum-200", "parentheses-100"])
    def test_nested_dsl_within_the_limits_loads(self, tmp_path, capsys, expr):
        f = tmp_path / "s.json"
        f.write_text(json.dumps(minimal_scenario(
            objective={"expr": expr, "constants": {}}, path={"constant": 1.0})))
        assert main(["euler", "--scenario", str(f), "--quiet"]) == 1  # a verdict
        assert capsys.readouterr().err == ""

    def test_solve_household_exit_0(self):
        assert main(["solve", "--scenario", str(SCENARIOS / "household.json"),
                     "--quiet"]) == 0

    def test_correspond_exit_0(self):
        assert main(["correspond", "--scenario",
                     str(SCENARIOS / "discrete-counterexample.json"), "--quiet"]) == 0

    def test_correspond_continuous_objective_exit_2(self, capsys):
        # the correspondence induces a continuous objective from a discrete one
        assert main(["correspond", "--scenario",
                     str(SCENARIOS / "continuous-counterexample.json"), "--quiet"]) == 2
        assert "needs a discrete objective" in capsys.readouterr().err

    def test_euler_uses_the_solve_boundary(self, tmp_path):
        # the household solve pins a head of 2 rows in fixed mode
        out = tmp_path / "r.json"
        args = ["euler", "--scenario", str(SCENARIOS / "household.json"), "--out", str(out)]
        assert main(args) == 0
        report = json.loads(out.read_text())["euler"]
        assert report["verdict"] == "STATIONARY"
        assert report["mode"] == "fixed_initial"
        assert report["indices"][0] == 2
        # an explicit --boundary still wins
        assert main(args + ["--boundary", "paper-literal"]) == 1
        assert json.loads(out.read_text())["euler"]["mode"] == "paper_literal"

    def test_assume_assert_uniform(self, tmp_path):
        # eventually-constant perturbation: asserting uniformity fails
        data = minimal_scenario(
            time={"kind": "discrete", "t_max": 60},
            perturbation={"kind": "eventually-constant", "onset": 1, "value": 1.0},
            diagnostics={"tprime_grid": [12, 15, 20, 25, 30, 35, 40, 45]})
        f = tmp_path / "s.json"
        f.write_text(json.dumps(data))
        assert main(["assume", "--scenario", str(f), "--quiet"]) == 0
        assert main(["assume", "--scenario", str(f), "--assert-uniform",
                     "--quiet"]) == 1

    @pytest.mark.parametrize("grid, value", [([2.5, 3, 4, 5], 2.5), ([2.2, 2.7, 4, 5], 2.2),
                                             ([2.0, 3, 4, 5], None)])
    def test_assume_discrete_fractional_tprime(self, tmp_path, capsys, grid, value):
        """A fractional discrete T' is refused by name (it was truncated to an
        integer); an integral float is read as that integer."""
        data = json.loads((SCENARIOS / "discrete-counterexample.json").read_text())
        data["diagnostics"] = {"tprime_grid": grid}
        f, out = tmp_path / "s.json", tmp_path / "r.json"
        f.write_text(json.dumps(data))
        code = main(["assume", "--scenario", str(f), "--out", str(out)])
        if value is None:
            assert code == 0
            assert json.loads(out.read_text())["assume"]["tprime_grid"] == [2, 3, 4, 5]
        else:
            assert code == 2
            assert capsys.readouterr().err == f"input error: T'={value} is not an integer\n"

    @pytest.mark.parametrize("start, slope, code, verdict", [
        (1.0, -0.3, 0, "INCONCLUSIVE"),  # the base path reaches the ln wall at t = 10/3
        (-1.0, 1.0, 3, None),            # the base path starts behind the wall
    ])
    def test_assume_continuous_wall(self, tmp_path, capsys, start, slope, code, verdict):
        """A -inf base value at a time where the perturbed value is finite is a
        domain event, as on discrete windows, not an input error."""
        t = np.arange(1001) * 0.01
        data = minimal_scenario(
            time={"kind": "continuous", "t_end": 10.0, "h": 0.01},
            objective={"expr": "ln(x0) + x1 + x2"},
            path={"values": [[v, v] for v in (start + slope * t).tolist()]},
            perturbation={"kind": "ramp", "target": 5.0})
        f, out = tmp_path / "s.json", tmp_path / "r.json"
        f.write_text(json.dumps(data))
        assert main(["assume", "--scenario", str(f), "--out", str(out)]) == code
        if verdict is None:
            assert capsys.readouterr().err == ("numerical failure: every diagnostic cell hit "
                                               "the -inf domain boundary\n")
        else:
            assert json.loads(out.read_text())["assume"]["verdict"] == verdict

    def test_tmax_override(self, tmp_path, capsys):
        out = tmp_path / "r.json"
        code = main(["tvc", "--scenario",
                     str(SCENARIOS / "discrete-counterexample.json"),
                     "--tmax", "30", "--out", str(out)])
        assert code == 1
        report = json.loads(out.read_text())
        assert report["scenario"]["time"]["t_max"] == 30

    def test_cells_past_the_budget_exit_2(self, tmp_path, capsys):
        """10**6 steps take at most 10 states: an 11th is refused before any
        path is built."""
        data = minimal_scenario(
            time={"kind": "discrete", "t_max": 10**6},
            omega={"probs": [0.5] + [0.05] * 10},
            objective={"builtin": "quadlin-discrete",
                       "params": {"alpha": [1.0] * 11, "beta": [0.5] * 11,
                                  "gamma": [0.25] * 11}})
        with pytest.raises(SchemaError) as err:
            parse_scenario(data)
        assert err.value.key_path == "omega.probs"
        f = tmp_path / "s.json"
        f.write_text(json.dumps(data))
        assert main(["euler", "--scenario", str(f), "--quiet"]) == 2
        assert capsys.readouterr().err.startswith("input error: omega.probs: 1000000 grid "
                                                  "steps times 11 states exceed the budget")

    def test_a_million_steps_with_two_states_load(self):
        scenario = parse_scenario(minimal_scenario(time={"kind": "discrete", "t_max": 10**6}))
        assert scenario.path().values.shape == (10**6 + 1, 2, 1)

    def test_tmax_past_the_grid_budget_exit_2(self, capsys):
        code = main(["tvc", "--scenario", str(SCENARIOS / "discrete-counterexample.json"),
                     "--tmax", "100000000000", "--quiet"])
        assert code == 2
        assert capsys.readouterr().err.startswith("input error: time.t_max: 100000000000 grid "
                                                  "steps exceed the budget")

    @pytest.mark.parametrize("argv, node, key_path", [
        (["tvc", "--tmax", "5"], ("time", 3), "time"),
        (["correspond", "--seed", "1"], (None, [1]), "$"),
        (["assume", "--eps-grid", "0.5,0.1"], ("diagnostics", 3), "diagnostics")])
    def test_override_into_wrongly_typed_node_exit_2(self, tmp_path, capsys, argv, node,
                                                     key_path):
        # the override is written into the raw file before it is validated
        key, value = node
        data = json.loads((SCENARIOS / "discrete-counterexample.json").read_text())
        if key is None:
            data = value
        else:
            data[key] = value
        f = tmp_path / "s.json"
        f.write_text(json.dumps(data))
        assert main(argv + ["--scenario", str(f), "--quiet"]) == 2
        assert capsys.readouterr().err.startswith(f"input error: {key_path}: expected an object")

    def test_eps_grid_into_null_diagnostics(self, tmp_path):
        # null reads as an absent diagnostics section, as parse_scenario reads it
        f = tmp_path / "s.json"
        data = json.loads((SCENARIOS / "discrete-counterexample.json").read_text())
        f.write_text(json.dumps(dict(data, diagnostics=None)))
        out = tmp_path / "r.json"
        assert main(["assume", "--eps-grid", "0.5,0.1", "--scenario", str(f),
                     "--out", str(out)]) == 0
        assert json.loads(out.read_text())["assume"]["eps_grid"] == [0.5, 0.1]

    @pytest.mark.parametrize("seed", ["9" * 5000, '"\xff"'])
    def test_unreadable_json_value_exit_2(self, tmp_path, capsys, seed):
        # json raises a plain ValueError, not JSONDecodeError, for an integer
        # literal of more than 4300 digits and for bytes that are not UTF-8
        f = tmp_path / "s.json"
        text = json.dumps(minimal_scenario(seed=0)).replace('"seed": 0', '"seed": ' + seed)
        f.write_bytes(text.encode("latin-1"))
        assert main(["euler", "--scenario", str(f), "--quiet"]) == 2
        assert capsys.readouterr().err.startswith("input error: ")
        with pytest.raises(tk.InputError, match="invalid JSON"):
            load_scenario(f)


    @pytest.mark.parametrize("expr, level", [("y0 ^ 0.5 + y1 + y2", -1.0),
                                             ("exp(y0) + y1 + y2", 1000.0)])
    def test_dsl_numerical_failure_exit_3(self, tmp_path, capsys, expr, level):
        # a complex power or an overflowing exp is a numerical failure, not a verdict
        f = tmp_path / "s.json"
        f.write_text(json.dumps(minimal_scenario(
            objective={"expr": expr, "constants": {}}, path={"constant": level})))
        assert main(["euler", "--scenario", str(f), "--quiet"]) == 3
        assert "numerical failure" in capsys.readouterr().err

    @pytest.mark.parametrize("expr, order, path", [
        ("1e307 * x0 * x1 + 1e307 * x0 * x2", 2, {"constant": 100.0}),
        ("1e307 * x0 * x1", 1,
         {"values": [[v, v] for v in (50.0 * (2.0 + np.sin(0.01 * np.arange(1001)))).tolist()]}),
    ])
    def test_non_finite_bracket_exit_3(self, tmp_path, capsys, expr, order, path):
        # the residual and the bracket overflow: numerical failures, not verdicts
        data = _mutated("continuous-counterexample", ("objective",), {"expr": expr})
        data.update(order=order, path=path)
        f = tmp_path / "s.json"
        f.write_text(json.dumps(data))
        assert main(["euler", "--scenario", str(f), "--quiet"]) == 3
        assert capsys.readouterr().err.endswith("non-finite residual\n")
        assert main(["tvc", "--scenario", str(f), "--quiet"]) == 3
        assert capsys.readouterr().err.endswith(
            "numerical failure: derivative stencil produced a non-finite bracket\n")

    def test_non_finite_bracket_outside_windows_gets_a_verdict(self, tmp_path, capsys):
        # the bracket overflows only on a bump at t = 2.5, which no window
        # around t = 0 or a truncation 2..9 reaches: euler still fails, tvc
        # gets a verdict
        times = 0.01 * np.arange(1001)
        x = 1.0 + 99.0 * np.exp(-((times - 2.5) / 0.05) ** 2)
        data = _mutated("continuous-counterexample", ("objective",), {"expr": "1e307 * x0 * x1"})
        data.update(order=1, path={"values": [[v, v] for v in x.tolist()]})
        f = tmp_path / "s.json"
        f.write_text(json.dumps(data))
        assert main(["euler", "--scenario", str(f), "--quiet"]) == 3
        assert capsys.readouterr().err.endswith("non-finite residual\n")
        out = tmp_path / "r.json"
        assert main(["tvc", "--scenario", str(f), "--quiet", "--out", str(out)]) == 1
        report = json.loads(out.read_text())["tvc"]
        assert (report["verdict"], report["liminf_estimate"]) == ("VIOLATED", 1e307)

    @pytest.mark.parametrize("sign", ["", "-"], ids=("plus", "minus"))
    def test_non_finite_discrete_rows_exit_3(self, tmp_path, capsys, sign):
        # the discrete twin: the Euler rows and the tail overflow to +-inf,
        # numerical failures, not an input error or a verdict
        data = minimal_scenario(
            objective={"expr": f"{sign}1e307 * y0 * y1 {sign or '+'} 1e307 * y0 * y2"},
            time={"kind": "discrete", "t_max": 10}, path={"constant": 100.0},
            perturbation={"kind": "eventually-constant", "onset": 2, "value": 1.0})
        f = tmp_path / "s.json"
        f.write_text(json.dumps(data))
        assert main(["euler", "--scenario", str(f), "--quiet"]) == 3
        assert capsys.readouterr().err == (
            "numerical failure: objective partials produced a non-finite residual\n")
        assert main(["tvc", "--scenario", str(f), "--quiet"]) == 3
        assert capsys.readouterr().err == (
            "numerical failure: objective partials produced a non-finite tail\n")

    @pytest.mark.parametrize("stem, update, argv, code, line", [
        ("continuous-counterexample", _OVERFLOWING_JETS, ["euler"], 3,
         "numerical failure: derivative stencil produced a non-finite residual\n"),
        ("continuous-counterexample", _OVERFLOWING_JETS, ["tvc"], 3,
         "numerical failure: derivative stencil produced a non-finite bracket\n"),
        ("continuous-counterexample", _OVERFLOWING_JETS, ["assume"], 3,
         "numerical failure: expression evaluated to NaN\n"),
        ("discrete-counterexample", {}, ["assume", "--eps-grid", "1e300,0.5,0.1,0.01"], 3,
         "numerical failure: objective quadlin-discrete returned inf at t=1, state 0\n"),
        ("discrete-counterexample", {"path": {"constant": 1e308}}, ["euler"], 3,
         "numerical failure: objective partials produced a non-finite residual\n"),
        ("continuous-counterexample", {"path": {"constant": 1e308},
                                       "time": {"kind": "continuous", "t_end": 1.0, "h": 0.1}},
         ["euler"], 2, "input error: path values must all be finite\n")],
        ids=("euler", "tvc", "assume", "quadlin-eps-grid", "quadlin-discrete-partials",
             "quadlin-continuous-jets"))
    def test_overflow_stderr_is_the_error_line(self, tmp_path, capsys, stem, update, argv,
                                               code, line):
        # a formula, a stencil or the load-time gradient check's stencil
        # overflows: no RuntimeWarning goes to stderr before the error line
        data = json.loads((SCENARIOS / f"{stem}.json").read_text())
        data.update(update)
        f = tmp_path / "s.json"
        f.write_text(json.dumps(data))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main([argv[0], "--scenario", str(f), "--quiet"] + argv[1:]) == code
        assert [str(w.message) for w in caught] == []
        assert capsys.readouterr().err == line

    @pytest.mark.parametrize("argv", [
        ["euler", "--scenario", "discrete-counterexample", "--tolerance", "nan"],
        ["euler", "--scenario", "discrete-counterexample", "--tolerance", "inf"],
        ["tvc", "--scenario", "discrete-counterexample", "--tolerance", "-1"],
        ["solve", "--scenario", "household", "--tolerance", "nan"],
        ["correspond", "--scenario", "discrete-counterexample", "--seed", "-1"],
        ["demo", "correspondence", "--seed", "-1"],
        ["demo", "household", "--seed", "-1"]])
    def test_bad_flag_value_exit_2(self, capsys, argv):
        if argv[1] == "--scenario":
            argv = argv[:2] + [str(SCENARIOS / f"{argv[2]}.json")] + argv[3:]
        assert main(argv + ["--quiet"]) == 2
        assert capsys.readouterr().err.startswith("input error: ")

    def test_correspond_inconclusive_exit_3(self, tmp_path):
        # -inf on every sample: nothing was checked, which is not a failed verdict
        f = tmp_path / "s.json"
        f.write_text(json.dumps(_mutated("quadlin-dsl", ("objective", "expr"), "ln(y0 - 10)")))
        out = tmp_path / "r.json"
        assert main(["correspond", "--scenario", str(f), "--out", str(out)]) == 3
        report = json.loads(out.read_text())["correspond"]
        assert (report["verdict"], report["checked"]) == ("INCONCLUSIVE", 0)

    @pytest.mark.parametrize("boundary", ["fixed:3", "fixed:500", "fixed:0"])
    def test_continuous_euler_boundary_exit_2(self, capsys, boundary):
        # a continuous residual has no initial rows to pin
        assert main(["euler", "--scenario", str(SCENARIOS / "continuous-counterexample.json"),
                     "--boundary", boundary, "--quiet"]) == 2
        assert "needs a discrete objective" in capsys.readouterr().err

    def test_continuous_euler_without_interior_exit_2(self, tmp_path, capsys):
        f = tmp_path / "s.json"
        f.write_text(json.dumps(minimal_scenario(
            time={"kind": "continuous", "t_end": 0.03, "h": 0.01}, order=2,
            objective={"expr": "(x0 - 1)^2 + x1^2 + 5*x2^2"},
            path={"values": [[0.0, 0.0], [3.0, 3.0], [0.0, 0.0], [7.0, 7.0]]})))
        assert main(["euler", "--scenario", str(f), "--quiet"]) == 2
        assert "no interior index" in capsys.readouterr().err

    def test_zero_tolerance_is_used(self, tmp_path):
        out = tmp_path / "r.json"
        main(["euler", "--scenario", str(SCENARIOS / "discrete-counterexample.json"),
              "--tolerance", "0", "--out", str(out)])
        assert json.loads(out.read_text())["euler"]["tolerance"] == 0.0


# Every command each shipped scenario supports, with the exit code the README
# gives; correspond on household at the seeds of its former false FAIL
SHIPPED_CONTRACT = [
    ("discrete-counterexample", "euler", None, 0),
    ("discrete-counterexample", "tvc", None, 1),
    ("discrete-counterexample", "assume", None, 0),
    ("discrete-counterexample", "correspond", None, 0),
    ("continuous-counterexample", "euler", None, 0),
    ("continuous-counterexample", "tvc", None, 1),
    ("continuous-counterexample", "assume", None, 0),
    ("continuous-counterexample", "correspond", None, 2),
    ("household", "euler", None, 0),
    ("household", "solve", None, 0),
    ("household", "correspond", 0, 0),
    ("household", "correspond", 1, 0),
    ("household", "correspond", 7, 0),
    ("household", "correspond", 42, 0),
    ("quadlin-dsl", "euler", None, 1),
    ("quadlin-dsl", "tvc", None, 0),
    ("quadlin-dsl", "assume", None, 0),
    ("quadlin-dsl", "correspond", None, 0),
]


@pytest.mark.parametrize("stem, command, seed, code", SHIPPED_CONTRACT)
def test_shipped_scenario_exit_codes(capsys, stem, command, seed, code):
    argv = [command, "--scenario", str(SCENARIOS / f"{stem}.json"), "--quiet"]
    assert main(argv + ([] if seed is None else ["--seed", str(seed)])) == code


@pytest.mark.parametrize("seed, checked", [(0, 81), (1, 81), (7, 72), (42, 73)])
def test_household_correspond_skips_only_walled_windows(tmp_path, seed, checked):
    # the skipped samples are those with a -inf window; every partial resolves
    out = tmp_path / "r.json"
    main(["correspond", "--scenario", str(SCENARIOS / "household.json"),
          "--seed", str(seed), "--out", str(out)])
    report = json.loads(out.read_text())["correspond"]
    assert (report["verdict"], report["checked"]) == ("PASS", checked)
    assert report["max_partial_gap"] <= 1e-9 and report["tolerance"] == 1e-8


# every (scenario, command) pair above, the demo presets, and long horizons
REPORT_RUNS = ([[command, "--scenario", str(SCENARIOS / f"{stem}.json")]
                for stem, command in dict.fromkeys((s, c) for s, c, _, _ in SHIPPED_CONTRACT)]
               + [["demo", preset, "--seed", "7"] for preset in DEMOS]
               + [[command, "--scenario", str(SCENARIOS / "discrete-counterexample.json"),
                   "--tmax", "5000"] for command in ("euler", "tvc")])


def _run_id(argv):
    return " ".join(Path(a).stem if a.endswith(".json") else a for a in argv)


# exit code and SHA-256 of stdout of each report run, keyed by _run_id
REPORT_DIGESTS = json.loads((Path(__file__).parent / "report_digests.json").read_text())


def test_report_digests_cover_the_runs():
    assert sorted(REPORT_DIGESTS) == sorted(map(_run_id, REPORT_RUNS))


@pytest.mark.parametrize("argv", REPORT_RUNS, ids=_run_id)
def test_report_run_digest(capsys, argv):
    """Every report run prints the bytes it printed when the digests were
    recorded: a speedup must leave the reports as they are.  A change that
    means to alter a report records the new entry in report_digests.json."""
    code = main(argv)
    got = {"exit": code, "stdout_sha256": hashlib.sha256(
        capsys.readouterr().out.encode()).hexdigest()}
    assert got == REPORT_DIGESTS[_run_id(argv)]


class TestReportText:
    """The one-pass writer against the json module's encoding of the same report."""

    @pytest.mark.parametrize("argv", REPORT_RUNS, ids=_run_id)
    def test_stdout_and_out_are_the_reference_text(self, monkeypatch, tmp_path, capsys,
                                                   argv):
        handler, reports = tvckit.cli._HANDLERS[argv[0]], []

        def capture(args):
            report, code = handler(args)
            reports.append(report)
            return report, code

        monkeypatch.setitem(tvckit.cli._HANDLERS, argv[0], capture)
        code = main(argv)
        printed = capsys.readouterr().out
        out = tmp_path / "r.json"
        assert main(argv + ["--out", str(out), "--quiet"]) == code
        assert capsys.readouterr().out == ""
        if code == 2:  # continuous correspond: no report
            assert (printed, reports) == ("", []) and not out.exists()
            return
        assert printed == reference.reference_report_text(reports[0])
        assert out.read_bytes() == reference.reference_report_text(reports[1]).encode("ascii")

    def test_quiet_renders_nothing(self, monkeypatch, capsys):
        def fail(value, level):
            raise AssertionError("rendered under --quiet")

        monkeypatch.setattr(tvckit.cli, "_render", fail)
        argv = ["tvc", "--scenario", str(SCENARIOS / "discrete-counterexample.json")]
        assert main(argv + ["--quiet"]) == 1
        assert capsys.readouterr().out == ""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.recursive(
        st.one_of(
            st.none(), st.booleans(), st.text(), st.integers(-10**40, 10**40),
            st.floats(), st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e308]),
            st.floats().map(np.float64), st.floats(width=32).map(np.float32),
            st.integers(-2**63, 2**63 - 1).map(np.int64), st.booleans().map(np.bool_),
            st.lists(st.floats()), st.lists(st.floats().map(np.float64)),
            st.lists(st.integers(-10**40, 10**40)),
            st.sampled_from([(), (0,), (3, 0), (5,), (5, 1), (4, 2, 3)]).flatmap(
                lambda shape: st.one_of(arrays(np.float64, shape),
                                        arrays(np.float32, shape),
                                        arrays(np.int64, shape),
                                        arrays(np.bool_, shape)))),
        lambda children: st.one_of(
            st.lists(children, max_size=4), st.lists(children, max_size=4).map(tuple),
            st.dictionaries(st.one_of(st.text(), st.integers(-3, 3)), children,
                            max_size=4)),
        max_leaves=12))
    def test_render_is_the_reference_text(self, value):
        try:
            want = reference.reference_report_text(value)
        except TypeError:
            want = TypeError
        try:
            got = tvckit.cli._render(value, 0) + "\n"
        except TypeError:
            got = TypeError
        assert got == want


class TestReports:
    def test_report_written_and_stable(self, tmp_path):
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        args = ["euler", "--scenario",
                str(SCENARIOS / "discrete-counterexample.json")]
        main(args + ["--out", str(out1)])
        main(args + ["--out", str(out2)])
        assert out1.read_bytes() == out2.read_bytes()
        report = json.loads(out1.read_text())
        assert report["euler"]["verdict"] == "STATIONARY"
        assert "tolerance" in report["euler"]

    def test_parser_keeps_no_flag_between_calls(self, tmp_path, capsys):
        """The parser is built once per process; every call in a sequence with
        different flags prints, writes and exits as it does on a fresh parser."""
        out = tmp_path / "report.json"
        first = ["assume", "--scenario", str(SCENARIOS / "discrete-counterexample.json")]
        euler = ["euler", "--scenario", str(SCENARIOS / "discrete-counterexample.json")]
        sequence = [first, euler,
                    first + ["--assert-uniform"],
                    euler + ["--tolerance", "1e-30", "--quiet"],
                    ["solve", "--scenario", str(SCENARIOS / "household.json"), "--out", str(out)],
                    ["demo", "assumption", "--seed", "3"],
                    euler + ["--tolerance", "1e-30"],
                    first, euler]

        def run(argv):
            code = main(argv)
            written = out.read_bytes() if out.exists() else None
            out.unlink(missing_ok=True)
            captured = capsys.readouterr()
            return code, captured.out, captured.err, written

        alone = []
        for argv in sequence:
            tvckit.cli.build_parser.cache_clear()
            alone.append(run(argv))
        tvckit.cli.build_parser.cache_clear()
        assert [run(argv) for argv in sequence] == alone
        assert alone[0] == alone[-2] and alone[1] == alone[-1]
        assert alone[2][0] == 1 and alone[3][:2] == (1, "") and alone[4][3] is not None

    def test_csv_matrix(self, tmp_path):
        data = minimal_scenario(
            time={"kind": "discrete", "t_max": 60},
            perturbation={"kind": "compact-support", "onset": 0, "cutoff": 10,
                          "value": 1.0},
            diagnostics={"tprime_grid": [12, 15, 20, 25]})
        f = tmp_path / "s.json"
        f.write_text(json.dumps(data))
        out = tmp_path / "m.csv"
        assert main(["assume", "--scenario", str(f), "--format", "csv",
                     "--out", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0].startswith("tprime,0.1,")
        assert len(lines) == 5

    def test_demo_reports_deterministic(self, tmp_path):
        for preset in ("discrete-counterexample", "assumption", "correspondence",
                       "household"):
            a, b = tmp_path / f"{preset}-a.json", tmp_path / f"{preset}-b.json"
            main(["demo", preset, "--seed", "7", "--out", str(a)])
            main(["demo", preset, "--seed", "7", "--out", str(b)])
            assert a.read_bytes() == b.read_bytes(), preset

    def test_demo_household_exit_0(self, tmp_path):
        assert main(["demo", "household", "--quiet"]) == 0

    def test_demo_counterexamples_exit_1(self):
        assert main(["demo", "discrete-counterexample", "--quiet"]) == 1
        assert main(["demo", "continuous-counterexample", "--quiet"]) == 1

    @pytest.mark.parametrize("preset, code", [
        ("discrete-counterexample", 1), ("continuous-counterexample", 1),
        ("assumption", 0), ("correspondence", 0), ("household", 0)])
    def test_demo_sections_are_command_sections(self, tmp_path, preset, code):
        out = tmp_path / "demo.json"
        assert main(["demo", preset, "--seed", "7", "--out", str(out)]) == code
        sections = json.loads(out.read_text())["demo"]
        assert set(sections) == {f"{c}:{s}" for c, s in DEMOS[preset]}
        for key, section in sections.items():
            command, scenario = key.split(":")
            cmd_out = tmp_path / f"{key}.json"
            seed = ["--seed", "7"] if command == "correspond" else []
            main([command, "--scenario", str(SCENARIOS / f"{scenario}.json"),
                  *seed, "--out", str(cmd_out)])
            assert section == json.loads(cmd_out.read_text())[command], key

    def test_demo_without_scenarios_exit_2(self, monkeypatch, tmp_path, capsys):
        monkeypatch.setattr(tvckit.cli, "SCENARIOS", tmp_path / "missing")
        assert main(["demo", "household", "--quiet"]) == 2
        assert "demo scenarios not found" in capsys.readouterr().err


class TestFlags:
    @pytest.mark.parametrize("argv", [
        ["euler", "--scenario", "s.json", "--format", "csv"],
        ["tvc", "--scenario", "s.json", "--boundary", "fixed:2"],
        ["assume", "--scenario", "s.json", "--tolerance", "0"],
        ["correspond", "--scenario", "s.json", "--tolerance", "1"],
        ["demo", "household", "--tmax", "5"],
        ["demo", "household", "--eps-grid", "0.1,0.01"],
        ["euler", "--scenario", "s.json", "--eps-grid", "0.5,0.1"],
        ["tvc", "--scenario", "s.json", "--eps-grid", "0.5,0.1"],
        ["solve", "--scenario", "s.json", "--eps-grid", "0.5,0.1"],
        ["correspond", "--scenario", "s.json", "--eps-grid", "0.5,0.1"],
        ["euler", "--scenario", "s.json", "--seed", "7"],
        ["tvc", "--scenario", "s.json", "--seed", "7"],
        ["assume", "--scenario", "s.json", "--seed", "7"],
        ["solve", "--scenario", "s.json", "--seed", "7"]])
    def test_unread_flag_exit_2(self, argv, capsys):
        # a flag the command would ignore is refused by the parser
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_dim_mismatch_exit_2(self, tmp_path, capsys):
        # a dim-2 path under a scalar objective is bad input, not a verdict
        values = np.ones((21, 2, 2))
        values[..., 1] = 5.0
        f = tmp_path / "s.json"
        f.write_text(json.dumps(minimal_scenario(path={"values": values.tolist()})))
        assert main(["euler", "--scenario", str(f), "--quiet"]) == 2
        assert "dimension" in capsys.readouterr().err
