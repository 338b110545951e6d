import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
import tvckit as tk
from tvckit.errors import EvalError, ExprSyntaxError
from tvckit.expr import (MAX_DEPTH, MAX_NESTING, Bin, Call, Const, Neg, Var, _diff,
                         compile_ast, eval_ast, parse_source, simplify, symbolic_partial,
                         to_source, tokenize)

NEG_INF = float("-inf")

SYMS = {"x", "y", "a"}


def ev(src, **env):
    return eval_ast(parse_source(src, set(env) | SYMS), env)


class TestParsing:
    def test_precedence(self):
        assert ev("1 + 2 * 3") == 7.0
        assert ev("2 * 3 ^ 2") == 18.0
        assert ev("-2 ^ 2") == -4.0  # unary minus binds looser than ^
        assert ev("(1 + 2) * 3") == 9.0

    def test_right_assoc_power(self):
        assert ev("2 ^ 3 ^ 2") == 512.0

    def test_functions(self):
        assert ev("ln(exp(2))") == pytest.approx(2.0)
        assert ev("sqrt(abs(0 - 9))") == 3.0

    def test_ln_nonpositive_is_neg_inf(self):
        assert ev("ln(0)") == NEG_INF
        assert ev("ln(0 - 5)") == NEG_INF
        assert ev("exp(ln(0))") == 0.0

    def test_eval_errors(self):
        with pytest.raises(EvalError):
            ev("1 / 0")
        with pytest.raises(EvalError):
            ev("sqrt(0 - 1)")
        with pytest.raises(EvalError):  # a complex result
            ev("x ^ 0.5", x=-4.0)
        with pytest.raises(EvalError):
            ev("exp(x)", x=1000.0)
        with pytest.raises(EvalError):
            ev("x ^ 3", x=1e200)

    def test_unknown_identifier_position(self):
        with pytest.raises(ExprSyntaxError) as err:
            parse_source("x + delta", {"x"})
        assert err.value.pos == 4
        assert "delta" in str(err.value)

    def test_unknown_function(self):
        with pytest.raises(ExprSyntaxError):
            parse_source("sin(x)", {"x"})

    def test_illegal_character(self):
        with pytest.raises(ExprSyntaxError) as err:
            tokenize("x + $y")
        assert err.value.pos == 4

    def test_nonconstant_exponent_rejected(self):
        with pytest.raises(ExprSyntaxError):
            parse_source("x ^ y", {"x", "y"})

    def test_constant_folded_exponent_ok(self):
        assert ev("2 ^ (1 + 1)") == 4.0

    def test_trailing_garbage(self):
        with pytest.raises(ExprSyntaxError):
            parse_source("x + 1 )", {"x"})

    def test_scientific_notation(self):
        assert ev("1e-3 + 2.5E2") == pytest.approx(250.001)

    def test_nesting_limit(self):
        """Parentheses, calls, minus signs and exponents count alike."""
        for nested in ("(" * (MAX_NESTING - 1) + "x" + ")" * (MAX_NESTING - 1),
                       "-" * (MAX_NESTING - 1) + "x",
                       "ln(" * (MAX_NESTING - 1) + "x" + ")" * (MAX_NESTING - 1)):
            parse_source(nested, {"x"})
            with pytest.raises(ExprSyntaxError, match=f"nested deeper than {MAX_NESTING}"):
                parse_source(f"({nested})", {"x"})

    def test_depth_limit(self):
        """A sum, a difference or a sign adds one level to a slot-partial and
        any other node up to three: a sum of MAX_DEPTH terms and a quotient
        chain a third as deep load, one term more is refused before any
        recursion, and so is an exponent that deep."""
        too_deep = f"expression too deep: slot-partials over {MAX_DEPTH} levels"
        for op, terms in (("+", MAX_DEPTH), ("-", MAX_DEPTH), ("/", (MAX_DEPTH - 1) // 3 + 1)):
            parse_source(f" {op} ".join(["x"] * terms), {"x"})
            with pytest.raises(ExprSyntaxError, match=too_deep):
                parse_source(f" {op} ".join(["x"] * (terms + 1)), {"x"})
        with pytest.raises(ExprSyntaxError, match=too_deep) as err:
            parse_source("x ^ (" + " + ".join(["1"] * 1200) + ")", {"x"})
        assert err.value.pos == 2

    def test_partials_at_the_depth_limit(self):
        """The deepest slot-partials the limit admits are built and evaluated
        without exhausting the stack."""
        for src in (" + ".join(["y0 * y1"] * (MAX_DEPTH - 3)),
                    " / ".join(["y0"] * ((MAX_DEPTH - 1) // 3 + 1)),
                    "(" * 60 + "y0" + " * y1) ^ 2" * 60 + " / y1" * ((MAX_DEPTH - 1) // 3 - 120)):
            obj = tk.dsl_discrete_objective(src, 1)
            out = obj.partials_batch(np.full((2, 2, 1), 1.0), np.zeros(2), np.zeros(2, dtype=int))
            assert np.isfinite(out).all(), src

    def test_deep_trees_compare_hash_and_print(self):
        """==, hash() and repr() walk a tree the depth limit admits without
        exhausting the stack; repr keeps the dataclass form."""
        syms = {"y0", "y1"}
        src = " + ".join(["y0 * y1"] * (MAX_DEPTH - 10))
        tree, twin = parse_source(src, syms), parse_source(src, syms)
        assert tree == twin and hash(tree) == hash(twin) and not tree != twin
        assert tree != parse_source(src + " * y0", syms)
        assert tree != parse_source(src[:-2] + "y0", syms)
        assert symbolic_partial(tree, "y0") == symbolic_partial(twin, "y0")
        text = repr(tree)
        assert text.startswith("Bin(op='+', left=Bin(op='+', left=")
        term = "Bin(op='*', left=Var(name='y0'), right=Var(name='y1'))"
        assert text.count(term) == MAX_DEPTH - 10
        assert (repr(Bin("-", Neg(Var("y0")), Call("ln", Const(1.5))))
                == "Bin(op='-', left=Neg(child=Var(name='y0')), "
                   "right=Call(fn='ln', arg=Const(value=1.5)))")
        assert Const(1.0) != 1.0 and {Var("y0"): 1}[Var("y0")] == 1


class TestDifferentiation:
    def test_polynomial(self):
        d = symbolic_partial(parse_source("x ^ 3 + 2 * x", {"x"}), "x")
        f = lambda v: eval_ast(d, {"x": v})
        assert f(2.0) == pytest.approx(14.0)

    def test_chain_rule_ln(self):
        d = symbolic_partial(parse_source("ln(x ^ 2)", {"x"}), "x")
        assert eval_ast(d, {"x": 3.0}) == pytest.approx(2.0 / 3.0)

    def test_quotient_rule(self):
        d = symbolic_partial(parse_source("x / (x + 1)", {"x"}), "x")
        assert eval_ast(d, {"x": 1.0}) == pytest.approx(0.25)

    def test_other_variable_is_zero(self):
        d = symbolic_partial(parse_source("x ^ 2", {"x", "y"}), "y")
        assert d == Const(0.0)

    @pytest.mark.parametrize("src, order", [("(y0 - a)^2 + b * y1 + g * y2", 2),
                                            ("(y0 - a)^2 + b*y1 + g*y2 + d*y3", 3)])
    def test_shipped_partials(self, src, order):
        """The slot-partials of scenarios/quadlin-dsl.json's objective and of
        the order-3 objective of the discrete-horizon benchmark workload."""
        slots = [f"y{k}" for k in range(order + 1)]
        ast = parse_source(src, set(slots) | {"a", "b", "g", "d"})
        want = [Bin("*", Const(2.0), Bin("-", Var("y0"), Var("a"))), Var("b"), Var("g"), Var("d")]
        assert [symbolic_partial(ast, s) for s in slots] == want[:order + 1]

    def test_fd_agreement_random(self):
        rng = np.random.default_rng(3)
        src = "x ^ 2 * ln(y) + exp(0 - x) / y + sqrt(x + y)"
        ast = parse_source(src, {"x", "y"})
        dx = symbolic_partial(ast, "x")
        for _ in range(20):
            x, y = rng.uniform(0.5, 3.0, size=2)
            h = 1e-6
            fd = (eval_ast(ast, {"x": x + h, "y": y})
                  - eval_ast(ast, {"x": x - h, "y": y})) / (2 * h)
            assert eval_ast(dx, {"x": x, "y": y}) == pytest.approx(fd, rel=1e-5)


class TestSimplify:
    def test_identities(self):
        assert simplify(Bin("+", Var("x"), Const(0.0))) == Var("x")
        assert simplify(Bin("*", Const(1.0), Var("x"))) == Var("x")
        assert simplify(Bin("*", Const(0.0), Var("x"))) == Const(0.0)
        assert simplify(Bin("^", Var("x"), Const(1.0))) == Var("x")

    def test_folding(self):
        assert simplify(parse_source("2 + 3 * 4", set())) == Const(14.0)

    def test_identity_before_fold(self):
        """Each node is reduced once, by an identity before a fold: a call
        whose argument an identity made constant is folded too."""
        assert simplify(parse_source("ln(x * 0 + 1)", {"x"})) == Const(0.0)
        assert simplify(parse_source("0 - (x * 0 + 2)", {"x"})) == Const(-2.0)
        assert simplify(parse_source("x * 0 + sqrt(x) * 1", {"x"})) == Call("sqrt", Var("x"))

    def test_exponent_fold_has_no_identities(self):
        with pytest.raises(ExprSyntaxError, match="exponent must fold to a constant"):
            parse_source("x ^ (y * 0)", {"x", "y"})
        assert parse_source("x ^ (2 * 0 + 1)", {"x"}) == Bin("^", Var("x"), Const(1.0))


# strategy for random well-formed ASTs over x, y (or the given variables)
def _leaves(names=("x", "y")):
    return st.one_of(st.floats(0.1, 10.0).map(lambda v: Const(round(v, 3))),
                     st.sampled_from([Var(name) for name in names]))


def _ast_strategy(exponents=st.floats(1.0, 3.0).map(lambda v: float(round(v))),
                  max_leaves=12, leaves=_leaves()):
    return st.recursive(
        leaves,
        lambda children: st.one_of(
            st.tuples(st.sampled_from("+-*/"), children, children).map(
                lambda t: Bin(t[0], t[1], t[2])),
            children.map(Neg),
            st.tuples(st.sampled_from(["ln", "exp", "abs", "sqrt"]), children).map(
                lambda t: Call(t[0], t[1])),
            st.tuples(children, exponents).map(lambda t: Bin("^", t[0], Const(t[1]))),
        ),
        max_leaves=max_leaves,
    )


class TestRoundTrip:
    @given(_ast_strategy())
    @settings(max_examples=150, deadline=None)
    def test_print_parse_same_value(self, ast):
        """Printing then reparsing preserves evaluation everywhere it is finite."""
        src = to_source(ast)
        reparsed = parse_source(src, {"x", "y"})
        env = {"x": 1.7, "y": 0.9}
        try:
            expected = eval_ast(ast, env)
        except EvalError:
            return
        try:
            got = eval_ast(reparsed, env)
        except EvalError:
            pytest.fail(f"reparsed form of {src!r} failed to evaluate")
        if math.isfinite(expected):
            assert got == pytest.approx(expected, rel=1e-12, abs=1e-12)
        else:
            assert got == expected

    @given(_ast_strategy())
    @settings(max_examples=100, deadline=None)
    def test_parse_originated_round_trip_is_structural(self, ast):
        src = to_source(ast)
        once = parse_source(src, {"x", "y"})
        twice = parse_source(to_source(once), {"x", "y"})
        assert once == twice


# fractional and negative exponents and wide inputs, so that complex powers,
# zero division, overflow and the ln wall all occur
_inputs = st.one_of(st.sampled_from([0.0, -2.0, 1e-300, 700.0]), st.floats(-5.0, 5.0))


class TestRewrite:
    @given(_ast_strategy(st.sampled_from([-1.0, 0.5, 2.0, 2.5, 3.0]), max_leaves=10),
           _inputs, _inputs)
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_simplified_partial_keeps_every_finite_value(self, ast, x, y):
        """Wherever the raw derivative is finite at a point, the simplified
        one gives the same float there."""
        env = {"x": x, "y": y}
        for v in ("x", "y"):
            try:
                raw = eval_ast(_diff(ast, v), env)
            except EvalError:
                continue
            if math.isfinite(raw):
                assert eval_ast(symbolic_partial(ast, v), env) == raw


class TestCompiled:
    @given(_ast_strategy(st.sampled_from([-1.0, 0.5, 2.0, 2.5, 3.0]), max_leaves=8),
           st.lists(st.tuples(_inputs, _inputs), min_size=1, max_size=6))
    @settings(max_examples=400, deadline=None, derandomize=True)
    def test_compiled_matches_eval_ast(self, ast, points):
        """The numpy closure raises EvalError exactly when the per-point
        interpreter (tests/reference.py) does at some point, and otherwise
        returns the interpreter's values (-inf included)."""
        expected, failed = [], False
        for x, y in points:
            try:
                expected.append(reference.eval_ast(ast, {"x": x, "y": y}))
            except EvalError:
                failed = True
        run = compile_ast(ast)
        env = {"x": np.array([p[0] for p in points]), "y": np.array([p[1] for p in points])}
        if failed:
            with pytest.raises(EvalError):
                run(env)
            return
        got = np.broadcast_to(run(env), len(points))
        for g, e in zip(got, expected):
            if math.isfinite(e):
                assert g == pytest.approx(e, rel=1e-9, abs=1e-9)
            else:
                assert g == e

    @pytest.mark.parametrize("src, x", [("ln(x ^ 0.5)", -4.0), ("ln(0 - exp(x))", 1000.0),
                                        ("ln(x ^ (0 - 1))", 0.0), ("ln(x / 0)", 1.0)])
    def test_errors_hidden_from_the_nan_check(self, src, x):
        """ln maps NaN and -inf to -inf, so each failure must raise where it occurs."""
        ast = parse_source(src, {"x"})
        with pytest.raises(EvalError):
            eval_ast(ast, {"x": x})
        with pytest.raises(EvalError):
            compile_ast(ast)({"x": np.array([1.0, x])})

    def test_minus_inf_to_a_fractional_power(self):
        """Python's float rules: -inf ^ 0.5 is inf and -inf ^ -0.5 is 0."""
        for src, want in (("ln(x) ^ 0.5", math.inf), ("ln(x) ^ -0.5", 0.0)):
            ast = parse_source(src, {"x"})
            assert reference.eval_ast(ast, {"x": 0.0}) == want
            assert compile_ast(ast)({"x": np.array([0.0, math.e])}).tolist() == [want, 1.0]

    def test_ln_wall_and_exp_of_minus_inf(self):
        run = compile_ast(parse_source("exp(ln(x)) + ln(x)", {"x"}))
        out = run({"x": np.array([0.0, -1.0, 2.0])})
        assert out[0] == NEG_INF and out[1] == NEG_INF
        assert out[2] == pytest.approx(2.0 + math.log(2.0))


class TestDslObjectives:
    def test_discrete_quadlin_equivalent(self, quadlin_d):
        dsl = tk.dsl_discrete_objective(
            "(y0 - a)^2 + b * y1 + g * y2", 2,
            {"a": (1.0, 2.0), "b": (0.5, 0.4), "g": (0.25, 0.2)})
        rng = np.random.default_rng(5)
        for _ in range(20):
            win = rng.uniform(-2, 4, size=3)
            w = int(rng.integers(0, 2))
            assert dsl.value(win, 0, w) == pytest.approx(quadlin_d.value(win, 0, w))
            for k in range(3):
                assert tk.partial_slot(dsl, k, win, 0, w)[0] == pytest.approx(
                    tk.partial_slot(quadlin_d, k, win, 0, w)[0])

    def test_time_dependence(self):
        obj = tk.dsl_discrete_objective("t * y0", 0)
        assert obj.value(np.array([2.0]), 3, 0) == 6.0

    def test_scalar_constant_broadcast(self):
        obj = tk.dsl_discrete_objective("c * y0", 0, {"c": 2.0})
        assert obj.value(np.array([3.0]), 0, 1) == 6.0

    def test_per_state_constant_is_not_wrapped(self):
        # a 3-value constant on a 4-state path has no value for state 3
        obj = tk.dsl_discrete_objective("(y0 - a)^2 + y1 + y2", 2, {"a": (1.0, 2.0, 3.0)})
        space = tk.SampleSpace((0.25,) * 4)
        path = tk.StochasticPath.constant(tk.TimeDomain.discrete(10), space, 1.0)
        for engine in (lambda: tk.euler_report(obj, path),
                       lambda: obj.value(np.ones(3), 0, 3)):
            with pytest.raises(tk.InputError, match="constant 'a'"):
                engine()
        assert obj.value(np.ones(3), 0, 2) == 6.0

    def test_scalar_constant_applies_to_every_state(self):
        obj = tk.dsl_discrete_objective("(y0 - a)^2 + y1 + y2", 2, {"a": 3.0})
        space = tk.SampleSpace((0.25,) * 4)
        path = tk.StochasticPath.constant(tk.TimeDomain.discrete(10), space, 1.0)
        rows = tk.euler_report(obj, path).residuals
        assert (rows[:, :, 0] == rows[:, :1, 0]).all()

    def test_continuous_slots(self):
        obj = tk.dsl_continuous_objective("x0 + 2 * x1 + 3 * x2", 2)
        assert obj.value(np.array([1.0, 1.0, 1.0]), 0.0, 0) == 6.0

    def test_gradient_check_passes(self):
        obj = tk.dsl_discrete_objective("ln(y0 + y1) - y2 ^ 2", 2)
        rng = np.random.default_rng(9)
        points = [(rng.uniform(0.5, 2.0, size=3), 0, 0) for _ in range(20)]
        assert tk.gradient_check(obj, points).passed
