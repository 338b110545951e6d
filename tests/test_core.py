import ast
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
import tvckit as tk
from tvckit.core import GRID_BUDGET, derivatives, running_sum
from tvckit.errors import HorizonError, InputError, ToolkitError, UnsupportedError


class TestSampleSpace:
    def test_basic(self, space):
        assert space.m == 2
        assert space.states == (1, 2)
        # built once, and shared read-only with every caller
        assert space.prob_array is space.prob_array and not space.prob_array.flags.writeable

    def test_rejects_bad_probs(self):
        with pytest.raises(InputError):
            tk.SampleSpace((0.5, 0.4))
        with pytest.raises(InputError):
            tk.SampleSpace((-0.5, 1.5))
        with pytest.raises(InputError):
            tk.SampleSpace(())

    @pytest.mark.parametrize("probs", [(math.nan, 1.0), (math.inf, 1.0), (1.0, math.nan),
                                       (math.inf, -math.inf)])
    def test_rejects_nonfinite_probs(self, probs):
        # a NaN passes both the sign and the sum test
        with pytest.raises(InputError):
            tk.SampleSpace(probs)

    @given(st.lists(st.floats(0.01, 1.0), min_size=1, max_size=6))
    @settings(max_examples=50, deadline=None)
    def test_normalized_probs_accepted(self, raw):
        total = math.fsum(raw)
        probs = [p / total for p in raw]
        # renormalize the largest entry so fsum is exactly 1
        probs[0] += 1.0 - math.fsum(probs)
        space = tk.SampleSpace(tuple(probs))
        assert space.m == len(raw)


class TestExpectation:
    def test_weighted_sum(self, space):
        assert tk.expectation(space, [1.0, 3.0]) == 2.0

    def test_neg_inf_propagates(self, space):
        assert tk.expectation(space, [float("-inf"), 3.0]) == float("-inf")

    def test_pos_inf_rejected(self, space):
        with pytest.raises(InputError):
            tk.expectation(space, [float("inf"), 3.0])

    def test_zero_mass_neg_inf_ignored(self):
        space = tk.SampleSpace((1.0, 0.0))
        assert tk.expectation(space, [2.0, float("-inf")]) == 2.0

    def test_vector_valued(self, space):
        out = tk.expectation(space, np.array([[1.0, 2.0], [3.0, 4.0]]))
        assert np.allclose(out, [2.0, 3.0])

    @given(seed=st.integers(0, 2**32 - 1), m=st.integers(1, 6), zero_mass=st.integers(0, 5),
           length=st.integers(0, 3000), axes=st.integers(0, 2), neg_inf=st.integers(0, 3),
           pos_inf=st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_matches_tensordot(self, seed, m, zero_mass, length, axes, neg_inf, pos_inf):
        """core.expectation's direct BLAS product is reference.expectation's
        np.tensordot bit for bit, over zero-mass states, -inf entries and C-
        and F-ordered operands of 0 to 2 trailing axes, and a +inf entry
        raises the same InputError."""
        rng = np.random.default_rng(seed)
        raw = rng.uniform(0.01, 1.0, m)
        raw[rng.permutation(m)[: min(zero_mass, m - 1)]] = 0.0
        probs = list(raw / math.fsum(raw))
        probs[int(np.argmax(probs))] += 1.0 - math.fsum(probs)
        space = tk.SampleSpace(tuple(probs))
        shape = (m, length, int(rng.integers(1, 4)))[: 1 + axes]
        z = rng.standard_normal(shape) * 10.0 ** rng.integers(-3, 4, shape)
        for flat in rng.integers(z.size, size=neg_inf if z.size else 0):
            z.flat[flat] = -np.inf
        if pos_inf and z.size:
            z.flat[int(rng.integers(z.size))] = np.inf

        def outcome(fn, operand):
            try:
                out = fn(space, operand)
            except InputError as exc:
                return str(exc)
            return type(out), np.shape(out), np.asarray(out).tobytes()

        for operand in (z, np.asfortranarray(z)):
            assert outcome(tk.expectation, operand) == outcome(reference.expectation, operand)

    @given(st.lists(st.floats(-100, 100), min_size=2, max_size=2))
    @settings(max_examples=50, deadline=None)
    def test_linearity(self, z):
        space = tk.SampleSpace((0.5, 0.5))
        assert tk.expectation(space, [2 * v for v in z]) == pytest.approx(
            2 * tk.expectation(space, z), abs=1e-9)


class TestTimeDomain:
    def test_discrete(self):
        dom = tk.TimeDomain.discrete(5)
        assert dom.num_points == 6
        assert dom.index_of(3) == 3
        with pytest.raises(InputError):
            dom.index_of(2.5)
        with pytest.raises(InputError):
            dom.index_of(7)

    def test_continuous(self):
        dom = tk.TimeDomain.continuous(1.0, 0.25)
        assert dom.num_points == 5
        assert np.allclose(dom.times(), [0.0, 0.25, 0.5, 0.75, 1.0])
        assert dom.index_of(0.5) == 2
        with pytest.raises(InputError):
            dom.index_of(0.3)

    def test_off_multiple_rejected(self):
        with pytest.raises(InputError):
            tk.TimeDomain.continuous(1.0, 0.3)

    def test_grid_budget(self):
        # a time domain holds no array, so neither side of the limit allocates
        budget = GRID_BUDGET
        assert tk.TimeDomain.discrete(budget).num_points == budget + 1
        assert tk.TimeDomain.continuous(budget * 0.5, 0.5).num_points == budget + 1
        for make in (lambda: tk.TimeDomain.discrete(budget + 1),
                     lambda: tk.TimeDomain.discrete(10**11),
                     lambda: tk.TimeDomain.continuous((budget + 1) * 0.5, 0.5),
                     lambda: tk.TimeDomain.continuous(1e11, 1.0)):
            with pytest.raises(InputError, match="exceed the budget"):
                make()

    def test_bad_kinds(self):
        with pytest.raises(InputError):
            tk.TimeDomain("weekly", t_max=3)
        with pytest.raises(InputError):
            tk.TimeDomain.discrete(-1)


class TestStochasticPath:
    def test_shapes_and_window(self, space):
        dom = tk.TimeDomain.discrete(5)
        path = tk.StochasticPath(dom, space, np.arange(12.0).reshape(6, 2))
        assert path.dim == 1
        win = path.window(1, 2)
        assert win.shape == (3, 2, 1)
        assert win[0, 0, 0] == 2.0
        with pytest.raises(HorizonError):
            path.window(4, 2)

    def test_values_read_only(self, space):
        dom = tk.TimeDomain.discrete(2)
        path = tk.StochasticPath.constant(dom, space, 1.0)
        with pytest.raises(ValueError):
            path.values[0] = 9.0

    def test_nonfinite_rejected(self, space):
        dom = tk.TimeDomain.discrete(2)
        vals = np.zeros((3, 2))
        vals[1, 0] = float("nan")
        with pytest.raises(InputError):
            tk.StochasticPath(dom, space, vals)

    def test_from_function(self, space):
        dom = tk.TimeDomain.discrete(3)
        path = tk.StochasticPath.from_function(dom, space, lambda t, w: t + w)
        assert path.values[2, 1, 0] == 3.0

    def test_window_continuous_unsupported(self, space):
        dom = tk.TimeDomain.continuous(1.0, 0.5)
        path = tk.StochasticPath.constant(dom, space, 1.0)
        with pytest.raises(UnsupportedError):
            path.window(0, 1)


class TestDerivativesAndIntegrals:
    def test_time_derivative_polynomial(self, space):
        dom = tk.TimeDomain.continuous(2.0, 0.01)
        path = tk.StochasticPath.from_function(dom, space, lambda t, w: t * t)
        d1 = tk.time_derivative(path, 1)
        expect = 2.0 * dom.times()
        assert np.abs(d1.values[:, 0, 0] - expect).max() < 1e-8

    def test_second_derivative(self, space):
        dom = tk.TimeDomain.continuous(2.0, 0.01)
        path = tk.StochasticPath.from_function(dom, space, lambda t, w: t**3)
        d2 = tk.time_derivative(path, 2)
        interior = slice(2, -2)
        expect = 6.0 * dom.times()
        assert np.abs(d2.values[interior, 0, 0] - expect[interior]).max() < 1e-6

    def test_discrete_derivative_unsupported(self, space):
        dom = tk.TimeDomain.discrete(5)
        path = tk.StochasticPath.constant(dom, space, 1.0)
        with pytest.raises(UnsupportedError):
            tk.time_derivative(path, 1)

    def test_integrate_time(self, space):
        dom = tk.TimeDomain.continuous(1.0, 0.001)
        path = tk.StochasticPath.from_function(dom, space, lambda t, w: t)
        out = tk.integrate_time(path, 1.0)
        assert np.allclose(out, 0.5, atol=1e-6)


class TestTimeAxis:
    """The two time-axis routines every engine goes through."""

    def test_derivatives_are_composed_passes(self):
        x = np.sin(np.linspace(0.0, 2.0, 41))[:, None]
        chain = derivatives(x, 0.05, 3)
        assert len(chain) == 4 and chain[0] is x
        for lower, upper in zip(chain, chain[1:]):
            assert np.array_equal(upper, np.gradient(lower, 0.05, axis=0, edge_order=2))

    @given(seed=st.integers(0, 2**32 - 1), points=st.integers(3, 60), m=st.integers(1, 3),
           dim=st.integers(1, 2), k=st.integers(0, 4), slot=st.integers(-1, 2),
           h=st.floats(1e-4, 10.0), into=st.sampled_from([None, "slots", "interleaved"]))
    @settings(max_examples=150, deadline=None, derandomize=True)
    def test_derivatives_are_gradient_bits(self, seed, points, m, dim, k, slot, h, into):
        """Each pass is np.gradient(edge_order=2)'s arithmetic: the same bits
        and the same memory order, on contiguous series and on slot views
        P[:, k] of a (time, slot, state, dim) stack (slot -1).  Passes
        written into a given buffer have the same bits, whether its slots
        are contiguous blocks (a slot-major (k, time, state, dim) buffer) or
        strided views of a time-major one."""
        rng = np.random.default_rng(seed)
        P = rng.normal(size=(points, 3, m, dim)) * 10.0 ** rng.integers(-4, 5, size=(1, 3, m, 1))
        x = P[:, 0].copy() if slot < 0 else P[:, slot]
        want = [x]
        for _ in range(k):
            want.append(np.gradient(want[-1], h, axis=0, edge_order=2))
        out = {None: None, "slots": np.full((k,) + x.shape, np.nan),
               "interleaved": np.full((points, k, m, dim), np.nan).transpose(1, 0, 2, 3)}[into]
        got = derivatives(x, h, k, out=out)
        assert len(got) == k + 1 and got[0] is x
        for i, (g, w) in enumerate(zip(got[1:], want[1:])):
            assert np.array_equal(g, w)
            if out is None:
                assert g.strides == w.strides
            else:  # pass i + 1 is slot i of the buffer
                assert g.__array_interface__ == out[i].__array_interface__

    def test_derivatives_need_three_points(self):
        assert len(derivatives(np.ones(2), 0.5, 0)) == 1
        with pytest.raises(InputError, match="at least 3 grid points, got 2"):
            derivatives(np.ones(2), 0.5, 1)

    def test_running_sum_discrete(self):
        dom = tk.TimeDomain.discrete(3)
        out = running_sum(dom, [-0.0, 1.0, 2.0, -np.inf])
        assert out.tolist() == [0.0, 1.0, 3.0, -np.inf]
        assert math.copysign(1.0, out[0]) == 1.0  # from +0.0

    def test_running_sum_continuous(self):
        dom = tk.TimeDomain.continuous(1.5, 0.5)
        e = np.array([[1.0, 0.0], [3.0, 1.0], [5.0, 2.0], [7.0, 3.0]])
        assert running_sum(dom, e).tolist() == [[0.0, 0.0], [1.0, 0.25], [3.0, 1.0],
                                                 [6.0, 2.25]]
        assert running_sum(dom, [1.0, -np.inf, 2.0, 3.0])[1:].tolist() == [-np.inf] * 3


def test_one_time_axis():
    """np.gradient and np.trapezoid are called nowhere, and np.cumsum only
    inside core.running_sum: every time derivative in the library is
    core.derivatives' own stencil, and every sum over time goes through
    running_sum."""
    calls = set()
    for path in sorted(Path(tk.__file__).resolve().parent.glob("*.py")):
        for top in ast.parse(path.read_text()).body:  # a function, a class or a statement
            for node in ast.walk(top):
                if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                        and node.func.attr in ("gradient", "cumsum", "trapezoid", "trapz")):
                    calls.add((path.stem, getattr(top, "name", None), node.func.attr))
    assert calls == {("core", "running_sum", "cumsum")}


def test_one_blas_product():
    """np.tensordot, np.isposinf and np.isneginf are called nowhere, and dot
    only inside core.expectation: every expectation is its one direct BLAS
    product, and the infinity tests are plain comparisons."""
    calls = set()
    for path in sorted(Path(tk.__file__).resolve().parent.glob("*.py")):
        for top in ast.parse(path.read_text()).body:  # a function, a class or a statement
            for node in ast.walk(top):
                if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                        and node.func.attr in ("tensordot", "isposinf", "isneginf", "dot")):
                    calls.add((path.stem, getattr(top, "name", None), node.func.attr))
    assert calls == {("core", "expectation", "dot")}


def test_one_unresolved_message():
    """The unresolved-partial message is built only in
    objectives.unresolved_fault, which _fd_or_raise and Newton's faults
    share."""
    text = "no finite-difference step resolves"
    counts = {path.stem: path.read_text().count(text)
              for path in sorted(Path(tk.__file__).resolve().parent.glob("*.py"))}
    assert {stem: k for stem, k in counts.items() if k} == {"objectives": 1}


def test_one_alternating_sum():
    """(-1) ** appears only inside kernel.momenta: the continuous Euler
    residual and the boundary bracket read their alternating derivative sums
    from it."""
    sites = set()
    for path in sorted(Path(tk.__file__).resolve().parent.glob("*.py")):
        for top in ast.parse(path.read_text()).body:  # a function, a class or a statement
            for node in ast.walk(top):
                if (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow)
                        and ast.unparse(node.left) == "-1"):
                    sites.add((path.stem, getattr(top, "name", None)))
    assert sites == {("kernel", "momenta")}


def test_one_constant_fold():
    """eval_ast is called only inside expr._rewrite: the parser's exponent
    fold and simplify fold constants in that one bottom-up pass."""
    sites = set()
    for path in sorted(Path(tk.__file__).resolve().parent.glob("*.py")):
        for top in ast.parse(path.read_text()).body:  # a function, a class or a statement
            for node in ast.walk(top):
                if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                        and node.func.id == "eval_ast"):
                    sites.add((path.stem, getattr(top, "name", None)))
    assert sites == {("expr", "_rewrite")}


def test_paths_move_only_in_core():
    """perturb and StochasticPath.window are called nowhere in the library
    outside core.py: the engines read the windows of a moved path through a
    kernel.PointLayout, the moved series formed in one array."""
    sites = set()
    for path in sorted(Path(tk.__file__).resolve().parent.glob("*.py")):
        for top in ast.parse(path.read_text()).body:  # a function, a class or a statement
            for node in ast.walk(top):
                if isinstance(node, ast.Call) and ast.unparse(node.func).split(".")[-1] in (
                        "perturb", "window"):
                    sites.add((path.stem, getattr(top, "name", None)))
    assert {site for site in sites if site[0] != "core"} == set()


def _sites(tree, match, scope=()):
    """The dotted names of the innermost functions enclosing each node of
    tree that match(node) accepts ("" at module level)."""
    found = set()
    for node in ast.iter_child_nodes(tree):
        inner = scope + (node.name,) if isinstance(node, (ast.FunctionDef, ast.ClassDef)) else scope
        if match(node):
            found.add(".".join(inner))
        found |= _sites(node, match, inner)
    return found


def test_table_work_stays_in_bind():
    """What an objective computes from its (t, w) table alone is computed
    in its bind, once per table, never per call: discount ** only inside
    household's bind and constant_at calls only inside the DSL's."""
    root = Path(tk.__file__).resolve().parent
    objectives, expr = (ast.parse((root / f"{stem}.py").read_text())
                        for stem in ("objectives", "expr"))
    assert _sites(objectives, lambda node: isinstance(node, ast.BinOp)
                  and isinstance(node.op, ast.Pow)
                  and ast.unparse(node.left) == "discount") == {"household_log.bind"}
    assert _sites(expr, lambda node: isinstance(node, ast.Call)
                  and ast.unparse(node.func) == "constant_at") == {"_build_objective.bind"}


def test_library_never_imports_scipy():
    """scipy is not a declared dependency: importing the library and its CLI
    loads no scipy module, and no library file imports it."""
    code = ("import sys, tvckit, tvckit.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(Path(tk.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True)
    assert out.stdout.strip() == "[]"
    root = Path(tk.__file__).resolve().parent
    importing = [f.name for f in root.glob("*.py")
                 if re.search(r"^\s*(import|from)\s+scipy\b", f.read_text(), re.MULTILINE)]
    assert importing == []


_DOM, _SPACE = tk.TimeDomain.discrete(12), tk.SampleSpace((0.5, 0.5))
_PATH = tk.StochasticPath.constant(_DOM, _SPACE, 1.0)
_CURVE = tk.eventually_constant_curve(_DOM, _SPACE, 1, 1.0)
_CDOM = tk.TimeDomain.continuous(1.0, 0.1)
_ONE_STATE = tk.QuadLinParams((1.0,), (0.5,), (0.25,))
_HOUSEHOLD = tk.household_log(0.9, 2, zero_head=False)


@pytest.mark.parametrize("call, error, match", [
    (lambda: tk.euler_report(tk.quadlin_discrete(_ONE_STATE), _PATH), InputError,
     "parameters for 1 states, none for state 1"),
    (lambda: tk.euler_report(tk.quadlin_continuous(_ONE_STATE),
                             tk.StochasticPath.constant(_CDOM, _SPACE, 1.0)), InputError,
     "none for state 1"),
    (lambda: tk.a_grid(tk.quadlin_discrete(_ONE_STATE), _PATH, _CURVE), InputError,
     "none for state 1"),
    (lambda: tk.truncated_objective(_HOUSEHOLD, _PATH, -1), HorizonError, "T'=-1"),
    (lambda: tk.truncated_objective(_HOUSEHOLD, _PATH, 2.5), InputError, "T'=2.5"),
    (lambda: tk.variation_decomposition_check(_HOUSEHOLD, _PATH, _CURVE, -1), HorizonError,
     "T'=-1"),
    (lambda: tk.variation_decomposition_check(_HOUSEHOLD, _PATH, _CURVE, 4.5), InputError,
     "T'=4.5"),
    (lambda: tk.discrete_tvc_tail(_HOUSEHOLD, _PATH, _CURVE, 2.5), InputError, "T'=2.5"),
    (lambda: tk.discrete_euler_residual(_HOUSEHOLD, _PATH, 2.5), InputError, "t=2.5"),
    (lambda: tk.a_grid(_HOUSEHOLD, _PATH, _CURVE, tprime_grid=[]), InputError, "T' grid"),
    (lambda: tk.a_grid(_HOUSEHOLD, _PATH, _CURVE, eps_grid=()), InputError, "eps grid"),
    (lambda: tk.a_grid(_HOUSEHOLD, _PATH, _CURVE, tprime_grid=[2.2, 2.7, 4, 5]), InputError,
     "T'=2.2"),
    (lambda: tk.domination_check(_HOUSEHOLD, _PATH, _CURVE, 0.1, [2.5]), InputError,
     "sample time=2.5"),
    (lambda: tk.domination_check(_HOUSEHOLD, _PATH, _CURVE, 0.1, [3, 11]), HorizonError,
     "windows [3, 13] fall off the grid 0..12"),
], ids=["euler-quadlin-state", "euler-quadlin-continuous-state", "a_grid-quadlin-state",
        "truncated-negative", "truncated-fractional", "decomposition-negative",
        "decomposition-fractional", "tail-fractional", "residual-fractional",
        "a_grid-empty-tprimes", "a_grid-empty-eps", "a_grid-fractional-tprime",
        "domination-fractional-time", "domination-off-grid-time"])
def test_entry_points_raise_toolkit_errors(call, error, match):
    """Bad inputs to the public entry points raise the ToolkitError of their
    kind, never a bare IndexError or ValueError."""
    with pytest.raises(ToolkitError, match=re.escape(match)) as caught:
        call()
    assert type(caught.value) is error


def test_integral_float_indices_read_as_integers():
    q = _CURVE
    assert tk.discrete_tvc_tail(_HOUSEHOLD, _PATH, q, 3.0) == tk.discrete_tvc_tail(
        _HOUSEHOLD, _PATH, q, 3)
    assert (tk.discrete_euler_residual(_HOUSEHOLD, _PATH, 3.0)
            == tk.discrete_euler_residual(_HOUSEHOLD, _PATH, 3)).all()
    assert tk.truncated_objective(_HOUSEHOLD, _PATH, 4.0) == tk.truncated_objective(
        _HOUSEHOLD, _PATH, 4)
    assert tk.domination_check(_HOUSEHOLD, _PATH, q, 0.1, [3.0]) == tk.domination_check(
        _HOUSEHOLD, _PATH, q, 0.1, [3])


class TestPerturbationCurve:
    def test_head_validation_discrete(self, space):
        dom = tk.TimeDomain.discrete(10)
        vals = np.ones((11, 2))
        with pytest.raises(InputError):
            tk.PerturbationCurve(dom, space, vals, vanishing_head=1)

    def test_eventually_constant(self, space):
        dom = tk.TimeDomain.discrete(10)
        q = tk.eventually_constant_curve(dom, space, onset=2, value=1.5)
        assert q.values[1, 0, 0] == 0.0
        assert q.values[5, 1, 0] == 1.5
        assert q.tail_kind == "eventually-constant"

    def test_compact_support(self, space):
        dom = tk.TimeDomain.discrete(10)
        q = tk.compact_support_curve(dom, space, onset=1, cutoff=4, value=2.0)
        assert q.values[4, 0, 0] == 2.0
        assert np.all(q.values[5:] == 0.0)

    def test_tail_mismatch_rejected(self, space):
        dom = tk.TimeDomain.discrete(5)
        vals = np.zeros((6, 2))
        vals[3:] = 1.0
        vals[5, 0] = 2.0
        with pytest.raises(InputError):
            tk.PerturbationCurve(dom, space, vals, tail_kind="eventually-constant",
                                 tail_onset=3, tail_value=np.ones(2))

    def test_quintic_ramp_head(self, space):
        dom = tk.TimeDomain.continuous(3.0, 0.01)
        p = tk.quintic_ramp_curve(dom, space, target=1.0)
        assert p.values[0, 0, 0] == 0.0
        assert p.values[-1, 0, 0] == 1.0
        assert p.vanishing_head == 2

    def test_perturb_adds(self, space):
        dom = tk.TimeDomain.discrete(5)
        base = tk.StochasticPath.constant(dom, space, 1.0)
        q = tk.eventually_constant_curve(dom, space, onset=0, value=2.0)
        shifted = tk.perturb(base, q, 0.5)
        assert np.all(shifted.values == 2.0)

    def test_perturb_shape_mismatch(self, space):
        base = tk.StochasticPath.constant(tk.TimeDomain.discrete(5), space, 1.0)
        q = tk.zero_curve(tk.TimeDomain.discrete(6), space)
        with pytest.raises(InputError):
            tk.perturb(base, q, 0.1)


def test_smoothstep_endpoints():
    assert tk.smoothstep_quintic(0.0) == 0.0
    assert tk.smoothstep_quintic(1.0) == 1.0
    assert tk.smoothstep_quintic(2.0) == 1.0  # clamped
    tau = np.linspace(0, 1, 101)
    vals = tk.smoothstep_quintic(tau)
    assert np.all(np.diff(vals) >= 0.0)
