"""The batched solvers against their loop forms (tests/reference.py).

The Newton Jacobian groups columns whose times lie 2n+1 apart and evaluates
every perturbed vector in one batched call; it must equal the column-by-column
Jacobian bit for bit.  The brute-force oracle scores chunks of grid
combinations in one batched call; it must pick the same combination as the
per-point loop, ties and -inf combinations included, with the same sums.
A work-count guard pins the number of batched objective calls, so a return to
per-column or per-point evaluation fails here.
"""

import collections
import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
import tvckit as tk
from tvckit import solvers
from tvckit.errors import NumericalError, ToolkitError
from test_kernel import _constants, _plain, _quadlin_params

M = 2  # states of every case


def _dim2():
    """An order-1 objective on a 2-dimensional state, coupling components across
    slots; plain per-point callables, so the loop adapter runs."""
    def ev(p, t, w):
        return ((p[0, 0] - 1.0) ** 2 + p[0, 0] * p[1, 1] + np.sin(p[1, 0]) * p[0, 1]
                + 0.5 * (w + 1) * p[1, 1] ** 2)

    partials = (lambda p, t, w: np.array([2.0 * (p[0, 0] - 1.0) + p[1, 1], np.sin(p[1, 0])]),
                lambda p, t, w: np.array([np.cos(p[1, 0]) * p[0, 1],
                                          p[0, 0] + (w + 1) * p[1, 1]]))
    return tk.DiscreteObjective(order=1, eval_fn=ev, partial_fns=partials, dim=2)


# (name -> builder(rng) returning (objective, path value range))
CASES = {
    "quadlin": lambda rng: (tk.quadlin_discrete(_quadlin_params(rng, M)), -1.0, 3.0),
    "household-live": lambda rng: (tk.household_log(0.9, 2, zero_head=False), 1.0, 1.9),
    "dsl-order3": lambda rng: (tk.dsl_discrete_objective(
        "(y0 - a)^2 * (1 + y1^2) + b*y2*y0 + g*ln(y3 + 2) + d*y3", 3,
        _constants(rng, M, "abgd")), -1.0, 3.0),
    "dim2": lambda rng: (_dim2(), -1.0, 2.0),
    "plain-fd": lambda rng: (_plain(2, False), -1.0, 3.0),
}


def _pointwise(obj):
    """obj with its batched value formula evaluated one point at a time.  The
    per-point loop then does the arithmetic of one batched call: np.log and
    math.log, or 0.9**t in numpy and in Python, may differ in the last bit."""
    if obj.batch_eval_fn is None:
        return obj
    return dataclasses.replace(
        obj, eval_fn=lambda p, t, w: obj.values_batch(p[None], [t], [w])[0])


def _outcome(fn, *args):
    try:
        return "ok", fn(*args)
    except ToolkitError as exc:
        return "raised", type(exc)


def _assert_same_result(got, want):
    assert got[0] == want[0], (got, want)
    if got[0] == "raised":
        assert got[1] is want[1]
        return
    got, want = got[1], want[1]
    np.testing.assert_array_equal(got.path.values, want.path.values)
    assert got.per_state_values == want.per_state_values
    assert got.value == want.value
    assert got.grid_resolution == want.grid_resolution


@given(seed=st.integers(0, 2**32 - 1), case=st.sampled_from(sorted(CASES)),
       horizon=st.integers(1, 14))
@settings(max_examples=60, deadline=None, derandomize=True)
def test_grouped_jacobian_equals_dense(seed, case, horizon):
    rng = np.random.default_rng(seed)
    obj, lo, hi = CASES[case](rng)
    n, dim = obj.order, obj.dim
    values_w = rng.uniform(lo, hi, size=(horizon + n + 1, dim))
    t_lo, w = int(rng.integers(0, horizon + 1)), int(rng.integers(0, M))

    def residuals(U):
        return solvers._trial_residuals(obj, values_w, U, t_lo, n, w)

    u = values_w[t_lo : horizon + 1].ravel()
    got = solvers._fd_jacobian(residuals, u, n, dim)
    want = reference.fd_jacobian(lambda v: residuals(v[None])[0], u)
    np.testing.assert_array_equal(got, want)


def _dense(monkeypatch):
    """Route newton_euler_solve through the column-by-column Jacobian."""
    monkeypatch.setattr(solvers, "_fd_jacobian", lambda residuals, u, n, dim:
                        reference.fd_jacobian(lambda v: residuals(v[None])[0], u))


def test_newton_iterates_equal_the_dense_jacobian_solve(monkeypatch, space):
    live = tk.household_log(0.9, 2, zero_head=False)
    dom = tk.TimeDomain.discrete(22)
    gv = np.interp(np.arange(23.0), [0, 1, 21, 22], [1.0, 1.0, 0.2, 0.1])
    guess = tk.StochasticPath(dom, space, np.repeat(gv[:, None], 2, axis=1))
    solves = [(live, tk.SolveSpec(horizon=20, guess=guess, mode="fixed", head=np.ones((2, 2)),
                                  tail=np.array([[0.2, 0.2], [0.1, 0.1]]))),
              (tk.quadlin_discrete(tk.QuadLinParams((1.0, 2.0), (0.5, 0.4), (0.25, 0.2))),
               tk.SolveSpec(horizon=20, guess=tk.StochasticPath.constant(dom, space, 0.3)))]
    grouped = [tk.newton_euler_solve(obj, spec) for obj, spec in solves]
    _dense(monkeypatch)
    for (obj, spec), (path, rep) in zip(solves, grouped):
        want_path, want_rep = tk.newton_euler_solve(obj, spec)
        np.testing.assert_array_equal(path.values, want_path.values)
        assert rep == want_rep


@given(seed=st.integers(0, 2**32 - 1), case=st.sampled_from(sorted(CASES)),
       free=st.integers(1, 3), points=st.integers(2, 11))
@settings(max_examples=40, deadline=None, derandomize=True)
def test_brute_force_equals_loop(seed, case, free, points):
    rng = np.random.default_rng(seed)
    obj, lo, hi = CASES[case](rng)
    n = obj.order
    domain = tk.TimeDomain.discrete(n + 4)
    space = tk.SampleSpace((0.4, 0.6))
    base = tk.StochasticPath(domain, space,
                             rng.uniform(lo, hi, size=(domain.num_points, M, obj.dim)))
    free_indices = rng.choice(domain.num_points, size=free, replace=False)
    # one decimal: repeated grid values make ties between combinations
    grids = [np.round(rng.uniform(lo - 0.5, hi + 0.5, size=points), 1) for _ in range(free)]
    _assert_same_result(_outcome(tk.brute_force_solve, obj, base, free_indices, grids),
                        _outcome(reference.brute_force_solve, _pointwise(obj), base,
                                 free_indices, grids))


def _plateau():
    """Integer-valued, with its maximum 0 wherever the middle free value is
    near 0: most grid combinations tie with another, in every chunk."""
    return tk.DiscreteObjective(order=1, eval_fn=lambda p, t, w:
                                -float(round(abs(p[0, 0] * p[1, 0]))))


@pytest.mark.parametrize("make, values, grid, infeasible", [
    # ties inside and across chunks of BRUTE_FORCE_CHUNK combinations: the first wins
    (_plateau, 0.0, np.linspace(-1.0, 1.0, 11), False),
    # household: -inf combinations where consumption is not positive
    (lambda: tk.household_log(0.9, 2, zero_head=False), 1.0, np.linspace(0.1, 2.1, 11), False),
    # every combination is -inf
    (lambda: tk.household_log(0.9, 2, zero_head=False), 0.1, np.linspace(3.0, 4.0, 11), True),
])
def test_brute_force_ties_and_walls(space, make, values, grid, infeasible):
    obj = make()
    base = tk.StochasticPath.constant(tk.TimeDomain.discrete(6), space, values)
    assert len(grid) ** 3 > solvers.BRUTE_FORCE_CHUNK
    got = _outcome(tk.brute_force_solve, obj, base, [2, 3, 4], [grid] * 3)
    _assert_same_result(got, _outcome(reference.brute_force_solve, _pointwise(obj), base,
                                      [2, 3, 4], [grid] * 3))
    assert (got == ("raised", NumericalError)) == infeasible


# ---------------------------------------------------------------------------
# Work-count guard

def _counting(obj):
    """obj with its batched forms wrapped in call counters."""
    counts = collections.Counter()

    def counted(name, fn):
        def call(*args):
            counts[name] += 1
            return fn(*args)
        return call

    return dataclasses.replace(obj, batch_eval_fn=counted("values", obj.batch_eval_fn),
                               batch_partials_fn=counted("partials",
                                                         obj.batch_partials_fn)), counts


def test_household_solve_batched_call_count(space):
    obj, counts = _counting(tk.household_log(0.9, 2, zero_head=False))
    dom = tk.TimeDomain.discrete(42)
    gv = np.interp(np.arange(43.0), [0, 1, 41, 42], [1.0, 1.0, 0.2, 0.1])
    guess = tk.StochasticPath(dom, space, np.repeat(gv[:, None], 2, axis=1))
    spec = tk.SolveSpec(horizon=40, guess=guess, mode="fixed", head=np.ones((2, 2)),
                        tail=np.array([[0.2, 0.2], [0.1, 0.1]]))
    _, rep = tk.newton_euler_solve(obj, spec)
    assert rep.converged and rep.iterations == (24, 24)
    # per state: one values and one partials call per residual evaluation (the
    # start, 24 Jacobians, 24 line-search trials, each accepted at once), and
    # one values call for the guess check
    assert dict(counts) == {"partials": 2 * (1 + 24 + 24), "values": 2 * (1 + 24 + 24 + 1)}


def test_brute_force_batched_call_count(space):
    obj, counts = _counting(tk.household_log(0.9, 2, zero_head=False))
    base = tk.StochasticPath.constant(tk.TimeDomain.discrete(6), space, 1.0)
    grid = np.linspace(0.1, 2.1, 21)
    tk.brute_force_solve(obj, base, [2, 3, 4], [grid] * 3)
    # 21^3 combinations in chunks of 1024 per state, then objective_value;
    # every window touches a free index, so no base-part call
    assert solvers.BRUTE_FORCE_CHUNK == 1024
    assert dict(counts) == {"values": 2 * 10 + 1}
