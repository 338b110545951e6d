"""The batched solvers and oracles against their loop forms (tests/reference.py).

The Newton Jacobian groups columns whose times lie 2n+1 apart and evaluates
every perturbed vector in one batched call; it must equal the column-by-column
Jacobian bit for bit.  The brute-force oracle scores chunks of grid
combinations in one batched call; it must pick the same combination as the
per-point loop, ties and -inf combinations included, with the same sums.
gradient_check and correspondence_check evaluate every sample in a few
batched calls; their reports must equal the sample-by-sample loops' bit for
bit.  A work-count guard pins the number of batched objective calls, so a
return to per-column or per-point evaluation fails here.
"""

import collections
import dataclasses
import math

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
                        _outcome(reference.brute_force_solve, obj, base,
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
    _assert_same_result(got, _outcome(reference.brute_force_solve, obj, base,
                                      [2, 3, 4], [grid] * 3))
    assert (got == ("raised", NumericalError)) == infeasible


# ---------------------------------------------------------------------------
# gradient_check and correspondence_check against the sample-by-sample loops

def _walled_values(lo, hi):
    """Values where y[o] + y[o+1] - y[o+2] often lies on, next to or past 0."""
    def draw(rng, size):
        y = rng.uniform(lo, hi, size=size)
        for o in range(size - 2):
            if rng.random() < 0.3:
                y[o + 2] = y[o] + y[o + 1] - rng.choice([-1e-9, 0.0, 1e-7, 1e-5, 1e-3, 0.1])
        return y
    return draw


def _ones(rng, size):
    """Values that are 1 or 1 -+ 5e-7 half of the time: inside a spike of width
    1e-6 around 1, the first difference steps leave it on both sides or on
    one side, and only the smaller ones fit inside."""
    near = rng.choice([1.0 - 5e-7, 1.0, 1.0 + 5e-7], size=size)
    return np.where(rng.random(size) < 0.5, near, rng.uniform(0.5, 1.5, size=size))


def _subnormal(rng, size):
    """Values in (0, 1), the first one subnormal now and then: ln's partial
    1/y0 then overflows to inf and its relative gap is nan."""
    y = rng.uniform(0.0, 1.0, size=size)
    if rng.random() < 0.3:
        y[0] = 1e-320
    return y


def _hundreds(rng, size):
    """Values that are exactly 100 half of the time."""
    return np.where(rng.random(size) < 0.5, 100.0, rng.uniform(99.0, 101.0, size=size))


def _plain_log(p, t, w):
    c = p[0, 0] + p[1, 0] - p[2, 0]
    return (1.0 + 0.5 * w) * math.log(c) + p[0, 0] * p[2, 0] if c > 0.0 else -math.inf


def _plain_spike(p, t, w):
    """Smooth except at times 1 mod 3, where it is finite only within 5e-6 of
    slot w = 100.  The difference steps there start at 2^-4 (FD_STEPS[0]
    times 64 for a value near 100) and meet -inf on both sides until they
    shrink below 5e-6; those in a jet's derivative slots start at 2^-10."""
    base = p[0, 0] * p[2, 0] + (w + 1) * p[1, 0] ** 2
    gap = 2.5e-11 - (p[w, 0] - 100.0) ** 2
    if t % 3 != 1:
        return base
    return base + math.log(gap) if gap > 0.0 else -math.inf


# name -> (order-2 discrete objective, value sampler)
ORACLE_CASES = {
    "quadlin": (tk.quadlin_discrete(tk.QuadLinParams((1.0, 2.0), (0.5, 0.4), (0.25, 0.2))),
                lambda rng, size: rng.uniform(-1.0, 3.0, size=size)),
    "household": (tk.household_log(0.9, 2), _walled_values(0.2, 1.5)),
    "household-live": (tk.household_log(0.9, 2, zero_head=False), _walled_values(0.2, 1.5)),
    "dsl-log": (tk.dsl_discrete_objective("a * ln(y0 + y1 - y2) + b * y2 ^ 2", 2,
                                          {"a": (1.0, 0.5), "b": (0.3, 0.7)}),
                _walled_values(0.2, 1.5)),
    # spikes of width 1e-6 and 5e-7 around 1 in slots 1 and 2
    "dsl-spike": (tk.dsl_discrete_objective(
        "ln(1e-12 - (y1 - 1)^2) + ln(2.5e-13 - (y2 - 1)^2) + y0", 2), _ones),
    "dsl-subnormal": (tk.dsl_discrete_objective("ln(y0) + y1 * y2", 2), _subnormal),
    "plain-analytic": (_plain(2, True), lambda rng, size: rng.uniform(-1.0, 3.0, size=size)),
    "plain-fd-log": (tk.DiscreteObjective(order=2, eval_fn=_plain_log), _walled_values(0.2, 1.5)),
    "plain-fd-spike": (tk.DiscreteObjective(order=2, eval_fn=_plain_spike), _hundreds),
}


def _same_report(got, want):
    """Equal outcomes; reports equal field by field, floats bit for bit."""
    assert got[0] == want[0], (got, want)
    assert repr(got[1]) == repr(want[1])


@given(seed=st.integers(0, 2**32 - 1), case=st.sampled_from(sorted(ORACLE_CASES)),
       samples=st.integers(0, 40))
@settings(max_examples=120, deadline=None, derandomize=True)
def test_batched_oracles_equal_the_loops(seed, case, samples):
    rng = np.random.default_rng(seed)
    obj, draw = ORACLE_CASES[case]
    points = [(draw(rng, 3), int(rng.integers(0, 10)), int(rng.integers(0, M)))
              for _ in range(samples)]
    _same_report(_outcome(tk.gradient_check, obj, points),
                 _outcome(reference.gradient_check, obj, points))
    segments = [(draw(rng, 5), int(rng.integers(0, 10)), int(rng.integers(0, M)))
                for _ in range(samples)]
    pair = tk.discrete_to_continuous(obj)
    _same_report(_outcome(tk.correspondence_check, pair, segments),
                 _outcome(reference.correspondence_check, pair, segments))


# ---------------------------------------------------------------------------
# The oracles near the log wall: no false alarm, and a real fault still caught

LOG_CASES = {
    "household": tk.household_log(0.9, 2),
    "household-live": tk.household_log(0.9, 2, zero_head=False),
    "dsl-log": ORACLE_CASES["dsl-log"][0],
}


def _near_the_wall(rng, dist, samples):
    """Points and 5-value segments whose first window y0 + y1 - y2 lies dist to
    2 dist inside the log wall; the segments' later windows stay clear of it."""
    points, segments = [], []
    for _ in range(samples):
        y = rng.uniform(0.5, 2.0, size=5)
        y[2] = y[0] + y[1] - dist * rng.uniform(1.0, 2.0)
        for o in (3, 4):
            y[o] = y[o - 2] + y[o - 1] - rng.uniform(0.2, 1.0)
        t, w = int(rng.integers(2, 10)), int(rng.integers(0, M))
        points.append((y[:3], t, w))
        segments.append((y, t, w))
    return points, segments


def _scaled_partial(obj, factor):
    """obj with its slot-1 partial multiplied by factor."""
    def partials(points, t, w):
        out = obj.partials_batch(points, t, w)
        out[:, 1] *= factor
        return out
    return dataclasses.replace(obj, batch_partials_fn=partials)


@given(seed=st.integers(0, 2**32 - 1), case=st.sampled_from(sorted(LOG_CASES)),
       dist=st.sampled_from([1e-6, 1e-5, 1e-4, 1e-3, 1e-1]))
@settings(max_examples=60, deadline=None, derandomize=True)
def test_oracles_near_the_wall(seed, case, dist):
    """Down to 1e-6 of the wall every partial resolves and both oracles PASS;
    a slot-1 partial off by 1e-4 relative FAILs both."""
    obj = LOG_CASES[case]
    points, segments = _near_the_wall(np.random.default_rng(seed), dist, 20)
    grad = tk.gradient_check(obj, points)
    corr = tk.correspondence_check(tk.discrete_to_continuous(obj), segments)
    assert (grad.verdict, grad.checked, grad.skipped) == ("PASS", 20, 0)
    assert (corr.verdict, corr.checked, corr.skipped) == ("PASS", 20, 0)
    assert max(grad.max_rel_gap, corr.max_partial_gap, corr.max_euler_gap) <= 1e-9
    bad = _scaled_partial(obj, 1.0 + 1e-4)
    assert tk.gradient_check(bad, points).verdict == "FAIL"
    pair = tk.CorrespondencePair(bad, tk.discrete_to_continuous(obj).continuous)
    assert tk.correspondence_check(pair, segments).verdict == "FAIL"


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


@pytest.mark.parametrize("make", [
    lambda: tk.household_log(0.9, 2),
    lambda: tk.dsl_discrete_objective("a * ln(y0 + y1 - y2) + b * y2 ^ 2", 2,
                                      {"a": (1.0, 0.5), "b": (0.3, 0.7)})])
def test_oracle_batched_call_counts(make):
    obj, counts = _counting(make())
    rng = np.random.default_rng(3)
    segments = [(rng.uniform(0.5, 3.0, size=5), int(rng.integers(0, 10)),
                 int(rng.integers(0, 2))) for _ in range(100)]
    rep = tk.correspondence_check(tk.discrete_to_continuous(obj), segments)
    assert rep.checked > 0 and rep.skipped > 0
    # values: the windows, the jets, and one call per fd_partials step, at
    # most one per entry of FD_STEPS; partials: the windows, the jets
    steps = len(tk.objectives.FD_STEPS)
    assert counts["partials"] == 2 and 3 <= counts["values"] <= 2 + steps
    counts.clear()
    points = [(rng.uniform(1.0, 1.9, size=3), int(rng.integers(0, 10)),
               int(rng.integers(0, 2))) for _ in range(50)]
    assert tk.gradient_check(obj, points).checked == 50
    # values: the -inf screen and the fd_partials steps; one partials call
    assert counts["partials"] == 1 and 2 <= counts["values"] <= 1 + steps
