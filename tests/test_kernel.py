"""The batched engines against their per-point reference (tests/reference.py).

Every engine that sweeps a grid is a reduction over one batched objective
call.  On random paths and curves, for every builtin, DSL objectives and
plain per-point callables (loop adapter), the engines must agree with the
per-point loops within 1e-12 relative (absolute below magnitude 1), and
raise the same exception type where the loops raise.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
import tvckit as tk
from tvckit import kernel
from tvckit.errors import InputError, ToolkitError
from tvckit.solvers import _residual_vector

REL = 1e-12


def assert_close(got, want):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    assert got.shape == want.shape
    with np.errstate(invalid="ignore"):  # -inf - -inf where both are -inf
        ok = (got == want) | (np.abs(got - want) <= REL * np.maximum(1.0, np.abs(want)))
    assert ok.all(), f"max gap {np.nanmax(np.abs(got - want))}"


def outcome(fn, *args):
    try:
        return "ok", fn(*args)
    except ToolkitError as exc:
        return "raised", type(exc)


def assert_same_outcome(got, want):
    assert got[0] == want[0], (got, want)
    if got[0] == "ok":
        assert_close(got[1], want[1])
    else:
        assert got[1] is want[1]


def _quadlin_params(rng, m):
    return tk.QuadLinParams(alpha=tuple(rng.uniform(0.5, 2.0, m)),
                            beta=tuple(rng.uniform(0.2, 0.8, m)),
                            gamma=tuple(rng.uniform(0.1, 0.5, m)))


def _constants(rng, m, names):
    return {c: tuple(rng.uniform(0.1, 1.0, m)) for c in names}


def _plain(order, with_partials):
    """A plain per-point objective: no batched form, so the loop adapter runs."""
    def ev(p, t, w):
        return (p[0, 0] - 1.0) ** 2 * (w + 1) + p[order, 0] * (1.0 + 0.1 * t)

    partials = None
    if with_partials:
        partials = tuple(
            (lambda p, t, w: 2.0 * (p[0, 0] - 1.0) * (w + 1)) if k == 0
            else (lambda p, t, w: 1.0 + 0.1 * t) if k == order
            else (lambda p, t, w: 0.0)
            for k in range(order + 1))
    return tk.DiscreteObjective(order=order, eval_fn=ev, partial_fns=partials)


# (name -> builder(rng, m) returning (objective, path value range))
DISCRETE_CASES = {
    "quadlin": lambda rng, m: (tk.quadlin_discrete(_quadlin_params(rng, m)), -1.0, 3.0),
    "household": lambda rng, m: (tk.household_log(0.9, 2), 1.0, 1.9),
    "household-live-n3": lambda rng, m: (tk.household_log(0.8, 3, zero_head=False), 1.0, 1.9),
    "household-walled": lambda rng, m: (tk.household_log(0.9, 1, zero_head=False), 0.2, 1.0),
    "dsl-linear": lambda rng, m: (tk.dsl_discrete_objective(
        "(y0 - a)^2 + b*y1 + g*y2 + d*y3", 3, _constants(rng, m, "abgd")), -1.0, 3.0),
    "dsl-log": lambda rng, m: (tk.dsl_discrete_objective(
        "ln(y0 + y1 - c) * exp(0 - t / 10) + y2 ^ 2 / (1 + y0 ^ 2)", 2,
        _constants(rng, m, "c")), 0.5, 2.0),
    "plain-analytic": lambda rng, m: (_plain(2, True), -1.0, 3.0),
    "plain-fd": lambda rng, m: (_plain(1, False), -1.0, 3.0),
}


def _space(rng, m):
    p = rng.uniform(0.5, 1.5, m)
    return tk.SampleSpace(tuple(p / p.sum()))


@given(seed=st.integers(0, 2**32 - 1), case=st.sampled_from(sorted(DISCRETE_CASES)),
       horizon=st.integers(10, 30), m=st.integers(1, 3))
@settings(max_examples=80, deadline=None, derandomize=True)
def test_discrete_engines_match_reference(seed, case, horizon, m):
    rng = np.random.default_rng(seed)
    obj, lo, hi = DISCRETE_CASES[case](rng, m)
    n = obj.order
    space = _space(rng, m)
    domain = tk.TimeDomain.discrete(horizon)
    path = tk.StochasticPath(domain, space, rng.uniform(lo, hi, size=(horizon + 1, m)))
    q = tk.eventually_constant_curve(domain, space, int(rng.integers(0, 4)),
                                     rng.uniform(-1.0, 1.0, size=m))
    last = horizon - n

    # Euler rows: the report, one clipped row, and the Newton rows of one state
    got = outcome(lambda: tk.euler_report(obj, path).residuals)
    want = outcome(lambda: np.stack([reference.discrete_euler_residual(obj, path, t)
                                     for t in range(last + 1)]))
    assert_same_outcome(got, want)
    t = int(rng.integers(0, horizon + 1))
    j_max = int(rng.integers(max(0, t - n), last + 1))
    assert_same_outcome(outcome(tk.discrete_euler_residual, obj, path, t, j_max),
                        outcome(reference.discrete_euler_residual, obj, path, t, j_max))
    w = int(rng.integers(0, m))
    t_lo = int(rng.integers(0, last + 1))
    got = outcome(_residual_vector, obj, path.values[:, w, :], t_lo, last, n, horizon, w)
    want = outcome(lambda: np.array([reference.discrete_euler_residual(obj, path, t)[w]
                                     for t in range(t_lo, last + 1)]).ravel())
    assert_same_outcome(got, want)

    # tail terms over every truncation, and at one
    got = outcome(lambda: tk.tvc_liminf_discrete(obj, path, q).values)
    want = outcome(lambda: [reference.discrete_tvc_tail(obj, path, q, tp)
                            for tp in range(max(n - 1, 0), last + 1)])
    assert_same_outcome(got, want)
    tprime = int(rng.integers(max(n - 1, 0), last + 1))
    assert_same_outcome(outcome(tk.discrete_tvc_tail, obj, path, q, tprime),
                        outcome(reference.discrete_tvc_tail, obj, path, q, tprime))

    # windowed objective sums
    assert_same_outcome(outcome(tk.truncated_objective, obj, path, tprime),
                        outcome(reference.truncated_objective, obj, path, tprime))
    want = outcome(lambda: sum(tk.expectation(space, [obj.value(path.window(j, n)[:, s, :], j, s)
                                                      for s in range(m)])
                               for j in range(last + 1)))
    assert_same_outcome(outcome(tk.objective_value, obj, path), want)


def _plain_continuous():
    def ev(jet, t, w):
        return jet[0, 0] ** 2 + (w + 1) * jet[1, 0] * t

    return tk.ContinuousObjective(
        order=1, eval_fn=ev,
        partial_fns=(lambda jet, t, w: 2.0 * jet[0, 0], lambda jet, t, w: (w + 1) * t))


CONTINUOUS_CASES = {
    "quadlin": lambda rng, m: tk.quadlin_continuous(_quadlin_params(rng, m)),
    "dsl": lambda rng, m: tk.dsl_continuous_objective(
        "(x0 - a)^2 + b * x1 + x2 ^ 2 / 2 + ln(x0)", 2, _constants(rng, m, "ab")),
    "plain": lambda rng, m: _plain_continuous(),
}


@given(seed=st.integers(0, 2**32 - 1), case=st.sampled_from(sorted(CONTINUOUS_CASES)),
       h=st.sampled_from([0.02, 0.05, 0.1]), m=st.integers(1, 3))
@settings(max_examples=40, deadline=None, derandomize=True)
def test_jet_sampling_matches_reference(seed, case, h, m):
    rng = np.random.default_rng(seed)
    obj = CONTINUOUS_CASES[case](rng, m)
    n = obj.order
    space = _space(rng, m)
    domain = tk.TimeDomain.continuous(2.0, h)
    times = domain.times()
    level, amp, freq = (rng.uniform(lo, hi, size=m) for lo, hi in
                        ((1.0, 2.0), (-0.5, 0.5), (0.5, 3.0)))
    path = tk.StochasticPath(domain, space,
                             level + amp * np.sin(freq * times[:, None]))
    jets = reference.jet_paths(path, n)

    P = kernel.jet_partials(obj, path)
    series = [reference.partial_series(obj, k, jets, times, m, 1) for k in range(n + 1)]
    for k in range(n + 1):
        assert_close(P[:, k], series[k])
    sampled = reference.sampled_values(obj, jets, times, m, 1)
    assert_close(kernel.jet_values(obj, path), sampled)

    want = np.zeros_like(series[0])
    for k in range(n + 1):
        s = series[k]
        for _ in range(k):
            s = np.gradient(s, h, axis=0, edge_order=2)
        want += (-1) ** k * s
    assert_close(tk.continuous_euler_residual_series(obj, path), want)
    per_time = np.array([tk.expectation(space, row) for row in sampled])
    assert_close(tk.objective_value(obj, path), np.trapezoid(per_time, dx=h))


def test_empty_batches(quadlin_d):
    points = np.empty((0, 3, 1))
    t = w = np.empty(0, dtype=int)
    for obj in (quadlin_d, _plain(2, True)):
        assert obj.values_batch(points, t, w).shape == (0,)
        assert obj.partials_batch(points, t, w).shape == (0, 3, 1)


def test_path_dimension_must_match_objective():
    # (y0 - 1)^2 + y1 reads component 0 of each slot; on a dim-2 path whose
    # second component is 5 its partials must not be broadcast over both
    space, dom = tk.SampleSpace((0.5, 0.5)), tk.TimeDomain.discrete(10)
    obj = tk.dsl_discrete_objective("(y0 - 1)^2 + y1", 1, {})
    values = np.ones((11, 2, 2))
    values[..., 1] = 5.0
    path = tk.StochasticPath(dom, space, values)
    for engine in (lambda: tk.euler_report(obj, path),
                   lambda: kernel.window_values(obj, path, 0, 9)):
        with pytest.raises(InputError, match="dimension"):
            engine()
