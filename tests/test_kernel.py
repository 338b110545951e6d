"""The batched engines against their per-point reference (tests/reference.py).

Every engine that sweeps a grid is a reduction over one batched objective
call.  On random paths and curves, for every builtin, DSL objectives and
plain per-point callables (loop adapter), the engines must agree with the
per-point loops within 1e-12 relative (absolute below magnitude 1), and
raise the same exception type where the loops raise.  The loops run on the
per-point twin of each objective: the builtins' per-point formulas and the
DSL interpreter, so the numpy formulas are held to them too.
"""

import dataclasses
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
import tvckit as tk
from test_objectives import _described
from tvckit import kernel
from tvckit.errors import InputError, ToolkitError
from tvckit.solvers import _layout, _residuals

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


# (name -> builder(rng, m, lib) returning (objective, path value range)); lib
# is tvckit or the reference module, whose same-named builders make the
# per-point twin
DISCRETE_CASES = {
    "quadlin": lambda rng, m, lib: (lib.quadlin_discrete(_quadlin_params(rng, m)), -1.0, 3.0),
    "household": lambda rng, m, lib: (lib.household_log(0.9, 2), 1.0, 1.9),
    "household-live-n3": lambda rng, m, lib: (lib.household_log(0.8, 3, zero_head=False),
                                              1.0, 1.9),
    "household-walled": lambda rng, m, lib: (lib.household_log(0.9, 1, zero_head=False),
                                             0.2, 1.0),
    "dsl-linear": lambda rng, m, lib: (lib.dsl_discrete_objective(
        "(y0 - a)^2 + b*y1 + g*y2 + d*y3", 3, _constants(rng, m, "abgd")), -1.0, 3.0),
    "dsl-log": lambda rng, m, lib: (lib.dsl_discrete_objective(
        "ln(y0 + y1 - c) * exp(0 - t / 10) + y2 ^ 2 / (1 + y0 ^ 2)", 2,
        _constants(rng, m, "c")), 0.5, 2.0),
    "plain-analytic": lambda rng, m, lib: (_plain(2, True), -1.0, 3.0),
    "plain-fd": lambda rng, m, lib: (_plain(1, False), -1.0, 3.0),
}


def twins(cases, case, seed, m):
    """(rng after the draws, the case built from tvckit, and from the reference)."""
    rng = np.random.default_rng(seed)
    return rng, cases[case](rng, m, tk), cases[case](np.random.default_rng(seed), m, reference)


def _valid_rows(rows, faults):
    """The rows of the one trial vector, or its fault: the DomainError its
    loop form raises."""
    if faults is not None and faults[0][0] is not None:
        raise faults[0][0]
    return rows[0, 0]


def _space(rng, m):
    p = rng.uniform(0.5, 1.5, m)
    return tk.SampleSpace(tuple(p / p.sum()))


@given(seed=st.integers(0, 2**32 - 1), case=st.sampled_from(sorted(DISCRETE_CASES)),
       horizon=st.integers(10, 30), m=st.integers(1, 3))
@settings(max_examples=80, deadline=None, derandomize=True)
def test_discrete_engines_match_reference(seed, case, horizon, m):
    rng, (obj, lo, hi), (ref, _, _) = twins(DISCRETE_CASES, case, seed, m)
    n = obj.order
    space = _space(rng, m)
    domain = tk.TimeDomain.discrete(horizon)
    path = tk.StochasticPath(domain, space, rng.uniform(lo, hi, size=(horizon + 1, m)))
    q = tk.eventually_constant_curve(domain, space, int(rng.integers(0, 4)),
                                     rng.uniform(-1.0, 1.0, size=m))
    last = horizon - n

    # Euler rows: the report, one clipped row, and the Newton rows of one state
    got = outcome(lambda: tk.euler_report(obj, path).residuals)
    want = outcome(lambda: np.stack([reference.discrete_euler_residual(ref, path, t)
                                     for t in range(last + 1)]))
    assert_same_outcome(got, want)
    t = int(rng.integers(0, horizon + 1))
    j_max = int(rng.integers(max(0, t - n), last + 1))
    assert_same_outcome(outcome(tk.discrete_euler_residual, obj, path, t),
                        outcome(reference.discrete_euler_residual, ref, path, t))
    # the row clipped at window j_max, as a tail reads it (kernel.tail_terms)
    j_lo = max(0, t - n)
    clipped = lambda: kernel.euler_rows(kernel.window_partials(obj, path, j_lo, min(t, j_max)))
    assert_same_outcome(outcome(lambda: clipped()[t - j_lo]),
                        outcome(reference.discrete_euler_residual, ref, path, t, j_max))
    w = int(rng.integers(0, m))
    t_lo = int(rng.integers(0, last + 1))
    got = outcome(lambda: _valid_rows(*_residuals(_layout(obj, path.values, [w], t_lo, n),
                                                  path.values[t_lo : last + 1, w].reshape(1, -1))))
    want = outcome(lambda: np.array([reference.discrete_euler_residual(ref, path, t)[w]
                                     for t in range(t_lo, last + 1)]).ravel())
    assert_same_outcome(got, want)

    # tail terms over every truncation, and at one
    got = outcome(lambda: tk.tvc_liminf_discrete(obj, path, q).values)
    want = outcome(lambda: [reference.discrete_tvc_tail(ref, path, q, tp)
                            for tp in range(max(n - 1, 0), last + 1)])
    assert_same_outcome(got, want)
    tprime = int(rng.integers(max(n - 1, 0), last + 1))
    assert_same_outcome(outcome(tk.discrete_tvc_tail, obj, path, q, tprime),
                        outcome(reference.discrete_tvc_tail, ref, path, q, tprime))

    # windowed objective sums
    assert_same_outcome(outcome(tk.truncated_objective, obj, path, tprime),
                        outcome(reference.truncated_objective, ref, path, tprime))
    want = outcome(lambda: sum(tk.expectation(space, [ref.value(path.window(j, n)[:, s, :], j, s)
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
    "quadlin": lambda rng, m, lib: lib.quadlin_continuous(_quadlin_params(rng, m)),
    "dsl": lambda rng, m, lib: lib.dsl_continuous_objective(
        "(x0 - a)^2 + b * x1 + x2 ^ 2 / 2 + ln(x0)", 2, _constants(rng, m, "ab")),
    "plain": lambda rng, m, lib: _plain_continuous(),
}


@given(seed=st.integers(0, 2**32 - 1), case=st.sampled_from(sorted(CONTINUOUS_CASES)),
       h=st.sampled_from([0.02, 0.05, 0.1]), m=st.integers(1, 3))
@settings(max_examples=40, deadline=None, derandomize=True)
def test_jet_sampling_matches_reference(seed, case, h, m):
    rng, obj, ref = twins(CONTINUOUS_CASES, case, seed, m)
    n = obj.order
    space = _space(rng, m)
    domain = tk.TimeDomain.continuous(2.0, h)
    times = domain.times()
    level, amp, freq = (rng.uniform(lo, hi, size=m) for lo, hi in
                        ((1.0, 2.0), (-0.5, 0.5), (0.5, 3.0)))
    path = tk.StochasticPath(domain, space,
                             level + amp * np.sin(freq * times[:, None]))
    jets = reference.jet_paths(path, n)

    P = kernel.PointLayout.jets(obj, path).partials(path.values)
    series = [reference.partial_series(ref, k, jets, times, m, 1) for k in range(n + 1)]
    for k in range(n + 1):
        assert_close(P[:, k], series[k])
    sampled = reference.sampled_values(ref, jets, times, m, 1)
    assert_close(kernel.objective_values(obj, path), sampled)

    want = np.zeros_like(series[0])
    for k in range(n + 1):
        s = series[k]
        for _ in range(k):
            s = np.gradient(s, h, axis=0, edge_order=2)
        want += (-1) ** k * s
    assert_close(tk.continuous_euler_residual_series(obj, path), want)
    per_time = np.array([tk.expectation(space, row) for row in sampled])
    assert_close(tk.objective_value(obj, path), np.trapezoid(per_time, dx=h))


def _smooth_continuous_case(seed, n, m, h, ramp, t_end=4.0):
    """A wall-free DSL objective of order n that reads every slot, a smooth
    random path and a smooth curve (a quintic ramp, or a cosine with no
    vanishing head) on [0, t_end]."""
    rng = np.random.default_rng(seed)
    space = tk.SampleSpace(tuple(np.full(m, 1.0 / m)))
    names = ["a"] + [f"c{k}" for k in range(1, n + 1)]
    source = " + ".join(["a * x0^2", "exp(0.2 * x0)", f"0.1 * x{n}^2"]
                        + [f"c{k} * x{k - 1} * x{k}" for k in range(1, n + 1)])
    obj = tk.dsl_continuous_objective(source, n, _constants(rng, m, names))
    dom = tk.TimeDomain.continuous(t_end, h)
    times = dom.times()[:, None]
    level, amp, freq, phase = (rng.uniform(lo, hi, size=m) for lo, hi in
                               ((0.5, 1.5), (-0.5, 0.5), (0.3, 1.5), (0.0, 3.0)))
    path = tk.StochasticPath(dom, space, level + amp * np.sin(freq * times + phase))
    if ramp:
        curve = tk.quintic_ramp_curve(dom, space, target=rng.uniform(-1.0, 1.0, m))
    else:
        curve = tk.PerturbationCurve(dom, space, amp * np.cos(freq * times))
    return obj, path, curve


@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 4), m=st.integers(1, 3),
       h=st.sampled_from([0.01, 0.02, 0.05]), ramp=st.booleans())
@settings(max_examples=60, deadline=None, derandomize=True)
def test_continuous_engines_match_their_loops(seed, n, m, h, ramp):
    """The one derivative operator and the one running sum give the engines'
    former composed np.gradient chains and trapezoid loop bit for bit."""
    obj, path, curve = _smooth_continuous_case(seed, n, m, h, ramp)
    for k in range(1, n + 1):
        assert np.array_equal(tk.time_derivative(path, k).values,
                              reference._gradient(path.values, h, k))
    assert np.array_equal(tk.continuous_euler_residual_series(obj, path),
                          reference.continuous_euler_residual_series(obj, path))
    assert np.array_equal(tk.boundary_bracket_series(obj, path, curve),
                          reference.boundary_bracket_series(obj, path, curve))
    matrix = tk.a_grid(obj, path, curve)
    assert matrix.all_finite
    assert np.array_equal(matrix.values, reference.a_grid_continuous(
        obj, path, curve, matrix.eps_grid, matrix.tprime_grid))


@given(seed=st.integers(0, 2**32 - 1), n=st.integers(0, 3), m=st.integers(1, 3),
       points=st.integers(3, 40), head=st.integers(0, 2),
       extra=st.lists(st.integers(0, 10**6), max_size=6))
@settings(max_examples=80, deadline=None, derandomize=True)
def test_windowed_bracket_matches_the_whole_grid(seed, n, m, points, head, extra):
    """The bracket on one window around each requested row is the whole
    grid's bit for bit: at rows 0, 1, N-2 and N-1, where windows overlap or
    repeat, on grids narrower than one window, and with the curve's head
    pinned to zero in every window holding row 0."""
    h = 0.05
    obj, path, _ = _smooth_continuous_case(seed, n, m, h, False, (points - 1) * h)
    rng = np.random.default_rng(seed)
    amp, freq = rng.uniform(-1.0, 1.0, m), rng.uniform(0.3, 1.5, m)
    curve = tk.PerturbationCurve(path.domain, path.space,
                                 amp * np.sin(freq * path.domain.times()[:, None]) ** 2,
                                 vanishing_head=head)
    rows = [0, 1, points - 2, points - 1] + [e % points for e in extra]
    want = reference.boundary_bracket_series(obj, path, curve)
    assert np.array_equal(tk.boundary_bracket_series(obj, path, curve, rows), want[rows])
    assert np.array_equal(tk.boundary_bracket_series(obj, path, curve), want)
    assert tk.continuous_boundary_term(obj, path, curve, rows[-1] * h) == want[rows[-1]]


@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 3), m=st.integers(1, 3),
       points=st.integers(3, 40), extra=st.lists(st.integers(0, 10**6), max_size=6))
@settings(max_examples=80, deadline=None, derandomize=True)
def test_windowed_residual_matches_the_whole_grid(seed, n, m, points, extra):
    """continuous_euler_residual on one window of 2(2n)+1 rows around its
    row is the whole grid's row bit for bit: at the first and last rows the
    stencils admit and their neighbours, on grids narrower than one window;
    a row closer to an edge is refused as before."""
    h = 0.05
    obj, path, _ = _smooth_continuous_case(seed, n, m, h, False, (points - 1) * h)
    want = tk.continuous_euler_residual_series(obj, path)
    edges = [n - 1, n, n + 1, points - 2 - n, points - 1 - n, points - n]
    for row in [r for r in edges if 0 <= r < points] + [e % points for e in extra]:
        if n <= row <= points - 1 - n:
            assert np.array_equal(tk.continuous_euler_residual(obj, path, row * h), want[row])
        else:
            with pytest.raises(InputError, match="too close to the grid edges"):
                tk.continuous_euler_residual(obj, path, row * h)


def test_tvc_bracket_work_count(monkeypatch):
    """tvc_liminf_continuous makes one partials call, on one window of
    2(2n-1)+1 rows around t = 0 and each truncation, for every state."""
    points = []
    partials = tk.objectives.BoundObjective.partials

    def counted(self, pts):
        points.append(len(pts))
        return partials(self, pts)

    obj = tk.quadlin_continuous(_quadlin_params(np.random.default_rng(0), 2))
    space = tk.SampleSpace((0.4, 0.6))
    dom = tk.TimeDomain.continuous(10.0, 0.01)
    path = tk.StochasticPath(dom, space, 1.0 + 0.1 * np.sin(dom.times()[:, None] + [0.0, 1.0]))
    curve = tk.quintic_ramp_curve(dom, space, target=1.0)
    truncations = [float(t) for t in range(2, 10)]
    monkeypatch.setattr(tk.objectives.BoundObjective, "partials", counted)
    tk.tvc_liminf_continuous(obj, path, curve, truncations)
    assert points == [(1 + len(truncations)) * (2 * (2 * obj.order - 1) + 1) * space.m]


def _recording(obj, seen):
    """obj with its batch functions wrapped to record, at each call, whether
    the points are writeable, whether more than one are C-contiguous and
    whether each slot points[:, k] is."""
    def wrap(fn):
        def recorded(points, t, w):
            seen.append((points.flags.writeable, points.flags.c_contiguous and len(points) > 1,
                         all(points[:, k].flags.c_contiguous for k in range(points.shape[1]))))
            return fn(points, t, w)
        return recorded
    return dataclasses.replace(obj, batch_eval_fn=wrap(obj.batch_eval_fn),
                               batch_partials_fn=wrap(obj.batch_partials_fn))


@pytest.mark.parametrize("kind", ["windows", "jets", "jet_windows-1", "jet_windows-3"])
@pytest.mark.parametrize("broken", [None, "nan", "overflow"])
@given(seed=st.integers(0, 2**32 - 1), m=st.integers(1, 3))
@settings(max_examples=8, deadline=None, derandomize=True)
def test_layout_hands_out_slot_blocks(kind, broken, seed, m):
    """The bound objective gets a layout's points as a read-only view that
    is not C-contiguous, each slot points[:, k] one C-contiguous block, on
    windows, jets and jet windows (one column or three).  values and
    partials are the per-point evaluation's bits (tests/reference.py), -inf
    walls and DomainErrors included, and a series with a NaN or an
    overflowing jet in the table raises the same error with the same text."""
    rng = np.random.default_rng(seed)
    space, points = _space(rng, m), int(rng.integers(8, 30))
    if kind == "windows":  # c = y0 + y1 - y2 <= 0 somewhere: a wall
        obj = tk.household_log(0.9, 2, zero_head=False)
        domain = tk.TimeDomain.discrete(points - 1)
        j_lo = int(rng.integers(0, points - 3))
        j_hi = int(rng.integers(j_lo, points - 2))
        index, h = np.arange(j_lo, j_hi + 1)[:, None], None
    else:  # ln(x0) is -inf at x0 <= 0
        obj = tk.dsl_continuous_objective("ln(x0) + a * x1 + x2 ^ 2 / 2", 2,
                                          _constants(rng, m, "a"))
        domain = tk.TimeDomain.continuous((points - 1) * 0.05, 0.05)
        h = domain.h
        index = (np.arange(points)[:, None] if kind == "jets" else
                 kernel.jet_windows(points, 3, rng.integers(0, points, size=int(kind[-1]))))
    values = rng.uniform(-0.3, 1.5, size=(points, m, 1))
    path = tk.StochasticPath(domain, space, values)
    series = values.copy()
    row, state = int(index[rng.integers(len(index)), rng.integers(index.shape[1])]), rng.integers(m)
    if broken == "nan":
        series[row, state] = np.nan
    elif broken == "overflow":  # finite values whose differences overflow
        series[row, state], series[row - 1 if row else 1, state] = 1.7e308, -1.7e308
    for name in ("values", "partials"):
        seen = []
        recorded = _recording(obj, seen)
        layout = (kernel.PointLayout.windows(recorded, path, index) if kind == "windows"
                  else kernel.PointLayout.jet_windows(recorded, path, index))
        with np.errstate(over="ignore"):  # household's c = y0 + y1 - y2 may overflow
            got = _described(lambda: getattr(layout, name)(series))
            want = _described(lambda: reference.layout_evaluation(obj, series, index, h, name))
        assert got == want, (name, got[:1] + got[2:], want[:1] + want[2:])
        assert set(seen) <= {(False, False, True)}
        assert seen or got[0] == "raised"


def test_short_grid_refuses_a_non_finite_series_first():
    """On a grid too short to differentiate, a jet layout refuses a series
    that is not finite before it refuses the grid, as the path would be."""
    obj = tk.quadlin_continuous(tk.QuadLinParams((1.0,), (0.5,), (0.2,)))
    path = tk.StochasticPath(tk.TimeDomain.continuous(0.5, 0.5), tk.SampleSpace((1.0,)),
                             [[1.0], [2.0]])
    layout = kernel.PointLayout.jets(obj, path)
    with pytest.raises(InputError, match="path values must all be finite"):
        layout.values(np.array([[[1.0]], [[np.inf]]]))
    with pytest.raises(InputError, match="at least 3 grid points, got 2"):
        layout.values(path.values)


# (name -> builder(rng, m) returning (objective, domain kind, path level, path
# slope)): a path level + slope * t + noise, walled where the objective is
# -inf; "view" objectives return a view of the points they are given
A_GRID_CASES = {
    "quadlin": lambda rng, m: (tk.quadlin_discrete(_quadlin_params(rng, m)), "discrete", 1.0, 0.0),
    "household": lambda rng, m: (tk.household_log(0.9, 2), "discrete", 1.5, 0.0),
    "household-walled": lambda rng, m: (tk.household_log(0.9, 1, zero_head=False),
                                        "discrete", 0.6, 0.0),
    "dsl-log": lambda rng, m: (tk.dsl_discrete_objective(
        "ln(y0 + y1 - c) * exp(0 - t / 10) + y2 ^ 2 / (1 + y0 ^ 2)", 2,
        _constants(rng, m, "c")), "discrete", 1.2, 0.0),
    "dsl-view": lambda rng, m: (tk.dsl_discrete_objective("y1", 1), "discrete", 1.0, 0.0),
    "quadlin-c": lambda rng, m: (tk.quadlin_continuous(_quadlin_params(rng, m)),
                                 "continuous", 1.0, 0.0),
    "dsl-ln-wall": lambda rng, m: (tk.dsl_continuous_objective("ln(x0) + a * x1 + x2", 2,
                                                               _constants(rng, m, "a")),
                                   "continuous", 1.0, -0.3),
    "dsl-view-c": lambda rng, m: (tk.dsl_continuous_objective("x0", 1), "continuous", 1.0, 0.0),
}


def _a_grid_case(case, seed, horizon, m, wide):
    """A random a_grid input: objective, path, curve, eps grid and T' grid."""
    rng = np.random.default_rng(seed)
    obj, kind, level, slope = A_GRID_CASES[case](rng, m)
    space = _space(rng, m)
    if kind == "discrete":
        domain = tk.TimeDomain.discrete(horizon)
        onset = int(rng.integers(0, 4))
        value = rng.uniform(-1.0, 1.0, size=m)
        q = (tk.eventually_constant_curve(domain, space, onset, value) if rng.random() < 0.5
             else tk.compact_support_curve(domain, space, onset, onset + 3, value))
        last = horizon - obj.order
        tprimes = sorted(rng.choice(last + 1, size=min(6, last + 1), replace=False).tolist())
    else:
        domain = tk.TimeDomain.continuous(horizon / 5, 0.05)
        q = tk.quintic_ramp_curve(domain, space, target=rng.uniform(-1.0, 1.0, m))
        steps = sorted(rng.choice(np.arange(1, domain.num_points), size=6, replace=False))
        tprimes = [round(int(k) * domain.h, 12) for k in steps]
    t = domain.times()[:, None]
    noise = rng.uniform(-0.2, 0.2, size=(domain.num_points, m)) if kind == "discrete" else 0.0
    path = tk.StochasticPath(domain, space, level + slope * t + noise
                             + 0.1 * np.sin(rng.uniform(0.5, 2.0, m) * t))
    eps_grid = (2.0, 0.5, 0.1, 0.01) if wide else tk.diagnostics.DEFAULT_EPS_GRID
    return obj, path, q, eps_grid, tprimes


@given(seed=st.integers(0, 2**32 - 1), case=st.sampled_from(sorted(A_GRID_CASES)),
       horizon=st.integers(10, 30), m=st.integers(1, 3), wide=st.booleans())
@settings(max_examples=80, deadline=None, derandomize=True)
def test_a_grid_matches_per_eps_reference(seed, case, horizon, m, wide):
    """a_grid on its one point layout gives the per-eps perturb loop's values
    and statuses bit for bit, walls and refusals included."""
    args = _a_grid_case(case, seed, horizon, m, wide)
    got = outcome(tk.a_grid, *args)
    want = outcome(reference.a_grid, *args)
    assert got[0] == want[0], (got, want)
    if got[0] == "raised":
        assert got[1] is want[1]
        return
    values, status = want[1]
    assert np.array_equal(got[1].values, values, equal_nan=True)
    assert (got[1].status == status).all()


class _CountingFloat(float):
    """A float that counts the powers taken of it."""

    def __pow__(self, other):
        self.powers += 1
        return float(self) ** other


def _count_calls(monkeypatch, calls, cls, name):
    """Count the calls of cls.name in calls[name]."""
    method = getattr(cls, name)

    def counted(self, *args):
        calls[name] += 1
        return method(self, *args)

    monkeypatch.setattr(cls, name, counted)


def _count_expectations(monkeypatch, calls):
    """Count the calls of core.expectation, under every module's name for it,
    in calls["expectation"]."""
    expectation = tk.core.expectation

    def counted(*args):
        calls["expectation"] += 1
        return expectation(*args)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "tvckit" and getattr(module, "expectation", None) is expectation:
            monkeypatch.setattr(module, "expectation", counted)


@pytest.mark.parametrize("case", ["household", "dsl-log", "quadlin", "quadlin-c", "dsl-ln-wall"])
def test_a_grid_work_count(case, monkeypatch):
    """One a_grid call binds the objective once (its one PointLayout) and
    makes one values call for the base and one per eps, and builds no path;
    variation_decomposition_check reads its +-eps pair and its partials
    from one layout, one bind.  household takes discount**t once per bind,
    and the DSL gathers its constants in its bind alone
    (test_table_work_stays_in_bind).  a_grid takes one core.expectation per
    eps, the decomposition check one per truncated sum, one for its rows and
    one for its tail: the report's bits are those of one reduction per eps."""
    calls = {"bind": 0, "values": 0, "partials": 0, "__post_init__": 0, "expectation": 0}
    obj, path, q, eps_grid, tprimes = _a_grid_case(case, 7, 20, 2, False)
    discount = _CountingFloat(0.9)
    discount.powers = 0
    if case == "household":
        obj = tk.household_log(discount, 2)
    _count_calls(monkeypatch, calls, tk.objectives._Objective, "bind")
    for name in ("values", "partials"):
        _count_calls(monkeypatch, calls, tk.objectives.BoundObjective, name)
    _count_calls(monkeypatch, calls, tk.StochasticPath, "__post_init__")
    _count_expectations(monkeypatch, calls)
    tk.a_grid(obj, path, q, eps_grid, tprimes)
    assert calls == {"bind": 1, "values": 1 + len(eps_grid), "partials": 0, "__post_init__": 0,
                     "expectation": len(eps_grid)}
    if path.domain.kind == "discrete":
        tk.variation_decomposition_check(obj, path, q)
        assert calls == {"bind": 2, "values": 3 + len(eps_grid), "partials": 1,
                         "__post_init__": 0, "expectation": 4 + len(eps_grid)}
    assert discount.powers == (calls["bind"] if case == "household" else 0)


@pytest.mark.parametrize("case", ["household", "dsl-log", "quadlin"])
def test_domination_work_count(case, monkeypatch):
    """One domination_check call binds the objective once (its one
    PointLayout of the sampled windows, repeated times included) and makes
    one values call for the base and one per eps, and builds no path."""
    calls = {"bind": 0, "values": 0, "partials": 0, "__post_init__": 0}
    obj, path, q, _, _ = _a_grid_case(case, 7, 20, 2, False)
    _count_calls(monkeypatch, calls, tk.objectives._Objective, "bind")
    for name in ("values", "partials"):
        _count_calls(monkeypatch, calls, tk.objectives.BoundObjective, name)
    _count_calls(monkeypatch, calls, tk.StochasticPath, "__post_init__")
    report = tk.domination_check(obj, path, q, 0.1, [9, 3, 9, 0])
    assert len(report.entries) == 4 * path.space.m
    assert calls == {"bind": 1, "values": 1 + tk.diagnostics.DOMINATION_N_EPS, "partials": 0,
                     "__post_init__": 0}


def test_newton_binds_once_per_layout(monkeypatch):
    """Newton binds the objective once per _layout, that is once per set of
    iterating states (state 1 stops two passes before state 0 here, so two
    layouts), plus once for the guess check, and household takes
    discount**t once per bind; with no wall no other bind is made."""
    calls = {"bind": 0, "_layout": 0}
    discount = _CountingFloat(0.9)
    discount.powers = 0
    obj = tk.household_log(discount, 2, zero_head=False)
    _count_calls(monkeypatch, calls, tk.objectives._Objective, "bind")
    layout = tk.solvers._layout

    def counted_layout(*args):
        calls["_layout"] += 1
        return layout(*args)

    monkeypatch.setattr(tk.solvers, "_layout", counted_layout)
    space = tk.SampleSpace((0.5, 0.5))
    gv = np.interp(np.arange(43.0), [0, 1, 41, 42], [1.0, 1.0, 0.2, 0.1])
    guess = tk.StochasticPath(tk.TimeDomain.discrete(42), space,
                              np.stack([gv, np.full(43, 1.0)], axis=1))
    spec = tk.SolveSpec(horizon=40, guess=guess, mode="fixed", head=np.ones((2, 2)),
                        tail=np.array([[0.2, 0.5], [0.1, 0.5]]))
    _, rep = tk.newton_euler_solve(obj, spec)
    assert rep.converged and rep.iterations == (24, 22)
    assert calls == {"bind": 1 + 2, "_layout": 2}
    assert discount.powers == calls["bind"]


def test_brute_force_binds_once_per_slab_size(monkeypatch):
    """brute_force_solve binds the objective once per state and slab size:
    41^3 combinations run in slabs of 9, 9, 9, 9 and 5 values of the first
    grid, so two binds per state, plus objective_value's; every window
    touches a free index, so no base-part bind.  household takes discount**t
    once per bind."""
    calls = {"bind": 0}
    discount = _CountingFloat(0.9)
    discount.powers = 0
    obj = tk.household_log(discount, 2)
    _count_calls(monkeypatch, calls, tk.objectives._Objective, "bind")
    base = tk.StochasticPath.constant(tk.TimeDomain.discrete(6), tk.SampleSpace((0.5, 0.5)), 1.0)
    tk.brute_force_solve(obj, base, [2, 3, 4], [np.linspace(0.5, 1.5, 41)] * 3)
    assert tk.solvers.BRUTE_FORCE_CHUNK // 41**2 == 9
    assert calls == {"bind": 2 * 2 + 1}
    assert discount.powers == calls["bind"]


DOMINATION_CASES = {
    "quadlin": DISCRETE_CASES["quadlin"],
    "household": DISCRETE_CASES["household"],
    "household-walled": DISCRETE_CASES["household-walled"],
    "dsl-log": DISCRETE_CASES["dsl-log"],
    "plain-analytic": DISCRETE_CASES["plain-analytic"],
    # on the constant path 1 the quotient grows like eps^-1/2 past the onset
    "dsl-kink": lambda rng, m, lib: (lib.dsl_discrete_objective("sqrt(abs(y0 - 1)) + y1", 1),
                                     1.0, 1.0),
}


def _domination_outcomes(case, seed, horizon, m, eps_bar, same_arithmetic):
    """(engine, loop) outcomes of domination_check on one random input.

    With same_arithmetic the loop calls obj.value, the batched formula at one
    point.  Otherwise it calls the per-point twin: a domination quotient
    divides the difference of two values by eps down to 1e-6 eps_bar, which
    turns a last-bit difference between numpy's and libm's log or pow into a
    gap near 1e-9 and can flip a growth flag.
    """
    rng, (obj, lo, hi), (twin, _, _) = twins(DOMINATION_CASES, case, seed, m)
    space = _space(rng, m)
    domain = tk.TimeDomain.discrete(horizon)
    path = tk.StochasticPath(domain, space, rng.uniform(lo, hi, size=(horizon + 1, m)))
    q = tk.eventually_constant_curve(domain, space, int(rng.integers(0, 4)),
                                     rng.uniform(-1.0, 1.0, size=m))
    # up to 5 sample times; the largest possible one is past the last window
    times = rng.integers(0, horizon - obj.order + 2, size=int(rng.integers(0, 6))).tolist()
    return (outcome(tk.domination_check, obj, path, q, eps_bar, times),
            outcome(reference.domination_check, obj if same_arithmetic else twin,
                    path, q, eps_bar, times))


DOMINATION_INPUTS = dict(seed=st.integers(0, 2**32 - 1), horizon=st.integers(10, 20),
                         m=st.integers(1, 3), eps_bar=st.sampled_from([0.01, 0.1, 0.5, 2.0]))


@pytest.mark.parametrize("case", sorted(DOMINATION_CASES))
@given(**DOMINATION_INPUTS)
@settings(max_examples=25, deadline=None, derandomize=True)
def test_domination_matches_reference(case, seed, horizon, m, eps_bar):
    got, want = _domination_outcomes(case, seed, horizon, m, eps_bar, True)
    assert got[0] == want[0], (got, want)
    if got[0] == "raised":
        assert got[1] is want[1]
        return
    got, want = got[1], want[1]
    assert got.verdict == want.verdict
    assert got.eps_grid == want.eps_grid
    assert len(got.entries) == len(want.entries)
    for g, e in zip(got.entries, want.entries):
        assert (g.t, g.state, g.eps_at_sup) == (e.t, e.state, e.eps_at_sup)
        assert (g.domain_flagged, g.growth_flagged) == (e.domain_flagged, e.growth_flagged)
        if e.sup_abs is None:
            assert g.sup_abs is None
        else:
            assert abs(g.sup_abs - e.sup_abs) <= REL * abs(e.sup_abs)


@pytest.mark.parametrize("case", sorted(DOMINATION_CASES))
@given(**DOMINATION_INPUTS)
@settings(max_examples=25, deadline=None, derandomize=True)
def test_domination_close_to_reference_per_point(case, seed, horizon, m, eps_bar):
    """With the per-point twin in the loop, the sups agree up to a value
    gap of 1e-13 divided by the smallest eps; flags are not compared, since
    such a gap can in principle tip a growth test."""
    got, want = _domination_outcomes(case, seed, horizon, m, eps_bar, False)
    assert got[0] == want[0], (got, want)
    if got[0] == "raised":
        assert got[1] is want[1]
        return
    got, want = got[1], want[1]
    slack = 1e-13 / min(want.eps_grid)
    for g, e in zip(got.entries, want.entries, strict=True):
        assert g.domain_flagged == e.domain_flagged
        if e.sup_abs is not None:
            assert abs(g.sup_abs - e.sup_abs) <= REL * abs(e.sup_abs) + slack


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
                   lambda: kernel.objective_values(obj, path, 9),
                   lambda: tk.newton_euler_solve(obj, tk.SolveSpec(horizon=9, guess=path))):
        with pytest.raises(InputError, match="dimension"):
            engine()
