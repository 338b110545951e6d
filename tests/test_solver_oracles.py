"""The batched solvers and oracles against their loop forms (tests/reference.py).

The Newton Jacobian groups columns whose times lie 2n+1 apart and evaluates
every perturbed vector in one batched call; it must equal the column-by-column
Jacobian bit for bit.  Newton advances every state in lockstep; its paths,
reports and raised errors must equal the state-by-state loop's bit for bit.
The brute-force oracle scores slabs of grid combinations in one batched
call, each window once per combination of the free values inside it; it
must pick the same combination as the per-point loop, ties and -inf
combinations included, with the same sums.
gradient_check and correspondence_check evaluate every sample in a few
batched calls; their reports must equal the sample-by-sample loops' bit for
bit.  A work-count guard pins the number of batched objective calls, so a
return to per-column or per-point evaluation fails here.
"""

import collections
import dataclasses
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference
import tvckit as tk
from tvckit import kernel, solvers
from tvckit.errors import DomainError, NumericalError, ToolkitError
from test_kernel import _constants, _plain, _quadlin_params, _space

M = 2  # states of every case, unless a test asks for another count


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


# (name -> builder(rng, m) returning (objective, path value range) for m states)
CASES = {
    "quadlin": lambda rng, m=M: (tk.quadlin_discrete(_quadlin_params(rng, m)), -1.0, 3.0),
    "household-live": lambda rng, m=M: (tk.household_log(0.9, 2, zero_head=False), 1.0, 1.9),
    "dsl-order3": lambda rng, m=M: (tk.dsl_discrete_objective(
        "(y0 - a)^2 * (1 + y1^2) + b*y2*y0 + g*ln(y3 + 2) + d*y3", 3,
        _constants(rng, m, "abgd")), -1.0, 3.0),
    "dim2": lambda rng, m=M: (_dim2(), -1.0, 2.0),
    "plain-fd": lambda rng, m=M: (_plain(2, False), -1.0, 3.0),
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
    out = rng.uniform(lo, hi, size=(horizon + n + 1, M, dim))
    t_lo, w = int(rng.integers(0, horizon + 1)), int(rng.integers(0, M))

    def residuals(U):
        rows, faults = solvers._residuals(solvers._layout(obj, out, np.full(len(U), w), t_lo, n), U)
        assert faults is None
        return rows[:, 0]

    u = out[t_lo : horizon + 1, w].ravel()
    member, band, pick = solvers._stencil_layout(u.size, n, dim)
    h = solvers.JAC_FD_STEP * np.maximum(1.0, np.abs(u[None]))
    rows, faults = solvers._residuals(solvers._layout(obj, out, [w], t_lo, n, member), u[None], h)
    assert faults is None
    got = np.zeros((u.size, u.size))
    got.reshape(-1)[band] = solvers._jacobians(rows, h, pick[:, None])[0]
    want = reference.fd_jacobian(lambda v: residuals(v[None])[0], u)
    np.testing.assert_array_equal(rows[0, 0], residuals(u[None])[0])
    np.testing.assert_array_equal(got, want)


@given(data=st.data())
@settings(max_examples=200, deadline=None, derandomize=True)
def test_layout_gathers_the_window_stack(data):
    """The gather table of _layout against kernel.window_stack and
    kernel.flatten of the trajectories holding each vector: the same
    points, times and states, byte for byte, for any order, dimension, state
    count, t_lo and set of iterating states, with the trial, the stencil or
    both."""
    n, dim, m, T = (data.draw(st.integers(1, 3)), data.draw(st.integers(1, 2)),
                    data.draw(st.integers(1, 3)), data.draw(st.integers(0, 6)))
    t_lo = data.draw(st.integers(0, T))
    states = sorted(data.draw(st.sets(st.integers(0, m - 1), min_size=1)))
    trial, stencil = data.draw(st.sampled_from([(True, True), (True, False), (False, True)]))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    out = rng.normal(size=(T + n + 1, m, dim))
    size = (T + 1 - t_lo) * dim
    x, member, h = rng.normal(size=(len(states), size)), None, None
    if stencil:
        member = solvers._stencil_layout(size, n, dim)[0]
        h = solvers.JAC_FD_STEP * np.maximum(1.0, np.abs(x))
    obj = tk.DiscreteObjective(order=n, dim=dim, batch_eval_fn=lambda p, t, w: p[:, 0, 0])
    layout = solvers._layout(obj, out, states, t_lo, n, member, trial)
    # each state's trial, then each group's columns moved by +h, then by -h
    vectors = [x[:, None]] * trial
    if stencil:
        vectors += [np.where(member, (x + h)[:, None], x[:, None]),
                    np.where(member, (x - h)[:, None], x[:, None])]
    vectors = np.concatenate(vectors, axis=1)
    owners = np.repeat(states, vectors.shape[1])
    traj = out[:, owners]
    traj[t_lo : T + 1] = vectors.reshape(len(owners), -1, dim).transpose(1, 0, 2)
    j_lo = max(0, t_lo - n)
    want = kernel.flatten(kernel.window_stack(traj, n, j_lo, T), np.arange(j_lo, T + 1), owners)
    got = solvers._points(layout, x, h), layout[2].t, layout[2].w
    assert [(a.dtype, a.shape, a.tobytes()) for a in got] == [
        (a.dtype, a.shape, a.tobytes()) for a in want]
    assert layout[4] == (len(states), vectors.shape[1], size)


@given(seed=st.integers(0, 2**32 - 1), size=st.integers(1, 6), rotate=st.booleans(),
       kinds=st.lists(st.sampled_from(["concave", "convex", "indefinite", "edge", "zero"]),
                      min_size=1, max_size=4))
@settings(max_examples=200, deadline=None, derandomize=True)
def test_stacked_curvature_equals_per_state(seed, size, rotate, kinds):
    """One eigvalsh call over every state's Jacobian labels each state as
    classifying it alone does: definite and indefinite matrices, a zero
    eigenvalue, and one at the slack's edge, +-1e-10 * scale (exactly on a
    diagonal, within rounding after a rotation), each with or without a
    non-symmetric part."""
    rng = np.random.default_rng(seed)
    jacs = []
    for kind in kinds:
        eig = rng.uniform(0.5, 3.0, size) * rng.choice([1.0, 40.0])
        eig *= 1.0 if kind == "convex" else -1.0
        if kind == "indefinite":
            eig[0] = -eig[0]
        if kind in ("edge", "zero"):
            edge = 1e-10 * max(1.0, float(np.abs(eig).max()))  # on, below or above the slack
            edge *= rng.choice([-1.0, 1.0, 1.0 - 1e-6, 1.0 + 1e-6])
            eig[-1] = 0.0 if kind == "zero" else edge
        q = np.linalg.qr(rng.normal(size=(size, size)))[0] if rotate else np.eye(size)
        skew = rng.normal(size=(size, size)) * rng.choice([0.0, 1.0])
        jacs.append((q * eig) @ q.T + skew - skew.T)
    jacs = np.array(jacs)
    assert (solvers._classify_curvature(jacs)
            == tuple(reference.classify_curvature(jac) for jac in jacs))


def _kinked(rng, m):
    """max(y0 - 1, 0)^2 + b y1 + y2, with finite-difference partials.  A
    row's slot-0 term is flat for y0 <= 1, where the Jacobian has a zero
    column: a state with a free value <= 1 has a singular Jacobian at once,
    one with all free values above 1 takes a step first.  Near the kink the
    partials may not resolve, and the steps may find no decrease."""
    b = rng.uniform(0.1, 1.0, m)

    def values(points, t, w):
        return np.maximum(points[:, 0, 0] - 1.0, 0.0) ** 2 + b[w] * points[:, 1, 0] + points[:, 2, 0]
    return tk.DiscreteObjective(order=2, batch_eval_fn=values), 0.5, 3.0


def _sqrt_wall(rng, m):
    """(y0 - a)^2 + b y1 + 0 sqrt(y0), whose values raise EvalError for y0 < 0.
    A state with a small a has its solution within 1e-6 of 0, so the stencil
    around it raises; whether the state needs that stencil depends on whether
    it has converged.  A state with a large a stays clear of 0."""
    a = np.where(rng.random(m) < 0.5, rng.uniform(1e-7, 9e-7, m), rng.uniform(0.3, 1.0, m))
    b = rng.uniform(0.0, 1e-7, m)
    return tk.dsl_discrete_objective("(y0 - a)^2 + b*y1 + 0*sqrt(y0)", 1,
                                     {"a": tuple(a), "b": tuple(b)}), 0.5, 2.0


def _root_wall(rng, m):
    """(y0 - a)^2 + q (y0 - a)^4 + b y1, raising an error that names the state
    wherever y0 < 0: NumericalError in even states, DomainError in odd ones,
    which the line search takes for a trial outside the domain.  With q > 0 a
    state takes several steps towards a near 0, so states raise at different
    iterations, or converge first; with a < 0 the trials cross 0."""
    a = rng.choice([-1.0, 1.0, 1e6], m) * rng.uniform(1e-7, 9e-7, m)
    q = np.where(rng.random(m) < 0.5, 0.0, rng.uniform(1.0, 50.0, m))
    b = rng.uniform(0.0, 1e-7, m)

    def values(points, t, w):
        below = points[:, 0, 0] < 0.0
        if below.any():
            s = w[np.argmax(below)]
            raise (DomainError if s % 2 else NumericalError)(f"y0 < 0 in state {s}")
        d = points[:, 0, 0] - a[w]
        return d**2 + q[w] * d**4 + b[w] * points[:, 1, 0]

    def partials(points, t, w):
        d = points[:, 0, 0] - a[w]
        return np.stack([2.0 * d + 4.0 * q[w] * d**3, b[w] + 0.0 * d], axis=1)[..., None]
    return tk.DiscreteObjective(order=1, batch_eval_fn=values, batch_partials_fn=partials), 0.5, 2.0


BUILDERS = dict(CASES, kinked=_kinked, **{"sqrt-wall": _sqrt_wall, "root-wall": _root_wall})


def _newton_outcome(solve, obj, spec):
    """Path bytes and the report's repr (floats bit for bit), or the raised
    error's type and message."""
    try:
        path, rep = solve(obj, spec)
    except ToolkitError as exc:
        return "raised", type(exc), str(exc)
    return "ok", path.values.tobytes(), repr(rep)


@given(seed=st.integers(0, 2**32 - 1), case=st.sampled_from(sorted(BUILDERS)),
       m=st.integers(1, 3), fixed=st.booleans(), horizon=st.integers(1, 10),
       max_iterations=st.integers(1, 8),
       gaps=st.lists(st.sampled_from([None, -0.5, 1e-7, 1e-5, 1e-3]), min_size=3, max_size=3))
@settings(max_examples=200, deadline=None, derandomize=True)
# state 1's stencil at the guess leaves the domain; state 2's guess is on the wall
@example(seed=1332478708, case="household-live", m=3, fixed=False, horizon=7,
         max_iterations=6, gaps=[1e-3, 1e-7, -0.5])
# a stencil fails at an accepted trial: a partial at the kink does not resolve
@example(seed=532909620, case="kinked", m=2, fixed=True, horizon=2, max_iterations=5,
         gaps=[None, None, None])
# state 1 fails at an earlier iteration than state 0, whose error wins
@example(seed=2527073326, case="household-live", m=2, fixed=False, horizon=8,
         max_iterations=7, gaps=[1e-5, 1e-7, 1e-5])
@example(seed=752767290, case="kinked", m=3, fixed=True, horizon=4, max_iterations=3,
         gaps=[None, None, None])
# the loop converges without the stencil around its last point, which raises
@example(seed=10, case="sqrt-wall", m=3, fixed=True, horizon=3, max_iterations=2,
         gaps=[None, None, None])
# the stencil around state 1's first step leaves the domain; states 0 and 2
# raise nothing, so state 1's DomainError is raised
@example(seed=204, case="root-wall", m=3, fixed=True, horizon=9, max_iterations=7,
         gaps=[None, None, None])
# state 2 raises at an earlier iteration than state 0, whose error wins
@example(seed=27, case="root-wall", m=3, fixed=True, horizon=9, max_iterations=7,
         gaps=[None, None, None])
# state 1's guess raises; state 0 converges and state 2, which would raise at
# its first step, never iterates, so state 1's DomainError is raised
@example(seed=8, case="root-wall", m=3, fixed=False, horizon=3, max_iterations=8,
         gaps=[None, -0.5, None])
# state 1's guess raises, state 0 raises later and wins
@example(seed=1, case="root-wall", m=2, fixed=False, horizon=3, max_iterations=8,
         gaps=[None, -0.5, None])
# the objective raises DomainError at a trial of state 1, which the line search
# rejects; state 2 raises NumericalError later
@example(seed=2, case="root-wall", m=3, fixed=False, horizon=1, max_iterations=1,
         gaps=[None, None, None])
def test_newton_equals_per_state_loop(seed, case, m, fixed, horizon, max_iterations, gaps):
    """Every state has its own guess, head and tail, so states converge, stop or
    fail at different iterations.  A household guess may have one consumption
    per state equal to its gap: on the wall (in a state other than 0), or so
    close to it that the stencil at the guess leaves the domain, or trials do.
    A root-wall guess may make the objective raise in a state other than 0."""
    rng = np.random.default_rng(seed)
    obj, lo, hi = BUILDERS[case](rng, m)
    n, dim = obj.order, obj.dim
    values = rng.uniform(lo, hi, size=(horizon + n + 1, m, dim))
    k, head, tail = 0, None, None
    if fixed:
        k = int(rng.integers(0, horizon + 1))
        head, tail = values[:k].copy(), values[horizon + 1 :].copy()
    for s, gap in enumerate(gaps[:m]):
        if case == "household-live" and horizon >= 2 and gap is not None and (gap > 0 or s > 0):
            # consumption y_t + y_{t+1} - y_{t+2} = gap, with y_{t+2} free
            t = int(rng.integers(max(0, k - 2), horizon - 1))
            values[t + 2, s] = values[t, s] + values[t + 1, s] - gap
        if case == "root-wall" and gap == -0.5 and s > 0:  # the guess raises in state s
            values[int(rng.integers(0, horizon + 1)), s] = -0.1
    guess = tk.StochasticPath(tk.TimeDomain.discrete(horizon + n), _space(rng, m), values)
    spec = tk.SolveSpec(horizon=horizon, guess=guess, mode="fixed" if fixed else "paper_literal",
                        head=head, tail=tail, max_iterations=max_iterations)
    assert (_newton_outcome(tk.newton_euler_solve, obj, spec)
            == _newton_outcome(reference.newton_euler_solve, obj, spec))


def _fd_log():
    """ln(y0) - y1^2 with finite-difference partials: next to ln's wall no
    step resolves the slot-0 partial."""
    return tk.DiscreteObjective(
        order=1, batch_eval_fn=tk.dsl_discrete_objective("ln(y0) - y1^2", 1).batch_eval_fn)


def _fd_raising_wall():
    """(y0 - 1)^2 + y1 with finite-difference partials, raising DomainError
    wherever y0 < 0: the difference steps around a value in (0, 2^-10) raise."""
    def values(points, t, w):
        if (points[:, 0, 0] < 0.0).any():
            raise DomainError("y0 < 0")
        return (points[:, 0, 0] - 1.0) ** 2 + points[:, 1, 0]
    return tk.DiscreteObjective(order=1, batch_eval_fn=values)


@pytest.mark.parametrize("make, error", [
    # the batched call returns; state 1's trial at the guess is invalid
    (_fd_log, "no finite-difference step resolves slot 0 (t=2, state 1)"),
    # the batched call raises; state 1's redo alone raises at the guess
    (_fd_raising_wall, "y0 < 0"),
])
def test_newton_raises_at_an_invalid_guess(make, error):
    """A state whose partials fail at the guess raises that failure, after
    state 0 has been solved, as the state-by-state loop does."""
    obj = make()
    values = np.ones((5, 2, 1))
    values[2, 1] = 1e-13
    guess = tk.StochasticPath(tk.TimeDomain.discrete(4), tk.SampleSpace((0.5, 0.5)), values)
    spec = tk.SolveSpec(horizon=3, guess=guess)
    got = _newton_outcome(tk.newton_euler_solve, obj, spec)
    assert got == ("raised", DomainError, error)
    assert got == _newton_outcome(reference.newton_euler_solve, obj, spec)


def test_newton_guess_wall_below_a_raising_guess():
    """The batched guess check raises in state 1; state 0's guess has a -inf
    window, and that is the error raised, as checking state by state gives:
    taking every state as unwalled would raise the first pass's generic
    trial-point error instead."""
    def values(points, t, w):
        if ((points[:, 0, 0] < 0.0) & (w == 1)).any():
            raise NumericalError("y0 < 0 in state 1")
        return np.where(points[:, 0, 0] > 100.0, -np.inf,
                        (points[:, 0, 0] - 1.0) ** 2 + points[:, 1, 0])

    obj = tk.DiscreteObjective(order=1, batch_eval_fn=values)
    values_ = np.ones((5, 2, 1))
    values_[2, 0], values_[1, 1] = 200.0, -0.1
    guess = tk.StochasticPath(tk.TimeDomain.discrete(4), tk.SampleSpace((0.5, 0.5)), values_)
    spec = tk.SolveSpec(horizon=3, guess=guess)
    got = _newton_outcome(tk.newton_euler_solve, obj, spec)
    assert got == ("raised", DomainError, "guess violates domain validity in state 0")
    assert got == _newton_outcome(reference.newton_euler_solve, obj, spec)


# builders whose blocks fault: -inf windows, unresolved partials, raised errors
FAULT_BUILDERS = {"kinked": _kinked, "household-live": CASES["household-live"],
                  "fd-log": lambda rng, m: (_fd_log(), 0.5, 2.0),
                  "sqrt-wall": _sqrt_wall, "root-wall": _root_wall}
# where each builder's wall (or kink) lies, in y0
WALLS = {"kinked": 1.0, "fd-log": 0.0, "sqrt-wall": 0.0, "root-wall": 0.0}


def _raised(fn, *args):
    """None if fn returns, else the type and message of the ToolkitError it raises."""
    try:
        fn(*args)
    except ToolkitError as exc:
        return type(exc), str(exc)
    return None


@given(seed=st.integers(0, 2**32 - 1), case=st.sampled_from(sorted(FAULT_BUILDERS)),
       horizon=st.integers(1, 8), gap=st.sampled_from([None, -0.5, 0.0, 1e-13, 1e-7, 1e-5, 1e-3]))
@settings(max_examples=300, deadline=None, derandomize=True)
# an unresolved slot-0 partial at the trial; the stencil has a -inf window
@example(seed=0, case="fd-log", horizon=3, gap=1e-13)
# an unresolved partial in both blocks
@example(seed=4, case="fd-log", horizon=3, gap=1e-13)
# a clean trial whose stencil has a -inf window
@example(seed=0, case="household-live", horizon=3, gap=1e-7)
# a clean trial whose stencil raises EvalError
@example(seed=0, case="sqrt-wall", horizon=3, gap=1e-7)
# both blocks raise DomainError, and so does the batched call
@example(seed=4, case="root-wall", horizon=3, gap=-0.5)
def test_residual_faults_equal_the_loop(seed, case, horizon, gap):
    """The fault _residuals gives each block of one state, its trial and its
    stencil, is what reference.trial_residuals raises on that block's
    vectors alone (type and message), or both are clean; so is what the
    block raises through its own layout, as Newton's fallback evaluates it.
    One value of the trajectory (a household consumption) may lie at or
    near the wall, so that the trial or only its stencil faults.  Clean
    blocks have the loop's rows, bit for bit."""
    rng = np.random.default_rng(seed)
    obj, lo, hi = FAULT_BUILDERS[case](rng, M)
    n, dim = obj.order, obj.dim
    out = rng.uniform(lo, hi, size=(horizon + n + 1, M, dim))
    t_lo, w = int(rng.integers(0, horizon + 1)), int(rng.integers(0, M))
    if gap is not None and case == "household-live":  # y_t + y_{t+1} - y_{t+2} = gap
        t = int(rng.integers(0, horizon + 1))
        out[t + 2, w] = out[t, w] + out[t + 1, w] - gap
    elif gap is not None:
        out[int(rng.integers(0, horizon + n + 1)), w] = WALLS[case] + gap
    x = out[t_lo : horizon + 1, w].reshape(1, -1)
    member = solvers._stencil_layout(x.size, n, dim)[0]
    h = solvers.JAC_FD_STEP * np.maximum(1.0, np.abs(x))
    blocks = (x, np.concatenate([np.where(member, x + h, x), np.where(member, x - h, x)]))
    want = [_raised(reference.trial_residuals, obj, out[:, w], U, t_lo, n, w) for U in blocks]

    def described(faults):
        return [None if f is None else (type(f), str(f)) for f in faults]

    alone = [solvers._layout(obj, out, [w], t_lo, n),
             solvers._layout(obj, out, [w], t_lo, n, member, False)]
    for layout, fault in zip(alone, want):
        try:
            faults = solvers._residuals(layout, x, h)[1]
        except ToolkitError as exc:
            assert (type(exc), str(exc)) == fault
        else:
            assert described((faults or [[None]])[0]) == [fault]
    try:
        rows, faults = solvers._residuals(solvers._layout(obj, out, [w], t_lo, n, member), x, h)
    except ToolkitError as exc:  # the batched call raises what one of the blocks raises
        assert (type(exc), str(exc)) in want
        return
    assert described((faults or [[None, None]])[0]) == want
    for got, U, fault in zip((rows[0, :1], rows[0, 1:]), blocks, want):
        if fault is None:
            np.testing.assert_array_equal(got, reference.trial_residuals(obj, out[:, w], U, t_lo,
                                                                         n, w))


def test_first_unresolved_partial_is_window_major():
    """y0 + [y0 > 1] + y1: no step resolves a slot-0 partial at y0 = 1.
    With y_0 = y_1 = 1, the stencil's first vector moves y_0 and leaves
    window 1 unresolved, its second moves y_1 and leaves window 0: the
    stencil's fault names the first window over all its vectors, t = 0, as
    evaluating the stencil alone does."""
    obj = tk.DiscreteObjective(
        order=1, batch_eval_fn=lambda p, t, w: p[:, 0, 0] + (p[:, 0, 0] > 1.0) + p[:, 1, 0])
    out = np.array([1.0, 1.0, 2.0, 2.0, 2.0])[:, None, None]
    x = out[:4, 0].reshape(1, -1)
    member = solvers._stencil_layout(x.size, 1, 1)[0]
    h = solvers.JAC_FD_STEP * np.maximum(1.0, np.abs(x))
    faults = solvers._residuals(solvers._layout(obj, out, [0], 0, 1, member), x, h)[1]
    stencil = np.concatenate([np.where(member, x + h, x), np.where(member, x - h, x)])
    with pytest.raises(DomainError) as exc:
        reference.trial_residuals(obj, out[:, 0], stencil, 0, 1, 0)
    assert str(faults[0][1]) == str(exc.value) == (
        "no finite-difference step resolves slot 0 (t=0, state 0)")


def test_newton_fallback_call_order():
    """A pass whose batched call raises evaluates each iterating state's
    trial, then its stencil, in their own calls, in state order, and keeps
    what each raises as that block's fault; a pass that does not raise
    makes no per-state call.  Order 1, T = 2: 3 windows per vector, 1 + 2 *
    3 vectors per state.  State 1's solution lies within h of 0, where the
    objective raises (as in root-wall), so the stencil around its first
    step raises; state 1 then has converged and never needs it, while
    state 0 takes 8 steps."""
    a, q, calls = np.array([0.3, 5e-7]), np.array([20.0, 0.0]), []

    def values(points, t, w):
        below = points[:, 0, 0] < 0.0
        calls.append(("values", sorted(set(w.tolist())), len(points)))
        if below.any():
            raise DomainError(f"y0 < 0 in state {w[np.argmax(below)]}")
        d = points[:, 0, 0] - a[w]
        return d**2 + q[w] * d**4 + 1e-8 * points[:, 1, 0]

    def partials(points, t, w):
        calls.append(("partials", sorted(set(w.tolist())), len(points)))
        d = points[:, 0, 0] - a[w]
        return np.stack([2.0 * d + 4.0 * q[w] * d**3, 1e-8 + 0.0 * d], axis=1)[..., None]

    obj = tk.DiscreteObjective(order=1, batch_eval_fn=values, batch_partials_fn=partials)
    guess = tk.StochasticPath.constant(tk.TimeDomain.discrete(3), tk.SampleSpace((0.5, 0.5)), 1.0)
    _, rep = tk.newton_euler_solve(obj, tk.SolveSpec(horizon=2, guess=guess, tolerance=1e-8))
    assert rep.converged and rep.iterations == (8, 1)
    # the guess check, the start, the raising pass and its fallback (state
    # 1's stencil raises in its values call), then state 0's last 7 passes
    assert calls == ([("values", [0, 1], 6), ("values", [0, 1], 42), ("partials", [0, 1], 42),
                      ("values", [0, 1], 42)]
                     + [("values", [0], 3), ("partials", [0], 3),
                        ("values", [0], 18), ("partials", [0], 18),
                        ("values", [1], 3), ("partials", [1], 3), ("values", [1], 18)]
                     + [("values", [0], 21), ("partials", [0], 21)] * 7)


@pytest.mark.parametrize("a, state", [((1.0, 0.0), 1), ((0.0, 1.0), 0), ((0.0, 0.0), 0)])
def test_newton_singular_state_after_a_batched_solve(monkeypatch, a, state):
    """a = 0 leaves a state's Jacobian singular: the batched solve raises, and
    solving the states one by one names the lowest singular state, as the
    state-by-state loop does."""
    solves = []

    def solve(jac, rhs, solve=np.linalg.solve):
        solves.append(jac.shape)
        return solve(jac, rhs)

    monkeypatch.setattr(np.linalg, "solve", solve)
    obj = tk.dsl_discrete_objective("a*y0^2 + y1", 1, {"a": a})
    guess = tk.StochasticPath.constant(tk.TimeDomain.discrete(6), tk.SampleSpace((0.5, 0.5)), 1.0)
    spec = tk.SolveSpec(horizon=5, guess=guess)
    got = _newton_outcome(tk.newton_euler_solve, obj, spec)
    assert got == ("raised", NumericalError, f"singular Jacobian in state {state}: Singular matrix")
    # the batched solve of both states, then state by state up to the singular one
    assert solves == [(2, 6, 6)] + [(6, 6)] * (state + 1)
    monkeypatch.undo()
    assert got == _newton_outcome(reference.newton_euler_solve, obj, spec)


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


# (name -> builder(rng) returning (objective, path value range)), orders 1 to 3
SLAB_CASES = {
    "plain-order1": lambda rng: (_plain(1, False), -1.0, 3.0),
    "household-live": CASES["household-live"],
    "dsl-order3": CASES["dsl-order3"],
    "plateau": lambda rng: (_plateau(), -1.0, 1.0),
}


@given(seed=st.integers(0, 2**32 - 1), case=st.sampled_from(sorted(SLAB_CASES)),
       free=st.integers(4, 6), chunk=st.integers(1, 40))
@settings(max_examples=30, deadline=None, derandomize=True)
def test_brute_force_slabs_equal_loop(seed, case, free, chunk):
    """4 to 6 free indices, some adjacent (sharing windows) and some spread
    apart, in shuffled grid order, searched in slabs of at most `chunk`
    combinations."""
    rng = np.random.default_rng(seed)
    obj, lo, hi = SLAB_CASES[case](rng)
    n = obj.order
    gaps = rng.choice([1, 1, 2, n + 2], size=free - 1)
    free_indices = rng.permutation(int(rng.integers(0, 3)) + np.concatenate([[0],
                                                                             np.cumsum(gaps)]))
    domain = tk.TimeDomain.discrete(int(free_indices.max()) + int(rng.integers(0, n + 2)))
    space = tk.SampleSpace((0.4, 0.6))
    base = tk.StochasticPath(domain, space,
                             rng.uniform(lo, hi, size=(domain.num_points, M, obj.dim)))
    grids = [np.round(rng.uniform(lo - 0.5, hi + 0.5, size=int(rng.integers(2, 4))), 1)
             for _ in range(free)]
    with mock.patch.object(solvers, "BRUTE_FORCE_CHUNK", chunk):
        got = _outcome(tk.brute_force_solve, obj, base, free_indices, grids)
    _assert_same_result(got, _outcome(reference.brute_force_solve, obj, base,
                                      free_indices, grids))


def _plateau():
    """Integer-valued, with its maximum 0 wherever the middle free value is
    near 0: most grid combinations tie with another, in every slab."""
    return tk.DiscreteObjective(order=1, eval_fn=lambda p, t, w:
                                -float(round(abs(p[0, 0] * p[1, 0]))))


@pytest.mark.parametrize("make, values, grid, infeasible", [
    # ties inside and across slabs of BRUTE_FORCE_CHUNK combinations: the first wins
    (_plateau, 0.0, np.linspace(-1.0, 1.0, 11), False),
    # household: -inf combinations where consumption is not positive
    (lambda: tk.household_log(0.9, 2, zero_head=False), 1.0, np.linspace(0.1, 2.1, 11), False),
    # every combination is -inf
    (lambda: tk.household_log(0.9, 2, zero_head=False), 0.1, np.linspace(3.0, 4.0, 11), True),
])
def test_brute_force_ties_and_walls(monkeypatch, space, make, values, grid, infeasible):
    # 11^3 combinations in slabs of 9 x 11 and 2 x 11
    monkeypatch.setattr(solvers, "BRUTE_FORCE_CHUNK", 100)
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
    """obj with its batched forms wrapped in call counters; points[name] adds up
    the points each call evaluates."""
    counts, points = collections.Counter(), collections.Counter()

    def counted(name, fn):
        def call(*args):
            counts[name] += 1
            points[name] += len(args[0])
            return fn(*args)
        return call

    obj = dataclasses.replace(obj, batch_eval_fn=counted("values", obj.batch_eval_fn),
                              batch_partials_fn=counted("partials", obj.batch_partials_fn))
    return obj, counts, points


def _household_solve_counts(space, guess_1, tail_1):
    """Newton on household T = 40, state 0 from the interpolated guess and
    state 1 from guess_1 (None: the same) with tail_1; returns (iterations,
    batched calls, points evaluated)."""
    obj, counts, points = _counting(tk.household_log(0.9, 2, zero_head=False))
    dom = tk.TimeDomain.discrete(42)
    gv = np.interp(np.arange(43.0), [0, 1, 41, 42], [1.0, 1.0, 0.2, 0.1])
    gv_1 = gv if guess_1 is None else np.full(43, guess_1)
    guess = tk.StochasticPath(dom, space, np.stack([gv, gv_1], axis=1))
    spec = tk.SolveSpec(horizon=40, guess=guess, mode="fixed", head=np.ones((2, 2)),
                        tail=np.array([[0.2, tail_1[0]], [0.1, tail_1[1]]]))
    _, rep = tk.newton_euler_solve(obj, spec)
    assert rep.converged
    return rep.iterations, dict(counts), dict(points)


def _lockstep_points(iterations):
    """Points of the batched calls: a state takes part in 1 + its iterations
    passes, each with 1 + 2 * 5 vectors (a trial and its stencil) of 41
    windows; the guess check has 41 windows per state."""
    passes = 2 + sum(iterations)
    return {"values": 41 * (2 + 11 * passes), "partials": 41 * 11 * passes}


def test_household_solve_batched_call_count(monkeypatch, space):
    solves = []

    def solve(jac, rhs, solve=np.linalg.solve):
        solves.append(jac.shape)
        return solve(jac, rhs)

    monkeypatch.setattr(np.linalg, "solve", solve)
    iterations, counts, points = _household_solve_counts(space, None, (0.2, 0.1))
    assert iterations == (24, 24)
    # one values call for the guess check, then one values and one partials
    # call per pass over the states: the start, and 24 trials, each accepted
    # at once
    assert counts == {"values": 1 + 1 + 24, "partials": 1 + 24}
    assert points == _lockstep_points(iterations)
    # one batched solve per pass that leaves a state iterating: all but the last
    assert solves == [(2, 39, 39)] * 24


def test_household_solve_rejected_step_call_count():
    """State 0 spends far more at t = 0 than later (c_0 = 1, c_t = 0.2 *
    0.99^t), so its first full Newton step takes c_0 below 0.  That pass
    still makes one values call over both states' trials and stencils, in
    which every vector of state 0 has a -inf window, and one partials call
    over state 1's vectors only; state 0's step is halved.  Order 1, T = 10:
    11 windows per vector, 1 + 2 * 3 vectors per state."""
    obj, calls = tk.household_log(0.99, 1, zero_head=False), []

    def recorded(name, fn):
        def call(points, t, w):
            out = fn(points, t, w)
            walled = np.isneginf(out) if name == "values" else np.zeros(len(points), bool)
            calls.append((name, len(points), sorted(set(w.tolist())),
                          sorted(set(w[walled].tolist()))))
            return out
        return call

    obj = dataclasses.replace(obj, batch_eval_fn=recorded("values", obj.batch_eval_fn),
                              batch_partials_fn=recorded("partials", obj.batch_partials_fn))
    spend = np.stack([np.r_[1.0, 0.2 * 0.99 ** np.arange(1, 11)], np.full(11, 0.5)], axis=1)
    y = 10.0 - np.concatenate([np.zeros((1, 2)), np.cumsum(spend, axis=0)])
    guess = tk.StochasticPath(tk.TimeDomain.discrete(11), tk.SampleSpace((0.5, 0.5)), y)
    spec = tk.SolveSpec(horizon=10, guess=guess, mode="fixed", head=y[:1], tail=y[11:])
    _, rep = tk.newton_euler_solve(obj, spec)
    assert rep.converged and rep.iterations == (7, 3)
    both, one = [("values", 154, [0, 1], []), ("partials", 154, [0, 1], [])], [
        ("values", 77, [0], []), ("partials", 77, [0], [])]
    # the guess check, the start, the rejected pass, two passes of both
    # states, then state 0's last five
    assert calls == ([("values", 22, [0, 1], [])] + both
                     + [("values", 154, [0, 1], [0]), ("partials", 77, [1], [])]
                     + both * 2 + one * 5)


def test_household_solve_rejected_step_call_count_one_state():
    """State 0 of the test above, alone: in its rejected pass every vector
    has a -inf window (7 walled points among 77), so that pass makes its
    values call and no partials call."""
    obj, calls = tk.household_log(0.99, 1, zero_head=False), []

    def recorded(name, fn):
        def call(points, t, w):
            out = fn(points, t, w)
            walled = int(np.isneginf(out).sum()) if name == "values" else 0
            calls.append((name, len(points), walled))
            return out
        return call

    obj = dataclasses.replace(obj, batch_eval_fn=recorded("values", obj.batch_eval_fn),
                              batch_partials_fn=recorded("partials", obj.batch_partials_fn))
    spend = np.r_[1.0, 0.2 * 0.99 ** np.arange(1, 11)][:, None]
    y = 10.0 - np.concatenate([np.zeros((1, 1)), np.cumsum(spend, axis=0)])
    guess = tk.StochasticPath(tk.TimeDomain.discrete(11), tk.SampleSpace((1.0,)), y)
    spec = tk.SolveSpec(horizon=10, guess=guess, mode="fixed", head=y[:1], tail=y[11:])
    _, rep = tk.newton_euler_solve(obj, spec)
    assert rep.converged and rep.iterations == (7,)
    step = [("values", 77, 0), ("partials", 77, 0)]
    # the guess check, the start, the rejected pass, then 7 accepted trials
    assert calls == [("values", 11, 0)] + step + [("values", 77, 7)] + step * 7


def test_household_solve_lockstep_masking(space):
    """State 1 stops 2 iterations before state 0: the last 2 passes evaluate
    state 0's vectors only."""
    iterations, counts, points = _household_solve_counts(space, 1.0, (0.5, 0.5))
    assert iterations == (24, 22)
    assert counts == {"values": 1 + 1 + 24, "partials": 1 + 24}
    assert points == _lockstep_points(iterations)


def test_brute_force_batched_call_count(space):
    obj, counts, points = _counting(tk.household_log(0.9, 2, zero_head=False))
    base = tk.StochasticPath.constant(tk.TimeDomain.discrete(6), space, 1.0)
    grid = np.linspace(0.1, 2.1, 21)
    tk.brute_force_solve(obj, base, [2, 3, 4], [grid] * 3)
    # 21^3 combinations in one slab per state, then objective_value; every
    # window touches a free index, so no base-part call
    assert solvers.BRUTE_FORCE_CHUNK == 2**14
    assert dict(counts) == {"values": 2 * 1 + 1}
    # windows 0..4 read the free values {2}, {2, 3}, {2, 3, 4}, {3, 4}, {4};
    # objective_value reads the 5 windows of both states
    assert dict(points) == {"values": 2 * (21 + 21**2 + 21**3 + 21**2 + 21) + 2 * 5}


@pytest.mark.parametrize("chunk", [1, 5, 100, 2**14])
@pytest.mark.parametrize("free", [[2, 3, 4], [4, 1, 6], [0, 7]])
def test_brute_force_calls_within_chunk(monkeypatch, space, chunk, free):
    """No batched call of a search evaluates more points than BRUTE_FORCE_CHUNK
    per touched window: a slab never holds more combinations than the chunk."""
    monkeypatch.setattr(solvers, "BRUTE_FORCE_CHUNK", chunk)
    obj, sizes = tk.household_log(0.9, 2, zero_head=False), []

    def values(points, t, w, batch=obj.batch_eval_fn):
        sizes.append(len(points))
        return batch(points, t, w)

    obj = dataclasses.replace(obj, batch_eval_fn=values)
    base = tk.StochasticPath.constant(tk.TimeDomain.discrete(9), space, 1.0)
    grids = [np.linspace(0.1, 2.1, 9), np.linspace(0.5, 1.5, 6), np.linspace(0.2, 1.8, 11)]
    tk.brute_force_solve(obj, base, free, grids[: len(free)])
    touched = {j for t in free for j in range(max(0, t - 2), min(t, 7) + 1)}
    # the last call is objective_value's, over the whole path
    assert len(sizes) > 1 and max(sizes[:-1]) <= chunk * len(touched)


@pytest.mark.parametrize("make", [
    lambda: tk.household_log(0.9, 2),
    lambda: tk.dsl_discrete_objective("a * ln(y0 + y1 - y2) + b * y2 ^ 2", 2,
                                      {"a": (1.0, 0.5), "b": (0.3, 0.7)})])
def test_oracle_batched_call_counts(make):
    obj, counts, _ = _counting(make())
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
