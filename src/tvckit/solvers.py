"""Finite-horizon stationarity solvers and the discrete/continuous correspondence.

The Newton solver targets stationarity of the truncated objective sum, not
maximality: the built-in quadratic model is convex in each slot and unbounded
above, so its distinguished path is a stationary point only.  Curvature of the
residual system is reported alongside the solution.  A brute-force grid search
over a handful of free scalars serves as an independent oracle on tiny
instances.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import StochasticPath
from .errors import (DomainError, InputError, NumericalError, ToolkitError, UnsupportedError)
from .euler import BoundaryMode
from .kernel import (euler_rows, expected_running_sum, max_window_start, objective_values,
                     slot_major, values_at, window_stack)
from .objectives import (ContinuousObjective, DiscreteObjective, fd_partials, rel_gap,
                         stack_samples)

NEG_INF = float("-inf")

MAX_FREE_VARS = 6
MAX_GRID_COMBOS = 10_000_000
# grid combinations per slab, one batched objective call each, in brute_force_solve
BRUTE_FORCE_CHUNK = 2**14

JAC_FD_STEP = 1e-6
# most bytes the dense per-state Newton Jacobians (m * N^2 float64) may take
JACOBIAN_BUDGET = 2**30


@dataclass(frozen=True)
class SolveSpec:
    """Unknowns, boundary handling and stopping rules for a finite solve.

    paper_literal mode frees y(0..T) and freezes the padding y(T+1..T+n) at the
    guess; fixed mode pins head values y(0..k-1) and tail values y(T+1..T+n)
    explicitly and frees the rest.  The guess path must cover indices 0..T+n.
    """

    horizon: int
    guess: StochasticPath
    mode: str = "paper_literal"          # "paper_literal" | "fixed"
    head: np.ndarray | None = None       # (k, m) or (k, m, dim)
    tail: np.ndarray | None = None       # (n, m) or (n, m, dim)
    tolerance: float = 1e-10
    max_iterations: int = 100

    def __post_init__(self):
        if self.mode not in ("paper_literal", "fixed"):
            raise InputError(f"unknown solve mode {self.mode!r}")
        if self.horizon < 0:
            raise InputError("horizon must be >= 0")
        if not self.tolerance > 0.0 or self.max_iterations < 1:
            raise InputError("need tolerance > 0 and max_iterations >= 1")
        for name in ("head", "tail"):
            arr = getattr(self, name)
            if arr is None:
                continue
            arr = np.asarray(arr, dtype=float)
            if arr.ndim == 2:
                arr = arr[:, :, None]
            if not np.isfinite(arr).all():
                raise InputError(f"{name} values must be finite")
            object.__setattr__(self, name, arr)
        if self.mode == "fixed" and self.tail is None:
            raise InputError("fixed mode needs tail values y(T+1..T+n)")
        if self.tail is not None and len(self.tail) != self.guess.num_points - 1 - self.horizon:
            raise InputError("tail needs one row per padding index y(T+1..T+n)")
        if self.head_len > self.horizon:
            raise InputError("no free indices: head covers the whole horizon")
        if self.mode == "paper_literal" and (self.head is not None or self.tail is not None):
            raise InputError("paper_literal mode takes no fixed head/tail values")
        unknowns = (self.horizon + 1 - self.head_len) * self.guess.dim
        if self.guess.space.m * unknowns**2 * 8 > JACOBIAN_BUDGET:
            raise InputError(f"the dense Newton Jacobians of {self.guess.space.m} states x "
                             f"{unknowns} unknowns exceed the budget of {JACOBIAN_BUDGET} bytes")

    @property
    def head_len(self) -> int:
        return 0 if self.head is None else self.head.shape[0]

    @property
    def boundary(self) -> BoundaryMode:
        """The rows the solve imposes: all of them, or those past a pinned head."""
        if self.mode == "fixed":
            return BoundaryMode.fixed_initial(self.head_len)
        return BoundaryMode.paper_literal()


@dataclass(frozen=True)
class NewtonReport:
    converged: bool
    iterations: tuple[int, ...]          # per state
    max_abs_residual: float
    tolerance: float
    curvature: tuple[str, ...]           # per state: "concave" | "convex" | "indefinite"
    mode: str


def _trial_layout(out, states, t_lo, n):
    """What evaluating K trial vectors of the given states needs besides the
    vectors: their trajectories out[:, states] (T+n+1, K, dim), whose entries
    t_lo..T each evaluation overwrites, and the time and state of each of
    their windows j_lo..T, flattened window-major as kernel.values_at does."""
    states = np.asarray(states)
    times = np.arange(max(0, t_lo - n), len(out) - n)
    return out[:, states], np.repeat(times, len(states)), np.tile(states, len(times))


def _trial_points(traj, U, t_lo, n):
    """The windows j_lo..T of the trial vectors U (K, N), written into traj
    at t_lo..T; flattened window-major, shape (J*K, n+1, dim)."""
    T = len(traj) - 1 - n
    traj[t_lo : T + 1] = U.reshape(len(U), T + 1 - t_lo, -1).transpose(1, 0, 2)
    stack = window_stack(traj, n, max(0, t_lo - n), T)
    return stack.reshape((-1,) + stack.shape[2:])


def _residuals(obj, out, U, states, t_lo, n, layout=None):
    """Rows t_lo..T of the stationarity system at K trial vectors U (K, N):
    vector i holds the entries t_lo..T (flattened) of state states[i], the
    rest comes from out (T+n+1, m, dim).  One values call and one partials
    call on the same flattened windows; a caller evaluating the same states
    again passes their _trial_layout as layout.

    Returns (rows, valid): rows (K, N), and valid (K,) marks the vectors whose
    windows are all finite and whose partials resolve.  Only vectors with
    finite windows reach the partials call; the rows of invalid vectors are nan.
    """
    traj, t, w = layout or _trial_layout(out, states, t_lo, n)
    points = _trial_points(traj, U, t_lo, n)
    count, dim = len(U), out.shape[2]
    windows = len(points) // count
    rows = np.full((count, len(out) - n - t_lo, dim), np.nan)
    valid = np.ones(count, dtype=bool)
    walled = np.isneginf(obj.values_batch(points, t, w))
    if walled.any():
        valid = ~walled.reshape(windows, count).any(axis=0)
        keep = np.tile(valid, windows)
        points, t, w = points[keep], t[keep], w[keep]
    if len(points):
        P, unresolved = _partials_unresolved(obj, points, t, w)
        P = slot_major(P, (windows, len(points) // windows, n + 1, dim))
        rows[valid] = euler_rows(P)[min(t_lo, n) : windows].transpose(1, 0, 2)
        if unresolved.any():
            valid[valid] = ~unresolved.reshape(windows, -1, n + 1).any(axis=(0, 2))
            rows[~valid] = np.nan
    return rows.reshape(count, -1), valid


def _fault(obj, out, U, state, t_lo, n) -> DomainError:
    """The DomainError that evaluating the vectors U of one state together
    raises: a -inf window, else the first unresolved finite-difference partial."""
    traj, t, w = _trial_layout(out, np.full(len(U), state), t_lo, n)
    points = _trial_points(traj, U, t_lo, n)
    if not np.isneginf(obj.values_batch(points, t, w)).any():
        try:
            obj.partials_batch(points, t, w)
        except DomainError as exc:
            return exc
    return DomainError("trial point left the objective's domain")


def _classify_curvature(jac: np.ndarray) -> str:
    sym = 0.5 * (jac + jac.T)
    eig = np.linalg.eigvalsh(sym)
    scale = max(1.0, float(np.abs(eig).max()))
    if (eig <= 1e-10 * scale).all():
        return "concave"
    if (eig >= -1e-10 * scale).all():
        return "convex"
    return "indefinite"


def _stencil_layout(size: int, n: int, dim: int):
    """Curtis-Powell-Reid grouping of the columns of the stationarity system.

    Row time r depends only on times r-n..r+n, so columns whose times lie
    2n+1 apart share no row and are perturbed together.  Returns (member, r,
    c, pick): member (G, size) marks each group's columns, (r, c) are the
    entries of the band, and pick[e] is where entry e's difference lies in
    the flattened (group, row) differences of _jacobians.
    """
    groups = min(size, (2 * n + 1) * dim)
    cols = np.arange(size)
    member = cols % groups == np.arange(groups)[:, None]
    # rows at times within n of each column's time, every component
    offsets = (np.arange(-n, n + 1)[:, None] * dim + np.arange(dim)).ravel()
    rows = (cols - cols % dim) + offsets[:, None]
    inside = (rows >= 0) & (rows < size)
    r, c = rows[inside], np.broadcast_to(cols, rows.shape)[inside]
    return member, r, c, c % groups * size + r


def _fd_step(u: np.ndarray) -> np.ndarray:
    return JAC_FD_STEP * np.maximum(1.0, np.abs(u))


def _stencils(x: np.ndarray, member: np.ndarray) -> np.ndarray:
    """Each row of x (S, N), then the 2G central-difference vectors around it:
    each group's columns moved by +h, then each group's by -h; shape (S,
    1 + 2G, N)."""
    h = _fd_step(x)
    return np.concatenate([x[:, None], np.where(member, (x + h)[:, None], x[:, None]),
                           np.where(member, (x - h)[:, None], x[:, None])], axis=1)


def _jacobians(rows: np.ndarray, x: np.ndarray, pick, c) -> np.ndarray:
    """The band of the central-difference Jacobian at each row of x, from the
    rows (S, 1 + 2G, N) of _stencils(x): entry [s, e] lies at (r[e], c[e]) of
    _stencil_layout, which gives pick.  Each equals the column-by-column
    difference bit for bit."""
    groups = len(rows[0]) // 2
    diffs = rows[:, 1 : groups + 1] - rows[:, groups + 1 :]
    return diffs.reshape(len(rows), -1)[:, pick] / (2.0 * _fd_step(x)[:, c])


def newton_euler_solve(obj: DiscreteObjective, spec: SolveSpec):
    """Damped Newton on the stationarity rows; returns (path, report).

    States decouple (no cross-state coupling in any supported objective), so
    each state's banded system is solved on its own, but every state advances
    in lockstep: one batched call per iteration for all states evaluates each
    iterating state's line-search trial together with the grouped
    central-difference stencil around it, which is the state's next Jacobian
    if the trial is accepted, and one batched np.linalg.solve gives every
    iterating state its next step.  The line search halves a state's step
    while its trial point is domain-invalid or its residual norm fails to
    decrease.  Curvature is read from the Jacobian of each state's last step
    (at the guess if it took none).  Paths, reports and errors are those of
    solving the states one after another: the error raised is the
    lowest-numbered failing state's, and when the objective raises a
    ToolkitError inside a batched call, that iteration is redone state by
    state, evaluating only what solving the state alone would.
    """
    n = obj.order
    T = spec.horizon
    guess = spec.guess
    t_total = guess.domain.t_max
    if guess.domain.kind != "discrete" or t_total != T + n:
        raise InputError(f"guess must live on the discrete grid 0..{T + n}")
    k = spec.head_len
    t_lo = spec.boundary.first_index()
    dim = guess.dim
    m = guess.space.m
    out = np.array(guess.values)
    if spec.mode == "fixed":
        if spec.head is not None:
            out[:k] = spec.head
        out[T + 1 :] = spec.tail

    windows, times = window_stack(out, n, 0, T), np.arange(T + 1)
    try:
        walled = np.isneginf(values_at(obj, windows, times, np.arange(m))).any(axis=0).tolist()
    except ToolkitError:
        walled = None  # the objective raised on some guess: check state by state
    failure, going = None, np.arange(m)  # states iterating
    for s in range(m):
        try:
            if (walled[s] if walled is not None
                    else np.isneginf(values_at(obj, windows[:, s : s + 1], times, [s])).any()):
                raise DomainError(f"guess violates domain validity in state {s}")
        except ToolkitError as exc:
            failure, going = exc, np.arange(s)
            break
    u = out[t_lo : T + 1].transpose(1, 0, 2).reshape(m, -1)
    size = u.shape[1]
    member, r, c, pick = _stencil_layout(size, n, dim)
    trial, res, step = u.copy(), np.empty_like(u), np.empty_like(u)
    norm, iterations, lam = [0.0] * m, [0] * m, np.ones(m)
    # per state, the Jacobian of its last step; only the band is ever written
    jacs = np.zeros((m, size, size))
    converged = True
    first = True
    layout, layout_of = None, None  # the batched call's _trial_layout, and its states
    while len(going):
        x = trial[going]
        vectors = _stencils(x, member)
        states = going.tolist()
        if states != layout_of:
            layout = _trial_layout(out, np.repeat(going, vectors.shape[1]), t_lo, n)
            layout_of = states
        try:
            rows, valid = _residuals(obj, out, vectors.reshape(-1, size), None, t_lo, n, layout)
            rows, valid = rows.reshape(vectors.shape), valid.reshape(vectors.shape[:2])
            # per state: its trial's residual norm, whether the trial is valid,
            # and whether the stencil around it is
            norms = np.abs(rows[:, 0]).max(axis=1).tolist()
            trial_ok, stencil_ok = valid[:, 0].tolist(), valid[:, 1:].all(axis=1).tolist()
            alone = False
        except ToolkitError:  # filled state by state below
            rows = np.full(vectors.shape, np.nan)
            norms, trial_ok, stencil_ok = ([np.nan] * len(states), [False] * len(states),
                                           [False] * len(states))
            alone = True
        accepted, assemble, kept, fresh = [], [], [], []
        for i, s in enumerate(states):
            try:
                if alone:
                    try:
                        rows[i, :1], ok = _residuals(obj, out, x[i][None], [s], t_lo, n)
                        norms[i], trial_ok[i] = float(np.abs(rows[i, 0]).max()), bool(ok[0])
                    except DomainError:  # a trial the line search rejects
                        pass
                if first and not trial_ok[i]:
                    raise _fault(obj, out, x[i][None], s, t_lo, n)
                if not first:
                    if not (trial_ok[i] and (norms[i] < norm[s] or norms[i] <= spec.tolerance)):
                        lam[s] *= 0.5
                        if lam[s] < 1e-12:
                            raise NumericalError(f"no valid Newton step found in state {s}")
                        kept.append(s)
                        continue
                    iterations[s] += 1
                accepted.append(i)
                norm[s] = norms[i]
                iterate = norm[s] > spec.tolerance
                if iterate and iterations[s] >= spec.max_iterations:
                    converged = False
                    continue
                if iterate or iterations[s] == 0:  # a next step, or curvature at the guess
                    if alone:
                        rows[i, 1:], ok = _residuals(obj, out, vectors[i, 1:],
                                                     np.full(len(vectors[i]) - 1, s), t_lo, n)
                        stencil_ok[i] = ok.all()
                    if not stencil_ok[i]:
                        raise _fault(obj, out, vectors[i, 1:], s, t_lo, n)
                    assemble.append(i)
                if iterate:
                    kept.append(s)
                    fresh.append(s)
            except ToolkitError as exc:
                failure = exc
                break
        u[going[accepted]], res[going[accepted]] = x[accepted], rows[accepted, 0]
        if assemble:
            jacs[going[assemble][:, None], r, c] = _jacobians(rows[assemble], x[assemble],
                                                              pick, c)
        going, first = np.array(kept, dtype=int), False
        if fresh:
            try:  # numpy >= 2 reads a 2-D right-hand side as one matrix
                step[fresh] = np.linalg.solve(jacs[fresh], -res[fresh][..., None])[..., 0]
            except np.linalg.LinAlgError:  # the lowest singular state fails, those below step
                for s in fresh:
                    try:
                        step[s] = np.linalg.solve(jacs[s], -res[s])
                    except np.linalg.LinAlgError as exc:
                        failure = NumericalError(f"singular Jacobian in state {s}: {exc}")
                        failure.__cause__ = exc
                        going = going[going < s]
                        break
        lam[fresh] = 1.0
        trial[going] = u[going] + lam[going, None] * step[going]
    if failure is not None:
        raise failure

    out[t_lo : T + 1] = u.reshape(m, -1, dim).transpose(1, 0, 2)
    path = StochasticPath(guess.domain, guess.space, out)
    report = NewtonReport(converged=converged, iterations=tuple(iterations),
                          max_abs_residual=max(0.0, *norm), tolerance=spec.tolerance,
                          curvature=tuple(_classify_curvature(j) for j in jacs), mode=spec.mode)
    return path, report


# ---------------------------------------------------------------------------
# Objective values and the brute-force oracle

def objective_value(obj, path: StochasticPath) -> float:
    """Total expected objective along the path: a sum over full windows in the
    discrete case, a trapezoid integral of the expected sampled value in the
    continuous case.  -inf is an admissible result; +inf is not."""
    return float(expected_running_sum(path, objective_values(obj, path))[-1])


@dataclass(frozen=True)
class BruteForceResult:
    path: StochasticPath
    value: float
    per_state_values: tuple[float, ...]
    grid_resolution: float               # largest grid spacing over all free variables


def _footprint_windows(window, foot, axes):
    """A window's values at every combination of the free values it reads;
    foot maps grid axis -> slot.  Axis a of the result spans axes[a] where
    the window reads it and has length 1 elsewhere; shape (..., n+1)."""
    table = np.empty(tuple(len(g) if a in foot else 1 for a, g in enumerate(axes)) + window.shape)
    table[...] = window
    for a, k in foot.items():
        table[..., k] = axes[a].reshape((-1,) + (1,) * (len(axes) - 1 - a))
    return table


def brute_force_solve(obj: DiscreteObjective, base: StochasticPath,
                      free_indices, grids) -> BruteForceResult:
    """Exhaustive search maximizing the expected objective sum over the free
    time indices, one value grid per index; everything else is pinned to the
    base path.  States are searched independently (no cross-state coupling).

    Combinations run in itertools.product order, in slabs of at most
    BRUTE_FORCE_CHUNK: a slab fixes the leading free values and spans the
    trailing grids.  A window touching a free index depends only on the free
    values inside it (its footprint), so one batched objective call per slab
    scores each window once per combination of its footprint, and a slab's
    totals are the broadcast sum of those tables, the base windows first and
    then by increasing window index.  The first strict maximum wins."""
    free_indices = list(free_indices)
    if base.dim != 1:
        raise UnsupportedError("brute_force_solve handles scalar states only")
    if len(free_indices) > MAX_FREE_VARS:
        raise InputError(f"at most {MAX_FREE_VARS} free variables, got {len(free_indices)}")
    if not free_indices or not all(0 <= t <= base.domain.t_max and int(t) == t
                                   for t in free_indices):
        raise InputError(f"need free indices in 0..{base.domain.t_max}, got {free_indices}")
    free_indices = [int(t) for t in free_indices]
    if len(set(free_indices)) != len(free_indices):
        raise InputError(f"free indices must be distinct, got {free_indices}")
    grids = [np.asarray(g, dtype=float) for g in grids]
    if len(grids) != len(free_indices):
        raise InputError("need one grid per free index")
    if not all(g.ndim == 1 and len(g) for g in grids):
        raise InputError("each grid must be a non-empty list of values")
    if not all(np.isfinite(g).all() for g in grids):
        raise InputError("grid values must be finite")
    shape = tuple(len(g) for g in grids)
    combos = math.prod(shape)
    if combos > MAX_GRID_COMBOS:
        raise InputError(f"grid has {combos} combinations, budget is {MAX_GRID_COMBOS}")
    n = obj.order
    last = max_window_start(base, n)
    # only windows touching a free index change between candidates; each
    # reads the (grid axis, slot) pairs of the free indices inside it
    touched = sorted({j for t in free_indices
                     for j in range(max(0, t - n), min(t, last) + 1)})
    fixed = [j for j in range(last + 1) if j not in touched]
    footprints = [{a: t - j for a, t in enumerate(free_indices) if j <= t <= j + n}
                  for j in touched]
    # slabs: the grids after axis s whole, axis s in runs of `run` values,
    # the grids before it fixed
    s = next(a for a in range(len(shape)) if math.prod(shape[a + 1:]) <= BRUTE_FORCE_CHUNK)
    inner = math.prod(shape[s + 1:])
    run = min(shape[s], BRUTE_FORCE_CHUNK // inner)

    out = np.array(base.values)
    per_state = []
    for w in range(base.space.m):
        values_w = out[:, w, 0]
        base_part = 0.0
        if fixed:
            fixed_windows = values_w[np.asarray(fixed)[:, None] + np.arange(n + 1)]
            base_part = sum(values_at(obj, fixed_windows[:, None, :, None], fixed, [w])[:, 0])
        best_val, best_at, start = NEG_INF, None, 0
        for lead in np.ndindex(shape[:s]):
            for a0 in range(0, shape[s], run):
                axes = ([g[i : i + 1] for g, i in zip(grids, lead)] + [grids[s][a0 : a0 + run]]
                        + grids[s + 1:])
                tables = [_footprint_windows(values_w[j : j + n + 1], foot, axes)
                          for j, foot in zip(touched, footprints)]
                sizes = [table[..., 0].size for table in tables]
                points = np.concatenate([table.reshape(-1, 1, n + 1, 1) for table in tables])
                vals = values_at(obj, points, np.repeat(touched, sizes), [w])[:, 0]
                total, at = base_part, 0
                for table, size in zip(tables, sizes):  # by increasing window index
                    total = total + vals[at : at + size].reshape(table.shape[:-1])
                    at += size
                total = total.reshape(-1)
                i = int(np.argmax(total))  # the slab's first maximum
                if total[i] > best_val:
                    best_val, best_at = float(total[i]), start + i
                start += total.size
        if best_at is None:
            raise NumericalError(f"every grid point is infeasible in state {w}")
        for t, g, p in zip(free_indices, grids, np.unravel_index(best_at, shape)):
            values_w[t] = g[p]
        per_state.append(best_val)
    path = StochasticPath(base.domain, base.space, out)
    resolution = max(float(np.max(np.abs(np.diff(g)))) if len(g) > 1 else 0.0
                     for g in grids)
    return BruteForceResult(path=path, value=objective_value(obj, path),
                            per_state_values=tuple(per_state),
                            grid_resolution=resolution)


# ---------------------------------------------------------------------------
# Discrete/continuous correspondence (order 2)

@dataclass(frozen=True)
class CorrespondencePair:
    """An order-2 discrete objective and its induced continuous form under the
    substitution v(x, y, z) = V(x, x + y, x + 2y + z)."""

    discrete: DiscreteObjective
    continuous: ContinuousObjective

    def __post_init__(self):
        if self.discrete.order != 2 or self.continuous.order != 2:
            raise UnsupportedError("the correspondence covers order 2 only")
        if self.discrete.dim != self.continuous.dim:
            raise InputError("pair members disagree on the state dimension")


def discrete_to_continuous(V: DiscreteObjective) -> CorrespondencePair:
    """Induce the continuous objective by substitution; chain-rule partials
    v1 = V1 + V2 + V3, v2 = V2 + 2 V3, v3 = V3 when V has analytic partials."""
    if not isinstance(V, DiscreteObjective):
        raise InputError(f"discrete_to_continuous needs a discrete objective, "
                         f"got {type(V).__name__} {V.name or '<anonymous>'}")
    if V.order != 2:
        raise UnsupportedError("discrete_to_continuous covers order 2 only")

    def windows(jets):
        x, y, z = jets[:, 0], jets[:, 1], jets[:, 2]
        return np.stack([x, x + y, x + 2.0 * y + z], axis=1)

    def ev(jets, t, w):
        return V.values_batch(windows(jets), t, w)

    partials = None
    if V.has_analytic_partials:
        def partials(jets, t, w):
            P = V.partials_batch(windows(jets), t, w)
            return np.stack([P[:, 0] + P[:, 1] + P[:, 2], P[:, 1] + 2.0 * P[:, 2], P[:, 2]],
                            axis=1)

    v = ContinuousObjective(order=2, batch_eval_fn=ev, batch_partials_fn=partials, dim=V.dim,
                            name=(V.name + "-induced") if V.name else "induced")
    return CorrespondencePair(discrete=V, continuous=v)


def _partials_unresolved(obj, points, t, w):
    """Slot-partials of obj at points where it is finite, and per (point, slot)
    whether fd_partials left them unresolved."""
    if obj.has_analytic_partials:
        P = obj.partials_batch(points, t, w)
        return P, np.zeros(P.shape[:2], dtype=bool)
    return fd_partials(obj, points, t, w)


@dataclass(frozen=True)
class CorrespondenceReport:
    max_partial_gap: float
    max_euler_gap: float
    checked: int
    skipped: int
    tolerance: float
    verdict: str  # "PASS" | "FAIL" | "INCONCLUSIVE"

    @property
    def passed(self) -> bool:
        return self.verdict == "PASS"


# slots of the continuous partials the difference form (b) reads at jets 0, 1, 2
_JET_SLOTS = np.array([[False, False, True], [False, True, True], [True, True, True]])


def correspondence_check(pair: CorrespondencePair, segments) -> CorrespondenceReport:
    """Verify the chain-rule partial identities and the first-difference form
    of the induced Euler operator.

    segments is a sequence of (seg, t, w) with seg a run of 5 consecutive path
    values (y_t .. y_{t+4}) per state dimension.  For each sample:

    (a) at the jet (y_t, dy_t, d2y_t): the fd_partials of the substituted v
        match V1+V2+V3, V2+2V3 and V3 evaluated at the window;
    (b) the stationarity row at index t+2 over windows t..t+2 equals
        v1(t+2) + (v2(t+1) - v2(t+2)) + (v3(t) - 2 v3(t+1) + v3(t+2)).

    A sample is skipped, and counted, when a value it needs is -inf (V on a
    window, v at a jet) or fd_partials leaves a partial it needs unresolved.
    Both gaps are rel_gap against the V side and must stay within 1e-8 for
    analytic partials, 1e-6 for finite differences.  Every sample goes
    through the same few batched calls.
    """
    V, v = pair.discrete, pair.continuous
    tolerance = 1e-8 if V.has_analytic_partials else 1e-6
    segs, t, w = stack_samples(V, segments, 5)
    count, dim = len(segs), V.dim
    win = np.stack([segs[:, o : o + 3] for o in range(3)], axis=1)  # sample, offset, slot
    times = t[:, None] + np.arange(3)
    vals = V.values_batch(win.reshape(-1, 3, dim), times.ravel(), np.repeat(w, 3))
    keep = ~np.isneginf(vals.reshape(count, 3)).any(axis=1)
    win, t, w, times = win[keep], t[keep], w[keep], times[keep]
    states, live = np.repeat(w, 3), len(win)
    jets = np.stack([win[:, :, 0], win[:, :, 1] - win[:, :, 0],
                     win[:, :, 2] - 2.0 * win[:, :, 1] + win[:, :, 0]], axis=2)

    # V's partials on windows 0..2: (a) reads every slot of window 0, (b) the
    # slots 2, 1, 0 of windows 0, 1, 2
    PV, unresolved = _partials_unresolved(V, win.reshape(-1, 3, dim), times.ravel(), states)
    PV, unresolved = PV.reshape((live, 3) + PV.shape[1:]), unresolved.reshape(live, 3, 3)
    fd, fd_unresolved = fd_partials(v, jets[:, 0], t, w)
    fv = v.values_batch(jets.reshape(-1, 3, dim), times.ravel(), states).reshape(live, 3)
    ok = ~(unresolved[:, 0].any(axis=1) | unresolved[:, 1, 1] | unresolved[:, 2, 0]
           | fd_unresolved.any(axis=1) | np.isneginf(fv).any(axis=1))
    Pv, unresolved = _partials_unresolved(v, jets[ok].reshape(-1, 3, dim), times[ok].ravel(),
                                          np.repeat(w[ok], 3))
    fine = ~(unresolved.reshape(-1, 3, 3) & _JET_SLOTS).any(axis=(1, 2))
    checked = int(fine.sum())
    if checked == 0:
        return CorrespondenceReport(math.nan, math.nan, 0, count, tolerance, "INCONCLUSIVE")
    PV, fd, Pv = PV[ok][fine], fd[ok][fine], Pv.reshape((-1, 3) + Pv.shape[1:])[fine]
    combos = np.stack([PV[:, 0, 0] + PV[:, 0, 1] + PV[:, 0, 2],
                       PV[:, 0, 1] + 2.0 * PV[:, 0, 2], PV[:, 0, 2]], axis=1)
    lhs = PV[:, 0, 2] + PV[:, 1, 1] + PV[:, 2, 0]
    rhs = (Pv[:, 2, 0] + (Pv[:, 1, 1] - Pv[:, 2, 1])
           + (Pv[:, 0, 2] - 2.0 * Pv[:, 1, 2] + Pv[:, 2, 2]))
    worst_a, worst_b = rel_gap(fd, combos), rel_gap(rhs, lhs)
    verdict = "PASS" if max(worst_a, worst_b) <= tolerance else "FAIL"
    return CorrespondenceReport(worst_a, worst_b, checked, count - checked, tolerance, verdict)
