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
from .kernel import (bind_at, euler_rows, expected_running_sum, flatten, max_window_start,
                     objective_values, slot_major, values_at, window_stack)
from .objectives import (ContinuousObjective, DiscreteObjective, fd_partials, rel_gap,
                         stack_samples, unresolved_fault)

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
        m, dim = self.guess.space.m, self.guess.dim
        for name in ("head", "tail"):
            arr = getattr(self, name)
            if arr is None:
                continue
            arr = np.asarray(arr, dtype=float)
            if arr.shape[1:] not in ((m,), (m, dim)):
                raise InputError(f"{name} needs shape (rows, {m}) or (rows, {m}, {dim}) "
                                 f"for the guess, got {arr.shape}")
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


def _layout(obj, out, states, t_lo, n, member=None, trial=True):
    """Gather tables for evaluating, per given state, its trial (if trial)
    and, if member (G, N) is given, its stencil: each group's columns moved
    by +h, then by -h.  Returns (out.ravel(), points, bound, offset, shape,
    blocks): kernel.flatten of the windows j_lo..T of every vector, j_lo =
    max(0, t_lo - n), as source indices (see _points); obj bound to their
    times and states (_Objective.bind); t_lo - j_lo, the index of row t_lo
    in the kernel.euler_rows of their partials; (K, V, N); and the slices of
    V holding each block, the trial then the stencil."""
    T, dim = len(out) - 1 - n, out.shape[2]
    size = (T + 1 - t_lo) * dim
    # per state, where each entry t_lo..T of a vector is read: 0 the trial, 1 +h, 2 -h
    block = np.concatenate([np.zeros((int(trial), size), dtype=int)]
                           + ([] if member is None else [member, 2 * member]))
    shape = (len(states),) + block.shape
    count, owners = shape[0] * shape[1], np.repeat(states, shape[1])  # vectors, their states
    traj = np.arange(out.size).reshape(out.shape)[:, owners]  # each vector's source indices
    traj[t_lo : T + 1] = (out.size + np.arange(size) + size * (block * shape[0] + np.arange(
        shape[0])[:, None, None])).reshape(count, -1, dim).transpose(1, 0, 2)
    j_lo = max(0, t_lo - n)
    points, t, w = flatten(window_stack(traj, n, j_lo, T), np.arange(j_lo, T + 1), owners)
    blocks = [slice(1)] * trial + ([] if member is None else [slice(int(trial), None)])
    return out.ravel(), points, obj.bind(t, w), t_lo - j_lo, shape, blocks


def _points(layout, x, h=None):
    """Every point of a _layout, read from out, the trials x (K, N), x + h and x - h."""
    return np.concatenate((layout[0], x) if h is None else (layout[0], x, x + h, x - h),
                          axis=None).take(layout[1])


def _residuals(layout, x, h=None):
    """Rows t_lo..T of the stationarity system at the vectors of a _layout
    around the trials x (K, N) with steps h: one values call, then one
    partials call on the vectors with finite windows (bound to their own
    table when a wall leaves some out), and the rows are the
    kernel.euler_rows of those partials.  Returns rows (K, V, N) and faults:
    None when every block resolves, else per state and block of the layout
    None or the DomainError that evaluating the block alone gives (see
    _faults).  A faulting block's rows are meaningless."""
    points, (bound, offset, shape) = _points(layout, x, h), layout[2:5]
    vectors = shape[0] * shape[1]
    walled, live, live_bound = bound.values(points) == NEG_INF, slice(None), bound
    if walled.any():  # no partials at the windows of vectors with a -inf window
        windows = walled.reshape(-1, vectors)
        live = np.tile(~windows.any(axis=0), len(windows))
        if not live.any():  # every vector walled: no partials call
            return np.full(shape, np.nan), _faults(layout, walled, None, live)
        live_bound = bound.obj.bind(bound.t[live], bound.w[live])
    P, unresolved = _partials_unresolved(live_bound, points[live])
    if len(P) < len(points):  # zeros at the windows of walled vectors
        P, kept = np.zeros((len(points),) + P.shape[1:]), P
        P[live] = kept
    J = len(points) // vectors
    rows = euler_rows(slot_major(P, (J, vectors) + points.shape[1:]))[offset:J]
    rows = rows.transpose(1, 0, 2).reshape(shape)
    if walled.any() or unresolved is not None and unresolved.any():
        return rows, _faults(layout, walled, unresolved, live)
    return rows, None


def _faults(layout, walled, unresolved, live):
    """Per state and block of a _layout, None or the DomainError that
    evaluating the block alone gives: a -inf window, else the first slot in
    (window, vector, slot) order whose partial fd_partials leaves
    unresolved.  walled marks the points with a -inf value, and unresolved
    the (point, slot)s left unresolved among the live points (None: none)."""
    t, w, (K, V, _), blocks = layout[2].t, layout[2].w, layout[4], layout[5]
    bad = np.zeros((len(walled), layout[1].shape[1]), dtype=bool)
    if unresolved is not None:
        bad[live] = unresolved
    walled, bad = walled.reshape(-1, K, V), bad.reshape(-1, K, V, bad.shape[1])
    t, w = t.reshape(walled.shape), w.reshape(walled.shape)
    return [[DomainError("trial point left the objective's domain") if walled[:, i, b].any()
             else unresolved_fault(bad[:, i, b].reshape(-1, bad.shape[3]), t[:, i, b].ravel(),
                                   w[:, i, b].ravel()) for b in blocks] for i in range(K)]


def _classify_curvature(jacs: np.ndarray) -> tuple[str, ...]:
    """Per matrix of a stack: concave if its symmetric part's eigenvalues are
    all <= 1e-10 * max(1, largest |eigenvalue|), convex if all >= minus that."""
    eig = np.linalg.eigvalsh(0.5 * (jacs + jacs.transpose(0, 2, 1)))
    slack = 1e-10 * np.maximum(1.0, np.abs(eig).max(axis=1))[:, None]
    return tuple("concave" if concave else "convex" if convex else "indefinite"
                 for concave, convex in zip((eig <= slack).all(axis=1).tolist(),
                                            (eig >= -slack).all(axis=1).tolist()))


def _stencil_layout(size: int, n: int, dim: int):
    """Curtis-Powell-Reid grouping of the columns of the stationarity system.

    Row time r depends only on times r-n..r+n, so columns whose times lie
    2n+1 apart share no row and are perturbed together.  Returns (member,
    band, pick): member (G, size) marks each group's columns, band the flat
    indices r * size + c of the band's entries, and pick (3, E) where row r
    at +h and at -h lies in one state's flat (1 + 2G, size) rows, and c.
    """
    groups = min(size, (2 * n + 1) * dim)
    cols = np.arange(size)
    member = cols % groups == np.arange(groups)[:, None]
    # rows at times within n of each column's time, every component
    offsets = (np.arange(-n, n + 1)[:, None] * dim + np.arange(dim)).ravel()
    rows = (cols - cols % dim) + offsets[:, None]
    inside = (rows >= 0) & (rows < size)
    r, c = rows[inside], inside.nonzero()[1]
    plus = (1 + c % groups) * size + r
    return member, r * size + c, np.array([plus, plus + groups * size, c])


def _jacobians(rows: np.ndarray, h: np.ndarray, pick: np.ndarray) -> np.ndarray:
    """The band of the central-difference Jacobian around S trials: pick (3,
    S, E) indexes each entry's rows at +h and -h in rows and its step in h.
    Each equals the column-by-column difference bit for bit."""
    return (rows.take(pick[0]) - rows.take(pick[1])) / (2.0 * h.take(pick[2]))


def newton_euler_solve(obj: DiscreteObjective, spec: SolveSpec):
    """Damped Newton on the stationarity rows; returns (path, report).

    States decouple (no cross-state coupling in any supported objective), so
    each state's banded system is solved on its own, but every state advances
    in lockstep.  One pass gathers, through a _layout built once per set of
    iterating states, every window of each state's line-search trial and of
    the grouped central-difference stencil around it (the state's next
    Jacobian if the trial is accepted) for one values and one partials call,
    and one batched np.linalg.solve gives every iterating state its next
    step.  The line search halves a state's step while its trial is
    domain-invalid or its residual norm fails to decrease.  Curvature is read
    from the Jacobian of each state's last step (at the guess if it took
    none).  Paths, reports and errors are those of solving the states one
    after another: the lowest-numbered failing state's error is raised.  A
    pass reads each state's faults from _residuals; when its batched call
    raises a ToolkitError, each state's trial and stencil are evaluated
    alone instead, and what each raises is that block's fault.
    """
    n, T, guess = obj.order, spec.horizon, spec.guess
    if guess.domain.kind != "discrete" or guess.domain.t_max != T + n:
        raise InputError(f"guess must live on the discrete grid 0..{T + n}")
    k, t_lo, dim, m = spec.head_len, spec.boundary.first_index(), guess.dim, guess.space.m
    out = np.array(guess.values)
    if spec.mode == "fixed":
        if spec.head is not None:
            out[:k] = spec.head
        out[T + 1 :] = spec.tail

    windows, times = window_stack(out, n, 0, T), np.arange(T + 1)
    try:
        walled = (values_at(obj, windows, times, np.arange(m)) == NEG_INF).any(axis=0).tolist()
    except ToolkitError:
        walled = None  # the objective raised on some guess: check state by state
    failure, going = None, np.arange(m)  # states iterating
    for s in range(m):
        try:
            if (walled[s] if walled is not None
                    else (values_at(obj, windows[:, s : s + 1], times, [s]) == NEG_INF).any()):
                raise DomainError(f"guess violates domain validity in state {s}")
        except ToolkitError as exc:
            failure, going = exc, np.arange(s)
            break
    u = out[t_lo : T + 1].transpose(1, 0, 2).reshape(m, -1)
    size = u.shape[1]
    member, band, pick = _stencil_layout(size, n, dim)
    trial, res, step = u.copy(), np.empty_like(u), np.empty_like(u)
    norm, iterations, lam = [0.0] * m, [0] * m, np.ones(m)
    # per state, the Jacobian of its last step; only the band is ever written
    jacs = np.zeros((m, size, size))
    # layout_of: the states of the batched call's _layout, bands and picks
    converged, first, layout_of = True, True, None
    while len(going):
        every = slice(None) if len(going) == m else going  # the iterating states
        x, states = trial[every], going.tolist()
        h = JAC_FD_STEP * np.maximum(1.0, np.abs(x))
        if states != layout_of:
            layout, layout_of = _layout(obj, out, going, t_lo, n, member), states
            # per state, its band in jacs, and pick in the pass's rows and h
            bands = going[:, None] * size**2 + band
            picks = pick[:, None] + np.arange(len(states))[:, None] * np.reshape(
                [(1 + 2 * len(member)) * size] * 2 + [size], (3, 1, 1))
        try:
            rows, faults = _residuals(layout, x, h)
        except ToolkitError:  # each state's trial, then its stencil, alone
            rows, faults = np.full(layout[4], np.nan), [[] for _ in states]
            for i, s in enumerate(states):
                for block, alone in ((slice(1), _layout(obj, out, [s], t_lo, n)),
                                     (slice(1, None),
                                      _layout(obj, out, [s], t_lo, n, member, False))):
                    try:
                        rows[i, block], fault = _residuals(alone, x[i : i + 1], h[i : i + 1])
                        faults[i].append(None if fault is None else fault[0][0])
                    except ToolkitError as exc:
                        faults[i].append(exc)
        norms = np.abs(rows[:, 0]).max(axis=1).tolist()  # per state, its trial's residual norm
        accepted, assemble, kept, fresh = [], [], [], []
        for i, s in enumerate(states):
            trial_fault, stencil_fault = (None, None) if faults is None else faults[i]
            try:
                if trial_fault is not None and (first or not isinstance(trial_fault, DomainError)):
                    raise trial_fault
                if not first:
                    if trial_fault is not None or not (norms[i] < norm[s]
                                                       or norms[i] <= spec.tolerance):
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
                    if stencil_fault is not None:
                        raise stencil_fault
                    assemble.append(i)
                if iterate:
                    kept.append(s)
                    fresh.append(s)
            except ToolkitError as exc:
                failure = exc
                break
        # each state accepted and stepping on, as in most passes: no gathers
        whole = len(fresh) == len(states)
        mine, at = (slice(None), every) if whole else (accepted, going[accepted])
        u[at], res[at] = x[mine], rows[mine, 0]
        if assemble:
            mine = mine if whole else assemble
            jacs.reshape(-1)[bands[mine]] = _jacobians(rows, h, picks[:, mine])
        going, first = going if whole else np.array(kept, dtype=int), False
        if fresh:
            at = every if whole else fresh
            try:  # numpy >= 2 reads a 2-D right-hand side as one matrix
                step[at] = np.linalg.solve(jacs[at], -res[at][..., None])[..., 0]
            except np.linalg.LinAlgError:  # the lowest singular state fails, those below step
                for s in fresh:
                    try:
                        step[s] = np.linalg.solve(jacs[s], -res[s])
                    except np.linalg.LinAlgError as exc:
                        failure = NumericalError(f"singular Jacobian in state {s}: {exc}")
                        failure.__cause__ = exc
                        going, whole = going[going < s], False
                        break
            lam[at] = 1.0
        at = every if whole else going
        trial[at] = u[at] + lam[at, None] * step[at]
    if failure is not None:
        raise failure

    out[t_lo : T + 1] = u.reshape(m, -1, dim).transpose(1, 0, 2)
    path = StochasticPath(guess.domain, guess.space, out)
    report = NewtonReport(converged=converged, iterations=tuple(iterations),
                          max_abs_residual=max(0.0, *norm), tolerance=spec.tolerance,
                          curvature=_classify_curvature(jacs), mode=spec.mode)
    return path, report


# ---------------------------------------------------------------------------
# Objective values and the brute-force oracle

def objective_value(obj, path: StochasticPath) -> float:
    """Total expected objective along the path: a sum over full windows in the
    discrete case, a trapezoid integral of the expected sampled value in the
    continuous case.  -inf is an admissible result; +inf is not, and raises."""
    total = float(expected_running_sum(path, objective_values(obj, path))[-1])
    if total == math.inf:
        raise NumericalError("the expected objective sum overflowed to +inf")
    return total


@dataclass(frozen=True)
class BruteForceResult:
    path: StochasticPath
    value: float
    per_state_values: tuple[float, ...]
    grid_resolution: float               # largest grid spacing over all free variables


def _slab_points(obj, values_w, touched, footprints, axes, w):
    """The point buffer of a slab spanning the grid axes `axes` in state w,
    slot-major as a PointLayout's: one block per touched window of shape
    (n+1, ...), whose axis 1+a spans axes[a] where the window reads it (its
    footprint maps axis -> slot) and has length 1 elsewhere, its pinned and
    free slots written (_write_free).  Returns (points, blocks, the objective
    bound to the buffer's (t, w) table); points is the buffer's read-only
    (N, n+1, 1) transpose."""
    n = obj.order
    shapes = [tuple(len(g) if a in foot else 1 for a, g in enumerate(axes)) for foot in footprints]
    sizes = [math.prod(shape) for shape in shapes]
    slots, blocks, at = np.empty((n + 1, sum(sizes))), [], 0
    for j, foot, shape, size in zip(touched, footprints, shapes, sizes):
        block = slots[:, at : at + size].reshape((n + 1,) + shape)
        for k in set(range(n + 1)) - set(foot.values()):
            block[k] = values_w[j + k]
        blocks.append(block)
        at += size
    _write_free(blocks, footprints, axes, len(axes) - 1)
    points, bound = bind_at(obj, slots.T[:, None, :, None], np.repeat(touched, sizes), [w])
    points.flags.writeable = False
    return points, blocks, bound


def _write_free(blocks, footprints, axes, last):
    """Each block's free slots reading axes 0..last: slot k of a window
    reading axis a spans axes[a]."""
    for block, foot in zip(blocks, footprints):
        for a, k in foot.items():
            if a <= last:
                block[k] = axes[a].reshape((-1,) + (1,) * (len(axes) - 1 - a))


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
    then by increasing window index.  Each state and slab size has one point
    buffer, holding those tables side by side, and one bind of the
    objective; a slab writes its free values into the buffer in place.  The
    first strict maximum wins."""
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
        slabs = {}  # slab length -> its point buffer, blocks and bound objective
        for lead in np.ndindex(shape[:s]):
            for a0 in range(0, shape[s], run):
                axes = ([g[i : i + 1] for g, i in zip(grids, lead)] + [grids[s][a0 : a0 + run]]
                        + grids[s + 1:])
                length = len(axes[s])
                if length not in slabs:  # the first slab, and the last when it is short
                    slabs[length] = _slab_points(obj, values_w, touched, footprints, axes, w)
                else:  # the grids after axis s are in place already
                    _write_free(slabs[length][1], footprints, axes, s)
                points, blocks, bound = slabs[length]
                vals = bound.values(points)
                total, at = base_part, 0
                for block in blocks:  # by increasing window index
                    size = block[0].size
                    total = total + vals[at : at + size].reshape(block.shape[1:])
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


def _partials_unresolved(bound, points):
    """Slot-partials of a bound objective at points where it is finite, and
    per (point, slot) whether fd_partials left them unresolved: None for
    analytic partials, which leave none."""
    if bound.obj.has_analytic_partials:
        return bound.partials(points), None
    return fd_partials(bound.obj, points, bound.t, bound.w)


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
    keep = ~(vals.reshape(count, 3) == NEG_INF).any(axis=1)
    win, t, w, times = win[keep], t[keep], w[keep], times[keep]
    states, live = np.repeat(w, 3), len(win)
    jets = np.stack([win[:, :, 0], win[:, :, 1] - win[:, :, 0],
                     win[:, :, 2] - 2.0 * win[:, :, 1] + win[:, :, 0]], axis=2)

    # V's partials on windows 0..2: (a) reads every slot of window 0, (b) the
    # slots 2, 1, 0 of windows 0, 1, 2
    PV, unresolved = _partials_unresolved(V.bind(times.ravel(), states), win.reshape(-1, 3, dim))
    PV = PV.reshape((live, 3) + PV.shape[1:])
    fd, fd_unresolved = fd_partials(v, jets[:, 0], t, w)
    fv = v.values_batch(jets.reshape(-1, 3, dim), times.ravel(), states).reshape(live, 3)
    ok = ~(fd_unresolved.any(axis=1) | (fv == NEG_INF).any(axis=1))
    if unresolved is not None:
        unresolved = unresolved.reshape(live, 3, 3)
        ok &= ~(unresolved[:, 0].any(axis=1) | unresolved[:, 1, 1] | unresolved[:, 2, 0])
    Pv, unresolved = _partials_unresolved(v.bind(times[ok].ravel(), np.repeat(w[ok], 3)),
                                          jets[ok].reshape(-1, 3, dim))
    fine = np.ones(len(Pv) // 3, dtype=bool) if unresolved is None else ~(
        unresolved.reshape(-1, 3, 3) & _JET_SLOTS).any(axis=(1, 2))
    checked = int(fine.sum())
    if checked == 0:
        return CorrespondenceReport(math.nan, math.nan, 0, count, tolerance, "INCONCLUSIVE")
    PV, fd, Pv = PV[ok][fine], fd[ok][fine], Pv.reshape((-1, 3) + Pv.shape[1:])[fine]
    combos = np.stack([PV[:, 0, 0] + PV[:, 0, 1] + PV[:, 0, 2],
                       PV[:, 0, 1] + 2.0 * PV[:, 0, 2], PV[:, 0, 2]], axis=1)
    lhs = euler_rows(PV.transpose(1, 2, 0, 3))[2]  # row t+2 over windows t..t+2
    rhs = (Pv[:, 2, 0] + (Pv[:, 1, 1] - Pv[:, 2, 1])
           + (Pv[:, 0, 2] - 2.0 * Pv[:, 1, 2] + Pv[:, 2, 2]))
    worst_a, worst_b = rel_gap(fd, combos), rel_gap(rhs, lhs)
    verdict = "PASS" if max(worst_a, worst_b) <= tolerance else "FAIL"
    return CorrespondenceReport(worst_a, worst_b, checked, count - checked, tolerance, verdict)
