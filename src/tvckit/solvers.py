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

from .core import StochasticPath, expectation
from .errors import (DomainError, InputError, NumericalError, UnsupportedError)
from .euler import BoundaryMode, max_window_start
from .kernel import (euler_rows, expected_cumsum, jet_values, partials_at,
                     values_at, window_stack, window_values)
from .objectives import (ContinuousObjective, DiscreteObjective, fd_partials, rel_gap,
                         stack_samples)

NEG_INF = float("-inf")

MAX_FREE_VARS = 6
MAX_GRID_COMBOS = 10_000_000
# grid combinations per batched objective call in brute_force_solve
BRUTE_FORCE_CHUNK = 1024

JAC_FD_STEP = 1e-6


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


def _trial_residuals(obj, values_w, U, t_lo, n, w) -> np.ndarray:
    """Rows t_lo..T of one state's stationarity system at K trial vectors.

    values_w is the state's (T+n+1, dim) trajectory and U (K, N) holds K
    trial values of its entries t_lo..T, flattened; shape (K, N).  The K
    trajectories stack along the state axis: one values_at call checks the
    windows a trial can change, one partials_at call gives every row.
    """
    count = len(U)
    T = len(values_w) - 1 - n
    j_lo = max(0, t_lo - n)
    traj = np.repeat(values_w[:, None, :], count, axis=1)
    traj[t_lo : T + 1] = U.reshape(count, T + 1 - t_lo, -1).transpose(1, 0, 2)
    stack = window_stack(traj, n, j_lo, T)
    times, states = np.arange(j_lo, T + 1), np.full(count, w)
    if np.isneginf(values_at(obj, stack, times, states)).any():
        raise DomainError("trial point left the objective's domain")
    rows = euler_rows(partials_at(obj, stack, times, states))[t_lo - j_lo : T - j_lo + 1]
    return rows.transpose(1, 0, 2).reshape(count, -1)


def _classify_curvature(jac: np.ndarray) -> str:
    sym = 0.5 * (jac + jac.T)
    eig = np.linalg.eigvalsh(sym)
    scale = max(1.0, float(np.abs(eig).max()))
    if (eig <= 1e-10 * scale).all():
        return "concave"
    if (eig >= -1e-10 * scale).all():
        return "convex"
    return "indefinite"


def _fd_jacobian(residuals, u: np.ndarray, n: int, dim: int) -> np.ndarray:
    """Central-difference Jacobian of the stationarity rows at u.

    Row time r depends only on times r-n..r+n, so columns whose times lie
    2n+1 apart share no row (Curtis-Powell-Reid grouping).  Each group's
    columns are perturbed together, and all 2(2n+1)dim perturbed vectors go
    through one residuals call.  Every entry in the band is the one a
    column-by-column difference gives; entries off the band are 0.0.
    """
    size = u.size
    groups = min(size, (2 * n + 1) * dim)
    cols = np.arange(size)
    h = JAC_FD_STEP * np.maximum(1.0, np.abs(u))
    member = cols % groups == np.arange(groups)[:, None]
    res = residuals(np.concatenate([np.where(member, u + h, u), np.where(member, u - h, u)]))
    # rows at times within n of each column's time, every component
    offsets = (np.arange(-n, n + 1)[:, None] * dim + np.arange(dim)).ravel()
    rows = (cols - cols % dim) + offsets[:, None]
    inside = (rows >= 0) & (rows < size)
    r, c = rows[inside], np.broadcast_to(cols, rows.shape)[inside]
    g = c % groups
    jac = np.zeros((size, size))
    jac[r, c] = (res[g, r] - res[groups + g, r]) / (2.0 * h[c])
    return jac


def newton_euler_solve(obj: DiscreteObjective, spec: SolveSpec):
    """Damped Newton on the stationarity rows; returns (path, report).

    States decouple (no cross-state coupling in any supported objective), so
    each state's banded system is solved independently.  The line search halves
    the step while the trial point is domain-invalid or the residual norm fails
    to decrease.
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

    iterations = []
    curvature = []
    worst = 0.0
    converged = True
    for w in range(m):
        values_w = out[:, w, :].copy()
        guess_vals = values_at(obj, window_stack(values_w[:, None, :], n, 0, T),
                               np.arange(T + 1), [w])
        if np.isneginf(guess_vals).any():
            raise DomainError(f"guess violates domain validity in state {w}")

        def residuals(U):
            return _trial_residuals(obj, values_w, U, t_lo, n, w)

        u = values_w[t_lo : T + 1].ravel()
        res = residuals(u[None])[0]
        norm = float(np.abs(res).max())
        it = 0
        jac = None
        while norm > spec.tolerance:
            if it >= spec.max_iterations:
                converged = False
                break
            jac = _fd_jacobian(residuals, u, n, dim)
            try:
                step = np.linalg.solve(jac, -res)
            except np.linalg.LinAlgError as exc:
                raise NumericalError(f"singular Jacobian in state {w}: {exc}") from exc
            lam = 1.0
            while True:
                if lam < 1e-12:
                    raise NumericalError(f"no valid Newton step found in state {w}")
                try:
                    trial = u + lam * step
                    trial_res = residuals(trial[None])[0]
                except DomainError:
                    lam *= 0.5
                    continue
                trial_norm = float(np.abs(trial_res).max())
                if trial_norm < norm or trial_norm <= spec.tolerance:
                    u, res, norm = trial, trial_res, trial_norm
                    break
                lam *= 0.5
            it += 1
        out[t_lo : T + 1, w, :] = u.reshape(-1, dim)
        iterations.append(it)
        worst = max(worst, norm)
        if jac is None:  # already stationary at the guess
            jac = _fd_jacobian(residuals, u, n, dim)
        curvature.append(_classify_curvature(jac))

    path = StochasticPath(guess.domain, guess.space, out)
    report = NewtonReport(converged=converged, iterations=tuple(iterations),
                          max_abs_residual=worst, tolerance=spec.tolerance,
                          curvature=tuple(curvature), mode=spec.mode)
    return path, report


# ---------------------------------------------------------------------------
# Objective values and the brute-force oracle

def objective_value(obj, path: StochasticPath) -> float:
    """Total expected objective along the path: a sum over full windows in the
    discrete case, a trapezoid integral of the expected sampled value in the
    continuous case.  -inf is an admissible result; +inf is not."""
    space = path.space
    if isinstance(obj, DiscreteObjective):
        vals = window_values(obj, path, 0, max_window_start(path, obj.order))
        return float(expected_cumsum(space, vals)[-1])
    if isinstance(obj, ContinuousObjective):
        per_time = np.atleast_1d(expectation(space, jet_values(obj, path).T))
        if np.isneginf(per_time).any():
            return NEG_INF
        return float(np.trapezoid(per_time, dx=path.domain.h))
    raise UnsupportedError(f"unsupported objective type {type(obj).__name__}")


@dataclass(frozen=True)
class BruteForceResult:
    path: StochasticPath
    value: float
    per_state_values: tuple[float, ...]
    grid_resolution: float               # largest grid spacing over all free variables


def brute_force_solve(obj: DiscreteObjective, base: StochasticPath,
                      free_indices, grids) -> BruteForceResult:
    """Exhaustive search maximizing the expected objective sum over the free
    time indices, one value grid per index; everything else is pinned to the
    base path.  States are searched independently (no cross-state coupling).

    Combinations run in itertools.product order, BRUTE_FORCE_CHUNK of them per
    batched objective call over the windows that touch a free index; the
    first strict maximum wins."""
    free_indices = [int(t) for t in free_indices]
    if base.dim != 1:
        raise UnsupportedError("brute_force_solve handles scalar states only")
    if len(free_indices) > MAX_FREE_VARS:
        raise InputError(f"at most {MAX_FREE_VARS} free variables, got {len(free_indices)}")
    if not free_indices or not all(0 <= t <= base.domain.t_max for t in free_indices):
        raise InputError(f"need free indices in 0..{base.domain.t_max}, got {free_indices}")
    grids = [np.asarray(g, dtype=float) for g in grids]
    if len(grids) != len(free_indices):
        raise InputError("need one grid per free index")
    combos = math.prod(len(g) for g in grids)
    if combos > MAX_GRID_COMBOS:
        raise InputError(f"grid has {combos} combinations, budget is {MAX_GRID_COMBOS}")
    n = obj.order
    last = max_window_start(base, n)
    # only windows touching a free index change between candidates
    touched = sorted({j for t in free_indices
                     for j in range(max(0, t - n), min(t, last) + 1)})
    fixed = [j for j in range(last + 1) if j not in touched]
    # candidates cover only the times of the touched windows, from lo on
    lo = touched[0]
    slots = np.asarray(touched)[:, None] - lo + np.arange(n + 1)
    shape = tuple(len(g) for g in grids)

    out = np.array(base.values)
    per_state = []
    for w in range(base.space.m):
        values_w = out[:, w, 0]
        base_part = 0.0
        if fixed:
            fixed_windows = values_w[np.asarray(fixed)[:, None] + np.arange(n + 1)]
            base_part = sum(values_at(obj, fixed_windows[:, None, :, None], fixed, [w])[:, 0])
        best_val, best_at = NEG_INF, None
        for start in range(0, combos, BRUTE_FORCE_CHUNK):
            picks = np.unravel_index(np.arange(start, min(start + BRUTE_FORCE_CHUNK, combos)),
                                     shape)
            cand = np.repeat(values_w[None, lo : touched[-1] + n + 1], len(picks[0]), axis=0)
            for t, g, p in zip(free_indices, grids, picks):
                cand[:, t - lo] = g[p]
            vals = values_at(obj, cand[:, slots].transpose(1, 0, 2)[..., None], touched,
                             np.full(len(cand), w))
            total = base_part
            for row in vals:  # by increasing window index, the order of a per-point sum
                total = total + row
            i = int(np.argmax(total))  # the chunk's first maximum
            if total[i] > best_val:
                best_val, best_at = float(total[i]), start + i
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
