"""Per-point reference implementations of the batched engines.

These are the loop forms the engines used before they were written as
reductions over one batched objective call: one partial_slot or value call
per (window or time, state, slot), one residual call per Jacobian column and
one value call per (grid combination, window).  The kernel and solver tests
hold the engines to them.
"""

import itertools

import numpy as np

import tvckit as tk
from tvckit.diagnostics import DOMINATION_N_EPS, DominationEntry, DominationReport
from tvckit.errors import (DomainError, HorizonError, InputError, NumericalError,
                           UnsupportedError)
from tvckit.euler import max_window_start
from tvckit.solvers import JAC_FD_STEP, BruteForceResult


def discrete_euler_residual(obj, path, t, j_max=None):
    n = obj.order
    last = max_window_start(path, n)
    if j_max is None:
        j_max = last
    j_max = min(j_max, last)
    j_lo = max(0, t - n)
    j_hi = min(t, j_max)
    if j_hi < j_lo:
        raise HorizonError(f"no window touches index t={t} within the grid")
    m = path.space.m
    out = np.zeros((m, path.dim))
    for j in range(j_lo, j_hi + 1):
        win = path.window(j, n)
        for w in range(m):
            out[w] += tk.partial_slot(obj, t - j, win[:, w, :], j, w)
    return out


def discrete_tvc_tail(obj, path, q, tprime):
    n = obj.order
    if tprime < n - 1:
        raise HorizonError(f"T'={tprime} below the first admissible truncation {n - 1}")
    if tprime + n > path.domain.t_max or tprime + n > q.domain.t_max:
        raise HorizonError(f"T'={tprime} needs values through index {tprime + n}")
    space = path.space
    total = np.zeros(space.m)
    for k in range(1, n + 1):
        coef = np.zeros((space.m, path.dim))
        for j in range(max(0, tprime - n + k), tprime + 1):
            win = path.window(j, n)
            for w in range(space.m):
                coef[w] += tk.partial_slot(obj, tprime + k - j, win[:, w, :], j, w)
        total += np.sum(coef * q.values[tprime + k], axis=1)
    return float(tk.expectation(space, total))


def truncated_objective(obj, path, tprime):
    space = path.space
    total = 0.0
    for t in range(tprime + 1):
        win = path.window(t, obj.order)
        vals = np.array([obj.value(win[:, w, :], t, w) for w in range(space.m)])
        if np.isneginf(vals).any():
            raise DomainError(f"objective is -inf inside the truncated sum at t={t}")
        total += tk.expectation(space, vals)
    return total


def jet_paths(path, n):
    jets = [path.values]
    current = path
    for _ in range(n):
        current = tk.time_derivative(current, 1)
        jets.append(current.values)
    return jets


def partial_series(obj, k, jets, times, m, dim):
    series = np.empty((len(times), m, dim))
    jet = np.empty((obj.order + 1, dim))
    for it, t in enumerate(times):
        for w in range(m):
            for order in range(obj.order + 1):
                jet[order] = jets[order][it, w]
            series[it, w] = tk.partial_slot(obj, k, jet, t, w)
    return series


def sampled_values(obj, jets, times, m, dim):
    out = np.empty((len(times), m))
    jet = np.empty((obj.order + 1, dim))
    for it, t in enumerate(times):
        for w in range(m):
            for order in range(obj.order + 1):
                jet[order] = jets[order][it, w]
            out[it, w] = obj.value(jet, t, w)
    return out


def domination_check(obj, path, curve, eps_bar, sample_times):
    """One whole-path perturbation and one value call per (time, state, eps);
    a (time, state) stops at its first -inf."""
    if eps_bar <= 0.0:
        raise InputError("eps_bar must be positive")
    if isinstance(obj, tk.ContinuousObjective):
        raise UnsupportedError("domination_check covers discrete objectives; "
                               "sample the induced jets for continuous models")
    eps_grid = tuple(eps_bar * 10.0 ** (-k) for k in range(DOMINATION_N_EPS))
    n = obj.order
    entries = []
    any_growth = False
    for t in sample_times:
        t = int(t)
        win_b = path.window(t, n)
        for w in range(path.space.m):
            base_val = obj.value(win_b[:, w, :], t, w)
            quotients = []
            flagged = base_val == -np.inf
            for eps in eps_grid:
                if flagged:
                    break
                shifted = tk.perturb(path, curve, eps)
                val = obj.value(shifted.window(t, n)[:, w, :], t, w)
                if val == -np.inf:
                    flagged = True
                    break
                quotients.append(abs(val - base_val) / eps)
            if flagged or not quotients:
                entries.append(DominationEntry(t, w, None, None, True, False))
                continue
            quotients = np.asarray(quotients)
            sup = float(quotients.max())
            eps_at = float(eps_grid[int(quotients.argmax())])
            growth = (len(quotients) >= 3
                      and bool(np.all(np.diff(quotients[-3:]) > 0))
                      and quotients[-1] > 2.0 * quotients[0])
            any_growth = any_growth or growth
            entries.append(DominationEntry(t, w, sup, eps_at, False, growth))
    verdict = "growth detected" if any_growth else "bounded on tested grid"
    return DominationReport(tuple(entries), eps_grid, verdict)


def fd_jacobian(residual, u):
    """Central-difference Jacobian of residual at u, one column per unknown."""
    jac = np.empty((u.size, u.size))
    for col in range(u.size):
        h = JAC_FD_STEP * max(1.0, abs(u[col]))
        up, um = u.copy(), u.copy()
        up[col] += h
        um[col] -= h
        jac[:, col] = (residual(up) - residual(um)) / (2.0 * h)
    return jac


def brute_force_solve(obj, base, free_indices, grids):
    """One value call per (grid combination, touched window, state), in
    itertools.product order; a combination stops at its first -inf and the
    first strict maximum wins."""
    free_indices = [int(t) for t in free_indices]
    if base.dim != 1:
        raise UnsupportedError("brute_force_solve handles scalar states only")
    grids = [np.asarray(g, dtype=float) for g in grids]
    n = obj.order
    last = max_window_start(base, n)
    touched = sorted({j for t in free_indices
                     for j in range(max(0, t - n), min(t, last) + 1)})
    fixed = [j for j in range(last + 1) if j not in touched]

    out = np.array(base.values)
    per_state = []
    for w in range(base.space.m):
        values_w = out[:, w, 0].copy()
        base_part = sum(obj.value(values_w[j : j + n + 1], j, w) for j in fixed)
        best_val, best_combo = -np.inf, None
        for combo in itertools.product(*grids):
            for t, v in zip(free_indices, combo):
                values_w[t] = v
            val = base_part
            for j in touched:
                val += obj.value(values_w[j : j + n + 1], j, w)
                if val == -np.inf:
                    break
            if val > best_val:
                best_val, best_combo = val, combo
        if best_combo is None:
            raise NumericalError(f"every grid point is infeasible in state {w}")
        for t, v in zip(free_indices, best_combo):
            values_w[t] = v
        out[:, w, 0] = values_w
        per_state.append(best_val)
    path = tk.StochasticPath(base.domain, base.space, out)
    resolution = max(float(np.max(np.abs(np.diff(g)))) if len(g) > 1 else 0.0
                     for g in grids)
    return BruteForceResult(path=path, value=tk.objective_value(obj, path),
                            per_state_values=tuple(per_state),
                            grid_resolution=resolution)
