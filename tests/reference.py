"""Per-point reference implementations of the batched engines.

These are the loop forms the engines used before they were written as
reductions over one batched objective call: one partial_slot or value call
per (window or time, state, slot).  The kernel tests hold the engines to
them.
"""

import numpy as np

import tvckit as tk
from tvckit.errors import DomainError, HorizonError
from tvckit.euler import max_window_start


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
