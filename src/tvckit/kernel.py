"""Batched objective evaluation over the windows or jets of a path, and the
reductions the engines build from it.

One batched call of the objective covers every (window, state) pair of a
discrete path or every (time, state) pair of a continuous one.  Slot-partials
come back as one tensor P[j, k, w, :] (window or time j, slot k, state w).
Discrete: an Euler row is a clipped diagonal sum of P, and the tail at a
truncation T' is the rows past T' of the windows up to T'.  Continuous: the
Euler residual and the boundary coefficients are the momenta of P.
"""

from __future__ import annotations

import numpy as np

from .core import StochasticPath, derivatives, expectation, running_sum
from .errors import HorizonError, InputError, UnsupportedError
from .objectives import ContinuousObjective, DiscreteObjective


def max_window_start(path: StochasticPath, n: int) -> int:
    """Largest j such that the window (y_j, ..., y_{j+n}) fits on the grid."""
    last = path.num_points - 1 - n
    if last < 0:
        raise HorizonError(f"horizon {path.num_points - 1} shorter than objective order {n}")
    return last


def window_stack(values: np.ndarray, n: int, j_lo: int, j_hi: int) -> np.ndarray:
    """Windows j_lo..j_hi of a (time, state, dim) array; shape (J, m, n+1, dim)."""
    if j_lo < 0 or j_hi + n > len(values) - 1:
        raise HorizonError(f"windows [{j_lo}, {j_hi + n}] fall off the grid 0..{len(values) - 1}")
    out = np.empty((j_hi - j_lo + 1, values.shape[1], n + 1) + values.shape[2:], values.dtype)
    for k in range(n + 1):
        out[:, :, k] = values[j_lo + k : j_hi + k + 1]
    return out


def _flatten(stack, t_axis, states):
    """(points, t, w) of a stack, window- or time-major: each time repeated
    once per state, the states repeated once per time."""
    grid = stack.shape[:2]
    points = stack.reshape((grid[0] * grid[1],) + stack.shape[2:])
    t = np.repeat(np.asarray(t_axis), grid[1])
    return points, t, np.repeat(np.asarray(states)[None], grid[0], axis=0).reshape(-1)


def _check_dim(obj, stack):
    """Reject a path whose dimension is not the objective's: the objective would
    read component 0 and its partials would be broadcast over the rest."""
    if stack.shape[-1] != obj.dim:
        raise InputError(f"path has dimension {stack.shape[-1]}, "
                         f"objective {obj.name or '<anonymous>'} has dimension {obj.dim}")


def values_at(obj, stack, t_axis, states) -> np.ndarray:
    """Objective values at every point of a stack; shape (J, m)."""
    _check_dim(obj, stack)
    return obj.values_batch(*_flatten(stack, t_axis, states)).reshape(stack.shape[:2])


def partials_at(obj, stack, t_axis, states) -> np.ndarray:
    """Slot-partials at every point of a stack as P[j, k, w, :]; shape (J, n+1, m, dim)."""
    _check_dim(obj, stack)
    return slot_major(obj.partials_batch(*_flatten(stack, t_axis, states)), stack.shape)


def slot_major(partials: np.ndarray, shape) -> np.ndarray:
    """Slot-partials (J*m, n+1, dim) at the flattened points of a stack of the
    given shape (J, m, n+1, dim) as P[j, k, w, :]; shape (J, n+1, m, dim)."""
    out = partials.reshape(shape[:3] + partials.shape[-1:])
    if out.shape != shape:  # one component standing for every dimension
        out = np.broadcast_to(out, shape)
    return out.transpose(0, 2, 1, 3)


def _discrete_windows(path: StochasticPath, n: int, j_lo: int, j_hi: int):
    if path.domain.kind != "discrete":
        raise UnsupportedError("windows are defined on discrete domains only")
    return (window_stack(path.values, n, j_lo, j_hi), np.arange(j_lo, j_hi + 1),
            np.arange(path.space.m))


def window_values(obj, path: StochasticPath, j_lo: int, j_hi: int) -> np.ndarray:
    """V at windows j_lo..j_hi of every state; shape (J, m)."""
    return values_at(obj, *_discrete_windows(path, obj.order, j_lo, j_hi))


def window_partials(obj, path: StochasticPath, j_lo: int, j_hi: int) -> np.ndarray:
    """P over windows j_lo..j_hi; shape (J, n+1, m, dim)."""
    return partials_at(obj, *_discrete_windows(path, obj.order, j_lo, j_hi))


def _jets(path: StochasticPath, n: int):
    """(x, x', ..., x^(n)) at every grid time and state, stacked (num_points, m, n+1, dim)."""
    if path.domain.kind != "continuous":
        raise UnsupportedError("time derivatives are defined on continuous domains only")
    jets = derivatives(path.values, path.domain.h, n)
    if not all(np.isfinite(d).all() for d in jets[1:]):
        raise InputError("path values must all be finite")
    return np.stack(jets, axis=2), path.domain.times(), np.arange(path.space.m)


def jet_values(obj, path: StochasticPath) -> np.ndarray:
    """v along the path's jets at every grid time and state; shape (num_points, m)."""
    return values_at(obj, *_jets(path, obj.order))


def jet_partials(obj, path: StochasticPath) -> np.ndarray:
    """P along the path's jets, time-major; shape (num_points, n+1, m, dim)."""
    return partials_at(obj, *_jets(path, obj.order))


def objective_values(obj, path: StochasticPath, last: int | None = None) -> np.ndarray:
    """Per-time values at times 0..last, by the objective's type: V at the
    windows of a discrete objective (through the last full window by
    default), v along the jets of a continuous one (every grid time by
    default); shape (last+1, m)."""
    if isinstance(obj, DiscreteObjective):
        return window_values(obj, path, 0, max_window_start(path, obj.order)
                             if last is None else last)
    if isinstance(obj, ContinuousObjective):
        return jet_values(obj, path)[: None if last is None else last + 1]
    raise UnsupportedError(f"unsupported objective type {type(obj).__name__}")


def expected_running_sum(path: StochasticPath, values: np.ndarray) -> np.ndarray:
    """Running sum over time (core.running_sum) of the expectation of
    per-time values (J, m); shape (J,)."""
    return running_sum(path.domain, expectation(path.space, values.T))


def momenta(P: np.ndarray, h: float) -> list[np.ndarray]:
    """Ostrogradsky momenta [p_0, ..., p_n] of a time-major jet-partial
    series P (slot k holds v_{k+1}), each shaped like P[:, 0]:

        p_k = v_{k+1} - (v_{k+2})' + ... + (-1)^(n-k) (v_{n+1})^(n-k).

    p_0 is the Euler residual and p_1..p_n are the boundary coefficients of
    the first variation.  Overflow and invalid values pass without a
    warning: callers test finiteness.
    """
    n = P.shape[1] - 1
    with np.errstate(over="ignore", invalid="ignore"):
        # slot k is differentiated at most k times, in p_0
        chains = [derivatives(P[:, k], h, k) for k in range(n + 1)]
        out = []
        for k in range(n + 1):
            p = np.zeros(P[:, 0].shape)
            for s in range(n - k + 1):
                p += (-1) ** s * chains[k + s][s]
            out.append(p)
    return out


def euler_rows(P: np.ndarray) -> np.ndarray:
    """Row r sums the slot-k partials of windows r-k (k = 0..n) present in P,
    in increasing window order; shape (J+n, m, dim).

    With P starting at window j_lo, row r is the stationarity row at index
    j_lo + r restricted to those windows.
    """
    count, slots = P.shape[:2]
    rows = np.zeros((count + slots - 1,) + P.shape[2:])
    for k in range(slots - 1, -1, -1):
        rows[k : k + count] += P[:, k]
    return rows


def tail_terms(P: np.ndarray, q_values: np.ndarray, tprimes, first: int = 0) -> np.ndarray:
    """Per-state tail term at each truncation T' before the expectation:
    sum_{k=1}^{n} sum_i q_i(T'+k) * row_i(T'+k), where row(T'+k) is the
    Euler row at T'+k of the windows up to T' alone, that is the Euler row
    at T' of the slots k..n (euler_rows of P[:, k:]).  P[0] is window
    `first`; shape (len(tprimes), m)."""
    n = P.shape[1] - 1
    tp = np.asarray(tprimes, dtype=int)
    total = np.zeros((len(tp), P.shape[2]))
    for k in range(1, n + 1):
        total += np.sum(euler_rows(P[:, k:])[tp - first] * q_values[tp + k], axis=-1)
    return total
