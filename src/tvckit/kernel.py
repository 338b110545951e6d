"""Batched objective evaluation over the windows or jets of a path, and the
reductions the engines build from it.

One batched call of the objective covers every (window, state) pair of a
discrete path that an engine reads or every (time, state) pair of a
continuous one, or of the windows of a continuous path that an engine
reads, placed by a PointLayout that paths moved along a curve reuse.
Slot-partials come back as one tensor P[j, k, w, :] (window or time j,
slot k, state w).
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
    _check_windows(n, j_lo, j_hi, len(values))
    out = np.empty((j_hi - j_lo + 1, values.shape[1], n + 1) + values.shape[2:], values.dtype)
    for k in range(n + 1):
        out[:, :, k] = values[j_lo + k : j_hi + k + 1]
    return out


def _check_windows(n: int, j_lo: int, j_hi: int, count: int):
    if j_lo < 0 or j_hi + n > count - 1:
        raise HorizonError(f"windows [{j_lo}, {j_hi + n}] fall off the grid 0..{count - 1}")


def _point_table(times, states):
    """(t, w) of the points of a time table and a state list: each time
    repeated once per state, the states repeated once per time."""
    times, states = np.asarray(times).reshape(-1), np.asarray(states)
    # np.repeat copies one element at a time, slow where a copy would do
    t = np.repeat(times, len(states)) if len(states) > 1 else times.copy()
    return t, np.repeat(states[None], len(times), axis=0).reshape(-1)


def flatten(stack, t_axis, states):
    """(points, t, w) of a stack, window- or time-major (_point_table)."""
    points = stack.reshape((stack.shape[0] * stack.shape[1],) + stack.shape[2:])
    return (points,) + _point_table(t_axis, states)


def _check_dim(obj, stack):
    """Reject a path whose dimension is not the objective's: the objective would
    read component 0 and its partials would be broadcast over the rest."""
    if stack.shape[-1] != obj.dim:
        raise InputError(f"path has dimension {stack.shape[-1]}, "
                         f"objective {obj.name or '<anonymous>'} has dimension {obj.dim}")


def bind_at(obj, stack, t_axis, states):
    """(points, bound) of a stack: its flattened points and the objective
    bound to their (t, w) table (flatten)."""
    _check_dim(obj, stack)
    points, t, w = flatten(stack, t_axis, states)
    return points, obj.bind(t, w)


def values_at(obj, stack, t_axis, states) -> np.ndarray:
    """Objective values at every point of a stack; shape (J, m)."""
    points, bound = bind_at(obj, stack, t_axis, states)
    return bound.values(points).reshape(stack.shape[:2])


def slot_major(partials: np.ndarray, shape) -> np.ndarray:
    """Slot-partials (J*m, n+1, dim) at the flattened points of a stack of the
    given shape (J, m, n+1, dim) as P[j, k, w, :]; shape (J, n+1, m, dim)."""
    out = partials.reshape(shape[:3] + partials.shape[-1:])
    if out.shape != shape:  # one component standing for every dimension
        out = np.broadcast_to(out, shape)
    return out.transpose(0, 2, 1, 3)


def gather(series: np.ndarray, index: np.ndarray) -> np.ndarray:
    """The rows of a (time, state, dim) series at a table index (rows, K)
    whose columns each run over consecutive grid rows, the K columns side by
    side; shape (rows, K*m, dim), a view of series when K = 1."""
    rows, columns = index.shape
    if columns == 1:
        return series[index[0, 0] : index[0, 0] + rows]
    return series[index].reshape((rows, columns * series.shape[1]) + series.shape[2:])


def jet_windows(count: int, reach: int, rows) -> np.ndarray:
    """Grid rows of one window of 2*reach + 1 rows around each of `rows`,
    shifted to stay inside the grid 0..count-1 (the whole grid when it is
    narrower), one window per column; shape (width, len(rows))."""
    width = min(2 * reach + 1, count)
    starts = np.minimum(np.maximum(np.asarray(rows, dtype=int) - reach, 0), count - width)
    return starts + np.arange(width)[:, None]


class PointLayout:
    """Where an objective is evaluated along the paths of one domain, sample
    space and dimension: the windows starting at a table of grid rows
    (PointLayout.windows), the jets at every grid time (PointLayout.jets) or
    the jets on a stack of equal-width windows (PointLayout.jet_windows).  A
    layout is a table of grid rows and its time table, one entry per (row,
    column), each column consecutive rows; its point buffer and (t, w) table
    are built once, with every state of a column side by side, and the
    objective is bound to the table once (_Objective.bind).  The buffer is
    slot-major, shape (n+1, rows, K*m, dim): slot k of every point is one
    contiguous block, and the bound objective gets the points as its
    read-only (N, n+1, dim) transpose, which is not C-contiguous.  values
    and partials write a (time, state, dim) series' points into the buffer
    (a jet's derivatives straight into their slots) and make one call of the
    bound objective; a series that is not finite, or whose jets inside the
    table are not, is refused as a path is."""

    def __init__(self, obj, path: StochasticPath, index: np.ndarray, times: np.ndarray,
                 h=None, rows=slice(None)):
        m, slots = path.space.m, obj.order + 1
        self.obj, self._index, self._h, self._rows = obj, index, h, rows
        self._slots = np.empty((slots, len(index), index.shape[1] * m, path.dim))
        # one (time, state) point per (row, column, state) of the table; the
        # partials come back in the point order of a (rows, K*m, n+1, dim) stack
        self._shape = self._slots.shape[1:3] + (slots, path.dim)
        self._points = self._slots.reshape(slots, -1, path.dim).transpose(1, 0, 2)
        self._points.flags.writeable = False
        self._bound = obj.bind(*_point_table(times, np.arange(m)))

    @classmethod
    def windows(cls, obj, path: StochasticPath, index: np.ndarray) -> "PointLayout":
        """The windows of every state starting at a table of grid rows (rows,
        K), each column running up from its row 0 one row at a time."""
        if path.domain.kind != "discrete":
            raise UnsupportedError("windows are defined on discrete domains only")
        _check_windows(obj.order, min(index[0]), max(index[-1]), path.num_points)
        return cls(obj, path, index, index)

    @classmethod
    def jets(cls, obj, path: StochasticPath, last: int | None = None) -> "PointLayout":
        """The jets (x, x', ..., x^(n)) at every grid time and state, each
        evaluated (so a NaN anywhere raises); rows 0..last (all by default)."""
        return cls.jet_windows(obj, path, np.arange(path.num_points)[:, None],
                               slice(None if last is None else last + 1))

    @classmethod
    def jet_windows(cls, obj, path: StochasticPath, index: np.ndarray,
                    rows=slice(None)) -> "PointLayout":
        """The jets on the windows of a table of grid rows (kernel.jet_windows),
        each window differentiated on its own: a row less than k passes from
        a window edge that is not a grid edge has k-th derivatives unlike the
        whole grid's; rows `rows` of the table."""
        if path.domain.kind != "continuous":
            raise UnsupportedError("time derivatives are defined on continuous domains only")
        return cls(obj, path, index, index * path.domain.h, path.domain.h, rows)

    def _fill(self, series: np.ndarray) -> np.ndarray:
        slots = self._slots
        if self._h is None:  # windows: slot k of the window at row j is row j + k
            _check_finite(series)
            for k in range(len(slots)):
                slots[k] = gather(series[k:], self._index)
        else:
            slots[0] = gather(series, self._index)
            if len(slots[0]) < 3:  # too short to differentiate: refused after this check
                _check_finite(slots[0])
            with np.errstate(over="ignore", invalid="ignore"):  # non-finite jets raise below
                derivatives(slots[0], self._h, len(slots) - 1, out=slots[1:])
            _check_finite(slots)
        _check_dim(self.obj, slots)
        return self._points

    def _own(self, out: np.ndarray) -> np.ndarray:
        """out, copied when it is a view of the buffer the next series overwrites."""
        out = out[self._rows]
        return out.copy() if np.may_share_memory(out, self._slots) else out

    def values(self, series: np.ndarray) -> np.ndarray:
        """Objective values at the series' points; shape (rows, K*m)."""
        points = self._fill(series)
        return self._own(self._bound.values(points).reshape(self._shape[:2]))

    def partials(self, series: np.ndarray) -> np.ndarray:
        """Slot-partials at the series' points as P[j, k, c, :] (column c
        holding state c % m of window column c // m); shape (rows, n+1, K*m, dim)."""
        points = self._fill(series)
        return self._own(slot_major(self._bound.partials(points), self._shape))


def _check_finite(values: np.ndarray):
    if not np.isfinite(values).all():
        raise InputError("path values must all be finite")


def window_partials(obj, path: StochasticPath, j_lo: int, j_hi: int) -> np.ndarray:
    """P over windows j_lo..j_hi; shape (J, n+1, m, dim)."""
    index = np.arange(j_lo, j_hi + 1)[:, None]
    return PointLayout.windows(obj, path, index).partials(path.values)


def objective_layout(obj, path: StochasticPath, last: int | None = None) -> PointLayout:
    """The layout of per-time values at times 0..last, by the objective's
    type: the windows of a discrete objective (through the last full window
    by default), the jets of a continuous one (every grid time by default)."""
    if isinstance(obj, DiscreteObjective):
        last = max_window_start(path, obj.order) if last is None else last
        return PointLayout.windows(obj, path, np.arange(last + 1)[:, None])
    if isinstance(obj, ContinuousObjective):
        return PointLayout.jets(obj, path, last)
    raise UnsupportedError(f"unsupported objective type {type(obj).__name__}")


def objective_values(obj, path: StochasticPath, last: int | None = None) -> np.ndarray:
    """Per-time values at times 0..last (objective_layout); shape (last+1, m)."""
    return objective_layout(obj, path, last).values(path.values)


def expected_running_sum(path: StochasticPath, values: np.ndarray) -> np.ndarray:
    """Running sum over time (core.running_sum) of the expectation of
    per-time values (J, m); shape (J,)."""
    return running_sum(path.domain, expectation(path.space, values.T))


def momenta(P: np.ndarray, h: float, last: int | None = None) -> list[np.ndarray]:
    """Ostrogradsky momenta [p_0, ..., p_last] (through p_n by default) of a
    time-major jet-partial series P (slot k holds v_{k+1}), each shaped like
    P[:, 0]:

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
        for k in range(n + 1 if last is None else last + 1):
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
