"""Finite probability spaces, time grids, stochastic paths and perturbations.

Everything downstream (Euler/TVC engines, diagnostics, solvers) is built on the
four types here.  All expectations are exact weighted sums over a finite state
set; continuous time lives on a uniform grid with step ``h`` and every
derivative/integral claim carries an O(h^2) tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import HorizonError, InputError, UnsupportedError

PROB_TOL = 1e-12
GRID_TOL = 1e-9
# most grid steps (discrete t_max, continuous t_end / h) a time domain takes:
# 50 times the largest shipped or tested grid, and a path of it fits in memory
GRID_BUDGET = 1_000_000


@dataclass(frozen=True)
class SampleSpace:
    """Finite state set {1..m} with a probability mass per state."""

    probs: tuple[float, ...]

    def __post_init__(self):
        probs = tuple(float(p) for p in self.probs)
        object.__setattr__(self, "probs", probs)
        if not probs:
            raise InputError("sample space needs at least one state")
        if not all(0.0 <= p < math.inf for p in probs):
            raise InputError("probabilities must be finite and nonnegative")
        total = math.fsum(probs)
        if abs(total - 1.0) > PROB_TOL:
            raise InputError(f"probabilities sum to {total!r}, expected 1")

    @property
    def m(self) -> int:
        return len(self.probs)

    @property
    def states(self) -> tuple[int, ...]:
        return tuple(range(1, self.m + 1))

    @property
    def prob_array(self) -> np.ndarray:
        return np.asarray(self.probs, dtype=float)


def expectation(space: SampleSpace, z):
    """Exact expectation: sum_w probs(w) * z(w) along the first axis of z.

    -inf entries with positive mass propagate to -inf; zero-mass states are
    ignored entirely.  The sum is one BLAS product, whose last bit at an
    entry can depend on the operand's length and memory order: a subset of
    entries is the full operand's bit for bit only at its own positions in
    an operand of the same shape and order.
    """
    z = np.asarray(z, dtype=float)
    if z.shape[:1] != (space.m,):
        raise InputError(f"random quantity has {z.shape[0] if z.ndim else 0} states, space has {space.m}")
    if np.isposinf(z).any():
        raise InputError("+inf is not an admissible value")
    w = space.prob_array
    live = w > 0.0
    out = np.tensordot(w[live], z[live], axes=(0, 0))
    return float(out) if np.ndim(out) == 0 else out


def as_index(value, what: str) -> int:
    """A discrete time index: an integer, or a float with an integral value;
    anything else raises InputError naming the value."""
    try:
        index = int(value)
    except (TypeError, ValueError, OverflowError):
        index = None
    if index is None or index != value:
        raise InputError(f"{what}={value} is not an integer")
    return index


@dataclass(frozen=True)
class TimeDomain:
    """Discrete index set 0..t_max, or a uniform continuous grid t_k = k*h."""

    kind: str
    t_max: int | None = None
    t_end: float | None = None
    h: float | None = None

    def __post_init__(self):
        if self.kind == "discrete":
            if self.t_max is None or int(self.t_max) != self.t_max or self.t_max < 0:
                raise InputError("discrete domain needs an integer t_max >= 0")
            object.__setattr__(self, "t_max", int(self.t_max))
            steps = self.t_max
        elif self.kind == "continuous":
            if self.t_end is None or self.h is None or not (self.t_end > 0 and self.h > 0):
                raise InputError("continuous domain needs t_end > 0 and h > 0")
            ratio = self.t_end / self.h
            if not math.isfinite(ratio) or abs(ratio - round(ratio)) > GRID_TOL * max(1.0, ratio):
                raise InputError("t_end must be an integer multiple of h")
            steps = round(ratio)
        else:
            raise InputError(f"unknown time-domain kind {self.kind!r}")
        if steps > GRID_BUDGET:
            raise InputError(f"{steps} grid steps exceed the budget of {GRID_BUDGET}")

    @classmethod
    def discrete(cls, t_max: int) -> "TimeDomain":
        return cls(kind="discrete", t_max=t_max)

    @classmethod
    def continuous(cls, t_end: float, h: float) -> "TimeDomain":
        return cls(kind="continuous", t_end=float(t_end), h=float(h))

    @property
    def num_points(self) -> int:
        if self.kind == "discrete":
            return self.t_max + 1
        return int(round(self.t_end / self.h)) + 1

    def times(self) -> np.ndarray:
        if self.kind == "discrete":
            return np.arange(self.num_points, dtype=float)
        return np.arange(self.num_points) * self.h

    def index_of(self, t) -> int:
        """Grid index of time t; rejects off-grid times."""
        if self.kind == "discrete":
            if int(t) != t or not (0 <= t <= self.t_max):
                raise InputError(f"t={t} is not a grid index in 0..{self.t_max}")
            return int(t)
        k = t / self.h
        if abs(k - round(k)) > GRID_TOL * max(1.0, abs(k)):
            raise InputError(f"t={t} is not on the grid (h={self.h})")
        k = int(round(k))
        if not (0 <= k < self.num_points):
            raise HorizonError(f"t={t} lies outside [0, {self.t_end}]")
        return k


def _coerce_values(domain: TimeDomain, space: SampleSpace, values) -> np.ndarray:
    vals = np.asarray(values, dtype=float)
    if vals.ndim == 2:
        vals = vals[:, :, None]
    if vals.ndim != 3:
        raise InputError("path values must have shape (time, state) or (time, state, dim)")
    if vals.shape[0] != domain.num_points:
        raise InputError(f"path has {vals.shape[0]} time points, domain has {domain.num_points}")
    if vals.shape[1] != space.m:
        raise InputError(f"path has {vals.shape[1]} states, space has {space.m}")
    if not np.isfinite(vals).all():
        raise InputError("path values must all be finite")
    vals = vals.copy()
    vals.flags.writeable = False
    return vals


def _state_block(space: SampleSpace, value) -> np.ndarray:
    """A per-state value as an (m, dim) block: a scalar or one value per state
    (m,) is a dim-1 block, an (m, dim) array is kept."""
    block = np.array(value, dtype=float)
    if block.ndim == 0:
        return np.full((space.m, 1), float(block))
    return block[:, None] if block.ndim == 1 else block


@dataclass(frozen=True)
class StochasticPath:
    """Trajectory y(t, w) in R^dim over every grid point of a time domain."""

    domain: TimeDomain
    space: SampleSpace
    values: np.ndarray  # (num_points, m, dim), read-only

    def __post_init__(self):
        object.__setattr__(self, "values", _coerce_values(self.domain, self.space, self.values))

    @property
    def dim(self) -> int:
        return self.values.shape[2]

    @property
    def num_points(self) -> int:
        return self.values.shape[0]

    def window(self, t: int, n: int) -> np.ndarray:
        """The n+1 consecutive values (y(t), ..., y(t+n)); shape (n+1, m, dim)."""
        if self.domain.kind != "discrete":
            raise UnsupportedError("windows are defined on discrete domains only")
        if t < 0 or t + n > self.domain.t_max:
            raise HorizonError(f"window [{t}, {t + n}] falls off the grid 0..{self.domain.t_max}")
        return self.values[t : t + n + 1]

    @classmethod
    def from_function(cls, domain: TimeDomain, space: SampleSpace,
                      fn: Callable[[float, int], float], dim: int = 1) -> "StochasticPath":
        """Sample fn(t, state_index) on the full grid; fn may return a scalar or a dim-vector."""
        times = domain.times()
        vals = np.empty((domain.num_points, space.m, dim))
        for it, t in enumerate(times):
            for w in range(space.m):
                vals[it, w] = fn(t, w)
        return cls(domain, space, vals)

    @classmethod
    def constant(cls, domain: TimeDomain, space: SampleSpace, value) -> "StochasticPath":
        """Path constant in time; value may be a scalar, per-state (m,), or (m, dim)."""
        block = _state_block(space, value)
        vals = np.broadcast_to(block, (domain.num_points, space.m, block.shape[1])).copy()
        return cls(domain, space, vals)


def _check_same_shape(a: StochasticPath, b: StochasticPath):
    if a.domain != b.domain or a.space != b.space or a.values.shape != b.values.shape:
        raise InputError("paths must share domain, sample space and dimension")


@dataclass(frozen=True)
class PerturbationCurve(StochasticPath):
    """Perturbation q(t,w)/p(t,w) with validated head and tail structure.

    vanishing_head = k means the first k values (discrete) or derivatives
    (continuous, checked on the grid within 10*h) at t=0 are zero.  The tail is
    either eventually constant from tail_onset on, compactly supported beyond
    tail_onset, or unstructured (tail_kind None).
    """

    vanishing_head: int = 0
    tail_kind: str | None = None  # "eventually-constant" | "compact-support" | None
    tail_onset: float | None = None
    tail_value: np.ndarray | None = None  # (m, dim), for eventually-constant

    def __post_init__(self):
        super().__post_init__()
        self._check_head()
        self._check_tail()

    def _check_head(self):
        k = self.vanishing_head
        if k < 0:
            raise InputError("vanishing_head must be >= 0")
        if k == 0:
            return
        if self.domain.kind == "discrete":
            if np.any(self.values[:k] != 0.0):
                raise InputError(f"first {k} values must be exactly zero (vanishing_head={k})")
        else:
            tol = 10.0 * self.domain.h
            for j, deriv in enumerate(derivatives(self.values, self.domain.h, k - 1)):
                if np.abs(deriv[0]).max() > tol:
                    raise InputError(
                        f"derivative of order {j} at t=0 exceeds the grid tolerance {tol}")

    def _check_tail(self):
        if self.tail_kind is None:
            return
        if self.tail_onset is None:
            raise InputError("structured tails need a tail_onset time")
        start = self.domain.index_of(self.tail_onset)
        if self.tail_kind == "eventually-constant":
            if self.tail_value is None:
                raise InputError("eventually-constant tails need a tail_value")
            tv = np.asarray(self.tail_value, dtype=float)
            if tv.ndim == 1:
                tv = tv[:, None]
            object.__setattr__(self, "tail_value", tv)
            if np.any(self.values[start:] != tv[None]):
                raise InputError("values must equal the tail value exactly for t >= tail_onset")
        elif self.tail_kind == "compact-support":
            if np.any(self.values[start + 1 :] != 0.0):
                raise InputError("values must be exactly zero beyond the cutoff time")
        else:
            raise InputError(f"unknown tail kind {self.tail_kind!r}")


def perturb(base: StochasticPath, curve: PerturbationCurve, eps: float) -> StochasticPath:
    """The perturbed path base + eps * curve, entry by entry."""
    _check_same_shape(base, curve)
    return StochasticPath(base.domain, base.space, base.values + eps * curve.values)


# grid rows a pass of derivatives reads on each side of a row it writes.  After
# k passes over a window of the grid, a row at least k*STENCIL_REACH rows from
# each window edge that is not a grid edge has the whole grid's bits
STENCIL_REACH = 1


def derivatives(values, h: float, k: int, out=None) -> list[np.ndarray]:
    """[x, x', ..., x^(k)] of a series sampled with step h along axis 0.

    Each derivative is one more composed pass of central differences on the
    interior with second-order one-sided stencils at the two edges (O(h^2) on
    smooth data).  Every time derivative in the toolkit is taken here.  A pass
    is np.gradient(..., axis=0, edge_order=2)'s arithmetic operation for
    operation, so its bits are np.gradient's, without np.gradient's per-call
    set-up.  Given out, k float arrays shaped like values (a point buffer's
    slots, say), pass i is written into out[i-1]; otherwise into a fresh
    array in np.gradient's memory order.
    """
    chain = [values]
    if k >= 1 and len(values) < 3:
        raise InputError(f"a time derivative needs at least 3 grid points, got {len(values)}")
    left, right = (-1.5 / h, 2.0 / h, -0.5 / h), (0.5 / h, -2.0 / h, 1.5 / h)
    for i in range(k):
        f = chain[-1]
        d = np.empty_like(f, dtype=float) if out is None else out[i]
        inner = d[1:-1]
        np.subtract(f[2:], f[:-2], out=inner)
        np.divide(inner, 2.0 * h, out=inner)
        d[0] = left[0] * f[0] + left[1] * f[1] + left[2] * f[2]
        d[-1] = right[0] * f[-3] + right[1] * f[-2] + right[2] * f[-1]
        chain.append(d)
    return chain


def running_sum(domain: TimeDomain, series) -> np.ndarray:
    """Running sums of a per-time series along axis 0: the partial sums over
    windows on a discrete domain (from +0.0), the cumulative trapezoid rule
    (0 at t = 0) on a continuous one.  Every sum over time in the toolkit is
    taken here."""
    e = np.asarray(series, dtype=float)
    if domain.kind == "discrete":
        return np.cumsum(e, axis=0) + 0.0
    steps = np.cumsum((e[1:] + e[:-1]) * 0.5 * domain.h, axis=0)
    return np.concatenate([np.zeros((1,) + e.shape[1:]), steps])


def time_derivative(path: StochasticPath, k: int) -> StochasticPath:
    """k-th time derivative on a continuous grid (see derivatives)."""
    if path.domain.kind != "continuous":
        raise UnsupportedError("time derivatives are defined on continuous domains only")
    if k < 1:
        raise InputError("derivative order must be >= 1")
    if path.num_points < 2 * k + 1:
        raise InputError(f"need at least {2 * k + 1} grid points for a {k}-th derivative")
    return StochasticPath(path.domain, path.space, derivatives(path.values, path.domain.h, k)[k])


def integrate_time(series: StochasticPath, up_to: float) -> np.ndarray:
    """Trapezoid integral of a dim-1 series over [0, up_to], per state; shape (m,)."""
    if series.domain.kind != "continuous":
        raise UnsupportedError("time integration is defined on continuous domains only")
    if series.dim != 1:
        raise InputError("integrate_time expects a dim-1 series")
    idx = series.domain.index_of(up_to)
    return running_sum(series.domain, series.values[: idx + 1, :, 0])[-1]


# ---------------------------------------------------------------------------
# Curve constructors

def smoothstep_quintic(tau):
    """6 tau^5 - 15 tau^4 + 10 tau^3 on [0,1]: value and first two derivatives vanish at 0."""
    tau = np.clip(tau, 0.0, 1.0)
    return tau**3 * (10.0 + tau * (-15.0 + 6.0 * tau))


def eventually_constant_curve(domain: TimeDomain, space: SampleSpace,
                              onset: int, value) -> PerturbationCurve:
    """Discrete curve: zero before onset, constant value from onset on."""
    if domain.kind != "discrete":
        raise UnsupportedError("use quintic_ramp_curve on continuous domains")
    block = _state_block(space, value)
    vals = np.zeros((domain.num_points, space.m, block.shape[1]))
    vals[onset:] = block
    return PerturbationCurve(domain, space, vals, vanishing_head=onset,
                             tail_kind="eventually-constant", tail_onset=onset,
                             tail_value=block)


def compact_support_curve(domain: TimeDomain, space: SampleSpace,
                          onset: int, cutoff: int, value) -> PerturbationCurve:
    """Discrete curve: constant value on [onset, cutoff], zero outside."""
    if domain.kind != "discrete":
        raise UnsupportedError("compact_support_curve is discrete-only")
    if not (0 <= onset <= cutoff <= domain.t_max):
        raise InputError("need 0 <= onset <= cutoff <= t_max")
    block = _state_block(space, value)
    vals = np.zeros((domain.num_points, space.m, block.shape[1]))
    vals[onset : cutoff + 1] = block
    return PerturbationCurve(domain, space, vals, vanishing_head=onset,
                             tail_kind="compact-support", tail_onset=cutoff)


def quintic_ramp_curve(domain: TimeDomain, space: SampleSpace,
                       target, ramp_end: float = 1.0) -> PerturbationCurve:
    """Continuous curve ramping smoothly from 0 to a constant target by ramp_end.

    The quintic smoothstep leaves the value and the first two derivatives zero
    at t=0.  The grid-level head check is only trustworthy through first
    derivatives, so the validated head order is 2.
    """
    if domain.kind != "continuous":
        raise UnsupportedError("quintic_ramp_curve is continuous-only")
    block = _state_block(space, target)
    ramp = smoothstep_quintic(domain.times() / ramp_end)
    vals = ramp[:, None, None] * block[None]
    return PerturbationCurve(domain, space, vals, vanishing_head=2,
                             tail_kind="eventually-constant", tail_onset=ramp_end,
                             tail_value=block)


def zero_curve(domain: TimeDomain, space: SampleSpace, dim: int = 1) -> PerturbationCurve:
    vals = np.zeros((domain.num_points, space.m, dim))
    return PerturbationCurve(domain, space, vals, vanishing_head=0)
