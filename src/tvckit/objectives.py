"""Reduced-form objectives with evaluable slot-partials, plus the built-in models.

A discrete objective maps a window (y_t, ..., y_{t+n}) to a value in [-inf, inf);
a continuous objective does the same for a jet (x, x', ..., x^(n)).  Slot-partials
are analytic when supplied and central finite differences otherwise.

Every objective also evaluates whole batches of points at once
(values_batch, partials_batch).  The built-in and DSL objectives do so in
numpy; any other objective falls back to a loop over its per-point callables.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .core import SampleSpace, StochasticPath, TimeDomain
from .errors import DomainError, InputError, NumericalError

NEG_INF = float("-inf")

# slot-partial finite-difference step: relative, balanced for double precision
FD_SCALE = 1e-6
# largest relative gap gradient_check accepts between analytic and FD partials
GRADIENT_REL_TOL = 1e-6


def _as_point(point: np.ndarray) -> np.ndarray:
    point = np.asarray(point, dtype=float)
    if point.ndim == 1:
        point = point[:, None]
    return point


@dataclass(frozen=True)
class _Objective:
    """Shared machinery for discrete and continuous reduced-form objectives.

    eval_fn(point, t, w) -> float or -inf, where point has shape (order+1, dim).
    partial_fns, when given, is a sequence of per-slot callables with the same
    signature returning a scalar or a (dim,) vector.

    batch_eval_fn(points, t, w) -> (N,) and batch_partials_fn(points, t, w) ->
    (N, order+1, dim), when given, are the same maps over N points at once:
    points has shape (N, order+1, dim), t and w shape (N,).  They must agree
    with eval_fn and partial_fns point by point, errors included.
    """

    order: int
    eval_fn: Callable[[np.ndarray, float, int], float]
    partial_fns: tuple | None = None
    dim: int = 1
    name: str = ""
    batch_eval_fn: Callable | None = None
    batch_partials_fn: Callable | None = None

    def __post_init__(self):
        if self.order < 0:
            raise InputError("objective order must be >= 0")
        if self.partial_fns is not None:
            fns = tuple(self.partial_fns)
            if len(fns) != self.order + 1:
                raise InputError(f"need {self.order + 1} slot-partials, got {len(fns)}")
            object.__setattr__(self, "partial_fns", fns)

    @property
    def has_analytic_partials(self) -> bool:
        return self.partial_fns is not None

    def value(self, point, t, w) -> float:
        out = float(self.eval_fn(_as_point(point), t, w))
        if math.isnan(out) or out == math.inf:
            raise NumericalError(f"objective {self.name or '<anonymous>'} returned {out} at t={t}, state {w}")
        return out

    def values_batch(self, points, t, w) -> np.ndarray:
        """value() at each of N points; shape (N,)."""
        points = np.asarray(points, dtype=float)
        if self.batch_eval_fn is None:
            return np.array([self.value(p, ti, wi) for p, ti, wi in
                             zip(points, np.asarray(t).tolist(), np.asarray(w).tolist())],
                            dtype=float)
        t, w = np.asarray(t), np.asarray(w)
        out = np.asarray(self.batch_eval_fn(points, t, w), dtype=float)
        bad = np.isnan(out) | (out == math.inf)
        if bad.any():
            i = int(np.argmax(bad))
            raise NumericalError(f"objective {self.name or '<anonymous>'} returned {out[i]}"
                                 f" at t={t[i]}, state {w[i]}")
        return out

    def partials_batch(self, points, t, w) -> np.ndarray:
        """partial_slot() for every slot at each of N points; shape (N, order+1, dim)."""
        points = np.asarray(points, dtype=float)
        if self.batch_partials_fn is not None:
            return np.asarray(self.batch_partials_fn(points, np.asarray(t), np.asarray(w)),
                              dtype=float)
        if len(points) == 0:
            return np.empty((0, self.order + 1, self.dim))
        return np.array([[partial_slot(self, k, p, ti, wi) for k in range(self.order + 1)]
                         for p, ti, wi in
                         zip(points, np.asarray(t).tolist(), np.asarray(w).tolist())],
                        dtype=float)


@dataclass(frozen=True)
class DiscreteObjective(_Objective):
    """V(y_t, ..., y_{t+n}, t, w); the point argument is the window."""


@dataclass(frozen=True)
class ContinuousObjective(_Objective):
    """v(x, x', ..., x^(n), t, w); the point argument is the jet."""


def partial_slot(obj: _Objective, k: int, point, t, w) -> np.ndarray:
    """Partial derivative of the objective w.r.t. slot k at the given point; shape (dim,).

    Uses the analytic partial when available, otherwise a central finite
    difference with step FD_SCALE * max(1, |slot value|); falls back to a
    second-order one-sided difference when one side hits -inf.
    """
    if not (0 <= k <= obj.order):
        raise InputError(f"slot {k} outside 0..{obj.order}")
    point = _as_point(point)
    if obj.partial_fns is not None:
        out = np.atleast_1d(np.asarray(obj.partial_fns[k](point, t, w), dtype=float))
        return out
    f0 = obj.value(point, t, w)
    if f0 == NEG_INF:
        raise DomainError(f"objective is -inf at the evaluation point (t={t}, state {w})")
    out = np.empty(obj.dim)
    for i in range(obj.dim):
        h = FD_SCALE * max(1.0, abs(point[k, i]))
        out[i] = _fd_component(obj, point, t, w, k, i, h, f0)
    return out


def _shifted_value(obj, point, t, w, k, i, delta):
    shifted = point.copy()
    shifted[k, i] += delta
    return obj.value(shifted, t, w)

def _fd_component(obj, point, t, w, k, i, h, f0) -> float:
    fp = _shifted_value(obj, point, t, w, k, i, +h)
    fm = _shifted_value(obj, point, t, w, k, i, -h)
    if fp != NEG_INF and fm != NEG_INF:
        return (fp - fm) / (2.0 * h)
    # one side crosses the -inf boundary: second-order one-sided stencil
    if fp != NEG_INF:
        f2 = _shifted_value(obj, point, t, w, k, i, +2.0 * h)
        if f2 != NEG_INF:
            return (-3.0 * f0 + 4.0 * fp - f2) / (2.0 * h)
        return (fp - f0) / h
    if fm != NEG_INF:
        f2 = _shifted_value(obj, point, t, w, k, i, -2.0 * h)
        if f2 != NEG_INF:
            return (3.0 * f0 - 4.0 * fm + f2) / (2.0 * h)
        return (f0 - fm) / h
    raise DomainError(f"objective is -inf on both sides of slot {k} (t={t}, state {w})")


def fd_partial_slot(obj: _Objective, k: int, point, t, w) -> np.ndarray:
    """Finite-difference slot-partial, ignoring any analytic partials (oracle side)."""
    stripped = type(obj)(order=obj.order, eval_fn=obj.eval_fn, partial_fns=None,
                         dim=obj.dim, name=obj.name)
    return partial_slot(stripped, k, point, t, w)


@dataclass(frozen=True)
class GradientCheckReport:
    max_rel_gap: float
    checked: int
    skipped: int
    verdict: str  # "PASS" | "FAIL" | "INCONCLUSIVE"
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.verdict == "PASS"


def gradient_check(obj: _Objective, points: Sequence) -> GradientCheckReport:
    """Compare analytic slot-partials against central finite differences.

    points is a sequence of (point, t, w) triples; samples on the -inf boundary
    are skipped, and the check is inconclusive if all of them are.
    """
    if obj.partial_fns is None:
        raise InputError("gradient_check needs analytic partials to compare against")
    worst = 0.0
    checked = skipped = 0
    for point, t, w in points:
        point = _as_point(point)
        if obj.value(point, t, w) == NEG_INF:
            skipped += 1
            continue
        checked += 1
        for k in range(obj.order + 1):
            ana = partial_slot(obj, k, point, t, w)
            try:
                fd = fd_partial_slot(obj, k, point, t, w)
            except DomainError:
                skipped += 1
                continue
            gap = np.max(np.abs(ana - fd) / np.maximum(1.0, np.abs(ana)))
            worst = max(worst, float(gap))
    if checked == 0:
        return GradientCheckReport(math.nan, 0, skipped, "INCONCLUSIVE", GRADIENT_REL_TOL)
    verdict = "PASS" if worst <= GRADIENT_REL_TOL else "FAIL"
    return GradientCheckReport(worst, checked, skipped, verdict, GRADIENT_REL_TOL)


# ---------------------------------------------------------------------------
# Built-in models

@dataclass(frozen=True)
class QuadLinParams:
    """Per-state constants of the quadratic-linear models; all strictly positive."""

    alpha: tuple[float, ...]
    beta: tuple[float, ...]
    gamma: tuple[float, ...]

    def __post_init__(self):
        for field_name in ("alpha", "beta", "gamma"):
            vals = tuple(float(v) for v in getattr(self, field_name))
            object.__setattr__(self, field_name, vals)
            if any(v <= 0.0 for v in vals):
                raise InputError(f"{field_name} must be strictly positive per state")
        if not (len(self.alpha) == len(self.beta) == len(self.gamma)):
            raise InputError("alpha, beta, gamma must have one entry per state")

    @property
    def m(self) -> int:
        return len(self.alpha)


def _quadlin(params: QuadLinParams, cls, name: str):
    """(p0 - alpha(w))^2 + beta(w) p1 + gamma(w) p2 over a window or a jet p."""
    a, b, g = params.alpha, params.beta, params.gamma
    A, B, G = (np.asarray(v) for v in (a, b, g))

    def ev(point, t, w):
        return (point[0, 0] - a[w]) ** 2 + b[w] * point[1, 0] + g[w] * point[2, 0]

    partials = (
        lambda point, t, w: 2.0 * (point[0, 0] - a[w]),
        lambda point, t, w: b[w],
        lambda point, t, w: g[w],
    )

    def ev_batch(points, t, w):
        return (points[:, 0, 0] - A[w]) ** 2 + B[w] * points[:, 1, 0] + G[w] * points[:, 2, 0]

    def partials_batch(points, t, w):
        out = np.empty((len(points), 3, 1))
        out[:, 0, 0] = 2.0 * (points[:, 0, 0] - A[w])
        out[:, 1, 0] = B[w]
        out[:, 2, 0] = G[w]
        return out

    return cls(order=2, eval_fn=ev, partial_fns=partials, name=name,
               batch_eval_fn=ev_batch, batch_partials_fn=partials_batch)


def quadlin_continuous(params: QuadLinParams) -> ContinuousObjective:
    """(x - alpha(w))^2 + beta(w) x' + gamma(w) x''; order 2, scalar state."""
    return _quadlin(params, ContinuousObjective, "quadlin-continuous")


def quadlin_discrete(params: QuadLinParams) -> DiscreteObjective:
    """(y_t - alpha(w))^2 + beta(w) y_{t+1} + gamma(w) y_{t+2}; order 2, scalar state."""
    return _quadlin(params, DiscreteObjective, "quadlin-discrete")


def household_log(discount: float, n: int, zero_head: bool = True) -> DiscreteObjective:
    """Discounted log utility of lagged consumption.

    V(t) = discount^t * ln(c_t) with c_t = y_t + ... + y_{t+n-1} - y_{t+n};
    nonpositive consumption evaluates to -inf (not an error).  With zero_head
    (the default) the first n terms are pinned to zero: V(t) = 0 for t <= n-1,
    any window.  zero_head=False keeps the log term at every t, which makes
    truncated finite-horizon maximization well-posed (the zero-head variant is
    unbounded in the early variables because raising them is costless there).
    """
    if not (0.0 < discount < 1.0):
        raise InputError("discount must lie strictly inside (0, 1)")
    if n < 1:
        raise InputError("lag order n must be >= 1")

    def consumption(win):
        return float(np.sum(win[:n, 0]) - win[n, 0])

    def ev(win, t, w):
        if zero_head and t <= n - 1:
            return 0.0
        c = consumption(win)
        if c <= 0.0:
            return NEG_INF
        return discount**t * math.log(c)

    def make_partial(k):
        sign = 1.0 if k < n else -1.0

        def p(win, t, w):
            if zero_head and t <= n - 1:
                return 0.0
            c = consumption(win)
            if c <= 0.0:
                raise DomainError(f"consumption {c} <= 0 at t={t}, state {w}")
            return discount**t * sign / c

        return p

    def batch_parts(points, t):
        """(consumption, mask of points outside the pinned head)."""
        c = np.sum(points[:, :n, 0], axis=1) - points[:, n, 0]
        live = np.ones(len(points), dtype=bool) if not zero_head else t > n - 1
        return c, live

    def ev_batch(points, t, w):
        c, live = batch_parts(points, t)
        logs = np.log(c, out=np.full(c.shape, NEG_INF), where=c > 0.0)
        with np.errstate(invalid="ignore"):  # discount^t may underflow to 0 at the wall
            vals = np.where(c > 0.0, discount**t * logs, NEG_INF)
        return np.where(live, vals, 0.0)

    def partials_batch(points, t, w):
        c, live = batch_parts(points, t)
        wall = live & (c <= 0.0)
        if wall.any():
            i = int(np.argmax(wall))
            raise DomainError(f"consumption {c[i]} <= 0 at t={t[i]}, state {w[i]}")
        with np.errstate(divide="ignore"):  # pinned rows may have c == 0
            scale = discount**t / c
        out = np.empty((len(points), n + 1, 1))
        out[:, :n, 0] = np.where(live, scale, 0.0)[:, None]
        out[:, n, 0] = np.where(live, -scale, 0.0)
        return out

    return DiscreteObjective(order=n, eval_fn=ev,
                             partial_fns=tuple(make_partial(k) for k in range(n + 1)),
                             name="household-log" if zero_head else "household-log-live-head",
                             batch_eval_fn=ev_batch, batch_partials_fn=partials_batch)


# ---------------------------------------------------------------------------
# Closed-form paths of the built-in models

def quadlin_euler_path(domain: TimeDomain, space: SampleSpace,
                       params: QuadLinParams) -> StochasticPath:
    """Stationary path of the discrete quadratic-linear model.

    y(0) = alpha, y(1) = alpha - beta/2, y(t>=2) = alpha - (beta + gamma)/2.
    """
    if domain.kind != "discrete":
        raise InputError("quadlin_euler_path lives on a discrete domain")
    if params.m != space.m:
        raise InputError("params and sample space disagree on the state count")
    a = np.asarray(params.alpha)
    b = np.asarray(params.beta)
    g = np.asarray(params.gamma)
    vals = np.empty((domain.num_points, space.m, 1))
    vals[:, :, 0] = a - (b + g) / 2.0
    vals[0, :, 0] = a
    if domain.num_points > 1:
        vals[1, :, 0] = a - b / 2.0
    return StochasticPath(domain, space, vals)


def constant_alpha_path(domain: TimeDomain, space: SampleSpace,
                        params: QuadLinParams) -> StochasticPath:
    """Stationary path of the continuous quadratic-linear model: x(t) = alpha(w)."""
    if params.m != space.m:
        raise InputError("params and sample space disagree on the state count")
    return StochasticPath.constant(domain, space, np.asarray(params.alpha))
