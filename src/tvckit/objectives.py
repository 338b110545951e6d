"""Reduced-form objectives with evaluable slot-partials, plus the built-in models.

A discrete objective maps a window (y_t, ..., y_{t+n}) to a value in [-inf, inf);
a continuous objective does the same for a jet (x, x', ..., x^(n)).  Slot-partials
are analytic when supplied and five-point finite differences otherwise.

An objective holds its formula once: batched over N points (the built-in and
DSL objectives, in numpy) or per point (plain callables, which a loop
adapter runs).  Every engine and oracle evaluates whole batches of points;
value and partial_slot are those batches at one point.  bind(t, w) fixes the
times and states of a batch, and a bound objective evaluates any number of
point sets on them: what depends on (t, w) alone is computed once per bind.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .core import SampleSpace, StochasticPath, TimeDomain
from .errors import DomainError, InputError, NumericalError

NEG_INF = float("-inf")

# five-point slot-partial steps, tried in turn, in units of the largest power
# of two <= max(1, |entry|): powers of two, so every stencil point is exact
FD_STEPS = 2.0 ** -np.arange(10, 40, 2)
# largest relative gap between the five-point and central differences at one step
FD_AGREEMENT = 1e-6
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

    The formula comes in exactly one of two forms.  Batched:
    batch_eval_fn(points, t, w) -> (N,) values in [-inf, inf) and, optionally,
    batch_partials_fn(points, t, w) -> (N, order+1, dim) slot-partials, where
    points has shape (N, order+1, dim) and t, w shape (N,).  Per point:
    eval_fn(point, t, w) -> float or -inf with point of shape (order+1, dim)
    and, optionally, partial_fns, one callable per slot with the same
    signature returning a scalar or a (dim,) vector; values_batch and
    partials_batch loop over them.  Without either partials, partials_batch
    takes fd_partials of values_batch.  values_batch and partials_batch are
    bind(t, w).values(points) and .partials(points).  The engines pass the
    batch functions a read-only view of a slot-major point buffer
    (kernel.PointLayout), which is not C-contiguous: they read points and
    neither write into it nor rely on its memory order.
    """

    order: int
    eval_fn: Callable[[np.ndarray, float, int], float] | None = None
    partial_fns: tuple | None = None
    dim: int = 1
    name: str = ""
    batch_eval_fn: Callable | None = None
    batch_partials_fn: Callable | None = None

    def __post_init__(self):
        if self.order < 0:
            raise InputError("objective order must be >= 0")
        per_point = self.eval_fn is not None
        other_partials = self.batch_partials_fn if per_point else self.partial_fns
        if per_point == (self.batch_eval_fn is not None) or other_partials is not None:
            raise InputError("an objective takes eval_fn (and partial_fns) or "
                             "batch_eval_fn (and batch_partials_fn), not both")
        if self.partial_fns is not None:
            fns = tuple(self.partial_fns)
            if len(fns) != self.order + 1:
                raise InputError(f"need {self.order + 1} slot-partials, got {len(fns)}")
            object.__setattr__(self, "partial_fns", fns)

    @property
    def has_analytic_partials(self) -> bool:
        return self.partial_fns is not None or self.batch_partials_fn is not None

    def bind(self, t, w) -> "BoundObjective":
        """The objective bound to the times t and states w, shape (N,), of
        N points: what depends on (t, w) alone is computed here, once, not
        per call.  household_log and the DSL objectives bind their own
        tables (_bindable); any other objective, or one whose batch
        functions were replaced, binds to closures over its batch or
        per-point functions."""
        t, w = np.asarray(t), np.asarray(w)
        own = getattr(self.batch_eval_fn, "bind", None)
        if own is not None and getattr(self.batch_partials_fn, "bind", None) is own:
            return BoundObjective(self, t, w, *own(t, w))
        if self.batch_eval_fn is not None:
            values = lambda points: self.batch_eval_fn(points, t, w)
            partials = (None if self.batch_partials_fn is None
                        else lambda points: self.batch_partials_fn(points, t, w))
            return BoundObjective(self, t, w, values, partials)
        times, states = t.tolist(), w.tolist()
        values = lambda points: np.array([float(self.eval_fn(p, ti, wi)) for p, ti, wi
                                          in zip(points, times, states)], dtype=float)
        partials = None if self.partial_fns is None else lambda points: np.array(
            [[np.atleast_1d(np.asarray(fn(p, ti, wi), dtype=float)) for fn in self.partial_fns]
             for p, ti, wi in zip(points, times, states)])
        return BoundObjective(self, t, w, values, partials)

    def value(self, point, t, w) -> float:
        """values_batch at one point."""
        return float(self.values_batch(_as_point(point)[None], [t], [w])[0])

    def values_batch(self, points, t, w) -> np.ndarray:
        """The objective at each of N points; shape (N,).  NaN and +inf raise."""
        return self.bind(t, w).values(points)

    def partials_batch(self, points, t, w) -> np.ndarray:
        """Every slot-partial at each of N points; shape (N, order+1, dim)."""
        return self.bind(t, w).partials(points)


class BoundObjective:
    """An objective bound to the times t and states w of N points
    (_Objective.bind): values(points) and partials(points) at points of
    shape (N, order+1, dim), as values_batch and partials_batch give them."""

    __slots__ = ("obj", "t", "w", "_values", "_partials")

    def __init__(self, obj: _Objective, t: np.ndarray, w: np.ndarray,
                 values: Callable, partials: Callable | None):
        self.obj, self.t, self.w, self._values, self._partials = obj, t, w, values, partials

    def values(self, points) -> np.ndarray:
        """The objective at each point; shape (N,).  NaN and +inf raise."""
        out = np.asarray(self._values(np.asarray(points, dtype=float)), dtype=float)
        allowed = out < math.inf  # False at nan and +inf
        if not allowed.all():
            i = int(np.argmin(allowed))
            raise NumericalError(f"objective {self.obj.name or '<anonymous>'} returned {out[i]}"
                                 f" at t={self.t[i]}, state {self.w[i]}")
        return out

    def partials(self, points) -> np.ndarray:
        """Every slot-partial at each point; shape (N, order+1, dim): the
        analytic ones, else fd_partials, where an unresolved slot raises."""
        points, obj = np.asarray(points, dtype=float), self.obj
        if obj.batch_partials_fn is not None:
            return np.asarray(self._partials(points), dtype=float)
        if len(points) == 0:
            return np.empty((0, obj.order + 1, obj.dim))
        if self._partials is None:
            return _fd_or_raise(obj, points, self.t, self.w)
        return self._partials(points)


def _bindable(bind: Callable) -> dict:
    """The batch_eval_fn and batch_partials_fn of an objective whose
    bind(t, w) returns its (values(points), partials(points)): each batch
    function binds once per call, and _Objective.bind calls bind itself
    while the objective holds both."""
    def values(points, t, w):
        return bind(t, w)[0](points)

    def partials(points, t, w):
        return bind(t, w)[1](points)

    values.bind = partials.bind = bind
    return {"batch_eval_fn": values, "batch_partials_fn": partials}


@dataclass(frozen=True)
class DiscreteObjective(_Objective):
    """V(y_t, ..., y_{t+n}, t, w); the point argument is the window."""


@dataclass(frozen=True)
class ContinuousObjective(_Objective):
    """v(x, x', ..., x^(n), t, w); the point argument is the jet."""


def _one_point(obj: _Objective, k: int, point, t, w):
    if not (0 <= k <= obj.order):
        raise InputError(f"slot {k} outside 0..{obj.order}")
    return _as_point(point)[None], np.asarray([t]), np.asarray([w])


def partial_slot(obj: _Objective, k: int, point, t, w) -> np.ndarray:
    """Partial derivative of the objective w.r.t. slot k at the given point; shape (dim,).

    partials_batch at one point: the analytic partial when available,
    otherwise fd_partials, where an unresolved slot raises.
    """
    return obj.partials_batch(*_one_point(obj, k, point, t, w))[0, k]


def fd_partial_slot(obj: _Objective, k: int, point, t, w) -> np.ndarray:
    """Finite-difference slot-partial, ignoring any analytic partials (oracle side)."""
    return _fd_or_raise(obj, *_one_point(obj, k, point, t, w))[0, k]


def shifted_values(obj: _Objective, points: np.ndarray, t: np.ndarray, w: np.ndarray,
                   rows: np.ndarray, cols: np.ndarray, deltas: np.ndarray) -> np.ndarray:
    """values_batch at K = len(rows) points with one entry moved, all in one call.

    Point rows[i] has its entry cols[i] (in (slot, component) order) moved by
    deltas[s, i]; deltas has shape (S, K), and so do the returned values.
    """
    flat = points.reshape(len(points), points.shape[1] * points.shape[2])
    moved = np.repeat(flat[None, rows], len(deltas), axis=0)
    moved[:, np.arange(len(rows)), cols] += deltas
    return obj.values_batch(moved.reshape((-1,) + points.shape[1:]), np.tile(t[rows], len(deltas)),
                            np.tile(w[rows], len(deltas))).reshape(deltas.shape)


def fd_partials(obj: _Objective, points: np.ndarray, t: np.ndarray, w: np.ndarray):
    """Five-point differences of values_batch in every slot component at N
    points; analytic partials are ignored.

    Each entry takes the stencil (f(-2h) - 8 f(-h) + 8 f(h) - f(2h)) / 12h at
    the first of the steps h = FD_STEPS * 2^floor(log2 max(1, |entry|)) whose
    four points are finite and whose value is within FD_AGREEMENT (relative)
    of the central difference at h.  A step is also refused when the rounding
    of the values, eps * max |f| / h, exceeds that same margin: the two
    differences then agree on noise.  Each step is one values_batch call over
    the entries still open.  Returns (P, unresolved): P has shape (N,
    order+1, dim), and unresolved (N, order+1) marks the slots with an entry
    that no step resolves (P is nan there).
    """
    flat = points.reshape(len(points), points.shape[1] * points.shape[2])
    out = np.full(flat.shape, np.nan)
    rows, cols = np.indices(flat.shape).reshape(2, -1)
    for step in FD_STEPS:
        if not len(rows):
            break
        h = np.ldexp(step, np.frexp(np.maximum(1.0, np.abs(flat[rows, cols])))[1] - 1)
        fm2, fm1, fp1, fp2 = shifted_values(obj, points, t, w, rows, cols,
                                            np.array([[-2.0], [-1.0], [1.0], [2.0]]) * h)
        # -inf - -inf where a point meets the wall, inf near the float maximum:
        # either leaves the entry open
        with np.errstate(over="ignore", invalid="ignore"):
            five = (fm2 - 8.0 * fm1 + 8.0 * fp1 - fp2) / (12.0 * h)
            margin = FD_AGREEMENT * np.maximum(1.0, np.abs(five))
            rounding = np.finfo(float).eps * np.max(np.abs([fm2, fm1, fp1, fp2]), axis=0) / h
            done = (np.isfinite(five) & (np.abs(five - (fp1 - fm1) / (2.0 * h)) <= margin)
                    & (rounding <= margin))
        out[rows[done], cols[done]] = five[done]
        rows, cols = rows[~done], cols[~done]
    return out.reshape(points.shape), np.isnan(out).reshape(points.shape).any(axis=2)


def _fd_or_raise(obj, points, t, w) -> np.ndarray:
    """fd_partials at points where the objective must be finite and every entry resolved."""
    f0 = obj.values_batch(points, t, w)
    if np.isneginf(f0).any():
        i = int(np.argmax(np.isneginf(f0)))
        raise DomainError(f"objective is -inf at the evaluation point (t={t[i]}, state {w[i]})")
    out, unresolved = fd_partials(obj, points, t, w)
    if unresolved.any():
        raise unresolved_fault(unresolved, t, w)
    return out


def unresolved_fault(unresolved: np.ndarray, t, w) -> DomainError | None:
    """The DomainError for the first slot in (point, slot) order that
    fd_partials left unresolved at the points with times t and states w;
    None if every slot resolved."""
    if not unresolved.any():
        return None
    i, k = np.argwhere(unresolved)[0]
    return DomainError(f"no finite-difference step resolves slot {k} (t={t[i]}, state {w[i]})")


def rel_gap(approx: np.ndarray, reference: np.ndarray) -> float:
    """max |approx - reference| / max(1, |reference|) over every entry; 0.0 when
    empty.  A nan (an infinite reference) propagates, and fails any tolerance."""
    with np.errstate(invalid="ignore"):
        gaps = np.abs(approx - reference) / np.maximum(1.0, np.abs(reference))
    return float(np.max(gaps, initial=0.0))


def stack_samples(obj: _Objective, samples: Sequence, slots: int):
    """(points, t, w) arrays of a sequence of (point, t, w) samples.  Each point
    must have shape (slots, obj.dim); a vector is one component per slot.
    Points of one shape convert in one call; the others are taken one by one,
    and the first of a wrong shape is named."""
    samples = list(samples)
    try:
        points = np.asarray([p for p, _, _ in samples], dtype=float)
    except (TypeError, ValueError):  # ragged, or not numbers: see below
        points = None
    if points is None or points.shape[1:] not in [(slots, obj.dim)] + [(slots,)] * (obj.dim == 1):
        points = [_as_point(p) for p, _, _ in samples]
        for p in points:
            if p.shape != (slots, obj.dim):
                raise InputError(f"sample of shape {p.shape}, objective "
                                 f"{obj.name or '<anonymous>'} needs ({slots}, {obj.dim})")
    return (np.asarray(points, dtype=float).reshape(len(points), slots, obj.dim),
            np.array([t for _, t, _ in samples]), np.array([w for _, _, w in samples], dtype=int))


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
    """Compare analytic slot-partials against fd_partials by rel_gap.

    points is a sequence of (point, t, w) triples; samples on the -inf boundary
    are skipped, and so is each slot with an entry fd_partials leaves
    unresolved.  The check is inconclusive if no slot is compared.
    """
    if not obj.has_analytic_partials:
        raise InputError("gradient_check needs analytic partials to compare against")
    points, t, w = stack_samples(obj, points, obj.order + 1)
    live = ~np.isneginf(obj.values_batch(points, t, w))
    checked = int(live.sum())
    if checked == 0:
        return GradientCheckReport(math.nan, 0, len(live), "INCONCLUSIVE", GRADIENT_REL_TOL)
    points, t, w = points[live], t[live], w[live]
    fd, unresolved = fd_partials(obj, points, t, w)
    worst = rel_gap(fd[~unresolved], obj.partials_batch(points, t, w)[~unresolved])
    skipped = len(live) - checked + int(unresolved.sum())
    if unresolved.all():
        return GradientCheckReport(math.nan, checked, skipped, "INCONCLUSIVE", GRADIENT_REL_TOL)
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
    """(p0 - alpha(w))^2 + beta(w) p1 + gamma(w) p2 over a window or a jet p.

    It gathers alpha(w), beta(w) and gamma(w) per call and keeps the default
    bind: gathers held for a layout's life cost more in page faults than
    they save (measured on 10 002-point continuous layouts)."""
    A, B, G = (np.asarray(v) for v in (params.alpha, params.beta, params.gamma))

    def gathered(fn):
        """fn, where a gather at a state past the parameters raises InputError:
        the IndexError is caught, so a call in range pays nothing."""
        def call(points, t, w):
            try:
                return fn(points, t, w)
            except IndexError:
                if np.max(w) < len(A):
                    raise
                raise InputError(f"{name} has parameters for {len(A)} states, "
                                 f"none for state {int(np.max(w))}") from None
        return call

    # overflow passes without a warning: callers test finiteness
    def ev_batch(points, t, w):
        with np.errstate(over="ignore", invalid="ignore"):
            return (points[:, 0, 0] - A[w]) ** 2 + B[w] * points[:, 1, 0] + G[w] * points[:, 2, 0]

    def partials_batch(points, t, w):
        out = np.empty((len(points), 3, 1))
        with np.errstate(over="ignore"):
            out[:, 0, 0] = 2.0 * (points[:, 0, 0] - A[w])
        out[:, 1, 0] = B[w]
        out[:, 2, 0] = G[w]
        return out

    return cls(order=2, name=name, batch_eval_fn=gathered(ev_batch),
               batch_partials_fn=gathered(partials_batch))


def quadlin_continuous(params: QuadLinParams) -> ContinuousObjective:
    """(x - alpha(w))^2 + beta(w) x' + gamma(w) x''; order 2, scalar state."""
    return _quadlin(params, ContinuousObjective, "quadlin-continuous")


def quadlin_discrete(params: QuadLinParams) -> DiscreteObjective:
    """(y_t - alpha(w))^2 + beta(w) y_{t+1} + gamma(w) y_{t+2}; order 2, scalar state."""
    return _quadlin(params, DiscreteObjective, "quadlin-discrete")


def _lagged_consumption(points: np.ndarray, n: int) -> np.ndarray:
    """c_t = y_t + ... + y_{t+n-1} - y_{t+n} at each window (N, n+1, 1), the
    slots added left to right: np.sum's order, bit for bit, for n <= 7."""
    c = points[:, 0, 0]
    for k in range(1, n):
        c = c + points[:, k, 0]
    return c - points[:, n, 0]


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

    def bind(t, w):
        # one power per time 0..max(t) where that table is no longer than t
        # (every layout's table), else one per point: the same pow either way
        if t.dtype.kind in "iu" and t.size and t.min() >= 0 and (top := t.max()) < t.size:
            growth = (discount ** np.arange(top + 1))[t]
        else:
            growth = discount**t
        live = t > n - 1 if zero_head else None  # the rows zero_head keeps

        def values(points):
            c = _lagged_consumption(points, n)
            positive = c > 0.0
            vals = np.log(c, out=np.full(c.shape, NEG_INF), where=positive)
            # discount^t may underflow to 0, so the wall keeps its -inf untouched
            np.multiply(growth, vals, out=vals, where=positive)
            return np.where(live, vals, 0.0) if zero_head else vals

        def partials(points):
            c = _lagged_consumption(points, n)
            wall = c <= 0.0
            if zero_head:
                wall &= live
            if wall.any():
                i = int(np.argmax(wall))
                # + 0.0: a sum of -0.0 slots is -0.0 here, +0.0 in np.sum
                raise DomainError(f"consumption {c[i] + 0.0} <= 0 at t={t[i]}, state {w[i]}")
            with np.errstate(divide="ignore"):  # pinned rows may have c == 0
                scale = growth / c
            last = -scale
            if zero_head:
                scale, last = np.where(live, scale, 0.0), np.where(live, last, 0.0)
            out = np.empty((len(points), n + 1, 1))
            out[:, :n, 0] = scale[:, None]
            out[:, n, 0] = last
            return out

        return values, partials

    return DiscreteObjective(order=n,
                             name="household-log" if zero_head else "household-log-live-head",
                             **_bindable(bind))


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
