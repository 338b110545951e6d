"""Numerical diagnosis of the uniform-convergence and domination assumptions.

Builds the A(T', eps) grid of truncated, eps-scaled objective differences,
compares the two iterated limits (T' first vs eps first), detects divergent
growth in T' at fixed eps by a linear fit, and empirically bounds the
difference-quotient envelope used by the dominated-convergence step.

Divergence is detected statistically and the fit is exposed in the report;
nothing here proves or disproves uniform convergence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (PerturbationCurve, StochasticPath, _check_same_shape, as_index, expectation,
                   running_sum)
from .errors import HorizonError, InputError, NumericalError, UnsupportedError
from .kernel import PointLayout, max_window_start, objective_layout
from .objectives import ContinuousObjective

DIVERGES = "DIVERGES"

STATUS_FINITE = "finite"
STATUS_DIVERGING = "diverging"
STATUS_DOMAIN_ERROR = "domain-error"

DEFAULT_EPS_GRID = tuple(10.0 ** (-k) for k in range(1, 7))  # 1e-1 .. 1e-6

# iterated limits further apart than this many times their error estimate differ
AGREEMENT_FACTOR = 10.0
# domination_check samples eps_bar * 10^-k for k = 0 .. DOMINATION_N_EPS - 1
DOMINATION_N_EPS = 7


@dataclass(frozen=True)
class DiagnosticMatrix:
    """A(T', eps) on a grid: rows indexed by T' (increasing), columns by eps
    (decreasing), with a per-cell status flag."""

    eps_grid: tuple[float, ...]
    tprime_grid: tuple[float, ...]
    values: np.ndarray   # (nT, nE)
    status: np.ndarray   # (nT, nE) of status strings

    def __post_init__(self):
        eps = tuple(float(e) for e in self.eps_grid)
        tps = tuple(self.tprime_grid)
        if any(e2 >= e1 for e1, e2 in zip(eps, eps[1:])):
            raise InputError("eps grid must be strictly decreasing")
        if any(t2 <= t1 for t1, t2 in zip(tps, tps[1:])):
            raise InputError("T' grid must be strictly increasing")
        if any(e <= 0 for e in eps):
            raise InputError("eps values must be positive")
        object.__setattr__(self, "eps_grid", eps)
        object.__setattr__(self, "tprime_grid", tps)
        vals = np.asarray(self.values, dtype=float)
        if vals.shape != (len(tps), len(eps)):
            raise InputError("values shape must be (len(tprime_grid), len(eps_grid))")
        object.__setattr__(self, "values", vals)

    @property
    def all_finite(self) -> bool:
        return bool((self.status == STATUS_FINITE).all())


@dataclass(frozen=True)
class IteratedLimits:
    eps_then_T: float | str        # lim_{eps->0} lim_{T'->inf}, or DIVERGES
    T_then_eps: float | str        # lim_{T'->inf} lim_{eps->0}, or DIVERGES
    eps_then_T_error: float
    T_then_eps_error: float
    per_eps_limits: tuple          # per-eps along-T' limit (float or DIVERGES)
    per_eps_slopes: tuple[float, ...]
    per_tprime_limits: tuple[float, ...]


@dataclass(frozen=True)
class UniformityVerdict:
    verdict: str                   # "UNIFORM" | "NON_UNIFORM" | "INCONCLUSIVE"
    limits: IteratedLimits | None
    gap: float | None
    deviation_profile: tuple[float, ...] | None
    reason: str


def a_grid(obj, path: StochasticPath, curve: PerturbationCurve,
           eps_grid=DEFAULT_EPS_GRID, tprime_grid=None) -> DiagnosticMatrix:
    """The A(T', eps) matrix: truncated objective difference divided by eps.

    Discrete cells are exact window sums; continuous cells integrate the
    expected difference of the sampled objective along the jets by the
    trapezoid rule.  A time at which the base or the perturbed value is -inf
    in any state adds 0, and every cell from that time on is a domain error.
    A difference that overflows to +inf in a state of positive mass adds
    +inf to the expectation at its time, so the cells from that time on
    diverge (NaN where a -inf difference meets it).
    The base and each base + eps * curve are evaluated on one
    kernel.objective_layout, one values call each, every perturbed path
    formed in one buffer.
    """
    _check_same_shape(path, curve)
    if not len(eps_grid):
        raise InputError("eps grid is empty")
    if tprime_grid is not None and not len(tprime_grid):
        raise InputError("T' grid is empty")
    if path.domain.kind == "discrete":
        last = max_window_start(path, obj.order)
        if tprime_grid is None:
            tprime_grid = _default_tprime_grid_discrete(curve, last)
        tprime_grid = [as_index(t, "T'") for t in tprime_grid]
        if max(tprime_grid) > last:
            raise HorizonError(f"T'={max(tprime_grid)} beyond the last full window {last}")
        if min(tprime_grid) < 0:
            raise HorizonError("T' values must be >= 0")
        idx = np.asarray(tprime_grid)
    else:
        if tprime_grid is None:
            h = path.domain.h
            onset = curve.tail_onset if curve.tail_onset is not None else 1.0
            tprime_grid = sorted({round(path.domain.index_of(round(t / h) * h) * h, 12)
                                  for t in np.geomspace(onset + 2, path.domain.t_end, 8)})
        idx = np.asarray([path.domain.index_of(tp) for tp in tprime_grid], dtype=int)
    values = np.zeros((len(idx), len(eps_grid)))
    status = np.full(values.shape, STATUS_FINITE, dtype=object)
    layout = objective_layout(obj, path, int(idx.max()))
    base = layout.values(path.values)
    base_wall = base == -np.inf
    moved = np.empty(path.values.shape)  # path + eps * curve, one eps at a time
    with np.errstate(over="ignore", invalid="ignore"):  # -inf - -inf at walls; cells diverge
        for ie, eps in enumerate(eps_grid):
            np.multiply(eps, curve.values, out=moved)
            shifted = layout.values(np.add(path.values, moved, out=moved))
            diff = shifted - base
            wall = base_wall | (shifted == -np.inf)
            walled = wall.any(axis=1) if wall.any() else None  # reduced per time only at a wall
            if walled is not None:
                diff[walled] = 0.0
            over = diff == np.inf
            overflowed = (over & path.space._live).any(axis=1) if over.any() else None
            if overflowed is not None:  # expectation refuses +inf: it is added to its sum instead
                diff[over] = 0.0
            sums = expectation(path.space, diff.T)
            if overflowed is not None:
                sums[overflowed] += np.inf
            values[:, ie] = running_sum(path.domain, sums)[idx] / eps
            status[~np.isfinite(values[:, ie]), ie] = STATUS_DIVERGING
            if walled is not None:
                status[np.maximum.accumulate(walled)[idx], ie] = STATUS_DOMAIN_ERROR
    if (status == STATUS_DOMAIN_ERROR).all():
        raise NumericalError("every diagnostic cell hit the -inf domain boundary")
    return DiagnosticMatrix(tuple(eps_grid), tuple(tprime_grid), values, status)


def _default_tprime_grid_discrete(curve, last):
    onset = int(curve.tail_onset) if curve.tail_onset is not None else 1
    lo = min(onset + 2, last)
    # roughly geometric coverage of [lo, last]
    grid = sorted({int(round(v)) for v in np.geomspace(max(lo, 1), max(last, 1), 8)})
    grid = [g for g in grid if lo <= g <= last]
    return grid or [last]


# ---------------------------------------------------------------------------
# Iterated limits

def _growth(tprimes, Y):
    """Per row of Y (R, len(tprimes)): its OLS slope on T', the slope's
    standard error and the divergence flag.  Every sum runs along a row, so
    each row gets the bits of a fit of that row alone."""
    x = np.asarray(tprimes, dtype=float)
    xbar = x.mean()
    sxx = float(np.sum((x - xbar) ** 2))
    ybar = Y.mean(axis=1)
    slope = np.sum((x - xbar) * (Y - ybar[:, None]), axis=1) / sxx
    resid = Y - ((ybar - slope * xbar)[:, None] + slope[:, None] * x)
    stderr = np.sqrt(np.sum(resid**2, axis=1) / max(len(x) - 2, 1) / sxx)
    tol = 1e-12 * np.maximum(1.0, np.max(np.abs(Y), axis=1)) / max(1.0, float(x[-1] - x[0]))
    return slope, stderr, slope > 10.0 * stderr + tol


def _richardson_eps(eps_asc, vals_asc):
    """Linear-in-eps extrapolation to eps=0 of each row of vals_asc (eps
    ascending along it) from the two smallest eps, with an error estimate
    from the next pair (iterated_limits passes at least 4)."""
    e1, e2, e3 = eps_asc[:3]
    v1, v2, v3 = vals_asc[:, 0], vals_asc[:, 1], vals_asc[:, 2]
    extrap = v1 - e1 * (v2 - v1) / (e2 - e1)
    alt = v2 - e2 * (v3 - v2) / (e3 - e2)
    return extrap, np.abs(extrap - alt)


def iterated_limits(matrix: DiagnosticMatrix) -> IteratedLimits:
    """Estimate lim_{eps->0} lim_{T'->inf} A and lim_{T'->inf} lim_{eps->0} A.

    Every eps column and the eps-extrapolated T' row are fitted in one pass,
    each as a row of one matrix, and every T' row is extrapolated at once."""
    if len(matrix.eps_grid) < 4 or len(matrix.tprime_grid) < 4:
        raise InputError("need at least 4 points per axis for iterated limits")
    if not matrix.all_finite:
        raise NumericalError("iterated limits need an all-finite matrix")
    tprimes = np.asarray(matrix.tprime_grid, dtype=float)
    eps_asc = np.asarray(matrix.eps_grid)[::-1]
    count = len(eps_asc)

    # rows 0..count-1: the eps columns; row count: each T' row taken to eps -> 0
    fitted = np.empty((count + 1, len(tprimes)))
    fitted[:count] = matrix.values.T
    extrap, row_errs = _richardson_eps(eps_asc, matrix.values[:, ::-1])
    fitted[count] = extrap
    slopes, _, diverges = _growth(tprimes, fitted)

    last = matrix.values[-1].tolist()
    per_eps_limits = [DIVERGES if d else v for d, v in zip(diverges[:count].tolist(), last)]
    per_tprime, errs = extrap.tolist(), row_errs.tolist()
    if diverges[:count].any():
        eps_then_T, e1_err = DIVERGES, math.inf
    else:  # outer limit eps->0 of the inner T'-limits: the last row's extrapolation
        eps_then_T, e1_err = per_tprime[-1], errs[-1]
    if diverges[count]:
        T_then_eps, e2_err = DIVERGES, math.inf
    else:
        T_then_eps, e2_err = per_tprime[-1], max(errs)

    return IteratedLimits(eps_then_T=eps_then_T, T_then_eps=T_then_eps,
                          eps_then_T_error=e1_err, T_then_eps_error=e2_err,
                          per_eps_limits=tuple(per_eps_limits),
                          per_eps_slopes=tuple(slopes[:count].tolist()),
                          per_tprime_limits=tuple(per_tprime))


def deviation_profile(matrix: DiagnosticMatrix) -> np.ndarray:
    """sup over eps of |A(T', eps) - A(T'_max, eps)| per T'."""
    return np.max(np.abs(matrix.values - matrix.values[-1:]), axis=1)


def uniformity_verdict(matrix: DiagnosticMatrix) -> UniformityVerdict:
    """UNIFORM / NON_UNIFORM / INCONCLUSIVE from the iterated limits and the
    deviation profile.  Total: never raises on well-formed matrices."""
    if len(matrix.eps_grid) < 4 or len(matrix.tprime_grid) < 4:
        return UniformityVerdict("INCONCLUSIVE", None, None, None,
                                 "grids too coarse (need >= 4 points per axis)")
    if not matrix.all_finite:
        return UniformityVerdict("INCONCLUSIVE", None, None, None,
                                 "matrix has non-finite or domain-error cells")
    limits = iterated_limits(matrix)
    a, b = limits.eps_then_T, limits.T_then_eps
    if (a == DIVERGES) != (b == DIVERGES):
        return UniformityVerdict("NON_UNIFORM", limits, None, None,
                                 "one iterated limit diverges, the other is finite")
    if a == DIVERGES and b == DIVERGES:
        return UniformityVerdict("NON_UNIFORM", limits, None, None,
                                 "growth in T' detected at fixed eps")
    gap = abs(a - b)
    err = max(limits.eps_then_T_error, limits.T_then_eps_error, 1e-15)
    if gap > AGREEMENT_FACTOR * err:
        return UniformityVerdict("NON_UNIFORM", limits, gap, None,
                                 f"iterated limits differ by {gap:.3g} > {AGREEMENT_FACTOR}x error {err:.3g}")
    profile = deviation_profile(matrix)
    decay_tol = 1e-6 * max(1.0, float(np.max(np.abs(matrix.values))))
    if float(profile[-2]) <= decay_tol:
        return UniformityVerdict("UNIFORM", limits, gap, tuple(profile),
                                 "iterated limits agree and the deviation profile decays")
    return UniformityVerdict("INCONCLUSIVE", limits, gap, tuple(profile),
                             "limits agree but the deviation profile has not decayed")


# ---------------------------------------------------------------------------
# Domination bound

@dataclass(frozen=True)
class DominationEntry:
    t: float
    state: int
    sup_abs: float | None
    eps_at_sup: float | None
    domain_flagged: bool
    growth_flagged: bool


@dataclass(frozen=True)
class DominationReport:
    entries: tuple[DominationEntry, ...]
    eps_grid: tuple[float, ...]
    verdict: str  # "bounded on tested grid" | "growth detected"

    @property
    def bounded(self) -> bool:
        return self.verdict == "bounded on tested grid"


def domination_check(obj, path: StochasticPath, curve: PerturbationCurve,
                     eps_bar: float, sample_times) -> DominationReport:
    """Empirical sup of the per-state difference quotient over eps in (0, eps_bar].

    On a finite state set the dominated-convergence hypothesis reduces to this
    boundedness; the sup is reported as a candidate envelope, never asserted as
    a proof.  An entry whose window is -inf at the base path or at any eps is
    flagged instead.  The sampled windows are one PointLayout, evaluated by
    one values call for the base path and one for each base + eps * curve.
    """
    if eps_bar <= 0.0:
        raise InputError("eps_bar must be positive")
    if isinstance(obj, ContinuousObjective):
        raise UnsupportedError("domination_check covers discrete objectives; "
                               "sample the induced jets for continuous models")
    eps_grid = tuple(eps_bar * 10.0 ** (-k) for k in range(DOMINATION_N_EPS))
    times = [as_index(t, "sample time") for t in sample_times]
    if not times:
        return DominationReport((), eps_grid, "bounded on tested grid")
    _check_same_shape(path, curve)
    layout = PointLayout.windows(obj, path, np.array([times]))
    series = [path.values] + [path.values + eps * curve.values for eps in eps_grid]
    vals = np.stack([layout.values(s) for s in series]).reshape(len(series), len(times), -1)
    base, shifted = vals[0], vals[1:]
    flagged = (vals == -np.inf).any(axis=0)
    with np.errstate(invalid="ignore"):  # -inf - -inf on flagged entries
        quotients = np.abs(shifted - base) / np.asarray(eps_grid)[:, None, None]
        # growth: strictly increasing toward small eps without saturation
        growth = ((np.diff(quotients[-3:], axis=0) > 0).all(axis=0)
                  & (quotients[-1] > 2.0 * quotients[0]) & ~flagged)
    sup, at = quotients.max(axis=0), quotients.argmax(axis=0)
    entries = tuple(
        DominationEntry(t, w, None, None, True, False) if flagged[i, w] else
        DominationEntry(t, w, float(sup[i, w]), eps_grid[at[i, w]], False, bool(growth[i, w]))
        for i, t in enumerate(times) for w in range(path.space.m))
    verdict = "growth detected" if growth.any() else "bounded on tested grid"
    return DominationReport(entries, eps_grid, verdict)
