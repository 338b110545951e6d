"""Transversality-condition terms: discrete tail sums, the continuous boundary
bracket, liminf estimation over truncations, the optimum-scaled special curve,
and the first-variation decomposition cross-check.

No finite computation certifies a liminf; every report carries the full tail
sequence and a finite-horizon caveat flag next to its verdict.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (STENCIL_REACH, PerturbationCurve, StochasticPath, _check_same_shape,
                   as_index, derivatives, expectation, smoothstep_quintic)
from .errors import DomainError, HorizonError, InputError, NumericalError, UnsupportedError
from .kernel import (PointLayout, euler_rows, expected_running_sum, gather, jet_windows,
                     max_window_start, momenta, objective_layout, objective_values, tail_terms,
                     window_partials)
from .objectives import ContinuousObjective, DiscreteObjective

DEFAULT_TOL_TVC_ANALYTIC = 1e-8
DEFAULT_TOL_TVC_FD = 1e-4

MIN_TAIL_SAMPLES = 5

# step of the direct eps-derivative in variation_decomposition_check
DECOMPOSITION_EPS = 1e-6


@dataclass(frozen=True)
class TvcReport:
    truncations: tuple                  # T' (discrete) or T (continuous) values
    values: np.ndarray                  # expected tail/bracket value per truncation
    running_inf: np.ndarray             # inf over truncations >= T, per T
    liminf_estimate: float
    tolerance: float
    verdict: str                        # "SATISFIED" | "VIOLATED"
    finite_horizon_caveat: bool
    kind: str                           # "discrete" | "continuous"
    running_sup: np.ndarray
    limsup_estimate: float
    limsup_holds: bool                  # the >= 0 variant

    @property
    def satisfied(self) -> bool:
        return self.verdict == "SATISFIED"


def discrete_tvc_tail(obj: DiscreteObjective, path: StochasticPath,
                      q: PerturbationCurve, tprime: int) -> float:
    """Expected tail term at truncation T':

    E[ sum_i sum_{k=1}^{n} d(V(T'-n+k) + ... + V(T')) / dy_i(T'+k) * q_i(T'+k) ].
    """
    _check_same_shape(path, q)
    n = obj.order
    tprime = as_index(tprime, "T'")
    _check_truncation(tprime, n)
    if tprime + n > path.domain.t_max:
        raise HorizonError(f"T'={tprime} needs values through index {tprime + n}")
    first = max(0, tprime - n + 1)  # slot 0 of a window never reaches past T'
    tail = tail_terms(window_partials(obj, path, first, tprime), q.values, [tprime], first)[0]
    if not np.isfinite(tail).all():
        raise NumericalError("objective partials produced a non-finite tail")
    return float(expectation(path.space, tail))


def _check_truncation(tprime: int, n: int):
    if tprime < max(n - 1, 0):
        raise HorizonError(f"T'={tprime} below the first admissible truncation {max(n - 1, 0)}")


def _suffix_extrema(values: np.ndarray):
    running_inf = np.minimum.accumulate(values[::-1])[::-1]
    running_sup = np.maximum.accumulate(values[::-1])[::-1]
    return running_inf, running_sup


def _liminf_report(truncations, values, tol, kind) -> TvcReport:
    values = np.asarray(values, dtype=float)
    if len(values) < MIN_TAIL_SAMPLES:
        raise HorizonError(f"need at least {MIN_TAIL_SAMPLES} tail values, got {len(values)}")
    running_inf, running_sup = _suffix_extrema(values)
    stable = len(values) - MIN_TAIL_SAMPLES  # largest T with >= 5 samples remaining
    liminf_estimate = float(running_inf[stable])
    limsup_estimate = float(running_sup[stable])
    verdict = "SATISFIED" if liminf_estimate <= tol else "VIOLATED"
    return TvcReport(truncations=tuple(truncations), values=values,
                     running_inf=running_inf, liminf_estimate=liminf_estimate,
                     tolerance=tol, verdict=verdict, finite_horizon_caveat=True,
                     kind=kind, running_sup=running_sup, limsup_estimate=limsup_estimate,
                     limsup_holds=limsup_estimate >= -tol)


def tvc_liminf_discrete(obj: DiscreteObjective, path: StochasticPath,
                        q: PerturbationCurve, tolerance: float | None = None) -> TvcReport:
    """Tail values for every admissible T', running infima, liminf estimate."""
    _check_same_shape(path, q)
    n = obj.order
    last = max_window_start(path, n)
    tprimes = range(max(n - 1, 0), last + 1)
    tol = tolerance
    if tol is None:
        tol = DEFAULT_TOL_TVC_ANALYTIC if obj.has_analytic_partials else DEFAULT_TOL_TVC_FD
    tails = tail_terms(window_partials(obj, path, 0, last), q.values, tprimes)
    if not np.isfinite(tails).all():
        raise NumericalError("objective partials produced a non-finite tail")
    return _liminf_report(tprimes, expectation(path.space, tails.T), tol, "discrete")


# ---------------------------------------------------------------------------
# Continuous boundary bracket

def _bracket_reach(n: int) -> int:
    """Grid rows on each side of a row that its bracket reads: n passes of
    core.derivatives for the jets' n-th derivatives, then n-1 more for the
    momentum p_1 (kernel.momenta)."""
    return STENCIL_REACH * max(2 * n - 1, 0)


def boundary_bracket_series(obj: ContinuousObjective, path: StochasticPath,
                            p: PerturbationCurve, rows=None) -> np.ndarray:
    """Expected bracket value at the grid rows `rows`, at every grid time by
    default; shape (len(rows),) or (num_points,).

    bracket(t) = E sum_i sum_{j=0}^{n-1} p_i^(j)(t) * p_{j+1,i}(t)

    with p_{j+1} = v_{j+2} - (v_{j+3})' + ... the momenta of the sampled
    partial series along the path (kernel.momenta).  The jets are taken on
    one window of 2 _bracket_reach(n) + 1 grid rows around each requested
    row (kernel.jet_windows), or on one window spanning the grid by default,
    and give the whole grid's bracket bit for bit.  Derivatives of p below
    the curve's validated head order are pinned to exactly zero at t=0, so
    head-vanishing is honored structurally.  A non-finite bracket at a
    requested row raises; so do non-finite jets inside the windows.
    """
    if path.domain.kind != "continuous":
        raise UnsupportedError("the boundary bracket needs a continuous domain")
    _check_same_shape(path, p)
    count = path.num_points
    if rows is None:
        at = np.arange(count)
        index, columns = at[:, None], np.zeros(count, dtype=int)
    else:
        at = np.array(sorted({int(row) for row in rows}), dtype=int)
        if at.size and not (0 <= at[0] and at[-1] < count):
            raise InputError(f"bracket rows must lie in 0..{count - 1}")
        index, columns = jet_windows(count, _bracket_reach(obj.order), at), np.arange(len(at))
    picked = _window_brackets(obj, path, p, index)[at - index[0, columns], columns]
    if not np.isfinite(picked).all():
        raise NumericalError("derivative stencil produced a non-finite bracket")
    # the picked rows at their grid rows: expectation's last bit depends on
    # its operand's length and memory order
    per_time = np.zeros((count, path.space.m))
    per_time[at] = picked
    expected = np.atleast_1d(expectation(path.space, per_time.T))
    return expected if rows is None else expected[np.asarray(rows, dtype=int)]


def _window_brackets(obj: ContinuousObjective, path: StochasticPath, p: PerturbationCurve,
                     index: np.ndarray) -> np.ndarray:
    """Per-state bracket at every row of the jet windows of a table of grid
    rows (kernel.jet_windows); shape (width, windows, m).  A row is the
    whole grid's where it lies _bracket_reach(n) rows or more from each
    window edge that is not a grid edge.  Overflow passes: callers test
    finiteness."""
    n, h = obj.order, path.domain.h
    coefs = momenta(PointLayout.jet_windows(obj, path, index).partials(path.values)[:, 1:],
                    h)  # p_1..p_n

    # derivatives of p up to order n-1, with structural zeros at grid row 0
    pder = derivatives(gather(p.values, index), h, n - 1)
    head = np.repeat(index[0] == 0, path.space.m)  # the columns of windows starting at row 0
    for j in range(min(p.vanishing_head, n)):
        pder[j] = pder[j].copy()
        pder[j][0, head] = 0.0

    with np.errstate(over="ignore", invalid="ignore"):
        bracket = np.zeros(pder[0].shape)
        for j in range(n):
            bracket += pder[j] * coefs[j]
        per_state = np.sum(bracket, axis=2)  # sum over state dimension i
    return per_state.reshape(len(index), -1, path.space.m)


def continuous_boundary_term(obj: ContinuousObjective, path: StochasticPath,
                             p: PerturbationCurve, t: float) -> float:
    """Expected bracket at one grid time, from the one window around it."""
    return float(boundary_bracket_series(obj, path, p, [path.domain.index_of(t)])[0])


def tvc_liminf_continuous(obj: ContinuousObjective, path: StochasticPath,
                          p: PerturbationCurve, t_list,
                          tolerance: float | None = None) -> TvcReport:
    """bracket(T) - bracket(0) over the requested truncation times, with
    running infima; the bracket is evaluated on the windows around t = 0
    and those times only."""
    rows = [0] + [path.domain.index_of(t) for t in t_list]
    bracket = boundary_bracket_series(obj, path, p, rows)
    tol = DEFAULT_TOL_TVC_FD if tolerance is None else tolerance
    return _liminf_report(list(t_list), bracket[1:] - bracket[0], tol, "continuous")


def scaled_path_curve(path: StochasticPath, abar: float) -> PerturbationCurve:
    """The special perturbation p(t,w) = a(t) * x*(t,w) with a quintic ramp a
    rising from 0 at t = 0 to abar at t = 1; a and its first two derivatives
    vanish at t = 0."""
    if not (0.0 < abar < 1.0):
        raise InputError("abar must lie strictly inside (0, 1)")
    if path.domain.kind != "continuous":
        raise UnsupportedError("the special curve is defined on continuous domains")
    alpha_t = abar * smoothstep_quintic(path.domain.times())
    vals = alpha_t[:, None, None] * path.values
    return PerturbationCurve(path.domain, path.space, vals, vanishing_head=2)


# ---------------------------------------------------------------------------
# First-variation decomposition cross-check

def truncated_objective(obj: DiscreteObjective, path: StochasticPath,
                        tprime: int) -> float:
    """sum_{t=0}^{T'} E V(window(path, t)); an expected sum of -inf raises a
    domain error naming the first such t."""
    tprime = as_index(tprime, "T'")
    if tprime < 0:
        raise HorizonError(f"T'={tprime} is below 0")
    return _truncated_sum(path, objective_values(obj, path, tprime))


def _truncated_sum(path: StochasticPath, values: np.ndarray) -> float:
    """truncated_objective from per-time values at times 0..T'."""
    sums = expected_running_sum(path, values)
    walled = np.isneginf(sums)
    if walled.any():
        raise DomainError(f"objective is -inf inside the truncated sum at t={int(np.argmax(walled))}")
    return float(sums[-1]) if len(sums) else 0.0


def variation_decomposition_check(obj: DiscreteObjective, path: StochasticPath,
                                  q: PerturbationCurve,
                                  tprime: int | None = None) -> float:
    """Absolute discrepancy between the direct eps-derivative of the truncated
    expected objective and its Euler-rows + tail decomposition, all read
    from one layout of the windows 0..T'."""
    n = obj.order
    tprime = max_window_start(path, n) if tprime is None else as_index(tprime, "T'")
    _check_truncation(tprime, n)
    _check_same_shape(path, q)
    eps = DECOMPOSITION_EPS
    layout = objective_layout(obj, path, tprime)
    plus, minus = (_truncated_sum(path, layout.values(path.values + step * q.values))
                   for step in (+eps, -eps))
    direct = (plus - minus) / (2.0 * eps)
    if not isinstance(obj, DiscreteObjective):  # the layout holds jets
        raise UnsupportedError("windows are defined on discrete domains only")
    P = layout.partials(path.values)
    weighted = np.sum(euler_rows(P)[: tprime + 1] * q.values[: tprime + 1], axis=2)
    rows_total = float(expected_running_sum(path, weighted)[-1])
    first = max(0, tprime - n + 1)  # the windows the tail reads, as in discrete_tvc_tail
    tail = float(expectation(path.space, tail_terms(P[first:], q.values, [tprime], first)[0]))
    return abs(direct - (rows_total + tail))
