"""Transversality-condition terms: discrete tail sums, the continuous boundary
bracket, liminf estimation over truncations, the optimum-scaled special curve,
and the first-variation decomposition cross-check.

No finite computation certifies a liminf; every report carries the full tail
sequence and a finite-horizon caveat flag next to its verdict.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (PerturbationCurve, StochasticPath, _check_same_shape, derivatives,
                   expectation, smoothstep_quintic)
from .errors import DomainError, HorizonError, InputError, NumericalError, UnsupportedError
from .kernel import (euler_rows, expected_running_sum, jet_partials, max_window_start, momenta,
                     objective_layout, objective_values, tail_terms, window_partials)
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
    _check_truncation(tprime, n)
    if tprime + n > path.domain.t_max:
        raise HorizonError(f"T'={tprime} needs values through index {tprime + n}")
    first = max(0, tprime - n + 1)  # slot 0 of a window never reaches past T'
    tail = tail_terms(window_partials(obj, path, first, tprime), q.values, [tprime], first)[0]
    if not np.isfinite(tail).all():
        raise NumericalError("objective partials produced a non-finite tail")
    return float(expectation(path.space, tail))


def _check_truncation(tprime: int, n: int):
    if tprime < n - 1:
        raise HorizonError(f"T'={tprime} below the first admissible truncation {n - 1}")


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

def boundary_bracket_series(obj: ContinuousObjective, path: StochasticPath,
                            p: PerturbationCurve) -> np.ndarray:
    """Expected bracket value at every grid time; shape (num_points,).

    bracket(t) = E sum_i sum_{j=0}^{n-1} p_i^(j)(t) * p_{j+1,i}(t)

    with p_{j+1} = v_{j+2} - (v_{j+3})' + ... the momenta of the sampled
    partial series along the path (kernel.momenta).  Derivatives of p below
    the curve's validated head order are pinned to exactly zero at t=0, so
    head-vanishing is honored structurally.  A non-finite bracket raises.
    """
    if path.domain.kind != "continuous":
        raise UnsupportedError("the boundary bracket needs a continuous domain")
    _check_same_shape(path, p)
    n = obj.order
    h = path.domain.h
    coefs = momenta(jet_partials(obj, path)[:, 1:], h)  # p_1..p_n

    # derivatives of p up to order n-1, with structural zeros at t=0
    pder = derivatives(p.values, h, n - 1)
    for j in range(min(p.vanishing_head, n)):
        pder[j] = pder[j].copy()
        pder[j][0] = 0.0

    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite bracket raises below
        bracket = np.zeros(path.values.shape)
        for j in range(n):
            bracket += pder[j] * coefs[j]
        per_time = np.sum(bracket, axis=2)  # sum over state dimension i
    if not np.isfinite(per_time).all():
        raise NumericalError("derivative stencil produced a non-finite bracket")
    return np.atleast_1d(expectation(path.space, per_time.T))


def continuous_boundary_term(obj: ContinuousObjective, path: StochasticPath,
                             p: PerturbationCurve, t: float) -> float:
    """Expected bracket at one grid time."""
    idx = path.domain.index_of(t)
    return float(boundary_bracket_series(obj, path, p)[idx])


def tvc_liminf_continuous(obj: ContinuousObjective, path: StochasticPath,
                          p: PerturbationCurve, t_list,
                          tolerance: float | None = None) -> TvcReport:
    """bracket(T) - bracket(0) over the requested truncation times, with running infima."""
    series = boundary_bracket_series(obj, path, p)
    idxs = [path.domain.index_of(t) for t in t_list]
    values = [series[i] - series[0] for i in idxs]
    tol = DEFAULT_TOL_TVC_FD if tolerance is None else tolerance
    return _liminf_report(list(t_list), values, tol, "continuous")


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
    expected objective and its Euler-rows + tail decomposition."""
    n = obj.order
    if tprime is None:
        tprime = max_window_start(path, n)
    _check_same_shape(path, q)
    eps = DECOMPOSITION_EPS
    layout = objective_layout(obj, path, tprime)
    plus, minus = (_truncated_sum(path, layout.values(path.values + step * q.values))
                   for step in (+eps, -eps))
    direct = (plus - minus) / (2.0 * eps)
    P = window_partials(obj, path, 0, tprime)
    weighted = np.sum(euler_rows(P)[: tprime + 1] * q.values[: tprime + 1], axis=2)
    rows_total = float(expected_running_sum(path, weighted)[-1])
    _check_truncation(tprime, n)
    tail = float(expectation(path.space, tail_terms(P, q.values, [tprime])[0]))
    return abs(direct - (rows_total + tail))
