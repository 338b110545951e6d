"""Euler-equation residuals: discrete triangular rows and the continuous
alternating-derivative form.

The discrete residual at index t is the derivative of the truncated objective
sum with respect to y(t): contributions from every window that contains t,
clipped at both ends of the grid.  The continuous residual is the momentum
p_0 = v_1 - (v_2)' + ... of the sampled partial series along the path
(kernel.momenta), with total time derivatives taken on the grid.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import STENCIL_REACH, StochasticPath, as_index, expectation
from .errors import HorizonError, InputError, NumericalError, UnsupportedError
from .kernel import (PointLayout, euler_rows, jet_windows, max_window_start, momenta,
                     window_partials)
from .objectives import ContinuousObjective, DiscreteObjective

DEFAULT_TOL_ANALYTIC = 1e-8
DEFAULT_TOL_FD = 1e-4


@dataclass(frozen=True)
class BoundaryMode:
    """paper_literal imposes the truncated rows at t = 0..n-1; fixed_initial(k)
    treats the first k indices as pinned by initial data instead."""

    kind: str  # "paper_literal" | "fixed_initial"
    k: int = 0

    def __post_init__(self):
        if self.kind not in ("paper_literal", "fixed_initial"):
            raise InputError(f"unknown boundary mode {self.kind!r}")
        if self.kind == "fixed_initial" and self.k < 0:
            raise InputError("fixed_initial needs k >= 0")

    @classmethod
    def paper_literal(cls) -> "BoundaryMode":
        return cls("paper_literal")

    @classmethod
    def fixed_initial(cls, k: int) -> "BoundaryMode":
        return cls("fixed_initial", k)

    def first_index(self) -> int:
        return 0 if self.kind == "paper_literal" else self.k


@dataclass(frozen=True)
class EulerReport:
    indices: np.ndarray            # (nt,) grid rows (discrete) or times (continuous)
    residuals: np.ndarray          # (nt, m, dim)
    expected: np.ndarray           # (nt, dim)
    max_abs: float
    tolerance: float
    verdict: str                   # "STATIONARY" | "NOT_STATIONARY"
    mode: str

    @property
    def stationary(self) -> bool:
        return self.verdict == "STATIONARY"


def discrete_euler_residual(obj: DiscreteObjective, path: StochasticPath, t: int,
                            j_max: int | None = None) -> np.ndarray:
    """Row t of the stationarity system, per state; shape (m, dim).

    Sum over window starts j in [max(0, t-n), min(t, j_max)] of the slot-(t-j)
    partial of V at window j.  j_max defaults to the last window on the grid.
    A non-finite row raises, as in euler_report.
    """
    n = obj.order
    t = as_index(t, "t")
    last = max_window_start(path, n)
    j_max = last if j_max is None else min(as_index(j_max, "j_max"), last)
    j_lo = max(0, t - n)
    j_hi = min(t, j_max)
    if j_hi < j_lo:
        raise HorizonError(f"no window touches index t={t} within the grid")
    return _finite(euler_rows(window_partials(obj, path, j_lo, j_hi))[t - j_lo])


def _finite(residuals: np.ndarray) -> np.ndarray:
    """Discrete residual rows, refused when any is not finite."""
    if not np.isfinite(residuals).all():
        raise NumericalError("objective partials produced a non-finite residual")
    return residuals


def admissible_indices(path: StochasticPath, n: int, mode: BoundaryMode) -> range:
    """Indices where the residual row uses full (untruncated-right) windows."""
    last = max_window_start(path, n)
    start = mode.first_index()
    if start > last:
        raise HorizonError("horizon too short for the requested boundary mode")
    return range(start, last + 1)


def continuous_euler_residual_series(obj: ContinuousObjective,
                                     path: StochasticPath) -> np.ndarray:
    """Residual sampled on the whole grid; shape (num_points, m, dim)."""
    return _continuous_rows(obj, path, np.arange(path.num_points)[:, None], slice(None))


def _continuous_rows(obj, path: StochasticPath, index: np.ndarray, rows) -> np.ndarray:
    """Rows `rows` of the residual p_0 on the jets of the windows of a table
    of grid rows (kernel.jet_windows), each window differentiated on its
    own; refused when any is not finite."""
    if path.domain.kind != "continuous":
        raise UnsupportedError("continuous residuals need a continuous domain")
    P = PointLayout.jet_windows(obj, path, index).partials(path.values)
    out = momenta(P, path.domain.h, last=0)[0][rows]
    if not np.isfinite(out).all():
        raise NumericalError("derivative stencil produced a non-finite residual")
    return out


def _residual_reach(n: int) -> int:
    """Grid rows on each side of a row that its residual reads: n passes of
    core.derivatives for the jets' n-th derivatives, then n more for p_0's
    (v_{n+1})^(n) (kernel.momenta)."""
    return STENCIL_REACH * 2 * n


def continuous_euler_residual(obj: ContinuousObjective, path: StochasticPath,
                              t: float) -> np.ndarray:
    """Residual at a single grid time, per state; shape (m, dim): the whole
    grid's row bit for bit, from the jets on one window of
    2 _residual_reach(n) + 1 grid rows around it (kernel.jet_windows)."""
    n = obj.order
    idx = path.domain.index_of(t)
    margin = n  # points needed on each side for the k-th difference stencils
    if idx < margin or idx > path.num_points - 1 - margin:
        raise InputError(f"t={t} too close to the grid edges for order {n} stencils")
    index = jet_windows(path.num_points, _residual_reach(n), [idx])
    return _continuous_rows(obj, path, index, idx - index[0, 0])


def euler_report(obj, path: StochasticPath, mode: BoundaryMode | None = None,
                 tolerance: float | None = None) -> EulerReport:
    """Residuals at every admissible index, expected residual per index, verdict."""
    mode = mode or BoundaryMode.paper_literal()
    space = path.space
    if isinstance(obj, DiscreteObjective):
        idxs = admissible_indices(path, obj.order, mode)
        j_lo = max(0, idxs.start - obj.order)  # earlier windows touch no admissible row
        rows = euler_rows(window_partials(obj, path, j_lo, idxs.stop - 1))
        residuals = _finite(rows[idxs.start - j_lo : idxs.stop - j_lo])
        default_tol = DEFAULT_TOL_ANALYTIC if obj.has_analytic_partials else DEFAULT_TOL_FD
        indices = np.arange(idxs.start, idxs.stop)
    else:
        n = obj.order
        if mode.kind != "paper_literal":
            raise InputError(f"boundary mode {mode.kind} needs a discrete objective")
        if path.num_points < 2 * n + 1:
            raise HorizonError(f"a grid of {path.num_points} points has no interior index "
                               f"for order {n} stencils")
        interior = slice(n, path.num_points - n)
        residuals = continuous_euler_residual_series(obj, path)[interior]
        indices = path.domain.times()[interior]
        default_tol = DEFAULT_TOL_FD  # grid stencils dominate the error budget
    tol = default_tol if tolerance is None else tolerance
    expected = expectation(space, residuals.swapaxes(0, 1))
    max_abs = float(np.abs(residuals).max()) if residuals.size else 0.0
    verdict = "STATIONARY" if max_abs <= tol else "NOT_STATIONARY"
    return EulerReport(indices=indices, residuals=residuals, expected=expected,
                       max_abs=max_abs, tolerance=tol, verdict=verdict, mode=mode.kind)
