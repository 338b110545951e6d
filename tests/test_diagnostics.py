import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
import tvckit as tk
import tvckit.diagnostics
from tvckit.diagnostics import (DIVERGES, STATUS_DIVERGING, STATUS_DOMAIN_ERROR, STATUS_FINITE,
                                DiagnosticMatrix, _growth, deviation_profile)
from tvckit.errors import InputError, NumericalError, UnsupportedError

TPRIMES = [12, 15, 20, 25, 30, 35, 40, 45]


def finite_matrix(values):
    """A synthetic all-finite A(T', eps) matrix on 4 x 4 grids."""
    values = np.asarray(values, dtype=float)
    return DiagnosticMatrix((0.1, 0.05, 0.02, 0.01), (10, 20, 30, 40), values,
                            np.full(values.shape, STATUS_FINITE, dtype=object))


@pytest.fixture
def dom60():
    return tk.TimeDomain.discrete(60)


@pytest.fixture
def path60(dom60, space, params):
    return tk.quadlin_euler_path(dom60, space, params)


class TestAGrid:
    def test_eventually_constant_closed_form(self, quadlin_d, dom60, space, path60):
        """On the stationary path the matrix is exactly linear in T' with
        slope eps (unit step beyond the onset)."""
        q = tk.eventually_constant_curve(dom60, space, onset=1, value=1.0)
        m = tk.a_grid(quadlin_d, path60, q, tprime_grid=TPRIMES)
        assert m.all_finite
        for ie, eps in enumerate(m.eps_grid):
            col = m.values[:, ie]
            diffs = np.diff(col) / np.diff(np.asarray(TPRIMES, dtype=float))
            assert np.allclose(diffs, eps, rtol=1e-4)

    def test_compact_support_flat(self, quadlin_d, dom60, space, path60):
        q = tk.compact_support_curve(dom60, space, onset=0, cutoff=10, value=1.0)
        m = tk.a_grid(quadlin_d, path60, q, tprime_grid=TPRIMES)
        prof = deviation_profile(m)
        assert prof.max() <= 1e-9

    def test_grid_validation(self):
        with pytest.raises(InputError):
            DiagnosticMatrix((0.1, 0.2), (1, 2, 3, 4), np.zeros((4, 2)),
                             np.full((4, 2), "finite", dtype=object))
        with pytest.raises(InputError):
            DiagnosticMatrix((0.2, 0.1), (3, 2), np.zeros((2, 2)),
                             np.full((2, 2), "finite", dtype=object))

    @pytest.mark.parametrize("probs, start, value, want", [
        ((0.5, 0.5), -1.5, 3.0, np.inf),
        ((0.5, 0.5), (-1.5, 1.5), (3.0, -3.0), np.nan),
        ((1.0, 0.0), -1.5, (0.0, 3.0), 0.0)], ids=("diverging", "nan", "zero-mass"))
    def test_overflowing_difference(self, probs, start, value, want):
        """1e308 * y0 moved by eps * q from t = 2 on: at eps = 1 the
        difference overflows to +inf there, which adds +inf to the expected
        sum from t = 2 on (NaN against a -inf difference, nothing in a state
        of zero mass) instead of raising expectation's InputError."""
        dom, space = tk.TimeDomain.discrete(10), tk.SampleSpace(probs)
        obj = tk.dsl_discrete_objective("1e308 * y0", 0)
        path = tk.StochasticPath.constant(dom, space, np.asarray(start, dtype=float))
        q = tk.eventually_constant_curve(dom, space, 2, np.asarray(value, dtype=float))
        args = (obj, path, q, (1.0, 0.5, 0.1, 0.01), list(range(11)))
        m = tk.a_grid(*args)
        values, status = reference.a_grid(*args)
        assert np.array_equal(m.values, values, equal_nan=True)
        assert (m.status == status).all()
        assert (m.values[:2] == 0.0).all() and (m.status[:2] == STATUS_FINITE).all()
        assert np.array_equal(m.values[2:, 0], np.full(9, want), equal_nan=True)
        assert (m.status[2:, 0] == (STATUS_FINITE if want == 0.0 else STATUS_DIVERGING)).all()

    def test_tprime_beyond_grid(self, quadlin_d, dom60, space, path60):
        q = tk.eventually_constant_curve(dom60, space, onset=1, value=1.0)
        with pytest.raises(tk.HorizonError):
            tk.a_grid(quadlin_d, path60, q, tprime_grid=[10, 59])


def growth_slope(tprimes, col):
    """diagnostics._growth of one row: its slope, stderr and divergence flag."""
    slope, stderr, diverges = _growth(tprimes, np.asarray(col, dtype=float)[None])
    return float(slope[0]), float(stderr[0]), bool(diverges[0])


class TestGrowthDetection:
    def test_linear_growth_flagged(self):
        t = np.array([5.0, 10.0, 15.0, 20.0])
        slope, stderr, diverges = growth_slope(t, 0.01 * t + 3.0)
        assert diverges
        assert slope == pytest.approx(0.01)

    def test_constant_row_not_flagged(self):
        t = np.array([5.0, 10.0, 15.0, 20.0])
        _, _, diverges = growth_slope(t, np.full(4, 7.0))
        assert not diverges

    def test_noisy_constant_not_flagged(self):
        rng = np.random.default_rng(1)
        t = np.linspace(5, 45, 8)
        _, _, diverges = growth_slope(t, 2.0 + 1e-10 * rng.standard_normal(8))
        assert not diverges


class TestIteratedLimits:
    def test_non_uniform_counterexample(self, quadlin_d, dom60, space, path60):
        q = tk.eventually_constant_curve(dom60, space, onset=1, value=1.0)
        m = tk.a_grid(quadlin_d, path60, q, tprime_grid=TPRIMES)
        lims = tk.iterated_limits(m)
        assert all(v == DIVERGES for v in lims.per_eps_limits)
        assert lims.eps_then_T == DIVERGES
        assert lims.T_then_eps != DIVERGES
        verdict = tk.uniformity_verdict(m)
        assert verdict.verdict == "NON_UNIFORM"
        for eps, slope in zip(m.eps_grid, lims.per_eps_slopes):
            assert slope == pytest.approx(eps, rel=0.05)

    def test_uniform_compact_support(self, quadlin_d, dom60, space, path60):
        q = tk.compact_support_curve(dom60, space, onset=0, cutoff=10, value=1.0)
        m = tk.a_grid(quadlin_d, path60, q, tprime_grid=TPRIMES)
        lims = tk.iterated_limits(m)
        assert lims.eps_then_T != DIVERGES
        assert abs(lims.eps_then_T - lims.T_then_eps) <= 1e-6
        assert tk.uniformity_verdict(m).verdict == "UNIFORM"

    def test_growth_at_every_eps_is_non_uniform(self):
        # A = T' at every eps: each column and the eps-extrapolated row grow
        m = finite_matrix(np.repeat([[10.0], [20.0], [30.0], [40.0]], 4, axis=1))
        v = tk.uniformity_verdict(m)
        assert (v.verdict, v.reason) == ("NON_UNIFORM", "growth in T' detected at fixed eps")
        assert v.limits.eps_then_T == v.limits.T_then_eps == DIVERGES
        assert v.gap is None and v.deviation_profile is None

    def test_finite_limits_that_differ_are_non_uniform(self, monkeypatch):
        """Finite iterated limits further apart than AGREEMENT_FACTOR times
        their larger error estimate.  iterated_limits cannot yield them (both
        finite limits extrapolate the last T' row), so they are patched in."""
        m = finite_matrix(np.ones((4, 4)))
        limits = dataclasses.replace(tk.iterated_limits(m), eps_then_T=1.0, T_then_eps=1.5,
                                     eps_then_T_error=0.01, T_then_eps_error=0.02)
        monkeypatch.setattr(tvckit.diagnostics, "iterated_limits", lambda matrix: limits)
        v = tk.uniformity_verdict(m)
        assert (v.verdict, v.reason) == ("NON_UNIFORM",
                                         "iterated limits differ by 0.5 > 10.0x error 0.02")
        assert v.limits is limits and v.gap == 0.5 and v.deviation_profile is None

    def test_undecayed_profile_is_inconclusive(self):
        # A = 1 + 1/T' at every eps: no growth and equal limits, but A(30) - A(40) = 1/120
        m = finite_matrix(np.repeat([[1.1], [1.05], [1.0 + 1.0 / 30.0], [1.025]], 4, axis=1))
        v = tk.uniformity_verdict(m)
        assert (v.verdict, v.reason) == ("INCONCLUSIVE",
                                         "limits agree but the deviation profile has not decayed")
        assert v.limits.eps_then_T == v.limits.T_then_eps == 1.025 and v.gap == 0.0
        assert v.deviation_profile[-2] == pytest.approx(1.0 / 120.0)

    def test_coarse_grid_inconclusive(self):
        m = DiagnosticMatrix((0.1, 0.01), (1, 2, 3, 4), np.zeros((4, 2)),
                             np.full((4, 2), "finite", dtype=object))
        v = tk.uniformity_verdict(m)
        assert v.verdict == "INCONCLUSIVE"
        with pytest.raises(InputError):
            tk.iterated_limits(m)


@given(seed=st.integers(0, 2**32 - 1), rows=st.integers(4, 12), cols=st.integers(4, 10),
       kinds=st.lists(st.sampled_from(["flat", "noisy", "linear", "geometric", "eps-linear"]),
                      min_size=1, max_size=10))
@settings(max_examples=300, deadline=None, derandomize=True)
def test_one_pass_limits_match_per_column_fits(seed, rows, cols, kinds):
    """iterated_limits fits every eps column and the extrapolated T' row in
    one pass and extrapolates every row at once; each field has the repr of
    the per-column and per-row loop in tests/reference.py, with columns
    flat, noisy, growing linearly in T' (DIVERGES), settling geometrically
    or growing in T' at a rate set by eps (a diverging extrapolated row)."""
    rng = np.random.default_rng(seed)
    tprimes = np.cumsum(rng.integers(1, 40, size=rows)) + int(rng.integers(0, 10))
    eps = np.sort(10.0 ** -rng.uniform(0.5, 7.0, size=cols))[::-1]
    if len(set(eps.tolist())) < cols:
        return
    t = tprimes.astype(float)[:, None]
    level = rng.uniform(-5.0, 5.0, size=cols)
    columns = {
        "flat": np.broadcast_to(level, (rows, cols)),
        "noisy": level + 1e-10 * rng.standard_normal((rows, cols)),
        "linear": level + rng.uniform(0.01, 3.0, size=cols) * t,
        "geometric": level + rng.uniform(-2.0, 2.0, size=cols) * 0.7 ** (t / t[-1] * 10),
        "eps-linear": level + (1.0 + eps) * t * rng.uniform(0.1, 1.0),
    }
    pick = np.array([kinds[i % len(kinds)] for i in range(cols)])
    values = np.empty((rows, cols))
    for kind, table in columns.items():
        values[:, pick == kind] = table[:, pick == kind]
    matrix = DiagnosticMatrix(tuple(eps.tolist()), tuple(tprimes.tolist()), values,
                              np.full(values.shape, STATUS_FINITE, dtype=object))
    got, want = tk.iterated_limits(matrix), reference.iterated_limits(matrix)
    for field in dataclasses.fields(want):
        assert repr(getattr(got, field.name)) == repr(getattr(want, field.name)), field.name


class TestDomination:
    def test_bounded_quadlin(self, quadlin_d, dom60, space, path60):
        q = tk.eventually_constant_curve(dom60, space, onset=1, value=1.0)
        rep = tk.domination_check(quadlin_d, path60, q, eps_bar=0.1,
                                  sample_times=[2, 5, 10])
        assert rep.bounded
        sups = [e.sup_abs for e in rep.entries if e.sup_abs is not None]
        assert sups and max(sups) < 10.0

    def test_domain_flagged_entries(self, household, dom60, space):
        vals = np.full((61, 2), 1.0)
        path = tk.StochasticPath(dom60, space, vals)
        q = tk.eventually_constant_curve(dom60, space, onset=0, value=-5.0)
        # large negative shift drives consumption negative at small horizons
        rep = tk.domination_check(household, path, q, eps_bar=0.5,
                                  sample_times=[4, 5])
        assert any(e.domain_flagged for e in rep.entries)

    def test_continuous_unsupported(self, quadlin_c, space, params):
        dom = tk.TimeDomain.continuous(2.0, 0.1)
        path = tk.constant_alpha_path(dom, space, params)
        p = tk.quintic_ramp_curve(dom, space, target=1.0)
        with pytest.raises(UnsupportedError):
            tk.domination_check(quadlin_c, path, p, eps_bar=0.1, sample_times=[1.0])

    def test_eps_bar_validation(self, quadlin_d, dom60, space, path60):
        q = tk.zero_curve(dom60, space)
        with pytest.raises(InputError):
            tk.domination_check(quadlin_d, path60, q, eps_bar=0.0, sample_times=[2])


class TestContinuousGrid:
    def test_ramp_grid_runs(self, quadlin_c, space, params):
        dom = tk.TimeDomain.continuous(12.0, 0.05)
        path = tk.constant_alpha_path(dom, space, params)
        p = tk.quintic_ramp_curve(dom, space, target=1.0)
        m = tk.a_grid(quadlin_c, path, p, eps_grid=(1e-1, 1e-2, 1e-3, 1e-4),
                      tprime_grid=[3.0, 5.0, 7.0, 9.0, 11.0])
        assert m.all_finite
        assert m.values.shape == (5, 4)

    @staticmethod
    def _ln_wall(space, start, slope):
        obj = tk.dsl_continuous_objective("ln(x0) + x1 + x2", 2)
        dom = tk.TimeDomain.continuous(10.0, 0.01)
        path = tk.StochasticPath.from_function(dom, space, lambda t, w: start + slope * t)
        return obj, path, tk.quintic_ramp_curve(dom, space, target=5.0)

    def test_base_wall_is_a_domain_error(self, space):
        """The base path is -inf from t = 10/3 on while the perturbed paths are
        finite there: that time adds 0, and every cell from it on is walled."""
        m = tk.a_grid(*self._ln_wall(space, 1.0, -0.3))
        assert m.tprime_grid[0] == 3.0
        assert (m.status[0] == STATUS_FINITE).all() and np.isfinite(m.values).all()
        assert (m.status[1:] == STATUS_DOMAIN_ERROR).all()
        assert tk.uniformity_verdict(m).verdict == "INCONCLUSIVE"

    def test_every_cell_walled(self, space):
        with pytest.raises(NumericalError, match="every diagnostic cell hit"):
            tk.a_grid(*self._ln_wall(space, -1.0, 1.0))
