import numpy as np
import pytest

import tvckit as tk
from tvckit.errors import HorizonError, InputError, NumericalError, UnsupportedError
from tvckit.objectives import fd_partial_slot
from conftest import DISCOUNT, random_path

NEG_INF = float("-inf")


class TestDiscreteResidual:
    def test_closed_form_path_is_stationary(self, quadlin_d, euler_path_50):
        rep = tk.euler_report(quadlin_d, euler_path_50)
        assert rep.stationary
        assert rep.max_abs <= 1e-12
        assert rep.mode == "paper_literal"

    def test_off_path_not_stationary(self, quadlin_d, dom50, space):
        path = tk.StochasticPath.constant(dom50, space, 0.0)
        rep = tk.euler_report(quadlin_d, path)
        assert not rep.stationary

    def test_row_structure_left_edge(self, quadlin_d, dom50, space, params):
        # row 0 touches only window 0, row 1 windows 0..1, rows >= 2 all three
        path = tk.StochasticPath.constant(dom50, space, 0.0)
        r0 = tk.discrete_euler_residual(quadlin_d, path, 0)
        assert r0[0, 0] == pytest.approx(2 * (0 - params.alpha[0]))
        r1 = tk.discrete_euler_residual(quadlin_d, path, 1)
        assert r1[0, 0] == pytest.approx(params.beta[0] + 2 * (0 - params.alpha[0]))
        r2 = tk.discrete_euler_residual(quadlin_d, path, 2)
        assert r2[0, 0] == pytest.approx(
            params.gamma[0] + params.beta[0] + 2 * (0 - params.alpha[0]))

    def test_j_max_clips_windows(self, quadlin_d, dom50, space, params):
        path = tk.StochasticPath.constant(dom50, space, 0.0)
        r = tk.discrete_euler_residual(quadlin_d, path, 5, j_max=3)
        assert r[0, 0] == pytest.approx(params.gamma[0])  # only window 3 remains

    def test_fd_oracle_equivalence(self, quadlin_d, space):
        """Row t equals the central FD derivative of the window sum in y_t."""
        rng = np.random.default_rng(21)
        dom = tk.TimeDomain.discrete(12)
        path = random_path(dom, space, rng)
        n = quadlin_d.order
        for t in (0, 1, 4, 9):
            ana = tk.discrete_euler_residual(quadlin_d, path, t)
            for w in range(space.m):
                fd = 0.0
                for j in range(max(0, t - n), min(t, 10) + 1):
                    fd += fd_partial_slot(quadlin_d, t - j, path.window(j, n)[:, w, :],
                                          j, w)[0]
                assert ana[w, 0] == pytest.approx(fd, abs=1e-5)

    def test_household_identity(self, household, space):
        rng = np.random.default_rng(22)
        dom = tk.TimeDomain.discrete(32)
        path = random_path(dom, space, rng, lo=1.0, hi=1.9)
        y = path.values
        for t in range(4, 31):
            res = tk.discrete_euler_residual(household, path, t)
            for w in range(space.m):
                c = [y[s, w, 0] + y[s + 1, w, 0] - y[s + 2, w, 0]
                     for s in (t - 2, t - 1, t)]
                analytic = DISCOUNT ** (t - 2) * (
                    -1.0 / c[0] + DISCOUNT / c[1] + DISCOUNT**2 / c[2])
                assert res[w, 0] == pytest.approx(analytic, rel=1e-9)

    def test_no_window_raises(self, quadlin_d, space):
        dom = tk.TimeDomain.discrete(4)
        path = tk.StochasticPath.constant(dom, space, 1.0)
        with pytest.raises(HorizonError):
            tk.discrete_euler_residual(quadlin_d, path, 5, j_max=1)

    def test_non_finite_row_raises(self, space):
        # the partials overflow to inf: a numerical failure, as in euler_report
        obj = tk.dsl_discrete_objective("1e307 * y0 * y1 + 1e307 * y0 * y2", 2)
        path = tk.StochasticPath.constant(tk.TimeDomain.discrete(10), space, 100.0)
        with pytest.raises(NumericalError, match="non-finite residual"):
            tk.discrete_euler_residual(obj, path, 4)

    def test_horizon_too_short(self, quadlin_d, space):
        dom = tk.TimeDomain.discrete(1)
        path = tk.StochasticPath.constant(dom, space, 1.0)
        with pytest.raises(HorizonError):
            tk.euler_report(quadlin_d, path)


class TestBoundaryModes:
    def test_fixed_initial_skips_head(self, quadlin_d, dom50, space):
        path = tk.StochasticPath.constant(dom50, space, 0.625)
        mode = tk.BoundaryMode.fixed_initial(2)
        rep = tk.euler_report(quadlin_d, path, mode=mode)
        assert rep.indices[0] == 2
        assert rep.mode == "fixed_initial"

    def test_bad_mode(self):
        with pytest.raises(InputError):
            tk.BoundaryMode("other")
        with pytest.raises(InputError):
            tk.BoundaryMode.fixed_initial(-1)


class TestContinuousResidual:
    def test_constant_alpha_stationary(self, quadlin_c, space, params):
        dom = tk.TimeDomain.continuous(5.0, 0.01)
        path = tk.constant_alpha_path(dom, space, params)
        rep = tk.euler_report(quadlin_c, path)
        assert rep.stationary
        assert rep.max_abs <= 1e-10

    def test_known_residual_polynomial(self, quadlin_c, space, params):
        # x(t) = alpha + t^2: residual = v1 - v2' + v3'' = 2 t^2 (linear terms
        # have constant partials, their time derivatives vanish)
        dom = tk.TimeDomain.continuous(4.0, 0.01)
        path = tk.StochasticPath.from_function(
            dom, space, lambda t, w: params.alpha[w] + t * t)
        series = tk.continuous_euler_residual_series(quadlin_c, path)
        times = dom.times()
        interior = slice(4, -4)
        expect = 2.0 * times[interior] ** 2
        got = series[interior, 0, 0]
        assert np.abs(got - expect).max() < 1e-3

    def test_single_time_needs_interior(self, quadlin_c, space, params):
        dom = tk.TimeDomain.continuous(2.0, 0.1)
        path = tk.constant_alpha_path(dom, space, params)
        assert tk.continuous_euler_residual(quadlin_c, path, 1.0).shape == (2, 1)
        with pytest.raises(InputError):
            tk.continuous_euler_residual(quadlin_c, path, 0.0)

    def test_report_needs_an_interior_index(self, space):
        # 4 grid points leave no index n = 2 away from both ends
        obj = tk.dsl_continuous_objective("(x0 - 1)^2 + x1^2 + 5*x2^2", 2)
        dom = tk.TimeDomain.continuous(0.03, 0.01)
        path = tk.StochasticPath(dom, space, np.repeat([[0.0], [3.0], [0.0], [7.0]], 2, axis=1))
        with pytest.raises(HorizonError, match="no interior index"):
            tk.euler_report(obj, path)
        longer = tk.StochasticPath.constant(tk.TimeDomain.continuous(0.04, 0.01), space, 1.0)
        assert tk.euler_report(obj, longer).indices == (pytest.approx(0.02),)

    @pytest.mark.parametrize("k", [0, 3, 500])
    def test_report_takes_only_paper_literal(self, quadlin_c, space, params, k):
        path = tk.constant_alpha_path(tk.TimeDomain.continuous(2.0, 0.1), space, params)
        with pytest.raises(InputError, match="needs a discrete objective"):
            tk.euler_report(quadlin_c, path, tk.BoundaryMode.fixed_initial(k))
        assert tk.euler_report(quadlin_c, path, tk.BoundaryMode.paper_literal()).stationary

    def test_discrete_domain_unsupported(self, quadlin_c, space):
        dom = tk.TimeDomain.discrete(10)
        path = tk.StochasticPath.constant(dom, space, 1.0)
        with pytest.raises(UnsupportedError):
            tk.continuous_euler_residual_series(quadlin_c, path)


class TestOrderOneConsistency:
    def test_discrete_vs_continuous_small_h(self, space):
        """First-order model: the discrete row at a matching point approaches
        the continuous residual as the discretization step shrinks."""
        cobj = tk.dsl_continuous_objective("(x0 - 2)^2 + 3 * x1", 1)
        dom = tk.TimeDomain.continuous(4.0, 0.001)
        path = tk.StochasticPath.from_function(dom, space, lambda t, w: 2.0 + 0.1 * t)
        series = tk.continuous_euler_residual_series(cobj, path)
        # v1 - v2' = 2(x-2) = 0.2 t
        idx = dom.index_of(2.0)
        assert series[idx, 0, 0] == pytest.approx(0.4, abs=1e-6)
