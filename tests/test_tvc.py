import warnings

import numpy as np
import pytest

import reference
import tvckit as tk
from tvckit.core import running_sum
from tvckit.errors import DomainError, HorizonError, InputError, NumericalError
from conftest import random_path

NEG_INF = float("-inf")


class TestDiscreteTail:
    def test_counterexample_value(self, quadlin_d, dom50, space, euler_path_50):
        """Unit step perturbation: every tail beyond the step equals
        E[beta + gamma + beta] evaluated at the fixed constants, 0.9."""
        q = tk.eventually_constant_curve(dom50, space, onset=1, value=1.0)
        for tprime in range(2, 40):
            tail = tk.discrete_tvc_tail(quadlin_d, euler_path_50, q, tprime)
            assert tail == pytest.approx(0.9, abs=1e-12)

    def test_zero_perturbation_zero_tail(self, quadlin_d, dom50, space, euler_path_50):
        q = tk.zero_curve(dom50, space)
        assert tk.discrete_tvc_tail(quadlin_d, euler_path_50, q, 5) == 0.0

    def test_compact_support_tail_vanishes(self, quadlin_d, dom50, space,
                                           euler_path_50):
        q = tk.compact_support_curve(dom50, space, onset=0, cutoff=10, value=1.0)
        # once the window of slots T'+1..T'+n clears the support, the tail is 0
        for tprime in range(11, 40):
            assert tk.discrete_tvc_tail(quadlin_d, euler_path_50, q, tprime) == 0.0

    @pytest.mark.parametrize("sign", ["", "-"], ids=("plus", "minus"))
    def test_non_finite_tail_raises(self, space, sign):
        # the slot partials overflow to +-inf: a numerical failure, neither a
        # +inf input error nor a -inf tail that satisfies the liminf
        obj = tk.dsl_discrete_objective(f"{sign}1e307 * y0 * y1 {sign or '+'} 1e307 * y0 * y2", 2)
        dom = tk.TimeDomain.discrete(10)
        path = tk.StochasticPath(dom, space, np.full((11, 2, 1), 100.0))
        q = tk.eventually_constant_curve(dom, space, onset=2, value=1.0)
        for engine in (lambda: tk.discrete_tvc_tail(obj, path, q, 5),
                       lambda: tk.tvc_liminf_discrete(obj, path, q)):
            with pytest.raises(NumericalError, match="non-finite tail"):
                engine()
        with pytest.raises(NumericalError, match="non-finite residual"):
            tk.euler_report(obj, path)

    def test_horizon_guards(self, quadlin_d, dom50, space, euler_path_50):
        q = tk.zero_curve(dom50, space)
        with pytest.raises(HorizonError):
            tk.discrete_tvc_tail(quadlin_d, euler_path_50, q, 0)
        with pytest.raises(HorizonError):
            tk.discrete_tvc_tail(quadlin_d, euler_path_50, q, 49)

    def test_fd_oracle(self, quadlin_d, space):
        """The tail equals the eps-derivative of the truncated objective minus
        the weighted interior rows (the defining decomposition), via FD."""
        rng = np.random.default_rng(31)
        dom = tk.TimeDomain.discrete(14)
        path = random_path(dom, space, rng)
        q = tk.eventually_constant_curve(dom, space, onset=2,
                                         value=rng.uniform(-1, 1, size=2))
        tprime = 9
        eps = 1e-6
        direct = (tk.truncated_objective(quadlin_d, tk.perturb(path, q, +eps), tprime)
                  - tk.truncated_objective(quadlin_d, tk.perturb(path, q, -eps),
                                           tprime)) / (2 * eps)
        rows = 0.0
        for t in range(tprime + 1):
            r = reference.discrete_euler_residual(quadlin_d, path, t, j_max=tprime)
            rows += tk.expectation(space, np.sum(r * q.values[t], axis=1))
        tail = tk.discrete_tvc_tail(quadlin_d, path, q, tprime)
        assert tail == pytest.approx(direct - rows, abs=1e-6)


class TestLiminfReports:
    def test_violated_counterexample(self, quadlin_d, dom50, space, euler_path_50):
        q = tk.eventually_constant_curve(dom50, space, onset=1, value=1.0)
        rep = tk.tvc_liminf_discrete(quadlin_d, euler_path_50, q)
        assert rep.verdict == "VIOLATED"
        assert rep.liminf_estimate == pytest.approx(0.9, abs=1e-10)
        assert rep.finite_horizon_caveat
        assert rep.limsup_holds  # the weak (>= 0) variant still holds

    def test_satisfied_compact_support(self, quadlin_d, dom50, space, euler_path_50):
        q = tk.compact_support_curve(dom50, space, onset=0, cutoff=10, value=1.0)
        rep = tk.tvc_liminf_discrete(quadlin_d, euler_path_50, q)
        assert rep.verdict == "SATISFIED"
        assert rep.liminf_estimate == pytest.approx(0.0, abs=1e-12)

    def test_running_inf_monotonicity(self, quadlin_d, dom50, space):
        rng = np.random.default_rng(33)
        path = random_path(dom50, space, rng)
        q = tk.eventually_constant_curve(dom50, space, onset=1,
                                         value=rng.uniform(-1, 1, size=2))
        rep = tk.tvc_liminf_discrete(quadlin_d, path, q)
        assert np.all(np.diff(rep.running_inf) >= 0.0)
        assert np.all(rep.running_inf <= rep.running_sup)

    def test_needs_enough_samples(self, quadlin_d, space):
        dom = tk.TimeDomain.discrete(6)
        path = tk.StochasticPath.constant(dom, space, 1.0)
        q = tk.zero_curve(dom, space)
        with pytest.raises(HorizonError):
            tk.tvc_liminf_discrete(quadlin_d, path, q)


class TestContinuousBracket:
    @pytest.fixture()
    def setup(self, space, params, quadlin_c):
        dom = tk.TimeDomain.continuous(10.0, 0.01)
        path = tk.constant_alpha_path(dom, space, params)
        p = tk.quintic_ramp_curve(dom, space, target=1.0)
        return dom, path, p

    def test_bracket_value(self, quadlin_c, setup):
        dom, path, p = setup
        series = tk.boundary_bracket_series(quadlin_c, path, p)
        # past the ramp: bracket = E[p_inf * beta] = 0.5*0.5 + 0.5*0.4 = 0.45
        for t in (2.0, 5.0, 8.0):
            assert series[dom.index_of(t)] == pytest.approx(0.45, abs=1e-4)

    def test_bracket_zero_at_start(self, quadlin_c, setup):
        dom, path, p = setup
        assert tk.continuous_boundary_term(quadlin_c, path, p, 0.0) == pytest.approx(
            0.0, abs=1e-8)

    def test_liminf_violated(self, quadlin_c, setup):
        dom, path, p = setup
        t_list = [float(t) for t in np.arange(2.0, 9.0 + 1e-9, 0.5)]
        rep = tk.tvc_liminf_continuous(quadlin_c, path, p, t_list)
        assert rep.verdict == "VIOLATED"
        assert rep.liminf_estimate == pytest.approx(0.45, abs=1e-4)

    def test_scaled_path_curve(self, space, params):
        dom = tk.TimeDomain.continuous(4.0, 0.01)
        path = tk.constant_alpha_path(dom, space, params)
        curve = tk.scaled_path_curve(path, abar=0.5)
        assert curve.values[0, 0, 0] == 0.0
        assert curve.values[-1, 0, 0] == pytest.approx(0.5 * params.alpha[0])
        with pytest.raises(InputError):
            tk.scaled_path_curve(path, abar=1.5)


    @pytest.mark.parametrize("expr, order, wave", [
        # a constant path: v_2 = v_3 = inf, so p_1 and p_2 are nan
        ("1e307 * x0 * x1 + 1e307 * x0 * x2", 2, False),
        # p' * v_2 overflows to +inf past the ramp
        ("1e307 * x0 * x1", 1, True),
    ])
    def test_non_finite_bracket_raises(self, space, expr, order, wave):
        dom = tk.TimeDomain.continuous(10.0, 0.01)
        level = 50.0 * (2.0 + np.sin(dom.times())) if wave else np.full(dom.num_points, 100.0)
        path = tk.StochasticPath(dom, space, np.repeat(level[:, None], 2, axis=1))
        p = tk.quintic_ramp_curve(dom, space, target=1.0)
        obj = tk.dsl_continuous_objective(expr, order)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # the momenta overflow without a warning
            with pytest.raises(NumericalError, match="non-finite bracket"):
                tk.boundary_bracket_series(obj, path, p)
            with pytest.raises(NumericalError, match="non-finite residual"):
                tk.continuous_euler_residual_series(obj, path)


class TestPerturbationShape:
    """The tail engines and the bracket take perturb's rule: the perturbation
    shares the path's domain, sample space and dimension."""

    def test_discrete_engines(self, quadlin_d, space, params):
        dom = tk.TimeDomain.discrete(12)
        path = tk.quadlin_euler_path(dom, space, params)
        on_three = tk.eventually_constant_curve(dom, tk.SampleSpace((0.2, 0.3, 0.5)), 1, 1.0)
        longer = tk.eventually_constant_curve(tk.TimeDomain.discrete(14), space, 1, 1.0)
        for q in (on_three, longer):
            with pytest.raises(InputError, match="must share"):
                tk.tvc_liminf_discrete(quadlin_d, path, q)
            with pytest.raises(InputError, match="must share"):
                tk.discrete_tvc_tail(quadlin_d, path, q, 5)
            with pytest.raises(InputError, match="must share"):
                tk.variation_decomposition_check(quadlin_d, path, q)
            with pytest.raises(InputError, match="must share"):
                tk.a_grid(quadlin_d, path, q)

    def test_bracket(self, quadlin_c, space, params):
        dom = tk.TimeDomain.continuous(4.0, 0.01)
        path = tk.constant_alpha_path(dom, space, params)
        p = tk.quintic_ramp_curve(dom, space, target=np.ones((2, 2)))
        with pytest.raises(InputError, match="must share"):
            tk.boundary_bracket_series(quadlin_c, path, p)


class TestDecomposition:
    def test_quadlin_random(self, quadlin_d, space):
        rng = np.random.default_rng(41)
        for _ in range(10):
            dom = tk.TimeDomain.discrete(int(rng.integers(9, 16)))
            path = random_path(dom, space, rng)
            q = tk.eventually_constant_curve(dom, space, int(rng.integers(0, 3)),
                                             rng.uniform(-1, 1, size=2))
            gap = tk.variation_decomposition_check(quadlin_d, path, q)
            assert gap <= 1e-6

    def test_household_random(self, household, space):
        rng = np.random.default_rng(42)
        dom = tk.TimeDomain.discrete(16)
        path = random_path(dom, space, rng, lo=1.0, hi=1.9)
        q = tk.eventually_constant_curve(dom, space, onset=2, value=0.1)
        gap = tk.variation_decomposition_check(household, path, q, tprime=10)
        assert gap <= 1e-5

    def test_non_finite_rows_raise(self):
        # the Euler rows overflow to +inf (the windows and their sums stay
        # finite): the numerical failure euler_report raises, not the +inf
        # input error of the expectation they would reach
        obj = tk.dsl_discrete_objective("1e308 * y1 * y0 + 1e308 * y2 * y0", 2)
        dom, space = tk.TimeDomain.discrete(4), tk.SampleSpace((1.0,))
        path = tk.StochasticPath.constant(dom, space, 0.5)
        q = tk.eventually_constant_curve(dom, space, onset=2, value=1.0)
        for engine in (lambda: tk.variation_decomposition_check(obj, path, q),
                       lambda: tk.euler_report(obj, path)):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(NumericalError, match="non-finite residual"):
                    engine()

    def test_truncated_objective_domain_error(self, household, space):
        dom = tk.TimeDomain.discrete(8)
        vals = np.full((9, 2), 1.0)
        vals[4] = 3.0  # c_2 = 1 + 1 - 3 < 0
        path = tk.StochasticPath(dom, space, vals)
        with pytest.raises(DomainError):
            tk.truncated_objective(household, path, 5)


    def test_truncated_objective_wall_by_mass(self, household):
        # c_2 = 1 + 1 - 3 < 0 in state 1 only: window 2 is -inf there
        dom = tk.TimeDomain.discrete(8)
        vals = np.full((9, 2), 1.0)
        vals[4, 1] = 3.0
        with pytest.raises(DomainError, match="at t=2"):
            tk.truncated_objective(household, tk.StochasticPath(dom, tk.SampleSpace((0.5, 0.5)),
                                                                vals), 6)
        # a state of mass 0 is ignored, as objective_value ignores it
        path = tk.StochasticPath(dom, tk.SampleSpace((1.0, 0.0)), vals)
        total = tk.truncated_objective(household, path, 6)
        assert np.isfinite(total) and total == tk.objective_value(household, path)


def continuous_decomposition_gap(obj, path, p, eps=1e-2):
    """Continuous twin of variation_decomposition_check: the gap between the
    direct eps-derivative of the integrated objective and
    int_0^T E[R . p] dt + bracket(T) - bracket(0).  The objectives below are
    quadratic in the jets, so the central difference is exact for any eps and
    a large eps keeps rounding out of the gap."""
    direct = (tk.objective_value(obj, tk.perturb(path, p, +eps))
              - tk.objective_value(obj, tk.perturb(path, p, -eps))) / (2.0 * eps)
    weighted = np.sum(tk.continuous_euler_residual_series(obj, path) * p.values, axis=2)
    rows = running_sum(path.domain, tk.expectation(path.space, weighted.T))[-1]
    bracket = tk.boundary_bracket_series(obj, path, p)
    return abs(direct - (rows + bracket[-1] - bracket[0]))


class TestContinuousDecomposition:
    """The identity the continuous Euler equation and bracket rest on, on a
    smooth path with p = 0.3 cos(1.3 t) (no vanishing head) over [0, 5].

    With the composed second-order stencils the k-th derivative is accurate
    to O(h^(3-k)) at the two edge points.  Where the top-slot partial
    v_{n+1} reads no x_n and n <= 2, the gap is O(h^2); at order 3 the edge
    values of p'' and v_4'' enter the bracket and the gap is O(h); at order
    4 it grows as h shrinks.  Higher-order edge stencils would lift orders
    3 and 4."""

    @pytest.mark.parametrize("order, source, ratio", [
        (1, "x0^2 + x0 * x1 + x1^2", 3.0),
        (2, "x0 * x1 + x0 * x2 + x1^2", 3.0),
        (3, "x0 * x1 + x1^2 + x0 * x3", 1.8),
    ])
    def test_gap_shrinks_with_h(self, space, order, source, ratio):
        obj = tk.dsl_continuous_objective(source, order)
        gaps = []
        for h in (0.01, 0.005, 0.0025):
            dom = tk.TimeDomain.continuous(5.0, h)
            t = dom.times()[:, None]
            path = tk.StochasticPath(dom, space, 1.0 + 0.5 * np.sin(np.array([0.7, 1.1]) * t + 0.2))
            p = tk.PerturbationCurve(dom, space, np.repeat(0.3 * np.cos(1.3 * t), 2, axis=1))
            gaps.append(continuous_decomposition_gap(obj, path, p))
        assert gaps[0] < 1e-3
        assert gaps[0] >= ratio * gaps[1] and gaps[1] >= ratio * gaps[2], gaps
