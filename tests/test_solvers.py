import dataclasses
import re
import warnings

import numpy as np
import pytest

import tvckit as tk
from tvckit.errors import DomainError, InputError, NumericalError, UnsupportedError
from conftest import DISCOUNT


def household_guess(domain, space, head=1.0, tail=(0.2, 0.1)):
    idx = np.arange(domain.num_points, dtype=float)
    t_max = domain.t_max
    gv = np.interp(idx, [0, 1, t_max - 1, t_max], [head, head, tail[0], tail[1]])
    return tk.StochasticPath(domain, space, np.repeat(gv[:, None], space.m, axis=1))


class TestSolveSpec:
    def test_mode_validation(self, space):
        dom = tk.TimeDomain.discrete(6)
        guess = tk.StochasticPath.constant(dom, space, 1.0)
        with pytest.raises(InputError):
            tk.SolveSpec(horizon=4, guess=guess, mode="other")
        with pytest.raises(InputError):
            tk.SolveSpec(horizon=4, guess=guess, mode="fixed")  # no tail
        with pytest.raises(InputError):
            tk.SolveSpec(horizon=4, guess=guess, tail=np.zeros((2, 2)))

    @pytest.mark.parametrize("tolerance", [np.nan, 0.0, -1.0])
    def test_tolerance_must_be_positive(self, space, tolerance):
        guess = tk.StochasticPath.constant(tk.TimeDomain.discrete(6), space, 1.0)
        with pytest.raises(InputError):
            tk.SolveSpec(horizon=4, guess=guess, tolerance=tolerance)

    def test_fixed_value_lengths(self, space):
        guess = tk.StochasticPath.constant(tk.TimeDomain.discrete(6), space, 1.0)
        with pytest.raises(InputError, match="tail"):  # y(5), y(6): two rows
            tk.SolveSpec(horizon=4, guess=guess, mode="fixed", tail=np.zeros((3, 2)))
        with pytest.raises(InputError, match="no free indices"):
            tk.SolveSpec(horizon=4, guess=guess, mode="fixed", head=np.ones((5, 2)),
                         tail=np.zeros((2, 2)))

    @pytest.mark.parametrize("key, shape", [("head", (2, 3)), ("head", (2, 2, 2)),
                                            ("tail", (2, 1))])
    def test_head_and_tail_match_the_guess(self, space, key, shape):
        """A head or tail of any shape but (rows, m) or (rows, m, dim) of the
        guess is refused when the spec is built, not broadcast by the solve."""
        guess = tk.StochasticPath.constant(tk.TimeDomain.discrete(6), space, 1.0)
        values = {"head": np.ones((2, 2)), "tail": np.zeros((2, 2)), key: np.ones(shape)}
        message = f"{key} needs shape (rows, 2) or (rows, 2, 1) for the guess, got {shape}"
        with pytest.raises(InputError, match=re.escape(message)):
            tk.SolveSpec(horizon=4, guess=guess, mode="fixed", **values)

    def test_dense_jacobians_past_the_budget(self, space):
        # two states of N unknowns take 2 * N^2 * 8 bytes: N = 8192 fills 2^30
        for horizon, fits in ((8191, True), (8192, False)):
            guess = tk.StochasticPath.constant(tk.TimeDomain.discrete(horizon + 2), space, 1.0)
            if fits:
                tk.SolveSpec(horizon=horizon, guess=guess)
            else:
                with pytest.raises(InputError, match="exceed the budget of 1073741824 bytes"):
                    tk.SolveSpec(horizon=horizon, guess=guess)

    def test_nonfinite_fixed_values(self, space):
        dom = tk.TimeDomain.discrete(6)
        guess = tk.StochasticPath.constant(dom, space, 1.0)
        with pytest.raises(InputError):
            tk.SolveSpec(horizon=4, guess=guess, mode="fixed",
                         tail=np.array([[np.nan, 1.0], [1.0, 1.0]]))


class TestNewton:
    def test_quadlin_reaches_closed_form(self, quadlin_d, space, params):
        T = 20
        dom = tk.TimeDomain.discrete(T + 2)
        guess = tk.StochasticPath.constant(dom, space, 0.0)
        path, rep = tk.newton_euler_solve(quadlin_d, tk.SolveSpec(horizon=T, guess=guess))
        assert rep.converged
        assert max(rep.iterations) <= 2  # affine system
        assert rep.max_abs_residual <= 1e-10
        expect = tk.quadlin_euler_path(dom, space, params)
        assert np.abs(path.values[: T + 1] - expect.values[: T + 1]).max() <= 1e-8
        assert rep.curvature == ("convex", "convex")

    def test_zero_objective_already_stationary(self, space):
        obj = tk.DiscreteObjective(order=1, eval_fn=lambda p, t, w: 0.0,
                                   partial_fns=(lambda p, t, w: 0.0,
                                                lambda p, t, w: 0.0))
        dom = tk.TimeDomain.discrete(6)
        guess = tk.StochasticPath.constant(dom, space, 3.3)
        path, rep = tk.newton_euler_solve(obj, tk.SolveSpec(horizon=5, guess=guess))
        assert rep.converged
        assert rep.iterations == (0, 0)
        assert np.all(path.values == 3.3)

    def test_household_fixed_mode(self, space):
        live = tk.household_log(DISCOUNT, 2, zero_head=False)
        dom = tk.TimeDomain.discrete(12)
        guess = household_guess(dom, space)
        spec = tk.SolveSpec(horizon=10, guess=guess, mode="fixed",
                            head=np.ones((2, space.m)),
                            tail=np.array([[0.2] * space.m, [0.1] * space.m]))
        path, rep = tk.newton_euler_solve(live, spec)
        assert rep.converged
        assert rep.max_abs_residual <= 1e-10
        assert rep.curvature == ("concave", "concave")
        y = path.values
        # fixed entries are bit-identical to the requested values
        assert np.all(y[:2] == 1.0)
        assert np.all(y[11, :, 0] == 0.2) and np.all(y[12, :, 0] == 0.1)
        for w in range(space.m):
            c = [y[t, w, 0] + y[t + 1, w, 0] - y[t + 2, w, 0] for t in range(11)]
            assert min(c) > 0.0

    def test_guess_domain_mismatch(self, quadlin_d, space):
        dom = tk.TimeDomain.discrete(10)
        guess = tk.StochasticPath.constant(dom, space, 0.0)
        with pytest.raises(InputError):
            tk.newton_euler_solve(quadlin_d, tk.SolveSpec(horizon=10, guess=guess))

    def test_invalid_guess_domain_error(self, space):
        live = tk.household_log(DISCOUNT, 2, zero_head=False)
        dom = tk.TimeDomain.discrete(8)
        vals = np.full((9, space.m), 1.0)
        vals[4] = 5.0  # negative consumption at the guess
        guess = tk.StochasticPath(dom, space, vals)
        spec = tk.SolveSpec(horizon=6, guess=guess, mode="fixed",
                            tail=np.full((2, space.m), 0.2))
        with pytest.raises(DomainError):
            tk.newton_euler_solve(live, spec)


class TestObjectiveValue:
    def test_discrete_sum(self, quadlin_d, space, params):
        dom = tk.TimeDomain.discrete(4)
        path = tk.StochasticPath.constant(dom, space, 0.0)
        # window value at 0: alpha^2 per state; three windows
        expect = 3 * 0.5 * (params.alpha[0] ** 2 + params.alpha[1] ** 2)
        assert tk.objective_value(quadlin_d, path) == pytest.approx(expect)

    def test_neg_inf_allowed(self, household, space):
        dom = tk.TimeDomain.discrete(6)
        vals = np.full((7, space.m), 1.0)
        vals[4] = 5.0
        path = tk.StochasticPath(dom, space, vals)
        assert tk.objective_value(household, path) == float("-inf")

    def test_continuous_neg_inf(self, space):
        # -inf at one grid time carries through the running trapezoid sum
        obj = tk.dsl_continuous_objective("ln(x0)", 0)
        dom = tk.TimeDomain.continuous(1.0, 0.1)
        path = tk.StochasticPath.from_function(dom, space, lambda t, w: abs(t - 0.5))
        assert tk.objective_value(obj, path) == float("-inf")

    def test_continuous_integral(self, space):
        obj = tk.dsl_continuous_objective("x0", 0)
        dom = tk.TimeDomain.continuous(1.0, 0.001)
        path = tk.StochasticPath.from_function(dom, space, lambda t, w: t)
        assert tk.objective_value(obj, path) == pytest.approx(0.5, abs=1e-6)

    def test_pos_inf_total_raises(self):
        # every window is 5e307, finite; their sum overflows to +inf, which
        # is not admissible: a numerical failure, with no RuntimeWarning
        obj = tk.dsl_discrete_objective("1e308 * y1 * y0 + 1e308 * y2 * y0", 2)
        path = tk.StochasticPath.constant(tk.TimeDomain.discrete(10), tk.SampleSpace((1.0,)), 0.5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for total in (lambda: tk.objective_value(obj, path),
                          lambda: tk.truncated_objective(obj, path, 8)):
                with pytest.raises(NumericalError, match=re.escape("overflowed to +inf")):
                    total()


class TestBruteForce:
    def test_concave_vertex(self, space):
        obj = tk.dsl_discrete_objective("0 - (y0 - 3)^2", 0)
        dom = tk.TimeDomain.discrete(0)
        base = tk.StochasticPath.constant(dom, space, 0.0)
        grid = np.arange(0.0, 6.0 + 1e-9, 0.1)
        out = tk.brute_force_solve(obj, base, [0], [grid])
        assert out.path.values[0, 0, 0] == pytest.approx(3.0)

    def test_grid_excluding_optimum_hits_boundary(self, space):
        obj = tk.dsl_discrete_objective("0 - (y0 - 3)^2", 0)
        dom = tk.TimeDomain.discrete(0)
        base = tk.StochasticPath.constant(dom, space, 0.0)
        grid = np.arange(0.0, 2.0 + 1e-9, 0.5)
        out = tk.brute_force_solve(obj, base, [0], [grid])
        assert out.path.values[0, 0, 0] == pytest.approx(2.0)

    def test_budget_guards(self, quadlin_d, space):
        dom = tk.TimeDomain.discrete(10)
        base = tk.StochasticPath.constant(dom, space, 0.0)
        with pytest.raises(InputError):
            tk.brute_force_solve(quadlin_d, base, list(range(7)),
                                 [np.arange(3.0)] * 7)
        with pytest.raises(InputError):
            tk.brute_force_solve(quadlin_d, base, [0, 1, 2],
                                 [np.arange(300.0)] * 3)

    @pytest.mark.parametrize("free", [[], [11], [-1]])
    def test_free_indices_on_the_grid(self, quadlin_d, space, free):
        base = tk.StochasticPath.constant(tk.TimeDomain.discrete(10), space, 0.0)
        with pytest.raises(InputError, match="free indices"):
            tk.brute_force_solve(quadlin_d, base, free, [np.arange(3.0)] * len(free))

    def test_free_indices_distinct(self, quadlin_d, space):
        # a repeated index would overwrite its first grid yet count in grid_resolution
        base = tk.StochasticPath.constant(tk.TimeDomain.discrete(10), space, 0.0)
        with pytest.raises(InputError, match="free indices must be distinct"):
            tk.brute_force_solve(quadlin_d, base, [3, 3], [np.arange(3.0), np.arange(30.0)])

    @pytest.mark.parametrize("free", [[2.7], [np.inf], [np.nan]])
    def test_free_indices_integral(self, quadlin_d, space, free):
        # a fractional index used to be truncated: [2.7] searched index 2
        base = tk.StochasticPath.constant(tk.TimeDomain.discrete(10), space, 0.0)
        with pytest.raises(InputError, match="free indices"):
            tk.brute_force_solve(quadlin_d, base, free, [np.arange(3.0)])

    @pytest.mark.parametrize("grid, error", [
        ([], "non-empty"),                # used to raise ValueError from range()
        (np.ones((2, 2)), "non-empty"),
        ([1.0, np.inf], "finite"),        # used to reach the objective
        ([1.0, np.nan], "finite"),
    ])
    def test_grids_checked(self, quadlin_d, space, grid, error):
        base = tk.StochasticPath.constant(tk.TimeDomain.discrete(10), space, 0.0)
        with pytest.raises(InputError, match=error):
            tk.brute_force_solve(quadlin_d, base, [2, 3], [np.arange(3.0), grid])

    def test_household_oracle_agreement(self, space):
        live = tk.household_log(DISCOUNT, 2, zero_head=False)
        dom = tk.TimeDomain.discrete(6)
        guess = household_guess(dom, space)
        spec = tk.SolveSpec(horizon=4, guess=guess, mode="fixed",
                            head=np.ones((2, space.m)),
                            tail=np.array([[0.2] * space.m, [0.1] * space.m]))
        newton, rep = tk.newton_euler_solve(live, spec)
        assert rep.converged
        grid = np.linspace(0.1, 2.1, 21)
        brute = tk.brute_force_solve(live, newton, [2, 3, 4], [grid] * 3)
        gap = np.abs(brute.path.values[2:5] - newton.values[2:5]).max()
        assert gap <= brute.grid_resolution
        assert brute.value <= tk.objective_value(live, newton) + 1e-12


class TestCorrespondence:
    def test_quadlin_identities(self, quadlin_d):
        pair = tk.discrete_to_continuous(quadlin_d)
        rng = np.random.default_rng(51)
        segments = [(rng.uniform(0.5, 3.0, size=5), int(rng.integers(0, 10)),
                     int(rng.integers(0, 2))) for _ in range(100)]
        rep = tk.correspondence_check(pair, segments)
        assert rep.passed
        assert rep.max_partial_gap <= 1e-10
        assert rep.max_euler_gap <= 1e-10

    def test_substitution_value(self, quadlin_d, params):
        pair = tk.discrete_to_continuous(quadlin_d)
        x, y, z = 1.3, 0.4, -0.2
        jet = np.array([x, y, z])
        win = np.array([x, x + y, x + 2 * y + z])
        assert pair.continuous.value(jet, 0, 0) == pytest.approx(
            quadlin_d.value(win, 0, 0))

    def test_x_only_function(self):
        V = tk.dsl_discrete_objective("y0 ^ 2", 2)
        pair = tk.discrete_to_continuous(V)
        jet = np.array([1.5, 0.7, -0.3])
        assert tk.partial_slot(pair.continuous, 1, jet, 0, 0)[0] == pytest.approx(
            0.0, abs=1e-9)
        assert tk.partial_slot(pair.continuous, 2, jet, 0, 0)[0] == pytest.approx(
            0.0, abs=1e-9)

    def test_dsl_objective_passes(self):
        V = tk.dsl_discrete_objective("ln(y0 + y1) - y2 ^ 2", 2)
        pair = tk.discrete_to_continuous(V)
        rng = np.random.default_rng(52)
        segments = [(rng.uniform(1.0, 2.0, size=5), 0, 0) for _ in range(30)]
        rep = tk.correspondence_check(pair, segments)
        assert rep.passed

    def test_corrupted_partial_fails(self, quadlin_d, params):
        def corrupted(points, t, w):
            out = quadlin_d.partials_batch(points, t, w)
            out[:, 1, 0] = np.asarray(params.beta)[w] + 0.1
            return out

        bad = dataclasses.replace(quadlin_d, batch_partials_fn=corrupted)
        pair = tk.CorrespondencePair(discrete=bad,
                                     continuous=tk.discrete_to_continuous(
                                         quadlin_d).continuous)
        rep = tk.correspondence_check(pair, [(np.ones(5), 0, 0)])
        assert not rep.passed
        assert rep.max_partial_gap == pytest.approx(0.1, rel=1e-3)

    def test_neg_inf_samples_skipped(self, household):
        pair = tk.discrete_to_continuous(household)
        segments = [(np.array([0.1, 0.1, 5.0, 0.1, 0.1]), 2, 0)]
        rep = tk.correspondence_check(pair, segments)
        assert rep.verdict == "INCONCLUSIVE"
        assert rep.skipped == 1

    def test_segment_shape_checked(self, quadlin_d):
        # 2 components on a dim-1 objective, and 4 consecutive values
        pair = tk.discrete_to_continuous(quadlin_d)
        for seg in (np.stack([np.linspace(1.0, 2.0, 5), np.full(5, 7.0)], axis=1), np.ones(4)):
            with pytest.raises(InputError, match="sample of shape"):
                tk.correspondence_check(pair, [(np.ones(5), 0, 0), (seg, 1, 0)])

    def test_continuous_objective_rejected(self, quadlin_c):
        with pytest.raises(tk.InputError, match="needs a discrete objective"):
            tk.discrete_to_continuous(quadlin_c)

    def test_order_guard(self):
        V = tk.dsl_discrete_objective("y0 + y1", 1)
        with pytest.raises(UnsupportedError):
            tk.discrete_to_continuous(V)
