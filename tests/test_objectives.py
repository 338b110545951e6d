import ast
import dataclasses
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
import tvckit as tk
from tvckit.errors import DomainError, InputError, NumericalError
from tvckit.objectives import _lagged_consumption, fd_partial_slot, fd_partials, rel_gap

NEG_INF = float("-inf")


class TestQuadlin:
    def test_continuous_values(self, quadlin_c):
        # quadratic term vanishes on the stationary level
        assert quadlin_c.value(np.array([1.0, 2.0, 3.0]), 0.0, 0) == pytest.approx(
            0.5 * 2.0 + 0.25 * 3.0)
        assert quadlin_c.value(np.array([2.0, 0.0, 0.0]), 0.0, 0) == 1.0

    def test_discrete_values(self, quadlin_d):
        assert quadlin_d.value(np.array([0.0, 1.0, 1.0]), 0, 0) == 1.75
        assert quadlin_d.value(np.array([1.0, 0.0, 0.0]), 0, 0) == 0.0

    def test_partials(self, quadlin_d):
        win = np.array([3.0, 5.0, 7.0])
        assert tk.partial_slot(quadlin_d, 0, win, 0, 0)[0] == 4.0
        assert tk.partial_slot(quadlin_d, 1, win, 0, 1)[0] == 0.4
        assert tk.partial_slot(quadlin_d, 2, win, 0, 0)[0] == 0.25

    def test_positivity_enforced(self):
        with pytest.raises(InputError):
            tk.QuadLinParams(alpha=(1.0, -2.0), beta=(0.5, 0.4), gamma=(0.25, 0.2))

    def test_closed_form_path(self, dom50, space, params):
        path = tk.quadlin_euler_path(dom50, space, params)
        assert np.allclose(path.values[0, :, 0], [1.0, 2.0])
        assert np.allclose(path.values[1, :, 0], [0.75, 1.8])
        assert np.allclose(path.values[2:, 0, 0], 0.625)
        assert np.allclose(path.values[2:, 1, 0], 1.7)


class TestHousehold:
    def test_zero_head(self, household):
        assert household.value(np.array([9.0, -4.0, 7.0]), 0, 0) == 0.0
        assert household.value(np.array([9.0, -4.0, 7.0]), 1, 1) == 0.0

    def test_log_term(self, household):
        # c = 1 + 1 - 1 = 1, so the value is discount^2 * ln 1 = 0
        assert household.value(np.array([1.0, 1.0, 1.0]), 2, 0) == 0.0
        val = household.value(np.array([2.0, 1.0, 1.0]), 3, 0)
        assert val == pytest.approx(0.9**3 * math.log(2.0))

    def test_neg_inf_on_bad_consumption(self, household):
        assert household.value(np.array([0.5, 0.5, 2.0]), 2, 0) == NEG_INF

    def test_partial_signs(self, household):
        win = np.array([1.0, 1.0, 1.0])
        assert tk.partial_slot(household, 2, win, 3, 0)[0] == pytest.approx(-0.9**3)
        assert tk.partial_slot(household, 0, win, 3, 0)[0] == pytest.approx(0.9**3)

    def test_partial_zero_head(self, household):
        assert tk.partial_slot(household, 0, np.array([1.0, 1.0, 1.0]), 1, 0)[0] == 0.0

    def test_partial_domain_error(self, household):
        with pytest.raises(DomainError):
            tk.partial_slot(household, 0, np.array([0.1, 0.1, 2.0]), 2, 0)

    def test_live_head_variant(self):
        live = tk.household_log(0.9, 2, zero_head=False)
        assert live.value(np.array([1.0, 1.0, 1.0]), 0, 0) == 0.0  # ln 1
        assert live.value(np.array([0.1, 0.1, 2.0]), 0, 0) == NEG_INF

    def test_param_validation(self):
        with pytest.raises(InputError):
            tk.household_log(1.0, 2)
        with pytest.raises(InputError):
            tk.household_log(0.9, 0)

    @pytest.mark.parametrize("n", range(1, 8))
    def test_slot_sum_is_np_sum(self, n):
        """Consumption adds the n slots left to right, which is np.sum's order
        bit for bit up to n = 7; from 8 slots on numpy sums pairwise blocks."""
        rng = np.random.default_rng(n)
        points = (rng.uniform(-3.0, 3.0, size=(20_000, n + 1, 1))
                  * 10.0 ** rng.uniform(-8.0, 8.0, size=(20_000, n + 1, 1)))
        want = np.sum(points[:, :n, 0], axis=1) - points[:, n, 0]
        assert _lagged_consumption(points, n).tobytes() == want.tobytes()

    def test_wall_message_at_negative_zeros(self):
        # -0.0 slots add up to -0.0 left to right, to 0.0 in np.sum and the message
        point, live = np.array([-0.0, -0.0, 0.0]), tk.household_log(0.9, 2, zero_head=False)
        message = r"^consumption 0\.0 <= 0 at t=3, state 1$"
        for obj in (live, reference.household_log(0.9, 2, zero_head=False)):
            with pytest.raises(DomainError, match=message):
                tk.partial_slot(obj, 0, point, 3, 1)

    @pytest.mark.parametrize("n", range(1, 6))
    @pytest.mark.parametrize("zero_head", [True, False])
    def test_batch_matches_per_point(self, n, zero_head):
        """values_batch and partials_batch against the per-point formula of
        tests/reference.py: the same -inf points and the same DomainError
        messages; values and partials within REL, as pow and log round apart."""
        obj = tk.household_log(0.9, n, zero_head)
        twin = reference.household_log(0.9, n, zero_head)
        rng = np.random.default_rng(10 * n + zero_head)
        points = rng.uniform(0.1, 1.5, size=(300, n + 1, 1))
        # a third of the windows on, next to or past the wall
        near = rng.random(300) < 1 / 3
        points[near, n, 0] = (points[near, :n, 0].sum(axis=1)
                              - rng.choice([-1e-9, 0.0, 1e-12, 1e-3], near.sum()))
        t, w = rng.integers(0, 2 * n + 2, size=300), rng.integers(0, 2, size=300)
        values = obj.values_batch(points, t, w)
        for p, ti, wi, value in zip(points, t.tolist(), w.tolist(), values):
            want = twin.value(p, ti, wi)
            assert value == want or abs(value - want) <= REL * max(1.0, abs(want))
            try:
                want = np.array([fn(p, ti, wi) for fn in twin.partial_fns])
            except DomainError as exc:
                with pytest.raises(DomainError) as got:
                    obj.partials_batch(p[None], [ti], [wi])
                assert str(got.value) == str(exc)
                continue
            got = obj.partials_batch(p[None], [ti], [wi])[0, :, 0]
            assert (np.abs(got - want) <= REL * np.maximum(1.0, np.abs(want))).all()


class _PowerSizes(float):
    """A discount that records the number of exponents of each power taken of it."""

    def __pow__(self, other):
        self.sizes.append(np.size(other))
        return float(self) ** other


def _time_table(kind, rng, m):
    """(t, w) of one kind of time table."""
    if kind == "windows":  # PointLayout.windows: each window's time once per state
        j_lo = int(rng.integers(0, 6))
        t = np.repeat(np.arange(j_lo, j_lo + int(rng.integers(1, 30))), m)
        return t, np.tile(np.arange(m), len(t) // m)
    if kind == "brute-force":  # one block per touched window, one state
        touched = np.sort(rng.choice(8, size=int(rng.integers(1, 5)), replace=False))
        t = np.repeat(touched, rng.integers(1, 40, size=len(touched)))
        return t, np.full(len(t), int(rng.integers(0, m)))
    size = int(rng.integers(1, 80))
    t = {"unsorted": lambda: rng.integers(0, size, size),
         "negative": lambda: rng.integers(-6, size, size),
         "floats": lambda: rng.integers(0, size, size).astype(float),
         "sparse-huge": lambda: np.array([10**7])}[kind]()
    return t, rng.integers(0, m, len(t))


@given(seed=st.integers(0, 2**32 - 1), discount=st.floats(0.05, 0.999), n=st.integers(1, 4),
       m=st.integers(1, 3), zero_head=st.booleans(),
       kind=st.sampled_from(["windows", "brute-force", "unsorted", "negative", "floats",
                             "sparse-huge"]))
@settings(max_examples=150, deadline=None, derandomize=True)
def test_household_bind_is_per_point(seed, discount, n, m, zero_head, kind):
    """household_log bound to any time table (one power per distinct time
    when the table allows it) gives each point the bits of the same
    objective bound to that point alone, where the power is taken per
    point, and takes one power per bind, of no more exponents than points.
    Against the per-point formula of tests/reference.py: the same -inf
    points and DomainError text, values and partials within REL (numpy's
    vectorised pow and log may round apart from libm's)."""
    rng = np.random.default_rng(seed)
    t, w = _time_table(kind, rng, m)
    power = _PowerSizes(discount)
    power.sizes = []
    obj, twin = tk.household_log(power, n, zero_head), reference.household_log(discount, n,
                                                                                 zero_head)
    bound = obj.bind(t, w)
    assert len(power.sizes) == 1 and power.sizes[0] <= len(t)
    points = rng.uniform(0.1, 1.5, size=(len(t), n + 1, 1))
    near = rng.random(len(t)) < 1 / 3  # on, next to or past the wall
    points[near, n, 0] = (points[near, :n, 0].sum(axis=1)
                          - rng.choice([-1e-9, 0.0, 1e-12, 1e-3], near.sum()))
    live = rng.uniform(0.5, 1.5, size=points.shape)
    live[:, n, 0] = rng.uniform(0.1, 0.4, size=len(t))  # consumption > 0
    values, partials = bound.values(points), bound.partials(live)
    alone = [obj.bind(t[i : i + 1], w[i : i + 1]) for i in range(len(t))]
    assert values.tobytes() == np.concatenate(
        [b.values(points[i : i + 1]) for i, b in enumerate(alone)]).tobytes()
    assert partials.tobytes() == np.concatenate(
        [b.partials(live[i : i + 1]) for i, b in enumerate(alone)]).tobytes()

    times, states = t.tolist(), w.tolist()
    for p, ti, wi, value in zip(points, times, states, values):
        want = twin.value(p, ti, wi)
        assert value == want or abs(value - want) <= REL * max(1.0, abs(want))
    for p, ti, wi, got in zip(live, times, states, partials[:, :, 0]):
        want = np.array([fn(p, ti, wi) for fn in twin.partial_fns])
        assert (np.abs(got - want) <= REL * np.maximum(1.0, np.abs(want))).all()
    first = None
    for p, ti, wi in zip(points, times, states):
        try:
            [fn(p, ti, wi) for fn in twin.partial_fns]
        except DomainError as exc:
            first = str(exc)
            break
    if first is None:
        assert bound.partials(points).shape == points.shape
    else:
        with pytest.raises(DomainError) as got:
            bound.partials(points)
        assert str(got.value) == first


class TestPartialSlot:
    def test_fd_matches_analytic(self, quadlin_d):
        rng = np.random.default_rng(7)
        for _ in range(20):
            win = rng.uniform(-2, 4, size=3)
            for k in range(3):
                ana = tk.partial_slot(quadlin_d, k, win, 0, 0)
                fd = fd_partial_slot(quadlin_d, k, win, 0, 0)
                assert np.allclose(ana, fd, rtol=1e-6, atol=1e-6)

    def test_one_sided_fallback_near_boundary(self):
        # linear objective with a hard -inf wall 1e-7 away: the steps shrink
        # until the stencil fits, and it is exact
        obj = tk.DiscreteObjective(
            order=0,
            eval_fn=lambda p, t, w: float(p[0, 0]) if p[0, 0] >= 0.0 else NEG_INF)
        fd = fd_partial_slot(obj, 0, np.array([1e-7]), 0, 0)
        assert fd[0] == pytest.approx(1.0, rel=1e-9)

    def test_bad_slot_index(self, quadlin_d):
        with pytest.raises(InputError):
            tk.partial_slot(quadlin_d, 3, np.zeros(3), 0, 0)

    def test_nan_eval_rejected(self):
        obj = tk.DiscreteObjective(order=0, eval_fn=lambda p, t, w: float("nan"))
        with pytest.raises(NumericalError):
            obj.value(np.zeros(1), 0, 0)

    def test_pos_inf_rejected(self):
        obj = tk.DiscreteObjective(order=0, eval_fn=lambda p, t, w: float("inf"))
        with pytest.raises(NumericalError):
            obj.value(np.zeros(1), 0, 0)


class TestGradientCheck:
    def test_quadlin_passes(self, quadlin_d):
        rng = np.random.default_rng(11)
        points = [(rng.uniform(-2, 4, size=3), int(rng.integers(0, 5)),
                   int(rng.integers(0, 2))) for _ in range(30)]
        report = tk.gradient_check(quadlin_d, points)
        assert report.passed
        assert report.checked == 30

    def test_household_passes_on_interior(self, household):
        rng = np.random.default_rng(12)
        points = [(rng.uniform(1.0, 1.9, size=3), int(rng.integers(2, 8)), 0)
                  for _ in range(30)]
        report = tk.gradient_check(household, points)
        assert report.passed

    def test_corrupted_partial_fails(self, params):
        base = tk.quadlin_discrete(params)

        def corrupted(points, t, w):
            out = base.partials_batch(points, t, w)
            out[:, 1] += 0.1
            return out

        bad = dataclasses.replace(base, batch_partials_fn=corrupted)
        report = tk.gradient_check(bad, [(np.array([1.0, 1.0, 1.0]), 0, 0)])
        assert not report.passed
        assert report.max_rel_gap == pytest.approx(0.1, rel=1e-3)

    def test_all_boundary_inconclusive(self, household):
        points = [(np.array([0.1, 0.1, 5.0]), 2, 0)]
        report = tk.gradient_check(household, points)
        assert report.verdict == "INCONCLUSIVE"

    def test_needs_analytic(self):
        obj = tk.DiscreteObjective(order=0, eval_fn=lambda p, t, w: 0.0)
        with pytest.raises(InputError):
            tk.gradient_check(obj, [])

    def test_sample_shapes_checked(self, quadlin_d):
        # a 4-slot point for an order-2 objective, a 2-component one for a dim-1 objective
        for point in (np.ones(4), np.ones((3, 2))):
            with pytest.raises(InputError, match="sample of shape"):
                tk.gradient_check(quadlin_d, [(np.ones(3), 0, 0), (point, 1, 0)])


def _sample_point(draw, slots, dim, form):
    """A point in one of the forms a caller may pass: an array of shape
    (slots, dim), a vector of one component per slot, nested lists, or a
    shape stack_samples refuses."""
    values = st.floats(allow_nan=True, allow_infinity=True, width=64)
    shape = {"array": (slots, dim), "vector": (slots,), "lists": (slots, dim),
             "long": (slots + 1,), "wide": (slots, dim + 1), "deep": (slots, dim, 1),
             "scalar": ()}[form]
    point = np.array(draw(st.lists(values, min_size=math.prod(shape),
                                   max_size=math.prod(shape)))).reshape(shape)
    return point.tolist() if form == "lists" else point


@given(data=st.data())
@settings(max_examples=300, deadline=None, derandomize=True)
def test_stack_samples_equals_the_loop(data):
    """Samples of one shape convert in one call, mixed ones one by one: the
    same bytes as converting each sample, and the same InputError naming the
    first sample of a wrong shape, wherever it lies."""
    slots, dim = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 2))
    obj = tk.DiscreteObjective(order=slots - 1, batch_eval_fn=lambda p, t, w: p[:, 0, 0],
                               dim=dim, name=data.draw(st.sampled_from(["", "obj"])))
    good = ["array", "lists"] + ["vector"] * (dim == 1)
    forms = data.draw(st.lists(st.sampled_from(good), max_size=6))
    if data.draw(st.booleans()):  # one sample of a wrong shape, anywhere
        bad = ["long", "wide", "deep", "scalar"] + ["vector"] * (dim > 1)
        forms.insert(data.draw(st.integers(0, len(forms))), data.draw(st.sampled_from(bad)))
    samples = [(_sample_point(data.draw, slots, dim, form), data.draw(st.integers(0, 50)),
                data.draw(st.integers(0, 3))) for form in forms]

    def outcome(fn):
        try:
            return [(a.dtype, a.shape, a.tobytes()) for a in fn(obj, samples, slots)]
        except InputError as exc:
            return str(exc)

    assert outcome(tk.objectives.stack_samples) == outcome(reference.stack_samples)


# ---------------------------------------------------------------------------
# The five-point stencil

def _quartic(coef, e):
    """sum_k sum_d coef[k, d] y_k^d + e y0 y1^2 y2 over an order-2 window: a
    polynomial of degree <= 4 in every entry, with its exact partials."""
    def ev(p, t, w):
        y = p[:, :, 0]
        return (np.sum(coef[None] * y[:, :, None] ** np.arange(5), axis=(1, 2))
                + e * y[:, 0] * y[:, 1] ** 2 * y[:, 2])

    def partials(p, t, w):
        y = p[:, :, 0]
        out = np.sum(coef[None, :, 1:] * np.arange(1, 5) * y[:, :, None] ** np.arange(4),
                     axis=2)
        out += e * np.stack([y[:, 1] ** 2 * y[:, 2], 2.0 * y[:, 0] * y[:, 1] * y[:, 2],
                             y[:, 0] * y[:, 1] ** 2], axis=1)
        return out[:, :, None]

    return tk.DiscreteObjective(order=2, batch_eval_fn=ev, batch_partials_fn=partials)


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=100, deadline=None, derandomize=True)
def test_stencil_exact_on_quartics(seed):
    """The five-point stencil has no truncation error on a polynomial of
    degree <= 4: it matches the exact partials to rounding (about
    eps * |f| / h, below 1e-10 here)."""
    rng = np.random.default_rng(seed)
    obj = _quartic(rng.uniform(-1.0, 1.0, size=(3, 5)), rng.uniform(-1.0, 1.0))
    points = rng.uniform(-1.0, 1.0, size=(20, 3, 1)) * 10.0 ** rng.integers(-3, 1)
    t, w = np.zeros(20), np.zeros(20, dtype=int)
    fd, unresolved = fd_partials(obj, points, t, w)
    assert not unresolved.any()
    assert rel_gap(fd, obj.partials_batch(points, t, w)) <= 1e-9


@pytest.mark.parametrize("c", [1e-7, 1e-5, 1e-3])
@pytest.mark.parametrize("zero_head", [True, False])
def test_gradient_check_near_the_log_wall(c, zero_head):
    """The step shrinks until the stencil fits between the point and the wall
    c away: the relative gap stays far below the tolerance."""
    report = tk.gradient_check(tk.household_log(0.9, 2, zero_head),
                               [(np.array([1.0, 1.0, 2.0 - c]), 3, 0)])
    assert (report.verdict, report.skipped) == ("PASS", 0)
    assert report.max_rel_gap <= 1e-9


@pytest.mark.parametrize("c", [1e13, 1e14, 1e15, 1e16])
def test_no_step_below_the_rounding_of_the_values(c):
    """f = c + y0 + y1: where f(y -+ h) differ by a few units in the last
    place, or round to the same float, the differences agree on noise.  No
    step is accepted, so the oracle compares nothing and is inconclusive."""
    obj = tk.DiscreteObjective(order=1, batch_eval_fn=lambda p, t, w: c + p[:, 0, 0] + p[:, 1, 0],
                               batch_partials_fn=lambda p, t, w: np.ones((len(p), 2, 1)))
    _, unresolved = fd_partials(obj, np.ones((1, 2, 1)), np.zeros(1), np.zeros(1, dtype=int))
    assert unresolved.all()
    report = tk.gradient_check(obj, [(np.array([1.0, 1.0]), 0, 0)])
    assert (report.verdict, report.checked, report.skipped) == ("INCONCLUSIVE", 1, 2)
    # well above the rounding, the oracle compares and passes
    assert tk.gradient_check(dataclasses.replace(obj, batch_eval_fn=lambda p, t, w:
                                                 1e3 + p[:, 0, 0] + p[:, 1, 0]),
                             [(np.array([1.0, 1.0]), 0, 0)]).verdict == "PASS"


def test_builtin_formulas_reduce_along_no_axis():
    """The built-in formulas make no numpy reduction along an axis: summing a
    window's few slots as columns is 10-25x cheaper than reducing an axis of
    length 2 or 3, and their batches reach thousands of points per call."""
    builtins = {"_quadlin", "household_log", "_lagged_consumption"}
    tree = ast.parse(Path(tk.objectives.__file__).read_text())
    found, sites = set(), set()
    for top in tree.body:
        if getattr(top, "name", None) in builtins:
            found.add(top.name)
            for node in ast.walk(top):
                if isinstance(node, ast.Call) and any(kw.arg == "axis" for kw in node.keywords):
                    sites.add((top.name, ast.unparse(node.func)))
    assert found == builtins and sites == set()


def test_one_form_per_objective():
    f = lambda p, t, w: 0.0  # noqa: E731
    for kwargs in ({}, {"eval_fn": f, "batch_eval_fn": f},
                   {"eval_fn": f, "batch_partials_fn": f},
                   {"batch_eval_fn": f, "partial_fns": (f,)}):
        with pytest.raises(InputError, match="not both"):
            tk.DiscreteObjective(order=0, **kwargs)


# ---------------------------------------------------------------------------
# One formula per objective

REL = 1e-12  # the kernel tests' bound between numpy and per-point formulas
PARAMS = tk.QuadLinParams(alpha=(1.0, 2.0), beta=(0.5, 0.4), gamma=(0.25, 0.2))


def _near_wall(lo, hi):
    """Points whose last slot often puts y0 + y1 - y2 on, next to or past 0."""
    def draw(rng):
        y = rng.uniform(lo, hi, size=3)
        if rng.random() < 0.4:
            y[2] = y[0] + y[1] - rng.choice([-1e-9, 0.0, 1e-12, 1e-7, 1e-3])
        return y
    return draw


# name -> (builder(lib) of the objective, point sampler); lib is tvckit or the
# reference module, whose builders make the per-point twin
FORMULA_CASES = {
    "quadlin-discrete": (lambda lib: lib.quadlin_discrete(PARAMS),
                         lambda rng: rng.uniform(-2.0, 4.0, size=3)),
    "quadlin-continuous": (lambda lib: lib.quadlin_continuous(PARAMS),
                           lambda rng: rng.uniform(-2.0, 4.0, size=3)),
    "household": (lambda lib: lib.household_log(0.9, 2), _near_wall(0.3, 1.5)),
    "household-live": (lambda lib: lib.household_log(0.9, 2, zero_head=False),
                       _near_wall(0.3, 1.5)),
    # ln's wall, and EvalError where y0 < 0 (sqrt) or y0 = 0 (its partial)
    "dsl-discrete": (lambda lib: lib.dsl_discrete_objective(
        "a * ln(y0 + y1 - y2) + sqrt(y0) - b * y2 ^ 2 * t", 2,
        {"a": (1.0, 0.5), "b": 0.3}), _near_wall(-0.2, 1.5)),
    "dsl-continuous": (lambda lib: lib.dsl_continuous_objective(
        "(x0 - a)^2 + b * x1 + x2 ^ 2 / 2 + ln(x0)", 2, {"a": (1.0, 2.0), "b": (0.5, 0.4)}),
        lambda rng: rng.uniform(-0.5, 2.0, size=3)),
}


def _outcome(fn):
    try:
        return "ok", np.asarray(fn(), dtype=float)
    except tk.ToolkitError as exc:
        return "raised", type(exc)


def _bits(outcome):
    return outcome if outcome[0] == "raised" else ("ok", outcome[1].tobytes())


@given(case=st.sampled_from(sorted(FORMULA_CASES)), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=200, deadline=None, derandomize=True)
def test_value_and_partial_slot_are_the_batch_at_one_point(case, seed):
    """value and partial_slot equal values_batch and partials_batch at one
    point bit for bit, -inf and exception types included; both stay within
    1e-12 of the per-point formulas in tests/reference.py."""
    build, draw = FORMULA_CASES[case]
    obj, twin = build(tk), build(reference)
    rng = np.random.default_rng(seed)
    point, w = draw(rng), int(rng.integers(0, 2))
    t = int(rng.integers(0, 10)) if isinstance(obj, tk.DiscreteObjective) else rng.uniform(0, 5)
    batch = (point[None, :, None], [t], [w])
    pairs = [(_outcome(lambda: obj.value(point, t, w)),
              _outcome(lambda: obj.values_batch(*batch)[0]),
              _outcome(lambda: twin.value(point, t, w)))]
    for k in range(obj.order + 1):
        pairs.append((_outcome(lambda: tk.partial_slot(obj, k, point, t, w)),
                      _outcome(lambda: obj.partials_batch(*batch)[0, k]),
                      _outcome(lambda: tk.partial_slot(twin, k, point, t, w))))
    for one, many, per_point in pairs:
        assert _bits(one) == _bits(many)
        assert one[0] == per_point[0], (one, per_point)
        if one[0] == "raised":
            assert one[1] is per_point[1]
            continue
        got, want = one[1], per_point[1]
        with np.errstate(invalid="ignore"):  # -inf - -inf
            assert ((got == want) | (np.abs(got - want) <= REL * np.maximum(1.0, np.abs(want)))).all()


def _per_call(obj):
    """obj with its batch functions wrapped, so that bind falls back to
    closures that call them, and each call binds its own table."""
    def wrap(fn):
        return lambda points, t, w: fn(points, t, w)
    return dataclasses.replace(obj, batch_eval_fn=wrap(obj.batch_eval_fn),
                               batch_partials_fn=wrap(obj.batch_partials_fn))


def _described(fn):
    """("ok", bytes) of fn's array, or ("raised", type, message)."""
    try:
        return "ok", np.asarray(fn()).tobytes()
    except tk.ToolkitError as exc:
        return "raised", type(exc), str(exc)


# (name -> (builder, point range, state count the table may name)); the
# "dsl-short" constants have no value for state 2
BIND_CASES = {
    "quadlin-discrete": (lambda: tk.quadlin_discrete(PARAMS), (-2.0, 4.0), 2),
    "quadlin-continuous": (lambda: tk.quadlin_continuous(PARAMS), (-2.0, 4.0), 2),
    "household": (lambda: tk.household_log(0.9, 2), (0.2, 1.5), 2),
    "household-live-n3": (lambda: tk.household_log(0.8, 3, zero_head=False), (0.2, 1.5), 2),
    "household-walled-n1": (lambda: tk.household_log(0.95, 1, zero_head=False), (0.0, 1.0), 2),
    "dsl-discrete": (lambda: tk.dsl_discrete_objective(
        "a * ln(y0 + y1 - y2) + sqrt(y0) - b * y2 ^ 2 * t", 2, {"a": (1.0, 0.5), "b": 0.3}),
        (-0.2, 1.5), 2),
    "dsl-continuous": (lambda: tk.dsl_continuous_objective(
        "(x0 - a)^2 + b * x1 + x2 ^ 2 / 2 + ln(x0) * exp(0 - t)", 2,
        {"a": (1.0, 2.0), "b": (0.5, 0.4)}), (-0.5, 2.0), 2),
    "dsl-short": (lambda: tk.dsl_discrete_objective("c * y0 + y1", 1, {"c": (1.0, 2.0)}),
                  (-1.0, 1.0), 3),
}


@given(case=st.sampled_from(sorted(BIND_CASES)), seed=st.integers(0, 2**32 - 1),
       size=st.integers(0, 12), whole=st.booleans())
@settings(max_examples=200, deadline=None, derandomize=True)
def test_bound_objective_is_the_batch_per_call(case, seed, size, whole):
    """One bind(t, w) evaluated on three point sets gives, call by call, the
    bits of the same objective binding afresh at every call (its batch
    functions wrapped), and the same errors with the same messages: -inf
    walls, zero_head's pinned rows, whole or non-integer times, EvalError,
    DomainError and a constant with no value for a state."""
    build, (lo, hi), states = BIND_CASES[case]
    obj = build()
    fresh = _per_call(obj)
    rng = np.random.default_rng(seed)
    t = (rng.integers(0, 8, size=size) if whole else rng.uniform(0.0, 8.0, size=size))
    w = rng.integers(0, states, size=size)
    sets = [rng.uniform(lo, hi, size=(size, obj.order + 1, 1)) for _ in range(3)]
    try:
        bound = obj.bind(t, w)
    except tk.ToolkitError as exc:
        bound, failed = None, ("raised", type(exc), str(exc))
    for points in sets:
        for name in ("values", "partials"):
            want = _described(lambda: getattr(fresh, f"{name}_batch")(points, t, w))
            got = failed if bound is None else _described(lambda: getattr(bound, name)(points))
            assert got == want, (name, got, want)
