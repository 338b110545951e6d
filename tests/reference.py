"""Per-point reference implementations of the batched formulas and engines.

These are the loop forms the library used before every objective held one
batched formula and every engine was a reduction over batched calls:

- the per-point formulas of the built-in models and the DSL interpreter,
  which build objectives from per-point callables (eval_fn, partial_fns);
- one partial_slot or value call per (window or time, state, slot), one
  residual call per Jacobian column and one value call per (grid
  combination, window);
- the per-point finite differences and the sample-by-sample gradient and
  correspondence oracles;
- the Newton solver that runs one state after another, with one residual
  call per Jacobian and per line-search trial;
- the continuous engines with their own composed np.gradient chains and
  quadratures: the residual's per-term sum and the bracket's triple loop;
- the A(T', eps) grid on both domains with one perturbed path per eps and
  one loop per T', walls and cell status included, and its iterated limits
  with one least-squares fit per eps column and one extrapolation per T'
  row;
- the report text the CLI wrote through json.dumps, one value at a time.

The kernel, objective, solver and CLI tests hold the library to them.
"""

import itertools
import json
import math
import sys

import numpy as np

import tvckit as tk
from tvckit.diagnostics import (DIVERGES, DOMINATION_N_EPS, STATUS_DIVERGING,
                                STATUS_DOMAIN_ERROR, STATUS_FINITE, DominationEntry,
                                DominationReport, IteratedLimits)
from tvckit.errors import (DomainError, EvalError, HorizonError, InputError,
                           NumericalError, UnsupportedError)
from tvckit.euler import max_window_start
from tvckit.expr import Call, Const, Neg, Var, parse_source, symbolic_partial
from tvckit.objectives import (FD_AGREEMENT, FD_STEPS, GRADIENT_REL_TOL,
                               GradientCheckReport, _as_point)
from tvckit.kernel import (PointLayout, bind_at, euler_rows, slot_major, values_at,
                           window_stack)
from tvckit.solvers import JAC_FD_STEP, BruteForceResult, CorrespondenceReport, NewtonReport

NEG_INF = float("-inf")


# ---------------------------------------------------------------------------
# Per-point formulas: the built-in models and the DSL interpreter

def _quadlin(params, cls, name):
    a, b, g = params.alpha, params.beta, params.gamma

    def ev(point, t, w):
        return (point[0, 0] - a[w]) ** 2 + b[w] * point[1, 0] + g[w] * point[2, 0]

    partials = (
        lambda point, t, w: 2.0 * (point[0, 0] - a[w]),
        lambda point, t, w: b[w],
        lambda point, t, w: g[w],
    )
    return cls(order=2, eval_fn=ev, partial_fns=partials, name=name)


def quadlin_continuous(params):
    return _quadlin(params, tk.ContinuousObjective, "quadlin-continuous")


def quadlin_discrete(params):
    return _quadlin(params, tk.DiscreteObjective, "quadlin-discrete")


def household_log(discount, n, zero_head=True):
    def consumption(win):
        return float(np.sum(win[:n, 0]) - win[n, 0])

    def ev(win, t, w):
        if zero_head and t <= n - 1:
            return 0.0
        c = consumption(win)
        if c <= 0.0:
            return NEG_INF
        return discount**t * math.log(c)

    def make_partial(k):
        sign = 1.0 if k < n else -1.0

        def p(win, t, w):
            if zero_head and t <= n - 1:
                return 0.0
            c = consumption(win)
            if c <= 0.0:
                raise DomainError(f"consumption {c} <= 0 at t={t}, state {w}")
            return discount**t * sign / c

        return p

    return tk.DiscreteObjective(order=n, eval_fn=ev,
                                partial_fns=tuple(make_partial(k) for k in range(n + 1)),
                                name="household-log" if zero_head else "household-log-live-head")


def eval_ast(node, env):
    """Interpret an AST in IEEE doubles with Python's math: ln(x <= 0) -> -inf,
    exp(-inf) -> 0; division by zero, NaN, complex powers and overflow raise
    EvalError."""
    out = _eval(node, env)
    if math.isnan(out):
        raise EvalError("expression evaluated to NaN")
    return out


def _eval(node, env):
    if isinstance(node, Const):
        return node.value
    if isinstance(node, Var):
        try:
            return float(env[node.name])
        except KeyError:
            raise EvalError(f"unbound symbol {node.name!r}") from None
    if isinstance(node, Neg):
        return -_eval(node.child, env)
    if isinstance(node, Call):
        arg = _eval(node.arg, env)
        if node.fn == "ln":
            return math.log(arg) if arg > 0.0 else NEG_INF
        if node.fn == "exp":
            if arg == NEG_INF:
                return 0.0
            try:
                return math.exp(arg)
            except OverflowError:
                raise EvalError(f"exp({arg}) overflows") from None
        if node.fn == "abs":
            return abs(arg)
        if node.fn == "sqrt":
            if arg < 0.0:
                raise EvalError(f"sqrt of negative value {arg}")
            return math.sqrt(arg)
        raise EvalError(f"unknown function {node.fn!r}")
    left = _eval(node.left, env)
    right = _eval(node.right, env)
    if node.op == "+":
        return left + right
    if node.op == "-":
        return left - right
    if node.op == "*":
        return left * right
    if node.op == "/":
        if right == 0.0:
            raise EvalError("division by zero")
        return left / right
    if node.op == "^":
        try:
            out = left**right
        except (OverflowError, ZeroDivisionError) as exc:
            raise EvalError(f"power failed: {exc}") from None
        if isinstance(out, complex):
            raise EvalError(f"{left} ^ {right} has no real value")
        return out
    raise EvalError(f"unknown operator {node.op!r}")


def _dsl(source, order, constants, cls, prefix):
    """A DSL objective evaluated per point by the interpreter."""
    slots = [f"{prefix}{k}" for k in range(order + 1)]
    constants = constants or {}
    ast = parse_source(source, set(slots) | {"t"} | set(constants))

    def env_for(point, t, w):
        env = {s: float(point[k, 0]) for k, s in enumerate(slots)}
        env["t"] = float(t)
        for cname, cval in constants.items():
            env[cname] = float(cval if np.ndim(cval) == 0 else cval[w])
        return env

    def interpret(node):
        return lambda point, t, w: eval_ast(node, env_for(point, t, w))

    return cls(order=order, eval_fn=interpret(ast),
               partial_fns=tuple(interpret(symbolic_partial(ast, s)) for s in slots),
               name=f"dsl:{source}")


def dsl_discrete_objective(source, order, constants=None):
    return _dsl(source, order, constants, tk.DiscreteObjective, "y")


def dsl_continuous_objective(source, order, constants=None):
    return _dsl(source, order, constants, tk.ContinuousObjective, "x")


# ---------------------------------------------------------------------------
# Per-point finite differences and the sample-by-sample oracles

def fd_partial_slot(obj, k, point, t, w):
    """Five-point difference of obj.value in each component of slot k at the
    first step h = FD_STEPS * 2^floor(log2 max(1, |y|)) whose four points are
    finite, whose value is within FD_AGREEMENT of the central one, and where
    the values' rounding eps * max |f| / h is within the same margin."""
    point = _as_point(point)
    if obj.value(point, t, w) == NEG_INF:
        raise DomainError(f"objective is -inf at the evaluation point (t={t}, state {w})")
    out = np.empty(obj.dim)
    for i in range(obj.dim):
        for step in FD_STEPS:
            h = math.ldexp(step, math.frexp(max(1.0, abs(point[k, i])))[1] - 1)
            fm2, fm1, fp1, fp2 = (_shifted_value(obj, point, t, w, k, i, c * h)
                                  for c in (-2.0, -1.0, 1.0, 2.0))
            five = (fm2 - 8.0 * fm1 + 8.0 * fp1 - fp2) / (12.0 * h)
            margin = FD_AGREEMENT * max(1.0, abs(five))
            rounding = sys.float_info.epsilon * max(abs(fm2), abs(fm1), abs(fp1), abs(fp2)) / h
            if (math.isfinite(five) and abs(five - (fp1 - fm1) / (2.0 * h)) <= margin
                    and rounding <= margin):
                out[i] = five
                break
        else:
            raise DomainError(f"no finite-difference step resolves slot {k} (t={t}, state {w})")
    return out


def _shifted_value(obj, point, t, w, k, i, delta):
    shifted = point.copy()
    shifted[k, i] += delta
    return obj.value(shifted, t, w)


def _rel_gap(approx, reference):
    return np.max(np.abs(approx - reference) / np.maximum(1.0, np.abs(reference)))


def partial_slot(obj, k, point, t, w):
    """The analytic partial at one point, or fd_partial_slot without one."""
    if obj.has_analytic_partials:
        return tk.partial_slot(obj, k, point, t, w)
    return fd_partial_slot(obj, k, point, t, w)


def stack_samples(obj, samples, slots):
    """Sample by sample: each point as an array, the first of a wrong shape named."""
    samples = list(samples)
    points = [_as_point(p) for p, _, _ in samples]
    for p in points:
        if p.shape != (slots, obj.dim):
            raise InputError(f"sample of shape {p.shape}, objective "
                             f"{obj.name or '<anonymous>'} needs ({slots}, {obj.dim})")
    return (np.array(points, dtype=float).reshape(len(points), slots, obj.dim),
            np.array([t for _, t, _ in samples]), np.array([w for _, _, w in samples], dtype=int))


def gradient_check(obj, points):
    """One value call per sample, then per slot one analytic and one FD partial."""
    if not obj.has_analytic_partials:
        raise InputError("gradient_check needs analytic partials to compare against")
    gaps = [0.0]
    checked = skipped = 0
    for point, t, w in points:
        point = _as_point(point)
        if obj.value(point, t, w) == NEG_INF:
            skipped += 1
            continue
        checked += 1
        for k in range(obj.order + 1):
            ana = tk.partial_slot(obj, k, point, t, w)
            try:
                gaps.append(_rel_gap(fd_partial_slot(obj, k, point, t, w), ana))
            except DomainError:
                skipped += 1
    if len(gaps) == 1:  # no slot compared
        return GradientCheckReport(math.nan, checked, skipped, "INCONCLUSIVE", GRADIENT_REL_TOL)
    worst = float(np.max(gaps))
    verdict = "PASS" if worst <= GRADIENT_REL_TOL else "FAIL"
    return GradientCheckReport(worst, checked, skipped, verdict, GRADIENT_REL_TOL)


def correspondence_check(pair, segments):
    """Sample by sample: values, partials and finite differences one point at a
    time; a DomainError anywhere skips the sample."""
    V, v = pair.discrete, pair.continuous
    tolerance = 1e-8 if V.has_analytic_partials else 1e-6
    gaps_a, gaps_b = [0.0], [0.0]
    checked = skipped = 0
    for seg, t, w in segments:
        seg = _as_point(seg)
        if seg.shape[0] != 5:
            raise InputError("each sample segment needs 5 consecutive values")
        windows = [seg[o : o + 3] for o in range(3)]
        jets = [np.stack([s[0], s[1] - s[0], s[2] - 2.0 * s[1] + s[0]]) for s in windows]
        try:
            if any(V.value(win, t + o, w) == NEG_INF for o, win in enumerate(windows)):
                raise DomainError("-inf on a window")
            if any(v.value(jet, t + o, w) == NEG_INF for o, jet in enumerate(jets)):
                raise DomainError("-inf at a jet")
            combos = [sum(partial_slot(V, k, windows[0], t, w) for k in (0, 1, 2)),
                      (partial_slot(V, 1, windows[0], t, w)
                       + 2.0 * partial_slot(V, 2, windows[0], t, w)),
                      partial_slot(V, 2, windows[0], t, w)]
            gap_a = np.max([_rel_gap(fd_partial_slot(v, k, jets[0], t, w), combos[k])
                            for k in range(3)])
            lhs = sum(partial_slot(V, 2 - o, windows[o], t + o, w) for o in range(3))
            v1 = partial_slot(v, 0, jets[2], t + 2, w)
            v2 = [partial_slot(v, 1, jets[o], t + o, w) for o in (1, 2)]
            v3 = [partial_slot(v, 2, jets[o], t + o, w) for o in (0, 1, 2)]
            rhs = v1 + (v2[0] - v2[1]) + (v3[0] - 2.0 * v3[1] + v3[2])
        except DomainError:
            skipped += 1
            continue
        gaps_a.append(gap_a)
        gaps_b.append(_rel_gap(rhs, lhs))
        checked += 1
    if checked == 0:
        return CorrespondenceReport(math.nan, math.nan, 0, skipped, tolerance, "INCONCLUSIVE")
    worst_a, worst_b = float(np.max(gaps_a)), float(np.max(gaps_b))
    verdict = "PASS" if max(worst_a, worst_b) <= tolerance else "FAIL"
    return CorrespondenceReport(worst_a, worst_b, checked, skipped, tolerance, verdict)


# ---------------------------------------------------------------------------
# Per-point engines


def discrete_euler_residual(obj, path, t, j_max=None):
    n = obj.order
    last = max_window_start(path, n)
    if j_max is None:
        j_max = last
    j_max = min(j_max, last)
    j_lo = max(0, t - n)
    j_hi = min(t, j_max)
    if j_hi < j_lo:
        raise HorizonError(f"no window touches index t={t} within the grid")
    m = path.space.m
    out = np.zeros((m, path.dim))
    for j in range(j_lo, j_hi + 1):
        win = path.window(j, n)
        for w in range(m):
            out[w] += tk.partial_slot(obj, t - j, win[:, w, :], j, w)
    return out


def discrete_tvc_tail(obj, path, q, tprime):
    n = obj.order
    if tprime < n - 1:
        raise HorizonError(f"T'={tprime} below the first admissible truncation {n - 1}")
    if tprime + n > path.domain.t_max or tprime + n > q.domain.t_max:
        raise HorizonError(f"T'={tprime} needs values through index {tprime + n}")
    space = path.space
    total = np.zeros(space.m)
    for k in range(1, n + 1):
        coef = np.zeros((space.m, path.dim))
        for j in range(max(0, tprime - n + k), tprime + 1):
            win = path.window(j, n)
            for w in range(space.m):
                coef[w] += tk.partial_slot(obj, tprime + k - j, win[:, w, :], j, w)
        total += np.sum(coef * q.values[tprime + k], axis=1)
    return float(tk.expectation(space, total))


def truncated_objective(obj, path, tprime):
    space = path.space
    total = 0.0
    for t in range(tprime + 1):
        win = path.window(t, obj.order)
        vals = np.array([obj.value(win[:, w, :], t, w) for w in range(space.m)])
        if np.isneginf(vals).any():
            raise DomainError(f"objective is -inf inside the truncated sum at t={t}")
        total += tk.expectation(space, vals)
    return total


def jet_paths(path, n):
    jets = [path.values]
    current = path
    for _ in range(n):
        current = tk.time_derivative(current, 1)
        jets.append(current.values)
    return jets


def partial_series(obj, k, jets, times, m, dim):
    series = np.empty((len(times), m, dim))
    jet = np.empty((obj.order + 1, dim))
    for it, t in enumerate(times):
        for w in range(m):
            for order in range(obj.order + 1):
                jet[order] = jets[order][it, w]
            series[it, w] = tk.partial_slot(obj, k, jet, t, w)
    return series


def sampled_values(obj, jets, times, m, dim):
    out = np.empty((len(times), m))
    jet = np.empty((obj.order + 1, dim))
    for it, t in enumerate(times):
        for w in range(m):
            for order in range(obj.order + 1):
                jet[order] = jets[order][it, w]
            out[it, w] = obj.value(jet, t, w)
    return out


def _gradient(series, h, k):
    for _ in range(k):
        series = np.gradient(series, h, axis=0, edge_order=2)
    return series


def layout_evaluation(obj, series, index, h, name):
    """values (rows, K*m) or partials (rows, n+1, K*m, dim), by name, of a
    kernel.PointLayout on a table of grid rows index (rows, K), one point at
    a time in (row, column, state) order: the windows at the rows of its one
    column when h is None, else the jets on each column's rows, each column
    differentiated alone by np.gradient chains.  A series that is not
    finite, or whose jets in the table are not, raises as a path does."""
    n, (m, dim), (rows, columns) = obj.order, series.shape[1:], index.shape
    if h is None:
        _finite(series)
        first = index[0, 0]
        points = np.stack([series[first + k : first + k + rows] for k in range(n + 1)])[:, :, None]
        times = index
    else:
        with np.errstate(over="ignore", invalid="ignore"):
            points = np.stack([_gradient(series[index], h, k) for k in range(n + 1)])
        _finite(points)
        times = index * h
    # points: (slot, row, column, state, dim)
    out = np.empty((rows, columns * m) if name == "values" else (rows, n + 1, columns * m, dim))
    for r in range(rows):
        for c in range(columns):
            for w in range(m):
                point, t = points[:, r, c, w], times[r, c]
                if name == "values":
                    out[r, c * m + w] = obj.value(point, t, w)
                else:
                    out[r, :, c * m + w] = obj.partials_batch(point[None], [t], [w])[0]
    return out


def _finite(values):
    if not np.isfinite(values).all():
        raise InputError("path values must all be finite")


def jet_partials(obj, path):
    """P along the path's jets, time-major; shape (num_points, n+1, m, dim)."""
    return PointLayout.jets(obj, path).partials(path.values)


def continuous_euler_residual_series(obj, path):
    """v_1 - (v_2)' + ... + (-1)^n (v_{n+1})^(n), one term at a time."""
    P = jet_partials(obj, path)
    out = np.zeros(P[:, 0].shape)
    for k in range(obj.order + 1):
        out += (-1) ** k * _gradient(P[:, k], path.domain.h, k)
    return out


def boundary_bracket_series(obj, path, p):
    """The bracket re-differentiating each slot inside its j/step loops."""
    n, h = obj.order, path.domain.h
    vseries = jet_partials(obj, path)
    pder = [np.array(_gradient(p.values, h, j)) for j in range(n)]
    for j in range(min(p.vanishing_head, n)):
        pder[j][0] = 0.0
    bracket = np.zeros(path.values.shape)
    for j in range(n):
        coef = np.zeros_like(bracket)
        for step in range(n - j):
            coef += (-1) ** step * _gradient(vseries[:, j + 1 + step], h, step)
        bracket += pder[j] * coef
    return np.atleast_1d(tk.expectation(path.space, np.sum(bracket, axis=2).T))


def a_grid(obj, path, curve, eps_grid, tprime_grid):
    """A(T', eps) values and per-cell status on either domain: one perturbed
    path and one window or jet stack per eps, each cell summed one T' at a
    time.  A time at which the base or the perturbed value is -inf in any
    state adds 0 and walls every cell from it on; a wall outranks a
    non-finite value."""
    discrete = path.domain.kind == "discrete"
    idx = [int(tp) if discrete else path.domain.index_of(tp) for tp in tprime_grid]
    last, h, states = max(idx), path.domain.h, np.arange(path.space.m)

    def per_time(p):
        if discrete:
            return values_at(obj, window_stack(p.values, obj.order, 0, last),
                             np.arange(last + 1), states)
        jets = np.stack(jet_paths(p, obj.order), axis=2)
        return values_at(obj, jets, p.domain.times(), states)[: last + 1]

    base = per_time(path)
    values = np.zeros((len(idx), len(eps_grid)))
    status = np.full(values.shape, STATUS_FINITE, dtype=object)
    for ie, eps in enumerate(eps_grid):
        shifted = per_time(tk.perturb(path, curve, eps))
        walled = (np.isneginf(base) | np.isneginf(shifted)).any(axis=1)
        with np.errstate(invalid="ignore"):  # -inf - -inf at walled times
            diff = np.where(walled[:, None], 0.0, shifted - base)
        e = tk.expectation(path.space, diff.T)
        for it, i in enumerate(idx):
            total = 0.0
            for t in range(i + 1) if discrete else range(1, i + 1):
                total += e[t] if discrete else (e[t] + e[t - 1]) * 0.5 * h
            values[it, ie] = total / eps
            status[it, ie] = (STATUS_DOMAIN_ERROR if walled[: i + 1].any() else
                              STATUS_FINITE if np.isfinite(values[it, ie]) else
                              STATUS_DIVERGING)
    if (status == STATUS_DOMAIN_ERROR).all():
        raise NumericalError("every diagnostic cell hit the -inf domain boundary")
    return values, status


def a_grid_continuous(obj, path, curve, eps_grid, tprime_grid):
    """The values of a_grid on a continuous domain."""
    return a_grid(obj, path, curve, eps_grid, tprime_grid)[0]


def _linear_fit(x, y):
    """OLS slope, intercept and slope standard error."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    xbar = x.mean()
    sxx = float(np.sum((x - xbar) ** 2))
    slope = float(np.sum((x - xbar) * (y - y.mean())) / sxx)
    intercept = float(y.mean() - slope * xbar)
    resid = y - (intercept + slope * x)
    dof = max(len(x) - 2, 1)
    stderr = math.sqrt(float(np.sum(resid**2)) / dof / sxx)
    return slope, intercept, stderr


def growth_slope(tprimes, col):
    """Fitted linear growth slope of one column in T' and its divergence flag."""
    slope, _, stderr = _linear_fit(tprimes, col)
    span = float(tprimes[-1] - tprimes[0])
    tol = 1e-12 * max(1.0, float(np.max(np.abs(col)))) / max(1.0, span)
    return slope, stderr, slope > 10.0 * stderr + tol


def _richardson_eps(eps_asc, vals_asc):
    e1, e2, e3 = eps_asc[:3]
    v1, v2, v3 = vals_asc[:3]
    extrap = v1 - e1 * (v2 - v1) / (e2 - e1)
    alt = v2 - e2 * (v3 - v2) / (e3 - e2)
    return float(extrap), float(abs(extrap - alt))


def iterated_limits(matrix):
    """One fit per eps column, then one extrapolation per T' row and a fit
    of the extrapolated row."""
    tprimes = np.asarray(matrix.tprime_grid, dtype=float)
    eps_desc = np.asarray(matrix.eps_grid)
    per_eps_limits, per_eps_slopes = [], []
    for ie in range(len(eps_desc)):
        col = matrix.values[:, ie]
        slope, _, diverges = growth_slope(tprimes, col)
        per_eps_slopes.append(slope)
        per_eps_limits.append(DIVERGES if diverges else float(col[-1]))
    eps_asc = eps_desc[::-1]
    if any(v == DIVERGES for v in per_eps_limits):
        eps_then_T, e1_err = DIVERGES, math.inf
    else:
        eps_then_T, e1_err = _richardson_eps(eps_asc,
                                             np.asarray(per_eps_limits, dtype=float)[::-1])
    per_tprime, row_errs = [], []
    for it in range(len(tprimes)):
        extrap, err = _richardson_eps(eps_asc, matrix.values[it, ::-1])
        per_tprime.append(extrap)
        row_errs.append(err)
    _, _, diverges = growth_slope(tprimes, np.asarray(per_tprime))
    if diverges:
        T_then_eps, e2_err = DIVERGES, math.inf
    else:
        T_then_eps, e2_err = float(per_tprime[-1]), float(max(row_errs))
    return IteratedLimits(eps_then_T=eps_then_T, T_then_eps=T_then_eps,
                          eps_then_T_error=e1_err, T_then_eps_error=e2_err,
                          per_eps_limits=tuple(per_eps_limits),
                          per_eps_slopes=tuple(per_eps_slopes),
                          per_tprime_limits=tuple(per_tprime))


def domination_check(obj, path, curve, eps_bar, sample_times):
    """One whole-path perturbation and one value call per (time, state, eps);
    a (time, state) stops at its first -inf."""
    if eps_bar <= 0.0:
        raise InputError("eps_bar must be positive")
    if isinstance(obj, tk.ContinuousObjective):
        raise UnsupportedError("domination_check covers discrete objectives; "
                               "sample the induced jets for continuous models")
    eps_grid = tuple(eps_bar * 10.0 ** (-k) for k in range(DOMINATION_N_EPS))
    n = obj.order
    entries = []
    any_growth = False
    for t in sample_times:
        t = int(t)
        win_b = path.window(t, n)
        for w in range(path.space.m):
            base_val = obj.value(win_b[:, w, :], t, w)
            quotients = []
            flagged = base_val == -np.inf
            for eps in eps_grid:
                if flagged:
                    break
                shifted = tk.perturb(path, curve, eps)
                val = obj.value(shifted.window(t, n)[:, w, :], t, w)
                if val == -np.inf:
                    flagged = True
                    break
                quotients.append(abs(val - base_val) / eps)
            if flagged or not quotients:
                entries.append(DominationEntry(t, w, None, None, True, False))
                continue
            quotients = np.asarray(quotients)
            sup = float(quotients.max())
            eps_at = float(eps_grid[int(quotients.argmax())])
            growth = (len(quotients) >= 3
                      and bool(np.all(np.diff(quotients[-3:]) > 0))
                      and quotients[-1] > 2.0 * quotients[0])
            any_growth = any_growth or growth
            entries.append(DominationEntry(t, w, sup, eps_at, False, growth))
    verdict = "growth detected" if any_growth else "bounded on tested grid"
    return DominationReport(tuple(entries), eps_grid, verdict)


def fd_jacobian(residual, u):
    """Central-difference Jacobian of residual at u, one column per unknown."""
    jac = np.empty((u.size, u.size))
    for col in range(u.size):
        h = JAC_FD_STEP * max(1.0, abs(u[col]))
        up, um = u.copy(), u.copy()
        up[col] += h
        um[col] -= h
        jac[:, col] = (residual(up) - residual(um)) / (2.0 * h)
    return jac


def partials_at(obj, stack, t_axis, states):
    """Slot-partials at every point of a stack as P[j, k, w, :]; shape (J, n+1, m, dim)."""
    points, bound = bind_at(obj, stack, t_axis, states)
    return slot_major(bound.partials(points), stack.shape)


def trial_residuals(obj, values_w, U, t_lo, n, w):
    """Rows t_lo..T of one state's stationarity system at K trial vectors;
    DomainError if any of them leaves the domain.

    values_w is the state's (T+n+1, dim) trajectory and U (K, N) holds K
    trial values of its entries t_lo..T, flattened; shape (K, N).  The K
    trajectories stack along the state axis: one values_at call checks the
    windows a trial can change, one partials_at call gives every row.
    """
    count = len(U)
    T = len(values_w) - 1 - n
    j_lo = max(0, t_lo - n)
    traj = np.repeat(values_w[:, None, :], count, axis=1)
    traj[t_lo : T + 1] = U.reshape(count, T + 1 - t_lo, -1).transpose(1, 0, 2)
    stack = window_stack(traj, n, j_lo, T)
    times, states = np.arange(j_lo, T + 1), np.full(count, w)
    if np.isneginf(values_at(obj, stack, times, states)).any():
        raise DomainError("trial point left the objective's domain")
    rows = euler_rows(partials_at(obj, stack, times, states))[t_lo - j_lo : T - j_lo + 1]
    return rows.transpose(1, 0, 2).reshape(count, -1)


def grouped_fd_jacobian(residuals, u, n, dim):
    """Central-difference Jacobian of the stationarity rows at u.

    Row time r depends only on times r-n..r+n, so columns whose times lie
    2n+1 apart share no row (Curtis-Powell-Reid grouping).  Each group's
    columns are perturbed together, and all 2(2n+1)dim perturbed vectors go
    through one residuals call.  Every entry in the band is the one a
    column-by-column difference gives; entries off the band are 0.0.
    """
    size = u.size
    groups = min(size, (2 * n + 1) * dim)
    cols = np.arange(size)
    h = JAC_FD_STEP * np.maximum(1.0, np.abs(u))
    member = cols % groups == np.arange(groups)[:, None]
    res = residuals(np.concatenate([np.where(member, u + h, u), np.where(member, u - h, u)]))
    # rows at times within n of each column's time, every component
    offsets = (np.arange(-n, n + 1)[:, None] * dim + np.arange(dim)).ravel()
    rows = (cols - cols % dim) + offsets[:, None]
    inside = (rows >= 0) & (rows < size)
    r, c = rows[inside], np.broadcast_to(cols, rows.shape)[inside]
    g = c % groups
    jac = np.zeros((size, size))
    jac[r, c] = (res[g, r] - res[groups + g, r]) / (2.0 * h[c])
    return jac


def classify_curvature(jac):
    """The curvature of one Jacobian: the eigenvalues of its symmetric part
    all <= 1e-10 * scale, all >= -1e-10 * scale, or neither."""
    eig = np.linalg.eigvalsh(0.5 * (jac + jac.T))
    scale = max(1.0, float(np.abs(eig).max()))
    if (eig <= 1e-10 * scale).all():
        return "concave"
    if (eig >= -1e-10 * scale).all():
        return "convex"
    return "indefinite"


def newton_euler_solve(obj, spec):
    """Damped Newton one state after another: per iteration one grouped
    Jacobian (one residual call) and one residual call per line-search trial.
    The first failing state raises; a Jacobian is built only when needed."""
    n = obj.order
    T = spec.horizon
    guess = spec.guess
    t_total = guess.domain.t_max
    if guess.domain.kind != "discrete" or t_total != T + n:
        raise InputError(f"guess must live on the discrete grid 0..{T + n}")
    k = spec.head_len
    t_lo = spec.boundary.first_index()
    dim = guess.dim
    m = guess.space.m
    out = np.array(guess.values)
    if spec.mode == "fixed":
        if spec.head is not None:
            out[:k] = spec.head
        out[T + 1 :] = spec.tail

    iterations = []
    curvature = []
    worst = 0.0
    converged = True
    for w in range(m):
        values_w = out[:, w, :].copy()
        guess_vals = values_at(obj, window_stack(values_w[:, None, :], n, 0, T),
                               np.arange(T + 1), [w])
        if np.isneginf(guess_vals).any():
            raise DomainError(f"guess violates domain validity in state {w}")

        def residuals(U):
            return trial_residuals(obj, values_w, U, t_lo, n, w)

        u = values_w[t_lo : T + 1].ravel()
        res = residuals(u[None])[0]
        norm = float(np.abs(res).max())
        it = 0
        jac = None
        while norm > spec.tolerance:
            if it >= spec.max_iterations:
                converged = False
                break
            jac = grouped_fd_jacobian(residuals, u, n, dim)
            try:
                step = np.linalg.solve(jac, -res)
            except np.linalg.LinAlgError as exc:
                raise NumericalError(f"singular Jacobian in state {w}: {exc}") from exc
            lam = 1.0
            while True:
                if lam < 1e-12:
                    raise NumericalError(f"no valid Newton step found in state {w}")
                try:
                    trial = u + lam * step
                    trial_res = residuals(trial[None])[0]
                except DomainError:
                    lam *= 0.5
                    continue
                trial_norm = float(np.abs(trial_res).max())
                if trial_norm < norm or trial_norm <= spec.tolerance:
                    u, res, norm = trial, trial_res, trial_norm
                    break
                lam *= 0.5
            it += 1
        out[t_lo : T + 1, w, :] = u.reshape(-1, dim)
        iterations.append(it)
        worst = max(worst, norm)
        if jac is None:  # already stationary at the guess
            jac = grouped_fd_jacobian(residuals, u, n, dim)
        curvature.append(classify_curvature(jac))

    path = tk.StochasticPath(guess.domain, guess.space, out)
    report = NewtonReport(converged=converged, iterations=tuple(iterations),
                          max_abs_residual=worst, tolerance=spec.tolerance,
                          curvature=tuple(curvature), mode=spec.mode)
    return path, report


def brute_force_solve(obj, base, free_indices, grids):
    """One value call per (grid combination, touched window, state), in
    itertools.product order; a combination stops at its first -inf and the
    first strict maximum wins."""
    free_indices = [int(t) for t in free_indices]
    if base.dim != 1:
        raise UnsupportedError("brute_force_solve handles scalar states only")
    grids = [np.asarray(g, dtype=float) for g in grids]
    n = obj.order
    last = max_window_start(base, n)
    touched = sorted({j for t in free_indices
                     for j in range(max(0, t - n), min(t, last) + 1)})
    fixed = [j for j in range(last + 1) if j not in touched]

    out = np.array(base.values)
    per_state = []
    for w in range(base.space.m):
        values_w = out[:, w, 0].copy()
        base_part = sum(obj.value(values_w[j : j + n + 1], j, w) for j in fixed)
        best_val, best_combo = -np.inf, None
        for combo in itertools.product(*grids):
            for t, v in zip(free_indices, combo):
                values_w[t] = v
            val = base_part
            for j in touched:
                val += obj.value(values_w[j : j + n + 1], j, w)
                if val == -np.inf:
                    break
            if val > best_val:
                best_val, best_combo = val, combo
        if best_combo is None:
            raise NumericalError(f"every grid point is infeasible in state {w}")
        for t, v in zip(free_indices, best_combo):
            values_w[t] = v
        out[:, w, 0] = values_w
        per_state.append(best_val)
    path = tk.StochasticPath(base.domain, base.space, out)
    resolution = max(float(np.max(np.abs(np.diff(g)))) if len(g) > 1 else 0.0
                     for g in grids)
    return BruteForceResult(path=path, value=tk.objective_value(obj, path),
                            per_state_values=tuple(per_state),
                            grid_resolution=resolution)


# ---------------------------------------------------------------------------
# Report text through the json module

def _jsonify(value):
    if isinstance(value, dict):
        return {str(k): _jsonify(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonify(v) for v in value]
    if isinstance(value, np.ndarray):
        return _jsonify(value.tolist())
    if isinstance(value, (np.floating, float)):
        value = float(value)
        if value != value:
            return "nan"
        if value == float("inf"):
            return "inf"
        if value == float("-inf"):
            return "-inf"
        return value
    if isinstance(value, (np.integer,)):
        return int(value)
    return value


def reference_report_text(report) -> str:
    """The text the CLI writes for a report: 2-space indent, sorted keys."""
    return json.dumps(_jsonify(report), sort_keys=True, indent=2) + "\n"
