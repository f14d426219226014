"""Factor-graph solver: linear oracles, trilateration, windowing, Jacobians."""

import itertools
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from ccfg.errors import DuplicateId, NonFiniteResidual, UnknownVariable
from ccfg.graph import Factor, FactorGraph, jacobian_check


def linear_factor(var_ids, blocks, rhs, sigma, kind="linear"):
    """Residual sum_i A_i x_i - b with constant Jacobians."""
    blocks = [np.atleast_2d(np.asarray(b, float)) for b in blocks]
    rhs = np.atleast_1d(np.asarray(rhs, float))

    def res(*vals):
        out = -rhs.copy()
        for A, x in zip(blocks, vals):
            out = out + A @ x
        return out

    def jac(*vals):
        return [A.copy() for A in blocks]

    return Factor(var_ids, res, jac, sigma, kind=kind)


def range_factor(var_id, anchor, dist, sigma):
    anchor = np.asarray(anchor, float)

    def res(p):
        return np.array([np.hypot(*(p - anchor)) - dist])

    def jac(p):
        d = np.hypot(*(p - anchor))
        return [np.array([[(p[0] - anchor[0]) / d, (p[1] - anchor[1]) / d]])]

    return Factor((var_id,), res, jac, sigma, kind="range")


def test_add_variable_and_duplicate():
    g = FactorGraph()
    g.add_variable("x", 0.0)
    assert g.get("x").shape == (1,)
    g.add_variable("pose", [1.0, 2.0, 0.3])
    np.testing.assert_allclose(g.get("pose"), [1, 2, 0.3])
    with pytest.raises(DuplicateId):
        g.add_variable("x", 1.0)


def test_add_factor_unknown_variable():
    g = FactorGraph()
    g.add_variable("x", 0.0)
    with pytest.raises(UnknownVariable):
        g.add_factor(linear_factor(("y",), [np.eye(1)], [0.0], 1.0))


def test_get_unknown_variable_names_the_id():
    g = FactorGraph()
    for t in range(3):
        g.add_variable(f"x{t}", 0.0, time_index=t)
    g.add_factor(linear_factor(("x1", "x2"), [np.eye(1), -np.eye(1)], [0.0],
                               1.0))
    g.slide_window(2)   # fixes x0, which no factor reads
    assert list(g.variables) == ["x1", "x2"]
    for vid in ("x0", "never"):
        with pytest.raises(UnknownVariable, match=repr(vid)):
            g.get(vid)


@pytest.mark.parametrize("sigma", [0.0, -1.0, np.nan, np.inf])
def test_factor_rejects_sigma_not_positive_and_finite(sigma):
    # nan would surface only at solve() as non-finite residuals, and inf
    # would drop the factor from the cost without a word
    with pytest.raises(ValueError, match="sigma"):
        linear_factor(("x",), [np.eye(2)], [0.0, 0.0], [1.0, sigma])


def test_nonfinite_initial_residual_raises():
    g = FactorGraph()
    g.add_variable("x", 0.0)
    g.add_factor(linear_factor(("x",), [np.eye(1)], [3.0], 1.0))
    g.add_factor(Factor(("x",), lambda x: [np.nan], lambda x: [np.eye(1)],
                        1.0, kind="nan"))
    with pytest.raises(NonFiniteResidual):
        g.solve()


def test_two_priors_average():
    # Normal equations by hand: minimizing (x-3)^2 + (x-5)^2 gives x = 4.
    g = FactorGraph()
    g.add_variable("x", 0.0)
    g.add_factor(linear_factor(("x",), [np.eye(1)], [3.0], 1.0))
    g.add_factor(linear_factor(("x",), [np.eye(1)], [5.0], 1.0))
    report = g.solve()
    assert report.converged
    assert g.get("x")[0] == pytest.approx(4.0, abs=1e-10)


def test_prior_only_keeps_value():
    g = FactorGraph()
    g.add_variable("x", 7.0)
    g.add_factor(linear_factor(("x",), [np.eye(1)], [7.0], 0.1))
    g.solve()
    assert g.get("x")[0] == pytest.approx(7.0, abs=1e-12)


def _random_linear_graph(rng, n_vars=4, n_factors=9, sigma_scale=1.0,
                         prior_sigma=1e3):
    g = FactorGraph()
    dims = rng.integers(1, 4, size=n_vars)
    for i, d in enumerate(dims):
        g.add_variable(f"v{i}", rng.normal(size=d))
    specs = []
    for k in range(n_factors):
        picks = sorted(set(rng.integers(0, n_vars,
                                        size=rng.integers(1, 3)).tolist()))
        rows = int(rng.integers(1, 4))
        blocks = [rng.normal(size=(rows, dims[i])) for i in picks]
        rhs = rng.normal(size=rows)
        sigma = sigma_scale * rng.uniform(0.1, 2.0, size=rows)
        specs.append((picks, blocks, rhs, sigma))
        g.add_factor(linear_factor(tuple(f"v{i}" for i in picks),
                                   blocks, rhs, sigma))
    # Prior on every variable so the system has a unique minimizer; by
    # default a weak one.
    for i, d in enumerate(dims):
        sigma = np.full(d, sigma_scale * prior_sigma)
        specs.append(([i], [np.eye(d)], np.zeros(d), sigma))
        g.add_factor(linear_factor((f"v{i}",), [np.eye(d)], np.zeros(d),
                                   sigma, kind="prior"))
    return g, dims, specs


def _weighted_system(dims, specs):
    """The linear system's rows divided by sigma, as one dense A and b."""
    offs = np.concatenate([[0], np.cumsum(dims)])
    n = offs[-1]
    A_rows, b_rows = [], []
    for picks, blocks, rhs, sigma in specs:
        rows = len(rhs)
        A = np.zeros((rows, n))
        for i, block in zip(picks, blocks):
            A[:, offs[i]:offs[i] + dims[i]] = block
        A_rows.append(A / sigma[:, None])
        b_rows.append(rhs / sigma)
    return np.vstack(A_rows), np.concatenate(b_rows), offs


def dense_lsq_oracle(dims, specs):
    """Independent weighted least-squares solve of the same linear system."""
    A, b, offs = _weighted_system(dims, specs)
    return np.linalg.lstsq(A, b, rcond=None)[0], offs


def test_linear_graph_matches_dense_oracle():
    # The last input has well over 200 columns, the size of an estimator
    # window and more.
    sizes = [{}] * 6 + [dict(n_vars=120, n_factors=300)]
    for seed, size in enumerate(sizes):
        rng = np.random.default_rng(seed)
        g, dims, specs = _random_linear_graph(rng, **size)
        report = g.solve()
        assert report.converged
        assert report.final_cost <= report.initial_cost + 1e-12
        x_star, offs = dense_lsq_oracle(dims, specs)
        for i, d in enumerate(dims):
            np.testing.assert_allclose(g.get(f"v{i}"), x_star[offs[i]:offs[i] + d],
                                       atol=1e-10)


def test_linear_graph_converges_in_one_iteration():
    rng = np.random.default_rng(3)
    g, _, _ = _random_linear_graph(rng, n_vars=2, n_factors=4)
    report = g.solve()
    assert report.iterations <= 2


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), log_scale=st.floats(-4, 2),
       prior_sigma=st.sampled_from([10.0, 1e3]))
def test_linear_graph_at_any_sigma_scale_matches_dense_oracle(
        seed, log_scale, prior_sigma):
    # Sigmas from 1e-4 to 1e2 scale g, sqrt(H_jj) and ||r|| alike, so a
    # scale-relative gradient test stops at the same point at every scale.
    # The tolerance is 1e-10, or the forward error of solving through JᵀJ,
    # eps * cond(J)**2 * |x|, where that is larger: the weak prior leaves
    # directions set by a 1e3 sigma, and no stopping test can beat that
    # bound, since the gradient there is already at rounding level.
    rng = np.random.default_rng(seed)
    g, dims, specs = _random_linear_graph(rng, sigma_scale=10.0 ** log_scale,
                                          prior_sigma=prior_sigma)
    report = g.solve()
    assert report.converged
    x_star, offs = dense_lsq_oracle(dims, specs)
    A, _, _ = _weighted_system(dims, specs)
    tol = max(1e-10, 8 * np.finfo(float).eps * np.linalg.cond(A) ** 2
              * max(1.0, float(np.abs(x_star).max())))
    for i, d in enumerate(dims):
        np.testing.assert_allclose(g.get(f"v{i}"), x_star[offs[i]:offs[i] + d],
                                   rtol=0, atol=tol)


def test_trilateration():
    truth = np.array([1.3, -0.7])
    anchors = [np.array([0.0, 0.0]), np.array([3.0, 0.0]), np.array([0.0, 2.0])]
    g = FactorGraph()
    g.add_variable("p", [0.0, 0.1])
    for k, a in enumerate(anchors):
        g.add_factor(range_factor("p", a, float(np.hypot(*(truth - a))), 1e-3))
    report = g.solve()
    assert report.converged
    np.testing.assert_allclose(g.get("p"), truth, atol=1e-8)


def test_trilateration_from_random_starts():
    # Noise-free ranges: the residual vanishes at the truth, so the gradient
    # test must not stop a solve anywhere short of it.
    truth = np.array([1.3, -0.7])
    anchors = [np.array(a) for a in ([0.0, 0.0], [3.0, 0.0], [0.0, 2.0],
                                     [2.5, -2.5])]
    rng = np.random.default_rng(11)
    for _ in range(200):
        g = FactorGraph()
        g.add_variable("p", truth + rng.uniform(-2.0, 2.0, size=2))
        for a in anchors:
            g.add_factor(range_factor("p", a, float(np.hypot(*(truth - a))),
                                      1e-3))
        report = g.solve()
        assert report.converged
        np.testing.assert_allclose(g.get("p"), truth, rtol=0, atol=1e-8)


def test_sigma_scaling_leaves_minimizer_unchanged():
    for seed in range(4):
        rng = np.random.default_rng(100 + seed)
        g1, dims, specs = _random_linear_graph(rng)
        g1.solve()
        g2 = FactorGraph()
        for i, d in enumerate(dims):
            g2.add_variable(f"v{i}", np.zeros(d))
        for picks, blocks, rhs, sigma in specs:
            g2.add_factor(linear_factor(tuple(f"v{i}" for i in picks),
                                        blocks, rhs, sigma * 37.5))
        g2.solve()
        for i in range(len(dims)):
            np.testing.assert_allclose(g1.get(f"v{i}"), g2.get(f"v{i}"),
                                       atol=1e-8)


def test_slide_window_fixes_old_frames_keeps_static():
    g = FactorGraph()
    g.add_variable("bias", 0.0)
    for t in range(200):
        g.add_variable(f"x{t}", float(t), time_index=t)
        g.add_factor(linear_factor((f"x{t}", "bias"), [np.eye(1), np.eye(1)],
                                   [float(t)], 1.0, kind="obs"))
    g.slide_window(50)
    active = g.active_time_indices()
    assert len(active) == 50
    assert active[0] == 150 and active[-1] == 199
    assert not g.variables["bias"].fixed


def test_slide_window_no_new_factors_no_drift():
    g = FactorGraph()
    g.add_variable("bias", 0.5)
    rng = np.random.default_rng(7)
    for t in range(60):
        g.add_variable(f"x{t}", 0.0, time_index=t)
        g.add_factor(linear_factor((f"x{t}", "bias"), [np.eye(1), np.eye(1)],
                                   [rng.normal()], 0.5, kind="obs"))
        g.add_factor(linear_factor((f"x{t}",), [np.eye(1)],
                                   [rng.normal()], 1.0, kind="prior"))
    g.solve()
    before = {vid: g.get(vid) for vid in g.variables if not g.variables[vid].fixed}
    g.slide_window(20)
    g.solve()
    for vid, old in before.items():
        if not g.variables[vid].fixed:
            np.testing.assert_allclose(g.get(vid), old, atol=1e-6)


def _chain_step(g, t, odo, vision, rng):
    """Add pose x{t} at x{t-1} + odo with its odometry factor, and a vision
    factor on every fourth pose."""
    if t == 0:
        g.add_variable("x0", vision, time_index=0)
    else:
        g.add_variable(f"x{t}", g.get(f"x{t - 1}") + odo, time_index=t)
        g.add_factor(linear_factor((f"x{t - 1}", f"x{t}"),
                                   [-np.eye(3), np.eye(3)], odo,
                                   [0.01, 0.01, 0.005], kind="odometry"))
    if t % 4 == 0:
        g.add_factor(linear_factor((f"x{t}",), [np.eye(3)],
                                   vision + rng.normal(scale=0.02, size=3),
                                   [0.02, 0.02, 0.05], kind="vision"))


def _slide_keeping_every_variable(g, horizon):
    """slide_window without deleting variables: the reference for it."""
    newest = max(v.time_index for v in g.variables.values()
                 if v.time_index is not None)
    for v in g.variables.values():
        if v.time_index is not None and v.time_index <= newest - horizon:
            v.fixed = True
    g.factors = [f for f in g.factors
                 if any(not g.variables[vid].fixed for vid in f.var_ids)]


def _full_scan_slide(g, horizon):
    """What slide_window leaves, found by scanning every variable and
    factor: the kept factors in order, and each kept variable's id and
    fixed flag in order."""
    newest = max(v.time_index for v in g.variables.values()
                 if v.time_index is not None)
    fixed = {vid: v.fixed or (v.time_index is not None
                              and v.time_index <= newest - horizon)
             for vid, v in g.variables.items()}
    factors = [f for f in g.factors
               if not all(fixed[vid] for vid in f.var_ids)]
    read = {vid for f in factors for vid in f.var_ids}
    return factors, [(vid, fx) for vid, fx in fixed.items()
                     if not fx or vid in read]


def _slide_as_full_scan(g, horizon):
    """g.slide_window(horizon), checked against _full_scan_slide."""
    factors, variables = _full_scan_slide(g, horizon)
    g.slide_window(horizon)
    assert len(g.factors) == len(factors)
    assert all(a is b for a, b in zip(g.factors, factors))
    assert [(vid, v.fixed) for vid, v in g.variables.items()] == variables


def test_slide_window_deletes_fixed_variables_no_factor_reads():
    horizon = 50
    rng = np.random.default_rng(4)
    g, ref = FactorGraph(), FactorGraph()
    pose = np.zeros(3)
    for t in range(2000):
        odo = rng.normal(scale=0.01, size=3)
        pose = pose + odo
        odo_meas = odo + rng.normal(scale=0.01, size=3)
        for graph in (g, ref):
            _chain_step(graph, t, odo_meas, pose, np.random.default_rng(t))
        _slide_as_full_scan(g, horizon)
        _slide_keeping_every_variable(ref, horizon)
        # the window, plus the pose its oldest odometry factor still reads
        assert len(g.variables) <= horizon + 1
        # kept evaluations go with their factors
        assert g._evaluations.keys() <= set(g.factors)
        assert len(g._evaluations) <= len(g.factors)
        if t % 20 == 19:
            g.solve()
            ref.solve()
            assert len(g._evaluations) <= len(g.factors)
            assert g.active_time_indices() == ref.active_time_indices()
            window = [f"x{j}" for j in ref.active_time_indices()]
            np.testing.assert_allclose([g.get(v) for v in window],
                                       [ref.get(v) for v in window],
                                       rtol=0, atol=1e-12)
    oldest = g.active_time_indices()[0]
    assert g.variables[f"x{oldest - 1}"].fixed
    assert f"x{oldest - 2}" not in g.variables
    assert len(ref.variables) == 2000


def test_window_at_its_minimum_costs_one_assembly():
    # A solved odometry and vision window gains a pose placed by odometry,
    # whose factor then has a zero residual: the window is still at its
    # minimum and the solve must stop before any trial step. Every older
    # factor reads the values the last solve ended at, so only the new
    # factor is evaluated.
    residuals, jacobians, keys = Counter(), Counter(), itertools.count()
    made = []

    def counted(factor):
        key = next(keys)
        made.append(key)

        def res(*values):
            residuals[key] += 1
            return factor.residual_fn(*values)

        def jac(*values):
            jacobians[key] += 1
            return factor.jacobian_fn(*values)

        return Factor(factor.var_ids, res, jac, factor.sigma, kind=factor.kind)

    g = FactorGraph()
    add_factor = g.add_factor
    g.add_factor = lambda f: add_factor(counted(f))
    rng = np.random.default_rng(2)
    pose = np.zeros(3)
    for t in range(41):
        odo = rng.normal(scale=0.01, size=3)
        pose = pose + odo
        _chain_step(g, t, odo + rng.normal(scale=0.01, size=3), pose, rng)
        g.slide_window(10)
        g.solve()
    old = len(made)
    _chain_step(g, 41, rng.normal(scale=0.01, size=3), pose, rng)  # no vision
    g.slide_window(10)
    before = {vid: v.value.tobytes() for vid, v in g.variables.items()}
    residuals.clear()
    jacobians.clear()
    report = g.solve()

    assert len(g.factors) > 10
    assert made[old:] == [made[-1]]     # the odometry factor of pose 41
    assert residuals == {made[-1]: 1}
    assert jacobians == {made[-1]: 1}
    assert report.iterations == 1
    assert {vid: v.value.tobytes() for vid, v in g.variables.items()} == before
    assert report.converged and report.stopped_by == "gradient"


def test_jacobian_check_linear_and_trig():
    f = linear_factor(("x",), [np.array([[2.0, -1.0]])], [0.3], 1.0)
    assert jacobian_check(f, [np.array([0.4, 1.2])]) < 1e-10

    def res(x):
        return np.array([np.sin(x[0]) * x[1], np.cos(x[0]) + x[1] ** 2])

    def jac(x):
        return [np.array([[np.cos(x[0]) * x[1], np.sin(x[0])],
                          [-np.sin(x[0]), 2 * x[1]]])]

    trig = Factor(("x",), res, jac, 1.0, kind="trig")
    assert jacobian_check(trig, [np.array([0.7, -0.3])], h=1e-6) < 1e-5


def test_jacobian_check_flags_wrong_jacobian():
    def res(x):
        return np.array([x[0] ** 2])

    def jac(x):
        return [np.array([[1.0]])]  # wrong on purpose

    bad = Factor(("x",), res, jac, 1.0)
    assert jacobian_check(bad, [np.array([1.5])]) > 0.1


def test_nonlinear_cost_monotone():
    g = FactorGraph()
    g.add_variable("p", [4.0, 4.0])
    for a in ([0, 0], [2, 0], [0, 3], [1, 2]):
        g.add_factor(range_factor("p", np.array(a, float), 1.0, 0.1))
    report = g.solve()
    assert report.final_cost <= report.initial_cost


def test_solve_evaluates_each_factor_once_per_point():
    # Rosenbrock's valley plus a coupling factor: the undamped Gauss-Newton
    # step overshoots and is rejected at least once on the way down.
    residual_points, jacobian_points = [], []

    def rosenbrock(p):
        residual_points.append(("rosenbrock", p.tobytes()))
        return np.array([10.0 * (p[1] - p[0] ** 2), 1.0 - p[0]])

    def rosenbrock_jac(p):
        jacobian_points.append("rosenbrock")
        return [np.array([[-20.0 * p[0], 10.0], [-1.0, 0.0]])]

    def coupling(p, q):
        residual_points.append(("coupling", p.tobytes() + q.tobytes()))
        return np.array([np.sin(p[0] - q[0]), p[1] * q[0] - 0.5])

    def coupling_jac(p, q):
        jacobian_points.append("coupling")
        return [np.array([[np.cos(p[0] - q[0]), 0.0], [0.0, q[0]]]),
                np.array([[-np.cos(p[0] - q[0])], [p[1]]])]

    g = FactorGraph()
    g.add_variable("p", [-1.2, 1.0])
    g.add_variable("q", [2.0])
    g.add_factor(Factor(("p",), rosenbrock, rosenbrock_jac, [0.1, 1.0],
                        kind="rosenbrock"))
    g.add_factor(Factor(("p", "q"), coupling, coupling_jac, 0.5,
                        kind="coupling"))
    report = g.solve()

    # Recorded from the solver that re-evaluated every residual for the row
    # count, the cost, the assembly and the factor norms.
    assert report.iterations == 11
    assert report.converged
    assert g.get("p").tolist() == [-0.3314290651970529, 0.11005860114616604]
    assert g.get("q").tolist() == [2.8309085005545245]
    assert report.final_cost == 1.9169095533327853

    assert len(set(residual_points)) == len(residual_points)
    for kind in ("rosenbrock", "coupling"):
        assert jacobian_points.count(kind) == report.iterations
        # the initial point plus one point per trial step; more trials
        # than iterations means some undamped step was rejected
        points = sum(1 for k, _ in residual_points if k == kind)
        assert points > report.iterations + 1


def _graph_history(kind, draws):
    """A window built and solved the way an estimator grows one: each frame
    adds a pose and its factors, and some frames slide and some solve. A
    caller may also replace a variable's value array, flip the bias
    variable's fixed flag (a slide may then delete it, and the next frame
    adds it again) or bind the factors to a new list, and the horizon
    shrinks at frame draws["shrink_at"]. Every slide is checked against a
    full scan."""
    rng = np.random.default_rng(draws["seed"])
    horizon = draws["horizon"]
    anchors = [np.array([0.0, 0.0]), np.array([3.0, 0.5]),
               np.array([0.5, 2.5])]
    g = FactorGraph()
    g.add_variable("bias", rng.normal(size=2))
    truth = np.zeros(2)
    for t, (slide, solve, replace, flip, rebind) in enumerate(draws["frames"]):
        step = rng.normal(scale=0.3, size=2)
        truth = truth + step
        if "bias" not in g.variables:   # fixed and read by no kept factor
            g.add_variable("bias", rng.normal(size=2))
        if t == 0:
            g.add_variable("p0", truth + rng.normal(scale=0.5, size=2), 0)
        else:
            g.add_variable(f"p{t}", g.get(f"p{t - 1}") + step, t)
            g.add_factor(linear_factor(
                (f"p{t - 1}", f"p{t}", "bias"),
                [-np.eye(2), np.eye(2), np.eye(2)],
                step + rng.normal(scale=0.05, size=2), [0.05, 0.08],
                kind="odometry"))
        if kind == "range":
            for a in anchors[:int(rng.integers(1, 4))]:
                g.add_factor(range_factor(
                    f"p{t}", a,
                    float(np.hypot(*(truth - a))) + rng.normal(scale=0.02),
                    0.02))
        else:
            g.add_factor(linear_factor(
                (f"p{t}",), [rng.normal(size=(2, 2))],
                rng.normal(size=2), 0.1, kind="vision"))
        g.add_factor(linear_factor(("bias",), [np.eye(2)], np.zeros(2),
                                   10.0, kind="prior"))
        if replace:
            v = list(g.variables.values())[
                int(rng.integers(len(g.variables)))]
            v.value = v.value + rng.normal(scale=0.1, size=v.dim)
        if flip:
            g.variables["bias"].fixed = not g.variables["bias"].fixed
        if rebind:
            _slide_keeping_every_variable(g, horizon)
        if t == draws["shrink_at"]:
            horizon = max(2, horizon - draws["shrink_by"])
        if slide:
            _slide_as_full_scan(g, horizon)
        if solve:
            yield g


def _solve_as_fresh(g):
    """g.solve(), checked against a fresh graph holding the same values
    and factors, which has no kept state to reuse: the same report and
    values, and the same r and J (C-contiguous, zeros off the blocks)."""
    fresh = _rebuilt(g)
    assert g.solve() == fresh.solve()
    assert {vid: v.value.tobytes() for vid, v in g.variables.items()} \
        == {vid: v.value.tobytes() for vid, v in fresh.variables.items()}
    assert g._J.flags.c_contiguous
    assert g._J.shape == fresh._J.shape
    assert g._J.tobytes() == fresh._J.tobytes()
    assert g._r.tobytes() == fresh._r.tobytes()


def _rebuilt(g):
    """A fresh graph holding g's variables, fixed flags and factors."""
    fresh = FactorGraph()
    for vid, v in g.variables.items():
        fresh.add_variable(vid, v.value, v.time_index).fixed = v.fixed
    for f in g.factors:
        fresh.add_factor(f)
    return fresh


@settings(max_examples=40, deadline=None)
@given(kind=st.sampled_from(["linear", "range"]),
       draws=st.fixed_dictionaries({
           "seed": st.integers(0, 2**32 - 1),
           "horizon": st.integers(2, 6),
           "shrink_at": st.integers(0, 24),
           "shrink_by": st.integers(1, 4),
           "frames": st.lists(st.tuples(*[st.booleans()] * 5),
                              min_size=1, max_size=25)}))
# the bias is fixed at one solve and free at the next, after every column
# the first solve had was fixed: the bias prior's rows must come back
@example(kind="linear", draws={
    "seed": 0, "horizon": 2, "shrink_at": 0, "shrink_by": 1,
    "frames": [(False, False, False, False, False)] * 3
    + [(False, False, False, True, False)] * 4
    + [(False, True, False, True, False), (False, False, False, True, False),
       (True, True, False, False, False)]})
# the bias is fixed at one slide, free at the next and fixed again at the
# third: the priors added while it was free must go
@example(kind="linear", draws={
    "seed": 0, "horizon": 2, "shrink_at": 0, "shrink_by": 1,
    "frames": [(False, False, False, False, False),
               (False, False, False, True, False),
               (True, False, False, False, False),
               (True, False, False, True, False),
               (True, False, False, True, False)]})
def test_kept_evaluations_solve_as_a_fresh_graph(kind, draws):
    # whatever the history of adds, slides, solves and caller edits
    for g in _graph_history(kind, draws):
        _solve_as_fresh(g)
        assert len(g._evaluations) <= len(g.factors)


def test_window_laid_out_afresh_solves_as_a_fresh_graph():
    # changes that r and J cannot follow by dropping leading blocks and
    # appending new ones: a column fixed in the middle, a value array of
    # another length, a residual of another length (also within a solve)
    # and an id deleted and added again after newer ones
    def short(x):
        return x if x[0] < 5.0 else x[:2]

    def short_jac(x):
        return [np.eye(x.size)[:short(x).size]]

    g = FactorGraph()
    g.add_variable("b", [0.5])
    g.add_variable("a", [1.0, 2.0])
    g.add_variable("s", [1.0, 2.0, 3.0])
    g.add_factor(Factor(("a", "b"), lambda a, b: np.array([a.sum() - b[0]]),
                        lambda a, b: [np.ones((1, a.size)), -np.ones((1, 1))],
                        0.1, kind="sum"))
    g.add_factor(Factor(("s",), short, short_jac, 0.5, kind="short"))
    g.add_factor(linear_factor(("b",), [np.eye(1)], [2.0], 1.0))
    for t in range(3):
        g.add_variable(f"x{t}", [float(t)], t)
        g.add_factor(linear_factor((f"x{t}", "b"), [np.eye(1), -np.eye(1)],
                                   [0.1], 0.2))
    _solve_as_fresh(g)
    g.slide_window(2)       # fixes x0, whose link to b stays
    _solve_as_fresh(g)
    g.variables["a"].value = np.array([1.0, 2.0, 3.0])
    _solve_as_fresh(g)
    g.variables["s"].value = np.array([9.0, 2.0, 3.0])
    _solve_as_fresh(g)

    h = FactorGraph()
    h.add_variable("y", [0.0], 0)
    h.add_factor(linear_factor(("y",), [np.eye(1)], [1.0], 1.0))
    _solve_as_fresh(h)
    h.add_variable("z", [0.0], 2)
    h.slide_window(2)       # fixes y, which no kept factor reads
    h.add_variable("n", [0.0])
    h.add_variable("y", [3.0])
    for vid in ("z", "n", "y"):
        h.add_factor(linear_factor((vid,), [np.eye(1)], [1.0], 1.0))
    _solve_as_fresh(h)


def _broken(blocks=(np.eye(2),), sigma=1.0):
    """A graph of one factor on x with a (2,) residual, the given Jacobian
    blocks and sigma."""
    g = FactorGraph()
    g.add_variable("x", [1.0, 2.0])
    g.add_factor(Factor(("x",), lambda x: x - 1.0, lambda x: blocks, sigma,
                        kind="broken"))
    return g


@pytest.mark.parametrize("graph, message", [
    (_broken(sigma=[1.0, 1.0, 1.0]), "sigma length 3 != residual length 2"),
    (_broken(blocks=[np.eye(2), np.eye(2)]), "returned 2 jacobian blocks"),
    (_broken(blocks=[np.eye(3)]), "jacobian block \\(3, 3\\)"),
])
def test_malformed_factor_raises_on_every_solve(graph, message):
    # nothing of a factor whose evaluation raised is kept for the next solve
    for _ in range(3):
        with pytest.raises(ValueError, match=message):
            graph.solve()
    assert graph.get("x").tolist() == [1.0, 2.0]


def test_factor_reading_one_variable_twice_sums_its_blocks():
    def res(a, b, c):
        return np.array([a[0] * b[1] - c[0], a[1] + b[0] ** 2 - 1.0])

    def jac(a, b, c):
        return [np.array([[b[1], 0.0], [0.0, 1.0]]),
                np.array([[0.0, a[0]], [2.0 * b[0], 0.0]]),
                np.array([[-1.0], [0.0]])]

    def once(x, c):
        return res(x, x, c)

    def once_jac(x, c):
        a, b, c_block = jac(x, x, c)
        return [a + b, c_block]

    windows, iterations = [], []
    for factor in (Factor(("x", "x", "y"), res, jac, [0.1, 0.2]),
                   Factor(("x", "y"), once, once_jac, [0.1, 0.2])):
        g = FactorGraph()
        g.add_variable("x", [0.3, 1.7])
        g.add_variable("y", [0.4])
        g.add_factor(factor)
        g.add_factor(linear_factor(("y",), [np.eye(1)], [0.5], 0.3))
        g.add_factor(linear_factor(("x",), [np.eye(2)], [0.2, 0.9], 1.0))
        report = g.solve()
        assert report.converged
        windows.append(g.get("x").tolist() + g.get("y").tolist())
        iterations.append(report.iterations)
    # recorded from the solver that added each block into J in place
    assert windows[0] == [0.48236083547914976, 0.7941266333452695,
                          0.3947500204629934]
    assert iterations[0] == 20
    np.testing.assert_allclose(windows[1], windows[0], rtol=0, atol=1e-12)
