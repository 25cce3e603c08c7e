import re
from itertools import islice

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from decon import algorithms, problem
from decon.algorithms import (
    VARIANTS,
    AlgoState,
    fixed_point,
    iterate,
    operators,
    step,
    stepsize_bounds,
)
from decon.graph import line, random_connected
from decon.linalg import SymMatrix
from decon.mixing import metropolis, relax, validate

from oracles import bare_problem, step_reference, trajectory

# Every update `step` can run: the algorithms of VARIANTS and their two
# reformulated forms.
STEPPERS = tuple(algorithms._UPDATES)


def _identical_quadratics(n=6, p=3, minimizer=None):
    """Agents sharing one quadratic with a common minimizer (zero noise)."""
    if minimizer is None:
        minimizer = np.zeros(p)
    sensing = np.tile(np.sqrt(10.0) * np.eye(p), (n, 1, 1))
    measurements = np.einsum("imp,p->im", sensing, minimizer)
    return problem.from_data(sensing, measurements)


def _pair(seed=2, n=10):
    g = random_connected(n, 0.5, seed)
    w = metropolis(g)
    wt = SymMatrix((np.eye(n) + w.a) / 2.0, name="wt")
    return g, validate(w, wt, g)


def test_dgd_consensual_zero_gradient_is_fixed():
    prob = _identical_quadratics(minimizer=np.array([1.0, -2.0, 0.5]))
    _, mp = _pair(n=6)
    _, nxt = islice(iterate("dgd", prob.Xstar, 0.05, mp.w, mp.wt, prob.grad), 2)
    assert np.abs(nxt.x - prob.Xstar).max() <= 1e-12


def test_dgd_identity_mixing_is_parallel_gradient_descent():
    prob = _identical_quadratics(n=4)
    rng = np.random.default_rng(0)
    x = rng.standard_normal((4, 3))
    _, nxt = islice(iterate("dgd", x, 0.03, np.eye(4), np.eye(4), prob.grad), 2)
    assert np.abs(nxt.x - (x - 0.03 * prob.grad(x))).max() <= 1e-14


def test_dgd_one_step_matches_straight_line_arithmetic(prob1, rand10):
    _, mp = rand10
    rng = np.random.default_rng(1)
    x = rng.standard_normal((10, 5))
    _, nxt = islice(iterate("dgd", x, 0.07, mp.w, mp.wt, prob1.grad), 2)
    assert np.abs(nxt.x - (mp.w.a @ x - 0.07 * prob1.grad(x))).max() <= 1e-14


def test_states_are_immutable():
    state = AlgoState(np.zeros((2, 2)))
    with pytest.raises(AttributeError):
        state.x = np.ones((2, 2))


def test_two_step_forms_stationary_at_consensual_optimum():
    v = np.array([0.3, -1.2, 2.0])
    prob = _identical_quadratics(minimizer=v)
    _, mp = _pair(n=6)
    x0 = prob.Xstar
    for variant in ("extra", "nids"):
        xs, _ = trajectory(variant, x0, 0.05, mp.w, mp.wt, prob.grad, 10)
        assert np.abs(xs - x0[None]).max() <= 1e-11


def test_extra_zero_stepsize_is_pure_mixing(rand10):
    _, mp = rand10
    rng = np.random.default_rng(2)
    x0 = rng.standard_normal((10, 5))
    grad = lambda x: np.zeros_like(x)
    _, s1, s2 = islice(iterate("extra", x0, 1e-300, mp.w, mp.wt, grad), 3)
    assert np.abs(s1.x - mp.w.a @ x0).max() <= 1e-12
    expected = (np.eye(10) + mp.w.a) @ s1.x - mp.wt.a @ x0
    assert np.abs(s2.x - expected).max() <= 1e-12


def test_nids_zero_stepsize_reduction(rand10):
    _, mp = rand10
    rng = np.random.default_rng(3)
    x0 = rng.standard_normal((10, 5))
    grad = lambda x: np.zeros_like(x)
    _, s1, s2 = islice(iterate("nids", x0, 1e-300, mp.w, mp.wt, grad), 3)
    half = (np.eye(10) + mp.w.a) / 2.0
    assert np.abs(s1.x - half @ x0).max() <= 1e-12
    assert np.abs(s2.x - half @ (2 * s1.x - x0)).max() <= 1e-12


def test_extra_xy_first_step_formula(prob1, rand10):
    _, mp = rand10
    x0 = np.zeros((10, 5))
    rng = np.random.default_rng(4)
    x0 = rng.standard_normal((10, 5))
    _, nxt = islice(iterate("extra_xy", x0, 0.05, mp.w, mp.wt, prob1.grad), 2)
    expected = mp.w.a @ x0 - 0.05 * prob1.grad(x0)
    assert np.abs(nxt.x - expected).max() <= 1e-13


def test_extra_xy_fixed_point_is_stationary(prob1, rand10):
    _, mp = rand10
    fp = fixed_point(prob1, 0.05)
    ops = operators("extra_xy", 0.05, mp.w, mp.wt, prob1.grad)
    nxt = step(AlgoState(fp.xstar, y=fp.ystar), ops)
    assert np.abs(nxt.x - fp.xstar).max() <= 1e-12
    assert np.abs(nxt.y - fp.ystar).max() <= 1e-12


def test_nids_dx_fixed_point_is_stationary(prob1, rand10):
    _, mp = rand10
    fp = fixed_point(prob1, 0.1)
    ops = operators("nids_dx", 0.1, mp.w, mp.wt, prob1.grad)
    nxt = step(AlgoState(fp.xstar, d=fp.dstar), ops)
    assert np.abs(nxt.x - fp.xstar).max() <= 1e-12
    assert np.abs(nxt.d - fp.dstar).max() <= 1e-12


def test_fixed_point_invariants(prob1, rand10):
    _, mp = rand10
    fp = fixed_point(prob1, 0.05)
    # x* is consensual: the NIDS audit's d-x connection implies equality (b)
    # and the norm-bound chain's identities only for such an x*.
    assert np.array_equal(fp.xstar, np.tile(prob1.xstar, (prob1.n, 1)))
    assert np.abs((mp.wt.a - mp.w.a) @ fp.xstar).max() <= 1e-12
    assert np.abs((np.eye(10) - mp.w.a) @ fp.xstar).max() <= 1e-12
    assert np.abs(fp.dstar + prob1.grad(fp.xstar)).max() == 0.0
    assert np.abs(fp.ystar.sum(axis=0)).max() <= 1e-9


def test_aux_column_sums_stay_zero(prob1, rand10):
    _, mp = rand10
    x0 = np.zeros((10, 5))
    _, ys = trajectory("extra_xy", x0, 0.05, mp.w, mp.wt, prob1.grad, 200)
    for y in ys:
        assert np.linalg.norm(y.sum(axis=0)) <= 1e-9 * (1.0 + np.linalg.norm(y))
    _, ds = trajectory("nids_dx", x0, 0.1, mp.w, mp.wt, prob1.grad, 200)
    for d in ds:
        assert np.linalg.norm(d.sum(axis=0)) <= 1e-9 * (1.0 + np.linalg.norm(d))


def test_extra_equivalence_500_iters(prob1, rand10):
    _, mp = rand10
    alpha = (5.0 + 3.0 * mp.w.lambda_min) / 40.0
    x0 = np.zeros((10, 5))
    xs1, _ = trajectory("extra", x0, alpha, mp.w, mp.wt, prob1.grad, 500)
    xs2, _ = trajectory("extra_xy", x0, alpha, mp.w, mp.wt, prob1.grad, 500)
    scale = 1.0 + float(np.linalg.norm(x0 - prob1.Xstar))
    assert np.linalg.norm(xs1 - xs2, axis=(1, 2)).max() <= 1e-9 * scale


def test_nids_equivalence_500_iters(prob1, rand10):
    _, mp = rand10
    x0 = np.zeros((10, 5))
    xs1, _ = trajectory("nids", x0, 0.2, mp.w, mp.wt, prob1.grad, 500)
    xs2, _ = trajectory("nids_dx", x0, 0.2, mp.w, mp.wt, prob1.grad, 500)
    scale = 1.0 + float(np.linalg.norm(x0 - prob1.Xstar))
    assert np.linalg.norm(xs1 - xs2, axis=(1, 2)).max() <= 1e-9 * scale


def test_nids_dx_connection_identity(prob1, rand10):
    _, mp = rand10
    alpha = 0.15
    x0 = np.zeros((10, 5))
    xs, ds = trajectory("nids_dx", x0, alpha, mp.w, mp.wt, prob1.grad, 100)
    eye = np.eye(10)
    i_minus_w = eye - mp.w.a
    fp = fixed_point(prob1, alpha)
    for k in range(100):
        lhs = (eye - 0.5 * i_minus_w) @ (ds[k + 1] - ds[k])
        rhs = i_minus_w @ (xs[k + 1] - fp.xstar) / (2.0 * alpha)
        num = np.linalg.norm(lhs - rhs)
        assert num <= 1e-9 * (1.0 + np.linalg.norm(lhs) + np.linalg.norm(rhs))


def test_residual_eventually_decreasing(prob1, rand10):
    # Transient mode beating can push the raw residual up for a while (the
    # contraction guarantee lives in the Lyapunov metric, not the Frobenius
    # residual), so monotonicity is asserted on the trajectory tail.
    _, mp = rand10
    bounds = stepsize_bounds(mp, prob1.lipschitz, prob1.mu_fbar)
    x0 = np.zeros((10, 5))
    for variant, alpha in (("extra", 0.5 * bounds["extra-new"]), ("nids", 0.5 * bounds["nids"])):
        xs, _ = trajectory(variant, x0, alpha, mp.w, mp.wt, prob1.grad, 300)
        res = np.linalg.norm(xs - prob1.Xstar[None], axis=(1, 2))
        floor = next((k for k, r in enumerate(res) if r <= 1e-12 * res[0]), len(res))
        increases = [k for k in range(5, floor - 1) if res[k + 1] > res[k] * (1.0 + 1e-9)]
        assert not increases or max(increases) < floor // 2


def test_stepsize_bounds_plugins(prob1):
    g = line(10)
    w = metropolis(g)
    wt = SymMatrix((np.eye(10) + w.a) / 2.0, name="wt")
    mp = validate(w, wt, g, theta=0.75)
    b = stepsize_bounds(mp, 10.0, prob1.mu_fbar)
    assert b["nids"] == pytest.approx(0.2, abs=0)
    assert b["extra-special"] == pytest.approx((5.0 + 3.0 * mp.w.lambda_min) / 40.0, rel=1e-15)
    # At theta = 3/4 with wt = (I+w)/2, the certified and special bounds agree
    # because w_bar = (5 I + 3 w) / 8.
    assert abs(b["extra-new"] - b["extra-special"]) <= 1e-12
    assert b["shi-convex"] == pytest.approx((1.0 + mp.w.lambda_min) / 10.0, rel=1e-15)
    assert b["shi-linear"] == pytest.approx(prob1.mu_fbar * (1.0 + mp.w.lambda_min) / 100.0, rel=1e-15)


def test_stepsize_bound_special_value():
    # lambda_min(w) = -0.5 at L = 10 gives the special bound 3.5 / 40.
    assert (5.0 + 3.0 * -0.5) / (4.0 * 10.0) == pytest.approx(0.0875)


def test_equivalences_on_relaxed_pair(prob1):
    g = random_connected(10, 0.5, 2)
    w = relax(metropolis(g), 1.0 / 3.0)
    wt = SymMatrix((np.eye(10) + w.a) / 2.0, name="wt")
    mp = validate(w, wt, g)
    alpha = (5.0 + 3.0 * mp.w.lambda_min) / 40.0
    x0 = np.zeros((10, 5))
    xs1, _ = trajectory("extra", x0, alpha, mp.w, mp.wt, prob1.grad, 300)
    xs2, _ = trajectory("extra_xy", x0, alpha, mp.w, mp.wt, prob1.grad, 300)
    scale = 1.0 + float(np.linalg.norm(x0 - prob1.Xstar))
    assert np.linalg.norm(xs1 - xs2, axis=(1, 2)).max() <= 1e-9 * scale


def test_trajectory_stops_at_the_first_non_finite_iterate(prob1, rand10):
    # Runs under RuntimeWarnings-as-errors: the overflow raises no warning.
    _, mp = rand10
    x0 = np.zeros((10, 5))
    for variant in ("dgd", "nids_dx"):
        xs, aux = trajectory(variant, x0, 5.0, mp.w, mp.wt, prob1.grad, 2000)
        assert 1 < len(xs) < 2001, variant
        assert np.isfinite(xs[:-1]).all() and not np.isfinite(xs[-1]).all(), variant
        assert aux is None or len(aux) == len(xs)


def test_runs_name_three_algorithms_and_the_step_check_samples_five_steppers():
    assert VARIANTS == ("dgd", "extra", "nids")
    assert STEPPERS == ("dgd", "extra", "extra_xy", "nids", "nids_dx")


@settings(max_examples=300, deadline=None, derandomize=True)
@given(variant=st.sampled_from(STEPPERS), n=st.integers(1, 60), m=st.integers(1, 10),
       p=st.integers(1, 40), scales=st.tuples(*[st.integers(-8, 8)] * 3),
       first=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_step_matches_the_matmul_reference_bit_for_bit(variant, n, m, p, scales, first, seed):
    # The updates apply their matrices with ndarray.dot and the gradient calls
    # the einsum kernel directly; both must keep the bits of the @ / np.einsum
    # forms. `first` starts the two-step forms without a previous iterate.
    rng = np.random.default_rng(seed)
    data, state_scale, alpha_scale = (10.0 ** s for s in scales)
    prob = bare_problem(rng.standard_normal((n, m, p)) * data,
                        rng.standard_normal((n, m)) * data)
    w, wt = (SymMatrix(rng.standard_normal((n, n))) for _ in range(2))
    ops = operators(variant, float(rng.uniform(0.1, 1.0)) * alpha_scale, w, wt, prob.grad)

    def draw():
        return rng.standard_normal((n, p)) * state_scale

    state = AlgoState(draw(), None if first else draw(), None if first else draw(),
                      y=draw() if variant == "extra_xy" else None,
                      d=draw() if variant == "nids_dx" else None)
    got, want = step(state, ops), step_reference(variant, state, ops, prob)
    for name in ("x", "x_prev", "g_prev", "y", "d"):
        a, b = getattr(got, name), getattr(want, name)
        assert (a is None and b is None) or np.array_equal(a, b), name


@pytest.mark.parametrize("variant, alpha, message", [
    ("sgd", 0.1, "unknown variant 'sgd'; choose from "
                 "('dgd', 'extra', 'extra_xy', 'nids', 'nids_dx')"),
    ("nids", 0.0, "stepsize must be positive, got 0.0"),
    ("extra", -0.5, "stepsize must be positive, got -0.5"),
])
def test_operators_rejects_an_unknown_variant_or_a_non_positive_stepsize(variant, alpha, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        operators(variant, alpha, np.eye(2), np.eye(2), lambda x: x)
