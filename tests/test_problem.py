import os
import tempfile

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from decon import problem
from decon.graph import line, random_connected
from decon.linalg import SymMatrix
from decon.mixing import metropolis, validate
from decon.problem import (
    ProblemError, check_rsc, from_data, generate, grad, mu_g, mu_g_value,
)


def test_generate_normalizes_local_curvature(prob1):
    for i in range(prob1.n):
        gram = SymMatrix(prob1.sensing[i].T @ prob1.sensing[i], name="gram")
        assert gram.lambda_max == pytest.approx(10.0, rel=1e-9)


def test_single_row_agents_are_not_strongly_convex_but_average_is(prob1):
    for i in range(prob1.n):
        gram = SymMatrix(prob1.sensing[i].T @ prob1.sensing[i], name="gram")
        assert gram.lambda_min <= 1e-9 * prob1.lipschitz
    assert prob1.mu_fbar > 0


def test_many_row_agents_are_strongly_convex(prob10):
    for i in range(prob10.n):
        gram = SymMatrix(prob10.sensing[i].T @ prob10.sensing[i], name="gram")
        assert gram.lambda_min > 0
    assert prob10.mu_fbar > 0


def test_generate_rejects_rank_deficient_average():
    with pytest.raises(ProblemError, match="not strongly convex"):
        generate(2, 5, 1, seed=0)


def test_noiseless_identity_sensing_recovers_truth():
    scale = np.sqrt(10.0)
    sensing = np.tile(scale * np.eye(4), (6, 1, 1))
    x = np.arange(1.0, 5.0)
    measurements = np.einsum("imp,p->im", sensing, x)
    prob = problem.from_data(sensing, measurements)
    assert np.abs(prob.xstar - x).max() <= 1e-12
    assert prob.lipschitz == pytest.approx(10.0, rel=1e-12)


def test_grad_rows_and_optimality(prob1):
    rng = np.random.default_rng(0)
    x = rng.standard_normal((prob1.n, prob1.p))
    g = grad(prob1, x)
    for i in range(prob1.n):
        expected = prob1.sensing[i].T @ (prob1.sensing[i] @ x[i] - prob1.measurements[i])
        assert np.abs(g[i] - expected).max() <= 1e-12
    gstar = grad(prob1, prob1.Xstar)
    assert np.abs(gstar.sum(axis=0)).max() <= 1e-9


def test_grad_zero_at_interpolating_optimum():
    sensing = np.tile(np.sqrt(10.0) * np.eye(3), (4, 1, 1))
    x = np.array([0.5, -1.0, 2.0])
    measurements = np.einsum("imp,p->im", sensing, x)
    prob = problem.from_data(sensing, measurements)
    assert np.abs(grad(prob, prob.Xstar)).max() <= 1e-12


def test_grad_matches_central_differences(prob1):
    rng = np.random.default_rng(1)
    h = 1e-6
    for i in range(prob1.n):
        x = rng.standard_normal(prob1.p)
        v = rng.standard_normal(prob1.p)
        v /= np.linalg.norm(v)
        fd = (prob1.agent_value(i, x + h * v) - prob1.agent_value(i, x - h * v)) / (2 * h)
        assert fd == pytest.approx(float(prob1.agent_grad(i, x) @ v), abs=1e-5)


def test_grad_shape_mismatch():
    prob = generate(4, 3, 2, seed=1)
    with pytest.raises(ProblemError):
        grad(prob, np.zeros((3, 3)))


def test_lipschitz_bound_sampled(prob1):
    rng = np.random.default_rng(2)
    for i in range(prob1.n):
        for _ in range(20):
            a = rng.standard_normal(prob1.p)
            b = rng.standard_normal(prob1.p)
            lhs = np.linalg.norm(prob1.agent_grad(i, a) - prob1.agent_grad(i, b))
            assert lhs <= prob1.lipschitz * np.linalg.norm(a - b) + 1e-9


def test_cocoercivity_sampled(prob1):
    rng = np.random.default_rng(3)
    for _ in range(50):
        x = rng.standard_normal((prob1.n, prob1.p))
        z = rng.standard_normal((prob1.n, prob1.p))
        gd = grad(prob1, x) - grad(prob1, z)
        inner = float(np.sum((x - z) * gd))
        assert inner >= float(np.sum(gd * gd)) / prob1.lipschitz - 1e-9


def test_mu_g_formula_branches():
    #  large eta caps at mu_fbar / 2; small eta scales linearly
    assert mu_g_value(1.0, 10.0, 0.5, 1e9) == pytest.approx(0.5)
    assert mu_g_value(1.0, 10.0, 0.5, 1.0) == pytest.approx(0.5 / 1601.0)
    tiny = mu_g_value(1.0, 10.0, 0.5, 1e-12)
    assert 0 < tiny < 1e-12


def test_mu_g_against_pair(prob1):
    w = SymMatrix([[0.75, 0.25], [0.25, 0.75]], name="w")
    g2 = line(2)
    mp = validate(w, SymMatrix((np.eye(2) + w.a) / 2.0, name="wt"), g2)
    assert mp.lam_min_pos_iw == pytest.approx(0.5)
    prob = generate(2, 1, 3, seed=5)
    expected = mu_g_value(prob.mu_fbar, prob.lipschitz, 0.5, 0.7)
    assert mu_g(prob, mp, 0.7) == pytest.approx(expected, rel=1e-12)


def test_check_rsc_zero_violations(prob1):
    g = random_connected(10, 0.5, 2)
    w = metropolis(g)
    mp = validate(w, SymMatrix((np.eye(10) + w.a) / 2.0, name="wt"), g)
    report = check_rsc(prob1, mp, eta=0.5, samples=1000, seed=0)
    assert report.violations == 0
    assert report.min_slack >= -1e-9


def test_check_rsc_consensual_points_reduce_to_average(prob1):
    g = random_connected(10, 0.5, 2)
    w = metropolis(g)
    mp = validate(w, SymMatrix((np.eye(10) + w.a) / 2.0, name="wt"), g)
    mg = mu_g(prob1, mp, 0.5)
    rng = np.random.default_rng(4)
    i_minus_w = np.eye(10) - w.a
    for _ in range(20):
        v = rng.standard_normal(prob1.p)
        x = prob1.Xstar + np.tile(v, (10, 1))
        delta = x - prob1.Xstar
        penalty = float(np.sum(delta * (i_minus_w @ delta)))
        assert abs(penalty) <= 1e-12 * float(np.sum(delta * delta))
        inner = float(np.sum(delta * (grad(prob1, x) - grad(prob1, prob1.Xstar))))
        assert inner >= prob1.n * prob1.mu_fbar * float(v @ v) - 1e-9
        assert inner >= mg * float(np.sum(delta * delta)) - 1e-9


def test_fixed_point_is_degenerate_rsc_sample(prob1):
    g = random_connected(10, 0.5, 2)
    w = metropolis(g)
    delta = np.zeros((prob1.n, prob1.p))
    inner = float(np.sum(delta * (grad(prob1, prob1.Xstar) - grad(prob1, prob1.Xstar))))
    assert inner == 0.0


def test_generation_reproducible_and_round_trip(tmp_path):
    a = generate(6, 4, 2, noise_std=0.3, seed=42)
    b = generate(6, 4, 2, noise_std=0.3, seed=42)
    assert np.array_equal(a.sensing, b.sensing)
    assert np.array_equal(a.measurements, b.measurements)
    assert np.array_equal(a.xstar, b.xstar)
    path = tmp_path / "prob.json"
    problem.save_problem(a, str(path))
    c = problem.load_problem(str(path))
    assert np.array_equal(a.sensing, c.sensing)
    assert np.array_equal(a.measurements, c.measurements)
    assert np.array_equal(a.xstar, c.xstar)
    assert a.lipschitz == c.lipschitz


def _bits(a) -> bytes | None:
    return None if a is None else a.tobytes()


@settings(max_examples=30, deadline=None)
@given(n=st.integers(1, 5), p=st.integers(1, 4), m=st.integers(1, 3),
       noise_std=st.floats(0.0, 1.0), seed=st.integers(0, 2**16), replay=st.booleans())
def test_save_load_round_trip_is_bit_exact(n, p, m, noise_std, seed, replay):
    assume(n * m >= p)
    prob = generate(n, p, m, noise_std=noise_std, seed=seed)
    if replay:  # explicit data: no x_true, lipschitz taken from the data
        prob = from_data(prob.sensing, prob.measurements, seed=None)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "prob.json")
        problem.save_problem(prob, path)
        back = problem.load_problem(path)
        again = os.path.join(tmp, "again.json")
        problem.save_problem(back, again)
        with open(path, "rb") as a, open(again, "rb") as b:
            assert a.read() == b.read()
    for name in ("sensing", "measurements", "xstar", "Xstar", "x_true"):
        assert _bits(getattr(back, name)) == _bits(getattr(prob, name)), name
    for name in ("n", "p", "m", "noise_std", "seed", "lipschitz", "mu_fbar"):
        assert getattr(back, name) == getattr(prob, name), name


def test_from_data_rejects_malformed_arrays():
    good = generate(3, 2, 2, seed=1)
    for bad, message in (
        (dict(sensing=good.sensing[0]), r"sensing must be a non-empty \(n, m, p\) array"),
        (dict(sensing=good.sensing[:0]), r"sensing must be a non-empty \(n, m, p\) array"),
        (dict(measurements=good.measurements[:, :1]), "measurements must have shape"),
        (dict(measurements=np.full((3, 2), np.inf)), "measurements holds non-finite"),
        (dict(lipschitz=np.nan), "lipschitz holds non-finite"),
    ):
        data = {"sensing": good.sensing, "measurements": good.measurements, **bad}
        with pytest.raises(ProblemError, match=message):
            from_data(**data)
