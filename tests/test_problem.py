import json
import os
import re
import tempfile

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from decon import cli, linalg, problem
from decon.graph import line, random_connected
from decon.linalg import SymMatrix
from decon.mixing import metropolis, validate
from decon.problem import ProblemError, from_data, generate, grad, mu_g_value

from oracles import agent_grad, agent_value, bare_problem, check_rsc, grad_reference, mu_g


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


def _recording_decompose(monkeypatch) -> list:
    """Route every `linalg.decompose` call, `problem`'s imported name included,
    through a hook that keeps the size of each matrix it is asked to solve."""
    sizes = []
    decompose = linalg.decompose

    def recording(mats):
        sizes.extend(len(mat.a) for mat in mats)
        return decompose(mats)

    monkeypatch.setattr(linalg, "decompose", recording)
    monkeypatch.setattr(problem, "decompose", recording)
    return sizes


@pytest.mark.parametrize("n, p, mi", [(3, 200, 1), (2, 100, 40)])
def test_cli_fewer_measurements_than_unknowns_exit_1_before_any_p_by_p_solve(
        n, p, mi, monkeypatch, capsys):
    # A hessian summing n * m_i rank-one terms has rank at most n * m_i < p:
    # the verdict is known before the p x p Gram and Hessian solves.
    sizes = _recording_decompose(monkeypatch)
    code = cli.main(["run", "--n", str(n), "--p", str(p), "--mi", str(mi), "--max-iters", "2"])
    assert code == 1
    assert capsys.readouterr().err == (f"error: averaged objective is not strongly convex: its "
                                       f"hessian has rank at most n*m = {n * mi} < p = {p}\n")
    assert sizes and p not in sizes  # the n x n mixing solves still ran


def test_from_data_rejects_fewer_measurements_than_unknowns_before_any_solve(monkeypatch):
    sizes = _recording_decompose(monkeypatch)
    with pytest.raises(ProblemError, match=r"not strongly convex: .* n\*m = 4 < p = 5$"):
        from_data(np.ones((2, 2, 5)), np.ones((2, 2)))
    assert sizes == []
    # Enough rows, all alike: the rank is known only from the hessian's spectrum.
    with pytest.raises(ProblemError, match=r"not strongly convex: lambda_min of the averaged "):
        from_data(np.ones((3, 2, 5)), np.ones((3, 2)))
    assert 5 in sizes


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
        fd = (agent_value(prob1, i, x + h * v) - agent_value(prob1, i, x - h * v)) / (2 * h)
        assert fd == pytest.approx(float(agent_grad(prob1, i, x) @ v), abs=1e-5)


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
            lhs = np.linalg.norm(agent_grad(prob1, i, a) - agent_grad(prob1, i, b))
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
    assert float(mp.iw.eigenvalues[1]) == pytest.approx(0.5)
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


@settings(max_examples=30, deadline=None, derandomize=True)
@given(n=st.integers(1, 5), p=st.integers(1, 4), m=st.integers(1, 3),
       noise_std=st.floats(0.0, 1.0), seed=st.integers(0, 2**16), replay=st.booleans())
def test_save_load_round_trip_is_bit_exact(n, p, m, noise_std, seed, replay):
    assume(n * m >= p)
    prob = generate(n, p, m, noise_std=noise_std, seed=seed)
    if replay:  # explicit data: lipschitz taken from the data
        prob = from_data(prob.sensing, prob.measurements, seed=None)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "prob.json")
        problem.save_problem(prob, path)
        back = problem.load_problem(path)
        again = os.path.join(tmp, "again.json")
        problem.save_problem(back, again)
        with open(path, "rb") as a, open(again, "rb") as b:
            saved = a.read()
            assert saved == b.read()
    # What replay reads, plus the generation parameters; the shapes give n, m, p.
    assert list(json.loads(saved)) == ["noise_std", "seed", "lipschitz", "sensing",
                                       "measurements"]
    for name in ("sensing", "measurements", "xstar", "Xstar"):
        assert _bits(getattr(back, name)) == _bits(getattr(prob, name)), name
    for name in ("n", "p", "m", "noise_std", "seed", "lipschitz", "mu_fbar"):
        assert getattr(back, name) == getattr(prob, name), name


def test_a_problem_saved_with_its_shapes_and_x_true_loads_to_the_same_bits(tmp_path):
    # The earlier format also wrote n, p, m and the generating x_true; loading
    # ignores keys it does not read.
    prob = generate(6, 3, 2, noise_std=0.1, seed=4)
    new, old = tmp_path / "new.json", tmp_path / "old.json"
    problem.save_problem(prob, str(new))
    payload = {"n": 6, "p": 3, "m": 2, **json.loads(new.read_text()),
               "x_true": np.random.default_rng(4).standard_normal(3).tolist()}
    old.write_text(json.dumps(payload))
    a, b = problem.load_problem(str(new)), problem.load_problem(str(old))
    for name in ("sensing", "measurements", "xstar", "Xstar"):
        assert getattr(a, name).tobytes() == getattr(b, name).tobytes(), name
    for name in ("n", "p", "m", "noise_std", "seed", "lipschitz", "mu_fbar"):
        assert getattr(a, name) == getattr(b, name), name


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


def test_from_data_rejects_an_understated_lipschitz():
    # Every agent is rescaled to lambda_max(M_i^T M_i) = 10 up to round-off.
    prob = generate(10, 5, 10, seed=2)
    top = max(float(np.linalg.eigvalsh(m.T @ m)[-1]) for m in prob.sensing)
    data = {"sensing": prob.sensing, "measurements": prob.measurements}
    for stated in (prob.lipschitz, top * (1.0 - 1e-12), 100.0):
        assert from_data(**data, lipschitz=stated).lipschitz == stated
    for stated in (2.0, top * (1.0 - 1e-6), 0.0, -10.0):
        message = (rf"^lipschitz {re.escape(repr(stated))} is below agent (\d)'s "
                   rf"lambda_max\(M_\1\^T M_\1\) = 10\.0000")
        with pytest.raises(ProblemError, match=message):
            from_data(**data, lipschitz=stated)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(n=st.integers(1, 60), m=st.integers(1, 10), p=st.integers(1, 40),
       scales=st.tuples(*[st.integers(-8, 8)] * 3), fortran=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
def test_grad_matches_the_einsum_reference_bit_for_bit(n, m, p, scales, fortran, seed):
    # problem.grad calls numpy's einsum kernel without np.einsum's wrappers:
    # the same arithmetic, so the same bits, at every shape and scale.
    rng = np.random.default_rng(seed)
    sensing = rng.standard_normal((n, m, p)) * 10.0 ** scales[0]
    measurements = rng.standard_normal((n, m)) * 10.0 ** scales[1]
    x = rng.standard_normal((n, p)) * 10.0 ** scales[2]
    if fortran:
        x = np.asfortranarray(x)
    prob = bare_problem(sensing, measurements)
    assert np.array_equal(problem.grad(prob, x), grad_reference(prob, x))


@pytest.mark.parametrize("eta, message", [
    (0.0, "eta must be positive, got 0.0"),
    (-1e-3, "eta must be positive, got -0.001"),
])
def test_mu_g_value_rejects_a_non_positive_eta(eta, message):
    with pytest.raises(problem.ProblemError, match=f"^{re.escape(message)}$"):
        problem.mu_g_value(1.0, 10.0, 0.5, eta)


def test_a_normal_equations_solve_off_by_its_tolerance_is_a_named_error(monkeypatch):
    solve = problem._solve_normal_equations
    monkeypatch.setattr(problem, "_solve_normal_equations",
                        lambda gram, rhs: solve(gram, rhs) + 1.0)
    with pytest.raises(ProblemError, match="normal equations solve residual too large"):
        generate(10, 5, 1, seed=2)


@pytest.mark.parametrize("n, p, m_i", [(10, 5, 10), (10, 40, 5)])
def test_normal_equations_fall_back_to_the_pseudo_inverse(n, p, m_i, monkeypatch):
    # A Cholesky factorization that fails sends the solve through the
    # eigendecomposition; `generate`'s residual check (1e-9) still passes and
    # the optimum is the Cholesky one to round-off.
    cholesky = problem.generate(n, p, m_i, seed=2).xstar
    failures = []

    def failing(a):
        failures.append(a.shape)
        raise np.linalg.LinAlgError("forced")

    monkeypatch.setattr(np.linalg, "cholesky", failing)
    fallback = problem.generate(n, p, m_i, seed=2).xstar
    assert (p, p) in failures
    assert np.linalg.norm(fallback - cholesky) <= 1e-10 * np.linalg.norm(cholesky)


def test_cli_an_agent_drawing_a_zero_sensing_matrix_exits_1_without_a_traceback(monkeypatch,
                                                                               capsys):
    default_rng = np.random.default_rng

    class ZeroAgent3:
        """The seeded generator, except that agent 3's sensing block is zero."""

        def __init__(self, seed):
            self._rng = default_rng(seed)

        def __getattr__(self, name):
            return getattr(self._rng, name)

        def standard_normal(self, size=None):
            out = self._rng.standard_normal(size)
            if np.ndim(out) == 3:
                out[3] = 0.0
            return out

    monkeypatch.setattr(np.random, "default_rng", ZeroAgent3)
    with pytest.raises(ProblemError, match="agent 3 drew a zero sensing matrix"):
        generate(10, 5, 1, seed=2)
    assert cli.main(["run", "--max-iters", "5"]) == 1
    err = capsys.readouterr().err
    assert "error: agent 3 drew a zero sensing matrix" in err and "Traceback" not in err


def _recording_solver(monkeypatch) -> list:
    """Route `linalg._jacobi_eigh` through a hook that keeps each call's stack,
    names and results."""
    calls = []
    jacobi = linalg._jacobi_eigh

    def recording(mats, names):
        pairs = jacobi(mats, names)
        calls.append((mats.copy(), list(names), pairs))
        return pairs

    monkeypatch.setattr(linalg, "_jacobi_eigh", recording)
    return calls


@pytest.mark.parametrize("build", ["generate", "from_data"])
def test_every_agent_gram_is_solved_in_one_stack_with_its_solo_bits(build, monkeypatch):
    data = generate(10, 8, 3, seed=4)
    linalg.clear_eig_cache()
    calls = _recording_solver(monkeypatch)
    if build == "generate":
        generate(10, 8, 3, seed=4)
    else:
        from_data(data.sensing, data.measurements)
    names = [f"M_{i}^T M_{i}" for i in range(10)]
    grams = [call for call in calls if set(call[1]) & set(names)]
    assert len(grams) == 1 and grams[0][1] == names
    monkeypatch.undo()
    for a, name, pair in zip(*grams[0]):
        solo = linalg._jacobi_eigh(a[None], [name])[0]
        for got, want in zip(pair, solo):
            assert got.tobytes() == want.tobytes() and got.strides == want.strides, name


class _BadAgents:
    """The seeded generator, except that agents 3 and 6 draw `FILL` in every
    sensing entry."""

    FILL = 0.0
    default_rng = staticmethod(np.random.default_rng)

    def __init__(self, seed):
        self._rng = self.default_rng(seed)

    def __getattr__(self, name):
        return getattr(self._rng, name)

    def standard_normal(self, size=None):
        out = self._rng.standard_normal(size)
        if np.ndim(out) == 3:
            out[[3, 6]] = self.FILL
        return out


@pytest.mark.parametrize("fill, message", [
    (0.0, "agent 3 drew a zero sensing matrix"),
    (1e200, "agent 3: M_3^T M_3 overflows float64 (largest sensing entry 1.000e+200)"),
], ids=["zero", "overflow"])
def test_generate_names_the_first_bad_agent_and_the_cli_exits_1(fill, message, monkeypatch,
                                                                capsys):
    monkeypatch.setattr(_BadAgents, "FILL", fill)
    monkeypatch.setattr(np.random, "default_rng", _BadAgents)
    with pytest.raises(ProblemError, match=f"^{re.escape(message)}$"):
        generate(10, 5, 1, seed=2)
    assert cli.main(["run", "--max-iters", "5"]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {message}") and "Traceback" not in err


def test_from_data_names_the_first_overflowing_agent_and_the_cli_exits_1(tmp_path, capsys):
    prob = generate(6, 2, 2, seed=4)
    sensing = prob.sensing.copy()
    sensing[[2, 5], 0, 0] = 1e200
    message = "agent 2: M_2^T M_2 overflows float64 (largest sensing entry 1.000e+200)"
    with pytest.raises(ProblemError, match=f"^{re.escape(message)}$"):
        from_data(sensing, prob.measurements)
    path = tmp_path / "prob.json"
    problem.save_problem(prob, str(path))
    payload = json.loads(path.read_text())
    payload["sensing"] = sensing.tolist()
    path.write_text(json.dumps(payload))
    assert cli.main(["run", "--topology", "line", "--n", "6", "--p", "2", "--mi", "2",
                     "--algo", "nids", "--alpha", "0.1", "--max-iters", "5",
                     "--load-problem", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {message}") and "Traceback" not in err
