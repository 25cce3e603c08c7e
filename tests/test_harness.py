import collections
import dataclasses
import json
import math
import os
import tempfile
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from decon import algorithms, cli, harness, linalg, problem
from decon.harness import (
    ConfigError, RunConfig, Trace, TraceError, read_csv, resolve_scenario, run, write_csv,
)
from oracles import write_csv_reference


def test_resolve_fig1_shape():
    configs = resolve_scenario("fig1")
    assert len(configs) >= 6
    assert len({c.seed for c in configs}) == 1
    assert {c.algo for c in configs} == {"dgd", "extra", "nids"}
    labels = [c.label for c in configs]
    assert len(set(labels)) == len(labels)


def test_resolve_relaxed_line_shape():
    configs = resolve_scenario("relaxed-line")
    assert all(c.topology == "line" for c in configs)
    by_label = {c.label: c for c in configs}
    assert by_label["nids_relaxed"].relax_factor == pytest.approx(1.0 / 3.0 - 1e-3)
    assert by_label["nids_plain"].relax_factor == 0.0
    assert 0.0 < by_label["extra_relaxed"].relax_factor < 1.0 / 3.0


def test_unknown_scenario_lists_presets():
    with pytest.raises(ConfigError, match="fig1"):
        resolve_scenario("fig9")


def test_config_validation():
    with pytest.raises(ConfigError):
        RunConfig(max_iters=0)
    with pytest.raises(ConfigError):
        RunConfig(tol=0.0)
    with pytest.raises(ConfigError):
        RunConfig(relax_factor=0.4)
    with pytest.raises(ConfigError):
        RunConfig(algo="sgd")
    with pytest.raises(ConfigError):
        RunConfig(alpha="warp")


def test_config_rejects_wrongly_typed_fields(tmp_path, capsys):
    for fields in ({"n": "10"}, {"n": 10.0}, {"tol": True}, {"certify": 1},
                   {"alpha": [0.1]}, {"theta": "0.9"}):
        with pytest.raises(ConfigError, match=next(iter(fields))):
            RunConfig(**fields)
    assert RunConfig(tol=1, edge_prob=1, alpha=1, theta=1).tol == 1  # ints where floats are due
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"n": "10"}))
    assert cli.main(["run", "--config", str(path)]) == 1
    assert "n must be int" in capsys.readouterr().err


def test_run_converges_at_zero_when_started_at_optimum(tmp_path):
    # All-zero measurements put the optimum at the all-zero start.
    sensing = np.tile(np.sqrt(10.0) * np.eye(3), (4, 1, 1))
    prob = problem.from_data(sensing, np.zeros((4, 3)))
    path = tmp_path / "prob.json"
    problem.save_problem(prob, str(path))
    cfg = RunConfig(topology="complete", n=4, p=3, mi=3, algo="nids", alpha=0.1,
                    problem_file=str(path))
    trace = run(cfg)
    assert trace.status == "converged"
    assert trace.ks == [0]
    assert trace.residuals == [0.0]


def test_run_divergence_detected():
    base = resolve_scenario("fig1")[0]
    cfg = dataclasses.replace(base, algo="extra", alpha="extra-special", label="probe")
    inst = harness.build_instance(cfg)
    cfg = dataclasses.replace(cfg, alpha=10.0 * inst.stepsizes["extra-special"])
    trace = run(cfg)
    assert trace.status == "diverged"
    assert trace.residuals[-1] > harness.DIVERGENCE_LIMIT or not np.isfinite(trace.residuals[-1])


def test_run_residual_row_zero_is_one():
    cfg = RunConfig(topology="line", n=4, p=2, mi=2, seed=3, algo="nids", alpha=0.1,
                    max_iters=50, tol=1e-12)
    trace = run(cfg)
    assert trace.residuals[0] == 1.0


def test_trace_csv_round_trip_plain(tmp_path):
    cfg = RunConfig(topology="line", n=4, p=2, mi=2, seed=3, algo="nids", alpha=0.1,
                    max_iters=60, tol=1e-9)
    trace = run(cfg)
    path = tmp_path / "t.csv"
    write_csv(trace, str(path))
    again = read_csv(str(path))
    assert again == trace
    header = path.read_text().splitlines()[0]
    assert header == "k,algo,alpha,residual"


def test_trace_csv_round_trip_certified(tmp_path):
    cfg = RunConfig(topology="line", n=4, p=2, mi=2, seed=3, algo="nids", alpha=0.1,
                    max_iters=200, tol=1e-9, certify=True)
    trace = run(cfg)
    assert trace.audit.ok
    path = tmp_path / "t.csv"
    write_csv(trace, str(path))
    again = read_csv(str(path))
    assert again == trace
    header = path.read_text().splitlines()[0]
    assert header == "k,algo,alpha,residual,lyapunov,ratio,slack"


def test_empty_trace_writes_header_only(tmp_path):
    trace = Trace(algo="none", alpha=0.1, ks=[], residuals=[])
    path = tmp_path / "empty.csv"
    write_csv(trace, str(path))
    assert path.read_text() == "k,algo,alpha,residual\n"


def test_read_csv_without_rows_raises_named_error(tmp_path):
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    header_only = tmp_path / "header.csv"
    write_csv(Trace(algo="none", alpha=0.1, ks=[], residuals=[]), str(header_only))
    for path in (empty, header_only):
        with pytest.raises(TraceError, match="no trace rows"):
            read_csv(str(path))


def test_write_csv_io_error_names_path():
    trace = Trace(algo="none", alpha=0.1, ks=[], residuals=[])
    bad = "/nonexistent-dir-decon/x.csv"
    with pytest.raises(OSError, match="nonexistent-dir-decon"):
        write_csv(trace, bad)


def test_csv_byte_identical_across_runs(tmp_path):
    plain = RunConfig(topology="random", n=8, p=3, mi=2, seed=11, algo="extra",
                      alpha="extra-special", max_iters=400, tol=1e-10)
    certified = RunConfig(topology="random", n=8, p=3, mi=2, seed=11, algo="nids",
                          alpha=0.1, max_iters=300, tol=1e-9, certify=True)
    for i, cfg in enumerate((plain, certified)):
        p1, p2 = tmp_path / f"a{i}.csv", tmp_path / f"b{i}.csv"
        write_csv(run(cfg), str(p1))
        write_csv(run(cfg), str(p2))
        assert p1.read_bytes() == p2.read_bytes()


_EDGE_FLOATS = (0.0, -0.0, 5e-324, 1.7976931348623157e308, math.inf, -math.inf, math.nan)
_floats = st.one_of(st.sampled_from(_EDGE_FLOATS), st.floats())


@st.composite
def _traces(draw):
    rows = draw(st.integers(1, 8))
    column = st.lists(_floats, min_size=rows, max_size=rows)
    optional = st.lists(st.none() | _floats, min_size=rows, max_size=rows)
    certified = draw(st.booleans())
    return Trace(algo=draw(st.sampled_from(("dgd_fast", "nids_0.19", "extra_0.0657529"))),
                 alpha=draw(_floats),
                 ks=draw(st.lists(st.integers(0, 10**6), min_size=rows, max_size=rows)),
                 residuals=draw(column),
                 lyapunov=draw(column) if certified else None,
                 ratio=draw(optional) if certified else None,
                 slack=draw(optional) if certified else None)


@settings(derandomize=True, deadline=None, max_examples=200)
@given(trace=_traces())
@example(trace=Trace(algo="nids_0.19", alpha=0.19, ks=[0], residuals=[1.0], lyapunov=[math.nan],
                     ratio=[None], slack=[None]))
@example(trace=Trace(algo="dgd_slow", alpha=-0.0, ks=[0, 1, 2],
                     residuals=[5e-324, 1.7976931348623157e308, math.inf]))
def test_write_csv_matches_the_per_row_writer_byte_for_byte(trace):
    with tempfile.TemporaryDirectory() as tmp:
        new, old = os.path.join(tmp, "new.csv"), os.path.join(tmp, "old.csv")
        write_csv(trace, new)
        write_csv_reference(trace, old)
        with open(new, "rb") as a, open(old, "rb") as b:
            assert a.read() == b.read()


def _norm_residual(x, xstar):
    """The relative residual as the run loop computed it with np.linalg.norm."""
    denom = float(np.linalg.norm(xstar))
    res = float(np.linalg.norm(x - xstar)) / denom if denom > 0.0 else 0.0
    return res if math.isfinite(res) else math.inf


@pytest.mark.parametrize("case, shape", [
    ("random", (10, 5)), ("random", (10, 40)), ("random", (50, 5)), ("nan", (10, 5)),
    ("near_overflow", (10, 5)), ("overflow", (10, 5)), ("zero_optimum", (10, 5)),
])
def test_until_stop_residuals_equal_the_norm_bit_for_bit(case, shape):
    rng = np.random.default_rng(5)
    xstar = np.zeros(shape) if case == "zero_optimum" else rng.standard_normal(shape)
    xs = [xstar + s * rng.standard_normal(shape) for s in np.logspace(-15, 6, 200)]
    rows = {"random": 200, "zero_optimum": 1}.get(case, 3)
    bad = {"nan": math.nan, "near_overflow": 1.8e153, "overflow": 1e155}
    if case in bad:  # the run stops at this iterate: inf, or far beyond the divergence limit
        xs[2] = np.full(shape, bad[case])
    trace = Trace(algo="probe", alpha=0.1, ks=[], residuals=[], status="max_iters")
    states = (algorithms.AlgoState(k, x) for k, x in enumerate(xs))
    with np.errstate(over="ignore"):
        passed = list(harness._until_stop(states, RunConfig(max_iters=len(xs), tol=1e-300),
                                          xstar, trace))
        expected = [_norm_residual(x, xstar) for x in xs[:rows]]
    assert len(passed) == len(trace.residuals) == rows
    assert [r.hex() for r in trace.residuals] == [r.hex() for r in expected]


def test_fig1_residual_column_nonincreasing_after_row_five(tmp_path):
    cfg = next(c for c in resolve_scenario("fig1") if c.label == "extra_a2")
    trace = run(cfg)
    path = tmp_path / "fig1_nids.csv"
    write_csv(trace, str(path))
    rows = [line.split(",") for line in path.read_text().splitlines()[1:]]
    res = [float(r[3]) for r in rows]
    assert all(res[i + 1] <= res[i] * (1.0 + 1e-9) for i in range(5, len(res) - 1))


def test_fig1_iteration_ordering():
    traces = {c.label: run(c) for c in resolve_scenario("fig1")}
    inf = float("inf")

    def count(label):
        k = traces[label].iterations_to(1e-10)
        return inf if k is None else k

    assert count("nids_a4") < count("extra_a3") <= count("extra_a2") < count("extra_a1")
    assert count("extra_a1") < min(count("dgd_fast"), count("dgd_slow"))


def test_certified_run_matches_plain_residuals():
    cfg = RunConfig(topology="random", n=8, p=3, mi=2, seed=11, algo="nids", alpha=0.1,
                    max_iters=200, tol=1e-9)
    plain = run(cfg)
    certified = run(dataclasses.replace(cfg, certify=True))
    assert plain.status == certified.status
    assert np.allclose(plain.residuals, certified.residuals, rtol=1e-9, atol=1e-13)


def test_certify_dgd_rejected():
    cfg = RunConfig(algo="dgd", alpha=0.01, certify=True)
    with pytest.raises(ConfigError):
        run(cfg)


def test_cli_single_run_and_csv(tmp_path, capsys):
    out = tmp_path / "t.csv"
    code = cli.main([
        "run", "--topology", "line", "--n", "10", "--p", "5", "--mi", "1",
        "--seed", "2", "--algo", "nids", "--alpha", "0.19", "--certify",
        "--max-iters", "4000", "--out", str(out),
    ])
    assert code == 0
    text = capsys.readouterr().out
    assert "status=converged" in text
    assert "certificate" in text
    assert out.exists()
    again = read_csv(str(out))
    assert again.certified


def test_cli_certify_rejects_boundary_stepsize(capsys):
    # The certified NIDS range is open at 2/L, so certifying there must fail
    # loudly even though the run itself converges.
    code = cli.main(["run", "--topology", "line", "--n", "10", "--p", "5", "--mi", "1",
                     "--seed", "2", "--algo", "nids", "--alpha", "nids", "--certify"])
    assert code == 1
    assert "certified range" in capsys.readouterr().err


@pytest.mark.parametrize("argv, names", [
    # The default EXTRA stepsize is the theta -> 3/4 limit, never certified.
    (["run", "--certify"], "extra-new"),
    (["run", "--algo", "nids", "--alpha", "0.2", "--certify", "--tol", "1e-300",
      "--max-iters", "20000"], "certified range"),
])
def test_cli_uncertifiable_stepsize_fails_before_the_first_step(argv, names, monkeypatch,
                                                                 capsys):
    calls = []
    step = algorithms.step
    monkeypatch.setattr(algorithms, "step", lambda *a: calls.append(1) or step(*a))
    assert cli.main(argv) == 1
    assert names in capsys.readouterr().err
    assert calls == []


@pytest.mark.parametrize("flag, value, field", [
    ("--noise-std", "nan", "noise_std"), ("--noise-std", "inf", "noise_std"),
    ("--tol", "nan", "tol"), ("--tol", "inf", "tol"),
    ("--alpha", "nan", "alpha"), ("--alpha", "inf", "alpha"),
])
def test_cli_non_finite_setting_fails_before_the_first_step(flag, value, field, monkeypatch,
                                                             capsys):
    calls = []
    step = algorithms.step
    monkeypatch.setattr(algorithms, "step", lambda *a: calls.append(1) or step(*a))
    assert cli.main(["run", "--max-iters", "50", flag, value]) == 1
    assert f"error: {field} must be finite" in capsys.readouterr().err
    assert calls == []


@pytest.mark.parametrize("flag, message", [
    ("--seed", "seed must be >= 0, got -1"),
    ("--noise-std", "noise_std must be >= 0, got -1.0"),
])
def test_cli_negative_setting_is_a_named_error(flag, message, monkeypatch, capsys):
    calls = []
    step = algorithms.step
    monkeypatch.setattr(algorithms, "step", lambda *a: calls.append(1) or step(*a))
    assert cli.main(["run", "--max-iters", "3", flag, "-1"]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert calls == []


@pytest.mark.parametrize("corrupt, message", [
    (lambda d: d["sensing"][1][0].__setitem__(0, float("nan")), "sensing holds non-finite"),
    (lambda d: d.pop("sensing"), "missing key(s) sensing"),
    (lambda d: d.update(sensing=d["sensing"][0]), "sensing must be a non-empty (n, m, p) array"),
    (lambda d: d["sensing"][0][0].__setitem__(0, "x"), "sensing and measurements must be numeric"),
    (lambda d: d["sensing"][0][0].__setitem__(0, "0.5"), "sensing holds a str"),
    (lambda d: d["measurements"][0].__setitem__(0, True), "measurements holds a bool"),
    (lambda d: d.update(lipschitz="ten"), "lipschitz must be a number or null, got 'ten'"),
    (lambda d: d.update(x_true=["a", "b"]), "x_true must be null or 2 finite numbers"),
    (lambda d: d["x_true"].pop(), "x_true must be null or 2 finite numbers"),
])
def test_cli_bad_problem_file_is_a_named_error(corrupt, message, tmp_path, capsys):
    path = tmp_path / "prob.json"
    problem.save_problem(problem.generate(6, 2, 2, seed=4), str(path))
    payload = json.loads(path.read_text())
    corrupt(payload)
    path.write_text(json.dumps(payload))
    code = cli.main(["run", "--topology", "line", "--n", "6", "--p", "2", "--mi", "2",
                     "--algo", "nids", "--alpha", "0.1", "--max-iters", "5",
                     "--load-problem", str(path)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err


@pytest.mark.parametrize("lipschitz", [None, 10.0])
def test_cli_overflowing_problem_file_names_the_agent(lipschitz, tmp_path, capsys):
    path = tmp_path / "prob.json"
    problem.save_problem(problem.generate(6, 2, 2, seed=4), str(path))
    payload = json.loads(path.read_text())
    payload["sensing"][0][0][0] = 1e200
    payload["lipschitz"] = lipschitz
    path.write_text(json.dumps(payload))
    code = cli.main(["run", "--topology", "line", "--n", "6", "--p", "2", "--mi", "2",
                     "--algo", "nids", "--alpha", "0.1", "--max-iters", "5",
                     "--load-problem", str(path)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: agent 0: M_0^T M_0 overflows float64")
    assert "RuntimeWarning" not in err


def test_cli_understated_lipschitz_is_a_named_error(tmp_path, capsys):
    # Accepted as stated, L = 2 would certify alpha = 0.9, beyond the true 2/L = 0.2.
    path = tmp_path / "prob.json"
    problem.save_problem(problem.generate(10, 5, 10, seed=2), str(path))
    payload = json.loads(path.read_text())
    payload["lipschitz"] = 2.0
    path.write_text(json.dumps(payload))
    code = cli.main(["run", "--load-problem", str(path), "--n", "10", "--p", "5", "--mi", "10",
                     "--algo", "nids", "--alpha", "0.9", "--certify"])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: lipschitz 2.0 is below agent ") and "= 10." in err


@pytest.mark.parametrize("corrupt, message", [
    (lambda d: d["measurements"][0].__setitem__(0, 1e200),
     "error: the optimum overflows float64 (largest measurement 1.000e+200, agent 0 row 0)"),
    (lambda d: d["sensing"][0][0].__setitem__(0, 1e150) or d.update(lipschitz=None),
     "error: agent 0: M_0^T M_0 overflows float64 (largest sensing entry 1.000e+150)"),
], ids=["optimum", "gram_norm"])
def test_cli_overflowing_norm_is_a_named_error(corrupt, message, tmp_path, capsys):
    # Every entry is finite and only a norm overflows: left unchecked, that is a
    # diverged run at iteration 0 or a misleading "not strongly convex" error.
    path = tmp_path / "prob.json"
    problem.save_problem(problem.generate(6, 2, 2, seed=4), str(path))
    payload = json.loads(path.read_text())
    corrupt(payload)
    path.write_text(json.dumps(payload))
    code = cli.main(["run", "--topology", "line", "--n", "6", "--p", "2", "--mi", "2",
                     "--algo", "nids", "--alpha", "0.1", "--max-iters", "50",
                     "--load-problem", str(path)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith(message)
    assert "RuntimeWarning" not in err


def _count_solves(monkeypatch) -> collections.Counter:
    """Count the Jacobi solves of each matrix, keyed by its entries' bytes."""
    seen = collections.Counter()
    jacobi = linalg._jacobi_eigh

    def hashing(a, name):
        seen[a.tobytes()] += 1
        return jacobi(a, name)

    monkeypatch.setattr(linalg, "_jacobi_eigh", hashing)
    return seen


def test_certified_run_decomposes_each_mixing_matrix_once(monkeypatch):
    base = RunConfig(topology="random", n=10, p=5, mi=1, seed=2, certify=True, max_iters=50)
    inst = harness.build_instance(dataclasses.replace(base, algo="extra", alpha="extra-new"))
    w, wt, eye = inst.mp.w.a, inst.mp.wt.a, np.eye(10)
    watched = {"w_tilde": wt, "w_tilde - w": wt - w, "I - w": eye - w,
               "(I - w)/2": (eye - w) / 2.0}
    seen = _count_solves(monkeypatch)
    for algo, alpha in (("nids", 0.19), ("extra", 0.9 * inst.alpha)):
        seen.clear()
        linalg.clear_eig_cache()
        trace = run(dataclasses.replace(base, algo=algo, alpha=alpha))
        assert trace.audit.ok and trace.ks[-1] == 50
        counts = {name: seen[mat.tobytes()] for name, mat in watched.items()}
        # w_bar = w_tilde at theta = 1: one solve serves both.
        assert counts == {"w_tilde": 1, "w_tilde - w": 1, "I - w": 1, "(I - w)/2": 0}, algo


def test_scenario_decomposes_each_distinct_matrix_once(monkeypatch, tmp_path):
    seen = _count_solves(monkeypatch)
    eig = linalg.SymMatrix.eig
    asked = []
    monkeypatch.setattr(linalg.SymMatrix, "eig", lambda self: asked.append(1) or eig(self))
    assert cli.main(["run", "--scenario", "fig1", "--max-iters", "20",
                     "--out", str(tmp_path / "fig1")]) == 0
    assert seen and max(seen.values()) == 1
    # Six curves on one instance: most decompositions are served from the cache.
    assert sum(seen.values()) < len(asked) / 2


def test_certified_run_evaluates_each_gradient_once(monkeypatch):
    calls = []
    grad = problem.grad
    monkeypatch.setattr(problem, "grad", lambda *a: calls.append(1) or grad(*a))
    for algo, alpha in (("nids", 0.1), ("extra", 0.05)):
        calls.clear()
        trace = run(RunConfig(topology="random", n=8, p=3, mi=2, seed=11, algo=algo,
                              alpha=alpha, max_iters=300, tol=1e-9, certify=True))
        assert trace.audit.ok and trace.ks[-1] > 100
        assert len(calls) <= trace.ks[-1] + 2


def test_certified_run_memory_does_not_grow_with_iterations(monkeypatch):
    cfg = RunConfig(topology="random", n=10, p=40, mi=5, seed=2, algo="nids", alpha=0.19,
                    max_iters=5000, tol=1e-300, certify=True)
    # Build the instance untraced: its eigensolves are slow under tracemalloc.
    inst = harness.build_instance(cfg)
    monkeypatch.setattr(harness, "build_instance", lambda config: inst)
    tracemalloc.start()
    try:
        trace = run(cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert trace.ks[-1] == 5000 and trace.audit.ok
    assert peak < 8 * 2**20, f"peak traced memory {peak / 2**20:.1f} MB"


def test_cli_alpha_named_vs_numeric(tmp_path):
    out = tmp_path / "n.csv"
    code = cli.main(["run", "--topology", "line", "--n", "6", "--p", "2", "--mi", "2",
                     "--seed", "4", "--algo", "nids", "--alpha", "0.15",
                     "--max-iters", "400", "--out", str(out)])
    assert code == 0
    assert read_csv(str(out)).alpha == pytest.approx(0.15)


def test_cli_scenario_writes_one_csv_per_config(tmp_path):
    outdir = tmp_path / "figs"
    code = cli.main(["run", "--scenario", "relaxed-line", "--max-iters", "3000",
                     "--out", str(outdir)])
    assert code == 0
    names = sorted(f.name for f in outdir.iterdir())
    assert names == ["extra_plain.csv", "extra_relaxed.csv", "nids_plain.csv",
                     "nids_relaxed.csv"]


def test_cli_divergence_exit_code():
    code = cli.main(["run", "--topology", "line", "--n", "6", "--p", "2", "--mi", "2",
                     "--seed", "4", "--algo", "extra", "--alpha", "1.5",
                     "--max-iters", "500"])
    assert code == 2


def test_cli_validation_error_exit_code(capsys):
    code = cli.main(["run", "--scenario", "fig1", "--alpha", "frobnicate"])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_cli_unwritable_output_is_a_named_error(tmp_path, capsys):
    code = cli.main(["run", "--max-iters", "5", "--out", str(tmp_path)])
    assert code == 1
    assert capsys.readouterr().err.startswith(f"error: cannot write trace to {tmp_path}")


@pytest.mark.parametrize("text", ['{"n": 10,', "[1, 2]"])
def test_cli_malformed_config_is_a_named_error(text, tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(text)
    assert cli.main(["run", "--config", str(path)]) == 1
    assert capsys.readouterr().err.startswith("error:")


def test_cli_eigensolver_failure_is_a_named_error(monkeypatch, capsys):
    def fail(a, name):
        raise linalg.EigenConvergenceError(f"Jacobi eigensolver did not converge on {name!r}")

    monkeypatch.setattr(linalg, "_jacobi_eigh", fail)
    assert cli.main(["run", "--max-iters", "5"]) == 1
    assert "did not converge" in capsys.readouterr().err


def test_cli_keeps_the_traceback_of_a_defect(monkeypatch):
    def defect(config):
        raise ValueError("a defect, not a bad input")

    monkeypatch.setattr(harness, "run", defect)
    with pytest.raises(ValueError, match="a defect"):
        cli.main(["run", "--max-iters", "5"])


def test_cli_validate_mixing_checks_the_relax_factor_range(capsys):
    assert cli.main(["validate-mixing", "--relax-factor", "0.34"]) == 1
    assert "relax_factor must lie in [0, 1/3]" in capsys.readouterr().err
    assert cli.main(["run", "--relax-factor", "0.34", "--max-iters", "5"]) == 1


def test_cli_validate_mixing_and_dump(tmp_path, capsys):
    gfile = tmp_path / "g.txt"
    gfile.write_text("0 1\n1 2\n2 3\n")
    dump = tmp_path / "w.txt"
    code = cli.main(["validate-mixing", "--graph-file", str(gfile),
                     "--relax-factor", "0.333", "--dump-mixing", str(dump)])
    assert code == 0
    text = capsys.readouterr().out
    assert "PASS" in text
    rows = [[float(v) for v in line.split()] for line in dump.read_text().splitlines()]
    assert len(rows) == 4 and len(rows[0]) == 4
    w = np.array(rows)
    assert np.abs(w.sum(axis=1) - 1.0).max() <= 1e-12


def test_cli_validate_mixing_failure_exit_code(tmp_path, capsys):
    gfile = tmp_path / "g.txt"
    gfile.write_text("0 1\n")
    code = cli.main(["validate-mixing", "--graph-file", str(gfile), "--theta", "0.2"])
    assert code == 1


def test_cli_validate_mixing_takes_a_topology(capsys):
    assert cli.main(["validate-mixing", "--topology", "line", "--n", "6"]) == 0
    assert "mixing pair on 6 nodes, 5 edges: PASS" in capsys.readouterr().out


def test_cli_bounds_applies_flags_after_a_scenario_and_a_config_file(tmp_path, capsys):
    assert cli.main(["bounds", "--seed", "7"]) == 0
    table = capsys.readouterr().out
    assert "mu_fbar = 0.521435" in table
    assert cli.main(["bounds", "--scenario", "fig1", "--seed", "7"]) == 0
    assert capsys.readouterr().out == table
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"seed": 7}))
    assert cli.main(["bounds", "--config", str(config)]) == 0
    assert capsys.readouterr().out == table


def test_cli_bounds_table(capsys):
    code = cli.main(["bounds", "--scenario", "fig1"])
    assert code == 0
    text = capsys.readouterr().out
    assert "extra-special" in text and "nids" in text and "shi-linear" in text


def test_cli_bounds_prints_every_named_stepsize_and_each_runs(capsys):
    assert cli.main(["bounds", "--scenario", "fig1"]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()[1:]]
    assert [name for name, _ in rows] == list(algorithms.STEPSIZES)
    inst = harness.build_instance(resolve_scenario("fig1")[0])
    assert [float(value) for _, value in rows] == pytest.approx(
        list(inst.stepsizes.values()), rel=1e-11)
    for name, _ in rows:
        assert cli.main(["run", "--alpha", name, "--max-iters", "1"]) == 0, name
        assert f"extra_{name}: status=" in capsys.readouterr().out


def test_every_run_flag_reaches_its_config_field():
    args = cli.build_parser().parse_args([
        "run", "--topology", "line", "--n", "6", "--p", "2", "--mi", "3", "--edge-prob", "0.7",
        "--noise-std", "0.2", "--seed", "5", "--algo", "nids", "--alpha", "0.15",
        "--relax-factor", "0.1", "--theta", "0.9", "--max-iters", "7", "--tol", "1e-6",
        "--certify", "--graph-file", "g.txt", "--load-problem", "p.json", "--out", "o.csv"])
    assert harness.config_from_dict(cli._flag_overrides(args)) == RunConfig(
        topology="line", n=6, p=2, mi=3, edge_prob=0.7, noise_std=0.2, seed=5, algo="nids",
        alpha=0.15, relax_factor=0.1, theta=0.9, max_iters=7, tol=1e-6, certify=True,
        graph_file="g.txt", problem_file="p.json", out_path="o.csv")


def test_topology_names_are_the_table_keys(capsys):
    for name in harness.TOPOLOGIES:
        assert harness.build_graph(RunConfig(topology=name, n=5)).n == 5
    with pytest.raises(ConfigError, match="unknown topology 'ring'"):
        RunConfig(topology="ring")
    with pytest.raises(SystemExit):
        cli.main(["run", "--topology", "ring"])
    assert "invalid choice: 'ring'" in capsys.readouterr().err


def test_cli_config_file_with_flag_override(tmp_path):
    cfg = {"topology": "line", "n": 6, "p": 2, "mi": 2, "seed": 4, "algo": "nids",
           "alpha": 0.15, "max_iters": 400}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out.csv"
    code = cli.main(["run", "--config", str(path), "--alpha", "0.05", "--out", str(out)])
    assert code == 0
    assert read_csv(str(out)).alpha == pytest.approx(0.05)


def test_cli_save_problem_builds_each_instance_once(tmp_path, monkeypatch):
    saved = tmp_path / "prob.json"
    built = []
    build = harness.build_instance
    monkeypatch.setattr(harness, "build_instance", lambda cfg: built.append(cfg.name) or build(cfg))
    assert cli.main(["run", "--scenario", "fig3", "--max-iters", "5",
                     "--save-problem", str(saved)]) == 0
    configs = resolve_scenario("fig3")
    assert built == [cfg.name for cfg in configs]
    monkeypatch.undo()
    expected = tmp_path / "expected.json"
    problem.save_problem(build(configs[-1]).prob, str(expected))
    assert saved.read_bytes() == expected.read_bytes()


def test_cli_save_and_load_problem(tmp_path):
    saved = tmp_path / "prob.json"
    code = cli.main(["run", "--topology", "line", "--n", "6", "--p", "2", "--mi", "2",
                     "--seed", "4", "--algo", "nids", "--alpha", "0.1",
                     "--max-iters", "50", "--save-problem", str(saved)])
    assert code == 0
    loaded = problem.load_problem(str(saved))
    fresh = problem.generate(6, 2, 2, noise_std=0.1, seed=4)
    assert np.array_equal(loaded.sensing, fresh.sensing)
    out = tmp_path / "replay.csv"
    code = cli.main(["run", "--topology", "line", "--n", "6", "--p", "2", "--mi", "2",
                     "--seed", "4", "--algo", "nids", "--alpha", "0.1",
                     "--max-iters", "50", "--load-problem", str(saved), "--out", str(out)])
    assert code == 0
