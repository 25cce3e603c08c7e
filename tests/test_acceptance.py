"""Acceptance gate: every criterion runs at its stated tolerance and prints a
pass/fail line. The shared grid is 10 seeds x {1, 10} rows per agent x
{plain, relaxed} mixing on the 10-node, 5-dimensional instance family.
"""

import dataclasses
import time
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice

import numpy as np
import pytest

from decon import graph, harness, mixing, problem
from decon.algorithms import fixed_point, iterate, stepsize_bounds
from decon.certify import audit_extra, audit_nids, extra_constants, nids_constants
from decon.linalg import SymMatrix

from oracles import (
    agent_grad, agent_value, check_rsc, eigenvalues_by_bisection, iterations_to, ratio_column,
    trajectory,
)

SEEDS = tuple(range(10))
N, P = 10, 5


@contextmanager
def criterion(num: int, desc: str):
    try:
        yield
    except Exception:
        print(f"ACCEPTANCE {num} FAIL: {desc}")
        raise
    print(f"ACCEPTANCE {num} PASS: {desc}")


@dataclass(frozen=True)
class Cell:
    seed: int
    mi: int
    relaxed: bool
    mp: object
    prob: object


@pytest.fixture(scope="module")
def grid():
    cells = []
    for seed in SEEDS:
        g = graph.random_connected(N, 0.5, seed)
        w_plain = mixing.metropolis(g)
        probs = {mi: problem.generate(N, P, mi, seed=seed) for mi in (1, 10)}
        for relaxed in (False, True):
            w = mixing.relax(w_plain, 1.0 / 3.0) if relaxed else w_plain
            wt = SymMatrix((np.eye(N) + w.a) / 2.0, name="w_tilde")
            mp = mixing.validate(w, wt, g)
            for mi in (1, 10):
                cells.append(Cell(seed, mi, relaxed, mp, probs[mi]))
    return cells


@pytest.fixture(scope="module")
def audited(grid):
    """Certified runs at half the respective stepsize bounds, fully audited."""
    x0 = np.zeros((N, P))
    results = []
    for cell in grid:
        lipschitz, mu = cell.prob.lipschitz, cell.prob.mu_fbar
        alpha_e = 0.5 * 2.0 * cell.mp.wbar.lambda_min / lipschitz
        cert_e = extra_constants(cell.mp, lipschitz, mu, alpha_e)
        states = islice(iterate("extra_xy", x0, alpha_e, cell.mp.w, cell.mp.wt,
                                cell.prob.grad), 501)
        rep_e = audit_extra(states, cell.mp, cert_e,
                            fixed_point(cell.prob, alpha_e))
        alpha_n = 0.5 * 2.0 / lipschitz
        cert_n = nids_constants(cell.mp, lipschitz, mu, alpha_n)
        states = islice(iterate("nids_dx", x0, alpha_n, cell.mp.w, cell.mp.wt,
                                cell.prob.grad), 501)
        rep_n = audit_nids(states, cell.mp, cert_n,
                           fixed_point(cell.prob, alpha_n))
        results.append((cell, cert_e, rep_e, cert_n, rep_n))
    return results


def test_criterion_1_extra_reformulation_equivalence(grid):
    with criterion(1, "two-step and (x, y) iterations coincide over 500 steps "
                      "on the 40-cell grid in under 5 s"):
        x0 = np.zeros((N, P))
        started = time.perf_counter()
        for cell in grid:
            alpha = (5.0 + 3.0 * cell.mp.w.lambda_min) / (4.0 * cell.prob.lipschitz)
            xs1, _ = trajectory("extra", x0, alpha, cell.mp.w, cell.mp.wt,
                                cell.prob.grad, 500)
            xs2, _ = trajectory("extra_xy", x0, alpha, cell.mp.w, cell.mp.wt,
                                cell.prob.grad, 500)
            gap = float(np.linalg.norm(xs1 - xs2, axis=(1, 2)).max())
            scale = 1.0 + float(np.linalg.norm(x0 - cell.prob.Xstar))
            assert gap <= 1e-9 * scale, (cell.seed, cell.mi, cell.relaxed, gap)
        elapsed = time.perf_counter() - started
        assert elapsed < 5.0, f"equivalence sweep took {elapsed:.2f} s"


def test_criterion_2_nids_reformulation_equivalence(grid):
    with criterion(2, "two-step and (d, x) iterations coincide over 500 steps "
                      "on the 40-cell grid in under 5 s"):
        x0 = np.zeros((N, P))
        started = time.perf_counter()
        for cell in grid:
            alpha = 2.0 / cell.prob.lipschitz
            xs1, _ = trajectory("nids", x0, alpha, cell.mp.w, cell.mp.wt,
                                cell.prob.grad, 500)
            xs2, _ = trajectory("nids_dx", x0, alpha, cell.mp.w, cell.mp.wt,
                                cell.prob.grad, 500)
            gap = float(np.linalg.norm(xs1 - xs2, axis=(1, 2)).max())
            scale = 1.0 + float(np.linalg.norm(x0 - cell.prob.Xstar))
            assert gap <= 1e-9 * scale, (cell.seed, cell.mi, cell.relaxed, gap)
        elapsed = time.perf_counter() - started
        assert elapsed < 5.0, f"equivalence sweep took {elapsed:.2f} s"


def test_criterion_3_trajectory_identity_audits(audited):
    with criterion(3, "norm equalities hold to 1e-9 and the key inequalities "
                      "plus the d-x connection never dip below -1e-8 slack"):
        # Given the connection, NIDS's equality (b) and norm-bound chain
        # identities reduce to pinv(I - w)(I - w) = I - 11^T/n.
        projector = np.eye(N) - np.full((N, N), 1.0 / N)
        for cell, _, rep_e, _, rep_n in audited:
            where = (cell.seed, cell.mi, cell.relaxed)
            assert rep_e.checks["norm_equality_rel_err"] <= 1e-9, where
            assert rep_e.checks["key_inequality_slack"] >= -1e-8, where
            assert rep_n.checks["equality_a_rel_err"] <= 1e-9, where
            assert rep_n.checks["connection_rel_err"] <= 1e-9, where
            assert np.abs(cell.mp.iw_pinv.a @ cell.mp.iw.a - projector).max() <= 1e-12, where
            assert rep_n.checks["key_inequality_slack"] >= -1e-8, where
            assert rep_n.checks["chain_slack"] >= -1e-8, where


def test_criterion_4_certified_contraction(audited):
    with criterion(4, "at half the stepsize bounds the contraction factors are "
                      "below one, the Lyapunov weights are PD, and no iteration "
                      "beats the certificate by more than 1e-8"):
        for cell, cert_e, rep_e, cert_n, rep_n in audited:
            where = (cell.seed, cell.mi, cell.relaxed)
            assert 0.0 < cert_e.rho < 1.0, where
            assert 0.0 < cert_n.rho < 1.0, where
            assert cert_e.p_mat.lambda_min >= -1e-10, where
            assert cert_e.q_mat.lambda_min >= -1e-10, where
            assert cert_n.pn_mat.lambda_min >= -1e-10, where
            ones = np.ones((N, 1)) / np.sqrt(N)
            deflated = SymMatrix(cert_n.q_mat.a + (ones @ ones.T), name="q deflated")
            assert deflated.lambda_min >= -1e-10, where
            assert rep_e.checks["contraction_slack"] >= -1e-8, where
            assert rep_n.checks["contraction_slack"] >= -1e-8, where
            for rep, rho in ((rep_e, cert_e.rho), (rep_n, cert_n.rho)):
                top, ratio = rep.lyapunov[0], ratio_column(rep)
                for k in range(1, rep.transitions):
                    if rep.lyapunov[k] > top * 1e-20 and ratio[k + 1] is not None:
                        assert ratio[k + 1] <= rho + 1e-8, (where, k)


def test_nids_chain_bound_holds_on_the_disagreement_space(audited):
    # The state-independent half of the audit's chain_slack: the r5 bound
    # r5 m_dec - chain_weight is positive definite on 1-perp at every cell,
    # and not at half of r5.
    basis = np.linalg.qr(np.eye(N) - np.full((N, N), 1.0 / N))[0][:, :N - 1]
    for cell, _, _, cert_n, _ in audited:
        mp = cell.mp
        m_dec = mp.mtilde.a + (mp.theta - mixing.THETA_LOWER - cert_n.r4) * np.eye(N)
        chain_weight = 4.0 * mp.iw_pinv.a - 4.0 * np.eye(N) + mp.iw.a
        np.linalg.cholesky(basis.T @ (cert_n.r5 * m_dec - chain_weight) @ basis)
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.cholesky(basis.T @ (0.5 * cert_n.r5 * m_dec - chain_weight) @ basis)


def test_criterion_5_stepsize_bound_table(grid):
    with criterion(5, "bound identities hold to 1e-12 and both algorithms reach "
                      "1e-8 within 5000 iterations at 0.99x their bounds"):
        for cell in grid:
            mp34 = mixing.validate(cell.mp.w, cell.mp.wt, cell.mp.graph, theta=0.75)
            b = stepsize_bounds(mp34, cell.prob.lipschitz, cell.prob.mu_fbar)
            assert abs(b["extra-new"] - b["extra-special"]) <= 1e-12, cell.seed
            assert b["nids"] == 0.2
        base = harness.resolve_scenario("fig1")[0]
        for seed in SEEDS:
            probe = dataclasses.replace(base, seed=seed, algo="extra",
                                        alpha="extra-special", label="probe",
                                        max_iters=5000, tol=1e-9)
            inst = harness.build_instance(probe)
            nids = harness.resolve_alpha(dataclasses.replace(probe, alpha="nids"),
                                         inst.mp, inst.prob)
            tr_e = harness.run(dataclasses.replace(probe, alpha=0.99 * inst.alpha))
            tr_n = harness.run(dataclasses.replace(probe, algo="nids", alpha=0.99 * nids))
            assert iterations_to(tr_e, 1e-8) is not None, seed
            assert iterations_to(tr_e, 1e-8) <= 5000, seed
            assert iterations_to(tr_n, 1e-8) is not None, seed
            assert iterations_to(tr_n, 1e-8) <= 5000, seed


def _tail_r2(tr):
    rows = [(k, r) for k, r in enumerate(tr.residuals) if r > 0.0]
    ks = np.array([k for k, _ in rows], dtype=float)
    logs = np.log(np.array([r for _, r in rows]))
    half = len(ks) // 2
    ks, logs = ks[half:], logs[half:]
    design = np.vstack([ks, np.ones_like(ks)]).T
    coeffs, *_ = np.linalg.lstsq(design, logs, rcond=None)
    pred = design @ coeffs
    return 1.0 - float(np.sum((logs - pred) ** 2) / np.sum((logs - logs.mean()) ** 2))


def test_criterion_6_figure_one_qualitative():
    with criterion(6, "network-independent stepsize wins the iteration count, "
                      "the widest proved stepsize beats the legacy one, and all "
                      "log-residual tails fit a line with R^2 >= 0.99"):
        wanted = ("nids_a4", "extra_a3", "extra_a1")
        configs = {c.label: c for c in harness.resolve_scenario("fig1")}
        traces = {label: harness.run(configs[label]) for label in wanted}
        counts = {label: iterations_to(traces[label], 1e-10) for label in wanted}
        assert all(v is not None for v in counts.values()), counts
        assert counts["nids_a4"] < counts["extra_a1"], counts
        assert counts["extra_a3"] < counts["extra_a1"], counts
        for label in wanted:
            r2 = _tail_r2(traces[label])
            assert r2 >= 0.99, (label, r2)


def test_criterion_7_relaxed_mixing_scenario():
    with criterion(7, "the relaxed line-topology mixing validates inside "
                      "(-5/3, 1] and speeds up the network-independent run"):
        g = graph.line(10)
        w = mixing.metropolis(g)
        w_new = mixing.relax(w, harness.RELAX_AGGRESSIVE)
        assert -5.0 / 3.0 < w_new.lambda_min < w.lambda_min
        wt = SymMatrix((np.eye(10) + w_new.a) / 2.0, name="w_tilde")
        mixing.validate(w_new, wt, g)  # raises on any violated assumption part
        by_label = {c.label: c for c in harness.resolve_scenario("relaxed-line")}
        plain = harness.run(by_label["nids_plain"])
        relaxed = harness.run(by_label["nids_relaxed"])
        assert plain.status == "converged" and relaxed.status == "converged"
        assert relaxed.alpha == 0.2
        assert iterations_to(relaxed, 1e-8) <= iterations_to(plain, 1e-8)


def test_criterion_8_oracle_checks(grid):
    with criterion(8, "eigensolver matches the characteristic-polynomial "
                      "bisection oracle, gradients match central differences, "
                      "and 1000 penalized-convexity samples show no violation"):
        third = Fraction(1, 3)
        w3 = [[2 * third, third, Fraction(0)],
              [third, third, third],
              [Fraction(0), third, 2 * third]]
        wt3 = [[(Fraction(1) + w3[i][j]) / 2 if i == j else w3[i][j] / 2
                for j in range(3)] for i in range(3)]
        rng = np.random.default_rng(6)
        ints = rng.integers(-16, 17, size=(3, 3))
        ints = ints + ints.T
        dyadic = [[Fraction(int(v), 16) for v in row] for row in ints]
        fixtures = [("line-3 weights", w3), ("line-3 half pair", wt3),
                    ("seeded dyadic", dyadic)]
        for name, exact in fixtures:
            dense = SymMatrix(np.array([[float(v) for v in row] for row in exact]),
                              name=name)
            expected = eigenvalues_by_bisection(exact)
            assert np.abs(dense.eigenvalues - np.array(expected)).max() <= 1e-9, name

        prob = problem.generate(N, P, 1, seed=harness.PRESET_SEED)
        h = 1e-6
        rng = np.random.default_rng(1)
        for i in range(prob.n):
            x = rng.standard_normal(P)
            v = rng.standard_normal(P)
            v /= np.linalg.norm(v)
            fd = (agent_value(prob, i, x + h * v) - agent_value(prob, i, x - h * v)) / (2 * h)
            assert abs(fd - float(agent_grad(prob, i, x) @ v)) <= 1e-5, i

        for cell in grid:
            if cell.seed != harness.PRESET_SEED or cell.relaxed:
                continue
            report = check_rsc(cell.prob, cell.mp, eta=0.5, samples=1000, seed=0)
            assert report.violations == 0, (cell.mi, report.min_slack)
            assert report.min_slack >= -1e-9, (cell.mi, report.min_slack)
