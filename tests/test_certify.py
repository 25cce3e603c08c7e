import collections
import dataclasses
import math
from itertools import islice

import numpy as np
import pytest
from oracles import audit_extra_reference, audit_nids_reference

from decon import certify, linalg, problem
from decon.algorithms import AlgoState, fixed_point, iterate
from decon.certify import (
    CertificateError,
    audit_extra,
    audit_nids,
    extra_constants,
    extra_rho,
    nids_constants,
    rho_special,
    search_extra_certificate,
    search_nids_certificate,
)
from decon.graph import line, random_connected
from decon.linalg import SymMatrix, wnorm_sq
from decon.mixing import metropolis, validate
from decon.problem import mu_g_value


def _half_pair(g, theta=None):
    w = metropolis(g)
    wt = SymMatrix((np.eye(g.n) + w.a) / 2.0, name="wt")
    return validate(w, wt, g, theta=theta)


def test_extra_golden_two_node_theta_08():
    # Smallest end-to-end instance, constants reproduced by direct arithmetic:
    # w eigenvalues {0, 1}, wt = (I+w)/2, theta = 0.8, L = 10, mu_fbar = 1.
    mp = _half_pair(line(2), theta=0.8)
    alpha = 0.06  # half of 2 * 0.6 / 10
    cert = extra_constants(mp, 10.0, 1.0, alpha)
    assert math.isinf(cert.r2)  # g = 0 on this pair
    assert cert.r1 == pytest.approx(0.2 / (4.0 * 0.04 * (0.5 / 0.6)), rel=1e-12)  # = 1.5
    assert cert.r3 == pytest.approx(1.5 / 2.5, rel=1e-12)  # r1 / (1 + r1) = 0.6
    assert cert.lam_max_wbar_m == pytest.approx(1.2, rel=1e-12)  # 0.6 * 2
    assert cert.xi == pytest.approx(0.0625, rel=1e-12)  # half of 0.6 / 4.8
    eta_upper = 0.6 * 0.0625 / (4 * alpha * 0.6 - 2 * alpha**2 * 10.0)
    assert cert.eta == pytest.approx(eta_upper / 2.0, rel=1e-12)  # = 0.2604166...
    mg = min(0.5, 1.0 * 1.0 / (1.0 + 1600.0) * cert.eta)
    assert cert.mu_g == pytest.approx(mg, rel=1e-12)
    factor = 2 * alpha - alpha**2 * 10.0 / 0.6
    assert cert.branches[0] == pytest.approx(1.0 - factor * mg, rel=1e-12)
    assert cert.branches[1] == pytest.approx(0.5, rel=1e-12)
    assert cert.branches[2] == pytest.approx(1.0 - (0.6 - 0.3) / (0.6 + 0.875 * 1.2), rel=1e-12)
    assert cert.rho == pytest.approx(max(cert.branches), rel=0)
    assert cert.rho < 1.0
    assert cert.special_case


def test_nids_golden_two_node_theta_09():
    mp = _half_pair(line(2), theta=0.9)
    cert = nids_constants(mp, 10.0, 1.0, 0.19)
    assert cert.r4 == pytest.approx(0.075, rel=1e-12)
    assert cert.r5 == pytest.approx(2.0, rel=0)  # lambda_max(I - w) = 1 < 2
    eta_upper = 1.0 / (0.19 * (2.0 - 1.9) * 2.0)
    assert cert.eta == pytest.approx(eta_upper / 2.0, rel=1e-12)  # = 13.1578...
    mg = min(0.5, cert.eta / 1601.0)
    assert cert.mu_g == pytest.approx(mg, rel=1e-12)
    assert cert.branches[0] == pytest.approx(1.0 - 0.19 * 0.1 * mg, rel=1e-12)
    assert cert.branches[1] == pytest.approx(0.5, rel=1e-12)
    assert cert.branches[2] == pytest.approx(1.0 - 0.3 / (2.0 - 0.5 + 0.15), rel=1e-12)
    assert cert.rho == pytest.approx(max(cert.branches), rel=0)
    assert cert.rho < 1.0
    # q is indefinite on the consensus line by design but PD where d lives.
    assert cert.q_mat.lambda_min < 0
    ones = np.ones((2, 1)) / np.sqrt(2.0)
    deflated = SymMatrix(cert.q_mat.a + (ones @ ones.T), name="defl")
    assert deflated.lambda_min > 0


def test_r5_boundary_value():
    # lambda_max(I - w) = 2 zeroes the second argument of the max, so r5 = 2.
    lam = 2.0
    r4 = 0.05
    assert max(2.0, (lam - 2.0) ** 2 / (2.0 - (0.75 + r4) * lam)) == 2.0


def test_rho3_degrades_as_alpha_vanishes():
    # At fixed eta the first branch 1 - a (2 - a L) mu_g climbs to 1 as the
    # stepsize vanishes (the default eta rescales with alpha, hiding this).
    mp = _half_pair(line(2), theta=0.9)
    rhos = [nids_constants(mp, 10.0, 1.0, a, eta=2.0).rho
            for a in (0.1, 0.02, 0.002, 0.0002)]
    assert all(np.diff(rhos) > 0)
    assert rhos[-1] > 1.0 - 1e-3


def test_xi_third_branch_monotone_and_limit():
    mp = _half_pair(random_connected(10, 0.5, 2))
    alpha = 0.5 * 2.0 * mp.wbar.lambda_min / 10.0
    base = extra_constants(mp, 10.0, 1.0, alpha)
    xi_upper = min(base.r3 / (4.0 * base.lam_max_wbar_m), 1.0)
    grid = np.linspace(1e-6, xi_upper * (1 - 1e-9), 40)
    thirds = [
        extra_rho(alpha, 10.0, base.lam_min_wbar, base.mu_g, base.eta, xi, base.r3,
                  base.lam_max_wbar_m)[1][2]
        for xi in grid
    ]
    assert all(np.diff(thirds) >= -1e-15)
    limit = 1.0 - base.r3 / (base.r3 + base.lam_max_wbar_m)
    assert thirds[0] == pytest.approx(limit, abs=1e-4)


def test_special_case_consistency_with_large_r2():
    # Forcing r2 = 1e9 in the generic three-branch factor must agree with the
    # spectral-gap form of the limit case to 1e-6.
    mp = _half_pair(random_connected(10, 0.5, 2), theta=0.9)
    alpha = 0.5 * 2.0 * mp.wbar.lambda_min / 10.0
    cert = extra_constants(mp, 10.0, 1.0, alpha)
    assert math.isinf(cert.r2) and not math.isinf(cert.r1)
    # identity lambda_max(wbar m) = (2 - theta beta) / beta when g = 0
    assert cert.lam_max_wbar_m == pytest.approx((2.0 - 0.9 * mp.beta) / mp.beta, rel=1e-10)
    r3_forced = 1.0 / (1.0 + 1.0 / cert.r1 + 1e-9)
    rho_forced, _ = extra_rho(alpha, 10.0, cert.lam_min_wbar, cert.mu_g, cert.eta,
                              cert.xi, r3_forced, cert.lam_max_wbar_m)
    rho_sp = rho_special(alpha, 10.0, 0.9, mp.lam_min_w, mp.beta, cert.mu_g,
                         cert.eta, cert.xi, cert.r3)
    assert rho_forced == pytest.approx(rho_sp, abs=1e-6)
    assert cert.rho == pytest.approx(rho_sp, rel=1e-12)


def test_double_limit_r3_is_one():
    mp = _half_pair(random_connected(10, 0.5, 2), theta=1.0)
    alpha = 0.5 * 2.0 * mp.wbar.lambda_min / 10.0
    cert = extra_constants(mp, 10.0, 1.0, alpha)
    assert math.isinf(cert.r1) and math.isinf(cert.r2)
    assert cert.r3 == 1.0
    assert cert.special_case and cert.rho < 1.0


def test_norm_over_range_space_bounds():
    rng = np.random.default_rng(8)
    for _ in range(30):
        n = int(rng.integers(2, 9))
        rank = int(rng.integers(1, n + 1))
        b = rng.standard_normal((n, rank))
        a = SymMatrix(b @ b.T, name="psd")
        nonzero = a.eigenvalues[a.eigenvalues > 1e-10 * a.lambda_max]
        lam_top, lam_bottom = float(nonzero[-1]), float(nonzero[0])
        x = a.a @ rng.standard_normal((n, 3))
        val = wnorm_sq(x, a.pinv())
        nrm = float(np.sum(x * x))
        assert lam_top**-1 * nrm - 1e-9 <= val <= lam_bottom**-1 * nrm + 1e-9


def test_certificate_errors_name_the_constant():
    mp = _half_pair(random_connected(10, 0.5, 2))
    bound = 2.0 * mp.wbar.lambda_min / 10.0
    with pytest.raises(CertificateError, match="stepsize"):
        extra_constants(mp, 10.0, 1.0, bound * 1.01)
    with pytest.raises(CertificateError, match="xi"):
        extra_constants(mp, 10.0, 1.0, 0.5 * bound, xi=5.0)
    with pytest.raises(CertificateError, match="eta"):
        extra_constants(mp, 10.0, 1.0, 0.5 * bound, eta=1e9)
    with pytest.raises(CertificateError, match="stepsize"):
        nids_constants(mp, 10.0, 1.0, 0.2)  # the upper bound itself is open
    with pytest.raises(CertificateError, match="r4"):
        nids_constants(mp, 10.0, 1.0, 0.1, r4=0.9)


def test_vacuous_at_theta_boundary():
    mp = _half_pair(random_connected(10, 0.5, 2), theta=0.75)
    with pytest.raises(CertificateError, match="vacuous"):
        extra_constants(mp, 10.0, 1.0, 0.01)
    with pytest.raises(CertificateError, match="vacuous"):
        nids_constants(mp, 10.0, 1.0, 0.1)


def _states(variant, mp, prob, alpha, steps):
    """The first steps + 1 states of the reformulated iteration from zero."""
    x0 = np.zeros((prob.n, prob.p))
    return islice(iterate(variant, x0, alpha, mp.w, mp.wt, prob.grad), steps + 1)


def _audit_extra_setup(mp, prob, alpha_frac=0.5, steps=500):
    alpha = alpha_frac * 2.0 * mp.wbar.lambda_min / prob.lipschitz
    cert = extra_constants(mp, prob.lipschitz, prob.mu_fbar, alpha)
    fp = fixed_point(prob, alpha)
    return cert, _states("extra_xy", mp, prob, alpha, steps), fp


def test_audit_extra_zero_violations_default_pair(prob1, rand10):
    _, mp = rand10
    cert, states, fp = _audit_extra_setup(mp, prob1)
    report = audit_extra(states, mp, cert, fp, prob1.grad)
    assert report.ok, report.violations[:3]
    assert report.checks["norm_equality_rel_err"] <= 1e-9
    assert report.checks["key_inequality_slack"] >= -1e-8
    assert report.checks["contraction_slack"] >= -1e-8


def test_audit_extra_zero_violations_generic_pair(prob1):
    g = random_connected(10, 0.5, 2)
    w = metropolis(g)
    wt = SymMatrix(0.3 * np.eye(10) + 0.7 * w.a, name="generic wt")
    mp = validate(w, wt, g, theta=0.9)
    cert, states, fp = _audit_extra_setup(mp, prob1)
    assert not cert.special_case and cert.r2 < math.inf and cert.r1 < math.inf
    report = audit_extra(states, mp, cert, fp, prob1.grad)
    assert report.ok, report.violations[:3]


def test_audit_extra_empirical_rate_at_most_certified(prob1, rand10):
    _, mp = rand10
    cert, states, fp = _audit_extra_setup(mp, prob1, steps=400)
    report = audit_extra(states, mp, cert, fp, prob1.grad)
    lyap = report.lyapunov
    keep = lyap > lyap[0] * 1e-22
    ks = np.arange(len(lyap))[keep]
    logs = np.log(lyap[keep])
    tail = slice(len(ks) // 4, None)
    slope = np.polyfit(ks[tail], logs[tail], 1)[0]
    assert slope <= math.log(cert.rho) + 1e-6


def test_audit_extra_fixed_point_trajectory_is_null(prob1, rand10):
    _, mp = rand10
    alpha = 0.5 * 2.0 * mp.wbar.lambda_min / prob1.lipschitz
    cert = extra_constants(mp, prob1.lipschitz, prob1.mu_fbar, alpha)
    fp = fixed_point(prob1, alpha)
    gstar = prob1.grad(fp.xstar)
    states = [AlgoState(k, fp.xstar, g_prev=gstar, y=fp.ystar)
              for k in range(6)]
    report = audit_extra(states, mp, cert, fp, prob1.grad)
    assert report.ok
    assert np.abs(report.lyapunov).max() <= 1e-18


def test_audit_nids_zero_violations(prob1, rand10):
    _, mp = rand10
    cert = nids_constants(mp, prob1.lipschitz, prob1.mu_fbar, 0.1)
    fp = fixed_point(prob1, 0.1)
    report = audit_nids(_states("nids_dx", mp, prob1, 0.1, 500), mp, cert, fp, prob1.grad)
    assert report.ok, report.violations[:3]
    for name in ("equality_a_rel_err", "equality_b_rel_err", "connection_rel_err",
                 "chain_rel_err"):
        assert report.checks[name] <= 1e-9
    for name in ("key_inequality_slack", "chain_slack", "contraction_slack"):
        assert report.checks[name] >= -1e-8


def test_audit_nids_fixed_point_trajectory_is_null(prob1, rand10):
    _, mp = rand10
    cert = nids_constants(mp, prob1.lipschitz, prob1.mu_fbar, 0.1)
    fp = fixed_point(prob1, 0.1)
    gstar = prob1.grad(fp.xstar)
    states = [AlgoState(k, fp.xstar, g_prev=gstar, d=fp.dstar)
              for k in range(5)]
    report = audit_nids(states, mp, cert, fp, prob1.grad)
    assert report.ok
    assert np.abs(report.lyapunov).max() <= 1e-18


def _beyond_classical_pair():
    """Two-node mixing matrix with lambda_min = -1.6, inside (-5/3, -1)."""
    a = -0.3
    w = SymMatrix([[a, 1.0 - a], [1.0 - a, a]], name="wide w")
    wt = SymMatrix((np.eye(2) + w.a) / 2.0, name="wt")
    return validate(w, wt, line(2))


def test_beyond_classical_spectrum_nids_certifies_and_converges():
    # The network-independent stepsize range (0, 2/L) survives a mixing
    # spectrum reaching below -1, and the r5 formula leaves its flat branch.
    mp = _beyond_classical_pair()
    assert mp.lam_min_w == pytest.approx(-1.6, abs=1e-12)
    prob = problem.generate(2, 2, 3, seed=9)
    cert = nids_constants(mp, prob.lipschitz, prob.mu_fbar, 0.19)
    assert cert.r5 > 2.0
    assert cert.rho < 1.0
    states = list(_states("nids_dx", mp, prob, 0.19, 3000))
    fp = fixed_point(prob, 0.19)
    res = np.linalg.norm(states[-1].x - fp.xstar) / np.linalg.norm(states[0].x - fp.xstar)
    assert res <= 1e-8
    report = audit_nids(states, mp, cert, fp, prob.grad)
    assert report.ok, report.violations[:3]


def test_beyond_classical_spectrum_extra_certifies():
    mp = _beyond_classical_pair()
    prob = problem.generate(2, 2, 3, seed=9)
    bound = 2.0 * mp.wbar.lambda_min / prob.lipschitz
    cert = extra_constants(mp, prob.lipschitz, prob.mu_fbar, 0.5 * bound)
    fp = fixed_point(prob, cert.alpha)
    report = audit_extra(_states("extra_xy", mp, prob, cert.alpha, 2000), mp, cert, fp,
                         prob.grad)
    assert report.ok, report.violations[:3]


def test_audit_near_boundary_stepsize(prob1):
    # theta just above 3/4 pushes the certified range within ~1% of the widest
    # proved stepsize; the contraction must still hold at 0.99x the bound.
    g = random_connected(10, 0.5, 2)
    w = metropolis(g)
    wt = SymMatrix((np.eye(10) + w.a) / 2.0, name="wt")
    mp = validate(w, wt, g, theta=0.76)
    bound = 2.0 * mp.wbar.lambda_min / prob1.lipschitz
    widest = (5.0 + 3.0 * mp.lam_min_w) / (4.0 * prob1.lipschitz)
    assert bound > 0.98 * widest
    alpha = 0.99 * bound
    cert = extra_constants(mp, prob1.lipschitz, prob1.mu_fbar, alpha)
    rep = audit_extra(_states("extra_xy", mp, prob1, alpha, 800), mp, cert,
                      fixed_point(prob1, alpha), prob1.grad)
    assert cert.rho < 1.0 and rep.ok, rep.violations[:3]
    alpha_n = 0.99 * 2.0 / prob1.lipschitz
    cert_n = nids_constants(mp, prob1.lipschitz, prob1.mu_fbar, alpha_n)
    rep_n = audit_nids(_states("nids_dx", mp, prob1, alpha_n, 800), mp, cert_n,
                       fixed_point(prob1, alpha_n), prob1.grad)
    assert cert_n.rho < 1.0 and rep_n.ok, rep_n.violations[:3]


def _assert_same_certificate(mine, theirs):
    """Every field equal: SymMatrix fields entry for entry, the rest exactly."""
    for field in dataclasses.fields(mine):
        a, b = getattr(mine, field.name), getattr(theirs, field.name)
        if isinstance(a, SymMatrix):
            assert np.array_equal(a.a, b.a), field.name
        else:
            assert a == b, field.name


def test_search_improves_or_matches_default(prob1, rand10, monkeypatch):
    _, mp = rand10
    alpha = 0.5 * 2.0 * mp.wbar.lambda_min / prob1.lipschitz
    default = extra_constants(mp, prob1.lipschitz, prob1.mu_fbar, alpha)
    best = search_extra_certificate(mp, prob1.lipschitz, prob1.mu_fbar, alpha, grid=4)
    assert best.rho <= default.rho + 1e-15
    default_n = nids_constants(mp, prob1.lipschitz, prob1.mu_fbar, 0.1)
    calls = collections.Counter()

    def counting(*args, **kwargs):
        calls["nids_constants"] += 1
        return nids_constants(*args, **kwargs)

    monkeypatch.setattr(certify, "nids_constants", counting)
    best_n = search_nids_certificate(mp, prob1.lipschitz, prob1.mu_fbar, 0.1, grid=4)
    monkeypatch.undo()
    assert best_n.rho <= default_n.rho + 1e-15
    # r5 depends on r4 alone: one probe per r4, then one certificate per (r4, eta).
    assert calls["nids_constants"] == 4 + 4 * 4
    _assert_same_certificate(best_n, nids_constants(mp, prob1.lipschitz, prob1.mu_fbar, 0.1,
                                                    r4=best_n.r4, eta=best_n.eta))


def _mismatched_streams(prob, mp):
    """(audit, oracle, states, pair, certificate, fixed point) per audit, each
    audited against a certificate that does not fit the stream."""
    g = random_connected(10, 0.5, 2)
    other = validate(mp.w, SymMatrix(0.3 * np.eye(10) + 0.7 * mp.w.a, name="generic wt"), g,
                     theta=0.9)
    alpha = 0.3 * 2.0 * mp.wbar.lambda_min / prob.lipschitz
    extra_cert = extra_constants(mp, prob.lipschitz, prob.mu_fbar, alpha)
    # The EXTRA stream runs on another mixing pair; the NIDS stream runs at a
    # stepsize almost four times the certified one.
    return [
        (audit_extra, audit_extra_reference, list(_states("extra_xy", other, prob, alpha, 600)),
         mp, extra_cert, fixed_point(prob, alpha)),
        (audit_nids, audit_nids_reference, list(_states("nids_dx", mp, prob, 0.19, 600)),
         mp, nids_constants(mp, prob.lipschitz, prob.mu_fbar, 0.05), fixed_point(prob, 0.05)),
    ]


def _assert_same_report(blocked, reference):
    assert (blocked.algorithm, blocked.transitions) == (reference.algorithm, reference.transitions)
    assert np.array_equal(blocked.lyapunov, reference.lyapunov)
    assert blocked.ratio == reference.ratio
    assert blocked.slack == reference.slack
    assert blocked.violations == reference.violations
    assert blocked.checks.keys() == reference.checks.keys()
    for name, value in reference.checks.items():
        assert blocked.checks[name] == pytest.approx(value, rel=1e-12, abs=1e-300), name


def test_blocked_audits_match_the_per_transition_oracle_on_certified_runs(prob1, rand10):
    _, mp = rand10
    cert, states, fp = _audit_extra_setup(mp, prob1, steps=600)
    states = list(states)
    report = audit_extra(states, mp, cert, fp, prob1.grad)
    assert report.ok and report.transitions == 600
    _assert_same_report(report, audit_extra_reference(states, mp, cert, fp, prob1.grad))
    cert = nids_constants(mp, prob1.lipschitz, prob1.mu_fbar, 0.19)
    fp = fixed_point(prob1, 0.19)
    states = list(_states("nids_dx", mp, prob1, 0.19, 600))
    report = audit_nids(states, mp, cert, fp, prob1.grad)
    assert report.ok and report.transitions == 600
    _assert_same_report(report, audit_nids_reference(states, mp, cert, fp, prob1.grad))


def test_blocked_audits_match_the_oracle_on_hundreds_of_violations(prob1, rand10):
    _, mp = rand10
    for audit, oracle, states, pair, cert, fp in _mismatched_streams(prob1, mp):
        report = audit(states, pair, cert, fp, prob1.grad)
        assert len(report.violations) >= 300, audit.__name__
        _assert_same_report(report, oracle(states, pair, cert, fp, prob1.grad))


@pytest.mark.parametrize("length", ["empty", "0", "1", "B-1", "B", "B+1"])
def test_blocked_audits_match_the_oracle_at_block_boundaries(length, prob1, rand10):
    # A stream of no states, or of that many transitions for the block length B.
    _, mp = rand10
    block = certify._BLOCK_ELEMENTS // (prob1.n * prob1.p)
    transitions = {"0": 0, "1": 1, "B-1": block - 1, "B": block, "B+1": block + 1}.get(length)
    for audit, oracle, states, pair, cert, fp in _mismatched_streams(prob1, mp):
        stream = [] if transitions is None else states[:transitions + 1]
        report = audit(stream, pair, cert, fp, prob1.grad)
        assert report.transitions == (transitions or 0)
        _assert_same_report(report, oracle(stream, pair, cert, fp, prob1.grad))


@pytest.mark.parametrize("variant", ["extra_xy", "nids_dx"])
def test_audits_flag_a_non_finite_state(variant, prob1, rand10):
    # Every check touching the NaN state is NaN, which compares false against
    # both tolerances; the audits must report it rather than pass it.
    _, mp = rand10
    if variant == "extra_xy":
        audit, oracle = audit_extra, audit_extra_reference
        alpha = 0.5 * 2.0 * mp.wbar.lambda_min / prob1.lipschitz
        cert = extra_constants(mp, prob1.lipschitz, prob1.mu_fbar, alpha)
    else:
        audit, oracle, alpha = audit_nids, audit_nids_reference, 0.1
        cert = nids_constants(mp, prob1.lipschitz, prob1.mu_fbar, alpha)
    fp = fixed_point(prob1, alpha)
    states = list(_states(variant, mp, prob1, alpha, 5))
    states[3] = states[3]._replace(x=np.full_like(states[3].x, np.nan))
    report = audit(states, mp, cert, fp, prob1.grad)
    assert report.ok is False and report.transitions == 5
    flagged = {message.split("k=")[1].split(":")[0] for message in report.violations}
    assert flagged == {"2", "3"}, report.violations
    assert report.violations == oracle(states, mp, cert, fp, prob1.grad).violations


@pytest.mark.parametrize("generic", [False, True])
def test_extra_search_decomposes_each_matrix_once(generic, prob1, monkeypatch):
    g = random_connected(10, 0.5, 2)
    w = metropolis(g)
    wt = 0.3 * np.eye(10) + 0.7 * w.a if generic else (np.eye(10) + w.a) / 2.0
    mp = validate(w, SymMatrix(wt, name="wt"), g)
    alpha = 0.5 * 2.0 * mp.wbar.lambda_min / prob1.lipschitz
    seen = collections.Counter()
    jacobi = linalg._jacobi_eigh

    def hashing(a, name):
        seen[a.tobytes()] += 1
        return jacobi(a, name)

    monkeypatch.setattr(linalg, "_jacobi_eigh", hashing)
    best = search_extra_certificate(mp, prob1.lipschitz, prob1.mu_fbar, alpha)
    assert seen and max(seen.values()) == 1
    monkeypatch.undo()
    fresh = extra_constants(validate(w, mp.wt, g, theta=best.theta), prob1.lipschitz,
                            prob1.mu_fbar, alpha, xi=best.xi, eta=best.eta)
    _assert_same_certificate(best, fresh)
