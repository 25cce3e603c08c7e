import collections
import dataclasses
import math
import weakref
from fractions import Fraction
from itertools import islice

import numpy as np
import pytest
from hypothesis import assume, given, reject, settings
from hypothesis import strategies as st
from oracles import (
    _Tally as TallyReference,
    audit_extra_reference,
    audit_nids_reference,
    disagreement_basis,
    exact,
    exact_contraction,
    half_pair,
    inv_reference,
    isqrt_reference,
    lam_iwt_reference,
    lambda_min_pos_reference,
    positive_definite,
    ratio_column,
    rho_special,
    search_extra_certificate,
    search_nids_certificate,
    sqrt_reference,
    wnorm_sq,
)

from decon import algorithms, certify, harness, linalg, problem
from decon.algorithms import AlgoState, fixed_point, iterate
from decon.certify import (
    EQ_TOL,
    INEQ_TOL,
    CertificateError,
    audit_extra,
    audit_nids,
    extra_constants,
    extra_rho,
    nids_constants,
)
from decon.graph import line, random_connected
from decon.linalg import SymMatrix
from decon.mixing import THETA_LOWER, metropolis, validate
from decon.problem import mu_g_value


@pytest.mark.parametrize("topology, n, relax_factor", [
    ("random", 10, 0.0), ("random", 50, 0.0), ("line", 55, 0.0), ("line", 80, 0.0),
    ("complete", 10, 0.0), ("random", 10, harness.RELAX_AGGRESSIVE),
    ("line", 10, harness.RELAX_MILD),
])
def test_spectral_rebuilds_match_the_per_eigenvalue_references(monkeypatch, topology, n,
                                                               relax_factor):
    # The w_bar powers the EXTRA certificate builds, and the pair's smallest
    # nonzero eigenvalue of I - w, keep the bits of the deleted rebuilds.
    cfg = harness.RunConfig(topology=topology, n=n, relax_factor=relax_factor)
    mp = harness.build_mixing(cfg, harness.build_graph(cfg))
    _assert_rebuilds_match_the_references(mp, monkeypatch)
    assert float(mp.iw.eigenvalues[1]) == lambda_min_pos_reference(mp.iw)


def test_spectral_rebuilds_match_the_references_on_a_pair_with_nonzero_g(monkeypatch):
    # w_tilde = 0.3 I + 0.7 w makes g = 0.4 (I - w) nonzero, so r2 is finite.
    g = random_connected(10, 0.5, 2)
    w = metropolis(g)
    mp = validate(w, SymMatrix(0.3 * np.eye(10) + 0.7 * w.a, name="generic wt"), g, theta=0.85)
    _assert_rebuilds_match_the_references(mp, monkeypatch)


def _assert_rebuilds_match_the_references(mp, monkeypatch):
    """Each w_bar power `extra_constants` builds has the bits of its reference,
    and all three are built, w_bar^-1/2 whether or not g is zero."""
    built = {}
    spectral_map = SymMatrix.spectral_map

    def spy(self, fn, name=None):
        built[name] = spectral_map(self, fn, name)
        return built[name]

    monkeypatch.setattr(SymMatrix, "spectral_map", spy)
    extra_constants(mp, 1.0, 0.5, mp.wbar.lambda_min)
    references = {"w_bar^-1/2": isqrt_reference, "w_bar^1/2": sqrt_reference,
                  "w_bar^-1": inv_reference}
    assert set(built) == set(references)
    for name in built:
        assert np.array_equal(built[name].a, references[name](mp.wbar).a), name


def test_extra_golden_two_node_theta_08():
    # Smallest end-to-end instance, constants reproduced by direct arithmetic:
    # w eigenvalues {0, 1}, wt = (I+w)/2, theta = 0.8, L = 10, mu_fbar = 1.
    mp = half_pair(line(2), theta=0.8)
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


def test_nids_golden_two_node_theta_09():
    mp = half_pair(line(2), theta=0.9)
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
    mp = half_pair(line(2), theta=0.9)
    rhos = [nids_constants(mp, 10.0, 1.0, a, eta=2.0).rho
            for a in (0.1, 0.02, 0.002, 0.0002)]
    assert all(np.diff(rhos) > 0)
    assert rhos[-1] > 1.0 - 1e-3


def test_xi_third_branch_monotone_and_limit():
    mp = half_pair(random_connected(10, 0.5, 2))
    alpha = 0.5 * 2.0 * mp.wbar.lambda_min / 10.0
    base = extra_constants(mp, 10.0, 1.0, alpha)
    xi_upper = min(base.r3 / (4.0 * base.lam_max_wbar_m), 1.0)
    grid = np.linspace(1e-6, xi_upper * (1 - 1e-9), 40)
    thirds = [
        extra_rho(alpha, 10.0, mp.wbar.lambda_min, base.mu_g, base.eta, xi, base.r3,
                  base.lam_max_wbar_m)[1][2]
        for xi in grid
    ]
    assert all(np.diff(thirds) >= -1e-15)
    limit = 1.0 - base.r3 / (base.r3 + base.lam_max_wbar_m)
    assert thirds[0] == pytest.approx(limit, abs=1e-4)


def test_special_case_consistency_with_large_r2():
    # Forcing r2 = 1e9 in the generic three-branch factor must agree with the
    # spectral-gap form of the limit case to 1e-6.
    mp = half_pair(random_connected(10, 0.5, 2), theta=0.9)
    alpha = 0.5 * 2.0 * mp.wbar.lambda_min / 10.0
    cert = extra_constants(mp, 10.0, 1.0, alpha)
    assert math.isinf(cert.r2) and not math.isinf(cert.r1)
    # identity lambda_max(wbar m) = (2 - theta beta) / beta when g = 0
    beta = 1.0 - mp.w.eigenvalues[-2]
    assert cert.lam_max_wbar_m == pytest.approx((2.0 - 0.9 * beta) / beta, rel=1e-10)
    r3_forced = 1.0 / (1.0 + 1.0 / cert.r1 + 1e-9)
    rho_forced, _ = extra_rho(alpha, 10.0, mp.wbar.lambda_min, cert.mu_g, cert.eta,
                              cert.xi, r3_forced, cert.lam_max_wbar_m)
    rho_sp = rho_special(alpha, 10.0, 0.9, mp.w.lambda_min, beta, cert.mu_g,
                         cert.eta, cert.xi, cert.r3)
    assert rho_forced == pytest.approx(rho_sp, abs=1e-6)
    assert cert.rho == pytest.approx(rho_sp, rel=1e-12)


def test_double_limit_r3_is_one():
    mp = half_pair(random_connected(10, 0.5, 2), theta=1.0)
    alpha = 0.5 * 2.0 * mp.wbar.lambda_min / 10.0
    cert = extra_constants(mp, 10.0, 1.0, alpha)
    assert math.isinf(cert.r1) and math.isinf(cert.r2)
    assert cert.r3 == 1.0
    assert cert.rho < 1.0


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
    mp = half_pair(random_connected(10, 0.5, 2))
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
    with pytest.raises(CertificateError, match="eta"):
        nids_constants(mp, 10.0, 1.0, 0.1, eta=1e9)

    # Each parameter's interval (0, upper) is open at both ends; a default is
    # the midpoint, so upper is twice it.
    extra = extra_constants(mp, 10.0, 1.0, 0.5 * bound)
    nids = nids_constants(mp, 10.0, 1.0, 0.1)
    builders = {
        "xi": (lambda v: extra_constants(mp, 10.0, 1.0, 0.5 * bound, xi=v), 2.0 * extra.xi),
        "eta": (lambda v: extra_constants(mp, 10.0, 1.0, 0.5 * bound, eta=v), 2.0 * extra.eta),
        "r4": (lambda v: nids_constants(mp, 10.0, 1.0, 0.1, r4=v), mp.theta - 0.75),
        "nids eta": (lambda v: nids_constants(mp, 10.0, 1.0, 0.1, eta=v), 2.0 * nids.eta),
    }
    assert extra.xi == builders["xi"][1] / 2.0 and nids.r4 == builders["r4"][1] / 2.0
    for name, (build, upper) in builders.items():
        for value in (0.0, upper):
            with pytest.raises(CertificateError,
                               match=f"^{name.split()[-1]} = .* outside its admissible "
                                     r"interval \(0, "):
                build(value)

    wide_iw = SymMatrix(np.diag(np.linspace(0.0, 2.5, mp.n)), name="I - w")
    with pytest.raises(CertificateError, match=r"theta \* lambda_max\(I - w\) = .* >= 2"):
        nids_constants(dataclasses.replace(mp, iw=wide_iw), 10.0, 1.0, 0.1)
    zero_m = SymMatrix(np.zeros((mp.n, mp.n)), name="zero")
    with pytest.raises(CertificateError, match=r"lambda_max\(w_bar m\) is not positive"):
        extra_constants(dataclasses.replace(mp, m=zero_m), 10.0, 1.0, 0.5 * bound)
    # lambda_min(w_bar) <= 1 at every theta the search tries, so 2/L is beyond
    # each of its ranges.
    with pytest.raises(CertificateError, match="no admissible certificate"):
        search_extra_certificate(mp, 10.0, 1.0, 0.2)
    with pytest.raises(CertificateError, match="no admissible certificate"):
        search_nids_certificate(mp, 10.0, 1.0, 0.2)


def test_extra_eta_interval_empty_by_rounding_is_a_named_error():
    # Below the stepsize bound 2 lambda_min(w_bar)/L, 4 a lambda_min - 2 a^2 L is
    # positive in exact arithmetic, but for the float just below the bound it
    # can round to <= 0: named, not a division by zero. Which pairs round so
    # rests on the eigensolver's bits of lambda_min, so the test searches for one.
    for seed in range(10):
        mp = half_pair(random_connected(10, 0.5, seed))
        lam = mp.wbar.lambda_min
        alpha = float(np.nextafter(2.0 * lam / 10.0, 0.0))
        if 4.0 * alpha * lam - 2.0 * alpha**2 * 10.0 <= 0.0:
            break
    else:
        pytest.fail("no pair of seeds 0-9 rounds the eta interval empty")
    with pytest.raises(CertificateError, match="eta interval is empty"):
        extra_constants(mp, 10.0, 1.0, alpha)


def _without_direction(mat: SymMatrix, v: np.ndarray, depth: float) -> SymMatrix:
    """mat pushed down by depth along the unit vector v."""
    return SymMatrix(mat.a - depth * np.outer(v, v), name=mat.name)


@pytest.mark.parametrize("field, checked", [
    ("h", "p"), ("m", "q"), ("mtilde", "q | Range(I - w)"), ("iw", "pn")])
def test_each_lyapunov_weight_guard_fires(field, checked, prob1, rand10, monkeypatch):
    # Push one derived matrix of the pair down along a disagreement direction,
    # far enough to make the Lyapunov weight built from it indefinite.
    _, mp = rand10
    v = np.zeros(mp.n)
    v[:2] = (1.0, -1.0)
    v /= np.linalg.norm(v)
    depth = 2.0 + np.linalg.norm(getattr(mp, field).a, 2) + 1.0 / mp.wbar.lambda_min
    bad = dataclasses.replace(mp, **{field: _without_direction(getattr(mp, field), v, depth)})
    checked_mats = []
    at_least = SymMatrix.lambda_min_at_least

    def spy(self, floor):
        checked_mats.append(self)
        return at_least(self, floor)

    monkeypatch.setattr(SymMatrix, "lambda_min_at_least", spy)
    if field in ("h", "m"):
        alpha = 0.5 * 2.0 * mp.wbar.lambda_min / prob1.lipschitz
        call = lambda: extra_constants(bad, prob1.lipschitz, prob1.mu_fbar, alpha)
    else:
        call = lambda: nids_constants(bad, prob1.lipschitz, prob1.mu_fbar, 0.1)
    with pytest.raises(CertificateError, match="is not positive definite") as err:
        call()
    failed = checked_mats[-1]
    assert failed.name == checked
    # The message names the matrix and reports its Jacobi lambda_min.
    assert str(err.value) == (f"{checked} is not positive definite "
                              f"(lambda_min = {failed.lambda_min:.3e})")
    lam = np.linalg.eigvalsh(failed.a)[0]
    assert failed.lambda_min < certify.PD_SLACK
    assert abs(failed.lambda_min - lam) <= 1e-12 * np.linalg.norm(failed.a, 2)


def _theta_below_one_pairs():
    """Pairs with theta < 1, where r1 is finite: a generic w_tilde, the
    half-way w_tilde and a relaxed line."""
    g = random_connected(10, 0.5, 2)
    w = metropolis(g)
    generic = SymMatrix(0.3 * np.eye(10) + 0.7 * w.a, name="generic wt")
    cfg = harness.RunConfig(topology="line", n=10, relax_factor=harness.RELAX_AGGRESSIVE)
    line_mp = harness.build_mixing(cfg, harness.build_graph(cfg))
    return [validate(w, generic, g, theta=0.85), half_pair(g, theta=0.9),
            validate(line_mp.w, line_mp.wt, line_mp.graph, theta=0.8)]


def test_r1_closed_form_matches_the_similarity_eigensolve(prob1, monkeypatch):
    for mp in _theta_below_one_pairs():
        assert mp.theta < 1.0
        lam, reference = certify._lam_max_iwt(mp), lam_iwt_reference(mp)
        assert abs(lam - reference) <= 1e-12 * abs(reference)
        alpha = 0.5 * 2.0 * mp.wbar.lambda_min / prob1.lipschitz
        cert = extra_constants(mp, prob1.lipschitz, prob1.mu_fbar, alpha)
        assert math.isfinite(cert.r1)
        with monkeypatch.context() as patch:
            patch.setattr(certify, "_lam_max_iwt", lam_iwt_reference)
            old = extra_constants(mp, prob1.lipschitz, prob1.mu_fbar, alpha)
        _assert_same_certificate(cert, old, rel=1e-12)


def test_vacuous_at_theta_boundary():
    # Both certificates need theta above the margin 3/4 + 1e-12 and name it,
    # with alpha in their range or outside it (1.0): theta is checked first.
    for theta in (0.75, math.nextafter(0.75, 1.0), 0.75 + 1e-12):
        mp = half_pair(random_connected(10, 0.5, 2), theta=theta)
        for constants, alpha in ((extra_constants, 0.01), (nids_constants, 0.1)):
            for stepsize in (alpha, 1.0):
                with pytest.raises(CertificateError, match="vacuous") as err:
                    constants(mp, 10.0, 1.0, stepsize)
                message = str(err.value)
                assert "3/4 + 1e-12" in message
                assert "pick theta > 3/4" not in message and "is empty" not in message


def test_a_unit_contraction_factor_is_refused(prob1):
    # Just above the theta margin, at half the extra-new bound, EXTRA's first
    # branch rounds to 1 and its third sits a hair below: the factor is 1.0.
    mp = half_pair(random_connected(10, 0.5, 2), theta=math.nextafter(0.75 + 1e-12, 1.0))
    alpha = 0.5 * algorithms.STEPSIZES["extra-new"](mp, prob1.lipschitz, prob1.mu_fbar)
    with pytest.raises(CertificateError) as err:
        extra_constants(mp, prob1.lipschitz, prob1.mu_fbar, alpha)
    assert str(err.value) == (f"vacuous certificate: contraction factor rho = 1 is not below 1, "
                              f"so it certifies no linear rate at stepsize {alpha}")
    # NIDS at the default pair: b1 = 1 - decay * mu_g rounds to 1 at 1e-16, not at 1e-15.
    mp = half_pair(random_connected(10, 0.5, 2))
    with pytest.raises(CertificateError, match="contraction factor rho = 1 is not below 1"):
        nids_constants(mp, prob1.lipschitz, prob1.mu_fbar, 1e-16)
    assert nids_constants(mp, prob1.lipschitz, prob1.mu_fbar, 1e-15).rho == 0.9999999999999996


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
    report = audit_extra(states, mp, cert, fp)
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
    assert cert.r2 < math.inf and cert.r1 < math.inf
    report = audit_extra(states, mp, cert, fp)
    assert report.ok, report.violations[:3]


def test_audit_extra_empirical_rate_at_most_certified(prob1, rand10):
    _, mp = rand10
    cert, states, fp = _audit_extra_setup(mp, prob1, steps=400)
    report = audit_extra(states, mp, cert, fp)
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
    states = [AlgoState(fp.xstar, g_prev=gstar, y=fp.ystar)] * 6
    report = audit_extra(states, mp, cert, fp)
    assert report.ok
    assert np.abs(report.lyapunov).max() <= 1e-18


def test_audit_nids_zero_violations(prob1, rand10):
    _, mp = rand10
    cert = nids_constants(mp, prob1.lipschitz, prob1.mu_fbar, 0.1)
    fp = fixed_point(prob1, 0.1)
    report = audit_nids(_states("nids_dx", mp, prob1, 0.1, 500), mp, cert, fp)
    assert report.ok, report.violations[:3]
    for name in ("equality_a_rel_err", "connection_rel_err"):
        assert report.checks[name] <= 1e-9
    for name in ("key_inequality_slack", "chain_slack", "contraction_slack"):
        assert report.checks[name] >= -1e-8


def test_certified_nids_run_on_a_long_line_graph_audits_clean():
    # A 60-agent line graph once failed mixing validation (m_tilde 1 != -theta 1);
    # its certified NIDS run must now validate, certify and audit clean.
    trace = harness.run(harness.RunConfig(topology="line", n=60, algo="nids", alpha=0.19,
                                          certify=True, max_iters=100))
    assert trace.audit.transitions == 100
    assert trace.audit.violations == []


@pytest.mark.parametrize("relax_factor", [0.0, harness.RELAX_AGGRESSIVE])
def test_nids_equalities_hold_on_an_ill_conditioned_line_at_a_small_stepsize(relax_factor):
    # Each side of equalities (a) and (b) is a sum of large products that
    # cancel. Measured against 1 + |a| + |b|, their round-off flagged 1,235
    # (plain) and 2,718 (relaxed) of these 3,000 clean transitions.
    trace = harness.run(harness.RunConfig(topology="line", n=30, p=5, mi=1, seed=2, algo="nids",
                                          alpha=2e-4, tol=1e-300, max_iters=3000, certify=True,
                                          relax_factor=relax_factor))
    assert trace.audit.transitions == 3000
    assert trace.audit.violations == []
    assert trace.audit.checks["equality_a_rel_err"] <= EQ_TOL


def test_audit_nids_fixed_point_trajectory_is_null(prob1, rand10):
    _, mp = rand10
    cert = nids_constants(mp, prob1.lipschitz, prob1.mu_fbar, 0.1)
    fp = fixed_point(prob1, 0.1)
    gstar = prob1.grad(fp.xstar)
    states = [AlgoState(fp.xstar, g_prev=gstar, d=fp.dstar)] * 5
    report = audit_nids(states, mp, cert, fp)
    assert report.ok
    assert np.abs(report.lyapunov).max() <= 1e-18


def _beyond_classical_pair():
    """Two-node mixing matrix with lambda_min = -1.6, inside (-5/3, -1)."""
    a = -0.3
    return half_pair(line(2), SymMatrix([[a, 1.0 - a], [1.0 - a, a]], name="wide w"))


def test_beyond_classical_spectrum_nids_certifies_and_converges():
    # The network-independent stepsize range (0, 2/L) survives a mixing
    # spectrum reaching below -1, and the r5 formula leaves its flat branch.
    mp = _beyond_classical_pair()
    assert mp.w.lambda_min == pytest.approx(-1.6, abs=1e-12)
    prob = problem.generate(2, 2, 3, seed=9)
    cert = nids_constants(mp, prob.lipschitz, prob.mu_fbar, 0.19)
    assert cert.r5 > 2.0
    assert cert.rho < 1.0
    states = list(_states("nids_dx", mp, prob, 0.19, 3000))
    fp = fixed_point(prob, 0.19)
    res = np.linalg.norm(states[-1].x - fp.xstar) / np.linalg.norm(states[0].x - fp.xstar)
    assert res <= 1e-8
    report = audit_nids(states, mp, cert, fp)
    assert report.ok, report.violations[:3]


def test_beyond_classical_spectrum_extra_certifies():
    mp = _beyond_classical_pair()
    prob = problem.generate(2, 2, 3, seed=9)
    bound = 2.0 * mp.wbar.lambda_min / prob.lipschitz
    cert = extra_constants(mp, prob.lipschitz, prob.mu_fbar, 0.5 * bound)
    fp = fixed_point(prob, cert.alpha)
    report = audit_extra(_states("extra_xy", mp, prob, cert.alpha, 2000), mp, cert, fp)
    assert report.ok, report.violations[:3]


def test_audit_near_boundary_stepsize(prob1):
    # theta just above 3/4 pushes the certified range within ~1% of the widest
    # proved stepsize; the contraction must still hold at 0.99x the bound.
    mp = half_pair(random_connected(10, 0.5, 2), theta=0.76)
    bound = 2.0 * mp.wbar.lambda_min / prob1.lipschitz
    widest = (5.0 + 3.0 * mp.w.lambda_min) / (4.0 * prob1.lipschitz)
    assert bound > 0.98 * widest
    alpha = 0.99 * bound
    cert = extra_constants(mp, prob1.lipschitz, prob1.mu_fbar, alpha)
    rep = audit_extra(_states("extra_xy", mp, prob1, alpha, 800), mp, cert,
                      fixed_point(prob1, alpha))
    assert cert.rho < 1.0 and rep.ok, rep.violations[:3]
    alpha_n = 0.99 * 2.0 / prob1.lipschitz
    cert_n = nids_constants(mp, prob1.lipschitz, prob1.mu_fbar, alpha_n)
    rep_n = audit_nids(_states("nids_dx", mp, prob1, alpha_n, 800), mp, cert_n,
                       fixed_point(prob1, alpha_n))
    assert cert_n.rho < 1.0 and rep_n.ok, rep_n.violations[:3]


def _assert_same_certificate(mine, theirs, rel: float = 0.0):
    """Every field equal to relative `rel` (by default exactly): SymMatrix
    fields in their largest entry, floats and tuples of floats entry for
    entry, the rest exactly."""
    for field in dataclasses.fields(mine):
        a, b = getattr(mine, field.name), getattr(theirs, field.name)
        if isinstance(a, SymMatrix):
            assert np.abs(a.a - b.a).max() <= rel * np.abs(b.a).max(), field.name
        elif isinstance(a, (float, tuple)):
            for x, y in zip(np.atleast_1d(a), np.atleast_1d(b), strict=True):
                assert math.isclose(x, y, rel_tol=rel, abs_tol=0.0), field.name
        else:
            assert a == b, field.name


def test_search_improves_or_matches_default(prob1, rand10, monkeypatch):
    _, mp = rand10
    alpha = 0.5 * 2.0 * mp.wbar.lambda_min / prob1.lipschitz
    default = extra_constants(mp, prob1.lipschitz, prob1.mu_fbar, alpha)
    _, best = search_extra_certificate(mp, prob1.lipschitz, prob1.mu_fbar, alpha, grid=4)
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


def _bits(column):
    """Each value's exact bits as text (every NaN as 'nan'), None kept."""
    return [None if v is None else float(v).hex() for v in column]


def _assert_same_report(blocked, reference):
    assert blocked.transitions == reference.transitions
    assert _bits(blocked.lyapunov) == _bits(reference.lyapunov)
    assert _bits(ratio_column(blocked)) == _bits(reference.ratio)
    assert _bits([None, *blocked.slack.tolist()]) == _bits(reference.slack)
    assert blocked.violations == reference.violations
    assert list(blocked.checks) == list(reference.checks)
    for name, value in reference.checks.items():
        assert blocked.checks[name] == pytest.approx(value, rel=1e-12, abs=1e-300), name


def test_blocked_audits_match_the_per_transition_oracle_on_certified_runs(prob1, rand10):
    _, mp = rand10
    cert, states, fp = _audit_extra_setup(mp, prob1, steps=600)
    states = list(states)
    report = audit_extra(states, mp, cert, fp)
    assert report.ok and report.transitions == 600
    _assert_same_report(report, audit_extra_reference(states, mp, cert, fp))
    cert = nids_constants(mp, prob1.lipschitz, prob1.mu_fbar, 0.19)
    fp = fixed_point(prob1, 0.19)
    states = list(_states("nids_dx", mp, prob1, 0.19, 600))
    report = audit_nids(states, mp, cert, fp)
    assert report.ok and report.transitions == 600
    _assert_same_report(report, audit_nids_reference(states, mp, cert, fp))


def test_blocked_audits_match_the_oracle_on_hundreds_of_violations(prob1, rand10):
    _, mp = rand10
    for audit, oracle, states, pair, cert, fp in _mismatched_streams(prob1, mp):
        report = audit(states, pair, cert, fp)
        assert len(report.violations) >= 300, audit.__name__
        _assert_same_report(report, oracle(states, pair, cert, fp))


_CHECKS_IN_RUN_ORDER = {
    audit_extra: ["x_update_rel_err", "norm_equality_rel_err", "key_inequality_slack",
                  "contraction_slack"],
    audit_nids: ["equality_a_rel_err", "connection_rel_err", "key_inequality_slack",
                 "chain_slack", "contraction_slack"],
}


@pytest.mark.parametrize("length", ["empty", "0", "1", "B-1", "B", "B+1"])
def test_blocked_audits_match_the_oracle_at_block_boundaries(length, prob1, rand10):
    # A stream of no states, or of that many transitions for the block length B.
    _, mp = rand10
    block = certify._BLOCK_ELEMENTS // (prob1.n * prob1.p)
    transitions = {"0": 0, "1": 1, "B-1": block - 1, "B": block, "B+1": block + 1}.get(length)
    for audit, oracle, states, pair, cert, fp in _mismatched_streams(prob1, mp):
        stream = [] if transitions is None else states[:transitions + 1]
        report = audit(stream, pair, cert, fp)
        assert report.transitions == (transitions or 0)
        # A check is listed once it has run, in the order a transition runs it.
        if transitions:
            assert list(report.checks) == _CHECKS_IN_RUN_ORDER[audit]
        else:
            assert report.checks == {}
        _assert_same_report(report, oracle(stream, pair, cert, fp))


@pytest.mark.parametrize("variant", ["extra_xy", "nids_dx"])
def test_audits_hold_one_block_of_states(variant, prob1, rand10):
    # Apart from one block, an audit keeps only packed columns: over a stream
    # of ten blocks, the states' x arrays alive at each pull stay below a
    # bound set by the block length B, not by the stream's length. Each state
    # also holds its predecessor's x as x_prev, and the iteration holds the
    # state it last yielded; the audit holds the block's opening state and up
    # to B new ones.
    _, mp = rand10
    block = certify._BLOCK_ELEMENTS // (prob1.n * prob1.p)
    if variant == "extra_xy":
        audit = audit_extra
        cert, states, fp = _audit_extra_setup(mp, prob1, steps=10 * block)
    else:
        audit = audit_nids
        cert = nids_constants(mp, prob1.lipschitz, prob1.mu_fbar, 0.19)
        states, fp = _states("nids_dx", mp, prob1, 0.19, 10 * block), fixed_point(prob1, 0.19)
    live, refs, counts = [0], [], []

    def collected(_ref):
        live[0] -= 1

    def watched():
        for state in states:
            live[0] += 1
            refs.append(weakref.ref(state.x, collected))
            counts.append(live[0])
            yield state

    report = audit(watched(), mp, cert, fp)
    assert report.ok and report.transitions == 10 * block == len(counts) - 1
    assert max(counts) <= block + 3


@pytest.mark.parametrize("pair", ["half", "generic"])
def test_blocked_extra_audit_matches_the_oracle_on_non_finite_and_huge_states(pair, prob1,
                                                                             rand10, monkeypatch):
    # 600 transitions are three blocks at n * p = 50. The second holds states
    # whose x has +-inf, NaN and +-1e200 entries, the third a state exactly at
    # the fixed point (h/m distance 0), the first neither. On the half pair g
    # is exactly zero and on the generic pair it is not; on both the audit
    # forms the key inequality's g term for all three blocks.
    _, mp = rand10
    if pair == "generic":
        mp = validate(mp.w, SymMatrix(0.3 * np.eye(10) + 0.7 * mp.w.a, name="generic wt"),
                      random_connected(10, 0.5, 2), theta=0.9)
    assert mp.g.a.any() == (pair == "generic")
    cert, states, fp = _audit_extra_setup(mp, prob1, steps=600)
    states = list(states)
    for k, entries in ((300, {(0, 0): math.inf}), (310, {(3, 2): -math.inf}),
                       (320, {(1, 1): math.nan}), (330, {(5, 4): 1e200}),
                       (340, {(2, 0): -1e200}), (350, {(7, 3): math.inf, (8, 3): -math.inf}),
                       (360, {(4, 1): 1e200, (9, 4): -1e200})):
        x = states[k].x.copy()
        for ij, value in entries.items():
            x[ij] = value
        states[k] = states[k]._replace(x=x)
    states[550] = states[550]._replace(x=fp.xstar.copy(), y=fp.ystar.copy())
    g_terms = []
    wsq = certify._wsq

    def counting(v, h):
        if h is mp.g.a:
            g_terms.append(len(v))
        return wsq(v, h)

    monkeypatch.setattr(certify, "_wsq", counting)
    with np.errstate(over="ignore", invalid="ignore"):
        report = audit_extra(states, mp, cert, fp)
        reference = audit_extra_reference(states, mp, cert, fp)
    block = certify._BLOCK_ELEMENTS // (prob1.n * prob1.p)
    assert g_terms == [block, block, 600 - 2 * block]
    assert not report.ok
    assert not any(f"k={k}:" in message for message in report.violations for k in range(290))
    _assert_same_report(report, reference)


_TALLY_EDGES = (EQ_TOL, math.nextafter(EQ_TOL, -math.inf), math.nextafter(EQ_TOL, math.inf),
                INEQ_TOL, math.nextafter(INEQ_TOL, -math.inf), math.nextafter(INEQ_TOL, math.inf),
                0.0, -0.0, math.nan, math.inf, -math.inf)
_tally_values = st.one_of(st.sampled_from(_TALLY_EDGES), st.floats())


@settings(max_examples=300, deadline=None, derandomize=True)
@given(blocks=st.lists(st.lists(st.tuples(_tally_values, _tally_values), min_size=1,
                                max_size=6), min_size=1, max_size=4))
def test_tally_keeps_the_per_transition_oracle_s_margins_and_messages(blocks):
    # Each block is (relative error, slack) per transition. `_flag` runs for
    # each check of every block, and the worst margins and the messages must
    # be the oracle's, fed one transition at a time.
    tally, reference = certify._Tally(), TallyReference()
    flagged, flag = [], tally._flag

    def recording(what, *args):
        flagged.append(what)
        flag(what, *args)

    tally._flag = recording
    k0, expected = 0, []
    for block in blocks:
        err, slack = (np.array(column) for column in zip(*block))
        tally.equality("eq", "equality", k0, err)
        tally.inequality("ineq", "inequality", k0, slack)
        tally.close_block()
        for k, (e, s) in enumerate(block, start=k0):
            reference.equality("eq", "equality", k, e)
            reference.inequality("ineq", "inequality", k, s)
        expected += ["equality", "inequality"]
        k0 += len(block)
    assert flagged == expected
    assert tally.worst == reference.worst
    assert tally.violations == reference.violations


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
    report = audit(states, mp, cert, fp)
    assert report.ok is False and report.transitions == 5
    flagged = {message.split("k=")[1].split(":")[0] for message in report.violations}
    assert flagged == {"2", "3"}, report.violations
    assert report.violations == oracle(states, mp, cert, fp).violations


@pytest.mark.parametrize("alpha", [1e-8, 1e-10])
def test_nids_connection_holds_on_a_clean_run_at_a_small_stepsize(alpha, prob1, rand10):
    # The d-x connection divides (I - w) x+ by 2 alpha. Read as
    # (I - w)(x+ - x*) it would also carry (I - w) x*, which is round-off of
    # about eps |x*| since x* is consensual, and the division lifts that past
    # EQ_TOL on every transition at these stepsizes.
    _, mp = rand10
    cert = nids_constants(mp, prob1.lipschitz, prob1.mu_fbar, alpha)
    states, fp = list(_states("nids_dx", mp, prob1, alpha, 200)), fixed_point(prob1, alpha)
    report = audit_nids(states, mp, cert, fp)
    assert report.ok and report.transitions == 200
    assert report.checks["connection_rel_err"] <= EQ_TOL
    _assert_same_report(report, audit_nids_reference(states, mp, cert, fp))


class _RecordingTally(certify._Tally):
    """`certify._Tally` that also records, for each flagged transition, the
    names of the checks that flag it."""

    def __init__(self):
        super().__init__()
        self.flagged_by = collections.defaultdict(set)

    def equality(self, name, *args):
        before = len(self._flagged)
        super().equality(name, *args)
        self._record(name, before)

    def inequality(self, name, *args):
        before = len(self._flagged)
        slack = super().inequality(name, *args)
        self._record(name, before)
        return slack

    def _record(self, name, before):
        for k, _ in self._flagged[before:]:
            self.flagged_by[k].add(name)


def _faulted_audit(variant, mp, prob, fault, monkeypatch):
    """The checks the audit registers, and {transition: names of the checks
    that flag it}, over 3,000 audited transitions from zero: NIDS at
    alpha = 0.19, EXTRA at 0.9 x extra-new. `fault` is None or one planted
    (kind, size): in the stepper ("alpha": its stepsize x (1 + size); "w": it
    steps with w + size (I - w)), in the certificate ("r4", "r5": that
    constant x size; "1-rho": the claimed 1 - rho x size), or in the fixed
    point ("xstar": x* + size, with d* and y* from it; "xstar0": x* + size on
    agent 0 alone, d* and y* kept). Everything else is the true instance."""
    extra = variant == "extra_xy"
    audit, constants = (audit_extra, extra_constants) if extra else (audit_nids, nids_constants)
    alpha = 0.9 * 2.0 * mp.wbar.lambda_min / prob.lipschitz if extra else 0.19
    cert, fp = constants(mp, prob.lipschitz, prob.mu_fbar, alpha), fixed_point(prob, alpha)
    kind, size = fault or (None, None)
    step_alpha, step_w = alpha, mp.w.a
    if kind == "alpha":
        step_alpha = alpha * (1.0 + size)
    elif kind == "w":
        step_w = step_w + size * (np.eye(mp.n) - step_w)
    elif kind in ("r4", "r5"):
        cert = dataclasses.replace(cert, **{kind: getattr(cert, kind) * size})
    elif kind == "1-rho":
        cert = dataclasses.replace(cert, rho=1.0 - (1.0 - cert.rho) * size)
    elif kind == "xstar":
        xstar = fp.xstar + size
        gstar = prob.grad(xstar)
        fp = algorithms.FixedPoint(xstar=xstar, ystar=alpha * gstar, dstar=-gstar)
    elif kind == "xstar0":
        xstar = fp.xstar.copy()
        xstar[0] += size
        fp = dataclasses.replace(fp, xstar=xstar)
    x0 = np.zeros((prob.n, prob.p))
    states = islice(iterate(variant, x0, step_alpha, step_w, mp.wt, prob.grad), 3001)
    tally = _RecordingTally()
    monkeypatch.setattr(certify, "_Tally", lambda: tally)
    report = audit(states, mp, cert, fp)
    return list(report.checks), tally.flagged_by


# (variant, instance, planted fault, the check that flags some transition
# no other check flags under it). The clean rows plant none and must flag
# nothing.
_COVERAGE = [
    ("nids_dx", "fig3-like", None, None),
    ("nids_dx", "line30", None, None),
    ("nids_dx", "line30", ("alpha", 1e-6), "equality_a_rel_err"),
    ("nids_dx", "fig3-like", ("xstar", 1e-3), "equality_a_rel_err"),
    ("nids_dx", "fig3-like", ("alpha", 1e-6), "connection_rel_err"),
    ("nids_dx", "fig3-like", ("w", 1e-4), "connection_rel_err"),
    ("nids_dx", "fig3-like", ("r4", 4.0), "key_inequality_slack"),
    ("nids_dx", "fig3-like", ("r5", 0.5), "chain_slack"),
    ("nids_dx", "fig3-like", ("1-rho", 1e4), "contraction_slack"),
    # An x* that is not consensual, which `fixed_point` never returns.
    ("nids_dx", "fig3-like", ("xstar0", 1e-3), "equality_a_rel_err"),
    ("extra_xy", "fig3-like", None, None),
    ("extra_xy", "fig3-like", ("alpha", 1e-6), "x_update_rel_err"),
    ("extra_xy", "fig3-like", ("w", 1e-4), "norm_equality_rel_err"),
    ("extra_xy", "fig3-like", ("xstar", 1e-3), "key_inequality_slack"),
    ("extra_xy", "fig3-like", ("1-rho", 1e5), "contraction_slack"),
]


@pytest.fixture(scope="module")
def line30():
    """The 30-agent line with p = 5, m_i = 1, seed 2: (mp, prob)."""
    return half_pair(line(30)), problem.generate(30, 5, 1, seed=2)


@pytest.mark.parametrize("variant, instance, fault, check", _COVERAGE, ids=[
    f"{variant}-{instance}-" + (f"{fault[0]} {fault[1]:g}-{check}" if fault else "clean")
    for variant, instance, fault, check in _COVERAGE])
def test_each_audit_check_flags_a_transition_no_other_check_flags(
        variant, instance, fault, check, prob10, rand10, line30, monkeypatch):
    # The coverage matrix of both audits: a check that flags only what other
    # checks flag costs time and code for nothing. A clean run flags nothing,
    # and every check the audit registers is named by a row of _COVERAGE.
    mp, prob = {"fig3-like": (rand10[1], prob10), "line30": line30}[instance]
    checks, flagged_by = _faulted_audit(variant, mp, prob, fault, monkeypatch)
    if fault is None:
        assert flagged_by == {}
        assert set(checks) == {row[3] for row in _COVERAGE if row[0] == variant and row[3]}
    else:
        alone = collections.Counter(next(iter(names)) for names in flagged_by.values()
                                    if len(names) == 1)
        assert alone[check] > 0, dict(alone)


@pytest.mark.parametrize("variant", ["extra_xy", "nids_dx"])
def test_ratio_and_slack_cells_match_the_oracle_at_zero_and_nan_lyapunov(variant, prob1, rand10,
                                                                         tmp_path):
    # State 1 sits exactly at the fixed point, so L_1 = 0 and row 2 has no
    # ratio; state 3 is NaN, so row 3's ratio is NaN after a positive L_2, row 4
    # has none after a NaN L_3, and both transitions' slacks are NaN.
    _, mp = rand10
    if variant == "extra_xy":
        audit, oracle, aux = audit_extra, audit_extra_reference, "y"
        alpha = 0.5 * 2.0 * mp.wbar.lambda_min / prob1.lipschitz
        cert = extra_constants(mp, prob1.lipschitz, prob1.mu_fbar, alpha)
    else:
        audit, oracle, aux, alpha = audit_nids, audit_nids_reference, "d", 0.1
        cert = nids_constants(mp, prob1.lipschitz, prob1.mu_fbar, alpha)
    fp = fixed_point(prob1, alpha)
    origin = fp.ystar if aux == "y" else fp.dstar
    states = list(_states(variant, mp, prob1, alpha, 6))
    states[1] = states[1]._replace(x=fp.xstar.copy(), **{aux: origin.copy()})
    states[3] = states[3]._replace(x=np.full_like(states[3].x, np.nan))
    report = audit(states, mp, cert, fp)
    ref = oracle(states, mp, cert, fp)
    assert _bits(ratio_column(report)) == _bits(ref.ratio)
    assert _bits([None, *report.slack.tolist()]) == _bits(ref.slack)
    trace = harness.Trace(algo=variant, alpha=alpha, residuals=[1.0] * len(states), audit=report)
    path = tmp_path / "t.csv"
    harness.write_csv(trace, str(path))
    rows = [line.split(",") for line in path.read_text().splitlines()[1:]]
    cells = [["" if v is None else f"{v:.17g}" for v in column]
             for column in (ref.ratio, ref.slack)]
    assert [[r[5] for r in rows], [r[6] for r in rows]] == cells
    assert [r[5] for r in rows[:5]] == ["", "0", "", "nan", ""]
    assert rows[3][6] == rows[4][6] == "nan"


@pytest.mark.parametrize("generic", [False, True])
def test_extra_search_decomposes_each_matrix_once(generic, prob1, monkeypatch):
    g = random_connected(10, 0.5, 2)
    w = metropolis(g)
    mp = (validate(w, SymMatrix(0.3 * np.eye(10) + 0.7 * w.a, name="wt"), g) if generic
          else half_pair(g))
    alpha = 0.5 * 2.0 * mp.wbar.lambda_min / prob1.lipschitz
    seen = collections.Counter()
    for solver in ("_jacobi_eigh", "_lapack_eigh"):
        def hashing(mats, names, _solve=getattr(linalg, solver)):
            seen.update(a.tobytes() for a in mats)
            return _solve(mats, names)

        monkeypatch.setattr(linalg, solver, hashing)
    pair, best = search_extra_certificate(mp, prob1.lipschitz, prob1.mu_fbar, alpha)
    assert seen and max(seen.values()) == 1
    monkeypatch.undo()
    fresh = extra_constants(validate(w, mp.wt, g, theta=pair.theta), prob1.lipschitz,
                            prob1.mu_fbar, alpha, xi=best.xi, eta=best.eta)
    _assert_same_certificate(best, fresh)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(data=st.data(), n=st.integers(3, 10), p=st.integers(1, 4),
       topology=st.sampled_from(("random", "line", "complete")),
       relax_factor=st.sampled_from((0.0, 0.1, 0.3, 1.0 / 3.0 - 1e-3)),
       algo_bound=st.sampled_from((("nids", "nids"), ("extra", "extra-new"))),
       fraction=st.floats(0.05, 0.999), seed=st.integers(0, 2**16))
def test_certified_runs_on_random_instances_audit_clean(data, n, p, topology, relax_factor,
                                                        algo_bound, fraction, seed):
    # Any certified stepsize on any instance: every audited transition of the
    # run satisfies the paper's identities and inequalities at unchanged tolerances.
    mi = data.draw(st.integers(1, p + 2), label="mi")
    algo, bound = algo_bound
    config = harness.RunConfig(topology=topology, n=n, p=p, mi=mi, seed=seed,
                               relax_factor=relax_factor, algo=algo, certify=True,
                               max_iters=400, tol=1e-300)
    try:
        alpha = fraction * harness.build_instance(dataclasses.replace(config, alpha=bound)).alpha
    except problem.ProblemError:
        reject()
    trace = harness.run(dataclasses.replace(config, alpha=alpha))
    assert trace.audit.transitions == len(trace.residuals) - 1
    assert trace.audit.violations == []


# The small random instances (edge probability 0.6, seed 2) on which each
# certificate is proved in exact arithmetic: (n, p, m_i), and the first factor
# f in _PLANTED by which a claimed 1 - rho, made f times larger, no longer holds.
_EXACT_CELLS = {(4, 1, 1): {"nids": 30, "extra": 1e3},
                (5, 2, 2): {"nids": 1e3, "extra": 1e4},
                (6, 2, 1): {"nids": 1e3, "extra": 1e4}}
_PLANTED = (3, 30, 1e3, 1e4)


@pytest.fixture(scope="module")
def exact_cells():
    """Per cell of _EXACT_CELLS, (mp, {variant: (cert, exact claim)}), NIDS at
    1.9/L and EXTRA at 0.9 x extra-new."""
    cells = {}
    for n, p, mi in _EXACT_CELLS:
        mp = half_pair(random_connected(n, 0.6, 2))
        prob = problem.generate(n, p, mi, seed=2)
        lip, mu = prob.lipschitz, prob.mu_fbar
        certs = {"nids": nids_constants(mp, lip, mu, 1.9 / lip),
                 "extra": extra_constants(mp, lip, mu,
                                          0.9 * algorithms.STEPSIZES["extra-new"](mp, lip, mu))}
        cells[n, p, mi] = mp, {variant: (cert, exact_contraction(variant, mp, prob, cert))
                               for variant, cert in certs.items()}
    return cells


def test_exact_arithmetic_proves_both_certificates_on_small_instances(exact_cells):
    # V is a norm on the invariant subspace S, and V(T e) <= rho V(e) for every
    # e in S, not only for the states a run visits: proved with Fractions,
    # through the public operators and step.
    for where, (_, claims) in exact_cells.items():
        for variant, (cert, claim) in claims.items():
            assert claim.norm(), (where, variant)
            assert claim.holds(cert.rho), (where, variant)


def test_exact_check_fails_at_the_break_even_factor(exact_cells):
    # The exact check can fail: a claimed 1 - rho made f times larger fails at
    # the first f of _PLANTED above the cell's break-even factor
    # (1 - |T|_V^2)/(1 - rho_cert), and holds at the f before it. Since G0 > 0
    # (proved above), a claim that holds at f holds at every smaller f, so
    # every cell holds at f = 3.
    for where, (_, claims) in exact_cells.items():
        for variant, (cert, claim) in claims.items():
            first = _EXACT_CELLS[where][variant]
            last = _PLANTED[_PLANTED.index(first) - 1]
            assert claim.holds(1.0 - last * (1.0 - cert.rho)), (where, variant, last)
            assert not claim.holds(1.0 - first * (1.0 - cert.rho)), (where, variant, first)


def test_nids_chain_bound_holds_exactly_on_the_disagreement_space(exact_cells):
    # The state-independent half of the NIDS audit's chain_slack, from the
    # float matrices audit_nids builds: Q^T (r5 m_dec - chain_weight) Q > 0
    # exactly, with Q the basis e_i - e_n of 1-perp, and not at half of r5.
    for where, (mp, claims) in exact_cells.items():
        cert = claims["nids"][0]
        eye = np.eye(mp.n)
        m_dec = exact(mp.mtilde.a + (mp.theta - THETA_LOWER - cert.r4) * eye)
        chain_weight = exact(4.0 * mp.iw_pinv.a - 4.0 * eye + mp.iw.a)
        q = disagreement_basis(mp.n)
        for r5, holds in ((cert.r5, True), (0.5 * cert.r5, False)):
            bound = q.T @ (Fraction(r5) * m_dec - chain_weight) @ q
            assert positive_definite(bound) is holds, (where, r5)


@settings(max_examples=16, deadline=None, derandomize=True)
@given(data=st.data(), p=st.integers(1, 4),
       topology=st.sampled_from(("random", "line", "complete")),
       relax_factor=st.sampled_from((0.0, 0.1, 0.3, harness.RELAX_AGGRESSIVE)),
       algo_bound=st.sampled_from((("nids", "nids"), ("extra", "extra-new"))),
       fraction=st.floats(0.05, 0.999), seed=st.integers(0, 2**16))
def test_exact_arithmetic_proves_both_certificates_on_random_small_instances(
        data, p, topology, relax_factor, algo_bound, fraction, seed):
    # The certified-run families above, cut to dim S = (2n - 1) p <= 22: every
    # certificate that can be built is proved on all of S in exact arithmetic.
    n = data.draw(st.integers(3, (22 // p + 1) // 2), label="n")
    mi = data.draw(st.integers(1, p + 2), label="mi")
    assume(n * mi >= p)
    algo, bound = algo_bound
    inst = harness.build_instance(harness.RunConfig(
        topology=topology, n=n, p=p, mi=mi, seed=seed, relax_factor=relax_factor, algo=algo,
        alpha=bound))
    prob = inst.prob
    try:
        cert = certify.certify(algo)[1](inst.mp, prob.lipschitz, prob.mu_fbar,
                                        fraction * inst.alpha)
    except CertificateError:
        assume(False)
    claim = exact_contraction(algo, inst.mp, prob, cert)
    assert claim.norm()
    assert claim.holds(cert.rho)
