"""Contraction certificates and per-iteration trajectory audits.

For each algorithm this module computes every constant appearing in its
Q-linear convergence guarantee (coupling coefficients r1..r5, the small
parameters xi / eta / r4, the contraction factor, and the Lyapunov weight
matrices), then audits trajectories in one pass: the proved equalities must hold
to relative 1e-9 and the proved inequalities, including the Lyapunov
contraction itself, must hold with slack no worse than -1e-8 scaled by the
current Lyapunov value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import SymMatrix, wdot, wnorm_sq
from .mixing import MixingPair, MixingValidationError, theta_default, validate
from .problem import mu_g_value

__all__ = [
    "CertificateError",
    "ExtraCertificate",
    "NidsCertificate",
    "AuditReport",
    "extra_constants",
    "nids_constants",
    "extra_rho",
    "rho_special",
    "audit_extra",
    "audit_nids",
    "search_extra_certificate",
    "search_nids_certificate",
]

# Relative tolerance for proved equalities along a trajectory.
EQ_TOL = 1e-9
# Normalized slack floor for proved inequalities (scaled by 1 + Lyapunov).
INEQ_TOL = -1e-8
# Eigenvalue slack accepted when asserting the Lyapunov weights are PD.
PD_SLACK = -1e-10

_THETA_BOUNDARY = 0.75 + 1e-12


class CertificateError(ValueError):
    """A certificate constant could not be produced (bad stepsize or empty interval)."""


@dataclass(frozen=True)
class ExtraCertificate:
    """Constants certifying Q-linear contraction of the (x, y) iteration."""

    r1: float
    r2: float
    r3: float
    xi: float
    eta: float
    mu_g: float
    rho: float
    branches: tuple[float, float, float]
    p_mat: SymMatrix
    q_mat: SymMatrix
    special_case: bool
    alpha: float
    theta: float
    lam_min_wbar: float
    lam_max_wbar_m: float


@dataclass(frozen=True)
class NidsCertificate:
    """Constants certifying Q-linear contraction of the (d, x) iteration."""

    r4: float
    r5: float
    eta: float
    mu_g: float
    rho3: float
    branches: tuple[float, float, float]
    q_mat: SymMatrix
    pn_mat: SymMatrix
    alpha: float
    theta: float


def _lam_max_similar(left: np.ndarray, middle: np.ndarray, name: str) -> float:
    """lambda_max(left @ middle @ left) for symmetric factors (similarity trick)."""
    return SymMatrix(left @ middle @ left, name=name).lambda_max


def extra_rho(alpha: float, lipschitz: float, lam_min_wbar: float, mu_g: float,
              eta: float, xi: float, r3: float, lam_max_wbar_m: float,
              ) -> tuple[float, tuple[float, float, float]]:
    """Three-branch contraction factor for the (x, y) iteration."""
    factor = 2.0 * alpha - alpha**2 * lipschitz / lam_min_wbar
    b1 = 1.0 - factor * mu_g
    b2 = 2.0 * factor * eta / xi
    b3 = 1.0 - (r3 - 4.0 * xi * lam_max_wbar_m) / (r3 + (1.0 - 2.0 * xi) * lam_max_wbar_m)
    return max(b1, b2, b3), (b1, b2, b3)


def rho_special(alpha: float, lipschitz: float, theta: float, lam_min_w: float,
                beta: float, mu_g: float, eta: float, xi: float, r3: float) -> float:
    """Contraction factor in the two limit cases (theta = 1 or wt = (I+w)/2),

    written directly in terms of the spectral gap beta = 1 - lambda_2(w).
    """
    denom = 2.0 - theta + theta * lam_min_w
    b1 = 1.0 - (2.0 * alpha - 2.0 * alpha**2 * lipschitz / denom) * mu_g
    b2 = (4.0 * alpha - 4.0 * alpha**2 * lipschitz / denom) * eta / xi
    b3 = 1.0 - (beta * r3 - 4.0 * xi * (2.0 - theta * beta)) \
        / (beta * r3 + (1.0 - 2.0 * xi) * (2.0 - theta * beta))
    return max(b1, b2, b3)


def extra_constants(mp: MixingPair, lipschitz: float, mu_fbar: float, alpha: float,
                    xi: float | None = None, eta: float | None = None) -> ExtraCertificate:
    """Full certificate for the (x, y) iteration at stepsize alpha.

    xi and eta default to the midpoints of their admissible open intervals;
    the restricted-strong-convexity modulus is evaluated at the chosen eta.
    The limits theta = 1 (r1 infinite) and g = 0 (r2 infinite) are folded into
    r3 = 1 / (1 + 1/r1 + 1/r2).
    """
    theta = mp.theta
    if theta <= _THETA_BOUNDARY:
        raise CertificateError(
            f"vacuous certificate: theta = {theta} leaves r1 <= 0; pick theta > 3/4"
        )
    lam_min_wbar = mp.wbar.lambda_min
    bound = 2.0 * lam_min_wbar / lipschitz
    if not 0.0 < alpha < bound:
        raise CertificateError(
            f"stepsize {alpha} outside the certified range (0, {bound:.6g}) "
            f"= (0, 2 lambda_min(w_bar)/L), open at the bound named extra-new; extra-special, "
            f"its theta -> 3/4 limit when w_tilde = (I + w)/2, is never certified"
        )

    eye = np.eye(mp.n)
    isq = mp.wbar.isqrt().a
    sq = mp.wbar.sqrt().a

    lam_iwt = _lam_max_similar(isq, eye - mp.wt.a, "wbar^-1 (I - w_tilde)")
    if theta >= 1.0 - 1e-12 or lam_iwt <= 1e-14:
        r1 = math.inf
    else:
        r1 = (4.0 * theta - 3.0) / (4.0 * (1.0 - theta) ** 2 * lam_iwt)
    lam_g = _lam_max_similar(isq, mp.g.a, "g wbar^-1")
    r2 = math.inf if lam_g <= 1e-12 else 1.0 / (2.0 * lam_g)
    r3 = 1.0 / (1.0 + (0.0 if math.isinf(r1) else 1.0 / r1)
                + (0.0 if math.isinf(r2) else 1.0 / r2))

    lam_wbar_m = _lam_max_similar(sq, mp.m.a, "wbar m")
    if lam_wbar_m <= 0.0:
        raise CertificateError("lambda_max(w_bar m) is not positive; mixing pair is degenerate")
    xi_upper = min(r3 / (4.0 * lam_wbar_m), 1.0)
    if xi is None:
        xi = xi_upper / 2.0
    elif not 0.0 < xi < xi_upper:
        raise CertificateError(f"xi = {xi} outside its admissible interval (0, {xi_upper:.6g})")

    eta_denom = 4.0 * alpha * lam_min_wbar - 2.0 * alpha**2 * lipschitz
    if eta_denom <= 0.0:
        raise CertificateError(
            f"eta interval is empty: 4 a lambda_min(w_bar) - 2 a^2 L = {eta_denom:.6g} <= 0"
        )
    eta_upper = lam_min_wbar * xi / eta_denom
    if eta is None:
        eta = eta_upper / 2.0
    elif not 0.0 < eta < eta_upper:
        raise CertificateError(f"eta = {eta} outside its admissible interval (0, {eta_upper:.6g})")

    mu_g = mu_g_value(mu_fbar, lipschitz, mp.lam_min_pos_iw, eta)
    rho, branches = extra_rho(alpha, lipschitz, lam_min_wbar, mu_g, eta, xi, r3, lam_wbar_m)

    p_mat = SymMatrix(mp.h.a + 0.5 * xi * mp.iw.a, name="p")
    q_mat = SymMatrix(
        mp.m.a + (r3 - 2.0 * xi * lam_wbar_m) * mp.wbar.inv().a, name="q"
    )
    for mat in (p_mat, q_mat):
        if mat.lambda_min < PD_SLACK:
            raise CertificateError(
                f"{mat.name} is not positive definite (lambda_min = {mat.lambda_min:.3e})"
            )
    return ExtraCertificate(
        r1=r1, r2=r2, r3=r3, xi=xi, eta=eta, mu_g=mu_g, rho=rho, branches=branches,
        p_mat=p_mat, q_mat=q_mat, special_case=math.isinf(r1) or math.isinf(r2),
        alpha=alpha, theta=theta, lam_min_wbar=lam_min_wbar, lam_max_wbar_m=lam_wbar_m,
    )


def nids_constants(mp: MixingPair, lipschitz: float, mu_fbar: float, alpha: float,
                   r4: float | None = None, eta: float | None = None) -> NidsCertificate:
    """Full certificate for the (d, x) iteration at stepsize alpha in (0, 2/L)."""
    if not 0.0 < alpha < 2.0 / lipschitz:
        raise CertificateError(
            f"stepsize {alpha} outside the certified range (0, {2.0 / lipschitz:.6g}) = (0, 2/L)"
        )
    theta = mp.theta
    if theta <= _THETA_BOUNDARY:
        raise CertificateError(
            f"vacuous certificate: the r4 interval (0, theta - 3/4) is empty at theta = {theta}"
        )
    if theta * mp.lam_max_iw >= 2.0 - 1e-12:
        raise CertificateError(
            f"I - theta (I - w)/2 is not positive definite: theta * lambda_max(I - w) "
            f"= {theta * mp.lam_max_iw:.6g} >= 2"
        )
    if r4 is None:
        r4 = (theta - 0.75) / 2.0
    elif not 0.0 < r4 < theta - 0.75:
        raise CertificateError(
            f"r4 = {r4} outside its admissible interval (0, {theta - 0.75:.6g})"
        )

    lam_iw = mp.lam_max_iw
    r5_denom = 2.0 - (0.75 + r4) * lam_iw
    if r5_denom <= 0.0:
        raise CertificateError(f"r5 denominator 2 - (3/4 + r4) lambda_max(I - w) = {r5_denom:.6g} <= 0")
    r5 = max(2.0, (lam_iw - 2.0) ** 2 / r5_denom)

    eta_upper = 1.0 / (alpha * (2.0 - alpha * lipschitz) * r5)
    if eta is None:
        eta = eta_upper / 2.0
    elif not 0.0 < eta < eta_upper:
        raise CertificateError(f"eta = {eta} outside its admissible interval (0, {eta_upper:.6g})")

    mu_g = mu_g_value(mu_fbar, lipschitz, mp.lam_min_pos_iw, eta)
    lam_iw_pinv = 1.0 / mp.lam_min_pos_iw
    decay = alpha * (2.0 - alpha * lipschitz)
    b1 = 1.0 - decay * mu_g
    b2 = decay * eta * r5
    b3 = 1.0 - 4.0 * r4 / (2.0 * lam_iw_pinv - 0.5 + 2.0 * r4)
    rho3 = max(b1, b2, b3)

    n = mp.n
    eye = np.eye(n)
    q_mat = SymMatrix(mp.mtilde.a + (theta - 0.5 + 2.0 * r4) * eye, name="q")
    # q acts only on the disagreement space Range(I - w): its eigenvalue on the
    # all-ones direction is 2 r4 - 1/2 < 0 by design, so shift that direction
    # out before the positive-definiteness check.
    ones = np.ones((n, 1)) / math.sqrt(n)
    deflated = SymMatrix(q_mat.a + (theta + 1.0) * (ones @ ones.T), name="q | Range(I - w)")
    if deflated.lambda_min < PD_SLACK:
        raise CertificateError(
            f"q is not positive definite on Range(I - w) "
            f"(lambda_min = {deflated.lambda_min:.3e})"
        )
    pn_mat = SymMatrix(eye + mp.iw.a / r5, name="pn")
    if pn_mat.lambda_min < PD_SLACK:
        raise CertificateError(f"pn is not positive definite (lambda_min = {pn_mat.lambda_min:.3e})")
    return NidsCertificate(
        r4=r4, r5=r5, eta=eta, mu_g=mu_g, rho3=rho3, branches=(b1, b2, b3),
        q_mat=q_mat, pn_mat=pn_mat, alpha=alpha, theta=theta,
    )


@dataclass
class AuditReport:
    """Per-iteration audit of a trajectory against the proved statements."""

    algorithm: str
    transitions: int
    lyapunov: np.ndarray
    ratio: list[float | None]
    slack: list[float | None]
    checks: dict[str, float]
    violations: list[str]

    @property
    def ok(self) -> bool:
        return not self.violations


def _rel_err(a: float, b: float) -> float:
    return abs(a - b) / (1.0 + abs(a) + abs(b))


def _rel_err_mat(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.linalg.norm(a - b) / (1.0 + np.linalg.norm(a) + np.linalg.norm(b)))


class _Tally:
    """Worst margin per named check of one audit, plus one message per violation."""

    def __init__(self, equalities: tuple[str, ...], inequalities: tuple[str, ...]):
        self.worst = {name: 0.0 for name in equalities}
        self.worst.update({name: math.inf for name in inequalities})
        self.violations: list[str] = []

    def equality(self, name: str, what: str, k: int, err: float) -> None:
        self.worst[name] = max(self.worst[name], err)
        if err > EQ_TOL:
            self.violations.append(f"{what} violated at k={k}: relative error {err:.3e}")

    def inequality(self, name: str, what: str, k: int, slack: float) -> float:
        self.worst[name] = min(self.worst[name], slack)
        if slack < INEQ_TOL:
            self.violations.append(f"{what} violated at k={k}: normalized slack {slack:.3e}")
        return slack


def _audit_stream(algorithm: str, states, lyapunov, transition, rho: float,
                  tally: _Tally) -> AuditReport:
    """One pass over consecutive states, holding only the previous one.

    `lyapunov(state)` is the state's Lyapunov value; `transition(k, cur, nxt)`
    checks the step from row k to row k+1 and returns its worst slack, which
    is combined with the certified contraction by the factor rho.
    """
    lyap: list[float] = []
    ratio: list[float | None] = [None]
    slack_col: list[float | None] = [None]
    prev = None
    for state in states:
        lyap.append(lyapunov(state))
        if prev is not None:
            k = len(lyap) - 2
            s = transition(k, prev, state)
            cs = tally.inequality("contraction_slack", "contraction", k,
                                  (rho * lyap[k] - lyap[k + 1]) / (1.0 + lyap[k]))
            ratio.append(lyap[k + 1] / lyap[k] if lyap[k] > 0.0 else None)
            slack_col.append(min(s, cs))
        prev = state
    return AuditReport(
        algorithm=algorithm, transitions=len(ratio) - 1, lyapunov=np.array(lyap),
        ratio=ratio, slack=slack_col, checks=tally.worst, violations=tally.violations,
    )


def audit_extra(states, mp: MixingPair, cert: ExtraCertificate, fp, grad) -> AuditReport:
    """Audit a stream of (x, y) states: norm equality, key inequality, contraction.

    `states` are consecutive extra_xy AlgoStates (as `algorithms.iterate`
    yields them) at the certificate's stepsize, consumed in one pass; the
    gradient of each transition is the `g_prev` its successor carries.
    Violations are reported, never raised.
    """
    i_minus_wt = np.eye(mp.n) - mp.wt.a
    alpha = cert.alpha
    theta = cert.theta
    gstar = grad(fp.xstar)
    tally = _Tally(("norm_equality_rel_err",), ("key_inequality_slack", "contraction_slack"))

    def lyapunov(state) -> float:
        return wnorm_sq(state.x - fp.xstar, cert.p_mat) + wnorm_sq(state.y - fp.ystar, cert.q_mat)

    def transition(k: int, cur, nxt) -> float:
        dx_nxt = nxt.x - fp.xstar

        # Norm equality between the consensus defect of x+ and the y decrement.
        a = wnorm_sq(dx_nxt, mp.diff)
        b = wnorm_sq(cur.y - nxt.y, mp.m)
        tally.equality("norm_equality_rel_err", "norm equality", k, _rel_err(a, b))

        # Key inequality: the h/m distance decreases by the listed amounts.
        base_prev = wnorm_sq(cur.x - fp.xstar, mp.h) + wnorm_sq(cur.y - fp.ystar, mp.m)
        lhs = wnorm_sq(dx_nxt, mp.h) + wnorm_sq(nxt.y - fp.ystar, mp.m)
        rhs = (
            base_prev
            - wnorm_sq(cur.x - nxt.x, mp.wbar)
            - (theta - 0.75) * wnorm_sq(cur.x - nxt.x, i_minus_wt)
            - wnorm_sq(dx_nxt, mp.g)
            - 2.0 * alpha * float(np.sum(dx_nxt * (nxt.g_prev - gstar)))
        )
        return tally.inequality("key_inequality_slack", "key inequality", k,
                                (rhs - lhs) / (1.0 + base_prev))

    return _audit_stream("extra_xy", states, lyapunov, transition, cert.rho, tally)


def audit_nids(states, mp: MixingPair, cert: NidsCertificate, fp, grad) -> AuditReport:
    """Audit a stream of (d, x) states: the two equalities, the d-x connection,
    the key inequality, the r5 norm-bound chain, and the Lyapunov contraction.

    `states` are consecutive nids_dx AlgoStates, consumed in one pass as in
    `audit_extra`.
    """
    eye = np.eye(mp.n)
    i_minus_w = mp.iw.a
    iw_pinv = mp.iw.pinv().a
    alpha = cert.alpha
    theta = cert.theta
    r4, r5 = cert.r4, cert.r5
    gstar = grad(fp.xstar)

    conn_left = eye - 0.5 * i_minus_w
    m_shift = mp.mtilde.a - (1.0 - theta) * eye
    m_plus = mp.mtilde.a + (theta - 0.5 + 2.0 * r4) * eye
    m_minus = mp.mtilde.a + (theta - 0.5 - 2.0 * r4) * eye
    m_dec = mp.mtilde.a + (theta - 0.75 - r4) * eye
    chain_weight = 4.0 * iw_pinv - 4.0 * eye + i_minus_w
    tally = _Tally(
        ("equality_a_rel_err", "equality_b_rel_err", "connection_rel_err", "chain_rel_err"),
        ("key_inequality_slack", "chain_slack", "contraction_slack"),
    )

    def lyapunov(state) -> float:
        return wnorm_sq(state.x - fp.xstar, cert.pn_mat) \
            + alpha**2 * wnorm_sq(state.d - fp.dstar, cert.q_mat)

    def transition(k: int, cur, nxt) -> float:
        dx_cur = cur.x - fp.xstar
        dx_nxt = nxt.x - fp.xstar
        dd_nxt = nxt.d - fp.dstar
        step_d = nxt.d - cur.d

        # Equality (a): x-distance/d-distance cross term.
        err = _rel_err(float(np.sum(dx_nxt * dd_nxt)), alpha * wdot(step_d, dd_nxt, m_shift))
        tally.equality("equality_a_rel_err", "equality (a)", k, err)

        # Equality (b): same with the d increment.
        err = _rel_err(float(np.sum(dx_nxt * step_d)), alpha * wnorm_sq(step_d, m_shift))
        tally.equality("equality_b_rel_err", "equality (b)", k, err)

        # Connection between the d increment and the x defect.
        err = _rel_err_mat(conn_left @ step_d, (i_minus_w @ dx_nxt) / (2.0 * alpha))
        tally.equality("connection_rel_err", "d-x connection", k, err)

        # Key inequality.
        base_prev = float(np.sum(dx_cur * dx_cur)) + alpha**2 * wnorm_sq(cur.d - fp.dstar, m_minus)
        lhs = float(np.sum(dx_nxt * dx_nxt)) + alpha**2 * wnorm_sq(dd_nxt, m_plus)
        g_diff = nxt.g_prev - gstar
        rhs = (
            base_prev
            - alpha**2 * wnorm_sq(step_d, m_dec)
            + alpha**2 * float(np.sum(g_diff * g_diff))
            - 2.0 * alpha * float(np.sum(dx_cur * g_diff))
        )
        s = tally.inequality("key_inequality_slack", "key inequality", k,
                             (rhs - lhs) / (1.0 + base_prev))

        # Norm-bound chain: three identities, then the r5 bound.
        t0 = wnorm_sq(dx_nxt, i_minus_w)
        t1 = wnorm_sq(i_minus_w @ dx_nxt, iw_pinv)
        t2 = alpha**2 * wnorm_sq((2.0 * eye - i_minus_w) @ step_d, iw_pinv)
        t3 = alpha**2 * wnorm_sq(step_d, chain_weight)
        err = max(_rel_err(t0, t1), _rel_err(t1, t2), _rel_err(t2, t3))
        tally.equality("chain_rel_err", "norm-bound chain identity", k, err)
        bound = alpha**2 * r5 * wnorm_sq(step_d, m_dec)
        s_chain = tally.inequality("chain_slack", "norm-bound chain", k,
                                   (bound - t3) / (1.0 + base_prev))
        return min(s, s_chain)

    return _audit_stream("nids_dx", states, lyapunov, transition, cert.rho3, tally)


def search_extra_certificate(mp: MixingPair, lipschitz: float, mu_fbar: float,
                             alpha: float, thetas=None, grid: int = 6) -> ExtraCertificate:
    """Coarse grid search over (theta, xi, eta) minimizing the contraction factor.

    The default certificate is valid but not optimized; this sweeps a few
    admissible combinations and keeps the smallest rho.
    """
    if thetas is None:
        upper = theta_default(mp.lam_min_wt)
        thetas = [0.75 + f * (upper - 0.75) for f in (0.25, 0.5, 0.75, 1.0)]
        thetas = [t for t in thetas if t > _THETA_BOUNDARY]
    best = None
    fracs = [(i + 1.0) / (grid + 1.0) for i in range(grid)]
    for theta in thetas:
        try:
            pair = validate(mp.w, mp.wt, mp.graph, theta=theta)
            probe = extra_constants(pair, lipschitz, mu_fbar, alpha)
        except (MixingValidationError, CertificateError):
            continue
        for fx in fracs:
            xi = fx * min(probe.r3 / (4.0 * probe.lam_max_wbar_m), 1.0)
            eta_upper = probe.lam_min_wbar * xi / (
                4.0 * alpha * probe.lam_min_wbar - 2.0 * alpha**2 * lipschitz)
            for fe in fracs:
                try:
                    cert = extra_constants(pair, lipschitz, mu_fbar, alpha, xi=xi,
                                           eta=fe * eta_upper)
                except CertificateError:
                    continue
                if best is None or cert.rho < best.rho:
                    best = cert
    if best is None:
        raise CertificateError("no admissible certificate found in the search grid")
    return best


def search_nids_certificate(mp: MixingPair, lipschitz: float, mu_fbar: float, alpha: float,
                            grid: int = 8) -> NidsCertificate:
    """Grid search over (r4, eta) minimizing the contraction factor."""
    best = None
    fracs = [(i + 1.0) / (grid + 1.0) for i in range(grid)]
    for fr in fracs:
        r4 = fr * (mp.theta - 0.75)
        for fe in fracs:
            try:
                probe = nids_constants(mp, lipschitz, mu_fbar, alpha, r4=r4)
                eta = fe / (alpha * (2.0 - alpha * lipschitz) * probe.r5)
                cert = nids_constants(mp, lipschitz, mu_fbar, alpha, r4=r4, eta=eta)
            except CertificateError:
                continue
            if best is None or cert.rho3 < best.rho3:
                best = cert
    if best is None:
        raise CertificateError("no admissible certificate found in the search grid")
    return best
