"""Contraction certificates and per-iteration trajectory audits.

For each algorithm this module computes every constant appearing in its
Q-linear convergence guarantee (coupling coefficients r1..r5, the small
parameters xi / eta / r4, the contraction factor, and the Lyapunov weight
matrices), then audits trajectories in one pass, a block of states at a time:
the proved equalities must hold to relative 1e-9 and the proved inequalities,
including the Lyapunov contraction itself, must hold with slack no worse than
-1e-8 scaled by the current Lyapunov value.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass
from itertools import islice
from types import SimpleNamespace

import numpy as np

from .linalg import SymMatrix
from .mixing import MixingPair, MixingValidationError, theta_default, validate
from .problem import mu_g_value

__all__ = [
    "CertificateError",
    "ExtraCertificate",
    "NidsCertificate",
    "AuditReport",
    "certify",
    "extra_constants",
    "nids_constants",
    "extra_rho",
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


def certify(variant: str) -> tuple[str, Callable, Callable] | None:
    """The certified form of `variant`: the reformulated variant whose states are
    audited, its certificate and its audit; None if no certificate exists.

    The two functions are looked up when this is called, not kept in a table,
    so a caller always gets the module's current bindings.
    """
    if variant in ("extra", "extra_xy"):
        return "extra_xy", extra_constants, audit_extra
    if variant in ("nids", "nids_dx"):
        return "nids_dx", nids_constants, audit_nids
    return None


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
    rho: float
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
            f"= (0, 2 lambda_min(w_bar)/L), open at the bound named extra-new; "
            f"extra-special, its theta -> 3/4 limit when w_tilde = (I + w)/2, is never "
            f"certified"
        )

    # Couplings r1, r2, r3 and lambda_max(w_bar m) from three similarity eigensolves.
    isq = mp.wbar.isqrt().a
    sq = mp.wbar.sqrt().a
    lam_iwt = _lam_max_similar(isq, np.eye(mp.n) - mp.wt.a, "wbar^-1 (I - w_tilde)")
    if theta >= 1.0 - 1e-12 or lam_iwt <= 1e-14:
        r1 = math.inf
    else:
        r1 = (4.0 * theta - 3.0) / (4.0 * (1.0 - theta) ** 2 * lam_iwt)
    # g = 0 whenever w_tilde = (I + w)/2: r2 is infinite at every theta.
    lam_g = _lam_max_similar(isq, mp.g.a, "g wbar^-1") if mp.g.a.any() else 0.0
    r2 = math.inf if lam_g <= 1e-12 else 1.0 / (2.0 * lam_g)
    r3 = 1.0 / (1.0 + (0.0 if math.isinf(r1) else 1.0 / r1)
                + (0.0 if math.isinf(r2) else 1.0 / r2))
    lam_wbar_m = _lam_max_similar(sq, mp.m.a, "wbar m")
    if lam_wbar_m <= 0.0:
        raise CertificateError(
            "lambda_max(w_bar m) is not positive; mixing pair is degenerate")
    wbar_inv = mp.wbar.inv().a

    xi_upper = min(r3 / (4.0 * lam_wbar_m), 1.0)
    if xi is None:
        xi = xi_upper / 2.0
    elif not 0.0 < xi < xi_upper:
        raise CertificateError(
            f"xi = {xi} outside its admissible interval (0, {xi_upper:.6g})")

    eta_denom = 4.0 * alpha * lam_min_wbar - 2.0 * alpha**2 * lipschitz
    if eta_denom <= 0.0:
        raise CertificateError(
            f"eta interval is empty: 4 a lambda_min(w_bar) - 2 a^2 L = {eta_denom:.6g} <= 0"
        )
    eta_upper = lam_min_wbar * xi / eta_denom
    if eta is None:
        eta = eta_upper / 2.0
    elif not 0.0 < eta < eta_upper:
        raise CertificateError(
            f"eta = {eta} outside its admissible interval (0, {eta_upper:.6g})")

    mu_g = mu_g_value(mu_fbar, lipschitz, mp.lam_min_pos_iw, eta)
    rho, branches = extra_rho(alpha, lipschitz, lam_min_wbar, mu_g, eta, xi, r3, lam_wbar_m)
    p_mat = SymMatrix(mp.h.a + 0.5 * xi * mp.iw.a, name="p")
    q_mat = SymMatrix(mp.m.a + (r3 - 2.0 * xi * lam_wbar_m) * wbar_inv, name="q")
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
    rho = max(b1, b2, b3)

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
        r4=r4, r5=r5, eta=eta, mu_g=mu_g, rho=rho, branches=(b1, b2, b3),
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


# Entries of x per audit block: 32 states at n * p = 400. A block spreads
# numpy's per-call overhead over its transitions; each (B, n, p) temporary
# stays near 100 kB, and larger ones were measured to run slower (they
# page-fault when the allocator hands them back to the system between calls).
_BLOCK_ELEMENTS = 12800


def _dot(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """np.sum(u * v) of each (n, p) slice of stacked arrays (the last two axes)."""
    return (u * v).sum(axis=(-2, -1))


def _wsq(v: np.ndarray, h: np.ndarray) -> np.ndarray:
    """wnorm_sq of each slice of a stacked (B, n, p) array, with wnorm_sq's
    operand order (one h @ v per slice, then the sum), so bit for bit equal."""
    return _dot(v, np.matmul(h, v))


def _fro(v: np.ndarray) -> np.ndarray:
    """np.linalg.norm of each slice: the same BLAS dot of the flattened slice."""
    flat = v.reshape(len(v), 1, -1)
    return np.sqrt(np.matmul(flat, flat.transpose(0, 2, 1)).reshape(-1))


def _rel_err(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.abs(a - b) / (1.0 + np.abs(a) + np.abs(b))


def _rel_err_mat(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """_rel_err of two stacks of (n, p) slices, measured in the Frobenius norm."""
    return _fro(a - b) / (1.0 + _fro(a) + _fro(b))


def _min(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Python's min(a, b) per entry: b only where it is strictly smaller."""
    return np.where(b < a, b, a)


def _max(a: np.ndarray, *rest: np.ndarray) -> np.ndarray:
    """Python's max(a, ...) per entry: a later value only where strictly larger."""
    for b in rest:
        a = np.where(b > a, b, a)
    return a


class _Tally:
    """Worst margin per named check of one audit, plus one message per violation.

    Checks arrive a block at a time, one call per check in the order a single
    transition runs them; `close_block` files the block's messages by
    transition, then by that order.
    """

    def __init__(self, equalities: tuple[str, ...], inequalities: tuple[str, ...]):
        self.worst = {name: 0.0 for name in equalities}
        self.worst.update({name: math.inf for name in inequalities})
        self.violations: list[str] = []
        self._flagged: list[tuple[int, int, str]] = []
        self._calls = 0

    def equality(self, name: str, what: str, k0: int, err: np.ndarray) -> None:
        # fmax/fmin skip NaN in the worst margin; _flag still flags it.
        top = float(np.fmax.reduce(err, initial=-math.inf))
        self.worst[name] = max(self.worst[name], top)
        self._flag(what, "relative error", k0, err, err > EQ_TOL)

    def inequality(self, name: str, what: str, k0: int, slack: np.ndarray) -> np.ndarray:
        low = float(np.fmin.reduce(slack, initial=math.inf))
        self.worst[name] = min(self.worst[name], low)
        self._flag(what, "normalized slack", k0, slack, slack < INEQ_TOL)
        return slack

    def _flag(self, what: str, margin: str, k0: int, values: np.ndarray,
              beyond: np.ndarray) -> None:
        """File a message for each value beyond its tolerance or not finite."""
        for i in np.flatnonzero(beyond | ~np.isfinite(values)).tolist():
            k = k0 + i
            self._flagged.append(
                (k, self._calls, f"{what} violated at k={k}: {margin} {float(values[i]):.3e}"))
        self._calls += 1

    def close_block(self) -> None:
        self._flagged.sort(key=lambda item: item[:2])
        self.violations.extend(message for _, _, message in self._flagged)
        self._flagged.clear()
        self._calls = 0


def _stack_block(prev, new_states, aux: str):
    """Stack the x and `aux` of `prev` and the new states into (B + 1, n, p)
    arrays, and the new states' g_prev into a (B, n, p) one; also return the
    last state. None when no new state came. Only the stacks outlive the call,
    not the states."""
    block = [prev, *new_states]
    if len(block) == 1:
        return None
    return (np.array([s.x for s in block]), np.array([getattr(s, aux) for s in block]),
            np.array([s.g_prev for s in block[1:]]), block[-1])


def _audit_stream(algorithm: str, states, aux: str, origin: tuple[np.ndarray, np.ndarray],
                  per_state, transition, rho: float, tally: _Tally) -> AuditReport:
    """One blocked pass over consecutive states, the one driver of both audits.

    States are pulled a block at a time (`_BLOCK_ELEMENTS` entries of x each)
    and stacked into (B, n, p) arrays of x and of the auxiliary variable `aux`,
    with their displacements `dx`, `d<aux>` from the fixed point `origin`; the
    last state of a block opens the next. `per_state(dx, daux)` maps the
    displacements of the new states to named per-state columns, "lyapunov"
    among them, so each is computed once per state. `transition(k0, cur, nxt)`
    checks the block's transitions k0, k0 + 1, ... from the stacks and columns
    of their start and end states (`nxt.g_prev` is each transition's gradient)
    and returns each one's worst slack, which is combined with the certified
    contraction by the factor rho. Memory is one block, whatever the length.
    """
    stream = iter(states)
    first = next(stream, None)
    lyap: list[float] = []
    ratio: list[float | None] = [None]
    slack_col: list[float | None] = [None]
    if first is not None:
        size = max(1, _BLOCK_ELEMENTS // first.x.size)
        x_origin, a_origin = origin
        prev = first
        prev_cols = per_state(first.x[None] - x_origin, getattr(first, aux)[None] - a_origin)
        lyap.extend(prev_cols["lyapunov"].tolist())
        while True:
            stacks = _stack_block(prev, islice(stream, size), aux)
            if stacks is None:
                break
            x, a, g_prev, prev = stacks
            k0 = len(lyap) - 1
            dx, da = x - x_origin, a - a_origin
            cols = per_state(dx[1:], da[1:])
            cur = SimpleNamespace(x=x[:-1], dx=dx[:-1], **{aux: a[:-1], "d" + aux: da[:-1]},
                                  **{name: np.concatenate((prev_cols[name][-1:], col[:-1]))
                                     for name, col in cols.items()})
            nxt = SimpleNamespace(x=x[1:], dx=dx[1:], **{aux: a[1:], "d" + aux: da[1:]},
                                  g_prev=g_prev, **cols)
            s = transition(k0, cur, nxt)
            l0, l1 = cur.lyapunov, nxt.lyapunov
            cs = tally.inequality("contraction_slack", "contraction", k0,
                                  (rho * l0 - l1) / (1.0 + l0))
            tally.close_block()
            positive = l0 > 0.0
            ratio.extend(r if ok else None for r, ok in
                         zip((l1 / np.where(positive, l0, 1.0)).tolist(), positive.tolist()))
            slack_col.extend(_min(s, cs).tolist())
            lyap.extend(l1.tolist())
            prev_cols = cols
            # Free this block's stacks before the next block's are built.
            del stacks, x, a, g_prev, dx, da, cur, nxt
    return AuditReport(
        algorithm=algorithm, transitions=len(ratio) - 1, lyapunov=np.array(lyap),
        ratio=ratio, slack=slack_col, checks=tally.worst, violations=tally.violations,
    )


def audit_extra(states, mp: MixingPair, cert: ExtraCertificate, fp, grad) -> AuditReport:
    """Audit a stream of (x, y) states: norm equality, key inequality, contraction.

    `states` are consecutive extra_xy AlgoStates (as `algorithms.iterate`
    yields them) at the certificate's stepsize, consumed in one blocked pass;
    the gradient of each transition is the `g_prev` its successor carries.
    Violations are reported, never raised.
    """
    h, m, diff, wbar, g_mat = mp.h.a, mp.m.a, mp.diff.a, mp.wbar.a, mp.g.a
    p_mat, q_mat = cert.p_mat.a, cert.q_mat.a
    i_minus_wt = np.eye(mp.n) - mp.wt.a
    alpha = cert.alpha
    theta = cert.theta
    gstar = grad(fp.xstar)
    tally = _Tally(("norm_equality_rel_err",), ("key_inequality_slack", "contraction_slack"))

    def per_state(dx, dy):
        # The h/m distance ends one key inequality and starts the next.
        return {"lyapunov": _wsq(dx, p_mat) + _wsq(dy, q_mat),
                "hm": _wsq(dx, h) + _wsq(dy, m)}

    def transition(k0, cur, nxt):
        # Norm equality between the consensus defect of x+ and the y decrement.
        err = _rel_err(_wsq(nxt.dx, diff), _wsq(cur.y - nxt.y, m))
        tally.equality("norm_equality_rel_err", "norm equality", k0, err)

        # Key inequality: the h/m distance decreases by the listed amounts.
        step = cur.x - nxt.x
        rhs = (
            cur.hm
            - _wsq(step, wbar)
            - (theta - 0.75) * _wsq(step, i_minus_wt)
            - _wsq(nxt.dx, g_mat)
            - 2.0 * alpha * _dot(nxt.dx, nxt.g_prev - gstar)
        )
        return tally.inequality("key_inequality_slack", "key inequality", k0,
                                (rhs - nxt.hm) / (1.0 + cur.hm))

    return _audit_stream("extra_xy", states, "y", (fp.xstar, fp.ystar), per_state, transition,
                         cert.rho, tally)


def audit_nids(states, mp: MixingPair, cert: NidsCertificate, fp, grad) -> AuditReport:
    """Audit a stream of (d, x) states: the two equalities, the d-x connection,
    the key inequality, the r5 norm-bound chain, and the Lyapunov contraction.

    `states` are consecutive nids_dx AlgoStates, consumed in one blocked pass
    as in `audit_extra`.
    """
    eye = np.eye(mp.n)
    i_minus_w = mp.iw.a
    iw_pinv = mp.iw.pinv().a
    pn_mat, q_mat = cert.pn_mat.a, cert.q_mat.a
    alpha = cert.alpha
    a2 = alpha**2
    theta = cert.theta
    r4, r5 = cert.r4, cert.r5
    gstar = grad(fp.xstar)

    conn_left = eye - 0.5 * i_minus_w
    m_shift = mp.mtilde.a - (1.0 - theta) * eye
    m_plus = mp.mtilde.a + (theta - 0.5 + 2.0 * r4) * eye
    m_minus = mp.mtilde.a + (theta - 0.5 - 2.0 * r4) * eye
    m_dec = mp.mtilde.a + (theta - 0.75 - r4) * eye
    chain_weight = 4.0 * iw_pinv - 4.0 * eye + i_minus_w
    two_minus_iw = 2.0 * eye - i_minus_w
    tally = _Tally(
        ("equality_a_rel_err", "equality_b_rel_err", "connection_rel_err", "chain_rel_err"),
        ("key_inequality_slack", "chain_slack", "contraction_slack"),
    )

    def per_state(dx, dd):
        sq = _dot(dx, dx)
        # The key inequality starts from base and ends at lhs, with two weights.
        return {"lyapunov": _wsq(dx, pn_mat) + a2 * _wsq(dd, q_mat),
                "base": sq + a2 * _wsq(dd, m_minus),
                "lhs": sq + a2 * _wsq(dd, m_plus)}

    def transition(k0, cur, nxt):
        dx_nxt = nxt.dx
        step_d = nxt.d - cur.d
        iw_dx = np.matmul(i_minus_w, dx_nxt)

        # Equality (a): x-distance/d-distance cross term.
        err = _rel_err(_dot(dx_nxt, nxt.dd), alpha * _dot(step_d, np.matmul(m_shift, nxt.dd)))
        tally.equality("equality_a_rel_err", "equality (a)", k0, err)

        # Equality (b): same with the d increment.
        err = _rel_err(_dot(dx_nxt, step_d), alpha * _wsq(step_d, m_shift))
        tally.equality("equality_b_rel_err", "equality (b)", k0, err)

        # Connection between the d increment and the x defect.
        err = _rel_err_mat(np.matmul(conn_left, step_d), iw_dx / (2.0 * alpha))
        tally.equality("connection_rel_err", "d-x connection", k0, err)

        # Key inequality.
        dec = _wsq(step_d, m_dec)
        g_diff = nxt.g_prev - gstar
        rhs = (
            cur.base
            - a2 * dec
            + a2 * _dot(g_diff, g_diff)
            - 2.0 * alpha * _dot(cur.dx, g_diff)
        )
        s = tally.inequality("key_inequality_slack", "key inequality", k0,
                             (rhs - nxt.lhs) / (1.0 + cur.base))

        # Norm-bound chain: three identities, then the r5 bound.
        t0 = _dot(dx_nxt, iw_dx)
        t1 = _wsq(iw_dx, iw_pinv)
        t2 = a2 * _wsq(np.matmul(two_minus_iw, step_d), iw_pinv)
        t3 = a2 * _wsq(step_d, chain_weight)
        err = _max(_rel_err(t0, t1), _rel_err(t1, t2), _rel_err(t2, t3))
        tally.equality("chain_rel_err", "norm-bound chain identity", k0, err)
        bound = a2 * r5 * dec
        s_chain = tally.inequality("chain_slack", "norm-bound chain", k0,
                                   (bound - t3) / (1.0 + cur.base))
        return _min(s, s_chain)

    return _audit_stream("nids_dx", states, "d", (fp.xstar, fp.dstar), per_state, transition,
                         cert.rho, tally)


def search_extra_certificate(mp: MixingPair, lipschitz: float, mu_fbar: float,
                             alpha: float, grid: int = 6) -> ExtraCertificate:
    """Coarse grid search over (theta, xi, eta) minimizing the contraction factor.

    The default certificate is valid but not optimized; this sweeps a few
    admissible combinations and keeps the smallest rho. The thetas sit a
    quarter, a half, three quarters and all of the way from 3/4 to the upper
    end of the admissible interval; one too close to 3/4 for a certificate is
    skipped.
    """
    upper = theta_default(mp.lam_min_wt)
    thetas = [0.75 + f * (upper - 0.75) for f in (0.25, 0.5, 0.75, 1.0)]
    best = None
    fracs = [(i + 1.0) / (grid + 1.0) for i in range(grid)]
    for theta in thetas:
        try:
            at_theta = validate(mp.w, mp.wt, mp.graph, theta=theta)
            probe = extra_constants(at_theta, lipschitz, mu_fbar, alpha)
        except (MixingValidationError, CertificateError):
            continue
        for fx in fracs:
            xi = fx * min(probe.r3 / (4.0 * probe.lam_max_wbar_m), 1.0)
            eta_upper = probe.lam_min_wbar * xi / (
                4.0 * alpha * probe.lam_min_wbar - 2.0 * alpha**2 * lipschitz)
            for fe in fracs:
                try:
                    cert = extra_constants(at_theta, lipschitz, mu_fbar, alpha, xi=xi,
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
    """Grid search over (r4, eta) minimizing the contraction factor.

    r5, and with it the eta interval, depends only on r4: one probe per r4.
    """
    best = None
    fracs = [(i + 1.0) / (grid + 1.0) for i in range(grid)]
    for fr in fracs:
        r4 = fr * (mp.theta - 0.75)
        try:
            probe = nids_constants(mp, lipschitz, mu_fbar, alpha, r4=r4)
        except CertificateError:
            continue
        for fe in fracs:
            eta = fe / (alpha * (2.0 - alpha * lipschitz) * probe.r5)
            try:
                cert = nids_constants(mp, lipschitz, mu_fbar, alpha, r4=r4, eta=eta)
            except CertificateError:
                continue
            if best is None or cert.rho < best.rho:
                best = cert
    if best is None:
        raise CertificateError("no admissible certificate found in the search grid")
    return best
