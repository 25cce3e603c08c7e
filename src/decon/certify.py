"""Contraction certificates and per-iteration trajectory audits.

For each algorithm this module computes every constant appearing in its
Q-linear convergence guarantee (coupling coefficients r1..r5, the small
parameters xi / eta / r4, the contraction factor, and the Lyapunov weight
matrices), then audits trajectories in one pass, a block of states at a time.

A checked equality a = b must hold to |a - b| / (1 + |a| + |b|) <= `EQ_TOL`
(1e-9; NIDS's equality (a) has its own scale, `_cross_rel_err`): while
|a| + |b| is below about 1 that bounds the absolute error, not the relative
one. A checked inequality, the Lyapunov contraction included, must hold with
its slack divided by 1 + V_k, V_k the Lyapunov value (or the key inequality's
base) before the step, no worse than `INEQ_TOL` (-1e-8). The contraction's
slack (rho V_k - V_{k+1}) / (1 + V_k) is therefore at least -V_{k+1}: once the
Lyapunov value is below about 1e-8 that check cannot fail, which on long
certified runs is about half of the transitions.

An audit checks a proved statement only if no other of its checks implies it:
under some planted fault, each check flags a transition that no other check
flags (the coverage matrix in tests/test_certify.py).
"""

from __future__ import annotations

import math
from array import array
from collections.abc import Callable
from dataclasses import dataclass
from itertools import islice
from types import SimpleNamespace

import numpy as np

from . import algorithms
from .linalg import SymMatrix, decompose
from .mixing import THETA_LOWER, MixingPair
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
    "lyapunov_ratio",
]

# Tolerance for proved equalities along a trajectory, on |a - b| / (1 + |a| + |b|).
EQ_TOL = 1e-9
# Floor for proved inequalities, on the slack divided by 1 + the value before the step.
INEQ_TOL = -1e-8
# Eigenvalue slack accepted when asserting the Lyapunov weights are PD.
PD_SLACK = -1e-10

_THETA_BOUNDARY = THETA_LOWER + 1e-12


class CertificateError(ValueError):
    """A certificate constant could not be produced (bad stepsize or empty interval)."""


def certify(variant: str) -> tuple[str, Callable, Callable] | None:
    """The certified form of `variant`: the reformulated variant whose states are
    audited, its certificate and its audit; None if no certificate exists.

    The two functions are looked up when this is called, not kept in a table,
    so a caller always gets the module's current bindings.
    """
    if variant == "extra":
        return "extra_xy", extra_constants, audit_extra
    if variant == "nids":
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
    alpha: float
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


def _lam_max_iwt(mp: MixingPair) -> float:
    """lambda_max(w_bar^-1/2 (I - w_tilde) w_bar^-1/2) from w_tilde's spectrum.

    w_bar = theta w_tilde + (1 - theta) I has w_tilde's eigenvectors, so the
    matrix has eigenvalues (1 - mu) / (theta mu + 1 - theta) over w_tilde's
    eigenvalues mu; no eigensolve of its own.
    """
    mu = mp.wt.eigenvalues
    return float(np.max((1.0 - mu) / (mp.theta * mu + (1.0 - mp.theta))))


def _admissible(name: str, value: float | None, upper: float) -> float:
    """`value`, or the midpoint of (0, upper) if None; raise unless 0 < value < upper
    and upper is finite."""
    if not math.isfinite(upper):
        raise CertificateError(
            f"{name}'s admissible interval (0, {upper}) overflows float64; the stepsize is "
            f"too small to certify")
    if value is None:
        return upper / 2.0
    if not 0.0 < value < upper:
        raise CertificateError(f"{name} = {value} outside its admissible interval (0, {upper:.6g})")
    return value


def _check_certified(mp: MixingPair, lipschitz: float, mu_fbar: float, alpha: float,
                     stepsize: str, form: str) -> None:
    """Raise unless theta clears the certificates' margin 3/4 + 1e-12 and alpha
    lies in (0, bound), bound being the named stepsize `stepsize` (written out
    as `form` in the message)."""
    if mp.theta <= _THETA_BOUNDARY:
        raise CertificateError(
            f"vacuous certificate: theta = {mp.theta} outside the certified range "
            f"theta > 3/4 + 1e-12")
    bound = algorithms.STEPSIZES[stepsize](mp, lipschitz, mu_fbar)
    if not 0.0 < alpha < bound:
        raise CertificateError(
            f"stepsize {alpha} outside the certified range (0, {bound:.6g}) = {form}")


def _require_rate(rho: float, alpha: float) -> None:
    """Raise unless the contraction factor rho is below 1: at a tiny stepsize
    the first branch, 1 - (its stepsize term) * mu_g, rounds to 1, and a
    factor of 1 certifies no rate."""
    if not rho < 1.0:
        raise CertificateError(
            f"vacuous certificate: contraction factor rho = {rho:.17g} is not below 1, so it "
            f"certifies no linear rate at stepsize {alpha}")


def _require_pd(mat: SymMatrix) -> None:
    """Raise unless lambda_min(mat) >= PD_SLACK, naming mat and its Jacobi lambda_min."""
    if not mat.lambda_min_at_least(PD_SLACK):
        raise CertificateError(
            f"{mat.name} is not positive definite (lambda_min = {mat.lambda_min:.3e})")


def extra_rho(alpha: float, lipschitz: float, lam_min_wbar: float, mu_g: float,
              eta: float, xi: float, r3: float, lam_max_wbar_m: float,
              ) -> tuple[float, tuple[float, float, float]]:
    """Three-branch contraction factor for the (x, y) iteration."""
    factor = 2.0 * alpha - alpha**2 * lipschitz / lam_min_wbar
    b1 = 1.0 - factor * mu_g
    b2 = 2.0 * factor * eta / xi
    b3 = 1.0 - (r3 - 4.0 * xi * lam_max_wbar_m) / (r3 + (1.0 - 2.0 * xi) * lam_max_wbar_m)
    return max(b1, b2, b3), (b1, b2, b3)


def extra_constants(mp: MixingPair, lipschitz: float, mu_fbar: float, alpha: float,
                    xi: float | None = None, eta: float | None = None) -> ExtraCertificate:
    """Full certificate for the (x, y) iteration at stepsize alpha.

    theta and alpha are checked first, as in `nids_constants` (`_check_certified`).
    xi and eta default to the midpoints of their admissible open intervals;
    the restricted-strong-convexity modulus is evaluated at the chosen eta.
    The limits theta = 1 (r1 infinite) and g = 0 (r2 infinite) are folded into
    r3 = 1 / (1 + 1/r1 + 1/r2), where 1/inf is 0.
    """
    _check_certified(mp, lipschitz, mu_fbar, alpha, "extra-new",
                     "(0, 2 lambda_min(w_bar)/L), open at the bound named extra-new; "
                     "extra-special, its theta -> 3/4 limit when w_tilde = (I + w)/2, is never "
                     "certified")
    theta = mp.theta
    lam_min_wbar = mp.wbar.lambda_min

    # Couplings r1, r2, r3 and lambda_max(w_bar m): r1 from w_tilde's spectrum,
    # r2 and lambda_max(w_bar m) from two similarity products, solved together
    # by LAPACK since no stepsize reads them (see `linalg`). At
    # w_tilde = (I + w)/2, g = 0, so r2's matrix is exactly zero, its
    # eigenvalues are 0.0 and r2 is infinite.
    lam_iwt = _lam_max_iwt(mp)
    if theta >= 1.0 - 1e-12 or lam_iwt <= 1e-14:
        r1 = math.inf
    else:
        r1 = (4.0 * theta - 3.0) / (4.0 * (1.0 - theta) ** 2 * lam_iwt)
    isq = mp.wbar.spectral_map(lambda w: 1.0 / np.sqrt(w), "w_bar^-1/2").a
    sq = mp.wbar.spectral_map(np.sqrt, "w_bar^1/2").a
    similar = (SymMatrix(isq @ mp.g.a @ isq, name="g wbar^-1", lapack=True),
               SymMatrix(sq @ mp.m.a @ sq, name="wbar m", lapack=True))
    lam_g, lam_wbar_m = (float(w[-1]) for w, _ in decompose(similar))
    r2 = math.inf if lam_g <= 1e-12 else 1.0 / (2.0 * lam_g)
    r3 = 1.0 / (1.0 + 1.0 / r1 + 1.0 / r2)
    if lam_wbar_m <= 0.0:
        raise CertificateError(
            "lambda_max(w_bar m) is not positive; mixing pair is degenerate")
    wbar_inv = mp.wbar.spectral_map(lambda w: 1.0 / w, "w_bar^-1").a

    xi = _admissible("xi", xi, min(r3 / (4.0 * lam_wbar_m), 1.0))

    eta_denom = 4.0 * alpha * lam_min_wbar - 2.0 * alpha**2 * lipschitz
    if eta_denom <= 0.0:
        raise CertificateError(
            f"eta interval is empty: 4 a lambda_min(w_bar) - 2 a^2 L = {eta_denom:.6g} <= 0"
        )
    eta = _admissible("eta", eta, lam_min_wbar * xi / eta_denom)

    # validate's null-space check makes entry 1 the smallest positive eigenvalue.
    mu_g = mu_g_value(mu_fbar, lipschitz, float(mp.iw.eigenvalues[1]), eta)
    rho, branches = extra_rho(alpha, lipschitz, lam_min_wbar, mu_g, eta, xi, r3, lam_wbar_m)
    p_mat = SymMatrix(mp.h.a + 0.5 * xi * mp.iw.a, name="p")
    q_mat = SymMatrix(mp.m.a + (r3 - 2.0 * xi * lam_wbar_m) * wbar_inv, name="q")
    _require_pd(p_mat)
    _require_pd(q_mat)
    _require_rate(rho, alpha)
    return ExtraCertificate(
        r1=r1, r2=r2, r3=r3, xi=xi, eta=eta, mu_g=mu_g, rho=rho, branches=branches,
        p_mat=p_mat, q_mat=q_mat, alpha=alpha, lam_max_wbar_m=lam_wbar_m,
    )


def nids_constants(mp: MixingPair, lipschitz: float, mu_fbar: float, alpha: float,
                   r4: float | None = None, eta: float | None = None) -> NidsCertificate:
    """Full certificate for the (d, x) iteration at stepsize alpha in (0, 2/L).

    theta and alpha are checked first, as in `extra_constants` (`_check_certified`).
    """
    _check_certified(mp, lipschitz, mu_fbar, alpha, "nids", "(0, 2/L)")
    theta = mp.theta
    lam_iw = mp.iw.lambda_max
    if theta * lam_iw >= 2.0 - 1e-12:
        raise CertificateError(
            f"I - theta (I - w)/2 is not positive definite: theta * lambda_max(I - w) "
            f"= {theta * lam_iw:.6g} >= 2"
        )
    r4 = _admissible("r4", r4, theta - THETA_LOWER)

    # Denominator > 0: 3/4 + r4 < theta and theta lambda_max(I - w) < 2, both checked above.
    r5 = max(2.0, (lam_iw - 2.0) ** 2 / (2.0 - (THETA_LOWER + r4) * lam_iw))

    decay = alpha * (2.0 - alpha * lipschitz)
    eta = _admissible("eta", eta, 1.0 / (decay * r5))

    lam_min_pos_iw = float(mp.iw.eigenvalues[1])  # as in extra_constants
    mu_g = mu_g_value(mu_fbar, lipschitz, lam_min_pos_iw, eta)
    lam_iw_pinv = 1.0 / lam_min_pos_iw
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
    _require_pd(deflated)
    pn_mat = SymMatrix(eye + mp.iw.a / r5, name="pn")
    _require_pd(pn_mat)
    _require_rate(rho, alpha)
    return NidsCertificate(
        r4=r4, r5=r5, eta=eta, mu_g=mu_g, rho=rho, branches=(b1, b2, b3),
        q_mat=q_mat, pn_mat=pn_mat, alpha=alpha,
    )


def lyapunov_ratio(before: np.ndarray, after: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The Lyapunov ratio of each transition, L_{k+1} / L_k, and whether it
    exists (L_k > 0; zero, negative and NaN L_k have none). Where it exists the
    quotient is the one IEEE division of the two doubles, so a NaN L_{k+1}
    gives NaN. A huge quotient overflows and inf / inf is invalid, so callers
    that may meet them run this under `np.errstate`."""
    exists = before > 0.0
    return after / np.where(exists, before, 1.0), exists


@dataclass
class AuditReport:
    """Per-iteration audit of a trajectory against the proved statements.

    `lyapunov` holds L_k for each row k, `slack` the worst normalized slack of
    each transition k -> k + 1 (so row k's slack is `slack[k - 1]`, and row 0
    has none); both are float64 arrays, 8 bytes a row. The ratio column is
    derived from `lyapunov` (`lyapunov_ratio`) and the transition count from
    `slack`; neither is stored.
    """

    lyapunov: np.ndarray
    slack: np.ndarray
    checks: dict[str, float]
    violations: list[str]

    @property
    def transitions(self) -> int:
        return len(self.slack)

    @property
    def ok(self) -> bool:
        return not self.violations


# Entries of x per audit block: 32 states at n * p = 400. A block spreads
# numpy's per-call overhead over its transitions; each (B, n, p) temporary
# stays near 100 kB, and larger ones were measured to run slower. Under the
# CLI's heap policy (`cli._keep_freed_heap`) freed temporaries below glibc's
# mmap threshold are reused without page faults; that threshold stays fixed at
# 128 kB once the trim threshold is set, so a temporary of 128 kB or more is
# mapped afresh, and page-faults, on every allocation.
_BLOCK_ELEMENTS = 12800


def _dot(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """np.sum(u * v) of each (n, p) slice of stacked arrays (the last two axes)."""
    return (u * v).sum(axis=(-2, -1))


def _wsq(v: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Weighted squared norm tr(v^T h v) of each slice of a stacked (B, n, p)
    array, one h @ v per slice then the sum: the operand order of the
    per-transition audit oracles' `wnorm_sq`, so bit for bit equal. The
    products v * (h @ v) overwrite h @ v, which saves allocating a third
    block-sized array; a product's bits do not depend on where it is stored."""
    hv = np.matmul(h, v)
    return np.multiply(v, hv, out=hv).sum(axis=(-2, -1))


def _fro(v: np.ndarray) -> np.ndarray:
    """np.linalg.norm of each slice: the same BLAS dot of the flattened slice."""
    flat = v.reshape(len(v), 1, -1)
    return np.sqrt(np.matmul(flat, flat.transpose(0, 2, 1)).reshape(-1))


def _rel_err(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.abs(a - b) / (1.0 + np.abs(a) + np.abs(b))


def _cross_rel_err(x: np.ndarray, y: np.ndarray, alpha: float, u: np.ndarray,
                   v: np.ndarray) -> np.ndarray:
    """|x.y - alpha u.v| / (1 + |x|.|y| + alpha |u|.|v|) of each slice.

    Each side sums products that cancel, so its round-off scales with the sum
    of the products' magnitudes, |x|^T |y| (Higham, Accuracy and Stability of
    Numerical Algorithms, section 3.1), not with the sum itself. The sides
    keep the bits of `_dot(x, y)` and `alpha * _dot(u, v)`."""
    xy, uv = x * y, u * v
    err = np.abs(xy.sum(axis=(-2, -1)) - alpha * uv.sum(axis=(-2, -1)))
    return err / (1.0 + np.abs(xy, out=xy).sum(axis=(-2, -1))
                  + alpha * np.abs(uv, out=uv).sum(axis=(-2, -1)))


def _rel_err_mat(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """_rel_err of two stacks of (n, p) slices, measured in the Frobenius norm."""
    return _fro(a - b) / (1.0 + _fro(a) + _fro(b))


def _min(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Python's min(a, b) per entry: b only where it is strictly smaller."""
    return np.where(b < a, b, a)


class _Tally:
    """Worst margin per named check of one audit, plus one message per violation.

    Checks arrive a block at a time, one call per check in the order a single
    transition runs them; `close_block` files the block's messages by
    transition with a stable sort, which keeps that order within one. A check
    is named only by the call that runs it: it enters `worst`, in run order,
    when it first reports, from 0.0 for an equality and inf for an inequality.

    The worst margin is the NaN-skipping `fmax`/`fmin` reduction; `_flag`
    looks at every entry of every block, so NaN and +-inf are flagged too.
    """

    def __init__(self):
        self.worst: dict[str, float] = {}
        self.violations: list[str] = []
        self._flagged: list[tuple[int, str]] = []

    def equality(self, name: str, what: str, k0: int, err: np.ndarray) -> None:
        # fmax/fmin skip NaN in the worst margin; _flag still flags it.
        self.worst[name] = max(self.worst.get(name, 0.0),
                               float(np.fmax.reduce(err, initial=-math.inf)))
        self._flag(what, "relative error", k0, err, err > EQ_TOL)

    def inequality(self, name: str, what: str, k0: int, slack: np.ndarray) -> np.ndarray:
        self.worst[name] = min(self.worst.get(name, math.inf),
                               float(np.fmin.reduce(slack, initial=math.inf)))
        self._flag(what, "normalized slack", k0, slack, slack < INEQ_TOL)
        return slack

    def _flag(self, what: str, margin: str, k0: int, values: np.ndarray,
              beyond: np.ndarray) -> None:
        """File a message for each value beyond its tolerance or not finite."""
        for i in np.flatnonzero(beyond | ~np.isfinite(values)).tolist():
            k = k0 + i
            self._flagged.append((k, f"{what} violated at k={k}: {margin} {float(values[i]):.3e}"))

    def close_block(self) -> None:
        self._flagged.sort(key=lambda item: item[0])
        self.violations.extend(message for _, message in self._flagged)
        self._flagged.clear()


def _audit_stream(states, aux: str, origin: tuple[np.ndarray, np.ndarray],
                  per_state, transition, rho: float, tally: _Tally) -> AuditReport:
    """One blocked pass over consecutive states, the one driver of both audits.

    A block is the last state of the previous block (the first state, for the
    first block) followed by up to B new states (`_BLOCK_ELEMENTS` entries of
    x each). It is stacked into (B + 1, n, p) arrays of x and of the auxiliary
    variable `aux`, with their displacements `dx`, `d<aux>` from the fixed
    point `origin`, and `per_state(dx, daux)` maps the whole stack to named
    per-state columns, "lyapunov" among them. The opening state's columns are
    thus computed again in each block, from the same slices, so with the same
    bits. `transition(k0, cur, nxt)` checks the block's transitions k0, k0 + 1,
    ... from the `[:-1]` rows of the stacks and columns (`cur`) and the `[1:]`
    rows (`nxt`, whose `g_prev` is each transition's gradient) and returns each
    one's worst slack, which is combined with the certified contraction by the
    factor rho. Besides one block, the pass holds only the Lyapunov value of
    each row and the slack of each transition, packed as float64 (8 bytes
    each), and exposes them as arrays once it is done.
    """
    stream = iter(states)
    block = list(islice(stream, 1))  # the first state opens the first block
    size = max(1, _BLOCK_ELEMENTS // block[0].x.size) if block else 0
    x_origin, a_origin = origin
    lyap, slack_col = array("d"), array("d")
    while block:
        block += islice(stream, size)
        x, a = np.array([s.x for s in block]), np.array([getattr(s, aux) for s in block])
        g_prev = np.array([s.g_prev for s in block[1:]])
        block = block[-1:]  # the last state opens the next block; the rest are freed now
        dx, da = x - x_origin, a - a_origin
        cols = per_state(dx, da)
        if not lyap:  # row 0; every later block opens with a row already recorded
            lyap.frombytes(cols["lyapunov"][:1].tobytes())
        if len(x) == 1:  # no new state: the stream has ended
            break
        k0 = len(lyap) - 1
        cur = SimpleNamespace(x=x[:-1], dx=dx[:-1], **{aux: a[:-1], "d" + aux: da[:-1]},
                              **{name: col[:-1] for name, col in cols.items()})
        nxt = SimpleNamespace(x=x[1:], dx=dx[1:], **{aux: a[1:], "d" + aux: da[1:]},
                              g_prev=g_prev, **{name: col[1:] for name, col in cols.items()})
        s = transition(k0, cur, nxt)
        l0, l1 = cur.lyapunov, nxt.lyapunov
        cs = tally.inequality("contraction_slack", "contraction", k0,
                              (rho * l0 - l1) / (1.0 + l0))
        tally.close_block()
        slack_col.frombytes(_min(s, cs).tobytes())
        lyap.frombytes(l1.tobytes())
        # Free this block's stacks before the next block's are built.
        del x, a, g_prev, dx, da, cols, cur, nxt
    # Export the buffers only now: an array('d') cannot grow while one is live.
    return AuditReport(
        lyapunov=np.frombuffer(lyap, dtype=np.float64),
        slack=np.frombuffer(slack_col, dtype=np.float64), checks=tally.worst,
        violations=tally.violations,
    )


def audit_extra(states, mp: MixingPair, cert: ExtraCertificate, fp) -> AuditReport:
    """Audit a stream of (x, y) states: x-update, norm equality, key inequality,
    contraction.

    `states` are consecutive extra_xy AlgoStates (as `algorithms.iterate`
    yields them) at the certificate's stepsize, consumed in one blocked pass;
    the gradient of each transition is the `g_prev` its successor carries, and
    the gradient at the optimum is -fp.dstar, evaluated by
    `algorithms.fixed_point`. Violations are reported, never raised.
    """
    h, m, diff, wbar, g_mat, wt = mp.h.a, mp.m.a, mp.diff.a, mp.wbar.a, mp.g.a, mp.wt.a
    p_mat, q_mat = cert.p_mat.a, cert.q_mat.a
    i_minus_wt = np.eye(mp.n) - wt
    alpha = cert.alpha
    theta = mp.theta
    gstar = -fp.dstar
    tally = _Tally()

    def per_state(dx, dy):
        # The h/m distance ends one key inequality and starts the next.
        return {"lyapunov": _wsq(dx, p_mat) + _wsq(dy, q_mat),
                "hm": _wsq(dx, h) + _wsq(dy, m)}

    def transition(k0, cur, nxt):
        # The x-update x+ = wt x + y - alpha g, the one check that reads alpha,
        # formed in place: the out-of-place sum's bits, two temporaries fewer.
        update = np.matmul(wt, cur.x)
        update += cur.y
        update -= alpha * nxt.g_prev
        tally.equality("x_update_rel_err", "x-update", k0, _rel_err_mat(nxt.x, update))

        # Norm equality between the consensus defect of x+ and the y decrement.
        err = _rel_err(_wsq(nxt.dx, diff), _wsq(cur.y - nxt.y, m))
        tally.equality("norm_equality_rel_err", "norm equality", k0, err)

        # Key inequality: the h/m distance decreases by the listed amounts.
        step = cur.x - nxt.x
        rhs = (cur.hm - _wsq(step, wbar) - (theta - THETA_LOWER) * _wsq(step, i_minus_wt)
               - _wsq(nxt.dx, g_mat) - 2.0 * alpha * _dot(nxt.dx, nxt.g_prev - gstar))
        return tally.inequality("key_inequality_slack", "key inequality", k0,
                                (rhs - nxt.hm) / (1.0 + cur.hm))

    return _audit_stream(states, "y", (fp.xstar, fp.ystar), per_state, transition, cert.rho,
                         tally)


def audit_nids(states, mp: MixingPair, cert: NidsCertificate, fp) -> AuditReport:
    """Audit a stream of (d, x) states: equality (a), the d-x connection, the
    key inequality, the r5 norm-bound chain, and the Lyapunov contraction.

    `states` are consecutive nids_dx AlgoStates, consumed in one blocked pass
    as in `audit_extra`.

    The proof's equality (b) and the identities of its norm-bound chain are not
    checked: the connection implies them. With A = I - w, A+ A = I - 11^T/n
    (`mixing.validate` builds A+) and x* consensual, 2 alpha A+ times the
    connection (I - A/2) dd = A x+ / (2 alpha) is (I - 11^T/n)(x+ - x*) =
    alpha m_shift dd, where dd = d+ - d, and 1^T times it is 1^T dd = 0.
    Equality (b), <x+ - x*, dd> = alpha <dd, m_shift dd>, follows at once, and
    so do the chain's |A(x+ - x*)|^2_{A+} = alpha^2 |(2I - A) dd|^2_{A+} =
    alpha^2 |dd|^2_{4 A+ - 4I + A}; its first link, |x+ - x*|^2_A =
    |A(x+ - x*)|^2_{A+}, is A A+ A = A and holds for every state. Only the
    chain's r5 bound on the last term is checked.
    """
    eye = np.eye(mp.n)
    i_minus_w = mp.iw.a
    pn_mat, q_mat = cert.pn_mat.a, cert.q_mat.a
    alpha = cert.alpha
    a2 = alpha**2
    theta = mp.theta
    r4, r5 = cert.r4, cert.r5
    gstar = -fp.dstar

    conn_left = eye - 0.5 * i_minus_w
    m_shift = mp.mtilde.a - (1.0 - theta) * eye
    m_minus = mp.mtilde.a + (theta - 0.5 - 2.0 * r4) * eye
    m_dec = mp.mtilde.a + (theta - THETA_LOWER - r4) * eye
    chain_weight = 4.0 * mp.iw_pinv.a - 4.0 * eye + i_minus_w
    tally = _Tally()

    def per_state(dx, dd):
        sq = _dot(dx, dx)
        # The key inequality starts from base and ends at lhs, whose d weight
        # is the Lyapunov weight q.
        dq = a2 * _wsq(dd, q_mat)
        return {"lyapunov": _wsq(dx, pn_mat) + dq,
                "base": sq + a2 * _wsq(dd, m_minus),
                "lhs": sq + dq}

    def transition(k0, cur, nxt):
        step_d = nxt.d - cur.d

        # Equality (a): x-distance/d-distance cross term, scaled by the
        # products both sides sum.
        err = _cross_rel_err(nxt.dx, nxt.dd, alpha, step_d, np.matmul(m_shift, nxt.dd))
        tally.equality("equality_a_rel_err", "equality (a)", k0, err)

        # Connection between the d increment and the x defect, read as
        # (I - w) x+: equal to (I - w)(x+ - x*) in exact arithmetic, since x*
        # is consensual, but free of (I - w) x*'s round-off, which the
        # division by 2 alpha would lift past EQ_TOL at small alpha.
        err = _rel_err_mat(np.matmul(conn_left, step_d),
                           np.matmul(i_minus_w, nxt.x) / (2.0 * alpha))
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

        # Norm-bound chain: the r5 bound on |x+ - x*|^2_{I - w}, read through
        # the connection as the d increment's norm.
        defect = a2 * _wsq(step_d, chain_weight)
        bound = a2 * r5 * dec
        s_chain = tally.inequality("chain_slack", "norm-bound chain", k0,
                                   (bound - defect) / (1.0 + cur.base))
        return _min(s, s_chain)

    return _audit_stream(states, "d", (fp.xstar, fp.dstar), per_state, transition, cert.rho,
                         tally)
