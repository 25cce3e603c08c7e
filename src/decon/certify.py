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
from array import array
from collections.abc import Callable
from dataclasses import dataclass
from itertools import islice
from types import SimpleNamespace

import numpy as np

from . import algorithms
from .linalg import SymMatrix
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

# Relative tolerance for proved equalities along a trajectory.
EQ_TOL = 1e-9
# Normalized slack floor for proved inequalities (scaled by 1 + Lyapunov).
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


def _lam_max_similar(left: np.ndarray, middle: np.ndarray, name: str,
                     basis: SymMatrix) -> float:
    """lambda_max(left @ middle @ left) for symmetric factors (similarity trick),
    solved from `basis`'s eigenvectors."""
    return SymMatrix(left @ middle @ left, name=name, basis=basis).lambda_max


def _lam_max_iwt(mp: MixingPair) -> float:
    """lambda_max(w_bar^-1/2 (I - w_tilde) w_bar^-1/2) from w_tilde's spectrum.

    w_bar = theta w_tilde + (1 - theta) I has w_tilde's eigenvectors, so the
    matrix has eigenvalues (1 - mu) / (theta mu + 1 - theta) over w_tilde's
    eigenvalues mu; no eigensolve of its own.
    """
    mu = mp.wt.eigenvalues
    return float(np.max((1.0 - mu) / (mp.theta * mu + (1.0 - mp.theta))))


def _admissible(name: str, value: float | None, upper: float) -> float:
    """`value`, or the midpoint of (0, upper) if None; raise unless 0 < value < upper."""
    if value is None:
        return upper / 2.0
    if not 0.0 < value < upper:
        raise CertificateError(f"{name} = {value} outside its admissible interval (0, {upper:.6g})")
    return value


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
    bound = algorithms.STEPSIZES["extra-new"](mp, lipschitz, mu_fbar)
    if not 0.0 < alpha < bound:
        raise CertificateError(
            f"stepsize {alpha} outside the certified range (0, {bound:.6g}) "
            f"= (0, 2 lambda_min(w_bar)/L), open at the bound named extra-new; "
            f"extra-special, its theta -> 3/4 limit when w_tilde = (I + w)/2, is never "
            f"certified"
        )

    # Couplings r1, r2, r3 and lambda_max(w_bar m): r1 from w_tilde's spectrum,
    # r2 and lambda_max(w_bar m) from one similarity eigensolve each (r2's only
    # when g != 0).
    lam_iwt = _lam_max_iwt(mp)
    if theta >= 1.0 - 1e-12 or lam_iwt <= 1e-14:
        r1 = math.inf
    else:
        r1 = (4.0 * theta - 3.0) / (4.0 * (1.0 - theta) ** 2 * lam_iwt)
    # g = 0 whenever w_tilde = (I + w)/2: r2 is infinite at every theta.
    lam_g = 0.0
    if mp.g.a.any():
        isq = mp.wbar.spectral_map(lambda w: 1.0 / np.sqrt(w), "w_bar^-1/2").a
        lam_g = _lam_max_similar(isq, mp.g.a, "g wbar^-1", mp.w)
    r2 = math.inf if lam_g <= 1e-12 else 1.0 / (2.0 * lam_g)
    r3 = 1.0 / (1.0 + (0.0 if math.isinf(r1) else 1.0 / r1)
                + (0.0 if math.isinf(r2) else 1.0 / r2))
    sq = mp.wbar.spectral_map(np.sqrt, "w_bar^1/2").a
    lam_wbar_m = _lam_max_similar(sq, mp.m.a, "wbar m", mp.w)
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
    return ExtraCertificate(
        r1=r1, r2=r2, r3=r3, xi=xi, eta=eta, mu_g=mu_g, rho=rho, branches=branches,
        p_mat=p_mat, q_mat=q_mat, alpha=alpha, lam_max_wbar_m=lam_wbar_m,
    )


def nids_constants(mp: MixingPair, lipschitz: float, mu_fbar: float, alpha: float,
                   r4: float | None = None, eta: float | None = None) -> NidsCertificate:
    """Full certificate for the (d, x) iteration at stepsize alpha in (0, 2/L)."""
    bound = algorithms.STEPSIZES["nids"](mp, lipschitz, mu_fbar)
    if not 0.0 < alpha < bound:
        raise CertificateError(
            f"stepsize {alpha} outside the certified range (0, {bound:.6g}) = (0, 2/L)"
        )
    theta = mp.theta
    if theta <= _THETA_BOUNDARY:
        raise CertificateError(
            f"vacuous certificate: the r4 interval (0, theta - 3/4) is empty at theta = {theta}"
        )
    lam_iw = mp.iw.lambda_max
    if theta * lam_iw >= 2.0 - 1e-12:
        raise CertificateError(
            f"I - theta (I - w)/2 is not positive definite: theta * lambda_max(I - w) "
            f"= {theta * lam_iw:.6g} >= 2"
        )
    r4 = _admissible("r4", r4, theta - THETA_LOWER)

    # Denominator > 0: 3/4 + r4 < theta and theta lambda_max(I - w) < 2, both checked above.
    r5 = max(2.0, (lam_iw - 2.0) ** 2 / (2.0 - (THETA_LOWER + r4) * lam_iw))

    eta = _admissible("eta", eta, 1.0 / (alpha * (2.0 - alpha * lipschitz) * r5))

    lam_min_pos_iw = float(mp.iw.eigenvalues[1])  # as in extra_constants
    mu_g = mu_g_value(mu_fbar, lipschitz, lam_min_pos_iw, eta)
    lam_iw_pinv = 1.0 / lam_min_pos_iw
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
    _require_pd(deflated)
    pn_mat = SymMatrix(eye + mp.iw.a / r5, name="pn")
    _require_pd(pn_mat)
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

    algorithm: str
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
    transition with a stable sort, which keeps that order within one.

    The worst margin is always the NaN-skipping `fmax`/`fmin` reduction. A
    block is accepted whole, without looking for entries to flag, when a
    second reduction shows every entry finite and within tolerance: an
    equality's `min` above -inf with its worst at most `EQ_TOL`, an
    inequality's worst at least `INEQ_TOL` with its `max` below inf. `min`
    and `max` return NaN if any entry is NaN, and NaN fails both tests, so a
    block that would file a message always reaches `_flag`, and the worst
    margins and messages keep their bits.
    """

    def __init__(self, equalities: tuple[str, ...], inequalities: tuple[str, ...]):
        self.worst = {name: 0.0 for name in equalities}
        self.worst.update({name: math.inf for name in inequalities})
        self.violations: list[str] = []
        self._flagged: list[tuple[int, str]] = []

    def equality(self, name: str, what: str, k0: int, err: np.ndarray) -> None:
        # fmax/fmin skip NaN in the worst margin; _flag still flags it.
        top = float(np.fmax.reduce(err, initial=-math.inf))
        self.worst[name] = max(self.worst[name], top)
        if not (top <= EQ_TOL and err.min(initial=math.inf) > -math.inf):
            self._flag(what, "relative error", k0, err, err > EQ_TOL)

    def inequality(self, name: str, what: str, k0: int, slack: np.ndarray) -> np.ndarray:
        low = float(np.fmin.reduce(slack, initial=math.inf))
        self.worst[name] = min(self.worst[name], low)
        if not (low >= INEQ_TOL and slack.max(initial=-math.inf) < math.inf):
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
    contraction by the factor rho. Besides one block, the pass holds only the
    Lyapunov value of each row and the slack of each transition, packed as
    float64 (8 bytes each), and exposes them as arrays once it is done.
    """
    stream = iter(states)
    first = next(stream, None)
    lyap, slack_col = array("d"), array("d")
    if first is not None:
        size = max(1, _BLOCK_ELEMENTS // first.x.size)
        x_origin, a_origin = origin
        prev = first
        prev_cols = per_state(first.x[None] - x_origin, getattr(first, aux)[None] - a_origin)
        lyap.frombytes(prev_cols["lyapunov"].tobytes())
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
            slack_col.frombytes(_min(s, cs).tobytes())
            lyap.frombytes(l1.tobytes())
            prev_cols = cols
            # Free this block's stacks before the next block's are built.
            del stacks, x, a, g_prev, dx, da, cur, nxt
    # Export the buffers only now: an array('d') cannot grow while one is live.
    return AuditReport(
        algorithm=algorithm, lyapunov=np.frombuffer(lyap, dtype=np.float64),
        slack=np.frombuffer(slack_col, dtype=np.float64), checks=tally.worst,
        violations=tally.violations,
    )


def audit_extra(states, mp: MixingPair, cert: ExtraCertificate, fp) -> AuditReport:
    """Audit a stream of (x, y) states: norm equality, key inequality, contraction.

    `states` are consecutive extra_xy AlgoStates (as `algorithms.iterate`
    yields them) at the certificate's stepsize, consumed in one blocked pass;
    the gradient of each transition is the `g_prev` its successor carries, and
    the gradient at the optimum is -fp.dstar, evaluated by
    `algorithms.fixed_point`. Violations are reported, never raised.

    When g = w + I - 2 w_tilde is exactly zero, as it is for w_tilde =
    (I + w)/2, the key inequality's g term is formed only for a block whose
    h/m distance after the step is somewhere zero or not finite. Elsewhere the
    term can only be a signed zero: an inf or NaN entry of x+ (which would
    make it NaN) makes that distance inf or NaN as well, and subtracting a
    zero moves no slack whose distance is finite and nonzero. So the slacks
    keep their bits.
    """
    h, m, diff, wbar, g_mat = mp.h.a, mp.m.a, mp.diff.a, mp.wbar.a, mp.g.a
    g_zero = not g_mat.any()
    p_mat, q_mat = cert.p_mat.a, cert.q_mat.a
    i_minus_wt = np.eye(mp.n) - mp.wt.a
    alpha = cert.alpha
    theta = mp.theta
    gstar = -fp.dstar
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
        rhs = cur.hm - _wsq(step, wbar) - (theta - THETA_LOWER) * _wsq(step, i_minus_wt)
        if not (g_zero and np.isfinite(nxt.hm).all() and nxt.hm.all()):
            rhs = rhs - _wsq(nxt.dx, g_mat)
        rhs = rhs - 2.0 * alpha * _dot(nxt.dx, nxt.g_prev - gstar)
        return tally.inequality("key_inequality_slack", "key inequality", k0,
                                (rhs - nxt.hm) / (1.0 + cur.hm))

    return _audit_stream("extra_xy", states, "y", (fp.xstar, fp.ystar), per_state, transition,
                         cert.rho, tally)


def audit_nids(states, mp: MixingPair, cert: NidsCertificate, fp) -> AuditReport:
    """Audit a stream of (d, x) states: the two equalities, the d-x connection,
    the key inequality, the r5 norm-bound chain, and the Lyapunov contraction.

    `states` are consecutive nids_dx AlgoStates, consumed in one blocked pass
    as in `audit_extra`.
    """
    eye = np.eye(mp.n)
    i_minus_w = mp.iw.a
    iw_pinv = mp.iw_pinv.a
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
    chain_weight = 4.0 * iw_pinv - 4.0 * eye + i_minus_w
    two_minus_iw = 2.0 * eye - i_minus_w
    tally = _Tally(
        ("equality_a_rel_err", "equality_b_rel_err", "connection_rel_err", "chain_rel_err"),
        ("key_inequality_slack", "chain_slack", "contraction_slack"),
    )

    def per_state(dx, dd):
        sq = _dot(dx, dx)
        # The key inequality starts from base and ends at lhs, whose d weight
        # is the Lyapunov weight q.
        dq = a2 * _wsq(dd, q_mat)
        return {"lyapunov": _wsq(dx, pn_mat) + dq,
                "base": sq + a2 * _wsq(dd, m_minus),
                "lhs": sq + dq}

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
