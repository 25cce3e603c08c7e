"""Independent numerical oracles used by the test suite.

The eigenvalue oracle never touches the package's eigensolver: it forms the
characteristic polynomial in exact rational arithmetic (Faddeev-LeVerrier),
isolates the real roots with a Sturm chain, and refines each root by
bisection. Inputs must be given as Fractions and have distinct eigenvalues.
`eigenvalues_within` asks the same chain whether given values lie within a
tolerance of the roots, without refining them: it is the oracle for matrices
too large for the bisection to finish in a test's time.

The audit oracles `audit_extra_reference` and `audit_nids_reference` check one
transition at a time with scalar `wnorm_sq`/`wdot` calls, exactly as the
package's audits did before they were blocked; the blocked audits must agree
with them. Their `ReferenceReport` keeps the per-row columns as the package's
`AuditReport` did before they were packed: Python lists of the ratio, one
division per transition, and of the slack, both None on row 0. `ratio_column`
derives the same ratio list from an `AuditReport`'s Lyapunov column.

`write_csv_reference` is `harness.write_csv` as it was before its rows were
built in one pass and then streamed in chunks: one `_fmt` call per float, the
run label and stepsize formatted again on every row, all rows joined at once;
it derives each row's ratio with one Python division. The package's writer
must write the same bytes.

`grad_reference` is `problem.grad` as it was before it called numpy's einsum
kernel directly, through two `np.einsum` calls; `UPDATES_REFERENCE` holds the
five updates of `algorithms` as they were before they used `ndarray.dot`, each
matrix applied with `@`. The package's gradient and steps must return the same
bits.

`jacobi_eigh_reference` is the per-matrix reference of the cyclic Jacobi
solver, as it was before its rotations were stacked: one matrix, a two-sided
update of it plus a separate one of the eigenvectors, in numpy scalars. The
package's stacked solver must return, for every member of a stack, the bits
(and eigenvector strides) this returns on that matrix alone, and a capped stack
the error text of its first capped member alone. It reads the sweep cap and
tolerance from `decon.linalg` when called, so a test that patches them there
patches both solvers.

`inv_reference`, `sqrt_reference` and `isqrt_reference` are the spectral
rebuilds `SymMatrix.inv`, `sqrt` and `isqrt` as they were before
`SymMatrix.spectral_map` took the whole eigenvalue array: `inv` mapped the
array, the other two called their map once per eigenvalue. `lambda_min_pos_reference`
is the cutoff-based `SymMatrix.lambda_min_pos`. The powers of w_bar the EXTRA
certificate reads and its smallest positive eigenvalue of I - w must equal them
bit for bit.

`lam_iwt_reference` is r1's lambda_max(w_bar^-1/2 (I - w_tilde) w_bar^-1/2) as
`certify.extra_constants` computed it before it read w_tilde's spectrum: one
eigensolve of the similarity product. The closed form must agree to round-off.

`until_stop_reference` is `harness._until_stop` as it was before it replayed
exact cycles: it pulls and tests every state up to max_iters. The run loop
must record the same residuals and status, and yield the same states up to
a cycle's close.

`trajectory` stacks the iterates of `algorithms.iterate` and `iterations_to`
reads the first iteration of a trace at a residual level; the tests use both,
the package does not.

`wnorm_sq` and `wdot` are the weighted norm and inner product tr(x^T H y);
`agent_value` and `agent_grad` are one agent's local objective and gradient;
`mu_g`, `RscReport` and `check_rsc` sample the restricted strong convexity
inequality at the modulus `problem.mu_g_value` gives. The package computes
none of them at run time.

`rho_special` is the paper's contraction factor in its two limit cases, in
terms of the spectral gap, which `certify.extra_rho` is checked against.
`search_extra_certificate` and `search_nids_certificate` are coarse grid
searches for the certificate with the smallest contraction factor; they look
`certify`'s constants up when called, so a test that patches them there
patches the searches.
`linear_model` builds a certified step's error map T on the whole invariant
subspace by stepping a basis through the package's own `operators` and
`step`, on `Fraction` copies of the run's operands or on the floats
themselves, and `lyapunov_weights` gives V's weights in the same arithmetic.
`exact_contraction` decides a certificate's claim V(T e) <= rho V(e) from the
exact T, with `positive_definite` (an exact LDL^T) deciding the Gram matrices
it forms; `float_rates` reads rho(T)^2 and |T|_V^2 from the float T. `exact`
makes the `Fraction` copies and `disagreement_basis` spans 1-perp.
`to_edge_list_text` and `parse_matrix_text` are the inverses of what the CLI
reads (`graph.from_edge_list_text`) and writes (`mixing.dump_matrix_text`).

`half_pair` is the validated mixing pair with w_tilde = (I + w)/2 that most
tests run on, and `edited_problem` writes a saved problem file with its JSON
edited, as a hand-edited file would reach `--load-problem`.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import islice

import numpy as np

from decon import algorithms, certify, harness
from decon.algorithms import AlgoState, iterate
from decon.certify import EQ_TOL, INEQ_TOL, CertificateError
from decon import linalg
from decon.linalg import NotPositiveSemidefiniteError, SymMatrix
from decon.mixing import (THETA_LOWER, MixingPair, MixingValidationError, theta_default,
                          validate)
from decon.problem import SensingProblem, grad, mu_g_value, save_problem


def _mat_mul(a, b):
    n = len(a)
    return [[sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)] for i in range(n)]


def char_poly(a: list[list[Fraction]]) -> list[Fraction]:
    """Monic characteristic polynomial coefficients, lowest degree first."""
    n = len(a)
    coeffs = [Fraction(0)] * (n + 1)
    coeffs[n] = Fraction(1)
    m = [[Fraction(0)] * n for _ in range(n)]
    for k in range(1, n + 1):
        m = _mat_mul(a, m)
        for i in range(n):
            m[i][i] += coeffs[n - k + 1]
        am = _mat_mul(a, m)
        trace = sum(am[i][i] for i in range(n))
        coeffs[n - k] = -trace / k
    return coeffs


def _poly_eval(p: list[Fraction], x: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(p):
        acc = acc * x + c
    return acc


def _poly_deriv(p: list[Fraction]) -> list[Fraction]:
    return [c * k for k, c in enumerate(p)][1:]


def _poly_trim(p: list[Fraction]) -> list[Fraction]:
    while p and p[-1] == 0:
        p = p[:-1]
    return p


def _poly_mod(num: list[Fraction], den: list[Fraction]) -> list[Fraction]:
    num = list(num)
    dn = len(den) - 1
    lead = den[-1]
    while len(num) - 1 >= dn and _poly_trim(num):
        num = _poly_trim(num)
        if len(num) - 1 < dn:
            break
        shift = len(num) - 1 - dn
        factor = num[-1] / lead
        for i in range(dn + 1):
            num[shift + i] -= factor * den[i]
        num = num[:-1]
    return _poly_trim(num)


def sturm_chain(p: list[Fraction]) -> list[list[Fraction]]:
    chain = [_poly_trim(p), _poly_trim(_poly_deriv(p))]
    while len(chain[-1]) > 1:
        rem = _poly_mod(chain[-2], chain[-1])
        if not rem:
            break
        chain.append([-c for c in rem])
    return [c for c in chain if c]


def _sign_variations(chain, x: Fraction) -> int:
    signs = []
    for p in chain:
        v = _poly_eval(p, x)
        if v != 0:
            signs.append(1 if v > 0 else -1)
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def count_roots_in(chain, lo: Fraction, hi: Fraction) -> int:
    """Number of distinct real roots in (lo, hi]."""
    return _sign_variations(chain, lo) - _sign_variations(chain, hi)


def eigenvalues_by_bisection(a: list[list[Fraction]], tol: float = 1e-12) -> list[float]:
    """All eigenvalues of a symmetric rational matrix with distinct spectrum.

    Raises if the Sturm count finds fewer distinct roots than the dimension
    (use only on fixtures with simple eigenvalues).
    """
    n = len(a)
    p = char_poly(a)
    chain = sturm_chain(p)
    radius = max(
        abs(a[i][i]) + sum(abs(a[i][j]) for j in range(n) if j != i) for i in range(n)
    )
    lo, hi = -radius - 1, radius + 1
    total = count_roots_in(chain, lo, hi)
    if total != n:
        raise ValueError(f"expected {n} distinct eigenvalues, Sturm chain found {total}")
    roots = []
    for k in range(1, n + 1):
        a_k, b_k = lo, hi
        while float(b_k - a_k) > tol:
            mid = (a_k + b_k) / 2
            if count_roots_in(chain, lo, mid) >= k:
                b_k = mid
            else:
                a_k = mid
        roots.append(float((a_k + b_k) / 2))
    return roots


def eigenvalues_within(a: list[list[Fraction]], values, tol: float = 1e-9) -> bool:
    """Whether each of the ascending `values` lies within tol of the matching
    eigenvalue of a symmetric rational matrix with distinct spectrum.

    It asks the Sturm chain `eigenvalues_by_bisection` refines at two points
    per eigenvalue instead of at about 45 bisection midpoints: the k-th root
    lies in (v_k - tol, v_k + tol] exactly when at most k - 1 roots lie at or below v_k - tol and
    at least k at or below v_k + tol. Raises like `eigenvalues_by_bisection`
    on a repeated eigenvalue.
    """
    n = len(a)
    chain = sturm_chain(char_poly(a))
    radius = max(
        abs(a[i][i]) + sum(abs(a[i][j]) for j in range(n) if j != i) for i in range(n)
    )
    lo = -radius - 1
    total = count_roots_in(chain, lo, radius + 1)
    if total != n:
        raise ValueError(f"expected {n} distinct eigenvalues, Sturm chain found {total}")
    return all(
        count_roots_in(chain, lo, Fraction(float(v) - tol)) <= k - 1
        and count_roots_in(chain, lo, Fraction(float(v) + tol)) >= k
        for k, v in enumerate(values, start=1))


def as_fractions(rows, denom: int = 1) -> list[list[Fraction]]:
    """Convert integer (or Fraction) entries over a common denominator."""
    return [[Fraction(v, denom) if isinstance(v, int) else Fraction(v) for v in row]
            for row in rows]


# -- spectral rebuild oracles ------------------------------------------------

_DEFINITE_FLOOR = 1e-13


def _spectral_map_reference(s: SymMatrix, fn, name: str | None = None) -> SymMatrix:
    """Apply fn to the eigenvalues and rebuild (same eigenvectors)."""
    w, v = s.eig()
    mapped = np.array([fn(x) for x in w], dtype=float)
    return SymMatrix((v * mapped) @ v.T, name=name or f"f({s.name})")


def inv_reference(s: SymMatrix) -> SymMatrix:
    """Inverse of a positive definite matrix."""
    w, v = s.eig()
    if w[0] <= _DEFINITE_FLOOR * max(1.0, abs(float(w[-1]))):
        raise NotPositiveSemidefiniteError(
            f"{s.name!r} is not positive definite: lambda_min = {w[0]:.6e}"
        )
    return SymMatrix((v * (1.0 / w)) @ v.T, name=f"inv({s.name})")


def sqrt_reference(s: SymMatrix) -> SymMatrix:
    if s.lambda_min < -_DEFINITE_FLOOR * max(1.0, abs(s.lambda_max)):
        raise NotPositiveSemidefiniteError(f"{s.name!r} is not PSD; no real square root")
    return _spectral_map_reference(s, lambda x: np.sqrt(max(x, 0.0)), name=f"sqrt({s.name})")


def isqrt_reference(s: SymMatrix) -> SymMatrix:
    """Inverse square root of a positive definite matrix."""
    if s.lambda_min <= 0.0:
        raise NotPositiveSemidefiniteError(
            f"{s.name!r} is not positive definite: lambda_min = {s.lambda_min:.6e}"
        )
    return _spectral_map_reference(s, lambda x: 1.0 / np.sqrt(x), name=f"isqrt({s.name})")


def lambda_min_pos_reference(s: SymMatrix) -> float:
    """Smallest eigenvalue counted as nonzero (PSD matrices)."""
    w = s.eigenvalues
    cutoff = linalg._RANK_TOL * max(abs(w[0]), abs(w[-1]))
    positive = w[w > cutoff]
    if positive.size == 0:
        raise ValueError(f"{s.name!r} has no nonzero eigenvalue above {cutoff:.3e}")
    return float(positive[0])


def lam_iwt_reference(mp) -> float:
    """lambda_max(w_bar^-1/2 (I - w_tilde) w_bar^-1/2) by a similarity eigensolve."""
    isq = mp.wbar.spectral_map(lambda w: 1.0 / np.sqrt(w), "w_bar^-1/2").a
    return SymMatrix(isq @ (np.eye(mp.n) - mp.wt.a) @ isq,
                     name="wbar^-1 (I - w_tilde)").lambda_max


# -- per-transition audit oracles -------------------------------------------

def _off_diagonal_norm(a: np.ndarray) -> float:
    off = a - np.diag(np.diag(a))
    return float(np.linalg.norm(off))


def jacobi_eigh_reference(a: np.ndarray, name: str) -> tuple[np.ndarray, np.ndarray]:
    """Cyclic Jacobi rotations on a symmetric matrix (unstacked reference)."""
    n = a.shape[0]
    if n == 1:
        return a[0, :].copy(), np.ones((1, 1))
    a = a.copy()
    v = np.eye(n)
    fro = float(np.linalg.norm(a))
    if fro == 0.0:
        return np.zeros(n), v
    threshold = linalg._JACOBI_TOL * fro
    off = _off_diagonal_norm(a)
    for _ in range(linalg._JACOBI_MAX_SWEEPS):
        if off <= threshold:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                app, aqq = a[p, p], a[q, q]
                # Pivot already negligible against its diagonal: zero it and move on.
                guard = 100.0 * abs(apq)
                if abs(app) + guard == abs(app) and abs(aqq) + guard == abs(aqq):
                    a[p, q] = 0.0
                    a[q, p] = 0.0
                    continue
                gap = aqq - app
                if abs(gap) + guard == abs(gap):
                    t = apq / gap
                else:
                    tau = gap / (2.0 * apq)
                    t = 1.0 / (abs(tau) + np.sqrt(1.0 + tau * tau))
                    if tau < 0.0:
                        t = -t
                c = 1.0 / np.sqrt(1.0 + t * t)
                s = t * c
                col_p = a[:, p].copy()
                col_q = a[:, q].copy()
                a[:, p] = c * col_p - s * col_q
                a[:, q] = s * col_p + c * col_q
                row_p = a[p, :].copy()
                row_q = a[q, :].copy()
                a[p, :] = c * row_p - s * row_q
                a[q, :] = s * row_p + c * row_q
                # Rotation annihilates the pivot pair exactly.
                a[p, q] = 0.0
                a[q, p] = 0.0
                a[p, p] = app - t * apq
                a[q, q] = aqq + t * apq
                vec_p = v[:, p].copy()
                vec_q = v[:, q].copy()
                v[:, p] = c * vec_p - s * vec_q
                v[:, q] = s * vec_p + c * vec_q
        off = _off_diagonal_norm(a)
    else:
        raise linalg.EigenConvergenceError(
            f"Jacobi eigensolver did not converge on {name!r}: "
            f"off-diagonal norm {off:.3e} after {linalg._JACOBI_MAX_SWEEPS} sweeps "
            f"(target {threshold:.3e})"
        )
    eigenvalues = np.diag(a).copy()
    order = np.argsort(eigenvalues, kind="stable")
    return eigenvalues[order], v[:, order]


def _rel_err(a: float, b: float) -> float:
    return abs(a - b) / (1.0 + abs(a) + abs(b))


def _cross_rel_err(x: np.ndarray, y: np.ndarray, alpha: float, u: np.ndarray,
                   v: np.ndarray) -> float:
    """|x.y - alpha u.v| relative to 1 + |x|.|y| + alpha |u|.|v|, the scale
    of the round-off of two sums of products."""
    xy, uv = x * y, u * v
    err = abs(float(np.sum(xy)) - alpha * float(np.sum(uv)))
    return err / (1.0 + float(np.sum(np.abs(xy))) + alpha * float(np.sum(np.abs(uv))))


def _rel_err_mat(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.linalg.norm(a - b) / (1.0 + np.linalg.norm(a) + np.linalg.norm(b)))


class _Tally:
    """Worst margin per named check of one audit, plus one message per violation.

    A check enters `worst` when it first reports, from 0.0 for an equality and
    inf for an inequality."""

    def __init__(self):
        self.worst: dict[str, float] = {}
        self.violations: list[str] = []

    def equality(self, name: str, what: str, k: int, err: float) -> None:
        self.worst[name] = max(self.worst.get(name, 0.0), err)
        if err > EQ_TOL or not math.isfinite(err):
            self.violations.append(f"{what} violated at k={k}: relative error {err:.3e}")

    def inequality(self, name: str, what: str, k: int, slack: float) -> float:
        self.worst[name] = min(self.worst.get(name, math.inf), slack)
        if slack < INEQ_TOL or not math.isfinite(slack):
            self.violations.append(f"{what} violated at k={k}: normalized slack {slack:.3e}")
        return slack


@dataclass
class ReferenceReport:
    """An oracle audit: `AuditReport`'s fields, with the ratio and slack of
    each row as lists (None on row 0, and None where L_{k-1} <= 0 or is NaN
    for the ratio)."""

    transitions: int
    lyapunov: np.ndarray
    ratio: list[float | None]
    slack: list[float | None]
    checks: dict[str, float]
    violations: list[str]


def ratio_column(report) -> list[float | None]:
    """An `AuditReport`'s ratio column, row k's L_k / L_{k-1} from
    `certify.lyapunov_ratio`, as a list: None on row 0 and where L_{k-1} is
    not positive."""
    with np.errstate(over="ignore", invalid="ignore"):
        ratio, exists = certify.lyapunov_ratio(report.lyapunov[:-1], report.lyapunov[1:])
    return [None] + [r if ok else None for r, ok in zip(ratio.tolist(), exists.tolist())]


def _audit_stream(states, lyapunov, transition, rho: float,
                  tally: _Tally) -> ReferenceReport:
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
    return ReferenceReport(
        transitions=len(ratio) - 1, lyapunov=np.array(lyap),
        ratio=ratio, slack=slack_col, checks=tally.worst, violations=tally.violations,
    )


def audit_extra_reference(states, mp, cert, fp) -> ReferenceReport:
    """Reference for `certify.audit_extra`, one transition at a time:
    x-update, norm equality, key inequality, contraction.

    `states` are consecutive extra_xy AlgoStates (as `algorithms.iterate`
    yields them) at the certificate's stepsize, consumed in one pass; the
    gradient of each transition is the `g_prev` its successor carries.
    Violations are reported, never raised.
    """
    i_minus_wt = np.eye(mp.n) - mp.wt.a
    alpha = cert.alpha
    theta = mp.theta
    gstar = -fp.dstar
    tally = _Tally()

    def lyapunov(state) -> float:
        return wnorm_sq(state.x - fp.xstar, cert.p_mat) + wnorm_sq(state.y - fp.ystar, cert.q_mat)

    def transition(k: int, cur, nxt) -> float:
        dx_nxt = nxt.x - fp.xstar

        # The x-update x+ = wt x + y - alpha g.
        update = mp.wt.a @ cur.x + cur.y - alpha * nxt.g_prev
        tally.equality("x_update_rel_err", "x-update", k, _rel_err_mat(nxt.x, update))

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

    return _audit_stream(states, lyapunov, transition, cert.rho, tally)


def audit_nids_reference(states, mp, cert, fp) -> ReferenceReport:
    """Reference for `certify.audit_nids`, one transition at a time: equality
    (a), the d-x connection, the key inequality, the r5 norm-bound chain, and
    the Lyapunov contraction. Equality (b) and the chain's identities follow
    from the connection, as `audit_nids` says, and are not checked.

    `states` are consecutive nids_dx AlgoStates, consumed in one pass as in
    `audit_extra_reference`.
    """
    eye = np.eye(mp.n)
    i_minus_w = mp.iw.a
    alpha = cert.alpha
    theta = mp.theta
    r4, r5 = cert.r4, cert.r5
    gstar = -fp.dstar

    conn_left = eye - 0.5 * i_minus_w
    m_shift = mp.mtilde.a - (1.0 - theta) * eye
    m_plus = mp.mtilde.a + (theta - 0.5 + 2.0 * r4) * eye
    m_minus = mp.mtilde.a + (theta - 0.5 - 2.0 * r4) * eye
    m_dec = mp.mtilde.a + (theta - 0.75 - r4) * eye
    chain_weight = 4.0 * mp.iw_pinv.a - 4.0 * eye + i_minus_w
    tally = _Tally()

    def lyapunov(state) -> float:
        return wnorm_sq(state.x - fp.xstar, cert.pn_mat) \
            + alpha**2 * wnorm_sq(state.d - fp.dstar, cert.q_mat)

    def transition(k: int, cur, nxt) -> float:
        dx_cur = cur.x - fp.xstar
        dx_nxt = nxt.x - fp.xstar
        dd_nxt = nxt.d - fp.dstar
        step_d = nxt.d - cur.d

        # Equality (a): x-distance/d-distance cross term.
        err = _cross_rel_err(dx_nxt, dd_nxt, alpha, step_d, m_shift @ dd_nxt)
        tally.equality("equality_a_rel_err", "equality (a)", k, err)

        # Connection between the d increment and the x defect, read as
        # (I - w) x+ (x* is consensual, so (I - w) x* is round-off only).
        err = _rel_err_mat(conn_left @ step_d, (i_minus_w @ nxt.x) / (2.0 * alpha))
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

        # Norm-bound chain: the r5 bound on the d increment's chain norm.
        defect = alpha**2 * wnorm_sq(step_d, chain_weight)
        bound = alpha**2 * r5 * wnorm_sq(step_d, m_dec)
        s_chain = tally.inequality("chain_slack", "norm-bound chain", k,
                                   (bound - defect) / (1.0 + base_prev))
        return min(s, s_chain)

    return _audit_stream(states, lyapunov, transition, cert.rho, tally)


# -- trace CSV writer oracle -------------------------------------------------

def _fmt(v: float) -> str:
    return f"{v:.17g}"


def write_csv_reference(trace, path: str) -> None:
    """Write the trace rows; 17 significant digits keep floats exact."""
    cols = "k,algo,alpha,residual"
    if trace.certified:
        cols += ",lyapunov,ratio,slack"
    lines = [cols]
    report = trace.audit
    for k, residual in enumerate(trace.residuals):
        row = f"{k},{trace.algo},{_fmt(trace.alpha)},{_fmt(residual)}"
        if trace.certified:
            lyap = report.lyapunov[k].item()
            before = report.lyapunov[k - 1].item() if k > 0 else None
            ratio = lyap / before if k > 0 and before > 0.0 else None
            slack = report.slack[k - 1] if k > 0 else None
            row += f",{_fmt(lyap)}"
            row += f",{'' if ratio is None else _fmt(ratio)}"
            row += f",{'' if slack is None else _fmt(slack)}"
        lines.append(row)
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("\n".join(lines) + "\n")
    except OSError as exc:
        raise OSError(f"cannot write trace to {path}: {exc}") from exc


# -- gradient and stepper oracles ----------------------------------------------

def bare_problem(sensing: np.ndarray, measurements: np.ndarray):
    """A SensingProblem around raw (n, m, p) data, without `from_data`'s checks
    or normal-equation solve: all the gradient reads is the data."""
    n, _, p = sensing.shape
    return SensingProblem(n=n, p=p, sensing=sensing, measurements=measurements,
                          noise_std=0.0, seed=None, lipschitz=1.0, mu_fbar=1.0,
                          xstar=np.zeros(p))


def grad_reference(prob, x: np.ndarray) -> np.ndarray:
    """Stacked gradient: row i is M_i^T (M_i x_i - y_i)."""
    residual = np.einsum("imp,ip->im", prob.sensing, x) - prob.measurements
    return np.einsum("imp,im->ip", prob.sensing, residual)


def _dgd_reference(s, g, op):
    return AlgoState(op.w @ s.x - op.alpha * g, s.x, g)


def _extra_reference(s, g, op):
    if s.x_prev is None:
        x = op.w @ s.x - op.alpha * g
    else:
        x = (s.x + op.w @ s.x) - op.wt @ s.x_prev - op.alpha * (g - s.g_prev)
    return AlgoState(x, s.x, g)


def _extra_xy_reference(s, g, op):
    x = op.wt @ s.x + s.y - op.alpha * g
    return AlgoState(x, s.x, g, y=s.y - op.diff @ x)


def _nids_reference(s, g, op):
    if s.x_prev is None:
        x = op.half @ (s.x - op.alpha * g)
    else:
        x = op.half @ (2.0 * s.x - s.x_prev - op.alpha * (g - s.g_prev))
    return AlgoState(x, s.x, g)


def _nids_dx_reference(s, g, op):
    v = s.x - op.alpha * g
    d = s.d + (op.half_iw @ (v - op.alpha * s.d)) / op.alpha
    return AlgoState(v - op.alpha * d, s.x, g, d=d)


UPDATES_REFERENCE = {"dgd": _dgd_reference, "extra": _extra_reference,
                     "extra_xy": _extra_xy_reference, "nids": _nids_reference,
                     "nids_dx": _nids_dx_reference}


def step_reference(variant: str, state, ops, prob):
    """One iteration of the run `ops` describes, with the reference gradient of
    `prob` and the `@`-form update of `variant`."""
    return UPDATES_REFERENCE[variant](state, grad_reference(prob, state.x), ops)


# -- run loop oracle and trajectory helpers ------------------------------------

def until_stop_reference(states, config, xstar: np.ndarray, trace):
    """Pass states on while recording each one's residual row in `trace`; end
    the stream at the tolerance, at divergence or after max_iters steps."""
    denom = float(np.linalg.norm(xstar))
    star = xstar.ravel()
    for state in islice(states, config.max_iters + 1):
        if denom > 0.0:
            d = state.x.ravel() - star
            res = math.sqrt(d.dot(d)) / denom
            if not math.isfinite(res):
                res = math.inf
        else:
            res = 0.0
        trace.residuals.append(res)
        if res > harness.DIVERGENCE_LIMIT:
            trace.status = "diverged"
        elif res <= config.tol:
            trace.status = "converged"
        yield state
        if trace.status != "max_iters":
            return


def trajectory(variant: str, x0: np.ndarray, alpha: float, w, wt, grad,
               n_steps: int) -> tuple[np.ndarray, np.ndarray | None]:
    """Run up to n_steps iterations and stack the iterates.

    Returns (xs, aux) where xs[k] is the k-th iterate (xs[0] = x0) and aux is
    the matching y-sequence for extra_xy, the d-sequence for nids_dx, else None.
    A divergent stepsize ends the stack at the first non-finite iterate, which
    is its last row: fewer than n_steps + 1 rows then come back, and the
    overflow that produced the row raises no floating-point warning.
    """
    aux = {"extra_xy": "y", "nids_dx": "d"}.get(variant)
    xs, auxs = [], []
    with np.errstate(over="ignore", invalid="ignore"):
        for state in islice(iterate(variant, x0, alpha, w, wt, grad), n_steps + 1):
            xs.append(state.x)
            if aux is not None:
                auxs.append(getattr(state, aux))
            if not np.all(np.isfinite(state.x)):
                break
    return np.array(xs), None if aux is None else np.array(auxs)


def iterations_to(trace, level: float) -> int | None:
    """First iteration index of `trace` with residual at or below `level`."""
    for k, r in enumerate(trace.residuals):
        if r <= level:
            return k
    return None


# -- formulas and inverses only the tests read ---------------------------------

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


def search_extra_certificate(mp: MixingPair, lipschitz: float, mu_fbar: float,
                             alpha: float, grid: int = 6):
    """Coarse grid search over (theta, xi, eta) minimizing the contraction factor.

    The default certificate is valid but not optimized; this sweeps a few
    admissible combinations and returns the pair at the best theta and the
    certificate with the smallest rho. The thetas sit a quarter, a half, three
    quarters and all of the way from 3/4 to the upper end of the admissible
    interval; one too close to 3/4 for a certificate is skipped.
    """
    upper = theta_default(mp.wt.lambda_min)
    thetas = [THETA_LOWER + f * (upper - THETA_LOWER) for f in (0.25, 0.5, 0.75, 1.0)]
    best = None
    fracs = [(i + 1.0) / (grid + 1.0) for i in range(grid)]
    for theta in thetas:
        try:
            at_theta = validate(mp.w, mp.wt, mp.graph, theta=theta)
            probe = certify.extra_constants(at_theta, lipschitz, mu_fbar, alpha)
        except (MixingValidationError, CertificateError):
            continue
        lam_min_wbar = at_theta.wbar.lambda_min
        for fx in fracs:
            xi = fx * min(probe.r3 / (4.0 * probe.lam_max_wbar_m), 1.0)
            eta_upper = lam_min_wbar * xi / (4.0 * alpha * lam_min_wbar
                                             - 2.0 * alpha**2 * lipschitz)
            for fe in fracs:
                try:
                    cert = certify.extra_constants(at_theta, lipschitz, mu_fbar, alpha, xi=xi,
                                                   eta=fe * eta_upper)
                except CertificateError:
                    continue
                if best is None or cert.rho < best.rho:
                    best_pair, best = at_theta, cert
    if best is None:
        raise CertificateError("no admissible certificate found in the search grid")
    return best_pair, best


def search_nids_certificate(mp: MixingPair, lipschitz: float, mu_fbar: float, alpha: float,
                            grid: int = 8):
    """Grid search over (r4, eta) minimizing the contraction factor.

    r5, and with it the eta interval, depends only on r4: one probe per r4.
    """
    best = None
    fracs = [(i + 1.0) / (grid + 1.0) for i in range(grid)]
    for fr in fracs:
        r4 = fr * (mp.theta - THETA_LOWER)
        try:
            probe = certify.nids_constants(mp, lipschitz, mu_fbar, alpha, r4=r4)
        except CertificateError:
            continue
        for fe in fracs:
            eta = fe / (alpha * (2.0 - alpha * lipschitz) * probe.r5)
            try:
                cert = certify.nids_constants(mp, lipschitz, mu_fbar, alpha, r4=r4, eta=eta)
            except CertificateError:
                continue
            if best is None or cert.rho < best.rho:
                best = cert
    if best is None:
        raise CertificateError("no admissible certificate found in the search grid")
    return best


# -- exact-arithmetic certificate oracle ---------------------------------------

def exact(a) -> np.ndarray:
    """An object array of the `Fraction`s equal to the doubles of `a`."""
    return np.vectorize(Fraction, otypes=[object])(np.asarray(a, dtype=float))


def positive_definite(a) -> bool:
    """Whether the symmetric matrix `a`, of exact entries, is positive definite:
    whether every pivot of its LDL^T factorization, without pivoting, is
    positive. Only the lower triangle is read."""
    a = [list(row) for row in a]
    for k in range(len(a)):
        pivot = a[k][k]
        if pivot <= 0:
            return False
        for i in range(k + 1, len(a)):
            f = a[i][k] / pivot
            if f:
                row = a[i]
                for j in range(k + 1, i + 1):
                    row[j] -= f * a[j][k]
    return True


def disagreement_basis(n: int) -> np.ndarray:
    """The (n, n - 1) integer object array Q = [e_1 - e_n, ..., e_{n-1} - e_n],
    a basis of the disagreement space 1-perp."""
    return np.vstack([np.eye(n - 1, dtype=int), -np.ones((1, n - 1), dtype=int)]).astype(object)


@dataclass(frozen=True)
class LinearModel:
    """The error map T of one step of a certified form on the invariant
    subspace S = R^{np} x (1-perp (x) R^p): a basis B of S, with x free and the
    auxiliary variable (y or d) spanned by (e_i - e_n) e_j^T, and its images
    T B. Each is a pair of (D, n, p) stacks, of x and of the auxiliary, with
    D = (2n - 1) p. A vector's coordinates in B are its x entries followed by
    its auxiliary's first n - 1 rows, so B's own coordinates are the identity."""

    basis: tuple[np.ndarray, np.ndarray] = field(repr=False)
    images: tuple[np.ndarray, np.ndarray] = field(repr=False)

    def spectral_radius(self) -> float:
        """rho(T), the largest eigenvalue modulus of T in the coordinates of B,
        whose column k holds the coordinates of T b_k."""
        x, a = self.images
        t = np.concatenate([x.reshape(len(x), -1), a[:, :-1].reshape(len(a), -1)], axis=1).T
        return float(np.abs(np.linalg.eigvals(t.astype(float))).max())

    def grams(self, weights) -> tuple[np.ndarray, np.ndarray]:
        """The V-Gram matrices G0 = B^T P_V B and G1 = (T B)^T P_V (T B), V's
        weights on x and on the auxiliary given: each the sum, over both
        parts, of u_k^T W u_l with W that part's weight."""
        def gram(vectors):
            return sum(u.reshape(len(u), -1) @ np.matmul(w, u).reshape(len(u), -1).T
                       for u, w in zip(vectors, weights))
        return gram(self.basis), gram(self.images)


def linear_model(variant: str, mp: MixingPair, prob: SensingProblem, alpha: float,
                 exact_arithmetic: bool) -> LinearModel:
    """T of `variant`'s certified form (`certify.certify`) at stepsize alpha,
    built without a trajectory, in exact or in float arithmetic.

    The public `algorithms.operators` and `algorithms.step` step each basis
    vector of S, on `Fraction` copies of w, w_tilde, alpha and the sensing data
    when `exact_arithmetic` is set and on the floats themselves otherwise. For
    least squares the error of one step is a linear map of the error before
    it, stepped with the homogeneous gradient x -> blockdiag(M_i^T M_i) x, so
    in exact arithmetic T is exact over the rationals.
    """
    form, _, _ = certify.certify(variant)
    aux = {"extra_xy": "y", "nids_dx": "d"}[form]
    n, p = prob.n, prob.p
    number, dtype = (exact, object) if exact_arithmetic else (np.asarray, float)
    alpha = Fraction(alpha) if exact_arithmetic else float(alpha)
    sensing = number(prob.sensing)
    hessian = np.matmul(sensing.transpose(0, 2, 1), sensing)
    ops = algorithms.operators(form, alpha, number(mp.w.a), number(mp.wt.a),
                               lambda x: np.matmul(hessian, x[:, :, None])[:, :, 0])

    x = np.zeros(((2 * n - 1) * p, n, p), dtype=dtype)
    a = np.zeros_like(x)
    for k, (i, j) in enumerate(np.ndindex(n, p)):
        x[k, i, j] = 1
    q = disagreement_basis(n)
    for k, (i, j) in enumerate(np.ndindex(n - 1, p), start=n * p):
        a[k, :, j] = q[:, i]
    images = [algorithms.step(AlgoState(u, **{aux: v}), ops) for u, v in zip(x, a)]
    return LinearModel((x, a), (np.array([s.x for s in images]),
                                np.array([getattr(s, aux) for s in images])))


def lyapunov_weights(variant: str, cert, exact_arithmetic: bool) -> tuple:
    """V's weights on x and on the auxiliary: p_mat and q_mat for EXTRA, pn_mat
    and alpha^2 q_mat for NIDS, as `Fraction`s or as floats."""
    number, scalar = (exact, Fraction) if exact_arithmetic else (np.asarray, float)
    if certify.certify(variant)[0] == "nids_dx":
        return number(cert.pn_mat.a), scalar(cert.alpha) ** 2 * number(cert.q_mat.a)
    return number(cert.p_mat.a), number(cert.q_mat.a)


@dataclass(frozen=True)
class ExactContraction:
    """A certificate's claim V(T e) <= rho V(e) on S in exact arithmetic: the
    V-Gram matrices of a basis B of S, G0 = B^T P_V B, and of its images,
    G1 = (T B)^T P_V (T B). Their entries are huge fractions, so the repr
    leaves them out."""

    g0: np.ndarray = field(repr=False)
    g1: np.ndarray = field(repr=False)

    def norm(self) -> bool:
        """Whether V is a norm on S: G0 > 0."""
        return positive_definite(self.g0)

    def holds(self, rho: float) -> bool:
        """Whether V(T e) <= rho V(e) for every e in S, by rho G0 - G1 > 0."""
        return positive_definite(Fraction(rho) * self.g0 - self.g1)


def exact_contraction(variant: str, mp: MixingPair, prob: SensingProblem,
                      cert) -> ExactContraction:
    """`cert`'s claim on S, with V's weights those of `cert` and T the exact
    `linear_model` at the certificate's stepsize; `.norm()` and
    `.holds(cert.rho)` decide it."""
    model = linear_model(variant, mp, prob, cert.alpha, exact_arithmetic=True)
    return ExactContraction(*model.grams(lyapunov_weights(variant, cert, exact_arithmetic=True)))


def float_rates(variant: str, mp: MixingPair, prob: SensingProblem, cert) -> tuple[float, float]:
    """(rho(T)^2, |T|_V^2) in float arithmetic at the certificate's stepsize:
    the squared spectral radius of the float `linear_model`, and the largest
    eigenvalue of G0^-1 G1, the worst one-step ratio V(T e) / V(e) on S."""
    model = linear_model(variant, mp, prob, cert.alpha, exact_arithmetic=False)
    g0, g1 = model.grams(lyapunov_weights(variant, cert, exact_arithmetic=False))
    c = np.linalg.cholesky(g0)
    half = np.linalg.solve(c, np.linalg.solve(c, g1).T)  # C^-1 G1 C^-T
    return model.spectral_radius() ** 2, float(np.linalg.eigvalsh((half + half.T) / 2.0)[-1])


def half_pair(g, w: SymMatrix | None = None, theta: float | None = None) -> MixingPair:
    """The pair (w, (I + w)/2) on `g`, validated at `theta`; with no `w`, the
    one `harness.build_mixing` builds on g's Metropolis matrix."""
    if w is None:
        return harness.build_mixing(harness.RunConfig(theta=theta), g)
    return validate(w, SymMatrix((np.eye(w.dim) + w.a) / 2.0, name="w_tilde"), g, theta=theta)


def edited_problem(path, prob: SensingProblem, edit=None, **keys) -> str:
    """Save `prob` to `path`, apply `edit` to its JSON object in place, set
    `keys` in it and write it back; return the path as a string."""
    save_problem(prob, str(path))
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    if edit is not None:
        edit(payload)
    payload.update(keys)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)
    return str(path)


def to_edge_list_text(g) -> str:
    """One 'i j' line per edge, 0-based node indices."""
    return "".join(f"{i} {j}\n" for i, j in g.edges)


def parse_matrix_text(text: str, name: str = "matrix") -> SymMatrix:
    rows = [[float(tok) for tok in ln.split()] for ln in text.splitlines() if ln.strip()]
    return SymMatrix(np.array(rows), name=name)


# -- weighted norms, per-agent objectives and the sampled RSC check ------------

def _as_array(h) -> np.ndarray:
    return h.a if isinstance(h, SymMatrix) else np.asarray(h, dtype=float)


def wnorm_sq(x: np.ndarray, h) -> float:
    """Squared weighted norm tr(x^T H x) for an (n, p) stacked array."""
    ha = _as_array(h)
    x = np.asarray(x, dtype=float)
    if x.shape[0] != ha.shape[0]:
        raise ValueError(f"dimension mismatch: x has {x.shape[0]} rows, H is {ha.shape[0]}x{ha.shape[1]}")
    return float(np.sum(x * (ha @ x)))


def wdot(x: np.ndarray, y: np.ndarray, h) -> float:
    """Weighted inner product tr(x^T H y)."""
    ha = _as_array(h)
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape:
        raise ValueError(f"shape mismatch: {x.shape} vs {y.shape}")
    if x.shape[0] != ha.shape[0]:
        raise ValueError(f"dimension mismatch: x has {x.shape[0]} rows, H is {ha.shape[0]}x{ha.shape[1]}")
    return float(np.sum(x * (ha @ y)))


def agent_value(prob: SensingProblem, i: int, v: np.ndarray) -> float:
    """Agent i's local objective 0.5 ||M_i v - y_i||^2."""
    r = prob.sensing[i] @ v - prob.measurements[i]
    return 0.5 * float(r @ r)


def agent_grad(prob: SensingProblem, i: int, v: np.ndarray) -> np.ndarray:
    """Agent i's local gradient M_i^T (M_i v - y_i)."""
    return prob.sensing[i].T @ (prob.sensing[i] @ v - prob.measurements[i])


def mu_g(prob: SensingProblem, mp: MixingPair, eta: float) -> float:
    return mu_g_value(prob.mu_fbar, prob.lipschitz, float(mp.iw.eigenvalues[1]), eta)


@dataclass(frozen=True)
class RscReport:
    samples: int
    eta: float
    mu_g: float
    min_slack: float
    violations: int


def check_rsc(prob: SensingProblem, mp: MixingPair, eta: float, samples: int = 1000,
              seed: int = 0) -> RscReport:
    """Sample the restricted strong convexity inequality of the penalized objective.

    For random stacked points x, checks
        <x - x*, grad f(x) - grad f(x*)> + eta ||x - x*||^2_{I-w} >= mu_g ||x - x*||^2.
    Slacks below -1e-9 count as violations (none are expected).
    """
    mg = mu_g(prob, mp, eta)
    rng = np.random.default_rng(seed)
    gstar = grad(prob, prob.Xstar)
    scales = (0.1, 1.0, 3.0)
    min_slack = np.inf
    violations = 0
    for s in range(samples):
        delta = rng.standard_normal((prob.n, prob.p)) * scales[s % len(scales)]
        x = prob.Xstar + delta
        lhs = float(np.sum(delta * (grad(prob, x) - gstar))) + eta * wnorm_sq(delta, mp.iw)
        slack = lhs - mg * float(np.sum(delta * delta))
        min_slack = min(min_slack, slack)
        if slack < -1e-9:
            violations += 1
    return RscReport(samples=samples, eta=eta, mu_g=mg, min_slack=float(min_slack),
                     violations=violations)
