"""Independent numerical oracles used by the test suite.

The eigenvalue oracle never touches the package's eigensolver: it forms the
characteristic polynomial in exact rational arithmetic (Faddeev-LeVerrier),
isolates the real roots with a Sturm chain, and refines each root by
bisection. Inputs must be given as Fractions and have distinct eigenvalues.

The audit oracles `audit_extra_reference` and `audit_nids_reference` check one
transition at a time with scalar `wnorm_sq`/`wdot` calls, exactly as the
package's audits did before they were blocked; the blocked audits must agree
with them.

`write_csv_reference` is `harness.write_csv` as it was before its rows were
built in one pass: one `_fmt` call per float, the run label and stepsize
formatted again on every row. The package's writer must write the same bytes.

`jacobi_eigh_reference` is the cyclic Jacobi solver as it was before its
rotations were stacked: a two-sided update of the matrix plus a separate one of
the eigenvectors, in numpy scalars. The package's solver must return the same
bits. It reads the sweep cap and tolerance from `decon.linalg` when called, so a
test that patches them there patches both solvers.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from decon.certify import EQ_TOL, INEQ_TOL, AuditReport
from decon import linalg
from decon.linalg import wdot, wnorm_sq


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


def as_fractions(rows, denom: int = 1) -> list[list[Fraction]]:
    """Convert integer (or Fraction) entries over a common denominator."""
    return [[Fraction(v, denom) if isinstance(v, int) else Fraction(v) for v in row]
            for row in rows]


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
        if err > EQ_TOL or not math.isfinite(err):
            self.violations.append(f"{what} violated at k={k}: relative error {err:.3e}")

    def inequality(self, name: str, what: str, k: int, slack: float) -> float:
        self.worst[name] = min(self.worst[name], slack)
        if slack < INEQ_TOL or not math.isfinite(slack):
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


def audit_extra_reference(states, mp, cert, fp, grad) -> AuditReport:
    """Reference for `certify.audit_extra`, one transition at a time: norm
    equality, key inequality, contraction.

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


def audit_nids_reference(states, mp, cert, fp, grad) -> AuditReport:
    """Reference for `certify.audit_nids`, one transition at a time: the two
    equalities, the d-x connection, the key inequality, the r5 norm-bound
    chain, and the Lyapunov contraction.

    `states` are consecutive nids_dx AlgoStates, consumed in one pass as in
    `audit_extra_reference`.
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

    return _audit_stream("nids_dx", states, lyapunov, transition, cert.rho, tally)


# -- trace CSV writer oracle -------------------------------------------------

def _fmt(v: float) -> str:
    return f"{v:.17g}"


def write_csv_reference(trace, path: str) -> None:
    """Write the trace rows; 17 significant digits keep floats exact."""
    cols = "k,algo,alpha,residual"
    if trace.certified:
        cols += ",lyapunov,ratio,slack"
    lines = [cols]
    for i, k in enumerate(trace.ks):
        row = f"{k},{trace.algo},{_fmt(trace.alpha)},{_fmt(trace.residuals[i])}"
        if trace.certified:
            ratio = trace.ratio[i]
            slack = trace.slack[i]
            row += f",{_fmt(trace.lyapunov[i])}"
            row += f",{'' if ratio is None else _fmt(ratio)}"
            row += f",{'' if slack is None else _fmt(slack)}"
        lines.append(row)
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("\n".join(lines) + "\n")
    except OSError as exc:
        raise OSError(f"cannot write trace to {path}: {exc}") from exc
