"""Mixing-matrix construction and validation.

Builds Metropolis weights on a communication graph, applies the spectral
relaxation map (1+c)W - cI, validates the four-part mixing assumption with
its relaxed spectrum (-5/3, 1], and assembles every derived matrix the
contraction certificates need into the one validated pair. A pair at another
theta is validated anew; the eigendecompositions it shares with the first come
from `linalg`'s cache.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import Graph
from .linalg import SymMatrix

__all__ = [
    "THETA_LOWER",
    "MixingValidationError",
    "MixingPair",
    "metropolis",
    "relax",
    "theta_default",
    "validate",
    "dump_matrix_text",
]

# Eigenvalue threshold separating "zero" from "nonzero" in null-space checks;
# mixing weights are O(1) so this is far below any genuine spectral gap.
_NULLSPACE_TOL = 1e-8
# Slack allowed on the semidefinite orderings of the mixing assumption.
_PSD_SLACK = -1e-10
_SPECTRUM_FLOOR = -5.0 / 3.0
# Open lower end of the admissible theta interval (3/4, min{1/(1 - lambda_min(wt)), 1}].
THETA_LOWER = 0.75


class MixingValidationError(ValueError):
    """One or more parts of the mixing assumption failed.

    Carries the full list of named violations so callers can report them all.
    """

    def __init__(self, violations: list[str]):
        self.violations = list(violations)
        super().__init__("; ".join(violations))


@dataclass(frozen=True)
class MixingPair:
    """Validated mixing pair (w, w_tilde) and every matrix the certificates
    derive from it, each built once per pair. A spectrum is read from the
    matrix that owns it (`w.lambda_min`, `iw.eigenvalues`, ...), never stored
    beside it nor on it: each read looks its solve up in the `linalg` cache,
    the one place a solve lives, so a matrix with the same entries as one
    decomposed before reuses that solve while it is cached.
    diff and iw carry w as their basis: their Jacobi solves start from w's
    eigenvectors, which diagonalize them whenever w_tilde is a polynomial in w
    (as (I + w)/2 is). w, wt and wbar, whose eigenvalues set the stepsizes,
    are solved cold from their own entries when first read.

    diff   = wt - w                          (PSD, zero exactly on the consensus line)
    iw     = I - w                           (PSD, zero exactly on the consensus line)
    wbar   = theta*wt + (1-theta)*I          (positive definite)
    h      = (I + wt)/2                      (positive definite: part 4 keeps wt > -I/3)
    m      = pinv(wt - w)                    (PSD, zero on the consensus line)
    iw_pinv = pinv(I - w)                    (PSD, zero on the consensus line)
    g      = w + I - 2*wt                    (= 2((I+w)/2 - wt), PSD: part 4 checks
                                              (I+w)/2 >= wt on g; zero when wt = (I+w)/2)
    mtilde = 2 pinv(I - w) - theta*I         (= pinv((I - w)/2) - theta*I, bit for bit;
                                              the norm over the disagreement space)

    Both pseudo-inverses are projected as P pinv(.) P with P = I - 11^T/n: the
    eigensolver's null vector is 1/sqrt(n) only to round-off, and on long line
    graphs the leftover, scaled by 1/lambda_min_pos(I - w), passes 1e-10.

    theta in (3/4, min{1/(1 - lambda_min(wt)), 1}] parametrizes wbar.
    """

    w: SymMatrix
    wt: SymMatrix
    graph: Graph
    theta: float
    diff: SymMatrix
    iw: SymMatrix
    wbar: SymMatrix
    h: SymMatrix
    m: SymMatrix
    iw_pinv: SymMatrix
    g: SymMatrix
    mtilde: SymMatrix

    @property
    def n(self) -> int:
        return self.w.dim


def metropolis(g: Graph) -> SymMatrix:
    """Metropolis constant edge weights: w_ij = 1/(1 + max(deg_i, deg_j))."""
    n = g.n
    w = np.zeros((n, n))
    for i, j in g.edges:
        w[i, j] = w[j, i] = 1.0 / (1.0 + max(g.degrees[i], g.degrees[j]))
    np.fill_diagonal(w, 1.0 - w.sum(axis=1))
    return SymMatrix(w, name="metropolis")


def relax(w: SymMatrix, factor: float) -> SymMatrix:
    """Spectral relaxation w_new = (1+c)w - cI.

    Preserves eigenvectors and maps each eigenvalue lam to (1+c)lam - c; the
    factor c = 1/3 sends the classical spectrum (-1, 1] onto (-5/3, 1].
    """
    if factor < 0.0:
        raise MixingValidationError([f"relax factor must be >= 0, got {factor}"])
    if factor == 0.0:
        return w
    lam_min, lam_max = w.lambda_min, w.lambda_max
    if lam_min <= -1.0 - 1e-10 or lam_max > 1.0 + 1e-10:
        raise MixingValidationError(
            [f"relax input spectrum [{lam_min:.6f}, {lam_max:.6f}] outside (-1, 1]"]
        )
    new = SymMatrix((1.0 + factor) * w.a - factor * np.eye(w.dim), name=f"relaxed({w.name})")
    if new.lambda_min <= _SPECTRUM_FLOOR + 1e-12:
        raise MixingValidationError(
            [f"relaxed spectrum too wide: lambda_min = {new.lambda_min:.6f} <= -5/3"]
        )
    return new


def theta_default(lam_min_wt: float) -> float:
    """Upper endpoint of the admissible theta interval (3/4, min{1/(1-lam_min), 1}].

    Note the endpoint itself makes w_bar singular when lam_min_wt < 0; callers
    wanting a working certificate should stay strictly inside (see `validate`).
    """
    upper = 1.0 if lam_min_wt >= 1.0 else min(1.0, 1.0 / (1.0 - lam_min_wt))
    if upper <= THETA_LOWER:
        raise MixingValidationError(
            [f"admissible theta interval (3/4, {upper:.6f}] is empty: "
             f"lambda_min(w_tilde) = {lam_min_wt:.6f} is too negative"]
        )
    return upper


def _project(a: np.ndarray) -> np.ndarray:
    """P a P with P = I - 11^T/n, the projection onto the disagreement space."""
    n = len(a)
    proj = np.eye(n) - np.full((n, n), 1.0 / n)
    return proj @ a @ proj


def validate(w: SymMatrix, wt: SymMatrix, g: Graph, theta: float | None = None) -> MixingPair:
    """Check all four parts of the mixing assumption, build the derived
    matrices at theta, and package the pair.

    Raises MixingValidationError listing every violated part (an asymmetric
    matrix ends the check at part 2), or naming a theta outside its interval
    or leaving w_bar singular. The null-space conditions
    are checked spectrally: wt - w and I - w must kill the all-ones vector and
    nothing else. Part 4's (I+w)/2 >= wt is checked on g = 2((I+w)/2 - wt).
    """
    n = g.n
    violations: list[str] = []
    if w.dim != n or wt.dim != n:
        raise MixingValidationError(
            [f"dimension mismatch: graph has {n} nodes, matrices are {w.dim} and {wt.dim}"]
        )

    # Part 1: zero weight between non-neighbors. Agents are numbered from 1 in
    # messages (node indices stay 0-based internally).
    mask = ~g.adjacency & ~np.eye(n, dtype=bool)
    for name, mat in (("w", w.a), ("w_tilde", wt.a)):
        bad = np.abs(mat[mask])
        if bad.size and bad.max() > 1e-12:
            i, j = [int(t[0]) for t in np.nonzero((np.abs(mat) > 1e-12) & mask)]
            violations.append(
                f"part 1 (decentralized): {name} couples agents {i + 1} and {j + 1} "
                f"(weight {mat[i, j]:.3e}) but they share no edge"
            )

    # Part 2: symmetry (SymMatrix construction symmetrizes, so this is a guard
    # against bypassing the wrapper). Parts 3 and 4 assume it, so an asymmetric
    # matrix ends the check here, before any eigensolve.
    asymmetric = [name for name, mat in (("w", w.a), ("w_tilde", wt.a))
                  if not np.array_equal(mat, mat.T)]
    if asymmetric:
        raise MixingValidationError(
            violations + [f"part 2 (symmetry): {name} is not symmetric" for name in asymmetric])

    eye = np.eye(n)
    ones = np.ones((n, 1))
    # wt - w and I - w start their solves from w's eigenvectors (see `linalg`).
    # w is decomposed first, on its own, so its solve is not timed inside theirs.
    w.eig()
    diff = SymMatrix(wt.a - w.a, name="w_tilde - w", basis=w)
    i_minus_w = SymMatrix(eye - w.a, name="I - w", basis=w)

    # Part 3: Null(w - w_tilde) = span(1) and (I - w_tilde) 1 = 0.
    resid = float(np.abs(diff.a @ ones).max())
    if resid > _NULLSPACE_TOL:
        violations.append(f"part 3 (null space): (w_tilde - w) 1 has residual {resid:.3e}")
    # A negative eigenvalue of w_tilde - w is reported once, under part 4.
    dw = diff.eigenvalues
    if dw[0] >= _PSD_SLACK and dw[1] <= _NULLSPACE_TOL:
        violations.append(
            f"part 3 (null space): Null(w - w_tilde) is larger than span(1) "
            f"(second-smallest eigenvalue {dw[1]:.3e})"
        )
    resid = float(np.abs((eye - wt.a) @ ones).max())
    if resid > _NULLSPACE_TOL:
        violations.append(f"part 3 (null space): (I - w_tilde) 1 has residual {resid:.3e}")

    # Null(I - w) = span(1) is required by both algorithms (consensus fixed
    # points exist and are unique up to the consensus line).
    resid = float(np.abs(i_minus_w.a @ ones).max())
    if resid > _NULLSPACE_TOL:
        violations.append(f"null space of I - w: (I - w) 1 has residual {resid:.3e}")
    iw_eigs = i_minus_w.eigenvalues
    if iw_eigs[1] <= _NULLSPACE_TOL:
        violations.append(
            f"null space of I - w: larger than span(1) "
            f"(second-smallest eigenvalue {iw_eigs[1]:.3e})"
        )

    # Part 4: (I+w)/2 >= w_tilde > -I/3 and w_tilde >= w. The first ordering
    # is checked on g = w + I - 2 w_tilde = 2 ((I+w)/2 - w_tilde).
    g_mat = SymMatrix(w.a + eye - 2.0 * wt.a, name="g")
    if not g_mat.lambda_min_at_least(_PSD_SLACK):
        violations.append(
            f"part 4 (spectral): (I+w)/2 - w_tilde has eigenvalue {g_mat.lambda_min / 2.0:.3e} < 0"
        )
    # A Cholesky test that w_tilde is positive definite, with a margin over
    # _NULLSPACE_TOL, settles this check and theta's branch (upper = 1) with no
    # solve; only a failed one reads lambda_min(w_tilde), as does w_bar's below.
    wt_pd = wt.lambda_min_at_least(2.0 * _NULLSPACE_TOL)
    if not wt_pd and (lower_gap := wt.lambda_min + 1.0 / 3.0) < _PSD_SLACK:
        violations.append(
            f"part 4 (spectral): w_tilde + I/3 has eigenvalue {lower_gap:.3e} < 0 "
            f"(lambda_min(w_tilde) = {wt.lambda_min:.6f})"
        )
    if dw[0] < _PSD_SLACK:
        violations.append(f"part 4 (spectral): w_tilde - w has eigenvalue {dw[0]:.3e} < 0")

    if violations:
        raise MixingValidationError(violations)

    wt_pd = wt_pd or wt.lambda_min > _NULLSPACE_TOL
    upper = 1.0 if wt_pd else theta_default(wt.lambda_min)
    if theta is None:
        # Strictly inside the interval: with a positive definite w_tilde the
        # closed end 1 is safe, otherwise the midpoint keeps w_bar definite.
        theta = upper if wt_pd else 0.5 * (THETA_LOWER + upper)
    else:
        # theta = 3/4 exactly is tolerated when w_tilde is PD (the boundary
        # choice used for stepsize-bound reporting); certificates built from
        # it will report themselves as vacuous.
        lower_ok = theta > THETA_LOWER or (theta == THETA_LOWER and wt_pd)
        if not (lower_ok and theta <= upper + 1e-12):
            raise MixingValidationError(
                [f"theta = {theta} outside the admissible interval (3/4, {upper:.6f}]"]
            )
    theta = float(theta)
    wbar = SymMatrix(theta * wt.a + (1.0 - theta) * eye, name="w_bar")
    if not wbar.lambda_min_at_least(2e-12) and wbar.lambda_min <= 1e-12:
        raise MixingValidationError(
            [f"w_bar is not positive definite at theta = {theta} "
             f"(lambda_min = {wbar.lambda_min:.3e}); use a smaller theta"]
        )
    # Project both pseudo-inverses onto the disagreement space (see MixingPair).
    m = SymMatrix(_project(diff.pinv().a), name="pinv(w_tilde - w)")
    iw_pinv = SymMatrix(_project(i_minus_w.pinv().a), name="pinv(I - w)")
    # Halving commutes exactly with the rotation into w's basis, with every
    # Jacobi step, with pinv and with the projection, so this equals
    # pinv((I - w)/2) - theta I without a third decomposition.
    mtilde = SymMatrix(2.0 * iw_pinv.a - theta * eye, name="m_tilde")
    # mtilde maps the all-ones vector to -theta * 1.
    resid = float(np.abs(mtilde.a @ ones + theta * ones).max())
    if resid > 1e-10:
        raise AssertionError(f"m_tilde 1 != -theta 1 (residual {resid:.3e})")

    return MixingPair(
        w=w,
        wt=wt,
        graph=g,
        theta=theta,
        diff=diff,
        iw=i_minus_w,
        wbar=wbar,
        h=SymMatrix((eye + wt.a) / 2.0, name="h"),
        m=m,
        iw_pinv=iw_pinv,
        g=g_mat,
        mtilde=mtilde,
    )


def dump_matrix_text(a: SymMatrix | np.ndarray) -> str:
    """One row per line, space-separated, 17 significant digits."""
    arr = a.a if isinstance(a, SymMatrix) else np.asarray(a, dtype=float)
    return "".join(" ".join(f"{v:.17g}" for v in row) + "\n" for row in arr)
