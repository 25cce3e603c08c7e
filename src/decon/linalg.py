"""Dense symmetric linear algebra: Jacobi eigendecomposition and the PSD
pseudo-inverse.

Stacked agent iterates are plain float ndarrays of shape (n_agents, dim); only
square symmetric matrices get a wrapper class (`SymMatrix`), whose
eigendecompositions are cached by their entries' bytes.

`SymMatrix.spectral_map` is the one rebuild of a matrix from its spectrum: `pinv`
is one call of it, and so is each power of w_bar the EXTRA certificate reads.
`SymMatrix.lambda_min_at_least` answers a sign check with a LAPACK Cholesky
factorization and decomposes only when that fails.

Every eigendecomposition goes through `decompose`, which reads each matrix's
result from the cache and solves one call's misses as one stack with the
cyclic Jacobi solver `_jacobi_eigh`; `SymMatrix.eig` is `decompose` of one
matrix, and `problem` decomposes all n agent Grams M_i^T M_i in one call.
Jacobi's rounding defines the saved benchmark reference and every CSV the
package writes, so it is kept even where LAPACK would be faster. The solver
takes a (B, n, n) stack: the cyclic pivot order is the same for every matrix,
so each rotation turns column p and q of every matrix and of its eigenvectors
at once, in place through two scratch buffers with the operations of c x - s y
and s x + c y, and copies them into the rows. Every matrix reads its own
pivots and decides its own rotation, skips and stop in Python floats, so a
member of a stack gets the bits it gets alone.

A `SymMatrix` built with a `basis` is solved warm: Jacobi runs on V^T a V,
V the basis's eigenvectors, and the vectors map back as V U. `mixing` gives
w_tilde - w and I - w the basis w, and `certify` its two similarity products;
each is a polynomial in w when w_tilde is, so V^T a V is diagonal to round-off
and takes no sweep. The matrices whose eigenvalues set a stepsize or the
sensing scale (every M_i^T M_i, the averaged Hessian, w, w_tilde, w_bar) have
no basis and are solved cold when first read, from their own entries, so no
iterate moves.

Solves are memoized by the exact bytes of the symmetrized entries: a
module-level cache keyed by ``(shape, entries.tobytes(), basis bytes)``, the
basis bytes being the basis's entries or None for a cold solve (the bytes
themselves, never a digest alone, so two matrices share a result only when
every entry and basis entry is bit-identical). The basis's eigenvectors are
themselves a function of its entries alone and `_jacobi_eigh` gives each
member of a stack a deterministic function of that member alone, so a hit
returns the bits a fresh solve would, and every CSV, certificate and audit
verdict is the same with or without the cache. Only results that passed the
residual check are stored, read-only since every reader shares them. A solve
lives only here, never on a `SymMatrix`, so `_EIG_CACHE_BUDGET` bytes bound
all spectra: past it the least recently used entries are evicted, and a read
after an eviction solves again. `clear_eig_cache` empties the cache.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from collections.abc import Sequence

import numpy as np

__all__ = [
    "EigenConvergenceError",
    "NonFiniteMatrixError",
    "NotPositiveSemidefiniteError",
    "SymMatrix",
    "clear_eig_cache",
    "decompose",
]

# Off-diagonal reduction target (relative to ||A||_F) and sweep cap for Jacobi.
_JACOBI_TOL = 1e-13
_JACOBI_MAX_SWEEPS = 100

# Eigenvalues at or below _RANK_TOL * lambda_max count as exact zeros in pinv.
_RANK_TOL = 1e-10

# Byte budget of the eigendecomposition cache: key bytes plus the stored
# eigenvalues and eigenvectors of every entry.
_EIG_CACHE_BUDGET = 32 * 2**20
_eig_cache: OrderedDict[tuple, tuple[np.ndarray, np.ndarray]] = OrderedDict()
_eig_cache_bytes = 0


def clear_eig_cache() -> None:
    """Forget every cached eigendecomposition."""
    global _eig_cache_bytes
    _eig_cache.clear()
    _eig_cache_bytes = 0


def _entry_bytes(key: tuple, w: np.ndarray, v: np.ndarray) -> int:
    return len(key[1]) + len(key[2] or b"") + w.nbytes + v.nbytes


def _cache_eig(key: tuple, w: np.ndarray, v: np.ndarray) -> None:
    """Store a checked result, evicting the least recently used past the budget.
    A result larger than the whole budget is not stored (nor flushes the rest)."""
    global _eig_cache_bytes
    size = _entry_bytes(key, w, v)
    if size > _EIG_CACHE_BUDGET:
        return
    _eig_cache[key] = (w, v)
    _eig_cache_bytes += size
    while _eig_cache_bytes > _EIG_CACHE_BUDGET:
        old_key, old = _eig_cache.popitem(last=False)
        _eig_cache_bytes -= _entry_bytes(old_key, *old)


class EigenConvergenceError(RuntimeError):
    """Jacobi sweeps hit the iteration cap before reducing the off-diagonal mass."""


class NonFiniteMatrixError(ValueError):
    """A matrix holds NaN or infinite entries, or overflows when symmetrized."""


class NotPositiveSemidefiniteError(ValueError):
    """A matrix required to be PSD has a significantly negative eigenvalue."""


def _off_diagonal_norm(a: np.ndarray) -> float:
    """Frobenius norm of a's off-diagonal part, its diagonal read as zeros.

    A C-ordered copy with zeroed diagonal: for finite entries the same array,
    so the same norm bits, as a - diag(diag(a)).
    """
    off = np.array(a, order="C")
    off.flat[:: a.shape[0] + 1] = 0.0
    return float(np.linalg.norm(off))


def _jacobi_eigh(mats: np.ndarray, names: Sequence[str]) -> list[tuple[np.ndarray, np.ndarray]]:
    """Cyclic Jacobi rotations on a (B, n, n) stack of exactly symmetric matrices.

    Returns each matrix's eigenvalues in ascending order and its orthogonal
    eigenvector matrix (columns, F-ordered), in stack order; a single solve is
    a stack of one. Dense and dependency-free; intended for the small (n up to
    a few hundred) matrices this package works with.

    `st[j, :, k]` holds column j of matrix k over column j of its
    eigenvectors, so one column rotation turns both, for every matrix of the
    stack at once, in place: buffers u = c x and v = s y, then x = s x,
    y = c y, y = x + y and x = u - v do the very operations of c x - s y and
    s x + c y (IEEE products commute), overwriting no operand still unread.
    The row rotation a textbook two-sided update also applies is a copy here:
    each matrix stays exactly symmetric (entries (i, j) and (j, i) of the
    rotated columns come from the same float operations on equal operands),
    so row q is the rotated column q, transposed. Row p is copied once its
    pivots are done: they are read from column p, and a stale row p entry
    reaches only the pivot pair and the diagonal slots. The cyclic pivot order
    is the same for every matrix. Each matrix reads its own pivot, decides
    whether to skip it and computes its rotation in Python floats (which round
    like float64), and its diagonal is kept in Python floats too, so its bits
    do not depend on the rest of the stack. The stack's diagonal slots go
    stale once rotated: what they hold reaches only the pivot pair, which is
    then zeroed, and the off-diagonal norm reads them as zeros. Each matrix
    has its own stopping target and sweep count and leaves the stack once it
    meets the target. A stack of one turns 1-D rows with float c and s.
    """
    n = mats.shape[1]
    if n == 1:
        return [(a[0, :].copy(), np.ones((1, 1))) for a in mats]
    fros = [float(np.linalg.norm(a)) for a in mats]
    results: list = [(np.zeros(n), np.eye(n)) if fro == 0.0 else None for fro in fros]
    idx = [k for k, fro in enumerate(fros) if fro != 0.0]
    if not idx:
        return results
    st = np.zeros((n, 2 * n, len(idx)))
    st[:, :n] = (mats if len(idx) == len(mats) else mats[idx]).transpose(2, 1, 0)
    # Rows j (2n + 1) of st seen as (2 n^2, B) are its diagonal slots st[j, j];
    # n rows on, the identity's ones st[j, n + j].
    st.reshape(-1, len(idx))[n :: 2 * n + 1] = 1.0
    diag = st.reshape(-1, len(idx))[:: 2 * n + 1].tolist()  # diag[j][k]: matrix k's
    thresholds = [_JACOBI_TOL * fros[k] for k in idx]
    offs = [_off_diagonal_norm(st[:, :n, k]) for k in range(len(idx))]
    sqrt, mul, add, sub = math.sqrt, np.multiply, np.add, np.subtract  # bound once: per pivot
    for _ in range(_JACOBI_MAX_SWEEPS):
        keep = [k for k in range(len(idx)) if offs[k] > thresholds[k]]
        if len(keep) < len(idx):
            for k in range(len(idx)):
                if offs[k] <= thresholds[k]:
                    results[idx[k]] = _eigenpairs(st, diag, k)
            if not keep:
                break
            st = st[:, :, keep]
            diag = [[d[k] for k in keep] for d in diag]
            idx, thresholds = [idx[k] for k in keep], [thresholds[k] for k in keep]
        b = len(idx)
        one = b == 1
        view = st[:, :, 0] if one else st
        item = view.item
        cols = list(view)  # column j of every matrix; tops and rows: its top n and row j
        tops = [col[:n] for col in cols]
        rows = [view[:, j] for j in range(n)]
        u, v = np.empty_like(cols[0]), np.empty_like(cols[0])
        # Each matrix's c and s at the current pivot, and whether it turns there;
        # the c and s of a matrix that skips the pivot are stale and masked out.
        cs, ss, live = ([1.0], [0.0], [False]) if one else (np.ones(b), np.zeros(b), np.zeros(b, bool))
        for p in range(n - 1):
            x = cols[p]
            diag_p = diag[p]
            for q in range(p + 1, n):
                diag_q = diag[q]
                turned = 0
                for k, apq in enumerate([item(p, q)] if one else view[p, q].tolist()):
                    app, aqq = diag_p[k], diag_q[k]
                    # Pivot already negligible against its diagonal: zero it and move on.
                    guard = 100.0 * abs(apq)
                    if abs(app) + guard == abs(app) and abs(aqq) + guard == abs(aqq):
                        live[k] = False
                        continue
                    gap = aqq - app
                    if abs(gap) + guard == abs(gap):
                        t = apq / gap
                    else:
                        tau = gap / (2.0 * apq)
                        t = 1.0 / (abs(tau) + sqrt(1.0 + tau * tau))
                        if tau < 0.0:
                            t = -t
                    c = 1.0 / sqrt(1.0 + t * t)
                    cs[k], ss[k], live[k] = c, t * c, True
                    turned += 1
                    diag_p[k] = app - t * apq
                    diag_q[k] = aqq + t * apq
                if turned:
                    y = cols[q]
                    c, s = (cs[0], ss[0]) if one else (cs, ss)
                    if turned == b:
                        mul(x, c, u)
                        mul(y, s, v)
                        mul(x, s, x)
                        mul(y, c, y)
                        add(x, y, y)
                        sub(u, v, x)
                    else:
                        new_p, new_q = c * x - s * y, s * x + c * y
                        np.copyto(x, new_p, where=live)
                        np.copyto(y, new_q, where=live)
                    rows[q][...] = tops[q]
                # Rotation annihilates the pivot exactly; row p's copy zeroes its mirror.
                view[p, q] = 0.0
            rows[p][...] = tops[p]
        offs = [_off_diagonal_norm(st[:, :n, k]) for k in range(b)]
    else:
        raise EigenConvergenceError(
            f"Jacobi eigensolver did not converge on {names[idx[0]]!r}: "
            f"off-diagonal norm {offs[0]:.3e} after {_JACOBI_MAX_SWEEPS} sweeps "
            f"(target {thresholds[0]:.3e})"
        )
    return results


def _eigenpairs(st: np.ndarray, diag: list[list[float]], k: int) -> tuple[np.ndarray, np.ndarray]:
    """Matrix k of the stack: its sorted diagonal and the matching eigenvectors."""
    n = st.shape[0]
    eigenvalues = np.array([d[k] for d in diag])
    order = np.argsort(eigenvalues, kind="stable")
    return eigenvalues[order], st[:, n:, k][order].T


class SymMatrix:
    """Dense symmetric matrix whose eigendecomposition is read from the cache.

    Symmetry is enforced on construction by averaging with the transpose, and
    non-finite entries are rejected. The entries array is frozen, so the cache
    key built from it stays the matrix's own.

    An optional `basis` (a `SymMatrix` of the same size) warm-starts the solve:
    `eig` runs Jacobi on V^T a V, V the basis's eigenvectors, instead of on a.
    When a is a polynomial in the basis, V^T a V is diagonal to round-off and
    the sweeps stop at once; any other basis only costs the sweeps it needs.
    """

    def __init__(self, entries, name: str = "matrix", basis: "SymMatrix | None" = None):
        a = np.asarray(entries, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError(f"{name!r} must be square, got shape {a.shape}")
        if a.shape[0] < 1:
            raise ValueError(f"{name!r} must have dimension >= 1")
        with np.errstate(over="ignore", invalid="ignore"):
            a = (a + a.T) / 2.0
        if not np.all(np.isfinite(a)):
            raise NonFiniteMatrixError(f"{name!r} holds non-finite entries (NaN or inf)")
        if basis is not None and basis.a.shape != a.shape:
            raise ValueError(
                f"{name!r} has shape {a.shape} but its basis {basis.name!r} has shape "
                f"{basis.a.shape}")
        a.setflags(write=False)
        self.a = a
        self.name = name
        self.basis = basis

    @property
    def dim(self) -> int:
        return self.a.shape[0]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SymMatrix({self.name!r}, dim={self.dim})"

    def eig(self) -> tuple[np.ndarray, np.ndarray]:
        """Eigenvalues (ascending) and orthogonal eigenvectors, read-only.

        `decompose` of this matrix alone, a stack of one: the solve lives only
        in the module cache, so a read after its eviction solves again. See
        `decompose` for the checks every result passes.
        """
        return decompose((self,))[0]

    @property
    def eigenvalues(self) -> np.ndarray:
        return self.eig()[0]

    @property
    def lambda_min(self) -> float:
        return float(self.eigenvalues[0])

    @property
    def lambda_max(self) -> float:
        return float(self.eigenvalues[-1])

    def lambda_min_at_least(self, floor: float) -> bool:
        """Whether lambda_min >= floor, decomposing only when the answer may be no.

        A Cholesky factorization of a - floor*I exists only when that matrix
        is positive definite, so a successful one answers yes without a
        Jacobi solve. A failed one falls back to `lambda_min`, so a caller
        that reports a no reads the exact Jacobi eigenvalue. The two tests
        can disagree only within round-off of the floor.
        """
        try:
            np.linalg.cholesky(self.a - floor * np.eye(self.dim))
            return True
        except np.linalg.LinAlgError:
            return self.lambda_min >= floor

    def spectral_map(self, fn, name: str | None = None) -> "SymMatrix":
        """v diag(fn(w)) v^T, where fn maps the whole eigenvalue array w."""
        w, v = self.eig()
        return SymMatrix((v * fn(w)) @ v.T, name=name or f"f({self.name})")

    def pinv(self) -> "SymMatrix":
        """Moore-Penrose pseudo-inverse of a PSD matrix.

        Eigenvalues at or below _RANK_TOL * lambda_max are treated as exact
        zeros; an eigenvalue below -_RANK_TOL * lambda_max means the input was
        not PSD and raises.
        """
        w = self.eigenvalues
        cutoff = _RANK_TOL * max(float(w[-1]), 0.0)
        if w[0] < -cutoff:
            raise NotPositiveSemidefiniteError(
                f"{self.name!r} is not PSD: smallest eigenvalue {w[0]:.6e} "
                f"below tolerance {-cutoff:.3e}"
            )
        return self.spectral_map(
            lambda x: np.where(x > cutoff, 1.0 / np.where(x > cutoff, x, 1.0), 0.0),
            name=f"pinv({self.name})")


def decompose(mats: Sequence[SymMatrix]) -> list[tuple[np.ndarray, np.ndarray]]:
    """Each matrix's read-only (eigenvalues, eigenvectors), in input order.

    A matrix whose entries and basis entries (or lack of a basis) are
    byte-identical to an earlier solved one gets that solve's arrays from the
    module cache, and so does a repeat within `mats`. The misses, all of one
    size, are solved as one stacked Jacobi run, a warm one in its basis's
    eigenvectors, read where its entries are rotated. Each result passes a
    residual and orthogonality check on its matrix's own entries before it is
    stored; a failed solve is never stored, so retrying it raises again.
    Errors are raised in this order: an overflowing norm, naming the first
    such miss; a capped Jacobi run, naming its first capped member; a failed
    check.
    """
    # Each distinct miss: its entries' norm, its Jacobi input, its basis's
    # eigenvectors (None for a cold solve) and the first matrix it stands for.
    keys, found, misses = [], {}, {}
    for mat in mats:
        basis = mat.basis
        key = (mat.a.shape, mat.a.tobytes(), None if basis is None else basis.a.tobytes())
        keys.append(key)
        # A hit's arrays are taken now: storing this call's misses may evict it.
        hit = _eig_cache.get(key)
        if hit is not None:
            _eig_cache.move_to_end(key)
            found[key] = hit
        elif key not in misses:
            with np.errstate(over="ignore"):
                norm = float(np.linalg.norm(mat.a))
            # An infinite scale would switch the residual check below off.
            if not math.isfinite(norm):
                raise NonFiniteMatrixError(
                    f"{mat.name!r} has finite entries but its norm overflows float64")
            if basis is None:
                a, vb = mat.a, None
            else:
                vb = basis.eig()[1]
                rotated = vb.T @ mat.a @ vb
                # Jacobi copies rotated columns into rows: its input must be
                # exactly symmetric, which the two products need not leave.
                a = (rotated + rotated.T) / 2.0
            misses[key] = (norm, a, vb, mat)
    if misses:
        stack = np.stack([a for _, a, _, _ in misses.values()])
        solved = _jacobi_eigh(stack, [mat.name for *_, mat in misses.values()])
        for (key, (norm, _, vb, mat)), (w, u) in zip(misses.items(), solved):
            v = u if vb is None else vb @ u
            recon = float(np.linalg.norm((v * w) @ v.T - mat.a))
            ortho = float(np.linalg.norm(v.T @ v - np.eye(mat.dim)))
            if recon > 1e-10 * max(1.0, norm) or ortho > 1e-10:
                raise EigenConvergenceError(
                    f"eigendecomposition of {mat.name!r} failed its residual check: "
                    f"reconstruction {recon:.3e}, orthogonality {ortho:.3e}")
            w.setflags(write=False)
            v.setflags(write=False)
            _cache_eig(key, w, v)
            found[key] = (w, v)
    return [found[key] for key in keys]
