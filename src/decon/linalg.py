"""Dense symmetric linear algebra: Jacobi eigendecomposition, PSD pseudo-inverse,
and weighted inner products / squared norms used throughout the package.

Stacked agent iterates are plain float ndarrays of shape (n_agents, dim); only
square symmetric matrices get a wrapper class (`SymMatrix`) so their
eigendecompositions can be computed once and cached.

Every eigendecomposition goes through the cyclic Jacobi solver `_jacobi_eigh`.
Its rounding defines the saved benchmark reference and every CSV the package
writes, so it is kept even where LAPACK would be faster; to make each rotation
cheap it turns one stacked (matrix over eigenvectors) array with one column
update and copies the rotated columns into the rows, since the matrix stays
exactly symmetric.

Solves are memoized by the exact bytes of the symmetrized entries: a
module-level cache keyed by ``(shape, entries.tobytes())`` (the bytes
themselves, never a digest alone, so two matrices share a result only when
every entry is bit-identical). `_jacobi_eigh` is a deterministic function of
its entries, so a hit returns the bits a fresh solve would, and every CSV,
certificate and audit verdict is the same with or without the cache. Only
results that passed the residual check are stored, read-only because several
`SymMatrix` objects share them; least-recently-used entries are evicted past
`_EIG_CACHE_BUDGET` bytes. `clear_eig_cache` empties it.
"""

from __future__ import annotations

import math
from collections import OrderedDict

import numpy as np

__all__ = [
    "EigenConvergenceError",
    "NonFiniteMatrixError",
    "NotPositiveSemidefiniteError",
    "SymMatrix",
    "clear_eig_cache",
    "wnorm_sq",
    "wdot",
]

# Off-diagonal reduction target (relative to ||A||_F) and sweep cap for Jacobi.
_JACOBI_TOL = 1e-13
_JACOBI_MAX_SWEEPS = 100

# Eigenvalues at or below _RANK_TOL * lambda_max count as exact zeros in pinv
# and lambda_min_pos.
_RANK_TOL = 1e-10

# Definiteness floor of `inv` and `sqrt`, relative to max(1, |lambda_max|): kept
# apart from _JACOBI_TOL so retuning the solver cannot move those checks.
_DEFINITE_FLOOR = 1e-13

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
    return len(key[1]) + w.nbytes + v.nbytes


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
    off = a - np.diag(np.diag(a))
    return float(np.linalg.norm(off))


def _jacobi_eigh(a: np.ndarray, name: str) -> tuple[np.ndarray, np.ndarray]:
    """Cyclic Jacobi rotations on a symmetric matrix.

    Returns eigenvalues in ascending order and the matching orthogonal
    eigenvector matrix (columns). Dense and dependency-free; intended for the
    small (n up to a few hundred) matrices this package works with.

    The matrix and the accumulated eigenvectors are one stacked (2n, n) array,
    so a single column rotation turns both. The row rotation a textbook
    two-sided update also applies is a copy here: the matrix stays exactly
    symmetric (`SymMatrix` symmetrizes it, and entries (i, j) and (j, i) of the
    rotated columns come from the same float operations on equal operands), so
    rows p and q are the rotated columns p and q, transposed. Pivots are read
    and the rotation computed in Python floats, which round like float64.
    """
    n = a.shape[0]
    if n == 1:
        return a[0, :].copy(), np.ones((1, 1))
    fro = float(np.linalg.norm(a))
    if fro == 0.0:
        return np.zeros(n), np.eye(n)
    av = np.vstack([a, np.eye(n)])
    a = av[:n]
    item, sqrt = a.item, math.sqrt  # bound once: called for every pivot
    threshold = _JACOBI_TOL * fro
    off = _off_diagonal_norm(a)
    for _ in range(_JACOBI_MAX_SWEEPS):
        if off <= threshold:
            break
        for p in range(n - 1):
            col_p = av[:, p]
            for q in range(p + 1, n):
                apq = item(p, q)
                app, aqq = item(p, p), item(q, q)
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
                    t = 1.0 / (abs(tau) + sqrt(1.0 + tau * tau))
                    if tau < 0.0:
                        t = -t
                c = 1.0 / sqrt(1.0 + t * t)
                s = t * c
                col_q = av[:, q]
                new_p = c * col_p - s * col_q
                col_q[:] = s * col_p + c * col_q
                col_p[:] = new_p
                a[p, :] = a[:, p]
                a[q, :] = a[:, q]
                # Rotation annihilates the pivot pair exactly.
                a[p, q] = 0.0
                a[q, p] = 0.0
                a[p, p] = app - t * apq
                a[q, q] = aqq + t * apq
        off = _off_diagonal_norm(a)
    else:
        raise EigenConvergenceError(
            f"Jacobi eigensolver did not converge on {name!r}: "
            f"off-diagonal norm {off:.3e} after {_JACOBI_MAX_SWEEPS} sweeps "
            f"(target {threshold:.3e})"
        )
    eigenvalues = np.diag(a).copy()
    order = np.argsort(eigenvalues, kind="stable")
    return eigenvalues[order], av[n:, order]


class SymMatrix:
    """Dense symmetric matrix with a lazily cached eigendecomposition.

    Symmetry is enforced on construction by averaging with the transpose, and
    non-finite entries are rejected. The entries array is frozen so cached
    spectral data stays valid.
    """

    def __init__(self, entries, name: str = "matrix"):
        a = np.asarray(entries, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError(f"{name!r} must be square, got shape {a.shape}")
        if a.shape[0] < 1:
            raise ValueError(f"{name!r} must have dimension >= 1")
        with np.errstate(over="ignore", invalid="ignore"):
            a = (a + a.T) / 2.0
        if not np.all(np.isfinite(a)):
            raise NonFiniteMatrixError(f"{name!r} holds non-finite entries (NaN or inf)")
        assert np.array_equal(a, a.T)
        a.setflags(write=False)
        self.a = a
        self.name = name
        self._eig: tuple[np.ndarray, np.ndarray] | None = None

    @property
    def dim(self) -> int:
        return self.a.shape[0]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SymMatrix({self.name!r}, dim={self.dim})"

    def eig(self) -> tuple[np.ndarray, np.ndarray]:
        """Eigenvalues (ascending) and orthogonal eigenvectors, cached.

        Results are shared through the module cache: a matrix whose entries
        are byte-identical to an earlier solved one gets that solve's arrays
        (read-only) without another Jacobi run. Every stored result passed
        the residual check below on those exact bytes; a failed solve is
        never stored, so retrying it raises again.
        """
        if self._eig is None:
            with np.errstate(over="ignore"):
                norm = float(np.linalg.norm(self.a))
            # An infinite scale would switch the residual check below off.
            if not math.isfinite(norm):
                raise NonFiniteMatrixError(
                    f"{self.name!r} has finite entries but its norm overflows float64")
            key = (self.a.shape, self.a.tobytes())
            hit = _eig_cache.get(key)
            if hit is not None:
                _eig_cache.move_to_end(key)
                self._eig = hit
                return hit
            w, v = _jacobi_eigh(self.a, self.name)
            scale = max(1.0, norm)
            recon = float(np.linalg.norm((v * w) @ v.T - self.a))
            ortho = float(np.linalg.norm(v.T @ v - np.eye(self.dim)))
            if recon > 1e-10 * scale or ortho > 1e-10:
                raise EigenConvergenceError(
                    f"eigendecomposition of {self.name!r} failed its residual check: "
                    f"reconstruction {recon:.3e}, orthogonality {ortho:.3e}"
                )
            w.setflags(write=False)
            v.setflags(write=False)
            _cache_eig(key, w, v)
            self._eig = (w, v)
        return self._eig

    @property
    def eigenvalues(self) -> np.ndarray:
        return self.eig()[0]

    @property
    def lambda_min(self) -> float:
        return float(self.eigenvalues[0])

    @property
    def lambda_max(self) -> float:
        return float(self.eigenvalues[-1])

    def lambda_min_pos(self) -> float:
        """Smallest eigenvalue counted as nonzero (PSD matrices)."""
        w = self.eigenvalues
        cutoff = _RANK_TOL * max(abs(w[0]), abs(w[-1]))
        positive = w[w > cutoff]
        if positive.size == 0:
            raise ValueError(f"{self.name!r} has no nonzero eigenvalue above {cutoff:.3e}")
        return float(positive[0])

    def pinv(self) -> "SymMatrix":
        """Moore-Penrose pseudo-inverse of a PSD matrix.

        Eigenvalues at or below _RANK_TOL * lambda_max are treated as exact
        zeros; an eigenvalue below -_RANK_TOL * lambda_max means the input was
        not PSD and raises.
        """
        w, v = self.eig()
        lam_max = max(float(w[-1]), 0.0)
        cutoff = _RANK_TOL * lam_max
        if w[0] < -cutoff:
            raise NotPositiveSemidefiniteError(
                f"{self.name!r} is not PSD: smallest eigenvalue {w[0]:.6e} "
                f"below tolerance {-cutoff:.3e}"
            )
        inv_w = np.where(w > cutoff, 1.0 / np.where(w > cutoff, w, 1.0), 0.0)
        return SymMatrix((v * inv_w) @ v.T, name=f"pinv({self.name})")

    def inv(self) -> "SymMatrix":
        """Inverse of a positive definite matrix."""
        w, v = self.eig()
        if w[0] <= _DEFINITE_FLOOR * max(1.0, abs(float(w[-1]))):
            raise NotPositiveSemidefiniteError(
                f"{self.name!r} is not positive definite: lambda_min = {w[0]:.6e}"
            )
        return SymMatrix((v * (1.0 / w)) @ v.T, name=f"inv({self.name})")

    def spectral_map(self, fn, name: str | None = None) -> "SymMatrix":
        """Apply fn to the eigenvalues and rebuild (same eigenvectors)."""
        w, v = self.eig()
        mapped = np.array([fn(x) for x in w], dtype=float)
        return SymMatrix((v * mapped) @ v.T, name=name or f"f({self.name})")

    def sqrt(self) -> "SymMatrix":
        if self.lambda_min < -_DEFINITE_FLOOR * max(1.0, abs(self.lambda_max)):
            raise NotPositiveSemidefiniteError(f"{self.name!r} is not PSD; no real square root")
        return self.spectral_map(lambda x: np.sqrt(max(x, 0.0)), name=f"sqrt({self.name})")

    def isqrt(self) -> "SymMatrix":
        """Inverse square root of a positive definite matrix."""
        if self.lambda_min <= 0.0:
            raise NotPositiveSemidefiniteError(
                f"{self.name!r} is not positive definite: lambda_min = {self.lambda_min:.6e}"
            )
        return self.spectral_map(lambda x: 1.0 / np.sqrt(x), name=f"isqrt({self.name})")


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
