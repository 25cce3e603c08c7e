"""Decentralized least-squares sensing instances.

Each agent i holds private data (M_i, y_i) with y_i = M_i x + e_i and the
local objective f_i(v) = 0.5 * ||M_i v - y_i||^2. Sensing matrices are
rescaled so every local gradient shares one Lipschitz constant, and the exact
minimizer of the averaged objective is solved from the normal equations at
generation time.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .linalg import SymMatrix, decompose

try:
    # The C kernel np.einsum hands its operands to when optimize=False, minus
    # the dispatch and wrapper layers in between: the same bits at half the cost.
    from numpy._core.multiarray import c_einsum as _c_einsum
except ImportError:  # numpy < 2: the public wrapper, same bits
    _c_einsum = np.einsum

__all__ = [
    "ProblemError",
    "SensingProblem",
    "generate",
    "from_data",
    "grad",
    "mu_g_value",
    "save_problem",
    "load_problem",
]

_SINGULAR_TOL = 1e-12
# The shared Lipschitz constant ||M_i^T M_i|| of every generated instance.
LIPSCHITZ = 10.0


class ProblemError(ValueError):
    """Problem generation or evaluation failure."""


@dataclass(frozen=True)
class SensingProblem:
    """Immutable decentralized sensing instance.

    sensing: (n, m, p) per-agent matrices, measurements: (n, m). lipschitz is
    the shared spectral norm of every M_i^T M_i; mu_fbar is the smallest
    eigenvalue of the averaged Hessian (1/n) sum M_i^T M_i.
    """

    n: int
    p: int
    m: int
    sensing: np.ndarray
    measurements: np.ndarray
    noise_std: float
    seed: int | None
    lipschitz: float
    mu_fbar: float
    xstar: np.ndarray
    Xstar: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for arr in (self.sensing, self.measurements, self.xstar):
            arr.setflags(write=False)
        stacked = np.tile(self.xstar, (self.n, 1))
        stacked.setflags(write=False)
        object.__setattr__(self, "Xstar", stacked)

    def grad(self, x: np.ndarray) -> np.ndarray:
        return grad(self, x)


def _solve_normal_equations(gram: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Cholesky solve of the p x p normal equations, eigendecomposition fallback."""
    try:
        c = np.linalg.cholesky(gram)
        return np.linalg.solve(c.T, np.linalg.solve(c, rhs))
    except np.linalg.LinAlgError:
        sym = SymMatrix(gram, name="normal equations")
        return sym.pinv().a @ rhs


def _agent_gram(sensing: np.ndarray, i: int) -> SymMatrix:
    """M_i^T M_i, or a ProblemError naming agent i where it or its norm
    overflows float64."""
    with np.errstate(over="ignore", invalid="ignore"):
        gram = sensing[i].T @ sensing[i]
        norm = np.linalg.norm(gram)  # inf or NaN also where an entry is
    if not math.isfinite(norm):
        raise ProblemError(f"agent {i}: M_{i}^T M_{i} overflows float64 (largest sensing "
                           f"entry {float(np.abs(sensing[i]).max()):.3e})")
    return SymMatrix(gram, name=f"M_{i}^T M_{i}")


def _agent_grams(sensing: np.ndarray) -> list[float]:
    """Every agent's lambda_max(M_i^T M_i) in agent order, from one stacked solve."""
    grams = [_agent_gram(sensing, i) for i in range(len(sensing))]
    return [float(w[-1]) for w, _ in decompose(grams)]


def _check_rank(n: int, m: int, p: int) -> None:
    """Reject, before any eigensolve, an instance whose averaged Hessian (a sum
    of n * m rank-one terms) cannot have full rank p."""
    if n * m < p:
        raise ProblemError(f"averaged objective is not strongly convex: its hessian has "
                           f"rank at most n*m = {n * m} < p = {p}")


def _finalize(n, p, m, sensing, measurements, noise_std, seed, lipschitz) -> SensingProblem:
    # Finite: `_agent_gram` rejects Gram entries above ~1.34e154, so n such terms cannot overflow.
    gram = np.einsum("imp,imq->pq", sensing, sensing)
    bar = SymMatrix(gram / n, name="averaged hessian")
    mu_fbar = bar.lambda_min
    if mu_fbar <= _SINGULAR_TOL * max(1.0, bar.lambda_max):
        raise ProblemError(
            f"averaged objective is not strongly convex: lambda_min of the "
            f"averaged hessian is {mu_fbar:.3e} (n*m = {n * m} vs p = {p})"
        )
    with np.errstate(over="ignore", invalid="ignore"):
        rhs = np.einsum("imp,im->p", sensing, measurements)
        xstar = _solve_normal_equations(gram, rhs)
        # The run loop divides by the norm of the stacked optimum: keep it finite.
        stacked_norm = np.linalg.norm(np.tile(xstar, (n, 1)))
        finite = np.all(np.isfinite(rhs)) and math.isfinite(stacked_norm)
        resid = float(np.linalg.norm(gram @ xstar - rhs))
        scale = max(1.0, float(np.linalg.norm(rhs)))
    if not finite:
        i, j = np.unravel_index(np.argmax(np.abs(measurements)), measurements.shape)
        raise ProblemError(f"the optimum overflows float64 (largest measurement "
                           f"{measurements[i, j]:.3e}, agent {i} row {j})")
    if resid > 1e-9 * scale:
        raise ProblemError(f"normal equations solve residual too large: {resid:.3e}")
    return SensingProblem(
        n=n, p=p, m=m, sensing=sensing, measurements=measurements,
        noise_std=noise_std, seed=seed, lipschitz=lipschitz,
        mu_fbar=mu_fbar, xstar=xstar,
    )


def generate(n: int, p: int, m_i: int, noise_std: float = 0.1,
             seed: int = 0) -> SensingProblem:
    """Gaussian sensing data, rescaled so ||M_i^T M_i|| equals `LIPSCHITZ`.

    Reproducible: the same (n, p, m_i, noise_std, seed) give bit-identical
    data. Raises if the averaged Hessian is singular: up front when n*m_i < p,
    after the eigensolve otherwise.
    """
    if min(n, p, m_i) < 1:
        raise ProblemError(f"need n, p, m_i >= 1, got ({n}, {p}, {m_i})")
    _check_rank(n, m_i, p)
    rng = np.random.default_rng(seed)
    x_true = rng.standard_normal(p)
    sensing = rng.standard_normal((n, m_i, p))
    for i, top in enumerate(_agent_grams(sensing)):
        if top <= 0.0:
            raise ProblemError(f"agent {i} drew a zero sensing matrix")
        sensing[i] *= np.sqrt(LIPSCHITZ / top)
    # A huge noise_std overflows the measurements: a named error, not a warning.
    with np.errstate(over="ignore"):
        noise = rng.standard_normal((n, m_i)) * noise_std
        measurements = np.einsum("imp,p->im", sensing, x_true) + noise
    finite = np.isfinite(measurements)
    if not finite.all():
        i, j = np.unravel_index(np.argmin(finite), finite.shape)
        raise ProblemError(f"the measurement of agent {i} row {j} overflows float64 "
                           f"at noise_std {noise_std:.3e}")
    return _finalize(n, p, m_i, sensing, measurements, noise_std, seed, LIPSCHITZ)


def from_data(sensing: np.ndarray, measurements: np.ndarray, noise_std: float = 0.0,
              seed: int | None = None, lipschitz: float | None = None) -> SensingProblem:
    """Wrap explicit per-agent data (used by tests and problem replay).

    A given `lipschitz` must bound every agent's lambda_max(M_i^T M_i) (to
    1e-9 relative); without one, the largest of them is used.
    """
    sensing = np.array(sensing, dtype=float)
    measurements = np.array(measurements, dtype=float)
    if sensing.ndim != 3 or 0 in sensing.shape:
        raise ProblemError(f"sensing must be a non-empty (n, m, p) array, got shape {sensing.shape}")
    n, m, p = sensing.shape
    if measurements.shape != (n, m):
        raise ProblemError(f"measurements must have shape {(n, m)} to match sensing "
                           f"{sensing.shape}, got {measurements.shape}")
    for name, value in (("sensing", sensing), ("measurements", measurements),
                        ("lipschitz", lipschitz)):
        if value is not None and not np.all(np.isfinite(value)):
            raise ProblemError(f"{name} holds non-finite values (NaN or inf)")
    _check_rank(n, m, p)
    tops = _agent_grams(sensing)
    i = int(np.argmax(tops))
    if lipschitz is None:
        lipschitz = tops[i]
    elif tops[i] - lipschitz > 1e-9 * tops[i]:
        # An understated L would certify stepsizes beyond the true 2/L.
        raise ProblemError(f"lipschitz {lipschitz!r} is below agent {i}'s "
                           f"lambda_max(M_{i}^T M_{i}) = {tops[i]!r}")
    return _finalize(n, p, m, sensing, measurements, noise_std, seed, lipschitz)


def grad(prob: SensingProblem, x: np.ndarray) -> np.ndarray:
    """Stacked gradient: row i is M_i^T (M_i x_i - y_i)."""
    x = np.asarray(x, dtype=float)
    if x.shape != (prob.n, prob.p):
        raise ProblemError(f"expected stacked shape {(prob.n, prob.p)}, got {x.shape}")
    residual = _c_einsum("imp,ip->im", prob.sensing, x) - prob.measurements
    return _c_einsum("imp,im->ip", prob.sensing, residual)


def mu_g_value(mu_fbar: float, lipschitz: float, lam_min_pos_iw: float, eta: float) -> float:
    """Restricted strong convexity modulus of the consensus-penalized objective:

        min( mu_fbar / 2,  mu_fbar^2 * lam_min_pos(I - w) / (mu_fbar^2 + 16 L^2) * eta )
    """
    if eta <= 0.0:
        raise ProblemError(f"eta must be positive, got {eta}")
    second = mu_fbar**2 * lam_min_pos_iw / (mu_fbar**2 + 16.0 * lipschitz**2) * eta
    return min(mu_fbar / 2.0, second)


def save_problem(prob: SensingProblem, path: str) -> None:
    """JSON dump with enough digits for exact replay: the data `load_problem`
    reads, whose shapes give n, m and p, and the generation parameters."""
    payload = {
        "noise_std": prob.noise_std,
        "seed": prob.seed,
        "lipschitz": prob.lipschitz,
        "sensing": prob.sensing.tolist(),
        "measurements": prob.measurements.tolist(),
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)


def load_problem(path: str) -> SensingProblem:
    with open(path, encoding="utf-8-sig") as fh:
        payload = json.load(fh)
    keys = ("sensing", "measurements", "noise_std", "seed", "lipschitz")
    missing = [k for k in keys if not isinstance(payload, dict) or k not in payload]
    if missing:
        raise ProblemError(f"{path} is not a saved problem: missing key(s) {', '.join(missing)}")
    arrays = {}
    for key in ("sensing", "measurements"):
        # Check each JSON value: numpy would turn "0.5" and true into numbers.
        raw = np.array(payload[key], dtype=object)
        bad = next((v for v in raw.flat if type(v) not in (int, float)), None)
        if bad is not None:
            raise ProblemError(f"{path}: sensing and measurements must be numeric arrays "
                               f"({key} holds a {type(bad).__name__})")
        try:
            arrays[key] = raw.astype(float)
        except OverflowError as exc:
            raise ProblemError(f"{path}: {key} holds an integer beyond float64 ({exc})") from exc
    for key, kinds, what in (("noise_std", numbers.Real, "a number"),
                             ("seed", (numbers.Integral, type(None)), "an integer or null"),
                             ("lipschitz", (numbers.Real, type(None)), "a number or null")):
        value = payload[key]
        if isinstance(value, bool) or not isinstance(value, kinds):
            raise ProblemError(f"{path}: {key} must be {what}, got {value!r}")
    return from_data(
        arrays["sensing"],
        arrays["measurements"],
        noise_std=payload["noise_std"],
        seed=payload["seed"],
        lipschitz=payload["lipschitz"],
    )
