"""The five consensus-optimization steppers and the stepsize-bound table.

Variants:
  dgd       x+ = w x - a grad(x)
  extra     two-step form mixing iterates only
  extra_xy  one-step (x, y) form equivalent to extra
  nids      two-step form that also mixes the gradient correction
  nids_dx   one-step (d, x) form equivalent to nids

All steppers are pure: state in, state out, single gradient evaluation per
step (the previous gradient is carried in the state for the two-step forms).
`iterate` is the one loop that advances them.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import asdict, dataclass, replace
from itertools import islice

import numpy as np

from .linalg import SymMatrix
from .mixing import MixingPair

__all__ = [
    "VARIANTS",
    "AlgoState",
    "FixedPoint",
    "StepsizeBounds",
    "init_state",
    "dgd_step",
    "extra_step",
    "extra_xy_step",
    "nids_step",
    "nids_dx_step",
    "step",
    "iterate",
    "trajectory",
    "fixed_point",
    "stepsize_bounds",
]

VARIANTS = ("dgd", "extra", "extra_xy", "nids", "nids_dx")


def _mat(w) -> np.ndarray:
    return w.a if isinstance(w, SymMatrix) else np.asarray(w, dtype=float)


@dataclass(frozen=True)
class AlgoState:
    """One iterate of a stepper: current x plus whatever the variant carries."""

    variant: str
    k: int
    x: np.ndarray
    alpha: float
    x_prev: np.ndarray | None = None
    y: np.ndarray | None = None
    d: np.ndarray | None = None
    g_prev: np.ndarray | None = None


def init_state(variant: str, x0: np.ndarray, alpha: float,
               w=None, wt=None) -> AlgoState:
    """Initial state with the variant-specific auxiliary variables.

    extra_xy needs y0 = -(wt - w) x0, nids_dx starts from d0 = 0.
    """
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}; choose from {VARIANTS}")
    if alpha <= 0.0:
        raise ValueError(f"stepsize must be positive, got {alpha}")
    x0 = np.array(x0, dtype=float)
    y = d = None
    if variant == "extra_xy":
        y = -(_mat(wt) - _mat(w)) @ x0
    elif variant == "nids_dx":
        d = np.zeros_like(x0)
    return AlgoState(variant=variant, k=0, x=x0, alpha=alpha, y=y, d=d)


def dgd_step(state: AlgoState, w, grad) -> AlgoState:
    g = grad(state.x)
    x_next = _mat(w) @ state.x - state.alpha * g
    return replace(state, k=state.k + 1, x=x_next, x_prev=state.x, g_prev=g)


def extra_step(state: AlgoState, w, wt, grad) -> AlgoState:
    wa, wta = _mat(w), _mat(wt)
    g = grad(state.x)
    if state.x_prev is None:
        x_next = wa @ state.x - state.alpha * g
    else:
        g_prev = state.g_prev if state.g_prev is not None else grad(state.x_prev)
        x_next = (state.x + wa @ state.x) - wta @ state.x_prev \
            - state.alpha * (g - g_prev)
    return replace(state, k=state.k + 1, x=x_next, x_prev=state.x, g_prev=g)


def extra_xy_step(state: AlgoState, w, wt, grad) -> AlgoState:
    if state.y is None:
        raise ValueError("extra_xy state is missing y; build it with init_state('extra_xy', ...)")
    wta = _mat(wt)
    diff = wta - _mat(w)
    g = grad(state.x)
    x_next = wta @ state.x + state.y - state.alpha * g
    y_next = state.y - diff @ x_next
    return replace(state, k=state.k + 1, x=x_next, x_prev=state.x, y=y_next, g_prev=g)


def nids_step(state: AlgoState, w, grad) -> AlgoState:
    half = (np.eye(state.x.shape[0]) + _mat(w)) / 2.0
    g = grad(state.x)
    if state.x_prev is None:
        x_next = half @ (state.x - state.alpha * g)
    else:
        g_prev = state.g_prev if state.g_prev is not None else grad(state.x_prev)
        x_next = half @ (2.0 * state.x - state.x_prev - state.alpha * (g - g_prev))
    return replace(state, k=state.k + 1, x=x_next, x_prev=state.x, g_prev=g)


def nids_dx_step(state: AlgoState, w, grad) -> AlgoState:
    if state.d is None:
        raise ValueError("nids_dx state is missing d; build it with init_state('nids_dx', ...)")
    half_iw = (np.eye(state.x.shape[0]) - _mat(w)) / 2.0
    g = grad(state.x)
    v = state.x - state.alpha * g
    d_next = state.d + (half_iw @ (v - state.alpha * state.d)) / state.alpha
    x_next = v - state.alpha * d_next
    return replace(state, k=state.k + 1, x=x_next, x_prev=state.x, d=d_next, g_prev=g)


def step(state: AlgoState, w, wt, grad) -> AlgoState:
    """Dispatch one iteration of whichever variant the state carries."""
    if state.variant == "dgd":
        return dgd_step(state, w, grad)
    if state.variant == "extra":
        return extra_step(state, w, wt, grad)
    if state.variant == "extra_xy":
        return extra_xy_step(state, w, wt, grad)
    if state.variant == "nids":
        return nids_step(state, w, grad)
    if state.variant == "nids_dx":
        return nids_dx_step(state, w, grad)
    raise ValueError(f"unknown variant {state.variant!r}")


def iterate(variant: str, x0: np.ndarray, alpha: float, w, wt, grad) -> Iterator[AlgoState]:
    """Yield the initial state, then each successive state, for as long as the
    caller keeps asking: a state is computed only when it is requested."""
    state = init_state(variant, x0, alpha, w=w, wt=wt)
    while True:
        yield state
        state = step(state, w, wt, grad)


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


@dataclass(frozen=True)
class FixedPoint:
    """Stationary point of the reformulated iterations at stepsize alpha."""

    xstar: np.ndarray
    ystar: np.ndarray
    dstar: np.ndarray


def fixed_point(prob, alpha: float) -> FixedPoint:
    """Consensual optimum with the matching auxiliary fixed points.

    ystar = alpha * grad(x*) for the (x, y) form, dstar = -grad(x*) for the
    (d, x) form.
    """
    gstar = prob.grad(prob.Xstar)
    return FixedPoint(xstar=prob.Xstar, ystar=alpha * gstar, dstar=-gstar)


@dataclass(frozen=True)
class StepsizeBounds:
    """Upper stepsize bounds, plus the legacy reference values.

    extra_new:     2 lambda_min(w_bar) / L at the pair's theta
    extra_special: (5 + 3 lambda_min(w)) / (4 L), the theta -> 3/4 limit when
                   w_tilde = (I + w)/2
    nids:          2 / L (network independent)
    shi_linear:    mu_fbar (1 + lambda_min(w)) / L^2
    shi_convex:    (1 + lambda_min(w)) / L
    """

    extra_new: float
    extra_special: float
    nids: float
    shi_linear: float
    shi_convex: float

    def as_dict(self) -> dict[str, float]:
        return asdict(self)


def stepsize_bounds(mp: MixingPair, lipschitz: float, mu_fbar: float) -> StepsizeBounds:
    lam_min_w = mp.lam_min_w
    return StepsizeBounds(
        extra_new=2.0 * mp.wbar.lambda_min / lipschitz,
        extra_special=(5.0 + 3.0 * lam_min_w) / (4.0 * lipschitz),
        nids=2.0 / lipschitz,
        shi_linear=mu_fbar * (1.0 + lam_min_w) / lipschitz**2,
        shi_convex=(1.0 + lam_min_w) / lipschitz,
    )
