"""DGD, EXTRA and NIDS as one step over per-run operators, plus the table of
named stepsizes.

Variants (a the stepsize, g = grad(x), I the identity):
  dgd       x+ = w x - a g
  extra     x+ = (x + w x) - wt x_prev - a (g - g_prev); the first step is dgd's
  extra_xy  x+ = wt x + y - a g,  y+ = y - (wt - w) x+;  y0 = -(wt - w) x0
  nids      x+ = (I + w)/2 (2 x - x_prev - a (g - g_prev)); first (I + w)/2 (x - a g)
  nids_dx   v = x - a g,  d+ = d + (I - w)/2 (v - a d) / a,  x+ = v - a d+;  d0 = 0

extra_xy and nids_dx are the reformulated (x, y) and (d, x) forms of extra and
nids whose iterates the certificates audit. `operators` builds a run's update,
stepsize, gradient and matrices once; `step` advances a state by one iteration
with them, at one gradient evaluation (the two-step forms carry the previous
gradient in the state). `iterate` is the one loop that calls `step`. A state
is an immutable NamedTuple, the cheapest immutable record to build once per
step; the updates build it from positional fields, which costs less than
keywords. They apply their matrices with `ndarray.dot`, which reaches the
same gemm as `@` with half its per-call overhead, so the bits are the same.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .linalg import SymMatrix
from .mixing import MixingPair

__all__ = [
    "VARIANTS",
    "AlgoState",
    "Operators",
    "FixedPoint",
    "STEPSIZES",
    "operators",
    "step",
    "iterate",
    "fixed_point",
    "stepsize_bounds",
]


class AlgoState(NamedTuple):
    """One iterate, as an immutable NamedTuple: x, the previous x and its
    gradient (None at the start), and the auxiliary y of extra_xy or d of
    nids_dx (None for the other variants)."""

    x: np.ndarray
    x_prev: np.ndarray | None = None
    g_prev: np.ndarray | None = None
    y: np.ndarray | None = None
    d: np.ndarray | None = None


@dataclass(frozen=True, slots=True)
class Operators:
    """The constants of one run: its variant's update, stepsize, gradient and
    the matrices w, wt, wt - w, (I + w)/2 and (I - w)/2."""

    update: Callable[[AlgoState, np.ndarray, Operators], AlgoState]
    alpha: float
    grad: Callable[[np.ndarray], np.ndarray]
    w: np.ndarray
    wt: np.ndarray
    diff: np.ndarray
    half: np.ndarray
    half_iw: np.ndarray


def _dgd(s: AlgoState, g: np.ndarray, op: Operators) -> AlgoState:
    return AlgoState(op.w.dot(s.x) - op.alpha * g, s.x, g)


def _extra(s: AlgoState, g: np.ndarray, op: Operators) -> AlgoState:
    if s.x_prev is None:
        x = op.w.dot(s.x) - op.alpha * g
    else:
        x = (s.x + op.w.dot(s.x)) - op.wt.dot(s.x_prev) - op.alpha * (g - s.g_prev)
    return AlgoState(x, s.x, g)


def _extra_xy(s: AlgoState, g: np.ndarray, op: Operators) -> AlgoState:
    x = op.wt.dot(s.x) + s.y - op.alpha * g
    return AlgoState(x, s.x, g, s.y - op.diff.dot(x))


def _nids(s: AlgoState, g: np.ndarray, op: Operators) -> AlgoState:
    if s.x_prev is None:
        x = op.half.dot(s.x - op.alpha * g)
    else:
        x = op.half.dot(2.0 * s.x - s.x_prev - op.alpha * (g - s.g_prev))
    return AlgoState(x, s.x, g)


def _nids_dx(s: AlgoState, g: np.ndarray, op: Operators) -> AlgoState:
    v = s.x - op.alpha * g
    d = s.d + op.half_iw.dot(v - op.alpha * s.d) / op.alpha
    return AlgoState(v - op.alpha * d, s.x, g, None, d)


_UPDATES = {"dgd": _dgd, "extra": _extra, "extra_xy": _extra_xy, "nids": _nids,
            "nids_dx": _nids_dx}
VARIANTS = tuple(_UPDATES)


def _mat(w) -> np.ndarray:
    return w.a if isinstance(w, SymMatrix) else np.asarray(w, dtype=float)


def operators(variant: str, alpha: float, w, wt, grad) -> Operators:
    """Build one run's operators; w and wt are SymMatrix or array-like."""
    if variant not in _UPDATES:
        raise ValueError(f"unknown variant {variant!r}; choose from {VARIANTS}")
    if alpha <= 0.0:
        raise ValueError(f"stepsize must be positive, got {alpha}")
    wa, wta = _mat(w), _mat(wt)
    eye = np.eye(wa.shape[0])
    return Operators(_UPDATES[variant], alpha, grad, wa, wta, wta - wa,
                     (eye + wa) / 2.0, (eye - wa) / 2.0)


def step(state: AlgoState, ops: Operators) -> AlgoState:
    """Advance `state` by one iteration of the run that `ops` describes."""
    return ops.update(state, ops.grad(state.x), ops)


def iterate(variant: str, x0: np.ndarray, alpha: float, w, wt, grad) -> Iterator[AlgoState]:
    """Yield the initial state, then each successive state, for as long as the
    caller keeps asking: a state is computed only when it is requested."""
    ops = operators(variant, alpha, w, wt, grad)
    x0 = np.array(x0, dtype=float)
    state = AlgoState(x0, y=-ops.diff @ x0 if variant == "extra_xy" else None,
                      d=np.zeros_like(x0) if variant == "nids_dx" else None)
    while True:
        yield state
        state = step(state, ops)


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


# Named stepsizes, each a formula in (mixing pair, L, mu_fbar); these names are
# what `--alpha` accepts and what `decon bounds` prints.
STEPSIZES: dict[str, Callable[[MixingPair, float, float], float]] = {
    # 2 lambda_min(w_bar) / L at the pair's theta: the open end of EXTRA's certified range.
    "extra-new": lambda mp, lip, mu: 2.0 * mp.wbar.lambda_min / lip,
    # (5 + 3 lambda_min(w)) / (4 L), the theta -> 3/4 limit when w_tilde = (I + w)/2.
    "extra-special": lambda mp, lip, mu: (5.0 + 3.0 * mp.w.lambda_min) / (4.0 * lip),
    # 2 / L, network independent.
    "nids": lambda mp, lip, mu: 2.0 / lip,
    # The legacy EXTRA bounds for linear and for plain convergence.
    "shi-linear": lambda mp, lip, mu: mu * (1.0 + mp.w.lambda_min) / lip**2,
    "shi-convex": lambda mp, lip, mu: (1.0 + mp.w.lambda_min) / lip,
    # The tuned stepsizes of fig3 and the two DGD stepsizes of fig1 and fig2.
    "extra-opt": lambda mp, lip, mu: (5.0 + 3.0 * mp.w.lambda_min) / (4.0 * lip + mu),
    "nids-opt": lambda mp, lip, mu: 2.0 / (lip + mu),
    "dgd-fast": lambda mp, lip, mu: 1.0 / lip,
    "dgd-slow": lambda mp, lip, mu: 1.0 / (10.0 * lip),
}


def stepsize_bounds(mp: MixingPair, lipschitz: float, mu_fbar: float) -> dict[str, float]:
    """Every named stepsize of STEPSIZES, valued on one instance."""
    return {name: formula(mp, lipschitz, mu_fbar) for name, formula in STEPSIZES.items()}
