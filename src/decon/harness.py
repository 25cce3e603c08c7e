"""Experiment harness: run configurations, scenario presets, and CSV traces.

A run builds the communication graph and mixing pair, generates (or loads)
the sensing problem, resolves the stepsize against the instance's constants,
iterates the requested algorithm from the all-zeros start, and records the
relative residual per iteration. With certification enabled the run uses the
reformulated state, computes the contraction certificate before the first
step, and audits every iteration as it is produced.
"""

from __future__ import annotations

import dataclasses
import math
import numbers
import sys
from array import array
from collections import OrderedDict
from collections.abc import Sequence
from dataclasses import dataclass, field
from itertools import chain, cycle, islice

import numpy as np

from . import algorithms, certify, graph as graphs, mixing, problem as problems
from .linalg import SymMatrix

__all__ = [
    "ConfigError",
    "RunConfig",
    "Trace",
    "Instance",
    "SCENARIOS",
    "TOPOLOGIES",
    "resolve_scenario",
    "resolve_alpha",
    "build_instance",
    "clear_instance_cache",
    "config_from_dict",
    "run",
    "write_csv",
]

DIVERGENCE_LIMIT = 1e12

# An uncertified run loop keeps every _MARK_EVERY-th state as a mark, so it
# finds a cycle of period up to _MARK_EVERY at most _MARK_EVERY states after
# the stream starts repeating, and replays the cycle's residual rows. A run
# that never repeats pays one float comparison per step.
_MARK_EVERY = 64

# write_csv formats, joins and writes this many rows at a time; a certified
# row is at most about 200 bytes, so a chunk's row strings and joined text
# stay near 300 kB.
_CSV_CHUNK_ROWS = 1024

SCENARIOS = ("fig1", "fig2", "fig3", "relaxed-line")

# Topology name -> the graph it builds for a configuration. Each generator is
# looked up in `graph` when called, so on a build that misses the instance memo
# (see `build_instance`) a rebound generator is the one that runs.
TOPOLOGIES = {
    "random": lambda c: graphs.random_connected(c.n, c.edge_prob, c.seed),
    "line": lambda c: graphs.line(c.n),
    "complete": lambda c: graphs.complete(c.n),
}

# Documented preset choices: the random-network presets share one seed and the
# relaxed presets use the maximal admissible relaxation minus a hair (the
# aggressive case) or a mild factor (the conservative case).
PRESET_SEED = 2
RELAX_AGGRESSIVE = 1.0 / 3.0 - 1e-3
RELAX_MILD = 0.15


class ConfigError(ValueError):
    """Unusable run configuration."""


# RunConfig annotation -> accepted value types (ints pass where floats are due).
_FIELD_TYPES = {"int": numbers.Integral, "float": numbers.Real, "str": str, "bool": bool,
                "None": type(None)}


@dataclass(frozen=True)
class RunConfig:
    """One runnable curve: instance parameters plus algorithm and stepsize."""

    topology: str = "random"
    n: int = 10
    p: int = 5
    mi: int = 1
    edge_prob: float = 0.5
    noise_std: float = 0.1
    seed: int = PRESET_SEED
    algo: str = "extra"
    alpha: float | str = "extra-special"
    relax_factor: float = 0.0
    theta: float | None = None
    max_iters: int = 5000
    tol: float = 1e-10
    certify: bool = False
    out_path: str | None = None
    graph_file: str | None = None
    problem_file: str | None = None
    label: str | None = None

    def __post_init__(self):
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            kinds = tuple(_FIELD_TYPES[t] for t in f.type.split(" | "))
            if not isinstance(value, kinds) or (isinstance(value, bool) and bool not in kinds):
                raise ConfigError(f"{f.name} must be {f.type}, got {value!r}")
            if isinstance(value, float) and not math.isfinite(value):
                raise ConfigError(f"{f.name} must be finite, got {value!r}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.noise_std < 0.0:
            raise ConfigError(f"noise_std must be >= 0, got {self.noise_std}")
        # The run loop takes max_iters + 1 states with islice, whose stop is at most sys.maxsize.
        if not 1 <= self.max_iters <= sys.maxsize - 1:
            raise ConfigError(
                f"max_iters must lie in [1, {sys.maxsize - 1}], got {self.max_iters}")
        if self.tol <= 0.0:
            raise ConfigError(f"tol must be positive, got {self.tol}")
        if not 0.0 <= self.relax_factor <= 1.0 / 3.0:
            raise ConfigError(f"relax_factor must lie in [0, 1/3], got {self.relax_factor}")
        if self.topology not in TOPOLOGIES:
            raise ConfigError(
                f"unknown topology {self.topology!r}; choose from {tuple(TOPOLOGIES)}")
        if self.algo not in algorithms.VARIANTS:
            raise ConfigError(
                f"unknown algorithm {self.algo!r}; choose from {algorithms.VARIANTS}")
        if isinstance(self.alpha, str) and self.alpha not in algorithms.STEPSIZES:
            raise ConfigError(f"unknown stepsize name {self.alpha!r}; "
                              f"choose from {tuple(algorithms.STEPSIZES)}")
        if not isinstance(self.alpha, str) and self.alpha <= 0.0:
            raise ConfigError(f"alpha must be positive, got {self.alpha}")
        if self.certify and certify.certify(self.algo) is None:
            raise ConfigError(f"no contraction certificate exists for {self.algo!r}")
        # The label is a CSV cell and part of the summary line.
        if self.label is not None and any(c in self.label for c in ",\n\r"):
            raise ConfigError(f"label must not contain ',', '\\n' or '\\r', got {self.label!r}")

    @property
    def name(self) -> str:
        if self.label:
            return self.label
        alpha = self.alpha if isinstance(self.alpha, str) else f"{self.alpha:g}"
        return f"{self.algo}_{alpha}"


@dataclass(eq=False)
class Trace:
    """One run's record: its residual per iteration, stored once, plus the
    audit and certificate of a certified run; row k is iteration k. `run`
    keeps the residuals packed as float64, 8 bytes a row (`array('d')`); any
    sequence of floats writes the same CSV. `cycle` is (start, period) when
    the run ended in an exact cycle whose rows the run loop replayed: states
    from `start` on repeat with that period. It is only the run's record:
    `write_csv` writes the same bytes whatever it holds."""

    algo: str
    alpha: float
    residuals: Sequence[float]
    status: str = "unknown"
    audit: object = field(default=None, repr=False)
    certificate: object = field(default=None, repr=False)
    problem: object = field(default=None, repr=False)
    cycle: tuple[int, int] | None = None

    @property
    def ks(self) -> range:
        return range(len(self.residuals))

    @property
    def certified(self) -> bool:
        return self.audit is not None


# RunConfig fields that only the run itself reads. Every other field, one
# added later included, keys the instance memo of `build_instance`.
_RUN_ONLY_FIELDS = ("algo", "alpha", "max_iters", "tol", "certify", "out_path", "label")
_INSTANCE_FIELDS = tuple(f.name for f in dataclasses.fields(RunConfig)
                         if f.name not in _RUN_ONLY_FIELDS)

# Instances `build_instance` keeps, least recently used first. Two are enough
# for every scenario: fig1; fig2 then fig3; relaxed-line's plain, aggressive,
# plain, mild.
_INSTANCE_CACHE_SIZE = 2
_instance_cache: OrderedDict[tuple, tuple] = OrderedDict()


def clear_instance_cache() -> None:
    """Forget every memoized instance."""
    _instance_cache.clear()


@dataclass(frozen=True)
class Instance:
    """Everything a run derives from its configuration before iterating; the
    graph is `mp.graph`.

    The mixing pair and problem may be shared with other instances of the
    same memo entry (see `build_instance`); they are frozen, with read-only
    arrays. `alpha` is the run's stepsize, resolved by `resolve_alpha`.
    """

    mp: mixing.MixingPair
    prob: problems.SensingProblem
    alpha: float


def build_graph(config: RunConfig) -> graphs.Graph:
    if config.graph_file:
        with open(config.graph_file, encoding="utf-8-sig") as fh:
            return graphs.from_edge_list_text(fh.read())
    return TOPOLOGIES[config.topology](config)


def build_mixing(config: RunConfig, g: graphs.Graph) -> mixing.MixingPair:
    w = mixing.metropolis(g)
    if config.relax_factor > 0.0:
        w = mixing.relax(w, config.relax_factor)
    wt = SymMatrix((np.eye(g.n) + w.a) / 2.0, name="w_tilde")
    return mixing.validate(w, wt, g, theta=config.theta)


def resolve_alpha(config: RunConfig, mp: mixing.MixingPair, prob: problems.SensingProblem) -> float:
    """A number as given; a name valued on (mp, prob) by its own `STEPSIZES` formula alone."""
    a = config.alpha
    if not isinstance(a, str):
        return float(a)
    value = algorithms.STEPSIZES[a](mp, prob.lipschitz, prob.mu_fbar)
    if value <= 0.0:
        raise ConfigError(f"stepsize {a!r} resolved to a non-positive value {value:.6g}")
    return value


def _build_parts(config: RunConfig) -> tuple:
    """The mixing pair and problem of `config`."""
    g = build_graph(config)
    mp = build_mixing(config, g)
    if config.problem_file:
        prob = problems.load_problem(config.problem_file)
    else:
        # One agent per node: a graph file sets the count, not `config.n`.
        prob = problems.generate(g.n, config.p, config.mi,
                                 noise_std=config.noise_std, seed=config.seed)
    if prob.n != g.n:
        raise ConfigError(f"problem has {prob.n} agents but the graph has {g.n} nodes")
    return mp, prob


def build_instance(config: RunConfig) -> Instance:
    """Build the instance of `config`, with its stepsize resolved.

    The graph, mixing pair and problem are a deterministic
    function of the fields outside `_RUN_ONLY_FIELDS`, so they are memoized
    on those fields' reprs (0, 0.0 and -0.0 key apart) and a hit holds the
    bits a fresh build would; the last `_INSTANCE_CACHE_SIZE` are kept. A
    config that reads a graph or problem file is always rebuilt, since the
    file may have changed, and a build that raises stores nothing. The
    stepsize is resolved on every call, so a named stepsize that is not
    positive on this instance raises its ConfigError on a hit too.
    `clear_instance_cache` empties the memo.
    """
    if config.graph_file or config.problem_file:
        parts = _build_parts(config)
    else:
        key = tuple(repr(getattr(config, name)) for name in _INSTANCE_FIELDS)
        parts = _instance_cache.get(key)
        if parts is None:
            parts = _instance_cache[key] = _build_parts(config)
            if len(_instance_cache) > _INSTANCE_CACHE_SIZE:
                _instance_cache.popitem(last=False)
        else:
            _instance_cache.move_to_end(key)
    mp, prob = parts
    return Instance(mp=mp, prob=prob, alpha=resolve_alpha(config, mp, prob))


def _same_state(a: algorithms.AlgoState, b: algorithms.AlgoState) -> bool:
    """Every field byte-equal (so -0.0 differs from +0.0), None only matching None."""
    return all(u is v or (u is not None and v is not None and u.tobytes() == v.tobytes())
               for u, v in zip(a, b))


def _until_stop(states, config: RunConfig, xstar: np.ndarray, trace: Trace):
    """Pass states on while recording each one's residual row in `trace`; end
    the stream at the tolerance, at divergence or after max_iters steps. A
    state's row is recorded before the state is passed on.

    In an uncertified run a state byte-equal to the last mark (see
    `_MARK_EVERY`) closes a cycle: `step` is a deterministic function of the
    state and the run's fixed operators, so the stream is periodic from the
    mark on. The loop then stops pulling `states`, passes no further state on
    and extends the residuals to max_iters by repeating the period's rows.
    Every residual of the cycle has already passed the tolerance and
    divergence tests, so the status stays max_iters; `trace.cycle` records
    (mark index, period). A certified run sets no marks, so its audit checks
    only states that `step` produced.
    """
    # ||x - xstar|| as np.linalg.norm computes it for a 2-D array (ravel, one
    # dot, a correctly rounded sqrt), without its per-call overhead.
    denom = float(np.linalg.norm(xstar))
    star = xstar.ravel()
    tol, limit, every, same_state = config.tol, DIVERGENCE_LIMIT, _MARK_EVERY, _same_state
    sqrt, isfinite, marks = math.sqrt, math.isfinite, not config.certify
    residuals = trace.residuals
    add_residual = residuals.append
    mark_k = mark = mark_res = None
    for k, state in enumerate(islice(states, config.max_iters + 1)):
        if denom > 0.0:
            d = state.x.ravel() - star
            res = sqrt(d.dot(d)) / denom
            if not isfinite(res):  # a non-finite iterate, NaN included
                res = math.inf
        else:
            res = 0.0
        add_residual(res)
        if res > limit or res <= tol:
            trace.status = "diverged" if res > limit else "converged"
            yield state
            return
        yield state
        if res == mark_res and same_state(state, mark):
            # Rows k + 1, k + 2, ... repeat rows k - period + 1, ..., k in order.
            period = k - mark_k
            trace.cycle = (mark_k, period)
            residuals.extend(islice(cycle(residuals[-period:]), config.max_iters - k))
            return
        if k % every == 0 and marks:
            mark_k, mark, mark_res = k, state, res


def run(config: RunConfig) -> Trace:
    """Execute one configuration and return its trace.

    Stops at the residual tolerance, at divergence (relative residual beyond
    1e12 or non-finite iterates), or at max_iters. An uncertified run whose
    states fall into an exact cycle reaches max_iters by replaying the cycle's
    residual rows (`_until_stop`): the rows and the status are those of
    stepping all the way, and `trace.cycle` records the cycle. Certified runs
    execute the reformulated iteration and step every state. Its x-sequence is
    the original's in exact arithmetic only: in floating point the two round
    apart, so a certified run's residuals may differ from an uncertified
    run's (ROADMAP item 11 makes the two one). Their certificate is built
    before the first step and their audit consumes the states as they are
    produced, so memory does not grow with the steps.
    """
    inst = build_instance(config)
    prob, mp = inst.prob, inst.mp
    variant = config.algo
    if config.certify:
        variant, constants, audit = certify.certify(variant)
        cert = constants(mp, prob.lipschitz, prob.mu_fbar, inst.alpha)
    trace = Trace(algo=config.name, alpha=inst.alpha, residuals=array("d"), status="max_iters",
                  problem=prob)
    x0 = np.zeros((prob.n, prob.p))
    states = _until_stop(algorithms.iterate(variant, x0, inst.alpha, mp.w, mp.wt, prob.grad),
                         config, prob.Xstar, trace)
    # A divergent stepsize overflows the iterates before the residual says so:
    # the run ends as "diverged", so the overflow raises no floating-point warning.
    with np.errstate(over="ignore", invalid="ignore"):
        if not config.certify:
            for _ in states:
                pass
            return trace
        report = audit(states, mp, cert, algorithms.fixed_point(prob, inst.alpha))
    trace.audit = report
    trace.certificate = cert
    return trace


def resolve_scenario(name: str) -> list[RunConfig]:
    """Expand a preset name into the runs behind the corresponding figure."""
    if name not in SCENARIOS:
        raise ConfigError(f"unknown scenario {name!r}; valid presets: {', '.join(SCENARIOS)}")
    if name in ("fig1", "fig2"):
        mi = 1 if name == "fig1" else 10
        # The legacy linear-convergence stepsize is tiny; give it room to reach
        # the 1e-10 reporting level so iteration counts are comparable.
        base = dict(topology="random", n=10, p=5, mi=mi, seed=PRESET_SEED, max_iters=60_000)
        return [
            RunConfig(**base, algo="dgd", alpha="dgd-fast", label="dgd_fast"),
            RunConfig(**base, algo="dgd", alpha="dgd-slow", label="dgd_slow"),
            RunConfig(**base, algo="extra", alpha="shi-linear", label="extra_a1"),
            RunConfig(**base, algo="extra", alpha="shi-convex", label="extra_a2"),
            RunConfig(**base, algo="extra", alpha="extra-special", label="extra_a3"),
            RunConfig(**base, algo="nids", alpha="nids", label="nids_a4"),
        ]
    if name == "fig3":
        base = dict(topology="random", n=10, p=5, mi=10, seed=PRESET_SEED)
        return [
            RunConfig(**base, algo="extra", alpha="extra-special", label="extra_a3"),
            RunConfig(**base, algo="extra", alpha="extra-opt", label="extra_a5"),
            RunConfig(**base, algo="nids", alpha="nids", label="nids_a4"),
            RunConfig(**base, algo="nids", alpha="nids-opt", label="nids_a6"),
        ]
    base = dict(topology="line", n=10, p=5, mi=1, seed=PRESET_SEED)
    return [
        RunConfig(**base, algo="nids", alpha="nids", label="nids_plain"),
        RunConfig(**base, algo="nids", alpha="nids", relax_factor=RELAX_AGGRESSIVE,
                  label="nids_relaxed"),
        RunConfig(**base, algo="extra", alpha="extra-special", label="extra_plain"),
        RunConfig(**base, algo="extra", alpha="extra-special", relax_factor=RELAX_MILD,
                  label="extra_relaxed"),
    ]


def write_csv(trace: Trace, path: str) -> None:
    """Write the trace rows, numbered from 0, with a certified run's lyapunov,
    ratio and slack columns read from its audit; 17 significant digits keep
    floats exact.

    The header goes first, then the rows `_CSV_CHUNK_ROWS` at a time, each
    chunk formatted, joined and written before the next is built, so writing
    holds one chunk whatever the trace's length. The ",algo,alpha," run shared
    by every row is formatted once. Each chunk formats each distinct residual
    once, told apart by its bits (so -0.0 never passes for 0.0), and writes
    its rows by one `%` over one row template, certified or not: the shared
    run has its '%' escaped, the residual slot takes each row's text, and a
    certified row's '%.17g' gives the text of f'{:.17g}'. A certified row
    k > 0 has the ratio L_k / L_{k-1} (`certify.lyapunov_ratio`), derived a
    chunk at a time and written as text, empty where L_{k-1} is not positive,
    and the slack of the transition into it; row 0 has neither and is
    formatted on its own. A certified trace's columns are checked for
    matching lengths before the file is opened, so a mismatch leaves no file.
    """
    lead = f",{trace.algo},{trace.alpha:.17g},"
    res = trace.residuals
    n = len(res)
    header, tail = "k,algo,alpha,residual\n", ""
    if trace.certified:
        lyap, slack = trace.audit.lyapunov, trace.audit.slack
        if len(lyap) != n or len(slack) != max(n - 1, 0):
            raise ValueError(f"certified trace columns differ in length: residuals {n}, "
                             f"lyapunov {len(lyap)}, slack {len(slack)} (one per transition)")
        header, tail = "k,algo,alpha,residual,lyapunov,ratio,slack\n", ",%.17g,%s,%.17g"
    row = "%d" + lead.replace("%", "%%") + "%s" + tail + "\n"

    def rows(a: int, b: int) -> str:
        # The IEEE bits of each residual, as int64: equal only for the same double.
        bits, which = np.unique(np.asarray(res[a:b], dtype=np.float64).view(np.int64),
                                return_inverse=True)
        texts = ["%.17g" % r for r in bits.view(np.float64).tolist()]
        cells = [texts[i] for i in which.tolist()]
        if not trace.certified:
            return row * (b - a) % tuple(chain.from_iterable(zip(range(a, b), cells)))
        head = f"0{lead}{cells[0]},{float(lyap[0]):.17g},,\n" if a == 0 else ""
        c = max(a, 1)
        with np.errstate(over="ignore", invalid="ignore"):
            ratio, exists = certify.lyapunov_ratio(lyap[c - 1:b - 1], lyap[c:b])
        qs = ["%.17g" % q if ok else "" for q, ok in zip(ratio.tolist(), exists.tolist())]
        fields = zip(range(c, b), cells[c - a:], lyap[c:b].tolist(), qs, slack[c - 1:b - 1].tolist())
        return head + row * (b - c) % tuple(chain.from_iterable(fields))
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(header)
            for a in range(0, n, _CSV_CHUNK_ROWS):
                fh.write(rows(a, min(a + _CSV_CHUNK_ROWS, n)))
    except OSError as exc:
        raise OSError(f"cannot write trace to {path}: {exc}") from exc


def config_from_dict(data: dict) -> RunConfig:
    """Build a RunConfig from a flat JSON-style mapping (unknown keys rejected)."""
    valid = {f.name for f in dataclasses.fields(RunConfig)}
    unknown = set(data) - valid
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    return RunConfig(**data)
