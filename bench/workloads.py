"""Seeded workload generators.

A workload is a list of `decon run` argument vectors, called back to back
through `decon.cli.main` by one caller in one process (a closed loop), plus
the RunConfig fields of every run it contains, for timing set-up on its own.

Every workload runs on the preset instance (graph and sensing matrices from
instance seed 2). The benchmark seed draws the measurement-noise level, which
changes the measurements, the optimum and every iterate, but not the spectra
that set how many iterations and eigensolves a run does. Re-seeding the graph
and sensing matrices instead moves the work of one workload by up to 2x
(figures: 130k to 257k iterations; certify-long: 16k to 41k), far beyond any
bound a regression check could use.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

PRESET_SEED = 2
PRESET_NOISE = 0.1
NOISE_RANGE = (0.03, 0.3)
SCENARIOS = ("fig1", "fig2", "fig3", "relaxed-line")
NIDS_ALPHA = 0.19
EXTRA_FRACTION = 0.9
CERTIFY_SIZES = {"certify-long": (10, 40, 5), "certify-large": (50, 5, 1)}
NAMES = ("figures",) + tuple(CERTIFY_SIZES)
OUT = "{out}"


@dataclass(frozen=True)
class Call:
    """One `cli.main` call: its argv and the (curve name, CSV path) pairs it writes."""

    argv: tuple[str, ...]
    curves: tuple[tuple[str, str], ...]


@dataclass(frozen=True)
class Workload:
    name: str
    seed: int
    noise_std: float
    calls: tuple[Call, ...]
    configs: tuple[dict, ...]

    def to_json(self) -> dict:
        return dataclasses.asdict(self)

    @staticmethod
    def from_json(data: dict) -> "Workload":
        calls = tuple(Call(tuple(c["argv"]), tuple(tuple(p) for p in c["curves"]))
                      for c in data["calls"])
        return Workload(data["name"], data["seed"], data["noise_std"], calls,
                        tuple(data["configs"]))


def noise_for_seed(seed: int) -> float:
    """The preset noise on the preset seed, else log-uniform in NOISE_RANGE."""
    if seed == PRESET_SEED:
        return PRESET_NOISE
    lo, hi = NOISE_RANGE
    u = np.random.default_rng(seed).uniform(math.log(lo), math.log(hi))
    return float(f"{math.exp(u):.6g}")


def generate(name: str, seed: int) -> Workload:
    """Build the workload `name` for benchmark seed `seed` (imports decon)."""
    from decon import harness

    noise = noise_for_seed(seed)
    common = ["--seed", str(PRESET_SEED), "--noise-std", repr(noise)]
    if name == "figures":
        calls, configs = [], []
        for scenario in SCENARIOS:
            runs = [dataclasses.replace(cfg, seed=PRESET_SEED, noise_std=noise)
                    for cfg in harness.resolve_scenario(scenario)]
            argv = ("run", "--scenario", scenario, *common, "--out", f"{OUT}/{scenario}")
            curves = tuple((cfg.name, f"{scenario}/{cfg.name}.csv") for cfg in runs)
            calls.append(Call(argv, curves))
            configs += [dataclasses.asdict(cfg) for cfg in runs]
        return Workload(name, seed, noise, tuple(calls), tuple(configs))

    if name not in CERTIFY_SIZES:
        raise ValueError(f"unknown workload {name!r}; choose from {NAMES}")
    n, p, mi = CERTIFY_SIZES[name]
    fields = dict(topology="random", n=n, p=p, mi=mi, seed=PRESET_SEED, noise_std=noise,
                  certify=True, max_iters=50_000)
    # The EXTRA stepsize sits at a fixed fraction of this instance's certified
    # bound; resolving it builds the instance once, outside any timed region.
    bound = harness.build_instance(
        harness.config_from_dict({**fields, "algo": "extra", "alpha": "extra-new"})).alpha
    calls, configs = [], []
    for algo, alpha in (("nids", NIDS_ALPHA), ("extra", EXTRA_FRACTION * bound)):
        cfg = harness.config_from_dict({**fields, "algo": algo, "alpha": alpha})
        argv = ("run", "--topology", "random", "--n", str(n), "--p", str(p), "--mi", str(mi),
                *common, "--certify", "--max-iters", str(cfg.max_iters),
                "--algo", algo, "--alpha", repr(alpha), "--out", f"{OUT}/{algo}.csv")
        calls.append(Call(argv, ((cfg.name, f"{algo}.csv"),)))
        configs.append(dataclasses.asdict(cfg))
    return Workload(name, seed, noise, tuple(calls), tuple(configs))
