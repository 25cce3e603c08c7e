"""Command-line interface.

Subcommands:
  run              execute a scenario preset or a single configured run
  validate-mixing  check the mixing assumption for a graph (optionally relaxed)
  bounds           print the stepsize-bound table of the first run `run` would do

Exit codes: 0 success, 1 validation/configuration error, 2 divergence.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

from . import algorithms, harness, mixing, problem as problems
from .certify import CertificateError
from .graph import GraphError
from .harness import ConfigError, RunConfig, TraceError
from .linalg import EigenConvergenceError, NonFiniteMatrixError, NotPositiveSemidefiniteError
from .mixing import MixingValidationError
from .problem import ProblemError

# Failures caused by the input or the file system: reported as one "error:"
# line with exit code 1. Any other exception is a defect and keeps its traceback.
_VALIDATION_ERRORS = (
    ConfigError, TraceError, MixingValidationError, CertificateError, ProblemError, GraphError,
    EigenConvergenceError, NonFiniteMatrixError, NotPositiveSemidefiniteError,
    json.JSONDecodeError, UnicodeDecodeError, OSError,
)


def _add_mixing_flags(p: argparse.ArgumentParser) -> None:
    """The graph and mixing flags, shared by `run`, `bounds` and `validate-mixing`."""
    p.add_argument("--topology", choices=harness.TOPOLOGIES)
    p.add_argument("--n", type=int)
    p.add_argument("--edge-prob", type=float, dest="edge_prob")
    p.add_argument("--seed", type=int)
    p.add_argument("--relax-factor", type=float, dest="relax_factor")
    p.add_argument("--theta", type=float)
    p.add_argument("--graph-file", dest="graph_file", help="edge-list file ('i j' per line)")


def _add_run_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--scenario", choices=harness.SCENARIOS, help="preset replicating one figure")
    p.add_argument("--config", help="JSON file with RunConfig fields; flags override it")
    _add_mixing_flags(p)
    p.add_argument("--p", type=int)
    p.add_argument("--mi", type=int)
    p.add_argument("--noise-std", type=float, dest="noise_std")
    p.add_argument("--algo", choices=algorithms.VARIANTS)
    p.add_argument("--alpha", help="numeric stepsize or one of: " + ", ".join(algorithms.STEPSIZES))
    p.add_argument("--max-iters", type=int, dest="max_iters")
    p.add_argument("--tol", type=float)
    p.add_argument("--certify", action="store_true", default=None)
    p.add_argument("--load-problem", dest="problem_file", help="replay a saved problem file")
    p.add_argument("--save-problem", dest="save_problem", help="save the generated problem here")
    p.add_argument("--out", dest="out_path", help="CSV file (single run) or directory (scenario)")


def _flag_overrides(args: argparse.Namespace) -> dict:
    """The RunConfig fields given on the command line."""
    out = {}
    for key in (f.name for f in dataclasses.fields(RunConfig)):
        value = getattr(args, key, None)
        if value is None:
            continue
        if key == "alpha":
            try:
                value = float(value)
            except ValueError:
                pass
        out[key] = value
    return out


def _configs(args: argparse.Namespace) -> list[RunConfig]:
    """The runs the flags ask for: a scenario's presets or one config file (or
    neither), with every flag given overriding its field."""
    overrides = _flag_overrides(args)
    base: dict = {}
    if args.config:
        if args.scenario:
            raise ConfigError("--config cannot be combined with --scenario")
        with open(args.config, encoding="utf-8") as fh:
            base = json.load(fh)
        if not isinstance(base, dict):
            raise ConfigError(f"{args.config} must hold a JSON object of RunConfig fields")
    if args.scenario:
        overrides.pop("out_path", None)
        return [harness.config_from_dict({**_cfg_dict(cfg), **overrides})
                for cfg in harness.resolve_scenario(args.scenario)]
    return [harness.config_from_dict({**base, **overrides})]


def _cmd_run(args: argparse.Namespace) -> int:
    configs = _configs(args)
    out = args.out_path if args.scenario else configs[0].out_path
    if args.scenario and out and not os.path.isdir(out):
        os.makedirs(out, exist_ok=True)

    diverged = False
    for cfg in configs:
        trace = harness.run(cfg)
        if args.save_problem:
            problems.save_problem(trace.problem, args.save_problem)
        last = trace.residuals[-1]
        print(f"{cfg.name}: status={trace.status} iterations={trace.ks[-1]} "
              f"alpha={trace.alpha:.6g} final_residual={last:.3e}")
        if trace.certified:
            report = trace.audit
            print(f"  certificate: contraction factor {trace.certificate.rho:.12g}, "
                  f"audit violations {len(report.violations)}")
            for message in report.violations[:5]:
                print(f"  AUDIT: {message}")
        if out:
            path = os.path.join(out, f"{cfg.name}.csv") if args.scenario else out
            harness.write_csv(trace, path)
            print(f"  wrote {path}")
        diverged = diverged or trace.status == "diverged"
    return 2 if diverged else 0


def _cfg_dict(cfg: RunConfig) -> dict:
    return {k: v for k, v in dataclasses.asdict(cfg).items() if v is not None}


def _cmd_validate_mixing(args: argparse.Namespace) -> int:
    cfg = harness.config_from_dict(_flag_overrides(args))
    g = harness.build_graph(cfg)
    mp = harness.build_mixing(cfg, g)
    print(f"mixing pair on {g.n} nodes, {len(g.edges)} edges: PASS")
    print(f"  lambda_min(w) = {mp.lam_min_w:.12g}")
    print(f"  lambda_max(w) = {mp.lam_max_w:.12g}")
    print(f"  lambda_2(w)   = {mp.lam2_w:.12g} (spectral gap beta = {mp.beta:.12g})")
    print(f"  lambda_min(w_tilde) = {mp.lam_min_wt:.12g}")
    print(f"  lambda_min_pos(I - w) = {mp.lam_min_pos_iw:.12g}")
    print(f"  lambda_max(I - w) = {mp.lam_max_iw:.12g}")
    print(f"  theta = {mp.theta:.12g}")
    if args.dump_mixing:
        with open(args.dump_mixing, "w", encoding="utf-8") as fh:
            fh.write(mixing.dump_matrix_text(mp.w))
        print(f"  wrote {args.dump_mixing}")
    return 0


def _cmd_bounds(args: argparse.Namespace) -> int:
    inst = harness.build_instance(_configs(args)[0])
    print(f"stepsize bounds (L = {inst.prob.lipschitz:g}, mu_fbar = {inst.prob.mu_fbar:.6g}, "
          f"lambda_min(w) = {inst.mp.lam_min_w:.6g}, theta = {inst.mp.theta:g})")
    width = max(map(len, inst.stepsizes))
    for name, value in inst.stepsizes.items():
        print(f"  {name.ljust(width)}  {value:.12g}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="decon",
        description="Simulate and certify decentralized consensus optimization.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a scenario preset or a single configuration")
    _add_run_flags(p_run)
    p_run.set_defaults(func=_cmd_run)

    p_val = sub.add_parser("validate-mixing", help="validate the mixing assumption on a graph")
    _add_mixing_flags(p_val)
    p_val.add_argument("--dump-mixing", dest="dump_mixing",
                       help="write the mixing matrix as plain text rows")
    p_val.set_defaults(func=_cmd_validate_mixing)

    p_bounds = sub.add_parser("bounds", help="print the stepsize-bound table")
    _add_run_flags(p_bounds)
    p_bounds.set_defaults(func=_cmd_bounds)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _VALIDATION_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
