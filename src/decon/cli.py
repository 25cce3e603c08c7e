"""Command-line interface.

Subcommands:
  run              execute a scenario preset or a single configured run
  validate-mixing  check the mixing assumption for a graph (optionally relaxed)
  bounds           print the stepsize-bound table of the first run `run` would do

Exit codes: 0 success, 1 usage, validation or configuration error or an instance too large
to allocate, 2 divergence.
"""

from __future__ import annotations

import argparse
import ctypes
import dataclasses
import errno
import functools
import json
import os
import sys

from . import algorithms, harness, mixing, problem as problems
from .certify import CertificateError
from .graph import GraphError
from .harness import ConfigError, RunConfig
from .linalg import EigenConvergenceError, NonFiniteMatrixError, NotPositiveSemidefiniteError
from .mixing import MixingValidationError
from .problem import ProblemError

# Failures of the input, the file system or an allocation: one "error:" line and
# exit code 1. Any other exception is a defect and keeps its traceback.
_VALIDATION_ERRORS = (
    ConfigError, MixingValidationError, CertificateError, ProblemError, GraphError,
    EigenConvergenceError, NonFiniteMatrixError, NotPositiveSemidefiniteError,
    json.JSONDecodeError, UnicodeDecodeError, OSError, MemoryError,
)


# glibc's mallopt parameter M_TRIM_THRESHOLD (malloc.h): free() hands the top of
# the heap back to the kernel only when more than this many bytes lie free there.
_M_TRIM_THRESHOLD = -1
# The trim threshold the CLI process runs with. An audit block's temporaries
# (about 100 kB each) are freed after every block; at glibc's default threshold
# the heap top holding them is trimmed, and the next block page-faults the same
# memory back in (tens of thousands of minor faults per certified run). From
# 4 MiB up those faults are gone; 1 MiB left about 4k of them. Setting it also
# pins glibc's mmap threshold at its 128 kB default.
_HEAP_TRIM_THRESHOLD = 4 << 20


@functools.cache
def _glibc_mallopt():
    """glibc's `mallopt`, looked up once; None where the C library is not
    glibc, cannot be loaded or has no such symbol."""
    try:
        if not (os.confstr("CS_GNU_LIBC_VERSION") or "").startswith("glibc"):
            return None
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, ValueError, OSError):  # no confstr/name, no libc, no symbol
        return None
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    return mallopt


def _keep_freed_heap() -> None:
    """Keep up to `_HEAP_TRIM_THRESHOLD` bytes of freed memory in this process's
    heap instead of returning it to the kernel; nothing where glibc is absent.
    Numbers are unaffected: only where freed memory goes changes."""
    mallopt = _glibc_mallopt()
    if mallopt is not None:
        mallopt(_M_TRIM_THRESHOLD, _HEAP_TRIM_THRESHOLD)


def _add_mixing_flags(p: argparse.ArgumentParser) -> None:
    """The graph and mixing flags, shared by `run`, `bounds` and `validate-mixing`."""
    p.add_argument("--topology", choices=harness.TOPOLOGIES)
    p.add_argument("--n", type=int)
    p.add_argument("--edge-prob", type=float, dest="edge_prob")
    p.add_argument("--seed", type=int)
    p.add_argument("--relax-factor", type=float, dest="relax_factor")
    p.add_argument("--theta", type=float)
    p.add_argument("--graph-file", dest="graph_file", help="edge-list file ('i j' per line)")


def _add_instance_flags(p: argparse.ArgumentParser) -> None:
    """The flags that pick the instance, shared by `run` and `bounds`."""
    p.add_argument("--scenario", choices=harness.SCENARIOS, help="preset replicating one figure")
    p.add_argument("--config", help="JSON file with RunConfig fields; flags override it")
    _add_mixing_flags(p)
    p.add_argument("--p", type=int)
    p.add_argument("--mi", type=int)
    p.add_argument("--noise-std", type=float, dest="noise_std")
    p.add_argument("--load-problem", dest="problem_file", help="replay a saved problem file")


def _add_run_only_flags(p: argparse.ArgumentParser) -> None:
    """The flags only `run` reads: the algorithm, its stopping rule and the outputs."""
    p.add_argument("--algo", choices=algorithms.VARIANTS)
    p.add_argument("--alpha", help="numeric stepsize or one of: " + ", ".join(algorithms.STEPSIZES))
    p.add_argument("--max-iters", type=int, dest="max_iters")
    p.add_argument("--tol", type=float)
    p.add_argument("--certify", action="store_true", default=None)
    p.add_argument("--out", dest="out_path", help="CSV file (single run) or directory (scenario)")
    p.add_argument("--save-problem", dest="save_problem", help="save the generated problem here")


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


# The fields a loaded problem file's data fix, each with the name its errors use.
_PROBLEM_FILE_FIELDS = {"p": "p", "mi": "m_i", "noise_std": "noise_std"}


def _check_problem_file(config: RunConfig, given) -> None:
    """Raise if a field of `given` that a problem file fixes (p, m_i or noise_std)
    differs from `config.problem_file`'s; the file is read only if one is given."""
    fields = [f for f in _PROBLEM_FILE_FIELDS if f in given]
    if not (config.problem_file and fields):
        return
    prob = problems.load_problem(config.problem_file)
    held = {"p": prob.p, "mi": prob.sensing.shape[1], "noise_std": prob.noise_std}
    clashes = [f"{_PROBLEM_FILE_FIELDS[f]} = {getattr(config, f)!r} (file: {held[f]!r})"
               for f in fields if getattr(config, f) != held[f]]
    if clashes:
        raise ConfigError(f"problem file {config.problem_file} contradicts the given "
                          + ", ".join(clashes))


def _configs(args: argparse.Namespace) -> list[RunConfig]:
    """The runs the flags ask for: a scenario's presets or one config file (or
    neither), with every flag given overriding its field. A p, m_i or noise_std
    given as a flag or config key beside a problem file must match the file's,
    and so must the p and m_i a scenario's presets name."""
    overrides = _flag_overrides(args)
    base: dict = {}
    if args.config:
        if args.scenario:
            raise ConfigError("--config cannot be combined with --scenario")
        with open(args.config, encoding="utf-8-sig") as fh:
            base = json.load(fh)
        if not isinstance(base, dict):
            raise ConfigError(f"{args.config} must hold a JSON object of RunConfig fields")
    if args.scenario:
        # Each preset's label names its algorithm, so the CSVs would hide another.
        if "algo" in overrides:
            raise ConfigError("--algo cannot be combined with --scenario")
        overrides.pop("out_path", None)
        configs = [dataclasses.replace(cfg, **overrides)
                   for cfg in harness.resolve_scenario(args.scenario)]
        # Every preset of a scenario names the same p and m_i.
        given = {*overrides, "p", "mi"}
    else:
        configs = [harness.config_from_dict({**base, **overrides})]
        given = {*base, *overrides}
    _check_problem_file(configs[0], given)
    return configs


def _check_file_path(path: str, what: str) -> None:
    """Raise, before any instance is built, the error writing the `what` file
    would meet after the run: the path is a directory, or its directory is
    missing or not a directory."""
    parent = os.path.dirname(path) or "."
    if os.path.isdir(path):
        code = errno.EISDIR
    elif os.path.isdir(parent):
        return
    else:
        code = errno.ENOTDIR if os.path.exists(parent) else errno.ENOENT
    raise OSError(f"cannot write {what} to {path}: {OSError(code, os.strerror(code), path)}")


def _cmd_run(args: argparse.Namespace) -> int:
    configs = _configs(args)
    out = args.out_path if args.scenario else configs[0].out_path
    if out and args.scenario:
        os.makedirs(out, exist_ok=True)
    elif out:
        _check_file_path(out, "trace")
    if args.save_problem:
        _check_file_path(args.save_problem, "problem")

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


def _cmd_validate_mixing(args: argparse.Namespace) -> int:
    if args.dump_mixing:
        _check_file_path(args.dump_mixing, "mixing matrix")
    cfg = harness.config_from_dict(_flag_overrides(args))
    g = harness.build_graph(cfg)
    mp = harness.build_mixing(cfg, g)
    w_eigs, iw_eigs = mp.w.eigenvalues, mp.iw.eigenvalues
    print(f"mixing pair on {g.n} nodes, {len(g.edges)} edges: PASS")
    print(f"  lambda_min(w) = {w_eigs[0]:.12g}")
    print(f"  lambda_max(w) = {w_eigs[-1]:.12g}")
    print(f"  lambda_2(w)   = {w_eigs[-2]:.12g} (spectral gap beta = {1.0 - w_eigs[-2]:.12g})")
    print(f"  lambda_min(w_tilde) = {mp.wt.lambda_min:.12g}")
    print(f"  lambda_min_pos(I - w) = {iw_eigs[1]:.12g}")
    print(f"  lambda_max(I - w) = {iw_eigs[-1]:.12g}")
    print(f"  theta = {mp.theta:.12g}")
    if args.dump_mixing:
        with open(args.dump_mixing, "w", encoding="utf-8") as fh:
            fh.write(mixing.dump_matrix_text(mp.w))
        print(f"  wrote {args.dump_mixing}")
    return 0


def _cmd_bounds(args: argparse.Namespace) -> int:
    inst = harness.build_instance(_configs(args)[0])
    print(f"stepsize bounds (L = {inst.prob.lipschitz:g}, mu_fbar = {inst.prob.mu_fbar:.6g}, "
          f"lambda_min(w) = {inst.mp.w.lambda_min:.6g}, theta = {inst.mp.theta:g})")
    table = algorithms.stepsize_bounds(inst.mp, inst.prob.lipschitz, inst.prob.mu_fbar)
    width = max(map(len, table))
    for name, value in table.items():
        print(f"  {name.ljust(width)}  {value:.12g}")
    return 0


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose usage errors exit 1, as every other bad input
    does: exit code 2 means a run diverged. `add_subparsers` builds the
    subcommand parsers with this class too."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="decon",
        description="Simulate and certify decentralized consensus optimization.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a scenario preset or a single configuration")
    _add_instance_flags(p_run)
    _add_run_only_flags(p_run)
    p_run.set_defaults(func=_cmd_run)

    p_val = sub.add_parser("validate-mixing", help="validate the mixing assumption on a graph")
    _add_mixing_flags(p_val)
    p_val.add_argument("--dump-mixing", dest="dump_mixing",
                       help="write the mixing matrix as plain text rows")
    p_val.set_defaults(func=_cmd_validate_mixing)

    p_bounds = sub.add_parser("bounds", help="print the stepsize-bound table")
    _add_instance_flags(p_bounds)
    p_bounds.set_defaults(func=_cmd_bounds)

    return parser


def main(argv: list[str] | None = None) -> int:
    _keep_freed_heap()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _VALIDATION_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
