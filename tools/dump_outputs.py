"""Dump every output byte of the benchmark workloads, for byte-identity checks.

    python3 tools/dump_outputs.py --seed 2 [--workload certify-large] OUT

Run from the root of a checkout: the program is imported from ./src and the
workloads from ./bench/workloads.py, as bench/run.py does, so the script of
one checkout dumps another's outputs when run from that checkout's root. The
workloads are read, never written: no byte code is cached under bench/.

OUT must be missing or empty. For each workload W, OUT/W/NN.out holds call
NN of W: its argv, its stdout, its stderr if any, and `exit=<code>`, with the
call's output directory written as <OUT>. The CSVs the calls write land
under OUT/W as well. OUT/cli/NN.out holds the same for fixed `validate-mixing`
and `bounds` calls. Two dumps at one seed compare with `diff -r`.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.util
import io
import os
import sys

# `validate-mixing` and `bounds` calls dumped beside the workloads: every
# topology, relaxed mixing, an explicit theta and the 50-node instance.
CLI_CALLS = (
    ("validate-mixing",),
    ("validate-mixing", "--topology", "line", "--n", "10", "--relax-factor", "0.333"),
    ("validate-mixing", "--topology", "complete", "--n", "6"),
    ("validate-mixing", "--topology", "line", "--n", "30", "--theta", "0.8"),
    ("validate-mixing", "--n", "50", "--seed", "7"),
    ("bounds", "--scenario", "fig1"),
    ("bounds", "--scenario", "fig3", "--seed", "7"),
    ("bounds", "--scenario", "relaxed-line"),
    ("bounds", "--n", "50", "--p", "5", "--mi", "1"),
    ("bounds", "--topology", "line", "--n", "10", "--relax-factor", "0.3", "--theta", "0.9"),
)


def load_workloads(root: str):
    """bench/workloads.py of the checkout at `root`, imported without caching
    its byte code."""
    path = os.path.join(root, "bench", "workloads.py")
    spec = importlib.util.spec_from_file_location("_dumped_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    keep, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = keep
    return module


def _call(argv: list[str], out_dir: str, path: str) -> None:
    """Run `decon argv` and write its record to `path`, `out_dir` as <OUT>."""
    from decon import cli

    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli.main(argv)
    text = f"$ decon {' '.join(argv)}\n{stdout.getvalue()}"
    if stderr.getvalue():
        text += f"stderr:\n{stderr.getvalue()}"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text.replace(out_dir, "<OUT>") + f"exit={code}\n")


def dump(workloads, out: str, seed: int, names) -> None:
    """Dump the workloads `names` of the module `workloads` at `seed`, then the
    fixed CLI calls, under `out`."""
    if os.path.exists(out) and os.listdir(out):
        raise SystemExit(f"{out} is not empty")
    for name in names:
        work_dir = os.path.join(out, name)
        os.makedirs(work_dir)
        for i, call in enumerate(workloads.generate(name, seed).calls):
            argv = [arg.replace(workloads.OUT, work_dir) for arg in call.argv]
            _call(argv, work_dir, os.path.join(work_dir, f"{i:02d}.out"))
    cli_dir = os.path.join(out, "cli")
    os.makedirs(cli_dir)
    for i, argv in enumerate(CLI_CALLS):
        _call(list(argv), cli_dir, os.path.join(cli_dir, f"{i:02d}.out"))


def main(argv: list[str] | None = None) -> int:
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "decon", "__init__.py")):
        raise SystemExit(f"no decon sources under {src}; run from the root of a checkout")
    sys.path.insert(0, src)
    workloads = load_workloads(root)
    names = workloads.NAMES
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workload", choices=names, help="one workload (default: all)")
    parser.add_argument("out", help="directory to write, missing or empty")
    args = parser.parse_args(argv)
    dump(workloads, os.path.abspath(args.out), args.seed,
         [args.workload] if args.workload else names)
    return 0


if __name__ == "__main__":
    sys.exit(main())
