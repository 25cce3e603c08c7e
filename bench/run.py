"""decon benchmark: three workloads, end-to-end metrics and a traced per-layer run.

    python3 bench/run.py --workload figures --seed 2 --seconds 36 --trace 0

Run from the root of a checkout; the program is imported from ./src. Each
measurement runs in a fresh worker process (bench/worker.py), one at a time.

--trace 0 prints the end-to-end metrics. Passes of the workload and set-up
repetitions alternate for --seconds. Times are scaled to a reference host
speed measured next to them (calibrate.py). wall_s sums each call's median
time over passes; iters_per_s divides one pass's iterations by it;
peak_rss_mb is the median over passes; setup_s is the median of the set-up
repetitions, each in its own process, so that set-up is never timed just
before a pass in the same process; ok_frac is the share of runs passing the
correctness checks.
--trace 1 prints the per-layer metrics from traced passes, plus the tracing
overhead against untraced passes alternating with them.

The last stdout line is one JSON object {correct, attempted, failed, metrics};
the full record (environment, every pass, every failure) is also written to
.bench_out/. See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

import checks
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_REPS = 3
MIN_PASSES = 3
MIN_TRACED_PASSES = 2
# A run must end within 180 s; no worker may outlive this many seconds of it.
RUN_LIMIT_S = 170.0
# Counts that must repeat exactly between passes of one seed.
EXACT = ("linalg.eig.calls", "linalg.eig.work_n3", "problem.grad.calls",
         "algorithms.step.calls", "harness.run.iterations", "harness.build_instance.calls")


class BenchError(RuntimeError):
    """The benchmark could not measure (missing program, crashed worker, unsteady counts)."""


def _worker(args: list[str], limit: float) -> dict:
    """Run one worker; `limit` is the perf_counter time by which it must end."""
    proc = subprocess.run([sys.executable, os.path.join(HERE, "worker.py"), *args],
                          capture_output=True, text=True,
                          timeout=max(1.0, limit - time.perf_counter()))
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker {args[0]} failed with exit code {proc.returncode}:\n"
                         f"{proc.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


def _measure(spec: str, out_root: str, seconds: float, traced: bool, spans: str,
             limit: float) -> tuple[list[dict], list[dict], list[dict]]:
    """Fresh-process measurements, one at a time, interleaved over `seconds`.

    Untraced: set-up repetitions and passes alternate (S P S P S P P ...).
    Traced: untraced and traced passes alternate. Once the minimum counts are
    reached, a pass is only started when the last one suggests it ends within
    the window.
    """
    deadline = time.perf_counter() + seconds
    setups: list[dict] = []
    plain: list[dict] = []
    tracing: list[dict] = []
    last = 0.0
    while True:
        if traced:
            done = min(len(plain), len(tracing)) >= MIN_TRACED_PASSES
        else:
            done = len(setups) == SETUP_REPS and len(plain) >= MIN_PASSES
        if done and time.perf_counter() + last > deadline:
            return setups, plain, tracing
        began = time.perf_counter()
        if not traced and len(setups) < SETUP_REPS and len(setups) <= len(plain):
            setups.append(_worker(["setup", spec], limit))
            continue
        trace_this = traced and len(tracing) < len(plain)
        args = ["pass", spec, os.path.join(out_root, f"pass{os.getpid()}")]
        (tracing if trace_this else plain).append(
            _worker(args + ([spans] if trace_this else []), limit))
        last = time.perf_counter() - began


def _iterations(result: dict) -> int:
    return sum(r["iterations"] or 0 for r in result["records"])


def _wall(passes: list[dict], key: str = "call_ref_s") -> float:
    """Sum over the workload's calls of each call's median time across passes."""
    return sum(statistics.median(times) for times in zip(*(p[key] for p in passes)))


def _setup(setups: list[dict], key: str = "setup_ref_s") -> float:
    return statistics.median(s[key] for s in setups)


def _end_to_end(passes: list[dict], setups: list[dict], ok_frac: float) -> dict:
    wall = _wall(passes)
    return {
        "wall_s": wall,
        "iters_per_s": _iterations(passes[0]) / wall,
        "setup_s": _setup(setups),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
        "ok_frac": ok_frac,
    }


def _per_layer_one(t: dict) -> dict:
    """Per-layer metrics of one traced pass (values only)."""
    spans, counters = t["spans"], t["counters"]

    def row(name: str) -> dict:
        return spans.get(name, {"calls": 0, "s": 0.0, "self_s": 0.0})

    def matching(prefix: str, suffix: str = "") -> list[dict]:
        return [v for k, v in spans.items() if k.startswith(prefix) and k.endswith(suffix)]

    def per(value: float, count: int, scale: float = 1.0) -> float:
        return scale * value / count if count else 0.0

    eig, step, grad = row("linalg.eig"), row("algorithms.step"), row("problem.grad")
    audits = matching("certify.audit_")
    audit_self = sum(v["self_s"] for v in audits)
    iterations = counters["iterations"]
    metrics = {
        "linalg.eig.calls": eig["calls"],
        "linalg.eig.s": eig["s"],
        "linalg.eig.work_n3": counters["eig_work_n3"],
        "linalg.eig.repeat_frac": per(counters["eig_repeats"], eig["calls"]),
        "mixing.validate.self_s": row("mixing.validate")["self_s"],
        "mixing.build_derived.self_s": row("mixing.build_derived")["self_s"],
        "problem.generate.self_s": row("problem.generate")["self_s"],
        "certify.constants.s": sum(v["s"] for v in matching("certify.", "_constants")),
        "algorithms.step.calls": step["calls"],
        "algorithms.step.self_us_per_call": per(step["self_s"], step["calls"], 1e6),
        "problem.grad.calls": grad["calls"],
        "problem.grad.us_per_call": per(grad["s"], grad["calls"], 1e6),
        "problem.grad.calls_per_iter": per(grad["calls"], iterations),
        "harness.run.self_s": row("harness.run")["self_s"],
        "harness.run.iterations": iterations,
        "harness.write_csv.s": row("harness.write_csv")["s"],
        "harness.write_csv.bytes": counters["csv_bytes"],
        "harness.build_instance.calls": row("harness.build_instance")["calls"],
        "harness.build_instance.s": row("harness.build_instance")["s"],
        "certify.audit.self_s": audit_self,
        "certify.audit.self_us_per_transition": per(audit_self, counters["transitions"], 1e6),
        "cli.main.s": t["root_s"],
        "cli.main.self_s": row("cli.main")["self_s"],
    }
    for layer, value in t["layers"].items():
        metrics[f"layer.{layer}.self_s"] = value
    return metrics


def _per_layer(traced: list[dict], untraced: list[dict]) -> dict:
    per_pass = [_per_layer_one(p["trace"]) for p in traced]
    for name in EXACT:
        values = {m[name] for m in per_pass}
        if len(values) != 1:
            raise BenchError(f"{name} differs between passes of one seed: {sorted(values)}")
    for p in traced:
        t = p["trace"]
        if abs(t["self_sum_s"] - t["root_s"]) > 1e-6 * max(1.0, t["root_s"]):
            raise BenchError(f"span self times sum to {t['self_sum_s']} s, "
                             f"root spans to {t['root_s']} s")
    metrics = {}
    for name in per_pass[0]:
        values = [m[name] for m in per_pass]
        metrics[name] = values[0] if len(set(values)) == 1 else statistics.median(values)
    # Untraced and traced passes alternate, so each pair ran at nearly the same
    # host speed; the median pair ratio isolates the tracing cost. Both sides
    # use measured seconds, since traced passes do not sample the host speed.
    ratios = [t["wall_s"] / u["wall_s"] for u, t in zip(untraced, traced)]
    metrics["trace.overhead_frac"] = statistics.median(ratios) - 1.0
    return metrics


def _git_commit(root: str) -> str | None:
    """HEAD of the checkout when it is a git work tree, read without running git."""
    try:
        with open(os.path.join(root, ".git", "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(root, ".git", ref)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(root, ".git", "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def _environment(root: str, args: argparse.Namespace, noise: float) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = None
    threads = {k: os.environ.get(k) for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                              "MKL_NUM_THREADS", "BLIS_NUM_THREADS")}
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads_env": threads,
        "workload": args.workload,
        "seed": args.seed,
        "noise_std": noise,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_commit": _git_commit(root),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, default=workloads.PRESET_SEED)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    limit = time.perf_counter() + RUN_LIMIT_S

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "decon", "__init__.py")):
        raise BenchError(f"no decon sources under {src}; run from the root of a checkout")
    sys.path.insert(0, src)
    with open(os.path.join(HERE, "..", "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)
    units = {m["name"]: m["unit"]
             for m in declared["per_layer" if args.trace else "end_to_end"]}

    work = workloads.generate(args.workload, args.seed)
    out_root = os.path.join(root, ".bench_out")
    os.makedirs(out_root, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    spec = os.path.join(out_root, f"spec-{tag}-{os.getpid()}.json")
    with open(spec, "w", encoding="utf-8") as fh:
        json.dump({"src": src, "workload": work.to_json()}, fh)

    try:
        setups, untraced, traced = _measure(
            spec, out_root, args.seconds, bool(args.trace),
            os.path.join(out_root, f"spans-{args.workload}.npz"), limit)
    finally:
        os.remove(spec)

    passes = untraced + traced
    iteration_totals = {_iterations(p) for p in passes}
    if len(iteration_totals) != 1:
        raise BenchError(f"iteration totals differ between passes of one seed: "
                         f"{sorted(iteration_totals)}")
    reference = checks.load_reference(args.workload) if args.seed == workloads.PRESET_SEED else None
    failures = []
    for p in passes:
        failures += checks.verify(p["records"], reference)
    attempted = sum(len(p["records"]) for p in passes)
    failed = len(failures)

    if args.trace:
        metrics = _per_layer(traced, untraced)
    else:
        metrics = _end_to_end(untraced, setups, 1.0 - failed / attempted)

    if sorted(metrics) != sorted(units):
        raise BenchError(f"metrics {sorted(metrics)} do not match BENCHMARK.json {sorted(units)}")

    env = _environment(root, args, work.noise_std)
    absent = traced[0]["trace"]["absent"] if traced else []
    report = {"env": env, "absent": absent, "failures": failures, "passes": passes,
              "setups": setups, "metrics": metrics}
    with open(os.path.join(out_root, f"result-{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)

    print(f"env {json.dumps(env)}")
    print(f"{args.workload}: {len(untraced)} untraced, {len(traced)} traced passes, "
          f"{len(setups)} set-up repetitions; failed_frac {failed / attempted:g} "
          f"({failed}/{attempted} runs)")
    if setups:
        raw_wall = _wall(untraced, "call_s")
        print(f"measured, not scaled to the reference speed: wall_s {raw_wall:.6g} s, "
              f"iters_per_s {_iterations(untraced[0]) / raw_wall:.6g} 1/s, "
              f"setup_s {_setup(setups, 'setup_s'):.6g} s")
    for message in failures[:20]:
        print(f"FAILED {message}")
    for name in absent:
        print(f"absent: {name} (reported as 0)")
    for name, value in metrics.items():
        print(f"  {name:40s} {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        sys.exit(1)
