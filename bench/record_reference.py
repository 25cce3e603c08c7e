"""Record bench/reference.json: one untraced pass of every workload on the
preset seed, reduced to per-curve status, iterations, alpha, final residual
and audit verdict.

    python3 bench/record_reference.py      # from the root of a checkout

Only re-record when a change is meant to alter those results; the benchmark
compares every preset-seed pass against this file.
"""

from __future__ import annotations

import json
import os
import sys
import time

import checks
import workloads
from run import RUN_LIMIT_S, BenchError, _worker


def main() -> int:
    src = os.path.join(os.getcwd(), "src")
    sys.path.insert(0, src)
    out_root = os.path.join(os.getcwd(), ".bench_out")
    os.makedirs(out_root, exist_ok=True)
    reference = {}
    for name in workloads.NAMES:
        work = workloads.generate(name, workloads.PRESET_SEED)
        spec = os.path.join(out_root, f"spec-reference-{name}.json")
        with open(spec, "w", encoding="utf-8") as fh:
            json.dump({"src": src, "workload": work.to_json()}, fh)
        try:
            records = _worker(["pass", spec, os.path.join(out_root, f"reference-{name}")],
                              time.perf_counter() + RUN_LIMIT_S)["records"]
        finally:
            os.remove(spec)
        failures = checks.verify(records, None)
        if failures:
            raise BenchError(f"{name}: outputs fail the any-seed checks: {failures}")
        reference[name] = checks.compact(records)
    with open(checks.REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1)
        fh.write("\n")
    print(f"wrote {checks.REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
