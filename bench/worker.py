"""One measurement in a fresh process; prints one JSON line on stdout.

    python3 bench/worker.py setup SPEC.json
        time harness.build_instance over every RunConfig of the workload.
    python3 bench/worker.py pass SPEC.json OUT_DIR [SPANS.npz]
        run the workload's cli.main calls back to back, timed, then collect
        their outputs for checking; with SPANS.npz, trace the run and save
        its spans there.

Untraced timings also come at the reference host speed (calibrate.py), with
the time spent sampling that speed left out of both.

SPEC.json holds the generated workload and the path of the decon sources.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import shutil
import sys
import time

import checks
from calibrate import HostClock
from workloads import OUT, Workload


def _setup(work: Workload) -> dict:
    from decon import harness

    configs = [harness.RunConfig(**fields) for fields in work.configs]
    with HostClock() as clock:
        start = time.perf_counter()
        for cfg in configs:
            harness.build_instance(cfg)
        end = time.perf_counter()
    setup_ref_s, sampling_s = clock.at_ref(start, end)
    return {"setup_s": end - start - sampling_s, "setup_ref_s": setup_ref_s,
            "builds": len(configs)}


def _pass(work: Workload, out_dir: str, spans_path: str | None) -> dict:
    from decon import cli

    tracer = None
    if spans_path:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    argvs = [[arg.replace(OUT, out_dir) for arg in call.argv] for call in work.calls]
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)
    outputs, spans = [], []
    # Tracing times spans, so sampling the host speed would land inside them.
    with contextlib.nullcontext() if tracer else HostClock() as clock:
        for argv in argvs:
            buf = io.StringIO()
            start = time.perf_counter()
            with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
                code = cli.main(argv)
            spans.append((start, time.perf_counter()))
            outputs.append((code, buf.getvalue()))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if clock is None:
        call_s, call_ref_s = [end - start for start, end in spans], None
    else:
        timed = [clock.at_ref(start, end) for start, end in spans]
        call_s = [end - start - busy for (start, end), (_, busy) in zip(spans, timed)]
        call_ref_s = [ref for ref, _ in timed]
    result = {"wall_s": sum(call_s), "call_s": call_s, "call_ref_s": call_ref_s,
              "peak_rss_mb": peak_rss_mb}
    if tracer is not None:
        tracer.uninstall()
        result["trace"] = tracer.summary()
        tracer.save(spans_path)
    result["records"] = checks.collect(work.calls, out_dir, outputs)
    shutil.rmtree(out_dir)
    return result


def main(argv: list[str]) -> int:
    mode, spec_path = argv[0], argv[1]
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    sys.path.insert(0, spec["src"])
    work = Workload.from_json(spec["workload"])
    if mode == "setup":
        result = _setup(work)
    elif mode == "pass":
        result = _pass(work, argv[2], argv[3] if len(argv) > 3 else None)
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
