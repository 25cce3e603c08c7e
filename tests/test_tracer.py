"""The benchmark's per-layer tracer must see every layer boundary it targets."""

import importlib.util
import pathlib

from decon import harness

TRACER = pathlib.Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _tracer_module():
    spec = importlib.util.spec_from_file_location("decon_bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_tracer_finds_and_records_every_layer_boundary():
    # mixing.build_derived is gone (its work moved into mixing.validate); any
    # other absent target would hide a layer from the per-layer benchmark.
    tracer = _tracer_module().Tracer()
    tracer.install()
    try:
        trace = harness.run(harness.RunConfig(algo="nids", alpha=0.1, certify=True,
                                              max_iters=20))
    finally:
        tracer.uninstall()
    assert tracer.absent == ["mixing.build_derived"]
    spans = tracer.summary()["spans"]
    assert spans["algorithms.step"]["calls"] == trace.ks[-1] == 20
    for name in ("harness.build_instance", "mixing.validate", "problem.generate",
                 "certify.nids_constants", "certify.audit_nids", "linalg.eig"):
        assert spans[name]["calls"] >= 1, name


def test_uncertified_run_steps_and_gradients_pass_through_the_traced_layers():
    # Each step must reach the tracer as one algorithms.step and one
    # problem.grad call: a fast path that bypassed either would hide its cost.
    tracer = _tracer_module().Tracer()
    tracer.install()
    try:
        trace = harness.run(harness.RunConfig(algo="nids", alpha=0.1, max_iters=20))
    finally:
        tracer.uninstall()
    spans = tracer.summary()["spans"]
    assert trace.ks[-1] == 20
    assert spans["problem.grad"]["calls"] == spans["algorithms.step"]["calls"] == 20
