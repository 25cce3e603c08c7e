import argparse
import codecs
import collections
import contextlib
import dataclasses
import functools
import io
import itertools
import json
import math
import os
import re
import sys
import tempfile
import tracemalloc
import unittest.mock
import warnings
import weakref
from array import array
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from decon import algorithms, certify, cli, graph as graphs, harness, linalg, mixing, problem
from decon.harness import (
    ConfigError, RunConfig, Trace, resolve_scenario, run, write_csv,
)
from oracles import (
    edited_problem, eigenvalues_within, iterations_to, ratio_column, step_reference,
    until_stop_reference, write_csv_reference,
)


def test_resolve_fig1_shape():
    configs = resolve_scenario("fig1")
    assert len(configs) >= 6
    assert len({c.seed for c in configs}) == 1
    assert {c.algo for c in configs} == {"dgd", "extra", "nids"}
    labels = [c.label for c in configs]
    assert len(set(labels)) == len(labels)


def test_resolve_relaxed_line_shape():
    configs = resolve_scenario("relaxed-line")
    assert all(c.topology == "line" for c in configs)
    by_label = {c.label: c for c in configs}
    assert by_label["nids_relaxed"].relax_factor == pytest.approx(1.0 / 3.0 - 1e-3)
    assert by_label["nids_plain"].relax_factor == 0.0
    assert 0.0 < by_label["extra_relaxed"].relax_factor < 1.0 / 3.0


def test_unknown_scenario_lists_presets():
    with pytest.raises(ConfigError, match="fig1"):
        resolve_scenario("fig9")


def test_config_validation():
    with pytest.raises(ConfigError):
        RunConfig(max_iters=0)
    with pytest.raises(ConfigError):
        RunConfig(tol=0.0)
    with pytest.raises(ConfigError):
        RunConfig(relax_factor=0.4)
    with pytest.raises(ConfigError):
        RunConfig(algo="sgd")
    with pytest.raises(ConfigError):
        RunConfig(alpha="warp")


@pytest.mark.parametrize("stepper", ["extra_xy", "nids_dx"])
def test_config_takes_an_algorithm_not_its_reformulated_stepper(stepper):
    message = f"unknown algorithm '{stepper}'; choose from ('dgd', 'extra', 'nids')"
    for certified in (False, True):
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            RunConfig(algo=stepper, certify=certified)
    assert certify.certify(stepper) is None


def test_config_rejects_wrongly_typed_fields(tmp_path, named_error):
    for fields in ({"n": "10"}, {"n": 10.0}, {"tol": True}, {"certify": 1},
                   {"alpha": [0.1]}, {"theta": "0.9"}):
        with pytest.raises(ConfigError, match=next(iter(fields))):
            RunConfig(**fields)
    assert RunConfig(tol=1, edge_prob=1, alpha=1, theta=1).tol == 1  # ints where floats are due
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"n": "10"}))
    assert "n must be int" in named_error(["run", "--config", str(path)])


@pytest.mark.parametrize("source", ["flag", "config"])
def test_max_iters_past_the_run_loop_bound_is_a_config_error(source, tmp_path, monkeypatch,
                                                             named_error):
    # The run loop takes max_iters + 1 states with islice, whose stop is at
    # most sys.maxsize; a larger max_iters ended in a raw ValueError. No run
    # starts here: the CLI must fail before it builds an instance.
    top = sys.maxsize - 1
    assert RunConfig(max_iters=top).max_iters == top
    with pytest.raises(ConfigError, match="max_iters"):
        RunConfig(max_iters=top + 1)
    monkeypatch.setattr(harness, "build_instance", _no_instance)
    if source == "flag":
        argv = ["run", "--max-iters", str(top + 1)]
    else:
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"max_iters": top + 1}))
        argv = ["run", "--config", str(path)]
    assert "max_iters" in named_error(argv)


def test_run_converges_at_zero_when_started_at_optimum(tmp_path):
    # All-zero measurements put the optimum at the all-zero start.
    sensing = np.tile(np.sqrt(10.0) * np.eye(3), (4, 1, 1))
    prob = problem.from_data(sensing, np.zeros((4, 3)))
    path = tmp_path / "prob.json"
    problem.save_problem(prob, str(path))
    cfg = RunConfig(topology="complete", n=4, p=3, mi=3, algo="nids", alpha=0.1,
                    problem_file=str(path))
    trace = run(cfg)
    assert trace.status == "converged"
    assert list(trace.ks) == [0]
    assert list(trace.residuals) == [0.0]


def test_run_divergence_detected():
    base = resolve_scenario("fig1")[0]
    cfg = dataclasses.replace(base, algo="extra", alpha="extra-special", label="probe")
    inst = harness.build_instance(cfg)
    cfg = dataclasses.replace(cfg, alpha=10.0 * inst.alpha)
    trace = run(cfg)
    assert trace.status == "diverged"
    assert trace.residuals[-1] > harness.DIVERGENCE_LIMIT or not np.isfinite(trace.residuals[-1])


def test_run_residual_row_zero_is_one():
    cfg = RunConfig(topology="line", n=4, p=2, mi=2, seed=3, algo="nids", alpha=0.1,
                    max_iters=50, tol=1e-12)
    trace = run(cfg)
    assert trace.residuals[0] == 1.0


def _csv(path) -> tuple[str, list[list[str]]]:
    """A trace CSV's header line and its rows split into cells."""
    header, *rows = path.read_text().splitlines()
    return header, [row.split(",") for row in rows]


def _cell(text: str) -> float | None:
    return None if text == "" else float(text)


def _assert_rows_parse_back(trace, rows):
    """Every written cell parses back to exactly the value it was written from."""
    assert [int(r[0]) for r in rows] == list(trace.ks)
    assert {(r[1], float(r[2])) for r in rows} == {(trace.algo, trace.alpha)}
    assert [float(r[3]) for r in rows] == list(trace.residuals)


def test_trace_csv_round_trip_plain(tmp_path):
    cfg = RunConfig(topology="line", n=4, p=2, mi=2, seed=3, algo="nids", alpha=0.1,
                    max_iters=60, tol=1e-9)
    trace = run(cfg)
    path = tmp_path / "t.csv"
    write_csv(trace, str(path))
    header, rows = _csv(path)
    assert header == "k,algo,alpha,residual"
    assert all(len(r) == 4 for r in rows)
    _assert_rows_parse_back(trace, rows)


def test_trace_csv_round_trip_certified(tmp_path):
    cfg = RunConfig(topology="line", n=4, p=2, mi=2, seed=3, algo="nids", alpha=0.1,
                    max_iters=200, tol=1e-9, certify=True)
    trace = run(cfg)
    report = trace.audit
    assert report.ok
    path = tmp_path / "t.csv"
    write_csv(trace, str(path))
    header, rows = _csv(path)
    assert header == "k,algo,alpha,residual,lyapunov,ratio,slack"
    assert all(len(r) == 7 for r in rows)
    _assert_rows_parse_back(trace, rows)
    assert [float(r[4]) for r in rows] == report.lyapunov.tolist()
    assert [_cell(r[5]) for r in rows] == ratio_column(report)
    assert [_cell(r[6]) for r in rows] == [None] + report.slack.tolist()


def test_empty_trace_writes_header_only(tmp_path):
    trace = Trace(algo="none", alpha=0.1, residuals=[])
    path = tmp_path / "empty.csv"
    write_csv(trace, str(path))
    assert path.read_text() == "k,algo,alpha,residual\n"


def test_write_csv_io_error_names_path():
    trace = Trace(algo="none", alpha=0.1, residuals=[])
    bad = "/nonexistent-dir-decon/x.csv"
    with pytest.raises(OSError, match="nonexistent-dir-decon"):
        write_csv(trace, bad)


def test_csv_byte_identical_across_runs(tmp_path):
    plain = RunConfig(topology="random", n=8, p=3, mi=2, seed=11, algo="extra",
                      alpha="extra-special", max_iters=400, tol=1e-10)
    certified = RunConfig(topology="random", n=8, p=3, mi=2, seed=11, algo="nids",
                          alpha=0.1, max_iters=300, tol=1e-9, certify=True)
    for i, cfg in enumerate((plain, certified)):
        p1, p2 = tmp_path / f"a{i}.csv", tmp_path / f"b{i}.csv"
        write_csv(run(cfg), str(p1))
        write_csv(run(cfg), str(p2))
        assert p1.read_bytes() == p2.read_bytes()


_EDGE_FLOATS = (0.0, -0.0, 5e-324, 1.7976931348623157e308, math.inf, -math.inf, math.nan)
_floats = st.one_of(st.sampled_from(_EDGE_FLOATS), st.floats())


@st.composite
def _traces(draw):
    rows = draw(st.integers(1, 8))
    column = st.lists(_floats, min_size=rows, max_size=rows)
    transitions = st.lists(_floats, min_size=rows - 1, max_size=rows - 1)
    certified = draw(st.booleans())
    return Trace(algo=draw(st.sampled_from(("dgd_fast", "nids_0.19", "extra_0.0657529"))),
                 alpha=draw(_floats),
                 residuals=draw(column),
                 audit=_audit(draw(column), draw(transitions)) if certified else None)


def _audit(lyapunov, slack) -> certify.AuditReport:
    """An audit report holding the two stored columns a certified trace
    writes: L_k per row and the slack per transition."""
    return certify.AuditReport(lyapunov=np.array(lyapunov, dtype=float),
                               slack=np.array(slack, dtype=float), checks={}, violations=[])


def _assert_writes_the_reference_bytes(trace):
    with tempfile.TemporaryDirectory() as tmp:
        new, old = os.path.join(tmp, "new.csv"), os.path.join(tmp, "old.csv")
        write_csv(trace, new)
        write_csv_reference(trace, old)
        with open(new, "rb") as a, open(old, "rb") as b:
            assert a.read() == b.read()


def _cycled(stepped: list, start: int, period: int, rows: int) -> Trace:
    """An uncertified trace as the run loop leaves a replayed cycle: rows 0 to
    start + period stepped, each later row the period's own float object."""
    assert len(stepped) == start + period + 1
    replayed = itertools.islice(itertools.cycle(stepped[-period:]), rows - len(stepped))
    return Trace(algo="dgd_slow", alpha=0.1, residuals=stepped + list(replayed),
                 cycle=(start, period))


@st.composite
def _cycled_traces(draw):
    start, period = draw(st.integers(0, 5)), draw(st.integers(1, 3))
    stepped = draw(st.lists(_floats, min_size=start + period + 1, max_size=start + period + 1))
    return _cycled(stepped, start, period, len(stepped) + draw(st.integers(0, 8)))


@settings(derandomize=True, deadline=None, max_examples=200)
@given(trace=_traces())
@example(trace=Trace(algo="nids_0.19", alpha=0.19, residuals=[1.0],
                     audit=_audit([math.nan], [])))
@example(trace=Trace(algo="dgd_slow", alpha=-0.0,
                     residuals=[5e-324, 1.7976931348623157e308, math.inf]))
# The run's '%' is text in the rows' template, beside an existing ratio cell
# and beside an empty one on a row past the first.
@example(trace=Trace(algo="nids_%d%%s", alpha=0.19, residuals=[1.0, 0.5, 0.25],
                     audit=_audit([3.0, 2.0, 1.0], [0.1, -0.0])))
@example(trace=Trace(algo="nids_%d%%s", alpha=0.19, residuals=[1.0, 0.5, 0.25],
                     audit=_audit([3.0, 0.0, 1.0], [0.1, -0.0])))
def test_write_csv_matches_the_per_row_writer_byte_for_byte(trace):
    _assert_writes_the_reference_bytes(trace)


@settings(derandomize=True, deadline=None, max_examples=200)
@given(trace=st.one_of(_traces(), _cycled_traces()))
def test_write_csv_matches_the_per_row_writer_in_chunks_of_three(trace):
    # 1 to 8 rows cross 0, 1 and 2 chunk boundaries; a cycled trace of up to
    # 17 rows starts its replayed rows at every offset into a chunk.
    with unittest.mock.patch.object(harness, "_CSV_CHUNK_ROWS", 3):
        _assert_writes_the_reference_bytes(trace)


_CHUNK = harness._CSV_CHUNK_ROWS


def _random_trace(rows: int, certified: bool) -> Trace:
    """A trace of random floats in [0, 1), most of which need 17 significant digits."""
    column = np.random.default_rng(rows).random((3, rows)).tolist()
    audit = _audit(column[1], column[2][1:])
    return Trace(algo="nids_0.19", alpha=0.19, residuals=column[0],
                 audit=audit if certified else None)


@pytest.mark.parametrize("certified", [False, True])
# Each boundary is checked after one chunk and after four.
@pytest.mark.parametrize("rows", [_CHUNK - 1, _CHUNK, _CHUNK + 1,
                                  4 * _CHUNK - 1, 4 * _CHUNK, 4 * _CHUNK + 1])
def test_write_csv_matches_the_per_row_writer_at_the_chunk_size(rows, certified):
    _assert_writes_the_reference_bytes(_random_trace(rows, certified))


@pytest.mark.parametrize("start, period, rows", [
    (0, 1, 3 * _CHUNK + 5),            # a fixed point from row 0
    (0, 1, 12 * _CHUNK + 5),
    (100, 2, 100 + 2 + 1),             # closes exactly at the last row
    (_CHUNK - 4, 3, 2 * _CHUNK + 7),   # closes on a chunk's last row, replays from the next
    (4 * _CHUNK - 4, 3, 8 * _CHUNK + 7),
    (_CHUNK - 1, 1, _CHUNK + 2),       # closes on a chunk's first row
    (4 * _CHUNK - 1, 1, 4 * _CHUNK + 2),
    (2 * _CHUNK - 3, 2, 2 * _CHUNK),   # closes on the last row of a chunk and of the trace
    (8 * _CHUNK - 3, 2, 8 * _CHUNK),
    (6_632, 2, 60_001),                # fig1 dgd_slow's cycle
])
def test_write_csv_of_a_replayed_cycle_matches_the_per_row_writer(start, period, rows):
    stepped = np.random.default_rng(period).random(start + period + 1).tolist()
    _assert_writes_the_reference_bytes(_cycled(stepped, start, period, rows))


def test_write_csv_formats_a_replayed_cycle_s_rows_once(tmp_path, monkeypatch):
    # Replayed rows start at row _CHUNK + 14, in the second of four chunks.
    distinct = []
    unique = np.unique

    def spy(*args, **kwargs):
        out = unique(*args, **kwargs)
        distinct.append(len(out[0]))
        return out

    stepped = np.random.default_rng(0).random(_CHUNK + 10 + 3 + 1).tolist()
    trace = _cycled(stepped, _CHUNK + 10, 3, 4 * _CHUNK)
    monkeypatch.setattr(np, "unique", spy)
    write_csv(trace, str(tmp_path / "t.csv"))
    monkeypatch.undo()
    # Every chunk formats its distinct residuals once: the first chunk's
    # _CHUNK stepped rows, the second's 14, then the period's three.
    assert distinct == [_CHUNK, 14, 3, 3]
    _assert_writes_the_reference_bytes(trace)


def test_write_csv_formats_rows_that_are_not_the_cycle_s_objects():
    # Equal values as distinct objects, a -0.0 among them: `cycle` claims a
    # period the rows do not repeat bit for bit. Rows holding the bits of
    # their period row may reuse its text; -0.0 against 0.0 and 0.3 against
    # 0.25 must be formatted, or the bytes differ from the reference's.
    residuals = [0.5, 0.0, 0.25] + [float(v) for v in ("-0.0", "0.25", "0.0", "0.3") * 3]
    _assert_writes_the_reference_bytes(Trace(algo="dgd_slow", alpha=0.1, residuals=residuals,
                                             cycle=(0, 2)))


def test_write_csv_rejects_certified_columns_of_unequal_length(tmp_path):
    trace = Trace(algo="nids_0.19", alpha=0.19, residuals=[1.0, 0.5, 0.25],
                  audit=_audit([2.0, 1.0], [0.1]))
    path = tmp_path / "t.csv"
    with pytest.raises(ValueError,
                       match=r"residuals 3, lyapunov 2, slack 1 \(one per transition\)"):
        write_csv(trace, str(path))
    assert not path.exists()


def test_write_csv_ratio_and_slack_cells_at_zero_negative_and_nan_lyapunov(tmp_path):
    # A ratio only where L_{k-1} > 0, NaN where L_k is; a NaN slack is "nan".
    lyapunov = [2.0, 0.0, 3.0, math.nan, 1.0, 4.0, math.nan, -1.0, 5.0, -0.0, 1.0]
    slack = [0.1, math.nan, -0.0, math.nan, 0.2, math.nan, 0.3, 1e-300, 0.0, 0.5]
    trace = Trace(algo="nids_0.19", alpha=0.19, residuals=[1.0] * len(lyapunov),
                  audit=_audit(lyapunov, slack))
    _assert_writes_the_reference_bytes(trace)
    write_csv(trace, str(tmp_path / "t.csv"))
    _, rows = _csv(tmp_path / "t.csv")
    assert [r[5] for r in rows] == ["", "0", "", "nan", "", "4", "nan", "", "", "-0", ""]
    assert [r[6] for r in rows] == ["", "0.10000000000000001", "nan", "-0", "nan",
                                    "0.20000000000000001", "nan", "0.29999999999999999",
                                    "1e-300", "0", "0.5"]


def _write_peak(trace: Trace, path: str) -> int:
    tracemalloc.start()
    try:
        write_csv(trace, path)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("certified, rows", [(False, 240_000), (True, 60_000)])
def test_write_csv_memory_does_not_grow_with_rows(certified, rows, tmp_path):
    short, long = (_write_peak(_random_trace(n, certified), str(tmp_path / f"{n}.csv"))
                   for n in (rows // 4, rows))
    assert long < 2 * 2**20, f"peak traced memory {long / 2**20:.2f} MB"
    assert long < short + 64 * 2**10, f"peak {short} B at {rows // 4} rows, {long} B at {rows}"


def _norm_residual(x, xstar):
    """The relative residual as the run loop computed it with np.linalg.norm."""
    denom = float(np.linalg.norm(xstar))
    res = float(np.linalg.norm(x - xstar)) / denom if denom > 0.0 else 0.0
    return res if math.isfinite(res) else math.inf


@pytest.mark.parametrize("case, shape", [
    ("random", (10, 5)), ("random", (10, 40)), ("random", (50, 5)), ("nan", (10, 5)),
    ("near_overflow", (10, 5)), ("overflow", (10, 5)), ("zero_optimum", (10, 5)),
])
def test_until_stop_residuals_equal_the_norm_bit_for_bit(case, shape):
    rng = np.random.default_rng(5)
    xstar = np.zeros(shape) if case == "zero_optimum" else rng.standard_normal(shape)
    xs = [xstar + s * rng.standard_normal(shape) for s in np.logspace(-15, 6, 200)]
    rows = {"random": 200, "zero_optimum": 1}.get(case, 3)
    bad = {"nan": math.nan, "near_overflow": 1.8e153, "overflow": 1e155}
    if case in bad:  # the run stops at this iterate: inf, or far beyond the divergence limit
        xs[2] = np.full(shape, bad[case])
    trace = Trace(algo="probe", alpha=0.1, residuals=[], status="max_iters")
    states = (algorithms.AlgoState(x) for x in xs)
    with np.errstate(over="ignore"):
        passed = list(harness._until_stop(states, RunConfig(max_iters=len(xs), tol=1e-300),
                                          xstar, trace))
        expected = [_norm_residual(x, xstar) for x in xs[:rows]]
    assert len(passed) == len(trace.residuals) == rows
    assert [r.hex() for r in trace.residuals] == [r.hex() for r in expected]


def _stream_through(loop, states, max_iters, xstar):
    trace = Trace(algo="probe", alpha=0.1, residuals=[], status="max_iters")
    passed = list(loop(states, RunConfig(max_iters=max_iters, tol=1e-300), xstar, trace))
    return passed, trace


def _random_states(count, rng, shape=(4, 3)):
    return [algorithms.AlgoState(*rng.standard_normal((3, *shape))) for _ in range(count)]


# The prefix ends between two marks: the loop marks k = 128, a state of the
# cycle, and sees the cycle close at k = 128 + period.
_PREFIX, _MARK = 70, 128


@pytest.mark.parametrize("period", [1, 2, 3])
@pytest.mark.parametrize("max_iters", ["long", "closes_at_max_minus_one", "closes_at_max"])
def test_until_stop_replays_a_cycle_as_the_stepping_loop_streams_it(period, max_iters):
    # The loop passes on the stepped states up to the close and none after it;
    # its rows are the stepping loop's all the way to max_iters.
    rng = np.random.default_rng(period)
    prefix, ring = _random_states(_PREFIX, rng), _random_states(period, rng)
    xstar = rng.standard_normal((4, 3))
    close = _MARK + period
    max_iters = {"long": 1000, "closes_at_max_minus_one": close + 1,
                 "closes_at_max": close}[max_iters]
    new, trace = _stream_through(harness._until_stop,
                                 itertools.chain(prefix, itertools.cycle(ring)), max_iters, xstar)
    old, ref = _stream_through(until_stop_reference,
                               itertools.chain(prefix, itertools.cycle(ring)), max_iters, xstar)
    assert len(new) == close + 1 and all(a is b for a, b in zip(new, old))
    assert len(old) == len(trace.residuals) == max_iters + 1
    assert [r.hex() for r in trace.residuals] == [r.hex() for r in ref.residuals]
    assert trace.status == ref.status == "max_iters"
    assert trace.cycle == (_MARK, period)


@pytest.mark.parametrize("period", [1, 3, 64])
def test_until_stop_records_each_replayed_row_before_its_state(period):
    # Each stepped state finds its own row, and no later one, recorded when it
    # is passed on; after the close the rows are the stepping loop's, over
    # several chunks and packed as float64 as `run` keeps them.
    rng = np.random.default_rng(period)
    prefix, ring = _random_states(_PREFIX, rng), _random_states(period, rng)
    xstar = rng.standard_normal((4, 3))
    max_iters = 3 * _CHUNK + 5
    trace = Trace(algo="probe", alpha=0.1, residuals=array("d"), status="max_iters")
    loop = harness._until_stop(itertools.chain(prefix, itertools.cycle(ring)),
                               RunConfig(max_iters=max_iters, tol=1e-300), xstar, trace)
    new, ahead = [], []
    for state in loop:
        ahead.append(len(trace.residuals) - len(new) - 1)
        new.append(state)
    old, ref = _stream_through(until_stop_reference,
                               itertools.chain(prefix, itertools.cycle(ring)), max_iters, xstar)
    assert trace.cycle == (_MARK, period)
    assert ahead == [0] * (_MARK + period + 1)
    assert len(new) == _MARK + period + 1 and all(a is b for a, b in zip(new, old))
    assert len(old) == len(trace.residuals) == max_iters + 1
    assert [r.hex() for r in trace.residuals] == [r.hex() for r in ref.residuals]


@pytest.mark.parametrize("change", ["x_prev_negative_zero", "g_prev_one_ulp", "y_none_vs_zeros"])
def test_until_stop_does_not_replay_a_state_one_bit_from_the_mark(change):
    # State 65 has state 64's x, so its residual equals the mark's, but one
    # field differs by one bit (or None against an array): no cycle closes.
    rng = np.random.default_rng(3)
    states = _random_states(200, rng)
    mark = states[64]._replace(x_prev=states[64].x_prev.copy())
    mark.x_prev[0, 0] = 0.0
    twin = algorithms.AlgoState(*(a.copy() for a in mark[:3]))
    if change == "x_prev_negative_zero":
        twin.x_prev[0, 0] = -0.0
    elif change == "g_prev_one_ulp":
        twin.g_prev[1, 2] = np.nextafter(twin.g_prev[1, 2], np.inf)
    else:
        twin = twin._replace(y=np.zeros((4, 3)))
    states[64:66] = [mark, twin]
    xstar = rng.standard_normal((4, 3))
    new, trace = _stream_through(harness._until_stop, iter(states), 199, xstar)
    old, ref = _stream_through(until_stop_reference, iter(states), 199, xstar)
    assert trace.residuals[65] == trace.residuals[64]
    assert trace.cycle is None
    assert len(new) == len(old) == 200 and all(a is b for a, b in zip(new, old))
    assert [r.hex() for r in trace.residuals] == [r.hex() for r in ref.residuals]


def test_certified_audit_of_a_replayed_cycle_equals_the_stepped_one(prob1, rand10):
    # A nids_dx stream that falls into a period-3 cycle after 70 real steps;
    # the wrap-around transitions are no real steps, so the audit reports
    # violations there. A certified loop sets no marks: it passes every state
    # on, as the stepping loop does, and the two audits are the same.
    _, mp = rand10
    alpha = 0.1
    real = list(itertools.islice(
        algorithms.iterate("nids_dx", np.zeros((10, 5)), alpha, mp.w, mp.wt, prob1.grad), 73))
    cert = certify.nids_constants(mp, prob1.lipschitz, prob1.mu_fbar, alpha)
    fp = algorithms.fixed_point(prob1, alpha)
    config = RunConfig(algo="nids", max_iters=400, tol=1e-300, certify=True)
    reports, traces = [], []
    for loop in (harness._until_stop, until_stop_reference):
        trace = Trace(algo="probe", alpha=alpha, residuals=[], status="max_iters")
        states = loop(itertools.chain(real[:_PREFIX], itertools.cycle(real[_PREFIX:])),
                      config, prob1.Xstar, trace)
        with np.errstate(over="ignore", invalid="ignore"):
            reports.append(certify.audit_nids(states, mp, cert, fp))
        traces.append(trace)
    new, old = reports
    assert traces[0].cycle is None and traces[1].cycle is None
    assert new.transitions == old.transitions == 400
    assert new.lyapunov.tobytes() == old.lyapunov.tobytes()
    assert ratio_column(new) == ratio_column(old) and new.slack.tobytes() == old.slack.tobytes()
    assert new.checks == old.checks and new.violations == old.violations
    assert not new.ok


def test_certified_run_keeps_no_states_beside_the_audit_block(monkeypatch):
    # At n * p = 400 the audit block is B = 32 states, and the x arrays alive
    # at each pull stay within B + 3, as for the audit alone: the run loop
    # keeps no state of its own. Each state also holds its predecessor's x as
    # x_prev, and the iteration holds the state it last yielded.
    cfg = RunConfig(topology="random", n=10, p=40, mi=5, seed=2, algo="nids", alpha=0.19,
                    max_iters=300, tol=1e-300, certify=True)
    block = certify._BLOCK_ELEMENTS // (cfg.n * cfg.p)
    iterate = algorithms.iterate
    live, refs, counts = [0], [], []

    def collected(_ref):
        live[0] -= 1

    def watched(*args):
        for state in iterate(*args):
            live[0] += 1
            refs.append(weakref.ref(state.x, collected))
            counts.append(live[0])
            yield state

    monkeypatch.setattr(algorithms, "iterate", watched)
    trace = run(cfg)
    assert block == 32 and trace.audit.ok and trace.cycle is None
    assert len(counts) == trace.audit.transitions + 1 == 301
    assert max(counts) <= block + 3, max(counts)


def _state_bits(state: algorithms.AlgoState) -> list:
    return [None if u is None else u.tobytes() for u in state]


@pytest.mark.parametrize("scenario", ["fig1", "fig2"])
def test_dgd_slow_cycle_replay_writes_the_stepped_rows_bit_for_bit(scenario, monkeypatch,
                                                                   tmp_path):
    cfg = next(c for c in resolve_scenario(scenario) if c.label == "dgd_slow")
    cfg = dataclasses.replace(cfg, max_iters=10_000)
    trace = run(cfg)
    assert trace.cycle is not None
    # The period rests on the stepsize's rounding, so it is read off the run
    # itself: the first step after the cycle's start that repeats its bits.
    start, period = trace.cycle
    inst = harness.build_instance(cfg)
    prob = inst.prob
    states = algorithms.iterate(cfg.algo, np.zeros((prob.n, prob.p)), inst.alpha, inst.mp.w,
                                inst.mp.wt, prob.grad)
    mark = _state_bits(next(itertools.islice(states, start, None)))
    later = itertools.islice(states, cfg.max_iters - start)
    assert next((p for p, s in enumerate(later, 1) if _state_bits(s) == mark), None) == period
    monkeypatch.setattr(harness, "_until_stop", until_stop_reference)
    ref = run(cfg)
    assert ref.cycle is None
    assert trace.status == ref.status == "max_iters"
    assert [r.hex() for r in trace.residuals] == [r.hex() for r in ref.residuals]
    write_csv(trace, str(tmp_path / "new.csv"))
    write_csv(ref, str(tmp_path / "old.csv"))
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


def test_fig2_dgd_slow_steps_only_until_its_cycle_closes(monkeypatch):
    calls = 0
    step = algorithms.step

    def counted(state, ops):
        nonlocal calls
        calls += 1
        return step(state, ops)

    monkeypatch.setattr(algorithms, "step", counted)
    cfg = next(c for c in resolve_scenario("fig2") if c.label == "dgd_slow")
    trace = run(cfg)
    assert cfg.max_iters == 60_000 and len(trace.residuals) == 60_001
    assert trace.status == "max_iters"
    assert calls < 2_000


@pytest.mark.parametrize("scenario", ["fig3", "relaxed-line"])
def test_run_residuals_match_the_reference_steps_bit_for_bit(scenario):
    # Every curve of the two scenarios, replayed by a loop over the np.einsum
    # gradient and the @-form updates, must give the same residual bits.
    for cfg in resolve_scenario(scenario):
        trace = run(cfg)
        inst = harness.build_instance(cfg)
        prob = inst.prob
        ops = algorithms.operators(cfg.algo, inst.alpha, inst.mp.w, inst.mp.wt, prob.grad)
        state = algorithms.AlgoState(np.zeros((prob.n, prob.p)))
        expected = []
        for _ in range(cfg.max_iters + 1):
            expected.append(_norm_residual(state.x, prob.Xstar))
            if not cfg.tol < expected[-1] <= harness.DIVERGENCE_LIMIT:
                break
            state = step_reference(cfg.algo, state, ops, prob)
        assert [r.hex() for r in trace.residuals] == [r.hex() for r in expected], cfg.label


def test_fig1_residual_column_nonincreasing_after_row_five(tmp_path):
    cfg = next(c for c in resolve_scenario("fig1") if c.label == "extra_a2")
    trace = run(cfg)
    path = tmp_path / "fig1_nids.csv"
    write_csv(trace, str(path))
    rows = [line.split(",") for line in path.read_text().splitlines()[1:]]
    res = [float(r[3]) for r in rows]
    assert all(res[i + 1] <= res[i] * (1.0 + 1e-9) for i in range(5, len(res) - 1))


def test_fig1_iteration_ordering():
    traces = {c.label: run(c) for c in resolve_scenario("fig1")}
    inf = float("inf")

    def count(label):
        k = iterations_to(traces[label], 1e-10)
        return inf if k is None else k

    assert count("nids_a4") < count("extra_a3") <= count("extra_a2") < count("extra_a1")
    assert count("extra_a1") < min(count("dgd_fast"), count("dgd_slow"))


def test_certified_run_matches_plain_residuals():
    cfg = RunConfig(topology="random", n=8, p=3, mi=2, seed=11, algo="nids", alpha=0.1,
                    max_iters=200, tol=1e-9)
    plain = run(cfg)
    certified = run(dataclasses.replace(cfg, certify=True))
    assert plain.status == certified.status
    assert np.allclose(plain.residuals, certified.residuals, rtol=1e-9, atol=1e-13)


def _no_instance(config):
    raise AssertionError("an instance was built for a configuration that cannot run")


def test_certify_dgd_rejected(monkeypatch):
    # The configuration itself is rejected, before any instance is built.
    monkeypatch.setattr(harness, "build_instance", _no_instance)
    with pytest.raises(ConfigError, match="no contraction certificate exists for 'dgd'"):
        run(RunConfig(algo="dgd", alpha=0.01, certify=True))


def test_cli_rejects_an_uncertifiable_algorithm_before_building(monkeypatch, named_error):
    monkeypatch.setattr(harness, "build_instance", _no_instance)
    assert named_error(["run", "--certify", "--algo", "dgd", "--topology", "line", "--n", "80",
                        "--alpha", "0.01"]) == "no contraction certificate exists for 'dgd'"


def test_cli_single_run_and_csv(tmp_path, capsys):
    out = tmp_path / "t.csv"
    code = cli.main([
        "run", "--topology", "line", "--n", "10", "--p", "5", "--mi", "1",
        "--seed", "2", "--algo", "nids", "--alpha", "0.19", "--certify",
        "--max-iters", "4000", "--out", str(out),
    ])
    assert code == 0
    text = capsys.readouterr().out
    assert "status=converged" in text
    assert "certificate" in text
    header, rows = _csv(out)
    assert header == "k,algo,alpha,residual,lyapunov,ratio,slack"
    assert len(rows) == int(re.search(r"iterations=(\d+)", text).group(1)) + 1


def test_cli_prints_the_first_five_audit_violations_and_exits_0(monkeypatch, capsys):
    # A tolerance no slack meets makes the real audit flag every inequality;
    # the run still ends as a success, its violations named on stdout.
    monkeypatch.setattr(certify, "INEQ_TOL", 1.0)
    code = cli.main(["run", "--n", "10", "--algo", "nids", "--alpha", "0.19", "--certify",
                     "--max-iters", "20"])
    assert code == 0
    text = capsys.readouterr().out
    count = int(re.search(r"audit violations (\d+)\n", text).group(1))
    audits = [line for line in text.splitlines() if line.startswith("  AUDIT: ")]
    assert count > 5 and len(audits) == 5
    assert all(re.fullmatch(r"  AUDIT: .+ violated at k=\d+: .+", line) for line in audits)


def test_cli_certify_rejects_boundary_stepsize(named_error):
    # The certified NIDS range is open at 2/L, so certifying there must fail
    # loudly even though the run itself converges.
    assert "certified range" in named_error([
        "run", "--topology", "line", "--n", "10", "--p", "5", "--mi", "1",
        "--seed", "2", "--algo", "nids", "--alpha", "nids", "--certify"])


@pytest.mark.parametrize("algo, alpha", [("extra", "0.01"), ("nids", "0.1")])
def test_cli_certify_names_the_theta_margin(algo, alpha, named_error):
    # Just above 3/4, theta is still inside the mixing interval but not above
    # the certificates' margin 3/4 + 1e-12.
    assert named_error(["run", "--certify", "--algo", algo, "--alpha", alpha,
                        "--theta", "0.7500000000000001", "--max-iters", "3"]) == (
        "vacuous certificate: theta = 0.7500000000000001 outside the certified range "
        "theta > 3/4 + 1e-12")


@pytest.mark.parametrize("algo, alpha", [("nids", "1e-315"), ("extra", "1e-315"),
                                         ("nids", "1e-309")])
def test_cli_certificate_constant_that_overflows_is_a_named_error(algo, alpha, named_error):
    # At these stepsizes the upper end of eta's admissible interval overflows
    # to inf; certified, the run would read contraction factor inf and exit 0.
    assert named_error(["run", "--algo", algo, "--alpha", alpha, "--certify",
                        "--max-iters", "20"]).startswith(
        "eta's admissible interval (0, inf) overflows float64")


@pytest.mark.parametrize("alpha", ["2e-308", "1e-16"])
@pytest.mark.parametrize("algo", ["nids", "extra"])
def test_cli_refuses_a_unit_contraction_factor(algo, alpha, named_error):
    # From just above the stepsizes whose eta interval overflows up to 1e-16,
    # b1 = 1 - decay * mu_g rounds to 1: a factor of 1 certifies no rate.
    assert named_error(["run", "--algo", algo, "--alpha", alpha, "--certify",
                        "--max-iters", "3"]) == (
        f"vacuous certificate: contraction factor rho = 1 is not below 1, so it certifies "
        f"no linear rate at stepsize {alpha}")


@pytest.mark.parametrize("algo", ["nids", "extra"])
def test_cli_certifies_a_stepsize_whose_factor_is_below_one(algo, capsys):
    code = cli.main(["run", "--algo", algo, "--alpha", "1e-15", "--certify", "--max-iters", "20"])
    assert code == 0
    assert "contraction factor 1, audit violations 0\n" in capsys.readouterr().out


@settings(max_examples=16, deadline=None, derandomize=True)
@given(topology=st.sampled_from(tuple(harness.TOPOLOGIES)), n=st.integers(2, 80),
       p=st.integers(1, 8), mi=st.integers(1, 4), edge_prob=st.floats(0.05, 1.0),
       relax_factor=st.floats(0.0, 1.0 / 3.0), theta=st.none() | st.floats(0.75, 1.0),
       algo=st.sampled_from(algorithms.VARIANTS),
       alpha=st.sampled_from(tuple(algorithms.STEPSIZES)) | st.floats(0.0, 1e308).map(repr),
       certify=st.booleans(), max_iters=st.integers(1, 200), noise_std=st.floats(0.0, 1e308),
       seed=st.integers(0, 2**32 - 1))
def test_cli_run_ends_in_an_exit_code_for_any_setting(topology, n, p, mi, edge_prob,
                                                      relax_factor, theta, algo, alpha,
                                                      certify, max_iters, noise_std, seed):
    # Whatever the settings, `decon run` ends as success (0), a named error
    # (1) or a divergence (2): never a traceback, never a warning.
    argv = ["run", "--topology", topology, "--n", str(n), "--p", str(p), "--mi", str(mi),
            "--edge-prob", repr(edge_prob), "--relax-factor", repr(relax_factor),
            "--algo", algo, "--alpha", alpha, "--max-iters", str(max_iters),
            "--noise-std", repr(noise_std), "--seed", str(seed)]
    if theta is not None:
        argv += ["--theta", repr(theta)]
    if certify:
        argv.append("--certify")
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        warnings.simplefilter("always")
        code = cli.main(argv)
    assert code in (0, 1, 2)
    assert [str(w.message) for w in caught] == []


@pytest.mark.parametrize("command", [["run", "--max-iters", "5"], ["bounds"]])
@pytest.mark.parametrize("noise_std, message", [
    # The noise overflows float64: the error names the measurement and the
    # noise level, and no warning leaks.
    ("1e308", "the measurement of agent 1 row 0 overflows float64 at noise_std 1.000e+308"),
    ("1.7976931348623157e308",
     "the measurement of agent 1 row 0 overflows float64 at noise_std 1.798e+308"),
    # Finite measurements whose optimum overflows.
    ("1e200", "the optimum overflows float64 (largest measurement 2.375e+200, agent 1 row 0)"),
])
def test_cli_noise_that_overflows_is_a_named_error(command, noise_std, message, named_error):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert named_error([*command, "--noise-std", noise_std]) == message
    assert [str(w.message) for w in caught] == []


@pytest.mark.parametrize("argv, names", [
    # The default EXTRA stepsize is the theta -> 3/4 limit, never certified.
    (["run", "--certify"], "extra-new"),
    (["run", "--algo", "nids", "--alpha", "0.2", "--certify", "--tol", "1e-300",
      "--max-iters", "20000"], "certified range"),
])
def test_cli_uncertifiable_stepsize_fails_before_the_first_step(argv, names, step_calls,
                                                                 named_error):
    assert names in named_error(argv)
    assert step_calls == []


@pytest.mark.parametrize("flag, value, field", [
    ("--noise-std", "nan", "noise_std"), ("--noise-std", "inf", "noise_std"),
    ("--tol", "nan", "tol"), ("--tol", "inf", "tol"),
    ("--alpha", "nan", "alpha"), ("--alpha", "inf", "alpha"),
])
def test_cli_non_finite_setting_fails_before_the_first_step(flag, value, field, step_calls,
                                                             named_error):
    assert named_error(["run", "--max-iters", "50", flag, value]).startswith(
        f"{field} must be finite")
    assert step_calls == []


@pytest.mark.parametrize("flag, message", [
    ("--seed", "seed must be >= 0, got -1"),
    ("--noise-std", "noise_std must be >= 0, got -1.0"),
    ("--alpha", "alpha must be positive, got -1.0"),
    ("--p", "need n, p, m_i >= 1, got (10, -1, 1)"),
    ("--mi", "need n, p, m_i >= 1, got (10, 5, -1)"),
    ("--n", "need n >= 2, got -1"),
    ("--edge-prob", "edge_prob must be in (0, 1], got -1.0"),
])
def test_cli_negative_setting_is_a_named_error(flag, message, step_calls, named_error):
    assert named_error(["run", "--max-iters", "3", flag, "-1"]) == message
    assert step_calls == []


@pytest.mark.parametrize("corrupt, message", [
    (lambda d: d["sensing"][1][0].__setitem__(0, float("nan")), "sensing holds non-finite"),
    (lambda d: d.pop("sensing"), "missing key(s) sensing"),
    (lambda d: d.update(sensing=d["sensing"][0]), "sensing must be a non-empty (n, m, p) array"),
    (lambda d: d["sensing"][0][0].__setitem__(0, "x"), "sensing and measurements must be numeric"),
    (lambda d: d["sensing"][0][0].__setitem__(0, "0.5"), "sensing holds a str"),
    (lambda d: d["measurements"][0].__setitem__(0, True), "measurements holds a bool"),
    (lambda d: d.update(lipschitz="ten"), "lipschitz must be a number or null, got 'ten'"),
    (lambda d: d["sensing"][0][0].__setitem__(0, 10**400),
     "sensing holds an integer beyond float64"),
    (lambda d: d.update(sensing=d["sensing"][:-1], measurements=d["measurements"][:-1]),
     "problem has 5 agents but the graph has 6 nodes"),
])
def test_cli_bad_problem_file_is_a_named_error(corrupt, message, tmp_path, named_error):
    path = edited_problem(tmp_path / "prob.json", problem.generate(6, 2, 2, seed=4), corrupt)
    assert message in named_error(["run", "--topology", "line", "--n", "6", "--p", "2",
                                   "--mi", "2", "--algo", "nids", "--alpha", "0.1",
                                   "--max-iters", "5", "--load-problem", path])


@pytest.mark.parametrize("lipschitz", [None, 10.0])
def test_cli_overflowing_problem_file_names_the_agent(lipschitz, tmp_path, named_error):
    path = edited_problem(tmp_path / "prob.json", problem.generate(6, 2, 2, seed=4),
                          lambda d: d["sensing"][0][0].__setitem__(0, 1e200), lipschitz=lipschitz)
    assert named_error(["run", "--topology", "line", "--n", "6", "--p", "2", "--mi", "2",
                        "--algo", "nids", "--alpha", "0.1", "--max-iters", "5",
                        "--load-problem", path]).startswith(
        "agent 0: M_0^T M_0 overflows float64")


def test_cli_understated_lipschitz_is_a_named_error(tmp_path, named_error):
    # Accepted as stated, L = 2 would certify alpha = 0.9, beyond the true 2/L = 0.2.
    path = edited_problem(tmp_path / "prob.json", problem.generate(10, 5, 10, seed=2),
                          lipschitz=2.0)
    message = named_error(["run", "--load-problem", path, "--n", "10", "--p", "5", "--mi", "10",
                           "--algo", "nids", "--alpha", "0.9", "--certify"])
    assert message.startswith("lipschitz 2.0 is below agent ") and "= 10." in message


@pytest.mark.parametrize("corrupt, message", [
    (lambda d: d["measurements"][0].__setitem__(0, 1e200),
     "the optimum overflows float64 (largest measurement 1.000e+200, agent 0 row 0)"),
    (lambda d: d["sensing"][0][0].__setitem__(0, 1e150) or d.update(lipschitz=None),
     "agent 0: M_0^T M_0 overflows float64 (largest sensing entry 1.000e+150)"),
], ids=["optimum", "gram_norm"])
def test_cli_overflowing_norm_is_a_named_error(corrupt, message, tmp_path, named_error):
    # Every entry is finite and only a norm overflows: left unchecked, that is a
    # diverged run at iteration 0 or a misleading "not strongly convex" error.
    path = edited_problem(tmp_path / "prob.json", problem.generate(6, 2, 2, seed=4), corrupt)
    assert named_error(["run", "--topology", "line", "--n", "6", "--p", "2", "--mi", "2",
                        "--algo", "nids", "--alpha", "0.1", "--max-iters", "50",
                        "--load-problem", path]).startswith(message)


def _count_solves(monkeypatch) -> collections.Counter:
    """Count the solves of each matrix, keyed by its own entries' bytes.

    The count is taken where `linalg.decompose` stores a checked miss, so it
    covers both solvers.
    """
    seen = collections.Counter()
    cache_eig = linalg._cache_eig

    def hashing(key, w, v):
        seen[key[1]] += 1
        return cache_eig(key, w, v)

    monkeypatch.setattr(linalg, "_cache_eig", hashing)
    return seen


def _solver_stacks(monkeypatch, dim: int | None = None) -> list[tuple[str, list[str]]]:
    """Record each stack `linalg.decompose` hands a solver, of size `dim` if
    given: the solver ("jacobi" or "lapack") and the names of its matrices."""
    stacks = []
    for solver in ("jacobi", "lapack"):
        solve = getattr(linalg, f"_{solver}_eigh")

        def recording(mats, names, _solver=solver, _solve=solve):
            if dim in (None, mats.shape[1]):
                stacks.append((_solver, list(names)))
            return _solve(mats, names)

        monkeypatch.setattr(linalg, f"_{solver}_eigh", recording)
    return stacks


def test_certified_run_decomposes_each_mixing_matrix_once(monkeypatch):
    base = RunConfig(topology="random", n=10, p=5, mi=1, seed=2, certify=True, max_iters=50)
    inst = harness.build_instance(dataclasses.replace(base, algo="extra", alpha="extra-new"))
    w, wt, eye = inst.mp.w.a, inst.mp.wt.a, np.eye(10)
    watched = {"w": w, "w_tilde": wt, "w_tilde - w": wt - w, "I - w": eye - w,
               "(I - w)/2": (eye - w) / 2.0}
    seen = _count_solves(monkeypatch)
    stacks = _solver_stacks(monkeypatch)
    in_certificate = {}
    for constants in ("nids_constants", "extra_constants"):
        def spy(*args, _name=constants, _constants=getattr(certify, constants), **kwargs):
            start = len(stacks)
            cert = _constants(*args, **kwargs)
            in_certificate[_name] = stacks[start:]
            return cert
        monkeypatch.setattr(certify, constants, spy)
    for algo, alpha in (("nids", 0.19), ("extra", 0.9 * inst.alpha)):
        seen.clear()
        stacks.clear()
        linalg.clear_eig_cache()
        harness.clear_instance_cache()
        trace = run(dataclasses.replace(base, algo=algo, alpha=alpha))
        assert trace.audit.ok and trace.ks[-1] == 50
        counts = {name: seen[mat.tobytes()] for name, mat in watched.items()}
        # Only EXTRA's certificate reads w_tilde's spectrum, as w_bar's: at
        # theta = 1 the two have the same entries, and one solve serves both.
        # No stepsize here reads w's, so w is never solved.
        solved = algo == "extra"
        assert counts == {"w": 0, "w_tilde": solved, "w_tilde - w": 1, "I - w": 1,
                          "(I - w)/2": 0}, algo
        # The pair's two certificate-only spectra in one LAPACK stack, and
        # w_bar's Jacobi solve for EXTRA; its sign checks and the
        # certificate's Lyapunov weights are answered by Cholesky
        # factorizations, never decomposed.
        assert ("lapack", ["w_tilde - w", "I - w"]) in stacks, algo
        jacobi = {name for solver, names in stacks if solver == "jacobi" for name in names}
        assert ("w_bar" in jacobi, "w_tilde" in jacobi, "metropolis" in jacobi) == \
            (solved, False, False), algo
        named = {name for _, names in stacks for name in names}
        assert not {"(I+w)/2 - w_tilde", "g", "p", "q", "pn", "q | Range(I - w)"} & named
        cert = trace.certificate
        weights = (cert.p_mat, cert.q_mat) if algo == "extra" else (cert.pn_mat, cert.q_mat)
        assert all(seen[mat.a.tobytes()] == 0 for mat in weights), algo
    # The NIDS certificate solves nothing; EXTRA's solves w_bar, its first
    # reader, with Jacobi, then the similarity products of r2 (g wbar^-1, zero
    # here) and lambda_max(w_bar m) in one LAPACK stack.
    assert in_certificate == {
        "nids_constants": [],
        "extra_constants": [("jacobi", ["w_bar"]), ("lapack", ["g wbar^-1", "wbar m"])]}


def test_scenario_decomposes_each_distinct_matrix_once(monkeypatch, tmp_path):
    seen = _count_solves(monkeypatch)
    generated = collections.Counter()
    for module, name in ((harness.graphs, "random_connected"), (problem, "generate")):
        fn = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *a, _fn=fn, _name=name, **kw:
                            generated.update([_name]) or _fn(*a, **kw))
    assert cli.main(["run", "--scenario", "fig1", "--max-iters", "20",
                     "--out", str(tmp_path / "fig1")]) == 0
    assert seen and max(seen.values()) == 1
    # Six curves on one instance: the graph and the problem are built once.
    assert generated == {"random_connected": 1, "generate": 1}


def test_no_output_depends_on_what_the_eig_cache_keeps(monkeypatch, tmp_path, capsys):
    # With no cache budget nothing is stored, so every spectrum read solves
    # again: each solve must give the bits the first one gave, or a printed
    # line or a CSV byte moves.
    def commands(out):
        certified = ["run", "--n", "10", "--certify", "--max-iters", "300"]
        return [["run", "--scenario", "fig1", "--max-iters", "300", "--out", str(out / "fig1")],
                [*certified, "--algo", "nids", "--alpha", "0.19", "--out", str(out / "nids.csv")],
                [*certified, "--algo", "extra", "--alpha", "0.05", "--out", str(out / "extra.csv")],
                ["bounds", "--n", "10"], ["validate-mixing", "--n", "10"]]

    jacobi, received = linalg._jacobi_eigh, []
    monkeypatch.setattr(linalg, "_jacobi_eigh",
                        lambda mats, names: received.append(len(mats)) or jacobi(mats, names))
    outputs, solved = [], []
    for budget in (linalg._EIG_CACHE_BUDGET, 0):
        monkeypatch.setattr(linalg, "_EIG_CACHE_BUDGET", budget)
        linalg.clear_eig_cache()
        harness.clear_instance_cache()
        received.clear()
        out = tmp_path / str(budget)
        out.mkdir()
        printed = []
        for argv in commands(out):
            assert cli.main(argv) == 0, argv
            printed.append(capsys.readouterr().out.replace(str(out), "<out>"))
        csvs = {str(path.relative_to(out)): path.read_bytes() for path in out.rglob("*.csv")}
        outputs.append((printed, csvs))
        solved.append(sum(received))
    assert len(outputs[0][1]) == 8 and outputs[1] == outputs[0]
    # The patched budget took effect: Jacobi received more matrices without a cache.
    assert solved[1] > solved[0]


# Every distinct instance of the four scenarios (one per relax factor) and the
# instances of the two certified benchmark workloads.
_CERTIFIED = dict(topology="random", seed=2, algo="extra", alpha="extra-new", certify=True)
_INSTANCES = {
    **{f"{scenario}/{cfg.label}": cfg for scenario in harness.SCENARIOS
       for cfg in {c.relax_factor: c for c in resolve_scenario(scenario)}.values()},
    "certify-long": RunConfig(n=10, p=40, mi=5, **_CERTIFIED),
    "certify-large": RunConfig(n=50, p=5, mi=1, **_CERTIFIED),
}


@functools.lru_cache(maxsize=None)
def _observed_build(name: str):
    """Build one instance from cold caches and value every named stepsize on
    it. Returns the instance, the entries' bytes of every matrix
    `_jacobi_eigh` received, and every matrix whose spectrum was read. Both
    caches are left empty, as the autouse fixture leaves them, so what a
    caller solves next does not depend on whether this call hit its cache."""
    received, asked = set(), []
    jacobi, decompose = linalg._jacobi_eigh, linalg.decompose
    linalg.clear_eig_cache()
    harness.clear_instance_cache()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(linalg, "_jacobi_eigh", lambda mats, names: received.update(
            a.tobytes() for a in mats) or jacobi(mats, names))
        # `SymMatrix.eig` and `problem`'s Gram solve both read spectra here.
        for module in (linalg, problem):
            mp.setattr(module, "decompose", lambda mats: asked.extend(mats) or decompose(mats))
        inst = harness.build_instance(_INSTANCES[name])
        algorithms.stepsize_bounds(inst.mp, inst.prob.lipschitz, inst.prob.mu_fbar)
    linalg.clear_eig_cache()
    harness.clear_instance_cache()
    return inst, frozenset(received), tuple(asked)


@pytest.mark.parametrize("name", _INSTANCES)
def test_spectra_that_set_the_stepsizes_are_solved_cold(name):
    # These eigenvalues set the sensing scale, mu_fbar, theta and every named
    # stepsize. Solved by Jacobi from their own entries, whoever reads them
    # first, they keep every iterate, stepsize and uncertified CSV byte as
    # Jacobi rounds them.
    inst, received, asked = _observed_build(name)
    grams = [m for m in asked if re.fullmatch(r"M_(\d+)\^T M_\1", m.name)]
    hessian = [m for m in asked if m.name == "averaged hessian"]
    assert len({m.name for m in grams}) == inst.prob.n and hessian
    pair = [inst.mp.w, inst.mp.wt, inst.mp.wbar, mixing.metropolis(inst.mp.graph)]
    for mat in grams + hessian + pair:
        assert not mat.lapack, (name, mat.name)
        assert mat.a.tobytes() in received, (name, mat.name)


def _lapack_solved(mp, prob) -> list[linalg.SymMatrix]:
    """The pair's matrices LAPACK solves and those `certify.extra_constants`
    builds for it, each already decomposed."""
    made = []

    def recording(*args, **kwargs):
        made.append(linalg.SymMatrix(*args, **kwargs))
        return made[-1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(certify, "SymMatrix", recording)
        bound = algorithms.STEPSIZES["extra-new"](mp, prob.lipschitz, prob.mu_fbar)
        certify.extra_constants(mp, prob.lipschitz, prob.mu_fbar, 0.5 * bound)
    return [mp.diff, mp.iw] + [m for m in made if m.lapack]


@functools.lru_cache(maxsize=None)
def _oracle_agrees(entries: bytes, values: bytes, n: int) -> bool:
    rows = np.frombuffer(entries).reshape(n, n)
    exact = [[Fraction(float(v)) for v in row] for row in rows]
    return eigenvalues_within(exact, np.frombuffer(values), tol=1e-9)


def _generic_pair():
    """fig1's graph with w_tilde = 0.3 I + 0.7 w: g = 0.4 (I - w) is not zero,
    so neither is the `g wbar^-1` similarity matrix `extra_constants` builds."""
    inst = _observed_build("fig1/nids_a4")[0]
    w = inst.mp.w
    wt = linalg.SymMatrix(0.3 * np.eye(w.dim) + 0.7 * w.a, name="w_tilde")
    return mixing.validate(w, wt, inst.mp.graph), inst.prob


@pytest.mark.parametrize("name", [*_INSTANCES, "generic w_tilde"])
def test_lapack_solved_spectra_match_the_oracle_and_a_jacobi_solve(name):
    if name == "generic w_tilde":
        mp, prob = _generic_pair()
    else:
        inst = _observed_build(name)[0]
        mp, prob = inst.mp, inst.prob
    solved = _lapack_solved(mp, prob)
    assert {m.name for m in solved} == {"w_tilde - w", "I - w", "g wbar^-1", "wbar m"}
    for mat in solved:
        assert mat.lapack, mat.name
        values = mat.eigenvalues
        jacobi = linalg._jacobi_eigh(mat.a[None], [mat.name])[0][0]
        assert np.abs(values - jacobi).max() <= 1e-9, mat.name
        assert np.abs(values - np.linalg.eigvalsh(mat.a)).max() <= 1e-9, mat.name
        if mat.name == "g wbar^-1" and not mp.g.a.any():
            # At g = 0 the product is exactly zero, one n-fold eigenvalue that
            # the Sturm oracle, which counts distinct ones, does not accept.
            assert not values.any() and np.array_equal(values, jacobi), mat.name
        # The exact-arithmetic oracle takes about 0.2 s a matrix at n = 10 and
        # 24 s at n = 20; larger pairs rest on the two comparisons above.
        elif mat.dim <= 10:
            assert _oracle_agrees(mat.a.tobytes(), values.tobytes(), mat.dim), mat.name


def test_certify_large_sweeps_only_w_bar_and_never_solves_w(monkeypatch):
    # Of the certified runs' 50 x 50 solves, Jacobi does only w_bar's: the
    # EXTRA certificate reads w_bar first, and at theta = 1 it has w_tilde's
    # entries, so one solve serves both. LAPACK solves w_tilde - w and I - w
    # in one stack, and g wbar^-1 (zero, since g = 0) and w_bar m in another.
    # No stepsize of these runs reads w's spectrum, so w is never solved.
    inst = _observed_build("certify-large")[0]
    seen = _count_solves(monkeypatch)
    stacks = _solver_stacks(monkeypatch, dim=inst.mp.n)
    for algo, alpha in (("nids", 0.19), ("extra", 0.9 * inst.alpha)):
        trace = run(dataclasses.replace(_INSTANCES["certify-large"], algo=algo, alpha=alpha,
                                        max_iters=5))
        assert trace.audit.ok
    assert stacks == [("lapack", ["w_tilde - w", "I - w"]), ("jacobi", ["w_bar"]),
                      ("lapack", ["g wbar^-1", "wbar m"])]
    assert seen[inst.mp.w.a.tobytes()] == 0


def test_perturbed_lapack_spectra_move_no_stepsize_or_sensing_bit(monkeypatch):
    # Every spectrum LAPACK solves reaches only certificate constants: moving
    # each of its eigenvalues by a relative 1e-12 leaves every named stepsize,
    # L, mu_fbar and the sensing matrices of each preset bit-identical, while
    # the pseudo-inverse it builds does move.
    def observed():
        facts = {}
        for name, config in _INSTANCES.items():
            linalg.clear_eig_cache()
            harness.clear_instance_cache()
            inst = harness.build_instance(config)
            prob = inst.prob
            bounds = algorithms.stepsize_bounds(inst.mp, prob.lipschitz, prob.mu_fbar)
            facts[name] = (np.array([*bounds.values(), prob.lipschitz, prob.mu_fbar]).tobytes(),
                           prob.sensing.tobytes(), inst.mp.m.a.tobytes())
        return facts

    clean = observed()
    lapack = linalg._lapack_eigh
    monkeypatch.setattr(linalg, "_lapack_eigh", lambda mats, names: [
        (w * (1.0 + 1e-12), v) for w, v in lapack(mats, names)])
    perturbed = observed()
    for name in _INSTANCES:
        assert perturbed[name][:2] == clean[name][:2], name
        assert perturbed[name][2] != clean[name][2], name


@pytest.mark.parametrize("call, solves", [("nids", 0), ("dgd", 0), ("extra", 1), ("bounds", 1),
                                          ("validate-mixing", 1)])
def test_only_readers_of_its_spectrum_decompose_w_tilde(call, solves, monkeypatch):
    # validate settles w_tilde's signs by Cholesky tests, and a run values only
    # its own stepsize: a certified NIDS run and an uncertified DGD run never
    # solve the 50 x 50 w_tilde. Each of its readers (EXTRA's certificate, as
    # w_bar's, whose entries are w_tilde's at theta = 1, and the two CLI
    # commands that print spectra) solves it once, cold: Jacobi gets its own
    # entries.
    inst = _observed_build("certify-large")[0]
    wt = inst.mp.wt.a.tobytes()
    assert inst.mp.theta == 1.0 and inst.mp.wbar.a.tobytes() == wt
    received = []
    jacobi = linalg._jacobi_eigh
    monkeypatch.setattr(linalg, "_jacobi_eigh", lambda mats, names: received.extend(
        a.tobytes() for a in mats) or jacobi(mats, names))
    if call in ("bounds", "validate-mixing"):
        sizes = ["--p", "5", "--mi", "1"] if call == "bounds" else []
        assert cli.main([call, "--n", "50", *sizes]) == 0
    else:
        alpha = {"nids": 0.19, "dgd": "dgd-slow", "extra": 0.9 * inst.alpha}[call]
        trace = run(dataclasses.replace(_INSTANCES["certify-large"], algo=call, alpha=alpha,
                                        certify=call != "dgd", max_iters=5))
        assert trace.status == "max_iters" and (call == "dgd" or trace.audit.ok)
    assert received.count(wt) == solves


def test_certified_run_evaluates_each_gradient_once(monkeypatch):
    calls = []
    grad = problem.grad
    monkeypatch.setattr(problem, "grad", lambda *a: calls.append(1) or grad(*a))
    for algo, alpha in (("nids", 0.1), ("extra", 0.05)):
        calls.clear()
        trace = run(RunConfig(topology="random", n=8, p=3, mi=2, seed=11, algo=algo,
                              alpha=alpha, max_iters=300, tol=1e-9, certify=True))
        assert trace.audit.ok and trace.ks[-1] > 100
        assert len(calls) <= trace.ks[-1] + 1


def test_certified_run_memory_does_not_grow_with_iterations(monkeypatch):
    cfg = RunConfig(topology="random", n=10, p=40, mi=5, seed=2, algo="nids", alpha=0.19,
                    max_iters=5000, tol=1e-300, certify=True)
    # Build the instance untraced: its eigensolves are slow under tracemalloc.
    inst = harness.build_instance(cfg)
    monkeypatch.setattr(harness, "build_instance", lambda config: inst)
    tracemalloc.start()
    try:
        trace = run(cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert trace.ks[-1] == 5000 and trace.audit.ok
    assert peak < 8 * 2**20, f"peak traced memory {peak / 2**20:.1f} MB"


def test_certified_trace_holds_at_most_32_bytes_a_row(monkeypatch):
    # The residual, the Lyapunov value and the slack of each row are packed
    # as 8-byte floats and the ratio is derived: the memory the returned trace
    # holds grows by about 24 bytes a row, not the 100 of Python floats.
    base = RunConfig(topology="random", n=10, p=40, mi=5, seed=2, algo="nids", alpha=0.19,
                     tol=1e-300, certify=True)
    # Build the instance untraced: its eigensolves are slow under tracemalloc.
    inst = harness.build_instance(base)
    monkeypatch.setattr(harness, "build_instance", lambda config: inst)
    run(dataclasses.replace(base, max_iters=2))  # fills the certificate's eigensolve cache
    held = {}
    for rows in (2000, 8000):
        tracemalloc.start()
        try:
            trace = run(dataclasses.replace(base, max_iters=rows))
            held[rows] = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert trace.ks[-1] == rows and trace.audit.ok
        del trace
    slope = (held[8000] - held[2000]) / 6000
    assert slope <= 32, f"{slope:.1f} B a row"


def test_cli_alpha_named_vs_numeric(tmp_path):
    out = tmp_path / "n.csv"
    code = cli.main(["run", "--topology", "line", "--n", "6", "--p", "2", "--mi", "2",
                     "--seed", "4", "--algo", "nids", "--alpha", "0.15",
                     "--max-iters", "400", "--out", str(out)])
    assert code == 0
    assert float(_csv(out)[1][0][2]) == pytest.approx(0.15)


def test_cli_scenario_writes_one_csv_per_config(tmp_path):
    outdir = tmp_path / "figs"
    code = cli.main(["run", "--scenario", "relaxed-line", "--max-iters", "3000",
                     "--out", str(outdir)])
    assert code == 0
    names = sorted(f.name for f in outdir.iterdir())
    assert names == ["extra_plain.csv", "extra_relaxed.csv", "nids_plain.csv",
                     "nids_relaxed.csv"]


def test_cli_divergence_exit_code():
    code = cli.main(["run", "--topology", "line", "--n", "6", "--p", "2", "--mi", "2",
                     "--seed", "4", "--algo", "extra", "--alpha", "1.5",
                     "--max-iters", "500"])
    assert code == 2


def test_cli_validation_error_exit_code(named_error):
    named_error(["run", "--scenario", "fig1", "--alpha", "frobnicate"])


def test_cli_config_file_naming_a_scenario_is_rejected(tmp_path, named_error):
    # A preset is chosen with --scenario only; a config file naming one used to
    # run a single default curve instead.
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"scenario": "fig1"}))
    assert named_error(["run", "--config", str(path)]) == "unknown config keys: ['scenario']"


def test_cli_config_with_a_scenario_is_rejected(tmp_path, named_error):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"n": 6}))
    assert named_error(["run", "--config", str(path), "--scenario", "fig1"]) == (
        "--config cannot be combined with --scenario")


def test_cli_algo_with_a_scenario_is_rejected(tmp_path, monkeypatch, capsys, named_error):
    # Each preset curve is labelled by its own algorithm: another algorithm
    # would run under that label, and no CSV would name the one that ran.
    out = tmp_path / "d"
    with monkeypatch.context() as patch:
        patch.setattr(harness, "build_instance", _no_instance)
        assert named_error(["run", "--scenario", "fig3", "--algo", "dgd", "--out", str(out)]) == (
            "--algo cannot be combined with --scenario")
    assert not out.exists()
    # --alpha stays allowed: every row records the stepsize it ran.
    assert cli.main(["run", "--scenario", "fig3", "--alpha", "0.1", "--max-iters", "2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in lines] == [c.name for c in resolve_scenario("fig3")]
    assert all(" alpha=0.1 " in line for line in lines)


@pytest.mark.parametrize("label", ["a,b", "x\ny", "x\ry"])
def test_cli_label_that_would_split_a_csv_row_is_a_named_error(label, tmp_path, monkeypatch,
                                                                named_error):
    # The label is a CSV cell and part of the summary line: a comma added a
    # field under the 4-column header, a line break split every row in two.
    monkeypatch.setattr(harness, "build_instance", _no_instance)
    path = tmp_path / "cfg.json"
    out = tmp_path / "t.csv"
    path.write_text(json.dumps({"label": label, "max_iters": 5, "out_path": str(out)}))
    assert named_error(["run", "--config", str(path)]) == (
        f"label must not contain ',', '\\n' or '\\r', got {label!r}")
    assert not out.exists()


def _graph_file(tmp_path, edges) -> str:
    path = tmp_path / "graph.txt"
    path.write_text("".join(f"{i} {j}\n" for i, j in edges))
    return str(path)


@pytest.mark.parametrize("command", [["run", "--max-iters", "3"], ["bounds"]])
def test_cli_graph_file_sets_the_agent_count(command, tmp_path, capsys):
    # A 6-node line without --n 6: one agent per node of the file, not the default n = 10.
    path = _graph_file(tmp_path, [(i, i + 1) for i in range(5)])
    assert cli.main([*command, "--graph-file", path]) == 0
    assert capsys.readouterr().err == ""
    assert harness.build_instance(RunConfig(graph_file=path)).prob.n == 6


def test_cli_graph_file_with_a_self_loop_is_a_named_error(tmp_path, named_error):
    path = _graph_file(tmp_path, [(0, 0), (0, 1)])
    assert named_error(["run", "--graph-file", path]) == "self-loop at node 0"


def test_cli_non_positive_named_stepsize_is_a_named_error(tmp_path, named_error):
    # Metropolis on K_{4,4} has lambda_min(w) = -3/5; the maximal relaxation
    # sends it below -1, where shi-linear's formula is negative.
    path = _graph_file(tmp_path, [(i, j) for i in range(4) for j in range(4, 8)])
    assert named_error(["run", "--graph-file", path, "--relax-factor", "0.3333333333333333",
                        "--alpha", "shi-linear", "--max-iters", "3"]).startswith(
        "stepsize 'shi-linear' resolved to a non-positive value")


def test_cli_instance_too_large_to_allocate_is_a_named_error(monkeypatch, named_error):
    def too_large(n, edge_prob, seed):
        raise MemoryError(f"Unable to allocate an adjacency matrix for {n} nodes")

    monkeypatch.setattr(harness.graphs, "random_connected", too_large)
    assert named_error(["run", "--max-iters", "3"]) == (
        "Unable to allocate an adjacency matrix for 10 nodes")


def test_cli_unwritable_output_is_a_named_error(tmp_path, named_error):
    assert named_error(["run", "--max-iters", "5", "--out", str(tmp_path)]).startswith(
        f"cannot write trace to {tmp_path}")


def _unwritable(tmp_path, where: str) -> tuple[str, str, list[str]]:
    """The path `where` names, the refusal the OS gives for writing it, and
    what tmp_path holds. `where` is "" or "a directory" for tmp_path itself,
    or a path under it whose parent is missing or, under "afile", a regular
    file made here."""
    path = tmp_path if where == "a directory" else tmp_path / where
    if where.startswith("afile/"):
        (tmp_path / "afile").write_text("")
    held = os.listdir(tmp_path)
    with pytest.raises(OSError) as exc:
        open(path, "w").close()
    return str(path), f"[Errno {exc.value.errno}] {exc.value.strerror}", held


@pytest.mark.parametrize("flags, out", [
    ([], "missing/x.csv"), (["--certify"], "missing/x.csv"), (["--certify"], ""),
    ([], "afile/x.csv"),
])
def test_cli_unwritable_output_fails_before_any_step(flags, out, tmp_path, monkeypatch,
                                                     named_error):
    def never(*args):
        raise AssertionError("ran before the output path was checked")

    monkeypatch.setattr(algorithms, "step", never)
    monkeypatch.setattr(harness, "build_instance", never)
    path, refusal, held = _unwritable(tmp_path, out)
    assert named_error(["run", *flags, "--max-iters", "5", "--out", path]).startswith(
        f"cannot write trace to {path}: {refusal}")
    assert os.listdir(tmp_path) == held


@pytest.mark.parametrize("where", ["a directory", "missing/p.json", "afile/p.json"])
def test_cli_unwritable_save_problem_fails_before_any_step(where, tmp_path, step_calls,
                                                           named_error):
    path, refusal, held = _unwritable(tmp_path, where)
    assert named_error(["run", "--max-iters", "50", "--tol", "1e-300",
                        "--save-problem", path]).startswith(
        f"cannot write problem to {path}: {refusal}")
    assert step_calls == []
    assert os.listdir(tmp_path) == held


def test_cli_save_problem_is_a_run_flag_only(tmp_path, capsys):
    path = tmp_path / "p.json"
    with pytest.raises(SystemExit) as exc:
        cli.main(["bounds", "--save-problem", str(path)])
    assert exc.value.code == 1
    assert "unrecognized arguments: --save-problem" in capsys.readouterr().err
    assert not path.exists()


@pytest.mark.parametrize("flags", [["--algo", "nids"], ["--alpha", "0.1"], ["--max-iters", "3"],
                                   ["--tol", "1e-3"], ["--certify"], ["--out", "x.csv"]])
def test_cli_bounds_rejects_each_run_only_flag(flags, tmp_path, monkeypatch, capsys):
    # `bounds` reads none of them: accepting one would print the table and
    # exit 0 without doing what it asks (no x.csv written).
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        cli.main(["bounds", *flags])
    assert exc.value.code == 1
    assert f"unrecognized arguments: {' '.join(flags)}" in capsys.readouterr().err
    assert os.listdir(tmp_path) == []


def test_cli_bounds_flags_are_the_fields_that_key_the_instance_memo():
    subcommands = next(action for action in cli.build_parser()._actions
                       if isinstance(action, argparse._SubParsersAction))
    dests = {action.dest for action in subcommands.choices["bounds"]._actions}
    fields = {field.name for field in dataclasses.fields(RunConfig)}
    assert dests & fields == set(harness._INSTANCE_FIELDS)


@pytest.mark.parametrize("where", ["a directory", "missing/w.txt", "afile/w.txt"])
def test_cli_unwritable_dump_mixing_fails_before_any_build(where, tmp_path, monkeypatch,
                                                           named_error):
    def never(*args):
        raise AssertionError("built before the dump path was checked")

    monkeypatch.setattr(harness, "build_graph", never)
    path, refusal, held = _unwritable(tmp_path, where)
    assert named_error(["validate-mixing", "--dump-mixing", path]).startswith(
        f"cannot write mixing matrix to {path}: {refusal}")
    assert os.listdir(tmp_path) == held


@pytest.mark.parametrize("text", ['{"n": 10,', "[1, 2]"])
def test_cli_malformed_config_is_a_named_error(text, tmp_path, named_error):
    path = tmp_path / "cfg.json"
    path.write_text(text)
    named_error(["run", "--config", str(path)])


@pytest.mark.parametrize("flag", ["--graph-file", "--config", "--load-problem"])
def test_cli_input_file_with_a_byte_order_mark_reads_as_without_one(flag, tmp_path, capsys):
    # Some editors open a UTF-8 file with the mark U+FEFF.
    plain, marked = tmp_path / "plain", tmp_path / "marked"
    if flag == "--graph-file":
        plain.write_text("".join(f"{i} {i + 1}\n" for i in range(5)))
    elif flag == "--config":
        plain.write_text(json.dumps({"topology": "line", "n": 6, "seed": 4}))
    else:
        problem.save_problem(problem.generate(10, 5, 1, seed=5), str(plain))
    marked.write_bytes(codecs.BOM_UTF8 + plain.read_bytes())
    outputs = []
    for path in (plain, marked):
        assert cli.main(["run", "--max-iters", "3", flag, str(path)]) == 0
        outputs.append(capsys.readouterr())
    assert outputs[0].err == "" and outputs[1] == outputs[0]


def test_cli_eigensolver_failure_is_a_named_error(monkeypatch, named_error):
    def fail(mats, names):
        raise linalg.EigenConvergenceError(f"Jacobi eigensolver did not converge on {names[0]!r}")

    monkeypatch.setattr(linalg, "_jacobi_eigh", fail)
    assert "did not converge" in named_error(["run", "--max-iters", "5"])


def test_cli_lapack_failure_is_a_named_error(monkeypatch, named_error):
    def fail(a):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", fail)
    assert named_error(["run", "--max-iters", "5"]) == (
        "LAPACK eigh did not converge on 'w_tilde - w': Eigenvalues did not converge")


def test_cli_keeps_the_traceback_of_a_defect(monkeypatch):
    def defect(config):
        raise ValueError("a defect, not a bad input")

    monkeypatch.setattr(harness, "run", defect)
    with pytest.raises(ValueError, match="a defect"):
        cli.main(["run", "--max-iters", "5"])


@pytest.mark.skipif(cli._glibc_mallopt() is None, reason="needs glibc's mallopt")
@pytest.mark.parametrize("algo", ["nids", "extra"])
def test_after_the_cli_a_certified_rerun_takes_few_page_faults(algo, capsys):
    # `cli.main` keeps freed heap in the process: the audit blocks' temporaries
    # are reused, not handed back to the kernel and faulted in again (about
    # 4k-6k minor faults per rerun at glibc's default trim threshold).
    import resource

    config = RunConfig(topology="random", n=10, p=40, mi=5, algo=algo, alpha="extra-new",
                       certify=True, max_iters=2000)
    alpha = 0.19 if algo == "nids" else 0.9 * harness.build_instance(config).alpha
    config = dataclasses.replace(config, alpha=alpha)
    assert cli.main(["run", "--topology", "random", "--n", "10", "--p", "40", "--mi", "5",
                     "--algo", algo, "--alpha", repr(alpha), "--certify",
                     "--max-iters", "2000"]) == 0
    assert "audit violations 0" in capsys.readouterr().out
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    trace = harness.run(config)
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    assert trace.audit.ok and trace.audit.transitions > 1000
    assert faults < 200, faults


@pytest.fixture
def fresh_mallopt_lookup():
    """Let a test look `mallopt` up anew, and leave the real lookup behind."""
    cli._glibc_mallopt.cache_clear()
    yield
    cli._glibc_mallopt.cache_clear()


def _no_libc(name):
    raise OSError("no C library")


def _not_glibc(name):
    raise ValueError("unrecognized configuration name")


@pytest.mark.parametrize("target, attr, replacement", [
    ("ctypes", "CDLL", _no_libc),
    ("ctypes", "CDLL", lambda name: object()),  # a C library without mallopt
    ("os", "confstr", _not_glibc),
    ("os", "confstr", lambda name: None),
], ids=["no-libc", "no-symbol", "no-confstr-name", "no-glibc-version"])
def test_cli_runs_the_same_where_mallopt_cannot_be_found(target, attr, replacement,
                                                         fresh_mallopt_lookup, monkeypatch,
                                                         capsys):
    argv = ["run", "--topology", "line", "--n", "6", "--p", "3", "--mi", "1", "--algo", "nids",
            "--alpha", "0.19", "--certify", "--max-iters", "300"]
    code = cli.main(argv)
    want = capsys.readouterr()
    cli._glibc_mallopt.cache_clear()
    monkeypatch.setattr(getattr(cli, target), attr, replacement)
    assert cli.main(argv) == code == 0
    assert cli._glibc_mallopt() is None
    assert capsys.readouterr() == want


def test_cli_validate_mixing_checks_the_relax_factor_range(named_error):
    assert "relax_factor must lie in [0, 1/3]" in named_error(
        ["validate-mixing", "--relax-factor", "0.34"])
    named_error(["run", "--relax-factor", "0.34", "--max-iters", "5"])


def test_cli_validate_mixing_and_dump(tmp_path, capsys):
    gfile = tmp_path / "g.txt"
    gfile.write_text("0 1\n1 2\n2 3\n")
    dump = tmp_path / "w.txt"
    code = cli.main(["validate-mixing", "--graph-file", str(gfile),
                     "--relax-factor", "0.333", "--dump-mixing", str(dump)])
    assert code == 0
    text = capsys.readouterr().out
    assert "PASS" in text
    rows = [[float(v) for v in line.split()] for line in dump.read_text().splitlines()]
    assert len(rows) == 4 and len(rows[0]) == 4
    w = np.array(rows)
    assert np.abs(w.sum(axis=1) - 1.0).max() <= 1e-12


def test_cli_validate_mixing_failure_exit_code(tmp_path, named_error):
    gfile = tmp_path / "g.txt"
    gfile.write_text("0 1\n")
    named_error(["validate-mixing", "--graph-file", str(gfile), "--theta", "0.2"])


def test_cli_validate_mixing_takes_a_topology(capsys):
    assert cli.main(["validate-mixing", "--topology", "line", "--n", "6"]) == 0
    assert "mixing pair on 6 nodes, 5 edges: PASS" in capsys.readouterr().out


def test_cli_bounds_applies_flags_after_a_scenario_and_a_config_file(tmp_path, capsys):
    assert cli.main(["bounds", "--seed", "7"]) == 0
    table = capsys.readouterr().out
    assert "mu_fbar = 0.521435" in table
    assert cli.main(["bounds", "--scenario", "fig1", "--seed", "7"]) == 0
    assert capsys.readouterr().out == table
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"seed": 7}))
    assert cli.main(["bounds", "--config", str(config)]) == 0
    assert capsys.readouterr().out == table


def test_cli_bounds_table(capsys):
    code = cli.main(["bounds", "--scenario", "fig1"])
    assert code == 0
    text = capsys.readouterr().out
    assert "extra-special" in text and "nids" in text and "shi-linear" in text


def test_cli_bounds_prints_every_named_stepsize_and_each_runs(capsys):
    assert cli.main(["bounds", "--scenario", "fig1"]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()[1:]]
    assert [name for name, _ in rows] == list(algorithms.STEPSIZES)
    inst = harness.build_instance(resolve_scenario("fig1")[0])
    table = algorithms.stepsize_bounds(inst.mp, inst.prob.lipschitz, inst.prob.mu_fbar)
    assert [float(value) for _, value in rows] == pytest.approx(list(table.values()), rel=1e-11)
    for name, _ in rows:
        assert cli.main(["run", "--alpha", name, "--max-iters", "1"]) == 0, name
        assert f"extra_{name}: status=" in capsys.readouterr().out


def test_every_run_flag_reaches_its_config_field():
    args = cli.build_parser().parse_args([
        "run", "--topology", "line", "--n", "6", "--p", "2", "--mi", "3", "--edge-prob", "0.7",
        "--noise-std", "0.2", "--seed", "5", "--algo", "nids", "--alpha", "0.15",
        "--relax-factor", "0.1", "--theta", "0.9", "--max-iters", "7", "--tol", "1e-6",
        "--certify", "--graph-file", "g.txt", "--load-problem", "p.json", "--out", "o.csv"])
    assert harness.config_from_dict(cli._flag_overrides(args)) == RunConfig(
        topology="line", n=6, p=2, mi=3, edge_prob=0.7, noise_std=0.2, seed=5, algo="nids",
        alpha=0.15, relax_factor=0.1, theta=0.9, max_iters=7, tol=1e-6, certify=True,
        graph_file="g.txt", problem_file="p.json", out_path="o.csv")


def test_topology_names_are_the_table_keys(capsys):
    for name in harness.TOPOLOGIES:
        assert harness.build_graph(RunConfig(topology=name, n=5)).n == 5
    with pytest.raises(ConfigError, match="unknown topology 'ring'"):
        RunConfig(topology="ring")
    with pytest.raises(SystemExit) as exc:
        cli.main(["run", "--topology", "ring"])
    assert exc.value.code == 1
    assert "invalid choice: 'ring'" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (["run", "--bogus"], "decon: error: unrecognized arguments: --bogus"),
    (["run", "--n", "abc"], "decon run: error: argument --n: invalid int value: 'abc'"),
    (["run", "--algo", "foo"], "decon run: error: argument --algo: invalid choice: 'foo'"),
    (["frobnicate"], "decon: error: argument command: invalid choice: 'frobnicate'"),
    (["run", "--algo", "extra_xy"],
     "decon run: error: argument --algo: invalid choice: 'extra_xy'"),
])
def test_cli_usage_errors_exit_1_not_the_divergence_code(argv, message, capsys, monkeypatch):
    # Exit code 2 means a run diverged; a mistyped command line is bad input.
    # The text is argparse's own: usage lines, then "prog: error: message".
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert err.startswith("usage: decon") and err.splitlines()[-1].startswith(message)
    monkeypatch.setattr(cli._Parser, "error", argparse.ArgumentParser.error)
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2 and capsys.readouterr().err == err


def test_cli_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["run", "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: decon run")


def test_cli_config_file_with_flag_override(tmp_path):
    cfg = {"topology": "line", "n": 6, "p": 2, "mi": 2, "seed": 4, "algo": "nids",
           "alpha": 0.15, "max_iters": 400}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out.csv"
    code = cli.main(["run", "--config", str(path), "--alpha", "0.05", "--out", str(out)])
    assert code == 0
    assert float(_csv(out)[1][0][2]) == pytest.approx(0.05)


def test_cli_save_problem_builds_each_instance_once(tmp_path, monkeypatch):
    saved = tmp_path / "prob.json"
    built = []
    build = harness.build_instance
    monkeypatch.setattr(harness, "build_instance", lambda cfg: built.append(cfg.name) or build(cfg))
    assert cli.main(["run", "--scenario", "fig3", "--max-iters", "5",
                     "--save-problem", str(saved)]) == 0
    configs = resolve_scenario("fig3")
    assert built == [cfg.name for cfg in configs]
    monkeypatch.undo()
    expected = tmp_path / "expected.json"
    problem.save_problem(build(configs[-1]).prob, str(expected))
    assert saved.read_bytes() == expected.read_bytes()


def test_cli_save_and_load_problem(tmp_path):
    saved = tmp_path / "prob.json"
    code = cli.main(["run", "--topology", "line", "--n", "6", "--p", "2", "--mi", "2",
                     "--seed", "4", "--algo", "nids", "--alpha", "0.1",
                     "--max-iters", "50", "--save-problem", str(saved)])
    assert code == 0
    loaded = problem.load_problem(str(saved))
    fresh = problem.generate(6, 2, 2, noise_std=0.1, seed=4)
    assert np.array_equal(loaded.sensing, fresh.sensing)
    out = tmp_path / "replay.csv"
    code = cli.main(["run", "--topology", "line", "--n", "6", "--p", "2", "--mi", "2",
                     "--seed", "4", "--algo", "nids", "--alpha", "0.1",
                     "--max-iters", "50", "--load-problem", str(saved), "--out", str(out)])
    assert code == 0


@pytest.mark.parametrize("source", ["flag", "config"])
@pytest.mark.parametrize("field, value, clash", [
    ("p", 40, "p = 40 (file: 5)"), ("mi", 7, "m_i = 7 (file: 1)"),
    # Given, even the default noise_std 0.1 contradicts the file's 0.5.
    ("noise_std", 0.1, "noise_std = 0.1 (file: 0.5)"),
], ids=["p", "mi", "noise_std"])
def test_cli_setting_that_contradicts_a_loaded_problem_is_a_named_error(
        source, field, value, clash, tmp_path, step_calls, named_error):
    path = edited_problem(tmp_path / "prob.json", problem.generate(10, 5, 1, seed=2),
                          noise_std=0.5)
    argv = ["run", "--max-iters", "3", "--load-problem", path]
    if source == "flag":
        argv += [f"--{field.replace('_', '-')}", str(value)]
    else:
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({field: value}))
        argv += ["--config", str(config)]
    assert named_error(argv) == f"problem file {path} contradicts the given {clash}"
    assert step_calls == []


def test_cli_settings_beside_a_loaded_problem_must_match_it(tmp_path, step_calls, named_error,
                                                            capsys):
    path = str(tmp_path / "p.json")
    assert cli.main(["run", "--max-iters", "3", "--save-problem", path]) == 0
    capsys.readouterr()
    steps = len(step_calls)
    for command in (["run", "--max-iters", "3"], ["bounds"]):
        assert named_error([*command, "--load-problem", path, "--p", "40", "--mi", "7",
                            "--noise-std", "5"]) == (
            f"problem file {path} contradicts the given p = 40 (file: 5), m_i = 7 (file: 1), "
            f"noise_std = 5.0 (file: 0.1)")
    assert len(step_calls) == steps
    assert cli.main(["run", "--max-iters", "3", "--load-problem", path, "--p", "5",
                     "--mi", "1"]) == 0


@pytest.mark.parametrize("command", ["run", "bounds"])
def test_cli_scenario_presets_that_contradict_a_loaded_problem_are_a_named_error(
        command, tmp_path, step_calls, named_error, capsys):
    # fig3's presets name m_i = 10: a file saved with m_i = 1 contradicts
    # them, though no flag names m_i.
    path = str(tmp_path / "p.json")
    problem.save_problem(problem.generate(10, 5, 1, seed=2), path)
    assert named_error([command, "--scenario", "fig3", "--load-problem", path]) == (
        f"problem file {path} contradicts the given m_i = 10 (file: 1)")
    assert step_calls == []
    # fig1's presets name the file's p = 5 and m_i = 1, so they run on it.
    assert cli.main([command, "--scenario", "fig1", "--load-problem", path,
                     *(["--max-iters", "3"] if command == "run" else [])]) == 0
    assert capsys.readouterr().err == ""


# The instance memo of `build_instance`.

_RUN_ONLY = {"algo": "nids", "alpha": 0.3, "max_iters": 7, "tol": 1e-3, "certify": True,
             "out_path": "elsewhere.csv", "label": "other"}


def _counting_builds(monkeypatch) -> list[RunConfig]:
    """Record every config whose graph is built, that is every memo miss."""
    built = []
    build_graph = harness.build_graph
    monkeypatch.setattr(harness, "build_graph", lambda cfg: built.append(cfg) or build_graph(cfg))
    return built


@pytest.mark.parametrize("changed", [*_RUN_ONLY, "all"])
def test_configs_differing_in_run_only_fields_share_one_build(changed, monkeypatch):
    built = _counting_builds(monkeypatch)
    base = RunConfig(alpha="shi-convex")
    first = harness.build_instance(base)
    config = dataclasses.replace(base, **(_RUN_ONLY if changed == "all" else
                                          {changed: _RUN_ONLY[changed]}))
    hit = harness.build_instance(config)
    assert built == [base]
    assert hit.alpha == harness.resolve_alpha(config, first.mp, first.prob)
    assert (hit.mp, hit.prob) == (first.mp, first.prob)


def _instance_changes(tmp_path) -> dict:
    """Each instance field of RunConfig -> a value that changes the default's instance."""
    graph_file = _graph_file(tmp_path, [(i, i + 1) for i in range(9)])
    problem_file = str(tmp_path / "problem.json")
    problem.save_problem(problem.generate(10, 5, 1, seed=5), problem_file)
    return {"topology": "line", "n": 8, "p": 4, "mi": 2, "edge_prob": 0.6, "noise_std": 0.2,
            "seed": 3, "relax_factor": 0.1, "theta": 0.9, "graph_file": graph_file,
            "problem_file": problem_file}


@pytest.mark.parametrize("name", [f.name for f in dataclasses.fields(RunConfig)
                                  if f.name not in _RUN_ONLY])
def test_a_change_in_any_instance_field_misses_the_memo(name, tmp_path, monkeypatch):
    built = _counting_builds(monkeypatch)
    base = RunConfig(max_iters=5)
    config = dataclasses.replace(base, **{name: _instance_changes(tmp_path)[name]})
    first, changed = harness.build_instance(base), harness.build_instance(config)
    assert built == [base, config]
    assert changed.prob is not first.prob and changed.mp is not first.mp
    assert harness.build_instance(base).prob is first.prob


def test_equal_values_of_another_type_or_sign_miss_the_memo(monkeypatch):
    # Keyed by repr: 1 and 1.0, or 0.0 and -0.0, never share a build.
    built = _counting_builds(monkeypatch)
    configs = [RunConfig(edge_prob=1.0), RunConfig(edge_prob=1),
               RunConfig(noise_std=0.0), RunConfig(noise_std=-0.0)]
    for config in configs:
        harness.build_instance(config)
    assert built == configs


def test_graph_and_problem_files_are_reread_on_every_build(tmp_path, monkeypatch):
    built = _counting_builds(monkeypatch)
    graph_path = _graph_file(tmp_path, [(i, i + 1) for i in range(5)])
    by_graph = RunConfig(graph_file=graph_path)
    assert harness.build_instance(by_graph).mp.graph.n == 6
    _graph_file(tmp_path, [(i, i + 1) for i in range(7)])
    assert harness.build_instance(by_graph).mp.graph.n == 8

    problem_path = str(tmp_path / "problem.json")
    problem.save_problem(problem.generate(10, 5, 1, seed=5), problem_path)
    by_problem = RunConfig(problem_file=problem_path)
    first = harness.build_instance(by_problem).prob
    problem.save_problem(problem.generate(10, 5, 1, seed=6), problem_path)
    second = harness.build_instance(by_problem).prob
    assert not np.array_equal(first.sensing, second.sensing)
    assert np.array_equal(second.sensing, problem.load_problem(problem_path).sensing)
    assert built == [by_graph] * 2 + [by_problem] * 2


def test_a_failed_build_is_not_memoized(monkeypatch):
    calls = []
    generate = problem.generate
    monkeypatch.setattr(problem, "generate", lambda *a, **k: calls.append(1) or generate(*a, **k))
    # n * m_i = 3 measurements for p = 5 unknowns: not strongly convex.
    config = RunConfig(n=3, p=5, mi=1)
    for attempt in (1, 2):
        with pytest.raises(problem.ProblemError, match="not strongly convex"):
            harness.build_instance(config)
        assert len(calls) == attempt
    assert not harness._instance_cache


def test_a_non_positive_named_stepsize_raises_on_a_memo_hit(monkeypatch):
    # Metropolis on K_{4,4}, maximally relaxed: lambda_min(w) < -1 (see the CLI test above).
    k44 = "".join(f"{i} {j}\n" for i in range(4) for j in range(4, 8))
    built = []
    monkeypatch.setattr(harness.graphs, "random_connected",
                        lambda n, p, seed: built.append(n) or graphs.from_edge_list_text(k44))
    base = RunConfig(n=8, relax_factor=0.3333333333333333, alpha=0.1)
    inst = harness.build_instance(base)
    assert algorithms.STEPSIZES["shi-linear"](inst.mp, inst.prob.lipschitz, inst.prob.mu_fbar) < 0.0
    for _ in range(2):
        with pytest.raises(ConfigError, match="'shi-linear' resolved to a non-positive value"):
            harness.build_instance(dataclasses.replace(base, alpha="shi-linear"))
    assert built == [8]


def test_the_memo_keeps_the_two_most_recently_used_instances(monkeypatch):
    built = _counting_builds(monkeypatch)
    a, b, c = (RunConfig(seed=seed) for seed in (4, 5, 6))
    for config in (a, b, a, c, a, b):
        harness.build_instance(config)
        assert len(harness._instance_cache) <= 2
    # The hit on a makes b the least recently used, so c evicts b, not a.
    assert built == [a, b, c, b]


@pytest.mark.parametrize("scenario", harness.SCENARIOS)
def test_scenario_csvs_are_the_same_bytes_with_cold_builds(scenario, tmp_path):
    configs = [dataclasses.replace(cfg, max_iters=min(cfg.max_iters, 3000))
               for cfg in resolve_scenario(scenario)]
    csvs = {}
    for cold in (False, True):
        for cfg in configs:
            if cold:
                harness.clear_instance_cache()
                linalg.clear_eig_cache()
            path = tmp_path / f"{cold}-{cfg.name}.csv"
            write_csv(run(cfg), str(path))
            csvs.setdefault(cfg.name, []).append(path.read_bytes())
    assert all(warm == cold for warm, cold in csvs.values())
