"""Correctness checks on what a workload's `decon run` calls produced.

`collect` turns one pass's printed summaries and CSV files into one record per
curve. `verify` then applies the checks that hold on any seed, and on the
preset seed also compares each record with the reference recorded in
`reference.json`. A curve failing any check counts as one failed run.
"""

from __future__ import annotations

import json
import math
import os
import re

# Run tolerance of every workload curve (the CLI default, kept by the presets)
# and the audits' inequality floor, which the CSV slack column must respect.
TOL = 1e-10
INEQ_TOL = -1e-8
# Reference floats may move at round-off (an eigensolver swap, a reordered sum).
ALPHA_RTOL = 1e-9
RESIDUAL_RTOL = 1e-6

REFERENCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")

_SUMMARY = re.compile(r"^(\S+): status=(\w+) iterations=(\d+) alpha=\S+ final_residual=\S+$")
_CERT = re.compile(r"^  certificate: contraction factor \S+, audit violations (\d+)$")


def _parse_stdout(text: str) -> dict[str, dict]:
    out: dict[str, dict] = {}
    last = None
    for line in text.splitlines():
        m = _SUMMARY.match(line)
        if m:
            last = m.group(1)
            out[last] = {"status": m.group(2), "iterations": int(m.group(3)), "violations": None}
            continue
        m = _CERT.match(line)
        if m and last is not None:
            out[last]["violations"] = int(m.group(1))
    return out


def _read_csv(path: str) -> dict:
    """Row count, last k, alpha, final residual and minimum slack of a trace CSV."""
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    header = lines[0].split(",")
    rows = [ln.split(",") for ln in lines[1:]]
    last = rows[-1]
    min_slack = None
    if "slack" in header:
        col = header.index("slack")
        slacks = [float(r[col]) for r in rows if r[col]]
        min_slack = min(slacks) if slacks else None
    return {"rows": len(rows), "last_k": int(last[0]), "alpha": float(last[2]),
            "final_residual": float(last[3]), "certified": "lyapunov" in header,
            "min_slack": min_slack}


def collect(calls, out_dir: str, outputs: list[tuple[int, str]]) -> list[dict]:
    """One record per expected curve of each call; missing output is recorded
    as such and fails `verify`."""
    records = []
    for index, (call, (code, text)) in enumerate(zip(calls, outputs)):
        printed = _parse_stdout(text)
        for name, rel in call.curves:
            rec = {"call": index, "name": name, "exit_code": code}
            rec.update(printed.get(name, {"status": None, "iterations": None, "violations": None}))
            path = os.path.join(out_dir, rel)
            try:
                rec.update(_read_csv(path))
            except (OSError, ValueError, IndexError) as exc:
                rec["csv_error"] = f"{rel}: {exc}"
            records.append(rec)
    return records


def _any_seed_problems(rec: dict, call_codes: dict[int, int], call_diverged: dict[int, bool]
                       ) -> list[str]:
    problems = []
    if rec.get("csv_error"):
        problems.append(rec["csv_error"])
    if rec["status"] is None:
        return problems + ["no summary line printed"]
    if problems:
        return problems
    if rec["rows"] != rec["iterations"] + 1 or rec["last_k"] != rec["iterations"]:
        problems.append(f"CSV has {rec['rows']} rows ending at k={rec['last_k']} "
                        f"for {rec['iterations']} iterations")
    if rec["status"] == "converged" and not rec["final_residual"] <= TOL:
        problems.append(f"converged with final residual {rec['final_residual']:.3e} > {TOL:g}")
    if rec["certified"]:
        if rec["status"] != "converged":
            problems.append(f"certified run ended {rec['status']}")
        if rec["violations"] != 0:
            problems.append(f"certified run reports {rec['violations']} audit violations")
        if rec["min_slack"] is not None and rec["min_slack"] < INEQ_TOL:
            problems.append(f"CSV slack {rec['min_slack']:.3e} below {INEQ_TOL:g}")
    expected = 2 if call_diverged[rec["call"]] else 0
    if call_codes[rec["call"]] != expected:
        problems.append(f"exit code {call_codes[rec['call']]}, statuses imply {expected}")
    return problems


def _close(a: float, b: float, rtol: float) -> bool:
    if math.isinf(a) or math.isinf(b):
        return a == b
    return abs(a - b) <= rtol * max(abs(a), abs(b))


def _reference_problems(rec: dict, ref: dict | None) -> list[str]:
    if ref is None:
        return ["curve missing from the reference"]
    problems = []
    for key in ("status", "iterations", "violations"):
        if rec.get(key) != ref[key]:
            problems.append(f"{key} {rec.get(key)!r}, reference {ref[key]!r}")
    if not problems:
        if not _close(rec["alpha"], ref["alpha"], ALPHA_RTOL):
            problems.append(f"alpha {rec['alpha']!r}, reference {ref['alpha']!r}")
        if not _close(rec["final_residual"], ref["final_residual"], RESIDUAL_RTOL):
            problems.append(f"final residual {rec['final_residual']!r}, "
                            f"reference {ref['final_residual']!r}")
    return problems


def compact(records: list[dict]) -> list[dict]:
    """The fields the reference keeps for each curve."""
    keys = ("call", "name", "status", "iterations", "alpha", "final_residual", "violations")
    return [{k: rec.get(k) for k in keys} for rec in records]


def load_reference(workload: str) -> list[dict] | None:
    with open(REFERENCE, encoding="utf-8") as fh:
        return json.load(fh).get(workload)


def verify(records: list[dict], reference: list[dict] | None) -> list[str]:
    """Problems found, one string per failing curve (empty when all pass)."""
    call_codes = {r["call"]: r["exit_code"] for r in records}
    call_diverged: dict[int, bool] = {}
    for r in records:
        call_diverged[r["call"]] = call_diverged.get(r["call"], False) or r["status"] == "diverged"
    ref_by_key = {(r["call"], r["name"]): r for r in reference or []}
    failures = []
    for rec in records:
        problems = _any_seed_problems(rec, call_codes, call_diverged)
        if reference is not None and not problems:
            problems = _reference_problems(rec, ref_by_key.get((rec["call"], rec["name"])))
        if problems:
            failures.append(f"call {rec['call']} curve {rec['name']}: " + "; ".join(problems))
    return failures
