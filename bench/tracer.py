"""Outside-in tracing of the decon layers.

`Tracer.install()` replaces public functions of the decon modules with thin
wrappers that record one span per call: name, start, end, parent span and run
id (one run per root `cli.main` call). Spans live in flat in-memory arrays and
are written out by `save()` when the pass ends; self times are derived from
them afterwards. Nothing under the package itself is modified on disk.

`SymMatrix.eig` is traced only on the first call for each live matrix, which
is when it decomposes; later calls return the cached result. Matrices are
tracked with weak references, because `id()` values are reused once an object
is collected and would credit one matrix's eigensolve to another.
"""

from __future__ import annotations

import fnmatch
import functools
import hashlib
import importlib
import inspect
import os
import sys
import time
import weakref
from array import array

import numpy as np

# Module -> public functions (fnmatch patterns) wrapped as layer boundaries.
TARGETS = {
    "cli": ("main",),
    "harness": ("run", "build_instance", "write_csv"),
    "graph": ("random_connected", "line", "complete", "from_edge_list_text"),
    "mixing": ("metropolis", "relax", "validate", "build_derived"),
    "problem": ("generate", "grad"),
    "algorithms": ("step", "stepsize_bounds"),
    "certify": ("*_constants", "audit_*"),
}
LAYERS = ("linalg", "graph", "mixing", "problem", "algorithms", "certify", "harness", "cli")
EIG = "linalg.eig"


class Tracer:
    """Records spans around calls into the decon modules of one process."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("l")
        self.parent = array("l")
        self.run = array("l")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self._run_id = -1
        self.counters = {"eig_work_n3": 0, "eig_repeats": 0, "iterations": 0,
                         "transitions": 0, "csv_bytes": 0}
        self.absent: list[str] = []
        self._patches: list[tuple[object, str, object]] = []
        self._decomposed: dict[int, weakref.ref] = {}
        self._entry_digests: set[bytes] = set()

    # -- span recording -------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _wrap(self, name: str, fn, after=None):
        nid = self._name_id(name)
        names, parents, runs, starts, ends = self.name, self.parent, self.run, self.start, self.end
        stack = self._stack
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(names)
            if stack:
                parents.append(stack[-1])
            else:
                parents.append(-1)
                tracer._run_id += 1
            names.append(nid)
            runs.append(tracer._run_id)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        """Wrap every target; record targets that no longer exist as absent."""
        modules = {}
        for layer in LAYERS:
            try:
                modules[layer] = importlib.import_module(f"decon.{layer}")
            except ImportError:
                self.absent.append(f"{layer} (module)")
        hooks = {"harness.run": self._after_run, "harness.write_csv": self._after_write_csv}
        for mod_name, patterns in TARGETS.items():
            module = modules.get(mod_name)
            if module is None:
                continue
            own = {k: v for k, v in vars(module).items()
                   if inspect.isfunction(v) and v.__module__ == module.__name__}
            for pattern in patterns:
                matches = sorted(k for k in own if fnmatch.fnmatchcase(k, pattern))
                if not matches:
                    self.absent.append(f"{mod_name}.{pattern}")
                for attr in matches:
                    name = f"{mod_name}.{attr}"
                    after = hooks.get(name)
                    if attr.startswith("audit_"):
                        after = self._after_audit
                    self._replace_everywhere(own[attr], self._wrap(name, own[attr], after))
        sym = getattr(modules.get("linalg"), "SymMatrix", None)
        eig = getattr(sym, "__dict__", {}).get("eig")
        if eig is None:
            self.absent.append(EIG)
        else:
            self._patch(sym, "eig", self._wrap_eig(eig))

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _replace_everywhere(self, original, wrapper) -> None:
        """Rebind every decon module global that refers to `original`
        (`from .mod import fn` copies the reference into the importer)."""
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "decon" or mod_name.startswith("decon.")):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    self._patch(module, key, wrapper)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._patches):
            setattr(owner, attr, value)
        self._patches.clear()

    # -- hooks reading results from outside -----------------------------------

    def _after_run(self, args, kwargs, trace) -> None:
        ks = getattr(trace, "ks", None)
        if ks:
            self.counters["iterations"] += int(ks[-1])

    def _after_audit(self, args, kwargs, report) -> None:
        self.counters["transitions"] += int(getattr(report, "transitions", 0))

    def _after_write_csv(self, args, kwargs, result) -> None:
        path = kwargs.get("path", args[1] if len(args) > 1 else None)
        if path and os.path.exists(path):
            self.counters["csv_bytes"] += os.path.getsize(path)

    def _wrap_eig(self, eig):
        traced = self._wrap(EIG, eig)
        decomposed = self._decomposed
        digests = self._entry_digests
        counters = self.counters

        def forget(ref, key):
            if decomposed.get(key) is ref:
                del decomposed[key]

        @functools.wraps(eig)
        def wrapper(matrix):
            key = id(matrix)
            ref = decomposed.get(key)
            if ref is not None and ref() is matrix:
                return eig(matrix)
            result = traced(matrix)
            decomposed[key] = weakref.ref(matrix, lambda r, key=key: forget(r, key))
            entries = np.ascontiguousarray(matrix.a)
            counters["eig_work_n3"] += entries.shape[0] ** 3
            digest = hashlib.blake2b(entries.tobytes(), digest_size=16).digest()
            if digest in digests:
                counters["eig_repeats"] += 1
            digests.add(digest)
            return result

        return wrapper

    # -- results --------------------------------------------------------------

    def summary(self) -> dict:
        """Per-span-name calls, inclusive and self seconds; per-layer self
        seconds; root (cli.main) seconds; counters and absent targets."""
        names, parent = np.asarray(self.name), np.asarray(self.parent)
        dur = np.asarray(self.end) - np.asarray(self.start)
        child = parent >= 0
        covered = np.bincount(parent[child], weights=dur[child], minlength=len(dur))
        self_time = dur - covered
        k = len(self.names)
        calls = np.bincount(names, minlength=k)
        incl = np.bincount(names, weights=dur, minlength=k)
        own = np.bincount(names, weights=self_time, minlength=k)
        spans = {n: {"calls": int(calls[i]), "s": float(incl[i]), "self_s": float(own[i])}
                 for i, n in enumerate(self.names)}
        layers = {layer: 0.0 for layer in LAYERS}
        for n, row in spans.items():
            layers[n.split(".")[0]] += row["self_s"]
        return {
            "spans": spans,
            "layers": layers,
            "root_s": float(dur[~child].sum()),
            "self_sum_s": float(self_time.sum()),
            "n_spans": int(len(dur)),
            "runs": self._run_id + 1,
            "counters": dict(self.counters),
            "absent": list(self.absent),
        }

    def save(self, path: str) -> None:
        """Write every span (name, start, end, parent, run id) to an .npz file."""
        np.savez_compressed(
            path, names=np.array(self.names), name=np.asarray(self.name),
            start=np.asarray(self.start), end=np.asarray(self.end),
            parent=np.asarray(self.parent), run=np.asarray(self.run),
        )
