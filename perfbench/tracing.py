"""Spans and counts around the public functions of each ``specrcv`` module.

Each wrapper is installed in the namespace where its caller looks the name
up: ``specrcv.cli`` imports most functions by name, calls ``io.*`` through
the module, and ``tvarcv`` calls ``rcv`` through ``specrcv.estimators``. Spans
(name, start, end, parent, command) and counts are kept in memory and
written out once, at the end of the run; nothing inside ``src/`` changes.
"""
from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import threading
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from time import perf_counter

import numpy as np
from specrcv.mpsolve import SOLVER_TOL

# (layer, namespace the caller looks the name up in, function name)
TARGETS = [
    ("diffusion", "specrcv.cli", "simulate_increments"),
    ("estimators", "specrcv.cli", "rcv"),
    ("estimators", "specrcv.cli", "tvarcv"),
    ("estimators", "specrcv.estimators", "rcv"),      # the call inside tvarcv
    ("covmodel", "specrcv.cli", "esd"),
    ("spectra", "specrcv.cli", "histogram"),
    ("spectra", "specrcv.cli", "kolmogorov_distance"),
    ("spectra", "specrcv.cli", "levy_distance"),
    ("mpsolve", "specrcv.cli", "solve_weighted_mp_grid"),
    ("mpsolve", "specrcv.cli", "invert_stieltjes"),
    ("mpsolve", "specrcv.cli", "recover_spectrum"),
] + [
    ("io", "specrcv.io", name)
    for name in ("write_increments_csv", "read_increments_csv", "write_eigenvalues_csv",
                 "read_eigenvalues_csv", "write_density_csv", "read_density_csv",
                 "write_solver_trace_csv", "write_objective_csv", "write_spectrum_json",
                 "write_manifest", "sha256_file")
]


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    command: int


class Tracer:
    """Collects spans and counts; one command at a time is current."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.iterations: list[np.ndarray] = []
        self.residuals: list[np.ndarray] = []
        self.command = -1
        self._ids = itertools.count()
        self._local = threading.local()

    def _stack(self) -> list[int]:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            span_id = next(self._ids)
            parent = stack[-1] if stack else None
            stack.append(span_id)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                self.spans.append(Span(span_id, name, start, end, parent, self.command))
            self.counts[name + "_calls"] += 1
            self._count(name, args, result)
            return result
        return wrapper

    def _count(self, name: str, args, result) -> None:
        if name.startswith("io.write_"):
            self.counts["io.bytes_written"] += os.path.getsize(args[0])
        elif name.startswith("io."):
            # read_* parse a file and sha256_file reads one back to hash it
            self.counts["io.bytes_read"] += os.path.getsize(args[0])
        elif name == "mpsolve.solve_weighted_mp_grid":
            self.residuals.append(np.asarray(result[3]))
            self.iterations.append(np.asarray(result[4]))
        elif name == "mpsolve.recover_spectrum":
            self.counts["mpsolve.recover_iterations"] += int(result.iterations)

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"spans": [asdict(s) for s in self.spans],
                       "counts": dict(self.counts)}, handle)


@contextmanager
def installed(tracer: Tracer):
    """Replace every target with its wrapper; restore the originals on exit."""
    saved = []
    try:
        for layer, module_name, attr in TARGETS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, tracer.wrap(f"{layer}.{attr}", original))
        yield tracer
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


def wrapper_cost(calls: int = 20_000) -> float:
    """Seconds one wrapper adds to a call, from timing a wrapped no-op."""
    def noop():
        return None

    wrapped = Tracer().wrap("noop", noop)
    start = perf_counter()
    for _ in range(calls):
        noop()
    middle = perf_counter()
    for _ in range(calls):
        wrapped()
    end = perf_counter()
    return max(0.0, ((end - middle) - (middle - start)) / calls)


def _union_length(intervals) -> float:
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def layer_metrics(tracer: Tracer, commands: list[tuple[str, float, float]],
                  estimated_files: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced pass.

    ``commands`` holds (subcommand, start, end) per command, indexed as the
    spans' ``command`` field. A layer time sums its spans, so
    ``estimators.rcv_s`` includes the ``rcv`` that ``tvarcv`` runs, and
    ``tvarcv_s`` includes it too.
    """
    out: dict[str, tuple[float, str]] = {}
    busy = defaultdict(float)
    for span in tracer.spans:
        busy[span.name] += span.end - span.start
    for name in dict.fromkeys(f"{layer}.{attr}" for layer, _, attr in TARGETS):
        out[name + "_s"] = (busy[name], "s")
    uncovered = defaultdict(float)
    for index, (kind, start, end) in enumerate(commands):
        top = [(s.start, s.end) for s in tracer.spans if s.command == index and s.parent is None]
        uncovered[kind] += (end - start) - _union_length(top)
    out["cli.uncovered_s"] = (sum(uncovered.values()), "s")
    for kind, value in sorted(uncovered.items()):
        out[f"cli.uncovered_s.{kind}"] = (value, "s")
    c = tracer.counts
    out["diffusion.simulate_increments_calls"] = (c["diffusion.simulate_increments_calls"], "count")
    out["estimators.rcv_calls"] = (c["estimators.rcv_calls"], "count")
    out["estimators.rcv_calls_per_file"] = (c["estimators.rcv_calls"] / estimated_files, "count")
    out["covmodel.esd_calls"] = (c["covmodel.esd_calls"], "count")
    out["io.bytes_written"] = (c["io.bytes_written"], "bytes")
    out["io.bytes_read"] = (c["io.bytes_read"], "bytes")
    its = np.concatenate(tracer.iterations) if tracer.iterations else np.zeros(1)
    res = np.concatenate(tracer.residuals) if tracer.residuals else np.zeros(1)
    out["mpsolve.weighted_iterations_total"] = (int(its.sum()), "count")
    out["mpsolve.weighted_iterations_p50"] = (float(np.percentile(its, 50)), "count")
    out["mpsolve.weighted_iterations_p90"] = (float(np.percentile(its, 90)), "count")
    out["mpsolve.weighted_iterations_max"] = (int(its.max()), "count")
    out["mpsolve.unconverged_probes"] = (int(np.sum(res > SOLVER_TOL)), "count")
    out["mpsolve.recover_iterations"] = (c["mpsolve.recover_iterations"], "count")
    out["trace.spans"] = (len(tracer.spans), "count")
    out["trace.overhead_est_s"] = (len(tracer.spans) * wrapper_cost(), "s")
    return out
