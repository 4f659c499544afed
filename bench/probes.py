"""Spans and counters recorded around the package's public entry points.

Nothing here edits the package: a :class:`Recorder` replaces module
attributes at the place the consuming module looks them up and restores them
afterwards.  Two levels exist.

* ``boundary`` (the untraced run) times only the calls that happen a few
  times per cell -- problem build, start point, solver entry, ``certify``,
  trace write -- and counts oracle calls.  Its cost is a few microseconds per
  cell plus one counter increment per oracle call.
* ``traced`` additionally times every oracle call and the per-iteration
  helpers (``local_smoothness``, ``advance_step``, ``next_t``, ``energy``)
  and the reference solve inside problem construction.

Coarse spans keep (id, parent, name, start, end, attrs).  Per-iteration
spans are too many to keep one by one, so each is folded into a
(calls, total, self) aggregate keyed by the coarse span that owns it.  Self
time is a span's duration minus the time covered by its child spans.
"""

from __future__ import annotations

import dataclasses
import time
from collections import defaultdict
from contextlib import contextmanager

import adaagm.diagnostics
import adaagm.runner
import adaagm.solver

ORACLE_OPS = ("value", "gradient", "value_and_grad")
GRADIENT_OPS = ("gradient", "value_and_grad")

# Names the consuming module looks up at call time, with the span name used
# for them.  ``runner`` binds its own copies at import, so these are
# patched on ``adaagm.runner``; the solver loop looks up the schedule
# helpers on ``adaagm.solver`` and imports ``energy`` from
# ``adaagm.diagnostics`` inside ``run_adaagm``.
_BOUNDARY = {
    (adaagm.runner, "run_adaagm"): "solver.run_adaagm",
    (adaagm.runner, "run_nesterov"): "solver.run_nesterov",
    (adaagm.runner, "run_gd"): "solver.run_gd",
    (adaagm.runner, "certify"): "diagnostics.certify",
    (adaagm.runner, "write_trace_csv"): "solver.write_trace_csv",
}
_LEAVES = {
    (adaagm.solver, "local_smoothness"): "schedule.local_smoothness",
    (adaagm.solver, "advance_step"): "schedule.advance_step",
    (adaagm.solver, "next_t"): "schedule.next_t",
    (adaagm.diagnostics, "energy"): "diagnostics.energy",
}
# The reference solve of a ridge logistic problem calls
# ``adaagm.solver.run_adaagm`` from inside problem construction.
_REFERENCE = (adaagm.solver, "run_adaagm")
REFERENCE_SPAN = "problems.reference_solve"


class Recorder:
    """Spans and counts of one repetition of a workload."""

    def __init__(self, traced: bool):
        self.traced = traced
        self.spans: list[dict] = []
        # stack entries: [child_time, span_id, owner name]
        self._stack: list[list] = [[0.0, None, "bench"]]
        self._next_id = 0
        self.leaf_stats: dict[tuple[str, str], list] = defaultdict(lambda: [0, 0.0, 0.0])
        self.coarse_self: dict[str, float] = defaultdict(float)
        self.cell = None
        # (cell, owner, op) -> calls
        self.oracle_calls: dict[tuple, int] = defaultdict(int)
        # cell -> (algorithm, iterations) of the solver entry call
        self.iterations: dict = {}
        # trace path -> (cell, trace) of every trace written
        self.written: dict[str, tuple] = {}
        self.problems: dict[str, object] = {}

    # -- spans --------------------------------------------------------------

    @property
    def owner(self) -> str:
        return self._stack[-1][2]

    @contextmanager
    def span(self, name: str, **attrs):
        """A coarse span: kept whole, and owner of the oracle calls inside it."""
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1]
        frame = [0.0, span_id, name]
        self._stack.append(frame)
        record = {"id": span_id, "parent": parent[1], "name": name,
                  "cell": self.cell, **attrs}
        start = time.perf_counter()
        try:
            yield record
        finally:
            end = time.perf_counter()
            self._stack.pop()
            duration = end - start
            parent[0] += duration
            self.coarse_self[name] += duration - frame[0]
            record["start"] = start
            record["end"] = end
            self.spans.append(record)

    def _leaf(self, name: str, fn):
        stack = self._stack
        stats = self.leaf_stats
        clock = time.perf_counter

        def timed(*args, **kwargs):
            frame = [0.0, None, stack[-1][2]]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stack.pop()
                stack[-1][0] += duration
                entry = stats[(frame[2], name)]
                entry[0] += 1
                entry[1] += duration
                entry[2] += duration - frame[0]

        return timed

    # -- wrappers -----------------------------------------------------------

    def _oracle(self, op: str, fn):
        calls = self.oracle_calls

        def counted(x):
            calls[(self.cell, self.owner, op)] += 1
            return fn(x)

        return self._leaf(f"problems.{op}", counted) if self.traced else counted

    def _wrap_problem(self, problem):
        names = {f.name for f in dataclasses.fields(problem)}
        wrapped = {op: self._oracle(op, getattr(problem, op))
                   for op in ORACLE_OPS if op in names and getattr(problem, op) is not None}
        return dataclasses.replace(problem, **wrapped)

    def _boundary(self, name: str, fn):
        def wrapper(*args, **kwargs):
            with self.span(name) as record:
                result = fn(*args, **kwargs)
            if name.startswith("solver.run_"):
                self.iterations[self.cell] = (result.algorithm, result.records[-1].k)
            elif name == "diagnostics.certify":
                record["kind"] = args[3] if len(args) > 3 else kwargs["kind"]
                record["rows"] = len(args[0].records)
            elif name == "solver.write_trace_csv":
                trace, path = args[0], str(args[1])
                record["rows"] = len(trace.records)
                self.written[path] = (self.cell, trace)
            return result

        return wrapper

    def _build_problem(self, fn):
        def wrapper(spec, base_dir="."):
            self.cell = None
            with self.span("config.build_problem", problem=spec.name):
                problem = fn(spec, base_dir)
            problem = self._wrap_problem(problem)
            self.problems[problem.name] = problem
            return problem

        return wrapper

    def _start_point(self, fn):
        def wrapper(config, problem_index, solver_index, seed, dimension):
            self.cell = (problem_index, solver_index, seed)
            with self.span("config.start_point"):
                return fn(config, problem_index, solver_index, seed, dimension)

        return wrapper

    def _reference(self, fn):
        def wrapper(*args, **kwargs):
            with self.span(REFERENCE_SPAN) as record:
                trace = fn(*args, **kwargs)
            record["iters"] = trace.records[-1].k
            return trace

        return wrapper

    @contextmanager
    def installed(self):
        """Patch the package for the duration of the block, then restore it."""
        patches = {(adaagm.runner, "build_problem"): self._build_problem,
                   (adaagm.runner, "start_point"): self._start_point}
        for target, name in _BOUNDARY.items():
            patches[target] = lambda fn, name=name: self._boundary(name, fn)
        if self.traced:
            for target, name in _LEAVES.items():
                patches[target] = lambda fn, name=name: self._leaf(name, fn)
            patches[_REFERENCE] = self._reference
        originals = {}
        try:
            for (module, attr), make in patches.items():
                originals[(module, attr)] = getattr(module, attr)
                setattr(module, attr, make(getattr(module, attr)))
            yield self
        finally:
            for (module, attr), fn in originals.items():
                setattr(module, attr, fn)

    # -- queries ------------------------------------------------------------

    def total(self, name: str) -> float:
        """Summed duration of the coarse spans called ``name``."""
        return sum(s["end"] - s["start"] for s in self.spans if s["name"] == name)

    def calls(self, owner: str, ops) -> int:
        """Oracle calls of the given kinds made inside spans called ``owner``."""
        return sum(n for (_, o, op), n in self.oracle_calls.items() if op in ops and o == owner)

    def leaf(self, name: str, exclude_owner: str | None = None) -> tuple[int, float, float]:
        """(calls, total_s, self_s) of a per-iteration span over its owners."""
        calls, total, self_s = 0, 0.0, 0.0
        for (owner, leaf), (n, t, s) in self.leaf_stats.items():
            if leaf == name and owner != exclude_owner:
                calls += n
                total += t
                self_s += s
        return calls, total, self_s

    def cell_counts(self) -> dict:
        """Per cell: iterations and oracle calls split by owning span."""
        counts: dict = defaultdict(dict)
        for cell, k in self.iterations.items():
            counts[cell]["iterations"] = k
        for (cell, owner, op), n in self.oracle_calls.items():
            counts[cell][f"{owner}:{op}"] = n
        return {str(cell): dict(sorted(v.items())) for cell, v in counts.items()}
