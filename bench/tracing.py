"""In-memory span tracer for the traced benchmark run.

The tracer wraps, from outside the package, the public functions of the
layer modules (``scenarios``, ``algebra``, ``rates``, ``oracle``) wherever a
module holds a reference to them, the public classmethods of their classes,
``pairabs.cli._write_csv`` and ``OverlapTable.overlap``.  Each wrapped call
becomes a span ``[name, start, end, parent, job, lookups, lookup_s,
excluded]``.  Overlap lookups are too many to span one by one (hundreds of
thousands per job), so the lookup wrapper only counts them and adds their
time to the enclosing span.

A layer's self time is the duration of its spans minus the time covered by
their child spans and by the lookups they made; lookup time is algebra time.
``remove`` puts every original object back, so untraced jobs run the
unmodified package.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import Counter

LAYERS = ("scenarios", "algebra", "rates", "oracle")
ROOT_SPAN = "cli.job"
WRITE_LAYER = "cli.write"

#: Rate entry points that return a verdict, and how to read "excluded" from
#: their result.  ``matrix_element`` signals exclusion by raising.
RATE_EVALUATIONS = {
    "relative_rate": lambda result: result.excluded,
    "exclusion_check": bool,
    "matrix_element": lambda result: False,
}

_NAME, _START, _END, _PARENT, _JOB, _LOOKUPS, _LOOKUP_S, _EXCLUDED = range(8)


class Tracer:
    """Installs and removes the wrappers and keeps every span in memory."""

    def __init__(self):
        self.spans: list = []
        self.layer_of: dict[str, str] = {ROOT_SPAN: "cli"}
        self._stack: list[int] = []
        self._job = -1
        modules = {name: importlib.import_module(f"pairabs.{name}") for name in LAYERS + ("cli",)}
        self._excluded_error = modules["rates"].ExcludedStateError
        self._patches = self._plan(modules)

    def _plan(self, modules) -> list[tuple[object, str, object, object]]:
        """Every (owner, attribute, original, replacement) the traced run swaps."""
        patches = []
        replacement_for = {}
        for layer in LAYERS:
            module = modules[layer]
            for name in module.__all__:
                obj = module.__dict__.get(name)
                if inspect.isfunction(obj) and obj.__module__ == module.__name__:
                    replacement_for[obj] = self._span_wrapper(f"{layer}.{name}", layer, obj)
                elif inspect.isclass(obj) and obj.__module__ == module.__name__:
                    for attr, raw in vars(obj).items():
                        if isinstance(raw, classmethod) and not attr.startswith("_"):
                            wrapped = self._span_wrapper(f"{layer}.{name}.{attr}", layer, raw.__func__)
                            patches.append((obj, attr, raw, classmethod(wrapped)))
        write_csv = modules["cli"]._write_csv
        replacement_for[write_csv] = self._span_wrapper("cli._write_csv", WRITE_LAYER, write_csv)
        package_modules = [m for n, m in sys.modules.items() if n == "pairabs" or n.startswith("pairabs.")]
        for module in package_modules:
            for attr, value in vars(module).items():
                if inspect.isfunction(value) and value in replacement_for:
                    patches.append((module, attr, value, replacement_for[value]))
        table = modules["algebra"].OverlapTable
        overlap = table.__dict__["overlap"]
        patches.append((table, "overlap", overlap, self._lookup_wrapper(overlap)))
        return patches

    def _span_wrapper(self, name: str, layer: str, fn):
        self.layer_of[name] = layer
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        verdict = RATE_EVALUATIONS.get(fn.__name__) if layer == "rates" else None
        excluded_error = self._excluded_error
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, tracer._job, 0, 0.0, None]
            stack.append(index)
            spans.append(record)
            record[_START] = clock()
            try:
                result = fn(*args, **kwargs)
            except excluded_error:
                if verdict is not None:
                    record[_EXCLUDED] = True
                raise
            else:
                if verdict is not None:
                    record[_EXCLUDED] = bool(verdict(result))
                return result
            finally:
                record[_END] = clock()
                stack.pop()
                # A closed span becomes a tuple, which the garbage collector stops tracking.
                spans[index] = tuple(record)

        return traced

    def _lookup_wrapper(self, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def overlap(table, x, y):
            start = clock()
            value = fn(table, x, y)
            elapsed = clock() - start
            if stack:
                record = spans[stack[-1]]
                record[_LOOKUPS] += 1
                record[_LOOKUP_S] += elapsed
            return value

        return overlap

    def install(self) -> None:
        for owner, attr, _, replacement in self._patches:
            setattr(owner, attr, replacement)

    def remove(self) -> None:
        """Restore every original and fail loudly if any wrapper survived."""
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)
        leftover = self.leftover_wrappers()
        if leftover:
            raise RuntimeError(f"tracing wrappers still installed: {leftover}")

    def leftover_wrappers(self) -> list[str]:
        """Attributes that do not hold their original object (empty when removed)."""
        return [
            f"{getattr(owner, '__name__', owner)}.{attr}"
            for owner, attr, original, _ in self._patches
            if _raw_attribute(owner, attr) is not original
        ]

    def run_job(self, job_id: int, call):
        """Run ``call()`` under a root span; returns the index of its first span."""
        self._job = job_id
        first = len(self.spans)
        record = [ROOT_SPAN, 0.0, 0.0, -1, job_id, 0, 0.0, None]
        self._stack.append(first)
        self.spans.append(record)
        record[_START] = time.perf_counter()
        try:
            call()
        finally:
            record[_END] = time.perf_counter()
            self._stack.pop()
            self.spans[first] = tuple(record)
        return first

    def summarize(self, first: int) -> dict:
        """Per-layer self times and exact counts for the job whose spans start at ``first``."""
        spans = self.spans[first:]
        covered = [0.0] * len(spans)
        for record in spans:
            if record[_PARENT] >= 0:
                covered[record[_PARENT] - first] += record[_END] - record[_START]
        self_s: Counter = Counter({layer: 0.0 for layer in ("cli", WRITE_LAYER) + LAYERS})
        counts: Counter = Counter()
        evaluations = excluded = 0
        for index, record in enumerate(spans):
            name = record[_NAME]
            layer = self.layer_of[name]
            duration = record[_END] - record[_START]
            self_s[layer] += duration - covered[index] - record[_LOOKUP_S]
            self_s["algebra"] += record[_LOOKUP_S]
            counts[name] += 1
            counts["algebra.overlap_lookups"] += record[_LOOKUPS]
            parent = record[_PARENT]
            if parent < 0 or self.layer_of[spans[parent - first][_NAME]] != layer:
                counts[f"{layer}.calls"] += 1
            if record[_EXCLUDED] is not None:
                evaluations += 1
                excluded += record[_EXCLUDED]
        counts["rates.evaluations"] = evaluations
        counts["rates.excluded"] = excluded
        return {"self_s": dict(self_s), "counts": dict(sorted(counts.items()))}

    def write_spans(self, handle) -> None:
        """Write every span as one CSV line (gzip the handle for long runs)."""
        handle.write("job,name,start,end,parent,lookups,lookup_s,excluded\n")
        for r in self.spans:
            flag = "" if r[_EXCLUDED] is None else int(r[_EXCLUDED])
            handle.write(
                f"{r[_JOB]},{r[_NAME]},{r[_START]!r},{r[_END]!r},{r[_PARENT]},"
                f"{r[_LOOKUPS]},{r[_LOOKUP_S]!r},{flag}\n"
            )


def _raw_attribute(owner, attr):
    """The stored attribute, without classmethod binding."""
    if inspect.isclass(owner):
        return owner.__dict__.get(attr)
    return vars(owner).get(attr)
