"""In-memory spans around calls into the library.

A span records its name, start, end, parent span and task id.  Spans are
opened only by benchmark code, around public calls; the library itself is
not instrumented.  ``NullTracer`` has the same interface and records
nothing, so the untraced run pays one extra Python call per library call.
"""

from __future__ import annotations

import types
from collections import defaultdict
from time import perf_counter


def _consume(result):
    # A generator does its work only when iterated, so a span around the
    # call alone would time nothing; iterate it inside the span.
    if isinstance(result, types.GeneratorType):
        return tuple(result)
    return result


class NullTracer:
    def call(self, name: str, fn, *args, **kwargs):
        return _consume(fn(*args, **kwargs))

    def set_task(self, task_id) -> None:
        pass


class Tracer:
    """Records spans as ``[name, start, end, parent_index, task_id]`` lists,
    kept in memory until ``to_json``."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._open: list[int] = []
        self._task = None

    def set_task(self, task_id) -> None:
        self._task = task_id

    def call(self, name: str, fn, *args, **kwargs):
        parent = self._open[-1] if self._open else -1
        index = len(self.spans)
        span = [name, perf_counter(), None, parent, self._task]
        self.spans.append(span)
        self._open.append(index)
        try:
            return _consume(fn(*args, **kwargs))
        finally:
            span[2] = perf_counter()
            self._open.pop()

    def self_times(self) -> tuple[dict[str, float], dict[str, int]]:
        """Per-name self time (duration minus time covered by child spans)
        and call counts."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        seconds: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        for (name, start, end, _, _), covered in zip(self.spans, child_time):
            seconds[name] += end - start - covered
            calls[name] += 1
        return dict(seconds), dict(calls)

    def to_json(self) -> dict:
        return {
            "fields": ["name", "start", "end", "parent", "task"],
            "spans": self.spans,
        }


def wrap(tracer, name: str, fn):
    """``fn`` with every call recorded as a span named ``name``."""

    def traced(*args, **kwargs):
        return tracer.call(name, fn, *args, **kwargs)

    return traced
