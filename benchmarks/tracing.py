"""In-memory spans recorded around the benchmark's calls into the library.

A span is ``[id, name, parent_id, start, end]`` with times from
``time.perf_counter``.  The name of a library span is ``<layer>.<function>``
(``core.asynchronous_retrieve``, ``noise.apply_qnary_noise``, ...); spans
opened by the benchmark itself (``trial``, ``setup``, ``check``, ...) carry no
layer prefix.  Spans stay in memory and are written out once, at the end of a
run.

``NO_TRACE`` has the same interface and calls straight through, so the
untraced replay runs the same code without recording anything.
"""

from __future__ import annotations

import json
from collections import defaultdict
from time import perf_counter


class _Span:
    __slots__ = ("tracer", "name", "record")

    def __init__(self, tracer: "Tracer", name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        tracer = self.tracer
        parent = tracer.stack[-1] if tracer.stack else None
        self.record = [len(tracer.spans), self.name, parent, perf_counter(), None]
        tracer.spans.append(self.record)
        tracer.stack.append(self.record[0])
        return self

    def __exit__(self, *exc):
        self.record[4] = perf_counter()
        self.tracer.stack.pop()
        return False


class Tracer:
    """Records a span around every call made through ``call``."""

    enabled = True

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []

    def span(self, name: str) -> _Span:
        return _Span(self, name)

    def call(self, name: str, fn, *args, **kwargs):
        with _Span(self, name):
            return fn(*args, **kwargs)

    def durations(self, name: str) -> list[float]:
        return [s[4] - s[3] for s in self.spans if s[1] == name]

    def summary(self, root: str = "trial") -> dict:
        """Self time per layer under ``root`` spans, and their uncovered time.

        A span's self time is its duration minus that of its children; the
        library spans have no children, because the benchmark only wraps its
        own calls.  ``uncovered`` is the part of the root spans that no child
        span covers: the replay's own bookkeeping.
        """
        child_time = defaultdict(float)
        for s in self.spans:
            if s[2] is not None:
                child_time[s[2]] += s[4] - s[3]
        roots = {s[0] for s in self.spans if s[1] == root}
        layer_self = defaultdict(float)
        total = uncovered = 0.0
        for s in self.spans:
            if s[0] in roots:
                total += s[4] - s[3]
                uncovered += (s[4] - s[3]) - child_time[s[0]]
            elif s[2] in roots:
                layer = s[1].split(".", 1)[0]
                layer_self[layer] += (s[4] - s[3]) - child_time[s[0]]
        return {"root_s": total, "uncovered_s": uncovered, "self_s": layer_self}

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["id", "name", "parent", "start", "end"], "spans": self.spans}, fh)


class _NoTrace:
    enabled = False

    def span(self, name: str):
        return _NULL_SPAN

    def call(self, name: str, fn, *args, **kwargs):
        return fn(*args, **kwargs)


class _NullSpan:
    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


_NULL_SPAN = _NullSpan()
NO_TRACE = _NoTrace()
