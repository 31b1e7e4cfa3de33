"""In-memory spans recorded around calls into pvlc's public functions.

A span is (name, start, end, parent, run_id, attrs). Spans are kept in a
list while the benchmark runs and written out once at the end; self times
are derived from them afterwards, never while timing.
"""

import json
import time
from contextlib import contextmanager
from functools import wraps


class Tracer:
    """Records spans while `active`; costs one attribute test otherwise."""

    def __init__(self):
        self.spans = []
        self.active = False
        self.run_id = 0
        self._stack = []

    @contextmanager
    def span(self, name, **attrs):
        """Time the body as one span; the body may add entries to the yielded attrs."""
        if not self.active:
            yield attrs
            return
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(None)
        self._stack.append(index)
        start = time.perf_counter()
        try:
            yield attrs
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[index] = (name, start, end, parent, self.run_id, attrs)

    @contextmanager
    def patched(self, targets):
        """Wrap module attributes in spans for the duration of the block.

        `targets` is a list of (module, attribute, span name, on_return); the
        optional on_return(args, kwargs, result) returns attrs for the span.
        Originals are restored on exit.
        """
        saved = []
        try:
            for module, attr, name, on_return in targets:
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self._wrap(original, name, on_return))
            yield
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def _wrap(self, fn, name, on_return):
        @wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as attrs:
                result = fn(*args, **kwargs)
                if on_return is not None:
                    attrs.update(on_return(args, kwargs, result))
                return result
        return traced

    def durations(self, name, **match):
        """Durations in seconds of the spans called `name` whose attrs match."""
        return [end - start for n, start, end, _, _, attrs in self.spans
                if n == name and all(attrs.get(k) == v for k, v in match.items())]

    def self_times(self):
        """Per span name: (count, total seconds, self seconds).

        Self time is a span's duration minus the time its direct children
        cover; children of one span never overlap (one thread).
        """
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        table = {}
        for index, (name, start, end, _, _, _) in enumerate(self.spans):
            count, total, own = table.get(name, (0, 0.0, 0.0))
            table[name] = (count + 1, total + end - start, own + end - start - child_time[index])
        return table

    def write(self, path):
        """Write one JSON object per span, times relative to the first span."""
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as handle:
            for index, (name, start, end, parent, run_id, attrs) in enumerate(self.spans):
                handle.write(json.dumps({
                    "id": index, "name": name, "start_s": start - origin, "end_s": end - origin,
                    "parent": parent, "run": run_id, "attrs": attrs,
                }, default=str) + "\n")
