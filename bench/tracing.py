"""Spans around the benchmark's calls into the library.

A traced pass opens one span per request and one child span per library
call made for it.  Each span has an id, a parent id, the request id, a
name, start and end times (seconds of the pass's clock, which stops while
the yardstick samples the host) and counts read from the returned object.
Spans stay in memory and are written out once the timed region is over,
together with the tracer's own time: the time spent opening and closing
spans and reading counts.  An untraced pass uses NullTracer, which only
calls through.
"""

from __future__ import annotations

import json
from contextlib import contextmanager


class NullTracer:
    enabled = False

    @contextmanager
    def request(self, kind: str):
        yield

    def call(self, name: str, fn, *args, counts=None, **kwargs):
        return fn(*args, **kwargs)


class Tracer:
    enabled = True

    def __init__(self, clock):
        self.clock = clock
        self.spans: list[list] = []  # [id, parent, request, name, start, end, counts]
        self._stack: list[int] = []
        self._request = -1
        self.own_s = 0.0

    def _open(self, name: str) -> list:
        t = self.clock()
        span = [len(self.spans), self._stack[-1] if self._stack else -1, self._request, name, t, 0.0, None]
        self.spans.append(span)
        self._stack.append(span[0])
        self.own_s += self.clock() - t
        return span

    def _close(self, span: list, result=None, counts=None) -> None:
        t = span[5] = self.clock()
        self._stack.pop()
        if counts is not None:
            span[6] = counts(result)
        self.own_s += self.clock() - t

    @contextmanager
    def request(self, kind: str):
        self._request += 1
        span = self._open(f"request.{kind}")
        try:
            yield
        finally:
            self._close(span)

    def call(self, name: str, fn, *args, counts=None, **kwargs):
        """Run fn inside a child span; `counts(result)` gives the span's counts."""
        span = self._open(name)
        try:
            result = fn(*args, **kwargs)
        except Exception as e:
            self._close(span, e, lambda e: {"error": type(e).__name__})
            raise
        self._close(span, result, counts)
        return result

    def write(self, path: str) -> None:
        keys = ("id", "parent", "request", "name", "start", "end", "counts")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"own_s": self.own_s, "spans": [dict(zip(keys, s)) for s in self.spans]}, fh)
