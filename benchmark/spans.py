"""In-memory spans around the benchmark's calls into liegraph's modules.

A span is (name, start, end, parent, op id).  Spans are recorded only while
the tracer is enabled; when it is disabled `call` is a plain function call,
so untraced timings carry no bookkeeping beyond one attribute test.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.enabled = False
        self.op_id = -1
        # [name, start, end, parent index or -1, op id]
        self.spans: list[list] = []
        self._stack: list[int] = []

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.op_id])
        self._stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        popped = self._stack.pop()
        if popped != idx:
            raise RuntimeError(f"span {self.spans[idx][0]} closed out of order")

    def call(self, name: str, fn, *args, **kwargs):
        """fn(*args, **kwargs), inside a span named `name` when enabled."""
        if not self.enabled:
            return fn(*args, **kwargs)
        idx = self.begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.end(idx)

    def wrap(self, name: str, fn):
        """A callable that runs fn inside a span named `name` when enabled."""
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)
        return traced

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op"],
                       "spans": self.spans}, fh)


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children = defaultdict(list)
    for s in spans:
        if s[3] >= 0:
            children[s[3]].append((s[1], s[2]))
    return [s[2] - s[1] - _covered(children[i], s[1], s[2]) for i, s in enumerate(spans)]


def child_coverage(spans: list[list], idx: int) -> float:
    """Share of span idx's wall time covered by its direct children."""
    s = spans[idx]
    kids = [(c[1], c[2]) for c in spans if c[3] == idx]
    dur = s[2] - s[1]
    return _covered(kids, s[1], s[2]) / dur if dur > 0.0 else 1.0
