"""Spans around the benchmark's calls into the layers of hbgraphs.

A span is (name, op, start, end): the layer function called, the index of
the scheduled operation it belongs to (or a probe label), and
``perf_counter`` times.  Spans stay in memory until ``write``.
"""

from __future__ import annotations

import json
import math
import time


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[tuple[str, object, float, float]] = []

    def call(self, name: str, op, fn, *args, **kwargs):
        """``fn(*args, **kwargs)``, recorded as a span when tracing is on."""
        if not self.enabled:
            return fn(*args, **kwargs)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.spans.append((name, op, start, time.perf_counter()))

    def durations(self, name: str, ops=None) -> list[float]:
        """Seconds per op in ``ops`` (default all) of its spans called ``name``.

        An op that ran in several passes counts with its shortest span.
        """
        best: dict = {}
        for n, op, s, e in self.spans:
            if n == name and (ops is None or op in ops):
                best[op] = min(best.get(op, math.inf), e - s)
        return list(best.values())

    def write(self, path) -> None:
        doc = [{"name": n, "op": op, "start": s, "end": e} for n, op, s, e in self.spans]
        path.write_text(json.dumps(doc) + "\n")
