"""The host's speed, from a fixed computation timed between operations.

The reference machine is a shared host whose speed drifts: a fixed
pure-Python loop, timed back to back, reads from 0.64x to several times
its median within a minute, and a run's mean speed moves by a third over
a few minutes.  Ten runs of unchanged code spread with it.  So the
benchmark times a fixed reference computation before an operation
whenever INTERVAL_S has passed since the last one, and takes every
latency to the reference speed: it is multiplied by REFERENCE_S over the
median of the NEAR samples before the operation started and the NEAR
after (``scale_at``).  A reported time thus reads as on the reference
machine at its usual speed.  The raw times and the samples are kept in
the run's record under ``hbbench/out/``.

The reference is the benchmark's own oracle code on fixed inputs: the
string, tuple and set work of listing the arcs of A(n), and the
big-integer additions of a digit pass.  It shares no code with hbgraphs,
so a change to the program cannot move it, and it runs with the garbage
collector off, so the program's heap cannot slow it either.
"""

from __future__ import annotations

import bisect
import gc
import statistics
import time

import oracles

#: median seconds of one ``reference()`` on the reference machine
REFERENCE_S = 0.0035
INTERVAL_S = 0.1
NEAR = 2
WORDS_N = 2708  # A(2708) has 208 vertices and 644 arcs
DIGITS_N = (1 << 6000) // 3


def reference() -> None:
    oracles.labeled_arcs(WORDS_N)
    oracles.fusc(DIGITS_N)


class HostSpeed:
    """Reference samples of one run, as (start, seconds) in time order."""

    def __init__(self):
        self.starts: list[float] = []
        self.samples: list[float] = []
        reference()  # the first call pays for the interpreter's warm-up

    def sample(self) -> None:
        """Time one reference computation, with the garbage collector off."""
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            start = time.perf_counter()
            reference()
            self.samples.append(time.perf_counter() - start)
            self.starts.append(start)
        finally:
            if was_enabled:
                gc.enable()

    def sample_if_due(self) -> None:
        if not self.starts or time.perf_counter() - self.starts[-1] >= INTERVAL_S:
            self.sample()

    def scale(self) -> float:
        """Factor that takes a time measured anywhere in this run to the reference speed."""
        return REFERENCE_S / statistics.median(self.samples)

    def scale_at(self, t: float) -> float:
        """Factor for a time measured from ``t``: by the NEAR samples before t and the NEAR after."""
        j = bisect.bisect(self.starts, t)
        return REFERENCE_S / statistics.median(self.samples[max(0, j - NEAR) : j + NEAR])
