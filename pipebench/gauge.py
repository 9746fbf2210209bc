"""Host speed, measured beside the program, so times read at one fixed speed.

The benchmark shares a few cores of a host whose speed drifts: on a
2-core x86-64 VM with CPython 3.11, fixed interpreted work switched
between a fast and a slow state about 1.7x apart, each lasting from a
fraction of a second to minutes.  Raw wall times of the same work
therefore spread across runs by about as much as the bounds allow,
however long a run is (30-60 s windows of a fixed loop still spread
12-16% between quartiles).  The program's calls slow down with fixed
interpreted work: over 2400 ``classify`` calls, log call time against
log reference time had a least-squares slope of 0.9 (r = 0.82).

So the benchmark runs fixed reference work (:func:`reference_work`, about
2 ms; not the program's code, so no change to the program moves it)
before every timed call, and reports each call's time *at the reference
speed*: the measured time times ``REFERENCE_NS`` over the mean reference
time around the call (the samples just before and just after it and,
for a long call, every sample within its own duration of either end).
``REFERENCE_NS`` is a constant, between the reference work's times in
that host's fast and slow states, so a time at the reference speed means
the same on every run.  The
raw times and the measured speed factors go to the details line beside
the results.
"""

from __future__ import annotations

import bisect
import gc
import io
import statistics
import tokenize
from time import perf_counter_ns

#: what one :func:`reference_work` takes at the reference speed
REFERENCE_NS = 2_000_000

#: fixed Python source for the tokenizer half of the reference work
_SOURCE = "".join(
    f"def handler_{i}(event, limit={i}):\n"
    f"    if event.value > limit:  # threshold {i}\n"
    f"        return [event.name, 'over', {i} * 2.5]\n"
    f"    return None\n\n"
    for i in range(12)
)


class _Node:
    __slots__ = ("kind", "children", "value")

    def __init__(self, kind: int, value: int) -> None:
        self.kind = kind
        self.children: list[_Node] = []
        self.value = value


def reference_work() -> int:
    """Fixed interpreted work shaped like a parser's: tokenize a fixed
    source with the standard library's pure-Python tokenizer, then build
    a 1250-node tree of slotted objects and walk it, counting kinds.

    On the host above, the ratio of ``classify`` time to a tight
    arithmetic loop's time spread 8-10% between quartiles of 5-20 s
    windows (the fast state speeds the loop up more); against this mix of
    regex scanning, generators, object allocation, attribute access and
    dict updates it spread 2-6%.
    """
    tokens = sum(1 for _ in tokenize.generate_tokens(io.StringIO(_SOURCE).readline))
    nodes = [_Node(i % 13, i) for i in range(1250)]
    for i in range(1, len(nodes)):
        nodes[(i - 1) // 3].children.append(nodes[i])
    kinds: dict[int, int] = {}
    total = 0
    stack = [nodes[0]]
    while stack:
        node = stack.pop()
        kinds[node.kind] = kinds.get(node.kind, 0) + 1
        total += node.value
        stack.extend(node.children)
    return tokens + total + len(kinds)


class SpeedGauge:
    """Reference-work samples over a run: when each was taken (``times``,
    ascending) and how long the faster of its two runs took (``durations``)."""

    def __init__(self) -> None:
        self.times: list[int] = []
        self.durations: list[int] = []

    def sample(self) -> None:
        # With the collector on, the reference's allocations would trigger
        # collections over the program's heap: the gauge would measure the
        # program's live objects instead of the host.
        enabled = gc.isenabled()
        gc.disable()
        try:
            # The faster of two back-to-back runs: the first may find the
            # caches cold after a large call.
            start = perf_counter_ns()
            reference_work()
            middle = perf_counter_ns()
            reference_work()
            end = perf_counter_ns()
        finally:
            if enabled:
                gc.enable()
        self.times.append(middle)
        self.durations.append(min(middle - start, end - middle))

    def factor(self, start_ns: int, end_ns: int) -> float:
        """Reference speed over the host's speed during ``[start_ns, end_ns]``.

        From the last sample before the call, the first one after it, and
        every sample within the call's own duration of either end: a long
        call spans several fast and slow stretches, and the samples around
        it give their mix.
        """
        span = end_ns - start_ns
        times = self.times
        low = min(bisect.bisect_left(times, start_ns - span), bisect.bisect_right(times, start_ns) - 1)
        high = max(bisect.bisect_right(times, end_ns + span), bisect.bisect_left(times, end_ns) + 1)
        near = self.durations[max(0, low) : min(len(times), high)]
        return REFERENCE_NS / statistics.fmean(near)

    def scaled_ms(self, start_ns: int, end_ns: int) -> float:
        """The call's time at the reference speed, in ms."""
        return (end_ns - start_ns) * self.factor(start_ns, end_ns) / 1e6

    def summary(self) -> dict:
        speeds = [REFERENCE_NS / d for d in self.durations]
        quartiles = statistics.quantiles(speeds, n=4) if len(speeds) > 1 else speeds * 3
        return {
            "samples": len(speeds),
            "factor_q1_median_q3": [round(q, 4) for q in quartiles],
            "factor_min_max": [round(min(speeds), 4), round(max(speeds), 4)],
        }
