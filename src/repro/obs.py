"""Thread-safe counters, gauges, and latency histograms: one registry.

Every surface that reports counters uses :class:`MetricsRegistry`.  In
``serve`` one instance is shared by the whole stack: the asyncio request
handlers increment counters from the event loop, while the
:class:`~repro.detector.batch.BatchInferenceEngine` feeds per-batch
statistics from the inference worker thread through
:meth:`MetricsRegistry.observe_batch`.  ``scan`` counts shards and units
in its own instance.  Everything is guarded by one lock; all operations
are O(1) except :meth:`snapshot`, which sorts the bounded reservoir of
each histogram to compute percentiles.

This is a leaf module: it imports no other ``repro`` module, so the scan
workers can use it without importing the serving layer.
"""

from __future__ import annotations

import threading
import time
from collections import deque

#: Observations kept per histogram; percentiles reflect this sliding window.
DEFAULT_RESERVOIR = 2048

#: Percentiles reported in every histogram snapshot.
PERCENTILES = (50, 90, 99)


class Histogram:
    """Bounded sliding-window reservoir with on-demand percentiles.

    ``count``/``total`` accumulate over the full process lifetime; the
    percentiles describe the last ``maxlen`` observations only.
    """

    __slots__ = ("count", "total", "max", "_window")

    def __init__(self, maxlen: int = DEFAULT_RESERVOIR) -> None:
        self.count = 0
        self.total = 0.0
        self.max = 0.0
        self._window: deque[float] = deque(maxlen=maxlen)

    def observe(self, value: float) -> None:
        value = float(value)
        self.count += 1
        self.total += value
        if value > self.max:
            self.max = value
        self._window.append(value)

    def snapshot(self) -> dict:
        window = sorted(self._window)
        stats = {
            "count": self.count,
            "mean": round(self.total / self.count, 6) if self.count else 0.0,
            "max": round(self.max, 6),
        }
        for p in PERCENTILES:
            if window:
                index = min(len(window) - 1, int(round(p / 100 * (len(window) - 1))))
                stats[f"p{p}"] = round(window[index], 6)
            else:
                stats[f"p{p}"] = 0.0
        return stats


class MetricsRegistry:
    """Named counters, gauges, and histograms behind one lock."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: dict[str, int] = {}
        self._gauges: dict[str, float] = {}
        self._histograms: dict[str, Histogram] = {}
        self._started_at = time.time()

    # -- writers (all thread-safe, O(1)) --------------------------------------

    def inc(self, name: str, amount: int = 1) -> None:
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + amount

    def set_gauge(self, name: str, value: float) -> None:
        with self._lock:
            self._gauges[name] = value

    def observe(self, name: str, value: float) -> None:
        with self._lock:
            histogram = self._histograms.get(name)
            if histogram is None:
                histogram = self._histograms[name] = Histogram()
            histogram.observe(value)

    def observe_batch(self, stats) -> None:
        """Engine hook: fold one :class:`~repro.detector.batch.BatchStats` in.

        Wired as ``engine.observer`` by the model registry, so every batch
        the inference engine runs — whatever its origin — is recorded.
        """
        with self._lock:
            counters = self._counters
            increments: list[tuple[str, int]] = [
                ("batches_total", 1),
                ("scripts_total", stats.files),
                ("script_errors_total", stats.errors),
                ("cache_hits_total", stats.cache_hits),
                ("df_timeouts_total", stats.df_timeouts),
                ("flow_timeouts_total", stats.flow_timeouts),
                ("triage_short_circuits_total", stats.triage_hits),
                ("deob_files_total", stats.deob_files),
                ("deob_passes_total", stats.deob_passes),
                ("deob_removals_total", stats.deob_removals),
            ]
            # Per-rule hit counters from the signature engine, labelled in
            # the flat `name{label=value}` convention.
            increments.extend(
                (f"rules_findings_total{{rule_id={rule_id}}}", hits)
                for rule_id, hits in stats.rule_hits.items()
            )
            for name, amount in increments:
                if amount:
                    counters[name] = counters.get(name, 0) + amount
            if stats.files:
                self._gauges["triage_rate"] = round(stats.triage_rate, 6)
            for name, value in (
                ("batch_size", stats.files),
                ("batch_wall_s", stats.wall_time),
                ("extract_s", stats.extract_time),
                ("predict_s", stats.predict_time),
                ("rules_s", stats.rules_time),
                ("deob_s", stats.deob_time),
            ):
                histogram = self._histograms.get(name)
                if histogram is None:
                    histogram = self._histograms[name] = Histogram()
                histogram.observe(value)

    # -- readers --------------------------------------------------------------

    def counter(self, name: str) -> int:
        with self._lock:
            return self._counters.get(name, 0)

    def gauge(self, name: str) -> float:
        with self._lock:
            return self._gauges.get(name, 0.0)

    def snapshot(self) -> dict:
        """JSON-ready view of every metric (the ``GET /metrics`` payload)."""
        with self._lock:
            return {
                "uptime_s": round(time.time() - self._started_at, 3),
                "counters": dict(sorted(self._counters.items())),
                "gauges": dict(sorted(self._gauges.items())),
                "histograms": {
                    name: histogram.snapshot()
                    for name, histogram in sorted(self._histograms.items())
                },
            }
