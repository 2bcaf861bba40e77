"""Windowed time-series telemetry for live load runs.

:class:`WindowedTelemetry` buckets request completions into per-second
bins held in a bounded ring: each bin tracks error and degraded
tallies beside its own :class:`~repro.obs.quantiles.Quantile` (count,
mean, max and a p50/p95 P² pair, kept out of the registry) so the run
report can show *latency over time*, not just end-of-run
aggregates — the difference between "p99 was 80ms" and "p99 was 8ms
until the cache invalidation storm at t=41s".

The ring holds the most recent ``window`` seconds; older bins are
evicted (counted in ``dropped_seconds``) so a long soak run stays O(1)
in memory, matching the rest of the observability stack. The clock is
injectable (see :class:`repro.obs.testing.FakeClock`) so bucket
placement and eviction are deterministically testable.
"""

from __future__ import annotations

import threading
import time
from typing import Callable

from repro.obs.quantiles import Quantile

#: Quantiles each per-second bin sketches.
BIN_QUANTILES = (0.5, 0.95)


class _Bin:
    """One second of load-run telemetry."""

    __slots__ = ("second", "errors", "degraded", "latency")

    def __init__(self, second: int) -> None:
        self.second = second
        self.errors = 0
        self.degraded = 0
        self.latency = Quantile("loadgen.bin.latency",
                                quantiles=BIN_QUANTILES)

    def record(self, latency: float, error: bool, degraded: bool) -> None:
        self.errors += int(error)
        self.degraded += int(degraded)
        self.latency.observe(latency)

    def snapshot(self) -> dict[str, object]:
        latency = self.latency
        snap: dict[str, object] = {
            "second": self.second,
            "count": latency.count,
            "errors": self.errors,
            "degraded": self.degraded,
            "mean": latency.mean if latency.count else None,
            "max": latency.max if latency.count else None,
        }
        for q, estimate in latency.estimates().items():
            snap[f"p{format(q * 100, 'g')}"] = estimate
        return snap


class WindowedTelemetry:
    """Thread-safe per-second ring buffer of request completions.

    Parameters
    ----------
    window:
        Number of most-recent seconds retained. Bins older than the
        newest ``window`` seconds are evicted and tallied in
        ``dropped_seconds``.
    clock:
        Monotonic-seconds callable; ``time.monotonic`` by default,
        injectable for tests. The construction-time reading anchors
        second 0.
    """

    def __init__(self, window: int = 300,
                 clock: Callable[[], float] = time.monotonic) -> None:
        if window < 1:
            raise ValueError(f"window must be >= 1 second, got {window}")
        self.window = int(window)
        self._clock = clock
        self._start = float(clock())
        self._bins: dict[int, _Bin] = {}
        self._lock = threading.Lock()
        self.total = 0
        self.errors = 0
        self.degraded = 0
        self.dropped_seconds = 0

    def record(self, latency: float, *, error: bool = False,
               degraded: bool = False) -> None:
        """Fold one completed request into the current second's bin."""
        second = int(self._clock() - self._start)
        with self._lock:
            bucket = self._bins.get(second)
            if bucket is None:
                bucket = self._bins[second] = _Bin(second)
                self._evict(second)
            bucket.record(float(latency), error, degraded)
            self.total += 1
            self.errors += int(error)
            self.degraded += int(degraded)

    def _evict(self, newest: int) -> None:
        cutoff = newest - self.window + 1
        for second in [s for s in self._bins if s < cutoff]:
            del self._bins[second]
            self.dropped_seconds += 1

    def elapsed(self) -> float:
        """Seconds since construction, by the injected clock."""
        return float(self._clock()) - self._start

    def series(self) -> list[dict[str, object]]:
        """Retained per-second snapshots in chronological order."""
        with self._lock:
            return [self._bins[second].snapshot()
                    for second in sorted(self._bins)]

    def snapshot(self) -> dict[str, object]:
        """JSON-ready totals plus the retained time series."""
        with self._lock:
            series = [self._bins[second].snapshot()
                      for second in sorted(self._bins)]
            return {
                "window_seconds": self.window,
                "retained_seconds": len(series),
                "dropped_seconds": self.dropped_seconds,
                "total": self.total,
                "errors": self.errors,
                "degraded": self.degraded,
                "series": series,
            }
