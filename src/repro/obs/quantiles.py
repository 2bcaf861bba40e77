"""Streaming quantile estimation: the P² sketch and the Quantile metric.

The P² algorithm (Jain & Chlamtac, 1985) tracks one quantile of a stream
with five *markers* — estimated heights at the 0, p/2, p, (1+p)/2 and 1
quantiles — adjusted after every observation with a piecewise-parabolic
interpolation. Memory is O(1) per tracked quantile, updates are a few
float comparisons, and the result is deterministic in the input order
(no sampling, no randomness), which keeps captured runs comparable.

:class:`Quantile` packages several P² estimators (p50/p90/p99 by
default) with an exact count/sum/min/max and a max-observation
exemplar. It is the registry's one distribution kind: ``obs.observe``
records into it, the JSONL capture and run snapshots carry its count,
mean and estimates, the SLOs judge its estimates, and the Prometheus
renderer emits it as a *summary*.
"""

from __future__ import annotations

import math
import threading

from repro.obs.tracing import current_trace_id

#: Quantiles every latency family tracks unless told otherwise.
DEFAULT_QUANTILES: tuple[float, ...] = (0.5, 0.9, 0.99)


def exact_quantile(sorted_values: list[float], q: float) -> float:
    """Linear-interpolated quantile of an already-sorted list.

    Matches ``numpy.quantile``'s default (linear) method; used by the P²
    sketch while it holds fewer than five observations, and by the tests
    as the ground truth the sketch is bounded against.
    """
    if not sorted_values:
        raise ValueError("cannot take the quantile of an empty sequence")
    if len(sorted_values) == 1:
        return sorted_values[0]
    position = q * (len(sorted_values) - 1)
    low = int(math.floor(position))
    high = min(low + 1, len(sorted_values) - 1)
    fraction = position - low
    return sorted_values[low] * (1.0 - fraction) + sorted_values[high] * fraction


class P2Quantile:
    """One P² marker bank estimating a single quantile ``q``.

    The first five observations are kept exactly; from the sixth on the
    five marker heights are nudged toward their desired positions with
    the P² parabolic rule (falling back to linear interpolation whenever
    the parabola would break marker monotonicity).
    """

    __slots__ = ("q", "count", "_heights", "_positions", "_desired",
                 "_increments")

    def __init__(self, q: float) -> None:
        if not 0.0 < q < 1.0:
            raise ValueError(f"quantile must be in (0, 1), got {q}")
        self.q = float(q)
        self.count = 0
        self._heights: list[float] = []
        self._positions = [1.0, 2.0, 3.0, 4.0, 5.0]
        self._desired = [1.0, 1.0 + 2.0 * q, 1.0 + 4.0 * q, 3.0 + 2.0 * q, 5.0]
        self._increments = [0.0, q / 2.0, q, (1.0 + q) / 2.0, 1.0]

    def observe(self, value: float) -> None:
        """Fold one sample into the sketch."""
        value = float(value)
        self.count += 1
        if self.count <= 5:
            self._heights.append(value)
            self._heights.sort()
            return
        heights, positions = self._heights, self._positions

        # 1. Locate the marker cell the observation falls into.
        if value < heights[0]:
            heights[0] = value
            cell = 0
        elif value >= heights[4]:
            heights[4] = value
            cell = 3
        else:
            cell = 0
            while cell < 3 and heights[cell + 1] <= value:
                cell += 1

        # 2. Shift actual positions above the cell; advance desired ones.
        for i in range(cell + 1, 5):
            positions[i] += 1.0
        for i in range(5):
            self._desired[i] += self._increments[i]

        # 3. Adjust the three interior markers toward their targets.
        for i in (1, 2, 3):
            drift = self._desired[i] - positions[i]
            if ((drift >= 1.0 and positions[i + 1] - positions[i] > 1.0)
                    or (drift <= -1.0 and positions[i - 1] - positions[i] < -1.0)):
                step = 1.0 if drift >= 1.0 else -1.0
                candidate = self._parabolic(i, step)
                if not heights[i - 1] < candidate < heights[i + 1]:
                    candidate = self._linear(i, step)
                heights[i] = candidate
                positions[i] += step

    def _parabolic(self, i: int, step: float) -> float:
        h, n = self._heights, self._positions
        return h[i] + step / (n[i + 1] - n[i - 1]) * (
            (n[i] - n[i - 1] + step) * (h[i + 1] - h[i]) / (n[i + 1] - n[i])
            + (n[i + 1] - n[i] - step) * (h[i] - h[i - 1]) / (n[i] - n[i - 1]))

    def _linear(self, i: int, step: float) -> float:
        h, n = self._heights, self._positions
        j = i + int(step)
        return h[i] + step * (h[j] - h[i]) / (n[j] - n[i])

    @property
    def estimate(self) -> float | None:
        """Current quantile estimate (``None`` before any observation)."""
        if self.count == 0:
            return None
        if self.count <= 5:
            return exact_quantile(self._heights, self.q)
        return self._heights[2]


class Quantile:
    """Child metric tracking several stream quantiles plus count/sum.

    The Prometheus renderer emits this family as a *summary*: one sample
    per tracked quantile (``{quantile="0.99"}``) plus ``_sum`` and
    ``_count``. See :class:`~repro.obs.metrics.MetricsRegistry.quantile`.
    """

    kind = "quantile"
    __slots__ = ("name", "labels", "quantiles", "count", "sum", "min",
                 "max", "exemplar", "_estimators", "_lock")

    def __init__(self, name: str, labels: dict[str, str] | None = None,
                 quantiles: tuple[float, ...] = DEFAULT_QUANTILES) -> None:
        if not quantiles:
            raise ValueError("quantiles must be a non-empty sequence")
        if list(quantiles) != sorted(set(quantiles)):
            raise ValueError(
                f"quantiles must be strictly ascending, got {quantiles!r}")
        self.name = name
        self.labels = dict(labels or {})
        self.quantiles = tuple(float(q) for q in quantiles)
        self.count = 0
        self.sum = 0.0
        self.min = math.inf
        self.max = -math.inf
        #: Trace-ID exemplar of the worst (max) observation recorded
        #: inside a request context — joins the p99 tail back to one
        #: concrete request's span tree in the same capture.
        self.exemplar: dict[str, object] | None = None
        self._estimators = [P2Quantile(q) for q in self.quantiles]
        # Serialises concurrent observations: the P² marker arrays are
        # multi-step read-modify-write and would corrupt under races.
        self._lock = threading.Lock()

    def observe(self, value: float, *, trace_id: str | None = None) -> None:
        """Record one sample into every tracked quantile.

        ``trace_id`` overrides the ambient request context for the
        max-observation exemplar — call sites that record a request
        span's duration *after* its context has exited (and unbound the
        ambient ID) pass the span's own ``trace_id`` here.
        """
        value = float(value)
        with self._lock:
            self.count += 1
            self.sum += value
            self.min = min(self.min, value)
            if value >= self.max:
                self.max = value
                tid = trace_id if trace_id is not None else current_trace_id()
                if tid is not None:
                    self.exemplar = {"trace_id": tid, "value": value}
            for estimator in self._estimators:
                estimator.observe(value)

    def estimate(self, q: float) -> float | None:
        """Current estimate for tracked quantile *q* (``None`` when empty)."""
        for estimator in self._estimators:
            if estimator.q == q:
                return estimator.estimate
        raise KeyError(f"quantile {q} is not tracked by {self.name!r} "
                       f"(tracked: {self.quantiles})")

    def estimates(self) -> dict[float, float | None]:
        """All tracked ``quantile -> estimate`` pairs, ascending."""
        return {e.q: e.estimate for e in self._estimators}

    @property
    def mean(self) -> float:
        """Arithmetic mean of all observations (0.0 when empty)."""
        return self.sum / self.count if self.count else 0.0

    def snapshot(self) -> dict[str, object]:
        """JSON-ready state of this child metric."""
        with self._lock:
            snap: dict[str, object] = {
                "count": self.count,
                "sum": self.sum,
                "min": self.min if self.count else None,
                "max": self.max if self.count else None,
                "quantiles": {format(e.q, "g"): e.estimate
                              for e in self._estimators},
            }
            if self.exemplar is not None:
                snap["exemplar"] = dict(self.exemplar)
            return snap
