"""Closed- and open-loop execution of a workload schedule.

:class:`LoadRunner` drives a warm :class:`~repro.serve.index.ServingIndex`
from real threads — the serving layer's own lock, cache, and
degradation paths under genuine concurrency, not a simulation:

- **closed loop** — ``concurrency`` workers each issue their next
  request the instant the previous answer returns, measuring the
  saturated throughput the service can *sustain*;
- **open loop** — requests are dispatched at their scheduled Poisson
  arrival times regardless of completions (up to ``concurrency``
  in-flight), measuring behaviour under an *offered* load, where
  queueing delay shows up as client-visible latency instead of being
  hidden by back-pressure (the coordinated-omission trap).

Per-request latencies flow into (a) the run's
:class:`~repro.loadgen.telemetry.WindowedTelemetry` ring (time series)
and (b) the global metrics registry as the ``loadgen.request.latency``
quantile family — overall and split by ``kind=`` label — whose P²
p50/p95/p99 estimates back ``BENCH_serve_load.json`` and the run-
registry regression gate. An :class:`~repro.obs.slo.SLOMonitor` is
sampled from the coordinator loop once per ``slo_interval`` so error-
budget *burn rates* are computed over rolling windows during the run,
exactly as a production sidecar would.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor, wait
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

from repro import obs
from repro.loadgen.telemetry import WindowedTelemetry
from repro.loadgen.workload import Request, Schedule
from repro.obs.slo import SLOMonitor, SLOStatus, default_serving_slos

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.serve.index import ServingIndex
    from repro.serve.scheduler import BatchScheduler

#: Quantiles the load generator tracks (p95 on top of the obs defaults:
#: load reports conventionally quote p95, SLOs quote p99).
LATENCY_QUANTILES = (0.5, 0.9, 0.95, 0.99)


@dataclass
class RunSummary:
    """Aggregate outcome of one load run (JSON-ready via ``snapshot``)."""

    mode: str
    scheduled: int
    completed: int = 0
    errors: int = 0
    duration: float = 0.0
    by_kind: dict[str, int] = field(default_factory=dict)
    errors_by_kind: dict[str, int] = field(default_factory=dict)
    slo_statuses: list[SLOStatus] = field(default_factory=list)
    slo_checks: int = 0
    ops_scrapes: int = 0
    ops_scrape_errors: int = 0

    @property
    def achieved_qps(self) -> float:
        """Completed requests per wall-clock second (0 when instant)."""
        return self.completed / self.duration if self.duration > 0 else 0.0

    @property
    def error_rate(self) -> float:
        return self.errors / self.completed if self.completed else 0.0

    def snapshot(self) -> dict[str, object]:
        return {
            "mode": self.mode,
            "scheduled": self.scheduled,
            "completed": self.completed,
            "errors": self.errors,
            "error_rate": self.error_rate,
            "duration_seconds": self.duration,
            "achieved_qps": self.achieved_qps,
            "by_kind": dict(sorted(self.by_kind.items())),
            "errors_by_kind": dict(sorted(self.errors_by_kind.items())),
            "slo_checks": self.slo_checks,
            "slo": [status.snapshot() for status in self.slo_statuses],
            "ops_scrapes": self.ops_scrapes,
            "ops_scrape_errors": self.ops_scrape_errors,
        }


class LoadRunner:
    """Execute one :class:`~repro.loadgen.workload.Schedule` against an index.

    Parameters
    ----------
    index:
        A warm :class:`~repro.serve.index.ServingIndex` with every user
        the schedule queries already registered.
    schedule:
        The materialised workload (see
        :func:`~repro.loadgen.workload.build_schedule`).
    telemetry:
        Time-series sink; a fresh 300s-window ring by default.
    monitor:
        Rolling-window SLO monitor sampled by the coordinator; defaults
        to the serving stack's built-in objectives with no alert sinks.
    slo_interval:
        Seconds between coordinator SLO samples.
    clock:
        Latency/duration timer (``time.perf_counter`` by default;
        injectable for tests).
    sleep:
        Open-loop pacing delay (``time.sleep`` by default). Inject it
        together with *clock* — arrival delays are computed on *clock*,
        so sleeping on a different time source would mis-pace the run
        (a :class:`~repro.obs.testing.FakeClock` pairs its own
        ``advance`` method with itself).
    scheduler:
        Optional :class:`~repro.serve.scheduler.BatchScheduler`. When
        set, query and probe requests route through
        ``scheduler.query()`` — coalescing across the worker threads —
        instead of the serial ``index.top_k()``; ingests still hit the
        index directly (they mutate, and never batch).
    ops_url:
        Base URL of a live ops plane (``python -m repro.serve serve``).
        When set, every SLO sample also scrapes ``/metrics`` and
        ``/healthz`` over HTTP — exercising the scrape path *under*
        the load it is measuring — recording scrape latency into the
        ``loadgen.ops_scrape.latency`` quantile and outcomes into the
        ``loadgen.ops_scrape`` counter.
    """

    def __init__(self, index: "ServingIndex", schedule: Schedule, *,
                 telemetry: WindowedTelemetry | None = None,
                 monitor: SLOMonitor | None = None,
                 slo_interval: float = 1.0,
                 clock: Callable[[], float] = time.perf_counter,
                 sleep: Callable[[float], None] = time.sleep,
                 scheduler: "BatchScheduler | None" = None,
                 ops_url: str | None = None) -> None:
        self.index = index
        self.schedule = schedule
        self.scheduler = scheduler
        self.ops_url = ops_url.rstrip("/") if ops_url else None
        self.telemetry = (telemetry if telemetry is not None
                          else WindowedTelemetry())
        self.monitor = (monitor if monitor is not None
                        else SLOMonitor(list(default_serving_slos())))
        self.slo_interval = float(slo_interval)
        self._clock = clock
        self._sleep = sleep
        self._lock = threading.Lock()
        self._next = 0  # closed-loop schedule cursor
        self.summary = RunSummary(mode=schedule.mode,
                                  scheduled=len(schedule))

    # ------------------------------------------------------------------
    # Per-request execution
    # ------------------------------------------------------------------
    def _issue(self, request: Request) -> None:
        """Run one request against the index; never raises."""
        started = self._clock()
        error: Exception | None = None
        # The loadgen-level request context owns the trace: the serving
        # index's nested ``obs.request`` joins this ID instead of
        # allocating its own, so the reservoir retains one coherent span
        # tree per request — from dispatch down to the blockwise scorer —
        # and the latency exemplars below can point into it.
        with obs.request("loadgen.request", kind=request.kind) as span:
            try:
                if request.kind == "query":
                    if self.scheduler is not None:
                        self.scheduler.query(request.user_id, k=request.k)
                    else:
                        self.index.top_k(request.user_id, k=request.k)
                elif request.kind == "probe":
                    if self.scheduler is not None:
                        self.scheduler.query([request.paper], k=request.k)
                    else:
                        self.index.top_k([request.paper], k=request.k)
                else:  # ingest
                    self.index.add_paper(request.paper)
            except Exception as exc:  # a load worker must survive anything
                error = exc
                span.set("error", type(exc).__name__)
        latency = self._clock() - started
        # Probes exercise the unknown-entity fallback by construction —
        # the one per-request degradation attribution that is exact
        # under concurrency (counter deltas are not).
        self.telemetry.record(latency, error=error is not None,
                              degraded=request.kind == "probe")
        self._observe(request.kind, latency, error, span.trace_id)
        with self._lock:
            self.summary.completed += 1
            self.summary.by_kind[request.kind] = \
                self.summary.by_kind.get(request.kind, 0) + 1
            if error is not None:
                self.summary.errors += 1
                self.summary.errors_by_kind[request.kind] = \
                    self.summary.errors_by_kind.get(request.kind, 0) + 1

    @staticmethod
    def _observe(kind: str, latency: float, error: Exception | None,
                 trace_id: str | None) -> None:
        if not obs.is_enabled():
            return
        registry = obs.get_registry()
        # trace_id is passed explicitly: the request context has already
        # exited (its duration is only final then), so the ambient ID is
        # unbound by the time these exemplars are recorded.
        registry.quantile("loadgen.request.latency",
                          quantiles=LATENCY_QUANTILES).observe(
                              latency, trace_id=trace_id)
        registry.quantile("loadgen.request.latency",
                          quantiles=LATENCY_QUANTILES,
                          kind=kind).observe(latency, trace_id=trace_id)
        if error is not None:
            obs.count("loadgen.request.errors", kind=kind,
                      type=type(error).__name__)

    # ------------------------------------------------------------------
    # Loop disciplines
    # ------------------------------------------------------------------
    def _closed_worker(self) -> None:
        requests = self.schedule.requests
        while True:
            with self._lock:
                position = self._next
                self._next += 1
            if position >= len(requests):
                return
            self._issue(requests[position])

    def _run_closed(self) -> None:
        workers = [threading.Thread(target=self._closed_worker,
                                    name=f"loadgen-{i}", daemon=True)
                   for i in range(self.schedule.concurrency)]
        for worker in workers:
            worker.start()
        last_sample = self._clock()
        while True:
            alive = [w for w in workers if w.is_alive()]
            if not alive:
                break
            alive[0].join(timeout=self.slo_interval)
            if self._clock() - last_sample >= self.slo_interval:
                self._sample_slos()
                last_sample = self._clock()

    def _run_open(self) -> None:
        started = self._clock()
        last_sample = started
        futures: list[Future] = []
        with ThreadPoolExecutor(
                max_workers=self.schedule.concurrency,
                thread_name_prefix="loadgen") as pool:
            for request in self.schedule.requests:
                delay = (request.arrival or 0.0) - (self._clock() - started)
                if delay > 0:
                    self._sleep(delay)
                futures.append(pool.submit(self._issue, request))
                if self._clock() - last_sample >= self.slo_interval:
                    self._sample_slos()
                    last_sample = self._clock()
            # Keep sampling SLOs while the in-flight tail drains —
            # otherwise the end of the run (often where queueing delay
            # concentrates) would be covered only by the single
            # post-run sample.
            pending = set(futures)
            while pending:
                _, pending = wait(pending, timeout=self.slo_interval)
                if self._clock() - last_sample >= self.slo_interval:
                    self._sample_slos()
                    last_sample = self._clock()

    def _sample_slos(self) -> None:
        if not obs.is_enabled():
            return
        self.summary.slo_statuses = self.monitor.check()
        self.summary.slo_checks += 1
        if self.ops_url is not None:
            self._scrape_ops()

    def _scrape_ops(self) -> None:
        """GET the live ops plane once per SLO sample; never raises.

        The scrape runs from the coordinator thread while the workers
        hammer the index — the ops server must answer (200, sub-second)
        concurrently with serving, and the recorded latency quantile is
        the evidence.
        """
        import urllib.error
        import urllib.request

        for endpoint in ("/metrics", "/healthz"):
            started = self._clock()
            outcome = "ok"
            try:
                with urllib.request.urlopen(self.ops_url + endpoint,
                                            timeout=5.0) as response:
                    response.read()
                    if response.status >= 500:
                        outcome = "5xx"
            except (urllib.error.URLError, OSError):
                outcome = "error"
            latency = self._clock() - started
            with self._lock:
                self.summary.ops_scrapes += 1
                if outcome != "ok":
                    self.summary.ops_scrape_errors += 1
            obs.observe("loadgen.ops_scrape.latency", latency,
                        endpoint=endpoint)
            obs.count("loadgen.ops_scrape", endpoint=endpoint,
                      outcome=outcome)

    # ------------------------------------------------------------------
    def run(self) -> RunSummary:
        """Execute the whole schedule; returns the aggregate summary."""
        started = self._clock()
        if self.schedule.mode == "closed":
            self._run_closed()
        else:
            self._run_open()
        self.summary.duration = self._clock() - started
        self._sample_slos()  # final sample so short runs still report SLOs
        if obs.is_enabled():
            obs.gauge("loadgen.run.duration_seconds", self.summary.duration)
            obs.gauge("loadgen.run.achieved_qps", self.summary.achieved_qps)
            obs.gauge("loadgen.run.error_rate", self.summary.error_rate)
        return self.summary
