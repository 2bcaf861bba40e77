"""Allocation-profiling spans backed by :mod:`tracemalloc`.

``obs.profile("stage")`` behaves like ``obs.trace`` — it opens a span
named ``profile.<stage>`` — but additionally captures the net allocation
delta, the allocation peak, and the top-N allocation sites across the
region. It shares the off-by-default no-op guarantee of the rest of the
obs layer *and* adds a second gate: tracemalloc snapshots cost real time
and memory, so profiling spans only arm when **both**
``configure(enabled=True)`` and ``configure(profiling=True)`` are set;
otherwise the shared inert context from :mod:`repro.obs` is returned and
nothing is measured.

Captured per span (as span attributes, so reports show them inline):

- ``alloc_net_kb`` — net bytes allocated and still live at span exit;
- ``alloc_peak_kb`` — the tracemalloc peak inside the span (note: the
  peak counter is process-global, so nested profile spans share it);
- ``top_allocations`` — ``file:lineno +size_kb (count blocks)`` strings
  for the *top_n* largest net-positive allocation sites.

The same numbers feed two quantile families (``profile.net_alloc_kb``
and ``profile.peak_alloc_kb``, labelled ``stage=<name>``) so run
snapshots and the regression gate can track memory per stage.
"""

from __future__ import annotations

import tracemalloc

from repro.obs import config

#: Span-name prefix for every profiling span.
SPAN_PREFIX = "profile."


class ProfileContext:
    """Live context manager: one profiled region, span + allocation data."""

    __slots__ = ("_name", "_top_n", "_attrs", "_record", "_started_tracing",
                 "_before")

    def __init__(self, name: str, top_n: int, attrs: dict[str, object]) -> None:
        if top_n < 1:
            raise ValueError(f"top_n must be >= 1, got {top_n}")
        self._name = name
        self._top_n = top_n
        self._attrs = attrs
        self._record = None
        self._started_tracing = False
        self._before: tracemalloc.Snapshot | None = None

    def __enter__(self):
        self._started_tracing = not tracemalloc.is_tracing()
        if self._started_tracing:
            tracemalloc.start()
        else:
            tracemalloc.reset_peak()
        self._before = tracemalloc.take_snapshot()
        self._record = config._STATE.tracer.start(
            SPAN_PREFIX + self._name, dict(self._attrs))
        return self._record

    def __exit__(self, exc_type, exc, tb) -> bool:
        record = self._record
        assert record is not None
        try:
            _, peak = tracemalloc.get_traced_memory()
            after = tracemalloc.take_snapshot()
            diff = after.compare_to(self._before, "lineno")
            net_bytes = sum(stat.size_diff for stat in diff)
            top = sorted(diff, key=lambda s: s.size_diff, reverse=True)
            sites = [
                f"{stat.traceback[0].filename}:{stat.traceback[0].lineno} "
                f"+{stat.size_diff / 1024:.1f}kB ({stat.count_diff} blocks)"
                for stat in top[: self._top_n] if stat.size_diff > 0
            ]
            record.set("alloc_net_kb", round(net_bytes / 1024, 2))
            record.set("alloc_peak_kb", round(peak / 1024, 2))
            record.set("top_allocations", sites)
            registry = config._STATE.registry
            registry.quantile("profile.net_alloc_kb", stage=self._name) \
                .observe(net_bytes / 1024)
            registry.quantile("profile.peak_alloc_kb", stage=self._name) \
                .observe(peak / 1024)
        finally:
            if exc_type is not None:
                record.set("error", exc_type.__name__)
                config._STATE.tracer.unwind_to(record)
            else:
                config._STATE.tracer.finish(record)
            if self._started_tracing:
                tracemalloc.stop()
        return False
