"""Span recording for the traced pass, from the benchmark's own files.

The traced pass wraps each layer's public entry points (functions,
methods and classmethods of the program) with :meth:`SpanLog.wrap`.
Every call records one span — name, start, end, parent span, request id
and optional attributes — in memory; :meth:`SpanLog.write_jsonl` writes
them out when the benchmark ends. Nothing inside the program changes:
:meth:`SpanLog.restore` puts every original attribute back.

A span's *self time* is its duration minus the part of its interval
that its child spans cover (:func:`self_times`).
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from common import peak_rss_mb


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    request: int
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def self_times(spans: "list[Span]") -> "dict[int, float]":
    """Self time of every span: duration minus the union of its children.

    Child intervals are clipped to the parent's interval and merged, so
    overlapping children (work handed to other threads) are not counted
    twice.
    """
    children: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    result = {}
    for span in spans:
        covered = 0.0
        cursor = span.start
        for child in sorted(children.get(span.id, ()), key=lambda s: s.start):
            lo = max(child.start, cursor)
            hi = min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        result[span.id] = span.duration - covered
    return result


class SpanLog:
    """In-memory span recorder plus the wrappers that feed it."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    def _stack(self) -> "list[tuple[int, int]]":
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, attrs: dict | None = None):
        """Record one span around the body; nests under the open span."""
        stack = self._stack()
        span_id = next(self._ids)
        parent, request = stack[-1] if stack else (None, span_id)
        stack.append((span_id, request))
        record = Span(span_id, name, 0.0, 0.0, parent, request,
                      dict(attrs or {}))
        record.start = time.perf_counter()
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            stack.pop()
            self.spans.append(record)

    def wrap(self, owner: object, attr: str, name: str,
             describe: "Callable[[tuple, dict, object], dict] | None" = None,
             rss: bool = False) -> None:
        """Replace ``owner.attr`` with a wrapper recording span *name*.

        *describe* maps ``(args, kwargs, result)`` to span attributes.
        With *rss* the span also records the growth of the process's
        peak RSS across the call (``rss_growth_mb``).
        """
        original = inspect.getattr_static(owner, attr)
        is_classmethod = isinstance(original, classmethod)
        is_staticmethod = isinstance(original, staticmethod)
        func = original.__func__ if (is_classmethod or is_staticmethod) \
            else original
        log = self

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            with log.span(name) as record:
                before = peak_rss_mb() if rss else 0.0
                result = func(*args, **kwargs)
                if rss:
                    record.attrs["rss_growth_mb"] = peak_rss_mb() - before
                if describe is not None:
                    record.attrs.update(describe(args, kwargs, result))
                return result

        if is_classmethod:
            replacement = classmethod(wrapper)
        elif is_staticmethod:
            replacement = staticmethod(wrapper)
        else:
            replacement = wrapper
        setattr(owner, attr, replacement)
        self._patches.append((owner, attr, original))

    def restore(self) -> None:
        """Undo every :meth:`wrap`, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------
    # Reading the record
    # ------------------------------------------------------------------
    def named(self, name: str) -> "list[Span]":
        return [s for s in self.spans if s.name == name]

    def durations(self, name: str) -> "list[float]":
        return [s.duration for s in self.named(name)]

    def write_jsonl(self, path: Path) -> Path:
        """Write every span, with its self time, one JSON object a line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        own = self_times(self.spans)
        with open(path, "w", encoding="utf-8") as out:
            for span in sorted(self.spans, key=lambda s: s.start):
                out.write(json.dumps({
                    "id": span.id, "name": span.name, "start": span.start,
                    "end": span.end, "parent": span.parent,
                    "request": span.request, "self_s": own[span.id],
                    "attrs": span.attrs}, sort_keys=True) + "\n")
        return path
