"""Exporters for captured observability data.

Three output formats, all derived from the same registry + tracer pair:

- :func:`write_jsonl` / :func:`read_jsonl` — one JSON object per line
  (a ``meta`` header, then spans in start order, then metric snapshots);
  the capture format consumed by ``python -m repro.obs report``.
- :func:`prometheus_text` — the Prometheus text exposition format, for
  scraping or diffing against a golden file.
- :func:`console_summary` — a fixed-width human summary (span aggregates
  plus metric values).
"""

from __future__ import annotations

import json
import math
import pathlib
import re

from repro.obs import config
from repro.obs.metrics import Counter, Gauge, MetricsRegistry
from repro.obs.quantiles import Quantile
from repro.obs.tracing import Tracer

_NAME_RE = re.compile(r"[^a-zA-Z0-9_:]")


def _prom_name(name: str) -> str:
    """Map a dotted metric name to a legal Prometheus metric name."""
    sanitized = _NAME_RE.sub("_", name)
    if sanitized and sanitized[0].isdigit():
        sanitized = "_" + sanitized
    return "repro_" + sanitized


def _escape_label(value: object) -> str:
    # Prometheus label values escape backslash, double quote, and (per
    # the exposition-format spec) line feeds — a value containing a raw
    # newline would otherwise split the sample line in two.
    return (str(value).replace("\\", "\\\\").replace('"', '\\"')
            .replace("\n", "\\n"))


def _prom_labels(labels: dict[str, str], extra: dict[str, str] | None = None) -> str:
    merged = {**labels, **(extra or {})}
    if not merged:
        return ""
    inner = ",".join(f'{_NAME_RE.sub("_", k)}="{_escape_label(v)}"'
                     for k, v in sorted(merged.items()))
    return "{" + inner + "}"


def _prom_value(value: float) -> str:
    if value != value:  # NaN
        return "NaN"
    if value == math.inf:
        return "+Inf"
    if value == -math.inf:
        return "-Inf"
    return repr(float(value)) if value % 1 else str(int(value))


#: Operator-facing help text for dotted metric names; families without
#: an entry get a generated default naming the source metric and kind.
_HELP_TEXTS: dict[str, str] = {}


def set_metric_help(name: str, text: str) -> None:
    """Register the ``# HELP`` text emitted for the dotted metric *name*."""
    _HELP_TEXTS[name] = text


def _prom_help(dotted: str, kind: str) -> str:
    # HELP text escapes backslash and line feed (but NOT double quote —
    # help lines are unquoted in the exposition format).
    text = _HELP_TEXTS.get(dotted) or f"repro metric {dotted} ({kind})"
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def prometheus_text(registry: MetricsRegistry | None = None) -> str:
    """Render every metric in the Prometheus text exposition format.

    Each family is announced by exactly one ``# HELP`` line (registered
    via :func:`set_metric_help`, or a generated default) followed by
    exactly one ``# TYPE`` line, then its samples — the structure
    :func:`lint_exposition` verifies.
    """
    registry = registry if registry is not None else config.get_registry()
    lines: list[str] = []
    seen_types: set[str] = set()
    for metric in registry.collect():
        name = _prom_name(metric.name)
        if name not in seen_types:
            # Prometheus has no native "quantile" kind; the Quantile
            # family maps onto its summary type.
            kind = "summary" if metric.kind == "quantile" else metric.kind
            lines.append(f"# HELP {name} {_prom_help(metric.name, kind)}")
            lines.append(f"# TYPE {name} {kind}")
            seen_types.add(name)
        if isinstance(metric, (Counter, Gauge)):
            lines.append(f"{name}{_prom_labels(metric.labels)} "
                         f"{_prom_value(metric.value)}")
        elif isinstance(metric, Quantile):
            for q, estimate in metric.estimates().items():
                value = "NaN" if estimate is None else _prom_value(estimate)
                lines.append(
                    f"{name}"
                    f"{_prom_labels(metric.labels, {'quantile': format(q, 'g')})}"
                    f" {value}")
            lines.append(f"{name}_sum{_prom_labels(metric.labels)} "
                         f"{_prom_value(metric.sum)}")
            lines.append(f"{name}_count{_prom_labels(metric.labels)} "
                         f"{metric.count}")
    return "\n".join(lines) + ("\n" if lines else "")


#: One sample line: name, optional {labels}, one space, value.
_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>(?:[a-zA-Z_][a-zA-Z0-9_]*=\"(?:[^\"\\\n]|\\.)*\",?)*)\})?"
    r" (?P<value>[^ ]+)$")
_LABEL_RE = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\\n]|\\.)*)"')
_VALUE_RE = re.compile(r"^(NaN|[+-]Inf|[+-]?\d+(\.\d+)?([eE][+-]?\d+)?)$")


def _parse_le(raw: str) -> float:
    return math.inf if raw == "+Inf" else float(raw)


def lint_exposition(text: str) -> list[str]:
    """Structural lint of a Prometheus text exposition; returns problems.

    Checks the invariants a scraper relies on: every family announced by
    exactly one ``# HELP`` then exactly one ``# TYPE`` before any of its
    samples; sample lines well-formed (legal metric/label names, quoted
    and escape-valid label values, parseable value); samples grouped
    under their family (``_bucket``/``_sum``/``_count`` suffixes allowed
    for histograms and summaries); histogram buckets in increasing
    ``le`` order with cumulative counts, a ``+Inf`` bucket, and a
    ``_count`` equal to it. An empty list means the text is scrape-clean
    — the contract ``GET /metrics`` and the golden-file test hold
    :func:`prometheus_text` to.
    """
    problems: list[str] = []
    helped: set[str] = set()
    typed: dict[str, str] = {}
    sampled: set[str] = set()
    current: str | None = None
    # Per-histogram-child bucket state, keyed by the sorted label string
    # (minus ``le``): [last_le, last_count, saw_inf, inf_count].
    buckets: dict[str, list] = {}

    def _family_of(name: str) -> str:
        kind_of = typed.get(current or "", "")
        if kind_of in ("histogram", "summary"):
            for suffix in ("_bucket", "_sum", "_count"):
                if name == (current or "") + suffix:
                    return current  # type: ignore[return-value]
        return name

    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line:
            problems.append(f"line {lineno}: blank line in exposition")
            continue
        if line.startswith("# HELP "):
            parts = line.split(" ", 3)
            if len(parts) < 4 or not parts[3]:
                problems.append(f"line {lineno}: HELP without text")
                continue
            name = parts[2]
            if name in helped:
                problems.append(f"line {lineno}: duplicate HELP for {name}")
            if name in typed or name in sampled:
                problems.append(
                    f"line {lineno}: HELP for {name} after its TYPE/samples")
            helped.add(name)
            current = name
        elif line.startswith("# TYPE "):
            parts = line.split(" ")
            if len(parts) != 4:
                problems.append(f"line {lineno}: malformed TYPE line")
                continue
            name, kind = parts[2], parts[3]
            if kind not in ("counter", "gauge", "histogram", "summary",
                            "untyped"):
                problems.append(f"line {lineno}: unknown kind {kind!r}")
            if name in typed:
                problems.append(f"line {lineno}: duplicate TYPE for {name}")
            if name not in helped:
                problems.append(f"line {lineno}: TYPE for {name} without HELP")
            if name in sampled:
                problems.append(
                    f"line {lineno}: TYPE for {name} after its samples")
            typed[name] = kind
            current = name
        elif line.startswith("#"):
            problems.append(f"line {lineno}: unexpected comment {line!r}")
        else:
            match = _SAMPLE_RE.match(line)
            if match is None:
                problems.append(f"line {lineno}: malformed sample {line!r}")
                continue
            name = match.group("name")
            raw_labels = match.group("labels") or ""
            labels = dict(_LABEL_RE.findall(raw_labels))
            if not _VALUE_RE.match(match.group("value")):
                problems.append(
                    f"line {lineno}: unparseable value {match.group('value')!r}")
            family = _family_of(name)
            if family not in typed:
                problems.append(f"line {lineno}: sample {name} without TYPE")
            elif family != current:
                problems.append(
                    f"line {lineno}: sample {name} outside its family block")
            sampled.add(family)
            if (typed.get(family) == "histogram"
                    and name == family + "_bucket"):
                if "le" not in labels:
                    problems.append(f"line {lineno}: bucket without le label")
                    continue
                child = ",".join(f"{k}={v}" for k, v in sorted(labels.items())
                                 if k != "le")
                le = _parse_le(labels["le"])
                count = float(match.group("value"))
                state = buckets.setdefault(family + "{" + child + "}",
                                           [-math.inf, 0.0, False, 0.0])
                if le <= state[0]:
                    problems.append(
                        f"line {lineno}: bucket le={labels['le']} out of order")
                if count < state[1]:
                    problems.append(
                        f"line {lineno}: bucket counts not cumulative")
                state[0], state[1] = le, count
                if le == math.inf:
                    state[2], state[3] = True, count
            elif (typed.get(family) == "histogram"
                    and name == family + "_count"):
                child = ",".join(f"{k}={v}"
                                 for k, v in sorted(labels.items()))
                state = buckets.get(family + "{" + child + "}")
                if state is None or not state[2]:
                    problems.append(
                        f"line {lineno}: histogram {family} missing +Inf "
                        "bucket before _count")
                elif float(match.group("value")) != state[3]:
                    problems.append(
                        f"line {lineno}: {family}_count != +Inf bucket count")
    for name in helped:
        if name not in typed:
            problems.append(f"family {name}: HELP without TYPE")
    return problems


# ----------------------------------------------------------------------
# JSON lines
# ----------------------------------------------------------------------
def events(registry: MetricsRegistry | None = None,
           tracer: Tracer | None = None,
           meta: dict[str, object] | None = None) -> list[dict[str, object]]:
    """The capture as a list of JSON-ready event dicts.

    Line order: one ``meta`` header, spans in start order, metric
    snapshots, structured event-log lines (``type: "event"``), then
    retained request exemplars (``type: "exemplar"``, full span trees).
    When *registry*/*tracer* are passed explicitly (offline renders of
    foreign state) the global event log and exemplar reservoir are
    skipped — they only describe the live global capture.
    """
    offline = registry is not None or tracer is not None
    registry = registry if registry is not None else config.get_registry()
    tracer = tracer if tracer is not None else config.get_tracer()
    event_log = [] if offline else list(config._STATE.events)
    exemplars = ([] if offline
                 else config.get_exemplars().snapshot())
    header: dict[str, object] = {
        "type": "meta",
        "epoch_wall": tracer.epoch_wall,
        "spans": len(tracer.spans),
        "metrics": len(registry),
        "events": len(event_log),
        "exemplars": len(exemplars),
    }
    if tracer.dropped_spans:
        header["dropped_spans"] = tracer.dropped_spans
    if meta:
        header.update(meta)
    out: list[dict[str, object]] = [header]
    out.extend(span.snapshot() for span in tracer.ordered())
    out.extend(registry.snapshot())
    out.extend(event_log)
    out.extend(exemplars)
    return out


def write_jsonl(path: str | pathlib.Path,
                registry: MetricsRegistry | None = None,
                tracer: Tracer | None = None,
                meta: dict[str, object] | None = None) -> pathlib.Path:
    """Write the capture to *path* as JSON lines; returns the path."""
    path = pathlib.Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = [json.dumps(event, sort_keys=True)
             for event in events(registry, tracer, meta)]
    path.write_text("\n".join(lines) + "\n")
    return path


def read_jsonl(path: str | pathlib.Path) -> list[dict[str, object]]:
    """Parse a capture written by :func:`write_jsonl`."""
    out = []
    for i, line in enumerate(pathlib.Path(path).read_text().splitlines()):
        line = line.strip()
        if not line:
            continue
        try:
            out.append(json.loads(line))
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}:{i + 1}: not valid JSON: {exc}") from None
    return out


# ----------------------------------------------------------------------
# Human rendering
# ----------------------------------------------------------------------
def _format_seconds(seconds: float) -> str:
    if seconds >= 1.0:
        return f"{seconds:.2f}s"
    return f"{seconds * 1000:.2f}ms"


def _metric_line(event: dict[str, object]) -> str:
    labels = event.get("labels") or {}
    label_str = ("{" + ", ".join(f"{k}={v}" for k, v in sorted(labels.items()))
                 + "}") if labels else ""
    name = f"{event['name']}{label_str}"
    if event["kind"] in ("counter", "gauge"):
        return f"  {name}  {event['value']:g}"
    # A distribution: a quantile summary, or a ``histogram`` event from a
    # capture written before summaries became the only distribution kind.
    count = event["count"]
    mean = (event["sum"] / count) if count else 0.0
    estimates = event.get("quantiles") or {}
    rendered = "".join(
        f" p{format(float(q) * 100, 'g')}="
        + ("-" if est is None else f"{est:.4g}")
        for q, est in sorted(estimates.items(), key=lambda kv: float(kv[0])))
    return f"  {name}  count={count} mean={mean:.4g}{rendered}"


def _trace_lines(spans: list[dict[str, object]], title: str) -> list[str]:
    lines = [title, "-" * len(title)]
    for span in sorted(spans, key=lambda s: s["index"]):
        indent = "  " * int(span["depth"])
        attrs = span.get("attrs") or {}
        attr_str = (" [" + ", ".join(f"{k}={v}" for k, v in attrs.items())
                    + "]") if attrs else ""
        lines.append(f"{indent}{span['name']}  "
                     f"{_format_seconds(float(span['duration']))}{attr_str}")
    return lines


def _span_total_lines(spans: list[dict[str, object]], title: str) -> list[str]:
    # Per-name aggregate mirrors Tracer.aggregate for offline captures.
    grouped: dict[str, list[float]] = {}
    for span in spans:
        grouped.setdefault(str(span["name"]), []).append(float(span["duration"]))
    lines = [title, "-" * len(title)]
    width = max(len(n) for n in grouped)
    for name in sorted(grouped):
        durations = grouped[name]
        lines.append(
            f"  {name.ljust(width)}  calls={len(durations):<5d} "
            f"total={_format_seconds(sum(durations)):>9s} "
            f"mean={_format_seconds(sum(durations) / len(durations)):>9s} "
            f"max={_format_seconds(max(durations)):>9s}")
    return lines


def _event_line(event: dict[str, object]) -> str:
    extras = {k: v for k, v in event.items()
              if k not in ("type", "name", "time", "trace_id")}
    extra_str = (" " + " ".join(f"{k}={v}" for k, v in sorted(extras.items()))
                 if extras else "")
    trace = event.get("trace_id") or "-"
    return f"  {event['name']}  trace={trace}{extra_str}"


def _exemplar_summary_line(exemplar: dict[str, object]) -> str:
    spans = exemplar.get("spans") or []
    tag = (f"error={exemplar['error']}" if exemplar.get("error")
           else "slow")
    return (f"  [{tag}] {exemplar['name']}  "
            f"{_format_seconds(float(exemplar['duration']))}  "
            f"trace={exemplar['trace_id']}  spans={len(spans)}")


def render_exemplars(captured: list[dict[str, object]]) -> str:
    """Render every retained request exemplar as a full span tree."""
    exemplars = [e for e in captured if e.get("type") == "exemplar"]
    if not exemplars:
        return "(no exemplars in capture)"
    lines: list[str] = []
    for exemplar in exemplars:
        if lines:
            lines.append("")
        title = (f"Exemplar [{exemplar['reason']}] {exemplar['name']}  "
                 f"{_format_seconds(float(exemplar['duration']))}  "
                 f"trace={exemplar['trace_id']}")
        if exemplar.get("error"):
            title += f"  error={exemplar['error']}"
        spans = list(exemplar.get("spans") or [])
        lines.extend(_trace_lines(spans, title) if spans
                     else [title, "-" * len(title), "  (no spans captured)"])
    return "\n".join(lines)


def render_report(captured: list[dict[str, object]]) -> str:
    """Pretty-print a parsed JSONL capture: span tree + metric list."""
    spans = [e for e in captured if e.get("type") == "span"]
    metrics = [e for e in captured if e.get("type") == "metric"]
    event_log = [e for e in captured if e.get("type") == "event"]
    exemplars = [e for e in captured if e.get("type") == "exemplar"]
    lines: list[str] = []
    if spans:
        lines.extend(_trace_lines(spans, "Trace"))
        lines.append("")
        lines.extend(_span_total_lines(spans, "Span totals"))
    if metrics:
        if lines:
            lines.append("")
        lines.append("Metrics")
        lines.append("-------")
        lines.extend(_metric_line(m) for m in metrics)
    if event_log:
        if lines:
            lines.append("")
        lines.append("Events")
        lines.append("------")
        lines.extend(_event_line(e) for e in event_log)
    if exemplars:
        if lines:
            lines.append("")
        lines.append("Exemplars (render trees with: report --exemplars)")
        lines.append("--------------------------------------------------")
        lines.extend(_exemplar_summary_line(e) for e in exemplars)
    if not lines:
        lines.append("(empty capture: no spans, no metrics)")
    return "\n".join(lines)


def render_multi_report(captures: list[tuple[str, list[dict[str, object]]]]) -> str:
    """Merge several parsed captures into one labelled report.

    Each capture keeps its own trace tree and metric list (sections are
    labelled with the source name — counters from different runs must
    not be summed), while span durations are additionally aggregated
    across *all* captures so per-stage totals over, say, a whole
    benchmark suite read off one table.
    """
    if len(captures) == 1:
        return render_report(captures[0][1])
    lines: list[str] = []
    all_spans: list[dict[str, object]] = []
    for label, captured in captures:
        spans = [e for e in captured if e.get("type") == "span"]
        if not spans:
            continue
        all_spans.extend(spans)
        if lines:
            lines.append("")
        lines.extend(_trace_lines(spans, f"Trace — {label}"))
    if all_spans:
        lines.append("")
        lines.extend(_span_total_lines(
            all_spans, f"Span totals ({len(captures)} captures)"))
    for label, captured in captures:
        metrics = [e for e in captured if e.get("type") == "metric"]
        if not metrics:
            continue
        if lines:
            lines.append("")
        title = f"Metrics — {label}"
        lines.append(title)
        lines.append("-" * len(title))
        lines.extend(_metric_line(m) for m in metrics)
    if not lines:
        lines.append("(empty captures: no spans, no metrics)")
    return "\n".join(lines)


def console_summary(registry: MetricsRegistry | None = None,
                    tracer: Tracer | None = None) -> str:
    """Human summary of the live in-process capture."""
    return render_report(events(registry, tracer)[1:])
