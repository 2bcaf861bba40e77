"""Tests for the JSONL / Prometheus / console emitters and the report CLI."""

import pytest

from repro import obs
from repro.obs.__main__ import main as obs_main
from repro.obs.emitters import (
    console_summary,
    prometheus_text,
    read_jsonl,
    render_multi_report,
    render_report,
    write_jsonl,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracing import Tracer


def small_registry() -> MetricsRegistry:
    reg = MetricsRegistry()
    reg.counter("nprec.train.grad_steps", strategy="defuzz").inc(42)
    reg.gauge("graph.nodes", type="paper").set(120)
    q = reg.quantile("nprec.train.epoch_loss")
    q.observe(0.25)
    q.observe(0.75)
    q.observe(2.0)
    return reg


class TestPrometheusText:
    def test_golden_format(self):
        # Golden test: the full exposition output for a fixed registry.
        assert prometheus_text(small_registry()) == (
            "# HELP repro_graph_nodes repro metric graph.nodes (gauge)\n"
            "# TYPE repro_graph_nodes gauge\n"
            'repro_graph_nodes{type="paper"} 120\n'
            "# HELP repro_nprec_train_epoch_loss repro metric "
            "nprec.train.epoch_loss (summary)\n"
            "# TYPE repro_nprec_train_epoch_loss summary\n"
            'repro_nprec_train_epoch_loss{quantile="0.5"} 0.75\n'
            'repro_nprec_train_epoch_loss{quantile="0.9"} 1.75\n'
            'repro_nprec_train_epoch_loss{quantile="0.99"} 1.975\n'
            "repro_nprec_train_epoch_loss_sum 3\n"
            "repro_nprec_train_epoch_loss_count 3\n"
            "# HELP repro_nprec_train_grad_steps repro metric "
            "nprec.train.grad_steps (counter)\n"
            "# TYPE repro_nprec_train_grad_steps counter\n"
            'repro_nprec_train_grad_steps{strategy="defuzz"} 42\n'
        )

    def test_empty_registry_renders_empty(self):
        assert prometheus_text(MetricsRegistry()) == ""

    def test_label_values_escaped(self):
        reg = MetricsRegistry()
        reg.counter("weird", path='a"b\\c').inc()
        assert '{path="a\\"b\\\\c"}' in prometheus_text(reg)

    def test_newlines_in_label_values_escaped(self):
        # A raw newline would split the sample line in two and corrupt
        # the whole exposition; the spec says escape it as \n.
        reg = MetricsRegistry()
        reg.counter("weird", msg="line1\nline2").inc()
        text = prometheus_text(reg)
        assert '{msg="line1\\nline2"}' in text
        assert all(line.startswith(("#", "repro_"))
                   for line in text.strip().splitlines())

    def test_quantile_renders_as_summary(self):
        reg = MetricsRegistry()
        q = reg.quantile("serve.query.latency", route="top_k")
        for v in (0.1, 0.2, 0.3):
            q.observe(v)
        lines = prometheus_text(reg).strip().splitlines()
        assert lines[0].startswith("# HELP repro_serve_query_latency ")
        assert lines[1] == "# TYPE repro_serve_query_latency summary"
        assert 'repro_serve_query_latency{quantile="0.5",route="top_k"} 0.2' \
            in lines
        assert any(l.startswith(
            'repro_serve_query_latency{quantile="0.99"') for l in lines)
        assert 'repro_serve_query_latency_sum{route="top_k"} 0.6000000000000001' \
            in lines
        assert 'repro_serve_query_latency_count{route="top_k"} 3' in lines

    def test_empty_quantile_renders_nan(self):
        reg = MetricsRegistry()
        reg.quantile("idle.latency")
        text = prometheus_text(reg)
        assert 'repro_idle_latency{quantile="0.5"} NaN' in text
        assert "repro_idle_latency_count 0" in text


class TestJsonl:
    def test_roundtrip(self, tmp_path):
        tracer = Tracer()
        outer = tracer.start("outer", {"run": 1})
        tracer.finish(tracer.start("inner"))
        tracer.finish(outer)
        path = write_jsonl(tmp_path / "sub" / "cap.jsonl",
                           registry=small_registry(), tracer=tracer,
                           meta={"benchmark": "demo"})
        events = read_jsonl(path)
        meta, *rest = events
        assert meta["type"] == "meta"
        assert meta["benchmark"] == "demo"
        assert meta["spans"] == 2 and meta["metrics"] == 3
        spans = [e for e in rest if e["type"] == "span"]
        metrics = [e for e in rest if e["type"] == "metric"]
        # Spans serialise in start order, not finish order.
        assert [s["name"] for s in spans] == ["outer", "inner"]
        assert spans[1]["parent"] == spans[0]["index"]
        assert {m["kind"] for m in metrics} == {"counter", "gauge", "quantile"}

    def test_read_rejects_garbage(self, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"ok": 1}\nnot json\n')
        with pytest.raises(ValueError, match="bad.jsonl:2"):
            read_jsonl(bad)


class TestReportRendering:
    def test_report_contains_tree_totals_and_metrics(self, tmp_path):
        tracer = Tracer()
        outer = tracer.start("fit")
        tracer.finish(tracer.start("fit.sem"))
        tracer.finish(outer)
        path = write_jsonl(tmp_path / "cap.jsonl", registry=small_registry(),
                           tracer=tracer)
        report = render_report(read_jsonl(path))
        assert "Trace" in report
        assert "\n  fit.sem" in report  # indented child
        assert "Span totals" in report
        assert "calls=1" in report
        assert "Metrics" in report
        assert "graph.nodes{type=paper}  120" in report

    def test_distributions_render_count_and_mean(self):
        # Quantile events, and the histogram events of captures written
        # before summaries became the one distribution kind, read alike.
        quantile = {"type": "metric", "kind": "quantile", "name": "new.lat",
                    "labels": {}, "count": 2, "sum": 1.0, "min": 0.25,
                    "max": 0.75, "quantiles": {"0.5": 0.5}}
        histogram = {"type": "metric", "kind": "histogram",
                     "name": "old.seconds", "labels": {}, "count": 4,
                     "sum": 2.0, "min": 0.1, "max": 1.0,
                     "buckets": [[1.0, 4]]}
        report = render_report([quantile, histogram])
        assert "  new.lat  count=2 mean=0.5 p50=0.5" in report
        assert "  old.seconds  count=4 mean=0.5" in report

    def test_empty_capture_message(self):
        assert "empty capture" in render_report([{"type": "meta"}])

    def test_console_summary_uses_global_state(self, obs_enabled):
        with obs.trace("live.span"):
            obs.count("live.counter", 2)
        summary = console_summary()
        assert "live.span" in summary
        assert "live.counter  2" in summary


class TestMultiReport:
    def _capture(self, tmp_path, name, span, counter_value):
        tracer = Tracer()
        tracer.finish(tracer.start(span))
        reg = MetricsRegistry()
        reg.counter("c").inc(counter_value)
        return write_jsonl(tmp_path / name, registry=reg, tracer=tracer)

    def test_single_capture_matches_render_report(self, tmp_path):
        path = self._capture(tmp_path, "a.jsonl", "fit", 1)
        captured = read_jsonl(path)
        assert render_multi_report([("a", captured)]) == render_report(captured)

    def test_sections_labelled_and_totals_merged(self, tmp_path):
        a = read_jsonl(self._capture(tmp_path, "a.jsonl", "fit", 1))
        b = read_jsonl(self._capture(tmp_path, "b.jsonl", "fit", 2))
        report = render_multi_report([("a.jsonl", a), ("b.jsonl", b)])
        assert "Trace — a.jsonl" in report
        assert "Trace — b.jsonl" in report
        assert "Span totals (2 captures)" in report
        assert "calls=2" in report  # fit aggregated across both captures
        # Metric sections stay per source: counters are NOT summed.
        assert "Metrics — a.jsonl" in report
        assert "Metrics — b.jsonl" in report
        assert "c  1" in report and "c  2" in report
        assert "c  3" not in report

    def test_quantile_line_in_console_report(self, obs_enabled):
        obs.observe("q.latency", 0.5)
        summary = console_summary()
        assert "q.latency" in summary
        assert "count=1" in summary and "p99=0.5" in summary


class TestCli:
    def test_report_command(self, tmp_path, capsys):
        tracer = Tracer()
        tracer.finish(tracer.start("stage"))
        path = write_jsonl(tmp_path / "cap.jsonl",
                           registry=MetricsRegistry(), tracer=tracer)
        assert obs_main(["report", str(path)]) == 0
        assert "stage" in capsys.readouterr().out

    def test_report_merges_multiple_files(self, tmp_path, capsys):
        paths = []
        for name in ("one", "two"):
            tracer = Tracer()
            tracer.finish(tracer.start(f"stage.{name}"))
            paths.append(str(write_jsonl(tmp_path / f"{name}.jsonl",
                                         registry=MetricsRegistry(),
                                         tracer=tracer)))
        assert obs_main(["report", *paths]) == 0
        out = capsys.readouterr().out
        assert "stage.one" in out and "stage.two" in out
        assert "Span totals (2 captures)" in out

    def test_report_missing_file_fails(self, tmp_path, capsys):
        assert obs_main(["report", str(tmp_path / "nope.jsonl")]) == 1
        assert "error" in capsys.readouterr().err

    def test_report_renders_readable_files_despite_failures(self, tmp_path,
                                                            capsys):
        tracer = Tracer()
        tracer.finish(tracer.start("good.stage"))
        good = write_jsonl(tmp_path / "good.jsonl",
                           registry=MetricsRegistry(), tracer=tracer)
        assert obs_main(["report", str(tmp_path / "nope.jsonl"),
                         str(good)]) == 1
        captured = capsys.readouterr()
        assert "error" in captured.err
        assert "good.stage" in captured.out
