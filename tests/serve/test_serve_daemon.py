"""End-to-end tests for the ``python -m repro.serve serve`` daemon.

Real subprocesses against the session artifact: the daemon announces its
ephemeral port as one machine-readable stdout line, answers every ops
endpoint while running, drains cleanly on SIGTERM (exit 0, shutdown
postmortem written), and — when startup hits an unreplayable WAL — dies
loudly leaving a postmortem bundle that names the failure.
"""

import dataclasses
import json
import os
import pathlib
import signal
import subprocess
import sys
import urllib.error
import urllib.request

import pytest

from repro import obs
from repro.obs.emitters import lint_exposition
from repro.resilience import faults
from repro.serve import WriteAheadLog
from repro.serve import __main__ as serve_cli

_REPO = pathlib.Path(__file__).resolve().parents[2]


def _spawn(args, extra_env=None):
    env = dict(os.environ, PYTHONPATH=str(_REPO / "src"))
    # The daemon must not inherit a CI chaos-wall fault plan — only the
    # plan a test passes explicitly may fire inside the subprocess.
    env.pop("REPRO_FAULTS", None)
    env.update(extra_env or {})
    return subprocess.Popen(
        [sys.executable, "-m", "repro.serve", "serve", *args],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        cwd=str(_REPO), env=env, text=True)


def _get(url):
    try:
        with urllib.request.urlopen(url, timeout=10.0) as response:
            return response.status, response.read()
    except urllib.error.HTTPError as err:
        return err.code, err.read()


@pytest.mark.slow
def test_daemon_answers_ops_plane_and_drains_cleanly(artifact, tmp_path):
    directory, _ = artifact
    pm_dir = tmp_path / "postmortems"
    proc = _spawn(["--dir", str(directory),
                   "--wal", str(tmp_path / "ingest.wal"),
                   "--postmortem-dir", str(pm_dir),
                   "--final-postmortem",
                   "--duration", "120"])  # watchdog; SIGTERM ends it sooner
    try:
        announce = json.loads(proc.stdout.readline())
        assert announce["pid"] == proc.pid
        assert announce["port"] > 0
        assert announce["artifact"] == str(directory)
        url = announce["url"]

        status, body = _get(url + "/healthz")
        assert status == 200
        assert json.loads(body)["status"] == "alive"

        status, body = _get(url + "/readyz")
        assert status == 200, f"daemon not ready: {body!r}"
        assert json.loads(body)["healthy"] is True

        status, body = _get(url + "/metrics")
        assert status == 200
        text = body.decode("utf-8")
        assert lint_exposition(text) == []
        assert "repro_process_rss_kb" in text
        assert "repro_process_uptime_seconds" in text
        # No ingest has happened, so the WAL file does not exist yet and
        # its position gauge is legitimately absent — but the attached
        # log's lag gauge is live.
        assert "repro_serve_wal_lag 0" in text

        status, body = _get(url + "/slo")
        assert status == 200
        payload = json.loads(body)
        # The WAL-lag objective registered by attach_wal is being judged.
        assert any(s["slo"] == "serve.wal.lag" for s in payload["slos"])

        status, body = _get(url + "/debug/vars")
        assert status == 200
        payload = json.loads(body)
        assert payload["index"]["degraded"] is False
        assert payload["wal"]["path"] == str(tmp_path / "ingest.wal")
        assert payload["flightrec"]["armed"] is True
        assert payload["obs_enabled"] is True

        proc.send_signal(signal.SIGTERM)
        _, stderr = proc.communicate(timeout=60)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate(timeout=30)

    assert proc.returncode == 0, stderr
    assert "draining" in stderr
    assert "serve daemon stopped cleanly" in stderr
    bundles = sorted(pm_dir.glob("postmortem-*.json"))
    assert bundles, "no shutdown postmortem written"
    final = json.loads(bundles[-1].read_text())
    assert final["reason"] == "shutdown"
    assert final["process"]["pid"] == proc.pid


@pytest.mark.slow
def test_startup_wal_replay_failure_leaves_postmortem(artifact, serve_task,
                                                      tmp_path):
    """Acceptance path: a crash inside the WAL machinery names itself.

    A WAL holding one acknowledged-but-unreplayable ingest (every replay
    attempt fires the ``serve.wal.replay`` fault) must kill startup —
    refusing to serve a silently shrunken pool — *after* the armed
    flight recorder wrote a bundle naming the fault site.
    """
    directory, _ = artifact
    pm_dir = tmp_path / "postmortems"
    wal_path = tmp_path / "poison.wal"
    from repro.resilience import faults
    wal = WriteAheadLog(wal_path)
    paper = dataclasses.replace(serve_task.new_papers[0], id="daemon-chaos-0",
                                references=(), citation_count=0)
    with faults.inject(None):  # ambient chaos-wall plans must not fire
        wal.append(paper, 0)
    wal.close()

    proc = _spawn(["--dir", str(directory), "--wal", str(wal_path),
                   "--postmortem-dir", str(pm_dir), "--duration", "120"],
                  extra_env={"REPRO_FAULTS": "serve.wal.replay:1.0"})
    try:
        _, stderr = proc.communicate(timeout=300)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate(timeout=30)

    assert proc.returncode != 0
    assert "WALError" in stderr
    bundles = sorted(pm_dir.glob("postmortem-*.json"))
    assert bundles, "startup crash left no postmortem"
    bundle = json.loads(bundles[0].read_text())
    assert bundle["reason"] == "wal_replay_failed"
    assert bundle["exception"]["type"] == "WALError"
    assert "daemon-chaos-0" in bundle["exception"]["message"]
    # The injected-fault entries captured at fire time name the site and
    # the open replay span.
    fault_entries = [e for e in bundle["entries"] if e["kind"] == "fault"]
    assert fault_entries
    assert fault_entries[0]["name"] == "serve.wal.replay"
    assert "serve.wal.replay" in fault_entries[0]["open_spans"]


def test_daemon_tracer_retains_a_bounded_span_list(artifact, tmp_path,
                                                    monkeypatch):
    """The daemon's tracer evicts old spans instead of keeping one per
    request for the life of the process; its aggregates keep counting."""
    directory, _ = artifact
    bound = 40
    monkeypatch.setattr(serve_cli, "SERVE_MAX_SPANS", bound)
    started = {}
    load = serve_cli._load_or_fit_index

    def capture(args):
        started["task"], started["index"] = load(args)
        return started["task"], started["index"]

    monkeypatch.setattr(serve_cli, "_load_or_fit_index", capture)
    try:
        with faults.inject(None):  # ambient chaos-wall plans must not fire
            assert serve_cli.main([
                "serve", "--dir", str(directory),
                "--wal", str(tmp_path / "ingest.wal"),
                "--postmortem-dir", str(tmp_path / "postmortems"),
                "--duration", "0"]) == 0
            tracer = obs.get_tracer()
            assert tracer.max_spans == bound
            user = started["task"].users[0].author_id
            requests = 3 * bound
            for _ in range(requests):
                started["index"].top_k(user, k=5)
        assert len(tracer.spans) <= bound
        assert tracer.dropped_spans > 0
        assert tracer.aggregate()["serve.query"].calls == requests
    finally:
        obs.get_tracer().max_spans = None
        obs.configure(enabled=False, reset=True)
