"""Bench: per-stage wall time and peak-RSS growth of one NPRec fit.

Fits the ``python -m repro.serve warmup`` pipeline (its corpus, split and
lightened ``NPRecConfig``) once per scale, each in a fresh child process
so the memory it reports belongs to that fit alone. The warmup config
leaves the LOF novelty stage off (``influence_weight=0``); the bench sets
a nonzero weight so that stage runs too. It runs last, so the other
stages fit exactly what ``warmup`` fits. The stages are the program's own
obs spans:

==========================  ==============================================
``nprec.fit.sem``           SEM twin-network fit (Eqs. 13-14)
``nprec.sampling.build``    de-fuzzed training-pair sampling (Sec. IV-C)
``nprec.train``             asymmetric-GCN training (Eqs. 15-23)
``nprec.fit.profile_text``  profile-text correlation module
``nprec.fit.novelty``       LOF novelty of the new papers
==========================  ==============================================

A stage's time is its span's total duration. Its RSS growth is the
kernel's resident-set high-water mark during the span minus the resident
set when the span opened: the child resets the mark (Linux
``/proc/self/clear_refs``) as each stage span starts and reads
``VmHWM`` as it finishes.

Writes ``BENCH_fit.json`` at the repo root and gates the GCN training
stage's RSS growth at scale 0.3. Run:
``PYTHONPATH=src python -m pytest -q benchmarks/test_fit_bench.py``.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import pathlib
import platform
import subprocess
import sys
import time

import pytest

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
SCALES = (0.3, 1.0)
STAGES = ("nprec.fit.sem", "nprec.sampling.build", "nprec.train",
          "nprec.fit.profile_text", "nprec.fit.novelty")
#: Upper bound on ``nprec.train`` RSS growth at scale 0.3. The graph of
#: one training batch needs tens of MB; a graph kept alive across
#: batches (a reference cycle waiting for the cyclic GC) needs GBs.
MAX_TRAIN_RSS_GROWTH_MB = 400.0
CHILD_TIMEOUT_S = 900
#: Turns on the novelty stage, which the warmup config leaves off.
NOVELTY_WEIGHT = 0.1


def _status_mb(field: str) -> float:
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith(field + ":"):
                return int(line.split()[1]) / 1024.0
    raise KeyError(field)


def _reset_peak() -> None:
    with open("/proc/self/clear_refs", "w") as clear:
        clear.write("5")


def child(scale: float) -> dict:
    """One fit at *scale* in this process; per-stage costs as a dict."""
    from repro import obs
    from repro.core.nprec import NPRecRecommender
    from repro.serve.__main__ import _build_task, _fit_config

    obs.configure(enabled=True, reset=True)
    tracer = obs.get_tracer()
    start, finish = tracer.start, tracer.finish
    opened: dict[str, float] = {}
    growth: dict[str, float] = {}
    peak = 0.0

    def start_stage(name, attrs=None):
        nonlocal peak
        if name in STAGES:
            # Resetting the mark loses the peak so far; keep it first.
            peak = max(peak, _status_mb("VmHWM"))
            _reset_peak()
            opened[name] = _status_mb("VmRSS")
        return start(name, attrs)

    def finish_stage(record):
        if record.name in STAGES:
            growth[record.name] = _status_mb("VmHWM") - opened[record.name]
        return finish(record)

    tracer.start, tracer.finish = start_stage, finish_stage
    task = _build_task(scale, 0, 2014, 12)
    recommender = NPRecRecommender(dataclasses.replace(
        _fit_config(0), influence_weight=NOVELTY_WEIGHT))
    began = time.perf_counter()
    recommender.fit(task.corpus, task.train_papers, task.new_papers)
    fit_s = time.perf_counter() - began
    totals = tracer.aggregate()
    return {
        "scale": scale,
        "train_papers": len(task.train_papers),
        "new_papers": len(task.new_papers),
        "fit_s": round(fit_s, 3),
        "fit_peak_rss_mb": round(max(peak, _status_mb("VmHWM")), 1),
        "stages": {name: {"s": round(totals[name].total, 3),
                          "rss_growth_mb": round(growth[name], 1)}
                   for name in STAGES},
    }


def _spawn(scale: float) -> dict:
    env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
    done = subprocess.run(
        [sys.executable, str(pathlib.Path(__file__).resolve()),
         "--scale", str(scale)],
        capture_output=True, text=True, env=env, timeout=CHILD_TIMEOUT_S,
        check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.skipif(not os.path.exists("/proc/self/clear_refs"),
                    reason="per-stage peak RSS needs Linux /proc")
def test_fit_stage_costs():
    runs = [_spawn(scale) for scale in SCALES]
    report = {
        "command": "PYTHONPATH=src python -m pytest -q "
                   "benchmarks/test_fit_bench.py",
        "pipeline": "python -m repro.serve warmup: _build_task(scale, 0, "
                    "2014, 12) fitted with _fit_config(0), plus "
                    f"influence_weight={NOVELTY_WEIGHT} for the novelty stage",
        "stage_time": "total duration of the program's obs span",
        "stage_rss_growth": "VmHWM during the span minus VmRSS at its start",
        "machine": {"python": platform.python_version(),
                    "cpus": os.cpu_count()},
        "gate": {"stage": "nprec.train", "scale": SCALES[0],
                 "max_rss_growth_mb": MAX_TRAIN_RSS_GROWTH_MB},
        "runs": runs,
    }
    (REPO_ROOT / "BENCH_fit.json").write_text(json.dumps(report, indent=2)
                                              + "\n")

    for run in runs:
        for name in STAGES:
            assert run["stages"][name]["s"] > 0, (run["scale"], name)
    train = runs[0]["stages"]["nprec.train"]
    assert train["rss_growth_mb"] <= MAX_TRAIN_RSS_GROWTH_MB, train


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", type=float, required=True)
    print(json.dumps(child(parser.parse_args().scale)))
