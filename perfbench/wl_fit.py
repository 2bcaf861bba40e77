"""The ``fit`` workload: one NPRec fit per fresh child process.

Each child generates the CLI's warmup task, runs one
``NPRecRecommender.fit`` with the CLI's configuration seeded by the
workload seed (observability off, as in ``warmup``), saves the pipeline,
loads it back and checks that the reloaded artifact ranks bit-identically.
It then measures nDCG@10 on the held-out users. A fresh process per fit
means the peak RSS it reports belongs to that fit alone.

The corpus is the fixed preset, so every run fits the same 185/85 papers;
the seed drives the fit's own randomness (SEM triplets, pair sampling,
initial weights, batch order) and therefore the model it produces.

Run as a child: ``python3 perfbench/wl_fit.py --seed N --trace 0|1 --spans PATH``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from common import (BENCH_DIR, WORK, log, median, peak_rss_mb,
                    require_source, schedule_sha)

CHILD_TIMEOUT_S = 150.0
#: Fit stages timed in the traced child, by span name.
STAGES = ("core.sem.fit", "core.sem.fused_embeddings", "graph.build",
          "core.nprec.sampling", "core.nprec.train",
          "baselines.profile_text.fit", "serve.artifacts.save",
          "serve.artifacts.load")
#: Stages whose peak-RSS growth is recorded.
RSS_STAGES = ("core.sem.fit", "core.nprec.train")
#: Wrapper span -> the program's own obs span for the same stage.
CROSS_CHECK = {"core.sem.fit": "nprec.fit.sem",
               "core.nprec.train": "nprec.train",
               "baselines.profile_text.fit": "nprec.fit.profile_text"}


def _wrap_fit(spans) -> None:
    from repro.baselines.neural import JTIERecommender
    from repro.core.nprec import recommend
    from repro.core.nprec.trainer import NPRecTrainer
    from repro.core.sem import SubspaceEmbeddingMethod
    from repro.serve import artifacts
    spans.wrap(recommend.NPRecRecommender, "fit", "core.nprec.fit")
    spans.wrap(SubspaceEmbeddingMethod, "fit", "core.sem.fit", rss=True)
    spans.wrap(SubspaceEmbeddingMethod, "fused_embeddings",
               "core.sem.fused_embeddings")
    # recommend.fit calls these through its own module globals.
    spans.wrap(recommend, "build_academic_network", "graph.build")
    spans.wrap(recommend, "build_training_pairs", "core.nprec.sampling")
    spans.wrap(NPRecTrainer, "train", "core.nprec.train", rss=True)
    spans.wrap(JTIERecommender, "fit", "baselines.profile_text.fit")
    spans.wrap(artifacts, "save_pipeline", "serve.artifacts.save")
    spans.wrap(artifacts, "load_pipeline", "serve.artifacts.load")


# ----------------------------------------------------------------------
# Child: one fit
# ----------------------------------------------------------------------
def child(seed: int, trace: bool, spans_path: Path | None) -> dict:
    from repro import obs
    from repro.core.nprec import NPRecRecommender
    from repro.experiments.protocol import evaluate_recommender
    from repro.serve import artifacts
    from fixture import fit_config, fit_task
    from checks import rankings_identical
    from spans import SpanLog

    spans = SpanLog()
    if trace:
        # The program's own spans are the cross-check for the wrappers.
        obs.configure(enabled=True, reset=True)
        _wrap_fit(spans)
    else:
        obs.configure(enabled=False, reset=True)
    task = fit_task()
    recommender = NPRecRecommender(fit_config(seed))
    began = time.perf_counter()
    recommender.fit(task.corpus, task.train_papers, task.new_papers)
    fit_s = time.perf_counter() - began
    rss = peak_rss_mb()
    with tempfile.TemporaryDirectory(dir=WORK) as scratch:
        artifacts.save_pipeline(recommender, scratch, corpus=task.corpus)
        reloaded = artifacts.load_pipeline(scratch)
    identical = rankings_identical(recommender, reloaded, task.users,
                                   [p.id for p in task.new_papers])
    ndcg = evaluate_recommender(recommender, task, ks=(10,),
                                fit=False)["ndcg@10"]
    result = {"fit_s": fit_s, "peak_rss_mb": rss, "identical": identical,
              "ndcg_at_10": ndcg, "users": len(task.users)}
    if trace:
        spans.restore()
        stages = {}
        for name in STAGES:
            named = spans.named(name)
            stages[name] = {
                "s": sum(s.duration for s in named),
                "rss_growth_mb": sum(s.attrs.get("rss_growth_mb", 0.0)
                                     for s in named)}
        aggregate = obs.get_tracer().aggregate()
        errors = {}
        for ours, theirs in CROSS_CHECK.items():
            program = aggregate[theirs].total if theirs in aggregate else 0.0
            errors[ours] = (abs(stages[ours]["s"] - program)
                            / max(program, 1e-9))
        result["stages"] = stages
        result["cross_check_rel_err"] = errors
        if spans_path is not None:
            spans.write_jsonl(spans_path)
    return result


# ----------------------------------------------------------------------
# Parent: the workload
# ----------------------------------------------------------------------
def _spawn(seed: int, trace: bool, spans_path: Path | None) -> dict | None:
    command = [sys.executable, str(BENCH_DIR / "wl_fit.py"),
               "--seed", str(seed), "--trace", str(int(trace))]
    if spans_path is not None:
        command += ["--spans", str(spans_path)]
    try:
        done = subprocess.run(command, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("fit child timed out")
        return None
    if done.returncode != 0:
        log(f"fit child failed:\n{done.stderr[-2000:]}")
        return None
    return json.loads(done.stdout.strip().splitlines()[-1])


def _setup_times(spans=None) -> tuple:
    """Cold start of a fit: generating the corpus and the evaluation task.

    Returns the times of seven repetitions and the last task.
    """
    from fixture import fit_task
    times = []
    for _ in range(7):
        began = time.perf_counter()
        if spans is None:
            task = fit_task()
        else:
            with spans.span("data.corpus"):
                task = fit_task()
        times.append(time.perf_counter() - began)
    return times, task


def run(seed: int, seconds: float, trace: bool) -> dict:
    from spans import SpanLog

    spans = SpanLog() if trace else None
    setup, task = _setup_times(spans)
    schedule = {"workload": "fit", "seed": seed, "corpus": "acm",
                "train": [p.id for p in task.train_papers],
                "new": [p.id for p in task.new_papers],
                "users": [u.author_id for u in task.users]}
    log(f"fit schedule sha256 {schedule_sha(schedule)}")
    WORK.mkdir(parents=True, exist_ok=True)

    if trace:
        plain = _spawn(seed, False, None)
        spans_path = WORK / "traces" / f"fit-{seed}-child.jsonl"
        traced = _spawn(seed, True, spans_path)
        fits = [r for r in (plain, traced) if r is not None]
        attempted = 2
    else:
        fits, attempted = [], 0
        began = time.perf_counter()
        while attempted == 0 or time.perf_counter() - began < seconds:
            attempted += 1
            result = _spawn(seed, False, None)
            if result is not None:
                fits.append(result)
    good = [f for f in fits if f["identical"]]
    failed = attempted - len(good)
    for fit in fits:
        log(f"fit {fit['fit_s']:.2f} s, peak rss {fit['peak_rss_mb']:.0f} MB, "
            f"ndcg@10 {fit['ndcg_at_10']:.4f} over {fit['users']} users, "
            f"reload bit-identical: {fit['identical']}")
    report = {"attempted": attempted, "failed": failed,
              "checks": {"reload_bit_identical":
                         bool(fits) and all(f["identical"] for f in fits)}}
    fit_s = [f["fit_s"] for f in good] or [0.0]
    report["e2e"] = {
        "setup_s": median(setup),
        "latency_p50_ms": median(fit_s) * 1e3,
        "throughput_per_s": len(fit_s) / max(sum(fit_s), 1e-9),
        "rss_mb": median([f["peak_rss_mb"] for f in good] or [0.0]),
        "answer_quality": median([f["ndcg_at_10"] for f in good] or [0.0]),
    }
    if trace:
        layers = {"data.corpus_s": median(spans.durations("data.corpus"))}
        stages = traced["stages"] if traced else {}
        for name in STAGES:
            layers[f"{name}_s"] = stages.get(name, {}).get("s", 0.0)
        for name in RSS_STAGES:
            layers[f"{name}_rss_mb"] = stages.get(name, {}).get(
                "rss_growth_mb", 0.0)
        if traced and plain:
            layers["trace.overhead_ratio"] = traced["fit_s"] / plain["fit_s"]
        errors = traced["cross_check_rel_err"] if traced else {}
        layers["trace.fit_cross_check_rel_err"] = max(errors.values(),
                                                      default=0.0)
        report["layers"] = layers
        report["spans"] = spans
    return report


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", type=Path, default=None)
    args = parser.parse_args()
    require_source()
    WORK.mkdir(parents=True, exist_ok=True)
    print(json.dumps(child(args.seed, bool(args.trace), args.spans)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
