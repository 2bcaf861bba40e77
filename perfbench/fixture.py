"""The serving fixture: a fitted pipeline serving a ~2k-paper pool.

Built once per checkout and reused by every ``rank`` and ``mixed`` run:

1. fit the CLI's warmup corpus (scale-0.3 ACM preset, 185 train / 85 new
   papers) with the CLI's ``_fit_config``;
2. ingest 2,000 distinct papers through ``ServingIndex.add_paper``. They
   come from a larger corpus of the same generator preset, so they share
   its vocabulary and taxonomy, and get fresh ids: corpora generated
   separately reuse ids such as ``acm-p00001``;
3. compact the write-ahead log into the artifact and persist the IVF
   quantizer beside it.

Papers and users are handed to the index explicitly; nothing goes through
the CLI's ``_reload_task``. The fixture is keyed by a digest of the
program's source and of this file, so a change to either rebuilds it.
It is built in a child process, so the fit's memory never counts
against the serving process of a run.

Run directly (``python3 perfbench/fixture.py --out DIR``) to build one.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

from common import BENCH_DIR, WORK, log, require_source, source_digest

FIT_SCALE = 0.3
SPLIT_YEAR = 2014
POOL_SCALE = 3.0
POOL_INGESTS = 2000
#: Held-out users the fit's nDCG@10 is measured on (all eligible ones).
EVAL_USERS = 50


def fit_task():
    """The CLI's warmup task: scale-0.3 ACM preset, split at 2014."""
    from repro.data import load_acm
    from repro.experiments.protocol import split_task_by_year
    corpus = load_acm(scale=FIT_SCALE)
    return split_task_by_year(corpus, SPLIT_YEAR, n_users=EVAL_USERS,
                              candidate_size=50, seed=0)


def fit_config(seed: int):
    """The CLI's lightened NPRec configuration."""
    from repro.serve.__main__ import _fit_config
    return _fit_config(seed)


def fixture_dir() -> Path:
    digest = source_digest([BENCH_DIR / "fixture.py"])
    return WORK / f"fixture-{digest[:16]}"


def ensure_fixture(timeout: float = 600.0) -> Path:
    """The cached fixture directory, building it first when absent."""
    target = fixture_dir()
    if (target / "meta.json").is_file():
        return target
    WORK.mkdir(parents=True, exist_ok=True)
    staging = WORK / f"{target.name}.building"
    shutil.rmtree(staging, ignore_errors=True)
    log(f"building serving fixture in {target.name} (once per checkout)")
    subprocess.run([sys.executable, str(BENCH_DIR / "fixture.py"),
                    "--out", str(staging)], check=True, timeout=timeout)
    try:
        staging.rename(target)
    except OSError:
        # Another run finished the same build first; theirs is identical.
        shutil.rmtree(staging, ignore_errors=True)
    for stale in WORK.glob("fixture-*"):
        if stale != target:
            shutil.rmtree(stale, ignore_errors=True)
    return target


def build(out: Path) -> dict:
    from repro.core.nprec import NPRecRecommender
    from repro.data import load_acm
    from repro.serve import (ServingIndex, WriteAheadLog, save_ann_index,
                             save_pipeline, save_pool)

    start = time.perf_counter()
    task = fit_task()
    recommender = NPRecRecommender(fit_config(0)).fit(
        task.corpus, task.train_papers, task.new_papers)
    artifact = out / "artifact"
    # The metadata the CLI's warmup records; compaction is expected to keep it.
    extra = {"corpus": "acm", "scale": FIT_SCALE, "seed": 0,
             "split_year": SPLIT_YEAR, "users": EVAL_USERS}
    save_pipeline(recommender, artifact, corpus=task.corpus,
                  extra_metadata=extra)
    fitted = time.perf_counter()

    larger = load_acm(scale=POOL_SCALE)
    fresh = [dataclasses.replace(paper, id=f"pool-{i:05d}", references=())
             for i, paper in enumerate(larger)]
    ingest, reservoir = fresh[:POOL_INGESTS], fresh[POOL_INGESTS:]

    index = ServingIndex.from_artifact(
        artifact, papers=task.new_papers,
        wal=WriteAheadLog(out / "build-wal.jsonl", fsync=False))
    ingest_ms = []
    for paper in ingest:
        began = time.perf_counter()
        index.add_paper(paper)
        ingest_ms.append((time.perf_counter() - began) * 1e3)
    ingested = time.perf_counter()
    index.compact()
    index.wal.close()
    manifest = json.loads((artifact / "manifest.json").read_text("utf-8"))
    (out / "build-wal.jsonl").unlink()
    ivf = index.build_ann_index()
    save_ann_index(artifact, ivf, index.paper_ids)

    save_pool(out / "train", task.train_papers)
    save_pool(out / "reservoir", reservoir)
    window = 200
    meta = {
        "pool_size": index.num_papers,
        "train_papers": len(task.train_papers),
        "reservoir_papers": len(reservoir),
        "fit_s": fitted - start,
        "ingest_s": ingested - fitted,
        "build_s": time.perf_counter() - start,
        "ingest_ms_first": sum(ingest_ms[:window]) / window,
        "ingest_ms_last": sum(ingest_ms[-window:]) / window,
        "ivf_lists": ivf.num_lists,
        "manifest_extra_saved": extra,
        "manifest_extra_after_compact": manifest.get("extra"),
    }
    (out / "meta.json").write_text(json.dumps(meta, indent=2) + "\n",
                                   encoding="utf-8")
    return meta


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    require_source()
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    meta = build(out)
    log("fixture built: " + json.dumps(meta, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
