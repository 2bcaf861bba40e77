"""The ``rank`` workload: a closed loop of exact top-k queries.

Two clients (one per CPU of the reference machine) call
``ServingIndex.top_k`` back to back for 512 registered users in a seeded
round-robin order. The index is exact over the fixture's ~2k-paper pool,
and observability is on, as in the ``serve`` daemon. With 512 users
cycling through a 128-entry LRU cache every query misses, so scoring,
top-k selection and the serving lock do the work. Every 32nd answer of
each client is checked against ``repro.serve.ann.exact_top_k`` computed
from a separately loaded copy of the artifact.
"""

from __future__ import annotations

import gc
import threading
import time

import numpy as np

from common import K, N_USERS, settled_rss_mb, log, median, percentile, \
    schedule_sha
from serving import Fixture, exact_oracle, start_index, wrap_setup

CLIENTS = 2
SAMPLE_EVERY = 32


def closed_loop(query, order: "list[int]", seconds: float,
                clients: int = CLIENTS) -> dict:
    """Each client queries its share of *order*, cyclically, until time is up."""
    latencies: list[list[float]] = [[] for _ in range(clients)]
    samples: list[list[tuple]] = [[] for _ in range(clients)]
    errors = [0] * clients
    deadline = time.perf_counter() + seconds

    def client(c: int) -> None:
        mine = order[c::clients]
        i = 0
        while time.perf_counter() < deadline:
            user = mine[i % len(mine)]
            began = time.perf_counter()
            try:
                answer = query(user)
            except Exception as exc:  # a failed request is counted, not fatal
                log(f"query for user {user} failed: {exc!r}")
                errors[c] += 1
                answer = None
            latencies[c].append(time.perf_counter() - began)
            if answer is not None and i % SAMPLE_EVERY == 0:
                samples[c].append((user, answer))
            i += 1

    threads = [threading.Thread(target=client, args=(c,), daemon=True)
               for c in range(clients)]
    began = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - began
    flat = [x for part in latencies for x in part]
    return {"latencies": flat,
            "samples": [s for part in samples for s in part],
            "errors": sum(errors), "elapsed": elapsed}


def run(seed: int, seconds: float, trace: bool) -> dict:
    from repro import obs
    from spans import SpanLog

    fixture = Fixture.load(seed)
    order = [int(u) for u in np.random.default_rng([seed, 2]).permutation(N_USERS)]
    log("rank schedule sha256 " + schedule_sha(
        {"workload": "rank", "users": fixture.users, "order": order,
         "clients": CLIENTS, "k": K}))

    obs.configure(enabled=True, reset=True)
    spans = SpanLog()
    if trace:
        wrap_setup(spans)
    setups = []
    for _ in range(1 if trace else 3):
        index = None  # let the previous start's memory go first
        gc.collect()
        index, seconds_taken = start_index(fixture, fixture.artifact)
        setups.append(seconds_taken)
    spans.restore()
    pool_ids = index.paper_ids

    def query(user: int) -> "list[str]":
        return index.top_k(f"u{user:03d}", K)

    passes = {}
    if not trace:
        passes["main"] = closed_loop(query, order, seconds)
    else:
        third = seconds / 3.0
        passes["obs_on"] = closed_loop(query, order, third)
        obs.configure(enabled=False)
        passes["obs_off"] = closed_loop(query, order, third)
        obs.configure(enabled=True)
        from repro.serve import index as index_module
        spans.wrap(index_module.ServingIndex, "top_k", "serve.index.top_k")
        spans.wrap(index_module, "exact_top_k", "serve.ann.exact_top_k",
                   describe=lambda args, kwargs, result: {
                       "bytes": int(args[1].shape[0] * args[1].shape[1]
                                    * args[1].itemsize)})
        hits, misses = index.cache_hits, index.cache_misses
        passes["traced"] = closed_loop(query, order, third)
        spans.restore()
        hits, misses = index.cache_hits - hits, index.cache_misses - misses
    rss = settled_rss_mb()
    spans_retained = len(obs.get_tracer().spans)
    main = passes["main" if not trace else "obs_on"]

    oracle = exact_oracle(fixture.artifact, pool_ids)
    samples = [s for p in passes.values() for s in p["samples"]]
    mismatched = sum(not oracle.agrees(fixture.users[user], answer)
                     for user, answer in samples)
    recall = [oracle.recall(fixture.users[user], answer)
              for user, answer in samples]
    attempted = sum(len(p["latencies"]) for p in passes.values())
    errors = sum(p["errors"] for p in passes.values())
    log(f"rank: {attempted} queries, {errors} errors, {len(samples)} answers "
        f"checked against the exact oracle, {mismatched} differ")

    latencies = main["latencies"]
    report = {
        "attempted": attempted, "failed": errors + mismatched,
        "checks": {"answers_equal_exact_oracle": mismatched == 0
                   and bool(samples)},
        "e2e": {
            "setup_s": median(setups),
            "latency_p50_ms": median(latencies) * 1e3,
            "throughput_per_s": len(latencies) / main["elapsed"],
            "rss_mb": rss,
            "answer_quality": float(np.mean(recall)) if recall else 0.0,
        },
        "info": {"read_p99_ms": percentile(latencies, 99.0) * 1e3,
                 "obs_spans_retained": spans_retained},
    }
    if trace:
        from spans import self_times
        own = self_times(spans.spans)
        top_k = spans.named("serve.index.top_k")
        scored = spans.named("serve.ann.exact_top_k")
        p50 = {name: median(p["latencies"]) for name, p in passes.items()}
        report["layers"] = {
            "serve.artifacts.load_s": median(
                spans.durations("serve.artifacts.load")),
            "serve.index.from_artifact_s": median(
                spans.durations("serve.index.from_artifact")),
            "serve.index.register_user_ms": median(
                spans.durations("serve.index.register_user")) * 1e3,
            "serve.index.top_k_us": median([s.duration for s in top_k]) * 1e6,
            "serve.ann.exact_top_k_us": median(
                [s.duration for s in scored]) * 1e6,
            "serve.index.overhead_us": median([own[s.id] for s in top_k]) * 1e6,
            "serve.ann.bytes_scored_per_query": median(
                [s.attrs["bytes"] for s in scored]),
            "serve.index.cache_hit_ratio": hits / max(hits + misses, 1),
            "obs.overhead_ratio": p50["obs_on"] / p50["obs_off"],
            "trace.overhead_ratio": p50["traced"] / p50["obs_on"],
            "loadgen.read_p99_ms": report["info"]["read_p99_ms"],
        }
        report["spans"] = spans
    return report
