"""The ``mixed`` workload: an open loop of reads beside ingests.

Requests arrive as a seeded Poisson process at a fixed rate, sent from a
single process by at most ``nproc`` generator threads: one submits reads,
one applies ingests. Each request is timed from its due time, so a stall
also delays the requests queued behind it, and the generator reports how
late it ran (``loadgen.lag_p99_ms``).

* reads — ``BatchScheduler.submit`` for a registered user on an IVF index;
  users are Zipf-popular, so the LRU cache hits until an ingest clears it;
* ingests — ``ServingIndex.add_paper`` of a distinct never-seen paper,
  logged to the write-ahead log with fsync before it is acknowledged.

Unknown-entity probes run after the open loop, in timed rounds of one
ingest followed by two probes: the first probe rebuilds the TF-IDF
fallback matrix over the whole pool while holding the serving lock, the
second finds it warm. Inside the open loop such a stall trips the default
shedding governor, and shedding beside steady ingests never recovers
(see ``FINDINGS.md``), so the loop carries no probes.

After the run the write-ahead log must recover exactly the acknowledged
ingests, and IVF answers are compared with the exact ranking over the
final pool (recall@10).
"""

from __future__ import annotations

import dataclasses
import gc
import threading
import time

import numpy as np

from checks import wal_mismatches
from common import (INGEST_LIMIT_S, K, N_USERS, READ_LIMIT_S, log, median,
                    nproc, percentile, schedule_sha, settled_rss_mb)
from serving import (Fixture, discard_copies, exact_oracle, start_index,
                     wrap_setup)

#: Offered requests per second: a load served without a growing backlog.
RATE = 100.0
#: 100 ingests in a 20-s run, so ten lie beyond their p90.
INGEST_SHARE = 0.05
ZIPF_EXPONENT = 1.1
NPROBE = 8
#: Timed ingest-then-probe rounds after the open loop.
PROBE_ROUNDS = 3
PROBE_PAPERS = 3
#: Users whose IVF answers are compared with the exact ranking.
RECALL_USERS = 128
RESOLVE_TIMEOUT_S = 60.0
#: Requests served before the measured window, so page faults of the
#: first matrix growths and the first fallback build are paid before
#: timing starts, and the shedding governor's 5-s window already holds
#: normal traffic when the window opens.
WARM_UP_INGESTS = 4
WARM_UP_READS = 256


@dataclasses.dataclass
class Op:
    due: float
    kind: str   # "read" | "ingest"
    arg: int    # user index | reservoir index


def make_schedule(seed: int, seconds: float, reservoir_size: int
                  ) -> "list[Op]":
    """Seeded arrivals with a fixed ingest count; Zipf-popular readers.

    Arrivals are a Poisson process conditioned on its count (sorted
    uniform times), so every seed offers the same load.
    """
    rng = np.random.default_rng([seed, 3])
    n = int(round(RATE * seconds))
    dues = np.sort(rng.uniform(0.0, seconds, size=n))
    n_ingests = int(round(INGEST_SHARE * n))
    if n_ingests + WARM_UP_INGESTS + PROBE_ROUNDS > reservoir_size:
        raise ValueError(f"{n_ingests} ingests need more than the "
                         f"{reservoir_size} reservoir papers; run shorter")
    ingest_at = set(rng.choice(n, size=n_ingests, replace=False).tolist())
    fresh = iter(rng.permutation(reservoir_size)[:n_ingests].tolist())
    popularity = 1.0 / np.arange(1, N_USERS + 1) ** ZIPF_EXPONENT
    popularity /= popularity.sum()
    by_rank = rng.permutation(N_USERS)
    readers = by_rank[rng.choice(N_USERS, size=n, p=popularity)]
    return [Op(float(due), "ingest", next(fresh)) if i in ingest_at
            else Op(float(due), "read", int(readers[i]))
            for i, due in enumerate(dues)]


def side_papers(fixture: Fixture, seed: int, ops: "list[Op]") -> dict:
    """Fresh-id papers for the loop's ingests and for the side requests.

    Warm-up and probe-round ingests use reservoir papers the schedule does
    not ingest, so no two pool rows share their text. Probe papers keep
    ids the model never sees.
    """
    reservoir = fixture.reservoir
    scheduled = {op.arg for op in ops if op.kind == "ingest"}
    spare = iter(i for i in range(len(reservoir)) if i not in scheduled)

    def fresh(prefix: str, count: int) -> list:
        return [dataclasses.replace(reservoir[next(spare)],
                                    id=f"{prefix}-{seed}-{j}")
                for j in range(count)]

    rng = np.random.default_rng([seed, 4])
    probes = [[dataclasses.replace(reservoir[int(i)],
                                   id=f"probe-{seed}-{r}-{j}")
               for j, i in enumerate(rng.choice(len(reservoir),
                                                size=PROBE_PAPERS,
                                                replace=False))]
              for r in range(2 * PROBE_ROUNDS + 1)]
    return {
        "loop": {n: dataclasses.replace(reservoir[op.arg],
                                        id=f"ing-{seed}-{n:05d}")
                 for n, op in enumerate(ops) if op.kind == "ingest"},
        "warm": fresh("warm", WARM_UP_INGESTS),
        "rounds": fresh("round", PROBE_ROUNDS),
        "probes": probes,
    }


class _Stamps:
    """Completion times of scheduler tickets.

    Wraps ``Ticket._resolve`` and ``Ticket._fail`` for the life of a run so
    every ticket, however it resolves (batch, cache hit, shed, error),
    records when it did.
    """

    def __init__(self) -> None:
        from repro.serve.scheduler import Ticket
        self.done: dict[int, float] = {}
        self._ticket = Ticket
        self._originals = {name: getattr(Ticket, name)
                           for name in ("_resolve", "_fail")}
        for name, original in self._originals.items():
            setattr(Ticket, name, self._stamping(original))

    def _stamping(self, original):
        done = self.done

        def stamped(ticket, outcome):
            done[id(ticket)] = time.perf_counter()
            return original(ticket, outcome)
        return stamped

    def close(self) -> None:
        for name, original in self._originals.items():
            setattr(self._ticket, name, original)


def _start(fixture: Fixture, name: str):
    """Cold start of a serving process: index with WAL, users, scheduler."""
    from repro.serve import BatchScheduler, WriteAheadLog
    artifact = fixture.private_copy(name)
    wal_path = artifact.parent / f"{name}.wal.jsonl"
    wal_path.unlink(missing_ok=True)
    began = time.perf_counter()
    index, _ = start_index(fixture, artifact, index="ivf", nprobe=NPROBE,
                           wal=WriteAheadLog(wal_path))
    scheduler = BatchScheduler(index)
    return index, scheduler, artifact, wal_path, time.perf_counter() - began


def _warm_up(index, scheduler, papers: dict) -> None:
    for paper in papers["warm"]:
        index.add_paper(paper)
    index.top_k(papers["probes"][-1], K)
    # Waves no larger than a batch, so the admission queue never overflows.
    for wave in range(0, WARM_UP_READS, scheduler.max_batch):
        tickets = [scheduler.submit(f"u{user:03d}", K)
                   for user in range(wave, wave + scheduler.max_batch)]
        for ticket in tickets:
            ticket.result(RESOLVE_TIMEOUT_S)


def open_loop(index, scheduler, ops: "list[Op]", papers: dict) -> dict:
    """Send every op at its due time; return per-op outcomes."""
    stamps = _Stamps()
    sent = [0.0] * len(ops)
    finished: list[float | None] = [None] * len(ops)
    tickets: dict[int, object] = {}
    errors: dict[int, str] = {}
    acknowledged = []
    origin = time.perf_counter() + 0.05

    def drive(indices: "list[int]") -> None:
        for n in indices:
            op = ops[n]
            delay = origin + op.due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            sent[n] = time.perf_counter()
            try:
                if op.kind == "ingest":
                    index.add_paper(papers[n])
                    finished[n] = time.perf_counter()
                    acknowledged.append(papers[n])
                else:
                    tickets[n] = scheduler.submit(f"u{op.arg:03d}", K)
            except Exception as exc:  # a failed request is counted, not fatal
                errors[n] = repr(exc)

    everything = list(range(len(ops)))
    if nproc() >= 2:
        lanes = [[n for n in everything if ops[n].kind == "read"],
                 [n for n in everything if ops[n].kind == "ingest"]]
    else:
        lanes = [everything]
    threads = [threading.Thread(target=drive, args=(lane,), daemon=True)
               for lane in lanes]
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        deadline = time.perf_counter() + RESOLVE_TIMEOUT_S
        for n, ticket in tickets.items():
            if not ticket.event.wait(max(0.0, deadline - time.perf_counter())):
                errors[n] = "unresolved"
            elif ticket.error is not None:
                errors[n] = repr(ticket.error)
            else:
                finished[n] = stamps.done[id(ticket)]
    finally:
        stamps.close()
    for n in errors:
        finished[n] = None
    return {"origin": origin, "sent": sent, "finished": finished,
            "tickets": tickets, "errors": errors,
            "acknowledged": acknowledged}


def probe_rounds(index, papers: dict) -> dict:
    """Ingest, then probe twice: the first probe pays the fallback rebuild."""
    cold, warm = [], []
    probes = iter(papers["probes"])
    for paper in papers["rounds"]:
        index.add_paper(paper)
        for times in (cold, warm):
            began = time.perf_counter()
            index.top_k(next(probes), K)
            times.append(time.perf_counter() - began)
    return {"probe_after_ingest_ms": median(cold) * 1e3,
            "probe_warm_ms": median(warm) * 1e3}


def summarise(ops: "list[Op]", outcome: dict) -> dict:
    """User-visible figures of one open-loop pass."""
    origin = outcome["origin"]
    reads, ingests, lag, met, degraded = [], [], [], 0, 0
    for n, op in enumerate(ops):
        lag.append(outcome["sent"][n] - (origin + op.due))
        done = outcome["finished"][n]
        if done is None:
            continue
        latency = done - (origin + op.due)
        if op.kind == "ingest":
            ingests.append(latency)
            met += latency <= INGEST_LIMIT_S
        else:
            reads.append(latency)
            met += latency <= READ_LIMIT_S
            ticket = outcome["tickets"][n]
            degraded += ticket.shed or ticket.degraded_reason is not None
    completed = [d for d in outcome["finished"] if d is not None]
    span = max(completed) - origin if completed else 1.0
    n_reads = sum(op.kind == "read" for op in ops)
    return {
        "read_p50_ms": median(reads) * 1e3,
        "read_p99_ms": percentile(reads, 99.0) * 1e3,
        "ingest_p50_ms": median(ingests) * 1e3,
        "ingest_p90_ms": percentile(ingests, 90.0) * 1e3,
        "ingests": len(ingests),
        "reads": len(reads),
        "throughput_per_s": len(completed) / span,
        "slo_attainment": met / len(ops),
        "degraded_ratio": degraded / max(n_reads, 1),
        "lag_p99_ms": percentile(lag, 99.0) * 1e3,
    }


def _recall(index, fixture: Fixture, artifact, ops: "list[Op]") -> "list[float]":
    """recall@10 of IVF answers against the exact ranking over the final pool."""
    readers = list(dict.fromkeys(op.arg for op in ops
                                 if op.kind == "read"))[:RECALL_USERS]
    answers = {u: index.top_k(f"u{u:03d}", K) for u in readers}
    oracle = exact_oracle(artifact, index.paper_ids)
    return [oracle.recall(fixture.users[u], answers[u]) for u in readers]


def one_pass(fixture: Fixture, ops, papers: dict, name: str,
             spans=None) -> dict:
    """Cold start, run the schedule and the probe rounds, then check."""
    from repro import obs
    obs.configure(enabled=True, reset=True)
    if spans is not None:
        wrap_setup(spans)
        _wrap_serving(spans)
    index, scheduler, artifact, wal_path, setup_s = _start(fixture, name)
    _warm_up(index, scheduler, papers)
    outcome = open_loop(index, scheduler, ops, papers["loop"])
    scheduler.close()
    stats = scheduler.stats()
    probes = probe_rounds(index, papers)
    rss = settled_rss_mb()
    acknowledged = papers["warm"] + outcome["acknowledged"] + papers["rounds"]
    wal_wrong = wal_mismatches(wal_path, acknowledged)
    index.compact()
    index.wal.close()
    if spans is not None:
        spans.restore()
    batch_wait = obs.get_registry().get("serve.batch.wait")
    figures = summarise(ops, outcome)
    figures.update(probes)
    figures.update(setup_s=setup_s, rss_mb=rss,
                   recall=_recall(index, fixture, artifact, ops),
                   errors=len(outcome["errors"]), wal_wrong=wal_wrong,
                   scheduler=stats,
                   obs_spans_retained=len(obs.get_tracer().spans),
                   queue_wait_ms=(batch_wait.mean * 1e3
                                  if batch_wait is not None else 0.0))
    if outcome["errors"]:
        log(f"mixed: {len(outcome['errors'])} requests failed, e.g. "
            f"{next(iter(outcome['errors'].values()))}")
    return figures


def _wrap_serving(spans) -> None:
    from repro.baselines.content import TfIdfIndex
    from repro.core.nprec.model import NPRecModel
    from repro.core.sem import SubspaceEmbeddingMethod
    from repro.serve import BatchScheduler, IVFIndex, ServingIndex, \
        WriteAheadLog, artifacts
    from repro.serve import index as index_module
    spans.wrap(BatchScheduler, "submit", "serve.scheduler.submit")
    spans.wrap(ServingIndex, "batch_top_k", "serve.index.batch_top_k",
               describe=lambda args, kwargs, result: {"size": len(args[1])})
    spans.wrap(IVFIndex, "gather", "serve.ann.gather",
               describe=lambda args, kwargs, result: {
                   "scan_fraction": result[1].scan_fraction})
    spans.wrap(index_module, "rank_candidates", "serve.ann.rank_candidates")
    spans.wrap(IVFIndex, "fit", "serve.ann.recluster")
    spans.wrap(ServingIndex, "add_paper", "serve.index.add_paper")
    spans.wrap(NPRecModel, "attach_paper", "core.nprec.attach_paper")
    spans.wrap(SubspaceEmbeddingMethod, "fused_embeddings",
               "core.sem.embed_paper")
    spans.wrap(WriteAheadLog, "append", "serve.wal.append")
    spans.wrap(TfIdfIndex, "transform_many", "baselines.tfidf.rebuild")
    spans.wrap(artifacts, "save_pipeline", "serve.artifacts.save")


def _layers(spans, main: dict, traced: dict) -> dict:
    """Per-layer figures of the traced pass (loadgen figures: untraced)."""
    stats = traced["scheduler"]
    submitted = max(stats["submitted"], 1)

    def seconds(name):
        return median(spans.durations(name))

    def share(name, attr):
        return float(np.mean([s.attrs[attr] for s in spans.named(name)]
                             or [0.0]))

    return {
        "serve.artifacts.save_s": seconds("serve.artifacts.save"),
        "serve.artifacts.load_s": seconds("serve.artifacts.load"),
        "serve.index.from_artifact_s": seconds("serve.index.from_artifact"),
        "serve.index.register_user_ms":
            seconds("serve.index.register_user") * 1e3,
        "serve.scheduler.batch_size_mean":
            share("serve.index.batch_top_k", "size"),
        "serve.scheduler.queue_wait_ms": traced["queue_wait_ms"],
        "serve.scheduler.flush_ms": seconds("serve.index.batch_top_k") * 1e3,
        "serve.scheduler.shed_ratio": stats["shed"] / submitted,
        "serve.scheduler.fast_hit_ratio": stats["cache_fast_hits"] / submitted,
        "serve.index.add_paper_ms": seconds("serve.index.add_paper") * 1e3,
        "core.nprec.attach_paper_ms": seconds("core.nprec.attach_paper") * 1e3,
        "core.sem.embed_paper_ms": seconds("core.sem.embed_paper") * 1e3,
        "serve.wal.append_ms": seconds("serve.wal.append") * 1e3,
        "serve.index.fallback_rebuilds":
            float(len(spans.named("baselines.tfidf.rebuild"))),
        "baselines.tfidf.rebuild_ms": seconds("baselines.tfidf.rebuild") * 1e3,
        "serve.ann.gather_us": seconds("serve.ann.gather") * 1e6,
        "serve.ann.rank_candidates_us":
            seconds("serve.ann.rank_candidates") * 1e6,
        "serve.ann.scan_fraction": share("serve.ann.gather", "scan_fraction"),
        "serve.ann.reclusters": float(len(spans.named("serve.ann.recluster"))),
        "loadgen.lag_p99_ms": main["lag_p99_ms"],
        "loadgen.read_p99_ms": main["read_p99_ms"],
        "loadgen.ingest_p50_ms": main["ingest_p50_ms"],
        "loadgen.ingest_p90_ms": main["ingest_p90_ms"],
        "loadgen.slo_attainment": main["slo_attainment"],
        "loadgen.degraded_ratio": main["degraded_ratio"],
        "trace.overhead_ratio": traced["read_p50_ms"] / main["read_p50_ms"],
    }


def run(seed: int, seconds: float, trace: bool) -> dict:
    from spans import SpanLog

    fixture = Fixture.load(seed)
    pass_seconds = seconds / 2.0 if trace else seconds
    ops = make_schedule(seed, pass_seconds, len(fixture.reservoir))
    papers = side_papers(fixture, seed, ops)
    log("mixed schedule sha256 " + schedule_sha(
        {"workload": "mixed", "rate": RATE, "users": fixture.users,
         "ops": [dataclasses.astuple(op) for op in ops],
         "warm": [p.id for p in papers["warm"]],
         "rounds": [p.id for p in papers["rounds"]],
         "probes": [[p.id for p in probe] for probe in papers["probes"]]}))

    spans = SpanLog()
    passes, setups = [], []
    discard_copies()
    try:
        if trace:
            passes.append(one_pass(fixture, ops, papers, "untraced"))
            gc.collect()
            passes.append(one_pass(fixture, ops, papers, "traced",
                                   spans=spans))
        else:
            for attempt in range(3):
                gc.collect()
                index, scheduler, _, _, setup_s = _start(
                    fixture, f"setup{attempt}")
                scheduler.close()
                index.wal.close()
                setups.append(setup_s)
                del index, scheduler
            gc.collect()
            passes.append(one_pass(fixture, ops, papers, "measured"))
    finally:
        discard_copies()
    main = passes[0]
    failed = sum(p["errors"] + p["wal_wrong"] for p in passes)
    recall = main["recall"]
    log(f"mixed: {len(ops)} requests ({main['reads']} reads, "
        f"{main['ingests']} ingests), {failed} failed, WAL records that "
        f"differ from acknowledged ingests: {main['wal_wrong']}, "
        f"{len(recall)} users checked for recall")
    report = {
        "attempted": (len(ops) + PROBE_ROUNDS) * len(passes),
        "failed": failed,
        "checks": {"wal_recovers_acknowledged_ingests":
                   all(p["wal_wrong"] == 0 for p in passes)},
        "e2e": {
            "setup_s": main["setup_s"] if trace else median(setups),
            "latency_p50_ms": main["read_p50_ms"],
            "throughput_per_s": main["throughput_per_s"],
            "rss_mb": main["rss_mb"],
            "answer_quality": float(np.mean(recall)) if recall else 0.0,
        },
        "info": {name: main[name] for name in
                 ("ingest_p50_ms", "ingest_p90_ms", "ingests",
                  "slo_attainment", "degraded_ratio", "lag_p99_ms",
                  "probe_after_ingest_ms", "probe_warm_ms",
                  "obs_spans_retained", "read_p99_ms")},
    }
    if trace:
        report["layers"] = _layers(spans, main, passes[1])
        report["spans"] = spans
    return report
