"""Online serving: precomputed embeddings, one batched rank path, ingestion.

:class:`ServingIndex` is the query-side half of :mod:`repro.serve`. It
holds a *candidate pool* of papers with their influence representations
precomputed as one matrix, plus precomputed interest profiles for
registered users, and answers top-K queries with a bounded heap over
fixed-size matmul blocks — memory stays ``O(block_size * dim + K)`` per
query regardless of pool size (the ROADMAP's production-scale serving
condition).

Every query takes one rank path, :meth:`ServingIndex.batch_top_k`:
admit under ``_serve_lock`` (validate, serve cache hits, snapshot the
pool state), score with that lock released, publish to the LRU cache
under the lock. :meth:`ServingIndex.top_k` is that path with a batch of
one, so caching and degradation rules live in one place, and
``add_paper`` and ``register_user`` never wait on scoring.

Scoring matches :meth:`NPRecRecommender._rank`'s correlation term —
``mix * max + (1 - mix) * mean`` over the user's interest vectors — with
two documented serving simplifications: the potential-influence term
z-scores novelty over the whole pool once (not per candidate set, and
without the per-query correlation-spread multiplier), and the
profile-text blend is omitted (it requires a full re-rank per query,
which contradicts blockwise retrieval).

Retrieval is a pluggable strategy: ``index="exact"`` (the default, and
the correctness oracle) scores every pool row blockwise;
``index="ivf"`` routes queries through a pure-numpy IVF coarse
quantizer (:mod:`repro.serve.ann`) that exact-scores only the
``nprobe`` most promising inverted lists — same score function, same
tie-breaking, a measured recall@K trade documented in
``BENCH_ann.json`` and gated in CI. Probing every list reproduces the
exact ranking order-for-order.

New papers enter through :meth:`ServingIndex.add_paper` — the Sec. IV-E
cold-start path at serving time: SEM subspace embedding, metadata-only
graph attachment, embedding imputation from neighbours. No retraining.
Under ``index="ivf"`` the new row joins its nearest centroid's list,
and a lopsided list (``recluster_factor`` × the mean occupancy)
triggers a full deterministic re-cluster, counted as
``serve.ann.recluster``.

Degradation is graceful and observable: an unloadable artifact
(:meth:`ServingIndex.from_artifact`), a query touching entities the
model has never seen, or a fault on the model path falls back to
TF-IDF content ranking, counting ``serve.degraded`` with a ``reason``
label.
"""

from __future__ import annotations

import math
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro import obs
from repro.obs.slo import (default_serving_slos, evaluate_registered,
                           register_slo, wal_lag_slo)
from repro.baselines.content import TfIdfIndex
from repro.core.nprec.recommend import NPRecRecommender
from repro.data.io import paper_from_dict
from repro.data.schema import Paper
from repro.errors import (ArtifactError, GraphError, InjectedFault,
                          NotFittedError, ReproError, RetryExhaustedError,
                          WALError)
from repro.graph.builder import attach_paper_to_network
from repro.resilience import faults
from repro.resilience.retry import Backoff, retry
from repro.serve.ann import IVFIndex, batch_exact_top_k, rank_candidates
# Not called here; kept as a module attribute because the benchmark's
# traced rank pass (perfbench/wl_rank.py) wraps it by name.
from repro.serve.ann import exact_top_k  # noqa: F401

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.serve.scheduler import BatchScheduler
    from repro.serve.wal import WALRecord, WriteAheadLog

#: Initial influence-buffer capacity (rows); doubles on overflow, so
#: ingesting n papers copies O(n) floats total instead of O(n^2).
_INITIAL_CAPACITY = 8


@dataclass
class BatchQueryResult:
    """Outcome of one request inside a :meth:`ServingIndex.batch_top_k`.

    ``scores`` carries the ranked pooled scores when the answer was
    computed in this batch (``None`` on a cache hit, whose scores were
    produced — bit-identically — by an earlier computation).
    ``pool_version`` stamps the pool state the answer reflects, so a
    response produced while ingestion raced the batch can be checked
    against the right oracle (pre- or post-ingest, never a torn
    mix). A per-request validation failure (unknown user, bad k) lands
    in ``error`` instead of failing the whole batch.
    """

    ids: list[str] = field(default_factory=list)
    scores: np.ndarray | None = None
    pool_version: int = -1
    cache: str = "miss"
    degraded_reason: str | None = None
    error: Exception | None = None


class _BatchJob:
    """One deduplicated unit of batch work: a distinct ``(user, k)``."""

    __slots__ = ("cache_key", "papers", "profile", "k", "positions", "mode",
                 "reason", "interest", "candidates", "stats", "ids", "scores")

    def __init__(self, cache_key: tuple, papers: list, profile, k: int) -> None:
        self.cache_key = cache_key
        self.papers = papers
        self.profile = profile
        self.k = k
        self.positions: list[int] = []  # request indices sharing this job
        self.mode = "rank"
        self.reason: str | None = None
        self.interest: np.ndarray | None = None
        self.candidates: np.ndarray | None = None
        self.stats = None
        self.ids: list[str] = []
        self.scores: np.ndarray | None = None


def _tfidf_rank(tfidf: TfIdfIndex, matrix: np.ndarray, ids: Sequence[str],
                user_papers: Sequence[Paper], k: int) -> list[str]:
    """Degraded answer: pool *ids* ranked by TF-IDF similarity.

    *matrix* holds one TF-IDF row per id; the user's profile is the mean
    of its papers' rows. Ties keep pool order (stable sort).
    """
    profile = np.mean([tfidf.transform(p) for p in user_papers], axis=0)
    order = np.argsort(-(matrix @ profile), kind="mergesort")[:k]
    return [ids[int(i)] for i in order]


class ServingIndex:
    """Blockwise top-K retrieval over a pool of recommendable papers.

    Parameters
    ----------
    recommender:
        A fitted :class:`NPRecRecommender`, or ``None`` for a degraded
        (TF-IDF only) index.
    papers:
        The initial candidate pool. Papers already in the model's graph
        (e.g. the fit-time new papers) are indexed directly; papers the
        model has never seen are ingested through :meth:`add_paper`.
    author_affiliations:
        ``author id -> affiliation`` map so ingested papers keep
        affiliation edges for known authors (see
        :func:`repro.serve.artifacts.load_author_affiliations`).
    block_size:
        Candidates scored per matmul block during retrieval.
    cache_size:
        Bound on the LRU query cache (distinct ``(user, k)`` entries).
    index:
        Retrieval strategy — ``"exact"`` (default; scores the whole
        pool, the correctness oracle) or ``"ivf"`` (approximate;
        coarse-quantized probing via :class:`repro.serve.ann.IVFIndex`).
    nprobe:
        Inverted lists probed per ``"ivf"`` query (clamped to the list
        count; probing every list reproduces the exact ranking).
    n_lists:
        Coarse-cluster count for ``"ivf"``; default ``round(sqrt(n))``
        at first clustering time.
    ann_seed:
        Seed of the deterministic k-means quantizer.
    """

    def __init__(self, recommender: NPRecRecommender | None,
                 papers: Sequence[Paper] = (),
                 author_affiliations: dict[str, str] | None = None,
                 block_size: int = 512, cache_size: int = 128,
                 index: str = "exact", nprobe: int = 8,
                 n_lists: int | None = None, ann_seed: int = 0) -> None:
        if block_size < 1:
            raise ValueError(f"block_size must be >= 1, got {block_size}")
        if cache_size < 1:
            raise ValueError(f"cache_size must be >= 1, got {cache_size}")
        if index not in ("exact", "ivf"):
            raise ValueError(f"index must be 'exact' or 'ivf', got {index!r}")
        if nprobe < 1:
            raise ValueError(f"nprobe must be >= 1, got {nprobe}")
        if n_lists is not None and n_lists < 1:
            raise ValueError(f"n_lists must be >= 1, got {n_lists}")
        if recommender is not None and (recommender.model is None
                                        or recommender.sem is None):
            raise NotFittedError("ServingIndex needs a *fitted* recommender")
        self.block_size = block_size
        self.cache_size = cache_size
        self._recommender = recommender
        self._affiliations = dict(author_affiliations or {})
        self._papers: list[Paper] = []
        self._ids: list[str] = []
        self._positions: dict[str, int] = {}
        # Influence rows live in a capacity-doubling buffer; the public
        # `_influence` property views the filled prefix. Appends are
        # amortized O(d) instead of the O(n*d) per-paper vstack copy.
        self._influence_buffer: np.ndarray | None = None
        self._influence_count = 0
        self.index_kind = index
        self.nprobe = nprobe
        self._n_lists = n_lists
        self._ann_seed = ann_seed
        self._ann: IVFIndex | None = None
        self._novelty_raw: list[float] = []
        self._novelty_z: np.ndarray | None = None
        #: user id -> (profile papers, precomputed interest matrix or None)
        self._profiles: dict[str, tuple[list[Paper], np.ndarray | None]] = {}
        self._cache: "OrderedDict[tuple, tuple[str, ...]]" = OrderedDict()
        self.cache_hits = 0
        self.cache_misses = 0
        self._fallback_tfidf: TfIdfIndex | None = None
        self._fallback_matrix: np.ndarray | None = None
        #: Artifact directory this index was loaded from, when known —
        #: lets :meth:`health` re-verify checksums in place.
        self._artifact_dir: Path | None = None
        self._degraded_reason: str | None = ("no_model" if recommender is None
                                             else None)
        self._last_load_error: RetryExhaustedError | None = None
        # Monotone stamp of result-affecting pool state: bumps on every
        # append, nprobe retune, and influence heal. Batched responses
        # are stamped with the version they were computed against.
        self._pool_version = 0
        #: Attached micro-batching scheduler, reported by health().
        self._scheduler: "BatchScheduler | None" = None
        #: Attached write-ahead log (see attach_wal); while it is set,
        #: every add_paper is durably logged before it is applied.
        self._wal: "WriteAheadLog | None" = None
        # True only while attach_wal replays recovered records: the
        # replayed ingests are *already* in the log and must not be
        # re-appended.
        self._wal_replaying = False
        # Serialises pool mutation and retrieval so the index can be
        # driven from concurrent threads (the repro.loadgen closed
        # loop). Reentrant: add_paper at construction time and health
        # probes nest inside already-locked sections.
        self._serve_lock = threading.RLock()
        # Serialises unbatched top_k calls (see there); taken before
        # _serve_lock, never while holding it.
        self._top_k_lock = threading.Lock()
        # Publish the serving objectives once; replace=False keeps any
        # operator-tuned SLO registered under the same name.
        for slo in default_serving_slos():
            register_slo(slo, replace=False)

        papers = list(papers)
        if self.degraded:
            for paper in papers:
                self._append(paper, None)
        else:
            graph = recommender.model.graph
            known = [p for p in papers if ("paper", p.id) in graph]
            if known:
                rows = self._influence_rows([p.id for p in known])
                for paper, row in zip(known, rows):
                    self._append(paper, row)
            for paper in papers:
                if ("paper", paper.id) not in graph:
                    self.add_paper(paper)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def degraded(self) -> bool:
        """True when no model is available and every query is TF-IDF."""
        return self._recommender is None

    @property
    def num_papers(self) -> int:
        """Current candidate-pool size."""
        return len(self._papers)

    @property
    def paper_ids(self) -> list[str]:
        """Pool paper ids, in insertion order."""
        return list(self._ids)

    @property
    def pool_version(self) -> int:
        """Monotone stamp of result-affecting state (see batch_top_k)."""
        return self._pool_version

    @property
    def scheduler(self) -> "BatchScheduler | None":
        """The attached micro-batching scheduler, when one is serving."""
        return self._scheduler

    def attach_scheduler(self, scheduler: "BatchScheduler") -> None:
        """Register *scheduler* so :meth:`health` reports its state."""
        self._scheduler = scheduler

    def detach_scheduler(self, scheduler: "BatchScheduler | None" = None) -> None:
        """Drop the attached scheduler (no-op when another is attached)."""
        if scheduler is None or self._scheduler is scheduler:
            self._scheduler = None

    @property
    def _influence(self) -> np.ndarray | None:
        """Filled prefix of the influence buffer (None when empty)."""
        if self._influence_buffer is None or self._influence_count == 0:
            return None
        return self._influence_buffer[:self._influence_count]

    @_influence.setter
    def _influence(self, value: np.ndarray | None) -> None:
        # Wholesale replacement (health self-heal): the buffer is
        # rebuilt exactly-sized and any clustered structure over the
        # old values is dropped for a lazy refit.
        if value is None:
            self._influence_buffer = None
            self._influence_count = 0
        else:
            self._influence_buffer = np.ascontiguousarray(value)
            self._influence_count = int(value.shape[0])
        self._ann = None
        self._pool_version += 1

    @property
    def ann(self) -> IVFIndex | None:
        """The coarse quantizer, once built (``index="ivf"`` only)."""
        return self._ann

    # ------------------------------------------------------------------
    # Construction from an artifact
    # ------------------------------------------------------------------
    @classmethod
    def from_artifact(cls, directory, papers: Sequence[Paper] = (),
                      block_size: int = 512, cache_size: int = 128,
                      retry_attempts: int = 3, index: str = "exact",
                      nprobe: int = 8, n_lists: int | None = None,
                      ann_seed: int = 0, wal: "WriteAheadLog | None" = None,
                      wal_lag_bound: int = 10_000) -> "ServingIndex":
        """Build an index from a saved artifact, degrading on failure.

        The load is retried *retry_attempts* times with deterministic
        exponential backoff (transient faults — injected or real — often
        clear). A corrupt, missing, or wrong-schema artifact that
        survives every attempt does **not** raise: the index comes up in
        degraded TF-IDF mode (``serve.degraded`` counted with
        ``reason="artifact_load_failed"``) so the service keeps
        answering, just without the learned model. The exhausted-retry
        attempt log stays inspectable on the returned index (and in the
        :meth:`health` report).

        A pool snapshot persisted by :meth:`compact`
        (``pool/pool.json``) is merged into *papers* — snapshot order
        first, then any *papers* not already in it — so compacted
        ingests survive restarts with no WAL records left to replay.
        Passing *wal* attaches (and replays) a write-ahead log via
        :meth:`attach_wal` after construction, making the index durable
        end to end in one call.

        With ``index="ivf"``, a quantizer persisted next to the
        pipeline (:func:`repro.serve.artifacts.save_ann_index`) is
        adopted when its pool fingerprint matches *papers* — warmup
        clusters once, serving never re-clusters. A missing or stale
        ANN artifact falls back to a lazy deterministic refit on first
        query (counted as ``serve.ann.artifact{outcome=...}``).
        """
        from repro.serve.artifacts import (load_ann_index,
                                           load_author_affiliations,
                                           load_pipeline, load_pool,
                                           pool_fingerprint)

        try:
            snapshot = load_pool(directory)
        except (ArtifactError, OSError, ValueError):
            snapshot = []
            obs.count("serve.artifact.pool", outcome="corrupt")
        else:
            if snapshot:
                obs.count("serve.artifact.pool", outcome="loaded")
        if snapshot:
            merged: "dict[str, Paper]" = {p.id: p for p in snapshot}
            for paper in papers:
                merged.setdefault(paper.id, paper)
            papers = list(merged.values())

        @retry(attempts=retry_attempts, backoff=Backoff(base=0.02),
               retry_on=(ArtifactError, InjectedFault, RetryExhaustedError,
                         OSError),
               name="serve.from_artifact")
        def _load():
            return load_pipeline(directory), load_author_affiliations(directory)

        try:
            recommender, affiliations = _load()
        except RetryExhaustedError as exc:
            obs.count("serve.degraded", reason="artifact_load_failed")
            obs.event("serve.degraded", reason="artifact_load_failed")
            obs.count("serve.artifact.load_failures")
            with obs.trace("serve.degraded_startup", error=str(exc)):
                degraded = cls(None, papers, block_size=block_size,
                               cache_size=cache_size, index=index,
                               nprobe=nprobe, n_lists=n_lists,
                               ann_seed=ann_seed)
            degraded._artifact_dir = Path(directory)
            degraded._degraded_reason = "artifact_load_failed"
            degraded._last_load_error = exc
            if wal is not None:
                degraded.attach_wal(wal, lag_bound=wal_lag_bound)
            return degraded
        built = cls(recommender, papers, author_affiliations=affiliations,
                    block_size=block_size, cache_size=cache_size,
                    index=index, nprobe=nprobe, n_lists=n_lists,
                    ann_seed=ann_seed)
        built._artifact_dir = Path(directory)
        if index == "ivf":
            try:
                ivf, meta = load_ann_index(directory)
            except (ArtifactError, OSError):
                obs.count("serve.ann.artifact", outcome="absent")
            else:
                if (meta.get("pool_sha256") == pool_fingerprint(built._ids)
                        and ivf.num_rows == built.num_papers):
                    built._ann = ivf
                    obs.count("serve.ann.artifact", outcome="adopted")
                else:
                    # Stale fingerprint: the serving pool is not the one
                    # the quantizer was built over; refit lazily.
                    obs.count("serve.ann.artifact", outcome="stale")
        if wal is not None:
            # After ANN adoption on purpose: replayed ingests must route
            # through the adopted quantizer's incremental add path —
            # exactly like the live ingests they reproduce — not force a
            # stale-fingerprint refit.
            built.attach_wal(wal, lag_bound=wal_lag_bound)
        return built

    # ------------------------------------------------------------------
    # Pool maintenance
    # ------------------------------------------------------------------
    def add_paper(self, paper: Paper) -> int:
        """Ingest one newly published paper without retraining.

        Runs the model's cold-start path — SEM fused text embedding with
        the fit-time encoder, lexical content row with the fit-time
        TF-IDF vocabulary, metadata-only graph attachment, base-embedding
        imputation from neighbours — then precomputes the paper's
        influence row and invalidates the query cache. In degraded mode
        the paper simply joins the TF-IDF pool.

        Ingestion is atomic under injected faults: the fallible
        embedding work (``serve.ingest`` / ``sem.embed`` fault sites) is
        retried *before* the graph is mutated, and a
        :class:`~repro.errors.RetryExhaustedError` leaves the pool and
        the model untouched.

        Returns the paper's position in the pool.
        """
        if self.degraded:
            with obs.request("serve.add_paper", paper=paper.id) as span:
                with self._serve_lock:
                    if paper.id in self._positions:
                        raise ValueError(
                            f"paper {paper.id!r} is already in the pool")
                    self._wal_log(paper)
                    self._append(paper, None)
                    obs.count("serve.papers_ingested", mode="degraded")
                    self._invalidate()
                    position = self._positions[paper.id]
            self._observe_latency("serve.ingest", span.duration,
                                  trace_id=span.trace_id)
            return position

        rec = self._recommender
        model = rec.model
        graph = model.graph
        with obs.request("serve.add_paper", paper=paper.id) as span:
            with self._serve_lock:
                if paper.id in self._positions:
                    raise ValueError(
                        f"paper {paper.id!r} is already in the pool")
                known = ("paper", paper.id) in graph
            prepared = None
            if not known:
                # The fallible, pure, *expensive* half (SEM embedding,
                # TF-IDF row) runs with _serve_lock released: concurrent
                # queries and batch flushes keep flowing while this
                # paper embeds, and a retry never observes a
                # half-ingested paper. Commit re-checks under the lock.
                prepared = self._prepare_ingest(paper)
            with self._serve_lock:
                if paper.id in self._positions:
                    raise ValueError(
                        f"paper {paper.id!r} is already in the pool")
                # Write-ahead: the record must be durable *before* any
                # graph/model/pool mutation, so a crash at any later
                # point leaves an ingest that replay will redo — and a
                # crash here (the serve.wal.append fault site) leaves
                # no record, no mutation, and no acknowledgement.
                self._wal_log(paper)
                if ("paper", paper.id) in graph:
                    # Known to the model (e.g. a fit-time paper joining the
                    # pool late): no graph/model mutation needed.
                    row = self._influence_rows([paper.id])[0]
                else:
                    text_vector, content_vector = prepared
                    index = attach_paper_to_network(graph, paper,
                                                    self._affiliations)
                    model.attach_paper(index, text_vector=text_vector,
                                       content_vector=content_vector)
                    row = self._influence_rows([paper.id])[0]
                obs.count("serve.papers_ingested")
                self._append(paper, row)
                self._invalidate()
                position = self._positions[paper.id]
        self._observe_latency("serve.ingest", span.duration,
                              trace_id=span.trace_id)
        return position

    @staticmethod
    def _observe_latency(name: str, seconds: float,
                         trace_id: str | None = None, **labels: str) -> None:
        """Record one latency sample into histogram + quantile families.

        ``<name>.duration_seconds`` keeps the fixed Prometheus buckets;
        ``<name>.latency`` feeds the P² sketch whose p50/p90/p99 back the
        serving SLOs (:func:`repro.obs.slo.default_serving_slos`) and the
        run-snapshot regression gate. Labels (e.g. ``cache=hit|miss``)
        apply to both twins. ``trace_id`` is the request the sample
        belongs to — ``span.duration`` is only set once the request
        context exits (unbinding the ambient ID), so the exemplar ID
        must be passed explicitly. Both are no-ops when obs is off.
        """
        obs.observe(f"{name}.duration_seconds", seconds,
                    trace_id=trace_id, **labels)
        obs.observe_quantile(f"{name}.latency", seconds,
                             trace_id=trace_id, **labels)

    def _prepare_ingest(self, paper: Paper) -> tuple:
        """The fallible, side-effect-free half of ingestion, retried.

        Computes the SEM text vector and TF-IDF content row under the
        ``serve.ingest`` fault site (and, transitively, ``sem.embed``)
        *before* any graph or model mutation, so a retry never observes
        a half-ingested paper.
        """
        rec = self._recommender
        model = rec.model

        @retry(attempts=3, backoff=Backoff(base=0.02),
               retry_on=(InjectedFault,), name="serve.ingest")
        def _prepare():
            faults.maybe_fail("serve.ingest")
            text_vector = None
            if model.use_text:
                text_vector = rec.sem.fused_embeddings([paper])[0]
            content_vector = None
            if model.content_matrix is not None:
                content_vector = self._content_tfidf().transform(paper)
            return text_vector, content_vector

        return _prepare()

    # ------------------------------------------------------------------
    # Durability: write-ahead log
    # ------------------------------------------------------------------
    @property
    def wal(self) -> "WriteAheadLog | None":
        """The attached write-ahead log, when ingestion is durable."""
        return self._wal

    def _wal_log(self, paper: Paper) -> None:
        """Durably log one ingest-to-be (no-op without a WAL / in replay)."""
        if self._wal is not None and not self._wal_replaying:
            self._wal.append(paper, self._pool_version)

    def attach_wal(self, wal: "WriteAheadLog", replay: bool = True,
                   lag_bound: int = 10_000) -> int:
        """Attach *wal*, recover it, and replay its records into the pool.

        From here on every successful :meth:`add_paper` appends a
        checksummed record to *wal* — fsync'd **before** the mutation is
        applied or acknowledged — so a restarted process can call
        ``attach_wal`` on the same log file and reproduce the
        never-crashed process' pool bit for bit (the artifact persists
        the field-sampler RNG state, and replay drives the exact same
        ingestion call sequence).

        Recovery drops torn-tail records (see
        :meth:`repro.serve.wal.WriteAheadLog.recover`); replay applies
        the surviving records in append order through the normal
        ingestion path, skipping papers already in the pool (idempotent
        after :meth:`compact`). Each replayed record passes the
        ``serve.wal.replay`` fault site inside a 3-attempt retry;
        exhaustion raises :class:`~repro.errors.WALError` — an
        acknowledged ingest that cannot be reapplied is data loss, and
        startup fails loudly rather than serving a silently shrunken
        pool. Outcomes are counted under
        ``serve.wal.replayed{outcome=applied|skipped|failed}``.

        Also registers the compaction-lag objective
        (:func:`repro.obs.slo.wal_lag_slo` with *lag_bound*) so
        :meth:`health` pages when the log outgrows cheap replay.

        Returns the number of records applied.
        """
        with self._serve_lock:
            records = wal.recover()
            self._wal = wal
            applied = self._replay_wal(records) if replay else 0
            obs.gauge("serve.wal.lag", float(wal.lag))
        # replace=True so the *lag_bound* passed here always wins — a
        # stale registration from an earlier attach (different bound)
        # must not silently override the operator's current choice.
        register_slo(wal_lag_slo(bound=lag_bound))
        return applied

    def _replay_wal(self, records: "Sequence[WALRecord]") -> int:
        """Reapply recovered WAL records in order; returns applied count."""
        applied = 0
        self._wal_replaying = True
        try:
            with obs.trace("serve.wal.replay", records=len(records)) as span:
                for record in records:
                    if record.paper.get("id") in self._positions:
                        obs.count("serve.wal.replayed", outcome="skipped")
                        continue
                    paper = paper_from_dict(record.paper)

                    @retry(attempts=3, backoff=Backoff(base=0.02),
                           retry_on=(InjectedFault,), name="serve.wal.replay")
                    def _apply(paper: Paper = paper) -> None:
                        faults.maybe_fail("serve.wal.replay")
                        self.add_paper(paper)

                    try:
                        _apply()
                    except ReproError as exc:
                        obs.count("serve.wal.replayed", outcome="failed")
                        error = WALError(
                            f"replay of WAL record #{record.seq} (paper "
                            f"{record.paper.get('id')!r}) failed — the log "
                            f"acknowledged this ingest, refusing to serve "
                            f"without it: {exc}")
                        obs.get_flight_recorder().trip("wal_replay_failed",
                                                       exc=error)
                        raise error from exc
                    obs.count("serve.wal.replayed", outcome="applied")
                    applied += 1
                span.set("applied", applied)
        finally:
            self._wal_replaying = False
        return applied

    def compact(self, directory: "str | Path | None" = None) -> dict:
        """Bake WAL-covered mutations into the artifact; truncate the log.

        Under ``_serve_lock``: snapshots the serving pool to
        ``pool/pool.json`` (:func:`repro.serve.artifacts.save_pool`),
        re-saves the pipeline — whose graph/model/field-sampler state
        already contains every WAL-covered ingest, under the loaded
        artifact's manifest ``extra`` metadata — and only *then*
        truncates the log, so a crash at any point during compaction
        still recovers (worst case: the old artifact plus a full log).
        A restarted :meth:`from_artifact` merges ``pool/pool.json`` with
        its ``papers`` argument, so compacted ingests survive without
        any WAL records.

        *directory* defaults to the artifact directory the index was
        loaded from. Returns a summary dict (records compacted, pool
        size, directory).
        """
        from repro.serve.artifacts import (MANIFEST_NAME, _manifest_extra,
                                           _refresh_manifest, save_pipeline,
                                           save_pool)
        with self._serve_lock:
            if self._wal is None:
                raise WALError("compact() needs an attached write-ahead log "
                               "(call attach_wal first)")
            target = Path(directory) if directory is not None \
                else self._artifact_dir
            if target is None:
                raise WALError("compact() needs an artifact directory: the "
                               "index was not loaded from one, so pass "
                               "directory= explicitly")
            with obs.trace("serve.wal.compact", records=self._wal.lag,
                           pool=self.num_papers):
                save_pool(target, self._papers)
                if not self.degraded:
                    # Keep the artifact's free-form metadata (e.g. the
                    # corpus scale/seed the CLI reloads the task from).
                    extra = _manifest_extra(self._artifact_dir or target)
                    save_pipeline(self._recommender, target,
                                  extra_metadata=extra,
                                  author_affiliations=self._affiliations)
                elif (target / MANIFEST_NAME).exists():
                    _refresh_manifest(target)
                dropped = self._wal.truncate()
            self._artifact_dir = target
            pool_size = self.num_papers
        return {"records_compacted": dropped, "pool_size": pool_size,
                "directory": str(target)}

    def _adopt(self, donor: "ServingIndex") -> None:
        """Transplant *donor*'s pool/model state into this index in place.

        The hot-swap cutover primitive (:class:`repro.serve.swap.
        HotSwapper`): callers everywhere hold references to *this*
        index object — the scheduler, the CLI, the load generator — so
        the swap mutates it under ``_serve_lock`` instead of handing
        out a new object. Serving-surface configuration (block size,
        cache capacity, retrieval strategy, attached scheduler, WAL)
        stays this index's own; everything the donor computed — model,
        pool, influence matrix, quantizer, profiles, fallback — moves
        over. The cache is dropped and the pool version bumped past
        both indexes so any in-flight batch publishes nothing stale.
        """
        with self._serve_lock:
            self._recommender = donor._recommender
            self._affiliations = donor._affiliations
            self._papers = donor._papers
            self._ids = donor._ids
            self._positions = donor._positions
            self._influence_buffer = donor._influence_buffer
            self._influence_count = donor._influence_count
            self._ann = donor._ann
            self._n_lists = donor._n_lists
            self._ann_seed = donor._ann_seed
            self._novelty_raw = donor._novelty_raw
            self._novelty_z = donor._novelty_z
            self._profiles = donor._profiles
            self._fallback_tfidf = donor._fallback_tfidf
            self._fallback_matrix = donor._fallback_matrix
            self._artifact_dir = donor._artifact_dir
            self._degraded_reason = donor._degraded_reason
            self._last_load_error = donor._last_load_error
            self._cache.clear()
            self._pool_version = max(self._pool_version,
                                     donor._pool_version) + 1

    def register_user(self, user_id: str, user_papers: Sequence[Paper]) -> None:
        """Precompute and store the interest profile of one user.

        Queries for *user_id* then skip the per-query interest forward
        pass. A profile containing papers the model has never seen is
        stored without an interest matrix — queries for that user serve
        through the TF-IDF fallback (counted as degraded).
        """
        papers = list(user_papers)
        if not papers:
            raise ValueError("user profile needs at least one paper")
        profile: np.ndarray | None = None
        with self._serve_lock:
            if not self.degraded:
                try:
                    profile = self._recommender.model.interest_vectors(
                        [p.id for p in papers]).data
                except GraphError:
                    obs.count("serve.degraded", reason="unknown_entity")
                    obs.event("serve.degraded", reason="unknown_entity")
            self._profiles[user_id] = (papers, profile)
            self._drop_cached_user(user_id)

    def _cache_hit(self, cache_key: tuple) -> "tuple[str, ...] | None":
        """Cached ids for *cache_key*, counting the hit (lock held)."""
        cached = self._cache.get(cache_key)
        if cached is not None:
            self._cache.move_to_end(cache_key)
            self.cache_hits += 1
            obs.count("serve.cache", outcome="hit")
        return cached

    def invalidate(self) -> None:
        """Explicitly drop every cached query result."""
        with self._serve_lock:
            self._cache.clear()

    def _invalidate(self) -> None:
        self._cache.clear()
        self._novelty_z = None
        self._fallback_matrix = None

    def _drop_cached_user(self, user_key: str) -> None:
        for key in [k for k in self._cache if k[0] == user_key]:
            del self._cache[key]

    def _append(self, paper: Paper, influence_row: np.ndarray | None) -> None:
        self._pool_version += 1
        self._positions[paper.id] = len(self._papers)
        self._papers.append(paper)
        self._ids.append(paper.id)
        novelty = 0.0
        if self._recommender is not None:
            novelty = self._recommender._novelty.get(paper.id, 0.0)
        self._novelty_raw.append(float(novelty))
        if influence_row is not None:
            row = np.asarray(influence_row).reshape(-1)
            buffer = self._influence_buffer
            if buffer is None:
                buffer = np.empty((_INITIAL_CAPACITY, row.shape[0]),
                                  dtype=row.dtype)
            elif self._influence_count == buffer.shape[0]:
                grown = np.empty((2 * buffer.shape[0], buffer.shape[1]),
                                 dtype=buffer.dtype)
                grown[:self._influence_count] = buffer
                buffer = grown
            buffer[self._influence_count] = row
            self._influence_buffer = buffer
            self._influence_count += 1
            if self._ann is not None:
                if self._ann.add(row):
                    # Imbalance trigger: one inverted list outgrew the
                    # recluster factor — refit the quantizer over the
                    # whole pool (deterministic, same seed).
                    self._ann.fit(self._influence)
                    obs.count("serve.ann.recluster")
                    obs.event("serve.ann.recluster",
                              pool_size=self._influence_count)

    def _influence_rows(self, paper_ids: Sequence[str]) -> np.ndarray:
        model = self._recommender.model
        blocks = [model.influence_vectors(
            paper_ids[start:start + self.block_size]).data
            for start in range(0, len(paper_ids), self.block_size)]
        return np.vstack(blocks)

    def _content_tfidf(self) -> TfIdfIndex:
        rec = self._recommender
        if rec.content_tfidf_ is None:
            # After load_pipeline the fit-time content vocabulary is not
            # materialised; it is a pure function of the persisted train
            # papers (in order), so refitting reproduces it exactly.
            rec.content_tfidf_ = TfIdfIndex(max_features=3000).fit(
                list(rec._train_by_id.values()))
        return rec.content_tfidf_

    # ------------------------------------------------------------------
    # Retrieval
    # ------------------------------------------------------------------
    def _resolve_user(self, user: "str | Sequence[Paper]"):
        """``(user_key, profile papers, interest or None)`` for *user*.

        Raises :class:`KeyError` for an unregistered user id and
        :class:`ValueError` for an empty ad-hoc paper list — the same
        contract whether the request arrives serially or in a batch.
        """
        if isinstance(user, str):
            if user not in self._profiles:
                raise KeyError(f"user {user!r} is not registered "
                               "(call register_user first)")
            papers, profile = self._profiles[user]
            return user, papers, profile
        papers = list(user)
        if not papers:
            raise ValueError("user has no representative papers")
        return tuple(p.id for p in papers), papers, None

    def top_k(self, user: "str | Sequence[Paper]", k: int = 10) -> list[str]:
        """Ids of the top-*k* pool papers for *user*, best first.

        *user* is either a registered user id or an ad-hoc sequence of
        the user's papers. Results are LRU-cached per ``(user, k)`` until
        the pool changes or :meth:`invalidate` is called. A one-request
        :meth:`batch_top_k`: raises :class:`KeyError` for an unregistered
        user and :class:`ValueError` for ``k < 1`` or an empty paper list.
        Concurrent ``top_k`` calls run one at a time; ingestion,
        registration and scheduler batches do not wait for them.
        """
        # A request span (not a plain trace): allocates the trace_id
        # every nested span, degradation event, and metric exemplar
        # carries, and offers the finished span tree to the exemplar
        # reservoir. Lock wait is inside the span: client-visible latency.
        with obs.request("serve.query", k=int(k)) as span:
            # Unbatched callers rank one at a time: a query's matmuls
            # already spread over every BLAS thread, so overlapping
            # queries only oversubscribe the cores, and a caller that
            # waited here finds a concurrent identical query's answer
            # in the cache instead of scoring it again.
            with self._top_k_lock:
                result = self.batch_top_k([(user, k)])[0]
            if result.error is not None:
                raise result.error
            span.set("cache", result.cache)
        # Split by cache outcome: hit-path latency is microseconds and
        # would otherwise mask the miss-path tail in the merged p99.
        self._observe_latency("serve.query", span.duration,
                              trace_id=span.trace_id, cache=result.cache)
        return result.ids

    def cached_top_k(self, user: "str | Sequence[Paper]",
                     k: int = 10) -> BatchQueryResult | None:
        """Answer from the LRU cache alone, or ``None`` on a miss.

        The scheduler's admission fast path: a hit resolves without
        queueing (and without a batch slot), counted exactly like a
        :meth:`batch_top_k` hit. A miss — or an invalid request, which
        the batch path reports per-request — touches **no** counters and
        returns ``None``, leaving the miss accounting to whichever path
        actually computes the answer.
        """
        if k < 1:
            return None
        try:
            user_key, _, _ = self._resolve_user(user)
        except (KeyError, ValueError):
            return None
        start = time.perf_counter()
        with self._serve_lock:
            cached = self._cache_hit((user_key, int(k)))
            if cached is None:
                return None
            obs.count("serve.queries")
            version = self._pool_version
            ids = list(cached)
        self._observe_latency("serve.query", time.perf_counter() - start,
                              trace_id=obs.current_trace_id(), cache="hit")
        return BatchQueryResult(ids=ids, scores=None, pool_version=version,
                                cache="hit")

    def shed_rank(self, user: "str | Sequence[Paper]",
                  k: int = 10) -> BatchQueryResult:
        """Degraded TF-IDF answer for a request the scheduler shed.

        Same validation contract as :meth:`top_k`, but the model rank
        path is skipped entirely — this is the load-shedding escape
        hatch, counted as ``serve.degraded{reason="shed"}`` and never
        cached (the next uncongested identical query should get the
        model ranking back).
        """
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        _, papers, _ = self._resolve_user(user)
        with obs.request("serve.query", k=int(k)) as span:
            with self._serve_lock:
                obs.count("serve.queries")
                obs.count("serve.degraded", reason="shed")
                obs.event("serve.degraded", reason="shed")
                version = self._pool_version
                ids = (_tfidf_rank(*self._fallback(), self._ids, papers, k)
                       if self._papers else [])
            span.set("cache", "shed")
        self._observe_latency("serve.query", span.duration,
                              trace_id=span.trace_id, cache="shed")
        return BatchQueryResult(ids=ids, scores=None, pool_version=version,
                                cache="shed", degraded_reason="shed")

    def batch_top_k(self, requests: "Sequence[tuple]"
                    ) -> list[BatchQueryResult]:
        """Answer several ``(user, k)`` requests in one coalesced pass.

        The index's one rank path (:meth:`top_k` is a batch of one).
        Three phases:

        1. **Admit** (under ``_serve_lock``): validate and resolve each
           request, serve cache hits, deduplicate the misses into jobs
           (one per distinct ``(user, k)``), resolve interest matrices,
           and — under ``index="ivf"`` — gather each job's candidate
           lists. Everything that reads mutable pool state happens here,
           including the snapshot (matrix, novelty, ids) scoring uses.
        2. **Score** (lock *released*): pure-numpy ranking over the
           snapshot — one blockwise pass shared by every exact job
           (:func:`repro.serve.ann.batch_exact_top_k`), per-job
           candidate scoring for IVF. Concurrent ingestion and other
           batches proceed while this runs; scores are bit-identical to
           ranking each request alone because per-query matmul shapes
           are preserved.
        3. **Publish** (re-locked): fill the LRU cache — skipped when
           the pool version moved under the batch (the results are
           still *valid* for the stamped version, just not cacheable)
           or the job answered through the fault-degradation path.

        Per-request validation errors land in
        :attr:`BatchQueryResult.error`; the rest of the batch is
        unaffected.
        """
        results: list[BatchQueryResult | None] = [None] * len(requests)
        jobs: "OrderedDict[tuple, _BatchJob]" = OrderedDict()
        fallback = None
        matrix = novelty = None
        cfg = None
        with self._serve_lock:
            version = self._pool_version
            # Positions index the matrices snapshotted below; a hot swap
            # (_adopt) during scoring replaces self._ids, so map them
            # through the ids of this same pool state.
            ids = self._ids
            empty = not self._papers
            for i, (user, k) in enumerate(requests):
                try:
                    if k < 1:
                        raise ValueError(f"k must be >= 1, got {k}")
                    user_key, papers, profile = self._resolve_user(user)
                except (KeyError, ValueError) as exc:
                    results[i] = BatchQueryResult(pool_version=version,
                                                  cache="error", error=exc)
                    continue
                obs.count("serve.queries")
                cache_key = (user_key, int(k))
                cached = self._cache_hit(cache_key)
                if cached is not None:
                    results[i] = BatchQueryResult(
                        ids=list(cached), scores=None,
                        pool_version=version, cache="hit")
                    continue
                self.cache_misses += 1
                obs.count("serve.cache", outcome="miss")
                job = jobs.get(cache_key)
                if job is None:
                    job = jobs[cache_key] = _BatchJob(cache_key, papers,
                                                      profile, int(k))
                job.positions.append(i)
            pending = list(jobs.values())
            if pending and not empty:
                if self.degraded:
                    for job in pending:
                        job.mode, job.reason = "fallback", "no_model"
                else:
                    cfg = self._recommender.config
                    for job in pending:
                        try:
                            faults.maybe_fail("serve.query")
                            interest = job.profile
                            if interest is None:
                                try:
                                    interest = (self._recommender.model
                                                .interest_vectors(
                                                    [p.id for p
                                                     in job.papers]).data)
                                except GraphError:
                                    job.mode = "fallback"
                                    job.reason = "unknown_entity"
                                    continue
                            job.interest = interest
                        except InjectedFault:
                            job.mode, job.reason = "fallback", "query_fault"
                if any(job.mode == "fallback" for job in pending):
                    fallback = self._fallback()
                rank_jobs = [j for j in pending if j.mode == "rank"]
                if rank_jobs:
                    # `_influence` views the filled buffer prefix; rows
                    # below `version`'s count are immutable (appends
                    # either write past the prefix or copy into a grown
                    # buffer), so the view is a consistent snapshot
                    # outside the lock.
                    matrix = self._influence
                    novelty = (self._novelty_scores()
                               if cfg.influence_weight > 0 else None)
                    if self.index_kind == "ivf":
                        ann = self._ensure_ann()
                        for job in rank_jobs:
                            job.candidates, job.stats = ann.gather(
                                job.interest, cfg.max_pool_mix, self.nprobe)

        # Phase 2 — lock released: pure-numpy scoring over snapshots.
        # (Jobs against an empty pool keep their empty ``ids``.)
        if pending and not empty:
            for job in pending:
                if job.mode != "fallback":
                    continue
                n = len(job.positions)
                obs.count("serve.degraded", n, reason=job.reason)
                for _ in range(n):
                    obs.event("serve.degraded", reason=job.reason)
                job.ids = _tfidf_rank(*fallback, ids, job.papers, job.k)
            if rank_jobs and self.index_kind == "ivf":
                for job in rank_jobs:
                    positions, scores = rank_candidates(
                        job.interest, matrix, job.candidates, job.k,
                        mix=cfg.max_pool_mix, novelty=novelty,
                        novelty_weight=cfg.influence_weight,
                        block_size=self.block_size)
                    job.ids = [ids[int(p)] for p in positions]
                    job.scores = scores
                    n = len(job.positions)
                    obs.count("serve.ann.lists_probed",
                              job.stats.lists_probed * n)
                    obs.count("serve.ann.candidates_scanned",
                              job.stats.candidates_scanned * n)
                    for _ in range(n):
                        obs.observe("serve.ann.scan_fraction",
                                    job.stats.scan_fraction)
            elif rank_jobs:
                ranked = batch_exact_top_k(
                    [j.interest for j in rank_jobs], matrix,
                    [j.k for j in rank_jobs], mix=cfg.max_pool_mix,
                    novelty=novelty, novelty_weight=cfg.influence_weight,
                    block_size=self.block_size)
                for job, (positions, scores) in zip(rank_jobs, ranked):
                    job.ids = [ids[int(p)] for p in positions]
                    job.scores = scores

        # Phase 3 — publish: cache only when the pool did not move.
        if pending:
            with self._serve_lock:
                fresh = self._pool_version == version
                for job in pending:
                    # A fault-degraded answer is never cached: the next
                    # identical query gets the model ranking back as
                    # soon as the fault clears.
                    if fresh and job.reason != "query_fault":
                        self._cache[job.cache_key] = tuple(job.ids)
                        while len(self._cache) > self.cache_size:
                            self._cache.popitem(last=False)
        for job in pending:
            for i in job.positions:
                results[i] = BatchQueryResult(
                    ids=list(job.ids), scores=job.scores,
                    pool_version=version, cache="miss",
                    degraded_reason=job.reason)
        return results  # type: ignore[return-value]

    def _ensure_ann(self) -> IVFIndex:
        """The fitted coarse quantizer, clustering lazily on first use."""
        matrix = self._influence
        assert matrix is not None
        if self._ann is None or not self._ann.fitted:
            n_lists = self._n_lists
            if n_lists is None:
                n_lists = max(1, int(round(math.sqrt(matrix.shape[0]))))
            self._ann = IVFIndex(n_lists, seed=self._ann_seed).fit(matrix)
        return self._ann

    def build_ann_index(self) -> IVFIndex:
        """Force-build (or return) the IVF quantizer over the pool.

        Public hook for warmup flows that cluster once offline and
        persist the result (:func:`repro.serve.artifacts.save_ann_index`)
        so serving startup never pays the k-means.
        """
        with self._serve_lock:
            if self.degraded or self._influence is None:
                raise NotFittedError(
                    "cannot cluster: the index has no influence matrix "
                    "(degraded or empty pool)")
            return self._ensure_ann()

    def set_nprobe(self, nprobe: int) -> None:
        """Retune the recall/latency trade-off; drops cached results."""
        if nprobe < 1:
            raise ValueError(f"nprobe must be >= 1, got {nprobe}")
        with self._serve_lock:
            self.nprobe = nprobe
            self._cache.clear()
            self._pool_version += 1

    def _novelty_scores(self) -> np.ndarray:
        if self._novelty_z is None:
            raw = np.asarray(self._novelty_raw)
            spread = raw.std()
            self._novelty_z = ((raw - raw.mean()) / spread
                               if spread > 1e-12 else np.zeros_like(raw))
        return self._novelty_z

    # ------------------------------------------------------------------
    # Degraded path
    # ------------------------------------------------------------------
    def _fallback(self) -> tuple[TfIdfIndex, np.ndarray]:
        """The TF-IDF fallback ``(index, pool matrix)``, built lazily.

        Reentrant: already held when reached via :meth:`batch_top_k`;
        taken fresh when a health probe rebuilds the lazy index under
        live traffic.
        """
        with self._serve_lock:
            if self._fallback_tfidf is None:
                # Vocabulary from the historical slice when a model is
                # around (matches the offline content baseline); from
                # the pool itself when fully degraded.
                rec = self._recommender
                if rec is not None and rec._train_by_id:
                    corpus = list(rec._train_by_id.values())
                else:
                    corpus = self._papers
                self._fallback_tfidf = TfIdfIndex().fit(corpus)
            if self._fallback_matrix is None:
                self._fallback_matrix = self._fallback_tfidf.transform_many(
                    self._papers)
            return self._fallback_tfidf, self._fallback_matrix

    # ------------------------------------------------------------------
    # Health and self-healing
    # ------------------------------------------------------------------
    def health(self, probe: bool = True) -> dict:
        """JSON-ready health report, running self-heal where possible.

        Checks, in order:

        - **artifact** — when the index came from :meth:`from_artifact`,
          the manifest is re-verified in place (schema version plus
          per-file SHA-256);
        - **embeddings** — the precomputed influence matrix must be
          entirely finite; a non-finite matrix is recomputed from the
          model (self-heal) before being declared unhealthy;
        - **fallback** — with ``probe=True`` and a non-empty pool, the
          TF-IDF degradation path is probed; a failed probe triggers
          :meth:`self_heal` (rebuild the fallback index) and one
          re-probe;
        - **SLOs** — every registered service-level objective (the
          serving defaults plus operator registrations, see
          :mod:`repro.obs.slo`) is evaluated against the live metrics;
          breaches are listed under ``slo_breaches``.

        ``healthy`` is True only when the index is not degraded, every
        check passed, and no SLO with data is breached — a
        degraded-but-answering index is *serving* but not *healthy*,
        which is exactly what operators page on.
        """
        checks: dict[str, dict] = {}
        if self._artifact_dir is not None:
            from repro.serve.artifacts import _verify_manifest
            entry: dict = {"path": str(self._artifact_dir)}
            try:
                _verify_manifest(self._artifact_dir)
                entry["ok"] = True
            except (ArtifactError, InjectedFault) as exc:
                entry["ok"] = False
                entry["error"] = str(exc)
            checks["artifact"] = entry

        finite = (self._influence is None
                  or bool(np.isfinite(self._influence).all()))
        healed_embeddings = False
        if not finite:
            healed_embeddings = self._heal_influence()
            finite = (self._influence is None
                      or bool(np.isfinite(self._influence).all()))
        checks["embeddings"] = {
            "ok": finite,
            "healed": healed_embeddings,
            "rows": 0 if self._influence is None else int(self._influence.shape[0]),
        }

        fallback: dict = {"ok": True, "healed": False, "probed": False}
        if probe and self._papers:
            fallback["probed"] = True
            if not self._probe_fallback():
                self.self_heal()
                fallback["healed"] = True
                fallback["ok"] = self._probe_fallback()
            checks["fallback"] = fallback
        else:
            checks["fallback"] = fallback

        # Attached micro-batching scheduler: a queue saturated to
        # capacity (admissions are being shed as queue_full) or an
        # actively-burning SLO governor makes the index unhealthy —
        # it is answering, but through the degraded path.
        if self._scheduler is not None:
            stats = self._scheduler.stats()
            saturated = stats["queue_depth"] >= stats["queue_capacity"]
            checks["scheduler"] = {
                "ok": not (saturated or stats["shedding"]),
                "saturated": bool(saturated),
                **stats,
            }

        # Attached write-ahead log: structural state (lag, torn records
        # dropped at last recovery) plus a gauge refresh so the
        # compaction-lag SLO below judges the *current* log size even
        # when obs was enabled after the appends happened.
        if self._wal is not None:
            obs.gauge("serve.wal.lag", float(self._wal.lag))
            checks["wal"] = {
                "ok": True,
                "path": str(self._wal.path),
                "lag": int(self._wal.lag),
                "torn_records": int(self._wal.torn_records),
            }

        # Registered SLOs (latency quantiles, error budgets) close the
        # observability loop: a breach with real data makes the index
        # unhealthy, exactly like a failed structural check. SLOs with
        # no recorded data (obs off, or no traffic yet) stay ok.
        slo_statuses = evaluate_registered()
        slo_breaches = [s.slo for s in slo_statuses if not s.ok]

        healthy = (not self.degraded
                   and not slo_breaches
                   and all(entry.get("ok", True) for entry in checks.values()))
        obs.gauge("serve.healthy", 1.0 if healthy else 0.0)
        report = {
            "healthy": bool(healthy),
            "degraded": bool(self.degraded),
            "degraded_reason": self._degraded_reason if self.degraded else None,
            "pool_size": self.num_papers,
            "registered_users": len(self._profiles),
            "cache": {"hits": self.cache_hits, "misses": self.cache_misses,
                      "size": len(self._cache), "capacity": self.cache_size},
            "checks": checks,
            "slos": [s.snapshot() for s in slo_statuses],
            "slo_breaches": slo_breaches,
        }
        if self._last_load_error is not None:
            report["load_attempts"] = [
                {"attempt": a.attempt, "error": repr(a.error),
                 "delay": a.delay}
                for a in self._last_load_error.attempt_log]
        return report

    def self_heal(self) -> None:
        """Drop and lazily rebuild the TF-IDF degradation fallback.

        Called by :meth:`health` when the fallback probe fails; also safe
        to call directly after mutating the pool out of band.
        """
        with self._serve_lock:
            self._fallback_tfidf = None
            self._fallback_matrix = None
        obs.count("serve.self_heal", component="fallback")

    def _probe_fallback(self) -> bool:
        """True when the degradation path can produce finite scores."""
        try:
            _, matrix = self._fallback()
            return bool(np.isfinite(matrix).all())
        except Exception:  # a health probe must never take the service down
            return False

    def _heal_influence(self) -> bool:
        """Recompute the influence matrix from the model; True on success."""
        if self.degraded or self._influence is None:
            return False
        try:
            healed = self._influence_rows(self._ids)
        except Exception:
            return False
        with self._serve_lock:
            self._influence = healed
            self._novelty_z = None
            self._cache.clear()
        obs.count("serve.self_heal", component="influence")
        return bool(np.isfinite(self._influence).all())
