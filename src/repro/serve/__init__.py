"""repro.serve — persistent model artifacts + incremental serving.

The deployment half of the reproduction (ROADMAP north star): a fitted
SEM -> NPRec pipeline is split into a **persistent artifact** (a
versioned on-disk directory with a manifest and checksums, written by
:func:`save_pipeline` and reread by :func:`load_pipeline`) and an
**online scoring path** (:class:`ServingIndex`: precomputed interest /
influence embeddings, blockwise top-K retrieval, a bounded query cache,
and :meth:`ServingIndex.add_paper` cold-start ingestion of newly
published papers without retraining — Sec. IV-E's serving condition).

Guarantees:

* round trip is exact — ``load_pipeline(save_pipeline(r)).rank(...)``
  equals ``r.rank(...)`` bit for bit (weights, graph adjacency order,
  sampled receptive fields, and the field-sampler RNG state are all
  persisted);
* artifacts fail loudly — checksum or schema-version mismatches raise
  :class:`repro.errors.ArtifactError` / ``SchemaVersionError``;
* serving degrades gracefully — unknown users or unloadable artifacts
  fall back to the TF-IDF content ranker, with the downgrade recorded
  under the ``serve.degraded`` obs counter; artifact loads are retried
  (:mod:`repro.resilience.retry`) before degradation kicks in, and
  :meth:`ServingIndex.health` re-verifies checksums, probes the
  fallback, and self-heals rebuildable state in place;
* retrieval scales past brute force — ``ServingIndex(index="ivf")``
  probes a pure-numpy IVF coarse quantizer (:mod:`repro.serve.ann`)
  instead of scoring the whole pool, with measured recall@K against
  the exact oracle gated in CI, and the clustered quantizer persists
  inside the artifact (:func:`save_ann_index`) so serving startup
  never re-clusters.

* concurrent traffic batches — :class:`BatchScheduler`
  (:mod:`repro.serve.scheduler`) coalesces concurrent queries into
  single batched matrix passes (:meth:`ServingIndex.batch_top_k`,
  bit-identical to ranking each request alone), with a bounded
  admission queue and SLO-driven load-shedding to the TF-IDF degraded
  path.

* ingestion survives crashes — :class:`WriteAheadLog`
  (:mod:`repro.serve.wal`) durably logs every ``add_paper`` before it
  is applied; a restarted process replays the log
  (:meth:`ServingIndex.attach_wal`) and reproduces the never-crashed
  pool bit for bit, and :meth:`ServingIndex.compact` bakes the log
  into the artifact. :class:`HotSwapper` (:mod:`repro.serve.swap`)
  adopts a retrained artifact with zero downtime — canary-validated
  against the live index, rolled back on failure.

CLI: ``python -m repro.serve
warmup|query|smoke|health|loadtest|compact|swap``.
"""

from repro.serve.ann import (
    IVFIndex,
    ProbeStats,
    batch_exact_top_k,
    exact_top_k,
    exact_top_k_scored,
    pooled_scores,
    rank_candidates,
)
from repro.serve.artifacts import (
    SCHEMA_VERSION,
    has_ann_index,
    load_ann_index,
    load_author_affiliations,
    load_pipeline,
    load_pool,
    pool_fingerprint,
    save_ann_index,
    save_pipeline,
    save_pool,
)
from repro.serve.index import BatchQueryResult, ServingIndex
from repro.serve.scheduler import BatchScheduler, SheddingGovernor, Ticket
from repro.serve.swap import HotSwapper, SwapReport
from repro.serve.wal import WALRecord, WriteAheadLog

__all__ = [
    "SCHEMA_VERSION",
    "save_pipeline", "load_pipeline", "load_author_affiliations",
    "save_ann_index", "load_ann_index", "has_ann_index", "pool_fingerprint",
    "save_pool", "load_pool",
    "IVFIndex", "ProbeStats", "exact_top_k", "exact_top_k_scored",
    "batch_exact_top_k", "rank_candidates", "pooled_scores",
    "ServingIndex", "BatchQueryResult",
    "BatchScheduler", "SheddingGovernor", "Ticket",
    "WriteAheadLog", "WALRecord",
    "HotSwapper", "SwapReport",
]
