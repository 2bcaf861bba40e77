"""Zero-downtime artifact hot swap with canary validation and rollback.

Before this module the only way to adopt a retrained artifact was to
stop serving, rebuild a :class:`~repro.serve.index.ServingIndex`, and
re-point every caller at the new object. :class:`HotSwapper` replaces
that with the standard blue/green recipe, entirely in process:

1. **Load** the candidate artifact in the background — the live index
   keeps serving untouched. The load passes the ``serve.swap.load``
   fault site inside a retry; exhaustion (or a candidate that comes up
   degraded) ends the attempt with ``outcome="load_failed"`` and the
   incumbent keeps serving.
2. **Catch up**: the candidate is constructed over a snapshot of the
   live pool — which *is* the live write-ahead log's contents plus the
   last compaction — so every paper ingested since the incumbent's
   artifact was written is replayed onto the candidate through the
   normal cold-start path.
3. **Canary**: a golden query set (registered users) is answered by
   both indexes and compared (mean overlap@k must reach
   ``min_overlap``), and the candidate must pass its structural
   ``health()`` checks (artifact manifest, finite embeddings, fallback
   probe). Process-global SLO state is deliberately ignored — it
   reflects the *live* traffic history, not the candidate.
4. **Cutover** — only if the canary passes: under the scheduler's
   drain barrier (:meth:`BatchScheduler.quiesce`, so batches admitted
   against the incumbent finish before it is replaced and new misses
   wait for the candidate) and the serving lock, papers and users that
   arrived *during* steps 1–3 are replayed onto the candidate, then the
   candidate's state is transplanted into the live index object in
   place (:meth:`ServingIndex._adopt`) — callers never re-point at
   anything.
5. **Rollback** is the default, not an action: a failed canary simply
   leaves the incumbent untouched, stamped ``outcome="rolled_back"``
   on the ``serve.swap`` counter and a trace-carrying ``obs.event``.

The attached WAL (if any) is deliberately left as-is across a swap: its
records cover ingests the *new* artifact has not compacted either, so a
crash right after the swap still replays them. Run
:meth:`ServingIndex.compact` after a successful swap to bake the pool
into the new artifact and empty the log.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Sequence

from repro import obs
from repro.errors import ArtifactError, InjectedFault, RetryExhaustedError
from repro.resilience import faults
from repro.resilience.retry import Backoff, retry
from repro.serve.index import ServingIndex

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.serve.scheduler import BatchScheduler


@dataclass
class SwapReport:
    """Outcome of one :meth:`HotSwapper.swap` attempt."""

    outcome: str  # "swapped" | "rolled_back" | "load_failed"
    directory: str
    #: Per-golden-user overlap@k between candidate and live answers.
    overlaps: dict[str, float] = field(default_factory=dict)
    mean_overlap: float | None = None
    min_overlap: float = 0.0
    golden_k: int = 0
    #: Failed structural health checks on the candidate (names).
    failed_checks: list[str] = field(default_factory=list)
    #: Papers replayed onto the candidate during cutover (arrived while
    #: the candidate was loading/canarying).
    delta_papers: int = 0
    error: str | None = None

    @property
    def swapped(self) -> bool:
        """True when the candidate was adopted."""
        return self.outcome == "swapped"

    def snapshot(self) -> dict:
        """JSON-ready dump (CLI output, logs)."""
        return {
            "outcome": self.outcome, "directory": self.directory,
            "overlaps": dict(self.overlaps),
            "mean_overlap": self.mean_overlap,
            "min_overlap": self.min_overlap, "golden_k": self.golden_k,
            "failed_checks": list(self.failed_checks),
            "delta_papers": self.delta_papers, "error": self.error,
        }


#: Most recent swap outcome in this process (``/debug/vars`` surfaces it).
_LAST_REPORT: SwapReport | None = None


def last_swap_report() -> SwapReport | None:
    """The most recent :class:`SwapReport` of this process, if any."""
    return _LAST_REPORT


def _conclude(report: SwapReport) -> SwapReport:
    """Stamp *report* as the process' latest; trip the recorder on failure."""
    global _LAST_REPORT
    _LAST_REPORT = report
    if report.outcome != "swapped":
        obs.get_flight_recorder().trip(f"swap_{report.outcome}")
    return report


class HotSwapper:
    """Swap a live :class:`ServingIndex` to a new artifact without downtime.

    Parameters
    ----------
    index:
        The live index; mutated in place on a successful swap.
    scheduler:
        The :class:`BatchScheduler` serving the index, when one is.
        Defaults to the index's attached scheduler; the cutover runs
        under its :meth:`~BatchScheduler.quiesce` drain barrier so no
        in-flight batch straddles the swap.
    golden_users:
        User ids for the canary query set; defaults to every registered
        user, capped at *max_golden*.
    golden_k:
        ``k`` of the canary queries.
    min_overlap:
        Minimum mean overlap@k between candidate and live answers for
        the canary to pass. The two indexes run *different* models, so
        1.0 is not the bar — the bar is "not answering garbage".
    max_golden:
        Cap on the default golden set size.
    retry_attempts:
        Attempts for the candidate artifact load (``serve.swap.load``
        fault site).
    """

    def __init__(self, index: ServingIndex,
                 scheduler: "BatchScheduler | None" = None,
                 golden_users: Sequence[str] | None = None,
                 golden_k: int = 10, min_overlap: float = 0.6,
                 max_golden: int = 8, retry_attempts: int = 3) -> None:
        if golden_k < 1:
            raise ValueError(f"golden_k must be >= 1, got {golden_k}")
        if not 0.0 <= min_overlap <= 1.0:
            raise ValueError(
                f"min_overlap must be in [0, 1], got {min_overlap}")
        if max_golden < 1:
            raise ValueError(f"max_golden must be >= 1, got {max_golden}")
        self.index = index
        self.scheduler = scheduler
        self.golden_users = (list(golden_users)
                             if golden_users is not None else None)
        self.golden_k = int(golden_k)
        self.min_overlap = float(min_overlap)
        self.max_golden = int(max_golden)
        self.retry_attempts = int(retry_attempts)

    # ------------------------------------------------------------------
    def swap(self, directory: "str | Path") -> SwapReport:
        """Attempt to adopt the artifact at *directory*; never raises
        out of a failed canary or load — the incumbent keeps serving and
        the report says why (``InjectedFault``/``RetryExhaustedError``
        surface only through ``outcome="load_failed"``).
        """
        live = self.index
        directory = str(directory)
        with obs.request("serve.swap", directory=directory) as span:
            # -- snapshot the live surface (pool + users) --------------
            with live._serve_lock:
                snapshot_papers = list(live._papers)
                snapshot_count = len(snapshot_papers)
                profiles = {uid: list(papers)
                            for uid, (papers, _) in live._profiles.items()}

            # -- load + catch up (no live lock held) -------------------
            try:
                candidate = self._load_candidate(directory, snapshot_papers)
            except (RetryExhaustedError, ArtifactError) as exc:
                span.set("outcome", "load_failed")
                obs.count("serve.swap", outcome="load_failed")
                obs.event("serve.swap", outcome="load_failed",
                          directory=directory, error=str(exc))
                return _conclude(SwapReport(
                    outcome="load_failed", directory=directory,
                    min_overlap=self.min_overlap,
                    golden_k=self.golden_k, error=str(exc)))
            for uid, papers in profiles.items():
                candidate.register_user(uid, papers)

            # -- canary ------------------------------------------------
            passed, report = self._canary(live, candidate, directory)
            if not passed:
                span.set("outcome", "rolled_back")
                obs.count("serve.swap", outcome="rolled_back")
                # Trace-stamped: the event carries this request's
                # trace id, joining the rollback to its canary spans.
                obs.event("serve.swap", outcome="rolled_back",
                          directory=directory,
                          mean_overlap=report.mean_overlap,
                          failed_checks=list(report.failed_checks))
                return _conclude(report)

            # -- cutover -----------------------------------------------
            scheduler = (self.scheduler if self.scheduler is not None
                         else live.scheduler)
            barrier = (scheduler.quiesce() if scheduler is not None
                       else contextlib.nullcontext())
            with obs.trace("serve.swap.cutover"), barrier:
                with live._serve_lock:
                    delta = live._papers[snapshot_count:]
                    for paper in delta:
                        if paper.id not in candidate._positions:
                            candidate.add_paper(paper)
                    for uid, (papers, _) in live._profiles.items():
                        if uid not in candidate._profiles:
                            candidate.register_user(uid, list(papers))
                    live._adopt(candidate)
            span.set("outcome", "swapped")
            obs.count("serve.swap", outcome="swapped")
            obs.event("serve.swap", outcome="swapped", directory=directory,
                      delta_papers=len(delta))
            report.outcome = "swapped"
            report.delta_papers = len(delta)
            return _conclude(report)

    # ------------------------------------------------------------------
    def _load_candidate(self, directory: str,
                        snapshot_papers: list) -> ServingIndex:
        """Build the candidate index over the live pool snapshot."""
        live = self.index

        @retry(attempts=self.retry_attempts, backoff=Backoff(base=0.02),
               retry_on=(InjectedFault,), name="serve.swap.load")
        def _load() -> ServingIndex:
            faults.maybe_fail("serve.swap.load")
            with obs.trace("serve.swap.load", directory=directory):
                candidate = ServingIndex.from_artifact(
                    directory, papers=snapshot_papers,
                    block_size=live.block_size,
                    cache_size=live.cache_size, index=live.index_kind,
                    nprobe=live.nprobe, n_lists=live._n_lists,
                    ann_seed=live._ann_seed)
            if candidate.degraded:
                # A degraded candidate would *downgrade* the service;
                # treat it exactly like an unloadable artifact.
                raise ArtifactError(
                    f"candidate at {directory} came up degraded "
                    f"({candidate._degraded_reason}); refusing to swap "
                    "a healthy index for it")
            return candidate

        return _load()

    def _canary(self, live: ServingIndex, candidate: ServingIndex,
                directory: str) -> "tuple[bool, SwapReport]":
        """Validate the candidate: (passed, report-with-canary-evidence).

        The report carries the per-user overlaps either way — a
        successful swap's report shows *how well* the canary agreed,
        not just that it did.
        """
        report = self._base_report("rolled_back", directory)
        golden = self.golden_users
        if golden is None:
            golden = sorted(candidate._profiles)[:self.max_golden]
        with obs.trace("serve.swap.canary", users=len(golden)):
            overlaps: dict[str, float] = {}
            for uid in golden:
                live_ids = live.top_k(uid, self.golden_k)
                cand_ids = candidate.top_k(uid, self.golden_k)
                denom = max(len(live_ids), len(cand_ids), 1)
                overlaps[uid] = len(set(live_ids) & set(cand_ids)) / denom
            report.overlaps = overlaps
            if overlaps:
                report.mean_overlap = sum(overlaps.values()) / len(overlaps)
                if report.mean_overlap < self.min_overlap:
                    report.error = (
                        f"canary overlap@{self.golden_k} = "
                        f"{report.mean_overlap:.3f} under the "
                        f"{self.min_overlap:.3f} floor")
                    return False, report
            # Structural checks only: the global SLO registry reflects
            # the live process' traffic history and would spuriously
            # veto any candidate during a latency burn.
            health = candidate.health(probe=True)
            failed = [name for name, entry in health["checks"].items()
                      if not entry.get("ok", True)]
            if failed or health["degraded"]:
                report.failed_checks = failed
                report.error = ("candidate failed structural health "
                                f"checks: {failed or ['degraded']}")
                return False, report
        return True, report

    def _base_report(self, outcome: str, directory: str) -> SwapReport:
        return SwapReport(outcome=outcome, directory=directory,
                          min_overlap=self.min_overlap,
                          golden_k=self.golden_k)
