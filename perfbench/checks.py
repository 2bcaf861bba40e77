"""Output checks: every answer the benchmark verifies goes through here.

* :class:`ExactOracle` — the exact ranking of a user over a pool matrix,
  computed with :func:`repro.serve.ann.exact_top_k` from an independently
  loaded model, to compare served answers against.
* :func:`wal_mismatches` — what :meth:`WriteAheadLog.recover` returns
  after a run, against the ingests the index acknowledged.
* :func:`rankings_identical` — a reloaded artifact against the in-memory
  model it was saved from.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

#: Rows per influence block; ``ServingIndex``'s default ``block_size``.
#: The oracle must slice the pool exactly as the index does, so each
#: matmul rounds identically.
BLOCK = 512


def influence_matrix(model, paper_ids: "Sequence[str]",
                     block: int = BLOCK) -> np.ndarray:
    """Influence rows of *paper_ids*, computed block by block like the index."""
    return np.vstack([model.influence_vectors(list(paper_ids[s:s + block])).data
                      for s in range(0, len(paper_ids), block)])


class ExactOracle:
    """Exact top-k over a fixed pool, for checking served answers.

    *interest* maps a user's paper ids to the user's interest matrix
    (normally ``model.interest_vectors(ids).data``).
    """

    def __init__(self, interest: "Callable[[list[str]], np.ndarray]",
                 matrix: np.ndarray, pool_ids: "Sequence[str]", mix: float,
                 k: int) -> None:
        from repro.serve.ann import exact_top_k
        self._exact_top_k = exact_top_k
        self._interest = interest
        self.matrix = matrix
        self.pool_ids = list(pool_ids)
        self.mix = mix
        self.k = k

    def expected(self, user_papers: "list[str]") -> "list[str]":
        positions = self._exact_top_k(self._interest(user_papers), self.matrix,
                                      self.k, mix=self.mix, block_size=BLOCK)
        return [self.pool_ids[int(p)] for p in positions]

    def agrees(self, user_papers: "list[str]", answer: "list[str]") -> bool:
        """True when *answer* is exactly the oracle's ranking."""
        return list(answer) == self.expected(user_papers)

    def recall(self, user_papers: "list[str]", answer: "list[str]") -> float:
        """Share of the oracle's top-k that *answer* contains."""
        truth = self.expected(user_papers)
        return len(set(answer) & set(truth)) / len(truth)


def wal_mismatches(wal_path, acknowledged: "list") -> int:
    """Ingests whose recovered WAL record differs from the acknowledged one.

    Counts positions where the recovered record's paper is not the
    acknowledged paper, plus missing and extra records.
    """
    from repro.data.io import paper_to_dict
    from repro.serve import WriteAheadLog
    log = WriteAheadLog(wal_path)
    try:
        recovered = [record.paper for record in log.recover()]
    finally:
        log.close()
    expected = [paper_to_dict(paper) for paper in acknowledged]
    wrong = sum(1 for got, want in zip(recovered, expected) if got != want)
    return wrong + abs(len(recovered) - len(expected))


def rankings_identical(original, reloaded, users, new_ids) -> bool:
    """Same rankings for every user and bit-equal served influence rows."""
    for user in users:
        papers = list(user.train_papers)
        candidates = list(user.candidates)
        if original.rank(papers, candidates) != reloaded.rank(papers,
                                                                candidates):
            return False
    return bool(np.array_equal(influence_matrix(original.model, new_ids),
                               influence_matrix(reloaded.model, new_ids)))
