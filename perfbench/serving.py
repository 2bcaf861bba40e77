"""Serving set-up shared by the ``rank`` and ``mixed`` workloads."""

from __future__ import annotations

import shutil
import time
from dataclasses import dataclass
from pathlib import Path

from checks import ExactOracle, influence_matrix
from common import K, WORK, make_users
from fixture import ensure_fixture

RUNS = WORK / "runs"

def wrap_setup(spans) -> None:
    """Record the serving entry points whose cost counts as set-up."""
    from repro.serve import artifacts
    from repro.serve.index import ServingIndex
    # from_artifact imports load_pipeline from the module at call time.
    spans.wrap(artifacts, "load_pipeline", "serve.artifacts.load")
    spans.wrap(ServingIndex, "from_artifact", "serve.index.from_artifact")
    spans.wrap(ServingIndex, "register_user", "serve.index.register_user")


@dataclass
class Fixture:
    """The cached pool plus the seeded users that query it."""

    artifact: Path
    pool: list
    train: dict
    reservoir: list
    users: "list[list[str]]"

    @classmethod
    def load(cls, seed: int) -> "Fixture":
        from repro.serve import load_pool
        root = ensure_fixture()
        train = {p.id: p for p in load_pool(root / "train")}
        return cls(artifact=root / "artifact",
                   pool=load_pool(root / "artifact"), train=train,
                   reservoir=load_pool(root / "reservoir"),
                   users=make_users(seed, list(train)))

    def user_papers(self, user: int) -> list:
        return [self.train[pid] for pid in self.users[user]]

    def private_copy(self, name: str) -> Path:
        """A writable copy of the artifact (the WAL and compaction write).

        Copies live under :data:`RUNS` until :func:`discard_copies`.
        """
        target = RUNS / name
        shutil.rmtree(target, ignore_errors=True)
        shutil.copytree(self.artifact, target)
        return target


def discard_copies() -> None:
    """Delete every private artifact copy and write-ahead log."""
    shutil.rmtree(RUNS, ignore_errors=True)


def start_index(fixture: Fixture, artifact: Path, **kwargs):
    """Cold start: load the artifact over the pool, register every user.

    Returns ``(index, seconds)``.
    """
    from repro.serve import ServingIndex
    began = time.perf_counter()
    index = ServingIndex.from_artifact(artifact, papers=fixture.pool, **kwargs)
    if index.degraded:
        raise RuntimeError(f"artifact at {artifact} did not load")
    for user in range(len(fixture.users)):
        index.register_user(f"u{user:03d}", fixture.user_papers(user))
    return index, time.perf_counter() - began


def exact_oracle(artifact: Path, pool_ids: "list[str]") -> ExactOracle:
    """Exact ranking from a separately loaded copy of *artifact*."""
    from repro.serve import load_pipeline
    recommender = load_pipeline(artifact)
    model = recommender.model
    if recommender.config.influence_weight != 0:
        raise RuntimeError("the oracle assumes influence_weight == 0")
    return ExactOracle(lambda ids: model.interest_vectors(ids).data,
                       influence_matrix(model, pool_ids), pool_ids,
                       mix=recommender.config.max_pool_mix, k=K)
