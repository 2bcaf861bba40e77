"""Twin-network contrastive fine-tuning (Sec. III-B/D, Eqs. 13-14).

The twin network applies the *same* :class:`SubspaceEmbeddingNetwork` to
the anchor and both comparison papers of each annotated triplet and
optimises the hinge ranking loss of Eq. 14:

``max(0, D^k(p, q') - D^k(p, q) + eps) + lambda ||theta||^2``

where (p, q) is the pair the expert rules marked *more different*, so the
learned distance must exceed the less-different pair's distance by at
least the margin. The paper's default distance is the negative inner
product ``D^k(p, q) = -c_p^k . c_q^k``; Euclidean and cosine variants are
provided for the ablation the paper mentions as "other choices".
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from functools import partial
from typing import Mapping, Sequence

import numpy as np

from repro import obs
from repro.core.annotation import Triplet
from repro.core.subspace_model import SubspaceEmbeddingNetwork
from repro.nn import Tensor, l2_regularization, stack as tensor_stack
from repro.resilience import faults
from repro.resilience.checkpoint import CheckpointManager
from repro.resilience.guards import GuardPolicy, NumericGuard
from repro.resilience.training import EpochTrainer

#: Supported D^k implementations.
DISTANCE_FUNCTIONS = ("neg_dot", "euclidean", "cosine")


def pair_distance(a: Tensor, b: Tensor, kind: str = "neg_dot") -> Tensor:
    """Differentiable distance between two subspace embedding vectors."""
    if kind == "neg_dot":
        return -(a * b).sum()
    if kind == "euclidean":
        diff = a - b
        return ((diff * diff).sum() + 1e-12) ** 0.5
    if kind == "cosine":
        norm_a = ((a * a).sum() + 1e-12) ** 0.5
        norm_b = ((b * b).sum() + 1e-12) ** 0.5
        return 1.0 - (a * b).sum() / (norm_a * norm_b)
    raise ValueError(f"unknown distance {kind!r}; choose from {DISTANCE_FUNCTIONS}")


@dataclass
class TrainHistory:
    """Per-epoch training diagnostics."""

    losses: list[float] = field(default_factory=list)
    violation_rates: list[float] = field(default_factory=list)


class TwinNetworkTrainer(EpochTrainer):
    """Optimises a :class:`SubspaceEmbeddingNetwork` on annotated triplets.

    Parameters
    ----------
    network:
        The shared-weight subspace embedding network (both twin arms).
    distance:
        One of :data:`DISTANCE_FUNCTIONS`.
    margin:
        The epsilon slack of Eq. 14.
    reg:
        L2 regularisation coefficient lambda.
    lr, epochs, batch_size, seed:
        Optimisation hyperparameters.
    checkpoint, checkpoint_every, guard:
        Optional resumable checkpoints and numeric guard (see
        :class:`~repro.resilience.training.EpochTrainer`).
    """

    def __init__(self, network: SubspaceEmbeddingNetwork, distance: str = "neg_dot",
                 margin: float = 0.5, reg: float = 1e-6, lr: float = 1e-3,
                 epochs: int = 5, batch_size: int = 16,
                 seed: int | np.random.Generator | None = 0,
                 checkpoint: "CheckpointManager | str | os.PathLike | None" = None,
                 checkpoint_every: int = 1,
                 guard: "NumericGuard | GuardPolicy | bool | None" = None) -> None:
        if distance not in DISTANCE_FUNCTIONS:
            raise ValueError(f"unknown distance {distance!r}; choose from {DISTANCE_FUNCTIONS}")
        if margin < 0:
            raise ValueError(f"margin must be >= 0, got {margin}")
        super().__init__(network, lr, epochs, batch_size, seed, checkpoint,
                         checkpoint_every, guard)
        self.network = network
        self.distance = distance
        self.margin = margin
        self.reg = reg

    # ------------------------------------------------------------------
    def _embed_batch(self, paper_ids: set[str],
                     encoded: Mapping[str, tuple[np.ndarray, Sequence[int]]]
                     ) -> dict[str, list[Tensor]]:
        embeddings: dict[str, list[Tensor]] = {}
        for pid in paper_ids:
            sentence_vectors, labels = encoded[pid]
            embeddings[pid] = self.network(sentence_vectors, labels)
        return embeddings

    def _triplet_distances(self, triplet: Triplet,
                           embeddings: dict[str, list[Tensor]]) -> tuple[Tensor, Tensor]:
        anchor = embeddings[triplet.anchor][triplet.subspace]
        positive = embeddings[triplet.positive][triplet.subspace]
        negative = embeddings[triplet.negative][triplet.subspace]
        return (pair_distance(anchor, positive, self.distance),
                pair_distance(anchor, negative, self.distance))

    def train(self, triplets: Sequence[Triplet],
              encoded: Mapping[str, tuple[np.ndarray, Sequence[int]]],
              resume: bool = False) -> TrainHistory:
        """Run the contrastive optimisation; returns per-epoch diagnostics.

        Parameters
        ----------
        triplets:
            Output of :func:`repro.core.annotation.annotate_triplets`.
        encoded:
            ``paper id -> (sentence matrix, labels)`` cache; must cover
            every id mentioned by the triplets.
        resume:
            Continue from the newest checkpoint snapshot (requires the
            trainer's *checkpoint* option); the resumed run's history and
            final weights are bit-identical to an uninterrupted one.
        """
        triplets = list(triplets)
        if not triplets:
            raise ValueError("no triplets to train on")
        missing = {t.anchor for t in triplets} | {t.positive for t in triplets} \
            | {t.negative for t in triplets}
        missing -= set(encoded)
        if missing:
            raise KeyError(f"encoded cache missing {len(missing)} papers, "
                           f"e.g. {sorted(missing)[:3]}")
        history = TrainHistory()
        with obs.profile("sem.twin.train"), \
                obs.trace("sem.twin.train", epochs=self.epochs,
                          triplets=len(triplets), distance=self.distance):
            self._train(len(triplets), vars(history),
                        partial(self._run_epoch, triplets, encoded), resume)
        return history

    # ------------------------------------------------------------------
    def _run_epoch(self, triplets: list[Triplet],
                   encoded: Mapping[str, tuple[np.ndarray, Sequence[int]]],
                   order: np.ndarray, rng: np.random.Generator,
                   epoch: int) -> tuple[float, float]:
        rng.shuffle(order)
        epoch_loss = 0.0
        violations = 0
        with obs.trace("sem.twin.train.epoch", epoch=epoch) as span:
            for start in range(0, len(order), self.batch_size):
                faults.maybe_fail("trainer.batch")
                batch = [triplets[i] for i in order[start:start + self.batch_size]]
                unique_ids = {t.anchor for t in batch} | {t.positive for t in batch} \
                    | {t.negative for t in batch}
                self.optimizer.zero_grad()
                embeddings = self._embed_batch(unique_ids, encoded)
                terms: list[Tensor] = []
                for triplet in batch:
                    d_pos, d_neg = self._triplet_distances(triplet, embeddings)
                    # Eq. 14: positive pair must be farther by >= margin.
                    terms.append((d_neg - d_pos + self.margin).clip_min(0.0))
                    if d_pos.item() <= d_neg.item():
                        violations += 1
                loss = tensor_stack(terms).mean()
                if self.reg > 0:
                    loss = loss + l2_regularization(self.optimizer.params, self.reg)
                self._step(loss, f"twin epoch {epoch}, batch offset {start}")
                epoch_loss += loss.item() * len(batch)
                obs.count("sem.twin.grad_steps")
            mean_loss = epoch_loss / len(triplets)
            # Rule agreement: triplets whose learned ordering matches
            # the expert-rule annotation (complement of violations).
            agreement = 1.0 - violations / len(triplets)
            span.set("hinge_loss", mean_loss)
            span.set("rule_agreement", agreement)
        obs.observe("sem.twin.epoch_hinge_loss", mean_loss)
        obs.observe("sem.twin.epoch_rule_agreement", agreement)
        obs.observe("sem.twin.epoch.latency", span.duration)
        return mean_loss, violations / len(triplets)

    def violation_rate(self, triplets: Sequence[Triplet],
                       encoded: Mapping[str, tuple[np.ndarray, Sequence[int]]]) -> float:
        """Fraction of triplets whose distance ordering is still wrong."""
        triplets = list(triplets)
        if not triplets:
            raise ValueError("no triplets to evaluate")
        unique_ids = {t.anchor for t in triplets} | {t.positive for t in triplets} \
            | {t.negative for t in triplets}
        embeddings = self._embed_batch(unique_ids, encoded)
        wrong = 0
        for triplet in triplets:
            d_pos, d_neg = self._triplet_distances(triplet, embeddings)
            wrong += int(d_pos.item() <= d_neg.item())
        return wrong / len(triplets)
