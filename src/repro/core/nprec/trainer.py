"""Training loop for :class:`~repro.core.nprec.model.NPRecModel` (Eq. 23)."""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from functools import partial
from typing import Sequence

import numpy as np

from repro import obs
from repro.core.nprec.model import NPRecModel
from repro.core.nprec.sampling import TrainingPair
from repro.nn import binary_cross_entropy_with_logits, l2_regularization
from repro.resilience import faults
from repro.resilience.checkpoint import CheckpointManager
from repro.resilience.guards import GuardPolicy, NumericGuard
from repro.resilience.training import EpochTrainer


@dataclass
class NPRecTrainHistory:
    """Per-epoch loss/accuracy of the pair classifier."""

    losses: list[float] = field(default_factory=list)
    accuracies: list[float] = field(default_factory=list)


class NPRecTrainer(EpochTrainer):
    """Optimises the pair-correlation objective of Eq. 23.

    Cross-entropy over positive/negative pairs plus L2 regularisation,
    mini-batched Adam. *checkpoint*, *checkpoint_every* and *guard* make
    the run resumable and guarded (see
    :class:`~repro.resilience.training.EpochTrainer`).
    """

    def __init__(self, model: NPRecModel, lr: float = 5e-3, reg: float = 1e-6,
                 epochs: int = 3, batch_size: int = 64,
                 seed: int | np.random.Generator | None = 0,
                 checkpoint: "CheckpointManager | str | os.PathLike | None" = None,
                 checkpoint_every: int = 1,
                 guard: "NumericGuard | GuardPolicy | bool | None" = None) -> None:
        super().__init__(model, lr, epochs, batch_size, seed, checkpoint,
                         checkpoint_every, guard)
        self.model = model
        self.reg = reg

    def train(self, pairs: Sequence[TrainingPair],
              resume: bool = False) -> NPRecTrainHistory:
        """Fit on *pairs*; returns per-epoch diagnostics.

        With ``resume=True`` (requires *checkpoint*) training restarts
        from the newest intact snapshot: restored weights, optimiser
        moments, shuffle-RNG state, and history make the continued run
        byte-identical to one that never stopped.
        """
        pairs = list(pairs)
        if not pairs:
            raise ValueError("no training pairs")
        history = NPRecTrainHistory()
        with obs.profile("nprec.train"), \
                obs.trace("nprec.train", epochs=self.epochs, pairs=len(pairs)):
            self._train(len(pairs), vars(history),
                        partial(self._run_epoch, pairs), resume)
        return history

    # ------------------------------------------------------------------
    def _run_epoch(self, pairs: list[TrainingPair], order: np.ndarray,
                   rng: np.random.Generator, epoch: int) -> tuple[float, float]:
        rng.shuffle(order)
        epoch_loss = 0.0
        correct = 0
        with obs.trace("nprec.train.epoch", epoch=epoch) as span:
            for start in range(0, len(order), self.batch_size):
                faults.maybe_fail("trainer.batch")
                batch = [pairs[i] for i in order[start:start + self.batch_size]]
                citing = [p.citing for p in batch]
                cited = [p.cited for p in batch]
                labels = np.array([p.label for p in batch])
                self.optimizer.zero_grad()
                logits = self.model.score_pairs(citing, cited)
                loss = binary_cross_entropy_with_logits(logits, labels)
                if self.reg > 0:
                    loss = loss + l2_regularization(self.optimizer.params, self.reg)
                self._step(loss, f"nprec epoch {epoch}, batch offset {start}")
                epoch_loss += loss.item() * len(batch)
                correct += int((((logits.data > 0).astype(float)) == labels).sum())
                obs.count("nprec.train.grad_steps")
            mean_loss = epoch_loss / len(pairs)
            accuracy = correct / len(pairs)
            span.set("loss", mean_loss)
            span.set("accuracy", accuracy)
        obs.observe("nprec.train.epoch_loss", mean_loss)
        obs.observe("nprec.train.epoch_accuracy", accuracy)
        obs.observe("nprec.train.epoch.latency", span.duration)
        return mean_loss, accuracy
