"""Training loop for :class:`~repro.core.nprec.model.NPRecModel` (Eq. 23)."""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro import obs
from repro.core.nprec.model import NPRecModel
from repro.core.nprec.sampling import TrainingPair
from repro.errors import InjectedFault, NumericalError
from repro.nn import Adam, binary_cross_entropy_with_logits, l2_regularization
from repro.resilience import faults
from repro.resilience.checkpoint import CheckpointManager, TrainState
from repro.resilience.guards import GuardPolicy, NumericGuard
from repro.utils.rng import as_generator


@dataclass
class NPRecTrainHistory:
    """Per-epoch loss/accuracy of the pair classifier."""

    losses: list[float] = field(default_factory=list)
    accuracies: list[float] = field(default_factory=list)


class NPRecTrainer:
    """Optimises the pair-correlation objective of Eq. 23.

    Cross-entropy over positive/negative pairs plus L2 regularisation,
    mini-batched Adam.

    Resilience (all optional, zero-cost when unset):

    - *checkpoint* — a directory path or
      :class:`~repro.resilience.checkpoint.CheckpointManager`; each
      epoch's weights, Adam state, shuffle-RNG state, and history are
      snapshotted atomically, and ``train(pairs, resume=True)`` continues
      from the newest snapshot **bit-identically** to an uninterrupted
      run with the same seed.
    - *guard* — a :class:`~repro.resilience.guards.NumericGuard` (or
      :class:`GuardPolicy`, or ``True`` for defaults) that raises
      :class:`~repro.errors.NumericalError` on NaN/Inf losses/gradients
      or divergence; on a trip the trainer rolls back to the epoch-start
      state, decays the learning rate, and retries, a bounded number of
      times before re-raising.
    """

    def __init__(self, model: NPRecModel, lr: float = 5e-3, reg: float = 1e-6,
                 epochs: int = 3, batch_size: int = 64,
                 seed: int | np.random.Generator | None = 0,
                 checkpoint: "CheckpointManager | str | os.PathLike | None" = None,
                 checkpoint_every: int = 1, keep_checkpoints: int = 3,
                 guard: "NumericGuard | GuardPolicy | bool | None" = None) -> None:
        if epochs < 1 or batch_size < 1:
            raise ValueError("epochs and batch_size must be >= 1")
        if checkpoint_every < 1:
            raise ValueError(f"checkpoint_every must be >= 1, got {checkpoint_every}")
        self.model = model
        self.reg = reg
        self.epochs = epochs
        self.batch_size = batch_size
        self._seed = seed
        self.optimizer = Adam(model.parameters(), lr=lr)
        if isinstance(checkpoint, (str, os.PathLike)):
            checkpoint = CheckpointManager(checkpoint, keep_last=keep_checkpoints)
        self.checkpoint = checkpoint
        self.checkpoint_every = checkpoint_every
        if isinstance(guard, GuardPolicy):
            guard = NumericGuard(guard)
        elif guard is True:
            guard = NumericGuard()
        self.guard: NumericGuard | None = guard or None

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
        rng = as_generator(self._seed)
        history = NPRecTrainHistory()
        order = np.arange(len(pairs))
        columns = {"losses": history.losses, "accuracies": history.accuracies}
        start_epoch = self._maybe_resume(rng, order, columns, resume)
        with obs.profile("nprec.train"), \
                obs.trace("nprec.train", epochs=self.epochs, pairs=len(pairs)):
            epoch = start_epoch
            while epoch < self.epochs:
                snapshot = None
                if self.guard is not None:
                    snapshot = TrainState.capture(epoch, self.model,
                                                  self.optimizer, rng, order,
                                                  columns)
                try:
                    mean_loss, accuracy = self._run_epoch(pairs, order, rng,
                                                          epoch)
                    if self.guard is not None:
                        self.guard.check_epoch(mean_loss, epoch)
                except (NumericalError, InjectedFault):
                    if snapshot is None or not self.guard.admit_rollback():
                        raise
                    snapshot.restore(self.model, self.optimizer, rng, order,
                                     columns)
                    self.guard.decay_lr(self.optimizer)
                    continue
                history.losses.append(mean_loss)
                history.accuracies.append(accuracy)
                epoch += 1
                self._maybe_checkpoint(epoch, rng, order, columns)
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
                loss.backward()
                if self.guard is not None:
                    where = f"nprec epoch {epoch}, batch offset {start}"
                    self.guard.check_loss(loss.item(), where)
                    self.guard.check_gradients(self.optimizer.params, where)
                self.optimizer.step()
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

    def _maybe_resume(self, rng: np.random.Generator, order: np.ndarray,
                      columns: dict[str, list[float]], resume: bool) -> int:
        if not resume:
            return 0
        if self.checkpoint is None:
            raise ValueError("resume=True requires a checkpoint directory "
                             "or CheckpointManager")
        state = self.checkpoint.latest()
        if state is None:
            return 0
        state.restore(self.model, self.optimizer, rng, order, columns)
        obs.count("resilience.checkpoint.resumed")
        return min(state.epoch, self.epochs)

    def _maybe_checkpoint(self, completed: int, rng: np.random.Generator,
                          order: np.ndarray,
                          columns: dict[str, list[float]]) -> None:
        if self.checkpoint is None:
            return
        if completed % self.checkpoint_every == 0 or completed == self.epochs:
            self.checkpoint.save(TrainState.capture(
                completed, self.model, self.optimizer, rng, order, columns))
