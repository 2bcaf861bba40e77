"""The guarded, resumable epoch loop shared by the gradient trainers.

:class:`EpochTrainer` is the base of
:class:`~repro.core.twin.TwinNetworkTrainer` (Eq. 14) and
:class:`~repro.core.nprec.trainer.NPRecTrainer` (Eq. 23). A subclass
supplies one epoch; the base owns everything around it:

- *checkpoint* — a directory path or
  :class:`~repro.resilience.checkpoint.CheckpointManager` (pass a
  manager to set its ``keep_last`` retention). The state is saved
  atomically every *checkpoint_every* epochs and after the last, and
  ``resume=True`` continues from the newest intact snapshot
  **bit-identically** to an uninterrupted run with the same seed;
- *guard* — a :class:`~repro.resilience.guards.NumericGuard`, a
  :class:`~repro.resilience.guards.GuardPolicy`, or ``True`` for
  defaults. On a :class:`~repro.errors.NumericalError` or
  :class:`~repro.errors.InjectedFault` the epoch rolls back to its
  start state, the learning rate decays, and the epoch is retried
  within the policy's rollback budget; then the error propagates.

Both are optional and cost nothing when unset.
"""

from __future__ import annotations

import os
from typing import Callable

import numpy as np

from repro import obs
from repro.errors import InjectedFault, NumericalError
from repro.nn.layers import Module
from repro.nn.optim import Adam
from repro.nn.tensor import Tensor
from repro.resilience.checkpoint import CheckpointManager, TrainState
from repro.resilience.guards import GuardPolicy, NumericGuard
from repro.utils.rng import as_generator

#: ``run_epoch(order, rng, epoch)`` shuffles *order* with *rng*, trains
#: one epoch, and returns one value per history column, mean loss first.
EpochFn = Callable[[np.ndarray, np.random.Generator, int], tuple[float, ...]]


class EpochTrainer:
    """Adam over *module*'s parameters inside a guarded, resumable loop."""

    def __init__(self, module: Module, lr: float, epochs: int,
                 batch_size: int, seed: int | np.random.Generator | None,
                 checkpoint: "CheckpointManager | str | os.PathLike | None",
                 checkpoint_every: int,
                 guard: "NumericGuard | GuardPolicy | bool | None") -> None:
        if epochs < 1 or batch_size < 1:
            raise ValueError("epochs and batch_size must be >= 1")
        if checkpoint_every < 1:
            raise ValueError(f"checkpoint_every must be >= 1, got {checkpoint_every}")
        self.epochs = epochs
        self.batch_size = batch_size
        self._seed = seed
        self._module = module
        self.optimizer = Adam(module.parameters(), lr=lr)
        if isinstance(checkpoint, (str, os.PathLike)):
            checkpoint = CheckpointManager(checkpoint)
        self.checkpoint = checkpoint
        self.checkpoint_every = checkpoint_every
        if isinstance(guard, GuardPolicy):
            guard = NumericGuard(guard)
        elif guard is True:
            guard = NumericGuard()
        self.guard: NumericGuard | None = guard or None

    def _train(self, n_examples: int, columns: dict[str, list[float]],
               run_epoch: EpochFn, resume: bool) -> None:
        """Run the remaining epochs, appending each epoch's results to
        *columns* (in order)."""
        rng = as_generator(self._seed)
        order = np.arange(n_examples)
        epoch = self._resume(rng, order, columns) if resume else 0
        while epoch < self.epochs:
            snapshot = None
            if self.guard is not None:
                snapshot = self._capture(epoch, rng, order, columns)
            try:
                results = run_epoch(order, rng, epoch)
                if self.guard is not None:
                    self.guard.check_epoch(results[0], epoch)
            except (NumericalError, InjectedFault):
                if snapshot is None or not self.guard.admit_rollback():
                    raise
                snapshot.restore(self._module, self.optimizer, rng, order,
                                 columns)
                self.guard.decay_lr(self.optimizer)
                continue
            for column, value in zip(columns.values(), results):
                column.append(value)
            epoch += 1
            if self.checkpoint is not None and (
                    epoch % self.checkpoint_every == 0 or epoch == self.epochs):
                self.checkpoint.save(self._capture(epoch, rng, order, columns))

    def _step(self, loss: Tensor, where: str) -> None:
        """Backpropagate *loss*, check it when guarded, apply the update."""
        loss.backward()
        if self.guard is not None:
            self.guard.check_loss(loss.item(), where)
            self.guard.check_gradients(self.optimizer.params, where)
        self.optimizer.step()

    def _capture(self, epoch: int, rng: np.random.Generator,
                 order: np.ndarray,
                 columns: dict[str, list[float]]) -> TrainState:
        return TrainState.capture(epoch, self._module, self.optimizer, rng,
                                  order, columns)

    def _resume(self, rng: np.random.Generator, order: np.ndarray,
                columns: dict[str, list[float]]) -> int:
        if self.checkpoint is None:
            raise ValueError("resume=True requires a checkpoint directory "
                             "or CheckpointManager")
        state = self.checkpoint.latest()
        if state is None:
            return 0
        state.restore(self._module, self.optimizer, rng, order, columns)
        obs.count("resilience.checkpoint.resumed")
        return min(state.epoch, self.epochs)
