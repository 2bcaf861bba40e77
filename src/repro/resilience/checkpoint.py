"""Atomic per-epoch training checkpoints with bit-identical resume.

A checkpoint directory holds one subdirectory per snapshot::

    <root>/
        epoch-0001/
            state.npz       model weights, Adam moments, shuffle order
            meta.json       epoch, Adam t/lr, RNG state, history, schema
            manifest.json   sha256 per file (repro.resilience.durable)
        epoch-0002/
        ...

Each snapshot is a checksummed directory of
:mod:`repro.resilience.durable` (kind ``train-checkpoint``), verified on
load. Writes are crash-safe: every file is written inside a hidden temp
directory, fsynced, and the whole directory is atomically renamed into
place (`os.replace`), so a kill at any instant leaves either the previous
complete set of checkpoints or the previous set plus one complete new
snapshot — never a truncated one. Retention keeps the newest *keep_last*
snapshots.

A :class:`TrainState` captures everything a trainer's epoch loop
consumes — model ``state_dict``, Adam moments/step/lr, the shuffle RNG's
``bit_generator.state``, the (persistently shuffled) epoch order array,
and the per-epoch history columns — which is exactly the set needed for
a resumed run to be bit-identical to an uninterrupted one.
"""

from __future__ import annotations

import copy
import json
import os
import shutil
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro import obs
from repro.errors import ArtifactError
from repro.nn.layers import Module
from repro.nn.optim import Adam
from repro.resilience.durable import (verify_manifest, write_json_atomic,
                                      write_manifest)

#: On-disk checkpoint layout version; mismatches refuse to load.
CHECKPOINT_SCHEMA_VERSION = 1

_KIND = "train-checkpoint"

_MODEL_PREFIX = "model."
_ADAM_M_PREFIX = "adam.m."
_ADAM_V_PREFIX = "adam.v."
_ORDER_KEY = "order"


def _fsync_path(path: Path) -> None:
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


@dataclass
class TrainState:
    """Everything needed to resume an epoch loop bit-identically.

    *epoch* counts **completed** epochs: a state captured with
    ``epoch=k`` resumes training at epoch ``k`` (0-based), and its
    history columns hold exactly ``k`` entries each.
    """

    epoch: int
    model_state: dict[str, np.ndarray]
    optimizer_state: dict
    rng_state: dict
    order: np.ndarray
    history: dict[str, list[float]]

    @classmethod
    def capture(cls, epoch: int, module: Module, optimizer: Adam,
                rng: np.random.Generator, order: np.ndarray,
                history: dict[str, list[float]]) -> "TrainState":
        """Deep-copy the live training state (cheap relative to an epoch)."""
        return cls(
            epoch=int(epoch),
            model_state=module.state_dict(),
            optimizer_state=optimizer.state_dict(),
            rng_state=copy.deepcopy(rng.bit_generator.state),
            order=np.asarray(order).copy(),
            history={name: list(column) for name, column in history.items()},
        )

    def restore(self, module: Module, optimizer: Adam,
                rng: np.random.Generator, order: np.ndarray,
                history: dict[str, list[float]]) -> None:
        """Write this state back into the live training objects."""
        if order.shape != self.order.shape:
            raise ArtifactError(
                f"checkpoint was taken over {self.order.shape[0]} training "
                f"examples but the current run has {order.shape[0]}; resume "
                "requires the identical training set")
        module.load_state_dict(self.model_state)
        optimizer.load_state_dict(self.optimizer_state)
        rng.bit_generator.state = copy.deepcopy(self.rng_state)
        order[:] = self.order
        for name, column in history.items():
            column[:] = list(self.history.get(name, ()))


class CheckpointManager:
    """Owns one checkpoint directory: atomic saves, retention, resume.

    Parameters
    ----------
    directory:
        Root directory for snapshots; created on first save.
    keep_last:
        Number of newest snapshots retained after each save.
    """

    def __init__(self, directory: str | os.PathLike, keep_last: int = 3) -> None:
        if keep_last < 1:
            raise ValueError(f"keep_last must be >= 1, got {keep_last}")
        self.root = Path(directory)
        self.keep_last = keep_last

    # ------------------------------------------------------------------
    def _slot(self, epoch: int) -> Path:
        return self.root / f"epoch-{epoch:04d}"

    def epochs(self) -> list[int]:
        """Completed-epoch numbers with a snapshot on disk, ascending."""
        if not self.root.is_dir():
            return []
        found = []
        for entry in self.root.iterdir():
            if entry.is_dir() and entry.name.startswith("epoch-"):
                try:
                    found.append(int(entry.name.split("-", 1)[1]))
                except ValueError:
                    continue
        return sorted(found)

    # ------------------------------------------------------------------
    def save(self, state: TrainState) -> Path:
        """Atomically persist *state*; returns the snapshot directory."""
        self.root.mkdir(parents=True, exist_ok=True)
        final = self._slot(state.epoch)
        tmp = self.root / f".tmp-{final.name}"
        if tmp.exists():
            shutil.rmtree(tmp)
        tmp.mkdir()

        arrays: dict[str, np.ndarray] = {
            f"{_MODEL_PREFIX}{name}": value
            for name, value in state.model_state.items()
        }
        for i, m in enumerate(state.optimizer_state["m"]):
            arrays[f"{_ADAM_M_PREFIX}{i}"] = m
        for i, v in enumerate(state.optimizer_state["v"]):
            arrays[f"{_ADAM_V_PREFIX}{i}"] = v
        arrays[_ORDER_KEY] = np.asarray(state.order, dtype=np.int64)
        np.savez(tmp / "state.npz", **arrays)

        meta = {
            "schema_version": CHECKPOINT_SCHEMA_VERSION,
            "epoch": state.epoch,
            "adam": {"t": int(state.optimizer_state["t"]),
                     "lr": float(state.optimizer_state["lr"]),
                     "n_params": len(state.optimizer_state["m"])},
            "rng_state": state.rng_state,
            "history": state.history,
        }
        write_json_atomic(tmp / "meta.json", meta)
        _fsync_path(tmp / "state.npz")
        write_manifest(tmp, {"schema_version": CHECKPOINT_SCHEMA_VERSION,
                             "kind": _KIND})
        _fsync_path(tmp)

        # A pre-existing slot for the same epoch (e.g. a rerun) cannot be
        # replaced in one rename; remove it first. A crash between the
        # two steps leaves only the hidden tmp dir, which loaders skip —
        # the previous epoch's snapshot remains the resume point.
        if final.exists():
            shutil.rmtree(final)
        os.replace(tmp, final)
        _fsync_path(self.root)
        obs.count("resilience.checkpoint.saved")
        self._prune()
        return final

    def _prune(self) -> None:
        epochs = self.epochs()
        for epoch in epochs[:-self.keep_last]:
            shutil.rmtree(self._slot(epoch), ignore_errors=True)
            obs.count("resilience.checkpoint.pruned")

    # ------------------------------------------------------------------
    def load(self, epoch: int) -> TrainState:
        """Load and integrity-check the snapshot for *epoch*.

        Raises :class:`ArtifactError` when the snapshot is missing, of
        another kind, written under another schema version (as the
        subclass :class:`~repro.errors.SchemaVersionError`), or fails its
        checksums.
        """
        slot = self._slot(epoch)
        verify_manifest(slot, _KIND, CHECKPOINT_SCHEMA_VERSION)
        with open(slot / "meta.json", encoding="utf-8") as handle:
            meta = json.load(handle)
        with np.load(slot / "state.npz") as archive:
            arrays = {name: archive[name] for name in archive.files}

        model_state = {name[len(_MODEL_PREFIX):]: value
                       for name, value in arrays.items()
                       if name.startswith(_MODEL_PREFIX)}
        n_params = int(meta["adam"]["n_params"])
        optimizer_state = {
            "t": int(meta["adam"]["t"]),
            "lr": float(meta["adam"]["lr"]),
            "m": [arrays[f"{_ADAM_M_PREFIX}{i}"] for i in range(n_params)],
            "v": [arrays[f"{_ADAM_V_PREFIX}{i}"] for i in range(n_params)],
        }
        return TrainState(
            epoch=int(meta["epoch"]),
            model_state=model_state,
            optimizer_state=optimizer_state,
            rng_state=meta["rng_state"],
            order=arrays[_ORDER_KEY],
            history={name: [float(x) for x in column]
                     for name, column in meta["history"].items()},
        )

    def latest(self) -> TrainState | None:
        """The newest loadable snapshot, or ``None``.

        Snapshots that fail integrity checks (e.g. a partially deleted
        slot) are skipped with a ``resilience.checkpoint.corrupt`` count,
        falling back to the next-newest — a truncated tail never blocks
        resume.
        """
        for epoch in reversed(self.epochs()):
            try:
                return self.load(epoch)
            except ArtifactError:
                obs.count("resilience.checkpoint.corrupt")
                continue
        return None
