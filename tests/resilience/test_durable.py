"""The shared resilience modules: checksummed directories and the epoch loop."""

import json
import math
from pathlib import Path

import pytest

from repro.errors import ArtifactError, SchemaVersionError
from repro.resilience import faults
from repro.resilience.checkpoint import CheckpointManager
from repro.resilience.durable import (MANIFEST_NAME, verify_manifest,
                                      write_json_atomic, write_manifest)
from repro.resilience.training import EpochTrainer
from repro.serve.artifacts import SCHEMA_VERSION, _verify_manifest
from tests.resilience.test_checkpoint import _capture
from tests.resilience.test_training_resilience import (  # noqa: F401
    nprec_setup,
    twin_setup,
)

REPO_ROOT = Path(__file__).resolve().parents[2]


def _checksummed_dir(root: Path) -> Path:
    write_json_atomic(root / "a.json", {"x": 1})
    write_json_atomic(root / "nested" / "b.json", [1, 2, 3])
    (root / "c.bin").write_bytes(bytes(range(256)))
    write_manifest(root, {"schema_version": 3, "kind": "demo"})
    return root


def _edit_manifest(root: Path, **changes) -> None:
    path = root / MANIFEST_NAME
    manifest = json.loads(path.read_text())
    manifest.update(changes)
    path.write_text(json.dumps(manifest))


class TestChecksummedDirectory:
    def test_round_trip(self, tmp_path):
        root = _checksummed_dir(tmp_path)
        manifest = verify_manifest(root, "demo", 3)
        assert sorted(manifest["files"]) == ["a.json", "c.bin",
                                             "nested/b.json"]
        assert manifest == json.loads((root / MANIFEST_NAME).read_text())

    def test_write_json_atomic_leaves_no_temp_file(self, tmp_path):
        write_json_atomic(tmp_path / "out.json", {"k": [1.5]})
        assert [p.name for p in tmp_path.iterdir()] == ["out.json"]
        assert json.loads((tmp_path / "out.json").read_text()) == {"k": [1.5]}

    def test_missing_file_is_named(self, tmp_path):
        root = _checksummed_dir(tmp_path)
        (root / "nested" / "b.json").unlink()
        with pytest.raises(ArtifactError, match=r"nested/b\.json \(missing\)"):
            verify_manifest(root, "demo", 3)

    def test_flipped_byte_is_named(self, tmp_path):
        root = _checksummed_dir(tmp_path)
        payload = bytearray((root / "c.bin").read_bytes())
        payload[100] ^= 0x01
        (root / "c.bin").write_bytes(bytes(payload))
        with pytest.raises(ArtifactError,
                           match=r"c\.bin \(checksum mismatch\)") as info:
            verify_manifest(root, "demo", 3)
        assert "a.json" not in str(info.value)

    def test_wrong_kind_is_an_artifact_error(self, tmp_path):
        root = _checksummed_dir(tmp_path)
        with pytest.raises(ArtifactError, match="kind") as info:
            verify_manifest(root, "other", 3)
        assert not isinstance(info.value, SchemaVersionError)

    def test_wrong_version_is_a_schema_version_error(self, tmp_path):
        root = _checksummed_dir(tmp_path)
        with pytest.raises(SchemaVersionError, match="schema version"):
            verify_manifest(root, "demo", 4)


class TestBothFormatsShareTheManifest:
    def test_checkpoint_refuses_a_pipeline_manifest(self, tmp_path):
        manager = CheckpointManager(tmp_path)
        manager.save(_capture(epoch=1)[0])
        _edit_manifest(tmp_path / "epoch-0001", kind="nprec-pipeline")
        with pytest.raises(ArtifactError, match="kind"):
            manager.load(1)
        assert manager.latest() is None

    def test_committed_artifact_still_verifies(self):
        # Pins the on-disk format, not fault absorption: run without any
        # injected artifact.verify fault.
        with faults.inject(None):
            manifest = _verify_manifest(REPO_ROOT / "artifacts" / "serve-load")
        assert manifest["schema_version"] == SCHEMA_VERSION
        assert manifest["kind"] == "nprec-pipeline"


@pytest.mark.parametrize("setup", ["nprec_setup", "twin_setup"])
def test_both_trainers_roll_back_through_one_loop(setup, request,
                                                  monkeypatch):
    """Poisoning the one shared step trips the guard in either trainer,
    and the one shared loop rolls back, halves the LR and completes."""
    make_trainer, *data = request.getfixturevalue(setup)
    original = EpochTrainer._step
    calls = {"n": 0}

    def poisoned(self, loss, where):
        calls["n"] += 1
        if calls["n"] == 1:
            loss = loss * float("nan")
        return original(self, loss, where)

    monkeypatch.setattr(EpochTrainer, "_step", poisoned)
    trainer = make_trainer(epochs=2, guard=True)
    initial_lr = trainer.optimizer.lr
    history = trainer.train(*data)

    assert calls["n"] > 1
    assert len(history.losses) == 2
    assert all(math.isfinite(x) for x in history.losses)
    assert trainer.guard.rollbacks_used == 1
    assert trainer.optimizer.lr == pytest.approx(initial_lr * 0.5)
