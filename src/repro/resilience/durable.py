"""Crash-safe JSON writes and checksummed directories.

One copy of the on-disk integrity policy shared by pipeline artifacts
(:mod:`repro.serve.artifacts`), training checkpoints
(:mod:`repro.resilience.checkpoint`) and corpus dumps
(:func:`repro.data.io.save_corpus`).

A checksummed directory carries a ``manifest.json`` with a
``schema_version``, a ``kind`` and ``files``: the SHA-256 of every
other file under the directory, keyed by its ``/``-separated relative
path. Any further keys are the caller's metadata.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path

from repro.errors import ArtifactError, SchemaVersionError

MANIFEST_NAME = "manifest.json"


def sha256_file(path: str | os.PathLike) -> str:
    """Hex SHA-256 of the file at *path*, read in 1 MiB blocks."""
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def write_json_atomic(path: str | os.PathLike, payload) -> None:
    """Write *payload* as JSON so a crash never leaves a truncated file.

    Dumps to a same-directory temp file, flushes and fsyncs it, then
    ``os.replace``-s it over *path*: an existing file survives intact
    until the new bytes are durably complete.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.tmp.{os.getpid()}")
    try:
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    finally:
        if tmp.exists():
            tmp.unlink()


def write_manifest(root: str | os.PathLike, manifest: dict) -> dict:
    """Checksum every file under *root* into ``manifest["files"]``.

    *manifest* must already carry ``schema_version`` and ``kind``; it is
    updated in place, written atomically to ``root/manifest.json`` and
    returned.
    """
    root = Path(root)
    files = sorted(str(p.relative_to(root)).replace(os.sep, "/")
                   for p in root.rglob("*")
                   if p.is_file() and p.name != MANIFEST_NAME)
    manifest["files"] = {rel: sha256_file(root / rel) for rel in files}
    write_json_atomic(root / MANIFEST_NAME, manifest)
    return manifest


def verify_manifest(root: str | os.PathLike, kind: str,
                    schema_version: int) -> dict:
    """Check *root* against its manifest; returns the manifest.

    Raises :class:`~repro.errors.SchemaVersionError` when the manifest
    was written under another *schema_version*, and
    :class:`~repro.errors.ArtifactError` when it is missing, unreadable,
    of another *kind*, or names a file that is missing or fails its
    checksum (each bad file is named).
    """
    root = Path(root)
    manifest_path = root / MANIFEST_NAME
    if not manifest_path.is_file():
        raise ArtifactError(f"no {MANIFEST_NAME} in {root} (not a {kind} "
                            "directory, or the manifest was deleted)")
    try:
        with open(manifest_path, encoding="utf-8") as handle:
            manifest = json.load(handle)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ArtifactError(f"corrupt manifest {manifest_path}: {exc}") from exc
    version = manifest.get("schema_version")
    if version != schema_version:
        raise SchemaVersionError(
            f"{kind} at {root} has schema version {version!r}; this build "
            f"reads version {schema_version}. Re-create it with the current "
            "code (the layout is not forward/backward compatible).")
    if manifest.get("kind") != kind:
        raise ArtifactError(
            f"{root} holds kind {manifest.get('kind')!r}, not {kind!r}")
    bad = []
    for rel, checksum in manifest.get("files", {}).items():
        path = root / rel
        if not path.is_file():
            bad.append(f"{rel} (missing)")
        elif sha256_file(path) != checksum:
            bad.append(f"{rel} (checksum mismatch)")
    if bad:
        raise ArtifactError(
            f"{kind} at {root} failed integrity checks: {', '.join(bad)}")
    return manifest
