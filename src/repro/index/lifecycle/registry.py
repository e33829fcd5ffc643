"""Versioned, checksummed index artifacts with atomic publication.

The paper's Spark job writes the daily index to shared cloud storage and
the serving pods ingest it at startup (§4.2, Figure 1). That hand-off is
exactly where a truncated upload or a bit-flip takes the fleet down, so
the registry hardens it:

* every build becomes an immutable **version directory**
  ``v000042/{index.vmis, manifest.json}``: the index in the one ``VMIS``
  container (:func:`~repro.index.serialization.serialize_index`), which
  is what ``repro serve`` opens, beside a manifest that records the
  SHA-256 of the artifact, build statistics and click-log provenance
  (source, parse/validation reports);
* artifacts and manifests are published **atomically**: written to a
  temp file in the same directory, fsync'd, then renamed — a reader can
  never observe a half-written artifact;
* the **CURRENT pointer** (which version serving should load) is a tiny
  file updated with the same tmp+fsync+rename dance, so promotion and
  rollback are single atomic operations;
* loading verifies the checksum before deserialisation and **falls back
  to the previous good version** when the current artifact is corrupt —
  a bad daily build degrades to yesterday's index, never to an outage.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from repro.core.index import SessionIndex
from repro.core.locking import guarded_by
from repro.index.serialization import deserialize_index, serialize_index

ARTIFACT_NAME = "index.vmis"
MANIFEST_NAME = "manifest.json"
CURRENT_POINTER = "CURRENT"
_VERSION_RE = re.compile(r"^v(\d{6})$")


class RegistryError(RuntimeError):
    """A registry invariant was violated (unknown version, no artifact)."""


@dataclass(frozen=True)
class IndexManifest:
    """Sidecar metadata of one registered index artifact."""

    version: str
    checksum_sha256: str
    artifact_bytes: int
    created_at: float
    num_sessions: int
    num_items: int
    max_sessions_per_item: int
    #: per-stage row counts from the build pipeline, when available.
    build_stats: dict = field(default_factory=dict)
    #: click-log provenance: source path, parse report, validation report.
    provenance: dict = field(default_factory=dict)

    def to_json(self) -> str:
        return json.dumps(self.__dict__, indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "IndexManifest":
        payload = json.loads(text)
        known = {f for f in cls.__dataclass_fields__}
        return cls(**{k: v for k, v in payload.items() if k in known})


def _fsync_directory(path: Path) -> None:
    """Durably record a rename in its parent directory (POSIX only)."""
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:  # e.g. Windows refuses O_RDONLY on directories
        return
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def atomic_write_bytes(path: Path, data: bytes) -> None:
    """tmp + fsync + rename, so readers never see a partial file."""
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "wb") as handle:
        handle.write(data)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)
    _fsync_directory(path.parent)


@guarded_by("_lock", "_fallbacks")
class IndexRegistry:
    """A directory of versioned index artifacts plus the CURRENT pointer."""

    def __init__(self, root: str | Path, clock: Callable[[], float] = time.time) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self._clock = clock
        self._lock = threading.Lock()
        # Versions skipped because their artifact failed verification,
        # in the order they were discovered (cleared on each load call).
        # Guarded: load_current may race a monitoring scrape reading
        # last_fallbacks from another thread.
        self._fallbacks: list[str] = []

    @property
    def last_fallbacks(self) -> list[str]:
        """Snapshot of the versions skipped by the latest load call."""
        with self._lock:
            return list(self._fallbacks)

    # -- registration ---------------------------------------------------------

    def register(
        self,
        index: SessionIndex,
        build_stats: dict | None = None,
        provenance: dict | None = None,
    ) -> IndexManifest:
        """Serialise, checksum and atomically publish a new version."""
        version = self._next_version()
        data = serialize_index(index)
        manifest = IndexManifest(
            version=version,
            checksum_sha256=hashlib.sha256(data).hexdigest(),
            artifact_bytes=len(data),
            created_at=self._clock(),
            num_sessions=index.num_sessions,
            num_items=index.num_items,
            max_sessions_per_item=index.max_sessions_per_item,
            build_stats=build_stats or {},
            provenance=provenance or {},
        )
        directory = self.root / version
        directory.mkdir(parents=True, exist_ok=True)
        atomic_write_bytes(directory / ARTIFACT_NAME, data)
        atomic_write_bytes(
            directory / MANIFEST_NAME, manifest.to_json().encode("utf-8")
        )
        return manifest

    def _next_version(self) -> str:
        versions = self.versions()
        if not versions:
            return "v000001"
        last = int(_VERSION_RE.match(versions[-1]).group(1))  # type: ignore[union-attr]
        return f"v{last + 1:06d}"

    # -- enumeration ----------------------------------------------------------

    def versions(self) -> list[str]:
        """All registered versions, oldest first."""
        found = []
        for entry in self.root.iterdir():
            if entry.is_dir() and _VERSION_RE.match(entry.name):
                found.append(entry.name)
        return sorted(found)

    def manifest(self, version: str) -> IndexManifest:
        path = self.root / version / MANIFEST_NAME
        if not path.exists():
            raise RegistryError(f"no manifest for version {version!r}")
        return IndexManifest.from_json(path.read_text(encoding="utf-8"))

    def current_version(self) -> str | None:
        """The promoted version, or None before the first promotion."""
        pointer = self.root / CURRENT_POINTER
        if not pointer.exists():
            return None
        value = pointer.read_text(encoding="utf-8").strip()
        return value or None

    # -- promotion / rollback -------------------------------------------------

    def promote(self, version: str) -> str:
        """Atomically point CURRENT at ``version``."""
        if version not in self.versions():
            raise RegistryError(f"cannot promote unknown version {version!r}")
        atomic_write_bytes(
            self.root / CURRENT_POINTER, f"{version}\n".encode("utf-8")
        )
        return version

    def rollback(self) -> str:
        """Point CURRENT at the newest *older-than-current* good version."""
        current = self.current_version()
        if current is None:
            raise RegistryError("nothing promoted yet; cannot roll back")
        older = [v for v in self.versions() if v < current]
        for version in reversed(older):
            if self.verify(version):
                return self.promote(version)
        raise RegistryError(f"no good version older than {current!r} to roll back to")

    # -- loading --------------------------------------------------------------

    def verify(self, version: str) -> bool:
        """Does the version's artifact match its manifest checksum?"""
        try:
            self._read_verified(version)
        except (RegistryError, ValueError):
            return False
        return True

    def _read_verified(self, version: str) -> bytes:
        artifact = self.root / version / ARTIFACT_NAME
        if not artifact.exists():
            raise RegistryError(f"version {version!r} has no artifact")
        manifest = self.manifest(version)
        data = artifact.read_bytes()
        digest = hashlib.sha256(data).hexdigest()
        if digest != manifest.checksum_sha256:
            raise ValueError(
                f"artifact {version} corrupted: sha256 {digest[:12]}… != "
                f"manifest {manifest.checksum_sha256[:12]}…"
            )
        return data

    def load(self, version: str) -> SessionIndex:
        """Load one version, verifying checksum before deserialisation."""
        return deserialize_index(self._read_verified(version))

    def load_current(self) -> tuple[SessionIndex, str]:
        """Load the promoted version, falling back past corrupt artifacts.

        Walks from CURRENT towards older versions until one verifies and
        deserialises (a file that is not ``VMIS``, whatever its checksum,
        does not); every skipped version is recorded in
        :attr:`last_fallbacks`. Raises :class:`RegistryError` only when
        *no* version at or below CURRENT is loadable.
        """
        with self._lock:
            self._fallbacks = []
        current = self.current_version()
        if current is None:
            raise RegistryError("nothing promoted yet")
        candidates = [v for v in self.versions() if v <= current]
        for version in reversed(candidates):
            try:
                return self.load(version), version
            except (ValueError, RegistryError):
                with self._lock:
                    self._fallbacks.append(version)
        raise RegistryError(
            f"no loadable version at or below {current!r} "
            f"(tried {self.last_fallbacks})"
        )

    # -- housekeeping ---------------------------------------------------------

    def prune(self, keep: int = 5) -> list[str]:
        """Delete the oldest versions beyond ``keep``; never the current.

        Returns the versions removed. The CURRENT pointer (and anything
        newer than it) is always preserved so rollback stays possible
        among the kept set.
        """
        if keep < 1:
            raise ValueError("keep must be >= 1")
        versions = self.versions()
        current = self.current_version()
        removable = versions[:-keep] if len(versions) > keep else []
        removed = []
        for version in removable:
            if current is not None and version >= current:
                continue
            directory = self.root / version
            for child in directory.iterdir():
                child.unlink()
            directory.rmdir()
            removed.append(version)
        return removed
