"""Tests for the versioned index registry (repro.index.lifecycle.registry)."""

from __future__ import annotations

import dataclasses
import hashlib
import json

import pytest

from repro.core.types import Click
from repro.index.builder import IndexBuilder
from repro.index.lifecycle.registry import (
    ARTIFACT_NAME,
    CURRENT_POINTER,
    IndexManifest,
    IndexRegistry,
    MANIFEST_NAME,
    RegistryError,
    atomic_write_bytes,
)


def make_index(num_sessions=20, offset=0):
    clicks = [
        Click(s, (s + i + offset) % 17, s * 100 + i * 10)
        for s in range(num_sessions)
        for i in range(3)
    ]
    return IndexBuilder(max_sessions_per_item=50).build(clicks)


@pytest.fixture()
def registry(tmp_path):
    return IndexRegistry(tmp_path / "registry", clock=lambda: 1_700_000_000.0)


class TestAtomicWrite:
    def test_writes_and_replaces(self, tmp_path):
        target = tmp_path / "file.bin"
        atomic_write_bytes(target, b"one")
        atomic_write_bytes(target, b"two")
        assert target.read_bytes() == b"two"
        assert not target.with_name("file.bin.tmp").exists()


class TestRegistration:
    def test_first_version_layout(self, registry):
        manifest = registry.register(make_index())
        assert manifest.version == "v000001"
        directory = registry.root / "v000001"
        assert (directory / ARTIFACT_NAME).exists()
        assert (directory / MANIFEST_NAME).exists()
        assert manifest.created_at == 1_700_000_000.0

    def test_versions_are_sequential_and_sorted(self, registry):
        for _ in range(3):
            registry.register(make_index())
        assert registry.versions() == ["v000001", "v000002", "v000003"]

    def test_manifest_round_trip(self, registry):
        registered = registry.register(
            make_index(),
            build_stats={"sessions": 20},
            provenance={"click_log": "day.tsv"},
        )
        loaded = registry.manifest("v000001")
        assert loaded == registered
        assert loaded.build_stats["sessions"] == 20
        assert loaded.provenance["click_log"] == "day.tsv"

    def test_manifest_checksum_matches_artifact(self, registry):
        manifest = registry.register(make_index())
        data = (registry.root / "v000001" / ARTIFACT_NAME).read_bytes()
        assert hashlib.sha256(data).hexdigest() == manifest.checksum_sha256
        assert len(data) == manifest.artifact_bytes

    def test_manifest_from_json_ignores_unknown_keys(self):
        manifest = IndexManifest(
            version="v000001",
            checksum_sha256="ab",
            artifact_bytes=1,
            created_at=0.0,
            num_sessions=1,
            num_items=1,
            max_sessions_per_item=5,
        )
        payload = json.loads(manifest.to_json())
        payload["added_by_future_release"] = True
        restored = IndexManifest.from_json(json.dumps(payload))
        assert restored == manifest

    def test_missing_manifest_raises(self, registry):
        with pytest.raises(RegistryError, match="no manifest"):
            registry.manifest("v000042")


class TestPromotion:
    def test_promote_and_current(self, registry):
        registry.register(make_index())
        assert registry.current_version() is None
        registry.promote("v000001")
        assert registry.current_version() == "v000001"
        assert (registry.root / CURRENT_POINTER).exists()

    def test_promote_unknown_version_refused(self, registry):
        with pytest.raises(RegistryError, match="unknown version"):
            registry.promote("v000099")

    def test_rollback_walks_to_previous_good(self, registry):
        for _ in range(3):
            registry.register(make_index())
        registry.promote("v000003")
        assert registry.rollback() == "v000002"
        assert registry.current_version() == "v000002"

    def test_rollback_skips_corrupt_predecessor(self, registry):
        for _ in range(3):
            registry.register(make_index())
        registry.promote("v000003")
        artifact = registry.root / "v000002" / ARTIFACT_NAME
        artifact.write_bytes(b"\x00corrupt")
        assert registry.rollback() == "v000001"

    def test_rollback_without_promotion_refused(self, registry):
        registry.register(make_index())
        with pytest.raises(RegistryError, match="nothing promoted"):
            registry.rollback()

    def test_rollback_with_no_older_version_refused(self, registry):
        registry.register(make_index())
        registry.promote("v000001")
        with pytest.raises(RegistryError, match="no good version"):
            registry.rollback()


class TestLoading:
    def test_load_round_trips_the_index(self, registry):
        index = make_index()
        registry.register(index)
        loaded = registry.load("v000001")
        assert loaded.num_sessions == index.num_sessions
        assert loaded.item_to_sessions == index.item_to_sessions

    def test_load_detects_corruption_before_deserialize(self, registry):
        registry.register(make_index())
        artifact = registry.root / "v000001" / ARTIFACT_NAME
        data = bytearray(artifact.read_bytes())
        data[len(data) // 2] ^= 0xFF
        artifact.write_bytes(bytes(data))
        with pytest.raises(ValueError, match="corrupted"):
            registry.load("v000001")

    def test_verify(self, registry):
        registry.register(make_index())
        assert registry.verify("v000001")
        (registry.root / "v000001" / ARTIFACT_NAME).write_bytes(b"junk")
        assert not registry.verify("v000001")
        assert not registry.verify("v000099")

    def test_load_current_happy_path(self, registry):
        registry.register(make_index())
        registry.promote("v000001")
        _, version = registry.load_current()
        assert version == "v000001"
        assert registry.last_fallbacks == []

    def test_load_current_falls_back_past_corrupt_current(self, registry):
        good = make_index()
        registry.register(good)
        registry.register(make_index(offset=3))
        registry.promote("v000002")
        (registry.root / "v000002" / ARTIFACT_NAME).write_bytes(b"garbage")
        index, version = registry.load_current()
        assert version == "v000001"
        assert registry.last_fallbacks == ["v000002"]
        assert index.item_to_sessions == good.item_to_sessions

    def test_load_current_skips_a_verified_vmic_file(self, registry):
        """A version whose file has the magic of the retired columnar
        container, checksum and all, falls back like a corrupt one."""
        good = make_index()
        registry.register(good)
        registry.register(make_index(offset=3))
        registry.promote("v000002")
        artifact = registry.root / "v000002" / ARTIFACT_NAME
        data = b"VMIC" + artifact.read_bytes()[4:]
        artifact.write_bytes(data)
        manifest = dataclasses.replace(
            registry.manifest("v000002"),
            checksum_sha256=hashlib.sha256(data).hexdigest(),
        )
        atomic_write_bytes(
            registry.root / "v000002" / MANIFEST_NAME, manifest.to_json().encode()
        )
        assert registry.verify("v000002")
        index, version = registry.load_current()
        assert version == "v000001"
        assert registry.last_fallbacks == ["v000002"]
        assert index.item_to_sessions == good.item_to_sessions

    def test_load_current_all_corrupt_raises(self, registry):
        registry.register(make_index())
        registry.promote("v000001")
        (registry.root / "v000001" / ARTIFACT_NAME).write_bytes(b"zz")
        with pytest.raises(RegistryError, match="no loadable version"):
            registry.load_current()

    def test_load_current_before_promotion_raises(self, registry):
        registry.register(make_index())
        with pytest.raises(RegistryError, match="nothing promoted"):
            registry.load_current()


class TestPrune:
    def test_prune_keeps_newest_and_current(self, registry):
        for _ in range(5):
            registry.register(make_index())
        registry.promote("v000002")
        removed = registry.prune(keep=2)
        assert removed == ["v000001"]  # v000002 is current, v000003 > keep cut
        assert registry.versions() == ["v000002", "v000003", "v000004", "v000005"]

    def test_prune_validates_keep(self, registry):
        with pytest.raises(ValueError):
            registry.prune(keep=0)
