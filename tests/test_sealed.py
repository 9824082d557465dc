"""The sealed-file store (:mod:`repro.resilience.sealed`), tested once.

Stream checkpoints and rule artifacts are the same kind of file; one
damage table runs against the module directly and through both
wrappers, and two fixtures written **at the parent commit** (before the
shared module existed) pin both on-disk formats to the byte.
"""

from __future__ import annotations

import pathlib
import re

import pytest

from repro.core.serialization import hitlist_to_json, rules_to_json
from repro.resilience.sealed import (
    SealedFileError,
    list_sealed,
    newest_valid,
    prune_sealed,
    read_sealed,
    write_sealed,
)
from repro.rules import (
    ArtifactError,
    RulesArtifact,
    VersionedRuleStore,
    artifact_path,
    read_artifact,
    write_artifact,
)
from repro.stream.checkpoint import (
    CheckpointError,
    CheckpointVersionError,
    checkpoint_path,
    load_latest,
    read_checkpoint,
    tmp_leftover_count,
    write_checkpoint,
)
from tests.test_rules_lifecycle import BOUNDARY, world_v1

FIXTURES = pathlib.Path(__file__).parent / "data" / "sealed"

_PLAIN_RE = re.compile(r"^gen-(\d+)\.bin$")


class _Plain:
    """The module itself: a two-part body under a test magic."""

    error = SealedFileError

    @staticmethod
    def path(directory, number):
        return pathlib.Path(directory) / f"gen-{number}.bin"

    @classmethod
    def write(cls, directory, number):
        write_sealed(
            cls.path(directory, number), "test-magic", 1, (b"ab\n", b"cd")
        )

    @staticmethod
    def read(path):
        return read_sealed(path, "test-magic", 1)

    @classmethod
    def newest(cls, directory):
        found, skipped = newest_valid(
            directory, _PLAIN_RE, cls.read, SealedFileError,
            lambda *args: None,
        )
        return found and (found[0], len(skipped))


class _Checkpoint:
    error = CheckpointError
    path = staticmethod(checkpoint_path)
    read = staticmethod(read_checkpoint)

    @staticmethod
    def write(directory, number):
        write_checkpoint(directory, number, {"seq": number}, keep=10)

    @staticmethod
    def newest(directory):
        loaded = load_latest(directory)
        return loaded and (loaded.seq, loaded.fallbacks)


class _Artifact:
    error = ArtifactError
    path = staticmethod(artifact_path)
    read = staticmethod(read_artifact)

    @classmethod
    def write(cls, directory, number):
        write_artifact(
            cls.path(directory, number), RulesArtifact(number, *world_v1())
        )

    @staticmethod
    def newest(directory):
        loaded = VersionedRuleStore(directory).load_latest()
        return loaded and (loaded.artifact.version, loaded.fallbacks)


FACES = pytest.mark.parametrize(
    "face", [_Plain, _Checkpoint, _Artifact], ids=lambda f: f.__name__
)


def _rewrite_version(raw: bytes) -> bytes:
    header, rest = raw.split(b"\n", 1)
    return re.sub(rb" v\d+ ", b" v9 ", header, count=1) + b"\n" + rest


def _flip(raw: bytes) -> bytes:
    return raw[:-2] + bytes([raw[-2] ^ 0xFF]) + raw[-1:]


#: damage name -> what it does to the file's bytes
DAMAGE = {
    "no-header-line": lambda raw: raw.replace(b"\n", b" "),
    "non-ascii-header": lambda raw: b"\xff" + raw,
    "wrong-magic": lambda raw: b"x" + raw,
    "other-format-version": _rewrite_version,
    "short-body": lambda raw: raw[:-3],
    "padded-body": lambda raw: raw + b"\0" * 8,
    "flipped-byte": _flip,
}


@FACES
class TestDamageTable:
    @pytest.mark.parametrize("damage", sorted(DAMAGE))
    def test_damage_is_refused_and_the_previous_generation_served(
        self, face, damage, tmp_path
    ):
        face.write(tmp_path, 1)
        face.write(tmp_path, 2)
        assert face.newest(tmp_path) == (2, 0)
        newest = face.path(tmp_path, 2)
        newest.write_bytes(DAMAGE[damage](newest.read_bytes()))
        with pytest.raises(face.error):
            face.read(newest)
        assert face.newest(tmp_path) == (1, 1)

    def test_tmp_leftover_only_is_no_generation(self, face, tmp_path):
        face.write(tmp_path, 1)
        final = face.path(tmp_path, 1)
        final.rename(final.with_name(final.name + ".tmp"))
        assert face.newest(tmp_path) is None
        assert face.newest(tmp_path / "never-created") is None

    def test_a_clean_write_leaves_no_tmp_and_reads_back(
        self, face, tmp_path
    ):
        face.write(tmp_path, 1)
        assert [p.name for p in tmp_path.iterdir()] == [
            face.path(tmp_path, 1).name
        ]
        face.read(face.path(tmp_path, 1))


class TestModule:
    def test_body_and_header(self, tmp_path):
        _Plain.write(tmp_path, 5)
        raw = _Plain.path(tmp_path, 5).read_bytes()
        header, body = raw.split(b"\n", 1)
        assert re.fullmatch(
            rb"test-magic v1 sha256=[0-9a-f]{64} length=5", header
        )
        assert body == b"ab\ncd" == _Plain.read(_Plain.path(tmp_path, 5))

    def test_other_version_is_a_refusal_not_damage(self, tmp_path):
        _Plain.write(tmp_path, 1)
        path = _Plain.path(tmp_path, 1)
        path.write_bytes(_rewrite_version(path.read_bytes()))
        with pytest.raises(SealedFileError) as refusal:
            _Plain.read(path)
        assert refusal.value.found_version == 9
        path.write_bytes(b"x" + path.read_bytes())
        with pytest.raises(SealedFileError) as damage:
            _Plain.read(path)
        assert damage.value.found_version is None

    def test_list_and_prune(self, tmp_path):
        for number in (3, 1, 2, 10):
            _Plain.write(tmp_path, number)
        (tmp_path / "gen-x.bin").write_bytes(b"not a generation")
        assert [n for n, _ in list_sealed(tmp_path, _PLAIN_RE)] == [
            1, 2, 3, 10,
        ]
        prune_sealed(
            tmp_path, _PLAIN_RE, keep=1, spare=_Plain.path(tmp_path, 2)
        )
        assert [n for n, _ in list_sealed(tmp_path, _PLAIN_RE)] == [2, 10]
        prune_sealed(tmp_path, _PLAIN_RE, keep=0)
        assert list_sealed(tmp_path, _PLAIN_RE) == []
        assert list_sealed(tmp_path / "absent", _PLAIN_RE) == []

    def test_failed_directory_fsync_is_tolerated(
        self, tmp_path, monkeypatch
    ):
        """The one behavioural merge: artifacts, like checkpoints
        before them, survive a filesystem that cannot sync a directory
        (the file's own fsync still happens and still raises)."""
        import os

        real_fsync = os.fsync
        synced = []

        def fsync(fd):
            if os.path.isdir(f"/proc/self/fd/{fd}"):
                raise OSError("directories cannot be synced here")
            synced.append(fd)
            real_fsync(fd)

        monkeypatch.setattr(os, "fsync", fsync)
        _Artifact.write(tmp_path, 1)
        _Checkpoint.write(tmp_path, 1)
        assert len(synced) == 2
        assert _Artifact.newest(tmp_path) == (1, 0)
        assert _Checkpoint.newest(tmp_path) == (1, 0)


class TestCheckpointOnly:
    def test_a_directory_of_only_another_version_says_so(self, tmp_path):
        for seq in (1, 2):
            _Checkpoint.write(tmp_path, seq)
            path = checkpoint_path(tmp_path, seq)
            path.write_bytes(_rewrite_version(path.read_bytes()))
        with pytest.raises(CheckpointVersionError, match="version 9"):
            load_latest(tmp_path)

    def test_tmp_leftovers_are_counted(self, tmp_path):
        _Checkpoint.write(tmp_path, 1)
        final = checkpoint_path(tmp_path, 1)
        final.rename(final.with_name(final.name + ".tmp"))
        assert tmp_leftover_count(tmp_path) == 1


class TestParentCommitFiles:
    """Files the parent commit wrote (``tests/data/sealed``: a real
    engine checkpoint with a staged swap, and ``world_v1`` as generation
    1) read back, and writing the same payload again gives the same
    bytes under the same name."""

    def test_checkpoint(self, tmp_path):
        fixture = FIXTURES / "ckpt-0000000003.json"
        payload = read_checkpoint(fixture)
        assert payload["counters"]["records"] == 3
        assert payload["rules"] == {
            "active_version": 1,
            "pending_version": 2,
            "pending_activate_at": BOUNDARY,
        }
        assert len(payload["tables"][0]["entries"]) == 2
        assert load_latest(FIXTURES).seq == 3
        written = write_checkpoint(tmp_path, 3, payload)
        assert written.name == fixture.name
        assert written.read_bytes() == fixture.read_bytes()

    def test_artifact(self, tmp_path):
        fixture = FIXTURES / "rules-v0000000001.json"
        artifact = read_artifact(fixture)
        rules, hitlist = world_v1()
        assert artifact.version == 1
        assert rules_to_json(artifact.rules) == rules_to_json(rules)
        assert hitlist_to_json(artifact.hitlist) == hitlist_to_json(hitlist)
        written = artifact_path(tmp_path, 1)
        write_artifact(written, RulesArtifact(1, rules, hitlist))
        assert written.name == fixture.name
        assert written.read_bytes() == fixture.read_bytes()
