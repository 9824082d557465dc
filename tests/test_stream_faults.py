"""Checkpoint robustness under injected faults.

The checkpointer promises: a crash — at any byte — leaves the stream
engine resumable from the newest *valid* checkpoint, with a logged
warning for anything damaged, and never a crash at recovery time.
These tests damage checkpoints the ways real failures do (truncation,
bit rot, version skew, interrupted writes) and hold it to that.
"""

from __future__ import annotations

import hashlib
import json
import logging

import pytest

from repro.core.rules import DetectionRule, RuleSet
from repro.netflow.flowfile import write_flow_file
from repro.pipeline.swap import RuleGeneration
from repro.stream import JsonlEventSink, StreamConfig, StreamDetectionEngine
from repro.stream.checkpoint import (
    CHECKPOINT_VERSION,
    CheckpointError,
    CheckpointVersionError,
    checkpoint_path,
    list_checkpoints,
    load_latest,
    read_checkpoint,
    write_checkpoint,
)
from repro.timeutil import STUDY_START
from repro.faults import (
    corrupt_payload_byte,
    corrupt_version_header,
    truncate_file,
    write_partial_temp,
)
from tests.conftest import write_artifacts


@pytest.fixture()
def ckpt_dir(tmp_path):
    """Three valid checkpoints, seq 100 < 200 < 300."""
    for seq in (100, 200, 300):
        write_checkpoint(tmp_path, seq, {"seq": seq}, keep=10)
    return tmp_path


class TestReadCheckpoint:
    def test_roundtrip(self, tmp_path):
        payload = {"records": 42, "tables": [{"entries": []}]}
        path = write_checkpoint(tmp_path, 42, payload)
        assert read_checkpoint(path) == payload

    def test_truncated_payload_rejected(self, ckpt_dir):
        path = checkpoint_path(ckpt_dir, 300)
        truncate_file(path, path.stat().st_size - 3)
        with pytest.raises(CheckpointError, match="truncated"):
            read_checkpoint(path)

    def test_truncated_header_rejected(self, ckpt_dir):
        path = checkpoint_path(ckpt_dir, 300)
        truncate_file(path, 10)  # mid-header, no newline survives
        with pytest.raises(CheckpointError, match="header"):
            read_checkpoint(path)

    def test_wrong_version_rejected(self, ckpt_dir):
        path = checkpoint_path(ckpt_dir, 300)
        corrupt_version_header(path)
        with pytest.raises(CheckpointError, match="version"):
            read_checkpoint(path)

    def test_flipped_payload_byte_rejected(self, ckpt_dir):
        path = checkpoint_path(ckpt_dir, 300)
        corrupt_payload_byte(path)
        with pytest.raises(CheckpointError, match="digest"):
            read_checkpoint(path)

    def test_foreign_file_rejected(self, tmp_path):
        path = checkpoint_path(tmp_path, 1)
        path.write_bytes(b"{\"not\": \"a checkpoint\"}\n")
        with pytest.raises(CheckpointError):
            read_checkpoint(path)


class TestLatestCheckpointFallback:
    def test_picks_newest_valid(self, ckpt_dir):
        loaded = load_latest(ckpt_dir)
        assert (loaded.seq, loaded.payload["seq"]) == (300, 300)

    @pytest.mark.parametrize(
        "damage",
        [
            lambda path: truncate_file(path, path.stat().st_size - 3),
            corrupt_version_header,
            corrupt_payload_byte,
        ],
        ids=["truncated", "wrong-version", "bit-rot"],
    )
    def test_falls_back_past_damaged_latest(
        self, ckpt_dir, caplog, damage
    ):
        damage(checkpoint_path(ckpt_dir, 300))
        with caplog.at_level(
            logging.WARNING, logger="repro.stream.checkpoint"
        ):
            loaded = load_latest(ckpt_dir)
        assert (loaded.seq, loaded.payload["seq"]) == (200, 200)
        assert any(
            "falling back" in record.message
            for record in caplog.records
        )

    def test_partial_temp_ignored_with_warning(self, ckpt_dir, caplog):
        write_partial_temp(ckpt_dir, 400)
        with caplog.at_level(
            logging.WARNING, logger="repro.stream.checkpoint"
        ):
            loaded = load_latest(ckpt_dir)
        assert loaded.seq == 300  # the interrupted write never counts
        assert any(
            "partially-written" in record.message
            for record in caplog.records
        )

    def test_all_damaged_returns_none(self, ckpt_dir, caplog):
        for seq in (100, 200, 300):
            corrupt_payload_byte(checkpoint_path(ckpt_dir, seq))
        with caplog.at_level(
            logging.WARNING, logger="repro.stream.checkpoint"
        ):
            assert load_latest(ckpt_dir) is None
        assert len(caplog.records) == 3

    def test_empty_or_missing_directory(self, tmp_path):
        assert load_latest(tmp_path) is None
        assert load_latest(tmp_path / "never-created") is None


# -- the packed-column body ------------------------------------------------

#: class names and fqdns a JSON string must escape, and a ``%``
ODD_CLASSES = {
    'cam "pro" 100%': ('we"ird%.example', "back\\slash.example"),
    "hub\\": ("hub%d.example",),
}
ODD_ADDRESSES = {
    fqdn: 0xC0A80201 + n
    for n, fqdn in enumerate(
        fqdn for domains in ODD_CLASSES.values() for fqdn in domains
    )
}


def _odd_world():
    from tests.test_rules_lifecycle import make_world

    return make_world(ODD_CLASSES, ODD_ADDRESSES)


def _odd_flowfile(tmp_path, subscribers=12):
    """Every subscriber contacts every odd endpoint, minutes apart."""
    from tests.test_stream import _mkflow

    flows = [
        _mkflow(0x0A000001 + sub, address, STUDY_START + 60 * n + sub)
        for n, address in enumerate(ODD_ADDRESSES.values())
        for sub in range(subscribers)
    ]
    flows.sort(key=lambda flow: flow.first_switched)
    path = tmp_path / "odd.csv"
    write_flow_file(path, flows)
    return path


def _engine_after_run(tmp_path, **config):
    rules, hitlist = _odd_world()
    engine = StreamDetectionEngine(
        rules,
        hitlist,
        StreamConfig(checkpoint_dir=tmp_path / "ckpt", **config),
    )
    engine.process_flowfile(_odd_flowfile(tmp_path))
    assert engine.metrics.events_emitted
    return engine


class _KilledRun:
    """An odd-world run killed at record 25 with checkpoints at 10 and
    20 (``log``), beside the uninterrupted run's log (``full``)."""

    def __init__(self, tmp_path):
        self.world = _odd_world()
        self.flowfile = _odd_flowfile(tmp_path)
        self.config = StreamConfig(
            checkpoint_dir=tmp_path / "ckpt", checkpoint_every=10
        )
        self.full = tmp_path / "full.jsonl"
        self.log = tmp_path / "events.jsonl"
        for log, config, stop in (
            (self.full, StreamConfig(), None), (self.log, self.config, 25)
        ):
            with JsonlEventSink(log) as sink:
                StreamDetectionEngine(
                    *self.world, config, sink
                ).process_flowfile(self.flowfile, max_records=stop)

    def resume_and_finish(self, resumed_at):
        with JsonlEventSink(self.log, resume=True) as sink:
            engine = StreamDetectionEngine.resume(
                *self.world, self.config, sink
            )
            assert engine.records_processed == resumed_at
            engine.process_flowfile(self.flowfile)
        return engine


def _with_lineage(engine):
    engine.lineage = {
        "worker_id": 1, "ring_epoch": 3, "slot_counts": {0: 7, 5: 11},
    }


def _with_pending_swap(engine):
    rules, hitlist = _odd_world()
    engine.stage_rules(RuleGeneration.prepare(2, rules, hitlist))


def _with_pressure(engine):
    assert engine.table.shrink(2)
    assert engine.table.pressure_reduced


def _unchanged(engine):
    pass


class TestPackedCheckpoint:
    """``read_checkpoint(write_checkpoint(p)) == p`` for the payloads
    real engines write, and the damage cells again with real columns."""

    @pytest.mark.parametrize(
        "config, prepare",
        [
            ({}, _unchanged),
            ({"ttl_seconds": 3600}, _unchanged),
            ({}, _with_lineage),
            ({}, _with_pending_swap),
            ({}, _with_pressure),
        ],
        ids=["plain", "ttl", "lineage", "pending-swap", "pressure"],
    )
    def test_engine_payload_round_trips(self, tmp_path, config, prepare):
        engine = _engine_after_run(tmp_path, **config)
        prepare(engine)
        table = engine.table
        expected = table.to_state()
        restored = read_checkpoint(engine.write_checkpoint())
        # the engine streams its entries into the writer; what comes
        # back is the materialised ``to_state()`` of its table
        assert restored["tables"] == [expected]
        assert "workers" not in restored["config"]
        assert expected["entries"]
        # ... and a payload given as plain data comes back as itself,
        # small fields through JSON (int dict keys become strings)
        again = read_checkpoint(
            write_checkpoint(tmp_path / "again", 1, restored)
        )
        assert again == restored == json.loads(json.dumps(restored))
        assert restored.get("lineage") == json.loads(
            json.dumps(engine.lineage)
        )
        (state,) = restored["tables"]
        rebuilt = type(table).from_state(state)
        assert rebuilt.to_state() == table.to_state()
        assert [list(e[2]["satisfied_at"]) for e in state["entries"]] == [
            list(progress.satisfied_at)
            for _, progress in table.progress_items()
        ]
        resumed = StreamDetectionEngine.resume(
            *_odd_world(), StreamConfig(checkpoint_dir=tmp_path / "ckpt")
        )
        assert resumed.records_processed == engine.records_processed
        assert resumed.lineage == restored.get("lineage")

    def test_intern_tables_hold_each_name_once(self, tmp_path):
        engine = _engine_after_run(tmp_path)
        raw = engine.write_checkpoint().read_bytes()
        head = json.loads(raw.split(b"\n", 2)[1])
        assert sorted(head["columns"]["domains"]) == sorted(ODD_ADDRESSES)
        assert sorted(head["columns"]["classes"]) == sorted(ODD_CLASSES)
        assert all(t["entries"] is None for t in head["payload"]["tables"])

    @pytest.mark.parametrize(
        "state",
        [
            ["not-a-digest", 1, {"first_seen": {}, "satisfied_at": {},
                                 "emitted": []}],
            ["0123456789ABCDEF", 1, {"first_seen": {}, "satisfied_at": {},
                                     "emitted": []}],
            ["0123456789abcdef", 1, {"first_seen": {}, "satisfied_at": {},
                                     "emitted": ["ghost"]}],
            ["0123456789abcdef", 1, {"first_seen": {},
                                     "satisfied_at": {"real": 1},
                                     "emitted": ["ghost"]}],
        ],
        ids=["short-key", "upper-key", "emitted-only", "emitted-unknown"],
    )
    def test_unrepresentable_entry_is_refused_not_mangled(
        self, tmp_path, state
    ):
        with pytest.raises(ValueError):
            write_checkpoint(tmp_path, 1, {"tables": [{"entries": [state]}]})
        assert list_checkpoints(tmp_path) == []

    @pytest.mark.parametrize(
        "damage",
        [
            lambda path: truncate_file(path, path.stat().st_size - 40),
            lambda path: corrupt_payload_byte(path, offset_from_end=40),
            lambda path: path.write_bytes(path.read_bytes() + b"\0" * 8),
        ],
        ids=["truncated-columns", "bit-rot-in-columns", "padded"],
    )
    def test_damaged_columns_fall_back_a_generation(
        self, tmp_path, caplog, damage
    ):
        run = _KilledRun(tmp_path)
        damage(checkpoint_path(run.config.checkpoint_dir, 20))
        with caplog.at_level(
            logging.WARNING, logger="repro.stream.checkpoint"
        ):
            resumed = run.resume_and_finish(resumed_at=10)
        assert resumed.metrics.checkpoint_fallbacks == 1
        assert "falling back" in caplog.text
        assert run.log.read_bytes() == run.full.read_bytes()

    def test_consistent_digest_inconsistent_columns_rejected(self, tmp_path):
        """A file whose digest and length hold but whose column counts
        disagree with its bytes is damage too, not a crash."""
        engine = _engine_after_run(tmp_path)
        path = engine.write_checkpoint()
        header, head, blob = path.read_bytes().split(b"\n", 2)
        document = json.loads(head)
        document["columns"]["rows"][1] += 1
        body = json.dumps(document).encode() + b"\n" + blob
        path.write_bytes(
            (
                f"repro-stream-ckpt v{CHECKPOINT_VERSION} "
                f"sha256={hashlib.sha256(body).hexdigest()} "
                f"length={len(body)}\n"
            ).encode()
            + body
        )
        with pytest.raises(CheckpointError, match="malformed"):
            read_checkpoint(path)


def _write_v1(directory, seq, payload):
    """A checkpoint as the previous release wrote it."""
    body = json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()
    directory.mkdir(parents=True, exist_ok=True)
    path = checkpoint_path(directory, seq)
    path.write_bytes(
        (
            f"repro-stream-ckpt v1 sha256={hashlib.sha256(body).hexdigest()} "
            f"length={len(body)}\n"
        ).encode()
        + body
    )
    return path


class TestFormatVersionRefusal:
    def test_v1_file_is_refused_by_name(self, tmp_path):
        path = _write_v1(tmp_path, 10, {"state_version": 1, "tables": []})
        with pytest.raises(CheckpointVersionError) as refusal:
            read_checkpoint(path)
        message = str(refusal.value)
        assert "format version 1" in message
        assert f"version {CHECKPOINT_VERSION}" in message
        assert "release that wrote it" in message
        assert refusal.value.found == 1

    def test_directory_of_only_v1_files_says_so(self, tmp_path, caplog):
        for seq in (10, 20):
            _write_v1(tmp_path / "ckpt", seq, {"state_version": 1})
        with caplog.at_level(
            logging.WARNING, logger="repro.stream.checkpoint"
        ):
            with pytest.raises(
                CheckpointVersionError, match="format version 1"
            ):
                load_latest(tmp_path / "ckpt")
        rules, hitlist = _odd_world()
        with pytest.raises(CheckpointError, match="format version 1"):
            StreamDetectionEngine.resume(
                rules, hitlist, StreamConfig(checkpoint_dir=tmp_path / "ckpt")
            )

    def test_v1_beside_damage_is_still_just_unusable(self, tmp_path):
        _write_v1(tmp_path, 10, {"state_version": 1})
        write_checkpoint(tmp_path, 20, {"seq": 20})
        corrupt_payload_byte(checkpoint_path(tmp_path, 20))
        assert load_latest(tmp_path) is None

    def test_v1_under_a_good_checkpoint_is_never_reached(self, tmp_path):
        _write_v1(tmp_path, 10, {"state_version": 1})
        write_checkpoint(tmp_path, 20, {"seq": 20})
        assert load_latest(tmp_path).payload == {"seq": 20}


def _rewritten(ckpt, seq, edit):
    """Checkpoint ``seq`` of ``ckpt`` put back with ``edit`` applied to
    its payload — a file some other release could have written."""
    payload = read_checkpoint(checkpoint_path(ckpt, seq))
    edit(payload)
    return write_checkpoint(ckpt, seq, payload)


class TestRemovedWorkersOption:
    """``StreamConfig.workers`` (N tables in one engine) is gone; what
    its checkpoints meet on resume."""

    def test_previous_release_payload_resumes_cmp_equal(self, tmp_path):
        """The previous release wrote ``config.workers`` into every
        checkpoint; with the default of 1 that file resumes as ever."""
        run = _KilledRun(tmp_path)
        _rewritten(
            run.config.checkpoint_dir, 20,
            lambda payload: payload["config"].update(workers=1),
        )
        run.resume_and_finish(resumed_at=20)
        assert run.log.read_bytes() == run.full.read_bytes()

    @pytest.mark.parametrize(
        "edit",
        [
            lambda payload: payload["config"].update(workers=4),
            lambda payload: payload.update(tables=payload["tables"] * 4),
        ],
        ids=["config-workers", "four-tables"],
    )
    def test_split_state_is_refused_by_name(self, tmp_path, capsys, edit):
        from repro.cli import main
        from repro.fleet.worker import (
            WorkerSpec,
            _build_engine,
            worker_checkpoint_dir,
        )

        run = _KilledRun(tmp_path)
        ckpt = run.config.checkpoint_dir
        refused = _rewritten(ckpt, 20, edit).read_bytes()
        # a refusal, not damage: nothing falls back to generation 10
        loaded = load_latest(ckpt)
        assert (loaded.seq, loaded.fallbacks) == (20, 0)
        wanted = "removed option workers=4.*release that wrote it"
        with pytest.raises(CheckpointError, match=wanted):
            StreamDetectionEngine.resume(*run.world, run.config)

        code = main(
            [
                "stream", "run", str(run.flowfile),
                "--artifacts",
                str(write_artifacts(tmp_path / "artifacts", *run.world)),
                "--checkpoint-dir", str(ckpt),
                "--events-out", str(run.log),
                "--resume",
            ]
        )
        assert code == 2
        error = capsys.readouterr().err
        assert "error: cannot resume: checkpoint was written with" in error
        assert "workers=4" in error

        worker_ckpt = worker_checkpoint_dir(tmp_path / "fleet", 0)
        worker_ckpt.mkdir(parents=True)
        checkpoint_path(worker_ckpt, 20).write_bytes(refused)
        spec = WorkerSpec(0, 0, str(tmp_path / "fleet"), 0, resume=True)
        with pytest.raises(CheckpointError, match=wanted):
            _build_engine(spec, *run.world, None)


class TestRetention:
    def test_keep_prunes_oldest(self, tmp_path):
        for seq in range(1, 6):
            write_checkpoint(tmp_path, seq, {"seq": seq}, keep=3)
        assert [seq for seq, _ in list_checkpoints(tmp_path)] == [
            3,
            4,
            5,
        ]

    def test_overwrite_same_seq_is_atomic_replace(self, tmp_path):
        write_checkpoint(tmp_path, 7, {"generation": 1})
        path = write_checkpoint(tmp_path, 7, {"generation": 2})
        assert read_checkpoint(path) == {"generation": 2}
        assert len(list_checkpoints(tmp_path)) == 1


class TestEngineRecovery:
    """End-to-end: a damaged latest checkpoint costs re-processing,
    never correctness — the resumed run still matches the oracle."""

    def test_resume_from_older_checkpoint_after_damage(
        self, rules, hitlist, tmp_path, caplog
    ):
        from repro.netflow.flowfile import write_flow_file
        from repro.stream import (
            JsonlEventSink,
            StreamConfig,
            StreamDetectionEngine,
        )
        from tests.test_stream import _mkflow

        # a tiny synthetic stream that matches nothing (we only care
        # about checkpoint mechanics here, not detections)
        from repro.timeutil import STUDY_START

        flows = [
            _mkflow(1, 2, STUDY_START + n) for n in range(100)
        ]
        path = tmp_path / "flows.csv"
        write_flow_file(path, flows)
        config = StreamConfig(
            checkpoint_dir=tmp_path / "ckpt", checkpoint_every=20
        )
        log = tmp_path / "events.jsonl"
        with JsonlEventSink(log) as sink:
            engine = StreamDetectionEngine(rules, hitlist, config, sink)
            engine.process_flowfile(path, max_records=70)
        # checkpoints at 20, 40, 60 — damage the newest
        corrupt_payload_byte(checkpoint_path(config.checkpoint_dir, 60))
        with caplog.at_level(
            logging.WARNING, logger="repro.stream.checkpoint"
        ):
            with JsonlEventSink(log, resume=True) as sink:
                resumed = StreamDetectionEngine.resume(
                    rules, hitlist, config, sink
                )
                assert resumed.records_processed == 40
                resumed.process_flowfile(path)
        assert resumed.records_processed == 100
        assert any(
            "falling back" in record.message
            for record in caplog.records
        )
