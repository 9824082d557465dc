"""Streaming online detection: golden-oracle equivalence, kill/resume
bit-identity, bounded state, and out-of-order tolerance.

The batch :class:`~repro.core.detector.FlowDetector` is the oracle: on
an in-order replay of the same flows, the stream engine must emit
exactly the batch detections — same subscribers, same classes, same
detection times.  Both paths evaluate rules through
:class:`~repro.core.detector.SubscriberProgress`, so this holds by
construction; these tests keep it that way.
"""

from __future__ import annotations

import pathlib

import pytest

from repro.core.detector import SubscriberProgress
from repro.core.rules import DetectionRule, RuleSet
from repro.netflow.flowfile import read_flow_file, write_flow_file
from repro.netflow.records import (
    FlowKey,
    FlowRecord,
    PROTO_TCP,
    TCP_ACK,
)
from repro.netflow.parse import ColumnarDecodeStage, chunks_from_records
from repro.pipeline import streaming_assembly
from repro.stream import (
    JsonlEventSink,
    StreamConfig,
    StreamDetectionEngine,
    read_event_log,
)
from repro.faults import jitter_order
from repro.pipeline.state import EvidenceStateTable
from repro.stream.checkpoint import read_checkpoint, write_checkpoint
from repro.timeutil import STUDY_START
from tests.conftest import triples
from tests.reference_fold import fold, read_tuples


# -- shared replay material -------------------------------------------


def _mkflow(src, dst, when, port=443, proto=PROTO_TCP, flags=TCP_ACK):
    return FlowRecord(
        key=FlowKey(
            src_ip=src,
            dst_ip=dst,
            protocol=proto,
            src_port=40000,
            dst_port=port,
        ),
        first_switched=when,
        last_switched=when + 59,
        packets=1,
        bytes=100,
        tcp_flags=flags,
    )


# -- golden-oracle equivalence ----------------------------------------


class TestGoldenOracle:
    @pytest.mark.parametrize("segments", [1, 4])
    def test_stream_equals_batch(
        self, rules, hitlist, gt_flowfile, batch_oracle, segments
    ):
        """Folded in one call, or cut into ``max_records`` segments."""
        engine = StreamDetectionEngine(rules, hitlist)
        for _ in range(segments - 1):
            assert engine.process_flowfile(
                gt_flowfile, max_records=20_000
            ) == 20_000
        engine.process_flowfile(gt_flowfile)
        assert batch_oracle  # the scenario detects devices at all
        assert triples(engine.sink.events) == batch_oracle

    def test_fast_and_record_paths_agree(
        self, rules, hitlist, gt_flowfile
    ):
        """The engine's chunk loop against the row-at-a-time oracle."""
        fast = StreamDetectionEngine(rules, hitlist)
        fast.process_flowfile(gt_flowfile)
        slow = streaming_assembly(rules, hitlist)
        folded = fold(slow, read_tuples(gt_flowfile))
        assert [e.to_line() for e in fast.sink.events] == [
            e.to_line() for e in slow.sink.events
        ]
        assert fast.records_processed == folded

    def test_tuple_iterator_matches_flowfile_reader(self, gt_flowfile):
        tuples = list(read_tuples(gt_flowfile))
        flows = list(read_flow_file(gt_flowfile))
        assert len(tuples) == len(flows)
        for tup, flow in zip(tuples, flows):
            assert tup == (
                flow.first_switched,
                flow.src_ip,
                flow.dst_ip,
                flow.protocol,
                flow.dst_port,
                flow.tcp_flags,
            )

    def test_out_of_order_tolerance(
        self, rules, hitlist, gt_flows, batch_oracle
    ):
        """Bounded reordering (a collector's export jitter) must not
        change which subscribers are detected as which classes."""
        jittered = list(jitter_order(gt_flows, displacement=64, seed=11))
        assert jittered != gt_flows  # the jitter actually reordered
        engine = StreamDetectionEngine(rules, hitlist)
        engine.process_chunks(chunks_from_records(jittered, 256))
        got = {
            (e.subscriber, e.class_name) for e in engine.sink.events
        }
        want = {(s, c) for s, c, _ in batch_oracle}
        assert got == want


# -- kill / resume ----------------------------------------------------


class TestKillResume:
    @pytest.mark.parametrize("kills", [1, 4])
    def test_kill_resume_bit_identical(
        self, rules, hitlist, gt_flowfile, tmp_path, kills
    ):
        """Kill mid-stream between checkpoints — once, or again and
        again after each resume — and the event log ends byte-identical
        to the uninterrupted run's."""

        def run(tag, kills=0):
            ckpt = tmp_path / f"ckpt-{tag}"
            log = tmp_path / f"events-{tag}.jsonl"
            config = StreamConfig(
                checkpoint_dir=ckpt, checkpoint_every=10_000
            )
            with JsonlEventSink(log) as sink:
                engine = StreamDetectionEngine(
                    rules, hitlist, config, sink
                )
                engine.process_flowfile(
                    gt_flowfile, max_records=14_567 if kills else None
                )
            for kill in range(1, kills + 1):
                with JsonlEventSink(log, resume=True) as sink:
                    engine = StreamDetectionEngine.resume(
                        rules, hitlist, config, sink
                    )
                    # resumed exactly at the last checkpoint boundary;
                    # each life folds 14,567 records and loses 4,567
                    assert engine.records_processed == 10_000 * kill
                    engine.process_flowfile(
                        gt_flowfile,
                        max_records=14_567 if kill < kills else None,
                    )
            return log

        full = run("full")
        resumed = run("killed", kills=kills)
        assert full.read_bytes() == resumed.read_bytes()

    def test_resume_restores_counters_and_config(
        self, rules, hitlist, gt_flowfile, tmp_path
    ):
        config = StreamConfig(
            threshold=0.4,
            checkpoint_dir=tmp_path / "ckpt",
            checkpoint_every=5_000,
        )
        first = StreamDetectionEngine(rules, hitlist, config)
        first.process_flowfile(gt_flowfile, max_records=12_000)
        # resume under a *different* requested threshold: the
        # checkpointed identity config must win, or the continued run
        # could diverge from the uninterrupted one
        resumed = StreamDetectionEngine.resume(
            rules,
            hitlist,
            StreamConfig(
                threshold=0.9,
                checkpoint_dir=tmp_path / "ckpt",
                checkpoint_every=5_000,
            ),
        )
        assert resumed.config.threshold == 0.4
        assert resumed.records_processed == 10_000
        assert (
            resumed.metrics.flows_matched
            <= first.metrics.flows_matched
        )

    def test_events_replayed_not_duplicated(
        self, rules, hitlist, gt_flowfile, tmp_path
    ):
        config = StreamConfig(
            checkpoint_dir=tmp_path / "ckpt", checkpoint_every=7_000
        )
        log = tmp_path / "events.jsonl"
        with JsonlEventSink(log) as sink:
            engine = StreamDetectionEngine(rules, hitlist, config, sink)
            engine.process_flowfile(gt_flowfile, max_records=20_000)
        with JsonlEventSink(log, resume=True) as sink:
            engine = StreamDetectionEngine.resume(
                rules, hitlist, config, sink
            )
            engine.process_flowfile(gt_flowfile)
        events = read_event_log(log)
        keys = [(e.subscriber, e.class_name) for e in events]
        assert len(keys) == len(set(keys))


def _family_rules():
    """``Zed`` and ``Alpha`` under ``Root``; children named so that
    rule-set order, satisfaction order and sorted order all differ."""
    return RuleSet(
        [
            DetectionRule("Root", "Platform", ("r.example",)),
            DetectionRule("Zed", "Product", ("z.example",), parent="Root"),
            DetectionRule("Alpha", "Product", ("a.example",), parent="Root"),
        ]
    )


class TestSameRecordEventOrder:
    """Children satisfied before their parent are all reported by the
    parent's record, in the order they were satisfied — also when a
    checkpoint was written and resumed from in between."""

    EVIDENCE = ("z.example", "a.example", "r.example")

    def test_progress_order_survives_a_checkpoint(self, tmp_path):
        rules = _family_rules()
        progress = SubscriberProgress()
        for when, fqdn in enumerate(self.EVIDENCE[:2]):
            assert progress.observe(rules, 0.4, fqdn, when) == []
        payload = {
            "tables": [
                {"entries": [["0123456789abcdef", 1, progress.to_state()]]}
            ]
        }
        restored = read_checkpoint(write_checkpoint(tmp_path, 2, payload))
        resumed = SubscriberProgress.from_state(
            restored["tables"][0]["entries"][0][2]
        )
        assert list(resumed.satisfied_at) == ["Zed", "Alpha"]
        assert resumed.observe(rules, 0.4, "r.example", 2) == progress.observe(
            rules, 0.4, "r.example", 2
        ) == [("Zed", 2), ("Alpha", 2), ("Root", 2)]

    def test_kill_between_children_and_parent_cmp_equal(self, tmp_path):
        from tests.test_rules_lifecycle import make_world

        addresses = {
            fqdn: 0xC0A80101 + n for n, fqdn in enumerate(self.EVIDENCE)
        }
        _, hitlist = make_world(
            {"Root": ("r.example",), "Zed": ("z.example",),
             "Alpha": ("a.example",)},
            addresses,
        )
        rules = _family_rules()
        flowfile = tmp_path / "family.csv"
        write_flow_file(
            flowfile,
            [
                _mkflow(0x0A000001, addresses[fqdn], STUDY_START + 60 * n)
                for n, fqdn in enumerate(self.EVIDENCE)
            ],
        )

        def run(tag, kill_after=None):
            config = StreamConfig(
                checkpoint_dir=tmp_path / f"ckpt-{tag}", checkpoint_every=2
            )
            log = tmp_path / f"events-{tag}.jsonl"
            with JsonlEventSink(log) as sink:
                StreamDetectionEngine(
                    rules, hitlist, config, sink
                ).process_flowfile(flowfile, max_records=kill_after)
            if kill_after is not None:
                with JsonlEventSink(log, resume=True) as sink:
                    engine = StreamDetectionEngine.resume(
                        rules, hitlist, config, sink
                    )
                    assert engine.records_processed == 2
                    engine.process_flowfile(flowfile)
            return log

        full = run("full")
        assert [e.class_name for e in read_event_log(full)] == [
            "Zed", "Alpha", "Root",
        ]
        assert run("killed", kill_after=2).read_bytes() == full.read_bytes()


# -- bounded state ----------------------------------------------------


class TestBoundedState:
    def test_lru_eviction_caps_table(self):
        table = EvidenceStateTable(max_subscribers=10)
        for n in range(50):
            table.touch(f"sub-{n}", STUDY_START + n)
        assert len(table) == 10
        assert table.evicted_lru == 40
        # the survivors are the 10 most recently active
        survivors = {d for d, _, _ in table.to_state()["entries"]}
        assert survivors == {f"sub-{n}" for n in range(40, 50)}

    def test_ttl_eviction_uses_event_time(self):
        table = EvidenceStateTable(max_subscribers=100, ttl_seconds=60)
        table.touch("idle", STUDY_START)
        table.touch("busy", STUDY_START + 30)
        table.touch("late", STUDY_START + 120)  # advances the watermark
        assert len(table) == 1
        assert table.evicted_ttl == 2

    def test_engine_state_stays_bounded(
        self, rules, hitlist, gt_flowfile
    ):
        engine = StreamDetectionEngine(
            rules, hitlist, StreamConfig(max_subscribers=32)
        )
        engine.process_flowfile(gt_flowfile)
        metrics = engine.metrics_dict()
        assert metrics["state"]["subscribers_tracked"] <= 32
        assert metrics["state"]["evicted_lru"] > 0

    def test_eviction_may_reemit_but_never_loses_classes(
        self, rules, hitlist, gt_flowfile, batch_oracle
    ):
        """With a tight table bound, forgotten-then-reappearing
        subscribers can re-emit, but every batch detection's
        (subscriber, class) still appears in the stream output."""
        engine = StreamDetectionEngine(
            rules, hitlist, StreamConfig(max_subscribers=64)
        )
        engine.process_flowfile(gt_flowfile)
        got = {
            (e.subscriber, e.class_name) for e in engine.sink.events
        }
        want = {(s, c) for s, c, _ in batch_oracle}
        assert want <= got


# -- the replay source: a flow file decoded from a resume offset -------


class TestReplaySource:
    def test_high_watermark_reported(self, rules, hitlist, gt_flowfile):
        """A chunk source holds no buffer to report the depth of; the
        field stays in the metrics document, always 0."""
        engine = StreamDetectionEngine(rules, hitlist)
        engine.process_flowfile(gt_flowfile, max_records=5_000)
        assert engine.metrics_dict()["lag"] == {
            "records_since_checkpoint": 5_000,
            "source_high_watermark": 0,
            "event_time_watermark": engine.metrics.watermark,
        }

    def test_skip_fast_forwards(self, gt_flowfile):
        whens = [row[0] for row in read_tuples(gt_flowfile)]
        chunks = ColumnarDecodeStage(64).iter_chunks(gt_flowfile, skip=100)
        first = next(chunks)  # what is left of the chunk holding row 100
        assert first.start_index == 100
        assert first.first.tolist() == whens[100:128]
        assert next(chunks).start_index == 128


# -- smoke (tier-1 wiring) --------------------------------------------


@pytest.mark.smoke
def test_stream_smoke(rules, hitlist, gt_flowfile, tmp_path):
    """End-to-end: stream a prefix with checkpointing on, resume, and
    get events plus a well-formed metrics document."""
    config = StreamConfig(
        checkpoint_dir=tmp_path / "ckpt", checkpoint_every=2_000
    )
    engine = StreamDetectionEngine(rules, hitlist, config)
    engine.process_flowfile(gt_flowfile, max_records=6_000)
    resumed = StreamDetectionEngine.resume(rules, hitlist, config)
    resumed.process_flowfile(gt_flowfile, max_records=6_000)
    metrics = resumed.metrics_dict()
    assert metrics["schema"] == "repro.engine.metrics/1"
    assert metrics["mode"] == "stream"
    assert metrics["throughput"]["records"] == 12_000
    assert metrics["throughput"]["records_per_second"] > 0
