"""The staged ``repro.pipeline`` layer: cross-path equivalence and the
shared machinery the assemblies ride on.

The defining property of the refactor is that batch and stream
detection are the *same* stage graph assembled two ways, so the first
test class here pins triple equality — batch
:class:`~repro.core.detector.FlowDetector` (the golden oracle), the
stream engine's event log, and the generic pipeline assemblies must all
report identical ``(subscriber, class, detected_at)`` triples over the
same flows.  The rest covers the pieces the assemblies share: guard
polling, staged-run admission, the typed config hierarchy, the single
flow-line parser, and the fault harness's one import path.
"""

from __future__ import annotations

import json
import types

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.core.rules import DetectionRule, RuleSet
from repro.ixp import make_spoofed_flows
from repro.netflow.flowfile import parse_flow_line
from repro.netflow.parse import (
    ColumnarDecodeStage,
    FlowChunk,
    FlowLineParser,
    chunks_from_records,
)
from repro.pipeline import (
    AddressKeying,
    FlowPipeline,
    GuardSet,
    MemoryEventSink,
    StagedRun,
    run_flow_detection,
    streaming_assembly,
)
from repro.pipeline.events import DetectionEvent, JsonlEventSink
from repro.pipeline.flow import (
    BatchDetectStage,
    StreamingDetectStage,
    SubscriberKeying,
)
from repro.pipeline.state import EvidenceStateTable
from repro.runtime.shutdown import StopToken
from repro.stream import StreamConfig, StreamDetectionEngine
from repro.timeutil import SECONDS_PER_DAY, STUDY_START
from tests.conftest import triples


# -- cross-path equivalence -------------------------------------------


class TestCrossPathEquivalence:
    """One stage graph, three assemblies, identical detections."""

    def test_batch_assembly_equals_flow_detector(
        self, rules, hitlist, gt_flowfile, batch_oracle
    ):
        result = run_flow_detection(rules, hitlist, gt_flowfile)
        assert batch_oracle  # the scenario detects devices at all
        assert triples(result.detections) == batch_oracle

    def test_record_and_tuple_paths_agree(
        self, rules, hitlist, gt_flows, gt_flowfile
    ):
        """A record iterable and its flow file detect identically."""
        from_file = run_flow_detection(rules, hitlist, gt_flowfile)
        from_records = run_flow_detection(rules, hitlist, gt_flows)
        assert triples(from_records.detections) == triples(
            from_file.detections
        )
        assert from_records.flows_seen == from_file.flows_seen
        assert from_records.flows_matched == from_file.flows_matched

    @pytest.mark.parametrize("shards", [1, 4])
    def test_streaming_assembly_equals_batch(
        self, rules, hitlist, gt_flowfile, batch_oracle, shards
    ):
        """``shards`` is the keying's ring-slot count — the fleet's
        partition function, which one engine's table ignores."""
        pipeline = streaming_assembly(
            rules, hitlist, keying=SubscriberKeying(shards=shards)
        )
        pipeline.run_chunks(ColumnarDecodeStage().iter_chunks(gt_flowfile))
        assert triples(pipeline.sink.events) == batch_oracle

    def test_stream_engine_equals_pipeline_batch(
        self, rules, hitlist, gt_flowfile
    ):
        """The full engine (checkpointing wrapper) and the generic
        batch assembly agree — the three entry points are one path."""
        engine = StreamDetectionEngine(rules, hitlist, StreamConfig())
        engine.process_flowfile(gt_flowfile)
        batch = run_flow_detection(rules, hitlist, gt_flowfile)
        assert triples(engine.sink.events) == triples(batch.detections)
        assert (
            engine.metrics.records_processed == batch.flows_seen
        )

    def test_quarantine_feeds_result_metrics(
        self, rules, hitlist, gt_flowfile, tmp_path
    ):
        corrupted = tmp_path / "flows.csv"
        lines = gt_flowfile.read_text().splitlines()
        lines.insert(3, "1,2,3")  # malformed: wrong column count
        corrupted.write_text("\n".join(lines) + "\n")
        config = StreamConfig(quarantine_dir=tmp_path / "quarantine")
        result = run_flow_detection(rules, hitlist, corrupted, config)
        assert result.metrics.records_quarantined == 1
        assert result.metrics.quarantine_reasons == {
            "malformed_line": 1
        }


# -- the IXP setting: address keying, anti-spoofing validate stage ----


def _fabric_detection(rules, hitlist, flows, require_established):
    return run_flow_detection(
        rules,
        hitlist,
        flows,
        StreamConfig(require_established=require_established),
        keying=AddressKeying(),
    )


class TestIxpAntiSpoofing:
    def test_spoofed_syns_all_rejected(self, rules, hitlist):
        spoofed = make_spoofed_flows(hitlist, count=300)
        result = _fabric_detection(rules, hitlist, spoofed, True)
        assert result.flows_rejected_spoof == 300
        assert result.detections == []
        assert result.metrics.records_processed == 300

    def test_filter_off_admits_spoofed_flows(self, rules, hitlist):
        spoofed = make_spoofed_flows(hitlist, count=300)
        result = _fabric_detection(rules, hitlist, spoofed, False)
        assert result.flows_rejected_spoof == 0
        assert result.metrics.flows_matched == 300


# -- guard polling and staged admission -------------------------------


class TestGuards:
    def test_prestopped_token_admits_nothing(self, rules, hitlist):
        token = StopToken()
        token.stop("sigterm")
        guards = GuardSet(stop_token=token)
        pipeline = streaming_assembly(
            rules, hitlist, StreamConfig(), guards=guards
        )
        spoofed = make_spoofed_flows(hitlist, count=10)
        assert pipeline.run_chunks(chunks_from_records(spoofed)) == 0
        assert pipeline.stage.metrics.records_processed == 0
        assert guards.overload.stop_reason == "sigterm"

    def test_stop_mid_stream_honoured_within_stride(
        self, rules, hitlist
    ):
        """The guards are polled once per chunk: a stop requested
        while a chunk is being produced ends ingest after that chunk."""
        token = StopToken()
        guards = GuardSet(stop_token=token)
        pipeline = streaming_assembly(
            rules, hitlist, guards=guards
        )
        stride = 64
        flows = make_spoofed_flows(hitlist, count=10 * stride)

        def source():
            for index, flow in enumerate(flows):
                if index == 3 * stride + 7:
                    token.stop("sigterm")
                yield flow

        processed = pipeline.run_chunks(
            chunks_from_records(source(), stride)
        )
        assert processed == 4 * stride
        assert guards.stopped
        assert guards.overload.stop_reason == "sigterm"

    def test_first_stop_reason_sticks(self):
        guards = GuardSet()
        guards.note_stop("deadline")
        guards.note_stop("sigterm")
        assert guards.overload.stop_reason == "deadline"

    def test_staged_run_surrenders_tasks_on_stop(self):
        token = StopToken()
        run = StagedRun(GuardSet(stop_token=token))
        admitted = []
        for task in run.admit(range(10)):
            admitted.append(task)
            if task == 3:
                token.stop("sigterm")
        assert admitted == [0, 1, 2, 3]
        assert run.surrendered == 6
        assert run.guards.overload.partial is True

    def test_staged_run_stage_timing_is_additive(self):
        run = StagedRun()
        with run.stage("plan"):
            pass
        first = run.seconds["plan"]
        with run.stage("plan"):
            pass
        assert run.seconds["plan"] >= first
        assert set(run.seconds) == {"plan"}


# -- the one engine config --------------------------------------------


class TestStreamConfig:
    def test_one_class_two_import_paths(self):
        import repro.pipeline
        import repro.pipeline.config

        assert repro.pipeline.StreamConfig is StreamConfig
        assert repro.pipeline.config.StreamConfig is StreamConfig

    def test_threshold_validated(self):
        with pytest.raises(ValueError, match="threshold"):
            StreamConfig(threshold=0.0)
        with pytest.raises(ValueError, match="threshold"):
            StreamConfig(threshold=1.5)
        assert StreamConfig(threshold=1.0).threshold == 1.0

    @pytest.mark.parametrize(
        "field, value",
        [
            ("max_subscribers", 0),
            ("chunk_size", 0),
            ("checkpoint_keep", 0),
            ("ttl_seconds", 0),
            ("ttl_seconds", -5),
            ("checkpoint_every", -1),
        ],
    )
    def test_ranges_validated(self, field, value):
        with pytest.raises(ValueError, match=field):
            StreamConfig(**{field: value})

    def test_engine_constructor_still_raises(self, rules, hitlist):
        """A cadence without a directory is the one check left where a
        directory is known; a fleet's config may carry a bare cadence
        (each worker supplies the directory)."""
        bare = StreamConfig(checkpoint_every=500)
        with pytest.raises(ValueError, match="checkpoint_dir"):
            StreamDetectionEngine(rules, hitlist, bare)

    def test_metrics_echo(self, tmp_path):
        config = StreamConfig(
            threshold=0.6,
            max_subscribers=1024,
            ttl_seconds=99,
            checkpoint_dir=tmp_path,
            checkpoint_every=500,
        )
        assert config.metrics().to_dict()["config"] == {
            "threshold": 0.6,
            "max_subscribers": 1024,
            "ttl_seconds": 99,
            "workers": 1,  # a constant: one engine, one table
            "checkpoint_every": 500,
        }

    def test_guard_budgets_arrive_as_a_guard_set(self, rules, hitlist):
        guards = GuardSet.build(deadline=60.0)
        assert guards.deadline is not None
        assert guards.overload.deadline_seconds == 60.0
        # an assembly handed a guard set with no pressure hook wires
        # its keying's identity-cache shed
        assert guards.on_pressure is None
        pipeline = streaming_assembly(rules, hitlist, guards=guards)
        assert pipeline.guards is guards
        assert guards.on_pressure is not None


# -- the shared flow-line parser --------------------------------------


class TestSharedParser:
    def test_error_message_identical_across_paths(self, tmp_path):
        """The record parser and the columnar decoder reject a
        malformed line with one message."""
        bad = "1,2,3"
        with pytest.raises(ValueError) as record_error:
            parse_flow_line(bad)
        path = tmp_path / "flows.csv"
        path.write_text(f"# comment\n{bad}\n")
        with pytest.raises(ValueError) as tuple_error:
            list(ColumnarDecodeStage().iter_chunks(path))
        assert str(record_error.value) == str(tuple_error.value)
        assert "expected 10" in str(record_error.value)

    def test_tuple_and_record_share_conversions(self):
        parser = FlowLineParser()
        line = "100,160,10.0.0.1,93.184.216.34,6,40000,443,3,300,0x10"
        parts = parser.split(line)
        tup = parser.tuple(parts)
        record = parser.record(parts)
        assert tup == (
            record.first_switched,
            record.src_ip,
            record.dst_ip,
            record.protocol,
            record.dst_port,
            record.tcp_flags,
        )

    def test_memo_caches_stay_bounded(self):
        parser = FlowLineParser(cache_limit=4)
        for octet in range(16):
            parser.ip(f"10.0.0.{octet}")
        assert len(parser._ips) <= 4
        assert parser.ip("10.0.0.1") == (10 << 24) + 1


# -- hot-loop correctness fixes ---------------------------------------


_DAY0 = STUDY_START
_DAY1 = STUDY_START + SECONDS_PER_DAY


def _tiny_world():
    """A two-day hitlist plus one single-domain rule, duck-typed.

    The detect stages only read ``hitlist.daily_endpoints``, so a
    namespace stands in for the heavy :class:`~repro.core.hitlist.
    Hitlist` and the test controls endpoint placement exactly.
    """
    daily = {
        0: {(0xC0A80001, 443): "cam.example"},
        1: {(0xC0A80001, 443): "cam.example"},
    }
    hitlist = types.SimpleNamespace(daily_endpoints=daily)
    rules = RuleSet(
        [
            DetectionRule(
                class_name="cam",
                level="Product",
                domains=("cam.example",),
            )
        ]
    )
    return rules, hitlist


def _match_tuple(when, src=0x0A000001):
    """A flow tuple hitting the tiny world's endpoint at ``when``."""
    return (when, src, 0xC0A80001, 6, 443, 0x10)


def _miss_tuple(when, src=0x0A000001):
    """A flow tuple matching no hitlist endpoint."""
    return (when, src, 0x08080808, 6, 53, 0x10)


def _chunk(tuples, start_index=0):
    """``tuples`` as one column chunk."""
    return FlowChunk(start_index, *np.array(tuples, dtype=np.int64).T)


class TestHotLoopFixes:
    """Regression tests for latent hot-loop bugs."""

    def test_colliding_timestamps_order_deterministically(self):
        """Equal-time detections across subscribers come out in one
        order no matter the fold order (the N-shard merge property)."""
        rules, hitlist = _tiny_world()
        when = _DAY0 + 100
        folds = [
            _match_tuple(when, src=0x0A000001),
            _match_tuple(when, src=0x0A000002),
        ]

        def run(ordering):
            stage = BatchDetectStage(
                rules, hitlist, SubscriberKeying(), threshold=0.4
            )
            FlowPipeline(stage).run_chunks([_chunk(ordering)])
            return stage.detections()

        forward = run(folds)
        backward = run(list(reversed(folds)))
        assert forward == backward
        assert len(forward) == 2
        assert [d.detected_at for d in forward] == [when, when]
        assert forward == sorted(
            forward,
            key=lambda d: (d.detected_at, d.class_name, d.subscriber),
        )

    def test_evidence_replay_breaks_timestamp_ties_by_fqdn(self):
        """Equal-time evidence replays in fqdn order, not dict
        insertion order, so replay is insertion-order independent."""
        rules, hitlist = _tiny_world()
        stage = BatchDetectStage(
            rules, hitlist, SubscriberKeying(), threshold=0.4
        )
        when = _DAY0 + 5
        stage._fold(0, when, 0x0A000001, "z.example")
        stage._fold(1, when, 0x0A000001, "cam.example")
        mirror = BatchDetectStage(
            rules, hitlist, SubscriberKeying(), threshold=0.4
        )
        mirror._fold(0, when, 0x0A000001, "cam.example")
        mirror._fold(1, when, 0x0A000001, "z.example")
        assert stage.detections() == mirror.detections()

    def test_checkpoint_cadence_counts_from_resume_offset(self):
        """A restored record count that is not a multiple of
        ``checkpoint_every`` still checkpoints every N records."""
        rules, hitlist = _tiny_world()
        stage = StreamingDetectStage(
            rules,
            hitlist,
            SubscriberKeying(),
            EvidenceStateTable(64, None),
        )
        # Simulate a resume: 7 records restored, cadence of 5.
        stage.metrics.records_processed = 7
        checkpoints = []
        pipeline = FlowPipeline(
            stage,
            checkpoint_every=5,
            on_checkpoint=lambda: checkpoints.append(
                stage.metrics.records_processed
            ),
        )
        pipeline.run_chunks(
            [_chunk([_miss_tuple(_DAY0 + i) for i in range(10)], 7)]
        )
        # 5 records after the resume point, then 5 more — not at the
        # absolute multiples 10 and 15 the old modulo cadence produced.
        assert checkpoints == [12, 17]

    def test_parser_eviction_keeps_warm_entries(self):
        """Hitting the memo cap evicts incrementally — recent entries
        keep serving instead of a full cold start."""
        parser = FlowLineParser(cache_limit=8)
        for octet in range(8):
            parser.ip(f"10.0.0.{octet}")
        parser.ip("10.0.0.8")  # crosses the limit
        assert len(parser._ips) <= 8
        # The newest entries survived the eviction...
        assert "10.0.0.7" in parser._ips
        assert "10.0.0.8" in parser._ips
        # ...while the insertion-oldest half was dropped.
        assert "10.0.0.0" not in parser._ips


# -- the event line and the sinks' batch write --------------------------


def _json_line(event):
    """The canonical line as ``to_line`` rendered it with one
    ``json.dumps`` per event — the format's definition."""
    return json.dumps(
        {
            "subscriber": event.subscriber,
            "class": event.class_name,
            "detected_at": event.detected_at,
            "record_index": event.record_index,
            "matched_domains": list(event.matched_domains),
        },
        sort_keys=True,
        separators=(",", ":"),
    )


_NASTY = ['quo"te', "back\\slash", "per%cent %s", "tab\there", "ünï.example",
          "\u2028", "", "nul\x00"]


class TestEventLine:
    @given(
        subscriber=st.text(max_size=20),
        class_name=st.one_of(st.sampled_from(_NASTY), st.text(max_size=20)),
        detected_at=st.integers(-(2**40), 2**40),
        record_index=st.integers(0, 2**62),
        domains=st.lists(
            st.one_of(st.sampled_from(_NASTY), st.text(max_size=20)),
            max_size=5,
        ),
    )
    def test_line_is_the_json_dumps_form_and_parses_back(
        self, subscriber, class_name, detected_at, record_index, domains
    ):
        event = DetectionEvent(
            subscriber, class_name, detected_at, record_index, tuple(domains)
        )
        assert event.to_line() == _json_line(event)
        assert DetectionEvent.from_line(event.to_line()) == event

    def test_extend_writes_what_appends_wrote(self, tmp_path):
        events = [
            DetectionEvent(f"{n:016x}", name, 100 + n, n, (name, "d.example"))
            for n, name in enumerate(_NASTY)
        ]
        with JsonlEventSink(tmp_path / "one.jsonl") as one:
            for event in events:
                one.append(event)
        with JsonlEventSink(tmp_path / "batch.jsonl") as batch:
            batch.extend(events[:3])
            batch.extend([])
            batch.extend(iter(events[3:]))
            assert batch.position() == one.path.stat().st_size
        expected = "".join(_json_line(e) + "\n" for e in events).encode()
        assert one.path.read_bytes() == batch.path.read_bytes() == expected
        memory = MemoryEventSink()
        memory.extend(iter(events))
        assert memory.events == events and memory.position() == len(events)


# -- the fault harness's canonical home ------------------------------


class TestFaultsShimRemoved:
    def test_canonical_home_still_imports(self):
        from repro.faults import jitter_order, truncate_file  # noqa: F401
