"""The chunk loop against the row-at-a-time oracle.

The pipeline driver has one fold loop
(:func:`repro.pipeline.columnar.observe_chunk` fed by
:class:`~repro.netflow.parse.ColumnarDecodeStage`);
``tests/reference_fold.py`` is the same semantics one line and one row
at a time.  Over one corpus they must be *indistinguishable*: same
detections, same event log (including record indices), same metrics,
same quarantine accounting — over in-order, out-of-order,
day-straddling, spoofed, and malformed input; checkpoint positions are
asserted as absolute record indices.  The oracle is the reference
throughout; nothing here relaxes an equality to a set comparison
unless the oracle itself is order-free.
"""

from __future__ import annotations

import hashlib
import itertools
import random
import types

import numpy as np
import pytest

from repro.core.rules import DetectionRule, RuleSet
from repro.cli import main as cli_main
from repro.ixp import IxpConfig, detect_fabric_flows, make_spoofed_flows
from repro.netflow.parse import ColumnarDecodeStage, chunks_from_records
from repro.pipeline import (
    AddressKeying,
    BatchDetectStage,
    FlowPipeline,
    MemoryEventSink,
    batch_assembly,
    run_flow_detection,
    streaming_assembly,
)
from repro.pipeline.columnar import EndpointDayIndex
from repro.resilience.quarantine import QuarantineSink
from repro.runtime.shutdown import StopToken
from repro.pipeline.core import GuardSet
from repro.stream import JsonlEventSink, StreamConfig, StreamDetectionEngine
from repro.stream.checkpoint import list_checkpoints
from repro.timeutil import SECONDS_PER_DAY, STUDY_START
from tests.conftest import write_artifacts
from tests.reference_fold import fold, read_tuples, record_tuples


#: sha256 of the event log ``repro stream run`` wrote for the
#: ``gt_flowfile`` corpus at commit 02d6ccb, through the per-record
#: flow-file loop that commit still had (its ``--columnar`` log had the
#: same digest).
PARENT_PER_RECORD_LOG_SHA256 = (
    "385f058ed7bfa8b2592ebab4241533144a329000ce42312e7fc7cc566f5aed01"
)


# -- shared replay material -------------------------------------------


def _events(sink):
    """Full event identity, including fold order and record index."""
    return [
        (e.subscriber, e.class_name, e.detected_at, e.record_index)
        for e in sink.events
    ]


def _metric_fields(metrics):
    return {
        name: getattr(metrics, name)
        for name in (
            "records_processed",
            "flows_matched",
            "flows_rejected_spoof",
            "events_emitted",
            "watermark",
            "records_quarantined",
            "quarantine_reasons",
        )
    }


def _fold(rules, hitlist, path, chunk_size=None):
    """Events + metrics of one streaming fold of ``path``: through the
    oracle, or the chunk loop when ``chunk_size`` is given."""
    sink = MemoryEventSink()
    pipeline = streaming_assembly(
        rules, hitlist, StreamConfig(), sink=sink
    )
    if chunk_size is None:
        fold(pipeline, read_tuples(path))
    else:
        pipeline.run_chunks(
            ColumnarDecodeStage(chunk_size).iter_chunks(path)
        )
    return _events(sink), _metric_fields(pipeline.stage.metrics)


def _tiny_world():
    """Two-day endpoints + one rule needing both domains (D=0.4 on a
    two-domain rule means both must appear, forcing cross-day state)."""
    daily = {
        0: {(0xC0A80001, 443): "a.example", (0xC0A80002, 80): "b.example"},
        1: {(0xC0A80001, 443): "a.example", (0xC0A80003, 8883): "c.example"},
    }
    hitlist = types.SimpleNamespace(daily_endpoints=daily)
    rules = RuleSet(
        [
            DetectionRule(
                class_name="cam",
                level="Product",
                domains=("a.example", "b.example", "c.example"),
            )
        ]
    )
    return rules, hitlist


def _jittered_lines(count, seed=11):
    """Flow lines straddling the day-0/day-1 boundary, out of order."""
    rng = random.Random(seed)
    endpoints = [
        (0xC0A80001, 443),
        (0xC0A80002, 80),
        (0xC0A80003, 8883),
        (0x08080808, 53),  # matches nothing
    ]
    lines = []
    for i in range(count):
        day = rng.choice([0, 1])
        when = (
            STUDY_START
            + day * SECONDS_PER_DAY
            + rng.randrange(SECONDS_PER_DAY)
        )
        dst_ip, dport = rng.choice(endpoints)
        dst = ".".join(
            str((dst_ip >> s) & 255) for s in (24, 16, 8, 0)
        )
        src = f"10.1.{rng.randrange(4)}.{rng.randrange(16)}"
        flags = rng.choice(["0x10", "0x02", "0x12"])
        proto = rng.choice([6, 17])
        lines.append(
            f"{when},{when + 30},{src},{dst},{proto},40000,{dport},"
            f"3,300,{flags}"
        )
    return lines


# -- batch assembly ----------------------------------------------------


class TestBatchEquivalence:
    def test_flow_file_detections_identical(
        self, rules, hitlist, gt_flowfile
    ):
        """Same file, same detections *list* (not just set) and same
        metrics from the batch assembly as from the oracle."""
        per_record = batch_assembly(rules, hitlist)
        fold(per_record, read_tuples(gt_flowfile))
        detections = per_record.stage.detections()
        chunked = run_flow_detection(rules, hitlist, gt_flowfile)
        assert detections  # the scenario detects at all
        assert chunked.detections == detections
        assert _metric_fields(chunked.metrics) == _metric_fields(
            per_record.stage.metrics
        )

    def test_record_iterable_detections_identical(
        self, rules, hitlist, gt_flows
    ):
        """An in-memory record iterable chunks via
        ``chunks_from_records`` and still reproduces the oracle."""
        per_record = batch_assembly(rules, hitlist)
        fold(per_record, record_tuples(gt_flows))
        chunked = run_flow_detection(
            rules,
            hitlist,
            gt_flows,
            StreamConfig(chunk_size=777),
        )
        assert chunked.detections == per_record.stage.detections()
        assert _metric_fields(chunked.metrics) == _metric_fields(
            per_record.stage.metrics
        )

    def test_chunk_size_does_not_matter(
        self, rules, hitlist, gt_flowfile
    ):
        """Tiny chunks (boundary churn) equal one huge chunk."""
        tiny = run_flow_detection(
            rules,
            hitlist,
            gt_flowfile,
            StreamConfig(chunk_size=3),
        )
        huge = run_flow_detection(
            rules,
            hitlist,
            gt_flowfile,
            StreamConfig(chunk_size=1 << 20),
        )
        assert tiny.detections == huge.detections
        assert _metric_fields(tiny.metrics) == _metric_fields(
            huge.metrics
        )


# -- streaming assembly ------------------------------------------------


class TestStreamingEquivalence:
    def test_event_log_identical_including_indices(
        self, rules, hitlist, gt_flowfile
    ):
        """The online path emits the *same events in the same order at
        the same record indices* as the oracle."""
        config = StreamConfig()
        scalar_sink = MemoryEventSink()
        scalar = streaming_assembly(
            rules, hitlist, config, sink=scalar_sink
        )
        fold(scalar, read_tuples(gt_flowfile))

        chunk_sink = MemoryEventSink()
        vector = streaming_assembly(
            rules, hitlist, config, sink=chunk_sink
        )
        vector.run_chunks(
            ColumnarDecodeStage(chunk_size=4096).iter_chunks(gt_flowfile)
        )
        assert _events(chunk_sink) == _events(scalar_sink)
        assert _metric_fields(vector.stage.metrics) == _metric_fields(
            scalar.stage.metrics
        )

    def test_out_of_order_day_straddling_input(self, tmp_path):
        """Jittered, day-straddling flows: the min-merge out-of-order
        semantics survive vectorization chunk boundary or not."""
        rules, hitlist = _tiny_world()
        path = tmp_path / "jitter.csv"
        path.write_text("\n".join(_jittered_lines(3000)) + "\n")

        scalar_events, scalar_metrics = _fold(rules, hitlist, path)
        assert scalar_events  # jitter still detects
        for chunk_size in (17, 256, 100_000):
            events, metrics = _fold(rules, hitlist, path, chunk_size)
            assert events == scalar_events
            assert metrics == scalar_metrics

    def test_max_records_stops_mid_chunk(self, rules, hitlist, gt_flowfile):
        sink = MemoryEventSink()
        pipeline = streaming_assembly(rules, hitlist, sink=sink)
        processed = pipeline.run_chunks(
            ColumnarDecodeStage(chunk_size=1000).iter_chunks(gt_flowfile),
            max_records=2500,
        )
        assert processed == 2500
        assert pipeline.stage.metrics.records_processed == 2500

    def test_prestopped_guards_admit_nothing(
        self, rules, hitlist, gt_flowfile
    ):
        token = StopToken()
        token.stop("sigterm")
        guards = GuardSet(stop_token=token)
        pipeline = streaming_assembly(rules, hitlist, guards=guards)
        processed = pipeline.run_chunks(
            ColumnarDecodeStage().iter_chunks(gt_flowfile)
        )
        assert processed == 0
        assert pipeline.stage.metrics.records_processed == 0


# -- quarantine and error parity ---------------------------------------


class TestDecodeParity:
    def test_quarantined_file_counts_and_detections_equal(
        self, rules, hitlist, gt_flowfile, tmp_path
    ):
        """Malformed + impossible lines quarantine identically and the
        surviving records detect identically."""
        lines = gt_flowfile.read_text().splitlines()
        lines.insert(5, "1,2,3")
        lines.insert(50, "# a comment mid-file")
        lines.insert(
            500,
            "-7,0,10.0.0.1,8.8.8.8,6,1,53,1,1,0x10",  # negative ts
        )
        lines.insert(
            700,
            "1,2,10.0.0.1,8.8.8.8,6,1,99999,1,1,0x10",  # bad port
        )
        lines.insert(900, "1,2,10.0.0.1,8.8.8.8,6,1,53,1,1,zz")
        corrupted = tmp_path / "flows.csv"
        corrupted.write_text("\n".join(lines) + "\n")

        quarantine = QuarantineSink(tmp_path / "q1")
        per_record = batch_assembly(rules, hitlist)
        fold(per_record, read_tuples(corrupted, quarantine=quarantine))
        chunked = run_flow_detection(
            rules,
            hitlist,
            corrupted,
            StreamConfig(
                chunk_size=997, quarantine_dir=tmp_path / "q2"
            ),
        )
        assert chunked.detections == per_record.stage.detections()
        assert chunked.flows_matched == per_record.stage.metrics.flows_matched
        assert chunked.flows_seen == (
            per_record.stage.metrics.records_processed
        )
        assert chunked.metrics.quarantine_reasons == quarantine.counts
        assert quarantine.counts == {
            "malformed_line": 1,
            "negative_timestamp": 1,
            "bad_port": 1,
            "unparseable_field": 1,
        }

    def test_malformed_line_raises_identical_message(self, tmp_path):
        """Without a quarantine the decoder raises the oracle's error."""
        path = tmp_path / "flows.csv"
        path.write_text(
            "100,160,10.0.0.1,8.8.8.8,6,1,53,1,1,0x10\n1,2,3\n"
        )
        with pytest.raises(ValueError) as per_record:
            list(read_tuples(path))
        with pytest.raises(ValueError) as columnar:
            list(ColumnarDecodeStage().iter_chunks(path))
        assert str(columnar.value) == str(per_record.value)

    def test_decoded_columns_equal_tuples(self, gt_flowfile):
        """Raw decode parity: chunk columns equal the tuple stream."""
        tuples = list(read_tuples(gt_flowfile))
        decoded = []
        index = 0
        for chunk in ColumnarDecodeStage(chunk_size=4096).iter_chunks(
            gt_flowfile
        ):
            assert chunk.start_index == index
            index += len(chunk)
            for i in range(len(chunk)):
                decoded.append(
                    (
                        int(chunk.first[i]),
                        int(chunk.src[i]),
                        int(chunk.dst[i]),
                        int(chunk.proto[i]),
                        int(chunk.dport[i]),
                        int(chunk.flags[i]),
                    )
                )
        assert decoded == tuples

    @pytest.mark.parametrize("chunk_size", [7, 4096, 65_536])
    def test_chunk_size_is_honoured(self, gt_flowfile, chunk_size):
        """Every chunk but the last holds exactly ``chunk_size`` rows
        (guards are polled once per chunk)."""
        total = sum(1 for _ in read_tuples(gt_flowfile))
        sizes = [
            len(chunk)
            for chunk in ColumnarDecodeStage(chunk_size).iter_chunks(
                gt_flowfile
            )
        ]
        assert sum(sizes) == total
        assert set(sizes[:-1]) <= {chunk_size}
        assert 0 < sizes[-1] <= chunk_size

    def test_clean_headered_file_never_leaves_the_kernel(
        self, gt_flowfile, monkeypatch
    ):
        """The writer's two ``#`` header lines are peeled off the first
        block; they do not send it down the per-line path."""

        def fell_back(self, lines):
            raise AssertionError("clean block took the per-line path")

        monkeypatch.setattr(ColumnarDecodeStage, "_decode_lines", fell_back)
        assert gt_flowfile.read_text().startswith("# haystack-flows")
        for quarantine in (None, QuarantineSink()):
            rows = sum(
                len(chunk)
                for chunk in ColumnarDecodeStage(
                    4096, quarantine=quarantine
                ).iter_chunks(gt_flowfile)
            )
            assert rows > 4096

    @pytest.mark.parametrize("column", [0, 4, 6])  # first, proto, dport
    def test_field_outside_int64_is_rejected_not_fatal(
        self, tmp_path, column
    ):
        """Outside input must not take the run down: a value no int64
        column can hold is quarantined (or a ``ValueError`` naming the
        line), never an ``OverflowError``."""
        good = "100,160,10.0.0.1,8.8.8.8,6,1,53,1,1,0x10"
        parts = good.split(",")
        parts[column] = "99999999999999999999999"
        bad = ",".join(parts)
        path = tmp_path / "flows.csv"
        path.write_text(f"{good}\n{bad}\n{good}\n")
        quarantine = QuarantineSink()
        chunks = list(
            ColumnarDecodeStage(quarantine=quarantine).iter_chunks(path)
        )
        assert sum(len(chunk) for chunk in chunks) == 2
        assert quarantine.counts == {"unparseable_field": 1}
        with pytest.raises(ValueError, match="outside int64") as caught:
            list(ColumnarDecodeStage().iter_chunks(path))
        assert bad in str(caught.value)


# -- the IXP assembly (established filter) ----------------------------


def _fabric_per_record(rules, hitlist, flows, require_established):
    """The fabric assembly's stage folded row by row."""
    stage = BatchDetectStage(
        rules,
        hitlist,
        AddressKeying(),
        require_established=require_established,
    )
    fold(FlowPipeline(stage), record_tuples(flows))
    return stage


class TestIxpColumnar:
    def test_spoofed_flows_rejected_identically(self, rules, hitlist):
        spoofed = make_spoofed_flows(hitlist, count=300)
        per_record = _fabric_per_record(rules, hitlist, spoofed, True)
        chunked = detect_fabric_flows(
            rules, hitlist, spoofed, IxpConfig(chunk_size=64)
        )
        assert chunked.detections == per_record.detections()
        assert (
            chunked.flows_rejected_spoof
            == per_record.metrics.flows_rejected_spoof
            == 300
        )
        assert chunked.metrics.records_processed == 300

    def test_fabric_flows_detect_identically(
        self, rules, hitlist, gt_flows
    ):
        per_record = _fabric_per_record(rules, hitlist, gt_flows, False)
        chunked = detect_fabric_flows(
            rules,
            hitlist,
            gt_flows,
            IxpConfig(require_established=False, chunk_size=1000),
        )
        assert chunked.detections == per_record.detections()
        assert _metric_fields(chunked.metrics) == _metric_fields(
            per_record.metrics
        )


# -- the stream engine: kill/resume on the chunk loop ------------------


def _assert_drained_resume_identical(
    rules, hitlist, flowfile, tmp_path, chunk_size, kill_after
):
    """Stop at ``kill_after`` records, drain (a final checkpoint at that
    exact offset), resume: the log equals an uninterrupted run's."""

    def run(name, kill_after=None):
        log = tmp_path / f"{name}.jsonl"
        config = StreamConfig(
            chunk_size=chunk_size,
            checkpoint_dir=tmp_path / f"{name}-ckpt",
            checkpoint_every=5_000,
        )
        with JsonlEventSink(log) as sink:
            engine = StreamDetectionEngine(rules, hitlist, config, sink)
            engine.process_flowfile(flowfile, max_records=kill_after)
            if kill_after is not None:
                engine.drain()
                assert engine.records_processed == kill_after
        if kill_after is not None:
            with JsonlEventSink(log, resume=True) as sink:
                engine = StreamDetectionEngine.resume(
                    rules, hitlist, config, sink
                )
                assert engine.records_processed == kill_after
                engine.process_flowfile(flowfile)
        return log

    assert (
        run("full").read_bytes()
        == run("killed", kill_after).read_bytes()
    )


class TestStreamEngineColumnar:
    def test_engine_columnar_equals_per_record(
        self, rules, hitlist, gt_flowfile
    ):
        scalar = streaming_assembly(rules, hitlist)
        fold(scalar, read_tuples(gt_flowfile))
        vector = StreamDetectionEngine(
            rules, hitlist, StreamConfig(chunk_size=8192)
        )
        vector.process_flowfile(gt_flowfile)
        assert _events(vector.sink) == _events(scalar.sink)
        assert _metric_fields(vector.metrics) == _metric_fields(
            scalar.stage.metrics
        )

    def test_kill_resume_from_non_multiple_offset_byte_identical(
        self, rules, hitlist, gt_flowfile, tmp_path
    ):
        """Kill the run at a record count that is *not* a
        checkpoint-cadence multiple, drain, resume: the event log ends
        byte-identical to an uninterrupted run's."""
        _assert_drained_resume_identical(
            rules, hitlist, gt_flowfile, tmp_path,
            chunk_size=1024, kill_after=12_345,
        )

    def test_cli_log_equals_parent_per_record_log(
        self, rules, hitlist, gt_flowfile, tmp_path
    ):
        """``repro stream run F`` and the ignored ``--columnar``
        spelling write the log the parent commit's per-record replay of
        this corpus wrote (digest recorded before that loop stopped
        folding flow files)."""
        artifacts = write_artifacts(tmp_path / "artifacts", rules, hitlist)
        for tag, extra in (("plain", []), ("flag", ["--columnar"])):
            log = tmp_path / f"events-{tag}.jsonl"
            code = cli_main(
                [
                    "stream", "run", str(gt_flowfile),
                    "--artifacts", str(artifacts),
                    "--events-out", str(log),
                    *extra,
                ]
            )
            assert code == 0
            assert (
                hashlib.sha256(log.read_bytes()).hexdigest()
                == PARENT_PER_RECORD_LOG_SHA256
            )


# -- EndpointDayIndex edge cases ---------------------------------------


def _boundary_world():
    """Hitlist days exercising the packed-key index edges: an empty
    day, a single-endpoint day, the minimum/maximum packable keys
    (dport 0 and 65535 at both IP extremes), and a ``(dst, port)``
    pair that repeats across days under different fqdns."""
    daily = {
        0: {},
        1: {(0xC0A80001, 443): "a.example"},
        2: {
            (0x00000000, 0): "z.example",
            (0xFFFFFFFF, 65535): "m.example",
            (0xC0A80001, 0): "z.example",
            (0xC0A80001, 443): "m.example",  # same pair as day 1
            (0xC0A80001, 65535): "a.example",
        },
    }
    hitlist = types.SimpleNamespace(daily_endpoints=daily)
    rules = RuleSet(
        [
            DetectionRule(
                class_name="cam",
                level="Product",
                # D=0.4 over three domains -> any single one detects
                domains=("a.example", "z.example", "m.example"),
            )
        ]
    )
    return rules, hitlist


def _boundary_lines():
    """Probe flows: exact boundary hits plus off-by-one near misses
    that land beyond both ends of each day's sorted key array (the
    searchsorted insertion point must be clamped, not wrap)."""
    probes = [
        # day 0 is empty: nothing may match, even day-1's endpoint
        (0, 0xC0A80001, 443),
        (0, 0x00000000, 0),
        # day 1, single endpoint: one hit + misses on either side
        (1, 0xC0A80001, 443),
        (1, 0xC0A80001, 442),
        (1, 0xC0A80001, 444),
        (1, 0xC0A80000, 443),
        (1, 0xC0A80002, 443),
        (1, 0x00000000, 0),      # sorts below the only key
        (1, 0xFFFFFFFF, 65535),  # sorts above the only key
        # day 2: both packed-key extremes and the port boundaries
        (2, 0x00000000, 0),
        (2, 0x00000000, 1),
        (2, 0xFFFFFFFF, 65535),
        (2, 0xFFFFFFFF, 65534),
        (2, 0xC0A80001, 0),
        (2, 0xC0A80001, 65535),
        (2, 0xC0A80001, 443),    # repeated pair, day-2 fqdn
        (2, 0xC0A80001, 1),
    ]
    lines = []
    for index, (day, dst_ip, dport) in enumerate(probes):
        when = STUDY_START + day * SECONDS_PER_DAY + 1000 + index
        dst = ".".join(str((dst_ip >> s) & 255) for s in (24, 16, 8, 0))
        lines.append(
            f"{when},{when + 30},10.9.0.{index},{dst},6,40000,{dport},"
            f"1,64,0x10"
        )
    return lines


class TestEndpointDayIndex:
    def test_compiled_day_shapes(self):
        _, hitlist = _boundary_world()
        index = EndpointDayIndex(hitlist.daily_endpoints)
        assert index.day(0) is None          # empty day compiles to None
        assert index.day(99) is None         # missing day too
        keys, fqdns = index.day(1)
        assert len(keys) == 1 and fqdns == ["a.example"]
        keys, fqdns = index.day(2)
        assert len(keys) == 5
        assert list(keys) == sorted(keys)
        assert int(keys[0]) == 0                      # (0.0.0.0, 0)
        assert int(keys[-1]) == (0xFFFFFFFF << 16) | 65535
        assert fqdns[0] == "z.example"
        assert fqdns[-1] == "m.example"

    def test_duplicate_pair_resolves_per_day(self):
        _, hitlist = _boundary_world()
        index = EndpointDayIndex(hitlist.daily_endpoints)
        key = (0xC0A80001 << 16) | 443
        for day, expected in ((1, "a.example"), (2, "m.example")):
            keys, fqdns = index.day(day)
            position = int(np.searchsorted(keys, key))
            assert int(keys[position]) == key
            assert fqdns[position] == expected

    def test_boundary_probes_match_per_record_path(self, tmp_path):
        """The searchsorted lookup and the oracle's dict lookup agree on
        every boundary probe — including the off-array near misses."""
        rules_b, hitlist_b = _boundary_world()
        path = tmp_path / "boundary.csv"
        path.write_text("\n".join(_boundary_lines()) + "\n")

        scalar_events, scalar_metrics = _fold(rules_b, hitlist_b, path)
        # exactly the 6 true endpoint hits match, nothing else
        assert scalar_metrics["flows_matched"] == 6
        assert scalar_events  # single-domain threshold detects
        for chunk_size in (1, 3, 5, 1000):
            events, metrics = _fold(rules_b, hitlist_b, path, chunk_size)
            assert events == scalar_events
            assert metrics == scalar_metrics


# -- day-alternating rows, and checkpoint cadence with chunk_size not
#    dividing the cadence


class TestColumnarCacheAndCadence:
    def test_alternating_day_rows_thrash_the_two_day_cache(
        self, tmp_path
    ):
        """Adjacent rows alternating between day 0 and day 1 force
        per-day regrouping on every chunk; the loop must agree with
        the oracle even when every chunk straddles midnight."""
        rules_t, hitlist_t = _tiny_world()
        endpoints = [
            (0xC0A80001, 443),
            (0xC0A80002, 80),
            (0xC0A80003, 8883),
        ]
        lines = []
        for i in range(900):
            day = i % 2
            when = STUDY_START + day * SECONDS_PER_DAY + (i // 2)
            dst_ip, dport = endpoints[i % 3]
            dst = ".".join(
                str((dst_ip >> s) & 255) for s in (24, 16, 8, 0)
            )
            lines.append(
                f"{when},{when + 30},10.2.{i % 7}.{i % 11},{dst},6,"
                f"40000,{dport},1,64,0x10"
            )
        path = tmp_path / "alternating.csv"
        path.write_text("\n".join(lines) + "\n")

        scalar_events, scalar_metrics = _fold(rules_t, hitlist_t, path)
        assert scalar_events
        # odd chunk sizes guarantee day-straddling chunks throughout
        for chunk_size in (7, 9, 251):
            events, metrics = _fold(rules_t, hitlist_t, path, chunk_size)
            assert events == scalar_events
            assert metrics == scalar_metrics

    def test_checkpoint_cadence_with_non_dividing_chunk_size(
        self, tmp_path
    ):
        """chunk_size 768 does not divide checkpoint_every 5000, and no
        chunk boundary lands on a cadence multiple: the chunk loop
        splits chunks there, so it checkpoints on the multiples."""
        rules_t, hitlist_t = _tiny_world()
        path = tmp_path / "jitter.csv"
        path.write_text("\n".join(_jittered_lines(17_000)) + "\n")

        positions = []
        stage = streaming_assembly(rules_t, hitlist_t).stage
        pipeline = FlowPipeline(
            stage,
            checkpoint_every=5_000,
            on_checkpoint=lambda: positions.append(
                stage.metrics.records_processed
            ),
        )
        boundaries = list(
            itertools.accumulate(
                len(chunk)
                for chunk in ColumnarDecodeStage(768).iter_chunks(path)
            )
        )
        assert len(boundaries) > 10
        assert all(b % 5_000 for b in boundaries)
        assert pipeline.run_chunks(
            ColumnarDecodeStage(768).iter_chunks(path)
        ) == 17_000
        assert positions == [5_000, 10_000, 15_000]

    def test_segmented_ingest_keeps_the_cadence(
        self, rules, hitlist, gt_flowfile, tmp_path
    ):
        """Ingest cut into ``max_records`` segments shorter than the
        cadence (``--hitlist-refresh-every`` below
        ``--checkpoint-every``) still checkpoints every
        ``checkpoint_every`` records."""
        engine = StreamDetectionEngine(
            rules,
            hitlist,
            StreamConfig(
                checkpoint_dir=tmp_path / "chunks",
                checkpoint_every=5_000,
            ),
        )
        while engine.records_processed < 20_000:
            assert engine.process_flowfile(
                gt_flowfile, max_records=1_000
            ) == 1_000
        assert engine.metrics.checkpoints_written == 4
        assert [seq for seq, _ in list_checkpoints(tmp_path / "chunks")] == [
            10_000, 15_000, 20_000,  # checkpoint_keep=3 pruned 5_000
        ]

    def test_kill_resume_chunk_not_dividing_cadence_byte_identical(
        self, rules, hitlist, gt_flowfile, tmp_path
    ):
        """Resume from an offset that is a multiple of neither the
        chunk size nor the checkpoint cadence; the drained checkpoint
        anchors the cadence so the resumed run finishes with an event
        log byte-identical to an uninterrupted run's."""
        _assert_drained_resume_identical(
            rules, hitlist, gt_flowfile, tmp_path,
            chunk_size=768, kill_after=7_777,
        )
