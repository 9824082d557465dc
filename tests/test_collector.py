"""Unit tests for the live collector (:mod:`repro.collector`).

Everything here is socket-free: :class:`CollectorSource` is the pure
ingest front, so sequence accounting, data-before-template buffering,
exporter lifecycle, typed quarantine, journal truncation, and the
control plane are all exercised as function calls.  The wire half —
real UDP, real SIGTERM, the fault matrix — lives in
``tests/test_collector_faults.py``.
"""

import json
import urllib.request

import pytest

from repro.collector import (
    CollectorConfig,
    CollectorMetrics,
    CollectorService,
    CollectorSource,
    ControlPlane,
    ExporterState,
)
from repro.faults import encode_export_stream
from repro.netflow.journal import (
    encode_segment,
    open_journal,
    truncate_journal,
)
from repro.netflow.ipfix import IpfixCodec
from repro.netflow.records import (
    FlowKey,
    FlowRecord,
    PROTO_TCP,
    TCP_ACK,
    TCP_SYN,
)
from repro.netflow.v9 import NetflowV9Codec


def _flow(index=0, first=1_573_776_000):
    return FlowRecord(
        key=FlowKey(
            src_ip=0x0A000001 + index,
            dst_ip=0x0B000001 + index,
            protocol=PROTO_TCP,
            src_port=40000 + (index % 20000),
            dst_port=443,
        ),
        first_switched=first + index,
        last_switched=first + index + 30,
        packets=3,
        bytes=300,
        tcp_flags=TCP_SYN | TCP_ACK,
    )


def _batches(count, per_batch=5):
    return [
        [_flow(batch * per_batch + i) for i in range(per_batch)]
        for batch in range(count)
    ]


def _v9_state(**kwargs):
    return ExporterState(9, CollectorMetrics(), **kwargs)


def _ingest(state, payload, now):
    """One datagram through an exporter state, its blocks as records."""
    return [
        record
        for block in state.ingest(payload, now)
        for record in block.records()
    ]


class TestSequenceAccounting:
    def test_contiguous_stream_counts_nothing(self):
        state = _v9_state()
        datagrams = encode_export_stream(
            _batches(6), lambda: NetflowV9Codec()
        )
        total = 0
        for payload in datagrams:
            total += len(_ingest(state, payload, 0.0))
        assert total == 30
        metrics = state.metrics
        assert metrics.sequence_gaps == 0
        assert metrics.records_missed == 0
        assert metrics.duplicate_datagrams == 0
        assert metrics.reordered_datagrams == 0
        assert metrics.sequence_resets == 0

    def test_gap_counts_missing_records(self):
        state = _v9_state()
        datagrams = encode_export_stream(
            _batches(6), lambda: NetflowV9Codec()
        )
        lost = datagrams[2]  # 5 data records (+0: data-only datagram)
        for payload in datagrams[:2] + datagrams[3:]:
            state.ingest(payload, now=0.0)
        metrics = state.metrics
        assert metrics.sequence_gaps == 1
        # the v9 header count of the lost datagram (its 5 records)
        assert metrics.records_missed == 5
        del lost

    def test_duplicate_detected_but_still_folded(self):
        """A duplicated datagram is *counted* as a duplicate yet its
        records are still returned: the evidence fold is idempotent,
        and the delivered-set oracle replays duplicates too."""
        state = _v9_state()
        datagrams = encode_export_stream(
            _batches(3), lambda: NetflowV9Codec()
        )
        for payload in datagrams:
            state.ingest(payload, now=0.0)
        again = _ingest(state, datagrams[1], 0.0)
        assert len(again) == 5  # delivered again → decoded again
        assert state.metrics.duplicate_datagrams == 1
        assert state.metrics.sequence_gaps == 0
        assert state.metrics.records_missed == 0

    def test_reordered_arrival_not_reported_as_second_gap(self):
        state = _v9_state()
        datagrams = encode_export_stream(
            _batches(4), lambda: NetflowV9Codec()
        )
        order = [datagrams[0], datagrams[2], datagrams[1], datagrams[3]]
        total = 0
        for payload in order:
            total += len(_ingest(state, payload, 0.0))
        metrics = state.metrics
        assert total == 20  # every delivered record decoded
        assert metrics.sequence_gaps == 1  # when #2 arrived early
        assert metrics.reordered_datagrams == 1  # when #1 landed late
        assert metrics.duplicate_datagrams == 0
        assert metrics.sequence_resets == 0

    def test_exporter_restart_rebaselines_not_gap(self):
        """A rebooted exporter restarts its sequence near zero.  That
        must be classified as a reset — not a (2^32-ish) gap, not a
        flood of reorders."""
        state = _v9_state()
        # long enough that the first life's near-zero sequences have
        # left the duplicate-detection window before the reboot
        first_life = encode_export_stream(
            _batches(80), lambda: NetflowV9Codec()
        )
        for payload in first_life:
            state.ingest(payload, now=0.0)
        second_life = encode_export_stream(
            _batches(3), lambda: NetflowV9Codec()
        )
        for payload in second_life:
            state.ingest(payload, now=1.0)
        metrics = state.metrics
        assert metrics.sequence_resets == 1
        assert metrics.sequence_gaps == 0
        assert metrics.records_missed == 0
        assert metrics.reordered_datagrams == 0

    def test_ipfix_sequence_gap(self):
        state = ExporterState(10, CollectorMetrics())
        codec = IpfixCodec()
        datagrams = [
            codec.encode(batch, number)
            for number, batch in enumerate(_batches(5))
        ]
        for payload in datagrams[:2] + datagrams[3:]:
            state.ingest(payload, now=0.0)
        assert state.metrics.sequence_gaps == 1
        assert state.metrics.records_missed == 5


class TestPendingBuffer:
    def test_data_before_template_flushes_in_order(self):
        """Withholding the template until datagram 2 buffers the first
        two data sets; the template flush returns them in arrival
        order, ahead of the carrying datagram's own records."""
        state = _v9_state()
        datagrams = encode_export_stream(
            _batches(4), lambda: NetflowV9Codec(), defer_template=2
        )
        assert state.ingest(datagrams[0], now=0.0) == []
        assert state.ingest(datagrams[1], now=0.0) == []
        assert state.pending_sets == 2
        flushed = _ingest(state, datagrams[2], 0.0)
        # datagrams 0 and 1 (5 records each, in order), then 2's own
        assert [f.src_ip for f in flushed] == [
            0x0A000001 + i for i in range(15)
        ]
        assert state.pending_sets == 0
        metrics = state.metrics
        assert metrics.pending_buffered_sets == 2
        assert metrics.pending_flushed_sets == 2
        assert metrics.pending_flushed_records == 10
        assert metrics.pending_overflow_sets == 0

    def test_pending_bound_evicts_oldest(self):
        state = _v9_state(pending_max_sets=2)
        datagrams = encode_export_stream(
            _batches(4), lambda: NetflowV9Codec(), defer_template=3
        )
        for payload in datagrams[:3]:
            state.ingest(payload, now=0.0)
        assert state.pending_sets == 2
        assert state.metrics.pending_overflow_sets == 1
        flushed = _ingest(state, datagrams[3], 0.0)
        # datagram 0's set was evicted; 1 and 2 flush, then 3's own
        assert [f.src_ip for f in flushed] == [
            0x0A000001 + i for i in range(5, 20)
        ]

    def test_pending_ttl_expires_unclaimed_sets(self):
        state = _v9_state(pending_ttl=60.0)
        datagrams = encode_export_stream(
            _batches(3), lambda: NetflowV9Codec(), defer_template=2
        )
        state.ingest(datagrams[0], now=0.0)
        state.ingest(datagrams[1], now=100.0)  # datagram 0 expires
        assert state.pending_sets == 1
        assert state.metrics.pending_expired_sets == 1
        flushed = _ingest(state, datagrams[2], 101.0)
        assert [f.src_ip for f in flushed] == [
            0x0A000001 + i for i in range(5, 15)
        ]
        assert state.metrics.pending_expired_sets == 1


class TestCollectorSource:
    def test_garbage_quarantined_with_typed_reasons(self):
        source = CollectorSource()
        cases = {
            b"": "datagram_truncated_header",
            b"\x00\x09\x00": "datagram_truncated_header",
            b"\x00\x05" + b"\x00" * 30: "datagram_bad_version",
        }
        for payload, reason in cases.items():
            assert source.ingest(payload) == []
            assert source.quarantine.counts.get(reason, 0) >= 1, reason
        metrics = source.metrics
        assert metrics.datagrams_received == 3
        assert metrics.datagrams_quarantined == 3
        assert metrics.datagrams_decoded == 0
        assert sum(metrics.quarantined_by_reason.values()) == 3

    def test_truncated_set_quarantined_loop_survives(self):
        source = CollectorSource()
        codec = NetflowV9Codec()
        good = codec.encode([_flow(i) for i in range(3)], 0)
        bad = good[:-7]  # cut inside the data flowset
        assert source.ingest(bad) == []
        assert (
            source.quarantine.counts.get("datagram_truncated_set") == 1
        )
        # the same exporter keeps working afterwards
        follow_up = NetflowV9Codec()
        assert len(source.ingest(follow_up.encode([_flow()], 1))) == 1

    def test_semantically_invalid_record_quarantined(self):
        source = CollectorSource()
        codec = NetflowV9Codec()
        backwards = FlowRecord(
            key=_flow().key,
            first_switched=2_000,
            last_switched=1_000,  # ends before it starts
            packets=1,
            bytes=10,
            tcp_flags=TCP_ACK,
        )
        records = source.ingest(codec.encode([backwards, _flow()], 0))
        assert len(records) == 1  # the valid one survives
        assert source.metrics.records_invalid == 1
        assert source.quarantine.counts.get("time_travel") == 1

    def test_exporters_tracked_separately(self):
        """Two exporters with the same template id do not collide:
        templates are per (address, exporter id, version)."""
        source = CollectorSource()
        a = NetflowV9Codec(source_id=1)
        b = NetflowV9Codec(source_id=2)
        # exporter b's data-only datagram cannot use a's template
        source.ingest(a.encode([_flow()], 0), addr=("10.0.0.1", 9))
        pending = source.ingest(
            b.encode([_flow()], 0, include_template=False),
            addr=("10.0.0.2", 9),
        )
        assert pending == []
        assert source.metrics.exporters_seen == 2
        assert source.metrics.exporters_active == 2

    def test_exporter_expiry_forgets_templates(self):
        source = CollectorSource(exporter_timeout=300.0)
        codec = NetflowV9Codec()
        source.ingest(codec.encode([_flow()], 0), now=0.0)
        assert source.expire_exporters(1000.0) == 1
        assert source.metrics.exporters_expired == 1
        assert source.metrics.exporters_active == 0
        # the returning exporter's data-only datagrams buffer again
        after = source.ingest(
            codec.encode([_flow()], 1, include_template=False),
            now=1000.0,
        )
        assert after == []

    def test_metrics_document_shape(self):
        source = CollectorSource()
        codec = NetflowV9Codec()
        source.ingest(codec.encode([_flow()], 0))
        document = source.metrics.to_dict()
        assert set(document) == {
            "datagrams",
            "records",
            "sequence",
            "pending",
            "exporters",
        }
        assert document["datagrams"]["received"] == 1
        assert document["records"]["folded"] == 1
        assert json.loads(json.dumps(document)) == document


def _write_journal(path, sizes, start=0):
    """A journal of ``len(sizes)`` segments holding consecutive
    ``_flow`` rows; returns the rows."""
    import numpy as np

    from tests.conftest import flow_row

    rows = [flow_row(_flow(start + i)) for i in range(sum(sizes))]
    at = 0
    with open_journal(path) as journal:
        for size in sizes:
            block = np.array(rows[at : at + size], dtype=np.uint64)
            journal.write(encode_segment(block.reshape(size, 10).T))
            at += size
    return rows


class TestTruncateJournal:
    """The resume cut (:func:`repro.netflow.journal.truncate_journal`);
    the damage table is ``tests/test_journal.py``."""

    def test_keeps_a_prefix_across_segments(self, tmp_path):
        from tests.conftest import journal_rows

        path = tmp_path / "journal.csv"
        rows = _write_journal(path, [3, 0, 4, 3])
        assert truncate_journal(path, 7) == 7
        assert journal_rows(path) == rows[:7]
        # a cut inside a segment re-seals that segment's prefix
        assert truncate_journal(path, 4) == 4
        assert journal_rows(path) == rows[:4]

    def test_truncate_beyond_length_keeps_everything(self, tmp_path):
        path = tmp_path / "journal.csv"
        _write_journal(path, [1])
        whole = path.read_bytes()
        assert truncate_journal(path, 99) == 1
        assert path.read_bytes() == whole

    def test_missing_journal_is_empty(self, tmp_path):
        assert truncate_journal(tmp_path / "absent.csv", 5) == 0

    def test_header_only_journal_keeps_its_header(self, tmp_path):
        """A zero-row segment is a header and an empty body."""
        path = tmp_path / "journal.csv"
        _write_journal(path, [0])
        whole = path.read_bytes()
        assert whole.count(b"\n") == 1
        assert truncate_journal(path, 0) == 0
        assert path.read_bytes() == whole

    def test_large_journal_is_cut_in_place(self, tmp_path):
        """Far larger than any read buffer: the file is truncated
        inside the segment holding row 7,001 — same inode, the
        segments before it untouched, nothing held in memory."""
        import io

        from tests.conftest import journal_rows

        path = tmp_path / "journal.csv"
        rows = _write_journal(path, [2000] * 5)
        assert path.stat().st_size > 16 * io.DEFAULT_BUFFER_SIZE
        before = path.read_bytes()
        inode = path.stat().st_ino
        assert truncate_journal(path, 7000) == 7000
        assert path.stat().st_ino == inode
        assert journal_rows(path) == rows[:7000]
        kept = path.read_bytes()
        fourth = before.index(b"haystack-journal", 1)  # segment 2
        for _ in range(2):
            fourth = before.index(b"haystack-journal", fourth + 1)
        assert kept[:fourth] == before[:fourth]
        # idempotent, and a no-op when nothing lies past the cut
        assert truncate_journal(path, 7000) == 7000
        assert path.read_bytes() == kept

    def test_torn_tail_of_a_multi_block_journal(self, tmp_path):
        """No record bound (the fleet's resume rule): every complete
        segment of a journal many read blocks long stays, the torn last
        one goes, and a second call writes nothing."""
        path = tmp_path / "journal.csv"
        _write_journal(path, [3000] * 4)
        whole = path.read_bytes()
        assert len(whole) > 256 * 1024
        _write_journal(path, [3000])
        segment = path.read_bytes()[len(whole) :]
        path.write_bytes(whole + segment[: len(segment) // 2])
        assert truncate_journal(path) == 12000
        assert path.read_bytes() == whole
        stamp = path.stat().st_mtime_ns
        assert truncate_journal(path) == 12000
        assert path.stat().st_mtime_ns == stamp

    @pytest.mark.parametrize("torn", ["1583020800,10.0.", "# rota"])
    def test_torn_tail_exactly_at_records(self, tmp_path, torn):
        """The checkpoint covers every complete segment and the kill
        left bytes of no complete header line behind it: the cut lands
        there."""
        from tests.conftest import journal_rows

        path = tmp_path / "journal.csv"
        rows = _write_journal(path, [4, 6])
        whole = path.read_bytes()
        path.write_bytes(whole + torn.encode())
        assert truncate_journal(path, 10) == 10
        assert path.read_bytes() == whole
        # ... and a torn tail inside the surplus changes nothing
        path.write_bytes(whole + torn.encode())
        assert truncate_journal(path, 4) == 4
        assert journal_rows(path) == rows[:4]


def _engine(rules, hitlist, **config_kwargs):
    from repro.stream import (
        MemoryEventSink,
        StreamConfig,
        StreamDetectionEngine,
    )

    config = StreamConfig(checkpoint_every=0, **config_kwargs)
    return StreamDetectionEngine(
        rules, hitlist, config, MemoryEventSink()
    )


class TestServiceGuards:
    def test_rejects_non_stream_engine(self):
        class Impostor:
            metrics = object()

        with pytest.raises(TypeError):
            CollectorService(Impostor())

    def test_rejects_engine_owned_cadence(
        self, rules, hitlist, tmp_path
    ):
        from repro.stream import (
            MemoryEventSink,
            StreamConfig,
            StreamDetectionEngine,
        )

        engine = StreamDetectionEngine(
            rules,
            hitlist,
            StreamConfig(
                checkpoint_every=500, checkpoint_dir=tmp_path
            ),
            MemoryEventSink(),
        )
        with pytest.raises(ValueError, match="owns the cadence"):
            CollectorService(engine)

    def test_rejects_cadence_without_checkpoint_dir(
        self, rules, hitlist
    ):
        engine = _engine(rules, hitlist)
        with pytest.raises(ValueError, match="checkpoint_dir"):
            CollectorService(
                engine, config=CollectorConfig(checkpoint_every=100)
            )

    def test_collector_section_wired_into_stream_metrics(
        self, rules, hitlist
    ):
        engine = _engine(rules, hitlist)
        service = CollectorService(engine)
        document = engine.metrics_dict()
        assert document["collector"] is not None
        assert (
            document["collector"]["datagrams"]["received"]
            == service.source.metrics.datagrams_received
        )

    def test_plain_stream_metrics_omit_collector_section(
        self, rules, hitlist
    ):
        """A file-replay engine's document is unchanged by this PR."""
        engine = _engine(rules, hitlist)
        assert "collector" not in engine.metrics_dict()


class TestFleetCollectFlags:
    """``repro collect --fleet-workers`` and the global flags."""

    @pytest.fixture()
    def argv(self, rules, hitlist, tmp_path):
        from repro.core.serialization import hitlist_to_json, rules_to_json

        (tmp_path / "hitlist.json").write_text(hitlist_to_json(hitlist))
        (tmp_path / "rules.json").write_text(rules_to_json(rules))
        return [
            "collect", "--artifacts", str(tmp_path),
            "--fleet-workers", "2", "--no-control",
            "--journal", str(tmp_path / "journal.csv"),
            "--checkpoint-dir", str(tmp_path / "fleet"),
            "--events-out", str(tmp_path / "events.jsonl"),
        ]

    @pytest.mark.parametrize(
        "flag, value", [("--memory-budget", "1G"), ("--deadline", "30")]
    )
    def test_flags_the_fleet_cannot_honour_exit_2(
        self, argv, flag, value, capsys
    ):
        from repro.cli import main

        assert main([flag, value] + argv) == 2
        assert (
            f"error: {flag} is not supported with --fleet-workers"
            in capsys.readouterr().err
        )

    def test_missing_journal_exits_2(self, argv, capsys):
        from repro.cli import main

        cut = argv.index("--journal")
        assert main(argv[:cut] + argv[cut + 2 :]) == 2
        assert "--fleet-workers needs --journal" in capsys.readouterr().err

    def test_quarantine_dir_samples_datagrams(
        self, argv, rules, hitlist, tmp_path
    ):
        from repro.cli import _build_parser, _collect_fleet_target
        from repro.runtime import StopToken

        samples = tmp_path / "quarantine"
        args = _build_parser().parse_args(
            ["--quarantine-dir", str(samples)] + argv
        )
        target = _collect_fleet_target(args, rules, hitlist, StopToken())
        service = CollectorService(
            target, config=CollectorConfig(journal=args.journal)
        )
        service.feed(b"\x00\x09 not a v9 packet")
        assert service.source.metrics.datagrams_quarantined == 1
        (entry,) = (samples / "quarantine.jsonl").read_text().splitlines()
        assert json.loads(entry)["reason"].startswith("datagram_")


class TestControlPlane:
    @pytest.fixture()
    def service(self, rules, hitlist):
        engine = _engine(rules, hitlist)
        service = CollectorService(engine)
        plane = ControlPlane(service)
        plane.start()
        service.control_port = plane.port
        yield service
        plane.stop()

    def _get(self, service, path):
        with urllib.request.urlopen(
            f"http://127.0.0.1:{service.control_port}{path}", timeout=5
        ) as response:
            return response.status, json.load(response)

    def test_healthz(self, service):
        status, document = self._get(service, "/healthz")
        assert status == 200
        assert document["status"] == "ok"
        assert document["mode"] == "collector"
        assert document["records_processed"] == 0

    def test_metrics_carries_collector_section(self, service):
        # the row is held, not folded, until the snapshot flushes it:
        # /metrics reads its own writes
        service.feed(NetflowV9Codec().encode([_flow()], 0))
        assert service.engine.records_processed == 0
        status, document = self._get(service, "/metrics")
        assert status == 200
        assert document["collector"]["records"]["folded"] == 1
        assert document["throughput"]["records"] == 1

    def test_subscriber_query(self, service):
        status, document = self._get(service, "/subscribers/deadbeef")
        assert status == 200
        assert document == {
            "digest": "deadbeef",
            "found": False,
            "progress": None,
        }

    def test_unknown_route_is_404(self, service):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            self._get(service, "/nope")
        assert excinfo.value.code == 404
