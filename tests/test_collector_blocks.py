"""The column path from the datagram to the fold.

Binary data sets decode with ``numpy.frombuffer`` into ten-column
blocks (:mod:`repro.netflow.datagram`), the collector validates them
with masks, and :class:`CollectorService` holds, folds and journals
them as chunks.  Each step is pinned here against the per-record code
it replaced: the ``int.from_bytes`` field loop (kept below as the
reference), the scalar validator, ``format_flow``, and a service that
folds every datagram on its own.
"""

import json
import socket
import struct
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.collector import (
    CollectorConfig,
    CollectorService,
    CollectorSource,
    FleetTarget,
    truncate_journal,
)
from repro.collector import service as service_module
from repro.fleet import FleetConfig, FleetService
from repro.netflow.datagram import (
    FlowBlock,
    RecordLayout,
    block_columns,
    records_from_columns,
)
from repro.netflow.flowfile import format_flow, format_flow_columns
from repro.netflow.ipfix import IpfixCodec
from repro.netflow.records import FlowKey, FlowRecord, PROTO_TCP, TCP_ACK
from repro.netflow.v9 import NetflowV9Codec
from repro.resilience.quarantine import (
    QuarantineSink,
    validate_flow_record,
    validate_flow_tuple,
)
from repro.runtime import StopToken
from repro.runtime.shutdown import EXIT_DRAINED
from repro.stream import (
    MemoryEventSink,
    StreamConfig,
    StreamDetectionEngine,
)

#: field type feeding each column, per codec (first, last, src, dst,
#: proto, sport, dport, packets, bytes, flags)
_V9_WANTED = (22, 21, 8, 12, 4, 7, 11, 2, 1, 6)
_IPFIX_WANTED = (150, 151, 8, 12, 4, 7, 11, 2, 1, 6)
_U64_MAX = (1 << 64) - 1


def _reference_rows(fields, wanted, body):
    """The deleted decoder: one dict of ``int.from_bytes`` per record,
    a repeated type overwriting, a missing one reading 0 — saturated
    at 2**64 - 1, the one thing a uint64 column does differently."""
    record_length = sum(length for _, length in fields)
    rows = []
    offset = 0
    while offset + record_length <= len(body):
        values = {}
        cursor = offset
        for field_type, length in fields:
            raw = body[cursor : cursor + length]
            values[field_type] = int.from_bytes(raw, "big")
            cursor += length
        rows.append(
            [min(values.get(kind, 0), _U64_MAX) for kind in wanted]
        )
        offset += record_length
    return rows


def _set(set_id, body):
    return struct.pack("!HH", set_id, 4 + len(body)) + body


def _template(template_id, fields):
    return struct.pack("!HH", template_id, len(fields)) + b"".join(
        struct.pack("!HH", kind, length) for kind, length in fields
    )


def _ipfix_message(sets, sequence=0, domain=7, export_time=0):
    body = b"".join(sets)
    return (
        struct.pack("!HHIII", 10, 16 + len(body), export_time, sequence, domain)
        + body
    )


def _v9_packet(sets, count, sequence=0, source=3, export_time=0):
    return struct.pack(
        "!HHIIII", 9, count, 0, export_time, sequence, source
    ) + b"".join(sets)


# unknown types (90, 91) pad the record; wanted ones may repeat or be
# left out altogether
_fields = st.lists(
    st.tuples(
        st.sampled_from((1, 2, 4, 6, 7, 8, 11, 12, 21, 22, 150, 151, 90, 91)),
        st.integers(1, 12),
    ),
    min_size=1,
    max_size=14,
)


class TestKernel:
    @settings(max_examples=150, deadline=None)
    @given(
        fields=_fields,
        data=st.data(),
        rows=st.integers(0, 6),
        padding=st.integers(0, 3),
        ipfix=st.booleans(),
    )
    def test_columns_equal_the_field_loop(
        self, fields, data, rows, padding, ipfix
    ):
        """Random templates (widths 1-12, so 3/5/6/7 and wider than a
        column; repeated and missing field types), random bodies, set
        padding and a trailing partial record: the block a data set
        decodes to holds what the per-field loop read."""
        record_length = sum(length for _, length in fields)
        partial = data.draw(st.integers(0, record_length - 1))
        body = data.draw(
            st.binary(
                min_size=rows * record_length + partial,
                max_size=rows * record_length + partial,
            )
        )
        if partial < padding:  # padding never completes a record
            body += b"\x00" * (padding - partial)
        template = _template(400, fields)
        if ipfix:
            wanted, codec = _IPFIX_WANTED, IpfixCodec()
            payload = _ipfix_message([_set(2, template), _set(400, body)])
        else:
            wanted, codec = _V9_WANTED, NetflowV9Codec()
            payload = _v9_packet([_set(0, template), _set(400, body)], rows + 1)
        message = codec.decode_message(payload)
        expected = _reference_rows(fields, wanted, body)
        assert message.rows == len(expected) == len(body) // record_length
        got = [
            row
            for block in message.blocks
            for row in block.columns.T.tolist()
        ]
        assert got == expected
        # the records adapter is a view over the same columns
        assert [
            [
                flow.first_switched, flow.last_switched, flow.src_ip,
                flow.dst_ip, flow.protocol, flow.src_port, flow.dst_port,
                flow.packets, flow.bytes, flow.tcp_flags,
            ]
            for flow in message.flows
        ] == expected

    def test_widths_3_5_6_7_and_a_repeat(self):
        fields = [(8, 3), (1, 5), (2, 6), (150, 7), (8, 4)]
        body = bytes(range(1, 26)) + bytes(range(101, 126)) + b"\x00\x00"
        (block,) = RecordLayout(fields, _IPFIX_WANTED).block(body, 1)
        columns = block.columns
        assert columns.dtype == np.uint64
        assert columns.T.tolist() == _reference_rows(
            fields, _IPFIX_WANTED, body
        )
        # the second occurrence of type 8 won
        assert columns[2, 0] == int.from_bytes(body[21:25], "big")

    def test_interleaved_layouts_keep_block_order(self):
        """One kernel call per layout, rows back at their blocks' places."""
        rng = np.random.default_rng(5)
        layouts = [
            RecordLayout([(8, 4), (12, 4), (22, 4)], _V9_WANTED),
            RecordLayout([(22, 8), (1, 3), (90, 5), (8, 4)], _V9_WANTED),
            RecordLayout([(7, 2), (11, 2)], _V9_WANTED),
        ]
        blocks = []
        for number in range(40):
            layout = layouts[int(rng.integers(3))]
            rows = int(rng.integers(1, 9))
            blocks += layout.block(rng.bytes(rows * layout.itemsize), 1)
        expected = np.concatenate([b.columns for b in blocks], axis=1)
        assert block_columns(blocks).tolist() == expected.tolist()
        assert block_columns(blocks[:1]).tolist() == blocks[0].columns.tolist()

    def test_template_resend_keeps_its_layout(self):
        """IPFIX exporters may re-send the template in every message;
        the blocks of such a stream must still decode as one group."""
        exporter, collector = IpfixCodec(), IpfixCodec()
        first, second = (
            collector.decode_message(exporter.encode([_flow(n)], n)).blocks[0]
            for n in range(2)
        )
        assert first.layout is second.layout
        changed = _ipfix_message(
            [_set(2, _template(300, [(8, 4)])), _set(300, b"\x0a\x00\x00\x01")]
        )
        (third,) = collector.decode_message(changed).blocks
        assert third.layout is not first.layout
        assert third.columns[2].tolist() == [0x0A000001]

    def test_record_longer_than_a_set_decodes_nothing(self):
        layout = RecordLayout([(8, 40_000), (12, 40_000)], _V9_WANTED)
        assert layout.block(b"\x01" * 65_531, 1) == []

    def test_sampling_interval_rides_on_the_block(self):
        exporter = NetflowV9Codec(sampling_interval=64)
        flow = _flow(0)
        message = NetflowV9Codec().decode_message(
            exporter.encode([flow], 0, include_options=True)
        )
        (block,) = message.blocks
        assert block.sampling_interval == 64
        assert message.flows[0].estimated_packets == flow.packets * 64


def _flow(index, first=1_573_776_000, **overrides):
    values = dict(
        key=FlowKey(
            src_ip=0x0A000001 + index,
            dst_ip=0x0B000001 + index,
            protocol=PROTO_TCP,
            src_port=40000 + index % 20000,
            dst_port=443,
        ),
        first_switched=first + index,
        last_switched=first + index + 30,
        packets=3,
        bytes=300,
        tcp_flags=TCP_ACK,
    )
    values.update(overrides)
    return FlowRecord(**values)


# mostly valid values, with every bound crossed now and then
def _column(limit):
    return st.one_of(
        st.integers(0, limit),
        st.sampled_from((limit, limit + 1, (1 << 63) - 1, 1 << 63, _U64_MAX)),
    )


_rows = st.lists(
    st.tuples(
        _column((1 << 63) - 1), _column((1 << 63) - 1),
        _column(0xFFFFFFFF), _column(0xFFFFFFFF), _column(255),
        _column(65535), _column(65535), _column((1 << 63) - 1),
        _column((1 << 63) - 1), _column(255),
    ),
    min_size=1,
    max_size=12,
)


_ALL_WIDE = RecordLayout([(kind, 8) for kind in _V9_WANTED], _V9_WANTED)


def _block(rows, sampling_interval=1):
    """Any ten uint64 values a row: every field 8 bytes wide."""
    return FlowBlock(
        _ALL_WIDE,
        b"".join(struct.pack("!10Q", *row) for row in rows),
        sampling_interval,
    )


class TestValidateMasks:
    @settings(max_examples=200, deadline=None)
    @given(_rows)
    def test_masks_agree_with_the_scalar_validator(self, rows):
        block = _block(rows, sampling_interval=9)
        records = block.records()
        reasons = [validate_flow_record(record) for record in records]
        source = CollectorSource()
        kept = source.validate([block])
        assert kept.T.tolist() == [
            list(row) for row, reason in zip(rows, reasons) if reason is None
        ]
        expected = {}
        for reason in reasons:
            if reason is not None:
                expected[reason] = expected.get(reason, 0) + 1
        assert source.quarantine.counts == expected
        assert source.metrics.records_invalid == sum(expected.values())

    def test_quarantine_sample_is_the_record(self, tmp_path):
        """Failing rows (and only those) become FlowRecords, so the
        sample text is the per-record path's."""
        good, bad = _flow(0), _flow(1, last_switched=5)
        source = CollectorSource(quarantine=QuarantineSink(tmp_path))
        codec = NetflowV9Codec(sampling_interval=100)
        kept = source.ingest(codec.encode([good, bad], 0))
        assert [flow.key for flow in kept] == [good.key]
        bad.sampling_interval = 100  # announced in-band
        (entry,) = [
            json.loads(line)
            for line in (tmp_path / "quarantine.jsonl").read_text().splitlines()
        ]
        assert entry == {"reason": "time_travel", "sample": repr(bad)[:256]}


class TestJournalRender:
    @settings(max_examples=100, deadline=None)
    @given(_rows)
    def test_block_text_equals_format_flow(self, rows):
        kept = CollectorSource().validate([_block(rows)])
        assert format_flow_columns(kept) == "".join(
            format_flow(record) + "\n"
            for record in records_from_columns(kept)
        )

    def test_wide_counters(self):
        flows = [
            _flow(0, packets=2**32, bytes=2**40 + 7),
            _flow(1, packets=2**63 - 1, bytes=2**32 - 1, tcp_flags=0),
            _flow(2, packets=0, bytes=0, tcp_flags=0xFF),
        ]
        codec = IpfixCodec()
        (block,) = codec.decode_message(codec.encode(flows, 0)).blocks
        assert format_flow_columns(block.columns) == "".join(
            format_flow(flow) + "\n" for flow in flows
        )


# -- the hold ---------------------------------------------------------------


def _service(rules, hitlist, directory, token=None, **config):
    engine = StreamDetectionEngine(
        rules,
        hitlist,
        StreamConfig(checkpoint_every=0, checkpoint_dir=directory / "ckpt"),
        MemoryEventSink(),
        stop_token=token,
    )
    service = CollectorService(
        engine,
        config=CollectorConfig(
            journal=directory / "journal.csv", control_port=None, **config
        ),
    )
    service._open_journal()
    return service


def _data_lines(path):
    return [
        line
        for line in path.read_text(encoding="ascii").splitlines()
        if line and not line.startswith("#")
    ]


def _two_exporter_stream(flows):
    """v9 and IPFIX exporters interleaved, 7 records a datagram.  The
    v9 template first rides on its 4th datagram (three data sets wait
    in the pending buffer and flush there) and is re-sent every 5th;
    IPFIX re-sends its template in every message.  One record of the
    stream ends before it starts."""
    v9, ipfix = NetflowV9Codec(source_id=3), IpfixCodec(7)
    stream = []
    for number, start in enumerate(range(0, len(flows), 7)):
        batch = list(flows[start : start + 7])
        if number == 20:
            bad = batch[3]
            batch[3] = FlowRecord(
                bad.key, bad.first_switched, bad.first_switched - 1,
                bad.packets, bad.bytes, bad.tcp_flags,
            )
        if number % 2:
            stream.append((ipfix.encode(batch, number), ("10.0.0.2", 9)))
            continue
        announce = number // 2 >= 3 and (number // 2 - 3) % 5 == 0
        stream.append(
            (
                v9.encode(
                    batch, number,
                    include_template=announce, include_options=announce,
                ),
                ("10.0.0.1", 9),
            )
        )
    return stream


class TestHold:
    def _run(self, rules, hitlist, directory, stream):
        directory.mkdir()
        service = _service(rules, hitlist, directory, checkpoint_every=500)
        for number, (payload, addr) in enumerate(stream):
            service.feed(payload, addr, number * 0.001)
        service._drain()
        service._journal.close()
        return (
            [event.to_line() for event in service.engine.sink.events],
            (directory / "journal.csv").read_bytes(),
            sorted(path.name for path in (directory / "ckpt").iterdir()),
            service.source.metrics.to_dict(),
            dict(service.source.quarantine.counts),
        )

    def test_fold_threshold_does_not_show(
        self, rules, hitlist, gt_flows, tmp_path, monkeypatch
    ):
        """Folding every datagram on its own (threshold 1) and holding
        4,096 rows give the same log, journal, checkpoints, counters."""
        stream = _two_exporter_stream(gt_flows[:2800])
        held = self._run(rules, hitlist, tmp_path / "held", stream)
        monkeypatch.setattr(service_module, "FOLD_ROWS", 1)
        alone = self._run(rules, hitlist, tmp_path / "alone", stream)
        assert held == alone
        events, journal, checkpoints, metrics, quarantined = held
        assert events, "the stream must detect something"
        assert quarantined == {"time_travel": 1}
        assert metrics["records"] == {
            "decoded": 2800, "folded": 2799, "invalid": 1,
        }
        assert metrics["pending"]["flushed_sets"] == 3
        assert metrics["sequence"]["gaps"] == 0
        # cadence 500 on datagram boundaries (7 rows each, one row
        # invalid): 503, 1007, ... — the newest three are retained
        assert checkpoints == [
            "ckpt-0000002015.json",
            "ckpt-0000002519.json",
            "ckpt-0000002799.json",
        ]
        assert journal.count(b"\n") == 1 + 2799

    def test_stop_mid_chunk_journals_what_was_folded(
        self, rules, hitlist, gt_flows, tmp_path
    ):
        token = StopToken()
        service = _service(rules, hitlist, tmp_path, token=token)
        codec = NetflowV9Codec()
        for number in range(3):
            batch = gt_flows[number * 10 : number * 10 + 10]
            service.feed(codec.encode(batch, number), now=0.0)
        # the engine takes 12 of the 30 held rows, then the guard stops
        fold = service.engine.process_chunks

        def stopping(chunks, admitted):
            done = fold(chunks, max_records=12, admitted=admitted)
            token.stop("test")
            return done

        service.engine.process_chunks = stopping
        service._fold()
        service.engine.process_chunks = fold
        service._drain()
        service._journal.close()
        # journal and counter follow the accepted prefix, not the hold
        assert service.engine.records_processed == 12
        assert service.source.metrics.records_folded == 12
        assert _data_lines(tmp_path / "journal.csv") == [
            format_flow(flow) for flow in gt_flows[:12]
        ]

    def test_stop_folds_the_held_rows(
        self, rules, hitlist, gt_flows, tmp_path
    ):
        """Rows received before a stop are drained, not dropped: the
        engine's already-stopped guard does not apply to them."""
        token = StopToken()
        service = _service(rules, hitlist, tmp_path, token=token)
        codec = NetflowV9Codec()
        for number in range(3):
            batch = gt_flows[number * 10 : number * 10 + 10]
            service.feed(codec.encode(batch, number), now=0.0)
        assert service._held_rows == 30
        assert service.engine.records_processed == 0
        token.stop("test")
        service._drain()
        service._journal.close()
        assert service.engine.stopped
        assert service.engine.records_processed == 30
        assert service.source.metrics.records_folded == 30
        assert _data_lines(tmp_path / "journal.csv") == [
            format_flow(flow) for flow in gt_flows[:30]
        ]
        assert [path.name for path in (tmp_path / "ckpt").iterdir()] == [
            "ckpt-0000000030.json"
        ]

    def test_stop_folds_the_held_rows_into_a_fleet(
        self, rules, hitlist, gt_flows, tmp_path
    ):
        """The same hold in front of a fleet target: a stop drains the
        held rows into the journal and the workers, none dropped."""
        token = StopToken()
        fleet = FleetService(
            rules,
            hitlist,
            tmp_path / "fleet",
            FleetConfig(workers=2, hang_timeout=10.0, drain_timeout=30.0),
            stop_token=token,
        )
        service = CollectorService(
            FleetTarget(fleet, tmp_path / "merged.jsonl"),
            config=CollectorConfig(
                journal=tmp_path / "journal.csv", control_port=None
            ),
        )
        flows = gt_flows[:3000]
        try:
            service._start()
            codec = NetflowV9Codec()
            for number in range(0, len(flows), 30):
                service.feed(
                    codec.encode(flows[number : number + 30], number // 30),
                    now=0.0,
                )
            assert service._held_rows == 3000
            assert fleet.metrics.records_routed == 0
            token.stop("test")
            service._drain()
        except BaseException:
            fleet.abort()
            raise
        finally:
            service._journal.close()
        assert fleet.metrics.records_routed == 3000
        assert service.source.metrics.records_folded == 3000
        assert _data_lines(tmp_path / "journal.csv") == [
            format_flow(flow) for flow in flows
        ]
        replay = StreamDetectionEngine(
            rules, hitlist, StreamConfig(checkpoint_every=0), MemoryEventSink()
        )
        replay.process_flowfile(tmp_path / "journal.csv")
        merged = (tmp_path / "merged.jsonl").read_text().splitlines()
        assert merged == [event.to_line() for event in replay.sink.events]
        assert merged, "the held rows must detect something"

    def test_sigterm_loses_nothing_the_socket_delivered(
        self, rules, hitlist, gt_flows, tmp_path
    ):
        """The shipped loop: datagrams held under every flush trigger
        when the stop lands are in the journal and the checkpoint."""
        token = StopToken()
        service = _service(
            rules, hitlist, tmp_path, token=token, poll_interval=1.0
        )
        service._journal.close()  # run() opens its own
        service._journal = None
        codes = []
        runner = threading.Thread(target=lambda: codes.append(service.run()))
        runner.start()
        try:
            deadline = time.monotonic() + 10
            while service.udp_port is None and time.monotonic() < deadline:
                time.sleep(0.01)
            codec = NetflowV9Codec()
            with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as sock:
                for number in range(4):
                    batch = gt_flows[number * 10 : number * 10 + 10]
                    sock.sendto(
                        codec.encode(batch, number),
                        ("127.0.0.1", service.udp_port),
                    )
            while service.datagrams_seen < 4 and time.monotonic() < deadline:
                time.sleep(0.005)
        finally:
            token.stop("SIGTERM")
            runner.join(timeout=10)
        assert not runner.is_alive()
        assert codes == [EXIT_DRAINED]
        assert service.engine.records_processed == 40
        assert service.source.metrics.records_folded == 40
        assert _data_lines(tmp_path / "journal.csv") == [
            format_flow(flow) for flow in gt_flows[:40]
        ]
        assert [path.name for path in (tmp_path / "ckpt").iterdir()] == [
            "ckpt-0000000040.json"
        ]

    def test_lone_datagram_folds_within_the_poll_interval(
        self, rules, hitlist, tmp_path
    ):
        token = StopToken()
        service = _service(
            rules, hitlist, tmp_path, token=token, poll_interval=0.05
        )
        service._journal.close()  # run() opens its own
        service._journal = None
        runner = threading.Thread(target=service.run)
        runner.start()
        try:
            deadline = time.monotonic() + 10
            while service.udp_port is None and time.monotonic() < deadline:
                time.sleep(0.01)
            with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as sock:
                sock.sendto(
                    NetflowV9Codec().encode([_flow(0)], 0),
                    ("127.0.0.1", service.udp_port),
                )
            # no second datagram, no snapshot: only the socket timeout
            # can flush the held row
            while (
                service.engine.records_processed == 0
                and time.monotonic() < deadline
            ):
                time.sleep(0.01)
            assert service.engine.records_processed == 1
        finally:
            token.stop("test")
            runner.join(timeout=10)
        assert not runner.is_alive()

    def test_kill_with_rows_held_then_resume(
        self, rules, hitlist, gt_flows, tmp_path
    ):
        """A SIGKILL loses the held rows and nothing else: what is on
        disk resumes to journal data lines == checkpoint records."""
        service = _service(rules, hitlist, tmp_path, checkpoint_every=100)
        codec = NetflowV9Codec()
        for number in range(13):  # 130 rows: checkpoint at 100, 30 held
            batch = gt_flows[number * 10 : number * 10 + 10]
            service.feed(codec.encode(batch, number), now=0.0)
        assert service._held_rows == 30
        journal = tmp_path / "journal.csv"
        on_disk = journal.read_bytes()  # what a SIGKILL leaves
        service._journal.close()
        journal.write_bytes(on_disk)
        engine = StreamDetectionEngine.resume(
            rules,
            hitlist,
            StreamConfig(checkpoint_every=0, checkpoint_dir=tmp_path / "ckpt"),
            MemoryEventSink(),
        )
        assert engine.records_processed == 100
        assert truncate_journal(journal, engine.records_processed) == 100
        assert _data_lines(journal) == [
            format_flow(flow) for flow in gt_flows[:100]
        ]


# -- a field that does not fit int64 ----------------------------------------

_WIDE_TIMES = (
    (8, 4), (12, 4), (7, 2), (11, 2), (4, 1), (6, 1),
    (2, 8), (1, 8), (150, 8), (151, 8),
)
_WIDE_RECORD = struct.Struct("!IIHHBBQQQQ")


def _wide_message(flows, sequence, announce):
    body = b"".join(
        _WIDE_RECORD.pack(
            flow.src_ip, flow.dst_ip, flow.src_port, flow.dst_port,
            flow.protocol, flow.tcp_flags, flow.packets, flow.bytes,
            flow.first_switched, flow.last_switched,
        )
        for flow in flows
    )
    sets = [_set(2, _template(300, _WIDE_TIMES))] if announce else []
    return _ipfix_message(sets + [_set(300, body)], sequence)


class TestFieldOverflow:
    def test_scalar_validators_bound_int64(self):
        assert validate_flow_tuple(2**63 - 1, 1, 2, 6, 443, 0) is None
        assert validate_flow_tuple(2**63, 1, 2, 6, 443, 0) == "field_overflow"
        for field in ("last_switched", "packets", "bytes"):
            late = _flow(0, **{field: 2**63})
            assert validate_flow_record(late) == "field_overflow", field

    def test_live_equals_journal_replay(
        self, rules, hitlist, gt_flows, tmp_path
    ):
        """An 8-byte ``flowStartSeconds`` of 2**63 + 5 used to fold live
        and then fail to parse on replay (a 19-digit token), shifting
        every later record index.  It is quarantined on the wire."""
        flows = list(gt_flows[:400])
        poison = _flow(0, first=2**63 + 5)
        service = _service(rules, hitlist, tmp_path)
        sequence = 0
        for number, start in enumerate(range(0, len(flows), 25)):
            batch = flows[start : start + 25]
            if number == 2:
                batch.insert(7, poison)
            service.feed(
                _wide_message(batch, sequence, announce=number == 0),
                now=number * 0.001,
            )
            sequence += len(batch)
        service._drain()
        service._journal.close()
        assert service.source.quarantine.counts == {"field_overflow": 1}
        assert service.source.metrics.sequence_gaps == 0
        live = [event.to_line() for event in service.engine.sink.events]
        assert live, "the stream must detect something"

        replay = StreamDetectionEngine(
            rules, hitlist, StreamConfig(checkpoint_every=0), MemoryEventSink()
        )
        # no quarantine to hide behind: an unparseable line would raise
        assert replay.process_flowfile(tmp_path / "journal.csv") == 400
        assert [event.to_line() for event in replay.sink.events] == live
