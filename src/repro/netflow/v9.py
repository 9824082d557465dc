"""Binary NetFlow v9 (RFC 3954) export and parsing.

The ISP in the paper collects NetFlow v9 at its border routers.  This
codec round-trips the simulation's :class:`~repro.netflow.records.FlowRecord`
through the real wire format: a packet header, a template flowset
(FlowSet ID 0) describing the record layout, and data flowsets carrying
the records.  Only the fields the methodology consumes are exported.

Decoding is hardened for live-collector use: arbitrary bytes — a
truncated datagram, a bit-flipped length field, a zero-length template
field, a data flowset whose template has not arrived — fail with
exactly one typed error, :class:`~repro.netflow.datagram.DatagramError`
(reason + exporter + offset), never a bare ``struct.error`` or
``KeyError``.  :meth:`NetflowV9Codec.decode_message` is the
collector-facing variant: instead of raising on data-before-template
it returns the raw sets for bounded buffering (see
:mod:`repro.collector`).
"""

from __future__ import annotations

import struct
from typing import Iterable, List, Optional, Tuple

from repro.netflow.datagram import (
    DatagramError,
    DatagramHeader,
    DecodedDatagram,
    FlowBlock,
    learn_templates,
    peek_header,
)
from repro.netflow.records import FlowRecord

__all__ = ["NetflowV9Codec"]

_HEADER = struct.Struct("!HHIIII")  # version, count, uptime, secs, seq, src
_FLOWSET_HEADER = struct.Struct("!HH")  # flowset id, length
_TEMPLATE_HEADER = struct.Struct("!HH")  # template id, field count
#: field type feeding each flow-file column (first, last, src, dst,
#: proto, sport, dport, packets, bytes, flags)
_COLUMN_FIELDS = (22, 21, 8, 12, 4, 7, 11, 2, 1, 6)

# (field type, length) in export order — RFC 3954 field-type numbers.
_FIELDS: Tuple[Tuple[int, int], ...] = (
    (8, 4),  # IPV4_SRC_ADDR
    (12, 4),  # IPV4_DST_ADDR
    (7, 2),  # L4_SRC_PORT
    (11, 2),  # L4_DST_PORT
    (4, 1),  # PROTOCOL
    (6, 1),  # TCP_FLAGS
    (2, 4),  # IN_PKTS
    (1, 4),  # IN_BYTES
    (22, 4),  # FIRST_SWITCHED
    (21, 4),  # LAST_SWITCHED
)
_RECORD = struct.Struct("!IIHHBBIIII")
_TEMPLATE_ID = 256
_OPTIONS_TEMPLATE_ID = 257
_OPTIONS_FLOWSET_ID = 1

# Options record (RFC 3954 §6.1): scope = System (1), options =
# SAMPLING_INTERVAL (34, 4 bytes) + SAMPLING_ALGORITHM (35, 1 byte).
_SCOPE_SYSTEM = 1
_FIELD_SAMPLING_INTERVAL = 34
_FIELD_SAMPLING_ALGORITHM = 35
_ALGORITHM_RANDOM = 0x02  # random n-out-of-N sampling


class NetflowV9Codec:
    """Encode and decode NetFlow v9 export packets."""

    def __init__(self, source_id: int = 1, sampling_interval: int = 1) -> None:
        self.source_id = source_id
        self.sampling_interval = sampling_interval
        self._sequence = 0
        # Collector-side template cache: real collectors remember
        # templates across export packets (routers only refresh them
        # periodically).
        self._templates: dict = {}
        self._options_templates: dict = {}
        self._discovered_sampling: "int | None" = None

    # ------------------------------------------------------------------
    # encoding

    def encode(
        self,
        flows: List[FlowRecord],
        export_time: int,
        include_options: bool = True,
        include_template: bool = True,
    ) -> bytes:
        """Serialise flows into one export packet.

        With ``include_options`` the packet carries the router's
        sampling configuration in-band (options template + record), the
        way production routers announce their sampling rate to
        collectors.  Routers refresh templates only periodically;
        ``include_template=False`` emits a data-only packet that a
        collector can decode from its template cache.
        """
        template = self._encode_template() if include_template else b""
        options = (
            self._encode_options(export_time) if include_options else b""
        )
        data = self._encode_data(flows)
        count = (
            (1 if include_template else 0)
            + (2 if include_options else 0)
            + len(flows)
        )
        header = _HEADER.pack(
            9,
            count,
            (export_time * 1000) & 0xFFFFFFFF,
            export_time,
            self._sequence,
            self.source_id,
        )
        self._sequence = (self._sequence + count) & 0xFFFFFFFF
        return header + template + options + data

    def _encode_options(self, export_time: int) -> bytes:
        """Options template + one options data record announcing the
        sampling interval and algorithm."""
        template_body = struct.pack(
            "!HHH", _OPTIONS_TEMPLATE_ID, 4, 8
        )  # scope length 4 bytes, options length 8 bytes
        template_body += struct.pack("!HH", _SCOPE_SYSTEM, 4)
        template_body += struct.pack("!HH", _FIELD_SAMPLING_INTERVAL, 4)
        template_body += struct.pack("!HH", _FIELD_SAMPLING_ALGORITHM, 1)
        padding = (-len(template_body)) % 4
        template_body += b"\x00" * padding
        template = _FLOWSET_HEADER.pack(
            _OPTIONS_FLOWSET_ID,
            _FLOWSET_HEADER.size + len(template_body),
        ) + template_body

        record = struct.pack(
            "!IIB",
            self.source_id,  # scope: observing system
            self.sampling_interval,
            _ALGORITHM_RANDOM,
        )
        record += b"\x00" * ((-len(record)) % 4)
        data = _FLOWSET_HEADER.pack(
            _OPTIONS_TEMPLATE_ID, _FLOWSET_HEADER.size + len(record)
        ) + record
        return template + data

    def _encode_template(self) -> bytes:
        body = _TEMPLATE_HEADER.pack(_TEMPLATE_ID, len(_FIELDS))
        for field_type, length in _FIELDS:
            body += struct.pack("!HH", field_type, length)
        return (
            _FLOWSET_HEADER.pack(0, _FLOWSET_HEADER.size + len(body)) + body
        )

    def _encode_data(self, flows: Iterable[FlowRecord]) -> bytes:
        body = b"".join(
            _RECORD.pack(
                flow.src_ip,
                flow.dst_ip,
                flow.src_port,
                flow.dst_port,
                flow.protocol,
                flow.tcp_flags,
                flow.packets,
                flow.bytes,
                flow.first_switched & 0xFFFFFFFF,
                flow.last_switched & 0xFFFFFFFF,
            )
            for flow in flows
        )
        padding = (-len(body)) % 4
        body += b"\x00" * padding
        return _FLOWSET_HEADER.pack(
            _TEMPLATE_ID, _FLOWSET_HEADER.size + len(body)
        ) + body

    # ------------------------------------------------------------------
    # decoding

    def decode(self, payload: bytes) -> List[FlowRecord]:
        """Parse one export packet back into flow records.

        The decoder is template-driven: it learns the layout from the
        template flowset in the same packet (the common cold-start case
        in collectors) and then decodes the data flowsets.  Damaged or
        premature input raises :class:`~repro.netflow.datagram.
        DatagramError` — including ``unknown_template`` for a data
        flowset whose template this codec has never seen (a collector
        that wants to buffer those uses :meth:`decode_message`).
        """
        return self.decode_message(payload, strict=True).flows

    def decode_message(
        self,
        payload: bytes,
        header: Optional[DatagramHeader] = None,
        strict: bool = False,
    ) -> DecodedDatagram:
        """Collector-facing decode of one export packet.

        Like :meth:`decode` but the data records stay column blocks
        (``.blocks``) and data flowsets referencing an unknown template
        land in ``.pending`` (raw bodies, for bounded buffering until
        the template re-send) instead of raising.  Structural damage
        still raises :class:`DatagramError`.  ``header`` is the
        caller's :func:`~repro.netflow.datagram.peek_header` of this
        payload, when it already routed on one; ``strict`` raises
        ``unknown_template`` as :meth:`decode` does.
        """
        if header is None:
            header = peek_header(payload)
        if header.version != 9:
            raise DatagramError(
                "bad_version", f"not NetFlow v9 (version {header.version})"
            )
        src = header.exporter_id
        message = DecodedDatagram(header=header)
        offset = _HEADER.size
        discovered_sampling = None
        while offset + _FLOWSET_HEADER.size <= len(payload):
            flowset_id, length = _FLOWSET_HEADER.unpack_from(
                payload, offset
            )
            if length < _FLOWSET_HEADER.size:
                raise DatagramError(
                    "corrupt_set_length",
                    f"flowset {flowset_id} length {length}",
                    exporter=src,
                    offset=offset,
                )
            if offset + length > len(payload):
                raise DatagramError(
                    "truncated_set",
                    f"flowset {flowset_id} length {length} overruns "
                    f"{len(payload)}-byte datagram",
                    exporter=src,
                    offset=offset,
                )
            body = payload[offset + _FLOWSET_HEADER.size : offset + length]
            if flowset_id == 0:
                message.templates_learned.extend(
                    learn_templates(
                        body, self._templates, _COLUMN_FIELDS, src, offset
                    )
                )
            elif flowset_id == _OPTIONS_FLOWSET_ID:
                message.options_learned.extend(
                    self._decode_options_templates(
                        body, self._options_templates, src, offset
                    )
                )
            elif flowset_id >= 256 and flowset_id in self._options_templates:
                interval = self._decode_options_data(
                    body, self._options_templates[flowset_id]
                )
                if interval is not None:
                    discovered_sampling = interval
            elif flowset_id >= 256 and flowset_id in self._templates:
                message.blocks.extend(
                    self.decode_data_body(flowset_id, body)
                )
            elif flowset_id >= 256:
                if strict:
                    raise DatagramError(
                        "unknown_template",
                        f"data flowset {flowset_id} before its template",
                        exporter=src,
                        offset=offset,
                    )
                message.pending.append((flowset_id, bytes(body)))
            # flowset ids 2..255 are reserved: skipped, per RFC 3954
            offset += length
        if discovered_sampling:
            self._discovered_sampling = discovered_sampling
            for block in message.blocks:  # options may follow the data
                block.sampling_interval = discovered_sampling
        return message

    def decode_data_body(self, set_id: int, body: bytes) -> List[FlowBlock]:
        """Decode a buffered data-flowset body against the cache.

        The flush half of data-before-template buffering: once the
        template (re-)send has landed, the collector replays the raw
        bodies it queued through this.  Raises ``unknown_template``
        when the template is still missing.
        """
        layout = self._templates.get(set_id)
        if layout is None:
            raise DatagramError(
                "unknown_template", f"data flowset {set_id}"
            )
        # the in-band announced rate, else the configured one
        return layout.block(
            body, self._discovered_sampling or self.sampling_interval
        )

    @staticmethod
    def _decode_options_templates(
        body: bytes,
        templates: dict,
        exporter: Optional[int] = None,
        base_offset: int = 0,
    ) -> List[int]:
        """Parse an options template flowset (RFC 3954 §6.1)."""
        learned: List[int] = []
        offset = 0
        try:
            while offset + 6 <= len(body):
                template_id, scope_length, option_length = (
                    struct.unpack_from("!HHH", body, offset)
                )
                if template_id == 0:  # padding
                    break
                offset += 6
                scope_fields = []
                cursor = offset
                consumed = 0
                while consumed < scope_length:
                    field_type, length = struct.unpack_from(
                        "!HH", body, cursor
                    )
                    scope_fields.append((field_type, length))
                    cursor += 4
                    consumed += 4
                option_fields = []
                consumed = 0
                while consumed < option_length:
                    field_type, length = struct.unpack_from(
                        "!HH", body, cursor
                    )
                    option_fields.append((field_type, length))
                    cursor += 4
                    consumed += 4
                if any(
                    length == 0
                    for _, length in scope_fields + option_fields
                ):
                    raise DatagramError(
                        "zero_length_field",
                        f"options template {template_id}",
                        exporter=exporter,
                        offset=base_offset,
                    )
                templates[template_id] = (scope_fields, option_fields)
                learned.append(template_id)
                offset = cursor
        except struct.error as exc:
            raise DatagramError(
                "truncated_template",
                f"options template flowset: {exc}",
                exporter=exporter,
                offset=base_offset,
            ) from exc
        return learned

    @staticmethod
    def _decode_options_data(body: bytes, template) -> "int | None":
        """Extract the sampling interval from an options data record."""
        scope_fields, option_fields = template
        record_length = sum(length for _, length in scope_fields) + sum(
            length for _, length in option_fields
        )
        interval = None
        offset = 0
        while offset + record_length <= len(body):
            cursor = offset + sum(length for _, length in scope_fields)
            for field_type, length in option_fields:
                raw = body[cursor : cursor + length]
                if field_type == _FIELD_SAMPLING_INTERVAL:
                    interval = int.from_bytes(raw, "big")
                cursor += length
            offset += record_length
            if record_length == 0:
                break
        return interval
