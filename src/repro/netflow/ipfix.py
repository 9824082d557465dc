"""Binary IPFIX (RFC 7011) export and parsing.

The IXP in the paper collects IPFIX across its switching fabric.  The
message layout differs from NetFlow v9 in the header (no uptime; a
16-bit total length) and in the template set ID (2 instead of 0); the
information elements used here carry the same numbers as their NetFlow
v9 ancestors, plus ``flowStartSeconds``/``flowEndSeconds`` (150/151)
in place of the sysuptime-relative switch times.

Decode hardening mirrors :mod:`repro.netflow.v9`: arbitrary bytes fail
with one typed :class:`~repro.netflow.datagram.DatagramError`, the
template cache is persistent across messages (live collectors see
data-only messages between template refreshes), and
:meth:`IpfixCodec.decode_message` returns unknown-template data sets
for buffering instead of raising.
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

__all__ = ["IpfixCodec"]

_HEADER = struct.Struct("!HHIII")  # version, length, export time, seq, odid
_SET_HEADER = struct.Struct("!HH")
_TEMPLATE_HEADER = struct.Struct("!HH")
_LENGTH = struct.Struct("!H")  # the header's total-length field, at 2

_ELEMENTS: Tuple[Tuple[int, int], ...] = (
    (8, 4),  # sourceIPv4Address
    (12, 4),  # destinationIPv4Address
    (7, 2),  # sourceTransportPort
    (11, 2),  # destinationTransportPort
    (4, 1),  # protocolIdentifier
    (6, 1),  # tcpControlBits
    (2, 8),  # packetDeltaCount
    (1, 8),  # octetDeltaCount
    (150, 4),  # flowStartSeconds
    (151, 4),  # flowEndSeconds
)
_RECORD = struct.Struct("!IIHHBBQQII")
_TEMPLATE_ID = 300
_TEMPLATE_SET_ID = 2
#: information element feeding each flow-file column (first, last, src,
#: dst, proto, sport, dport, packets, bytes, flags)
_COLUMN_ELEMENTS = (150, 151, 8, 12, 4, 7, 11, 2, 1, 6)


class IpfixCodec:
    """Encode and decode IPFIX messages."""

    def __init__(
        self, observation_domain: int = 1, sampling_interval: int = 1
    ) -> None:
        self.observation_domain = observation_domain
        self.sampling_interval = sampling_interval
        self._sequence = 0
        # Collector-side template cache, persistent across messages.
        self._templates: dict = {}

    # ------------------------------------------------------------------
    # encoding

    def encode(self, flows: List[FlowRecord], export_time: int) -> bytes:
        template = self._encode_template_set()
        data = self._encode_data_set(flows)
        length = _HEADER.size + len(template) + len(data)
        header = _HEADER.pack(
            10, length, export_time, self._sequence, self.observation_domain
        )
        self._sequence = (self._sequence + len(flows)) & 0xFFFFFFFF
        return header + template + data

    def _encode_template_set(self) -> bytes:
        body = _TEMPLATE_HEADER.pack(_TEMPLATE_ID, len(_ELEMENTS))
        for element_id, length in _ELEMENTS:
            body += struct.pack("!HH", element_id, length)
        return (
            _SET_HEADER.pack(_TEMPLATE_SET_ID, _SET_HEADER.size + len(body))
            + body
        )

    def _encode_data_set(self, flows: Iterable[FlowRecord]) -> bytes:
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
        return _SET_HEADER.pack(
            _TEMPLATE_ID, _SET_HEADER.size + len(body)
        ) + body

    # ------------------------------------------------------------------
    # decoding

    def decode(self, payload: bytes) -> List[FlowRecord]:
        """Parse one IPFIX message back into flow records.

        Damaged or premature input raises :class:`~repro.netflow.
        datagram.DatagramError` — including ``unknown_template`` for a
        data set whose template this codec has never seen (a collector
        that wants to buffer those uses :meth:`decode_message`).
        """
        return self.decode_message(payload, strict=True).flows

    def decode_message(
        self,
        payload: bytes,
        header: Optional[DatagramHeader] = None,
        strict: bool = False,
    ) -> DecodedDatagram:
        """Collector-facing decode of one IPFIX message.

        Like :meth:`decode` but the data records stay column blocks
        (``.blocks``) and data sets referencing an unknown template
        land in ``.pending`` (raw bodies) instead of raising.
        Structural damage still raises :class:`DatagramError`.
        ``header`` is the caller's :func:`~repro.netflow.datagram.
        peek_header` of this payload, when it already routed on one;
        ``strict`` raises ``unknown_template`` as :meth:`decode` does.
        """
        if header is None:
            header = peek_header(payload)
        if header.version != 10:
            raise DatagramError(
                "bad_version",
                f"not an IPFIX message (version {header.version})",
            )
        odid = header.exporter_id
        length = _LENGTH.unpack_from(payload, 2)[0]
        if length != len(payload):
            raise DatagramError(
                "length_mismatch",
                f"IPFIX length field {length} != payload {len(payload)}",
                exporter=odid,
            )
        message = DecodedDatagram(header=header)
        offset = _HEADER.size
        while offset + _SET_HEADER.size <= len(payload):
            set_id, set_length = _SET_HEADER.unpack_from(payload, offset)
            if set_length < _SET_HEADER.size:
                raise DatagramError(
                    "corrupt_set_length",
                    f"set {set_id} length {set_length}",
                    exporter=odid,
                    offset=offset,
                )
            if offset + set_length > len(payload):
                raise DatagramError(
                    "truncated_set",
                    f"set {set_id} length {set_length} overruns "
                    f"{len(payload)}-byte message",
                    exporter=odid,
                    offset=offset,
                )
            body = payload[offset + _SET_HEADER.size : offset + set_length]
            if set_id == _TEMPLATE_SET_ID:
                message.templates_learned.extend(
                    learn_templates(
                        body, self._templates, _COLUMN_ELEMENTS, odid, offset
                    )
                )
            elif set_id >= 256 and set_id in self._templates:
                message.blocks.extend(self.decode_data_body(set_id, body))
            elif set_id >= 256:
                if strict:
                    raise DatagramError(
                        "unknown_template",
                        f"data set {set_id} before its template",
                        exporter=odid,
                        offset=offset,
                    )
                message.pending.append((set_id, bytes(body)))
            # set ids 3 (options templates) and 4..255 (reserved) skipped
            offset += set_length
        return message

    def decode_data_body(self, set_id: int, body: bytes) -> List[FlowBlock]:
        """Decode a data-set body (buffered or not) against the
        template cache."""
        layout = self._templates.get(set_id)
        if layout is None:
            raise DatagramError("unknown_template", f"data set {set_id}")
        return layout.block(body, self.sampling_interval)
