"""Typed datagram decode errors and export-packet header peeking.

A live collector feeds the NetFlow v9 / IPFIX codecs *arbitrary bytes*
— truncated datagrams, bit-corrupted payloads, garbage aimed at the
port.  The codecs therefore promise exactly one failure mode:
:class:`DatagramError`, carrying a stable machine-matchable ``reason``
plus the exporter/offset context an operator needs to attribute the
damage.  Anything else escaping ``decode`` is a codec bug (the seeded
mutation-fuzz suite in ``tests/test_netflow_codecs.py`` enforces
this).

:class:`DatagramError` subclasses :class:`ValueError` so historical
callers catching ``ValueError`` around ``decode`` keep working.

:func:`peek_header` reads just enough of a datagram to route it — the
protocol version and the exporter identity (NetFlow v9 source id /
IPFIX observation domain) plus the sequence number and record count a
collector's per-exporter gap accounting consumes — without touching
any template state.

Data sets never become per-record objects on the way in.  A learned
template is compiled once into a :class:`RecordLayout` — a packed
big-endian numpy structured dtype naming only the fields the
methodology consumes — and a data set body of that template is kept as
a :class:`FlowBlock`: the layout plus the bytes of its whole records.
:func:`block_columns` decodes any run of blocks with one
``numpy.frombuffer`` per layout into ten ``uint64`` columns in
flow-file order (a collector calls it once per fold, not per
datagram); ``FlowBlock.records()`` is the one block →
:class:`~repro.netflow.records.FlowRecord` adapter for callers that
want objects.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.netflow.parse import FLOW_FILE_COLUMNS
from repro.netflow.records import FlowKey, FlowRecord

__all__ = [
    "DatagramError",
    "DatagramHeader",
    "DecodedDatagram",
    "FlowBlock",
    "RecordLayout",
    "block_columns",
    "peek_header",
    "records_from_columns",
]

_V9_HEADER = struct.Struct("!HHIIII")
_IPFIX_HEADER = struct.Struct("!HHIII")
_TEMPLATE_HEADER = struct.Struct("!HH")  # id + field count / type + length
_U64_MAX = (1 << 64) - 1


class DatagramError(ValueError):
    """One export datagram could not be (fully) decoded.

    ``reason`` is a stable slug (``truncated_header``, ``bad_version``,
    ``truncated_set``, ``zero_length_field``, ``corrupt_set_length``,
    ``length_mismatch``, ``truncated_template``, ``unknown_template``)
    quarantine accounting keys on; ``exporter`` and ``offset`` locate
    the damage for an operator.
    """

    def __init__(
        self,
        reason: str,
        detail: str = "",
        exporter: Optional[int] = None,
        offset: Optional[int] = None,
    ) -> None:
        self.reason = reason
        self.exporter = exporter
        self.offset = offset
        where = []
        if exporter is not None:
            where.append(f"exporter={exporter}")
        if offset is not None:
            where.append(f"offset={offset}")
        suffix = f" ({', '.join(where)})" if where else ""
        message = f"{reason}: {detail}{suffix}" if detail else (
            f"{reason}{suffix}"
        )
        super().__init__(message)


@dataclass(frozen=True)
class DatagramHeader:
    """The routing fields of one export datagram."""

    version: int  # 9 (NetFlow v9) or 10 (IPFIX)
    exporter_id: int  # v9 source id / IPFIX observation domain
    sequence: int
    export_time: int
    #: v9: records in this packet (header ``count`` field);
    #: IPFIX: not carried — ``None`` (derive from the decoded body)
    count: Optional[int]


def peek_header(payload: bytes) -> DatagramHeader:
    """Parse only the datagram header (version routing + sequencing).

    Raises :class:`DatagramError` (``truncated_header`` /
    ``bad_version``) — never anything else — on damaged input.
    """
    if len(payload) < 2:
        raise DatagramError(
            "truncated_header", f"{len(payload)} bytes"
        )
    version = struct.unpack_from("!H", payload)[0]
    if version == 9:
        if len(payload) < _V9_HEADER.size:
            raise DatagramError(
                "truncated_header",
                f"{len(payload)} bytes < v9 header {_V9_HEADER.size}",
            )
        _, count, _uptime, secs, seq, source = _V9_HEADER.unpack_from(
            payload
        )
        return DatagramHeader(
            version=9,
            exporter_id=source,
            sequence=seq,
            export_time=secs,
            count=count,
        )
    if version == 10:
        if len(payload) < _IPFIX_HEADER.size:
            raise DatagramError(
                "truncated_header",
                f"{len(payload)} bytes < IPFIX header "
                f"{_IPFIX_HEADER.size}",
            )
        _, _length, secs, seq, odid = _IPFIX_HEADER.unpack_from(payload)
        return DatagramHeader(
            version=10,
            exporter_id=odid,
            sequence=seq,
            export_time=secs,
            count=None,
        )
    raise DatagramError("bad_version", f"version {version}")


class FlowBlock:
    """The data records of one data set, still packed.

    ``data`` holds whole records of ``layout`` (set padding and a
    trailing partial record already cut off); ``sampling_interval`` is
    the exporter's effective (announced, else configured) rate, which
    only :meth:`records` consumes.
    """

    __slots__ = ("layout", "data", "rows", "sampling_interval")

    def __init__(
        self, layout: "RecordLayout", data: bytes, sampling_interval: int = 1
    ) -> None:
        self.layout = layout
        self.data = data
        self.rows = len(data) // layout.itemsize
        self.sampling_interval = sampling_interval

    def __len__(self) -> int:
        return self.rows

    @property
    def columns(self):
        """``(10, rows)`` ``uint64``, in flow-file column order."""
        return self.layout.decode(self.data)

    def records(self) -> List[FlowRecord]:
        """The rows as objects — a view over the same decode."""
        return records_from_columns(self.columns, self.sampling_interval)


def records_from_columns(columns, sampling_interval: int = 1):
    """:class:`FlowRecord` objects for the rows of a ten-column array."""
    return [
        FlowRecord(
            FlowKey(src, dst, proto, sport, dport),
            first, last, packets, octets, flags, sampling_interval,
        )
        for first, last, src, dst, proto, sport, dport, packets, octets,
        flags in zip(*columns.tolist())
    ]


def block_columns(blocks: Sequence[FlowBlock]):
    """The rows of ``blocks``, in order, as one ``(10, rows)``
    ``uint64`` array.

    Blocks sharing a layout are joined and decoded by one kernel call;
    with several layouts in play (exporters interleaved on one socket)
    each group's rows are then put back at their blocks' positions.
    """
    groups: Dict[RecordLayout, List[int]] = {}
    for number, block in enumerate(blocks):
        groups.setdefault(block.layout, []).append(number)
    if len(groups) == 1:
        (layout,) = groups
        return layout.decode(b"".join([block.data for block in blocks]))
    counts = np.array([block.rows for block in blocks])
    starts = np.cumsum(counts) - counts
    columns = np.empty((len(FLOW_FILE_COLUMNS), counts.sum()), np.uint64)
    for layout, members in groups.items():
        sizes = counts[members]
        # row ``r`` of the group sits ``r - (rows of the group's earlier
        # blocks)`` into its own block
        positions = np.arange(sizes.sum()) + np.repeat(
            starts[members] - (np.cumsum(sizes) - sizes), sizes
        )
        columns[:, positions] = layout.decode(
            b"".join([blocks[number].data for number in members])
        )
    return columns


class RecordLayout:
    """One template compiled for ``numpy.frombuffer``.

    ``fields`` is the template's ``(field type, length)`` list in wire
    order, ``wanted`` the field type feeding each of the ten columns.
    Only wanted fields are named in the structured dtype (explicit
    offsets, ``itemsize`` = the record length); of a repeated field type
    the last occurrence wins, and a wanted type the template lacks
    leaves its column 0.  A field of 1, 2, 4 or 8 bytes is one
    big-endian word; any other width is cut into such words, most
    significant first, which :meth:`decode` shifts together.
    Bytes beyond the low eight cannot live in a column: when any is set
    the value saturates at ``2**64 - 1`` (validation then rejects the
    row as ``field_overflow``).
    """

    __slots__ = ("fields", "dtype", "itemsize", "parts")

    def __init__(
        self, fields: Sequence[Tuple[int, int]], wanted: Sequence[int]
    ) -> None:
        self.fields = tuple(fields)
        spans: Dict[int, Tuple[int, int]] = {}
        cursor = 0
        for field_type, length in fields:
            spans[field_type] = (cursor, length)
            cursor += length
        names, formats, offsets = [], [], []
        #: per present column: (row, [(word name, its bits)], high name)
        self.parts = []
        for row, field_type in enumerate(wanted):
            if field_type not in spans:
                continue
            start, length = spans[field_type]
            low = min(length, 8)
            high = None
            if length > low:
                high = f"c{row}high"
                names.append(high)
                formats.append(("u1", (length - low,)))
                offsets.append(start)
            at, words = start + length - low, []
            for width in (8, 4, 2, 1):
                if low & width:
                    names.append(f"c{row}w{width}")
                    formats.append(f">u{width}")
                    offsets.append(at)
                    words.append((names[-1], np.uint64(8 * width)))
                    at += width
            self.parts.append((row, words, high))
        self.itemsize = cursor
        # a set's 16-bit length bounds the record it can carry: a longer
        # one never fills a block, so it needs no dtype (numpy caps
        # ``itemsize`` at 2**31); nor does one without a wanted field
        self.dtype = np.dtype(
            {
                "names": names,
                "formats": formats,
                "offsets": offsets,
                "itemsize": cursor,
            }
        ) if names and cursor <= 0xFFFF else None

    def block(self, body: bytes, sampling_interval: int) -> List[FlowBlock]:
        """The whole records of a data set body as (at most) one
        block; a trailing partial record (set padding) is cut off."""
        size = len(body) - len(body) % self.itemsize
        if not size:
            return []
        return [FlowBlock(self, body[:size], sampling_interval)]

    def decode(self, data: bytes):
        """Whole packed records → ``(10, rows)`` ``uint64`` columns."""
        columns = np.zeros(
            (len(FLOW_FILE_COLUMNS), len(data) // self.itemsize), np.uint64
        )
        if not self.parts:
            return columns
        rows = np.frombuffer(data, self.dtype)
        for row, words, high in self.parts:
            column = columns[row]
            column[:] = rows[words[0][0]]
            for name, bits in words[1:]:
                column <<= bits
                column |= rows[name]
            if high is not None:
                column[rows[high].any(axis=1)] = _U64_MAX
        return columns


def learn_templates(
    body: bytes,
    templates: dict,
    wanted: Sequence[int],
    exporter: Optional[int] = None,
    base_offset: int = 0,
) -> List[int]:
    """Parse one template set body (v9 flowset 0 / IPFIX set 2) and
    compile each template into ``templates[id]``; the ids learned."""
    learned: List[int] = []
    offset = 0
    try:
        while offset + _TEMPLATE_HEADER.size <= len(body):
            template_id, field_count = _TEMPLATE_HEADER.unpack_from(
                body, offset
            )
            if template_id == 0:  # set padding
                break
            offset += _TEMPLATE_HEADER.size
            fields = []
            for _ in range(field_count):
                fields.append(_TEMPLATE_HEADER.unpack_from(body, offset))
                offset += 4
            if not fields or any(length == 0 for _, length in fields):
                raise DatagramError(
                    "zero_length_field",
                    f"template {template_id} with {field_count} fields",
                    exporter=exporter,
                    offset=base_offset,
                )
            known = templates.get(template_id)
            if known is None or known.fields != tuple(fields):
                # a re-send of the same template keeps its layout, so
                # blocks before and after it still decode together
                templates[template_id] = RecordLayout(fields, wanted)
            learned.append(template_id)
    except struct.error as exc:
        raise DatagramError(
            "truncated_template",
            f"template set: {exc}",
            exporter=exporter,
            offset=base_offset,
        ) from exc
    return learned


@dataclass
class DecodedDatagram:
    """Everything one export datagram yielded.

    ``blocks`` hold the data records whose templates were known, one
    column block per data set; ``pending`` holds the raw bodies of data
    sets that referenced a template this decoder has not seen yet — a
    collector buffers them (bounded, TTL'd) and re-decodes when the
    template re-send lands.
    """

    header: DatagramHeader
    blocks: List[FlowBlock] = field(default_factory=list)
    #: ``(set id, raw body)`` of data sets without a known template
    pending: List[Tuple[int, bytes]] = field(default_factory=list)
    #: template ids (re)defined by this datagram
    templates_learned: List[int] = field(default_factory=list)
    #: options-template ids (re)defined by this datagram
    options_learned: List[int] = field(default_factory=list)

    @property
    def rows(self) -> int:
        """Data records decoded (what IPFIX sequence numbers count)."""
        return sum(len(block) for block in self.blocks)

    @property
    def flows(self) -> List[FlowRecord]:
        """The decoded records as objects, in wire order."""
        return [
            flow for block in self.blocks for flow in block.records()
        ]
