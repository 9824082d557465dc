"""Text flow files (nfdump-style CSV).

Operators rarely work on live exports; they run detection over flow
*files* dumped by collectors.  This module writes and reads a compact
CSV representation of :class:`~repro.netflow.records.FlowRecord`
streams — one record per line, stable column order, a comment header
carrying the sampling interval — so detection can run offline:

    write_flow_file(path, flows, sampling_interval=100)
    for flow in read_flow_file(path):
        detector.observe_flow(flow.src_ip, flow)

The format is deliberately line-oriented and append-friendly (a
collector can rotate files hourly the way nfcapd does).
"""

from __future__ import annotations

import io
import pathlib
from typing import IO, Iterable, Iterator, List, Optional, Union

from repro.cloud.addressing import ip_to_str
from repro.netflow.parse import (
    FLOW_FILE_COLUMNS,
    SHARED_PARSER,
    FlowLineParser,
)
from repro.netflow.records import FlowRecord

__all__ = [
    "FLOW_FILE_COLUMNS",
    "write_flow_file",
    "read_flow_file",
    "format_flow",
    "parse_flow_line",
]

_HEADER_PREFIX = "# haystack-flows v1"


def format_flow(flow: FlowRecord) -> str:
    """One CSV line for a flow record."""
    return ",".join(
        (
            str(flow.first_switched),
            str(flow.last_switched),
            ip_to_str(flow.src_ip),
            ip_to_str(flow.dst_ip),
            str(flow.protocol),
            str(flow.src_port),
            str(flow.dst_port),
            str(flow.packets),
            str(flow.bytes),
            f"0x{flow.tcp_flags:02x}",
        )
    )


def parse_flow_line(
    line: str,
    sampling_interval: int = 1,
    parser: Optional[FlowLineParser] = None,
) -> FlowRecord:
    """Parse one CSV line back into a flow record.

    Parsing goes through the shared memoised
    :class:`~repro.netflow.parse.FlowLineParser` — the same
    implementation the stream fast path uses — so both paths agree on
    the column contract and error message.
    """
    parser = parser if parser is not None else SHARED_PARSER
    return parser.record(
        parser.split(line.strip()), sampling_interval
    )


def write_flow_file(
    target: Union[str, pathlib.Path, IO[str]],
    flows: Iterable[FlowRecord],
    sampling_interval: int = 1,
) -> int:
    """Write flows to a file (or text stream); returns the record count.

    The header comment records the sampling interval so a reader can
    restore wire estimates without out-of-band configuration.
    """
    owns = isinstance(target, (str, pathlib.Path))
    stream: IO[str] = (
        open(target, "w", encoding="ascii") if owns else target
    )
    count = 0
    try:
        stream.write(
            f"{_HEADER_PREFIX} sampling={sampling_interval}\n"
        )
        stream.write("# " + ",".join(FLOW_FILE_COLUMNS) + "\n")
        for flow in flows:
            stream.write(format_flow(flow) + "\n")
            count += 1
    finally:
        if owns:
            stream.close()
    return count


def read_flow_file(
    source: Union[str, pathlib.Path, IO[str]],
) -> Iterator[FlowRecord]:
    """Stream flow records from a file (or text stream).

    The sampling interval is taken from the header; unknown comment
    lines are skipped, malformed data lines raise.
    """
    owns = isinstance(source, (str, pathlib.Path))
    stream: IO[str] = (
        open(source, "r", encoding="ascii") if owns else source
    )
    sampling_interval = 1
    try:
        for line in stream:
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                if line.startswith(_HEADER_PREFIX):
                    for token in line.split():
                        if token.startswith("sampling="):
                            sampling_interval = int(
                                token.partition("=")[2]
                            )
                continue
            yield parse_flow_line(line, sampling_interval)
    finally:
        if owns:
            stream.close()
