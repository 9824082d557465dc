"""Ingest quarantine: count, sample, and skip bad flow records.

Real collectors hand the detector truncated NetFlow v9 / IPFIX
packets, half-written flow-file lines, and flows whose tuples are
physically impossible (ports past 65535, timestamps before the epoch,
flows that end before they start).  Raising mid-stream on the first of
15M lines is the wrong failure mode — the paper's pipeline drops the
record, keeps detecting, and reports how much it dropped.

:class:`QuarantineSink` is the accounting: every skipped record is
counted by reason, and the first ``sample_limit`` offenders per reason
are persisted as JSONL so an operator can inspect *what* the collector
is mangling without the sink becoming a second copy of the stream.

:func:`validate_flow_tuple` / :func:`validate_flow_record` are the
semantic checks — they answer "is this flow physically possible?",
returning a reason string (stable, machine-matchable) or ``None``.
"""

from __future__ import annotations

import json
import pathlib
from typing import Dict, Optional, Union

__all__ = [
    "FLOW_COLUMN_MAX",
    "QuarantineSink",
    "validate_flow_record",
    "validate_flow_tuple",
]

_MAX_IP = (1 << 32) - 1
_MAX_PORT = 65535
_MAX_PROTO = 255
_MAX_FLAGS = 0xFF
#: timestamps and counters have no bound of their own, but every
#: consumer downstream (column chunks, the flow-file reader replaying
#: the collector's journal) holds a field in an int64
_MAX_INT64 = (1 << 63) - 1

#: The upper bound :func:`validate_flow_record` puts on each flow-file
#: column (``first, last, src, dst, proto, sport, dport, packets,
#: bytes, flags``), for validators that check whole columns at once.
FLOW_COLUMN_MAX = (
    _MAX_INT64, _MAX_INT64, _MAX_IP, _MAX_IP, _MAX_PROTO,
    _MAX_PORT, _MAX_PORT, _MAX_INT64, _MAX_INT64, _MAX_FLAGS,
)


class QuarantineSink:
    """Counts quarantined records by reason; samples a few to disk.

    ``directory=None`` keeps the sink purely in-memory (counters only).
    With a directory, the first ``sample_limit`` records of each reason
    are appended to ``quarantine.jsonl`` inside it.
    """

    def __init__(
        self,
        directory: Optional[Union[str, pathlib.Path]] = None,
        sample_limit: int = 32,
    ) -> None:
        if sample_limit < 0:
            raise ValueError("sample_limit must be >= 0")
        self.directory = (
            pathlib.Path(directory) if directory is not None else None
        )
        self.sample_limit = sample_limit
        self.counts: Dict[str, int] = {}

    @property
    def total(self) -> int:
        return sum(self.counts.values())

    def record(self, reason: str, payload: object = None) -> None:
        """Account one quarantined record; sample it if under the cap."""
        seen = self.counts.get(reason, 0)
        self.counts[reason] = seen + 1
        if self.directory is None or seen >= self.sample_limit:
            return
        self.directory.mkdir(parents=True, exist_ok=True)
        entry = {"reason": reason, "sample": _printable(payload)}
        with open(self.directory / "quarantine.jsonl", "a") as fh:
            fh.write(json.dumps(entry, sort_keys=True))
            fh.write("\n")

    def to_dict(self) -> Dict[str, object]:
        return {
            "total": self.total,
            "by_reason": dict(sorted(self.counts.items())),
        }


def _printable(payload: object) -> object:
    if payload is None or isinstance(payload, (int, float, str, bool)):
        return payload
    if isinstance(payload, bytes):
        return payload[:64].hex()
    return repr(payload)[:256]


def validate_flow_tuple(
    when: int,
    src_ip: int,
    dst_ip: int,
    protocol: int,
    dst_port: int,
    tcp_flags: int,
) -> Optional[str]:
    """Reason string when the tuple is impossible, else ``None``."""
    if when < 0:
        return "negative_timestamp"
    if when > _MAX_INT64:
        return "field_overflow"
    if not 0 <= src_ip <= _MAX_IP:
        return "bad_src_ip"
    if not 0 <= dst_ip <= _MAX_IP:
        return "bad_dst_ip"
    if not 0 <= protocol <= _MAX_PROTO:
        return "bad_protocol"
    if not 0 <= dst_port <= _MAX_PORT:
        return "bad_port"
    if not 0 <= tcp_flags <= _MAX_FLAGS:
        return "bad_flags"
    return None


def validate_flow_record(record) -> Optional[str]:
    """Reason string when a FlowRecord is impossible, else ``None``."""
    reason = validate_flow_tuple(
        record.first_switched,
        record.src_ip,
        record.dst_ip,
        record.protocol,
        record.dst_port,
        record.tcp_flags,
    )
    if reason is not None:
        return reason
    if not 0 <= record.src_port <= _MAX_PORT:
        return "bad_port"
    if max(record.last_switched, record.packets, record.bytes) > _MAX_INT64:
        return "field_overflow"
    if record.last_switched < record.first_switched:
        return "time_travel"
    if record.packets < 0 or record.bytes < 0:
        return "negative_counts"
    return None
