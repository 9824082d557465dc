"""Detection events and the sinks that persist them — the Sink stage.

A :class:`DetectionEvent` is emitted the moment a key's evidence
completes a rule chain.  The event log is the flow pipeline's *output
contract*: the stream path's kill/resume guarantee is stated over its
bytes, so the line format is canonical (compact JSON, sorted keys) and
sinks support truncation back to a checkpointed position — on resume
the engine truncates the log to the last checkpoint and re-emits,
byte-identical.  Every assembly (batch replay, stream, IXP tap) emits
through the same sinks, so downstream consumers read one format.
"""

from __future__ import annotations

import functools
import json
import os
import pathlib
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii
from typing import Iterable, List, Tuple, Union

__all__ = [
    "DetectionEvent",
    "MemoryEventSink",
    "JsonlEventSink",
    "read_event_log",
]


@functools.lru_cache(maxsize=4096)
def _quoted(text: str) -> str:
    """``json.dumps(text)`` for a class name or fqdn.

    Those come from the rule set (tens of classes, hundreds of domains),
    so the cache stays far below its bound; subscribers and whole
    ``matched_domains`` tuples are unbounded and never pass through it.
    """
    return encode_basestring_ascii(text)


@dataclass(frozen=True)
class DetectionEvent:
    """One online detection: a rule chain completed for a subscriber."""

    subscriber: str  # anonymised line digest (never a raw identifier)
    class_name: str
    detected_at: int  # epoch seconds the chain first held
    record_index: int  # stream position of the completing record
    matched_domains: Tuple[str, ...] = ()

    def to_line(self) -> str:
        """Canonical one-line serialisation (stable across runs).

        Compact JSON with sorted keys — byte for byte what
        ``json.dumps(..., sort_keys=True, separators=(",", ":"))``
        renders — assembled from the quoted parts.
        """
        return (
            f'{{"class":{_quoted(self.class_name)}'
            f',"detected_at":{self.detected_at}'
            f',"matched_domains":'
            f'[{",".join(map(_quoted, self.matched_domains))}]'
            f',"record_index":{self.record_index}'
            f',"subscriber":{encode_basestring_ascii(self.subscriber)}}}'
        )

    @classmethod
    def from_line(cls, line: str) -> "DetectionEvent":
        data = json.loads(line)
        return cls(
            subscriber=data["subscriber"],
            class_name=data["class"],
            detected_at=int(data["detected_at"]),
            record_index=int(data["record_index"]),
            matched_domains=tuple(data["matched_domains"]),
        )


class MemoryEventSink:
    """In-process sink (tests, library use): events kept in a list."""

    def __init__(self) -> None:
        self.events: List[DetectionEvent] = []

    def append(self, event: DetectionEvent) -> None:
        self.events.append(event)

    def extend(self, events: Iterable[DetectionEvent]) -> None:
        self.events.extend(events)

    def position(self) -> int:
        """Opaque resume position — here the event count."""
        return len(self.events)

    def truncate_to(self, position: int) -> None:
        del self.events[position:]

    def flush(self, sync: bool = False) -> None:
        pass  # interface parity with JsonlEventSink

    def close(self) -> None:
        pass


class JsonlEventSink:
    """Append-only JSONL event log with checkpoint-aligned truncation.

    Positions are byte offsets (the file is opened in binary mode so
    they are exact).  ``truncate_to`` discards any suffix written after
    a checkpoint — including a partial line from a crash mid-write —
    which is what makes resumed output byte-identical.
    """

    def __init__(
        self,
        path: Union[str, pathlib.Path],
        resume: bool = False,
    ) -> None:
        """Open the log; ``resume=True`` preserves existing content.

        A resuming engine truncates the preserved log back to the
        checkpointed position itself (:meth:`truncate_to`) — the sink
        must not guess where that is.
        """
        self.path = pathlib.Path(path)
        resuming = resume and self.path.exists()
        self._fh = open(self.path, "r+b" if resuming else "wb")
        if resuming:
            self._fh.seek(0, os.SEEK_END)

    def append(self, event: DetectionEvent) -> None:
        self.extend((event,))

    def extend(self, events: Iterable[DetectionEvent]) -> None:
        """Append ``events`` with one encode and one write."""
        self._fh.write(
            "".join(
                [event.to_line() + "\n" for event in events]
            ).encode("utf-8")
        )

    def position(self) -> int:
        """Byte offset after everything appended so far (flushed)."""
        self._fh.flush()
        return self._fh.tell()

    def truncate_to(self, position: int) -> None:
        self._fh.flush()
        self._fh.truncate(position)
        self._fh.seek(position)

    def flush(self, sync: bool = False) -> None:
        self._fh.flush()
        if sync:
            os.fsync(self._fh.fileno())

    def close(self) -> None:
        self._fh.flush()
        self._fh.close()

    def __enter__(self) -> "JsonlEventSink":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def read_event_log(path: Union[str, pathlib.Path]) -> List[DetectionEvent]:
    """Parse a JSONL event log back into events (analysis helper)."""
    events = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                events.append(DetectionEvent.from_line(line))
    return events
