"""The collector's delivered-set journal: sealed packed-column segments.

Each fold the collector journals is one *segment*, the ten validated
columns of its rows under a sealed file's header line
(:mod:`repro.resilience.sealed`)::

    haystack-journal v1 sha256=<hex> length=<bytes>\\n
    <rows: u4><width code of each column: 10 x u1><2 zero bytes>
    <first> <last> <src> <dst> <proto> <sport> <dport> <packets> ...

Column ``i`` is ``rows`` little-endian words of ``1 << code`` bytes,
the narrowest that holds its maximum in this segment.  This module is
the only code that knows the format.  A crash can tear only the last
segment (:class:`TornSegment`); other damage raises
:class:`JournalError` naming the segment's byte offset.
"""

from __future__ import annotations

import os
import pathlib
import struct
from typing import Iterator, Optional, Sequence

import numpy as np

from repro.resilience.sealed import SealedFileError, parse_header, seal_header

__all__ = [
    "JournalError", "TornSegment", "encode_segment", "is_journal",
    "open_journal", "read_columns", "truncate_journal",
]

_MAGIC, _VERSION = "haystack-journal", 1
_SNIFF = f"{_MAGIC} v".encode("ascii")
_HEADER_MAX = 256  # longer than any header line ``seal_header`` writes
_PREFIX = struct.Struct("<I10B2x")  # rows, ten width codes, padding
_WORDS = tuple(np.dtype(f"<u{1 << code}") for code in range(4))
_DETECTION = (0, 2, 3, 4, 6, 9)  # first, src, dst, proto, dport, flags


class JournalError(ValueError):
    """A journal is damaged (at segment ``offset``) or foreign."""

    def __init__(self, message: str, offset: Optional[int] = None):
        self.offset = offset
        super().__init__(message)


class TornSegment(JournalError):
    """The last segment ends before its header says it does."""


def is_journal(path) -> bool:
    """Whether the file at ``path`` starts like a segment journal."""
    with open(path, "rb") as fh:
        return fh.read(len(_SNIFF)) == _SNIFF


def _refuse_foreign(path: pathlib.Path) -> None:
    if path.exists() and path.stat().st_size and not is_journal(path):
        raise JournalError(
            f"{path} is not a {_MAGIC} v{_VERSION} journal; older "
            "releases wrote text flow journals, which "
            "`repro stream run` still reads but a collector no longer "
            "appends to or resumes — move it aside"
        )


def open_journal(path):
    """The journal at ``path`` opened for appending segments (created,
    with its directory, when absent)."""
    path = pathlib.Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    _refuse_foreign(path)
    return open(path, "ab")


def encode_segment(columns) -> bytes:
    """One sealed segment of a ``(10, rows)`` validated column block."""
    rows = columns.shape[1]
    tops = columns.max(axis=1).tolist() if rows else [0] * 10
    codes = [(t > 0xFF) + (t > 0xFFFF) + (t > 0xFFFFFFFF) for t in tops]
    body = _PREFIX.pack(rows, *codes) + b"".join(
        column.astype(_WORDS[code]).tobytes()
        for column, code in zip(columns, codes)
    )
    return seal_header(_MAGIC, _VERSION, (body,)) + body


def _segments(fh, path, skip: int = 0) -> Iterator[tuple]:
    """``(offset, rows, codes, body)`` per segment; ``body`` verified, or
    ``None`` (unread, prefix checked) wholly inside the first ``skip``."""
    size = os.fstat(fh.fileno()).st_size
    while fh.tell() < size:
        offset = fh.tell()
        where = f"{path}: segment at byte {offset}: "
        line = fh.readline(_HEADER_MAX)
        try:
            if not line.endswith(b"\n"):
                if offset + len(line) == size:
                    raise TornSegment(where + "header line cut short", offset)
                raise SealedFileError("no header line")
            header = parse_header(line[:-1], _MAGIC, _VERSION)
            start = fh.tell()
            if start + header.length > size:
                raise TornSegment(
                    f"{where}body cut short ({size - start} of "
                    f"{header.length} bytes)", offset,
                )
            prefix = fh.read(min(header.length, _PREFIX.size))
            rows, *codes = _PREFIX.unpack(prefix.ljust(_PREFIX.size, b"\0"))
            if max(codes) >= len(_WORDS) or header.length != (
                _PREFIX.size + rows * sum(1 << code for code in codes)
            ):
                raise SealedFileError("column layout does not match length")
            if rows <= skip:
                skip -= rows
                fh.seek(start + header.length)
                yield offset, rows, codes, None
                continue
            skip = 0
            body = header.check(prefix + fh.read(header.length - len(prefix)))
        except SealedFileError as exc:
            raise JournalError(where + str(exc), offset) from exc
        yield offset, rows, codes, body


def _columns(rows, codes, body, fields) -> np.ndarray:
    """``fields`` of a segment, ``(len(fields), rows)`` int64."""
    out = np.empty((len(fields), rows), dtype=np.int64)
    at = _PREFIX.size
    for field, code in enumerate(codes):
        if field in fields:
            out[fields.index(field)] = np.frombuffer(
                body, _WORDS[code], rows, at
            )
        at += rows << code
    return out


def read_columns(
    path, skip: int = 0, fields: Sequence[int] = _DETECTION
) -> Iterator[np.ndarray]:
    """``fields`` of every row past the first ``skip``: one
    ``(len(fields), rows)`` int64 array per segment that has any.  A
    torn last segment raises :class:`TornSegment`."""
    fields = list(fields)
    with open(path, "rb") as fh:
        for _offset, rows, codes, body in _segments(fh, path, skip):
            if body is None:
                skip -= rows
            else:
                yield _columns(rows, codes, body, fields)[:, skip:]
                skip = 0


def truncate_journal(path, records: Optional[int] = None) -> int:
    """Cut the journal (on resume) to its first ``records`` rows — all
    when ``None`` — dropping a torn last segment; returns rows kept.

    The segments are walked (each verified, nothing retained) and the
    file truncated in place at the first surplus or torn one; a cut
    inside a segment re-seals that segment's prefix in its place.
    Nothing is written when there is nothing to cut.
    """
    path = pathlib.Path(path)
    if not path.exists():
        return 0
    _refuse_foreign(path)
    kept, cut, tail = 0, None, b""
    with open(path, "r+b") as fh:
        try:
            for offset, rows, codes, body in _segments(fh, path):
                if records is not None and kept + rows > records:
                    cut, keep = offset, records - kept
                    if keep:
                        columns = _columns(rows, codes, body, list(range(10)))
                        tail = encode_segment(columns[:, :keep])
                    kept = records
                    break
                kept += rows
        except TornSegment as torn:
            cut = torn.offset
        if cut is not None:
            fh.seek(cut)
            fh.truncate()
            fh.write(tail)
            fh.flush()
            os.fsync(fh.fileno())
    return kept
