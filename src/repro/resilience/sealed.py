"""Sealed files: the crash-safe generation file, written once.

Stream checkpoints (:mod:`repro.stream.checkpoint`) and rule artifacts
(:mod:`repro.rules.lifecycle`) are both *generations*: numbered files
in a directory, the newest valid one wins, older ones are pruned.  This
module is what such a file is — substrate, importing nothing from
``pipeline``, ``stream``, ``rules``, ``collector`` or ``fleet``::

    <magic> v<version> sha256=<hex> length=<bytes>\\n
    <body>

``sha256`` and ``length`` cover everything after the header line.  The
bytes go to a ``<name>.tmp`` sibling, are fsynced, and only then renamed
over the final name (``os.replace`` is atomic on POSIX), after which
the *directory* is fsynced too — the rename lives in directory
metadata, and without that a power cut can roll it back even though
the data blocks hit the platter.  A crash therefore leaves the previous
file intact or a ``.tmp`` leftover, never a half-written final file;
truncation on a dying disk and foreign or future formats are caught by
the reader (magic, version, length, digest), and :func:`newest_valid`
falls back past damaged generations, counting them.
"""

from __future__ import annotations

import hashlib
import os
import pathlib
import re
from typing import Callable, List, Optional, Pattern, Sequence, Tuple
from typing import Type, TypeVar, Union

__all__ = [
    "SealedFileError",
    "write_sealed",
    "read_sealed",
    "list_sealed",
    "newest_valid",
    "prune_sealed",
]

T = TypeVar("T")
_PathLike = Union[str, pathlib.Path]

_HEADER_RE = re.compile(
    r"^(?P<magic>[\w.-]+) v(?P<version>\d+) "
    r"sha256=(?P<digest>[0-9a-f]{64}) length=(?P<length>\d+)$"
)


class SealedFileError(ValueError):
    """A sealed file failed validation (corrupt, truncated, foreign);
    ``found_version`` is set when it is a well-formed file of *another*
    format version — a refusal, not damage."""

    def __init__(self, message: str, found_version: Optional[int] = None):
        self.found_version = found_version
        super().__init__(message)


def write_sealed(
    path: _PathLike,
    magic: str,
    version: int,
    parts: Sequence[bytes],
    fsync: bool = True,
) -> None:
    """Atomically write ``parts`` (the body, in order) under a header."""
    path = pathlib.Path(path)
    digest = hashlib.sha256()
    for part in parts:
        digest.update(part)
    header = (
        f"{magic} v{version} sha256={digest.hexdigest()} "
        f"length={sum(map(len, parts))}\n"
    ).encode("ascii")
    temp = path.with_name(path.name + ".tmp")
    with open(temp, "wb") as fh:
        fh.write(header)
        for part in parts:
            fh.write(part)
        fh.flush()
        if fsync:
            os.fsync(fh.fileno())
    os.replace(temp, path)
    if fsync:
        _fsync_directory(path.parent)


def _fsync_directory(directory: pathlib.Path) -> None:
    """Make the rename itself durable.  Directory fds can't be opened
    on some filesystems or platforms; failing to sync is a durability
    downgrade, not an error — the file content is already fsynced."""
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


def read_sealed(path: _PathLike, magic: str, version: int) -> bytes:
    """The verified body of one sealed file; :class:`SealedFileError`
    on any integrity violation."""
    try:
        raw = pathlib.Path(path).read_bytes()
    except OSError as exc:
        raise SealedFileError(f"unreadable: {exc}") from exc
    newline = raw.find(b"\n")
    if newline < 0:
        raise SealedFileError("missing header line")
    try:
        header = raw[:newline].decode("ascii")
    except UnicodeDecodeError as exc:
        raise SealedFileError("undecodable header") from exc
    match = _HEADER_RE.match(header)
    if not match:
        raise SealedFileError(f"malformed header {header!r}")
    if match.group("magic") != magic:
        raise SealedFileError(f"wrong magic {match.group('magic')!r}")
    found = int(match.group("version"))
    if found != version:
        raise SealedFileError(
            f"format version {found}, not {version}", found_version=found
        )
    body = raw[newline + 1 :]
    length = int(match.group("length"))
    if len(body) != length:
        raise SealedFileError(
            f"payload is {len(body)} bytes, header says {length} "
            "(truncated or padded)"
        )
    if hashlib.sha256(body).hexdigest() != match.group("digest"):
        raise SealedFileError("payload digest mismatch")
    return body


def list_sealed(
    directory: _PathLike, pattern: Pattern[str]
) -> List[Tuple[int, pathlib.Path]]:
    """``(number, path)`` of every file whose name matches ``pattern``
    (group 1 = the generation number), oldest first."""
    directory = pathlib.Path(directory)
    if not directory.is_dir():
        return []
    found = []
    for path in directory.iterdir():
        match = pattern.match(path.name)
        if match:
            found.append((int(match.group(1)), path))
    found.sort()
    return found


def newest_valid(
    directory: _PathLike,
    pattern: Pattern[str],
    read: Callable[[pathlib.Path], T],
    error: Type[Exception],
    warn: Callable[..., None],
) -> Tuple[Optional[Tuple[int, T]], List[Exception]]:
    """``(number, read(path))`` of the newest generation that reads
    back (``None`` when none does), and what ``read`` raised (an
    ``error``) on each newer one — the fallbacks, each reported through
    ``warn`` (a logger's ``warning``)."""
    skipped: List[Exception] = []
    for number, path in reversed(list_sealed(directory, pattern)):
        try:
            return (number, read(path)), skipped
        except error as exc:
            skipped.append(exc)
            warn(
                "%s unusable (%s); falling back to the previous one",
                path.name,
                exc,
            )
    return None, skipped


def prune_sealed(
    directory: _PathLike,
    pattern: Pattern[str],
    keep: int,
    spare: Optional[pathlib.Path] = None,
) -> None:
    """Delete all but the newest ``keep`` generations (never ``spare``)."""
    for _number, stale in list_sealed(directory, pattern)[: -keep or None]:
        if stale != spare:
            stale.unlink(missing_ok=True)
