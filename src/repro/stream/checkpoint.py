"""Crash-safe stream checkpoints.

A checkpoint is one file::

    repro-stream-ckpt v2 sha256=<hex> length=<bytes>\\n
    <compact JSON head>\\n
    <packed columns>

``sha256`` and ``length`` cover everything after the header line.  The
head is the payload's small fields (config, counters, rules, watermark,
sink position, lineage, each table's scalars) as one JSON object; the
``entries`` of every state table — all the bulk — follow as packed
little-endian columns (:func:`repro.pipeline.state.pack_entries`), and
:func:`read_checkpoint` puts them back, so what it returns is exactly
the payload :func:`write_checkpoint` was given.  A file of another
format version is refused (:class:`CheckpointVersionError`), never
migrated.

The file is written atomically: the bytes go to a ``.tmp`` sibling first, are
fsynced, and only then renamed over the final name (``os.replace`` is
atomic on POSIX), after which the *directory* is fsynced too — the
rename itself lives in directory metadata, and without that second
fsync a power cut can roll the directory back to before the rename
even though the data blocks hit the platter.  A crash therefore leaves
either the previous checkpoint intact or a ``.tmp`` leftover — never a
half-written final file.  The header makes the remaining failure modes (truncation on a
dying disk, a foreign or future file format) detectable: the reader
verifies magic, version, payload length and SHA-256 digest and falls
back to the previous checkpoint with a logged warning on any mismatch.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import pathlib
import re
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple, Union

from repro.pipeline.state import pack_entries, unpack_entries

__all__ = [
    "CHECKPOINT_MAGIC",
    "CHECKPOINT_VERSION",
    "CheckpointError",
    "CheckpointVersionError",
    "RuleVersionMismatch",
    "LoadedCheckpoint",
    "checkpoint_path",
    "list_checkpoints",
    "write_checkpoint",
    "read_checkpoint",
    "latest_checkpoint",
    "load_latest",
    "tmp_leftover_count",
]

logger = logging.getLogger("repro.stream.checkpoint")

CHECKPOINT_MAGIC = "repro-stream-ckpt"
CHECKPOINT_VERSION = 2

_FILE_RE = re.compile(r"^ckpt-(\d{10})\.json$")
_HEADER_RE = re.compile(
    r"^(?P<magic>[\w.-]+) v(?P<version>\d+) "
    r"sha256=(?P<digest>[0-9a-f]{64}) length=(?P<length>\d+)$"
)


class CheckpointError(ValueError):
    """A checkpoint file failed validation (corrupt, truncated, …)."""


class CheckpointVersionError(CheckpointError):
    """A checkpoint was written in a format this release does not read.

    Formats are not migrated: the run that wrote the file is finished,
    or restarted, with the release that wrote it.
    """

    def __init__(self, found: int) -> None:
        self.found = found
        super().__init__(
            f"checkpoint format version {found} is not the version "
            f"{CHECKPOINT_VERSION} this release reads and writes; "
            f"finish or restart that run with the release that wrote "
            f"it (formats are not migrated)"
        )


class RuleVersionMismatch(CheckpointError):
    """A checkpoint was taken under a different rule generation.

    Evidence windows in a checkpoint are only meaningful under the
    rule set that accumulated them, so resuming under a different
    generation silently mixes semantics.  The processor refuses unless
    the caller explicitly opts into the migration path.
    """

    def __init__(self, checkpoint_version: int, active_version: int) -> None:
        self.checkpoint_version = checkpoint_version
        self.active_version = active_version
        super().__init__(
            f"checkpoint was written under rules version "
            f"{checkpoint_version} but the active rules are version "
            f"{active_version}; resume with the matching artifact "
            f"(VersionedRuleStore.load_version({checkpoint_version})) "
            f"or pass migrate_rules=True (CLI: --migrate-rules) to "
            f"migrate the checkpointed evidence to the new generation"
        )


def checkpoint_path(
    directory: Union[str, pathlib.Path], seq: int
) -> pathlib.Path:
    """The final path of checkpoint number ``seq``."""
    return pathlib.Path(directory) / f"ckpt-{seq:010d}.json"


def list_checkpoints(
    directory: Union[str, pathlib.Path]
) -> List[Tuple[int, pathlib.Path]]:
    """``(seq, path)`` of every well-named checkpoint, oldest first."""
    directory = pathlib.Path(directory)
    if not directory.is_dir():
        return []
    found = []
    for path in directory.iterdir():
        match = _FILE_RE.match(path.name)
        if match:
            found.append((int(match.group(1)), path))
    found.sort()
    return found


def write_checkpoint(
    directory: Union[str, pathlib.Path],
    seq: int,
    payload: Dict[str, object],
    keep: int = 3,
    fsync: bool = True,
) -> pathlib.Path:
    """Atomically persist ``payload`` as checkpoint ``seq``.

    Keeps the newest ``keep`` checkpoints and prunes older ones (the
    retained history is what corrupt-latest fallback recovers from).
    The ``entries`` of each document under ``payload["tables"]`` may be
    any iterable of entry states and is consumed once; everything else
    must be JSON-serialisable.
    """
    directory = pathlib.Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    tables = payload.get("tables", ())
    columns, blob = pack_entries(tables)  # type: ignore[arg-type]
    small = dict(payload)
    if tables:
        small["tables"] = [
            {**table, "entries": None} for table in tables  # type: ignore[union-attr]
        ]
    head = json.dumps(
        {"payload": small, "columns": columns},
        sort_keys=True,
        separators=(",", ":"),
    ).encode("utf-8") + b"\n"
    digest = hashlib.sha256(head)
    digest.update(blob)
    header = (
        f"{CHECKPOINT_MAGIC} v{CHECKPOINT_VERSION} "
        f"sha256={digest.hexdigest()} length={len(head) + len(blob)}\n"
    ).encode("ascii")
    final = checkpoint_path(directory, seq)
    temp = final.with_suffix(final.suffix + ".tmp")
    with open(temp, "wb") as fh:
        fh.write(header)
        fh.write(head)
        fh.write(blob)
        fh.flush()
        if fsync:
            os.fsync(fh.fileno())
    os.replace(temp, final)
    if fsync:
        _fsync_directory(directory)
    for _seq, stale in list_checkpoints(directory)[: -keep or None]:
        if stale != final:
            stale.unlink(missing_ok=True)
    return final


def _fsync_directory(directory: pathlib.Path) -> None:
    """Make the ``os.replace`` rename itself durable.

    Directory fds can't be opened on some filesystems (or at all on
    some platforms); failing to sync is then a durability downgrade,
    not an error — the checkpoint content is already fsynced.
    """
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


def read_checkpoint(
    path: Union[str, pathlib.Path]
) -> Dict[str, object]:
    """Parse and validate one checkpoint file.

    Raises :class:`CheckpointError` on any integrity violation.
    """
    path = pathlib.Path(path)
    try:
        raw = path.read_bytes()
    except OSError as exc:
        raise CheckpointError(f"unreadable: {exc}") from exc
    newline = raw.find(b"\n")
    if newline < 0:
        raise CheckpointError("missing header line")
    try:
        header = raw[:newline].decode("ascii")
    except UnicodeDecodeError as exc:
        raise CheckpointError("undecodable header") from exc
    match = _HEADER_RE.match(header)
    if not match:
        raise CheckpointError(f"malformed header {header!r}")
    if match.group("magic") != CHECKPOINT_MAGIC:
        raise CheckpointError(f"wrong magic {match.group('magic')!r}")
    version = int(match.group("version"))
    if version != CHECKPOINT_VERSION:
        raise CheckpointVersionError(version)
    start = newline + 1
    length = int(match.group("length"))
    if len(raw) - start != length:
        raise CheckpointError(
            f"payload is {len(raw) - start} bytes, header says {length} "
            "(truncated or padded)"
        )
    body = memoryview(raw)[start:]
    if hashlib.sha256(body).hexdigest() != match.group("digest"):
        raise CheckpointError("payload digest mismatch")
    head_end = raw.find(b"\n", start)
    if head_end < 0:
        raise CheckpointError("missing head line")
    try:
        head = json.loads(raw[start:head_end])
        payload = head["payload"]
        entries = unpack_entries(head["columns"], raw, head_end + 1)
        tables = payload.get("tables", ())
        if len(tables) != len(entries):
            raise ValueError(
                f"{len(tables)} tables, columns for {len(entries)}"
            )
        for table, restored in zip(tables, entries):
            table["entries"] = restored
    except (ValueError, LookupError, TypeError, AttributeError) as exc:
        raise CheckpointError(f"malformed payload: {exc!r}") from exc
    return payload


@dataclass(frozen=True)
class LoadedCheckpoint:
    """What :func:`load_latest` recovered, and how hard it had to try.

    ``fallbacks`` counts the newer-but-damaged generations skipped
    before ``seq`` validated — the number the stream metrics surface as
    ``checkpoints.fallbacks`` so silent fallback is visible.
    ``tmp_leftovers`` counts ``.tmp`` siblings from interrupted writes
    that were present alongside (they never validate, so they are not
    fallbacks, but a lineage audit wants to know a write was torn).
    """

    seq: int
    payload: Dict[str, object]
    fallbacks: int = 0
    tmp_leftovers: int = 0


def tmp_leftover_count(directory: Union[str, pathlib.Path]) -> int:
    """Leftover ``.tmp`` checkpoint files from interrupted writes.

    A directory holding *only* such leftovers is indistinguishable from
    an empty one to :func:`load_latest` (both return ``None``) — but to
    a lineage audit they mean very different things: a fresh start
    versus a worker that died mid-first-checkpoint.  Callers that fall
    back to a fresh engine use this count to surface the difference
    (``StreamMetrics.tmp_only_fallbacks``).
    """
    directory = pathlib.Path(directory)
    if not directory.is_dir():
        return 0
    return sum(1 for _ in directory.glob("ckpt-*.json.tmp"))


def load_latest(
    directory: Union[str, pathlib.Path]
) -> Optional[LoadedCheckpoint]:
    """The newest *valid* checkpoint with fallback accounting.

    Invalid files (truncated, corrupt, another format version) and
    leftover ``.tmp`` files from an interrupted write are reported with
    a warning and skipped — the reader falls back to the previous
    checkpoint rather than crashing, and records how many generations
    it skipped in :attr:`LoadedCheckpoint.fallbacks` (and how many
    torn-write leftovers it saw in
    :attr:`LoadedCheckpoint.tmp_leftovers`).  A directory with only
    ``.tmp`` leftovers returns ``None`` like an empty one; use
    :func:`tmp_leftover_count` to tell the two apart.  When *every*
    candidate was refused for its format version — a directory another
    release wrote — that :class:`CheckpointVersionError` is raised:
    "no usable checkpoint" would send the operator looking for damage
    that is not there.
    """
    directory = pathlib.Path(directory)
    leftovers = 0
    if directory.is_dir():
        for leftover in sorted(directory.glob("ckpt-*.json.tmp")):
            leftovers += 1
            logger.warning(
                "ignoring partially-written checkpoint temp file %s "
                "(interrupted write)",
                leftover.name,
            )
    fallbacks = 0
    refusals: List[CheckpointVersionError] = []
    for seq, path in reversed(list_checkpoints(directory)):
        try:
            return LoadedCheckpoint(
                seq, read_checkpoint(path), fallbacks, leftovers
            )
        except CheckpointError as exc:
            fallbacks += 1
            if isinstance(exc, CheckpointVersionError):
                refusals.append(exc)
            logger.warning(
                "checkpoint %s unusable (%s); falling back to the "
                "previous one",
                path.name,
                exc,
            )
    if refusals and len(refusals) == fallbacks:
        raise refusals[0]
    return None


def latest_checkpoint(
    directory: Union[str, pathlib.Path]
) -> Optional[Tuple[int, Dict[str, object]]]:
    """The newest valid ``(seq, payload)``, or ``None``.

    Compatibility wrapper over :func:`load_latest`, which additionally
    reports how many damaged generations were skipped.
    """
    loaded = load_latest(directory)
    if loaded is None:
        return None
    return loaded.seq, loaded.payload
