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

The header line, the digest, the atomic ``.tmp`` → fsync → rename →
directory-fsync write and the newest-valid fallback are
:mod:`repro.resilience.sealed`'s (rule artifacts are the same kind of
file); this module is what makes a sealed file a *checkpoint*: the
packed columns, the format-version refusal a whole directory can raise,
and the ``.tmp``-leftover accounting.
"""

from __future__ import annotations

import json
import logging
import pathlib
import re
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple, Union

from repro.pipeline.state import pack_entries, unpack_entries
from repro.resilience.sealed import (
    SealedFileError,
    list_sealed,
    newest_valid,
    prune_sealed,
    read_sealed,
    write_sealed,
)

__all__ = [
    "CHECKPOINT_MAGIC",
    "CHECKPOINT_VERSION",
    "CheckpointError",
    "CheckpointVersionError",
    "NoUsableCheckpoint",
    "RuleVersionMismatch",
    "LoadedCheckpoint",
    "checkpoint_path",
    "list_checkpoints",
    "write_checkpoint",
    "read_checkpoint",
    "load_latest",
    "tmp_leftover_count",
]

logger = logging.getLogger("repro.stream.checkpoint")

CHECKPOINT_MAGIC = "repro-stream-ckpt"
CHECKPOINT_VERSION = 2

_FILE_RE = re.compile(r"^ckpt-(\d{10})\.json$")
_PathLike = Union[str, pathlib.Path]


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


class NoUsableCheckpoint(CheckpointError):
    """A resume found no checkpoint to continue from (an empty
    directory, or one holding only damaged or ``.tmp`` files)."""


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


def checkpoint_path(directory: _PathLike, seq: int) -> pathlib.Path:
    """The final path of checkpoint number ``seq``."""
    return pathlib.Path(directory) / f"ckpt-{seq:010d}.json"


def list_checkpoints(directory: _PathLike) -> List[Tuple[int, pathlib.Path]]:
    """``(seq, path)`` of every well-named checkpoint, oldest first."""
    return list_sealed(directory, _FILE_RE)


def write_checkpoint(
    directory: _PathLike,
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
    final = checkpoint_path(directory, seq)
    write_sealed(
        final, CHECKPOINT_MAGIC, CHECKPOINT_VERSION, (head, blob), fsync
    )
    prune_sealed(directory, _FILE_RE, keep, spare=final)
    return final


def read_checkpoint(path: _PathLike) -> Dict[str, object]:
    """Parse and validate one checkpoint file.

    Raises :class:`CheckpointError` on any integrity violation.
    """
    try:
        body = read_sealed(path, CHECKPOINT_MAGIC, CHECKPOINT_VERSION)
    except SealedFileError as exc:
        if exc.found_version is not None:
            raise CheckpointVersionError(exc.found_version) from exc
        raise CheckpointError(str(exc)) from exc
    head_end = body.find(b"\n")
    if head_end < 0:
        raise CheckpointError("missing head line")
    try:
        head = json.loads(body[:head_end])
        payload = head["payload"]
        entries = unpack_entries(head["columns"], body, head_end + 1)
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
    """

    seq: int
    payload: Dict[str, object]
    fallbacks: int = 0


def _tmp_leftovers(directory: _PathLike) -> List[pathlib.Path]:
    return sorted(pathlib.Path(directory).glob("ckpt-*.json.tmp"))


def tmp_leftover_count(directory: _PathLike) -> int:
    """Leftover ``.tmp`` checkpoint files from interrupted writes.

    To :func:`load_latest` a directory holding *only* such leftovers
    is an empty one (``None``); to a lineage audit it is a worker that
    died mid-first-checkpoint, not a fresh start — callers falling back
    to a fresh engine surface this count
    (``StreamMetrics.tmp_only_fallbacks``).
    """
    return len(_tmp_leftovers(directory))


def load_latest(directory: _PathLike) -> Optional[LoadedCheckpoint]:
    """The newest *valid* checkpoint with fallback accounting.

    Invalid files (truncated, corrupt, another format version) and
    leftover ``.tmp`` files from an interrupted write are reported with
    a warning and skipped — the reader falls back to the previous
    checkpoint rather than crashing, and records how many generations
    it skipped in :attr:`LoadedCheckpoint.fallbacks`.  A directory with
    only ``.tmp`` leftovers returns ``None`` like an empty one; use
    :func:`tmp_leftover_count` to tell the two apart.  When *every*
    candidate was refused for its format version — a directory another
    release wrote — that :class:`CheckpointVersionError` is raised:
    "no usable checkpoint" would send the operator looking for damage
    that is not there.
    """
    for leftover in _tmp_leftovers(directory):
        logger.warning(
            "ignoring partially-written checkpoint temp file %s "
            "(interrupted write)",
            leftover.name,
        )
    found, skipped = newest_valid(
        directory, _FILE_RE, read_checkpoint, CheckpointError,
        logger.warning,
    )
    if found is not None:
        return LoadedCheckpoint(*found, fallbacks=len(skipped))
    if skipped and all(
        isinstance(exc, CheckpointVersionError) for exc in skipped
    ):
        raise skipped[0]
    return None
