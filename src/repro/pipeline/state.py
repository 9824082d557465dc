"""Bounded per-key evidence state for the Detect stage.

An online assembly must survive an unending feed from millions of keys
(subscriber lines at an ISP, addresses at an IXP), so per-key state
lives in a fixed-size table: least-recently
-active subscribers are evicted when the table is full (LRU), and
subscribers idle longer than a TTL are evicted as the event-time
watermark advances.  Eviction forgets evidence — a later re-appearance
of the subscriber starts from scratch and may re-emit a detection; the
counters make that trade-off observable.

Everything here is deterministic: eviction depends only on the record
stream (timestamps and arrival order), never on wall-clock, so a
resumed run behaves bit-identically to an uninterrupted one.
"""

from __future__ import annotations

import re
from collections import OrderedDict
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

import numpy as np

from repro.core.detector import SubscriberProgress

__all__ = ["EvidenceStateTable", "pack_entries", "unpack_entries"]


class EvidenceStateTable:
    """LRU/TTL-evicted map of subscriber digest → evidence progress."""

    def __init__(
        self,
        max_subscribers: int,
        ttl_seconds: Optional[int] = None,
    ) -> None:
        if max_subscribers <= 0:
            raise ValueError("max_subscribers must be positive")
        if ttl_seconds is not None and ttl_seconds <= 0:
            raise ValueError("ttl_seconds must be positive when set")
        self.max_subscribers = max_subscribers
        self.ttl_seconds = ttl_seconds
        #: subscriber digest -> [last_active, SubscriberProgress],
        #: ordered least- to most-recently active.
        self._entries: "OrderedDict[str, List[object]]" = OrderedDict()
        self.evicted_lru = 0
        self.evicted_ttl = 0
        #: entries shed by a memory-pressure shrink (see :meth:`shrink`)
        self.evicted_pressure = 0
        #: true once :meth:`shrink` reduced the bound — overflow
        #: evictions are then *caused* by pressure, and charged to it
        self.pressure_reduced = False
        #: digests evicted under a pressure-reduced bound since the
        #: owner last drained this list (shed accounting)
        self.pressure_evicted: List[str] = []
        #: event-time high watermark driving TTL expiry
        self._clock = 0

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, digest: str) -> bool:
        return digest in self._entries

    def touch(self, digest: str, now: int) -> SubscriberProgress:
        """The subscriber's progress, created on first sight.

        Marks the subscriber most-recently active, advances the TTL
        clock, and evicts (TTL first, then LRU overflow) as needed.
        """
        if now > self._clock:
            self._clock = now
        entries = self._entries
        entry = entries.get(digest)
        if entry is None:
            entry = [now, SubscriberProgress()]
            entries[digest] = entry
        else:
            if now > entry[0]:  # type: ignore[operator]
                entry[0] = now
            entries.move_to_end(digest)
        if self.ttl_seconds is not None:
            self.expire(self._clock)
        while len(entries) > self.max_subscribers:
            evicted, _ = entries.popitem(last=False)
            if self.pressure_reduced:
                self.evicted_pressure += 1
                self.pressure_evicted.append(evicted)
            else:
                self.evicted_lru += 1
        return entry[1]  # type: ignore[return-value]

    def expire(self, watermark: int) -> int:
        """Evict subscribers idle past the TTL at ``watermark``."""
        if self.ttl_seconds is None:
            return 0
        horizon = watermark - self.ttl_seconds
        evicted = 0
        # Entries are in last-active order, oldest first; stop at the
        # first survivor.
        while self._entries:
            digest, entry = next(iter(self._entries.items()))
            if entry[0] >= horizon:  # type: ignore[operator]
                break
            del self._entries[digest]
            evicted += 1
        self.evicted_ttl += evicted
        return evicted

    def shrink(self, new_max: int) -> List[str]:
        """Reduce the table bound (memory pressure), never growing it.

        Least-recently-active entries beyond the new bound are evicted
        immediately; the evicted digests are returned so the caller
        can account exactly *whose* evidence was shed.  Shrinking is
        part of the table's state, so a checkpoint taken afterwards
        restores the reduced bound on resume.
        """
        if new_max < 1:
            raise ValueError("new_max must be >= 1")
        if new_max < self.max_subscribers:
            self.max_subscribers = new_max
            self.pressure_reduced = True
        evicted: List[str] = []
        while len(self._entries) > self.max_subscribers:
            digest, _entry = self._entries.popitem(last=False)
            evicted.append(digest)
        self.evicted_pressure += len(evicted)
        return evicted

    def progress_of(self, digest: str) -> Optional[SubscriberProgress]:
        """The subscriber's progress without touching LRU order."""
        entry = self._entries.get(digest)
        return entry[1] if entry is not None else None  # type: ignore[return-value]

    def progress_items(self):
        """Iterate ``(digest, progress)`` without touching LRU order.

        The rule-swap migration pass (:func:`repro.pipeline.swap.
        migrate_table`) walks every entry through this; mutating the
        yielded progress objects is allowed, inserting or evicting
        while iterating is not.
        """
        for digest, entry in self._entries.items():
            yield digest, entry[1]

    def absorb(self, state: Dict[str, object]) -> int:
        """Merge a peer table's checkpointed entries into this one.

        The fleet rebalance path: when a worker is quarantined its last
        checkpoint's evidence migrates into the ring successor's live
        table.  Ring assignment keys every subscriber to exactly one
        worker, so the incoming digests are disjoint from the resident
        ones; a collision (possible only after an eviction re-keyed
        history) keeps the resident entry — the successor's view is
        newer.  Entries arrive in the peer's LRU order and are appended
        *before* re-sorting recency: absorbed evidence is older than
        anything the successor folded since the peer checkpointed, so
        it must sit on the eviction-first side of the order.  The TTL
        clock advances to the peer's so expiry never moves backwards.
        Returns the entries absorbed.
        """
        absorbed = 0
        resident = self._entries
        merged: "OrderedDict[str, List[object]]" = OrderedDict()
        for digest, entry in _decoded(state["entries"]):  # type: ignore[arg-type]
            if digest in resident:
                continue
            merged[digest] = entry
            absorbed += 1
        merged.update(resident)
        self._entries = merged
        self._clock = max(self._clock, int(state["clock"]))  # type: ignore[arg-type]
        return absorbed

    # -- checkpoint support -------------------------------------------

    def scalar_state(self) -> Dict[str, object]:
        """Everything of :meth:`to_state` but the entries."""
        return {
            "max_subscribers": self.max_subscribers,
            "ttl_seconds": self.ttl_seconds,
            "clock": self._clock,
            "evicted_lru": self.evicted_lru,
            "evicted_ttl": self.evicted_ttl,
            "evicted_pressure": self.evicted_pressure,
            "pressure_reduced": self.pressure_reduced,
        }

    def entry_states(self) -> Iterator[list]:
        """``[digest, last_active, progress state]`` per entry, in LRU
        order, each built as it is consumed.

        A checkpoint packs these one at a time (see
        :func:`pack_entries`): a materialised list is five containers
        per subscriber that all stay alive until the file is written,
        which the cycle collector answers with full-heap passes that
        cost more than building them.
        """
        for digest, entry in self._entries.items():
            yield [digest, int(entry[0]), entry[1].to_state()]  # type: ignore[union-attr, call-overload]

    def to_state(self) -> Dict[str, object]:
        """JSON-serialisable snapshot preserving LRU order."""
        state = self.scalar_state()
        state["entries"] = list(self.entry_states())
        return state

    @classmethod
    def from_state(cls, state: Dict[str, object]) -> "EvidenceStateTable":
        table = cls(
            max_subscribers=int(state["max_subscribers"]),  # type: ignore[arg-type]
            ttl_seconds=(
                int(state["ttl_seconds"])  # type: ignore[arg-type]
                if state["ttl_seconds"] is not None
                else None
            ),
        )
        table._clock = int(state["clock"])  # type: ignore[arg-type]
        table.evicted_lru = int(state["evicted_lru"])  # type: ignore[arg-type]
        table.evicted_ttl = int(state["evicted_ttl"])  # type: ignore[arg-type]
        table.evicted_pressure = int(state.get("evicted_pressure", 0))  # type: ignore[arg-type]
        table.pressure_reduced = bool(state.get("pressure_reduced", False))
        table._entries.update(_decoded(state["entries"]))  # type: ignore[arg-type]
        return table


def _decoded(
    entries: Iterable[list],
) -> Iterator[Tuple[str, List[object]]]:
    """``(digest, [last_active, progress])`` per checkpointed entry."""
    for digest, last_active, progress in entries:
        yield str(digest), [
            int(last_active),
            SubscriberProgress.from_state(progress),
        ]


# -- packed columns (the checkpoint file's body) ---------------------------

#: ``(column, dtype, which row count sizes it)`` in file order.  Row
#: counts: 0 = entries, 1 = first-seen pairs, 2 = satisfied-at pairs.
_COLUMNS = (
    ("last_active", "<i8", 0),
    ("first_when", "<i8", 1),
    ("satisfied_when", "<i8", 2),
    ("first_count", "<u2", 0),
    ("satisfied_count", "<u2", 0),
    ("first_id", "<u2", 1),
    ("satisfied_id", "<u2", 2),
    ("emitted", "u1", 2),
)
_KEY_HEX = 16  # hex digits of a key digest; half as many raw bytes
_LOWER_HEX = re.compile(r"[0-9a-f]*")


def _interned(names: List[str]) -> Tuple[List[str], List[int]]:
    """``(distinct names in first-use order, each name's id)``."""
    table = list(dict.fromkeys(names))
    if len(table) > 0xFFFF:
        raise ValueError(f"{len(table)} distinct names exceed a u2 id")
    ids = {name: index for index, name in enumerate(table)}
    return table, [ids[name] for name in names]


def pack_entries(
    tables: Iterable[Dict[str, object]],
) -> Tuple[Dict[str, object], bytes]:
    """The ``entries`` of :meth:`EvidenceStateTable.to_state` documents
    as packed little-endian columns.

    A document's ``entries`` may be any iterable of entry states (a
    list, or :meth:`EvidenceStateTable.entry_states`); it is consumed
    once.  Returns ``(meta, blob)``: ``meta`` is small and JSON-serialisable
    (entries per table, the three row counts, the domain and class
    intern tables — once for all tables), ``blob`` holds the key
    digests as 8 raw bytes each followed by the :data:`_COLUMNS`.
    Dict order is kept: an entry's ``first_seen`` / ``satisfied_at``
    pairs are stored in iteration order, and :func:`unpack_entries`
    rebuilds them in it — ``satisfied_at`` order decides the order of
    same-record events (see ``SubscriberProgress._completed_chains``).
    A key that is not a 16-hex-digit digest, or an ``emitted`` class
    with no ``satisfied_at`` time, cannot be represented and raises
    ``ValueError``.
    """
    per_table: List[int] = []
    keys: List[str] = []
    last_active: List[int] = []
    first_count: List[int] = []
    first_name: List[str] = []
    first_when: List[int] = []
    satisfied_count: List[int] = []
    satisfied_name: List[str] = []
    satisfied_when: List[int] = []
    emitted: List[bool] = []
    for table in tables:
        before = len(keys)
        for digest, when, progress in table["entries"]:  # type: ignore[union-attr]
            if len(digest) != _KEY_HEX:
                raise ValueError(f"key {digest!r} is not a 16-hex digest")
            keys.append(digest)
            last_active.append(when)
            first_seen = progress["first_seen"]
            first_count.append(len(first_seen))
            first_name.extend(first_seen)
            first_when.extend(first_seen.values())
            satisfied_at = progress["satisfied_at"]
            satisfied_count.append(len(satisfied_at))
            reported = progress["emitted"]
            if satisfied_at:
                satisfied_name.extend(satisfied_at)
                satisfied_when.extend(satisfied_at.values())
                bits = [name in reported for name in satisfied_at]
                emitted.extend(bits)
                if sum(bits) != len(reported):
                    raise ValueError(f"{digest}: emitted {reported!r}")
            elif reported:
                raise ValueError(f"{digest}: emitted {reported!r}")
        per_table.append(len(keys) - before)
    joined = "".join(keys)
    if not _LOWER_HEX.fullmatch(joined):
        raise ValueError("a key is not a lower-case 16-hex digest")
    domains, first_id = _interned(first_name)
    classes, satisfied_id = _interned(satisfied_name)
    columns = {
        "last_active": last_active,
        "first_when": first_when,
        "satisfied_when": satisfied_when,
        "first_count": first_count,
        "satisfied_count": satisfied_count,
        "first_id": first_id,
        "satisfied_id": satisfied_id,
        "emitted": emitted,
    }
    meta: Dict[str, object] = {
        "entries": per_table,
        "rows": [len(keys), len(first_name), len(satisfied_name)],
        "domains": domains,
        "classes": classes,
    }
    blob = bytes.fromhex(joined) + b"".join(
        np.asarray(columns[name], dtype=dtype).tobytes()
        for name, dtype, _rows in _COLUMNS
    )
    return meta, blob


def unpack_entries(
    meta: Dict[str, object], buffer: bytes, offset: int = 0
) -> List[List[list]]:
    """Inverse of :func:`pack_entries`: each table's ``entries`` list,
    exactly as :meth:`EvidenceStateTable.to_state` wrote it.

    ``buffer[offset:]`` must be exactly the packed blob; a size that
    disagrees with ``meta`` raises ``ValueError``.
    """
    rows: List[int] = meta["rows"]  # type: ignore[assignment]
    keys_end = offset + rows[0] * (_KEY_HEX // 2)
    keys = buffer[offset:keys_end].hex()
    column: Dict[str, list] = {}
    at = keys_end
    for name, dtype, which in _COLUMNS:
        values = np.frombuffer(buffer, dtype, rows[which], at)
        at += values.nbytes
        column[name] = values.tolist()
    if at != len(buffer):
        raise ValueError(
            f"columns end at byte {at} of {len(buffer)}"
        )
    domains: List[str] = meta["domains"]  # type: ignore[assignment]
    classes: List[str] = meta["classes"]  # type: ignore[assignment]
    first_name = [domains[i] for i in column["first_id"]]
    satisfied_name = [classes[i] for i in column["satisfied_id"]]
    first_when = column["first_when"]
    satisfied_when = column["satisfied_when"]
    emitted = column["emitted"]
    entries: List[list] = []
    first = satisfied = 0
    for index, (when, first_n, satisfied_n) in enumerate(
        zip(
            column["last_active"],
            column["first_count"],
            column["satisfied_count"],
        )
    ):
        first_end = first + first_n
        progress: Dict[str, object] = {
            "first_seen": dict(
                zip(first_name[first:first_end], first_when[first:first_end])
            ),
            "satisfied_at": {},
            "emitted": [],
        }
        first = first_end
        if satisfied_n:
            end = satisfied + satisfied_n
            names = satisfied_name[satisfied:end]
            progress["satisfied_at"] = dict(
                zip(names, satisfied_when[satisfied:end])
            )
            progress["emitted"] = sorted(
                name
                for name, bit in zip(names, emitted[satisfied:end])
                if bit
            )
            satisfied = end
        key = keys[_KEY_HEX * index : _KEY_HEX * (index + 1)]
        entries.append([key, when, progress])
    if (first, satisfied) != (rows[1], rows[2]):
        raise ValueError("per-entry counts disagree with the row counts")
    tables: List[List[list]] = []
    start = 0
    for count in meta["entries"]:  # type: ignore[union-attr]
        tables.append(entries[start : start + count])
        start += count
    if start != len(entries):
        raise ValueError("per-table counts disagree with the entry count")
    return tables
