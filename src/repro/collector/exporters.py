"""Per-exporter collector state: template caches, sequence accounting,
and the data-before-template pending buffer.

A production collector multiplexes many exporters (border routers)
onto one socket.  Templates, options templates, sequence numbers, and
pending data sets are all *per exporter* — RFC 3954 scopes them by
(source address, source id), RFC 7011 by (source address, observation
domain).  :class:`ExporterTable` keys exactly that way and owns the
lifecycle: states appear on first datagram and are expired after
``timeout`` seconds of silence (dropping their template caches, the
way nfcapd does).

Sequence accounting answers "how much did the network lose?" without
ever *suppressing* a delivered datagram: duplicates and reordered
arrivals are counted but still decoded and folded, because the
evidence fold is min-merge idempotent (see
:class:`~repro.core.detector.SubscriberProgress`) and the
delivered-set oracle demands that detections reflect exactly what was
delivered and decodable.

Restart heuristic: an exporter reboot resets its sequence counter to
(near) zero.  A new sequence at most ``reset_window`` with an
expectation more than ``reset_window`` ahead is classified as a
``sequence_reset`` and rebaselined — *not* reported as a huge gap or
a pile of reordered datagrams.  A displacement that large is
indistinguishable from a restart on the wire; real collectors use the
same heuristic.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Optional, Tuple

from repro.collector.metrics import CollectorMetrics
from repro.netflow.datagram import (
    DatagramError,
    DatagramHeader,
    DecodedDatagram,
    FlowBlock,
)
from repro.netflow.ipfix import IpfixCodec
from repro.netflow.v9 import NetflowV9Codec

__all__ = ["ExporterState", "ExporterTable"]

_SEQ_MASK = 0xFFFFFFFF
#: sequence numbers remembered per exporter for duplicate detection
_RECENT_SEQUENCES = 64


class ExporterState:
    """Decode context of one (address, exporter id, version) peer."""

    def __init__(
        self,
        version: int,
        metrics: CollectorMetrics,
        pending_max_sets: int = 64,
        pending_ttl: float = 60.0,
        reset_window: int = 64,
    ) -> None:
        self.version = version
        self.codec = NetflowV9Codec() if version == 9 else IpfixCodec()
        self.metrics = metrics
        self.pending_max_sets = pending_max_sets
        self.pending_ttl = pending_ttl
        self.reset_window = reset_window
        self.last_seen = 0.0
        self._next_seq: Optional[int] = None
        self._recent: Deque[int] = deque(maxlen=_RECENT_SEQUENCES)
        #: (template id) → [(arrival no, wall stamp, raw body), ...]
        self._pending: Dict[int, List[Tuple[int, float, bytes]]] = {}
        self._pending_total = 0
        self._arrival = 0

    # -- ingest --------------------------------------------------------

    def ingest(
        self,
        payload: bytes,
        now: float,
        header: Optional[DatagramHeader] = None,
    ) -> List[FlowBlock]:
        """Decode one datagram in this exporter's context.

        Returns the decoded column blocks in delivery order: pending
        sets whose template this datagram (re-)sent first (they arrived
        earlier), then the datagram's own data sets.  ``header`` is the
        peeked header the caller routed on, so it is not parsed twice.
        Raises :class:`~repro.netflow.datagram.DatagramError` on
        structural damage — sequence/pending state is only advanced for
        datagrams that decoded.
        """
        message = self.codec.decode_message(payload, header)
        self.last_seen = now
        self._expire_pending(now)
        learned = (
            len(message.templates_learned)
            + len(message.options_learned)
        )
        if learned:
            self.metrics.templates_learned += learned
        flushed = self._flush_pending(message.templates_learned)
        self._buffer_pending(message, now)
        self._account_sequence(message)
        return flushed + message.blocks

    # -- sequence accounting -------------------------------------------

    def _account_sequence(self, message: DecodedDatagram) -> None:
        header = message.header
        seq = header.sequence
        if header.count is not None:
            count = header.count  # v9: header says how many records
        else:
            # IPFIX sequences count *data* records; sets we had to
            # buffer have an unknown record count until their template
            # arrives, so accounting rebaselines at the next message
            # instead of guessing (and mis-reporting a gap).  Records
            # flushed from the pending buffer belong to the earlier
            # messages that carried them, never to this one.
            if message.pending:
                self._recent.append(seq)
                self._next_seq = None
                return
            count = message.rows
        metrics = self.metrics
        if self._next_seq is None:
            self._next_seq = (seq + count) & _SEQ_MASK
            self._recent.append(seq)
            return
        delta = ((seq - self._next_seq + (1 << 31)) & _SEQ_MASK) - (
            1 << 31
        )
        if delta == 0:
            self._next_seq = (seq + count) & _SEQ_MASK
        elif delta > 0:
            metrics.sequence_gaps += 1
            metrics.records_missed += delta
            self._next_seq = (seq + count) & _SEQ_MASK
        elif seq in self._recent:
            metrics.duplicate_datagrams += 1
        elif seq <= self.reset_window and -delta > self.reset_window:
            metrics.sequence_resets += 1
            self._next_seq = (seq + count) & _SEQ_MASK
            self._recent.clear()
        else:
            metrics.reordered_datagrams += 1
        self._recent.append(seq)

    # -- data-before-template buffering --------------------------------

    def _buffer_pending(
        self, message: DecodedDatagram, now: float
    ) -> None:
        for set_id, body in message.pending:
            while self._pending_total >= self.pending_max_sets:
                self._drop_oldest_pending()
                self.metrics.pending_overflow_sets += 1
            self._arrival += 1
            self._pending.setdefault(set_id, []).append(
                (self._arrival, now, body)
            )
            self._pending_total += 1
            self.metrics.pending_buffered_sets += 1

    def _flush_pending(
        self, templates_learned: List[int]
    ) -> List[FlowBlock]:
        """Decode queued sets whose template just landed, in arrival
        order across templates."""
        if not templates_learned or not self._pending:
            return []
        ready: List[Tuple[int, int, bytes]] = []
        for template_id in templates_learned:
            queue = self._pending.pop(template_id, None)
            if not queue:
                continue
            self._pending_total -= len(queue)
            ready.extend(
                (arrival, template_id, body)
                for arrival, _stamp, body in queue
            )
        ready.sort()
        blocks: List[FlowBlock] = []
        for _arrival, template_id, body in ready:
            try:
                decoded = self.codec.decode_data_body(template_id, body)
            except DatagramError:
                # template re-send changed the layout under the queued
                # body; drop it as expired rather than crash the loop
                self.metrics.pending_expired_sets += 1
                continue
            blocks.extend(decoded)
            self.metrics.pending_flushed_sets += 1
            self.metrics.pending_flushed_records += sum(map(len, decoded))
        return blocks

    def _expire_pending(self, now: float) -> None:
        if not self._pending or self.pending_ttl is None:
            return
        for set_id in list(self._pending):
            queue = self._pending[set_id]
            kept = [
                item
                for item in queue
                if now - item[1] <= self.pending_ttl
            ]
            expired = len(queue) - len(kept)
            if expired:
                self.metrics.pending_expired_sets += expired
                self._pending_total -= expired
                if kept:
                    self._pending[set_id] = kept
                else:
                    del self._pending[set_id]

    def _drop_oldest_pending(self) -> None:
        oldest_set = None
        oldest = None
        for set_id, queue in self._pending.items():
            if queue and (oldest is None or queue[0][0] < oldest):
                oldest = queue[0][0]
                oldest_set = set_id
        if oldest_set is None:
            return
        queue = self._pending[oldest_set]
        queue.pop(0)
        self._pending_total -= 1
        if not queue:
            del self._pending[oldest_set]

    @property
    def pending_sets(self) -> int:
        """Sets currently buffered awaiting their template."""
        return self._pending_total


class ExporterTable:
    """All live exporter states, keyed (address, exporter id, version)."""

    def __init__(
        self,
        metrics: CollectorMetrics,
        pending_max_sets: int = 64,
        pending_ttl: float = 60.0,
        reset_window: int = 64,
        timeout: float = 300.0,
    ) -> None:
        self.metrics = metrics
        self.pending_max_sets = pending_max_sets
        self.pending_ttl = pending_ttl
        self.reset_window = reset_window
        self.timeout = timeout
        self._states: Dict[Tuple, ExporterState] = {}

    def state_for(
        self, addr, exporter_id: int, version: int
    ) -> ExporterState:
        key = (addr, exporter_id, version)
        state = self._states.get(key)
        if state is None:
            state = ExporterState(
                version,
                self.metrics,
                pending_max_sets=self.pending_max_sets,
                pending_ttl=self.pending_ttl,
                reset_window=self.reset_window,
            )
            self._states[key] = state
            self.metrics.exporters_seen += 1
            self.metrics.exporters_active = len(self._states)
        return state

    def expire(self, now: float) -> int:
        """Drop exporters silent longer than ``timeout``; count dropped.

        Expiry forgets the exporter's template caches and pending
        buffer — exactly what a restarting production collector does —
        so a returning exporter re-learns from its next template
        refresh (data-only datagrams in between are buffered again).
        """
        dead = [
            key
            for key, state in self._states.items()
            if now - state.last_seen > self.timeout
        ]
        for key in dead:
            del self._states[key]
        if dead:
            self.metrics.exporters_expired += len(dead)
            self.metrics.exporters_active = len(self._states)
        return len(dead)

    def __len__(self) -> int:
        return len(self._states)
