"""The collector ingest front: arbitrary bytes in, valid records out.

:class:`CollectorSource` is the pure (socket-free) half of the live
collector: hand it one datagram payload plus its peer address and it
returns the flow records that are safe to fold — decoded in the right
exporter's template context, sequence-accounted, semantically
validated — as column blocks (:meth:`CollectorSource.decode` then
:meth:`CollectorSource.validate`, what the service calls) or as
objects (:meth:`CollectorSource.ingest`).  It **never raises**: a
datagram that cannot be decoded is quarantined under a typed
``datagram_<reason>`` slug (see
:class:`~repro.netflow.datagram.DatagramError`) and yields no records;
a decodable record with an impossible tuple is quarantined under the
shared semantic reasons (``bad_port``, ``time_travel``, …) exactly as
the file-replay path would.  That last property is what makes a live
run comparable to a file replay of the delivered-and-decodable set —
both paths apply the same validation to the same records.

The socket loop, engine fold, journal, and control plane live in
:mod:`repro.collector.service`; keeping ingest pure makes the fault
matrix in ``tests/test_collector_faults.py`` a function call, not a
network exercise.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.collector.exporters import ExporterTable
from repro.collector.metrics import CollectorMetrics
from repro.netflow.datagram import (
    DatagramError,
    FlowBlock,
    block_columns,
    peek_header,
    records_from_columns,
)
from repro.netflow.records import FlowRecord
from repro.resilience.quarantine import (
    FLOW_COLUMN_MAX,
    QuarantineSink,
    validate_flow_record,
)

__all__ = ["CollectorSource"]

_COLUMN_MAX = np.array(FLOW_COLUMN_MAX, dtype=np.uint64).reshape(-1, 1)


class CollectorSource:
    """Datagram → validated flow records, with full fault accounting."""

    def __init__(
        self,
        metrics: Optional[CollectorMetrics] = None,
        quarantine: Optional[QuarantineSink] = None,
        pending_max_sets: int = 64,
        pending_ttl: float = 60.0,
        reset_window: int = 64,
        exporter_timeout: float = 300.0,
    ) -> None:
        self.metrics = metrics if metrics is not None else CollectorMetrics()
        self.quarantine = (
            quarantine if quarantine is not None else QuarantineSink()
        )
        self.exporters = ExporterTable(
            self.metrics,
            pending_max_sets=pending_max_sets,
            pending_ttl=pending_ttl,
            reset_window=reset_window,
            timeout=exporter_timeout,
        )

    def decode(
        self,
        payload: bytes,
        addr: Tuple[str, int] = ("", 0),
        now: float = 0.0,
    ) -> List[FlowBlock]:
        """One datagram's column blocks, decoded and sequence-accounted
        but not yet validated; ``[]`` (and a typed quarantine entry)
        when it cannot be decoded.

        ``now`` is caller-supplied wall time (monotonic or epoch — it
        only feeds pending-TTL and exporter-expiry arithmetic), which
        keeps the fault matrix deterministic.
        """
        metrics = self.metrics
        metrics.datagrams_received += 1
        try:
            header = peek_header(payload)
            state = self.exporters.state_for(
                addr, header.exporter_id, header.version
            )
            blocks = state.ingest(payload, now, header)
        except DatagramError as exc:
            reason = f"datagram_{exc.reason}"
            metrics.datagrams_quarantined += 1
            metrics.quarantined_by_reason[reason] = (
                metrics.quarantined_by_reason.get(reason, 0) + 1
            )
            self.quarantine.record(reason, payload)
            return []
        metrics.datagrams_decoded += 1
        metrics.records_decoded += sum(map(len, blocks))
        return blocks

    def validate(self, blocks: List[FlowBlock]):
        """The rows of ``blocks`` that are safe to detect on, as one
        ``(10, rows)`` column array.

        :func:`~repro.resilience.quarantine.validate_flow_record`'s
        checks run as masks over the columns (unsigned, so the
        negative-value checks cannot fire); only a failing row becomes
        a record, which the scalar validator then names — reason and
        quarantine sample are what the per-record path produced.
        """
        columns = block_columns(blocks)
        bad = (columns > _COLUMN_MAX).any(axis=0)
        bad |= columns[1] < columns[0]  # ends before it starts
        if bad.any():
            intervals = np.repeat(
                [block.sampling_interval for block in blocks],
                [len(block) for block in blocks],
            )
            for row in np.flatnonzero(bad).tolist():
                (record,) = records_from_columns(
                    columns[:, row : row + 1], int(intervals[row])
                )
                self.quarantine.record(validate_flow_record(record), record)
            self.metrics.records_invalid += int(bad.sum())
            columns = columns[:, ~bad]
        return columns

    def ingest(
        self,
        payload: bytes,
        addr: Tuple[str, int] = ("", 0),
        now: float = 0.0,
    ) -> List[FlowRecord]:
        """:meth:`decode` + :meth:`validate`, as objects: the records of
        one datagram that are safe to detect on, counted as folded
        (the caller folds them; the service counts what its engine
        accepted instead)."""
        records = [
            record
            for block in self.decode(payload, addr, now)
            for record in records_from_columns(
                self.validate([block]), block.sampling_interval
            )
        ]
        self.metrics.records_folded += len(records)
        return records

    def expire_exporters(self, now: float) -> int:
        """Drop exporters idle past the timeout; returns how many."""
        return self.exporters.expire(now)
