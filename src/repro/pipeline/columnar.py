"""The fused ``Validate → Detect`` stages over column chunks.

A Python call per flow would dominate wall time even though the vast
majority of records match nothing, so :func:`observe_chunk` runs the
fused stages over a whole :class:`~repro.netflow.parse.FlowChunk`
column batch:

* the TCP-established anti-spoofing filter is one boolean mask over the
  ``proto``/``flags`` columns;
* the hitlist endpoint lookup is a binary search of ``(dst << 16) |
  dport`` keys against a per-day sorted index precompiled lazily by
  :class:`EndpointDayIndex`;
* only the (rare) matching rows drop into the per-subscriber ``_fold``
  of the :class:`~repro.pipeline.flow.FlowDetectStage` subclass, in
  ascending row order — so events, indices, metrics, and
  checkpoint-visible state are *identical* to folding the rows one at
  a time (the oracle in ``tests/reference_fold.py``, which
  ``tests/test_columnar.py`` holds this kernel to).

The stage is duck-typed here (this module imports nothing from
:mod:`repro.pipeline.flow`, which imports it); the driver that feeds
chunks, splits them at ``max_records``/checkpoint boundaries and polls
the guards is :meth:`~repro.pipeline.flow.FlowPipeline.run_chunks`.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.netflow.parse import FlowChunk
from repro.netflow.records import PROTO_TCP, TCP_ACK, TCP_SYN
from repro.timeutil import SECONDS_PER_DAY, STUDY_START

__all__ = ["EndpointDayIndex", "observe_chunk"]


class EndpointDayIndex:
    """Per-day sorted ``(dst_ip << 16) | dport`` endpoint index.

    Built lazily from the ``hitlist.daily_endpoints`` mapping, one day
    at a time: a sorted int64 key array for
    :func:`numpy.searchsorted` plus the fqdn list in key order.  The
    packing is exact — dst_ip occupies bits 16..47 and dport bits
    0..15, both within int64 — so two distinct ``(dst, port)`` pairs
    never collide.
    """

    __slots__ = ("_daily", "_compiled")

    def __init__(
        self, daily_endpoints: Dict[int, Dict[Tuple[int, int], str]]
    ) -> None:
        self._daily = daily_endpoints
        self._compiled: Dict[int, Optional[Tuple[np.ndarray, List[str]]]] = {}

    def day(self, day: int) -> Optional[Tuple[np.ndarray, List[str]]]:
        """``(sorted keys, fqdns in key order)``; ``None`` if empty."""
        try:
            return self._compiled[day]
        except KeyError:
            pass
        endpoints = self._daily.get(day)
        if not endpoints:
            compiled = None
        else:
            keys = np.fromiter(
                (
                    (dst << 16) | port
                    for dst, port in endpoints.keys()
                ),
                dtype=np.int64,
                count=len(endpoints),
            )
            order = np.argsort(keys, kind="stable")
            fqdns = list(endpoints.values())
            compiled = (
                keys[order],
                [fqdns[i] for i in order.tolist()],
            )
        self._compiled[day] = compiled
        return compiled

    def days(self) -> Iterable[int]:
        """All days the hitlist defines endpoints for."""
        return self._daily.keys()


def observe_chunk(stage, chunk: FlowChunk, emit) -> None:
    """Fold one chunk through ``stage``, handing completed detections
    to ``emit`` in row order (one call per run of rows folded under
    one rule generation).

    Equivalent to folding the rows one at a time in order, including
    across a staged rule swap, which applies at the first record whose
    timestamp reaches ``activate_at`` — in arrival order.  Rows before
    the first boundary row fold under the old generation, then the
    stage swap is applied (which also exchanges the stage's endpoint
    index), and the boundary row onward folds under the new generation
    — so a swap that lands mid-chunk activates on the same record as
    one that lands on a chunk boundary.
    """
    pending = stage._pending_swap
    while pending is not None and len(chunk):
        boundary = np.flatnonzero(chunk.first >= pending.activate_at)
        if not len(boundary):
            break
        split = int(boundary[0])
        if split:
            _fold_rows(stage, chunk.head(split), emit)
            chunk = chunk.tail(split)
        stage._apply_swap()
        pending = stage._pending_swap
    if len(chunk):
        _fold_rows(stage, chunk, emit)


def _fold_rows(stage, chunk: FlowChunk, emit) -> None:
    metrics = stage.metrics
    index = stage.index
    count = len(chunk)
    metrics.records_processed += count
    metrics.records_since_checkpoint += count
    first = chunk.first
    watermark = int(first.max())
    if watermark > metrics.watermark:
        metrics.watermark = watermark
    rows = None  # admitted row positions, None == all
    if stage.require_established:
        keep = (chunk.proto != PROTO_TCP) | (
            ((chunk.flags & TCP_ACK) != 0)
            & ((chunk.flags & TCP_SYN) == 0)
        )
        rejected = count - int(keep.sum())
        if rejected:
            metrics.flows_rejected_spoof += rejected
            rows = np.flatnonzero(keep)
            first = first[rows]
            if not len(first):
                return
    day = (first - STUDY_START) // SECONDS_PER_DAY
    day_lo = int(day.min())
    day_hi = int(day.max())
    dst = chunk.dst if rows is None else chunk.dst[rows]
    dport = chunk.dport if rows is None else chunk.dport[rows]
    key = (dst << np.int64(16)) | dport
    matches: List[Tuple[np.ndarray, List[str]]] = []
    for index_day in index.days():
        if index_day < day_lo or index_day > day_hi:
            continue
        compiled = index.day(index_day)
        if compiled is None:
            continue
        keys, fqdns = compiled
        if day_lo == day_hi:
            sub_rows = None
            sub_key = key
        else:
            sub_rows = np.flatnonzero(day == index_day)
            if not len(sub_rows):
                continue
            sub_key = key[sub_rows]
        pos = np.searchsorted(keys, sub_key)
        hit = keys[np.minimum(pos, len(keys) - 1)] == sub_key
        hit_rows = np.flatnonzero(hit)
        if not len(hit_rows):
            continue
        hit_fqdns = [fqdns[i] for i in pos[hit_rows].tolist()]
        if sub_rows is not None:
            hit_rows = sub_rows[hit_rows]
        matches.append((hit_rows, hit_fqdns))
    if not matches:
        return
    if len(matches) == 1:
        hit_rows, hit_fqdns = matches[0]
    else:
        hit_rows = np.concatenate([m[0] for m in matches])
        order = np.argsort(hit_rows, kind="stable")
        flat = [fqdn for _, fqdns in matches for fqdn in fqdns]
        hit_fqdns = [flat[i] for i in order.tolist()]
        hit_rows = hit_rows[order]
    # Map admitted-row positions back to chunk rows when the
    # established filter dropped rows.
    if rows is not None:
        hit_rows = rows[hit_rows]
    whens = chunk.first[hit_rows].tolist()
    srcs = chunk.src[hit_rows].tolist()
    metrics.flows_matched += len(hit_rows)
    fold = stage._fold
    # Routed fleet sub-chunks carry explicit per-row global stream
    # indices; plain chunks number contiguously from start_index.
    explicit = getattr(chunk, "indices", None)
    if explicit is None:
        hit_indices = (chunk.start_index + hit_rows).tolist()
    else:
        hit_indices = explicit[hit_rows].tolist()
    completed: list = []
    for row_index, when, src, fqdn in zip(
        hit_indices, whens, srcs, hit_fqdns
    ):
        events = fold(row_index, when, src, fqdn)
        if events:
            completed.extend(events)
    if completed:
        emit(completed)  # one sink write for the rows folded here
