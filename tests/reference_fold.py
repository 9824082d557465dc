"""The tests' independent oracle for the chunk loop.

``src/`` folds flows one way: column chunks through
:meth:`repro.pipeline.flow.FlowPipeline.run_chunks`, with vectorized
decode, filter and endpoint lookup.  This module is the same semantics
written the slow, obvious way — one line, one row at a time — sharing
only the leaves with it (:meth:`FlowLineParser.tuple`,
``validate_flow_tuple``, the stage's ``_fold`` and swap).  It has no
guards, checkpoint cadence, buffers or policies: the cross-loop tests
fold a corpus through both and require identical events, indices and
counters.
"""

from __future__ import annotations

import pathlib

from repro.netflow.parse import FLOW_FILE_COLUMNS, SHARED_PARSER
from repro.netflow.records import PROTO_TCP, TCP_ACK, TCP_SYN
from repro.resilience.quarantine import validate_flow_tuple
from repro.timeutil import SECONDS_PER_DAY, STUDY_START


def read_tuples(source, quarantine=None, parser=None):
    """``(first, src, dst, proto, dport, flags)`` per valid line of a
    flow file (path) or text stream, in order.

    Blank and ``#`` lines are skipped.  Without a ``quarantine`` a
    malformed line raises ``ValueError`` naming it; with one, malformed
    lines, unparseable fields and impossible tuples are recorded there
    under their reason and skipped.
    """
    owns = isinstance(source, (str, pathlib.Path))
    stream = open(source, "r", encoding="ascii") if owns else source
    parse = (parser if parser is not None else SHARED_PARSER).tuple
    expected = len(FLOW_FILE_COLUMNS)
    try:
        for line in stream:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split(",")
            if len(parts) != expected:
                if quarantine is None:
                    raise ValueError(
                        f"flow line has {len(parts)} fields, expected "
                        f"{expected}: {line!r}"
                    )
                quarantine.record("malformed_line", line)
                continue
            try:
                row = parse(parts)
            except ValueError:
                if quarantine is None:
                    raise
                quarantine.record("unparseable_field", line)
                continue
            if quarantine is not None:
                reason = validate_flow_tuple(*row)
                if reason is not None:
                    quarantine.record(reason, line)
                    continue
            yield row
    finally:
        if owns:
            stream.close()


def record_tuples(flows):
    """The columns detection reads, from ``FlowRecord`` objects."""
    return (
        (f.first_switched, f.src_ip, f.dst_ip, f.protocol, f.dst_port,
         f.tcp_flags)
        for f in flows
    )


def fold(pipeline, tuples, start_index=0):
    """Fold rows one at a time into ``pipeline.stage``, completed
    detections into ``pipeline.sink``; the number of rows folded.

    Per row: count it, advance the watermark, take a staged swap live
    at the first row at or past ``activate_at``, drop unestablished TCP
    when the stage filters, look ``(dst, dport)`` up in that day's
    endpoints, and hand a hit to ``stage._fold``.
    """
    stage, sink = pipeline.stage, pipeline.sink
    metrics = stage.metrics
    index = start_index
    for when, src, dst, proto, dport, flags in tuples:
        metrics.records_processed += 1
        if when > metrics.watermark:
            metrics.watermark = when
        pending = stage._pending_swap
        if pending is not None and when >= pending.activate_at:
            stage._apply_swap()
        if (
            stage.require_established
            and proto == PROTO_TCP
            and not (flags & TCP_ACK and not flags & TCP_SYN)
        ):
            metrics.flows_rejected_spoof += 1
        else:
            day = (when - STUDY_START) // SECONDS_PER_DAY
            endpoints = stage.hitlist.daily_endpoints.get(day, {})
            fqdn = endpoints.get((dst, dport))
            if fqdn is not None:
                metrics.flows_matched += 1
                events = stage._fold(index, when, src, fqdn)
                if events:
                    sink.extend(events)
                    metrics.events_emitted += len(events)
        index += 1
    return index - start_index
