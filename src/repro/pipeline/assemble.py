"""Ready-made pipeline assemblies.

An *assembly* is a :class:`~repro.pipeline.flow.FlowPipeline` wired
with a concrete keying, Detect stage, sink, and guard set.  The heavy
entry points own their assemblies — the stream engine adds
checkpoint/resume around a streaming assembly — while this module
provides the two generic ones library code and the CLI use directly:

* :func:`streaming_assembly` — online detection into an event sink,
  bounded state, checkpointing only through the caller's callback;
* :func:`batch_assembly` / :func:`run_flow_detection` — offline
  detection over a flow file or record iterable, reproducing the
  batch :class:`~repro.core.detector.FlowDetector` result through the
  shared stage graph.
"""

from __future__ import annotations

import pathlib
from dataclasses import dataclass
from typing import IO, Iterable, List, Optional, Union

from repro.core.detector import Detection
from repro.core.hitlist import Hitlist
from repro.core.rules import RuleSet
from repro.netflow.parse import ColumnarDecodeStage, chunks_from_records
from repro.netflow.records import FlowRecord
from repro.pipeline.config import StreamConfig
from repro.pipeline.core import GuardSet
from repro.pipeline.flow import (
    BatchDetectStage,
    FlowPipeline,
    StreamingDetectStage,
    SubscriberKeying,
)
from repro.pipeline.metrics import StreamMetrics
from repro.pipeline.state import EvidenceStateTable
from repro.resilience.quarantine import QuarantineSink

__all__ = [
    "streaming_assembly",
    "batch_assembly",
    "run_flow_detection",
    "FlowDetectionResult",
]


def _wire_pressure(
    guards: Optional[GuardSet], keying
) -> Optional[GuardSet]:
    """A guard set that names no ``on_pressure`` sheds the keying's
    recomputable identity cache under memory pressure."""
    if guards is not None and guards.on_pressure is None:
        guards.on_pressure = lambda _: keying.forget()
    return guards


def streaming_assembly(
    rules: RuleSet,
    hitlist: Hitlist,
    config: Optional[StreamConfig] = None,
    sink=None,
    guards: Optional[GuardSet] = None,
    keying=None,
    on_checkpoint=None,
) -> FlowPipeline:
    """An online pipeline: bounded state, events into ``sink``.

    The Detect stage holds one
    :class:`~repro.pipeline.state.EvidenceStateTable` of
    ``config.max_subscribers`` keys; ``keying`` defaults to salted
    subscriber digests.  Persistence is
    the stream engine's concern: it passes its ``write_checkpoint`` as
    ``on_checkpoint`` and the loop calls it every
    ``config.checkpoint_every`` records; without one the cadence only
    sizes the metrics document.
    """
    config = config or StreamConfig()
    if keying is None:
        keying = SubscriberKeying(salt=config.salt)
    stage = StreamingDetectStage(
        rules,
        hitlist,
        keying,
        EvidenceStateTable(config.max_subscribers, config.ttl_seconds),
        threshold=config.threshold,
        require_established=config.require_established,
        metrics=config.metrics(),
    )
    return FlowPipeline(
        stage,
        sink=sink,
        guards=_wire_pressure(guards, keying),
        checkpoint_every=config.checkpoint_every if on_checkpoint else 0,
        on_checkpoint=on_checkpoint,
    )


def batch_assembly(
    rules: RuleSet,
    hitlist: Hitlist,
    config: Optional[StreamConfig] = None,
    guards: Optional[GuardSet] = None,
    keying=None,
) -> FlowPipeline:
    """An offline pipeline: unbounded evidence, replayed on demand.

    The stage accumulates and :meth:`~repro.pipeline.flow.
    BatchDetectStage.detections` replays — batch semantics identical to
    :class:`~repro.core.detector.FlowDetector` for the same flows.
    """
    config = config or StreamConfig()
    if keying is None:
        keying = SubscriberKeying(salt=config.salt)
    stage = BatchDetectStage(
        rules,
        hitlist,
        keying,
        threshold=config.threshold,
        require_established=config.require_established,
        metrics=config.metrics(),
    )
    return FlowPipeline(stage, guards=_wire_pressure(guards, keying))


@dataclass
class FlowDetectionResult:
    """Outcome of one offline :func:`run_flow_detection` run."""

    detections: List[Detection]
    metrics: StreamMetrics

    @property
    def flows_seen(self) -> int:
        return self.metrics.records_processed

    @property
    def flows_matched(self) -> int:
        return self.metrics.flows_matched

    @property
    def flows_rejected_spoof(self) -> int:
        return self.metrics.flows_rejected_spoof


def run_flow_detection(
    rules: RuleSet,
    hitlist: Hitlist,
    source: Union[str, pathlib.Path, IO[str], Iterable[FlowRecord]],
    config: Optional[StreamConfig] = None,
    guards: Optional[GuardSet] = None,
    keying=None,
) -> FlowDetectionResult:
    """Offline detection over a flow file or record iterable.

    Both source shapes fold as column chunks of
    ``config.chunk_size`` rows: a path (or text stream) is
    decoded by :class:`~repro.netflow.parse.ColumnarDecodeStage`
    (malformed lines go to the quarantine when one is configured), any
    other iterable is batched by
    :func:`~repro.netflow.parse.chunks_from_records`.
    Subscriber identity is the source address, matching the CLI
    ``detect`` command and the batch detector convention.
    """
    config = config or StreamConfig()
    pipeline = batch_assembly(
        rules, hitlist, config, guards=guards, keying=keying
    )
    quarantine = (
        QuarantineSink(config.quarantine_dir)
        if config.quarantine_dir is not None
        else None
    )
    chunk_size = config.chunk_size
    if isinstance(source, (str, pathlib.Path)) or hasattr(source, "read"):
        chunks = ColumnarDecodeStage(
            chunk_size, quarantine=quarantine
        ).iter_chunks(source)
    else:
        chunks = chunks_from_records(source, chunk_size)
    pipeline.run_chunks(chunks)
    stage = pipeline.stage
    metrics = stage.metrics
    if quarantine is not None:
        metrics.records_quarantined = quarantine.total
        metrics.quarantine_reasons = dict(quarantine.counts)
    return FlowDetectionResult(
        detections=stage.detections(), metrics=metrics
    )
