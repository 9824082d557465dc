"""Streaming online detection (:mod:`repro.stream`).

The batch pipeline (:mod:`repro.engine`, ``repro detect``) answers
"what was detectable in this pre-materialised block of flows".  An ISP
deployment is continuous: NetFlow v9 / IPFIX records arrive as an
unending stream per subscriber line, and detections must be emitted
the moment a rule's domain-evidence threshold ``D`` is crossed — the
Section 5 time-to-detection, served online.

This package is the *online assembly* of the shared staged pipeline
(:mod:`repro.pipeline`):

* the bounded per-key state
  (:class:`~repro.pipeline.state.EvidenceStateTable`), the event type
  and sinks (:mod:`repro.pipeline.events`), the config
  (:class:`~repro.pipeline.config.StreamConfig`) and the guarded
  ingest loop all come from the pipeline layer (re-exported here for
  compatibility);
* :mod:`~repro.stream.checkpoint` — crash-safe checkpoints (atomic
  replace, version header, payload digest) so a killed process resumes
  from the last checkpoint with bit-identical downstream detections —
  is the concern this package owns outright;
* :class:`~repro.stream.processor.StreamDetectionEngine` ties them
  together, sharing its rule-evaluation core
  (:class:`repro.core.detector.SubscriberProgress`) with the batch
  path, which therefore remains the golden oracle the stream must
  agree with.

Fault-injection helpers for the robustness test-suite live in
:mod:`repro.faults`.
"""

from repro import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.stream.checkpoint": (
            "CheckpointError", "RuleVersionMismatch", "load_latest",
            "read_checkpoint", "tmp_leftover_count", "write_checkpoint",
        ),
        "repro.pipeline.config": ("StreamConfig",),
        "repro.pipeline.events": (
            "DetectionEvent", "JsonlEventSink", "MemoryEventSink",
            "read_event_log",
        ),
        "repro.pipeline.state": ("EvidenceStateTable",),
        "repro.stream.processor": ("StreamDetectionEngine",),
    },
)
