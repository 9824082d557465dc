"""The staged flow pipeline every detection entry point assembles.

One stage graph — ``Source → Decode → Validate → Detect → Sink`` —
implemented once, assembled three ways:

* the **batch wild-ISP engine** (:mod:`repro.engine`) runs plan →
  simulate → aggregate stages through :class:`StagedRun` with guarded
  shard admission;
* the **stream engine** (:mod:`repro.stream`) wraps
  :func:`streaming_assembly` with checkpoint/resume;
* the **IXP path** (:mod:`repro.ixp`) keys by address and keeps the
  TCP-established anti-spoofing filter on in the Validate stage.

Every input (flow files, record iterables, fleet admission, the IXP
fabric, sweep cells, the live collector's held datagram blocks) folds
as numpy column chunks (``FlowChunk``) through
:meth:`FlowPipeline.run_chunks` — the one loop — with vectorized
filtering and endpoint lookup; ``tests/reference_fold.py`` is the
row-at-a-time oracle ``tests/test_columnar.py`` pins it to.

One :class:`StreamConfig` tunes every assembly that folds flows; guard
budgets arrive separately, as a :class:`GuardSet`.

The layering contract is directional: those three packages import
:mod:`repro.pipeline`, never each other, and this package imports none
of them (``tools/check_layering.py`` enforces it in CI).
"""

from repro import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.pipeline.assemble": (
            "FlowDetectionResult", "batch_assembly", "run_flow_detection",
            "streaming_assembly",
        ),
        "repro.pipeline.columnar": ("EndpointDayIndex",),
        "repro.pipeline.config": ("StreamConfig",),
        "repro.pipeline.core": ("GUARD_STRIDE", "GuardSet", "StagedRun"),
        "repro.pipeline.events": (
            "DetectionEvent", "JsonlEventSink", "MemoryEventSink",
            "read_event_log",
        ),
        "repro.pipeline.flow": (
            "AddressKeying", "BatchDetectStage", "FlowDetectStage",
            "FlowPipeline", "StreamingDetectStage", "SubscriberKeying",
        ),
        "repro.pipeline.metrics": (
            "METRICS_SCHEMA", "EngineMetrics", "ShardMetrics", "StreamMetrics",
        ),
        "repro.pipeline.state": ("EvidenceStateTable",),
        "repro.pipeline.swap": (
            "MigrationReport", "PendingSwap", "RuleGeneration", "RuleSource",
            "migrate_progress", "migrate_table", "next_activation",
        ),
    },
)
