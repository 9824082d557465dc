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

from repro.pipeline.assemble import (
    FlowDetectionResult,
    batch_assembly,
    run_flow_detection,
    streaming_assembly,
)
from repro.pipeline.columnar import EndpointDayIndex
from repro.pipeline.config import StreamConfig
from repro.pipeline.core import GUARD_STRIDE, GuardSet, StagedRun
from repro.pipeline.events import (
    DetectionEvent,
    JsonlEventSink,
    MemoryEventSink,
    read_event_log,
)
from repro.pipeline.flow import (
    AddressKeying,
    BatchDetectStage,
    FlowDetectStage,
    FlowPipeline,
    StreamingDetectStage,
    SubscriberKeying,
)
from repro.pipeline.metrics import (
    METRICS_SCHEMA,
    EngineMetrics,
    ShardMetrics,
    StreamMetrics,
)
from repro.pipeline.state import EvidenceStateTable
from repro.pipeline.swap import (
    MigrationReport,
    PendingSwap,
    RuleGeneration,
    RuleSource,
    migrate_progress,
    migrate_table,
    next_activation,
)

__all__ = [
    # core machinery
    "GUARD_STRIDE",
    "GuardSet",
    "StagedRun",
    # configuration
    "StreamConfig",
    # live rule swap
    "RuleGeneration",
    "RuleSource",
    "PendingSwap",
    "MigrationReport",
    "migrate_progress",
    "migrate_table",
    "next_activation",
    # stages and driver
    "FlowPipeline",
    "FlowDetectStage",
    "StreamingDetectStage",
    "BatchDetectStage",
    "SubscriberKeying",
    "AddressKeying",
    "EndpointDayIndex",
    # state / events
    "EvidenceStateTable",
    "DetectionEvent",
    "MemoryEventSink",
    "JsonlEventSink",
    "read_event_log",
    # assemblies
    "streaming_assembly",
    "batch_assembly",
    "run_flow_detection",
    "FlowDetectionResult",
    # metrics
    "METRICS_SCHEMA",
    "EngineMetrics",
    "ShardMetrics",
    "StreamMetrics",
]
