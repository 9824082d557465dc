"""Flow-level IXP detection — the fabric's pipeline assembly.

The statistical :func:`~repro.ixp.fabric.run_wild_ixp` answers the
Section 6 questions at population scale; this module is its flow-level
counterpart for *actual* IPFIX records captured at the fabric (e.g.
through an :class:`~repro.ixp.fabric.IxpFabricTap`).  It assembles the
shared staged pipeline (:mod:`repro.pipeline`) with the two choices
that make the vantage point an IXP rather than an ISP:

* **keying by address** (:class:`~repro.pipeline.flow.AddressKeying`):
  the fabric cannot tell subscriber lines apart, so detection is per
  source IP;
* **anti-spoofing on by default**: spoofing prevention is impossible at
  the fabric, so the Validate stage drops TCP flows without
  established-connection evidence (``require_established``), exactly
  the filter :func:`~repro.ixp.fabric.make_spoofed_flows` exists to
  exercise.

Everything else — the fused hot loop, guard polling, metrics document —
is the same code the ISP batch and stream paths run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional

from repro.core.detector import Detection
from repro.core.hitlist import Hitlist
from repro.core.rules import RuleSet
from repro.ixp.fabric import IxpConfig
from repro.netflow.parse import chunks_from_records
from repro.netflow.records import FlowRecord
from repro.pipeline.core import GuardSet
from repro.pipeline.flow import AddressKeying, BatchDetectStage, FlowPipeline
from repro.pipeline.metrics import StreamMetrics

__all__ = ["IxpDetectionResult", "detect_fabric_flows"]


@dataclass
class IxpDetectionResult:
    """Per-address detections from one batch of fabric flows."""

    #: earliest detection per (address, class), batch semantics
    detections: List[Detection]
    #: the ``repro.engine.metrics/1``-family document of the run
    metrics: StreamMetrics

    @property
    def detected_addresses(self) -> List[str]:
        """Unique detected source addresses (dotted quads), sorted."""
        return sorted({d.subscriber for d in self.detections})

    @property
    def flows_rejected_spoof(self) -> int:
        """TCP flows dropped by the established-evidence filter."""
        return self.metrics.flows_rejected_spoof


def detect_fabric_flows(
    rules: RuleSet,
    hitlist: Hitlist,
    flows: Iterable[FlowRecord],
    config: Optional[IxpConfig] = None,
    guards: Optional[GuardSet] = None,
) -> IxpDetectionResult:
    """Run per-address detection over exported fabric flows.

    ``config`` supplies the threshold and the anti-spoofing switch
    (:class:`~repro.ixp.fabric.IxpConfig` defaults keep
    ``require_established`` on); the flows fold as column chunks of
    ``config.chunk_size`` rows.  Guards are optional; a guarded stop
    leaves the result partial, with the reason recorded in the metrics
    overload section like every other assembly.
    """
    config = config or IxpConfig()
    keying = AddressKeying()
    stage = BatchDetectStage(
        rules,
        hitlist,
        keying,
        threshold=config.threshold,
        require_established=config.require_established,
        metrics=StreamMetrics(threshold=config.threshold),
    )
    FlowPipeline(stage, guards=guards).run_chunks(
        chunks_from_records(flows, config.chunk_size)
    )
    return IxpDetectionResult(
        detections=stage.detections(), metrics=stage.metrics
    )
