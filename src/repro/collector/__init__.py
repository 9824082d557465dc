"""Live collector mode: detection as a long-running network service.

The paper's detection runs over NetFlow continuously exported by ISP
border routers — a lossy, reordering UDP feed.  This package is that
deployment mode: a UDP NetFlow v9 / IPFIX socket source with
per-exporter template caches and sequence-gap accounting
(:mod:`repro.collector.exporters`), a never-raising ingest front that
quarantines undecodable datagrams under typed reasons
(:mod:`repro.collector.source`), one service loop — hold, validate,
fold, journal, service-owned checkpoint cadence
(:mod:`repro.collector.service`) — and a threaded HTTP control plane
for health, metrics, and per-subscriber queries
(:mod:`repro.collector.control`).  The service folds into whichever
target it is handed (:mod:`repro.collector.targets`): one in-process
streaming engine, or with ``--fleet-workers N`` a horizontally sharded
worker fleet whose journal doubles as its rebalance/resume replay
source.

Layering: sits on :mod:`repro.pipeline`, :mod:`repro.netflow`,
:mod:`repro.stream`, :mod:`repro.runtime`, :mod:`repro.resilience` —
never on :mod:`repro.engine` or :mod:`repro.ixp` (enforced by
``tools/check_layering.py``).
"""

from repro.collector.control import ControlPlane
from repro.collector.exporters import ExporterState, ExporterTable
from repro.collector.metrics import CollectorMetrics
from repro.collector.service import (
    CollectorConfig,
    CollectorService,
    JOURNAL_HEADER,
    truncate_journal,
)
from repro.collector.source import CollectorSource
from repro.collector.targets import EngineTarget, FleetTarget

__all__ = [
    "CollectorConfig",
    "CollectorMetrics",
    "CollectorService",
    "CollectorSource",
    "ControlPlane",
    "EngineTarget",
    "ExporterState",
    "ExporterTable",
    "FleetTarget",
    "JOURNAL_HEADER",
    "truncate_journal",
]
