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

from repro import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.collector.control": ("ControlPlane",),
        "repro.collector.exporters": ("ExporterState", "ExporterTable"),
        "repro.collector.metrics": ("CollectorMetrics",),
        "repro.collector.service": ("CollectorConfig", "CollectorService"),
        "repro.collector.source": ("CollectorSource",),
        "repro.collector.targets": ("EngineTarget", "FleetTarget"),
    },
)
