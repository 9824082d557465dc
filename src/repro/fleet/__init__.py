"""Fleet mode (:mod:`repro.fleet`): horizontally sharded streaming.

One router process consistent-hashes the flow stream by the pipeline's
memoised subscriber keying onto N supervised worker processes, each
running the *unmodified* single-stream assembly — own evidence table,
own checkpoint lineage, own JSONL event sink — and a deterministic
merge interleaves the per-worker logs back into one stream that is
**byte-identical** to what a single engine would have written.  The
pieces:

* :mod:`repro.fleet.ring` — the consistent-hash ring: fixed slot
  count, slot → worker assignment, epoch-counted rebalance, persisted
  as ``ring.json`` so a router crash cannot forget a rebalance;
* :mod:`repro.fleet.worker` — the worker process: command-queue
  protocol (batches, adoption, staged rule swaps, drain), worker-owned
  checkpoint cadence, per-slot fold counts in checkpoint lineage;
* :mod:`repro.fleet.service` — the router: admission (decoded column
  chunks from a file, pushed chunks from the live collector — both
  reach workers as indexed sub-chunks), supervision (capped-backoff
  restart, ack-progress hang detection, quarantine + rebalance), the
  unified replay mechanism, fan-out-aware drain ordering, the merge;
* :mod:`repro.fleet.metrics` — the ``"fleet"`` section of the metrics
  document (per-worker rec/s, queue depths, rebalance counters).

Layering: the fleet sits on ``repro.pipeline``, ``repro.stream``,
``repro.resilience``, and ``repro.runtime``.  It never imports
``repro.engine`` or ``repro.collector`` internals — the collector's
fleet adapter (``FleetTarget``) lives on the collector side.
"""

from repro import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.fleet.merge": ("merge_event_logs", "truncate_log"),
        "repro.fleet.metrics": ("FleetMetrics", "WorkerStats"),
        "repro.fleet.ring": ("DEFAULT_RING_SLOTS", "HashRing"),
        "repro.fleet.service": (
            "FleetConfig", "FleetService", "RouterCrash", "run_fleet",
        ),
        "repro.fleet.worker": (
            "WorkerSpec", "worker_checkpoint_dir", "worker_dir",
            "worker_log_path",
        ),
    },
)
