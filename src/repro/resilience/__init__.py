"""Fault-tolerant execution layer (:mod:`repro.resilience`).

At ISP scale the pipeline's failure modes stop being exceptional:
worker processes die mid-run, passive-DNS and scan backends flake, and
collectors hand the detector malformed export records.  The paper's
results only matter if the engine *degrades* under those conditions
instead of dying — detections keep flowing, and whatever evidence was
lost is accounted for explicitly.  This package is that layer:

* :mod:`repro.resilience.retry` — the generic primitives:
  :class:`~repro.resilience.retry.RetryPolicy` (capped exponential
  backoff) and :class:`~repro.resilience.retry.CircuitBreaker`
  (closed/open/half-open over a failure-rate window), plus the typed
  errors fallible backends raise;
* :mod:`repro.resilience.supervisor` — the supervised shard pool
  wrapped around :func:`repro.engine.runner.run_wild_isp_sharded`'s
  process fan-out: detects worker death, re-enqueues failed shards
  with backoff, enforces per-shard wall-clock timeouts via worker
  heartbeats, and quarantines poison shards into dead-letter records
  instead of aborting the run;
* :mod:`repro.resilience.lookups` — resilient adapters over
  :class:`~repro.dns.dnsdb.PassiveDnsDatabase` and
  :class:`~repro.tls.scanner.ScanDataset` access, feeding the graceful
  rule degradation in :func:`repro.core.rules.generate_rules`;
* :mod:`repro.resilience.quarantine` — the ingest quarantine sink that
  counts, samples and skips malformed flow records instead of raising
  mid-stream.

Contract: when every retry succeeds, results are bit-identical to a
clean run (shard RNG streams depend only on the shard plan, never on
which attempt produced the result); when they do not, the metrics
document says exactly which cohort-hours are missing.
"""

from repro import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.resilience.lookups": (
            "LookupStats", "ResilientLookup", "ResilientPassiveDns",
            "ResilientScanDataset",
        ),
        "repro.resilience.quarantine": (
            "QuarantineSink", "validate_flow_record", "validate_flow_tuple",
        ),
        "repro.resilience.retry": (
            "BreakerOpen", "CircuitBreaker", "LookupUnavailable",
            "RetryPolicy", "TransientLookupError", "call_with_retry",
        ),
        "repro.resilience.supervisor": (
            "DeadLetter", "ShardSupervisor", "SupervisorConfig",
            "SupervisorReport",
        ),
    },
)
