"""Run metrics shared by every pipeline assembly.

One metrics document family (version tag ``repro.engine.metrics/1``,
kept for trajectory continuity) covers every entry point: the
sharded batch engine emits an :class:`EngineMetrics`, the streaming
and flow-replay assemblies a :class:`StreamMetrics`.  Emission lives
here — in :mod:`repro.pipeline` — so the per-stage accounting is
implemented once and the assemblies (:mod:`repro.engine`,
:mod:`repro.stream`) merely fill it in.

Batch schema::

    {
      "schema": "repro.engine.metrics/1",
      "config": {"subscribers": …, "days": …, "seed": …,
                 "sampling_interval": …, "workers": …, "shard_size": …,
                 "max_retries": …, "shard_timeout": …},
      "faults": {"retries": …, "timeouts": …, "pool_restarts": …,
                 "isolated_runs": …, "dead_letters": […],
                 "missing_cohort_hours": …, "unstarted_shards": …},
      "overload": {"memory_budget_bytes": …, "deadline_seconds": …,
                   "rss_peak_bytes": …, "rss_samples": …,
                   "pressure_events": …, "shed_actions": {…},
                   "shed_units": {…}, "ingest_dropped": {…},
                   "stop_reason": …, "degraded": …},
      "stages": {"plan_seconds": …, "simulate_seconds": …,
                 "aggregate_seconds": …, "total_seconds": …},
      "shards": {"count": …, "peak_rss_bytes_max": …,
                 "peak_rss_bytes_mean": …},
      "throughput": {"draws": …, "flows_per_second": …},
      "cohorts": {"<product>": {"owners": …, "universe": …,
                  "shards": …}}
    }

``flows_per_second`` counts simulated per-(owner, hour, domain)
evidence draws — the engine's equivalent of raw flow records folded
through the detector — divided by the simulate-stage wall time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.runtime.overload import OverloadMetrics

__all__ = [
    "ShardMetrics",
    "EngineMetrics",
    "StreamMetrics",
    "METRICS_SCHEMA",
]

#: Version tag carried in every metrics document.
METRICS_SCHEMA = "repro.engine.metrics/1"


@dataclass
class ShardMetrics:
    """Timing/memory/throughput record of one simulated shard."""

    product: str
    owners: int
    universe: int
    wall_seconds: float
    draws: int
    peak_rss_bytes: int


@dataclass
class EngineMetrics:
    """Aggregated metrics of one sharded wild-ISP run."""

    subscribers: int
    days: int
    seed: int
    sampling_interval: int
    workers: int
    shard_size: int
    max_retries: int = 2
    shard_timeout: Optional[float] = None
    plan_seconds: float = 0.0
    simulate_seconds: float = 0.0
    aggregate_seconds: float = 0.0
    shards: List[ShardMetrics] = field(default_factory=list)
    # -- supervision counters (see repro.resilience.supervisor) --------
    retries: int = 0
    timeouts: int = 0
    pool_restarts: int = 0
    isolated_runs: int = 0
    dead_letters: List[Dict[str, object]] = field(default_factory=list)
    #: shards never started because the run stopped (drain/deadline)
    unstarted_shards: int = 0
    #: runtime-guard accounting (see repro.runtime.overload)
    overload: OverloadMetrics = field(default_factory=OverloadMetrics)

    @property
    def total_seconds(self) -> float:
        """Wall time across all engine stages."""
        return (
            self.plan_seconds + self.simulate_seconds + self.aggregate_seconds
        )

    @property
    def total_draws(self) -> int:
        """Simulated evidence draws across all shards."""
        return sum(shard.draws for shard in self.shards)

    @property
    def flows_per_second(self) -> float:
        """Evidence draws folded per simulate-stage wall second."""
        if self.simulate_seconds <= 0:
            return 0.0
        return self.total_draws / self.simulate_seconds

    def cohort_sizes(self) -> Dict[str, Dict[str, int]]:
        """Per-product owner/universe/shard-count summary."""
        cohorts: Dict[str, Dict[str, int]] = {}
        for shard in self.shards:
            entry = cohorts.setdefault(
                shard.product,
                {"owners": 0, "universe": shard.universe, "shards": 0},
            )
            entry["owners"] += shard.owners
            entry["shards"] += 1
        return cohorts

    @property
    def missing_cohort_hours(self) -> int:
        """Owner-hours of evidence lost to dead-lettered shards."""
        return sum(
            int(letter.get("missing_cohort_hours", 0))
            for letter in self.dead_letters
        )

    def record_supervision(self, report) -> None:
        """Fold a :class:`~repro.resilience.supervisor.SupervisorReport`
        into the document's fault counters."""
        self.retries += report.retries
        self.timeouts += report.timeouts
        self.pool_restarts += report.pool_restarts
        self.isolated_runs += report.isolated_runs
        self.dead_letters.extend(
            letter.to_dict() for letter in report.dead_letters
        )
        self.unstarted_shards += report.unstarted
        if report.unstarted:
            self.overload.partial = True
        if report.stop_reason and self.overload.stop_reason is None:
            self.overload.stop_reason = report.stop_reason

    def to_dict(self) -> Dict[str, object]:
        """Render the documented JSON-serialisable schema."""
        rss = [shard.peak_rss_bytes for shard in self.shards]
        return {
            "schema": METRICS_SCHEMA,
            "config": {
                "subscribers": self.subscribers,
                "days": self.days,
                "seed": self.seed,
                "sampling_interval": self.sampling_interval,
                "workers": self.workers,
                "shard_size": self.shard_size,
                "max_retries": self.max_retries,
                "shard_timeout": self.shard_timeout,
            },
            "faults": {
                "retries": self.retries,
                "timeouts": self.timeouts,
                "pool_restarts": self.pool_restarts,
                "isolated_runs": self.isolated_runs,
                "dead_letters": list(self.dead_letters),
                "missing_cohort_hours": self.missing_cohort_hours,
                "unstarted_shards": self.unstarted_shards,
            },
            "overload": self.overload.to_dict(),
            "stages": {
                "plan_seconds": self.plan_seconds,
                "simulate_seconds": self.simulate_seconds,
                "aggregate_seconds": self.aggregate_seconds,
                "total_seconds": self.total_seconds,
            },
            "shards": {
                "count": len(self.shards),
                "peak_rss_bytes_max": max(rss) if rss else 0,
                "peak_rss_bytes_mean": (
                    int(sum(rss) / len(rss)) if rss else 0
                ),
            },
            "throughput": {
                "draws": self.total_draws,
                "flows_per_second": self.flows_per_second,
            },
            "cohorts": self.cohort_sizes(),
        }


@dataclass
class StreamMetrics:
    """Metrics of one :mod:`repro.stream` run (same schema family).

    The document carries the ``repro.engine.metrics/1`` version tag
    with a ``"mode": "stream"`` discriminator, so the same tooling
    tracks batch-engine and stream trajectories.  Beyond the shared
    stage/throughput sections it reports the stream-specific health
    signals: ingest lag (records since the last checkpoint),
    state-table evictions, and checkpoint timings.  ``config.workers``
    and ``lag.source_high_watermark`` are constants — one engine is one
    table, and a chunk source holds no buffer — kept so the document
    keeps its shape.
    """

    max_subscribers: int = 0
    ttl_seconds: Optional[int] = None
    checkpoint_every: int = 0
    threshold: float = 0.4
    records_processed: int = 0
    flows_matched: int = 0
    flows_rejected_spoof: int = 0
    events_emitted: int = 0
    subscribers_tracked: int = 0
    evicted_lru: int = 0
    evicted_ttl: int = 0
    #: entries shed by memory-pressure table shrinks
    evicted_pressure: int = 0
    checkpoints_written: int = 0
    checkpoint_seconds: float = 0.0
    process_seconds: float = 0.0
    records_since_checkpoint: int = 0
    #: event-time high watermark (largest record timestamp seen)
    watermark: int = 0
    #: checkpoint generation resume() loaded, if any
    resumed_from_generation: Optional[int] = None
    #: damaged checkpoint generations skipped while resuming
    checkpoint_fallbacks: int = 0
    #: fresh starts forced by a checkpoint directory holding *only*
    #: torn-write ``.tmp`` leftovers — distinct from a genuinely empty
    #: directory, which a fleet lineage audit must read as "new
    #: worker", not "worker died mid-first-checkpoint"
    tmp_only_fallbacks: int = 0
    records_quarantined: int = 0
    quarantine_reasons: Dict[str, int] = field(default_factory=dict)
    # -- live rule lifecycle (see repro.pipeline.swap) ----------------
    #: rule generation currently detecting (0 = unversioned rules)
    rules_active_version: int = 0
    #: staged generation awaiting its activation boundary, if any
    rules_pending_version: Optional[int] = None
    #: event-time boundary the staged generation activates at
    rules_pending_activate_at: Optional[int] = None
    #: hot swaps applied so far
    rules_swaps: int = 0
    #: failed refresh attempts (backend outage, validation reject, …)
    rules_refresh_failures: int = 0
    #: first-seen domain windows that survived swap migration
    rules_evidence_migrated: int = 0
    #: first-seen windows expired because their domain was dropped
    rules_evidence_expired: int = 0
    #: per-class evidence expired because the class was dropped
    rules_classes_expired: int = 0
    #: runtime-guard accounting (see repro.runtime.overload)
    overload: OverloadMetrics = field(default_factory=OverloadMetrics)
    #: live-collector counters (see repro.collector.metrics) — any
    #: object with ``to_dict()`` (or a plain dict); rendered as the
    #: ``"collector"`` section when set.  ``None`` (file replay, batch)
    #: omits the section, keeping historical documents byte-stable.
    collector: Optional[object] = None
    #: fleet-mode counters (see repro.fleet.metrics) — any object with
    #: ``to_dict()`` (or a plain dict); rendered as the ``"fleet"``
    #: section when set.  ``None`` (single-engine runs) omits it.
    fleet: Optional[object] = None

    @property
    def records_per_second(self) -> float:
        """Records folded per wall second of processing."""
        if self.process_seconds <= 0:
            return 0.0
        return self.records_processed / self.process_seconds

    @property
    def checkpoint_overhead(self) -> float:
        """Fraction of total wall time spent writing checkpoints."""
        total = self.process_seconds + self.checkpoint_seconds
        if total <= 0:
            return 0.0
        return self.checkpoint_seconds / total

    def to_dict(self) -> Dict[str, object]:
        """Render the documented JSON-serialisable schema."""
        doc = {
            "schema": METRICS_SCHEMA,
            "mode": "stream",
            "config": {
                "workers": 1,
                "max_subscribers": self.max_subscribers,
                "ttl_seconds": self.ttl_seconds,
                "checkpoint_every": self.checkpoint_every,
                "threshold": self.threshold,
            },
            "stages": {
                "process_seconds": self.process_seconds,
                "checkpoint_seconds": self.checkpoint_seconds,
                "total_seconds": (
                    self.process_seconds + self.checkpoint_seconds
                ),
            },
            "state": {
                "subscribers_tracked": self.subscribers_tracked,
                "evicted_lru": self.evicted_lru,
                "evicted_ttl": self.evicted_ttl,
                "evicted_pressure": self.evicted_pressure,
            },
            "lag": {
                "records_since_checkpoint": self.records_since_checkpoint,
                "source_high_watermark": 0,
                "event_time_watermark": self.watermark,
            },
            "checkpoints": {
                "written": self.checkpoints_written,
                "seconds": self.checkpoint_seconds,
                "overhead": self.checkpoint_overhead,
                "resumed_from_generation": self.resumed_from_generation,
                "fallbacks": self.checkpoint_fallbacks,
                "tmp_only_fallbacks": self.tmp_only_fallbacks,
            },
            "quarantine": {
                "total": self.records_quarantined,
                "by_reason": dict(sorted(self.quarantine_reasons.items())),
            },
            "rules": {
                "active_version": self.rules_active_version,
                "pending_version": self.rules_pending_version,
                "pending_activate_at": self.rules_pending_activate_at,
                "swap_count": self.rules_swaps,
                "refresh_failures": self.rules_refresh_failures,
                "evidence_migrated": self.rules_evidence_migrated,
                "evidence_expired": self.rules_evidence_expired,
                "classes_expired": self.rules_classes_expired,
            },
            "overload": self.overload.to_dict(),
            "throughput": {
                "records": self.records_processed,
                "matched": self.flows_matched,
                "rejected_spoof": self.flows_rejected_spoof,
                "events": self.events_emitted,
                "records_per_second": self.records_per_second,
            },
        }
        if self.collector is not None:
            render = getattr(self.collector, "to_dict", None)
            doc["collector"] = render() if callable(render) else dict(
                self.collector
            )
        if self.fleet is not None:
            render = getattr(self.fleet, "to_dict", None)
            doc["fleet"] = render() if callable(render) else dict(
                self.fleet
            )
        return doc
