"""The streaming detection engine.

:class:`StreamDetectionEngine` wraps the *online assembly* of the
shared staged pipeline (:func:`repro.pipeline.assemble.
streaming_assembly`): a :class:`~repro.pipeline.flow.
StreamingDetectStage` keyed by salted subscriber digests
(:class:`~repro.pipeline.flow.SubscriberKeying`), driven by a
:class:`~repro.pipeline.flow.FlowPipeline` ingest loop, guarded by a
:class:`~repro.pipeline.core.GuardSet` and tuned by the one
:class:`~repro.pipeline.config.StreamConfig` (re-exported here) — plus
the concerns this module owns outright: crash-safe checkpoint/resume
and the memory-pressure shed ladder.

The engine consumes an ordered flow-record stream as column chunks
(decoded from a flow file, held by the live collector, or routed by a
fleet), folds each record into one bounded per-subscriber state table,
and emits a :class:`~repro.pipeline.events.DetectionEvent` the moment a
rule's domain-evidence threshold ``D`` — and every ancestor's — is
crossed.  Rule evaluation is
:class:`repro.core.detector.SubscriberProgress`, the exact core the
batch :class:`~repro.core.detector.FlowDetector` replays through, so on
an in-order replay the stream's events equal the batch detections (the
golden-oracle property the test-suite enforces).

Crash safety: with checkpointing enabled the engine periodically
persists its entire mutable state (tables, counters, event-sink
position) through :mod:`repro.stream.checkpoint`.  Resuming truncates
the event log to the checkpointed position and re-folds the stream from
the checkpointed record index, reproducing the uninterrupted run's
event log byte for byte.

Determinism boundaries worth knowing:

* out-of-order records are folded with min-merge first-seen semantics
  (see :class:`~repro.core.detector.SubscriberProgress`); already
  emitted events are never retracted;
* LRU/TTL eviction forgets evidence, so a heavily-bounded table may
  re-emit a detection for a re-appearing subscriber — the eviction
  counters in the metrics make this observable.
"""

from __future__ import annotations

import logging
import pathlib
import time
from dataclasses import replace
from typing import Dict, Optional, Set

from repro.core.hitlist import Hitlist
from repro.core.rules import RuleSet
from repro.netflow.parse import ColumnarDecodeStage
from repro.pipeline.assemble import streaming_assembly
from repro.pipeline.config import StreamConfig
from repro.pipeline.core import GuardSet
from repro.pipeline.events import MemoryEventSink
from repro.pipeline.state import EvidenceStateTable
from repro.resilience.quarantine import QuarantineSink
from repro.runtime.deadline import DeadlineBudget
from repro.runtime.memory import MemoryGovernor
from repro.runtime.shutdown import StopToken
from repro.pipeline.swap import (
    PendingSwap,
    RuleGeneration,
    RuleSource,
)
from repro.stream.checkpoint import (
    CheckpointError,
    RuleVersionMismatch,
    load_latest,
    write_checkpoint,
)

__all__ = ["StreamConfig", "StreamDetectionEngine"]

logger = logging.getLogger("repro.stream.processor")

#: Version of the engine-state payload inside a checkpoint.
STATE_VERSION = 1

#: A pressure shrink never reduces a state table below this bound.
_MIN_TABLE_BOUND = 128

#: Config fields that determine detection output; a checkpoint's values
#: are authoritative on resume so a resumed run cannot diverge.
_IDENTITY_FIELDS = (
    "threshold",
    "require_established",
    "max_subscribers",
    "ttl_seconds",
    "salt",
)

#: checkpoint counter -> the ``StreamMetrics`` field it persists
_COUNTERS = {
    "records": "records_processed",
    "matched": "flows_matched",
    "rejected_spoof": "flows_rejected_spoof",
    "events": "events_emitted",
    "checkpoints_written": "checkpoints_written",
    "rules_swaps": "rules_swaps",
    "rules_refresh_failures": "rules_refresh_failures",
    "rules_evidence_migrated": "rules_evidence_migrated",
    "rules_evidence_expired": "rules_evidence_expired",
    "rules_classes_expired": "rules_classes_expired",
}


class StreamDetectionEngine:
    """Incremental, bounded-memory online detector."""

    def __init__(
        self,
        rules: RuleSet,
        hitlist: Hitlist,
        config: Optional[StreamConfig] = None,
        sink=None,
        quarantine: Optional[QuarantineSink] = None,
        stop_token: Optional[StopToken] = None,
        governor: Optional[MemoryGovernor] = None,
        deadline: Optional[DeadlineBudget] = None,
        rules_version: int = 0,
        rule_source: Optional[RuleSource] = None,
    ) -> None:
        config = config or StreamConfig()
        if config.checkpoint_every and config.checkpoint_dir is None:
            raise ValueError(
                "checkpoint_every needs a checkpoint_dir"
            )
        self.config = config
        self.sink = sink if sink is not None else MemoryEventSink()
        if quarantine is None and config.quarantine_dir is not None:
            quarantine = QuarantineSink(config.quarantine_dir)
        self.quarantine = quarantine
        #: ``(pending_version, activate_at)`` a resumed checkpoint had
        #: staged: :meth:`resume` re-stages it from the rule source at
        #: that boundary (and reports it even when the source lost it)
        self.checkpoint_pending_rules: Optional[tuple] = None
        self.rule_source = rule_source
        #: fleet lineage carried verbatim through checkpoints — the
        #: owning worker records ``{"worker_id", "ring_epoch",
        #: "slot_counts"}`` here and the router reads it back on
        #: resume/rebalance to rebuild per-slot replay offsets.  A
        #: single-engine run leaves it ``None`` and its checkpoint
        #: payloads are unchanged.
        self.lineage: Optional[Dict[str, object]] = None
        self.governor = governor
        self.deadline = deadline
        self._guards = GuardSet(
            stop_token=stop_token,
            governor=governor,
            deadline=deadline,
            on_pressure=self._shed_memory,
        )
        # The online assembly (see repro.pipeline), checkpointing
        # through this engine.
        self._pipeline = streaming_assembly(
            rules,
            hitlist,
            config,
            sink=self.sink,
            guards=self._guards,
            on_checkpoint=self.write_checkpoint,
        )
        if rule_source is not None and rule_source.refresh_every:
            self._pipeline.poll_every = rule_source.refresh_every
            self._pipeline.on_poll = lambda: self._stage_from_source(
                rule_source.head()
            )
        self._stage = self._pipeline.stage
        self.metrics = self._stage.metrics
        self.metrics.rules_active_version = rules_version
        # One overload document: the guard set's (a governor brings
        # its own).
        self.metrics.overload = self._guards.overload
        #: digests whose evidence a pressure shrink discarded — the
        #: accounting tests use this to scope the match-on-unshedded
        #: guarantee
        self.shed_subscribers: Set[str] = set()
        self._pressure_sheds = 0

    # -- construction from a checkpoint -------------------------------

    @classmethod
    def resume(
        cls,
        rules: RuleSet,
        hitlist: Hitlist,
        config: Optional[StreamConfig] = None,
        sink=None,
        quarantine: Optional[QuarantineSink] = None,
        stop_token: Optional[StopToken] = None,
        governor: Optional[MemoryGovernor] = None,
        deadline: Optional[DeadlineBudget] = None,
        rules_version: int = 0,
        migrate_rules: bool = False,
        rule_source: Optional[RuleSource] = None,
    ) -> "StreamDetectionEngine":
        """Rebuild an engine from the newest usable checkpoint.

        Detection-identity fields (threshold, table bounds, salt) are
        taken from the checkpoint — they must not drift across a resume
        or the continued run would diverge from the uninterrupted one.  Operational fields (checkpoint cadence,
        retention, directory) come from ``config``.  The sink is
        truncated to the checkpointed position so re-folded records
        re-emit into a log that ends up byte-identical.  The metrics
        record which checkpoint generation was resumed from and how
        many damaged generations were skipped getting there.  A
        directory whose every checkpoint another release wrote (a
        different file-format version) raises
        :class:`~repro.stream.checkpoint.CheckpointVersionError`, which
        says so, instead of "no usable checkpoint".  A checkpoint of a
        run that split its state with the removed ``workers`` option is
        refused by name (:class:`~repro.stream.checkpoint.
        CheckpointError`), never merged.

        Rule-generation identity: the checkpoint records the rules
        version its evidence accumulated under.  With ``migrate_rules``
        the checkpointed evidence is migrated to the supplied
        generation (surviving domains keep their windows; dropped
        domains/classes are expired and counted).  Otherwise a
        different ``rules_version`` resumes under the checkpoint's own
        generation when ``rule_source`` still holds it — always exact —
        and raises :class:`~repro.stream.checkpoint.RuleVersionMismatch`
        when it does not.  A swap the checkpoint had staged is
        re-staged from the source at its checkpointed boundary; if the
        source lost that generation the run resumes without it (one
        warning, :attr:`checkpoint_pending_rules` still set).
        """
        config = config or StreamConfig()
        if config.checkpoint_dir is None:
            raise ValueError("resume needs config.checkpoint_dir")
        loaded = load_latest(config.checkpoint_dir)
        if loaded is None:
            raise CheckpointError(
                f"no usable checkpoint under {config.checkpoint_dir}"
            )
        payload = loaded.payload
        version = payload.get("state_version")
        if version != STATE_VERSION:
            raise CheckpointError(
                f"engine state version {version!r} unsupported"
            )
        ckpt_rules = payload.get("rules") or {}
        ckpt_rules_version = int(ckpt_rules.get("active_version", 0))
        if ckpt_rules_version != rules_version and not migrate_rules:
            held = rule_source and rule_source.generation(
                ckpt_rules_version
            )
            if held is None:
                raise RuleVersionMismatch(ckpt_rules_version, rules_version)
            rules, hitlist = held.rules, held.hitlist
            rules_version = ckpt_rules_version
        saved = payload["config"]
        shards = max(int(saved.get("workers", 1)), len(payload["tables"]))
        if shards != 1:
            raise CheckpointError(
                f"checkpoint was written with the removed option "
                f"workers={shards} ({shards} state tables in one engine); "
                f"this release keeps one table per engine — finish that "
                f"run with the release that wrote it"
            )
        config = replace(
            config,
            **{name: saved[name] for name in _IDENTITY_FIELDS},
        )
        engine = cls(
            rules,
            hitlist,
            config,
            sink,
            quarantine=quarantine,
            stop_token=stop_token,
            governor=governor,
            deadline=deadline,
            rules_version=rules_version,
            rule_source=rule_source,
        )
        engine.metrics.resumed_from_generation = loaded.seq
        engine.metrics.checkpoint_fallbacks = loaded.fallbacks
        engine._stage.table = EvidenceStateTable.from_state(
            payload["tables"][0]
        )
        for name, field in _COUNTERS.items():
            setattr(engine.metrics, field, int(payload["counters"][name]))
        engine.metrics.watermark = int(payload["watermark"])
        if ckpt_rules_version != rules_version:
            engine._stage._migrate_evidence(rules)
        pending_version = ckpt_rules.get("pending_version")
        if pending_version is not None:
            engine.checkpoint_pending_rules = pending = (
                int(pending_version),
                int(ckpt_rules["pending_activate_at"]),
            )
            if rule_source and not engine._stage_from_source(*pending):
                logger.warning(
                    "checkpoint had rules v%d staged for event-time %d "
                    "but the rule source no longer holds it; resuming "
                    "without it",
                    *pending,
                )
        engine.sink.truncate_to(int(payload["sink_position"]))
        lineage = payload.get("lineage")
        if lineage is not None:
            engine.lineage = dict(lineage)
        return engine

    # -- live rule swap (see repro.pipeline.swap) ----------------------

    @property
    def rules(self) -> RuleSet:
        """The *active* rule set (follows hot swaps)."""
        return self._stage.rules

    @property
    def hitlist(self) -> Hitlist:
        """The *active* hitlist (follows hot swaps)."""
        return self._stage.hitlist

    @property
    def rules_version(self) -> int:
        """The rule generation currently detecting (0 = unversioned)."""
        return self.metrics.rules_active_version

    @property
    def pending_rules(self) -> Optional[PendingSwap]:
        """The staged generation awaiting activation, if any."""
        return self._stage._pending_swap

    def stage_rules(
        self,
        generation: RuleGeneration,
        activate_at: Optional[int] = None,
    ) -> int:
        """Stage a new rule generation for the next hour boundary.

        Delegates to :meth:`~repro.pipeline.flow.FlowDetectStage.
        stage_swap`; returns the event-time boundary the swap will
        activate at.  The engine's public ``rules``/``hitlist`` follow
        the flip the moment it happens (they read through to the
        stage), so callers observing the engine always see the active
        generation.
        """
        return self._stage.stage_swap(generation, activate_at)

    def _stage_from_source(
        self, version: int, activate_at: Optional[int] = None
    ) -> bool:
        """Stage generation ``version`` from the rule source unless it
        is not newer than what is active or pending (idempotent: asking
        twice changes nothing); ``False`` when the source lacks it."""
        pending = self.pending_rules
        current = pending.generation.version if pending else self.rules_version
        if version <= current:
            return True
        generation = self.rule_source.generation(version)
        if generation is not None:
            self.stage_rules(generation, activate_at)
        return generation is not None

    @property
    def records_processed(self) -> int:
        """Records folded so far — the resume/skip coordinate."""
        return self.metrics.records_processed

    @property
    def table(self) -> EvidenceStateTable:
        """The Detect stage's evidence table (the checkpoint's bulk)."""
        return self._stage.table

    # -- ingest -------------------------------------------------------

    def process_chunks(
        self,
        chunks,
        max_records: Optional[int] = None,
        admitted: bool = False,
    ) -> int:
        """Fold :class:`~repro.netflow.parse.FlowChunk` batches;
        returns records folded.

        ``max_records`` bounds this call (a kill mid-stream, for the
        tests); the engine remains resumable afterwards.  Runtime
        guards (stop token, ``deadline``, memory ``governor``) are
        polled once per chunk: a requested stop or an expired deadline
        ends the call early (call :meth:`drain` to persist), memory
        pressure runs the shed ladder in place.  Fleet workers pass
        :class:`~repro.netflow.parse.IndexedFlowChunk` rows, which
        fold under the global stream indices they carry.  ``admitted``
        rows were received before the caller honoured a stop and fold
        even when one is already requested (the collector's drain).
        """
        try:
            return self._pipeline.run_chunks(
                chunks, max_records=max_records, admitted=admitted
            )
        finally:
            self._sync_state_metrics()

    def process_flowfile(
        self,
        path,
        max_records: Optional[int] = None,
    ) -> int:
        """Replay a flow file, continuing from ``records_processed``.

        Records already folded (a fresh engine has none; a resumed one
        skips the checkpointed prefix) are fast-forwarded over, so
        calling this repeatedly — across kills and resumes — always
        continues where the engine left off.  The file is decoded into
        column chunks of ``config.chunk_size`` rows and folded through
        :meth:`process_chunks`.
        """
        decode = ColumnarDecodeStage(
            self.config.chunk_size, quarantine=self.quarantine
        )
        return self.process_chunks(
            decode.iter_chunks(path, skip=self.records_processed),
            max_records=max_records,
        )

    # -- checkpointing ------------------------------------------------

    def write_checkpoint(self) -> pathlib.Path:
        """Persist the full engine state atomically."""
        if self.config.checkpoint_dir is None:
            raise ValueError("engine has no checkpoint_dir configured")
        started = time.perf_counter()
        self.sink.flush(sync=True)
        metrics = self.metrics
        counters = {
            name: getattr(metrics, field)
            for name, field in _COUNTERS.items()
        }
        counters["checkpoints_written"] += 1  # counting this one
        payload: Dict[str, object] = {
            "state_version": STATE_VERSION,
            "config": {
                name: getattr(self.config, name)
                for name in _IDENTITY_FIELDS
            },
            "counters": counters,
            "rules": {
                "active_version": metrics.rules_active_version,
                "pending_version": metrics.rules_pending_version,
                "pending_activate_at": (
                    metrics.rules_pending_activate_at
                ),
            },
            "watermark": metrics.watermark,
            "sink_position": self.sink.position(),
            # ``to_state()`` with the entries left as a stream: the
            # writer packs them one at a time
            "tables": [
                {
                    **self.table.scalar_state(),
                    "entries": self.table.entry_states(),
                }
            ],
        }
        if self.lineage is not None:
            payload["lineage"] = dict(self.lineage)
        path = write_checkpoint(
            self.config.checkpoint_dir,
            metrics.records_processed,
            payload,
            keep=self.config.checkpoint_keep,
        )
        metrics.checkpoints_written += 1
        metrics.records_since_checkpoint = 0
        metrics.checkpoint_seconds += time.perf_counter() - started
        return path

    # -- runtime guards (see repro.pipeline.core) ---------------------

    @property
    def stop_token(self) -> Optional[StopToken]:
        """The explicit token, else the active coordinator's."""
        return self._guards.stop_token

    @property
    def stopped(self) -> bool:
        """A guard (signal or deadline) ended the last ingest early."""
        return self._guards.stopped

    def _shed_memory(self, governor: MemoryGovernor) -> None:
        """Run the shed ladder, lossless rungs before lossy ones.

        First pressure event: drop the recomputable identity cache,
        persist an early checkpoint (so shrinking afterwards cannot
        widen the replay window), and collect garbage — detection
        output is unaffected.  If pressure persists into later shed
        events, evidence is shed for real: the state table is shrunk
        to half its occupancy (never below ``_MIN_TABLE_BOUND``), with
        the evicted digests recorded in :attr:`shed_subscribers`.
        Subscribers never shed keep exactly the detections an
        unconstrained run would give them.
        """
        self._pressure_sheds += 1
        freed = self._stage.keying.forget()
        if freed:
            governor.record_action(
                "identity_cache_clear", units=freed
            )
        if (
            self.config.checkpoint_dir is not None
            and self.metrics.records_since_checkpoint
        ):
            self.write_checkpoint()
            governor.record_action("early_checkpoint")
        governor.collect_garbage()
        if self._pressure_sheds == 1:
            return
        table = self.table
        evicted = table.shrink(max(_MIN_TABLE_BOUND, len(table) // 2))
        self.shed_subscribers.update(evicted)
        if evicted:
            governor.record_action("table_shrink", units=len(evicted))

    def drain(self) -> Optional[pathlib.Path]:
        """Persist everything a resume needs; returns the checkpoint.

        Called after an early stop (signal, deadline): writes a final
        checkpoint at the exact record index reached — any index, not
        just a ``checkpoint_every`` boundary — and flushes the event
        sink, so the resumed run's event log ends byte-identical to an
        uninterrupted run's.  A no-op checkpoint-wise when nothing was
        folded since the last one, or without a checkpoint directory.
        """
        path = None
        if (
            self.config.checkpoint_dir is not None
            and self.metrics.records_since_checkpoint
        ):
            path = self.write_checkpoint()
        self.sink.flush(sync=True)
        self._sync_state_metrics()
        return path

    # -- reporting ----------------------------------------------------

    def _sync_state_metrics(self) -> None:
        table = self.table
        self.metrics.subscribers_tracked = len(table)
        self.metrics.evicted_lru = table.evicted_lru
        self.metrics.evicted_ttl = table.evicted_ttl
        self.metrics.evicted_pressure = table.evicted_pressure
        if table.pressure_evicted:
            self.shed_subscribers.update(table.pressure_evicted)
            table.pressure_evicted.clear()
        if self.quarantine is not None:
            self.metrics.records_quarantined = self.quarantine.total
            self.metrics.quarantine_reasons = dict(self.quarantine.counts)

    def metrics_dict(self) -> Dict[str, object]:
        """The ``repro.engine.metrics/1`` stream metrics document."""
        self._sync_state_metrics()
        return self.metrics.to_dict()
