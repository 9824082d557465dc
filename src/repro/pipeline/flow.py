"""The staged flow hot path shared by every detection entry point.

Conceptually a record moves through five stages::

    Source → Decode → Validate → Detect → Sink

In practice a per-record method call per stage would dominate the
per-record budget (the stream path folds ~350k records/second), so the
middle three stages are *fused* into one :meth:`FlowDetectStage.observe`
call: watermark accounting, the TCP-established anti-spoofing filter
(Validate), the day-cached hitlist endpoint lookup (Decode against the
hitlist), and the per-key evidence fold (Detect).  Only records that
match a hitlist endpoint — a small fraction — pay the polymorphic
``_fold`` dispatch, so an assembly chooses its semantics without taxing
the non-matching majority:

* :class:`StreamingDetectStage` folds into bounded
  :class:`~repro.pipeline.state.EvidenceStateTable` shards and emits
  :class:`~repro.pipeline.events.DetectionEvent` instances the moment a
  rule chain completes (the online path);
* :class:`BatchDetectStage` accumulates unbounded first-seen evidence
  and replays it on demand, reproducing the batch
  :class:`~repro.core.detector.FlowDetector` result exactly (the
  offline path).

Keying is the other assembly axis: :class:`SubscriberKeying` anonymises
raw subscriber line identifiers into salted digests and shards by
digest (ISP paths), :class:`AddressKeying` keys by source address
(the IXP path, where no subscriber notion exists).

:class:`FlowPipeline` is the driver, and the shape of its input picks
the loop: bulk input (flow files, record iterables, fleet admission,
the IXP fabric, sweep cells, the live collector's held datagram
blocks) arrives as :class:`~repro.netflow.parse.FlowChunk` column
batches and folds through :meth:`FlowPipeline.run_chunks` — the same
fused stages vectorized (:mod:`repro.pipeline.columnar`); the
per-record loop (:meth:`FlowPipeline.run_tuples` /
:meth:`FlowPipeline.run_records`) is what the backpressure-aware replay
source needs and what the tests hold the chunk loop to.  Both loops
share one sink
emission, one checkpoint cadence (``checkpoint_every`` names the same
record positions on either) and one guard set.  The batch engine, the
stream engine, and the IXP fabric path are thin assemblies of these
parts.
"""

from __future__ import annotations

import itertools
import time
from typing import Dict, Iterable, List, Optional, Tuple

from repro.cloud.addressing import ip_to_str
from repro.core.detector import (
    Detection,
    SubscriberProgress,
    _AnonymizerCache,
)
from repro.core.hitlist import Hitlist
from repro.core.rules import RuleSet
from repro.netflow.parse import FlowChunk
from repro.netflow.records import PROTO_TCP, TCP_ACK, TCP_SYN
from repro.pipeline.columnar import EndpointDayIndex, observe_chunk
from repro.pipeline.core import GUARD_STRIDE, GuardSet
from repro.pipeline.events import DetectionEvent, MemoryEventSink
from repro.pipeline.metrics import StreamMetrics
from repro.pipeline.state import EvidenceStateTable
from repro.pipeline.swap import (
    PendingSwap,
    RuleGeneration,
    migrate_tables,
    next_activation,
)
from repro.timeutil import SECONDS_PER_DAY, STUDY_START

__all__ = [
    "SubscriberKeying",
    "AddressKeying",
    "FlowDetectStage",
    "StreamingDetectStage",
    "BatchDetectStage",
    "FlowPipeline",
]


class SubscriberKeying:
    """Raw subscriber line id → ``(salted digest, state shard)``.

    The digest is the anonymisation boundary (raw identifiers never
    persist past this point); the shard index partitions per-key state
    across ``shards`` tables by digest, so the shard count never
    changes *which* events are emitted, only how state is split.  The
    raw-id → identity cache is recomputable, which is why
    :meth:`forget` may drop it under memory pressure without affecting
    detection output.
    """

    __slots__ = ("shards", "_digests", "_identities")

    def __init__(self, salt: str = "haystack", shards: int = 1) -> None:
        if shards < 1:
            raise ValueError("shards must be >= 1")
        self.shards = shards
        self._digests = _AnonymizerCache(salt)
        self._identities: Dict[int, Tuple[str, int]] = {}

    def identity(self, raw: int) -> Tuple[str, int]:
        """The cached ``(digest, shard)`` identity for a raw id."""
        identity = self._identities.get(raw)
        if identity is None:
            digest = self._digests(raw)
            identity = (digest, int(digest, 16) % self.shards)
            self._identities[raw] = identity
        return identity

    def ring_hash(self, raw: int) -> int:
        """The stable integer the fleet ring partitions by.

        The full digest value, before any ``% shards`` reduction — so a
        ring of any slot count and a keying of any shard count agree on
        which key a record belongs to.  ``identity(raw)[1]`` equals
        ``ring_hash(raw) % shards`` by construction; the golden-vector
        test pins both so an accidental hash change (which would
        silently corrupt fleet ring assignment and checkpoint lineage)
        fails tier-1.
        """
        digest, _ = self.identity(raw)
        return int(digest, 16)

    def forget(self) -> int:
        """Drop the recomputable identity cache; entries freed."""
        count = len(self._identities)
        self._identities.clear()
        return count


class AddressKeying:
    """Source address → ``(dotted quad, state shard)`` (IXP paths).

    At an IXP there is no subscriber notion — detection is per source
    address per the paper's Section 6 — so the key is the address
    itself, rendered printable.  The memo cache is recomputable and
    sheddable, mirroring :class:`SubscriberKeying`.
    """

    __slots__ = ("shards", "_names")

    def __init__(self, shards: int = 1) -> None:
        if shards < 1:
            raise ValueError("shards must be >= 1")
        self.shards = shards
        self._names: Dict[int, Tuple[str, int]] = {}

    def identity(self, raw: int) -> Tuple[str, int]:
        """The cached ``(dotted quad, shard)`` identity for an address."""
        identity = self._names.get(raw)
        if identity is None:
            identity = (ip_to_str(raw), raw % self.shards)
            self._names[raw] = identity
        return identity

    def ring_hash(self, raw: int) -> int:
        """The stable integer the fleet ring partitions by.

        The address itself: ``identity(raw)[1]`` is ``raw % shards``,
        so the address is the pre-reduction hash.
        """
        return raw

    def forget(self) -> int:
        """Drop the recomputable name cache; entries freed."""
        count = len(self._names)
        self._names.clear()
        return count


class FlowDetectStage:
    """Fused Decode/Validate/Detect over raw record fields.

    :meth:`observe` is the per-record hot call.  It takes scalar
    fields rather than a record object so the tuple path never
    constructs records, and it fuses the cheap universal work —
    counters, watermark, the established filter, the day-cached
    endpoint lookup — dispatching to the subclass :meth:`_fold` only
    for the records that matched a hitlist endpoint.
    :func:`~repro.pipeline.columnar.observe_chunk` is the same fused
    work over a whole column chunk, reading :attr:`index` where
    ``observe`` reads the day dicts.
    """

    __slots__ = (
        "rules",
        "hitlist",
        "threshold",
        "require_established",
        "keying",
        "metrics",
        "_daily",
        "_day_front",
        "_endpoints_front",
        "_day_back",
        "_endpoints_back",
        "_index",
        "_pending_swap",
    )

    def __init__(
        self,
        rules: RuleSet,
        hitlist: Hitlist,
        keying,
        threshold: float = 0.4,
        require_established: bool = False,
        metrics: Optional[StreamMetrics] = None,
    ) -> None:
        self.rules = rules
        self.hitlist = hitlist
        self.threshold = threshold
        self.require_established = require_established
        self.keying = keying
        self.metrics = metrics if metrics is not None else StreamMetrics(
            threshold=threshold
        )
        self._daily = hitlist.daily_endpoints
        # Two-entry day cache: out-of-order records that jitter across
        # a UTC day boundary alternate between two days, and a single
        # cached day would re-fetch from ``_daily`` on every flip.
        self._day_front: Optional[int] = None
        self._endpoints_front: Dict[Tuple[int, int], str] = {}
        self._day_back: Optional[int] = None
        self._endpoints_back: Dict[Tuple[int, int], str] = {}
        self._index: Optional[EndpointDayIndex] = None
        #: staged rule generation awaiting its event-time boundary
        self._pending_swap: Optional[PendingSwap] = None

    @property
    def index(self) -> EndpointDayIndex:
        """The active hitlist as the sorted per-day index chunk
        lookups search (compiled on first use, swapped with the
        rules)."""
        if self._index is None:
            self._index = EndpointDayIndex(self._daily)
        return self._index

    def observe(
        self,
        index: int,
        when: int,
        src: int,
        dst: int,
        proto: int,
        dport: int,
        flags: int,
    ) -> Optional[List[DetectionEvent]]:
        """Fold one record; completed detections (usually ``None``)."""
        metrics = self.metrics
        metrics.records_processed += 1
        metrics.records_since_checkpoint += 1
        if when > metrics.watermark:
            metrics.watermark = when
        if (
            self._pending_swap is not None
            and when >= self._pending_swap.activate_at
        ):
            self._apply_swap()
        if (
            self.require_established
            and proto == PROTO_TCP
            and not (flags & TCP_ACK and not flags & TCP_SYN)
        ):
            metrics.flows_rejected_spoof += 1
            return None
        day = (when - STUDY_START) // SECONDS_PER_DAY
        if day != self._day_front:
            if day == self._day_back:
                self._day_front, self._day_back = day, self._day_front
                self._endpoints_front, self._endpoints_back = (
                    self._endpoints_back,
                    self._endpoints_front,
                )
            else:
                self._day_back = self._day_front
                self._endpoints_back = self._endpoints_front
                self._day_front = day
                self._endpoints_front = self._daily.get(day, {})
        fqdn = self._endpoints_front.get((dst, dport))
        if fqdn is None:
            return None
        metrics.flows_matched += 1
        return self._fold(index, when, src, fqdn)

    def _fold(
        self, index: int, when: int, src: int, fqdn: str
    ) -> Optional[List[DetectionEvent]]:
        raise NotImplementedError

    # -- live rule swap (see repro.pipeline.swap) ---------------------

    def stage_swap(
        self,
        generation: RuleGeneration,
        activate_at: Optional[int] = None,
    ) -> int:
        """Stage ``generation`` for activation at an event-time boundary.

        With ``activate_at`` omitted the boundary is the next hour
        after the current watermark (:func:`~repro.pipeline.swap.
        next_activation`).  The swap applies at the first observed
        record whose timestamp reaches the boundary — in arrival
        order — so activation is deterministic in the record stream
        regardless of how the run is segmented.  Returns the boundary.
        """
        if activate_at is None:
            activate_at = next_activation(self.metrics.watermark)
        self._pending_swap = PendingSwap(generation, activate_at)
        self.metrics.rules_pending_version = generation.version
        self.metrics.rules_pending_activate_at = activate_at
        return activate_at

    def _apply_swap(self) -> None:
        """Take the staged generation live (called on the hot path).

        Reference flips plus one bounded evidence-migration pass: the
        rule set, daily-endpoint mapping and chunk index (the
        generation's prebuilt one, else compiled on next use) are
        exchanged, the two-day endpoint cache is invalidated, and
        subclasses migrate their per-key evidence in
        :meth:`_migrate_evidence`.
        """
        pending = self._pending_swap
        assert pending is not None
        self._pending_swap = None
        generation = pending.generation
        self.rules = generation.rules
        self.hitlist = generation.hitlist
        self._daily = generation.hitlist.daily_endpoints
        self._index = generation.index
        self._day_front = None
        self._endpoints_front = {}
        self._day_back = None
        self._endpoints_back = {}
        metrics = self.metrics
        metrics.rules_active_version = generation.version
        metrics.rules_pending_version = None
        metrics.rules_pending_activate_at = None
        metrics.rules_swaps += 1
        self._migrate_evidence(generation.rules)

    def _migrate_evidence(self, rules: RuleSet) -> None:
        """Subclasses owning per-key evidence migrate it here."""

    def shed_pressure(self) -> None:
        """Default pressure response: drop recomputable caches."""
        self.keying.forget()


class StreamingDetectStage(FlowDetectStage):
    """Online Detect: bounded per-key state, events on completion.

    Per-key evidence lives in LRU/TTL-bounded
    :class:`~repro.pipeline.state.EvidenceStateTable` shards (one per
    keying shard).  The tables are *assignable* — a resuming engine
    restores checkpointed tables in place — and shrinkable under
    memory pressure.
    """

    __slots__ = ("tables",)

    def __init__(
        self,
        rules: RuleSet,
        hitlist: Hitlist,
        keying,
        tables: List[EvidenceStateTable],
        threshold: float = 0.4,
        require_established: bool = False,
        metrics: Optional[StreamMetrics] = None,
    ) -> None:
        super().__init__(
            rules,
            hitlist,
            keying,
            threshold=threshold,
            require_established=require_established,
            metrics=metrics,
        )
        if len(tables) != keying.shards:
            raise ValueError(
                f"{len(tables)} state tables for {keying.shards} shards"
            )
        self.tables = tables

    def _fold(
        self, index: int, when: int, src: int, fqdn: str
    ) -> Optional[List[DetectionEvent]]:
        key, shard = self.keying.identity(src)
        progress = self.tables[shard].touch(key, when)
        completed = progress.observe(
            self.rules, self.threshold, fqdn, when
        )
        if not completed:
            return None
        return [
            DetectionEvent(
                subscriber=key,
                class_name=class_name,
                detected_at=detected_at,
                record_index=index,
                matched_domains=self.rules.rule(
                    class_name
                ).matched_domains(progress.first_seen),
            )
            for class_name, detected_at in completed
        ]

    def _migrate_evidence(self, rules: RuleSet) -> None:
        """Migrate every state shard's evidence to the new rules.

        Surviving domains keep their first-seen windows, dropped
        domains/classes are expired — each tallied into the ``rules``
        metrics section (see :func:`~repro.pipeline.swap.
        migrate_tables` for the exact semantics).
        """
        report = migrate_tables(self.tables, rules)
        metrics = self.metrics
        metrics.rules_evidence_migrated += report.domains_kept
        metrics.rules_evidence_expired += report.domains_expired
        metrics.rules_classes_expired += report.classes_expired


class BatchDetectStage(FlowDetectStage):
    """Offline Detect: unbounded evidence, replayed on demand.

    Accumulates per-key first-seen evidence exactly like the batch
    :class:`~repro.core.detector.FlowDetector`'s store (min-merge on
    out-of-order arrivals) and computes :meth:`detections` by replaying
    each key's evidence in time order — so for the same flows the
    result equals ``FlowDetector.detections()`` verbatim, the
    cross-path equivalence the tests pin down.
    """

    __slots__ = ("_evidence",)

    def __init__(
        self,
        rules: RuleSet,
        hitlist: Hitlist,
        keying,
        threshold: float = 0.4,
        require_established: bool = False,
        metrics: Optional[StreamMetrics] = None,
    ) -> None:
        super().__init__(
            rules,
            hitlist,
            keying,
            threshold=threshold,
            require_established=require_established,
            metrics=metrics,
        )
        #: key -> fqdn -> earliest observation timestamp
        self._evidence: Dict[str, Dict[str, int]] = {}

    def _fold(
        self, index: int, when: int, src: int, fqdn: str
    ) -> None:
        key, _ = self.keying.identity(src)
        domains = self._evidence.setdefault(key, {})
        previous = domains.get(fqdn)
        if previous is None or when < previous:
            domains[fqdn] = when
        return None

    def detections(
        self, threshold: Optional[float] = None
    ) -> List[Detection]:
        """Earliest detection per (key, class), batch semantics."""
        threshold = self.threshold if threshold is None else threshold
        results: List[Detection] = []
        for key, evidence in self._evidence.items():
            ordered = sorted(
                evidence.items(), key=lambda item: (item[1], item[0])
            )
            progress = SubscriberProgress()
            emitted: List[Tuple[str, int]] = []
            for fqdn, when in ordered:
                emitted.extend(
                    progress.observe(self.rules, threshold, fqdn, when)
                )
            seen = set(evidence)
            results.extend(
                Detection(
                    subscriber=key,
                    class_name=class_name,
                    detected_at=detected_at,
                    matched_domains=self.rules.rule(
                        class_name
                    ).matched_domains(seen),
                )
                for class_name, detected_at in emitted
            )
        results.sort(
            key=lambda item: (
                item.detected_at,
                item.class_name,
                item.subscriber,
            )
        )
        return results


class FlowPipeline:
    """The guarded ingest driver every flow assembly runs.

    Owns the loop-level concerns the Detect stage must not: sink
    emission, checkpoint cadence (``checkpoint_every`` records, via the
    ``on_checkpoint`` callback the owning assembly provides), guard
    polling, ``max_records`` bounding, wall-time accounting, and — for
    backpressure-aware sources — high-watermark and shed-drop folding
    into the overload metrics.

    Two loops, one policy.  :meth:`run_chunks` folds column chunks and
    is what every bulk input uses; it splits a chunk at the
    ``max_records`` budget and at the ``checkpoint_every`` boundary, so
    both name exact record positions, and polls the guards once per
    (sub-)chunk.  :meth:`run_tuples`/:meth:`run_records` fold record by
    record, polling the guards every
    :data:`~repro.pipeline.core.GUARD_STRIDE` records.  The cadence
    counter (``metrics.records_since_checkpoint``) runs across calls
    and loops: only a checkpoint resets it, so ingest segmented into
    calls shorter than ``checkpoint_every`` still checkpoints on time.

    A guard stop ends the ingest call early and records the reason in
    the shared overload metrics; the assembly stays resumable and
    decides itself whether to drain (persist a final checkpoint).
    """

    def __init__(
        self,
        stage: FlowDetectStage,
        sink=None,
        guards: Optional[GuardSet] = None,
        checkpoint_every: int = 0,
        on_checkpoint=None,
    ) -> None:
        if checkpoint_every < 0:
            raise ValueError("checkpoint_every must be >= 0")
        if checkpoint_every and on_checkpoint is None:
            raise ValueError("checkpoint_every needs an on_checkpoint")
        self.stage = stage
        self.sink = sink if sink is not None else MemoryEventSink()
        self.guards = guards if guards is not None else GuardSet()
        self.checkpoint_every = checkpoint_every
        self.on_checkpoint = on_checkpoint

    # -- ingest -------------------------------------------------------

    def run_chunks(
        self,
        chunks: Iterable[FlowChunk],
        max_records: Optional[int] = None,
        admitted: bool = False,
    ) -> int:
        """Fold decoded column chunks; records folded.

        Equivalent to feeding the rows of every chunk through
        :meth:`run_tuples` — same events in the same order, same
        metrics, checkpoints at the same record positions — at vector
        speed for the non-matching majority.

        ``admitted`` says the caller took these rows in before it
        honoured a stop (the live collector's held datagrams): the
        already-stopped pre-check is skipped so a drain folds them
        instead of dropping them; guards are still polled per chunk.
        """
        stage = self.stage
        metrics = stage.metrics
        guards = self.guards
        checkpoint_every = self.checkpoint_every
        emit = self._emit
        processed = 0
        if not admitted and guards.check(0) is not None:
            return 0  # stop already requested
        if max_records is not None and max_records <= 0:
            return 0
        started = time.perf_counter()
        try:
            for rest in chunks:
                while len(rest):
                    take = len(rest)
                    if max_records is not None:
                        take = min(take, max_records - processed)
                    if checkpoint_every:
                        take = min(
                            take,
                            max(
                                1,
                                checkpoint_every
                                - metrics.records_since_checkpoint,
                            ),
                        )
                    chunk, rest = rest.head(take), rest.tail(take)
                    observe_chunk(stage, chunk, emit)
                    processed += take
                    if (
                        checkpoint_every
                        and metrics.records_since_checkpoint
                        >= checkpoint_every
                    ):
                        self._checkpoint()
                    if guards.check(take) is not None:
                        return processed
                    if max_records is not None and processed >= max_records:
                        return processed
        finally:
            metrics.process_seconds += time.perf_counter() - started
        return processed

    def run_records(self, source, max_records: Optional[int] = None) -> int:
        """Fold ``(index, FlowRecord)`` pairs; records folded.

        ``source`` is typically a
        :class:`~repro.netflow.replay.FlowReplaySource`; its
        backpressure high watermark and shed-policy drops are folded
        into the metrics when the call ends, however it ends.
        """
        drops_before = dict(getattr(source, "drops", None) or {})
        metrics = self.stage.metrics
        try:
            return self._run(
                (
                    (
                        index,
                        (
                            flow.first_switched,
                            flow.src_ip,
                            flow.dst_ip,
                            flow.protocol,
                            flow.dst_port,
                            flow.tcp_flags,
                        ),
                    )
                    for index, flow in source
                ),
                max_records,
            )
        finally:
            watermark = getattr(source, "high_watermark", None)
            if watermark is not None:
                metrics.source_high_watermark = max(
                    metrics.source_high_watermark, watermark
                )
            self._fold_source_drops(source, drops_before)

    def run_tuples(
        self,
        tuples: Iterable[Tuple[int, int, int, int, int, int]],
        start_index: int = 0,
        max_records: Optional[int] = None,
    ) -> int:
        """Per-record ingest of pre-parsed flow tuples.

        ``tuples`` yields ``(first, src, dst, proto, dport, flags)``
        (see :func:`repro.netflow.replay.iter_flow_tuples`); indices
        are assigned from ``start_index``.  No service folds here any
        more — the live collector holds its datagrams' column blocks
        and folds them through :meth:`run_chunks`, and the fleet's push
        mode turns admitted tuples into chunks before they reach a
        worker: this is the reference loop the tests pin
        :meth:`run_chunks` against.
        """
        return self._run(
            zip(itertools.count(start_index), tuples), max_records
        )

    def _run(self, pairs, max_records: Optional[int]) -> int:
        observe = self.stage.observe
        emit = self._emit
        guards = self.guards
        checkpoint_every = self.checkpoint_every
        metrics = self.stage.metrics
        processed = 0
        guard_left = GUARD_STRIDE
        if guards.check(0) is not None:  # stop already requested
            return 0
        started = time.perf_counter()
        try:
            for index, (when, src, dst, proto, dport, flags) in pairs:
                events = observe(index, when, src, dst, proto, dport, flags)
                if events:
                    emit(events)
                processed += 1
                if (
                    checkpoint_every
                    and metrics.records_since_checkpoint >= checkpoint_every
                ):
                    self._checkpoint()
                guard_left -= 1
                if guard_left <= 0:
                    guard_left = GUARD_STRIDE
                    if guards.check(GUARD_STRIDE) is not None:
                        break
                if max_records is not None and processed >= max_records:
                    break
        finally:
            metrics.process_seconds += time.perf_counter() - started
        return processed

    def _checkpoint(self) -> None:
        self.on_checkpoint()
        self.stage.metrics.records_since_checkpoint = 0

    def _emit(self, events: List[DetectionEvent]) -> None:
        self.sink.extend(events)
        self.stage.metrics.events_emitted += len(events)

    def _fold_source_drops(self, source, drops_before) -> None:
        """Account a source's shed-policy drops since this call began."""
        drops = getattr(source, "drops", None)
        if not drops:
            return
        delta = {
            reason: count - drops_before.get(reason, 0)
            for reason, count in drops.items()
        }
        self.stage.metrics.overload.record_drops(
            {r: c for r, c in delta.items() if c > 0}
        )
