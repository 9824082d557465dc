"""The staged flow hot path shared by every detection entry point.

Conceptually a record moves through five stages::

    Source → Decode → Validate → Detect → Sink

A per-record method call per stage would dominate the per-record
budget, so input arrives as :class:`~repro.netflow.parse.FlowChunk`
column batches and the middle three stages are *fused* into one
vectorized pass per chunk (:func:`~repro.pipeline.columnar.
observe_chunk`): watermark accounting, the TCP-established
anti-spoofing filter (Validate), the per-day hitlist endpoint lookup
(Decode against the hitlist), and the per-key evidence fold (Detect).
Only rows that match a hitlist endpoint — a small fraction — pay the
polymorphic ``_fold`` dispatch, so an assembly chooses its semantics
without taxing the non-matching majority:

* :class:`StreamingDetectStage` folds into one bounded
  :class:`~repro.pipeline.state.EvidenceStateTable` and emits
  :class:`~repro.pipeline.events.DetectionEvent` instances the moment a
  rule chain completes (the online path);
* :class:`BatchDetectStage` accumulates unbounded first-seen evidence
  and replays it on demand, reproducing the batch
  :class:`~repro.core.detector.FlowDetector` result exactly (the
  offline path).

Keying is the other assembly axis: :class:`SubscriberKeying` anonymises
raw subscriber line identifiers into salted digests (ISP paths),
:class:`AddressKeying` keys by source address (the IXP's view, where
no subscriber notion exists).

:class:`FlowPipeline` is the driver and :meth:`FlowPipeline.run_chunks`
its one loop: flow files, record iterables, fleet admission, sweep
cells and the live collector's held datagram blocks all fold through
it, with one sink emission, one checkpoint cadence and one guard set.
The batch engine and the stream engine are thin assemblies of these
parts; the tests hold the loop to an
independent row-at-a-time oracle (``tests/reference_fold.py``).
"""

from __future__ import annotations

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
from repro.pipeline.columnar import EndpointDayIndex, observe_chunk
from repro.pipeline.core import GuardSet
from repro.pipeline.events import DetectionEvent, MemoryEventSink
from repro.pipeline.metrics import StreamMetrics
from repro.pipeline.state import EvidenceStateTable
from repro.pipeline.swap import (
    PendingSwap,
    RuleGeneration,
    migrate_table,
    next_activation,
)

__all__ = [
    "SubscriberKeying",
    "AddressKeying",
    "FlowDetectStage",
    "StreamingDetectStage",
    "BatchDetectStage",
    "FlowPipeline",
]


class SubscriberKeying:
    """Raw subscriber line id → ``(salted digest, ring slot)``.

    The digest is the anonymisation boundary (raw identifiers never
    persist past this point).  The slot — ``digest % shards`` — is the
    fleet ring's partition function: a router built with
    ``shards=ring_slots`` reads a record's slot off the same memoised
    lookup; a Detect stage ignores it (one engine, one table).  The
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
        """The cached ``(digest, slot)`` identity for a raw id."""
        identity = self._identities.get(raw)
        if identity is None:
            digest = self._digests(raw)
            identity = (digest, int(digest, 16) % self.shards)
            self._identities[raw] = identity
        return identity

    def ring_hash(self, raw: int) -> int:
        """The stable integer the fleet ring partitions by.

        The full digest value, before any ``% shards`` reduction — so
        rings of any slot count agree on which key a record belongs
        to.  ``identity(raw)[1]`` equals
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
    """Source address → ``(dotted quad, ring slot)`` (the IXP's view).

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
        """The cached ``(dotted quad, slot)`` identity for an address."""
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
    """The Detect stage's state: rules, hitlist index, keying, metrics.

    :func:`~repro.pipeline.columnar.observe_chunk` does the cheap
    universal work over a whole column chunk — counters, watermark, the
    established filter, the per-day endpoint lookup against
    :attr:`index` — and dispatches to the subclass :meth:`_fold` only
    for the rows that matched a hitlist endpoint.
    """

    __slots__ = (
        "rules",
        "hitlist",
        "threshold",
        "require_established",
        "keying",
        "metrics",
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
        self._index: Optional[EndpointDayIndex] = None
        #: staged rule generation awaiting its event-time boundary
        self._pending_swap: Optional[PendingSwap] = None

    @property
    def index(self) -> EndpointDayIndex:
        """The active hitlist as the sorted per-day index chunk
        lookups search (compiled on first use, swapped with the
        rules)."""
        if self._index is None:
            self._index = EndpointDayIndex(self.hitlist.daily_endpoints)
        return self._index

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
        rule set, hitlist and chunk index (the generation's prebuilt
        one, else compiled on next use) are exchanged, and subclasses
        migrate their per-key evidence in :meth:`_migrate_evidence`.
        """
        pending = self._pending_swap
        assert pending is not None
        self._pending_swap = None
        generation = pending.generation
        self.rules = generation.rules
        self.hitlist = generation.hitlist
        self._index = generation.index
        metrics = self.metrics
        metrics.rules_active_version = generation.version
        metrics.rules_pending_version = None
        metrics.rules_pending_activate_at = None
        metrics.rules_swaps += 1
        self._migrate_evidence(generation.rules)

    def _migrate_evidence(self, rules: RuleSet) -> None:
        """Subclasses owning per-key evidence migrate it here."""


class StreamingDetectStage(FlowDetectStage):
    """Online Detect: bounded per-key state, events on completion.

    Per-key evidence lives in one LRU/TTL-bounded
    :class:`~repro.pipeline.state.EvidenceStateTable`.  The table is
    *assignable* — a resuming engine restores the checkpointed one in
    place — and shrinkable under memory pressure.
    """

    __slots__ = ("table",)

    def __init__(
        self,
        rules: RuleSet,
        hitlist: Hitlist,
        keying,
        table: EvidenceStateTable,
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
        self.table = table

    def _fold(
        self, index: int, when: int, src: int, fqdn: str
    ) -> Optional[List[DetectionEvent]]:
        key, _ = self.keying.identity(src)
        progress = self.table.touch(key, when)
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
        """Migrate the table's evidence to the new rules.

        Surviving domains keep their first-seen windows, dropped
        domains/classes are expired — each tallied into the ``rules``
        metrics section (see :func:`~repro.pipeline.swap.
        migrate_table` for the exact semantics).
        """
        report = migrate_table(self.table, rules)
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
    polling, ``max_records`` bounding and wall-time accounting.

    :meth:`run_chunks` is the one loop.  It splits a chunk at three cut
    points — the ``max_records`` budget, the ``checkpoint_every``
    boundary and every multiple of ``poll_every`` stream records (where
    ``on_poll`` runs before the next record folds; the stream engine
    looks for a newer rule generation there) — so all three name exact
    record positions, and polls the guards once per (sub-)chunk.  The
    cadence counter
    (``metrics.records_since_checkpoint``) runs across calls: only a
    checkpoint resets it, so ingest segmented into calls shorter than
    ``checkpoint_every`` still checkpoints on time.

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
        self.poll_every = 0  # the owning assembly's cut point
        self.on_poll = None

    # -- ingest -------------------------------------------------------

    def run_chunks(
        self,
        chunks: Iterable[FlowChunk],
        max_records: Optional[int] = None,
        admitted: bool = False,
    ) -> int:
        """Fold decoded column chunks; records folded.

        Equivalent to folding the rows one at a time in order — same
        events in the same order, same metrics — at vector speed for
        the non-matching majority.

        ``admitted`` says the caller took these rows in before it
        honoured a stop (the live collector's held datagrams): the
        already-stopped pre-check is skipped so a drain folds them
        instead of dropping them; guards are still polled per chunk.
        """
        stage = self.stage
        metrics = stage.metrics
        guards = self.guards
        checkpoint_every = self.checkpoint_every
        poll_every = self.poll_every
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
                    if poll_every:
                        into = metrics.records_processed % poll_every
                        if not into and metrics.records_processed:
                            self.on_poll()
                        take = min(take, poll_every - into)
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

    def _checkpoint(self) -> None:
        self.on_checkpoint()
        self.stage.metrics.records_since_checkpoint = 0

    def _emit(self, events: List[DetectionEvent]) -> None:
        self.sink.extend(events)
        self.stage.metrics.events_emitted += len(events)
