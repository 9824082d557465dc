"""Hot-swap coordination: versioned rule generations and evidence
migration.

A running assembly detects against one *rule generation* — a
``(version, RuleSet, Hitlist)`` triple plus, for chunk lookups, a
prebuilt :class:`~repro.pipeline.columnar.EndpointDayIndex`.  The rule
lifecycle (:mod:`repro.rules.lifecycle`) publishes new generations
while the pipeline runs; this module owns the mechanics of taking one
live without stopping ingest or corrupting evidence:

* **Staging** — :class:`PendingSwap` binds a prepared generation to an
  *event-time* activation boundary (:func:`next_activation`, the next
  hour after the staging watermark).  The Detect stage applies the
  swap at the first record whose timestamp reaches the boundary — in
  arrival order, so activation is a pure function of the record stream
  and the staged ``activate_at``, never of guard strides, chunk sizes,
  resume points, or wall-clock.  A kill/resume across a staged swap
  therefore replays bit-identically.
* **Migration** — evidence accumulated under version ``k`` is folded
  into ``k+1`` by :func:`migrate_table`: first-seen domain windows
  for domains still monitored survive untouched, windows for dropped
  domains are expired, and per-class satisfaction/emission state for
  classes dropped from the rule set is expired — each with its own
  counter, so nothing is silently mixed across generations.  When
  ``k+1`` equals ``k`` nothing is touched at all, which is what makes
  an identity swap provably bit-identical to a no-swap run.

Rebuilding the heavy structures (the chunk day index) belongs to
the refresher thread via :meth:`RuleGeneration.prepare`; the ingest
thread's apply is reference flips plus one bounded migration pass.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Iterable, Optional

from repro.core.hitlist import Hitlist
from repro.core.rules import RuleSet
from repro.pipeline.columnar import EndpointDayIndex

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.detector import SubscriberProgress
    from repro.pipeline.state import EvidenceStateTable

__all__ = [
    "SECONDS_PER_HOUR",
    "RuleGeneration",
    "PendingSwap",
    "RuleSource",
    "MigrationReport",
    "next_activation",
    "migrate_progress",
    "migrate_table",
]

SECONDS_PER_HOUR = 3600


def next_activation(watermark: int) -> int:
    """The next hour boundary strictly after ``watermark``.

    Swaps activate at hour boundaries of *event time* so the boundary
    is stable across kills, resumes, and chunk sizes — everything
    that varies between runs over the same stream.
    """
    return (watermark // SECONDS_PER_HOUR + 1) * SECONDS_PER_HOUR


@dataclass(frozen=True)
class RuleGeneration:
    """One immutable, swappable rule version.

    ``index`` is the prebuilt
    :class:`~repro.pipeline.columnar.EndpointDayIndex`; ``None`` means
    the stage compiles it lazily after the flip (correct, but the
    first chunk per day pays the compile).
    """

    version: int
    rules: RuleSet
    hitlist: Hitlist
    index: Optional[EndpointDayIndex] = field(default=None, compare=False)

    @classmethod
    def prepare(
        cls,
        version: int,
        rules: RuleSet,
        hitlist: Hitlist,
        build_index: bool = False,
    ) -> "RuleGeneration":
        """Assemble a generation, optionally precompiling the day index.

        Precompiling happens on the *caller's* thread (the refresher),
        so the ingest thread's swap is a reference flip.
        """
        index = None
        if build_index:
            index = EndpointDayIndex(hitlist.daily_endpoints)
            for day in tuple(index.days()):
                index.day(day)
        return cls(version, rules, hitlist, index)


@dataclass(frozen=True)
class PendingSwap:
    """A staged generation waiting for its activation boundary."""

    generation: RuleGeneration
    #: first record with ``when >= activate_at`` triggers the swap
    activate_at: int


@dataclass(frozen=True)
class RuleSource:
    """Where a running engine finds rule generations.

    ``generation(version)`` is that generation ready to stage, or
    ``None`` when the source no longer holds it — what a resume
    reconciles a checkpoint's active and pending versions with.
    ``head()`` is the newest version on offer (0 = none): an engine
    polls it before folding record ``k * refresh_every`` (``k >= 1``;
    0 never polls) and stages a newer generation for the next hour
    boundary.  A :class:`~repro.rules.lifecycle.VersionedRuleStore`
    has both methods; a fleet worker wraps its one staged generation.
    """

    generation: Callable[[int], Optional[RuleGeneration]]
    head: Optional[Callable[[], int]] = None
    refresh_every: int = 0

    def __post_init__(self) -> None:
        if self.refresh_every < 0:
            raise ValueError("refresh_every must be >= 0")
        if self.refresh_every and self.head is None:
            raise ValueError("refresh_every needs a head() to poll")


@dataclass
class MigrationReport:
    """What one evidence-migration pass kept and expired."""

    #: first-seen domain windows that survived into the new generation
    domains_kept: int = 0
    #: first-seen windows expired because the domain is gone from the
    #: new generation's monitored set
    domains_expired: int = 0
    #: per-class satisfaction/emission state expired because the class
    #: was dropped from the new rule set
    classes_expired: int = 0


def migrate_progress(
    progress: "SubscriberProgress",
    monitored: Iterable[str],
    rules: RuleSet,
    report: MigrationReport,
) -> None:
    """Migrate one subscriber's evidence to a new rule generation.

    Mutates ``progress`` in place: domains still monitored keep their
    first-seen windows verbatim (so surviving rules detect exactly as
    a fresh run with this evidence preloaded would); dropped domains
    and dropped classes are expired with counted reasons.  When the
    new generation equals the old, this touches nothing — the
    identity-swap bit-identity guarantee rests on that.
    """
    dropped_domains = [
        fqdn for fqdn in progress.first_seen if fqdn not in monitored
    ]
    for fqdn in dropped_domains:
        del progress.first_seen[fqdn]
    report.domains_expired += len(dropped_domains)
    report.domains_kept += len(progress.first_seen)
    dropped_classes = [
        name for name in progress.satisfied_at if name not in rules
    ]
    for name in dropped_classes:
        del progress.satisfied_at[name]
        progress.emitted.discard(name)
    report.classes_expired += len(dropped_classes)


def migrate_table(
    table: "EvidenceStateTable", rules: RuleSet
) -> MigrationReport:
    """Migrate the table's evidence to ``rules``; the tally.

    LRU order, TTL clocks, and eviction counters are untouched —
    migration changes *what* each subscriber's evidence says, never
    the table bookkeeping around it.
    """
    monitored = rules.monitored_domains()
    report = MigrationReport()
    for _digest, progress in table.progress_items():
        migrate_progress(progress, monitored, rules, report)
    return report
