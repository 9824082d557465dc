"""Rule evaluation over sampled flow records.

:class:`FlowDetector` accumulates evidence *cumulatively* per
subscriber and reports, for each detection class, the earliest moment
its rule (and every ancestor's) was satisfied — the Section 5
time-to-detection crosscheck.  (The in-the-wild Figures 11-14 count
per hour/day windows in :mod:`repro.isp.simulation`.)

Subscriber identifiers are anonymised through :func:`anonymize_subscriber`
before they are stored, matching the paper's ethics setup — raw user
addresses never persist in analysis state.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from repro.core.hitlist import Hitlist
from repro.core.rules import RuleSet
from repro.netflow.records import PROTO_TCP, FlowRecord
from repro.timeutil import day_index

__all__ = [
    "anonymize_subscriber",
    "Detection",
    "SubscriberProgress",
    "FlowDetector",
]


def anonymize_subscriber(identifier: int, salt: str = "haystack") -> str:
    """One-way hash of a subscriber identifier (paper Section 2.1)."""
    digest = hashlib.blake2b(
        f"{salt}:{identifier}".encode(), digest_size=8
    ).hexdigest()
    return digest


class _AnonymizerCache:
    """Memoised :func:`anonymize_subscriber` keyed by raw identifier.

    The detector hashes every observed flow's subscriber id; on the
    wild-ISP flow volumes that made blake2b a per-flow hot spot.  The
    cache is bounded by the subscriber population, never the flow count.
    """

    def __init__(self, salt: str = "haystack") -> None:
        self._salt = salt
        self._digests: Dict[int, str] = {}

    def __call__(self, identifier: int) -> str:
        """The cached digest for ``identifier`` (computed on first use)."""
        digest = self._digests.get(identifier)
        if digest is None:
            digest = anonymize_subscriber(identifier, self._salt)
            self._digests[identifier] = digest
        return digest


@dataclass(frozen=True)
class Detection:
    """A claimed detection of one class at one subscriber."""

    subscriber: str
    class_name: str
    detected_at: int  # epoch seconds when the rule chain first held
    matched_domains: Tuple[str, ...]


class SubscriberProgress:
    """Incremental per-subscriber rule evaluation.

    The shared evaluation core of the batch :class:`FlowDetector` and
    the streaming :mod:`repro.stream` path: evidence is fed one
    observation at a time; each call reports the (class, detected_at)
    pairs that observation completes, where ``detected_at`` is the
    instant the class's own rule *and* every ancestor's rule first
    held — the Section 5 time-to-detection semantics.

    Fed evidence in non-decreasing time order, the emitted events are
    exactly the batch detector's :meth:`FlowDetector.detections` for the
    same subscriber.  Out-of-order arrivals are tolerated: an earlier
    first-seen time is folded into the evidence (min-merge, matching the
    batch store), but satisfaction times already recorded are not
    revised — the streaming path trades retroactive corrections for
    bounded state.
    """

    __slots__ = ("first_seen", "satisfied_at", "emitted")

    def __init__(self) -> None:
        #: fqdn -> earliest observation timestamp
        self.first_seen: Dict[str, int] = {}
        #: class name -> timestamp its own rule first held
        self.satisfied_at: Dict[str, int] = {}
        #: classes whose full ancestor chain has been reported
        self.emitted: Set[str] = set()

    def observe(
        self, rules: RuleSet, threshold: float, fqdn: str, when: int
    ) -> List[Tuple[str, int]]:
        """Fold one evidence observation; return newly detected classes.

        Returns ``[(class_name, detected_at), ...]`` for every class
        whose rule chain is completed by this observation (possibly via
        an ancestor satisfied only now).
        """
        previous = self.first_seen.get(fqdn)
        if previous is not None:
            if when < previous:  # out-of-order arrival: min-merge
                self.first_seen[fqdn] = when
            return []  # evidence *set* unchanged, nothing new to check
        self.first_seen[fqdn] = when
        seen = self.first_seen.keys()
        changed = False
        satisfied_at = self.satisfied_at
        for rule in rules.monitoring(fqdn):
            if rule.class_name in satisfied_at:
                continue
            if rule.satisfied(seen, threshold):
                satisfied_at[rule.class_name] = when
                changed = True
        if not changed:
            return []
        return self._completed_chains(rules)

    def _completed_chains(self, rules: RuleSet) -> List[Tuple[str, int]]:
        """Classes whose own rule and every ancestor's now hold."""
        events: List[Tuple[str, int]] = []
        for class_name, own_time in self.satisfied_at.items():
            if class_name in self.emitted:
                continue
            detected_at = own_time
            complete = True
            for ancestor in rules.ancestors(class_name):
                ancestor_time = self.satisfied_at.get(ancestor)
                if ancestor_time is None:
                    complete = False
                    break
                if ancestor_time > detected_at:
                    detected_at = ancestor_time
            if complete:
                self.emitted.add(class_name)
                events.append((class_name, detected_at))
        return events

    # -- checkpoint support -------------------------------------------

    def to_state(self) -> Dict[str, object]:
        """JSON-serialisable snapshot (see :mod:`repro.stream`)."""
        return {
            "first_seen": dict(self.first_seen),
            "satisfied_at": dict(self.satisfied_at),
            "emitted": sorted(self.emitted) if self.emitted else [],
        }

    @classmethod
    def from_state(cls, state: Dict[str, object]) -> "SubscriberProgress":
        progress = cls()
        progress.first_seen = {
            str(fqdn): int(when)
            for fqdn, when in state["first_seen"].items()  # type: ignore[union-attr]
        }
        progress.satisfied_at = {
            str(name): int(when)
            for name, when in state["satisfied_at"].items()  # type: ignore[union-attr]
        }
        progress.emitted = set(state["emitted"])  # type: ignore[arg-type]
        return progress


class _EvidenceStore:
    """Per-subscriber first-seen timestamps of hitlist domains."""

    def __init__(self) -> None:
        self._first_seen: Dict[str, Dict[str, int]] = {}

    def add(self, subscriber: str, fqdn: str, when: int) -> None:
        domains = self._first_seen.setdefault(subscriber, {})
        previous = domains.get(fqdn)
        if previous is None or when < previous:
            domains[fqdn] = when

    def subscribers(self) -> List[str]:
        return list(self._first_seen)

    def evidence(self, subscriber: str) -> Dict[str, int]:
        return self._first_seen.get(subscriber, {})


class FlowDetector:
    """Cumulative-evidence detector over sampled flow records.

    ``require_established`` enables the IXP anti-spoofing filter: TCP
    flows must show evidence of an established connection before they
    count; non-TCP flows are accepted (the paper's filter targets TCP
    SYN floods).
    """

    def __init__(
        self,
        rules: RuleSet,
        hitlist: Hitlist,
        threshold: float = 0.4,
        require_established: bool = False,
    ) -> None:
        self.rules = rules
        self.hitlist = hitlist
        self.threshold = threshold
        self.require_established = require_established
        self._store = _EvidenceStore()
        self._anonymize = _AnonymizerCache()
        self.flows_seen = 0
        self.flows_matched = 0
        self.flows_rejected_spoof = 0

    def observe_flow(self, subscriber: int, flow: FlowRecord) -> Optional[str]:
        """Fold one exported flow into the evidence store.

        Returns the matched hitlist domain, if any.  ``subscriber`` is
        the raw line identifier; it is anonymised before storage.
        """
        self.flows_seen += 1
        if (
            self.require_established
            and flow.protocol == PROTO_TCP
            and not flow.has_established_evidence()
        ):
            self.flows_rejected_spoof += 1
            return None
        when = flow.first_switched
        fqdn = self.hitlist.lookup(
            day_index(when), flow.dst_ip, flow.dst_port
        )
        if fqdn is None:
            return None
        self.flows_matched += 1
        self._store.add(self._anonymize(subscriber), fqdn, when)
        return fqdn

    def observe_evidence(
        self, subscriber: int, fqdn: str, when: int
    ) -> None:
        """Directly record domain evidence (pre-attributed flows)."""
        self._store.add(self._anonymize(subscriber), fqdn, when)

    def detections(
        self, threshold: Optional[float] = None
    ) -> List[Detection]:
        """Earliest detection per (subscriber, class).

        Evidence is replayed in time order; a class is detected at the
        first instant its own rule and every ancestor's rule hold.
        """
        threshold = self.threshold if threshold is None else threshold
        results: List[Detection] = []
        for subscriber in self._store.subscribers():
            evidence = self._store.evidence(subscriber)
            results.extend(
                self._detections_for(subscriber, evidence, threshold)
            )
        results.sort(
            key=lambda item: (
                item.detected_at,
                item.class_name,
                item.subscriber,
            )
        )
        return results

    def _detections_for(
        self,
        subscriber: str,
        evidence: Dict[str, int],
        threshold: float,
    ) -> List[Detection]:
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
        return [
            Detection(
                subscriber=subscriber,
                class_name=class_name,
                detected_at=detected_at,
                matched_domains=self.rules.rule(
                    class_name
                ).matched_domains(seen),
            )
            for class_name, detected_at in emitted
        ]

