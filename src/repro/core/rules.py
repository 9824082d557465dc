"""Detection-rule generation — Section 4.3.2.

A rule monitors the N surviving Primary domains of a detection class.
Detection at threshold ``D`` requires observing traffic towards
IP/port combinations covering at least ``max(1, floor(D * N))`` distinct
monitored domains, with two refinements from the paper:

* *critical domains* (the AVS endpoint, Samsung's firmware-update
  domain) must always be among the evidence, whatever the threshold;
* *hierarchy*: a child class (Fire TV ⊂ Amazon Product ⊂ Alexa
  Enabled; Samsung TV ⊂ Samsung IoT) may only be claimed once its
  parent's rule is satisfied on the same subscriber/window.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from repro.core.hitlist import Hitlist
from repro.devices.catalog import DeviceCatalog

__all__ = ["DetectionRule", "RuleSet", "generate_rules"]


@dataclass(frozen=True)
class DetectionRule:
    """One class's detection rule."""

    class_name: str
    level: str
    domains: Tuple[str, ...]
    critical: Tuple[str, ...] = ()
    parent: Optional[str] = None
    #: ``domains`` as a set — what evaluation intersects evidence with
    domain_set: FrozenSet[str] = field(
        init=False, repr=False, compare=False
    )
    #: threshold -> ``required_domains(threshold)``, filled on first use
    _required: Dict[float, int] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if not self.domains:
            raise ValueError(
                f"rule for {self.class_name!r} has no domains"
            )
        object.__setattr__(self, "domain_set", frozenset(self.domains))
        object.__setattr__(self, "_required", {})
        if len(self.domain_set) != len(self.domains):
            raise ValueError(
                f"rule for {self.class_name!r} lists a domain twice"
            )
        missing = set(self.critical) - self.domain_set
        if missing:
            raise ValueError(
                f"critical domains {sorted(missing)} of "
                f"{self.class_name!r} not among rule domains"
            )

    @property
    def domain_count(self) -> int:
        return len(self.domains)

    def required_domains(self, threshold: float) -> int:
        """``max(1, floor(D * N))`` — the paper's evidence requirement."""
        if not 0.0 < threshold <= 1.0:
            raise ValueError(f"threshold must be in (0, 1]: {threshold}")
        return max(1, math.floor(threshold * self.domain_count))

    def satisfied(self, seen: Set[str], threshold: float) -> bool:
        """Whether the evidence set satisfies this rule (ignoring
        hierarchy — see :meth:`RuleSet.detected_classes`)."""
        required = self._required.get(threshold)
        if required is None:
            required = self.required_domains(threshold)
            self._required[threshold] = required
        if len(seen) < required:
            return False
        for fqdn in self.critical:
            if fqdn not in seen:
                return False
        return len(self.domain_set.intersection(seen)) >= required

    def matched_domains(self, seen: Set[str]) -> Tuple[str, ...]:
        return tuple(fqdn for fqdn in self.domains if fqdn in seen)


class RuleSet:
    """All generated rules plus hierarchy-aware evaluation."""

    def __init__(self, rules: Iterable[DetectionRule]) -> None:
        self._rules: Dict[str, DetectionRule] = {}
        for rule in rules:
            if rule.class_name in self._rules:
                raise ValueError(f"duplicate rule {rule.class_name!r}")
            self._rules[rule.class_name] = rule
        for rule in self._rules.values():
            if rule.parent is not None and rule.parent not in self._rules:
                raise ValueError(
                    f"rule {rule.class_name!r} references missing parent "
                    f"{rule.parent!r}"
                )
        # Listed in rule-set order: SubscriberProgress.observe records
        # satisfaction in the order it walks these, and that order is
        # the order of same-record events in the log.
        by_domain: Dict[str, List[DetectionRule]] = {}
        for rule in self._rules.values():
            for fqdn in rule.domain_set:
                by_domain.setdefault(fqdn, []).append(rule)
        self._by_domain: Dict[str, Tuple[DetectionRule, ...]] = {
            fqdn: tuple(found) for fqdn, found in by_domain.items()
        }

    def __iter__(self):
        return iter(self._rules.values())

    def __len__(self) -> int:
        return len(self._rules)

    def __contains__(self, class_name: str) -> bool:
        return class_name in self._rules

    def rule(self, class_name: str) -> DetectionRule:
        return self._rules[class_name]

    def class_names(self) -> Tuple[str, ...]:
        return tuple(self._rules)

    def ancestors(self, class_name: str) -> List[str]:
        """Parent chain from immediate parent to root."""
        chain: List[str] = []
        parent = self._rules[class_name].parent
        while parent is not None:
            chain.append(parent)
            parent = self._rules[parent].parent
        return chain

    def monitoring(self, fqdn: str) -> Tuple[DetectionRule, ...]:
        """The rules whose domains include ``fqdn``, in rule-set order."""
        return self._by_domain.get(fqdn, ())

    def monitored_domains(self) -> FrozenSet[str]:
        return frozenset(self._by_domain)

    def detected_classes(
        self, seen: Set[str], threshold: float
    ) -> Set[str]:
        """Every class whose rule *and* all ancestors' rules are
        satisfied by the evidence set."""
        satisfied = {
            name
            for name, rule in self._rules.items()
            if rule.satisfied(seen, threshold)
        }
        return {
            name
            for name in satisfied
            if all(parent in satisfied for parent in self.ancestors(name))
        }


def generate_rules(
    catalog: DeviceCatalog, hitlist: Hitlist
) -> RuleSet:
    """Generate rules for every class that survived the hitlist
    pipeline.  A surviving child whose parent was dropped is attached to
    its nearest surviving ancestor (or becomes a root).

    Classes flagged degraded by the hitlist (their rule leans on a
    domain whose dedicated-infrastructure evidence could not be
    verified during a passive-DNS outage) are demoted one granularity
    level — Product → Manufacturer → Platform — so the emitted rule
    never claims a finer identification than its evidence supports.
    """
    # Imported lazily: repro.core.levels imports RuleSet from here.
    from repro.core.levels import coarser_level

    surviving = set(hitlist.class_domains)
    degraded = set(getattr(hitlist, "degraded_classes", ()))
    rules: List[DetectionRule] = []
    for class_name, domains in hitlist.class_domains.items():
        spec = catalog.detection_class(class_name)
        parent = spec.parent
        while parent is not None and parent not in surviving:
            parent = catalog.detection_class(parent).parent
        level = spec.level
        if class_name in degraded:
            level = coarser_level(level)
        rules.append(
            DetectionRule(
                class_name=class_name,
                level=level,
                domains=domains,
                critical=hitlist.class_critical.get(class_name, ()),
                parent=parent,
            )
        )
    return RuleSet(rules)
