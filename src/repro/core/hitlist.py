"""Daily hitlist construction — Sections 4.1-4.2 / Figure 7.

Input: the ground-truth observations (which products contacted which
domains, on which ports, with how much traffic).  The pipeline

1. classifies every observed domain (Primary / Support / Generic) and
   discards Generic ones,
2. classifies each IoT-specific domain's backend as dedicated / shared /
   no-record via passive DNS,
3. recovers no-record HTTPS domains through the certificate/banner
   fallback,
4. excludes products whose surviving dedicated domains carry less than
   ``dedicated_traffic_threshold`` of their primary-domain traffic (the
   Section 4.2.3 removal of shared-infrastructure devices: Google Home,
   Apple TV, …), and
5. assembles the daily hitlist: per study day, every (address, port)
   combination attributable to a surviving rule domain.

The output :class:`Hitlist` is what detection rules are generated from;
the :class:`PipelineReport` carries the Section 4 headline counts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Set, Tuple

from repro.dns.names import normalize
from repro.timeutil import (
    SECONDS_PER_DAY,
    STUDY_END,
    STUDY_START,
    day_index,
)

if TYPE_CHECKING:  # a loaded hitlist needs none of the world
    from repro.core.certmatch import CensysRecovery
    from repro.core.domains import DomainClassification
    from repro.core.infra import InfraVerdict
    from repro.scenario import Scenario

__all__ = [
    "DomainObservation",
    "GroundTruthObservations",
    "Hitlist",
    "PipelineReport",
    "build_hitlist",
]


@dataclass
class DomainObservation:
    """Aggregate ground-truth sighting of one domain."""

    fqdn: str
    products: Set[str] = field(default_factory=set)
    ports: Set[int] = field(default_factory=set)
    packets_by_product: Dict[str, float] = field(default_factory=dict)

    @property
    def total_packets(self) -> float:
        return sum(self.packets_by_product.values())

    @property
    def uses_https(self) -> bool:
        return 443 in self.ports


class GroundTruthObservations:
    """What the testbed capture revealed: product ↔ domain contacts."""

    def __init__(self) -> None:
        self._by_fqdn: Dict[str, DomainObservation] = {}

    def record(
        self, product: str, fqdn: str, port: int, packets: float
    ) -> None:
        fqdn = normalize(fqdn)
        observation = self._by_fqdn.setdefault(
            fqdn, DomainObservation(fqdn)
        )
        observation.products.add(product)
        observation.ports.add(port)
        observation.packets_by_product[product] = (
            observation.packets_by_product.get(product, 0.0) + packets
        )

    def domains(self) -> List[str]:
        return sorted(self._by_fqdn)

    def observation(self, fqdn: str) -> DomainObservation:
        return self._by_fqdn[normalize(fqdn)]

    def __contains__(self, fqdn: str) -> bool:
        return normalize(fqdn) in self._by_fqdn

    def __len__(self) -> int:
        return len(self._by_fqdn)

    def products_seen(self) -> Set[str]:
        products: Set[str] = set()
        for observation in self._by_fqdn.values():
            products |= observation.products
        return products

    @classmethod
    def from_library(cls, library) -> "GroundTruthObservations":
        """Idealised observations straight from the profile library
        (every profiled contact observed, weighted by idle+active rates).
        Matches what a long, lossless Home-VP capture converges to."""
        observations = cls()
        for profile in library.profiles.values():
            for usage in profile.usages:
                spec = library.domain(usage.fqdn)
                weight = max(usage.idle_pph, 0.0) + 0.1 * usage.active_pph
                for port in spec.ports:
                    observations.record(
                        profile.product.name, usage.fqdn, port, weight
                    )
        return observations

    @classmethod
    def from_traffic(
        cls, events: Iterable[Tuple[str, str, int, float]]
    ) -> "GroundTruthObservations":
        """Build observations from (product, fqdn, port, packets) events
        — e.g. the Home-VP capture of a ground-truth run."""
        observations = cls()
        for product, fqdn, port, packets in events:
            observations.record(product, fqdn, port, packets)
        return observations


@dataclass
class PipelineReport:
    """Headline counts of one pipeline run (the Section 4 numbers)."""

    observed_domains: int
    primary_domains: int
    support_domains: int
    generic_domains: int
    iot_specific_domains: int
    dedicated_domains: int
    shared_domains: int
    no_record_domains: int
    censys_recovered_domains: int
    censys_recovered_products: int
    excluded_products: Tuple[str, ...]
    surviving_classes: Tuple[str, ...]
    dropped_classes: Tuple[str, ...]
    #: domains whose passive-DNS classification was unavailable (outage)
    unknown_domains: Tuple[str, ...] = ()
    #: unknown domains kept alive through the certificate fallback
    degraded_domains: Tuple[str, ...] = ()
    #: classes whose rules lean on degraded evidence (demoted a level)
    degraded_classes: Tuple[str, ...] = ()


@dataclass
class Hitlist:
    """The daily IoT dictionary: addresses/ports per surviving domain."""

    window_start: int
    window_end: int
    class_domains: Dict[str, Tuple[str, ...]]
    class_critical: Dict[str, Tuple[str, ...]]
    domain_ports: Dict[str, Tuple[int, ...]]
    #: day index -> (address, port) -> fqdn
    daily_endpoints: Dict[int, Dict[Tuple[int, int], str]]
    #: fqdn -> classes whose rule monitors it
    domain_classes: Dict[str, Tuple[str, ...]]
    classifications: Dict[str, DomainClassification]
    verdicts: Dict[str, InfraVerdict]
    recoveries: Dict[str, CensysRecovery]
    report: PipelineReport
    #: classes whose evidence is degraded (rule generation demotes
    #: their level one step — see repro.core.rules.generate_rules)
    degraded_classes: Tuple[str, ...] = ()

    def endpoints_for_day(self, day: int) -> Dict[Tuple[int, int], str]:
        """The (address, port) → domain map for study-day ``day``."""
        return self.daily_endpoints.get(day, {})

    def lookup(self, day: int, address: int, port: int) -> Optional[str]:
        """Attribute one observed endpoint to a hitlist domain."""
        return self.daily_endpoints.get(day, {}).get((address, port))

    def all_addresses(self) -> Set[int]:
        return {
            address
            for endpoints in self.daily_endpoints.values()
            for (address, _port) in endpoints
        }

    @property
    def classes(self) -> Tuple[str, ...]:
        return tuple(self.class_domains)


def build_hitlist(
    scenario: Scenario,
    observations: Optional[GroundTruthObservations] = None,
    start: int = STUDY_START,
    end: int = STUDY_END,
    dedicated_traffic_threshold: float = 0.30,
    dnsdb=None,
    scans=None,
) -> Hitlist:
    """Run the full Figure-7 pipeline and assemble the daily hitlist.

    ``dnsdb``/``scans`` override the scenario's backends — pass a
    :class:`~repro.resilience.lookups.ResilientPassiveDns` /
    :class:`~repro.resilience.lookups.ResilientScanDataset` adapter to
    run the pipeline against fallible backends.  The pipeline then
    degrades instead of dying: a domain whose passive-DNS evidence is
    unavailable after retries
    (:class:`~repro.resilience.retry.LookupUnavailable`) is marked
    :data:`~repro.core.infra.INFRA_UNKNOWN` and routed through the
    certificate fallback; if that recovers it, the domain survives but
    every class leaning on it is flagged degraded
    (:attr:`Hitlist.degraded_classes`) so rule generation demotes its
    level claim one step instead of emitting over-confident rules.
    """
    from repro.core.certmatch import recover_via_certificates
    from repro.core.domains import (
        ROLE_GENERIC,
        ROLE_PRIMARY,
        ROLE_SUPPORT,
        classify_domains,
    )
    from repro.core.infra import (
        INFRA_DEDICATED,
        INFRA_NO_RECORD,
        INFRA_SHARED,
        INFRA_UNKNOWN,
        InfraVerdict,
        classify_infrastructure,
    )
    from repro.resilience.retry import LookupUnavailable

    if observations is None:
        observations = GroundTruthObservations.from_library(
            scenario.library
        )
    if dnsdb is None:
        dnsdb = scenario.dnsdb
    if scans is None:
        scans = scenario.scans

    # ---- step 1: domain classification (Section 4.1) --------------------
    classifications = classify_domains(
        observations.domains(),
        scenario.whois,
        scenario.catalog.manufacturers,
    )
    iot_specific = [
        fqdn
        for fqdn, verdict in classifications.items()
        if verdict.role != ROLE_GENERIC
    ]

    # ---- step 2: dedicated vs shared via passive DNS (Section 4.2.1) ----
    verdicts: Dict[str, InfraVerdict] = {}
    for fqdn in iot_specific:
        try:
            verdicts[fqdn] = classify_infrastructure(
                fqdn, dnsdb, start, end
            )
        except LookupUnavailable:
            # Outage, not "no records": the backend could not answer
            # after retries.  Route through the certificate fallback
            # and degrade rather than silently claim dedicated.
            verdicts[fqdn] = InfraVerdict(
                normalize(fqdn), INFRA_UNKNOWN, ()
            )
    unknown_domains = tuple(
        sorted(
            fqdn
            for fqdn, verdict in verdicts.items()
            if verdict.status == INFRA_UNKNOWN
        )
    )

    # ---- step 3: Censys fallback for no-record domains (Section 4.2.2) --
    recoveries: Dict[str, CensysRecovery] = {}
    for fqdn, verdict in verdicts.items():
        if verdict.status not in (INFRA_NO_RECORD, INFRA_UNKNOWN):
            continue
        try:
            recovery = recover_via_certificates(
                fqdn,
                scans,
                uses_https=observations.observation(fqdn).uses_https,
            )
        except LookupUnavailable:
            recovery = None  # both backends down: the domain drops
        if recovery is not None:
            recoveries[fqdn] = recovery

    surviving_domains = {
        fqdn
        for fqdn, verdict in verdicts.items()
        if verdict.status == INFRA_DEDICATED or fqdn in recoveries
    }
    degraded_domains = tuple(
        sorted(fqdn for fqdn in unknown_domains if fqdn in recoveries)
    )

    # ---- step 4: product exclusion (Section 4.2.3) -----------------------
    excluded_products: List[str] = []
    surviving_products: List[str] = []
    for product in sorted(observations.products_seen()):
        primary_total = 0.0
        primary_surviving = 0.0
        for fqdn in observations.domains():
            observation = observations.observation(fqdn)
            if product not in observation.products:
                continue
            if classifications[fqdn].role != ROLE_PRIMARY:
                continue
            packets = observation.packets_by_product.get(product, 0.0)
            primary_total += packets
            if fqdn in surviving_domains:
                primary_surviving += packets
        if primary_total <= 0:
            excluded_products.append(product)
            continue
        if primary_surviving / primary_total < dedicated_traffic_threshold:
            excluded_products.append(product)
        else:
            surviving_products.append(product)
    excluded_set = set(excluded_products)

    # ---- step 5: per-class surviving rule domains -------------------------
    class_domains: Dict[str, Tuple[str, ...]] = {}
    class_critical: Dict[str, Tuple[str, ...]] = {}
    dropped_classes: List[str] = []
    for spec in scenario.catalog.detection_classes:
        members_alive = [
            member
            for member in spec.member_products
            if member not in excluded_set
        ]
        rule = [
            fqdn
            for fqdn in scenario.library.rule_domains[spec.name]
            if fqdn in surviving_domains and fqdn in observations
        ]
        if not members_alive or not rule:
            dropped_classes.append(spec.name)
            continue
        class_domains[spec.name] = tuple(rule)
        class_critical[spec.name] = tuple(
            fqdn
            for fqdn in scenario.library.critical_domains[spec.name]
            if fqdn in rule
        )

    domain_classes: Dict[str, Tuple[str, ...]] = {}
    for class_name, fqdns in class_domains.items():
        for fqdn in fqdns:
            domain_classes.setdefault(fqdn, ())
            domain_classes[fqdn] = domain_classes[fqdn] + (class_name,)

    degraded_set = set(degraded_domains)
    degraded_classes = tuple(
        sorted(
            class_name
            for class_name, fqdns in class_domains.items()
            if any(fqdn in degraded_set for fqdn in fqdns)
        )
    )

    # ---- daily endpoint maps ------------------------------------------------
    domain_ports = {
        fqdn: tuple(sorted(observations.observation(fqdn).ports))
        for fqdn in domain_classes
    }
    daily_endpoints: Dict[int, Dict[Tuple[int, int], str]] = {}
    day = start
    while day < end:
        index = day_index(day)
        endpoints: Dict[Tuple[int, int], str] = {}
        for fqdn in domain_classes:
            verdict = verdicts[fqdn]
            addresses: Set[int] = set()
            for window_day, day_addresses in verdict.daily_addresses:
                if window_day == day:
                    addresses.update(day_addresses)
            if fqdn in recoveries:
                addresses.update(recoveries[fqdn].addresses)
            for address in addresses:
                for port in domain_ports[fqdn]:
                    endpoints[(address, port)] = fqdn
        daily_endpoints[index] = endpoints
        day += SECONDS_PER_DAY

    report = PipelineReport(
        observed_domains=len(observations),
        primary_domains=sum(
            1
            for verdict in classifications.values()
            if verdict.role == ROLE_PRIMARY
        ),
        support_domains=sum(
            1
            for verdict in classifications.values()
            if verdict.role == ROLE_SUPPORT
        ),
        generic_domains=sum(
            1
            for verdict in classifications.values()
            if verdict.role == ROLE_GENERIC
        ),
        iot_specific_domains=len(iot_specific),
        dedicated_domains=sum(
            1
            for verdict in verdicts.values()
            if verdict.status == INFRA_DEDICATED
        ),
        shared_domains=sum(
            1
            for verdict in verdicts.values()
            if verdict.status == INFRA_SHARED
        ),
        no_record_domains=sum(
            1
            for verdict in verdicts.values()
            if verdict.status == INFRA_NO_RECORD
        ),
        censys_recovered_domains=len(recoveries),
        censys_recovered_products=len(
            {
                product
                for fqdn in recoveries
                for product in observations.observation(fqdn).products
            }
        ),
        excluded_products=tuple(excluded_products),
        surviving_classes=tuple(class_domains),
        dropped_classes=tuple(dropped_classes),
        unknown_domains=unknown_domains,
        degraded_domains=degraded_domains,
        degraded_classes=degraded_classes,
    )
    return Hitlist(
        window_start=start,
        window_end=end,
        class_domains=class_domains,
        class_critical=class_critical,
        domain_ports=domain_ports,
        daily_endpoints=daily_endpoints,
        domain_classes=domain_classes,
        classifications=classifications,
        verdicts=verdicts,
        recoveries=recoveries,
        report=report,
        degraded_classes=degraded_classes,
    )
