"""ISP simulation drivers.

Two entry points:

* :func:`run_ground_truth` — the Section 2/3 setup: every scheduled
  device-hour of the two testbeds generates traffic through the Home-VP;
  the same traffic reappears, sampled, at the ISP border routers
  (ISP-VP).  Produces the event streams behind Figures 5, 6, 8, 9, 10
  and 17.
* :func:`run_wild_isp` — the Section 6 in-the-wild run: a synthetic
  subscriber population with per-product device ownership, vectorised
  per-cohort simulation of sampled-domain evidence, windowed rule
  evaluation per hour and per day, address churn for the cumulative
  views, and the Section 7.1 usage signal.  Produces the series behind
  Figures 11, 12, 13, 14 and 18.  With ``WildConfig.workers != 1`` the
  run is delegated to the sharded multiprocess engine
  (:mod:`repro.engine`); the default serial path stays bit-exact with
  the historical implementation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.hitlist import Hitlist
from repro.core.rules import DetectionRule, RuleSet
from repro.engine.plan import domain_day_availability
from repro.devices.behavior import DeviceBehavior
from repro.devices.testbed import ExperimentSchedule
from repro.isp.subscribers import (
    OwnershipAssignment,
    SubscriberPopulation,
    derive_product_penetration,
)
from repro.isp.topology import IspTopology
from repro.netflow.records import (
    PROTO_TCP,
    TCP_ACK,
    FlowKey,
    FlowRecord,
)
from repro.scenario import Scenario
from repro.timeutil import (
    SECONDS_PER_DAY,
    SECONDS_PER_HOUR,
    STUDY_START,
    hour_of_day,
)

__all__ = [
    "GtFlowEvent",
    "GroundTruthCapture",
    "run_ground_truth",
    "WildConfig",
    "WildIspResult",
    "run_wild_isp",
    "diurnal_profile_for",
    "aggregate_daily_detections",
    "cumulative_churn_series",
]


# ---------------------------------------------------------------------------
# diurnal usage profiles (hour-of-day multipliers on active-use probability)

_EVENING_PROFILE = np.array(
    [0.15, 0.10, 0.10, 0.10, 0.15, 0.25, 0.50, 0.80, 1.00, 1.00, 1.00,
     1.10, 1.20, 1.20, 1.20, 1.30, 1.50, 1.80, 2.00, 2.00, 1.80, 1.30,
     0.80, 0.40]
)
_SAMSUNG_PROFILE = np.array(
    [0.15, 0.10, 0.10, 0.10, 0.20, 0.50, 1.00, 1.20, 0.90, 0.80, 0.80,
     0.90, 1.00, 1.00, 1.10, 1.20, 1.50, 1.90, 2.10, 2.00, 1.70, 1.20,
     0.70, 0.30]
)
_FLAT_PROFILE = np.ones(24)

_SAMSUNG_CLASSES = frozenset({"Samsung IoT", "Samsung TV"})
_EVENING_CLASSES = frozenset({"Alexa Enabled", "Amazon Product", "Fire TV"})


def diurnal_profile_for(class_name: str) -> np.ndarray:
    """Hour-of-day multiplier on the probability of active use."""
    if class_name in _EVENING_CLASSES:
        return _EVENING_PROFILE
    if class_name in _SAMSUNG_CLASSES:
        return _SAMSUNG_PROFILE
    return _FLAT_PROFILE


# ---------------------------------------------------------------------------
# ground-truth run


@dataclass(frozen=True)
class GtFlowEvent:
    """One (device, domain, address) traffic aggregate within an hour."""

    __slots__ = (
        "device_id", "product", "fqdn", "dst_ip", "dst_port", "protocol",
        "timestamp", "packets", "bytes", "mode",
    )

    device_id: int
    product: str
    fqdn: str
    dst_ip: int
    dst_port: int
    protocol: int
    timestamp: int
    packets: int
    bytes: int
    mode: str  # "active" | "idle"

    def to_flow_record(
        self, src_ip: int, sampling_interval: int
    ) -> FlowRecord:
        """Render as an exported flow record (established TCP)."""
        return FlowRecord(
            key=FlowKey(
                src_ip=src_ip,
                dst_ip=self.dst_ip,
                protocol=self.protocol,
                src_port=40000 + (self.device_id * 7 + self.dst_port) % 20000,
                dst_port=self.dst_port,
            ),
            first_switched=self.timestamp,
            last_switched=self.timestamp + 59,
            packets=self.packets,
            bytes=self.bytes,
            tcp_flags=TCP_ACK if self.protocol == PROTO_TCP else 0,
            sampling_interval=sampling_interval,
        )


@dataclass
class GroundTruthCapture:
    """Result of a ground-truth run: both vantage points."""

    home_events: List[GtFlowEvent]
    isp_events: List[GtFlowEvent]
    sampling_interval: int
    topology: IspTopology

    def isp_flow_records(self) -> Iterable[FlowRecord]:
        """The sampled flows as the detector consumes them."""
        src = self.topology.home_vp.vpn_endpoint
        for event in self.isp_events:
            yield event.to_flow_record(src, self.sampling_interval)

    def events_in_mode(
        self, events: Sequence[GtFlowEvent], mode: str
    ) -> List[GtFlowEvent]:
        return [event for event in events if event.mode == mode]


def run_ground_truth(
    scenario: Scenario,
    schedule: Optional[ExperimentSchedule] = None,
    sampling_interval: int = 100,
    seed: int = 20191115,
    topology: Optional[IspTopology] = None,
) -> GroundTruthCapture:
    """Simulate both testbeds through the Home-VP and the sampled
    ISP-VP."""
    schedule = schedule or ExperimentSchedule(
        scenario.catalog, scenario.library
    )
    topology = topology or scenario.isp_topology(sampling_interval)
    resolver = scenario.make_resolver(feed_dnsdb=True)
    rng = np.random.default_rng(seed)
    home_events: List[GtFlowEvent] = []
    isp_events: List[GtFlowEvent] = []
    library = scenario.library

    for entry in schedule.iter_schedule():
        behavior = schedule.behaviors[entry.instance.device_id]
        traffic = behavior.hour_traffic(
            rng,
            active=entry.mode == "active",
            power_interactions=entry.power_interactions,
            functional_interactions=entry.functional_interactions,
            startup=entry.startup,
        )
        for fqdn, packet_count in traffic.packets.items():
            if packet_count <= 0:
                # the per-address byte split divides by packet_count
                continue
            spec = library.domain(fqdn)
            moment = entry.hour_start + int(rng.integers(0, 3000))
            resolution = resolver.resolve(fqdn, moment)
            addresses = resolution.addresses
            if not addresses:
                continue
            byte_count = traffic.bytes[fqdn]
            shares = _split_packets(packet_count, len(addresses), rng)
            for address, share in zip(addresses, shares):
                if share == 0:
                    continue
                event_bytes = int(
                    round(byte_count * (share / packet_count))
                )
                event = GtFlowEvent(
                    device_id=entry.instance.device_id,
                    product=entry.instance.product_name,
                    fqdn=fqdn,
                    dst_ip=address,
                    dst_port=spec.primary_port,
                    protocol=spec.protocol,
                    timestamp=moment,
                    packets=share,
                    bytes=event_bytes,
                    mode=entry.mode,
                )
                home_events.append(event)
                sampled = int(rng.binomial(share, 1.0 / sampling_interval))
                if sampled > 0:
                    isp_events.append(
                        GtFlowEvent(
                            device_id=event.device_id,
                            product=event.product,
                            fqdn=event.fqdn,
                            dst_ip=event.dst_ip,
                            dst_port=event.dst_port,
                            protocol=event.protocol,
                            timestamp=event.timestamp,
                            packets=sampled,
                            bytes=max(
                                1,
                                int(event_bytes * sampled / share),
                            ),
                            mode=event.mode,
                        )
                    )
    return GroundTruthCapture(
        home_events=home_events,
        isp_events=isp_events,
        sampling_interval=sampling_interval,
        topology=topology,
    )


def _split_packets(
    total: int, parts: int, rng: np.random.Generator
) -> List[int]:
    """Split a packet count across the resolved addresses (uneven,
    favouring the first answer the stub resolver would use)."""
    if parts == 1:
        return [total]
    weights = np.array([2.0] + [1.0] * (parts - 1))
    return list(rng.multinomial(total, weights / weights.sum()))


# ---------------------------------------------------------------------------
# wild-scale ISP run


@dataclass
class WildConfig:
    """Parameters of the in-the-wild ISP simulation.

    ``workers`` selects the execution path: ``1`` (the default) runs
    the historical serial implementation, which stays bit-exact across
    releases; any other value routes through the sharded multiprocess
    engine (:mod:`repro.engine`), where ``0`` means "one worker per
    CPU" and ``shard_size`` caps the owners simulated per shard task.

    ``max_retries``/``shard_timeout``/``quarantine_dir`` parameterise
    the engine's shard supervision
    (:class:`~repro.resilience.supervisor.ShardSupervisor`): retry
    budget per failed shard, per-shard wall-clock budget in seconds
    (``None`` disables), and where dead-letter records are persisted.

    ``memory_budget``/``deadline`` attach runtime guards
    (:mod:`repro.runtime`) to the sharded engine: an RSS budget in
    bytes the run sheds under rather than exceeds, and a wall-clock
    budget in seconds after which the run stops admitting shards and
    returns partial results marked ``degraded`` in the metrics
    document.  Both only take effect on the engine path; the serial
    path ignores them.
    """

    subscribers: int = 100_000
    sampling_interval: int = 100
    days: int = 14
    threshold: float = 0.4
    seed: int = 42
    churn_probability: float = 0.03
    usage_packet_threshold: int = 10
    workers: int = 1
    shard_size: int = 8192
    max_retries: int = 2
    shard_timeout: Optional[float] = None
    quarantine_dir: Optional[str] = None
    #: RSS budget in bytes (``None`` disables the memory governor)
    memory_budget: Optional[int] = None
    #: wall-clock run budget in seconds (``None`` disables)
    deadline: Optional[float] = None

    @property
    def hours(self) -> int:
        return self.days * 24


@dataclass
class WildIspResult:
    """All series produced by the wild ISP run."""

    config: WildConfig
    #: class -> detected subscriber lines per hour (length hours)
    hourly_counts: Dict[str, np.ndarray]
    #: class -> detected subscriber lines per day (length days)
    daily_counts: Dict[str, np.ndarray]
    #: unique lines with *any* of the "other 32" classes, per hour/day
    other_hourly: np.ndarray
    other_daily: np.ndarray
    #: unique lines with any IoT class at all, per day
    any_daily: np.ndarray
    #: class -> cumulative unique line identifiers per day (Figure 13)
    cumulative_lines: Dict[str, np.ndarray]
    #: class -> cumulative unique /24s per day (Figure 13, lower panel)
    cumulative_slash24: Dict[str, np.ndarray]
    #: subscribers with *actively used* Alexa devices per hour (Fig. 18)
    alexa_active_hourly: np.ndarray
    #: owners per class (ground truth of the simulation)
    owner_counts: Dict[str, int]
    #: engine metrics document (``repro.engine.metrics/1`` schema) when
    #: the run went through the sharded engine; ``None`` on the serial
    #: path
    metrics: Optional[Dict[str, object]] = None

    def penetration(self, class_name: str, day: int = -1) -> float:
        """Detected daily penetration of a class."""
        return float(
            self.daily_counts[class_name][day] / self.config.subscribers
        )


@dataclass
class _CohortOutput:
    owners: np.ndarray
    hourly: Dict[str, np.ndarray]  # class -> (n, hours) bool
    daily: Dict[str, np.ndarray]  # class -> (n, days) bool
    alexa_active: Optional[np.ndarray] = None  # (n, hours) bool


def _relevant_rules(
    product_classes: Sequence[str], rules: RuleSet
) -> List[DetectionRule]:
    names: List[str] = []
    for class_name in product_classes:
        if class_name not in rules:
            continue
        for candidate in [class_name] + rules.ancestors(class_name):
            if candidate not in names:
                names.append(candidate)
    return [rules.rule(name) for name in names]


def _simulate_cohort(
    product_name: str,
    owners: np.ndarray,
    scenario: Scenario,
    rules: RuleSet,
    hitlist: Hitlist,
    config: WildConfig,
    rng: np.random.Generator,
) -> Optional[_CohortOutput]:
    """Exact per-owner simulation of sampled evidence for one product
    cohort, evaluated hour-by-hour and day-by-day.

    Evidence is gated by the hitlist's per-day validity: a rule domain
    with no (address, port) endpoint on the daily hitlist cannot be
    matched by the detector that day, so its evidence probability is
    zeroed for that day (days beyond the hitlist window keep all
    domains available).  In the default world every surviving rule
    domain is listed every day, so the gate leaves the historical
    output bit-exact while making address-churn gaps observable in
    counterfactual scenarios.
    """
    catalog = scenario.catalog
    library = scenario.library
    product = catalog.product(product_name)
    relevant = _relevant_rules(product.detection_classes, rules)
    if not relevant or owners.size == 0:
        return None
    profile = library.profile(product_name)
    usage_by_fqdn = {usage.fqdn: usage for usage in profile.usages}

    universe: List[str] = []
    for rule in relevant:
        for fqdn in rule.domains:
            if fqdn not in universe:
                universe.append(fqdn)
    index_of = {fqdn: i for i, fqdn in enumerate(universe)}
    lam_idle = np.array(
        [
            usage_by_fqdn[fqdn].idle_pph if fqdn in usage_by_fqdn else 0.0
            for fqdn in universe
        ]
    )
    lam_active = np.array(
        [
            usage_by_fqdn[fqdn].active_pph if fqdn in usage_by_fqdn else 0.0
            for fqdn in universe
        ]
    )
    scale = 1.0 / config.sampling_interval
    p_idle = 1.0 - np.exp(-lam_idle * scale)
    p_active = 1.0 - np.exp(-lam_active * scale)
    availability = domain_day_availability(
        hitlist, universe, config.days
    )

    # Usage behaviour comes from the most specific class of the product.
    leaf_class = product.detection_classes[-1]
    behavior = library.wild_behaviors[leaf_class]
    profile_curve = diurnal_profile_for(leaf_class)
    base_hour = hour_of_day(STUDY_START)
    q_by_hour = np.array(
        [
            min(
                1.0,
                behavior.active_use_prob
                * profile_curve[(base_hour + h) % 24],
            )
            for h in range(24)
        ]
    )

    n = owners.size
    hours = config.hours
    hourly: Dict[str, np.ndarray] = {
        rule.class_name: np.zeros((n, hours), dtype=bool)
        for rule in relevant
    }
    daily: Dict[str, np.ndarray] = {
        rule.class_name: np.zeros((n, config.days), dtype=bool)
        for rule in relevant
    }
    is_alexa_member = "Alexa Enabled" in product.detection_classes
    alexa_active = (
        np.zeros((n, hours), dtype=bool) if is_alexa_member else None
    )
    if is_alexa_member and "Alexa Enabled" in rules:
        alexa_domains = [
            index_of[fqdn]
            for fqdn in rules.rule("Alexa Enabled").domains
            if fqdn in index_of
        ]
        lam_alexa_idle = lam_idle[alexa_domains].sum() * scale
        lam_alexa_active = lam_active[alexa_domains].sum() * scale
    rule_indices = {
        rule.class_name: np.array(
            [index_of[fqdn] for fqdn in rule.domains]
        )
        for rule in relevant
    }
    crit_indices = {
        rule.class_name: np.array(
            [index_of[fqdn] for fqdn in rule.critical], dtype=np.int64
        )
        for rule in relevant
    }

    for day in range(config.days):
        available = availability[day]
        if available.all():
            p_active_day, p_idle_day = p_active, p_idle
        else:
            p_active_day = np.where(available, p_active, 0.0)
            p_idle_day = np.where(available, p_idle, 0.0)
        active = rng.random((n, 24)) < q_by_hour[None, :]
        probabilities = np.where(
            active[:, :, None], p_active_day[None, None, :],
            p_idle_day[None, None, :],
        )
        seen = rng.random((n, 24, len(universe))) < probabilities
        day_seen = seen.any(axis=1)
        satisfied_hourly: Dict[str, np.ndarray] = {}
        satisfied_daily: Dict[str, np.ndarray] = {}
        for rule in relevant:
            indices = rule_indices[rule.class_name]
            needed = rule.required_domains(config.threshold)
            counts_h = seen[:, :, indices].sum(axis=2)
            counts_d = day_seen[:, indices].sum(axis=1)
            ok_h = counts_h >= needed
            ok_d = counts_d >= needed
            crit = crit_indices[rule.class_name]
            if crit.size:
                ok_h &= seen[:, :, crit].all(axis=2)
                ok_d &= day_seen[:, crit].all(axis=1)
            satisfied_hourly[rule.class_name] = ok_h
            satisfied_daily[rule.class_name] = ok_d
        for rule in relevant:
            det_h = satisfied_hourly[rule.class_name].copy()
            det_d = satisfied_daily[rule.class_name].copy()
            for ancestor in rules.ancestors(rule.class_name):
                if ancestor in satisfied_hourly:
                    det_h &= satisfied_hourly[ancestor]
                    det_d &= satisfied_daily[ancestor]
            hourly[rule.class_name][:, day * 24 : (day + 1) * 24] = det_h
            daily[rule.class_name][:, day] = det_d
        if alexa_active is not None and "Alexa Enabled" in rules:
            lam_matrix = np.where(
                active, lam_alexa_active, lam_alexa_idle
            )
            counts = rng.poisson(lam_matrix)
            alexa_active[:, day * 24 : (day + 1) * 24] = (
                counts >= config.usage_packet_threshold
            )
    return _CohortOutput(
        owners=owners, hourly=hourly, daily=daily,
        alexa_active=alexa_active,
    )


_HIERARCHY_CLASSES = (
    "Alexa Enabled",
    "Amazon Product",
    "Fire TV",
    "Samsung IoT",
    "Samsung TV",
)


def aggregate_daily_detections(
    daily_detected: Dict[str, List[List[np.ndarray]]],
    class_names: Sequence[str],
    days: int,
) -> Tuple[Dict[str, np.ndarray], np.ndarray, np.ndarray]:
    """Fold per-day detected-owner arrays into the daily series.

    ``daily_detected`` maps class name -> day -> list of detected
    owner-index arrays (one per cohort or shard; owners may repeat
    across lists and are deduplicated here).  Returns
    ``(daily_counts, other_daily, any_daily)`` — the unique-line counts
    per class, for the non-hierarchy ("other 32") classes combined, and
    for any IoT class at all.  Shared by the serial path and the
    sharded engine so both aggregate identically.
    """
    daily_counts: Dict[str, np.ndarray] = {}
    for class_name in class_names:
        series = np.zeros(days, dtype=np.int64)
        for day in range(days):
            arrays = daily_detected[class_name][day]
            if arrays:
                series[day] = np.unique(np.concatenate(arrays)).size
        daily_counts[class_name] = series

    other_daily = np.zeros(days, dtype=np.int64)
    any_daily = np.zeros(days, dtype=np.int64)
    for day in range(days):
        other_arrays = []
        any_arrays = []
        for class_name in class_names:
            arrays = daily_detected[class_name][day]
            if not arrays:
                continue
            any_arrays.extend(arrays)
            if class_name not in _HIERARCHY_CLASSES:
                other_arrays.extend(arrays)
        if other_arrays:
            other_daily[day] = np.unique(
                np.concatenate(other_arrays)
            ).size
        if any_arrays:
            any_daily[day] = np.unique(np.concatenate(any_arrays)).size
    return daily_counts, other_daily, any_daily


def cumulative_churn_series(
    daily_detected: Dict[str, List[List[np.ndarray]]],
    daily_counts: Dict[str, np.ndarray],
    population: SubscriberPopulation,
    days: int,
) -> Tuple[Dict[str, np.ndarray], Dict[str, np.ndarray]]:
    """Cumulative unique lines and /24s per hierarchy class (Fig. 13).

    Address churn makes cumulative per-line counts inflate over weeks
    while /24 aggregation stabilises; both views are derived from the
    per-day detected owners and the population's per-day addresses.
    """
    cumulative_lines: Dict[str, np.ndarray] = {}
    cumulative_slash24: Dict[str, np.ndarray] = {}
    for class_name in _HIERARCHY_CLASSES:
        if class_name not in daily_counts:
            continue
        seen_lines = np.empty(0, dtype=np.int64)
        seen_slash24 = np.empty(0, dtype=np.int64)
        lines_series = np.zeros(days, dtype=np.int64)
        slash24_series = np.zeros(days, dtype=np.int64)
        for day in range(days):
            arrays = daily_detected[class_name][day]
            if arrays:
                owners = np.unique(np.concatenate(arrays))
                addresses = population.addresses_for_day(day)[owners]
                seen_lines = np.union1d(seen_lines, addresses)
                seen_slash24 = np.union1d(
                    seen_slash24, population.slash24_of(addresses)
                )
            lines_series[day] = seen_lines.size
            slash24_series[day] = seen_slash24.size
        cumulative_lines[class_name] = lines_series
        cumulative_slash24[class_name] = slash24_series
    return cumulative_lines, cumulative_slash24


def run_wild_isp(
    scenario: Scenario,
    rules: RuleSet,
    hitlist: Hitlist,
    config: Optional[WildConfig] = None,
    population: Optional[SubscriberPopulation] = None,
    ownership: Optional[OwnershipAssignment] = None,
    topology: Optional[IspTopology] = None,
) -> WildIspResult:
    """Run the Section 6 in-the-wild detection study on the ISP.

    ``config.workers == 1`` (the default) runs the serial per-cohort
    path below, bit-exact with the historical implementation for a
    given seed.  Any other worker count routes through the sharded
    multiprocess engine (:func:`repro.engine.run_wild_isp_sharded`),
    which produces statistically equivalent series and attaches its
    metrics document to ``result.metrics``.
    """
    config = config or WildConfig()
    if config.workers != 1:
        from repro.engine.runner import run_wild_isp_sharded

        return run_wild_isp_sharded(
            scenario,
            rules,
            hitlist,
            config=config,
            population=population,
            ownership=ownership,
            topology=topology,
        )
    topology = topology or scenario.isp_topology(
        config.sampling_interval
    )
    population = population or SubscriberPopulation(
        config.subscribers,
        topology.subscriber_space,
        churn_probability=config.churn_probability,
        seed=config.seed,
    )
    if ownership is None:
        penetration = derive_product_penetration(scenario.catalog)
        ownership = population.assign_ownership(
            scenario.catalog, penetration
        )
    rng = np.random.default_rng(config.seed)

    hours = config.hours
    class_names = list(rules.class_names())
    hourly_counts = {
        name: np.zeros(hours, dtype=np.int64) for name in class_names
    }
    # Per-class per-day detected owner lists (for dedup and cumulative).
    daily_detected: Dict[str, List[List[np.ndarray]]] = {
        name: [[] for _ in range(config.days)] for name in class_names
    }
    other_hourly_sets: Dict[int, np.ndarray] = {}
    alexa_active_hourly = np.zeros(hours, dtype=np.int64)

    outputs: List[Tuple[str, _CohortOutput]] = []
    for product_name in sorted(ownership.product_owners):
        owners = ownership.product_owners[product_name]
        output = _simulate_cohort(
            product_name, owners, scenario, rules, hitlist, config, rng
        )
        if output is None:
            continue
        outputs.append((product_name, output))
        for class_name, matrix in output.hourly.items():
            hourly_counts[class_name] += matrix.sum(axis=0)
        for class_name, matrix in output.daily.items():
            for day in range(config.days):
                detected = output.owners[matrix[:, day]]
                daily_detected[class_name][day].append(detected)
        if output.alexa_active is not None:
            alexa_active_hourly += output.alexa_active.sum(axis=0)
        # "Other 32" dedup across classes: OR the per-owner hourly
        # detection of every non-hierarchy class.
        other_matrix = None
        for class_name, matrix in output.hourly.items():
            if class_name in _HIERARCHY_CLASSES:
                continue
            other_matrix = (
                matrix if other_matrix is None else other_matrix | matrix
            )
        if other_matrix is not None:
            for row, owner in enumerate(output.owners):
                existing = other_hourly_sets.get(owner)
                if existing is None:
                    other_hourly_sets[owner] = other_matrix[row].copy()
                else:
                    existing |= other_matrix[row]

    # ---- aggregate counts ---------------------------------------------------
    daily_counts, other_daily, any_daily = aggregate_daily_detections(
        daily_detected, class_names, config.days
    )

    other_hourly = np.zeros(hours, dtype=np.int64)
    if other_hourly_sets:
        stacked = np.stack(list(other_hourly_sets.values()))
        other_hourly = stacked.sum(axis=0).astype(np.int64)

    # ---- cumulative unique lines and /24s (Figure 13) ----------------------
    cumulative_lines, cumulative_slash24 = cumulative_churn_series(
        daily_detected, daily_counts, population, config.days
    )

    owner_counts = {
        class_name: int(
            ownership.owners_of_class(scenario.catalog, class_name).size
        )
        for class_name in class_names
    }
    return WildIspResult(
        config=config,
        hourly_counts=hourly_counts,
        daily_counts=daily_counts,
        other_hourly=other_hourly,
        other_daily=other_daily,
        any_daily=any_daily,
        cumulative_lines=cumulative_lines,
        cumulative_slash24=cumulative_slash24,
        alexa_active_hourly=alexa_active_hourly,
        owner_counts=owner_counts,
    )


# ---------------------------------------------------------------------------
# packet-level cross-validation


@dataclass
class PacketLevelValidation:
    """Comparison of the event-level shortcut against true per-packet
    sampling for one device.

    The wild/ground-truth simulations thin hourly packet aggregates
    binomially instead of materialising every packet; this harness runs
    both paths over identical traffic and reports the sampled totals so
    tests can assert they agree statistically.
    """

    product: str
    hours: int
    wire_packets: int
    event_sampled: int
    packet_sampled: int
    event_domains: frozenset
    packet_domains: frozenset


def validate_packet_level(
    scenario: Scenario,
    product: str = "Echo Dot",
    hours: int = 24,
    sampling_interval: int = 100,
    seed: int = 99,
) -> PacketLevelValidation:
    """Run the same traffic through both sampling models.

    Draws one traffic realisation (per-domain hourly packet counts),
    then samples it (a) with the vectorised binomial shortcut and
    (b) packet by packet through a :class:`~repro.netflow.sampler.PacketSampler`
    feeding a :class:`~repro.netflow.collector.FlowCollector`.
    """
    from repro.netflow.collector import FlowCollector
    from repro.netflow.records import PacketRecord
    from repro.netflow.sampler import PacketSampler

    behavior = DeviceBehavior(scenario.library.profile(product))
    rng = np.random.default_rng(seed)
    resolver = scenario.make_resolver(feed_dnsdb=False)

    wire_packets = 0
    event_sampled = 0
    event_domains = set()
    packet_domains = set()
    sampler = PacketSampler(sampling_interval, mode="random", seed=seed)
    collector = FlowCollector(sampling_interval=sampling_interval)

    for hour in range(hours):
        when = STUDY_START + hour * SECONDS_PER_HOUR
        traffic = behavior.hour_traffic(rng, active=False)
        for fqdn, packet_count in traffic.packets.items():
            wire_packets += packet_count
            spec = scenario.library.domain(fqdn)
            resolution = resolver.resolve(fqdn, when)
            if not resolution.addresses:
                continue
            dst_ip = resolution.addresses[0]
            # (a) event-level binomial thinning
            thinned = int(
                rng.binomial(packet_count, 1.0 / sampling_interval)
            )
            event_sampled += thinned
            if thinned:
                event_domains.add(fqdn)
            # (b) true per-packet sampling into a flow cache
            for index in range(packet_count):
                packet = PacketRecord(
                    timestamp=when + (index * SECONDS_PER_HOUR)
                    // max(1, packet_count),
                    src_ip=0x0A000001,
                    dst_ip=dst_ip,
                    protocol=spec.protocol,
                    src_port=49152,
                    dst_port=spec.primary_port,
                )
                if sampler.sample(packet):
                    collector.observe(packet)
                    packet_domains.add(fqdn)
    collector.flush()
    packet_sampled = sum(flow.packets for flow in collector.drain())
    return PacketLevelValidation(
        product=product,
        hours=hours,
        wire_packets=wire_packets,
        event_sampled=event_sampled,
        packet_sampled=packet_sampled,
        event_domains=frozenset(event_domains),
        packet_domains=frozenset(packet_domains),
    )
