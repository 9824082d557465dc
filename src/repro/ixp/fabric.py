"""The IXP switching fabric — Section 6.3.

Differences from the ISP vantage point, all modelled here:

* the IPFIX sampling rate is an order of magnitude lower;
* the vantage point sits in the middle of the network: routing
  asymmetry means only a fraction of each flow's packets transit the
  fabric (``routing_visibility``);
* spoofing prevention is not possible at the fabric, so TCP flows only
  count once a packet shows evidence of an established connection
  (:func:`repro.netflow.records.FlowRecord.has_established_evidence`).

Detection is per *IP address* per day (the IXP cannot tell subscriber
lines apart), with each member's IoT population partitioned across the
detection classes by penetration.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.analysis.detection_model import estimate_detection_probabilities
from repro.core.hitlist import Hitlist
from repro.core.rules import RuleSet
from repro.ixp.members import IxpMember
from repro.netflow.records import (
    PROTO_TCP,
    TCP_SYN,
    FlowKey,
    FlowRecord,
)
from repro.scenario import Scenario
from repro.timeutil import STUDY_START

__all__ = [
    "IxpConfig",
    "IxpResult",
    "run_wild_ixp",
    "make_spoofed_flows",
]


@dataclass
class IxpConfig:
    """Parameters of the in-the-wild IXP run."""

    sampling_interval: int = 1000  # order of magnitude below the ISP
    days: int = 14
    threshold: float = 0.4
    routing_visibility: float = 0.55  # asymmetry / partial routes
    seed: int = 77
    monte_carlo_samples: int = 2000
    #: fraction of each member's population emitting spoofed-SYN noise
    spoofed_fraction: float = 0.15
    require_established: bool = True


@dataclass
class IxpResult:
    """Per-day detected-IP counts and per-member distribution."""

    config: IxpConfig
    #: group -> per-day unique detected IPs ("Alexa Enabled",
    #: "Samsung IoT", "Other 32 IoT Device types")
    daily_ip_counts: Dict[str, np.ndarray]
    #: group -> {asn: detected IPs on day 0} (Figure 16)
    per_member_day0: Dict[str, Dict[int, int]]
    #: spoofed candidate IPs suppressed by the established filter
    spoofed_suppressed: int
    #: spoofed IPs that would have been (wrongly) counted without it
    spoofed_would_count: int

    def member_share_ecdf(self, group: str) -> List[float]:
        """Per-member percentage shares of unique IPs (Figure 16)."""
        counts = self.per_member_day0[group]
        total = sum(counts.values())
        if total == 0:
            return []
        return sorted(
            100.0 * count / total for count in counts.values() if count
        )


_GROUP_ALEXA = "Alexa Enabled"
_GROUP_SAMSUNG = "Samsung IoT"
_GROUP_OTHER = "Other 32 IoT Device types"


def _group_of(class_name: str) -> Optional[str]:
    if class_name in ("Alexa Enabled",):
        return _GROUP_ALEXA
    if class_name in ("Samsung IoT",):
        return _GROUP_SAMSUNG
    if class_name in (
        "Amazon Product", "Fire TV", "Samsung TV",
    ):
        return None  # subclasses are folded into their superclass group
    return _GROUP_OTHER


def run_wild_ixp(
    scenario: Scenario,
    rules: RuleSet,
    hitlist: Hitlist,
    members: Sequence[IxpMember],
    config: Optional[IxpConfig] = None,
) -> IxpResult:
    """Run the in-the-wild IXP detection study."""
    config = config or IxpConfig()
    rng = np.random.default_rng(config.seed)
    catalog = scenario.catalog

    # Daily detection probability per class at IXP sampling/visibility.
    class_probabilities: Dict[str, float] = {}
    for rule in rules:
        probabilities = estimate_detection_probabilities(
            scenario,
            rules,
            rule.class_name,
            sampling_interval=config.sampling_interval,
            visibility=config.routing_visibility,
            threshold=config.threshold,
            samples=config.monte_carlo_samples,
            seed=config.seed
            + sum(ord(ch) for ch in rule.class_name) % 1000,
        )
        class_probabilities[rule.class_name] = probabilities.daily

    groups = (_GROUP_ALEXA, _GROUP_SAMSUNG, _GROUP_OTHER)
    daily_ip_counts = {
        group: np.zeros(config.days, dtype=np.int64) for group in groups
    }
    per_member_day0 = {group: {} for group in groups}

    for member in members:
        # Partition the member's IoT population across classes by
        # penetration (each address hosts at most one class here).
        for rule in rules:
            group = _group_of(rule.class_name)
            if group is None:
                continue
            spec = catalog.detection_class(rule.class_name)
            hosts = int(round(member.iot_population * spec.penetration))
            if hosts == 0:
                per_member_day0[group].setdefault(member.asn, 0)
                continue
            p_day = class_probabilities[rule.class_name]
            detected = rng.binomial(hosts, p_day, size=config.days)
            daily_ip_counts[group] += detected
            per_member_day0[group][member.asn] = per_member_day0[
                group
            ].get(member.asn, 0) + int(detected[0])

    # Spoofed-traffic accounting: SYN-only flows towards hitlist
    # addresses would create phantom IoT hosts at single-domain classes;
    # the established-evidence filter drops them all.
    spoofed_candidates = int(
        sum(member.iot_population for member in members)
        * config.spoofed_fraction
    )
    if config.require_established:
        suppressed = spoofed_candidates
        would_count = 0
    else:
        suppressed = 0
        would_count = spoofed_candidates
        daily_ip_counts[_GROUP_OTHER] = (
            daily_ip_counts[_GROUP_OTHER] + spoofed_candidates
        )

    return IxpResult(
        config=config,
        daily_ip_counts=daily_ip_counts,
        per_member_day0=per_member_day0,
        spoofed_suppressed=suppressed,
        spoofed_would_count=would_count,
    )


def make_spoofed_flows(
    hitlist: Hitlist,
    count: int,
    seed: int = 5,
    day: int = 0,
) -> List[FlowRecord]:
    """Generate SYN-only spoofed flows towards hitlist endpoints.

    Used by tests and the anti-spoofing example: every record targets a
    real monitored (address, port) but carries only a SYN flag, so the
    established-evidence filter must reject all of them.
    """
    endpoints = sorted(hitlist.endpoints_for_day(day))
    if not endpoints:
        raise ValueError(f"hitlist has no endpoints for day {day}")
    rng = np.random.default_rng(seed)
    flows: List[FlowRecord] = []
    for index in range(count):
        address, port = endpoints[int(rng.integers(0, len(endpoints)))]
        flows.append(
            FlowRecord(
                key=FlowKey(
                    src_ip=int(rng.integers(1 << 24, 1 << 31)),
                    dst_ip=address,
                    protocol=PROTO_TCP,
                    src_port=int(rng.integers(1024, 65535)),
                    dst_port=port,
                ),
                first_switched=STUDY_START + day * 86400 + index,
                last_switched=STUDY_START + day * 86400 + index,
                packets=1,
                bytes=40,
                tcp_flags=TCP_SYN,
            )
        )
    return flows

