"""Idle/active behaviour of devices: turning rate profiles into per-hour
packet counts.

The paper's ground-truth experiments (Section 2.3) distinguish *idle*
periods (device connected, untouched) from *active* experiments driven
by automated *power* interactions (plug off/on, which triggers a start-up
burst) and *functional* interactions (voice command or companion-app
action).  :class:`DeviceBehavior` models all three: every simulated hour
yields a per-domain packet/byte count drawn from Poisson distributions
around the profile rates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from repro.devices.profiles import DeviceProfile

__all__ = ["InteractionKind", "HourTraffic", "DeviceBehavior"]


class InteractionKind:
    """The two automated interaction types of Section 2.3."""

    POWER = "power"
    FUNCTIONAL = "functional"


@dataclass(frozen=True)
class HourTraffic:
    """Per-domain traffic of one device during one hour."""

    packets: Dict[str, int]
    bytes: Dict[str, int]

    @property
    def total_packets(self) -> int:
        return sum(self.packets.values())


class DeviceBehavior:
    """Generates hourly traffic for one device instance.

    ``power_burst_packets`` models the significant traffic devices emit
    when power-cycled (checking in with every backend, re-resolving,
    re-syncing); ``functional_burst_packets`` the much smaller burst of
    one functional interaction.
    """

    def __init__(
        self,
        profile: DeviceProfile,
        power_burst_packets: Optional[float] = None,
        functional_burst_packets: Optional[float] = None,
    ) -> None:
        self.profile = profile
        # Burst sizes scale with how chatty the device already is: a
        # power-cycled Echo re-syncs with dozens of backends, a
        # power-cycled door sensor sends a handful of packets.
        idle_total = sum(usage.idle_pph for usage in profile.usages)
        active_total = sum(usage.active_pph for usage in profile.usages)
        if power_burst_packets is None:
            power_burst_packets = min(800.0, 4.0 + idle_total)
        if functional_burst_packets is None:
            functional_burst_packets = min(
                300.0, 2.0 + 0.25 * active_total
            )
        self.power_burst_packets = power_burst_packets
        self.functional_burst_packets = functional_burst_packets

    def hour_traffic(
        self,
        rng: np.random.Generator,
        active: bool,
        power_interactions: int = 0,
        functional_interactions: int = 0,
        startup: bool = False,
    ) -> HourTraffic:
        """Draw one hour of traffic.

        ``active`` selects the active-experiment rates; interactions add
        bursts on top; ``startup`` marks the first hour after the device
        is connected (the spike visible at the start of the paper's idle
        experiments).
        """
        packets: Dict[str, int] = {}
        bytes_out: Dict[str, int] = {}
        burst_total = (
            power_interactions * self.power_burst_packets
            + functional_interactions * self.functional_burst_packets
            + (self.power_burst_packets * 1.5 if startup else 0.0)
        )
        usages = self.profile.usages
        # Bursts concentrate on rule/anchor domains: weight by base rate,
        # with a floor so even quiet domains see start-up traffic.
        # Active-only domains (streaming backends) are not part of
        # power-cycle/start-up chatter unless the device is in use.
        weights = np.array(
            [
                0.0
                if (usage.active_only and not active)
                else max(usage.active_pph, 1.0)
                for usage in usages
            ]
        )
        weights = weights / weights.sum() if weights.sum() else weights
        for usage, weight in zip(usages, weights):
            rate = usage.rate(active)
            if burst_total:
                rate += burst_total * float(weight)
            if rate <= 0:
                continue
            count = int(rng.poisson(rate))
            if count <= 0:
                continue
            packets[usage.fqdn] = count
            bytes_out[usage.fqdn] = count * usage.bytes_per_packet
        return HourTraffic(packets, bytes_out)

    def expected_hourly_packets(self, active: bool) -> float:
        """Mean packets/hour across all domains (no interactions)."""
        return float(
            sum(usage.rate(active) for usage in self.profile.usages)
        )

    @staticmethod
    def flows_for_packets(packet_count: int, mean_flow_size: float = 30.0) -> int:
        """How many flows a device-hour's packets to one domain split
        into.  Long-lived keep-alive connections dominate IoT traffic, so
        flows are few and large."""
        if packet_count <= 0:
            return 0
        return max(1, int(math.ceil(packet_count / mean_flow_size)))
