"""Subscriber population: line identifiers, regional address pools,
daily churn, and per-class device ownership.

Address model: subscribers are grouped into *regions* of 256 lines;
each region owns two /24 blocks (512 addresses) of the ISP's subscriber
space.  A line keeps its address until a churn event (router reboot,
re-assignment), at which point it draws a fresh address from its
region's pool.  This is what makes cumulative per-line counts inflate
over weeks while /24-aggregated counts stabilise (Figure 13).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.cloud.addressing import Prefix
from repro.devices.catalog import DeviceCatalog

__all__ = ["OwnershipAssignment", "SubscriberPopulation"]

_REGION_SIZE = 256
_ADDRESSES_PER_REGION = 512  # two /24s


@dataclass
class OwnershipAssignment:
    """Device ownership: which subscribers own which product."""

    #: product name -> sorted array of owner subscriber indices
    product_owners: Dict[str, np.ndarray]

    def owners_of_class(
        self, catalog: DeviceCatalog, class_name: str
    ) -> np.ndarray:
        spec = catalog.detection_class(class_name)
        arrays = [
            self.product_owners[product]
            for product in spec.member_products
            if product in self.product_owners
        ]
        if not arrays:
            return np.empty(0, dtype=np.int64)
        return np.unique(np.concatenate(arrays))


class SubscriberPopulation:
    """The ISP's broadband subscriber lines."""

    def __init__(
        self,
        count: int,
        prefix: Prefix,
        churn_probability: float = 0.03,
        seed: int = 13,
    ) -> None:
        if count < 1:
            raise ValueError("need at least one subscriber")
        self.count = count
        self.prefix = prefix
        self.churn_probability = churn_probability
        self.seed = seed
        self.region_count = (count + _REGION_SIZE - 1) // _REGION_SIZE
        needed = self.region_count * _ADDRESSES_PER_REGION
        if needed > prefix.size:
            raise ValueError(
                f"prefix {prefix} too small for {count} subscribers "
                f"({needed} addresses needed)"
            )
        self._day_slots: List[np.ndarray] = []
        self._rng = np.random.default_rng(seed)
        self._regions = (
            np.arange(count, dtype=np.int64) // _REGION_SIZE
        )

    # ------------------------------------------------------------------
    # address assignment with churn

    def _slots_for_day(self, day: int) -> np.ndarray:
        """Per-subscriber slot (0..511) within its region for study day
        ``day``; slots are materialised lazily and deterministically."""
        while len(self._day_slots) <= day:
            if not self._day_slots:
                slots = np.arange(self.count, dtype=np.int64) % _REGION_SIZE
            else:
                slots = self._day_slots[-1].copy()
                churned = (
                    self._rng.random(self.count) < self.churn_probability
                )
                slots[churned] = self._rng.integers(
                    0, _ADDRESSES_PER_REGION, size=int(churned.sum())
                )
            self._day_slots.append(slots)
        return self._day_slots[day]

    def addresses_for_day(self, day: int) -> np.ndarray:
        """External IPv4 address of every subscriber on study day
        ``day``.  Collisions within a region are possible after churn
        (carrier-grade sharing) and harmless for the analyses."""
        slots = self._slots_for_day(day)
        return (
            self.prefix.first
            + self._regions * _ADDRESSES_PER_REGION
            + slots
        )

    def address_of(self, subscriber: int, day: int) -> int:
        """External address of one subscriber on study day ``day``."""
        return int(self.addresses_for_day(day)[subscriber])

    @staticmethod
    def slash24_of(addresses: np.ndarray) -> np.ndarray:
        """/24 network identifiers of an address array."""
        return addresses >> 8

    # ------------------------------------------------------------------
    # device ownership

    def assign_ownership(
        self,
        catalog: DeviceCatalog,
        product_penetration: Dict[str, float],
        seed: Optional[int] = None,
    ) -> OwnershipAssignment:
        """Assign owners per product.

        Draws are independent across products (a household can own
        several device types) but sampled without replacement within a
        product.
        """
        rng = np.random.default_rng(
            self.seed * 7 + 1 if seed is None else seed
        )
        owners: Dict[str, np.ndarray] = {}
        for product, penetration in sorted(product_penetration.items()):
            if not 0.0 <= penetration <= 1.0:
                raise ValueError(
                    f"penetration out of range for {product!r}: "
                    f"{penetration}"
                )
            size = int(round(penetration * self.count))
            if size == 0:
                owners[product] = np.empty(0, dtype=np.int64)
                continue
            owners[product] = np.sort(
                rng.choice(self.count, size=size, replace=False)
            )
        return OwnershipAssignment(owners)


def derive_product_penetration(
    catalog: DeviceCatalog,
) -> Dict[str, float]:
    """Split class-level penetrations (from the catalog) into per-product
    penetrations, respecting the Alexa/Amazon/Fire-TV and Samsung
    hierarchies (child cohorts are carved out of the parent's)."""
    penetration: Dict[str, float] = {}
    spec_by_name = {
        spec.name: spec for spec in catalog.detection_classes
    }

    alexa = spec_by_name["Alexa Enabled"].penetration
    amazon = spec_by_name["Amazon Product"].penetration
    firetv = spec_by_name["Fire TV"].penetration
    penetration["Fire TV"] = firetv
    echo_share = amazon - firetv
    penetration["Echo Dot"] = echo_share * 0.55
    penetration["Echo Spot"] = echo_share * 0.20
    penetration["Echo Plus"] = echo_share * 0.25
    penetration["Allure with Alexa"] = alexa - amazon

    samsung = spec_by_name["Samsung IoT"].penetration
    samsung_tv = spec_by_name["Samsung TV"].penetration
    penetration["Samsung TV"] = samsung_tv
    penetration["Samsung Dryer"] = (samsung - samsung_tv) * 0.5
    penetration["Samsung Fridge"] = (samsung - samsung_tv) * 0.5

    handled = {
        "Alexa Enabled",
        "Amazon Product",
        "Fire TV",
        "Samsung IoT",
        "Samsung TV",
    }
    for spec in catalog.detection_classes:
        if spec.name in handled:
            continue
        members = spec.member_products
        share = spec.penetration / len(members)
        for product in members:
            penetration[product] = penetration.get(product, 0.0) + share
    return penetration
