"""Simulated backend infrastructures for IoT services.

The paper distinguishes three hosting styles that determine whether a
device is detectable from flow headers (Section 4.2):

* **Dedicated clusters** — address space operated by the IoT vendor
  itself; every service IP serves only domains below the vendor's
  second-level domain.  Fully detectable.
* **Cloud virtual machines** — public IPs rented from a cloud provider.
  The IP reverse-maps to the provider's generic name
  (``<tenant>-vm.compute.cloudsim.example``) but is *exclusively* assigned
  to one tenant while rented, so it still identifies the IoT service.
* **Shared CDNs** — each CDN node serves hundreds of unrelated domains, so
  a flow towards a CDN IP cannot be attributed to an IoT service.  Devices
  relying exclusively on CDNs are undetectable by the methodology.

Each infrastructure answers ``a_records(fqdn, when)`` (the authoritative
answer a resolver would receive at epoch second ``when``, including DNS
churn) and ``cname_chain(fqdn)`` (the CNAME indirection, if any).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.cloud.addressing import AutonomousSystem, Prefix
from repro.dns.names import second_level_domain

__all__ = [
    "InfrastructureKind",
    "DedicatedCluster",
    "CloudVmPool",
    "CdnFleet",
]


class InfrastructureKind:
    """String constants naming the hosting styles."""

    DEDICATED = "dedicated"
    CLOUD_VM = "cloud_vm"
    CDN = "cdn"


def _stable_hash(*parts: object) -> int:
    """Deterministic cross-run hash used for churn/rotation decisions."""
    digest = hashlib.blake2b(
        "|".join(str(part) for part in parts).encode(), digest_size=8
    ).digest()
    return int.from_bytes(digest, "big")


@dataclass
class DedicatedCluster:
    """A vendor-operated cluster of service IPs.

    Every hosted FQDN must share the cluster's "second-level" domain with
    the operator; this is the ownership invariant the dedicated/shared
    classifier relies on.  Each hosted domain receives its own disjoint
    *slice* of ``ips_per_domain`` addresses (separate load balancers per
    service), and DNS answers rotate inside the slice every
    ``rotation_seconds`` to model A-record churn.  Because slices are
    disjoint, any single cluster address reverse-maps to exactly one
    domain — which is what lets a flow-header observer attribute traffic
    towards it.
    """

    operator: str
    prefix: Prefix
    autonomous_system: AutonomousSystem
    ips_per_domain: int = 3
    rotation_seconds: int = 6 * 3600
    answers_per_query: int = 3
    domains: Dict[str, Tuple[int, ...]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.ips_per_domain < 1:
            raise ValueError("need at least one address per domain")
        self._slices: Dict[str, List[int]] = {}
        self._next = self.prefix.first

    @property
    def kind(self) -> str:
        return InfrastructureKind.DEDICATED

    def host_domain(self, fqdn: str, ports: Sequence[int]) -> None:
        """Serve ``fqdn`` from this cluster on the given ports."""
        if second_level_domain(fqdn) != self.operator:
            raise ValueError(
                f"dedicated cluster for {self.operator!r} cannot host "
                f"{fqdn!r}"
            )
        if fqdn in self.domains:
            return
        if self._next + self.ips_per_domain - 1 > self.prefix.last:
            raise RuntimeError(
                f"cluster prefix {self.prefix} of {self.operator!r} "
                "exhausted"
            )
        self._slices[fqdn] = list(
            range(self._next, self._next + self.ips_per_domain)
        )
        self._next += self.ips_per_domain
        self.domains[fqdn] = tuple(ports)

    def cname_chain(self, fqdn: str) -> List[str]:
        """Dedicated domains answer directly with A records."""
        return []

    def a_records(self, fqdn: str, when: int) -> List[int]:
        """Return the rotating authoritative answer for ``fqdn``."""
        if fqdn not in self.domains:
            raise KeyError(f"{fqdn!r} not hosted by {self.operator!r}")
        slice_ = self._slices[fqdn]
        epoch = when // self.rotation_seconds
        count = min(self.answers_per_query, len(slice_))
        start = _stable_hash(self.operator, fqdn, epoch) % len(slice_)
        return [
            slice_[(start + step) % len(slice_)] for step in range(count)
        ]

    def slice_for(self, fqdn: str) -> List[int]:
        """All addresses dedicated to one hosted domain."""
        return list(self._slices[fqdn])

    def all_addresses(self) -> List[int]:
        return [
            address
            for slice_ in self._slices.values()
            for address in slice_
        ]

    def ports_for(self, fqdn: str) -> Tuple[int, ...]:
        return self.domains[fqdn]


@dataclass
class CloudVmPool:
    """A public cloud renting exclusive VM addresses to tenants.

    A tenant domain is CNAMEd to a provider name which resolves to the
    tenant's own VM address(es).  While rented, the address serves only
    that tenant (the property the paper leans on to treat EC2-style VMs as
    dedicated infrastructure).
    """

    provider: str
    prefix: Prefix
    autonomous_system: AutonomousSystem
    compute_suffix: str = "compute"

    def __post_init__(self) -> None:
        self._next = self.prefix.first
        self._tenancies: Dict[str, List[int]] = {}
        self._tenant_ports: Dict[str, Tuple[int, ...]] = {}

    @property
    def kind(self) -> str:
        return InfrastructureKind.CLOUD_VM

    def rent(self, fqdn: str, ports: Sequence[int], count: int = 1) -> List[int]:
        """Assign ``count`` fresh exclusive VM addresses to ``fqdn``."""
        if fqdn in self._tenancies:
            raise ValueError(f"{fqdn!r} already has a tenancy")
        if self._next + count - 1 > self.prefix.last:
            raise RuntimeError(f"cloud {self.provider!r} out of addresses")
        addresses = list(range(self._next, self._next + count))
        self._next += count
        self._tenancies[fqdn] = addresses
        self._tenant_ports[fqdn] = tuple(ports)
        return addresses

    def provider_name(self, fqdn: str) -> str:
        """The provider-side CNAME target for a tenant domain."""
        label = fqdn.replace(".", "-")
        return f"{label}.{self.compute_suffix}.{self.provider}"

    def cname_chain(self, fqdn: str) -> List[str]:
        if fqdn not in self._tenancies:
            raise KeyError(f"{fqdn!r} is not a tenant of {self.provider!r}")
        return [self.provider_name(fqdn)]

    def a_records(self, fqdn: str, when: int) -> List[int]:
        if fqdn not in self._tenancies:
            raise KeyError(f"{fqdn!r} is not a tenant of {self.provider!r}")
        return list(self._tenancies[fqdn])

    @property
    def domains(self) -> Dict[str, Tuple[int, ...]]:
        return dict(self._tenant_ports)

    def all_addresses(self) -> List[int]:
        return [
            address
            for addresses in self._tenancies.values()
            for address in addresses
        ]

    def ports_for(self, fqdn: str) -> Tuple[int, ...]:
        return self._tenant_ports[fqdn]


@dataclass
class CdnFleet:
    """A shared content-delivery network.

    Every node serves *all* onboarded domains; answers map a domain to a
    handful of nodes that rotate with time, so over any observation window
    a CDN address reverse-maps to many unrelated second-level domains.
    """

    provider: str
    prefix: Prefix
    autonomous_system: AutonomousSystem
    node_count: int
    edge_suffix: str = "edge"
    rotation_seconds: int = 1800
    answers_per_query: int = 4

    def __post_init__(self) -> None:
        if self.node_count > self.prefix.size:
            raise ValueError("CDN node count exceeds prefix size")
        self.nodes: List[int] = [
            self.prefix.first + offset for offset in range(self.node_count)
        ]
        self._onboarded: Dict[str, Tuple[int, ...]] = {}

    @property
    def kind(self) -> str:
        return InfrastructureKind.CDN

    def onboard(self, fqdn: str, ports: Sequence[int]) -> None:
        """Start serving ``fqdn`` from the CDN."""
        self._onboarded[fqdn] = tuple(ports)

    def edge_name(self, fqdn: str) -> str:
        """The CDN-side CNAME target for an onboarded domain."""
        return f"{fqdn}.{self.edge_suffix}.{self.provider}"

    def cname_chain(self, fqdn: str) -> List[str]:
        if fqdn not in self._onboarded:
            raise KeyError(f"{fqdn!r} not onboarded at {self.provider!r}")
        return [self.edge_name(fqdn)]

    def a_records(self, fqdn: str, when: int) -> List[int]:
        if fqdn not in self._onboarded:
            raise KeyError(f"{fqdn!r} not onboarded at {self.provider!r}")
        epoch = when // self.rotation_seconds
        count = min(self.answers_per_query, self.node_count)
        start = _stable_hash(self.provider, fqdn, epoch) % self.node_count
        stride = 1 + _stable_hash(fqdn) % max(1, self.node_count // 7)
        return [
            self.nodes[(start + step * stride) % self.node_count]
            for step in range(count)
        ]

    @property
    def domains(self) -> Dict[str, Tuple[int, ...]]:
        return dict(self._onboarded)

    def all_addresses(self) -> List[int]:
        return list(self.nodes)

    def ports_for(self, fqdn: str) -> Tuple[int, ...]:
        return self._onboarded[fqdn]

    def domains_on_node(
        self, address: int, domains: Optional[Iterable[str]] = None
    ) -> List[str]:
        """Domains that an observer could see served from ``address``.

        Because node selection rotates, any onboarded domain will
        eventually be served by any node; this returns all onboarded
        domains (optionally filtered), matching what a passive-DNS
        database accumulates over time.
        """
        pool = self._onboarded if domains is None else domains
        return [fqdn for fqdn in pool if fqdn in self._onboarded]
