"""Dedicated- vs shared-infrastructure classification — Section 4.2.1.

For every IoT-specific domain the methodology asks the passive-DNS
database two questions: which service addresses did the domain map to in
the window, and — inversely — which *query names* were observed mapping
to each of those addresses.  An address is *exclusively used* when the
query names behind it all share one second-level domain (CNAME chains
through cloud-provider compute names do not break exclusivity: the
tenant's querying SLD is what counts).  A domain is classified
*dedicated* only when every address it used was exclusive to its SLD on
every day of the window; one shared address on one day demotes it to
*shared*.  Domains DNSDB never saw are *no-record* and handed to the
certificate fallback (Section 4.2.2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Set, Tuple

from repro.dns.dnsdb import PassiveDnsDatabase
from repro.dns.names import normalize, second_level_domain
from repro.timeutil import SECONDS_PER_DAY

__all__ = [
    "INFRA_DEDICATED",
    "INFRA_SHARED",
    "INFRA_NO_RECORD",
    "INFRA_UNKNOWN",
    "InfraVerdict",
    "classify_infrastructure",
    "address_is_exclusive",
]

INFRA_DEDICATED = "dedicated"
INFRA_SHARED = "shared"
INFRA_NO_RECORD = "no_record"
#: Passive DNS was *unavailable* (outage after retries), as opposed to
#: answering "never saw it" — the degradation paths treat the two very
#: differently (see :func:`repro.core.hitlist.build_hitlist`).
INFRA_UNKNOWN = "unknown"


@dataclass(frozen=True)
class InfraVerdict:
    """Outcome of infrastructure classification for one domain."""

    fqdn: str
    status: str  # INFRA_*
    addresses: Tuple[int, ...]  # every address observed in the window
    daily_addresses: Tuple[Tuple[int, Tuple[int, ...]], ...] = ()
    shared_addresses: Tuple[int, ...] = ()  # evidence for INFRA_SHARED

    @property
    def dedicated(self) -> bool:
        return self.status == INFRA_DEDICATED


def address_is_exclusive(
    dnsdb: PassiveDnsDatabase,
    address: int,
    sld: str,
    start: int,
    end: int,
) -> bool:
    """Whether ``address`` served only query names under ``sld`` in the
    window."""
    slds = dnsdb.slds_for_address(address, start, end)
    return slds <= {sld} and bool(slds)


def classify_infrastructure(
    fqdn: str,
    dnsdb: PassiveDnsDatabase,
    start: int,
    end: int,
) -> InfraVerdict:
    """Classify one domain over ``[start, end)`` (aligned to days)."""
    fqdn = normalize(fqdn)
    sld = second_level_domain(fqdn)
    all_addresses: Set[int] = set()
    shared_addresses: Set[int] = set()
    daily: List[Tuple[int, Tuple[int, ...]]] = []
    saw_any = dnsdb.has_records(fqdn)
    if saw_any:
        day = start
        while day < end:
            day_end = min(day + SECONDS_PER_DAY, end)
            addresses = dnsdb.addresses_for_domain(fqdn, day, day_end)
            daily.append((day, tuple(sorted(addresses))))
            for address in addresses:
                all_addresses.add(address)
                if not address_is_exclusive(
                    dnsdb, address, sld, day, day_end
                ):
                    shared_addresses.add(address)
            day = day_end
    if not all_addresses:
        return InfraVerdict(fqdn, INFRA_NO_RECORD, ())
    status = INFRA_SHARED if shared_addresses else INFRA_DEDICATED
    return InfraVerdict(
        fqdn,
        status,
        tuple(sorted(all_addresses)),
        tuple(daily),
        tuple(sorted(shared_addresses)),
    )
