"""Passive-DNS observation store — the simulation's DNSDB.

Farsight DNSDB records, for every (rrname, rrtype, rdata) tuple seen by
its sensors, the first/last time and count of observations.  The
methodology (Section 4.2.1) issues two query shapes against it:

* *forward*: every address a domain (and its CNAME chain) mapped to in a
  time window — used to expand the hitlist beyond the single vantage
  point's resolutions, and
* *inverse*: every owner name observed mapping to an address — used to
  decide whether an address exclusively serves one second-level domain.

Real DNSDB has coverage gaps (it only sees queries crossing its sensor
deck); ``coverage_filter`` models that by silently dropping observations
for selected names, which is what forces the Censys fallback of
Section 4.2.2.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, FrozenSet, Iterable, List, Optional
from typing import Sequence, Set, Tuple

from repro.cloud.addressing import str_to_ip
from repro.dns.names import normalize, second_level_domain
from repro.dns.zone import ResourceRecord

__all__ = ["PdnsObservation", "PassiveDnsDatabase"]


@dataclass
class PdnsObservation:
    """Aggregated sightings of one (rrname, rrtype, rdata) tuple."""

    rrname: str
    rrtype: str
    rdata: str
    first_seen: int
    last_seen: int
    count: int = 1

    def overlaps(self, start: int, end: int) -> bool:
        """True if any sighting falls within ``[start, end]``."""
        return self.first_seen <= end and self.last_seen >= start


class PassiveDnsDatabase:
    """Time-indexed passive-DNS store with forward and inverse indexes."""

    def __init__(
        self, coverage_filter: Optional[Callable[[str], bool]] = None
    ) -> None:
        #: Drops an observation when the filter returns ``False`` for its
        #: rrname.  ``None`` keeps everything.
        self.coverage_filter = coverage_filter
        self._tuples: Dict[Tuple[str, str, str], PdnsObservation] = {}
        self._by_rrname: Dict[str, List[PdnsObservation]] = {}
        self._a_by_address: Dict[int, List[PdnsObservation]] = {}
        self._cname_by_target: Dict[str, List[PdnsObservation]] = {}
        #: ``slds_for_address`` answers by ``(address, start, end)``;
        #: infrastructure classification asks the same question for
        #: every domain sharing an address, and any ingest clears it
        self._slds_memo: Dict[Tuple[int, int, int], FrozenSet[str]] = {}

    # ------------------------------------------------------------------
    # ingestion

    def ingest(self, records: Iterable[ResourceRecord], when: int) -> None:
        """Ingest the answer section of one resolution at time ``when``."""
        self._slds_memo.clear()
        for record in records:
            rrname = normalize(record.rrname)
            if self.coverage_filter is not None and not self.coverage_filter(
                rrname
            ):
                continue
            rdata = (
                normalize(record.rdata)
                if record.rrtype == "CNAME"
                else record.rdata
            )
            key = (rrname, record.rrtype, rdata)
            observation = self._tuples.get(key)
            if observation is not None:
                observation.first_seen = min(observation.first_seen, when)
                observation.last_seen = max(observation.last_seen, when)
                observation.count += 1
                continue
            observation = PdnsObservation(
                rrname, record.rrtype, rdata, when, when
            )
            self._tuples[key] = observation
            self._by_rrname.setdefault(rrname, []).append(observation)
            if record.rrtype == "A":
                self._a_by_address.setdefault(
                    str_to_ip(record.rdata), []
                ).append(observation)
            elif record.rrtype == "CNAME":
                self._cname_by_target.setdefault(rdata, []).append(
                    observation
                )

    # ------------------------------------------------------------------
    # forward queries

    def lookup_rrset(
        self, rrname: str, start: int, end: int
    ) -> List[PdnsObservation]:
        """All observations whose owner is ``rrname`` within a window."""
        return [
            observation
            for observation in self._by_rrname.get(normalize(rrname), [])
            if observation.overlaps(start, end)
        ]

    def has_records(self, rrname: str) -> bool:
        """Whether DNSDB has *any* observation for this owner name."""
        return bool(self._by_rrname.get(normalize(rrname)))

    def addresses_for_domain(
        self, fqdn: str, start: int, end: int, _depth: int = 0
    ) -> Set[int]:
        """Every address the domain resolved to in the window, following
        observed CNAME chains (bounded depth, as real resolvers do)."""
        if _depth > 8:
            return set()
        addresses: Set[int] = set()
        for observation in self.lookup_rrset(fqdn, start, end):
            if observation.rrtype == "A":
                addresses.add(str_to_ip(observation.rdata))
            elif observation.rrtype == "CNAME":
                addresses |= self.addresses_for_domain(
                    observation.rdata, start, end, _depth + 1
                )
        return addresses

    # ------------------------------------------------------------------
    # inverse queries

    def owners_of_address(
        self, address: int, start: int, end: int
    ) -> Set[str]:
        """Owner names directly observed with an A record for ``address``."""
        return {
            observation.rrname
            for observation in self._a_by_address.get(address, [])
            if observation.overlaps(start, end)
        }

    def query_names_for_owner(
        self, owner: str, start: int, end: int, _depth: int = 0
    ) -> Set[str]:
        """Original query names whose CNAME chain reaches ``owner``.

        Includes ``owner`` itself — a name with a direct A record is its
        own query name.
        """
        return self._query_names(normalize(owner), start, end, _depth)

    def _query_names(
        self, owner: str, start: int, end: int, depth: int = 0
    ) -> Set[str]:
        """:meth:`query_names_for_owner` for an already normalised
        ``owner`` (stored rrnames are)."""
        names = {owner}
        if depth > 8:
            return names
        for observation in self._cname_by_target.get(owner, ()):
            if observation.overlaps(start, end):
                names |= self._query_names(
                    observation.rrname, start, end, depth + 1
                )
        return names

    def query_names_for_address(
        self, address: int, start: int, end: int
    ) -> Set[str]:
        """Every query name observed ultimately resolving to ``address``."""
        names: Set[str] = set()
        for owner in self.owners_of_address(address, start, end):
            names |= self._query_names(owner, start, end)
        return names

    def slds_for_address(
        self, address: int, start: int, end: int
    ) -> Set[str]:
        """Second-level domains of the *query* names behind an address.

        This deliberately ignores the SLDs of intermediate CNAME owners
        (e.g. the cloud provider's compute domain): the paper treats an
        EC2 address whose only query name is ``devA.com`` as dedicated to
        ``devA.com`` even though the A-record owner lives under the cloud
        provider's domain.
        """
        key = (address, start, end)
        memo = self._slds_memo.get(key)
        if memo is None:
            slds: Set[str] = set()
            for owner in self.owners_of_address(address, start, end):
                query_names = self._query_names(owner, start, end)
                non_terminal = query_names - {owner}
                if non_terminal:
                    # The A-record owner is a CNAME target (provider
                    # name); ownership is defined by the querying names.
                    slds |= {
                        second_level_domain(name) for name in non_terminal
                    }
                else:
                    slds.add(second_level_domain(owner))
            memo = self._slds_memo[key] = frozenset(slds)
        return set(memo)

    # ------------------------------------------------------------------
    # statistics

    def __len__(self) -> int:
        return len(self._tuples)

    def observations(self) -> Sequence[PdnsObservation]:
        return list(self._tuples.values())
