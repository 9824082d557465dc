"""DNS substrate: name utilities, authoritative zones, a caching resolver
with TTL-driven churn, and a passive-DNS observation store standing in for
Farsight DNSDB."""

from repro import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.dns.names": (
            "is_subdomain", "matches_pattern", "normalize",
            "second_level_domain",
        ),
        "repro.dns.zone": ("ResourceRecord", "Zone", "ZoneSet"),
        "repro.dns.resolver": ("Resolver", "Resolution"),
        "repro.dns.dnsdb": ("PassiveDnsDatabase", "PdnsObservation"),
    },
)
