"""Backend infrastructure substrate: IPv4 addressing, autonomous systems,
dedicated clusters, cloud virtual machines, and shared CDNs."""

from repro import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.cloud.addressing": (
            "AddressAllocator", "AutonomousSystem", "ASRegistry", "Prefix",
            "ip_to_str", "str_to_ip",
        ),
        "repro.cloud.infrastructure": (
            "CdnFleet", "CloudVmPool", "DedicatedCluster",
            "InfrastructureKind",
        ),
    },
)
