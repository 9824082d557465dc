"""TLS substrate: certificate models and an internet-wide scan dataset
standing in for Censys certificate/banner data."""

from repro import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.tls.certificates": ("Certificate",),
        "repro.tls.scanner": ("ScanDataset", "ScannedHost"),
    },
)
