"""IXP substrate: member ASes (eyeball vs non-eyeball), the switching
fabric with IPFIX sampling, routing asymmetry, and the anti-spoofing
filter of Section 6.3.

Flow-level detection at the fabric is a :mod:`repro.pipeline`
assembly — :func:`~repro.ixp.detect.detect_fabric_flows` keys by
source address and keeps the anti-spoofing Validate stage on."""

from repro import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.ixp.detect": ("IxpDetectionResult", "detect_fabric_flows"),
        "repro.ixp.members": ("IxpMember", "build_members"),
        "repro.ixp.fabric": (
            "IxpConfig", "IxpFabricTap", "IxpResult", "run_wild_ixp",
            "make_spoofed_flows",
        ),
    },
)
