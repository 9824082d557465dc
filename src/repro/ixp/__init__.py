"""IXP substrate: member ASes (eyeball vs non-eyeball), the switching
fabric with IPFIX sampling, routing asymmetry, and the anti-spoofing
filter of Section 6.3.

The Section 6 results are aggregate: :func:`~repro.ixp.fabric.
run_wild_ixp` draws per-member detected-IP counts per day; the
anti-spoofing filter on flow records is
:class:`~repro.core.detector.FlowDetector`'s ``require_established``
(see ``examples/ixp_antispoofing.py``)."""

from repro import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.ixp.members": ("IxpMember", "build_members"),
        "repro.ixp.fabric": (
            "IxpConfig", "IxpResult", "run_wild_ixp", "make_spoofed_flows",
        ),
    },
)
