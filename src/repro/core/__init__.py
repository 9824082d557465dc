"""The paper's primary contribution: the IoT detection methodology.

Pipeline (Figure 7):  classify observed domains (:mod:`domains`) →
map IoT-specific domains to service IPs and split dedicated vs shared
infrastructure via passive DNS (:mod:`infra`) → recover unmapped domains
via TLS certificates/banners (:mod:`certmatch`) → assemble the daily
hitlist and drop shared-infrastructure devices (:mod:`hitlist`) →
generate detection rules per class (:mod:`rules`) → evaluate rules over
sampled flows (:mod:`detector`).  The Section 7.1 active-use threshold
is applied where the wild-ISP simulation draws per-hour packet counts
(:mod:`repro.isp.simulation`).
"""

from repro import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.core.domains": ("DomainClassification", "classify_domains"),
        "repro.core.infra": (
            "INFRA_DEDICATED", "INFRA_NO_RECORD", "INFRA_SHARED",
            "InfraVerdict", "classify_infrastructure",
        ),
        "repro.core.certmatch": ("CensysRecovery", "recover_via_certificates"),
        "repro.core.hitlist": (
            "GroundTruthObservations", "Hitlist", "PipelineReport",
            "build_hitlist",
        ),
        "repro.core.rules": ("DetectionRule", "RuleSet", "generate_rules"),
        "repro.core.detector": ("Detection", "FlowDetector"),
        "repro.core.mitigation": (
            "FlowFilter", "MitigationPlanner", "MitigationPolicy",
        ),
        "repro.core.serialization": (
            "hitlist_from_json", "hitlist_to_json", "rules_from_json",
            "rules_to_json",
        ),
    },
)
