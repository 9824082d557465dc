"""ISP substrate: topology (BNG/border routers, Home-VP), subscriber
population with address churn, CGNAT/adversary hooks for the scenario
matrix, and the ground-truth + wild-scale simulation drivers."""

from repro import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.isp.topology": (
            "BorderRouter", "HomeVantagePoint", "IspTopology",
        ),
        "repro.isp.subscribers": ("SubscriberPopulation",),
        "repro.isp.cgnat": ("AddressPlan", "CgnatPool", "build_address_plan"),
        "repro.isp.adversary": ("assign_hidden", "assign_mimics"),
        "repro.isp.simulation": (
            "GroundTruthCapture", "GtFlowEvent", "WildConfig", "WildIspResult",
            "run_ground_truth", "run_wild_isp",
        ),
    },
)
