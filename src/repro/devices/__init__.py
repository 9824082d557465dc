"""IoT device substrate: the testbed catalog (Table 1), per-device
traffic profiles, idle/active behaviour models, and the testbed +
experiment automation of Section 2."""

from repro import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.devices.catalog": (
            "CATEGORIES", "DetectionClassSpec", "DeviceCatalog",
            "LEVEL_MANUFACTURER", "LEVEL_PLATFORM", "LEVEL_PRODUCT",
            "ProductSpec", "default_catalog",
        ),
        "repro.devices.profiles": (
            "DomainSpec", "DomainUsage", "DeviceProfile", "ProfileLibrary",
            "build_profile_library",
        ),
        "repro.devices.behavior": ("DeviceBehavior", "InteractionKind"),
        "repro.devices.testbed": ("Testbed", "ExperimentSchedule"),
    },
)
