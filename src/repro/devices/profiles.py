"""Per-device traffic profiles: domains, hosting, ports, and rates.

This module turns the catalog (Table 1 + Figure 10) into the concrete
world the simulation runs against:

* every detection class gets its ``rule_domains`` Primary FQDNs under the
  manufacturer's (or platform operator's) second-level domain;
* gossiping vendors additionally get *auxiliary* domains hosted on the
  shared CDN (these are the ~200 domains the dedicated/shared classifier
  must reject);
* excluded products (Google Home, Apple TV, …) get domains hosted only
  on shared infrastructure, which is what makes the pipeline drop them;
* a pool of *generic* domains (NTP pools, video CDNs, trackers) is
  contacted by many devices and must be filtered by the domain
  classification step;
* a small set of *support* domains (third-party services like the
  ``samsung-*.whisk.com`` example) completes the Section 4.1 taxonomy.

Rates are packets/hour means; the behaviour layer turns them into
per-hour packet counts.  All derived quantities (jitter, subsets) come
from stable hashes, so the world is identical across runs and processes.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.devices.catalog import (
    DetectionClassSpec,
    DeviceCatalog,
    LEVEL_MANUFACTURER,
    LEVEL_PLATFORM,
    LEVEL_PRODUCT,
    ProductSpec,
    default_catalog,
)
from repro.netflow.records import PROTO_TCP, PROTO_UDP

__all__ = [
    "DomainSpec",
    "DomainUsage",
    "DeviceProfile",
    "WildBehavior",
    "ProfileLibrary",
    "build_profile_library",
    "HOSTING_DEDICATED",
    "HOSTING_CLOUD_VM",
    "HOSTING_CDN",
    "ROLE_PRIMARY",
    "ROLE_SUPPORT",
    "ROLE_GENERIC",
]

HOSTING_DEDICATED = "dedicated"
HOSTING_CLOUD_VM = "cloud_vm"
HOSTING_CDN = "cdn"

ROLE_PRIMARY = "primary"
ROLE_SUPPORT = "support"
ROLE_GENERIC = "generic"

#: Classes whose rule domains live on rented cloud VMs instead of a
#: vendor-operated cluster (exercises the EC2-tenancy path of §4.2.1).
_CLOUD_VM_CLASSES = frozenset(
    {"Anova Sousvide", "AppKettle", "Insteon Hub", "GE Microwave"}
)

#: (class, index) rule domains missing from DNSDB but recoverable via the
#: Censys certificate/banner fallback — 8 domains across 5 devices (§4.2.2).
_CENSYS_RECOVERED: Tuple[Tuple[str, int], ...] = (
    ("Amcrest Cam.", 4),
    ("Amcrest Cam.", 5),
    ("Dlink Motion Sens.", 4),
    ("ZModo Doorbell", 3),
    ("ZModo Doorbell", 4),
    ("Reolink Cam.", 1),
    ("Yi Camera", 2),
    ("Yi Camera", 3),
)

#: Classes with one extra candidate domain that is missing from DNSDB
#: *and* does not speak HTTPS, so it cannot be recovered and is dropped
#: from the final rule (Roku: 9 candidates -> 8 rule domains).
_UNRECOVERABLE_EXTRA = frozenset({"Roku TV"})

#: Classes with active-only rule domains (used by §7.1 usage detection).
#: Samsung TV's 12 active-only domains (streaming/menu backends) are why
#: the class stays undetectable in idle ground truth (§5): at D=0.4 its
#: rule needs 6 of 16 domains but only 4 are reachable while idle.
_ACTIVE_ONLY_CLASSES = {
    "TP-link Dev.": 1,
    "Ring Doorbell": 1,
    "Samsung TV": 12,
}

#: Per-class multiplier applied to idle rates while the device is in
#: active use.  Defaults to a mild 3x; voice assistants stream audio on
#: use (large boost), cameras/laconic devices push video only when
#: exercised (very large boost over a near-zero idle rate), Samsung's
#: firmware/update domains barely react to usage.
#: Continuous-upload devices (cameras, doorbells with cloud storage)
#: push far more traffic through their anchor domain than a heartbeat
#: would; these anchors dominate the byte-count heavy hitters of §3.
_ANCHOR_BOOSTS = {
    "Amcrest Cam.": 5.0,
    "Reolink Cam.": 5.0,
    "Yi Camera": 5.0,
    "Wansview Cam.": 5.0,
    "Ring Doorbell": 4.0,
    "Nest Device": 4.0,
    "Blink Hub & Cam.": 3.0,
    "Fire TV": 3.0,
    "Roku TV": 3.0,
}

_DEFAULT_ACTIVE_MULTIPLIER = 3.0
_ACTIVE_MULTIPLIERS = {
    "Alexa Enabled": 20.0,
    "Amazon Product": 4.0,
    "Fire TV": 4.0,
    "Samsung IoT": 2.5,
    "Samsung TV": 2.5,
    "Meross Dooropener": 300.0,
    "Microseven Cam.": 400.0,
    "Luohe Cam.": 400.0,
    "Anova Sousvide": 300.0,
    "Insteon Hub": 200.0,
}

#: Idle gossip scale of excluded products (no detection class to derive
#: it from): Apple/Google devices gossip heavily, plugs barely speak.
_EXCLUDED_IDLE_SCALE = {
    "Apple TV": 1.4,
    "Google Home": 1.2,
    "Google Home Mini": 1.0,
    "LG TV": 0.8,
    "Lefun Cam": 0.3,
    "SwitchBot": 0.12,
    "WeMo Plug": 0.08,
    "Wink 2": 0.3,
}

#: Entertainment-flavoured classes showing a diurnal usage pattern in the
#: wild (§6.2: only Alexa Enabled and Samsung IoT families do).
_DIURNAL_CLASSES = frozenset(
    {"Alexa Enabled", "Amazon Product", "Fire TV", "Samsung IoT",
     "Samsung TV"}
)

#: Baseline probability that a wild owner actively uses the device in a
#: given hour (scaled by the diurnal profile).  TVs are watched for
#: hours daily; voice assistants see short interactions.
_DEFAULT_ACTIVE_USE_PROB = 0.004
_ACTIVE_USE_PROBS = {
    "Alexa Enabled": 0.006,
    "Amazon Product": 0.006,
    "Fire TV": 0.02,
    "Samsung IoT": 0.012,
    "Samsung TV": 0.02,
}


def _stable_unit(*parts: object) -> float:
    """Deterministic float in [0, 1) derived from the arguments."""
    digest = hashlib.blake2b(
        "|".join(str(part) for part in parts).encode(), digest_size=8
    ).digest()
    return int.from_bytes(digest, "big") / 2**64


def _jitter(*parts: object, low: float = 0.5, high: float = 1.6) -> float:
    """Deterministic multiplicative jitter in [low, high)."""
    return low + (high - low) * _stable_unit(*parts)


def _slug(name: str) -> str:
    return "".join(ch for ch in name.lower() if ch.isalnum())


@dataclass(frozen=True)
class DomainSpec:
    """One FQDN of the simulated world and how it is hosted."""

    fqdn: str
    registrant: str  # owner organisation of the SLD
    registrant_kind: str  # "vendor" | "platform" | "generic" | "third_party"
    hosting: str  # HOSTING_*
    ports: Tuple[int, ...]
    protocol: int
    role_hint: str  # ROLE_* — ground-truth annotation for tests
    rule_class: Optional[str] = None
    critical: bool = False
    dnsdb_gap: bool = False  # DNSDB never observed this name
    https: bool = True  # presents a TLS certificate

    @property
    def primary_port(self) -> int:
        return self.ports[0]


@dataclass(frozen=True)
class DomainUsage:
    """How one device talks to one domain."""

    fqdn: str
    idle_pph: float  # mean packets/hour while idle
    active_pph: float  # mean packets/hour while actively used
    active_only: bool = False
    bytes_per_packet: int = 120

    def rate(self, active: bool) -> float:
        if active:
            return self.active_pph
        return 0.0 if self.active_only else self.idle_pph


@dataclass(frozen=True)
class WildBehavior:
    """Per-class usage behaviour of wild (in-the-wild) owners."""

    diurnal: bool
    active_use_prob: float  # baseline probability of active use per hour


@dataclass(frozen=True)
class DeviceProfile:
    """The complete traffic profile of one product."""

    product: ProductSpec
    usages: Tuple[DomainUsage, ...]

    def domains(self) -> Tuple[str, ...]:
        return tuple(usage.fqdn for usage in self.usages)

    def usage_for(self, fqdn: str) -> DomainUsage:
        for usage in self.usages:
            if usage.fqdn == fqdn:
                return usage
        raise KeyError(f"{self.product.name!r} does not contact {fqdn!r}")


class ProfileLibrary:
    """All domains, device profiles and per-class rule-domain sets."""

    def __init__(
        self,
        catalog: DeviceCatalog,
        domains: Dict[str, DomainSpec],
        profiles: Dict[str, DeviceProfile],
        rule_domains: Dict[str, Tuple[str, ...]],
        critical_domains: Dict[str, Tuple[str, ...]],
        wild_behaviors: Dict[str, WildBehavior],
    ) -> None:
        self.catalog = catalog
        self.domains = domains
        self.profiles = profiles
        self.rule_domains = rule_domains
        self.critical_domains = critical_domains
        self.wild_behaviors = wild_behaviors

    def domain(self, fqdn: str) -> DomainSpec:
        return self.domains[fqdn]

    def profile(self, product_name: str) -> DeviceProfile:
        return self.profiles[product_name]

    def domains_with_role(self, role: str) -> List[DomainSpec]:
        return [
            spec for spec in self.domains.values() if spec.role_hint == role
        ]

    def contacted_domains(self) -> Set[str]:
        """Every FQDN contacted by at least one testbed device."""
        return {
            usage.fqdn
            for profile in self.profiles.values()
            for usage in profile.usages
        }


# ---------------------------------------------------------------------------
# rate model


class _RateModel:
    """Central knobs for packet rates (packets/hour means).

    Calibrated against the paper's observations: Figure 8 (most idle
    device/domain pairs average 10-1,000 packets/hour), Figure 9 (active
    experiments push some domains past 10k packets/hour) and Figure 17
    (a single Alexa device's ISP-VP sample counts).
    """

    ANCHOR_IDLE = 60.0  # first (heartbeat) rule domain of a class
    SECONDARY_IDLE = 30.0  # remaining rule domains
    AUX_IDLE = 18.0  # auxiliary CDN-hosted vendor domains
    GENERIC_IDLE = 14.0  # generic services (NTP, trackers)
    GOSSIP_ACTIVE_MULTIPLIER = 1.5  # aux/generic boost while active
    ACTIVE_ONLY_PPH = 300.0  # active-only domains while in use

    def active_multiplier(self, class_name: str) -> float:
        return _ACTIVE_MULTIPLIERS.get(
            class_name, _DEFAULT_ACTIVE_MULTIPLIER
        )

    def anchor(self, spec: DetectionClassSpec, fqdn: str) -> float:
        boost = _ANCHOR_BOOSTS.get(spec.name, 1.0)
        return self.ANCHOR_IDLE * boost * spec.idle_rate_scale * _jitter(
            fqdn, "anchor"
        )

    def secondary(self, spec: DetectionClassSpec, fqdn: str) -> float:
        return self.SECONDARY_IDLE * spec.idle_rate_scale * _jitter(
            fqdn, "secondary"
        )

    def auxiliary(self, fqdn: str) -> float:
        return self.AUX_IDLE * _jitter(fqdn, "aux")

    def generic(self, fqdn: str) -> float:
        return self.GENERIC_IDLE * _jitter(fqdn, "generic")


# ---------------------------------------------------------------------------
# generation helpers

_MQTT_PORT = 8883

#: Deterministic port choice per domain: mostly HTTPS, some MQTT/other.
def _ports_for(fqdn: str, role: str) -> Tuple[Tuple[int, ...], int]:
    draw = _stable_unit(fqdn, "port")
    if role == ROLE_GENERIC and "ntp" in fqdn:
        return (123,), PROTO_UDP
    if draw < 0.62:
        return (443,), PROTO_TCP
    if draw < 0.74:
        return (80,), PROTO_TCP
    if draw < 0.82:
        return (8080,), PROTO_TCP
    if draw < 0.92:
        return (_MQTT_PORT,), PROTO_TCP
    return (8443,), PROTO_TCP


def _vendor_sld(manufacturer: str) -> str:
    return f"{_slug(manufacturer)}.example"


_PLATFORM_SLDS = {
    "avs": "amazon.example",  # AVS lives under Amazon's own SLD
    "tuya": "tuya.example",
    "smarter": "smartercloud.example",
    "magichome": "magichome.example",
    "osram": "osram.example",
}

#: Whois identity of each platform SLD.  Platforms whose backend lives
#: under the vendor's own SLD (AVS, MagicHome, Osram) share the vendor's
#: registrant so ownership stays consistent per SLD.
_PLATFORM_REGISTRANTS = {
    "avs": ("Amazon", "vendor"),
    "tuya": ("Tuya", "platform"),
    "smarter": ("SmarterCloud", "platform"),
    "magichome": ("MagicHome", "vendor"),
    "osram": ("Osram", "vendor"),
}


def _class_sld(spec: DetectionClassSpec, catalog: DeviceCatalog) -> str:
    if spec.platform is not None:
        return _PLATFORM_SLDS[spec.platform]
    manufacturer = catalog.product(spec.member_products[0]).manufacturer
    return _vendor_sld(manufacturer)


def _rule_fqdns(spec: DetectionClassSpec, catalog: DeviceCatalog) -> List[str]:
    """Generate the Primary rule FQDNs of a detection class.

    Child classes monitor only their *additional* domains (Fire TV's 33
    beyond the Amazon Product set; Samsung TV's 16 beyond Samsung IoT):
    the hierarchy gate supplies the parent's evidence, and keeping the
    child's rule specific is what prevents a chatty parent-class device
    from satisfying the child's rule (the paper's false-positive
    guard: "the domain sets per device differ").
    """
    sld = _class_sld(spec, catalog)
    label = _slug(spec.name)
    if spec.name == "Alexa Enabled":
        return [f"avs-alexa.na.{sld}"]
    return [
        f"{label}-d{index:02d}.{sld}"
        for index in range(spec.rule_domains)
    ]


def _candidate_fqdns(
    spec: DetectionClassSpec, catalog: DeviceCatalog
) -> List[str]:
    """Rule FQDNs plus any unrecoverable extra candidates."""
    names = _rule_fqdns(spec, catalog)
    if spec.name in _UNRECOVERABLE_EXTRA:
        sld = _class_sld(spec, catalog)
        names.append(f"{_slug(spec.name)}-gap.{sld}")
    return names


# Auxiliary (shared-hosted) vendor domains per gossip level.
_AUX_DOMAIN_COUNTS = {
    "Amazon": 24,
    "Samsung": 12,
    "Philips": 6,
    "Xiaomi": 6,
    "Roku": 8,
    "TP-Link": 4,
    "Ring": 5,
    "Nest": 6,
    "SmartThings": 5,
    "Yi": 4,
    "Blink": 3,
    "Sengled": 3,
    "Honeywell": 4,
    "Osram": 3,
    "D-Link": 3,
    "Amcrest": 3,
    "Reolink": 3,
    "Wansview": 2,
    "ZModo": 2,
    "Netatmo": 3,
    "GE": 2,
    "Meross": 2,
    "Insteon": 2,
    "Icsee": 2,
    "Smarter": 3,
    "MagicHome": 2,
    "SmartLife": 3,
    "Anova": 2,
    "AppKettle": 2,
    "Ubell": 2,
    "Luohe": 1,
    "Microseven": 1,
}

#: Domains of excluded products: (manufacturer, count, hosting) — all on
#: shared infrastructure except LG's single dedicated domain.
_EXCLUDED_PRODUCT_DOMAINS = {
    "Google Home": ("Google", 7, HOSTING_CDN),
    "Google Home Mini": ("Google", 5, HOSTING_CDN),
    "Apple TV": ("Apple", 11, HOSTING_CDN),
    "Lefun Cam": ("Lefun", 3, HOSTING_CDN),
    "SwitchBot": ("SwitchBot", 2, HOSTING_CDN),
    "LG TV": ("LG", 4, HOSTING_CDN),  # first domain overridden to dedicated
    "WeMo Plug": ("Belkin", 3, HOSTING_DEDICATED),  # but DNSDB-gapped
    "Wink 2": ("Wink", 3, HOSTING_DEDICATED),  # but DNSDB-gapped
}

_GENERIC_NTP = tuple(f"ntp{index}.pool.example" for index in range(6))
_GENERIC_SERVICES = tuple(
    f"{name}.example"
    for name in (
        "videocdn", "musicstream", "weatherapi", "speedtest", "maps",
        "search", "captive-portal", "oem-updates", "fonts", "social",
    )
) + tuple(f"ads{index}.tracker.example" for index in range(12)) + tuple(
    f"telemetry{index}.analytics.example" for index in range(8)
) + tuple(f"generic{index:02d}.webservices.example" for index in range(54))

#: Support domains (§4.1): third-party services complementing specific
#: IoT products, dedicated hosting, vendor-tagged labels.
_SUPPORT_DOMAINS: Tuple[Tuple[str, str, str], ...] = tuple(
    (fqdn, registrant, product)
    for fqdn, registrant, product in (
        ("samsung-recipes.whisk.example", "Whisk", "Samsung Fridge"),
        ("samsung-images.whisk.example", "Whisk", "Samsung Fridge"),
        ("honeywell.weatherfeed.example", "WeatherFeed", "Honeywell T-stat"),
        ("netatmo.weatherfeed.example", "WeatherFeed", "Netatmo Weather"),
        ("nest.weatherfeed.example", "WeatherFeed", "Nest T-stat"),
        ("ring.videostore.example", "VideoStore", "Ring Doorbell"),
        ("blink.videostore.example", "VideoStore", "Blink Cam"),
        ("wansview.videostore.example", "VideoStore", "Wansview Cam"),
        ("yi.videostore.example", "VideoStore", "Yi Cam"),
        ("amcrest.videostore.example", "VideoStore", "Amcrest Cam"),
        ("reolink.videostore.example", "VideoStore", "Reolink Cam"),
        ("anova.recipecloud.example", "RecipeCloud", "Anova Sousvide"),
        ("appkettle.recipecloud.example", "RecipeCloud", "Appkettle"),
        ("smarter.recipecloud.example", "RecipeCloud",
         "Smarter Coffee Machine"),
        ("ge.recipecloud.example", "RecipeCloud", "GE Microwave"),
        ("philips.lightscenes.example", "LightScenes", "Philips Hue"),
        ("sengled.lightscenes.example", "LightScenes", "Sengled"),
        ("osram.lightscenes.example", "LightScenes", "Lightify"),
        ("insteon.automate.example", "Automate", "Insteon"),
    )
)


# ---------------------------------------------------------------------------
# library construction


def build_profile_library(
    catalog: Optional[DeviceCatalog] = None,
    shared_hosting_classes: Optional[Set[str]] = None,
) -> ProfileLibrary:
    """Build the full deterministic world of domains and device profiles.

    ``shared_hosting_classes`` moves the rule domains of the named
    detection classes onto the shared CDN — the §7.4 what-if ("a good
    way to hide IoT services"): the dedicated/shared classifier must
    then reject those domains and the classes become undetectable.
    """
    catalog = catalog or default_catalog()
    shared_hosting_classes = shared_hosting_classes or set()
    unknown = shared_hosting_classes - {
        spec.name for spec in catalog.detection_classes
    }
    if unknown:
        raise ValueError(
            f"unknown classes in shared_hosting_classes: {sorted(unknown)}"
        )
    rates = _RateModel()
    domains: Dict[str, DomainSpec] = {}
    rule_domains: Dict[str, Tuple[str, ...]] = {}
    critical_domains: Dict[str, Tuple[str, ...]] = {}
    wild_behaviors: Dict[str, WildBehavior] = {}

    def add_domain(spec: DomainSpec) -> None:
        existing = domains.get(spec.fqdn)
        if existing is not None:
            if existing != spec:
                raise ValueError(
                    f"conflicting specs for domain {spec.fqdn!r}"
                )
            return
        domains[spec.fqdn] = spec

    censys_recovered = {
        (class_name, index) for class_name, index in _CENSYS_RECOVERED
    }

    # ---- rule (Primary, detectable) domains per detection class -------
    for spec in catalog.detection_classes:
        fqdns = _candidate_fqdns(spec, catalog)
        if spec.name in shared_hosting_classes:
            hosting = HOSTING_CDN  # §7.4: service hidden behind a CDN
        elif spec.name in _CLOUD_VM_CLASSES:
            hosting = HOSTING_CLOUD_VM
        else:
            hosting = HOSTING_DEDICATED
        active_only_budget = _ACTIVE_ONLY_CLASSES.get(spec.name, 0)
        surviving: List[str] = []
        for index, fqdn in enumerate(fqdns):
            if fqdn in domains:
                # Inherited from the parent class (e.g. Fire TV reusing
                # the Amazon Product domains) — already registered.
                surviving.append(fqdn)
                continue
            gap = (spec.name, index) in censys_recovered
            unrecoverable = fqdn.endswith(
                f"{_slug(spec.name)}-gap.{_class_sld(spec, catalog)}"
            ) and spec.name in _UNRECOVERABLE_EXTRA
            ports, protocol = _ports_for(fqdn, ROLE_PRIMARY)
            if gap:
                # Censys recovery requires HTTPS.
                ports, protocol = (443,), PROTO_TCP
            if unrecoverable:
                ports, protocol = (80,), PROTO_TCP
            if spec.platform is not None:
                registrant, registrant_kind = _PLATFORM_REGISTRANTS[
                    spec.platform
                ]
            else:
                registrant = catalog.product(
                    spec.member_products[0]
                ).manufacturer
                registrant_kind = "vendor"
            add_domain(
                DomainSpec(
                    fqdn=fqdn,
                    registrant=registrant,
                    registrant_kind=registrant_kind,
                    hosting=hosting,
                    ports=ports,
                    protocol=protocol,
                    role_hint=ROLE_PRIMARY,
                    rule_class=spec.name,
                    critical=index < spec.critical_domain_count,
                    dnsdb_gap=gap or unrecoverable,
                    https=not unrecoverable,
                )
            )
            if not unrecoverable:
                surviving.append(fqdn)
        rule_domains[spec.name] = tuple(surviving)
        critical_domains[spec.name] = tuple(
            surviving[: spec.critical_domain_count]
        )
        wild_behaviors[spec.name] = WildBehavior(
            diurnal=spec.name in _DIURNAL_CLASSES,
            active_use_prob=_ACTIVE_USE_PROBS.get(
                spec.name, _DEFAULT_ACTIVE_USE_PROB
            ),
        )
        del active_only_budget  # handled when building device usages

    # ---- auxiliary shared-hosted vendor domains ------------------------
    aux_by_manufacturer: Dict[str, List[str]] = {}
    for manufacturer, count in _AUX_DOMAIN_COUNTS.items():
        sld = _vendor_sld(manufacturer)
        fqdns = [f"cdn-assets{index:02d}.{sld}" for index in range(count)]
        for fqdn in fqdns:
            ports, protocol = _ports_for(fqdn, ROLE_PRIMARY)
            add_domain(
                DomainSpec(
                    fqdn=fqdn,
                    registrant=manufacturer,
                    registrant_kind="vendor",
                    hosting=HOSTING_CDN,
                    ports=ports,
                    protocol=protocol,
                    role_hint=ROLE_PRIMARY,
                )
            )
        aux_by_manufacturer[manufacturer] = fqdns

    # ---- excluded products' domains ------------------------------------
    excluded_domains: Dict[str, List[str]] = {}
    for product_name, (manufacturer, count, hosting) in (
        _EXCLUDED_PRODUCT_DOMAINS.items()
    ):
        sld = _vendor_sld(manufacturer)
        label = _slug(product_name)
        fqdns = [f"{label}-d{index}.{sld}" for index in range(count)]
        for index, fqdn in enumerate(fqdns):
            domain_hosting = hosting
            dnsdb_gap = False
            https = True
            if product_name == "LG TV" and index == count - 1:
                # LG's one dedicated domain is a minor, low-traffic one
                # ("we are left with only one out of 4 domains").
                domain_hosting = HOSTING_DEDICATED
            if product_name in ("WeMo Plug", "Wink 2"):
                # Dedicated but invisible to both DNSDB and Censys — the
                # paper's "could not identify sufficient information".
                dnsdb_gap = True
                https = False
            ports, protocol = _ports_for(fqdn, ROLE_PRIMARY)
            if not https:
                ports, protocol = (80,), PROTO_TCP
            add_domain(
                DomainSpec(
                    fqdn=fqdn,
                    registrant=manufacturer,
                    registrant_kind="vendor",
                    hosting=domain_hosting,
                    ports=ports,
                    protocol=protocol,
                    role_hint=ROLE_PRIMARY,
                    dnsdb_gap=dnsdb_gap,
                    https=https,
                )
            )
        excluded_domains[product_name] = fqdns

    # ---- support domains -------------------------------------------------
    support_by_product: Dict[str, List[str]] = {}
    for fqdn, registrant, product_name in _SUPPORT_DOMAINS:
        ports, protocol = _ports_for(fqdn, ROLE_SUPPORT)
        add_domain(
            DomainSpec(
                fqdn=fqdn,
                registrant=registrant,
                registrant_kind="third_party",
                hosting=HOSTING_DEDICATED,
                ports=ports,
                protocol=protocol,
                role_hint=ROLE_SUPPORT,
            )
        )
        support_by_product.setdefault(product_name, []).append(fqdn)

    # ---- generic domains -------------------------------------------------
    for fqdn in _GENERIC_NTP + _GENERIC_SERVICES:
        ports, protocol = _ports_for(fqdn, ROLE_GENERIC)
        add_domain(
            DomainSpec(
                fqdn=fqdn,
                registrant="GenericWeb",
                registrant_kind="generic",
                hosting=HOSTING_CDN,
                ports=ports,
                protocol=protocol,
                role_hint=ROLE_GENERIC,
            )
        )

    # ---- device profiles ---------------------------------------------------
    profiles: Dict[str, DeviceProfile] = {}
    for product in catalog.products:
        usages = _build_usages(
            product,
            catalog,
            rates,
            rule_domains,
            aux_by_manufacturer,
            excluded_domains,
            support_by_product,
        )
        profiles[product.name] = DeviceProfile(product, tuple(usages))

    return ProfileLibrary(
        catalog=catalog,
        domains=domains,
        profiles=profiles,
        rule_domains=rule_domains,
        critical_domains=critical_domains,
        wild_behaviors=wild_behaviors,
    )


def _select_subset(
    items: Sequence[str], fraction: float, salt: str
) -> List[str]:
    """Deterministically keep ~``fraction`` of ``items`` (always >= 1)."""
    kept = [
        item for item in items if _stable_unit(item, salt) < fraction
    ]
    if not kept and items:
        kept = [items[0]]
    return kept


def _build_usages(
    product: ProductSpec,
    catalog: DeviceCatalog,
    rates: _RateModel,
    rule_domains: Dict[str, Tuple[str, ...]],
    aux_by_manufacturer: Dict[str, List[str]],
    excluded_domains: Dict[str, List[str]],
    support_by_product: Dict[str, List[str]],
) -> List[DomainUsage]:
    usages: Dict[str, DomainUsage] = {}
    specs = sorted(
        catalog.classes_for_product(product.name),
        key=lambda spec: spec.rule_domains,
    )
    # How chatty this product is outside its rule domains.
    if specs:
        gossip_scale = min(
            1.5, max(spec.idle_rate_scale for spec in specs)
        )
    else:
        gossip_scale = _EXCLUDED_IDLE_SCALE.get(product.name, 0.6)

    def add(
        fqdn: str, idle: float, active: float, active_only: bool = False
    ) -> None:
        if fqdn in usages:
            return
        usages[fqdn] = DomainUsage(
            fqdn=fqdn,
            idle_pph=0.0 if active_only else idle,
            active_pph=active,
            active_only=active_only,
            bytes_per_packet=int(90 + 700 * _stable_unit(fqdn, "bpp")),
        )

    # Rule domains of every class the product belongs to.  The most
    # specific class drives which fraction of the parent's domains the
    # product contacts (e.g. Echo Dot touches ~2/3 of Amazon Product
    # domains; Fire TV touches all 67).
    contacted: Set[str] = set()
    for spec in specs:
        fqdns = rule_domains[spec.name]
        if spec.name == "Amazon Product" and product.name != "Fire TV":
            subset = [fqdns[0]] + _select_subset(
                fqdns[1:], 0.66, product.name
            )
        else:
            subset = list(fqdns)
        active_only_budget = _ACTIVE_ONLY_CLASSES.get(spec.name, 0)
        multiplier = rates.active_multiplier(spec.name)
        for index, fqdn in enumerate(subset):
            if fqdn in contacted:
                continue
            contacted.add(fqdn)
            is_anchor = index == 0
            idle = (
                rates.anchor(spec, fqdn)
                if is_anchor
                else rates.secondary(spec, fqdn)
            )
            active_only = (
                not is_anchor
                and active_only_budget > 0
                and index >= len(subset) - active_only_budget
            )
            add(
                fqdn,
                idle,
                idle * multiplier
                if not active_only
                else rates.ACTIVE_ONLY_PPH,
                active_only=active_only,
            )

    # Domains of excluded products.
    for index, fqdn in enumerate(excluded_domains.get(product.name, [])):
        idle = rates.auxiliary(fqdn) * gossip_scale * (
            6.0 if index == 0 else 2.0
        )
        add(fqdn, idle, idle * rates.GOSSIP_ACTIVE_MULTIPLIER)

    # Auxiliary shared vendor domains (gossip traffic).
    aux = aux_by_manufacturer.get(product.manufacturer, [])
    aux_subset = _select_subset(aux, 0.75, product.name) if aux else []
    for fqdn in aux_subset:
        idle = rates.auxiliary(fqdn) * gossip_scale
        add(fqdn, idle, idle * rates.GOSSIP_ACTIVE_MULTIPLIER)

    # Support domains.
    for fqdn in support_by_product.get(product.name, []):
        idle = rates.auxiliary(fqdn) * gossip_scale
        add(fqdn, idle, idle * rates.GOSSIP_ACTIVE_MULTIPLIER)

    # Generic traffic: an NTP pool plus a handful of generic services.
    ntp = _GENERIC_NTP[
        int(_stable_unit(product.name, "ntp") * len(_GENERIC_NTP))
    ]
    add(ntp, rates.generic(ntp) * gossip_scale, rates.generic(ntp) * 2)
    generic_count = 3 + int(_stable_unit(product.name, "gcount") * 8)
    start = int(
        _stable_unit(product.name, "gstart") * len(_GENERIC_SERVICES)
    )
    for offset in range(generic_count):
        fqdn = _GENERIC_SERVICES[(start + offset) % len(_GENERIC_SERVICES)]
        idle = rates.generic(fqdn) * gossip_scale
        add(fqdn, idle, idle * rates.GOSSIP_ACTIVE_MULTIPLIER)

    return list(usages.values())
