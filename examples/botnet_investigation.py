#!/usr/bin/env python
"""Security use-case (Section 7.2): which IoT device is behind an attack?

An ISP observes a set of subscriber lines emitting suspicious traffic
(say, participating in a Mirai-style botnet).  The paper suggests using
the detection methodology to find *which IoT products are common among
the suspicious lines*, so their owners can be notified or the botnet's
control traffic blocked.

We simulate that investigation: plant a vulnerable device class on a
set of "infected" lines, mix them into a larger population, run the
detector over everyone's sampled flows, and rank device classes by how
over-represented they are among the suspicious lines.

Run:  python examples/botnet_investigation.py
"""

from __future__ import annotations

import numpy as np

from repro.analysis.reporting import render_table
from repro.core.detector import FlowDetector, anonymize_subscriber
from repro.core.hitlist import build_hitlist
from repro.core.rules import generate_rules
from repro.devices.behavior import DeviceBehavior
from repro.scenario import build_default_scenario
from repro.timeutil import SECONDS_PER_HOUR, STUDY_START

VULNERABLE_PRODUCT = "Wansview Cam"  # the class behind the "attack"
INFECTED_LINES = 60
CLEAN_LINES = 400


def _simulate_line(
    detector, scenario, rng, resolver, subscriber, products
) -> None:
    """One day of sampled evidence for a subscriber's devices."""
    sampling = 100
    for product in products:
        behavior = DeviceBehavior(scenario.library.profile(product))
        for hour in range(24):
            when = STUDY_START + hour * SECONDS_PER_HOUR
            traffic = behavior.hour_traffic(rng, active=False)
            for fqdn, packets in traffic.packets.items():
                if rng.binomial(packets, 1.0 / sampling) == 0:
                    continue
                detector.observe_evidence(subscriber, fqdn, when + 30)


def main() -> None:
    scenario = build_default_scenario(seed=23)
    hitlist = build_hitlist(scenario)
    rules = generate_rules(scenario.catalog, hitlist)
    rng = np.random.default_rng(5)
    resolver = scenario.make_resolver(feed_dnsdb=False)

    detector = FlowDetector(rules, hitlist, threshold=0.4)

    # Population: infected lines all host the vulnerable camera (plus
    # whatever else); clean lines host random other devices.
    candidate_products = [
        product.name
        for product in scenario.catalog.products
        if product.detectable
    ]
    print(
        f"simulating {INFECTED_LINES} infected + {CLEAN_LINES} clean "
        "subscriber lines (one day, 1-in-100 sampling) ..."
    )
    suspicious = []
    for line in range(INFECTED_LINES):
        subscriber = 1_000 + line
        suspicious.append(anonymize_subscriber(subscriber))
        extra = list(
            rng.choice(candidate_products, size=2, replace=False)
        )
        _simulate_line(
            detector, scenario, rng, resolver, subscriber,
            [VULNERABLE_PRODUCT] + extra,
        )
    for line in range(CLEAN_LINES):
        subscriber = 10_000 + line
        products = list(
            rng.choice(candidate_products, size=2, replace=False)
        )
        _simulate_line(
            detector, scenario, rng, resolver, subscriber, products
        )

    # the whole simulated day's evidence: class -> lines it detected
    detected = {}
    for detection in detector.detections():
        detected.setdefault(detection.class_name, set()).add(
            detection.subscriber
        )
    suspicious_set = set(suspicious)

    rows = []
    for class_name, subscribers in detected.items():
        hits = len(subscribers & suspicious_set)
        if hits == 0:
            continue
        share_suspicious = hits / len(suspicious_set)
        share_clean = len(subscribers - suspicious_set) / CLEAN_LINES
        lift = share_suspicious / max(share_clean, 1e-6)
        rows.append(
            (
                class_name,
                hits,
                f"{share_suspicious:.0%}",
                f"{share_clean:.1%}",
                f"{min(lift, 999):.0f}x",
            )
        )
    rows.sort(key=lambda row: (-row[1], row[0]))
    print(
        render_table(
            (
                "detected class",
                "suspicious lines",
                "suspicious share",
                "clean share",
                "lift",
            ),
            rows[:8],
            title="classes common among suspicious subscriber lines",
        )
    )
    top = rows[0][0]
    print(
        f"\n-> the investigation points at {top!r} "
        f"(ground truth: {VULNERABLE_PRODUCT!r})."
    )
    print(
        "The ISP can now notify owners of that device or sinkhole its "
        "control-channel destinations (Section 7.2)."
    )


if __name__ == "__main__":
    main()
