"""Heavy-hitter visibility — Figure 6.

For each hour: rank the Home-VP service addresses by byte count, take
the top q fraction, and measure which share of them also appears in the
sampled ISP-VP data.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Iterable, List, Sequence, Set, Tuple

from repro.timeutil import STUDY_START, hour_index

__all__ = ["heavy_hitter_visibility"]


def heavy_hitter_visibility(
    home_events,
    isp_events,
    top_fractions: Sequence[float] = (0.1, 0.2, 0.3),
    origin: int = STUDY_START,
) -> Dict[float, Dict[int, float]]:
    """Per-hour visibility of the top-bytes service addresses.

    Returns ``{fraction: {hour_bucket: visible_share}}``.  Events need
    ``timestamp``, ``dst_ip`` and ``bytes`` attributes (the ground-truth
    event type).
    """
    home_bytes: Dict[int, Dict[int, int]] = defaultdict(
        lambda: defaultdict(int)
    )
    for event in home_events:
        bucket = hour_index(event.timestamp, origin)
        home_bytes[bucket][event.dst_ip] += event.bytes
    isp_seen: Dict[int, Set[int]] = defaultdict(set)
    for event in isp_events:
        bucket = hour_index(event.timestamp, origin)
        isp_seen[bucket].add(event.dst_ip)

    result: Dict[float, Dict[int, float]] = {
        fraction: {} for fraction in top_fractions
    }
    for bucket, by_address in home_bytes.items():
        ranked = sorted(
            by_address, key=lambda address: by_address[address],
            reverse=True,
        )
        visible = isp_seen.get(bucket, set())
        for fraction in top_fractions:
            top_count = max(1, int(len(ranked) * fraction))
            top = ranked[:top_count]
            result[fraction][bucket] = sum(
                1 for address in top if address in visible
            ) / top_count
    return result
