"""Figure 17 — per-hour packet counts of a single Alexa Enabled device
at the Home-VP and the ISP-VP, in active and idle modes (§7.1)."""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, Optional

from repro.analysis.reporting import render_series, render_table
from repro.experiments.context import ExperimentContext
from repro.timeutil import hour_index

__all__ = ["Fig17Result", "run", "render"]

_ACTIVE_HOURS = 96


@dataclass
class Fig17Result:
    device: str
    home_per_hour: Dict[int, int]
    isp_per_hour: Dict[int, int]

    def _peak(self, counts: Dict[int, int], active: bool) -> int:
        values = [
            count
            for hour, count in counts.items()
            if (hour < _ACTIVE_HOURS) == active
        ]
        return max(values, default=0)

    @property
    def home_active_peak(self) -> int:
        return self._peak(self.home_per_hour, True)

    @property
    def home_idle_peak(self) -> int:
        return self._peak(self.home_per_hour, False)

    @property
    def isp_active_peak(self) -> int:
        return self._peak(self.isp_per_hour, True)

    @property
    def isp_idle_peak(self) -> int:
        return self._peak(self.isp_per_hour, False)


def run(
    context: ExperimentContext, product: str = "Echo Dot"
) -> Fig17Result:
    capture = context.capture
    # One physical device: the first instance of the product.
    device_id: Optional[int] = None
    for instance in context.schedule.all_instances():
        if instance.product_name == product:
            device_id = instance.device_id
            break
    if device_id is None:
        raise ValueError(f"no instance of {product!r} in the testbeds")
    home: Dict[int, int] = defaultdict(int)
    isp: Dict[int, int] = defaultdict(int)
    for event in capture.home_events:
        if event.device_id == device_id:
            hour = hour_index(event.timestamp)
            home[hour] += event.packets
    for event in capture.isp_events:
        if event.device_id == device_id:
            hour = hour_index(event.timestamp)
            isp[hour] += event.packets
    return Fig17Result(
        device=product, home_per_hour=dict(home), isp_per_hour=dict(isp)
    )


def render(result: Fig17Result) -> str:
    lines = [
        f"Figure 17: packet counts per hour for one {result.device} "
        "(Home-VP vs ISP-VP)"
    ]
    lines.append(
        render_series(
            "Home-VP packets/hour", sorted(result.home_per_hour.items())
        )
    )
    lines.append(
        render_series(
            "ISP-VP sampled packets/hour",
            sorted(result.isp_per_hour.items()),
        )
    )
    lines.append(
        render_table(
            ("metric", "measured", "paper"),
            [
                (
                    "Home-VP active peak",
                    result.home_active_peak,
                    ">1k packets/hour on activity",
                ),
                (
                    "Home-VP idle peak",
                    result.home_idle_peak,
                    "never reaches the active range",
                ),
                (
                    "ISP-VP active peak",
                    result.isp_active_peak,
                    ">10 sampled packets/hour",
                ),
                (
                    "ISP-VP idle peak",
                    result.isp_idle_peak,
                    "stays at/below ~10",
                ),
            ],
            title="activity separability",
        )
    )
    return "\n".join(lines)
