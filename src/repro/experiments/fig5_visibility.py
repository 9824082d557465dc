"""Figure 5 + the Section 3 headline visibility statistics.

Four panels, all Home-VP vs ISP-VP over the ground-truth capture:
(a) unique service IPs per hour, (b) unique domains per hour,
(c) cumulative service IPs per port class (web / NTP / other),
(d) unique devices per hour.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, List, Set, Tuple

from repro.analysis.reporting import render_series, render_table
from repro.experiments.context import ExperimentContext
from repro.netflow.records import classify_port
from repro.timeutil import hour_index

__all__ = ["VisibilityResult", "run", "render"]

_ACTIVE_HOURS = 96  # Nov 15-18


@dataclass
class VisibilityResult:
    home_ips_per_hour: Dict[int, int]
    isp_ips_per_hour: Dict[int, int]
    home_domains_per_hour: Dict[int, int]
    isp_domains_per_hour: Dict[int, int]
    home_devices_per_hour: Dict[int, int]
    isp_devices_per_hour: Dict[int, int]
    cumulative_by_port: Dict[Tuple[str, str], List[Tuple[int, int]]]
    ip_visibility_active: float
    ip_visibility_idle: float
    device_visibility_active: float
    device_visibility_idle: float
    whole_period_ip_visibility_active: float
    whole_period_ip_visibility_idle: float


def _per_hour_sets(events, attribute: str) -> Dict[int, Set]:
    buckets: Dict[int, Set] = defaultdict(set)
    for event in events:
        bucket = hour_index(event.timestamp)
        buckets[bucket].add(getattr(event, attribute))
    return buckets


def _counts(buckets: Dict[int, Set]) -> Dict[int, int]:
    return {bucket: len(values) for bucket, values in buckets.items()}


def _mean_ratio(
    home: Dict[int, Set], isp: Dict[int, Set], hours
) -> float:
    ratios = [
        len(isp.get(hour, set())) / len(home[hour])
        for hour in hours
        if home.get(hour)
    ]
    if not ratios:
        return 0.0
    return sum(ratios) / len(ratios)


def run(context: ExperimentContext) -> VisibilityResult:
    capture = context.capture
    home_ips = _per_hour_sets(capture.home_events, "dst_ip")
    isp_ips = _per_hour_sets(capture.isp_events, "dst_ip")
    home_domains = _per_hour_sets(capture.home_events, "fqdn")
    isp_domains = _per_hour_sets(capture.isp_events, "fqdn")
    home_devices = _per_hour_sets(capture.home_events, "device_id")
    isp_devices = _per_hour_sets(capture.isp_events, "device_id")

    hours = sorted(home_ips)
    active_hours = [hour for hour in hours if hour < _ACTIVE_HOURS]
    idle_hours = [hour for hour in hours if hour >= _ACTIVE_HOURS]

    # Figure 5(c): cumulative service IPs per port class at both VPs.
    cumulative: Dict[Tuple[str, str], List[Tuple[int, int]]] = {}
    for vantage, events in (
        ("Home-VP", capture.home_events),
        ("ISP-VP", capture.isp_events),
    ):
        by_class: Dict[str, Set[int]] = defaultdict(set)
        series: Dict[str, List[Tuple[int, int]]] = defaultdict(list)
        for_hour: Dict[int, List] = defaultdict(list)
        for event in events:
            bucket = hour_index(event.timestamp)
            for_hour[bucket].append(event)
        for hour in sorted(for_hour):
            for event in for_hour[hour]:
                by_class[classify_port(event.dst_port)].add(event.dst_ip)
            for port_class in ("web", "ntp", "other"):
                series[port_class].append(
                    (hour, len(by_class[port_class]))
                )
        for port_class, points in series.items():
            cumulative[(vantage, port_class)] = points

    def whole_period(mode_filter: str) -> float:
        home_all = {
            event.dst_ip
            for event in capture.home_events
            if event.mode == mode_filter
        }
        isp_all = {
            event.dst_ip
            for event in capture.isp_events
            if event.mode == mode_filter
        }
        if not home_all:
            return 0.0
        return len(isp_all & home_all) / len(home_all)

    return VisibilityResult(
        home_ips_per_hour=_counts(home_ips),
        isp_ips_per_hour=_counts(isp_ips),
        home_domains_per_hour=_counts(home_domains),
        isp_domains_per_hour=_counts(isp_domains),
        home_devices_per_hour=_counts(home_devices),
        isp_devices_per_hour=_counts(isp_devices),
        cumulative_by_port=cumulative,
        ip_visibility_active=_mean_ratio(home_ips, isp_ips, active_hours),
        ip_visibility_idle=_mean_ratio(home_ips, isp_ips, idle_hours),
        device_visibility_active=_mean_ratio(
            home_devices, isp_devices, active_hours
        ),
        device_visibility_idle=_mean_ratio(
            home_devices, isp_devices, idle_hours
        ),
        whole_period_ip_visibility_active=whole_period("active"),
        whole_period_ip_visibility_idle=whole_period("idle"),
    )


def render(result: VisibilityResult) -> str:
    lines = ["Figure 5: Home-VP vs ISP-VP visibility"]
    lines.append(
        render_series(
            "5(a) Home-VP unique service IPs/hour",
            sorted(result.home_ips_per_hour.items()),
        )
    )
    lines.append(
        render_series(
            "5(a) ISP-VP unique service IPs/hour",
            sorted(result.isp_ips_per_hour.items()),
        )
    )
    lines.append(
        render_series(
            "5(b) Home-VP unique domains/hour",
            sorted(result.home_domains_per_hour.items()),
        )
    )
    lines.append(
        render_series(
            "5(b) ISP-VP unique domains/hour",
            sorted(result.isp_domains_per_hour.items()),
        )
    )
    for (vantage, port_class), points in sorted(
        result.cumulative_by_port.items()
    ):
        lines.append(
            render_series(
                f"5(c) {vantage} cumulative {port_class} IPs", points
            )
        )
    lines.append(
        render_series(
            "5(d) Home-VP unique devices/hour",
            sorted(result.home_devices_per_hour.items()),
        )
    )
    lines.append(
        render_series(
            "5(d) ISP-VP unique devices/hour",
            sorted(result.isp_devices_per_hour.items()),
        )
    )
    lines.append(
        render_table(
            ("metric", "measured", "paper"),
            [
                (
                    "hourly service-IP visibility (active)",
                    f"{result.ip_visibility_active:.1%}",
                    "16%",
                ),
                (
                    "hourly service-IP visibility (idle)",
                    f"{result.ip_visibility_idle:.1%}",
                    "16.5%",
                ),
                (
                    "whole-period IP visibility (active)",
                    f"{result.whole_period_ip_visibility_active:.1%}",
                    "28%",
                ),
                (
                    "whole-period IP visibility (idle)",
                    f"{result.whole_period_ip_visibility_idle:.1%}",
                    "34%",
                ),
                (
                    "device visibility/hour (active)",
                    f"{result.device_visibility_active:.0%}",
                    "67%",
                ),
                (
                    "device visibility/hour (idle)",
                    f"{result.device_visibility_idle:.0%}",
                    "64%",
                ),
            ],
            title="Section 3 headline statistics",
        )
    )
    return "\n".join(lines)
