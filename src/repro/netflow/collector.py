"""Flow cache / collector.

Models the router-side flow cache: sampled packets are aggregated per
5-tuple; a flow record is expired (exported) when it has been idle for
``inactive_timeout`` seconds, has been open for ``active_timeout``
seconds, or the cache is flushed.  The exported records are what the
ISP-VP and IXP-VP analyses consume.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional

from repro.netflow.records import FlowKey, FlowRecord, PacketRecord

__all__ = ["FlowCollector"]


class FlowCollector:
    """Aggregates sampled packets into exported flow records."""

    def __init__(
        self,
        sampling_interval: int = 1,
        active_timeout: int = 120,
        inactive_timeout: int = 15,
    ) -> None:
        if active_timeout <= 0 or inactive_timeout <= 0:
            raise ValueError("timeouts must be positive")
        self.sampling_interval = sampling_interval
        self.active_timeout = active_timeout
        self.inactive_timeout = inactive_timeout
        self._cache: Dict[FlowKey, FlowRecord] = {}
        self._exported: List[FlowRecord] = []
        self._last_expiry_scan: Optional[int] = None

    def observe(self, packet: PacketRecord) -> None:
        """Fold one *already sampled* packet into the cache."""
        self._expire(packet.timestamp)
        key = FlowKey.of(packet)
        record = self._cache.get(key)
        if record is None:
            self._cache[key] = FlowRecord(
                key=key,
                first_switched=packet.timestamp,
                last_switched=packet.timestamp,
                packets=1,
                bytes=packet.size,
                tcp_flags=packet.tcp_flags,
                sampling_interval=self.sampling_interval,
            )
            return
        record.last_switched = packet.timestamp
        record.packets += 1
        record.bytes += packet.size
        record.tcp_flags |= packet.tcp_flags

    def observe_all(self, packets: Iterable[PacketRecord]) -> None:
        for packet in packets:
            self.observe(packet)

    def _expire(self, now: int) -> None:
        """Export cache entries that have timed out by ``now``.

        Scans at most once per second of simulated time so per-packet
        observation stays O(1) amortised.
        """
        if (
            self._last_expiry_scan is not None
            and now <= self._last_expiry_scan
        ):
            return
        self._last_expiry_scan = now
        expired = [
            key
            for key, record in self._cache.items()
            if now - record.last_switched > self.inactive_timeout
            or now - record.first_switched > self.active_timeout
        ]
        for key in expired:
            self._exported.append(self._cache.pop(key))

    def flush(self, now: Optional[int] = None) -> None:
        """Export everything still cached (end of capture)."""
        if now is not None:
            self._expire(now)
        self._exported.extend(self._cache.values())
        self._cache.clear()

    def drain(self) -> List[FlowRecord]:
        """Return and clear the exported records."""
        exported, self._exported = self._exported, []
        return exported

    @property
    def exported_flows(self) -> int:
        return len(self._exported)
