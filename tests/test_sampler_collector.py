"""Tests for packet sampling and the flow collector."""

import pytest

from repro.netflow.collector import FlowCollector
from repro.netflow.records import PacketRecord, PROTO_TCP
from repro.netflow.sampler import PacketSampler


def _packet(ts=0, src=1, dst=2, sport=1000, dport=443, size=100):
    return PacketRecord(ts, src, dst, PROTO_TCP, sport, dport, size)


class TestPacketSampler:
    def test_interval_one_keeps_everything(self):
        sampler = PacketSampler(1)
        assert all(sampler.sample(_packet(ts)) for ts in range(100))
        assert sampler.observed_rate == 1.0

    def test_deterministic_mode_exact_rate(self):
        sampler = PacketSampler(10, mode="deterministic", seed=3)
        kept = sum(sampler.sample(_packet(ts)) for ts in range(1000))
        assert kept == 100

    def test_random_mode_statistical_rate(self):
        sampler = PacketSampler(10, mode="random", seed=3)
        kept = sum(sampler.sample(_packet(ts)) for ts in range(20000))
        assert 1700 <= kept <= 2300  # ±15% of 2000

    def test_rejects_bad_interval(self):
        with pytest.raises(ValueError):
            PacketSampler(0)

    def test_rejects_bad_mode(self):
        with pytest.raises(ValueError):
            PacketSampler(10, mode="weird")

    def test_filter_yields_sampled_subset(self):
        sampler = PacketSampler(5, mode="deterministic", seed=0)
        packets = [_packet(ts) for ts in range(50)]
        kept = list(sampler.filter(packets))
        assert len(kept) == 10

    def test_same_seed_same_decisions(self):
        a = PacketSampler(7, seed=42)
        b = PacketSampler(7, seed=42)
        packets = [_packet(ts) for ts in range(500)]
        assert [a.sample(p) for p in packets] == [
            b.sample(p) for p in packets
        ]

    def test_observed_rate_empty(self):
        assert PacketSampler(5).observed_rate == 0.0


class TestFlowCollector:
    def test_aggregates_same_key(self):
        collector = FlowCollector()
        collector.observe(_packet(ts=0))
        collector.observe(_packet(ts=1))
        collector.flush()
        flows = collector.drain()
        assert len(flows) == 1
        assert flows[0].packets == 2
        assert flows[0].bytes == 200

    def test_separate_keys_separate_flows(self):
        collector = FlowCollector()
        collector.observe(_packet(ts=0, dport=443))
        collector.observe(_packet(ts=0, dport=80))
        collector.flush()
        assert len(collector.drain()) == 2

    def test_inactive_timeout_exports(self):
        collector = FlowCollector(inactive_timeout=15)
        collector.observe(_packet(ts=0))
        collector.observe(_packet(ts=100))  # 100s later: first expires
        assert collector.exported_flows == 1
        collector.flush()
        assert len(collector.drain()) == 2

    def test_active_timeout_exports_long_flows(self):
        collector = FlowCollector(active_timeout=120, inactive_timeout=1000)
        for ts in range(0, 200, 10):
            collector.observe(_packet(ts=ts))
        assert collector.exported_flows >= 1

    def test_flush_with_now_expires_first(self):
        collector = FlowCollector(inactive_timeout=15)
        collector.observe(_packet(ts=0))
        collector.flush(now=1000)
        flows = collector.drain()
        assert len(flows) == 1

    def test_drain_clears(self):
        collector = FlowCollector()
        collector.observe(_packet())
        collector.flush()
        assert collector.drain()
        assert collector.drain() == []

    def test_rejects_bad_timeouts(self):
        with pytest.raises(ValueError):
            FlowCollector(active_timeout=0)

    def test_flags_accumulate(self):
        from repro.netflow.records import TCP_ACK, TCP_SYN

        collector = FlowCollector()
        collector.observe(
            PacketRecord(0, 1, 2, PROTO_TCP, 1000, 443, tcp_flags=TCP_SYN)
        )
        collector.observe(
            PacketRecord(1, 1, 2, PROTO_TCP, 1000, 443, tcp_flags=TCP_ACK)
        )
        collector.flush()
        flow = collector.drain()[0]
        assert flow.tcp_flags == TCP_SYN | TCP_ACK

    def test_observe_all(self):
        collector = FlowCollector()
        collector.observe_all(_packet(ts=i) for i in range(5))
        collector.flush()
        assert collector.drain()[0].packets == 5
