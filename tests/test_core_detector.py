"""Tests for flow-level detection."""

import math

from hypothesis import given, settings, strategies as st

from repro.core.detector import (
    FlowDetector,
    SubscriberProgress,
    anonymize_subscriber,
)
from repro.core.rules import DetectionRule, RuleSet
from repro.ixp.fabric import make_spoofed_flows
from repro.netflow.records import (
    FlowKey,
    FlowRecord,
    PROTO_TCP,
    TCP_ACK,
    TCP_SYN,
)
from repro.timeutil import STUDY_START


def _flow_to(hitlist, fqdn, when, flags=TCP_ACK, day=0):
    port = hitlist.domain_ports[fqdn][0]
    endpoints = hitlist.endpoints_for_day(day)
    address = next(
        addr
        for (addr, p), name in endpoints.items()
        if name == fqdn and p == port
    )
    return FlowRecord(
        key=FlowKey(0x12345678, address, PROTO_TCP, 50000, port),
        first_switched=when,
        last_switched=when + 10,
        packets=1,
        bytes=100,
        tcp_flags=flags,
    )


class TestAnonymization:
    def test_stable(self):
        assert anonymize_subscriber(42) == anonymize_subscriber(42)

    def test_distinct(self):
        assert anonymize_subscriber(1) != anonymize_subscriber(2)

    def test_salted(self):
        assert anonymize_subscriber(1, "a") != anonymize_subscriber(1, "b")

    def test_raw_identifier_not_in_output(self):
        assert "424242" not in anonymize_subscriber(424242)


class TestFlowDetector:
    def test_single_domain_class_detects_from_one_flow(
        self, rules, hitlist
    ):
        fqdn = rules.rule("Netatmo Weather St.").domains[0]
        detector = FlowDetector(rules, hitlist, threshold=0.4)
        matched = detector.observe_flow(
            7, _flow_to(hitlist, fqdn, STUDY_START + 100)
        )
        assert matched == fqdn
        detections = detector.detections()
        assert any(
            d.class_name == "Netatmo Weather St." for d in detections
        )

    def test_unknown_endpoint_ignored(self, rules, hitlist):
        detector = FlowDetector(rules, hitlist)
        flow = FlowRecord(
            key=FlowKey(1, 2, PROTO_TCP, 50000, 443),
            first_switched=STUDY_START,
            last_switched=STUDY_START,
            packets=1,
            bytes=100,
            tcp_flags=TCP_ACK,
        )
        assert detector.observe_flow(7, flow) is None
        assert detector.detections() == []

    def test_multi_domain_class_needs_enough_evidence(
        self, rules, hitlist
    ):
        rule = rules.rule("Samsung IoT")
        needed = rule.required_domains(0.4)
        detector = FlowDetector(rules, hitlist, threshold=0.4)
        # Feed one domain short of the requirement (always incl. critical).
        fqdns = list(rule.critical) + [
            f for f in rule.domains if f not in rule.critical
        ]
        for index, fqdn in enumerate(fqdns[: needed - 1]):
            detector.observe_flow(
                7, _flow_to(hitlist, fqdn, STUDY_START + index)
            )
        assert not any(
            d.class_name == "Samsung IoT" for d in detector.detections()
        )
        detector.observe_flow(
            7, _flow_to(hitlist, fqdns[needed - 1], STUDY_START + 99)
        )
        assert any(
            d.class_name == "Samsung IoT" for d in detector.detections()
        )

    def test_critical_domain_gates_detection(self, rules, hitlist):
        rule = rules.rule("Samsung IoT")
        non_critical = [
            f for f in rule.domains if f not in rule.critical
        ]
        detector = FlowDetector(rules, hitlist, threshold=0.4)
        for index, fqdn in enumerate(non_critical):
            detector.observe_flow(
                7, _flow_to(hitlist, fqdn, STUDY_START + index)
            )
        assert not any(
            d.class_name == "Samsung IoT" for d in detector.detections()
        )

    def test_detection_time_is_when_rule_completes(self, rules, hitlist):
        rule = rules.rule("Smartthings Dev.")  # 2 domains
        detector = FlowDetector(rules, hitlist, threshold=1.0)
        detector.observe_flow(
            7, _flow_to(hitlist, rule.domains[0], STUDY_START + 10)
        )
        detector.observe_flow(
            7, _flow_to(hitlist, rule.domains[1], STUDY_START + 500)
        )
        detection = next(
            d
            for d in detector.detections()
            if d.class_name == "Smartthings Dev."
        )
        assert detection.detected_at == STUDY_START + 500

    def test_hierarchy_gates_child(self, rules, hitlist):
        detector = FlowDetector(rules, hitlist, threshold=0.4)
        firetv = rules.rule("Fire TV")
        for index, fqdn in enumerate(firetv.domains):
            detector.observe_flow(
                7, _flow_to(hitlist, fqdn, STUDY_START + index)
            )
        names = {d.class_name for d in detector.detections()}
        assert "Fire TV" not in names  # parents unsatisfied

    def test_spoofing_filter(self, rules, hitlist):
        detector = FlowDetector(
            rules, hitlist, threshold=0.4, require_established=True
        )
        for flow in make_spoofed_flows(hitlist, 200):
            detector.observe_flow(flow.src_ip, flow)
        assert detector.detections() == []
        assert detector.flows_rejected_spoof == 200

    def test_established_flows_pass_filter(self, rules, hitlist):
        fqdn = rules.rule("Netatmo Weather St.").domains[0]
        detector = FlowDetector(
            rules, hitlist, threshold=0.4, require_established=True
        )
        detector.observe_flow(
            7, _flow_to(hitlist, fqdn, STUDY_START, flags=TCP_ACK)
        )
        assert detector.detections()

    def test_subscribers_kept_separate(self, rules, hitlist):
        fqdn = rules.rule("Netatmo Weather St.").domains[0]
        detector = FlowDetector(rules, hitlist, threshold=0.4)
        detector.observe_flow(1, _flow_to(hitlist, fqdn, STUDY_START))
        detector.observe_flow(2, _flow_to(hitlist, fqdn, STUDY_START))
        subscribers = {
            d.subscriber
            for d in detector.detections()
            if d.class_name == "Netatmo Weather St."
        }
        assert len(subscribers) == 2


class TestObserveFlowCounters:
    """Regression pins for the observe_flow accounting: every flow lands in exactly one of seen/rejected buckets
    and matched counts only hitlist hits that survived the filter."""

    def _unknown_flow(self, when, flags=TCP_ACK, protocol=PROTO_TCP):
        return FlowRecord(
            key=FlowKey(0x12345678, 0x0BADF00D, protocol, 50000, 9999),
            first_switched=when,
            last_switched=when + 10,
            packets=1,
            bytes=100,
            tcp_flags=flags,
        )

    def _crafted_sequence(self, rules, hitlist):
        """(flow, expect_rejected, expect_matched) triples."""
        fqdn = rules.rule("Netatmo Weather St.").domains[0]
        t = STUDY_START + 100
        return [
            # established TCP to a hitlist endpoint: matched
            (_flow_to(hitlist, fqdn, t), False, True),
            # spoofed SYN-only TCP to the same endpoint: rejected
            (_flow_to(hitlist, fqdn, t + 1, flags=TCP_SYN), True, False),
            # SYN+ACK still carries the SYN bit: rejected as spoofable
            (
                _flow_to(hitlist, fqdn, t + 2, flags=TCP_SYN | TCP_ACK),
                True,
                False,
            ),
            # established TCP to an unknown endpoint: seen, unmatched
            (self._unknown_flow(t + 3), False, False),
            # SYN-only to an unknown endpoint: rejected before lookup
            (self._unknown_flow(t + 4, flags=TCP_SYN), True, False),
            # UDP never trips the TCP handshake filter
            (self._unknown_flow(t + 5, flags=0, protocol=17), False, False),
            # repeat evidence still counts as a match
            (_flow_to(hitlist, fqdn, t + 6), False, True),
        ]

    def test_counters_on_crafted_sequence(self, rules, hitlist):
        detector = FlowDetector(rules, hitlist, require_established=True)
        sequence = self._crafted_sequence(rules, hitlist)
        for flow, _rejected, _matched in sequence:
            detector.observe_flow(31337, flow)
        assert detector.flows_seen == len(sequence)
        assert detector.flows_rejected_spoof == sum(
            1 for _, rejected, _ in sequence if rejected
        )
        assert detector.flows_matched == sum(
            1 for _, _, matched in sequence if matched
        )
        # every flow is either counted as spoof-rejected or eligible;
        # matches are a subset of the eligible ones
        assert (
            detector.flows_matched
            <= detector.flows_seen - detector.flows_rejected_spoof
        )

    def test_filter_off_rejects_nothing(self, rules, hitlist):
        detector = FlowDetector(rules, hitlist)
        for flow, _, _ in self._crafted_sequence(rules, hitlist):
            detector.observe_flow(31337, flow)
        assert detector.flows_rejected_spoof == 0
        # with the filter off, the spoofed flows to hitlist endpoints
        # count as matches — the exposure the IXP filter exists to cut
        assert detector.flows_matched == 4

    def test_stream_engine_shares_counter_semantics(
        self, rules, hitlist
    ):
        """The streaming engine's spoof/match accounting must agree
        with FlowDetector's on the same crafted sequence."""
        from repro.netflow.parse import chunks_from_records
        from repro.stream import StreamConfig, StreamDetectionEngine

        sequence = self._crafted_sequence(rules, hitlist)
        detector = FlowDetector(rules, hitlist, require_established=True)
        for flow, _, _ in sequence:
            detector.observe_flow(flow.src_ip, flow)
        engine = StreamDetectionEngine(
            rules, hitlist, StreamConfig(require_established=True)
        )
        engine.process_chunks(
            chunks_from_records(f for f, _, _ in sequence)
        )
        assert engine.metrics.records_processed == detector.flows_seen
        assert engine.metrics.flows_matched == detector.flows_matched
        assert (
            engine.metrics.flows_rejected_spoof
            == detector.flows_rejected_spoof
        )


# -- the compiled evaluator against the loop it replaced ------------------

_POOL = tuple(f"d{i}.example" for i in range(10))


@st.composite
def _rule_sets(draw):
    """Up to six rules over a shared ten-domain pool: shared domains,
    critical domains, hierarchy depth <= 3."""
    rules, depth = [], {}
    for index in range(draw(st.integers(1, 6))):
        domains = draw(
            st.lists(st.sampled_from(_POOL), min_size=1, max_size=6,
                     unique=True)
        )
        critical = draw(
            st.lists(st.sampled_from(domains), max_size=2, unique=True)
        )
        parents = [None] + [n for n, d in depth.items() if d < 3]
        parent = draw(st.sampled_from(parents))
        name = f"class-{index}"
        depth[name] = 1 if parent is None else depth[parent] + 1
        rules.append(
            DetectionRule(name, "Product", tuple(domains),
                          tuple(critical), parent)
        )
    return RuleSet(draw(st.permutations(rules)))


def _reference_observe(progress, rules, threshold, fqdn, when):
    """``SubscriberProgress.observe`` as it was before the rule set
    compiled a domain index: walk every rule, count every domain."""
    previous = progress.first_seen.get(fqdn)
    if previous is not None:
        progress.first_seen[fqdn] = min(previous, when)
        return []
    seen = progress.first_seen
    seen[fqdn] = when
    for rule in rules:
        if rule.class_name in progress.satisfied_at:
            continue
        if fqdn not in rule.domains:
            continue
        needed = max(1, math.floor(threshold * len(rule.domains)))
        if all(c in seen for c in rule.critical) and (
            sum(1 for d in rule.domains if d in seen) >= needed
        ):
            progress.satisfied_at[rule.class_name] = when
    return progress._completed_chains(rules)


class TestCompiledEvaluator:
    @settings(max_examples=200, deadline=None)
    @given(
        rules=_rule_sets(),
        threshold=st.one_of(
            st.sampled_from([0.1, 0.4, 0.5, 1.0]),
            st.floats(0.01, 1.0),
        ),
        evidence=st.lists(
            st.tuples(
                st.sampled_from(_POOL + ("unmonitored.example",)),
                st.integers(0, 50),
            ),
            max_size=30,
        ),
    )
    def test_observe_equals_the_rule_walk(self, rules, threshold, evidence):
        progress, reference = SubscriberProgress(), SubscriberProgress()
        reported = set()
        for fqdn, when in evidence:
            events = progress.observe(rules, threshold, fqdn, when)
            assert events == _reference_observe(
                reference, rules, threshold, fqdn, when
            )
            reported.update(name for name, _ in events)
            assert reported == rules.detected_classes(
                set(progress.first_seen), threshold
            )
        assert progress.first_seen == reference.first_seen
        assert list(progress.satisfied_at.items()) == list(
            reference.satisfied_at.items()
        )

    def test_index_lists_rules_in_rule_set_order(self):
        names = ["zed", "alpha", "mid"]
        rules = RuleSet(
            DetectionRule(
                name, "Product", ("shared.example", f"{name}.example")
            )
            for name in names
        )
        assert [
            rule.class_name for rule in rules.monitoring("shared.example")
        ] == names
        assert rules.monitoring("nobody.example") == ()

    def test_fold_never_walks_the_rule_set(
        self, rules, hitlist, tmp_path, monkeypatch
    ):
        """Complexity guard on the perf ledger's dense chunks at
        ``--quick`` size: a matched row asks only the rules monitoring
        its domain, and nothing iterates the whole rule set per row."""
        from benchmarks.perf import QUICK_SCALE, corpus
        from repro.core.serialization import hitlist_to_json
        from repro.netflow.parse import FlowChunk
        from repro.stream import StreamConfig, StreamDetectionEngine

        (tmp_path / "hitlist.json").write_text(hitlist_to_json(hitlist))
        columns, manifest = corpus.make_columns(
            "chunks", 12, QUICK_SCALE, corpus.load_endpoints(tmp_path)
        )
        chunk = FlowChunk(
            0, *(columns[name] for name in corpus.CHUNK_COLUMNS)
        )
        calls = {"satisfied": 0, "walks": 0, "new_evidence": 0}
        satisfied = DetectionRule.satisfied
        observe = SubscriberProgress.observe

        def counting_satisfied(rule, seen, threshold):
            calls["satisfied"] += 1
            return satisfied(rule, seen, threshold)

        def counting_observe(progress, rule_set, threshold, fqdn, when):
            calls["new_evidence"] += fqdn not in progress.first_seen
            return observe(progress, rule_set, threshold, fqdn, when)

        def counting_iter(rule_set):
            calls["walks"] += 1
            return iter(rule_set._rules.values())

        monkeypatch.setattr(DetectionRule, "satisfied", counting_satisfied)
        monkeypatch.setattr(SubscriberProgress, "observe", counting_observe)
        monkeypatch.setattr(RuleSet, "__iter__", counting_iter)
        engine = StreamDetectionEngine(
            rules, hitlist, StreamConfig(max_subscribers=1 << 10)
        )
        engine.process_chunks([chunk])
        per_domain = max(
            len(rules.monitoring(fqdn)) for fqdn in rules.monitored_domains()
        )
        assert engine.metrics.flows_matched == manifest["planted"] > 0
        assert engine.metrics.events_emitted > 0
        assert 0 < calls["new_evidence"] <= manifest["planted"]
        assert calls["satisfied"] <= calls["new_evidence"] * per_domain
        assert calls["walks"] == 0
