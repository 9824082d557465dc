"""Tests for detection rules and the rule set."""

import math

import pytest
from hypothesis import given, strategies as st

from repro.core.rules import DetectionRule, RuleSet, generate_rules
from repro.devices.catalog import LEVEL_PRODUCT


def _rule(name="C", domains=("a", "b", "c", "d", "e"), critical=(),
          parent=None):
    return DetectionRule(
        class_name=name,
        level=LEVEL_PRODUCT,
        domains=tuple(domains),
        critical=tuple(critical),
        parent=parent,
    )


class TestRequiredDomains:
    def test_paper_formula(self):
        rule = _rule(domains=tuple(f"d{i}" for i in range(10)))
        assert rule.required_domains(0.1) == 1
        assert rule.required_domains(0.4) == 4
        assert rule.required_domains(1.0) == 10

    def test_floor_never_below_one(self):
        rule = _rule(domains=("only",))
        for threshold in (0.1, 0.5, 1.0):
            assert rule.required_domains(threshold) == 1

    def test_rejects_out_of_range(self):
        rule = _rule()
        for bad in (0.0, -0.1, 1.5):
            with pytest.raises(ValueError):
                rule.required_domains(bad)

    @given(
        st.integers(min_value=1, max_value=100),
        st.floats(min_value=0.01, max_value=1.0),
    )
    def test_matches_floor_formula(self, n, threshold):
        rule = _rule(domains=tuple(f"d{i}" for i in range(n)))
        assert rule.required_domains(threshold) == max(
            1, math.floor(threshold * n)
        )

    @given(st.integers(min_value=1, max_value=60))
    def test_monotone_in_threshold(self, n):
        rule = _rule(domains=tuple(f"d{i}" for i in range(n)))
        previous = 0
        for step in range(1, 11):
            needed = rule.required_domains(step / 10)
            assert needed >= previous
            previous = needed


class TestSatisfied:
    def test_counts_only_rule_domains(self):
        rule = _rule()
        assert rule.satisfied({"a", "b", "x", "y"}, 0.4)
        assert not rule.satisfied({"x", "y", "z"}, 0.4)

    def test_critical_domain_required_at_any_threshold(self):
        rule = _rule(critical=("a",))
        assert not rule.satisfied({"b", "c", "d", "e"}, 0.2)
        assert rule.satisfied({"a"}, 0.2)

    def test_empty_rule_rejected(self):
        with pytest.raises(ValueError):
            _rule(domains=())

    def test_critical_must_be_member(self):
        with pytest.raises(ValueError):
            _rule(critical=("zz",))

    def test_repeated_domain_rejected(self):
        # evaluation intersects sets: a domain listed twice would raise
        # N (and the requirement) without ever being matchable twice
        with pytest.raises(ValueError, match="twice"):
            _rule(domains=("a", "b", "a"))

    def test_threshold_checked_on_every_new_value(self):
        rule = _rule()
        assert rule.satisfied({"a", "b"}, 0.4)
        for bad in (0.0, 1.5):
            with pytest.raises(ValueError):
                rule.satisfied({"a", "b"}, bad)

    def test_accepts_any_evidence_collection(self):
        rule = _rule(critical=("a",))
        evidence = {"a": 1, "b": 2, "zz": 3}
        assert rule.satisfied(evidence, 0.4)
        assert rule.satisfied(evidence.keys(), 0.4)
        assert rule.satisfied(frozenset(evidence), 0.4)

    def test_matched_domains(self):
        rule = _rule()
        assert rule.matched_domains({"b", "e", "zz"}) == ("b", "e")

    @given(st.sets(st.sampled_from(["a", "b", "c", "d", "e"])))
    def test_satisfaction_monotone_in_evidence(self, seen):
        rule = _rule()
        if rule.satisfied(seen, 0.4):
            assert rule.satisfied(seen | {"a"}, 0.4)


class TestRuleSet:
    def _hierarchy(self):
        return RuleSet(
            [
                _rule("root", domains=("r1",)),
                _rule("mid", domains=("m1", "m2"), parent="root"),
                _rule("leaf", domains=("l1", "l2"), parent="mid"),
                _rule("other", domains=("o1",)),
            ]
        )

    def test_ancestors(self):
        rules = self._hierarchy()
        assert rules.ancestors("leaf") == ["mid", "root"]
        assert rules.ancestors("root") == []

    def test_detected_requires_ancestors(self):
        rules = self._hierarchy()
        assert "leaf" not in rules.detected_classes({"l1", "l2"}, 0.4)
        detected = rules.detected_classes(
            {"l1", "l2", "m1", "r1"}, 0.4
        )
        assert {"root", "mid", "leaf"} <= detected

    def test_detected_independent_classes(self):
        rules = self._hierarchy()
        assert rules.detected_classes({"o1"}, 0.4) == {"other"}

    def test_duplicate_rule_rejected(self):
        with pytest.raises(ValueError):
            RuleSet([_rule("x"), _rule("x")])

    def test_missing_parent_rejected(self):
        with pytest.raises(ValueError):
            RuleSet([_rule("x", parent="ghost")])

    def test_monitored_domains(self):
        rules = self._hierarchy()
        assert rules.monitored_domains() == frozenset(
            {"r1", "m1", "m2", "l1", "l2", "o1"}
        )

    def test_container_protocol(self):
        rules = self._hierarchy()
        assert "root" in rules
        assert "ghost" not in rules
        assert len(rules) == 4


class TestGenerateRules:
    def test_rules_for_every_surviving_class(self, rules, hitlist):
        assert set(rules.class_names()) == set(hitlist.class_domains)

    def test_chain_for_firetv(self, rules):
        assert rules.ancestors("Fire TV") == [
            "Amazon Product", "Alexa Enabled",
        ]

    def test_samsung_critical_domain(self, rules):
        assert len(rules.rule("Samsung IoT").critical) == 1

    def test_orphaned_child_reattached(self, context):
        """If a parent class is dropped, children attach to the nearest
        surviving ancestor."""
        import dataclasses

        hitlist = context.hitlist
        pruned = dataclasses.replace(
            hitlist,
            class_domains={
                name: domains
                for name, domains in hitlist.class_domains.items()
                if name != "Amazon Product"
            },
        )
        generated = generate_rules(context.scenario.catalog, pruned)
        assert generated.rule("Fire TV").parent == "Alexa Enabled"
