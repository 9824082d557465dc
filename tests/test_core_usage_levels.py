"""Tests for level determination (§4.3.1)."""

from repro.core.levels import determine_levels, validate_distinguishability
from repro.core.rules import DetectionRule, RuleSet
from repro.devices.catalog import LEVEL_PRODUCT


class TestLevels:
    def test_levels_match_catalog(self, catalog, rules):
        levels = determine_levels(catalog, rules)
        assert levels["Fire TV"] == "Product"
        assert levels["Xiaomi Dev."] == "Manufacturer"
        assert levels["Alexa Enabled"] == "Platform"

    def test_no_conflicts_in_generated_rules(self, rules):
        assert validate_distinguishability(rules) == []

    def test_identical_sets_flagged(self):
        rules = RuleSet(
            [
                DetectionRule("a", LEVEL_PRODUCT, ("x", "y")),
                DetectionRule("b", LEVEL_PRODUCT, ("x", "y")),
            ]
        )
        conflicts = validate_distinguishability(rules)
        assert len(conflicts) == 1
        assert conflicts[0].reason == "identical domain sets"

    def test_subset_flagged(self):
        rules = RuleSet(
            [
                DetectionRule("a", LEVEL_PRODUCT, ("x",)),
                DetectionRule("b", LEVEL_PRODUCT, ("x", "y")),
            ]
        )
        assert len(validate_distinguishability(rules)) == 1

    def test_hierarchical_subset_not_flagged(self):
        rules = RuleSet(
            [
                DetectionRule("a", LEVEL_PRODUCT, ("x",)),
                DetectionRule(
                    "b", LEVEL_PRODUCT, ("x", "y"), parent="a"
                ),
            ]
        )
        assert validate_distinguishability(rules) == []
