"""Tests for the analysis utilities."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.analysis.detection_model import estimate_detection_probabilities
from repro.analysis.ecdf import Ecdf
from repro.analysis.heavyhitters import heavy_hitter_visibility
from repro.analysis.reporting import (
    render_histogram_row,
    render_series,
    render_table,
)
from repro.timeutil import STUDY_START


class TestEcdf:
    def test_evaluate(self):
        ecdf = Ecdf([1, 2, 3, 4])
        assert ecdf.evaluate(0) == 0.0
        assert ecdf.evaluate(2) == 0.5
        assert ecdf.evaluate(10) == 1.0

    def test_quantile(self):
        ecdf = Ecdf([1, 2, 3, 4])
        assert ecdf.quantile(0.25) == 1
        assert ecdf.quantile(1.0) == 4
        assert ecdf.median == 2

    def test_quantile_range_checked(self):
        with pytest.raises(ValueError):
            Ecdf([1]).quantile(0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Ecdf([])

    def test_points_monotone(self):
        points = Ecdf([3, 1, 2]).points()
        values = [v for v, _ in points]
        fractions = [f for _, f in points]
        assert values == sorted(values)
        assert fractions[-1] == 1.0

    def test_sampled_points_bounded(self):
        ecdf = Ecdf(range(1000))
        assert len(ecdf.sampled_points(40)) == 40

    @given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=100))
    def test_evaluate_bounds(self, values):
        ecdf = Ecdf(values)
        assert 0.0 <= ecdf.evaluate(0.0) <= 1.0


class _Event:
    def __init__(self, timestamp, dst_ip, size):
        self.timestamp = timestamp
        self.dst_ip = dst_ip
        self.bytes = size


class TestHeavyHitters:
    def test_top_heavy_ip_visible(self):
        home = [
            _Event(STUDY_START + 10, 1, 10_000),
            _Event(STUDY_START + 10, 2, 10),
            _Event(STUDY_START + 10, 3, 10),
            _Event(STUDY_START + 10, 4, 10),
            _Event(STUDY_START + 10, 5, 10),
            _Event(STUDY_START + 10, 6, 10),
            _Event(STUDY_START + 10, 7, 10),
            _Event(STUDY_START + 10, 8, 10),
            _Event(STUDY_START + 10, 9, 10),
            _Event(STUDY_START + 10, 10, 10),
        ]
        isp = [_Event(STUDY_START + 10, 1, 100)]
        result = heavy_hitter_visibility(home, isp)
        assert result[0.1][0] == 1.0
        assert result[0.3][0] == pytest.approx(1 / 3)

    def test_invisible_hour(self):
        home = [_Event(STUDY_START + 10, 1, 100)]
        result = heavy_hitter_visibility(home, [])
        assert result[0.1][0] == 0.0


class TestReporting:
    def test_render_table_alignment(self):
        out = render_table(("a", "bb"), [(1, 2), (333, 4)])
        lines = out.splitlines()
        assert len(lines) == 4
        assert all(len(line) == len(lines[0]) for line in lines[1:])

    def test_render_table_wrong_arity(self):
        with pytest.raises(ValueError):
            render_table(("a",), [(1, 2)])

    def test_render_series_subsamples(self):
        out = render_series("s", [(i, i) for i in range(1000)],
                            max_points=10)
        assert out.count("=") <= 30

    def test_histogram_row(self):
        row = render_histogram_row("label", 5.0, 10.0, width=10)
        assert "#####" in row

    def test_histogram_zero_max(self):
        assert "#" not in render_histogram_row("label", 5.0, 0.0)

    def test_float_formatting(self):
        out = render_table(("x",), [(0.12345,), (1234.5,), (0,)])
        assert "0.1235" in out  # rounded to 4 decimals
        assert "1,234" in out or "1,235" in out


class TestDetectionModel:
    def test_daily_at_least_hourly(self, context):
        probabilities = estimate_detection_probabilities(
            context.scenario, context.rules, "Samsung IoT",
            samples=500,
        )
        assert probabilities.daily >= probabilities.hourly

    def test_sparser_sampling_lowers_probability(self, context):
        dense = estimate_detection_probabilities(
            context.scenario, context.rules, "Alexa Enabled",
            sampling_interval=100, samples=500,
        )
        sparse = estimate_detection_probabilities(
            context.scenario, context.rules, "Alexa Enabled",
            sampling_interval=10_000, samples=500,
        )
        assert sparse.daily < dense.daily

    def test_visibility_scales_rates(self, context):
        full = estimate_detection_probabilities(
            context.scenario, context.rules, "Samsung IoT",
            visibility=1.0, samples=500,
        )
        half = estimate_detection_probabilities(
            context.scenario, context.rules, "Samsung IoT",
            visibility=0.2, samples=500,
        )
        assert half.daily <= full.daily

    def test_ratio_property(self, context):
        probabilities = estimate_detection_probabilities(
            context.scenario, context.rules, "Alexa Enabled",
            samples=200,
        )
        assert probabilities.daily_to_hourly_ratio >= 1.0


class TestExactDetectionModel:
    def test_exact_rule_probability_brute_force(self):
        """DP matches exhaustive enumeration on small instances."""
        import itertools

        from repro.analysis.detection_model import exact_rule_probability

        probabilities = [0.3, 0.7, 0.5]
        critical = [0.9]
        required = 2
        expected = 0.0
        for outcome in itertools.product([0, 1], repeat=4):
            crit_seen = outcome[0]
            weight = (critical[0] if crit_seen else 1 - critical[0])
            count = crit_seen
            for seen, p in zip(outcome[1:], probabilities):
                weight *= p if seen else 1 - p
                count += seen
            if crit_seen and count >= required:
                expected += weight
        got = exact_rule_probability(probabilities, required, critical)
        assert got == pytest.approx(expected, abs=1e-12)

    def test_zero_required_with_no_critical_is_certain(self):
        from repro.analysis.detection_model import exact_rule_probability

        assert exact_rule_probability([0.1, 0.2], 0) == 1.0

    def test_all_domains_required(self):
        from repro.analysis.detection_model import exact_rule_probability

        assert exact_rule_probability([0.5, 0.5], 2) == pytest.approx(
            0.25
        )

    def test_rejects_bad_probability(self):
        from repro.analysis.detection_model import exact_rule_probability

        with pytest.raises(ValueError):
            exact_rule_probability([1.5], 1)
        with pytest.raises(ValueError):
            exact_rule_probability([0.5], -1)

    def test_exact_matches_monte_carlo_idle(self, context):
        """With near-zero active probability, the MC hourly estimate
        converges on the exact idle-state probability."""
        from repro.analysis.detection_model import (
            estimate_detection_probabilities,
            exact_detection_probability,
        )

        for class_name in ("Samsung IoT", "Philips Dev."):
            exact = exact_detection_probability(
                context.scenario, context.rules, class_name,
                active=False,
            )
            mc = estimate_detection_probabilities(
                context.scenario, context.rules, class_name,
                samples=6000,
            )
            # MC mixes in rare active states, so it sits at or slightly
            # above the pure-idle exact value.
            assert mc.hourly == pytest.approx(exact, abs=0.05)
            assert mc.hourly >= exact - 0.03

    def test_exact_monotone_in_window(self, context):
        from repro.analysis.detection_model import (
            exact_detection_probability,
        )

        hourly = exact_detection_probability(
            context.scenario, context.rules, "Samsung IoT",
            window_hours=1,
        )
        daily = exact_detection_probability(
            context.scenario, context.rules, "Samsung IoT",
            window_hours=24,
        )
        assert daily >= hourly

    def test_exact_hierarchy_gating(self, context):
        from repro.analysis.detection_model import (
            exact_detection_probability,
        )

        child = exact_detection_probability(
            context.scenario, context.rules, "Fire TV", active=True,
            window_hours=4,
        )
        parent = exact_detection_probability(
            context.scenario, context.rules, "Amazon Product",
            product="Fire TV", active=True, window_hours=4,
        )
        assert child <= parent + 1e-12
