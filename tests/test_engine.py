"""Sharded wild-ISP engine: determinism, shard planning, bugfix
regressions, and the benchmark smoke artefact."""

from __future__ import annotations

import json
from types import SimpleNamespace

import numpy as np
import pytest

from repro.core.detector import (
    FlowDetector,
    anonymize_subscriber,
)
from repro.engine import (
    CohortPlan,
    ShardTask,
    build_cohort_plan,
    plan_shards,
    run_wild_isp_sharded,
    simulate_shard,
)
from repro.engine.plan import RulePlan, domain_day_availability
from repro.isp.simulation import WildConfig, run_ground_truth, run_wild_isp
from repro.pipeline.metrics import METRICS_SCHEMA
from repro.scenario import build_default_scenario
from repro.timeutil import STUDY_START


def _engine_run(context, **overrides):
    config = dict(
        subscribers=3_000, days=2, seed=11, workers=1, shard_size=512
    )
    config.update(overrides)
    return run_wild_isp_sharded(
        context.scenario,
        context.rules,
        context.hitlist,
        WildConfig(**config),
    )


def _assert_identical(a, b):
    assert sorted(a.daily_counts) == sorted(b.daily_counts)
    for name in a.daily_counts:
        np.testing.assert_array_equal(
            a.daily_counts[name], b.daily_counts[name]
        )
        np.testing.assert_array_equal(
            a.hourly_counts[name], b.hourly_counts[name]
        )
    np.testing.assert_array_equal(a.any_daily, b.any_daily)
    np.testing.assert_array_equal(a.other_daily, b.other_daily)
    np.testing.assert_array_equal(a.other_hourly, b.other_hourly)
    np.testing.assert_array_equal(
        a.alexa_active_hourly, b.alexa_active_hourly
    )
    for name in a.cumulative_lines:
        np.testing.assert_array_equal(
            a.cumulative_lines[name], b.cumulative_lines[name]
        )


class TestShardPlanning:
    def test_every_owner_in_exactly_one_shard(self):
        for count in (1, 7, 512, 513, 1024, 1025):
            shards = plan_shards(count, 512)
            covered = []
            for start, stop in shards:
                assert start < stop <= count
                covered.extend(range(start, stop))
            assert covered == list(range(count))

    def test_empty_cohort_has_no_shards(self):
        assert plan_shards(0, 512) == []

    def test_rejects_nonpositive_shard_size(self):
        with pytest.raises(ValueError):
            plan_shards(100, 0)

    def test_plan_depends_only_on_size(self):
        assert plan_shards(1000, 256) == plan_shards(1000, 256)


class TestEngineDeterminism:
    def test_identical_series_across_worker_counts(self, context):
        runs = [_engine_run(context, workers=w) for w in (1, 2, 4)]
        _assert_identical(runs[0], runs[1])
        _assert_identical(runs[0], runs[2])

    def test_different_seed_changes_series(self, context):
        a = _engine_run(context, seed=11)
        b = _engine_run(context, seed=12)
        assert any(
            not np.array_equal(a.daily_counts[n], b.daily_counts[n])
            for n in a.daily_counts
        )

    def test_shard_sizes_statistically_equivalent(self, context):
        a = _engine_run(context, shard_size=512)
        b = _engine_run(context, shard_size=1500)
        for name in a.daily_counts:
            sa = a.daily_counts[name].mean()
            sb = b.daily_counts[name].mean()
            assert abs(sa - sb) <= max(10.0, 0.1 * max(sa, sb)), name
        assert (
            abs(a.any_daily.mean() - b.any_daily.mean())
            <= 0.1 * a.any_daily.mean() + 10
        )


class TestSerialPathBitExact:
    """The refactored serial path (workers=1 through run_wild_isp) must
    reproduce the seed revision's exact series for the default seed."""

    GOLDEN_DAILY = {
        "Alexa Enabled": [666, 666],
        "Amazon Product": [415, 415],
        "Fire TV": [105, 105],
        "Samsung IoT": [407, 407],
        "Samsung TV": [107, 103],
    }

    @pytest.fixture(scope="class")
    def serial(self, context):
        return run_wild_isp(
            context.scenario,
            context.rules,
            context.hitlist,
            WildConfig(subscribers=5_000, days=2, seed=11, workers=1),
        )

    def test_daily_counts_pinned(self, serial):
        for name, expected in self.GOLDEN_DAILY.items():
            assert serial.daily_counts[name].tolist() == expected, name

    def test_aggregates_pinned(self, serial):
        assert serial.any_daily.tolist() == [1169, 1170]
        assert serial.other_daily.tolist() == [219, 219]
        assert int(serial.other_hourly.sum()) == 3816
        assert int(serial.alexa_active_hourly.sum()) == 267

    def test_cumulative_lines_pinned(self, serial):
        assert serial.cumulative_lines["Alexa Enabled"].tolist() == [
            666,
            676,
        ]
        assert serial.cumulative_lines["Samsung IoT"].tolist() == [
            407,
            415,
        ]

    def test_serial_path_has_no_engine_metrics(self, serial):
        assert serial.metrics is None


class TestEngineVsSerial:
    def test_statistical_equivalence(self, context):
        serial = run_wild_isp(
            context.scenario,
            context.rules,
            context.hitlist,
            WildConfig(subscribers=3_000, days=2, seed=11, workers=1),
        )
        engine = _engine_run(context)
        for name in serial.daily_counts:
            s = serial.daily_counts[name].mean()
            e = engine.daily_counts[name].mean()
            assert abs(s - e) <= max(8.0, 0.1 * max(s, e)), name

    def test_run_wild_isp_dispatches_to_engine(self, context):
        result = run_wild_isp(
            context.scenario,
            context.rules,
            context.hitlist,
            WildConfig(
                subscribers=2_000, days=1, seed=3, workers=2,
                shard_size=512,
            ),
        )
        assert result.metrics is not None
        assert result.metrics["schema"] == METRICS_SCHEMA


class TestMetricsDocument:
    def test_schema_sections(self, context):
        result = _engine_run(context)
        metrics = result.metrics
        assert metrics["schema"] == METRICS_SCHEMA
        assert metrics["config"]["subscribers"] == 3_000
        assert metrics["config"]["shard_size"] == 512
        stages = metrics["stages"]
        for key in (
            "plan_seconds",
            "simulate_seconds",
            "aggregate_seconds",
            "total_seconds",
        ):
            assert stages[key] >= 0.0
        assert metrics["shards"]["count"] > 0
        assert metrics["shards"]["peak_rss_bytes_max"] > 0
        assert metrics["throughput"]["draws"] > 0
        assert metrics["throughput"]["flows_per_second"] > 0
        assert metrics["cohorts"]
        assert json.loads(json.dumps(metrics)) == metrics


class TestHitlistDayMask:
    def test_availability_from_hitlist_window(self):
        domains = ["a.example", "b.example"]

        class _Hitlist:
            def endpoints_for_day(self, day):
                if day == 0:
                    return {(1, 443): "a.example"}
                return {}

        available = domain_day_availability(_Hitlist(), domains, 2)
        assert available[0].tolist() == [True, False]
        # Beyond the hitlist window: fall back to all-available.
        assert available[1].tolist() == [True, True]

    def test_unavailable_day_produces_no_evidence(self):
        plan = CohortPlan(
            product="synthetic",
            owners=np.arange(64, dtype=np.int64),
            p_idle=np.full(3, 0.9, dtype=np.float32),
            p_active=np.full(3, 0.9, dtype=np.float32),
            day_available=np.array(
                [[False] * 3, [True] * 3], dtype=bool
            ),
            q_by_hour=np.full(24, 0.5),
            rules=(
                RulePlan(
                    class_name="Probe",
                    indices=np.arange(3),
                    critical=np.empty(0, dtype=np.int64),
                    needed=1,
                    ancestors=(),
                    satisfiable=True,
                ),
            ),
            alexa=None,
        )
        result = simulate_shard(
            ShardTask(
                index=0,
                plan=plan,
                start=0,
                stop=64,
                seed=np.random.SeedSequence(1),
                days=2,
                usage_packet_threshold=5,
            )
        )
        assert result.metrics.draws > 0
        day0 = result.hourly_counts["Probe"][:24]
        day1 = result.hourly_counts["Probe"][24:]
        assert int(day0.sum()) == 0
        assert int(day1.sum()) > 0

    def test_default_world_window_fully_available(self, context):
        plan = build_cohort_plan(
            "Echo Dot",
            np.arange(10, dtype=np.int64),
            context.scenario,
            context.rules,
            context.hitlist,
            days=context.wild_days,
            sampling_interval=100,
            threshold=0.4,
        )
        assert plan is not None
        assert bool(plan.day_available.all())


class TestBugfixRegressions:
    def test_isp_topology_asn_order_independent(self):
        first = build_default_scenario(seed=41)
        second = build_default_scenario(seed=41)
        a100 = first.isp_topology(100).autonomous_system.asn
        a50 = first.isp_topology(50).autonomous_system.asn
        b50 = second.isp_topology(50).autonomous_system.asn
        b100 = second.isp_topology(100).autonomous_system.asn
        assert (a100, a50) == (b100, b50)
        assert a100 != a50

    def test_anonymize_cache_matches_plain_hash(self, rules, hitlist):
        detector = FlowDetector(rules, hitlist)
        detector.observe_evidence(1234, "x.example", STUDY_START)
        detector.observe_evidence(1234, "y.example", STUDY_START)
        assert detector._anonymize(1234) == anonymize_subscriber(1234)
        assert len(detector._anonymize._digests) == 1

    def test_flow_detector_uses_cache(self, rules, hitlist):
        detector = FlowDetector(rules, hitlist)
        detector.observe_evidence(77, "x.example", STUDY_START)
        assert detector._anonymize(77) == anonymize_subscriber(77)

    def test_ground_truth_skips_zero_packet_hours(self, scenario):
        class _ZeroTraffic:
            packets = {"unused.example": 0}
            bytes = {"unused.example": 0}

        class _Behavior:
            def hour_traffic(self, rng, **kwargs):
                return _ZeroTraffic()

        class _Schedule:
            behaviors = {"dev-0": _Behavior()}

            def iter_schedule(self):
                yield SimpleNamespace(
                    instance=SimpleNamespace(
                        device_id="dev-0", product_name="iKettle"
                    ),
                    mode="idle",
                    power_interactions=0,
                    functional_interactions=0,
                    startup=False,
                    hour_start=STUDY_START,
                )

        capture = run_ground_truth(scenario, schedule=_Schedule())
        assert capture.home_events == []
        assert capture.isp_events == []


class TestBenchmarkSmoke:
    """CI smoke job: a small engine run with workers=2 must complete and
    emit a metrics document that survives the JSON round trip
    ``BENCH_scaling.json`` stores it through (written to ``tmp_path``:
    tests never touch the committed file)."""

    def test_smoke_run_emits_bench_artifact(self, context, tmp_path):
        result = _engine_run(
            context, subscribers=2_000, workers=2, shard_size=256
        )
        assert result.metrics["config"]["workers"] == 2
        path = tmp_path / "BENCH_scaling.json"
        path.write_text(
            json.dumps(result.metrics, indent=2, sort_keys=True) + "\n"
        )
        written = json.loads(path.read_text())
        assert written["schema"] == METRICS_SCHEMA
        assert written["shards"]["count"] >= 2
