"""The swap fault matrix (``pytest -m faults``).

Every injection point of the live rule-refresh lifecycle is broken on
purpose via :class:`repro.faults.SwapPlan`, and two guarantees are
asserted each time: consumers degrade to the *last-good* generation
(never a torn, empty, or corrupt one), and a run killed mid-swap
resumes to an event log byte-identical to the uninterrupted run.

Matrix:

=================  ==================================================
fault kind          asserted recovery
=================  ==================================================
corrupt_artifact    loader falls back to last-good; detection intact
crash_mid_publish   torn wreckage never served; version never reused
backend_outage      recompute publishes nothing bad; store last-good
sigterm_mid_swap    drain + resume is byte-identical across the swap
=================  ==================================================
"""

from __future__ import annotations

import pytest

from repro.core.levels import coarser_level
from repro.faults import SWAP_FAULT_KINDS, SwapPlan
from repro.netflow.flowfile import write_flow_file
from repro.netflow.parse import ColumnarDecodeStage
from repro.pipeline import RuleGeneration, RuleSource
from repro.rules import CandidateRejected, VersionedRuleStore, read_artifact
from repro.runtime import ShutdownCoordinator, StopToken
from repro.rules.lifecycle import ArtifactError
from repro.stream import (
    JsonlEventSink,
    StreamConfig,
    StreamDetectionEngine,
)

from tests.test_rules_lifecycle import (
    BOUNDARY,
    CAM_IP,
    HUB_IP,
    NEW_IP,
    recompute,
    world_v1,
    world_v2,
    write_swap_flowfile,
)
from tests.test_stream import _mkflow

pytestmark = pytest.mark.faults


# -- replay material: a stream long enough for real kills --------------

#: enough records that a SIGTERM lands mid-stream (64-row chunks, the
#: guards polled after each) with the hour boundary crossed around
#: record 900.
_SOAK_RECORDS = 2_400
_SOAK_STRIDE = 4  # seconds between records


@pytest.fixture(scope="module")
def soak_flowfile(tmp_path_factory):
    """~2.4k flows over ~2.6 hours: 200 subscriber lines cycling over
    the kept, dropped, and added endpoints, crossing the swap boundary
    around record 900."""
    from repro.timeutil import STUDY_START

    endpoints = (CAM_IP, HUB_IP, NEW_IP)
    flows = [
        _mkflow(
            0x0A000000 + (i % 200),
            endpoints[i % 3],
            STUDY_START + i * _SOAK_STRIDE,
        )
        for i in range(_SOAK_RECORDS)
    ]
    path = tmp_path_factory.mktemp("swap_faults") / "soak-flows.csv"
    write_flow_file(path, flows)
    return path


def _seeded_store(tmp_path, *worlds):
    store = VersionedRuleStore(tmp_path / "rules")
    for rules, hitlist in worlds:
        store.publish(rules, hitlist)
    return store


# -- plan validation ---------------------------------------------------


class TestSwapPlan:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown swap fault kind"):
            SwapPlan("meteor_strike")

    @pytest.mark.parametrize("kind", SWAP_FAULT_KINDS)
    def test_helpers_enforce_their_kind(self, kind, tmp_path):
        plan = SwapPlan(kind)
        if kind != "corrupt_artifact" and kind != "crash_mid_publish":
            with pytest.raises(ValueError, match="does not apply"):
                plan.sabotage_store(tmp_path)
        if kind != "backend_outage":
            with pytest.raises(ValueError, match="does not apply"):
                plan.wrap_backend(object())
        if kind != "sigterm_mid_swap":
            with pytest.raises(ValueError, match="does not apply"):
                plan.wrap_records(iter(()))


# -- corrupt_artifact --------------------------------------------------


class TestCorruptArtifact:
    def test_falls_back_to_last_good_and_keeps_detecting(self, tmp_path):
        store = _seeded_store(tmp_path, world_v1(), world_v2())
        touched = SwapPlan("corrupt_artifact").sabotage_store(
            store.directory
        )
        assert len(touched) == 1
        with pytest.raises(ArtifactError):
            read_artifact(touched[0])  # the damage is detectable
        loaded = store.load_latest()
        assert loaded.artifact.version == 1  # last-good, not the torn v2
        assert loaded.fallbacks == 1
        # The degraded generation still detects: run the pipeline on it.
        flowfile = write_swap_flowfile(tmp_path / "flows.csv")
        engine = StreamDetectionEngine(
            loaded.artifact.rules,
            loaded.artifact.hitlist,
            rules_version=loaded.artifact.version,
        )
        engine.process_flowfile(flowfile)
        classes = {e.class_name for e in engine.sink.events}
        assert {"camera", "hub"} <= classes


# -- crash_mid_publish -------------------------------------------------


class TestCrashMidPublish:
    def test_wreckage_is_never_served_and_version_not_reused(
        self, tmp_path
    ):
        store = _seeded_store(tmp_path, world_v1())
        touched = SwapPlan("crash_mid_publish").sabotage_store(
            store.directory
        )
        torn, temp = touched
        assert temp.name.endswith(".tmp")
        # The torn final file claims v2 but fails its own length header.
        with pytest.raises(ArtifactError, match="truncated"):
            read_artifact(torn)
        loaded = store.load_latest()
        assert loaded.artifact.version == 1
        assert loaded.fallbacks == 1
        # The damaged version number is burned, not recycled: the next
        # publish must allocate past it.
        assert store.latest_version() == 2
        published = store.publish(*world_v2())
        assert published.version == 3
        assert store.load_latest().artifact.version == 3


# -- backend_outage ----------------------------------------------------


class TestBackendOutage:
    def test_whole_backend_outage_leaves_store_last_good(
        self, scenario, tmp_path
    ):
        """Both backends down: every domain drops, the empty candidate
        is refused, and the store keeps serving (and numbering from)
        its last-good generation."""
        store = VersionedRuleStore(tmp_path / "rules")
        assert store.publish(*recompute(scenario)).version == 1

        plan = SwapPlan("backend_outage", seed=3)
        rules, hitlist = recompute(
            scenario,
            dnsdb=plan.wrap_backend(scenario.dnsdb),
            scans=plan.wrap_backend(scenario.scans),
        )
        with pytest.raises(CandidateRejected):
            store.publish(rules, hitlist)
        loaded = store.load_latest()
        assert loaded.artifact.version == 1  # last-good untouched
        assert loaded.fallbacks == 0
        assert store.latest_version() == 1  # nothing burned

    def test_targeted_outage_also_fails_closed(self, scenario, tmp_path):
        """An outage on specific keys (not the whole backend) still
        cannot publish a bad generation: either the recompute degrades
        and the candidate passes validation, or the gates refuse it —
        never a torn store."""
        store = VersionedRuleStore(tmp_path / "rules")
        before = store.publish(*recompute(scenario))
        domain = next(iter(before.hitlist.domain_ports))
        plan = SwapPlan("backend_outage", seed=5)
        rules, hitlist = recompute(
            scenario,
            dnsdb=plan.wrap_backend(scenario.dnsdb, outage_keys=[domain]),
        )
        for name in rules.class_names():  # degraded classes demoted
            level = before.rules.rule(name).level
            if name in hitlist.degraded_classes:
                level = coarser_level(level)
            assert rules.rule(name).level == level
        try:
            artifact = store.publish(rules, hitlist)
        except CandidateRejected:
            assert store.latest_version() == before.version
        else:
            assert artifact.version == before.version + 1
        assert store.load_latest().fallbacks == 0


# -- sigterm_mid_swap --------------------------------------------------


class TestSigtermMidSwap:
    @pytest.mark.parametrize(
        "kill_at",
        [500, 1_500],  # before the activation boundary, and after it
        ids=["between-publish-and-flip", "after-flip"],
    )
    def test_kill_and_resume_is_byte_identical(
        self, tmp_path, soak_flowfile, kill_at
    ):
        rules_v1, hitlist_v1 = world_v1()
        rules_v2, hitlist_v2 = world_v2()
        generation = RuleGeneration(2, rules_v2, hitlist_v2)

        def run(tag, kill=None):
            ckpt = tmp_path / f"ckpt-{tag}"
            log = tmp_path / f"events-{tag}.jsonl"
            config = StreamConfig(
                checkpoint_dir=ckpt, checkpoint_every=10_000
            )
            token = StopToken()
            with ShutdownCoordinator(token):
                with JsonlEventSink(log) as sink:
                    engine = StreamDetectionEngine(
                        rules_v1,
                        hitlist_v1,
                        config,
                        sink,
                        stop_token=token,
                        rules_version=1,
                    )
                    engine.stage_rules(generation, activate_at=BOUNDARY)
                    chunks = ColumnarDecodeStage(64).iter_chunks(
                        soak_flowfile
                    )
                    if kill is not None:
                        # the signal lands while chunk ``kill // 64`` is
                        # fetched; that chunk folds, then the guards stop
                        plan = SwapPlan(
                            "sigterm_mid_swap", at_index=kill // 64
                        )
                        chunks = plan.wrap_records(chunks)
                    engine.process_chunks(chunks)
                    if engine.stopped:
                        assert engine.drain() is not None
            if kill is not None:
                assert token.reason == "signal:SIGTERM"
                assert engine.records_processed == (kill // 64 + 1) * 64
                # The engine reconciles: handed v1 and a source holding
                # v2, it resumes under the generation the checkpoint was
                # taken under and re-stages a pending swap verbatim.
                flipped = engine.rules_version == 2
                with JsonlEventSink(log, resume=True) as sink:
                    engine = StreamDetectionEngine.resume(
                        rules_v1,
                        hitlist_v1,
                        config,
                        sink,
                        rules_version=1,
                        rule_source=RuleSource({2: generation}.get),
                    )
                    if flipped:
                        assert engine.rules_version == 2
                        assert engine.checkpoint_pending_rules is None
                        assert engine.pending_rules is None
                    else:
                        # killed before the flip: the staged swap was
                        # checkpointed and is back at its boundary
                        assert engine.rules_version == 1
                        assert engine.checkpoint_pending_rules == (
                            2,
                            BOUNDARY,
                        )
                        assert engine.pending_rules.activate_at == BOUNDARY
                    engine.process_flowfile(soak_flowfile)
            return log, engine

        full_log, full_engine = run("full")
        killed_log, killed_engine = run(f"kill{kill_at}", kill=kill_at)
        assert full_log.read_bytes() == killed_log.read_bytes()
        assert full_engine.metrics.events_emitted > 0
        assert killed_engine.rules_version == 2
        assert (
            full_engine.metrics_dict()["rules"]
            == killed_engine.metrics_dict()["rules"]
        )
        # the added rule detected post-boundary in both runs
        from repro.stream import read_event_log

        classes = {e.class_name for e in read_event_log(killed_log)}
        assert "doorbell" in classes
