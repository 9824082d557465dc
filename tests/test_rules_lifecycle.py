"""Versioned rule lifecycle: artifacts, store, recompute, hot swap.

Three guarantees are pinned here:

* *artifact integrity* — a published generation survives a byte-exact
  write/read roundtrip, and every form of damage (truncation, bit rot,
  header tampering, version mismatch) is detected and falls back to
  the last-good generation;
* *identity swap* — swapping to a generation with identical content is
  provably invisible: event logs byte-identical to a no-swap run,
  and a real swap replays identically on the per-record and chunk
  loops (including a boundary that lands mid-chunk);
* *changed-rules swap* — after a real v1→v2 swap, surviving rules
  detect exactly as a fresh v2 run would, dropped rules' evidence is
  expired with counted reasons, and new rules only fire at/after the
  event-time activation boundary.
"""

from __future__ import annotations

import dataclasses
import json
import random

import pytest

from repro.core.hitlist import Hitlist, PipelineReport, build_hitlist
from repro.core.rules import DetectionRule, RuleSet, generate_rules
from repro.core.serialization import hitlist_to_json, rules_to_json
from repro.faults import corrupt_payload_byte, truncate_file
from repro.netflow.flowfile import write_flow_file
from repro.pipeline import (
    PendingSwap,
    RuleGeneration,
    RuleSource,
    streaming_assembly,
)
from repro.resilience.lookups import ResilientPassiveDns, ResilientScanDataset
from repro.resilience.retry import (
    RetryPolicy,
    TransientLookupError,
    call_with_retry,
)
from repro.rules import (
    ARTIFACT_MAGIC,
    ArtifactError,
    CandidateRejected,
    RulesArtifact,
    VersionedRuleStore,
    artifact_path,
    list_artifacts,
    read_artifact,
    validate_candidate,
    write_artifact,
)
from repro.stream import (
    RuleVersionMismatch,
    StreamConfig,
    StreamDetectionEngine,
)
from repro.stream.checkpoint import list_checkpoints
from repro.pipeline.events import JsonlEventSink
from repro.timeutil import SECONDS_PER_DAY, SECONDS_PER_HOUR, STUDY_START
from tests.reference_fold import fold, read_tuples

from tests.test_stream import _mkflow


# -- a synthetic two-generation world ---------------------------------

CAM_IP = 0xC0A80001
HUB_IP = 0xC0A80002
NEW_IP = 0xC0A80003

SUB1, SUB2, SUB3, SUB4 = (0x0A000001 + n for n in range(4))

#: the staged swaps in these tests activate at the first hour boundary
BOUNDARY = STUDY_START + SECONDS_PER_HOUR

_WORLD_DAYS = 3


def make_world(classes, mapping, days=_WORLD_DAYS):
    """A real ``(RuleSet, Hitlist)`` pair for a synthetic deployment.

    ``classes`` maps class name -> monitored domain tuple; ``mapping``
    maps fqdn -> backend address (port 443, every study day).  Real
    objects — not stand-ins — because the store tests serialise them.
    """
    class_domains = {
        name: tuple(domains) for name, domains in classes.items()
    }
    domain_classes = {}
    for name, domains in class_domains.items():
        for fqdn in domains:
            domain_classes[fqdn] = domain_classes.get(fqdn, ()) + (name,)
    daily = {
        day: {
            (address, 443): fqdn for fqdn, address in mapping.items()
        }
        for day in range(days)
    }
    report = PipelineReport(
        observed_domains=len(mapping),
        primary_domains=len(mapping),
        support_domains=0,
        generic_domains=0,
        iot_specific_domains=len(mapping),
        dedicated_domains=len(mapping),
        shared_domains=0,
        no_record_domains=0,
        censys_recovered_domains=0,
        censys_recovered_products=0,
        excluded_products=(),
        surviving_classes=tuple(class_domains),
        dropped_classes=(),
    )
    hitlist = Hitlist(
        window_start=STUDY_START,
        window_end=STUDY_START + days * SECONDS_PER_DAY,
        class_domains=class_domains,
        class_critical={},
        domain_ports={fqdn: (443,) for fqdn in mapping},
        daily_endpoints=daily,
        domain_classes=domain_classes,
        classifications={},
        verdicts={},
        recoveries={},
        report=report,
        degraded_classes=(),
    )
    rules = RuleSet(
        DetectionRule(class_name=name, level="Product", domains=domains)
        for name, domains in class_domains.items()
    )
    return rules, hitlist


def world_v1():
    """Generation 1: camera + hub."""
    return make_world(
        {"camera": ("cam.example",), "hub": ("hub.example",)},
        {"cam.example": CAM_IP, "hub.example": HUB_IP},
    )


def world_v2():
    """Generation 2: camera kept, hub dropped, doorbell added."""
    return make_world(
        {"camera": ("cam.example",), "doorbell": ("new.example",)},
        {"cam.example": CAM_IP, "new.example": NEW_IP},
    )


#: the swap replay: three subscribers active before the hour boundary,
#: three flows after it touching kept, added, and dropped endpoints.
SWAP_FLOWS = (
    (SUB1, CAM_IP, STUDY_START + 100),
    (SUB2, HUB_IP, STUDY_START + 200),
    (SUB1, HUB_IP, STUDY_START + 300),
    (SUB3, CAM_IP, BOUNDARY + 100),
    (SUB2, NEW_IP, BOUNDARY + 200),
    (SUB4, HUB_IP, BOUNDARY + 300),
)


def write_swap_flowfile(path):
    write_flow_file(
        path,
        [_mkflow(src, dst, when) for src, dst, when in SWAP_FLOWS],
    )
    return path


def _triples(events):
    return {(e.subscriber, e.class_name, e.detected_at) for e in events}


def _counters(engine):
    m = engine.metrics
    return (
        m.records_processed,
        m.flows_matched,
        m.events_emitted,
        m.watermark,
    )


@pytest.fixture()
def swap_flowfile(tmp_path):
    return write_swap_flowfile(tmp_path / "swap-flows.csv")


# -- artifact format ---------------------------------------------------


class TestArtifactFormat:
    def test_payload_roundtrip(self):
        rules, hitlist = world_v1()
        artifact = RulesArtifact(version=3, rules=rules, hitlist=hitlist)
        loaded = RulesArtifact.from_payload(artifact.to_payload())
        assert loaded.version == 3
        assert rules_to_json(loaded.rules) == rules_to_json(rules)
        assert hitlist_to_json(loaded.hitlist) == hitlist_to_json(hitlist)

    def test_write_read_artifact(self, tmp_path):
        rules, hitlist = world_v1()
        path = artifact_path(tmp_path, 1)
        write_artifact(
            path, RulesArtifact(version=1, rules=rules, hitlist=hitlist)
        )
        header = path.read_bytes().split(b"\n", 1)[0].decode()
        fields = header.split()
        assert fields[0] == ARTIFACT_MAGIC
        assert fields[2].startswith("sha256=")
        assert fields[3].startswith("length=")
        loaded = read_artifact(path)
        assert loaded.version == 1
        assert hitlist_to_json(loaded.hitlist) == hitlist_to_json(hitlist)
        assert not list(tmp_path.glob("*.tmp"))  # publish left no temp

    def test_scenario_artifact_roundtrip(self, rules, hitlist, tmp_path):
        """The real scenario's rules/hitlist survive the store."""
        store = VersionedRuleStore(tmp_path)
        store.publish(rules, hitlist)
        loaded = store.load_latest()
        assert loaded is not None and loaded.fallbacks == 0
        assert rules_to_json(loaded.artifact.rules) == rules_to_json(rules)
        assert hitlist_to_json(loaded.artifact.hitlist) == hitlist_to_json(
            hitlist
        )

    @pytest.mark.parametrize(
        "damage",
        ["truncate", "payload_bit", "bad_magic", "version_mismatch"],
    )
    def test_damage_is_detected(self, tmp_path, damage):
        rules, hitlist = world_v1()
        path = artifact_path(tmp_path, 1)
        write_artifact(
            path, RulesArtifact(version=1, rules=rules, hitlist=hitlist)
        )
        if damage == "truncate":
            truncate_file(path, path.stat().st_size // 2)
        elif damage == "payload_bit":
            corrupt_payload_byte(path)
        elif damage == "bad_magic":
            raw = path.read_bytes()
            path.write_bytes(b"not-an-artifact" + raw)
        elif damage == "version_mismatch":
            path.rename(artifact_path(tmp_path, 7))
            path = artifact_path(tmp_path, 7)
        with pytest.raises(ArtifactError):
            read_artifact(path)


# -- versioned store ---------------------------------------------------


class TestVersionedStore:
    def test_empty_store(self, tmp_path):
        store = VersionedRuleStore(tmp_path)
        assert store.latest_version() == 0
        assert store.load_latest() is None

    def test_publish_is_monotonic(self, tmp_path):
        store = VersionedRuleStore(tmp_path)
        rules, hitlist = world_v1()
        first = store.publish(rules, hitlist)
        second = store.publish(*world_v2())
        assert (first.version, second.version) == (1, 2)
        assert store.latest_version() == 2
        loaded = store.load_latest()
        assert loaded.artifact.version == 2
        assert store.load_version(1).version == 1

    def test_prune_keeps_newest(self, tmp_path):
        store = VersionedRuleStore(tmp_path, keep=2)
        rules, hitlist = world_v1()
        for _ in range(4):
            store.publish(rules, hitlist, validate=False)
        assert [v for v, _ in list_artifacts(tmp_path)] == [3, 4]

    def test_corrupt_newest_falls_back_to_last_good(self, tmp_path):
        store = VersionedRuleStore(tmp_path)
        store.publish(*world_v1())
        store.publish(*world_v2())
        corrupt_payload_byte(artifact_path(tmp_path, 2))
        loaded = store.load_latest()
        assert loaded.artifact.version == 1
        assert loaded.fallbacks == 1

    def test_damaged_version_is_never_reused(self, tmp_path):
        store = VersionedRuleStore(tmp_path)
        store.publish(*world_v1())
        store.publish(*world_v2())
        corrupt_payload_byte(artifact_path(tmp_path, 2))
        published = store.publish(*world_v2())
        assert published.version == 3  # not 2, despite 2 being damaged
        assert store.load_latest().artifact.version == 3

    def test_load_missing_version_raises(self, tmp_path):
        store = VersionedRuleStore(tmp_path)
        with pytest.raises(ArtifactError):
            store.load_version(9)


# -- candidate validation ----------------------------------------------


class TestValidation:
    def test_empty_candidate_rejected(self, tmp_path):
        _, hitlist = world_v1()
        store = VersionedRuleStore(tmp_path)
        with pytest.raises(CandidateRejected, match="no rules"):
            store.publish(RuleSet([]), hitlist)
        assert store.latest_version() == 0  # store untouched

    def test_endpointless_candidate_rejected(self):
        rules, hitlist = world_v1()
        bare = dataclasses.replace(hitlist, daily_endpoints={})
        candidate = RulesArtifact(version=1, rules=rules, hitlist=bare)
        with pytest.raises(CandidateRejected, match="no endpoints"):
            validate_candidate(candidate)

    def test_version_must_be_monotonic(self):
        rules, hitlist = world_v1()
        current = RulesArtifact(version=2, rules=rules, hitlist=hitlist)
        stale = RulesArtifact(version=2, rules=rules, hitlist=hitlist)
        with pytest.raises(CandidateRejected, match="not newer"):
            validate_candidate(stale, current=current)
        with pytest.raises(CandidateRejected, match=">= 1"):
            validate_candidate(
                RulesArtifact(version=0, rules=rules, hitlist=hitlist)
            )

    def test_coverage_collapse_rejected(self, tmp_path):
        store = VersionedRuleStore(tmp_path)
        store.publish(*world_v1())  # 2 endpoints x 3 days = 6
        shrunk_rules, shrunk = make_world(
            {"camera": ("cam.example",)},
            {"cam.example": CAM_IP},
            days=1,  # coverage 1 < 6 * (1 - 0.5)
        )
        with pytest.raises(CandidateRejected, match="collapsed"):
            store.publish(shrunk_rules, shrunk)
        assert store.load_latest().artifact.version == 1

    def test_coverage_explosion_rejected(self, tmp_path):
        store = VersionedRuleStore(tmp_path)
        small_rules, small = make_world(
            {"camera": ("cam.example",)}, {"cam.example": CAM_IP}, days=1
        )
        store.publish(small_rules, small)
        big_rules, big = world_v1()  # coverage 6 > 1 * 2.0
        with pytest.raises(CandidateRejected, match="exploded"):
            store.publish(big_rules, big, max_coverage_growth=2.0)

    def test_genuine_churn_is_accepted(self, tmp_path):
        store = VersionedRuleStore(tmp_path)
        store.publish(*world_v1())
        published = store.publish(*world_v2())  # same coverage, new mix
        assert published.version == 2


# -- a publisher's recompute -------------------------------------------


def recompute(scenario, dnsdb=None, scans=None):
    """What a publisher recomputes: Figure 7 over the resilient lookup
    adapters (no retries, no sleeping) around ``dnsdb`` / ``scans`` —
    the scenario's backends unless given, e.g. a
    :class:`repro.faults.SwapPlan`-wrapped one — then the class rules.
    Returns ``(rules, hitlist)``, ready for
    :meth:`VersionedRuleStore.publish`."""
    policy = RetryPolicy(max_retries=0, backoff_base=0.0)
    hitlist = build_hitlist(
        scenario,
        dnsdb=ResilientPassiveDns(
            scenario.dnsdb if dnsdb is None else dnsdb,
            policy=policy,
            sleep=lambda _s: None,
        ),
        scans=ResilientScanDataset(
            scenario.scans if scans is None else scans,
            policy=policy,
            sleep=lambda _s: None,
        ),
    )
    return generate_rules(scenario.catalog, hitlist), hitlist


class TestRecompute:
    def test_recompute_through_resilient_backends(self, scenario, tmp_path):
        """Figure-7 recompute over the resilient adapters publishes a
        first generation from the real scenario backends."""
        artifact = VersionedRuleStore(tmp_path).publish(*recompute(scenario))
        assert artifact.version == 1
        assert artifact.rules.class_names()
        assert any(artifact.hitlist.daily_endpoints.values())


# -- full-jitter retry policy (satellite) ------------------------------


class TestJitterPolicy:
    def test_default_policy_schedule_unchanged(self):
        assert list(RetryPolicy().delays()) == [0.05, 0.1]

    def test_seeded_jitter_is_deterministic(self):
        policy = RetryPolicy(max_retries=5, jitter=True, seed=42)
        assert list(policy.delays()) == list(policy.delays())
        assert policy.delay(3) == policy.delay(3)
        other = RetryPolicy(max_retries=5, jitter=True, seed=43)
        assert list(policy.delays()) != list(other.delays())

    def test_jitter_draws_stay_within_the_cap(self):
        policy = RetryPolicy(
            max_retries=8,
            backoff_base=0.05,
            backoff_cap=2.0,
            jitter=True,
            seed=7,
        )
        for attempt, delay in enumerate(policy.delays()):
            assert 0.0 <= delay <= min(2.0, 0.05 * 2.0 ** attempt)

    def test_call_with_retry_draws_the_seeded_schedule(self):
        policy = RetryPolicy(max_retries=2, jitter=True, seed=11)
        failures = [0]

        def fn():
            if failures[0] < 2:
                failures[0] += 1
                raise TransientLookupError("flap")
            return "ok"

        slept = []
        assert call_with_retry(policy=policy, fn=fn, sleep=slept.append)
        rng = random.Random(11)
        expected = [
            rng.uniform(0.0, min(2.0, 0.05 * 2.0 ** attempt))
            for attempt in range(2)
        ]
        assert slept == expected


# -- hot swap: the identity proof --------------------------------------


class TestIdentitySwap:
    @pytest.mark.parametrize("build_index", [False, True])
    def test_same_content_swap_is_bit_identical(
        self, swap_flowfile, tmp_path, build_index
    ):
        """Swapping to k+1 with content equal to k must be provably
        invisible: byte-identical event logs, equal counters — with
        the generation's day index prebuilt or compiled after the
        flip."""
        rules, hitlist = world_v1()
        config = StreamConfig(chunk_size=2)

        def run(tag, swap):
            log = tmp_path / f"events-{tag}.jsonl"
            with JsonlEventSink(log) as sink:
                engine = StreamDetectionEngine(
                    rules, hitlist, config, sink, rules_version=1
                )
                if swap:
                    generation = RuleGeneration.prepare(
                        2, rules, hitlist, build_index=build_index
                    )
                    assert (
                        engine.stage_rules(
                            generation, activate_at=BOUNDARY
                        )
                        == BOUNDARY
                    )
                engine.process_flowfile(swap_flowfile)
            return log, engine

        plain_log, plain = run("noswap", swap=False)
        swap_log, swapped = run("swap", swap=True)
        assert plain_log.read_bytes() == swap_log.read_bytes()
        assert plain.metrics.events_emitted  # the stream detects at all
        assert _counters(plain) == _counters(swapped)
        rules_section = swapped.metrics_dict()["rules"]
        assert rules_section["active_version"] == 2
        assert rules_section["swap_count"] == 1
        assert rules_section["pending_version"] is None
        # identity migration: every window kept, nothing expired
        assert rules_section["evidence_expired"] == 0
        assert rules_section["classes_expired"] == 0
        assert rules_section["evidence_migrated"] > 0

    def test_columnar_and_per_record_swaps_agree(
        self, swap_flowfile, tmp_path
    ):
        """Cross-loop: a real v1→v2 swap replays byte-identically
        through the row-at-a-time oracle and through the chunk loop —
        with two-row chunks, and with the whole file as one chunk so
        the boundary lands mid-chunk."""
        rules_v1, hitlist_v1 = world_v1()
        rules_v2, hitlist_v2 = world_v2()
        generation = RuleGeneration.prepare(2, rules_v2, hitlist_v2)

        record_log = tmp_path / "events-record.jsonl"
        with JsonlEventSink(record_log) as sink:
            oracle = streaming_assembly(rules_v1, hitlist_v1, sink=sink)
            oracle.stage.metrics.rules_active_version = 1
            oracle.stage.stage_swap(generation, activate_at=BOUNDARY)
            fold(oracle, read_tuples(swap_flowfile))
        whens = [row[0] for row in read_tuples(swap_flowfile)]
        assert whens[0] < BOUNDARY <= whens[-1]
        for chunk_size in (2, len(whens)):
            chunk_log = tmp_path / f"events-chunk-{chunk_size}.jsonl"
            with JsonlEventSink(chunk_log) as sink:
                engine = StreamDetectionEngine(
                    rules_v1,
                    hitlist_v1,
                    StreamConfig(chunk_size=chunk_size),
                    sink,
                    rules_version=1,
                )
                engine.stage_rules(generation, activate_at=BOUNDARY)
                engine.process_flowfile(swap_flowfile)
            assert record_log.read_bytes() == chunk_log.read_bytes()
            assert _counters(oracle.stage) == _counters(engine)
            assert (
                oracle.stage.metrics.to_dict()["rules"]
                == engine.metrics_dict()["rules"]
            )


class TestChangedRulesSwap:
    def test_post_swap_detections_match_fresh_v2_run(
        self, swap_flowfile, tmp_path
    ):
        rules_v1, hitlist_v1 = world_v1()
        rules_v2, hitlist_v2 = world_v2()
        engine = StreamDetectionEngine(
            rules_v1, hitlist_v1, rules_version=1
        )
        engine.stage_rules(
            RuleGeneration(2, rules_v2, hitlist_v2),
            activate_at=BOUNDARY,
        )
        engine.process_flowfile(swap_flowfile)
        swapped = _triples(engine.sink.events)

        fresh = StreamDetectionEngine(rules_v2, hitlist_v2)
        fresh.process_flowfile(swap_flowfile)
        fresh_triples = _triples(fresh.sink.events)

        v2_classes = set(rules_v2.class_names())
        # Surviving + added rules detect exactly as a fresh v2 run: the
        # kept camera evidence carried its windows across the swap.
        assert {
            t for t in swapped if t[1] in v2_classes
        } == fresh_triples
        assert any(t[1] == "camera" for t in fresh_triples)
        # The added rule fires only at/after the activation boundary.
        doorbells = [t for t in swapped if t[1] == "doorbell"]
        assert doorbells and all(t[2] >= BOUNDARY for t in doorbells)
        # The dropped rule's detections all predate the boundary; the
        # post-boundary hub flow (SUB4) no longer matches anything.
        hubs = [t for t in swapped if t[1] == "hub"]
        assert hubs and all(t[2] < BOUNDARY for t in hubs)

    def test_dropped_evidence_expired_with_counted_reasons(
        self, swap_flowfile, tmp_path
    ):
        rules_v1, hitlist_v1 = world_v1()
        rules_v2, hitlist_v2 = world_v2()
        engine = StreamDetectionEngine(
            rules_v1, hitlist_v1, rules_version=1
        )
        engine.stage_rules(
            RuleGeneration(2, rules_v2, hitlist_v2),
            activate_at=BOUNDARY,
        )
        engine.process_flowfile(swap_flowfile)
        section = engine.metrics_dict()["rules"]
        # Pre-boundary evidence: SUB1 {cam, hub}, SUB2 {hub}.  The swap
        # keeps SUB1's cam window, expires both hub windows, and expires
        # the satisfied hub class on both subscribers.
        assert section["evidence_migrated"] == 1
        assert section["evidence_expired"] == 2
        assert section["classes_expired"] == 2
        assert section["swap_count"] == 1
        assert section["active_version"] == 2


# -- checkpoint identity across rule versions (satellite) --------------


class TestCheckpointRuleIdentity:
    def _checkpointed_v1_run(self, tmp_path, swap_flowfile, stage=None):
        rules_v1, hitlist_v1 = world_v1()
        config = StreamConfig(checkpoint_dir=tmp_path / "ckpt")
        engine = StreamDetectionEngine(
            rules_v1, hitlist_v1, config, rules_version=1
        )
        if stage is not None:
            engine.stage_rules(stage, activate_at=BOUNDARY)
        engine.process_flowfile(swap_flowfile, max_records=3)
        engine.write_checkpoint()
        return config

    def test_resume_under_different_version_fails_loudly(
        self, tmp_path, swap_flowfile
    ):
        config = self._checkpointed_v1_run(tmp_path, swap_flowfile)
        rules_v2, hitlist_v2 = world_v2()
        with pytest.raises(RuleVersionMismatch) as excinfo:
            StreamDetectionEngine.resume(
                rules_v2, hitlist_v2, config, rules_version=2
            )
        error = excinfo.value
        assert error.checkpoint_version == 1
        assert error.active_version == 2
        # the remediation hint names both escape hatches
        assert "load_version(1)" in str(error)
        assert "--migrate-rules" in str(error)

    def test_resume_with_matching_version_succeeds(
        self, tmp_path, swap_flowfile
    ):
        config = self._checkpointed_v1_run(tmp_path, swap_flowfile)
        rules_v1, hitlist_v1 = world_v1()
        engine = StreamDetectionEngine.resume(
            rules_v1, hitlist_v1, config, rules_version=1
        )
        assert engine.rules_version == 1
        assert engine.records_processed == 3

    def test_resume_with_migration_crosses_generations(
        self, tmp_path, swap_flowfile
    ):
        config = self._checkpointed_v1_run(tmp_path, swap_flowfile)
        rules_v2, hitlist_v2 = world_v2()
        engine = StreamDetectionEngine.resume(
            rules_v2,
            hitlist_v2,
            config,
            rules_version=2,
            migrate_rules=True,
        )
        assert engine.rules_version == 2
        section = engine.metrics_dict()["rules"]
        assert section["evidence_migrated"] == 1  # SUB1's cam window
        assert section["evidence_expired"] == 2  # both hub windows
        assert section["classes_expired"] == 2
        engine.process_flowfile(swap_flowfile)
        late = _triples(engine.sink.events)
        assert any(
            sub_class == "doorbell" for _, sub_class, _ in late
        )  # v2 rules active after migration
        assert all(t[1] != "hub" or t[2] < BOUNDARY for t in late)

    def test_staged_swap_survives_the_checkpoint(
        self, tmp_path, swap_flowfile
    ):
        rules_v1, hitlist_v1 = world_v1()
        rules_v2, hitlist_v2 = world_v2()
        generation = RuleGeneration(2, rules_v2, hitlist_v2)
        config = StreamConfig(checkpoint_dir=tmp_path / "ckpt")
        log = tmp_path / "resumed.jsonl"
        with JsonlEventSink(log) as sink:
            engine = StreamDetectionEngine(
                rules_v1, hitlist_v1, config, sink, rules_version=1
            )
            engine.stage_rules(generation, activate_at=BOUNDARY)
            engine.process_flowfile(swap_flowfile, max_records=3)
            engine.write_checkpoint()
        with JsonlEventSink(log, resume=True) as sink:
            engine = StreamDetectionEngine.resume(
                rules_v1, hitlist_v1, config, sink, rules_version=1,
                rule_source=RuleSource({2: generation}.get),
            )
            # the checkpoint carried the staged-but-not-applied swap
            # and the engine put it back at the checkpointed boundary
            assert engine.checkpoint_pending_rules == (2, BOUNDARY)
            assert engine.pending_rules == PendingSwap(generation, BOUNDARY)
            engine.process_flowfile(swap_flowfile)
        assert engine.rules_version == 2

        full_log = tmp_path / "full.jsonl"
        with JsonlEventSink(full_log) as sink:
            uninterrupted = StreamDetectionEngine(
                rules_v1, hitlist_v1, sink=sink, rules_version=1
            )
            uninterrupted.stage_rules(generation, activate_at=BOUNDARY)
            uninterrupted.process_flowfile(swap_flowfile)
        assert log.read_bytes() == full_log.read_bytes()


# -- the engine's own rule source: reconcile on resume, poll in-loop ---


def _gen(version, world):
    return RuleGeneration(version, *world)


class TestEngineReconcile:
    """What four CLI helpers and the fleet worker used to do by hand:
    :meth:`StreamDetectionEngine.resume` with a ``rule_source``."""

    def _store(self, tmp_path, *worlds):
        store = VersionedRuleStore(tmp_path / "rules")
        for world in worlds:
            store.publish(*world)
        return store

    def _checkpoint_under_v1(self, tmp_path, swap_flowfile, stage=None):
        config = StreamConfig(checkpoint_dir=tmp_path / "ckpt")
        engine = StreamDetectionEngine(
            *world_v1(), config, rules_version=1
        )
        if stage is not None:
            engine.stage_rules(stage, activate_at=BOUNDARY)
        engine.process_flowfile(swap_flowfile, max_records=3)
        engine.write_checkpoint()
        return config

    def test_store_is_a_rule_source(self, tmp_path):
        store = self._store(tmp_path, world_v1(), world_v2())
        assert store.head() == 2
        generation = store.generation(1)
        assert generation.version == 1 and generation.index is not None
        assert rules_to_json(generation.rules) == rules_to_json(
            world_v1()[0]
        )
        assert store.generation(9) is None
        corrupt_payload_byte(artifact_path(store.directory, 2))
        assert store.head() == 1  # newest *readable*
        assert store.generation(2) is None
        assert VersionedRuleStore(tmp_path / "empty").head() == 0

    def test_a_head_the_store_cannot_load_is_a_refresh_failure(
        self, tmp_path, swap_flowfile
    ):
        """v2 is pruned between the poll's ``head()`` and its load: one
        failure, counted.  At the parent the counter was persisted and
        rendered but never incremented."""
        store = self._store(tmp_path, world_v1(), world_v2())

        def head():
            version = store.head()
            if version == 2:
                artifact_path(store.directory, 2).unlink()
            return version

        engine = StreamDetectionEngine(
            *world_v1(),
            StreamConfig(),
            rules_version=1,
            rule_source=RuleSource(store.generation, head, 2),
        )
        engine.process_flowfile(swap_flowfile)  # polls before 2 and 4
        section = engine.metrics_dict()["rules"]
        assert section["refresh_failures"] == 1
        assert section["active_version"] == 1
        assert section["swap_count"] == 0

    def test_source_cadence_needs_a_head(self):
        with pytest.raises(ValueError, match="head"):
            RuleSource(lambda version: None, refresh_every=10)
        with pytest.raises(ValueError, match=">= 0"):
            RuleSource(lambda version: None, refresh_every=-1)

    def test_head_is_newer_and_source_holds_the_checkpoints_version(
        self, tmp_path, swap_flowfile
    ):
        config = self._checkpoint_under_v1(tmp_path, swap_flowfile)
        store = self._store(tmp_path, world_v1(), world_v2())
        engine = StreamDetectionEngine.resume(
            *world_v2(),
            config,
            rules_version=2,
            rule_source=RuleSource(store.generation, store.head),
        )
        # resumed under the checkpoint's generation, not the supplied one
        assert engine.rules_version == 1
        assert "hub" in engine.rules
        assert engine.metrics_dict()["rules"]["evidence_expired"] == 0
        assert engine.records_processed == 3

    def test_source_pruned_the_checkpoints_version(
        self, tmp_path, swap_flowfile
    ):
        config = self._checkpoint_under_v1(tmp_path, swap_flowfile)
        store = self._store(tmp_path, world_v1(), world_v2())
        artifact_path(store.directory, 1).unlink()
        with pytest.raises(RuleVersionMismatch) as excinfo:
            StreamDetectionEngine.resume(
                *world_v2(),
                config,
                rules_version=2,
                rule_source=RuleSource(store.generation, store.head),
            )
        assert str(excinfo.value) == str(RuleVersionMismatch(1, 2))
        assert "load_version(1)" in str(excinfo.value)
        assert "--migrate-rules" in str(excinfo.value)

    def test_pending_swap_is_restaged_at_the_checkpointed_boundary(
        self, tmp_path, swap_flowfile
    ):
        # staged at an odd boundary no poll would ever pick
        odd = BOUNDARY + 150
        config = StreamConfig(checkpoint_dir=tmp_path / "ckpt")
        engine = StreamDetectionEngine(
            *world_v1(), config, rules_version=1
        )
        engine.stage_rules(_gen(2, world_v2()), activate_at=odd)
        engine.process_flowfile(swap_flowfile, max_records=3)
        engine.write_checkpoint()
        store = self._store(tmp_path, world_v1(), world_v2())
        resumed = StreamDetectionEngine.resume(
            *world_v1(),
            config,
            rules_version=1,
            rule_source=RuleSource(store.generation, store.head, 1),
        )
        assert resumed.checkpoint_pending_rules == (2, odd)
        assert resumed.pending_rules.generation.version == 2
        assert resumed.pending_rules.activate_at == odd
        # polling every record re-stages nothing: head == pending
        resumed.process_flowfile(swap_flowfile)
        section = resumed.metrics_dict()["rules"]
        assert section["active_version"] == 2
        assert section["swap_count"] == 1
        # SUB3's camera flow at BOUNDARY + 100 predates the odd
        # boundary: it was folded under v1, SUB2's doorbell under v2
        assert [
            (e.class_name, e.detected_at) for e in resumed.sink.events
        ][-2:] == [("camera", BOUNDARY + 100), ("doorbell", BOUNDARY + 200)]

    def test_pending_generation_gone_resumes_and_still_reports_it(
        self, tmp_path, swap_flowfile, caplog
    ):
        config = self._checkpoint_under_v1(
            tmp_path, swap_flowfile, stage=_gen(2, world_v2())
        )
        store = self._store(tmp_path, world_v1())  # v2 never published
        with caplog.at_level("WARNING", logger="repro.stream.processor"):
            engine = StreamDetectionEngine.resume(
                *world_v1(),
                config,
                rules_version=1,
                rule_source=RuleSource(store.generation, store.head),
            )
        assert engine.checkpoint_pending_rules == (2, BOUNDARY)
        assert engine.pending_rules is None
        assert engine.metrics_dict()["rules"]["pending_version"] is None
        warnings = [r for r in caplog.records if "rules v2" in r.message]
        assert len(warnings) == 1
        engine.process_flowfile(swap_flowfile)
        assert engine.rules_version == 1  # ran on, under v1

    def test_migrate_rules_takes_precedence_over_the_source(
        self, tmp_path, swap_flowfile
    ):
        config = self._checkpoint_under_v1(
            tmp_path, swap_flowfile, stage=_gen(2, world_v2())
        )
        store = self._store(tmp_path, world_v1(), world_v2())
        engine = StreamDetectionEngine.resume(
            *world_v2(),
            config,
            rules_version=2,
            migrate_rules=True,
            rule_source=RuleSource(store.generation, store.head),
        )
        assert engine.rules_version == 2  # not the source's v1
        assert engine.metrics_dict()["rules"]["evidence_expired"] == 2
        # the checkpointed pending v2 is what is now active: not re-staged
        assert engine.checkpoint_pending_rules == (2, BOUNDARY)
        assert engine.pending_rules is None


_POLL_RECORDS = 2_000
_POLL_EVERY = 500


@pytest.fixture(scope="module")
def poll_flowfile(tmp_path_factory):
    """2,000 flows, one every 4 s (~2.2 h): long enough for four poll
    positions and a swap boundary between them."""
    endpoints = (CAM_IP, HUB_IP, NEW_IP)
    path = tmp_path_factory.mktemp("rules_poll") / "flows.csv"
    write_flow_file(
        path,
        [
            _mkflow(
                0x0A000000 + (i % 200), endpoints[i % 3], STUDY_START + i * 4
            )
            for i in range(_POLL_RECORDS)
        ],
    )
    return path


class _RecordingSource:
    """A rule source that notes where in the stream it is polled."""

    def __init__(self):
        self.polls = []
        self.engine = None

    def head(self):
        self.polls.append(self.engine.records_processed)
        return 0

    def attach(self, build):
        self.engine = build(
            RuleSource(lambda version: None, self.head, _POLL_EVERY)
        )
        return self.engine


class TestEnginePoll:
    """The poll is the chunk loop's third cut point: before folding
    record ``k * N`` (``k >= 1``), whatever the chunking."""

    def _fresh(self, source, **config):
        return source.attach(
            lambda rule_source: StreamDetectionEngine(
                *world_v1(),
                StreamConfig(**config),
                rules_version=1,
                rule_source=rule_source,
            )
        )

    @pytest.mark.parametrize("chunk_size", [64, 768, 65536])
    def test_polls_land_on_the_same_records_for_any_chunk_size(
        self, poll_flowfile, chunk_size
    ):
        source = _RecordingSource()
        engine = self._fresh(source, chunk_size=chunk_size)
        assert engine.process_flowfile(poll_flowfile) == _POLL_RECORDS
        # never at 0, and not at 2000: no record 2000 follows
        assert source.polls == [500, 1000, 1500]

    @pytest.mark.parametrize("segment", [1, 137, 500, 1250])
    def test_polls_are_independent_of_call_segmentation(
        self, poll_flowfile, segment
    ):
        source = _RecordingSource()
        engine = self._fresh(source, chunk_size=300)
        while engine.process_flowfile(poll_flowfile, max_records=segment):
            pass
        assert engine.records_processed == _POLL_RECORDS
        assert source.polls == [500, 1000, 1500]

    def test_checkpoints_and_polls_cut_the_same_chunk(
        self, poll_flowfile, tmp_path
    ):
        source = _RecordingSource()
        engine = self._fresh(
            source,
            chunk_size=65536,
            checkpoint_dir=tmp_path / "ckpt",
            checkpoint_every=300,
            checkpoint_keep=10,
        )
        engine.process_flowfile(poll_flowfile)
        assert source.polls == [500, 1000, 1500]
        assert [
            seq for seq, _ in list_checkpoints(tmp_path / "ckpt")
        ] == [300, 600, 900, 1200, 1500, 1800]

    def test_a_resume_landing_on_a_multiple_polls_there(
        self, poll_flowfile, tmp_path
    ):
        config = StreamConfig(checkpoint_dir=tmp_path / "ckpt")
        first = _RecordingSource()
        killed = first.attach(
            lambda rule_source: StreamDetectionEngine(
                *world_v1(), config, rules_version=1,
                rule_source=rule_source,
            )
        )
        killed.process_flowfile(poll_flowfile, max_records=1000)
        killed.write_checkpoint()
        # stopped *on* record 1000: the poll before it has not happened
        assert first.polls == [500]
        second = _RecordingSource()
        resumed = second.attach(
            lambda rule_source: StreamDetectionEngine.resume(
                *world_v1(), config, rules_version=1,
                rule_source=rule_source,
            )
        )
        resumed.process_flowfile(poll_flowfile)
        assert second.polls == [1000, 1500]

    def test_a_newer_head_is_staged_once_for_the_next_hour(
        self, poll_flowfile, tmp_path
    ):
        """End to end in the engine: the poll at record 500 finds v2,
        stages it for the next hour boundary, later polls are no-ops,
        and the log equals a run staged by hand at that boundary."""
        generation = _gen(2, world_v2())

        def run(tag, source=None):
            log = tmp_path / f"{tag}.jsonl"
            with JsonlEventSink(log) as sink:
                engine = StreamDetectionEngine(
                    *world_v1(), StreamConfig(chunk_size=64), sink,
                    rules_version=1, rule_source=source,
                )
                if source is None:
                    engine.stage_rules(generation, activate_at=BOUNDARY)
                engine.process_flowfile(poll_flowfile)
            return log, engine

        by_hand_log, by_hand = run("by-hand")
        polled_log, polled = run(
            "polled",
            RuleSource({2: generation}.get, lambda: 2, _POLL_EVERY),
        )
        # record 500 is at STUDY_START + 2000 s: next hour == BOUNDARY
        assert polled_log.read_bytes() == by_hand_log.read_bytes()
        assert (
            polled.metrics_dict()["rules"]
            == by_hand.metrics_dict()["rules"]
        )
        assert polled.metrics_dict()["rules"]["swap_count"] == 1


# -- the CLI on top: flags in, notices out, nothing else ---------------


def _publish(store_dir, world):
    VersionedRuleStore(store_dir).publish(*world)


def _stream_cli(tmp_path, flows, tag, *extra, top=()):
    from repro import cli

    metrics = tmp_path / f"metrics-{tag}.json"
    code = cli.main(
        [
            *top,
            "stream", "run", str(flows),
            "--hitlist-dir", str(tmp_path / "store"),
            "--checkpoint-dir", str(tmp_path / f"ckpt-{tag}"),
            "--checkpoint-every", "4",
            "--events-out", str(tmp_path / f"events-{tag}.jsonl"),
            "--stream-metrics-out", str(metrics),
            *extra,
        ]
    )
    document = json.loads(metrics.read_text()) if metrics.exists() else None
    return code, document


class TestCliRefresh:
    def test_refresh_soak_in_process(self, tmp_path, swap_flowfile, capsys):
        """CI's "refresh soak", on the swap corpus: an uninterrupted
        run polling an unchanging store, against a run SIGTERMed at
        record 1, a (content-identical) v2 published while it is down,
        and a ``--resume`` that restarts under the checkpointed v1,
        polls, stages v2 and hot-swaps at the hour boundary."""
        _publish(tmp_path / "store", world_v1())
        refresh = ("--hitlist-refresh-every", "2")
        code, _ = _stream_cli(tmp_path, swap_flowfile, "full", *refresh)
        assert code == 0
        code, killed = _stream_cli(
            tmp_path, swap_flowfile, "killed", *refresh,
            "--inject-sigterm-at", "1",
            top=("--drain-grace", "60"),
        )
        assert code == 3  # drained resumably
        assert killed["throughput"]["records"] == 1
        _publish(tmp_path / "store", world_v1())  # v2: an identity swap
        capsys.readouterr()
        code, resumed = _stream_cli(
            tmp_path, swap_flowfile, "killed", *refresh, "--resume"
        )
        assert code == 0
        stderr = capsys.readouterr().err
        assert "# resuming under checkpointed rules v1" in stderr
        # the identity swap is invisible in the event log...
        assert (tmp_path / "events-full.jsonl").read_bytes() == (
            tmp_path / "events-killed.jsonl"
        ).read_bytes()
        assert (tmp_path / "events-full.jsonl").stat().st_size > 0
        # ...but visible in the metrics
        assert resumed["throughput"]["records"] == len(SWAP_FLOWS)
        assert resumed["rules"]["active_version"] == 2
        assert resumed["rules"]["swap_count"] == 1
        assert resumed["rules"]["pending_version"] is None

    def test_a_pruned_generation_is_a_resume_error(
        self, tmp_path, swap_flowfile, capsys
    ):
        _publish(tmp_path / "store", world_v1())
        code, _ = _stream_cli(
            tmp_path, swap_flowfile, "run", "--max-records", "3"
        )
        assert code == 0
        _publish(tmp_path / "store", world_v2())
        artifact_path(tmp_path / "store", 1).unlink()
        capsys.readouterr()
        code, _ = _stream_cli(tmp_path, swap_flowfile, "run", "--resume")
        assert code == 2
        assert (
            f"error: cannot resume: {RuleVersionMismatch(1, 2)}"
            in capsys.readouterr().err
        )

    def _with_a_malformed_line(self, tmp_path, swap_flowfile):
        lines = swap_flowfile.read_text().splitlines(keepends=True)
        lines.insert(2, "1,2,3\n")
        path = tmp_path / "flows-bad.csv"
        path.write_text("".join(lines))
        return path

    def test_malformed_line_is_quarantined_once_with_refresh_on(
        self, tmp_path, swap_flowfile
    ):
        """At the parent every ``--hitlist-refresh-every`` segment
        re-decoded the file from byte 0 and re-quarantined its bad
        lines: 4 here instead of 1."""
        flows = self._with_a_malformed_line(tmp_path, swap_flowfile)
        _publish(tmp_path / "store", world_v1())
        sections = {}
        for tag, extra in (
            ("plain", ()),
            ("refresh", ("--hitlist-refresh-every", "2")),
        ):
            quarantine = tmp_path / f"quarantine-{tag}"
            code, document = _stream_cli(
                tmp_path, flows, tag, *extra,
                top=("--quarantine-dir", str(quarantine)),
            )
            assert code == 0
            sections[tag] = document["quarantine"]
            samples = (quarantine / "quarantine.jsonl").read_text()
            assert len(samples.splitlines()) == 1
        assert sections["plain"] == {
            "total": 1,
            "by_reason": {"malformed_line": 1},
        }
        assert sections["refresh"] == sections["plain"]
        assert (tmp_path / "events-plain.jsonl").read_bytes() == (
            tmp_path / "events-refresh.jsonl"
        ).read_bytes()

    def test_a_malformed_line_before_the_sigterm_is_quarantined_once(
        self, tmp_path, swap_flowfile
    ):
        """``--inject-sigterm-at`` splits one decode pass.  At the
        parent the fold after the signal decoded the file again from
        byte 0 and quarantined the line a second time."""
        flows = self._with_a_malformed_line(tmp_path, swap_flowfile)
        _publish(tmp_path / "store", world_v1())
        quarantine = tmp_path / "quarantine"
        code, document = _stream_cli(
            tmp_path, flows, "killed", "--inject-sigterm-at", "4",
            top=("--quarantine-dir", str(quarantine),
                 "--drain-grace", "60"),
        )
        assert code == 3  # drained resumably
        assert document["throughput"]["records"] == 4
        assert document["quarantine"] == {
            "total": 1,
            "by_reason": {"malformed_line": 1},
        }
        samples = (quarantine / "quarantine.jsonl").read_text()
        assert len(samples.splitlines()) == 1

    def test_the_file_is_decoded_once_however_many_polls(
        self, tmp_path, swap_flowfile, monkeypatch
    ):
        """No clock: count decode passes and rows decoded.  At the
        parent each refresh segment opened and decoded the file again
        (7 passes, 42 rows decoded for this 6-row file)."""
        from repro.netflow.parse import ColumnarDecodeStage

        passes, rows = [], []
        decode_blocks = ColumnarDecodeStage._decode_blocks

        def counting(self, source):
            passes.append(source)
            for block in decode_blocks(self, source):
                rows.append(len(block[0]))
                yield block

        monkeypatch.setattr(
            ColumnarDecodeStage, "_decode_blocks", counting
        )
        _publish(tmp_path / "store", world_v1())
        code, document = _stream_cli(
            tmp_path, swap_flowfile, "once",
            "--hitlist-refresh-every", "1",
        )
        assert code == 0
        assert document["throughput"]["records"] == len(SWAP_FLOWS)
        assert len(passes) == 1
        assert sum(rows) == len(SWAP_FLOWS)
