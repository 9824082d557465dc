"""The fleet fault matrix: every fault, still byte-identical.

Each cell injects one fault from :data:`repro.faults.FLEET_FAULT_KINDS`
into an N-worker run and asserts the merged event log is byte-identical
to the unfaulted single-engine reference — recovery that loses, dupes,
or reorders even one event fails the ``cmp``.  ``chunk_size`` stays
far below the corpus: the default 65536 would route it in so few
batches that no fault schedule reaches its batch.  Run with
``-m faults``.
"""

from __future__ import annotations

import pytest

from repro.faults import FLEET_FAULT_KINDS, FleetPlan
from repro.fleet import FleetConfig, RouterCrash, run_fleet
from repro.pipeline.events import JsonlEventSink
from repro.pipeline.swap import RuleGeneration
from repro.stream import StreamConfig, StreamDetectionEngine

pytestmark = pytest.mark.faults


@pytest.fixture(scope="module")
def reference(rules, hitlist, gt_flowfile, tmp_path_factory):
    log = tmp_path_factory.mktemp("fleet-faults-ref") / "single.jsonl"
    engine = StreamDetectionEngine(
        rules, hitlist, StreamConfig(), sink=JsonlEventSink(log)
    )
    engine.process_flowfile(gt_flowfile)
    engine.drain()
    engine.sink.close()
    return log.read_bytes()


def test_fault_kinds_are_the_documented_matrix():
    assert FLEET_FAULT_KINDS == (
        "worker_crash",
        "worker_hang",
        "router_crash",
        "rebalance_during_swap",
    )


class TestWorkerCrash:
    def test_restart_resumes_from_checkpoint(
        self, rules, hitlist, gt_flowfile, reference, tmp_path
    ):
        out = tmp_path / "merged.jsonl"
        code, service = run_fleet(
            rules,
            hitlist,
            gt_flowfile,
            tmp_path / "fleet",
            out,
            FleetConfig(
                workers=4,
                engine=StreamConfig(
                    chunk_size=2048, checkpoint_every=4000
                ),
                max_restarts=1,
            ),
            plan=FleetPlan(kind="worker_crash", worker=1, at_batch=6),
        )
        assert code == 0
        assert service.metrics.restarts == 1
        assert service.metrics.rebalances == 0
        assert service.metrics.worker(1).incarnation == 1
        assert out.read_bytes() == reference

    def test_quarantine_rebalances_onto_successor(
        self, rules, hitlist, gt_flowfile, reference, tmp_path
    ):
        out = tmp_path / "merged.jsonl"
        code, service = run_fleet(
            rules,
            hitlist,
            gt_flowfile,
            tmp_path / "fleet",
            out,
            FleetConfig(
                workers=4,
                engine=StreamConfig(
                    chunk_size=2048, checkpoint_every=4000
                ),
                max_restarts=0,
            ),
            plan=FleetPlan(kind="worker_crash", worker=2, at_batch=6),
        )
        assert code == 0
        assert service.metrics.rebalances == 1
        assert service.metrics.ring_epoch == 1
        assert service.metrics.worker(2).quarantined
        assert service.ring is not None
        assert service.ring.quarantined == [2]
        # the dead worker's slots all moved to the cyclic successor
        assert service.ring.slots_of(2) == []
        assert out.read_bytes() == reference


class TestWorkerHang:
    def test_hang_is_detected_by_ack_progress_and_killed(
        self, rules, hitlist, gt_flowfile, reference, tmp_path
    ):
        out = tmp_path / "merged.jsonl"
        code, service = run_fleet(
            rules,
            hitlist,
            gt_flowfile,
            tmp_path / "fleet",
            out,
            FleetConfig(
                workers=2,
                engine=StreamConfig(
                    chunk_size=2048, checkpoint_every=4000
                ),
                max_restarts=1,
                hang_timeout=1.0,
            ),
            plan=FleetPlan(
                kind="worker_hang",
                worker=0,
                at_batch=8,
                hang_seconds=30.0,
            ),
        )
        assert code == 0
        assert service.metrics.hangs_detected == 1
        assert service.metrics.restarts == 1
        assert out.read_bytes() == reference


class TestRouterCrash:
    def test_whole_fleet_resume_after_router_death(
        self, rules, hitlist, gt_flowfile, reference, tmp_path
    ):
        out = tmp_path / "merged.jsonl"
        config = FleetConfig(
            workers=4,
            engine=StreamConfig(chunk_size=2048, checkpoint_every=3000),
        )
        with pytest.raises(RouterCrash):
            run_fleet(
                rules,
                hitlist,
                gt_flowfile,
                tmp_path / "fleet",
                out,
                config,
                plan=FleetPlan(kind="router_crash", at_batch=40),
            )
        code, service = run_fleet(
            rules,
            hitlist,
            gt_flowfile,
            tmp_path / "fleet",
            out,
            config,
            resume=True,
        )
        assert code == 0
        # the resume skipped every record a worker had checkpointed
        assert service.metrics.records_skipped > 0
        assert out.read_bytes() == reference


class TestRebalanceDuringSwap:
    def test_quarantine_with_a_staged_generation_pending(
        self, rules, hitlist, gt_flows, gt_flowfile, tmp_path
    ):
        # stage a v2 swap to activate mid-stream, then kill a worker
        # before the boundary: the successor adopts evidence *and* the
        # pending swap must survive into the reborn/merged output
        activate_at = gt_flows[len(gt_flows) // 2].first_switched
        generation = RuleGeneration.prepare(2, rules, hitlist)
        log = tmp_path / "single.jsonl"
        engine = StreamDetectionEngine(
            rules,
            hitlist,
            StreamConfig(),
            sink=JsonlEventSink(log),
        )
        engine.stage_rules(
            RuleGeneration.prepare(2, rules, hitlist), activate_at
        )
        engine.process_flowfile(gt_flowfile)
        engine.drain()
        engine.sink.close()
        assert engine.rules_version == 2

        out = tmp_path / "merged.jsonl"
        code, service = run_fleet(
            rules,
            hitlist,
            gt_flowfile,
            tmp_path / "fleet",
            out,
            FleetConfig(
                workers=4,
                engine=StreamConfig(
                    chunk_size=2048, checkpoint_every=4000
                ),
                max_restarts=0,
            ),
            staged=(generation, activate_at),
            plan=FleetPlan(
                kind="rebalance_during_swap", worker=1, at_batch=6
            ),
        )
        assert code == 0
        assert service.metrics.rebalances == 1
        assert out.read_bytes() == log.read_bytes()
