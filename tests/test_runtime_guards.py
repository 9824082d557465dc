"""Runtime guards: graceful shutdown, memory budgets, deadlines.

The contracts under test (see :mod:`repro.runtime`):

* a **real** SIGTERM — delivered by the kernel via ``os.kill``, not a
  mocked handler — at *any* record index drains the stream engine to a
  resumable checkpoint, and the resumed run's event log is
  byte-identical to an uninterrupted run's;
* a run under an RSS budget smaller than its natural peak completes
  (never OOM-killed), every shed action is counted in the
  ``"overload"`` metrics section, and subscribers whose evidence was
  never shed get exactly the detections an unconstrained run gives
  them;
* a deadline ends batch and stream runs early with partial results
  explicitly marked ``degraded``.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time

import pytest

from repro.faults import MemoryPressurePlan
from repro.netflow.flowfile import write_flow_file
from repro.netflow.parse import chunks_from_records
from repro.netflow.records import (
    FlowKey,
    FlowRecord,
    PROTO_TCP,
    TCP_ACK,
)
from repro.resilience.supervisor import (
    ShardSupervisor,
    SupervisorConfig,
    _HeartbeatWriter,
    _read_heartbeat,
)
from repro.runtime import (
    EXIT_DRAINED,
    DeadlineBudget,
    MemoryGovernor,
    OverloadMetrics,
    ShutdownCoordinator,
    StopToken,
    current_token,
    parse_memory_size,
    read_rss_bytes,
)
from repro.stream import JsonlEventSink, StreamConfig, StreamDetectionEngine
from repro.timeutil import SECONDS_PER_DAY, STUDY_START
from tests.conftest import triples, write_artifacts


# -- shared replay material -------------------------------------------


@pytest.fixture(scope="module")
def pressure_flowfile(gt_flows, hitlist, tmp_path_factory):
    """Ground truth plus thousands of filler subscriber lines, each
    touching one hitlist endpoint.

    The ground-truth capture has <100 distinct subscribers — far too
    few to ever exceed the minimum state-table bound a pressure shrink
    respects — so the memory-budget tests replay this widened stream,
    whose table occupancy reaches the thousands.
    """
    daily = hitlist.daily_endpoints
    days = sorted(daily)
    filler = []
    for i in range(4096):
        day = days[i % len(days)]
        (dst, port), _fqdn = next(iter(daily[day].items()))
        when = (
            STUDY_START
            + day * SECONDS_PER_DAY
            + (i * 7919) % SECONDS_PER_DAY
        )
        filler.append(
            FlowRecord(
                key=FlowKey(
                    src_ip=0x0C000000 + i,
                    dst_ip=dst,
                    protocol=PROTO_TCP,
                    src_port=40000,
                    dst_port=port,
                ),
                first_switched=when,
                last_switched=when + 59,
                packets=3,
                bytes=300,
                tcp_flags=TCP_ACK,
            )
        )
    flows = sorted(
        list(gt_flows) + filler, key=lambda flow: flow.first_switched
    )
    path = tmp_path_factory.mktemp("pressure") / "flows.csv"
    write_flow_file(path, flows)
    return path


# -- primitives -------------------------------------------------------


class TestPrimitives:
    @pytest.mark.parametrize(
        ("text", "expected"),
        [
            ("1024", 1024),
            ("512M", 512 << 20),
            ("1.5GiB", int(1.5 * (1 << 30))),
            ("2g", 2 << 30),
            ("64KB", 64 << 10),
        ],
    )
    def test_parse_memory_size(self, text, expected):
        assert parse_memory_size(text) == expected

    @pytest.mark.parametrize("text", ["", "fast", "-5M", "0"])
    def test_parse_memory_size_rejects(self, text):
        with pytest.raises(ValueError):
            parse_memory_size(text)

    def test_read_rss_is_plausible(self):
        rss = read_rss_bytes()
        # A CPython process with numpy loaded sits well above 10 MB
        # and (in this suite) below 100 GB.
        assert 10 << 20 < rss < 100 << 30

    def test_stop_token_first_reason_wins(self):
        token = StopToken()
        assert not token.stop_requested()
        token.stop("signal:SIGTERM")
        token.stop("deadline")
        assert token.stop_requested()
        assert token.reason == "signal:SIGTERM"

    def test_deadline_expiry_is_sticky(self):
        now = [0.0]
        deadline = DeadlineBudget(1.0, clock=lambda: now[0])
        assert not deadline.expired()
        now[0] = 2.0
        assert deadline.expired()
        now[0] = 0.5  # clock anomalies cannot un-expire the budget
        assert deadline.expired()
        assert deadline.reason == "deadline"

    def test_governor_paces_sheds_with_cooldown(self):
        governor = MemoryGovernor(
            budget_bytes=1000,
            headroom=0.9,
            sample_every=10,
            cooldown=2,
            sampler=lambda: 5000,  # always over budget
        )
        sheds = [governor.tick(10) for _ in range(9)]
        # shed, cooldown x2, shed, cooldown x2, ...
        assert sheds == [
            True, False, False, True, False, False, True, False, False,
        ]
        assert governor.metrics.pressure_events == 9
        assert governor.metrics.rss_peak_bytes == 5000
        assert governor.metrics.rss_samples == 9

    def test_governor_stride_skips_sampling(self):
        samples = []

        def sampler():
            samples.append(1)
            return 0

        governor = MemoryGovernor(
            budget_bytes=1000, sample_every=100, sampler=sampler
        )
        for _ in range(99):
            assert governor.tick(1) is False
        assert samples == []
        governor.tick(1)
        assert len(samples) == 1

    def test_overload_degraded_semantics(self):
        assert not OverloadMetrics().degraded
        # a pure signal drain is resumable, hence NOT degraded
        assert not OverloadMetrics(stop_reason="signal:SIGTERM").degraded
        assert OverloadMetrics(stop_reason="deadline").degraded
        shed = OverloadMetrics()
        shed.record_action("table_shrink", units=7)
        assert shed.entries_shed == 7 and shed.degraded
        assert OverloadMetrics(partial=True).degraded


class TestShutdownCoordinator:
    def test_current_token_scoping(self):
        assert current_token() is None
        token = StopToken()
        with ShutdownCoordinator(token):
            assert current_token() is token
            inner = StopToken()
            with ShutdownCoordinator(inner):
                assert current_token() is inner
            assert current_token() is token
        assert current_token() is None

    def test_real_signal_flips_token_and_restores_handler(self):
        previous = signal.getsignal(signal.SIGTERM)
        token = StopToken()
        with ShutdownCoordinator(token):
            os.kill(os.getpid(), signal.SIGTERM)
            assert token.stop_requested()
            assert token.reason == "signal:SIGTERM"
        assert signal.getsignal(signal.SIGTERM) is previous

    def test_second_signal_escalates(self):
        """The first SIGTERM drains; the second restores the original
        disposition and re-raises — here remapped to a flag so the
        test survives its own escalation."""
        escalated = []
        original = signal.signal(
            signal.SIGTERM, lambda *_: escalated.append(1)
        )
        try:
            token = StopToken()
            with ShutdownCoordinator(token):
                os.kill(os.getpid(), signal.SIGTERM)
                assert token.stop_requested() and not escalated
                os.kill(os.getpid(), signal.SIGTERM)
                assert escalated == [1]
        finally:
            signal.signal(signal.SIGTERM, original)

    def test_grace_timer_armed_then_cancelled(self):
        token = StopToken()
        with ShutdownCoordinator(token, grace=30.0) as coordinator:
            os.kill(os.getpid(), signal.SIGINT)
            assert token.reason == "signal:SIGINT"
            assert coordinator._grace_timer is not None
        # a clean exit cancels the force-exit timer
        assert coordinator._grace_timer is None


# -- an unspent deadline at ingest -------------------------------------


class TestIngestShed:
    def test_unexpired_deadline_is_transparent(
        self, rules, hitlist, gt_flows
    ):
        engine = StreamDetectionEngine(
            rules, hitlist, deadline=DeadlineBudget(3600.0)
        )
        assert engine.process_chunks(
            chunks_from_records(gt_flows[:512], 64)
        ) == 512
        assert not engine.stopped
        overload = engine.metrics_dict()["overload"]
        assert overload["ingest_dropped"] == {}
        assert overload["degraded"] is False


# -- signal soak: real kills at arbitrary record indices --------------


def _fold_with_sigterm(engine, flowfile, kill=None):
    """Fold ``flowfile``; with ``kill``, deliver a real SIGTERM — the
    kernel's, through whatever handler is installed — once exactly
    ``kill`` records have folded (what ``--inject-sigterm-at`` does)."""
    if kill is not None:
        assert engine.process_flowfile(flowfile, max_records=kill) == kill
        os.kill(os.getpid(), signal.SIGTERM)
    engine.process_flowfile(flowfile)


@pytest.mark.soak
class TestSignalSoak:
    @pytest.mark.parametrize("kill_at", [1, 777, 12_345, 33_333])
    def test_sigterm_at_any_index_resumes_bit_identical(
        self, rules, hitlist, gt_flowfile, tmp_path, kill_at
    ):
        """A real kernel-delivered SIGTERM mid-stream (not a mock, not
        a ``max_records`` stand-in) drains to a checkpoint at the exact
        stop point; the resumed event log is byte-identical."""

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
                        rules, hitlist, config, sink, stop_token=token
                    )
                    _fold_with_sigterm(engine, gt_flowfile, kill)
                    if engine.stopped:
                        assert engine.drain() is not None
            if kill is not None:
                assert token.reason == "signal:SIGTERM"
                assert engine.stopped
                # Stopped on the signalled record exactly, nowhere near
                # the next checkpoint_every multiple.
                assert engine.records_processed == kill
                with JsonlEventSink(log, resume=True) as sink:
                    engine = StreamDetectionEngine.resume(
                        rules, hitlist, config, sink
                    )
                    assert engine.records_processed == kill
                    engine.process_flowfile(gt_flowfile)
            return log

        full = run("full")
        resumed = run("killed", kill=kill_at)
        assert full.read_bytes() == resumed.read_bytes()

    def test_drained_metrics_not_degraded(
        self, rules, hitlist, gt_flowfile, tmp_path
    ):
        """A signal drain is a pause, not a loss: the metrics must say
        so (stop_reason set, degraded false)."""
        config = StreamConfig(
            checkpoint_dir=tmp_path / "ckpt", checkpoint_every=10_000
        )
        token = StopToken()
        with ShutdownCoordinator(token):
            engine = StreamDetectionEngine(
                rules, hitlist, config, stop_token=token
            )
            _fold_with_sigterm(engine, gt_flowfile, 5_000)
            engine.drain()
        assert engine.records_processed == 5_000
        overload = engine.metrics_dict()["overload"]
        assert overload["stop_reason"] == "signal:SIGTERM"
        assert overload["degraded"] is False


@pytest.mark.soak
class TestCliSignalSoak:
    def _cli(self, args, cwd):
        env = dict(os.environ)
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        env["PYTHONPATH"] = os.path.join(root, "src")
        return subprocess.run(
            [sys.executable, "-m", "repro", *args],
            cwd=cwd,
            env=env,
            capture_output=True,
            text=True,
            timeout=300,
        )

    def test_cli_sigterm_drain_and_resume(
        self, rules, hitlist, gt_flowfile, tmp_path
    ):
        """End-to-end through ``python -m repro``: SIGTERM mid-run
        exits with the drained code (3), ``--resume`` completes with 0,
        and the final event log matches an uninterrupted run's bytes."""
        artifacts = write_artifacts(tmp_path / "artifacts", rules, hitlist)

        def stream_args(tag, extra=()):
            return [
                "stream", "run", str(gt_flowfile),
                "--artifacts", str(artifacts),
                "--checkpoint-dir", str(tmp_path / f"ckpt-{tag}"),
                "--checkpoint-every", "10000",
                "--events-out", str(tmp_path / f"events-{tag}.jsonl"),
                "--stream-metrics-out",
                str(tmp_path / f"metrics-{tag}.json"),
                *extra,
            ]

        clean = self._cli(stream_args("full"), tmp_path)
        assert clean.returncode == 0, clean.stderr

        killed = self._cli(
            # --drain-grace is a top-level flag, before the subcommand
            ["--drain-grace", "60"]
            + stream_args(
                "killed", extra=["--inject-sigterm-at", "23456"]
            ),
            tmp_path,
        )
        assert killed.returncode == EXIT_DRAINED, killed.stderr
        assert "draining to checkpoint" in killed.stderr
        metrics = json.loads(
            (tmp_path / "metrics-killed.json").read_text()
        )
        assert metrics["overload"]["stop_reason"] == "signal:SIGTERM"
        assert metrics["overload"]["degraded"] is False  # resumable
        # the chunk loop drained on the injected index exactly
        assert metrics["throughput"]["records"] == 23456

        resumed = self._cli(
            stream_args("killed", extra=["--resume"]), tmp_path
        )
        assert resumed.returncode == 0, resumed.stderr
        assert (tmp_path / "events-full.jsonl").read_bytes() == (
            tmp_path / "events-killed.jsonl"
        ).read_bytes()


# -- memory budget: shed, never OOM -----------------------------------


@pytest.mark.soak
class TestMemoryBudget:
    def test_budget_below_peak_sheds_and_completes(
        self, rules, hitlist, pressure_flowfile
    ):
        """An RSS budget below the process's real RSS forces the shed
        ladder; the run still completes, every action is counted, and
        unshedded subscribers match the unconstrained run exactly."""
        baseline = StreamDetectionEngine(rules, hitlist)
        baseline.process_flowfile(pressure_flowfile)
        baseline_events = triples(baseline.sink.events)
        assert baseline_events  # the stream detects at all

        # The interpreter already sits far above 32 MiB, so the real
        # sampler reports pressure from the first sample on: the run's
        # natural peak exceeds the budget by construction.
        governor = MemoryGovernor(
            parse_memory_size("32MiB"), sample_every=4096, cooldown=2
        )
        # Guards are polled once per chunk: chunks no larger than the
        # sampling stride give this short stream enough polls to climb
        # past the ladder's lossless first rung.
        engine = StreamDetectionEngine(
            rules,
            hitlist,
            StreamConfig(chunk_size=4096),
            governor=governor,
        )
        processed = engine.process_flowfile(pressure_flowfile)
        assert processed > 0  # completed, not OOM-killed

        document = engine.metrics_dict()
        overload = document["overload"]
        assert overload["memory_budget_bytes"] == 32 << 20
        assert overload["pressure_events"] > 0
        assert overload["shed_actions"].get("gc_collect", 0) > 0
        assert overload["shed_actions"].get("table_shrink", 0) > 0
        assert overload["shed_units"]["table_shrink"] > 0
        assert overload["degraded"] is True
        assert (
            document["state"]["evicted_pressure"]
            >= overload["shed_units"]["table_shrink"]
        )

        # Evidence really was shed...
        shed = engine.shed_subscribers
        assert shed
        # ...but subscribers never shed keep exactly the detections an
        # unconstrained run gives them.
        constrained = triples(engine.sink.events)
        expected_unshedded = {
            triple
            for triple in baseline_events
            if triple[0] not in shed
        }
        assert expected_unshedded <= constrained

    def test_first_shed_is_lossless(self, rules, hitlist, gt_flowfile):
        """One isolated pressure event only clears recomputable caches
        — no evidence is lost, detections are unchanged."""
        fired = []

        def sampler():
            fired.append(1)
            return 10_000 if len(fired) == 1 else 0

        governor = MemoryGovernor(
            budget_bytes=1000, sample_every=4096, sampler=sampler
        )
        engine = StreamDetectionEngine(rules, hitlist, governor=governor)
        engine.process_flowfile(gt_flowfile)
        overload = engine.metrics_dict()["overload"]
        assert overload["shed_actions"]["gc_collect"] == 1
        assert overload["shed_actions"]["identity_cache_clear"] == 1
        assert "table_shrink" not in overload["shed_actions"]
        assert not engine.shed_subscribers
        assert overload["degraded"] is False

        baseline = StreamDetectionEngine(rules, hitlist)
        baseline.process_flowfile(gt_flowfile)
        assert [e.to_line() for e in engine.sink.events] == [
            e.to_line() for e in baseline.sink.events
        ]

    def test_memory_pressure_plan_holds_ballast(self):
        plan = MemoryPressurePlan(at_index=3, ballast_bytes=1 << 20)
        assert list(plan.wrap(range(6))) == list(range(6))
        assert plan.held_bytes == 1 << 20
        plan.release()
        assert plan.held_bytes == 0


# -- deadlines: stream and batch --------------------------------------


class TestDeadlines:
    def test_stream_deadline_stops_and_marks_degraded(
        self, rules, hitlist, gt_flowfile
    ):
        ticks = [0.0]

        def clock():
            ticks[0] += 0.25
            return ticks[0]

        # the fake clock advances per guard poll, i.e. per chunk
        engine = StreamDetectionEngine(
            rules,
            hitlist,
            StreamConfig(chunk_size=4096),
            deadline=DeadlineBudget(1.0, clock=clock),
        )
        processed = engine.process_flowfile(gt_flowfile)
        assert engine.stopped
        overload = engine.metrics_dict()["overload"]
        assert overload["stop_reason"] == "deadline"
        assert overload["deadline_seconds"] == 1.0
        assert overload["degraded"] is True
        # Stopped at a guard boundary, long before end of input.
        # the clock ticks 0.25 s per reading: one poll before the first
        # chunk, so the 1 s budget is spent at the poll after the third
        assert processed == 3 * 4096

    def test_batch_deadline_yields_partial_degraded_run(self, context):
        from repro.engine.runner import run_wild_isp_sharded
        from repro.isp.simulation import WildConfig

        result = run_wild_isp_sharded(
            context.scenario,
            context.rules,
            context.hitlist,
            WildConfig(
                subscribers=4000,
                days=2,
                workers=2,
                shard_size=256,
                deadline=1e-6,
            ),
        )
        metrics = result.metrics
        assert metrics["faults"]["unstarted_shards"] > 0
        assert metrics["overload"]["stop_reason"] == "deadline"
        assert metrics["overload"]["degraded"] is True

    def test_supervisor_stop_token_surrenders_queue(self):
        token = StopToken()
        token.stop("signal:SIGTERM")
        supervisor = ShardSupervisor(
            pool_size=2, config=SupervisorConfig(max_retries=0)
        )
        results, report = supervisor.run(
            [_FakeTask(i) for i in range(5)],
            fn=_noop_shard,
            stop_token=token,
        )
        assert results == []
        assert report.unstarted == 5
        assert report.stop_reason == "signal:SIGTERM"
        assert report.to_dict()["unstarted"] == 5


# -- monotonic heartbeats (satellite) ---------------------------------


class TestHeartbeats:
    def test_heartbeat_roundtrip_is_monotonic(self, tmp_path):
        before = time.monotonic()
        with _HeartbeatWriter(str(tmp_path), 7):
            beat = _read_heartbeat(str(tmp_path), 7)
            assert beat is not None
            pid, started, last = beat
            assert pid == os.getpid()
            # Values live on the monotonic timeline, not wall clock.
            assert before <= started <= last <= time.monotonic()
            # The wall-clock column survives for humans.
            columns = (tmp_path / "hb-000007").read_text().split()
            assert len(columns) == 4
            assert abs(float(columns[1]) - time.time()) < 60.0

    def test_legacy_two_column_heartbeat_is_ignored(self, tmp_path):
        (tmp_path / "hb-000003").write_text("123 456.789")
        assert _read_heartbeat(str(tmp_path), 3) is None

    def test_missing_heartbeat_is_none(self, tmp_path):
        assert _read_heartbeat(str(tmp_path), 0) is None


# -- quarantine sample cap (satellite) --------------------------------


class TestQuarantineSampleCap:
    def test_samples_capped_counts_unbounded(self, tmp_path):
        from repro.resilience.quarantine import QuarantineSink

        sink = QuarantineSink(tmp_path, sample_limit=5)
        for index in range(50):
            sink.record("bad_port", f"line-{index}")
        for index in range(3):
            sink.record("negative_timestamp", f"neg-{index}")
        assert sink.counts == {"bad_port": 50, "negative_timestamp": 3}
        assert sink.total == 53
        lines = (
            (tmp_path / "quarantine.jsonl").read_text().splitlines()
        )
        assert len(lines) == 5 + 3  # per-reason cap, not global
        sampled = [json.loads(line) for line in lines]
        assert [
            s["sample"] for s in sampled if s["reason"] == "bad_port"
        ] == [f"line-{i}" for i in range(5)]

    def test_zero_sample_limit_writes_nothing(self, tmp_path):
        from repro.resilience.quarantine import QuarantineSink

        sink = QuarantineSink(tmp_path, sample_limit=0)
        sink.record("bad_port", "x")
        assert sink.total == 1
        assert not (tmp_path / "quarantine.jsonl").exists()


# -- CLI flag round-trips (satellite) ---------------------------------


class TestCliFlags:
    def _parse(self, argv):
        from repro.cli import _build_parser

        return _build_parser().parse_args(argv)

    def test_supervision_flags_roundtrip(self):
        args = self._parse(
            [
                "--max-retries", "5",
                "--shard-timeout", "2.5",
                "--quarantine-dir", "qdir",
                "list",
            ]
        )
        assert args.max_retries == 5
        assert args.shard_timeout == 2.5
        assert str(args.quarantine_dir) == "qdir"

    def test_runtime_guard_flags_roundtrip(self):
        args = self._parse(
            [
                "--memory-budget", "256M",
                "--deadline", "9.5",
                "--drain-grace", "12",
                "list",
            ]
        )
        assert parse_memory_size(args.memory_budget) == 256 << 20
        assert args.deadline == 9.5
        assert args.drain_grace == 12.0

    def test_guard_flags_default_off(self):
        args = self._parse(["list"])
        assert args.memory_budget is None
        assert args.deadline is None
        assert args.drain_grace is None

    def test_stream_soak_flag_roundtrip(self):
        args = self._parse(
            [
                "stream", "run", "flows.csv",
                "--inject-sigterm-at", "4242",
            ]
        )
        assert args.inject_sigterm_at == 4242
        assert args.stream_command == "run"


def _noop_shard(task):  # module-level: must pickle into workers
    return task.index


class _FakeTask:
    def __init__(self, index):
        self.index = index
        self.start = 0
        self.stop = 1
        self.days = 1
        self.plan = None
