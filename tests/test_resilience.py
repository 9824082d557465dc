"""Unit tests for the fault-tolerance layer (repro.resilience).

Retry/breaker primitives, resilient lookup adapters, the ingest
quarantine, checkpoint fallback accounting, replay hardening, and the
shard supervisor against a toy (fast, picklable) shard function.  The
full-engine fault matrix lives in test_faults_matrix.py.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import pytest

from repro.core.levels import coarser_level
from repro.engine.runner import resolve_workers
from repro.faults import FlakyProxy, ShardFault, ShardFaultPlan
from repro.netflow.records import FlowKey, FlowRecord
from repro.resilience import (
    BreakerOpen,
    CircuitBreaker,
    LookupUnavailable,
    QuarantineSink,
    ResilientLookup,
    RetryPolicy,
    ShardSupervisor,
    SupervisorConfig,
    TransientLookupError,
    call_with_retry,
    validate_flow_record,
    validate_flow_tuple,
)
from repro.stream.checkpoint import (
    load_latest,
    write_checkpoint,
)
from tests.reference_fold import read_tuples


# ---------------------------------------------------------------------------
# RetryPolicy / call_with_retry


class TestRetryPolicy:
    def test_backoff_grows_and_caps(self):
        policy = RetryPolicy(
            max_retries=6, backoff_base=0.1, backoff_cap=0.5
        )
        delays = list(policy.delays())
        assert delays == [0.1, 0.2, 0.4, 0.5, 0.5, 0.5]

    def test_rejects_negative_budget(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_retries=-1)

    def test_retry_recovers_from_transient_failures(self):
        calls = []

        def flaky():
            calls.append(1)
            if len(calls) < 3:
                raise TransientLookupError("blip")
            return "ok"

        slept = []
        result = call_with_retry(
            flaky, RetryPolicy(max_retries=2), sleep=slept.append
        )
        assert result == "ok"
        assert len(calls) == 3
        assert len(slept) == 2  # backed off before each re-try

    def test_exhaustion_raises_lookup_unavailable(self):
        def dead():
            raise TransientLookupError("down")

        with pytest.raises(LookupUnavailable):
            call_with_retry(
                dead, RetryPolicy(max_retries=1), sleep=lambda _s: None
            )

    def test_programming_errors_are_not_retried(self):
        calls = []

        def broken():
            calls.append(1)
            raise KeyError("bug")

        with pytest.raises(KeyError):
            call_with_retry(broken, RetryPolicy(max_retries=3))
        assert len(calls) == 1


# ---------------------------------------------------------------------------
# CircuitBreaker


class _Clock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


class TestCircuitBreaker:
    def _tripped(self, clock):
        breaker = CircuitBreaker(
            failure_threshold=0.5,
            window=4,
            min_calls=4,
            reset_seconds=10.0,
            clock=clock,
        )
        for _ in range(4):
            breaker.record_failure()
        assert breaker.state == "open"
        return breaker

    def test_trips_on_failure_rate(self):
        clock = _Clock()
        breaker = self._tripped(clock)
        assert breaker.opened_count == 1
        assert not breaker.allow()
        assert breaker.rejected_count == 1

    def test_stays_closed_under_min_calls(self):
        breaker = CircuitBreaker(window=16, min_calls=8)
        for _ in range(7):
            breaker.record_failure()
        assert breaker.state == "closed"

    def test_half_open_probe_closes_on_success(self):
        clock = _Clock()
        breaker = self._tripped(clock)
        clock.now = 11.0
        assert breaker.state == "half_open"
        assert breaker.allow()  # the single probe
        assert not breaker.allow()  # second concurrent probe rejected
        breaker.record_success()
        assert breaker.state == "closed"
        assert breaker.allow()

    def test_half_open_probe_reopens_on_failure(self):
        clock = _Clock()
        breaker = self._tripped(clock)
        clock.now = 11.0
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state == "open"
        assert breaker.opened_count == 2

    def test_open_breaker_fails_fast_via_call_with_retry(self):
        clock = _Clock()
        breaker = self._tripped(clock)
        calls = []
        with pytest.raises(BreakerOpen):
            call_with_retry(
                lambda: calls.append(1), breaker=breaker
            )
        assert not calls  # never attempted


# ---------------------------------------------------------------------------
# Resilient lookup adapters + FlakyProxy


class _Backend:
    """A healthy toy backend."""

    tag = "healthy"

    def lookup(self, key):
        return f"value:{key}"


class TestResilientLookup:
    def _adapter(self, error_rate=0.0, seed=0, **kwargs):
        proxy = FlakyProxy(_Backend(), error_rate=error_rate, seed=seed)
        # A breaker that can't trip: these tests exercise retry
        # behaviour in isolation.
        kwargs.setdefault("breaker", CircuitBreaker(min_calls=10_000))
        adapter = ResilientLookup(
            proxy,
            methods=("lookup",),
            policy=RetryPolicy(max_retries=2, backoff_base=0.0),
            sleep=lambda _s: None,
            **kwargs,
        )
        return adapter, proxy

    def test_passthrough_of_unwrapped_attributes(self):
        adapter, _ = self._adapter()
        assert adapter.tag == "healthy"

    def test_flaky_calls_are_retried_transparently(self):
        adapter, proxy = self._adapter(error_rate=0.35, seed=3)
        for key in range(40):
            assert adapter.lookup(key) == f"value:{key}"
        assert proxy.injected_failures > 0
        assert adapter.stats.retries >= proxy.injected_failures
        assert adapter.stats.failures == 0
        assert adapter.stats.calls == 40

    def test_flaky_proxy_is_deterministic_per_seed(self):
        outcomes = []
        for _ in range(2):
            proxy = FlakyProxy(_Backend(), error_rate=0.5, seed=9)
            run = []
            for key in range(20):
                try:
                    proxy.lookup(key)
                    run.append(True)
                except TransientLookupError:
                    run.append(False)
            outcomes.append(run)
        assert outcomes[0] == outcomes[1]
        assert not all(outcomes[0]) and any(outcomes[0])

    def test_targeted_outage_exhausts_into_lookup_unavailable(self):
        proxy = FlakyProxy(_Backend(), outage_keys=("gone",))
        adapter = ResilientLookup(
            proxy,
            methods=("lookup",),
            policy=RetryPolicy(max_retries=1, backoff_base=0.0),
            sleep=lambda _s: None,
        )
        assert adapter.lookup("fine") == "value:fine"
        with pytest.raises(LookupUnavailable):
            adapter.lookup("gone")
        assert adapter.stats.failures == 1

    def test_total_outage_trips_the_shared_breaker(self):
        clock = _Clock()
        breaker = CircuitBreaker(
            failure_threshold=0.5,
            window=4,
            min_calls=4,
            reset_seconds=60.0,
            clock=clock,
        )
        proxy = FlakyProxy(_Backend(), error_rate=1.0, seed=1)
        adapter = ResilientLookup(
            proxy,
            methods=("lookup",),
            policy=RetryPolicy(max_retries=1, backoff_base=0.0),
            breaker=breaker,
            sleep=lambda _s: None,
        )
        failures = 0
        for key in range(10):
            with pytest.raises(LookupUnavailable):
                adapter.lookup(key)
            failures += 1
        assert breaker.state == "open"
        assert adapter.stats.breaker_opens >= 1
        # Once open, calls are rejected without touching the backend.
        before = proxy.injected_failures
        with pytest.raises(BreakerOpen):
            adapter.lookup("rejected")
        assert proxy.injected_failures == before
        assert adapter.stats.breaker_rejections >= 1


# ---------------------------------------------------------------------------
# Quarantine sink + flow validation


def _flow(first=1_000, last=2_000, src=1, dst=2, sport=1024, dport=443,
          proto=6, packets=3, size=300, flags=0x10):
    return FlowRecord(
        key=FlowKey(src, dst, proto, sport, dport),
        first_switched=first,
        last_switched=last,
        packets=packets,
        bytes=size,
        tcp_flags=flags,
    )


class TestQuarantine:
    def test_counts_and_samples(self, tmp_path):
        sink = QuarantineSink(tmp_path / "q", sample_limit=2)
        for index in range(5):
            sink.record("bad_port", f"line-{index}")
        sink.record("time_travel", _flow(first=10, last=5))
        assert sink.total == 6
        assert sink.counts == {"bad_port": 5, "time_travel": 1}
        lines = [
            json.loads(line)
            for line in (tmp_path / "q" / "quarantine.jsonl")
            .read_text()
            .splitlines()
        ]
        # 2 sampled bad_port + 1 time_travel; the other 3 only counted
        assert len(lines) == 3
        assert lines[0] == {"reason": "bad_port", "sample": "line-0"}

    def test_memory_only_sink_writes_nothing(self, tmp_path):
        sink = QuarantineSink(None)
        sink.record("bad_port", "x")
        assert sink.total == 1
        assert list(tmp_path.iterdir()) == []

    def test_validate_flow_tuple_reasons(self):
        assert validate_flow_tuple(10, 1, 2, 6, 443, 0x10) is None
        assert validate_flow_tuple(-1, 1, 2, 6, 443, 0) == (
            "negative_timestamp"
        )
        assert validate_flow_tuple(1, 1, 2, 6, 99_999, 0) == "bad_port"
        assert validate_flow_tuple(1, 1, 2, 300, 443, 0) == "bad_protocol"
        assert validate_flow_tuple(1, -5, 2, 6, 443, 0) == "bad_src_ip"
        assert validate_flow_tuple(1, 1, 1 << 33, 6, 443, 0) == (
            "bad_dst_ip"
        )

    def test_validate_flow_record_reasons(self):
        assert validate_flow_record(_flow()) is None
        assert validate_flow_record(_flow(first=9, last=3)) == (
            "time_travel"
        )
        assert validate_flow_record(_flow(packets=-1)) == (
            "negative_counts"
        )
        assert validate_flow_record(_flow(sport=70_000)) == "bad_port"


# ---------------------------------------------------------------------------
# Replay hardening


class TestReplayHardening:
    def test_iter_flow_tuples_quarantines_bad_lines(self, tmp_path):
        """The per-line contract, pinned on the tests' oracle reader
        (``iter_flow_tuples``' successor; ``tests/test_columnar.py`` and
        ``tests/test_properties.py`` hold the decode stage to it)."""
        path = tmp_path / "flows.csv"
        path.write_text(
            "# haystack-flows v1 sampling=1\n"
            "100,200,1.2.3.4,5.6.7.8,6,1024,443,3,300,0x10\n"
            "100,200,1.2.3.4\n"  # malformed: too few fields
            "100,200,1.2.3.4,5.6.7.8,6,1024,99999,3,300,0x10\n"  # bad port
            "100,200,1.2.3.4,bad-ip,6,1024,443,3,300,0x10\n"  # unparseable
            "300,400,1.2.3.4,5.6.7.8,6,1024,443,3,300,0x10\n"
        )
        sink = QuarantineSink()
        tuples = list(read_tuples(path, quarantine=sink))
        assert [entry[0] for entry in tuples] == [100, 300]
        assert sink.counts == {
            "malformed_line": 1,
            "bad_port": 1,
            "unparseable_field": 1,
        }
        # Without a sink the historical contract holds: first bad line
        # raises.
        with pytest.raises(ValueError):
            list(read_tuples(path))


# ---------------------------------------------------------------------------
# Checkpoint fallback accounting


class TestCheckpointFallback:
    def test_load_latest_counts_skipped_generations(self, tmp_path):
        write_checkpoint(tmp_path, 10, {"gen": "old"})
        path = write_checkpoint(tmp_path, 20, {"gen": "new"})
        path.write_bytes(path.read_bytes()[:-4])  # truncate the newest
        loaded = load_latest(tmp_path)
        assert loaded is not None
        assert loaded.seq == 10
        assert loaded.payload == {"gen": "old"}
        assert loaded.fallbacks == 1

    def test_load_latest_clean_directory_has_zero_fallbacks(
        self, tmp_path
    ):
        write_checkpoint(tmp_path, 5, {"gen": "only"})
        loaded = load_latest(tmp_path)
        assert loaded.seq == 5 and loaded.fallbacks == 0


# ---------------------------------------------------------------------------
# resolve_workers satellite


class TestResolveWorkers:
    def test_negative_values_clamp_to_one(self):
        assert resolve_workers(-4) == 1

    def test_capped_at_task_count(self):
        assert resolve_workers(64, task_count=4) == 4

    def test_explicit_value_within_cap_is_kept(self):
        assert resolve_workers(3, task_count=10) == 3

    def test_default_selects_cpu_count(self):
        import os

        assert resolve_workers(None) == (os.cpu_count() or 1)
        assert resolve_workers(0) == (os.cpu_count() or 1)

    def test_zero_tasks_still_yields_a_worker(self):
        assert resolve_workers(0, task_count=0) == 1


# ---------------------------------------------------------------------------
# coarser_level satellite


class TestCoarserLevel:
    def test_demotion_chain(self):
        assert coarser_level("Product") == "Manufacturer"
        assert coarser_level("Manufacturer") == "Platform"
        assert coarser_level("Platform") == "Platform"

    def test_unknown_level_rejected(self):
        with pytest.raises(ValueError):
            coarser_level("Galaxy")


# ---------------------------------------------------------------------------
# Supervisor against a toy shard function


@dataclass(frozen=True)
class _ToyPlan:
    product: str = "toy-cam"


@dataclass(frozen=True)
class _ToyTask:
    index: int
    start: int
    stop: int
    days: int = 2
    plan: _ToyPlan = _ToyPlan()


def _toy_shard(task):
    return (task.index, task.stop - task.start)


def _toy_tasks(count=6, owners=8):
    return [
        _ToyTask(i, start=i * owners, stop=(i + 1) * owners)
        for i in range(count)
    ]


class TestShardSupervisor:
    def _supervisor(self, **kwargs):
        kwargs.setdefault("max_retries", 2)
        kwargs.setdefault("backoff_base", 0.01)
        return ShardSupervisor(
            pool_size=2, config=SupervisorConfig(**kwargs)
        )

    def test_clean_run_returns_everything_in_order(self):
        results, report = self._supervisor().run(
            _toy_tasks(), fn=_toy_shard
        )
        assert results == [(i, 8) for i in range(6)]
        assert report.retries == 0
        assert not report.dead_letters

    def test_raise_faults_recover_on_retry(self):
        plan = ShardFaultPlan.crash_every_shard(6, kind="raise")
        results, report = self._supervisor().run(
            _toy_tasks(), faults=plan, fn=_toy_shard
        )
        assert results == [(i, 8) for i in range(6)]
        assert report.retries == 6
        assert not report.dead_letters

    def test_worker_death_recovers_without_losing_neighbours(self):
        plan = ShardFaultPlan.crash_on([2], kind="exit")
        results, report = self._supervisor().run(
            _toy_tasks(), faults=plan, fn=_toy_shard
        )
        assert results == [(i, 8) for i in range(6)]
        assert report.pool_restarts >= 1

    def test_submit_on_a_broken_pool_requeues_the_task(self, monkeypatch):
        """A pool can break between a ``wait`` and the next ``submit``;
        the ``BrokenProcessPool`` that ``submit`` raises then is a pool
        restart with the task back on the queue, not an escape."""
        from concurrent.futures import Future
        from concurrent.futures.process import BrokenProcessPool

        class InlinePool:
            """Runs each submission inline — or, when ``broken``,
            refuses it the way a pool with a dead worker does."""

            def __init__(self, broken):
                self.broken = broken

            def submit(self, fn, *args):
                if self.broken:
                    raise BrokenProcessPool("a worker died")
                future = Future()
                future.set_result(fn(*args))
                return future

            def shutdown(self, **kwargs):
                pass

        supervisor = self._supervisor()
        pools = [InlinePool(broken=False), InlinePool(broken=True)]
        monkeypatch.setattr(supervisor, "_spawn", pools.pop)
        results, report = supervisor.run(_toy_tasks(), fn=_toy_shard)
        assert results == [(i, 8) for i in range(6)]
        assert report.pool_restarts == 1
        assert report.retries == 0  # the refused task is an innocent
        assert not report.dead_letters

    def test_poison_shard_is_dead_lettered_with_accounting(
        self, tmp_path
    ):
        plan = ShardFaultPlan.crash_on([1], kind="raise", times=99)
        supervisor = ShardSupervisor(
            pool_size=2,
            config=SupervisorConfig(
                max_retries=1,
                backoff_base=0.01,
                quarantine_dir=tmp_path / "dead",
            ),
        )
        results, report = supervisor.run(
            _toy_tasks(), faults=plan, fn=_toy_shard
        )
        assert results == [(i, 8) for i in range(6) if i != 1]
        assert len(report.dead_letters) == 1
        letter = report.dead_letters[0]
        assert letter.index == 1
        assert letter.attempts == 2  # initial + one retry
        assert letter.product == "toy-cam"
        assert letter.missing_cohort_hours == 8 * 2 * 24
        assert report.missing_cohort_hours == 8 * 2 * 24
        persisted = [
            json.loads(line)
            for line in (tmp_path / "dead" / "dead_letters.jsonl")
            .read_text()
            .splitlines()
        ]
        assert persisted == [letter.to_dict()]

    def test_hang_fault_is_killed_by_shard_timeout(self):
        plan = ShardFaultPlan.crash_on([0], kind="hang", seconds=30)
        supervisor = self._supervisor(max_retries=1, shard_timeout=1.5)
        results, report = supervisor.run(
            _toy_tasks(4), faults=plan, fn=_toy_shard
        )
        assert results == [(i, 8) for i in range(4)]
        assert report.timeouts >= 1

    def test_empty_task_list(self):
        results, report = self._supervisor().run([], fn=_toy_shard)
        assert results == []
        assert report.to_dict()["dead_letters"] == []
