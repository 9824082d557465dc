"""Supervised process-pool execution of shard tasks.

:class:`ShardSupervisor` wraps the ``ProcessPoolExecutor`` fan-out of
:func:`repro.engine.runner.run_wild_isp_sharded` with the supervision a
long ISP-scale run needs:

* **worker death** (``BrokenProcessPool`` — a worker segfaulted, was
  OOM-killed, or exited) is detected, the pool is rebuilt, and affected
  shards are re-enqueued;
* **retries** use capped exponential backoff
  (:class:`~repro.resilience.retry.RetryPolicy`), scheduled on a delay
  queue so backoff never blocks healthy shards;
* **timeouts**: workers heartbeat through per-shard files; a shard
  running past ``shard_timeout`` (or whose heartbeat goes stale) is
  killed and treated as a failure;
* **poison shards** that keep failing are quarantined into
  :class:`DeadLetter` records — the run completes without them and the
  metrics document reports exactly which cohort-hours are missing.

Blame assignment: when the pool breaks, only the task the supervisor
itself killed (timeout) is charged a failure.  Every other shard that
was running is merely *suspect* — it is re-run in an isolated
single-worker pool, so a poison shard convicts itself on its own
evidence and innocent bystanders never burn retry budget on someone
else's crash.

Determinism: a retried shard re-runs the identical
:class:`~repro.engine.worker.ShardTask` (same
:class:`numpy.random.SeedSequence`), so a run whose retries all succeed
is bit-identical to a clean run.
"""

from __future__ import annotations

import json
import os
import pathlib
import signal
import tempfile
import threading
import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Callable, Deque, Dict, List, Optional, Tuple

from repro.resilience.retry import RetryPolicy
from repro.runtime.shutdown import StopToken, current_token

__all__ = [
    "DeadLetter",
    "HeartbeatWriter",
    "RestartTracker",
    "ShardEnvelope",
    "ShardSupervisor",
    "SupervisorConfig",
    "SupervisorReport",
    "execute_shard",
    "heartbeat_path",
    "read_heartbeat",
]

#: Seconds between heartbeat-file touches inside a worker.
HEARTBEAT_INTERVAL = 0.2

#: A heartbeat older than ``max(shard_timeout, STALL_GRACE)`` marks a
#: stalled (not merely slow) worker.
STALL_GRACE = 2.0


@dataclass(frozen=True)
class SupervisorConfig:
    """Supervision parameters of one sharded run."""

    #: re-enqueues per shard before it is dead-lettered
    max_retries: int = 2
    #: per-shard wall-clock budget (seconds); ``None`` disables
    shard_timeout: Optional[float] = None
    backoff_base: float = 0.05
    backoff_cap: float = 2.0
    #: supervisor wake-up granularity while shards run
    poll_interval: float = 0.05
    #: dead-letter records are appended here as JSONL when set
    quarantine_dir: Optional[pathlib.Path] = None

    def retry_policy(self) -> RetryPolicy:
        return RetryPolicy(
            max_retries=self.max_retries,
            backoff_base=self.backoff_base,
            backoff_cap=self.backoff_cap,
        )


@dataclass(frozen=True)
class DeadLetter:
    """A quarantined poison shard: the work the run is missing."""

    index: int
    product: str
    start: int
    stop: int
    days: int
    attempts: int
    error: str

    @property
    def owners(self) -> int:
        return self.stop - self.start

    @property
    def missing_cohort_hours(self) -> int:
        """Owner-hours of evidence this dead letter removed."""
        return self.owners * self.days * 24

    def to_dict(self) -> Dict[str, object]:
        return {
            "index": self.index,
            "product": self.product,
            "owner_start": self.start,
            "owner_stop": self.stop,
            "owners": self.owners,
            "days": self.days,
            "missing_cohort_hours": self.missing_cohort_hours,
            "attempts": self.attempts,
            "error": self.error,
        }


@dataclass
class SupervisorReport:
    """Supervision counters of one run (feeds the metrics document)."""

    retries: int = 0
    timeouts: int = 0
    pool_restarts: int = 0
    isolated_runs: int = 0
    dead_letters: List[DeadLetter] = field(default_factory=list)
    #: shards surrendered without a result because the run stopped
    #: early (signal drain or deadline expiry)
    unstarted: int = 0
    #: why admission stopped (``"signal:SIGTERM"``, ``"deadline"``,
    #: …) — ``None`` for a run that consumed its whole queue
    stop_reason: Optional[str] = None

    @property
    def missing_cohort_hours(self) -> int:
        return sum(dl.missing_cohort_hours for dl in self.dead_letters)

    def to_dict(self) -> Dict[str, object]:
        return {
            "retries": self.retries,
            "timeouts": self.timeouts,
            "pool_restarts": self.pool_restarts,
            "isolated_runs": self.isolated_runs,
            "dead_letters": [dl.to_dict() for dl in self.dead_letters],
            "missing_cohort_hours": self.missing_cohort_hours,
            "unstarted": self.unstarted,
            "stop_reason": self.stop_reason,
        }


@dataclass(frozen=True)
class ShardEnvelope:
    """What crosses the process boundary for one attempt."""

    task: object
    attempt: int
    heartbeat_dir: Optional[str] = None
    faults: Optional[object] = None
    #: module-level callable run on the task; ``None`` selects
    #: :func:`repro.engine.worker.simulate_shard`
    fn: Optional[Callable] = None


class _HeartbeatWriter:
    """Worker-side liveness file refreshed by a daemon thread while the
    shard computes.

    Line format: ``<pid> <started_wall> <started_mono> <last_mono>``.
    The wall-clock column exists for humans inspecting a live run's
    heartbeat directory; staleness decisions use only the monotonic
    columns — ``CLOCK_MONOTONIC`` is a single system-wide timeline on
    Linux, shared by the worker writing the beat and the supervisor
    judging it, so an NTP step or a suspended laptop can neither fake a
    stall nor hide one.  Each beat atomically replaces the file so the
    supervisor never reads a torn line.
    """

    def __init__(self, directory: str, index: int) -> None:
        self.path = _heartbeat_path(directory, index)
        self._started_wall = 0.0
        self._started_mono = 0.0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._beat, daemon=True)

    def __enter__(self) -> "_HeartbeatWriter":
        self._started_wall = time.time()
        self._started_mono = time.monotonic()
        self._write()
        self._thread.start()
        return self

    def _write(self) -> None:
        temp = self.path.with_name(self.path.name + ".tmp")
        # repr() round-trips floats exactly; %.3f can round a
        # monotonic timestamp *up*, making the heartbeat appear to be
        # from the future next to a fresh time.monotonic() reading.
        temp.write_text(
            f"{os.getpid()} {self._started_wall!r} "
            f"{self._started_mono!r} {time.monotonic()!r}"
        )
        os.replace(temp, self.path)

    def _beat(self) -> None:
        while not self._stop.wait(HEARTBEAT_INTERVAL):
            try:
                self._write()
            except OSError:
                return

    def __exit__(self, *exc_info) -> None:
        self._stop.set()


def _heartbeat_path(directory: str, index: int) -> pathlib.Path:
    """Heartbeat file for worker ``index`` under ``directory``."""
    return pathlib.Path(directory) / f"hb-{index:06d}"


def _read_heartbeat(
    directory: str, index: int
) -> Optional[Tuple[int, float, float]]:
    """``(pid, started_monotonic, last_beat_monotonic)`` or ``None``."""
    path = _heartbeat_path(directory, index)
    try:
        pid_text, _wall, started_text, last_text = (
            path.read_text().split()
        )
        return int(pid_text), float(started_text), float(last_text)
    except (OSError, ValueError):
        return None


# Public names for the heartbeat machinery.  Batch shards were the
# first consumer; long-lived stream-fleet workers (repro.fleet) beat
# through the exact same files and staleness rules, so the pieces are
# part of this module's contract rather than private helpers.
HeartbeatWriter = _HeartbeatWriter
heartbeat_path = _heartbeat_path
read_heartbeat = _read_heartbeat


class RestartTracker:
    """Capped-backoff restart budget for one long-lived worker.

    :class:`ShardSupervisor` retries *tasks* — a shard is re-enqueued
    until its budget runs out.  A fleet supervises *processes*: a
    stream worker that dies is restarted in place (same ring slots,
    resume from its own checkpoint) until the budget runs out, at which
    point it is quarantined and its slots rebalance to a successor.
    This tracker is that budget: :meth:`next_delay` returns the backoff
    before the next restart, or ``None`` once the policy is exhausted
    (the quarantine decision).
    """

    __slots__ = ("policy", "attempts")

    def __init__(self, policy: RetryPolicy) -> None:
        self.policy = policy
        self.attempts = 0

    @property
    def exhausted(self) -> bool:
        return self.attempts >= self.policy.max_retries

    def next_delay(self) -> Optional[float]:
        """Backoff before the next restart; ``None`` = quarantine."""
        if self.exhausted:
            return None
        delay = self.policy.delay(self.attempts)
        self.attempts += 1
        return delay


def execute_shard(envelope: ShardEnvelope):
    """Worker-side entry point: heartbeat, inject faults, simulate."""
    if envelope.fn is None:
        from repro.engine.worker import simulate_shard

        fn = simulate_shard
    else:
        fn = envelope.fn
    if envelope.heartbeat_dir is None:
        if envelope.faults is not None:
            envelope.faults.apply(envelope.task.index, envelope.attempt)
        return fn(envelope.task)
    with _HeartbeatWriter(envelope.heartbeat_dir, envelope.task.index):
        if envelope.faults is not None:
            envelope.faults.apply(envelope.task.index, envelope.attempt)
        return fn(envelope.task)


class ShardSupervisor:
    """Run shard tasks to completion under retry/timeout supervision."""

    def __init__(
        self,
        pool_size: int,
        config: Optional[SupervisorConfig] = None,
    ) -> None:
        if pool_size < 1:
            raise ValueError("pool_size must be >= 1")
        self.pool_size = pool_size
        self.config = config or SupervisorConfig()
        self.report = SupervisorReport()

    # -- public API ----------------------------------------------------

    def run(
        self,
        tasks,
        faults=None,
        fn: Optional[Callable] = None,
        stop_token: Optional[StopToken] = None,
        governor=None,
        deadline=None,
    ) -> Tuple[List[object], SupervisorReport]:
        """Execute every task; returns (results sorted by task index,
        report).  Dead-lettered tasks have no result entry.

        Runtime guards: ``stop_token`` (defaulting to the active
        :func:`~repro.runtime.shutdown.current_token`) and ``deadline``
        stop *admission* — in-flight shards finish and keep their
        results, queued shards are surrendered and counted in
        ``report.unstarted`` with the cause in ``report.stop_reason``.
        A ``governor`` (:class:`~repro.runtime.memory.MemoryGovernor`)
        under pressure steps the effective pool size down one slot per
        shed, each step counted as a ``shard_admission_reduced``
        action.
        """
        self.report = SupervisorReport()
        results: Dict[int, object] = {}
        if not tasks:
            return [], self.report
        if stop_token is None:
            stop_token = current_token()
        with tempfile.TemporaryDirectory(
            prefix="repro-supervise-"
        ) as hb_dir:
            self._run_pool(
                list(tasks), results, hb_dir, faults, fn,
                stop_token, governor, deadline,
            )
        self._persist_dead_letters()
        return [results[index] for index in sorted(results)], self.report

    # -- main supervision loop ----------------------------------------

    def _run_pool(
        self, tasks, results, hb_dir, faults, fn,
        stop_token=None, governor=None, deadline=None,
    ) -> None:
        config = self.config
        policy = config.retry_policy()
        pending: Deque[Tuple[object, int]] = deque(
            (task, 0) for task in tasks
        )
        delayed: List[Tuple[float, object, int]] = []
        suspects: Deque[Tuple[object, int]] = deque()
        killed: Dict[int, str] = {}
        executor = self._spawn()
        running: Dict[Future, Tuple[object, int]] = {}
        effective_pool = self.pool_size
        try:
            while pending or delayed or suspects or running:
                if self.report.stop_reason is None:
                    reason = self._guard_reason(stop_token, deadline)
                    if reason is not None:
                        self.report.stop_reason = reason
                if self.report.stop_reason is not None and (
                    pending or delayed or suspects
                ):
                    # Stop admitting: queued work (including retries
                    # scheduled mid-drain) is surrendered; in-flight
                    # shards finish and keep their results.
                    self.report.unstarted += (
                        len(pending) + len(delayed) + len(suspects)
                    )
                    pending.clear()
                    delayed = []
                    suspects.clear()
                    if not running:
                        break
                if (
                    governor is not None
                    and governor.tick(governor.sample_every)
                    and effective_pool > 1
                ):
                    effective_pool -= 1
                    governor.record_action(
                        "shard_admission_reduced", units=1
                    )
                now = time.monotonic()
                if delayed:
                    ready = [e for e in delayed if e[0] <= now]
                    if ready:
                        delayed = [e for e in delayed if e[0] > now]
                        for _, task, attempt in sorted(
                            ready, key=lambda e: e[1].index
                        ):
                            pending.append((task, attempt))
                while suspects and not running:
                    # Isolation: probe crash suspects one at a time in
                    # their own pool so blame lands on the guilty shard.
                    task, attempt = suspects.popleft()
                    self._run_isolated(
                        task, attempt, results, hb_dir, faults, fn,
                        policy, delayed,
                    )
                broken = False
                while pending and len(running) < effective_pool:
                    task, attempt = pending.popleft()
                    envelope = ShardEnvelope(
                        task, attempt, hb_dir, faults, fn
                    )
                    try:
                        future = executor.submit(execute_shard, envelope)
                    except BrokenProcessPool:
                        # The pool broke since the last wait.  This
                        # task never started: back on the queue, an
                        # innocent, and on to the recovery below.
                        pending.appendleft((task, attempt))
                        broken = True
                        break
                    running[future] = (task, attempt)
                if not running and not broken:
                    if delayed:
                        time.sleep(
                            max(
                                0.0,
                                min(e[0] for e in delayed)
                                - time.monotonic(),
                            )
                        )
                    continue
                done, _ = wait(
                    running,
                    timeout=config.poll_interval,
                    return_when=FIRST_COMPLETED,
                )
                for future in done:
                    task, attempt = running.pop(future)
                    try:
                        result = future.result()
                    except BrokenProcessPool:
                        broken = True
                        error = killed.pop(task.index, None)
                        if error is not None:
                            self._fail(
                                task, attempt, error, policy, delayed
                            )
                        else:
                            suspects.append((task, attempt))
                    except Exception as exc:  # worker raised cleanly
                        self._fail(
                            task,
                            attempt,
                            f"{type(exc).__name__}: {exc}",
                            policy,
                            delayed,
                        )
                    else:
                        results[task.index] = result
                        self._clear_heartbeat(hb_dir, task.index)
                if broken:
                    self.report.pool_restarts += 1
                    for future, (task, attempt) in running.items():
                        error = killed.pop(task.index, None)
                        if error is not None:
                            self._fail(
                                task, attempt, error, policy, delayed
                            )
                        elif (
                            _read_heartbeat(hb_dir, task.index)
                            is not None
                        ):
                            # Was executing when the pool died: suspect.
                            suspects.append((task, attempt))
                        else:
                            # Never started: an innocent queue entry.
                            pending.append((task, attempt))
                        self._clear_heartbeat(hb_dir, task.index)
                    running.clear()
                    executor.shutdown(wait=False, cancel_futures=True)
                    executor = self._spawn()
                elif config.shard_timeout is not None:
                    self._enforce_timeouts(running, hb_dir, killed)
        finally:
            executor.shutdown(wait=False, cancel_futures=True)

    # -- helpers -------------------------------------------------------

    @staticmethod
    def _guard_reason(stop_token, deadline) -> Optional[str]:
        """Why admission should stop now, or ``None``."""
        if stop_token is not None and stop_token.stop_requested():
            return stop_token.reason or "stop"
        if deadline is not None and deadline.expired():
            return deadline.reason
        return None

    def _spawn(self) -> ProcessPoolExecutor:
        return ProcessPoolExecutor(max_workers=self.pool_size)

    def _enforce_timeouts(self, running, hb_dir, killed) -> None:
        """SIGKILL workers whose shard overran its wall-clock budget or
        whose heartbeat stalled; the resulting pool break is attributed
        to exactly that shard via ``killed``."""
        timeout = self.config.shard_timeout
        stale_after = max(timeout, STALL_GRACE)
        now = time.monotonic()
        for task, _attempt in running.values():
            if task.index in killed:
                continue
            beat = _read_heartbeat(hb_dir, task.index)
            if beat is None:
                continue
            pid, started, last_beat = beat
            overrun = now - started > timeout
            stalled = now - last_beat > stale_after
            if not (overrun or stalled):
                continue
            reason = (
                f"shard timeout: exceeded {timeout:.3f}s wall clock"
                if overrun
                else f"shard stalled: no heartbeat for {stale_after:.3f}s"
            )
            killed[task.index] = reason
            self.report.timeouts += 1
            try:
                os.kill(pid, signal.SIGKILL)
            except OSError:
                pass

    def _run_isolated(
        self, task, attempt, results, hb_dir, faults, fn, policy, delayed
    ) -> None:
        """Re-run one crash suspect alone in a single-use pool."""
        self.report.isolated_runs += 1
        envelope = ShardEnvelope(task, attempt, hb_dir, faults, fn)
        executor = ProcessPoolExecutor(max_workers=1)
        try:
            future = executor.submit(execute_shard, envelope)
            deadline = (
                time.monotonic() + self.config.shard_timeout
                if self.config.shard_timeout is not None
                else None
            )
            while True:
                done, _ = wait(
                    [future],
                    timeout=self.config.poll_interval,
                    return_when=FIRST_COMPLETED,
                )
                if done:
                    break
                if deadline is not None and time.monotonic() > deadline:
                    beat = _read_heartbeat(hb_dir, task.index)
                    if beat is not None:
                        try:
                            os.kill(beat[0], signal.SIGKILL)
                        except OSError:
                            pass
                    self.report.timeouts += 1
                    self._fail(
                        task,
                        attempt,
                        "shard timeout: exceeded "
                        f"{self.config.shard_timeout:.3f}s wall clock "
                        "(isolated)",
                        policy,
                        delayed,
                    )
                    wait([future], timeout=1.0)
                    return
            try:
                results[task.index] = future.result()
            except BrokenProcessPool:
                # Alone in the pool: the crash is definitively its own.
                self._fail(
                    task,
                    attempt,
                    "worker process died (isolated)",
                    policy,
                    delayed,
                )
            except Exception as exc:
                self._fail(
                    task,
                    attempt,
                    f"{type(exc).__name__}: {exc}",
                    policy,
                    delayed,
                )
        finally:
            self._clear_heartbeat(hb_dir, task.index)
            executor.shutdown(wait=False, cancel_futures=True)

    def _fail(self, task, attempt, error, policy, delayed) -> None:
        """Record one attempt's failure: backoff-retry or dead-letter."""
        if attempt < policy.max_retries:
            self.report.retries += 1
            delayed.append(
                (
                    time.monotonic() + policy.delay(attempt),
                    task,
                    attempt + 1,
                )
            )
            return
        plan = getattr(task, "plan", None)
        self.report.dead_letters.append(
            DeadLetter(
                index=task.index,
                product=getattr(plan, "product", "?"),
                start=getattr(task, "start", 0),
                stop=getattr(task, "stop", 0),
                days=getattr(task, "days", 0),
                attempts=attempt + 1,
                error=error,
            )
        )

    @staticmethod
    def _clear_heartbeat(hb_dir: str, index: int) -> None:
        try:
            _heartbeat_path(hb_dir, index).unlink()
        except OSError:
            pass

    def _persist_dead_letters(self) -> None:
        directory = self.config.quarantine_dir
        if directory is None or not self.report.dead_letters:
            return
        directory = pathlib.Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        with open(directory / "dead_letters.jsonl", "a") as fh:
            for letter in self.report.dead_letters:
                fh.write(json.dumps(letter.to_dict(), sort_keys=True))
                fh.write("\n")
