"""The fleet router: admit, route, supervise, rebalance, merge.

One process — the router — reads the flow stream once, assigns every
record to a ring slot through the pipeline's memoised keying
(:class:`~repro.pipeline.flow.SubscriberKeying`), and fans indexed
column chunks out to N worker processes over bounded queues.  Each
worker is a full single-stream assembly (`repro.stream`); the router
holds **no detection state** — everything it knows is recomputable
from the keying salt, the persisted ``ring.json``, and the workers'
checkpoint lineage, which is what makes a router crash recoverable by
a whole-fleet resume.

**One replay mechanism.**  Worker restart, quarantine rebalance, and
whole-fleet resume are the same operation: read each target worker's
checkpointed per-slot fold counts, re-read the source from record
zero, skip each slot's counted prefix, and send the remainder (up to
the router's admitted position).  Because routing is deterministic and
per-slot delivery is in admission order, a checkpoint's slot counts
always describe an exact prefix of each slot's substream — no offsets,
no double counting.

**Supervision** follows the shard-supervisor semantics: capped-backoff
restarts first (:class:`~repro.resilience.supervisor.RestartTracker`),
quarantine when the budget is exhausted.  Quarantine rebalances the
ring — the dead worker's slots move wholesale to the deterministic
successor, its *checkpointed* evidence is adopted into the successor's
table, its event log is truncated to the checkpointed byte position,
and the post-checkpoint remainder is replayed.  Hangs are detected by
ack progress (a hung fold keeps heartbeating, so heartbeats prove the
wrong thing; the clock runs from a worker's last ack or, if it was
idle, from the batch that ended the idleness) and resolved by SIGKILL
into the same death path.

**Drain ordering** is fan-out aware: the router stops admitting, then
every worker drains (final checkpoint + sink flush) behind its queued
backlog, and only then does the merger interleave the per-worker logs
— a stable sort by global ``record_index`` that the equivalence tests
prove byte-identical to the single-engine run.
"""

from __future__ import annotations

import multiprocessing
import pathlib
import queue as queue_module
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from repro.faults.fleet import FleetPlan
from repro.fleet.merge import merge_event_logs, truncate_log
from repro.fleet.metrics import FleetMetrics
from repro.fleet.ring import DEFAULT_RING_SLOTS, HashRing
from repro.fleet.worker import (
    WorkerSpec,
    worker_checkpoint_dir,
    worker_log_path,
    worker_main,
)
from repro.netflow.parse import ColumnarDecodeStage
from repro.pipeline.config import StreamConfig
from repro.pipeline.flow import SubscriberKeying
from repro.pipeline.metrics import StreamMetrics
from repro.resilience.quarantine import QuarantineSink
from repro.resilience.retry import RetryPolicy
from repro.resilience.supervisor import RestartTracker
from repro.runtime.shutdown import (
    EXIT_COMPLETED,
    EXIT_DRAINED,
    StopToken,
    current_token,
)
from repro.stream.checkpoint import load_latest

__all__ = [
    "FleetConfig",
    "FleetService",
    "RouterCrash",
    "run_fleet",
]


class RouterCrash(RuntimeError):
    """Raised by the injected ``router_crash`` fault (simulated death).

    The in-process stand-in for the router process dying: workers are
    SIGKILLed (as the kernel would reap the process group) and the
    exception propagates.  Recovery is a whole-fleet resume —
    ``ring.json`` plus worker checkpoint lineage rebuild everything.
    """


@dataclass(frozen=True)
class FleetConfig:
    """Router knobs for one fleet run, plus the engine config every
    worker is handed."""

    workers: int = 2
    ring_slots: int = DEFAULT_RING_SLOTS
    #: bounded command-queue depth per worker (backpressure)
    queue_depth: int = 8
    #: the single-engine config this fleet reproduces.  The router
    #: reads ``salt`` (ring assignment), ``chunk_size`` and
    #: ``quarantine_dir`` (its decode of the flow file); each worker
    #: runs the rest (see :class:`~repro.fleet.worker.WorkerSpec`) —
    #: ``checkpoint_every`` as its own cadence (0 = drain/adopt only),
    #: ``max_subscribers`` as the *full* bound per worker, because
    #: adoption must be lossless: no worker may evict what another
    #: accumulated.
    engine: StreamConfig = field(default_factory=StreamConfig)
    rules_version: int = 0
    # -- supervision --------------------------------------------------
    #: restarts before quarantine (0 = quarantine on first death)
    max_restarts: int = 1
    backoff_base: float = 0.05
    backoff_cap: float = 0.5
    #: seconds without ack progress (with batches outstanding) before
    #: a worker is declared hung and killed
    hang_timeout: float = 5.0
    drain_timeout: float = 120.0
    #: fault harness (mirrors the single-engine ``SignalPlan``): the
    #: router sends itself a real SIGTERM just before admitting this
    #: global record index, driving the drain path deterministically
    inject_sigterm_at: Optional[int] = None

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.ring_slots < self.workers:
            raise ValueError("ring_slots must be >= workers")

    def retry_policy(self) -> RetryPolicy:
        return RetryPolicy(
            max_retries=self.max_restarts,
            backoff_base=self.backoff_base,
            backoff_cap=self.backoff_cap,
            jitter=False,
        )


class _WorkerHandle:
    """The router's side of one worker incarnation."""

    __slots__ = (
        "worker_id",
        "incarnation",
        "process",
        "queue",
        "seq",
        "sent",
        "acked",
        "last_progress",
        "dead",
        "drain_sent",
        "drained",
        "error",
    )

    def __init__(self, worker_id, incarnation, process, queue) -> None:
        self.worker_id = worker_id
        self.incarnation = incarnation
        self.process = process
        self.queue = queue
        self.seq = 0
        self.sent = 0
        self.acked = 0
        self.last_progress = time.monotonic()
        self.dead = False
        self.drain_sent = False
        self.drained = False
        self.error: Optional[str] = None

    @property
    def outstanding(self) -> int:
        return self.sent - self.acked


def _lineage_counts(payload: Optional[dict]) -> Dict[int, int]:
    """Normalised per-slot fold counts from a checkpoint payload."""
    if not payload:
        return {}
    lineage = payload.get("lineage") or {}
    counts = lineage.get("slot_counts") or {}
    return {int(slot): int(count) for slot, count in counts.items()}


class FleetService:
    """Router-side orchestration of one sharded streaming run."""

    def __init__(
        self,
        rules,
        hitlist,
        fleet_dir: Union[str, pathlib.Path],
        config: Optional[FleetConfig] = None,
        *,
        staged: Optional[Tuple[object, int]] = None,
        plan: Optional[FleetPlan] = None,
        stop_token: Optional[StopToken] = None,
    ) -> None:
        self.rules = rules
        self.hitlist = hitlist
        self.fleet_dir = pathlib.Path(fleet_dir)
        self.fleet_dir.mkdir(parents=True, exist_ok=True)
        self.config = config if config is not None else FleetConfig()
        self.staged = staged
        self.plan = plan
        self.stop_token = (
            stop_token if stop_token is not None else current_token()
        )
        # Sharded ``ring_slots`` ways, so the keying's memoised
        # ``identity(src)[1]`` is the ring slot directly (one dict hit
        # per repeated source).  Stateless beyond that recomputable
        # memo: a crashed router rebuilds assignment from the salt
        # alone, which is what makes whole-fleet resume possible.
        engine = self.config.engine
        self.keying = SubscriberKeying(
            salt=engine.salt, shards=self.config.ring_slots
        )
        #: what the router's decode of the flow file drops instead of
        #: raising; ``None`` (no ``quarantine_dir``) keeps the raise
        self.quarantine = (
            QuarantineSink(engine.quarantine_dir)
            if engine.quarantine_dir is not None
            else None
        )
        self.metrics = FleetMetrics(
            workers=self.config.workers,
            ring_slots=self.config.ring_slots,
        )
        self.ring: Optional[HashRing] = None
        self._ctx = multiprocessing.get_context("fork")
        self._status = self._ctx.Queue()
        self._handles: Dict[int, _WorkerHandle] = {}
        self._trackers: Dict[int, RestartTracker] = {}
        self._drained_stats: Dict[int, dict] = {}
        self._flow_path: Optional[pathlib.Path] = None
        self._position = 0
        self._batches_sent = 0
        #: slot -> checkpointed rows a resume's replay never reached
        #: (the source ended first); empty after a complete replay
        self.unreplayed: Dict[int, int] = {}

    @property
    def ring_path(self) -> pathlib.Path:
        return self.fleet_dir / "ring.json"

    # -- top level -----------------------------------------------------

    def run(
        self,
        flow_path: Union[str, pathlib.Path],
        out_path: Union[str, pathlib.Path],
        resume: bool = False,
    ) -> int:
        """Route the whole stream; drain; merge.  Returns exit code.

        ``resume=True`` continues a previous fleet over the same
        directory (see :meth:`start_push`).
        """
        try:
            stopped = self.start_push(flow_path, resume=resume)
            if not resume:  # a resume admitted the source already
                stopped = self._admit({})
            return self.finish_push(out_path, stopped)
        except BaseException:
            # the workers ignore SIGTERM: left running, interpreter
            # exit would join them forever
            self.abort()
            raise

    # -- push mode (live collector) ------------------------------------

    def start_push(
        self,
        source_path: Union[str, pathlib.Path],
        resume: bool = False,
    ) -> bool:
        """Load (or create) the ring and spawn the workers, ready for
        :meth:`admit_chunk`.

        ``source_path`` is the *replayable source* — for the live
        collector, the delivered-set journal, which the caller must
        keep written **ahead of** every :meth:`admit_chunk` call (the
        unified replay mechanism re-reads it on worker death).  With
        ``resume=True`` ring assignment reloads from ``ring.json``,
        per-slot skip offsets rebuild from worker checkpoint lineage,
        any adoption a quarantine recorded but its successor never
        checkpointed is re-sent, and the whole source is replayed
        through normal admission with those skips — the collector
        therefore re-folds journaled records a crash left
        uncheckpointed instead of dropping them.  Returns True if a
        stop request cut that replay short; a source that ended before
        a slot's checkpointed prefix leaves it in :attr:`unreplayed`.
        """
        self._flow_path = pathlib.Path(source_path)
        self.ring = self._load_or_create_ring(resume)
        self.metrics.ring_epoch = self.ring.epoch
        skips = self._initial_skips() if resume else None
        self._spawn_all(resume)
        if not resume:
            return False
        stopped = self._admit(skips)
        self.unreplayed = skips
        return stopped

    def admit_chunk(
        self, chunk, skips: Optional[Dict[int, int]] = None
    ) -> None:
        """Admit one column chunk at the router's position: decode
        once, slice per worker.

        The router takes column chunks exactly as a single engine
        would, computes each row's ring slot through the same memoised
        keying (one digest per distinct source), and ships each worker
        its rows as an indexed sub-chunk — explicit global indices, so
        the worker's events carry single-stream ``record_index``
        values.  ``skips`` (a resume's per-slot folded prefixes) is
        consumed in place.
        """
        assert self.ring is not None
        rows, row_slots, skipped = self._unfolded_rows(chunk, skips)
        self.metrics.records_skipped += skipped
        start = self._position
        self._position += len(chunk)
        assignment = np.asarray(
            self.ring.assignment, dtype=np.int64
        )
        row_workers = assignment[row_slots[rows]]
        for worker_id in np.unique(row_workers):
            handle = self._handles[int(worker_id)]
            if handle.dead:  # pragma: no cover - replay covers
                continue
            picked = rows[row_workers == worker_id]
            self._send_rows(handle, chunk, start, picked, row_slots)
            self.metrics.records_routed += len(picked)
        self._pump()

    def broadcast_checkpoint(self) -> None:
        """Ask every live worker to checkpoint at its next queue slot.

        The push-mode analogue of the collector's service-owned
        cadence: batches already queued fold first, so each worker's
        checkpoint lands on a batch boundary with exact slot counts.
        """
        for worker_id in sorted(self._handles):
            self._put(self._handles[worker_id], ("checkpoint",))
        self._pump()

    def finish_push(
        self, out_path: Union[str, pathlib.Path], stopped: bool
    ) -> int:
        """Drain the fleet, merge the logs, persist the ring."""
        assert self.ring is not None
        self._drain_all()
        self._merge(out_path)
        self.ring.save(self.ring_path)
        return EXIT_DRAINED if stopped else EXIT_COMPLETED

    def abort(self) -> None:
        """SIGKILL every worker and release its queue — the caller is
        dying (or simulating it); a whole-fleet resume recovers."""
        for handle in self._handles.values():
            if handle.process.is_alive():
                handle.process.kill()
            handle.process.join(timeout=5)
            self._discard_queue(handle)
        self._handles.clear()

    # -- ring / resume -------------------------------------------------

    def _load_or_create_ring(self, resume: bool) -> HashRing:
        if resume:
            ring = HashRing.load(self.ring_path)
            if ring is not None:
                if (
                    ring.slots != self.config.ring_slots
                    or ring.workers != self.config.workers
                ):
                    raise ValueError(
                        f"ring.json is {ring.workers} workers x "
                        f"{ring.slots} slots; config says "
                        f"{self.config.workers} x "
                        f"{self.config.ring_slots}"
                    )
                return ring
        ring = HashRing(self.config.ring_slots, self.config.workers)
        ring.save(self.ring_path)
        return ring

    def _worker_counts(self, worker_id: int) -> Dict[int, int]:
        loaded = load_latest(
            worker_checkpoint_dir(self.fleet_dir, worker_id)
        )
        return _lineage_counts(loaded.payload if loaded else None)

    def _initial_skips(self) -> Dict[int, int]:
        """Per-slot skip counts for a whole-fleet resume.

        The max across all workers' checkpointed counts: after an
        adoption the successor's count for a moved slot is a superset
        of (or equal to) the dead worker's, so the max is always the
        true folded prefix of that slot.
        """
        skips: Dict[int, int] = {}
        for worker_id in range(self.config.workers):
            for slot, count in self._worker_counts(worker_id).items():
                if count > skips.get(slot, 0):
                    skips[slot] = count
        return skips

    def _pending_adoptions(
        self, worker_id: int, persisted: Dict[int, int]
    ) -> List[Tuple[list, Dict[int, int]]]:
        """Adoptions owed to ``worker_id`` that it never checkpointed.

        A quarantine sends the dead worker's state to its successor,
        and the successor checkpoints immediately on adoption — so if
        a slot is assigned to this worker, a quarantined worker folded
        it, and this worker's checkpoint has *no* count for it, the
        adopt message died in a queue.  The dead worker's checkpoint is
        still on disk; re-derive the adoption from it.  (Absorption is
        digest-idempotent, but this path only fires when nothing was
        absorbed — the count dichotomy is all-or-nothing because adopt
        and its checkpoint are one atomic step on the worker.)
        """
        repairs: List[Tuple[list, Dict[int, int]]] = []
        assert self.ring is not None
        for dead in self.ring.quarantined:
            dead_counts = self._worker_counts(dead)
            owed = {
                slot: count
                for slot, count in dead_counts.items()
                if self.ring.assignment[slot] == worker_id
                and slot not in persisted
            }
            if not owed:
                continue
            loaded = load_latest(
                worker_checkpoint_dir(self.fleet_dir, dead)
            )
            tables = (
                loaded.payload.get("tables") or [] if loaded else []
            )
            repairs.append((tables, owed))
        return repairs

    def _prepare_resumed(self, worker_id: int) -> Dict[int, int]:
        """Re-send unpersisted adoptions; return effective counts."""
        counts = self._worker_counts(worker_id)
        handle = self._handles[worker_id]
        for tables, owed in self._pending_adoptions(worker_id, counts):
            assert self.ring is not None
            self._put(
                handle, ("adopt", tables, owed, self.ring.epoch)
            )
            counts.update(owed)
        return counts

    # -- worker lifecycle ----------------------------------------------

    def _spawn(
        self, worker_id: int, incarnation: int, resume: bool
    ) -> _WorkerHandle:
        assert self.ring is not None
        command_queue = self._ctx.Queue(
            maxsize=self.config.queue_depth
        )
        spec = WorkerSpec(
            worker_id=worker_id,
            incarnation=incarnation,
            fleet_dir=str(self.fleet_dir),
            ring_epoch=self.ring.epoch,
            engine=self.config.engine,
            rules_version=self.config.rules_version,
            resume=resume,
            plan=self.plan,
        )
        process = self._ctx.Process(
            target=worker_main,
            args=(
                spec,
                self.rules,
                self.hitlist,
                self.staged,
                command_queue,
                self._status,
            ),
            daemon=True,
            name=f"fleet-worker-{worker_id:02d}",
        )
        process.start()
        handle = _WorkerHandle(
            worker_id, incarnation, process, command_queue
        )
        self._handles[worker_id] = handle
        stats = self.metrics.worker(worker_id)
        stats.incarnation = incarnation
        stats.slots = len(self.ring.slots_of(worker_id))
        return handle

    def _spawn_all(self, resume: bool) -> None:
        assert self.ring is not None
        for worker_id in self.ring.live_workers():
            self._spawn(worker_id, incarnation=0, resume=resume)
            if resume:
                self._prepare_resumed(worker_id)

    @staticmethod
    def _discard_queue(handle: _WorkerHandle) -> None:
        """Release a dead worker's command queue.

        A killed worker leaves queued batches nobody will read; the
        queue's feeder thread would block forever on the full pipe and
        hang interpreter shutdown.  ``cancel_join_thread`` tells it to
        drop the unflushed data — replay-to-position re-derives every
        dropped batch, so nothing is lost.
        """
        handle.queue.cancel_join_thread()
        handle.queue.close()

    # -- sends ---------------------------------------------------------

    def _put(self, handle: _WorkerHandle, message: tuple) -> bool:
        """Backpressured put; False if the worker died while we waited
        (the message is dropped — replay-to-position covers it)."""
        while True:
            if handle.dead:
                return False
            try:
                handle.queue.put(message, timeout=0.2)
                return True
            except queue_module.Full:
                self._pump()

    # -- status / supervision ------------------------------------------

    def _pump(self) -> None:
        """Drain acks; scan for deaths and hangs."""
        while True:
            try:
                status = self._status.get_nowait()
            except queue_module.Empty:
                break
            kind, worker_id, incarnation = status[0], status[1], status[2]
            handle = self._handles.get(worker_id)
            if handle is None or handle.incarnation != incarnation:
                continue  # stale: a previous incarnation's message
            if kind == "ack":
                _, _, _, seq, processed, emitted, seconds = status
                handle.acked += 1
                handle.last_progress = time.monotonic()
                stats = self.metrics.worker(worker_id)
                stats.batches_acked += 1
                stats.records_processed = processed
                stats.events_emitted = emitted
                stats.process_seconds = seconds
            elif kind == "drained":
                handle.drained = True
                self._drained_stats[worker_id] = status[3]
                stats = self.metrics.worker(worker_id)
                stats.records_processed = status[3][
                    "records_processed"
                ]
                stats.events_emitted = status[3]["events_emitted"]
                stats.process_seconds = status[3]["process_seconds"]
            elif kind == "adopted":
                handle.last_progress = time.monotonic()
            elif kind == "error":
                handle.error = status[3]
        now = time.monotonic()
        for worker_id in list(self._handles):
            handle = self._handles.get(worker_id)
            if handle is None or handle.dead or handle.drained:
                continue
            process = handle.process
            if not process.is_alive():
                if process.exitcode == 0:
                    # exited cleanly post-drain; the "drained" status
                    # is still in flight — not a death
                    continue
                self._handle_death(worker_id)
            elif (
                handle.outstanding > 0
                and now - handle.last_progress
                > self.config.hang_timeout
            ):
                self.metrics.hangs_detected += 1
                process.kill()
                process.join(timeout=5)
                self._handle_death(worker_id)

    def _handle_death(self, worker_id: int) -> None:
        """Restart with capped backoff, or quarantine + rebalance."""
        started = time.perf_counter()
        handle = self._handles.pop(worker_id)
        handle.dead = True
        handle.process.join(timeout=5)
        self._discard_queue(handle)
        tracker = self._trackers.get(worker_id)
        if tracker is None:
            tracker = RestartTracker(self.config.retry_policy())
            self._trackers[worker_id] = tracker
        delay = tracker.next_delay()
        if delay is not None:
            time.sleep(delay)
            self.metrics.restarts += 1
            self.metrics.worker(worker_id).restarts += 1
            reborn = self._spawn(
                worker_id,
                incarnation=handle.incarnation + 1,
                resume=True,
            )
            counts = self._prepare_resumed(worker_id)
            assert self.ring is not None
            self._replay(
                reborn, set(self.ring.slots_of(worker_id)), counts
            )
            if handle.drain_sent:
                self._put(reborn, ("drain",))
                reborn.drain_sent = True
        else:
            self._quarantine(worker_id)
        elapsed = time.perf_counter() - started
        self.metrics.rebalance_seconds += elapsed

    def _quarantine(self, worker_id: int) -> None:
        """Rebalance the dead worker's slots onto its successor."""
        assert self.ring is not None
        loaded = load_latest(
            worker_checkpoint_dir(self.fleet_dir, worker_id)
        )
        payload = loaded.payload if loaded else None
        sink_position = (
            int(payload.get("sink_position", 0)) if payload else 0
        )
        dead_counts = _lineage_counts(payload)
        tables = payload.get("tables") or [] if payload else []
        move = self.ring.quarantine(worker_id)
        self.metrics.rebalances += 1
        self.metrics.ring_epoch = self.ring.epoch
        self.metrics.worker(worker_id).quarantined = True
        self.ring.save(self.ring_path)
        truncate_log(
            worker_log_path(self.fleet_dir, worker_id), sink_position
        )
        successor = self._handles[int(move["successor"])]
        self._put(
            handle=successor,
            message=("adopt", tables, dead_counts, self.ring.epoch),
        )
        stats = self.metrics.worker(successor.worker_id)
        stats.slots = len(self.ring.slots_of(successor.worker_id))
        self._replay(
            successor, set(move["slots"]), dict(dead_counts)
        )

    def _replay(
        self,
        handle: _WorkerHandle,
        slots: set,
        skips: Dict[int, int],
    ) -> None:
        """Re-send ``slots``' records past their checkpointed prefix.

        Reads the source from record zero up to the router's admitted
        position; rows outside ``slots`` are other workers' and rows
        inside the per-slot ``skips`` prefix are already folded in the
        target's (or adopted) checkpoint.  Everything the dead worker
        had in flight — queued, or folded-but-never-checkpointed —
        lands in this window, which is why the router never tracks
        in-flight batches.
        """
        assert self._flow_path is not None
        # drops the lines admission dropped, so indices stay aligned,
        # without sampling or counting them a second time
        decode = ColumnarDecodeStage(
            self.config.engine.chunk_size,
            quarantine=(
                QuarantineSink() if self.quarantine is not None else None
            ),
        )
        start = 0
        for chunk in decode.iter_chunks(self._flow_path):
            if start >= self._position:
                break
            chunk = chunk.head(self._position - start)
            rows, row_slots, _ = self._unfolded_rows(chunk, skips, slots)
            if len(rows) and not self._send_rows(
                handle, chunk, start, rows, row_slots
            ):
                return  # target died; its death path re-replays
            start += len(chunk)

    # -- admission -----------------------------------------------------

    def _stop_requested(self) -> bool:
        return (
            self.stop_token is not None
            and self.stop_token.stop_requested()
        )

    def _inject_sigterm(self) -> None:
        import os
        import signal

        os.kill(os.getpid(), signal.SIGTERM)

    def _admit(self, skips: Dict[int, int]) -> bool:
        """Route the stream; returns True if a stop token ended it.

        ``inject_sigterm_at`` puts a chunk boundary exactly at that
        global record index and delivers the signal there, so the drain
        position is the same for any ``chunk_size``.
        """
        assert self._flow_path is not None
        decode = ColumnarDecodeStage(
            self.config.engine.chunk_size, quarantine=self.quarantine
        )
        inject_at = self.config.inject_sigterm_at
        for chunk in decode.iter_chunks(self._flow_path):
            if (
                inject_at is not None
                and inject_at < self._position + len(chunk)
            ):
                cut = inject_at - self._position
                inject_at = None
                if cut:
                    self.admit_chunk(chunk.head(cut), skips)
                    chunk = chunk.tail(cut)
                self._inject_sigterm()
                self._pump()
                if self._stop_requested():
                    return True
            self.admit_chunk(chunk, skips)
            if self._stop_requested():
                return True
        self._pump()
        return self._stop_requested()

    def _unfolded_rows(
        self,
        chunk,
        skips: Optional[Dict[int, int]],
        slots: Optional[set] = None,
    ):
        """Rows of ``chunk`` no checkpoint has folded yet.

        Returns ``(rows, row_slots, skipped)``: the row numbers to
        send — every row (or only those of ``slots``) past its slot's
        ``skips`` prefix (if any), which is consumed in place — each
        row's ring slot, and how many rows the prefixes swallowed.
        """
        identity = self.keying.identity
        uniques, inverse = np.unique(
            chunk.src, return_inverse=True
        )
        unique_slots = np.fromiter(
            (identity(int(value))[1] for value in uniques),
            dtype=np.int64,
            count=len(uniques),
        )
        row_slots = unique_slots[inverse]
        if slots is None:
            keep = np.ones(len(chunk), dtype=bool)
        else:
            keep = np.isin(row_slots, list(slots))
        skipped = 0
        for slot in list(skips or ()):
            rows = np.nonzero(keep & (row_slots == slot))[0]
            take = min(skips[slot], len(rows))
            keep[rows[:take]] = False
            skipped += take
            if take == skips[slot]:
                del skips[slot]
            else:
                skips[slot] -= take
        return np.nonzero(keep)[0], row_slots, skipped

    def _send_rows(
        self, handle: _WorkerHandle, chunk, start: int, rows, row_slots
    ) -> bool:
        """Send ``rows`` of ``chunk`` (whose row 0 is stream index
        ``start``) to one worker as an indexed sub-chunk, seven
        columns and its per-slot row counts; False if it died."""
        if self.plan is not None and self.plan.router_crashes_at(
            self._batches_sent
        ):
            raise RouterCrash(
                f"injected router crash after "
                f"{self._batches_sent} batches"
            )
        columns = (rows + start,) + tuple(
            column[rows]
            for column in (
                chunk.first, chunk.src, chunk.dst,
                chunk.proto, chunk.dport, chunk.flags,
            )
        )
        slot_values, slot_counts = np.unique(
            row_slots[rows], return_counts=True
        )
        counts = {
            int(slot): int(count)
            for slot, count in zip(slot_values, slot_counts)
        }
        if not self._put(handle, ("chunk", handle.seq, columns, counts)):
            return False
        if not handle.outstanding:
            # idle until now: its hang clock starts with this batch,
            # not at whatever it last acked
            handle.last_progress = time.monotonic()
        handle.seq += 1
        handle.sent += 1
        self._batches_sent += 1
        stats = self.metrics.worker(handle.worker_id)
        stats.batches_sent += 1
        stats.records_sent += len(rows)
        depth = handle.outstanding
        if depth > stats.max_queue_depth:
            stats.max_queue_depth = depth
        return True

    # -- drain / merge -------------------------------------------------

    def _drain_all(self) -> None:
        """Stop-admit → drain every worker → collect final stats."""
        deadline = time.monotonic() + self.config.drain_timeout
        while True:
            for worker_id in sorted(self._handles):
                handle = self._handles[worker_id]
                if not handle.drain_sent and not handle.dead:
                    if self._put(handle, ("drain",)):
                        handle.drain_sent = True
            self._pump()
            pending = [
                handle
                for handle in self._handles.values()
                if not handle.drained
            ]
            if not pending:
                break
            if time.monotonic() > deadline:
                errors = {
                    handle.worker_id: handle.error
                    for handle in pending
                }
                raise RuntimeError(
                    f"fleet drain timed out; pending={errors!r}"
                )
            time.sleep(0.02)
        for handle in self._handles.values():
            handle.process.join(timeout=10)

    def _merge(self, out_path: Union[str, pathlib.Path]) -> None:
        started = time.perf_counter()
        logs = [
            worker_log_path(self.fleet_dir, worker_id)
            for worker_id in range(self.config.workers)
        ]
        self.metrics.merged_events = merge_event_logs(logs, out_path)
        self.metrics.merge_seconds = time.perf_counter() - started

    # -- reporting -----------------------------------------------------

    def stream_metrics(self) -> StreamMetrics:
        """A stream-metrics document carrying the ``"fleet"`` section.

        Top-level counters aggregate the workers' drained stats so the
        fleet run renders through the same reporting path as a single
        engine, with the fleet table alongside.
        """
        doc = self.config.engine.metrics()
        doc.fleet = self.metrics
        if self.quarantine is not None:
            doc.records_quarantined = self.quarantine.total
            doc.quarantine_reasons = dict(self.quarantine.counts)
        doc.records_processed = (
            self.metrics.records_routed + self.metrics.records_skipped
        )
        # before the merge (live snapshots), fall back to worker acks
        doc.events_emitted = self.metrics.merged_events or sum(
            stats.events_emitted
            for stats in self.metrics.worker_stats.values()
        )
        doc.subscribers_tracked = sum(
            stats.get("subscribers_tracked", 0)
            for stats in self._drained_stats.values()
        )
        doc.tmp_only_fallbacks = sum(
            stats.get("tmp_only_fallbacks", 0)
            for stats in self._drained_stats.values()
        )
        return doc


def run_fleet(
    rules,
    hitlist,
    flow_path: Union[str, pathlib.Path],
    fleet_dir: Union[str, pathlib.Path],
    out_path: Union[str, pathlib.Path],
    config: Optional[FleetConfig] = None,
    *,
    resume: bool = False,
    staged: Optional[Tuple[object, int]] = None,
    plan: Optional[FleetPlan] = None,
    stop_token: Optional[StopToken] = None,
) -> Tuple[int, FleetService]:
    """One-call fleet run; returns ``(exit_code, service)``."""
    service = FleetService(
        rules,
        hitlist,
        fleet_dir,
        config,
        staged=staged,
        plan=plan,
        stop_token=stop_token,
    )
    code = service.run(flow_path, out_path, resume=resume)
    return code, service
