"""The fleet worker process: one routed engine, supervised.

Each worker runs the *existing* stream assembly — a
:class:`~repro.stream.processor.StreamDetectionEngine` with its own
:class:`~repro.pipeline.state.EvidenceStateTable`, JSONL event sink,
and checkpoint directory — fed routed column sub-chunks (each row
carrying its global stream index) from its command queue instead of a
file.  Design points:

**The worker owns checkpoint cadence** (engine built with
``checkpoint_every=0``), exactly like the live collector service:
checkpoints land at batch boundaries every ``checkpoint_every`` folded
records, so the checkpoint's per-slot lineage counts are exact batch
prefixes and the router can rebuild replay offsets from them.

**Lineage rides in the checkpoint payload**: ``{"worker_id",
"ring_epoch", "slot_counts"}``, where ``slot_counts[slot]`` is how many
records of that ring slot this worker has folded.  Slot counts — not a
single offset — are what make restart, rebalance, and whole-fleet
resume one mechanism: the router re-reads the replayable source from
record zero and skips each slot's checkpointed prefix.

**Signals are the router's job.**  Workers ignore SIGTERM/SIGINT; a
drain arrives as a queued ``("drain",)`` message *after* every
in-flight batch, giving the fan-out-aware drain ordering (router stops
admitting → workers drain → merger flushes).  A worker that loses its
parent (router crash) exits without draining — whole-fleet resume
recovers from its last checkpoint.

**Liveness** is reported two ways: heartbeat files (the shard
supervisor's :class:`~repro.resilience.supervisor.HeartbeatWriter`,
beating from a daemon thread) prove the process is alive, and per-batch
acks prove it is *folding* — a hung fold keeps heartbeating, so the
router's hang detection watches ack progress, not heartbeats.
"""

from __future__ import annotations

import os
import pathlib
import queue as queue_module
import signal
import time
import traceback
from dataclasses import dataclass, field, replace
from typing import Dict, Optional, Tuple

from repro.netflow.parse import IndexedFlowChunk
from repro.pipeline.events import JsonlEventSink
from repro.pipeline.swap import RuleSource
from repro.resilience.supervisor import HeartbeatWriter
from repro.stream.checkpoint import load_latest, tmp_leftover_count
from repro.stream.processor import StreamConfig, StreamDetectionEngine

__all__ = [
    "WorkerSpec",
    "worker_main",
    "worker_dir",
    "worker_checkpoint_dir",
    "worker_log_path",
]

#: Exit codes a worker process ends with (the router reads these).
EXIT_OK = 0
EXIT_ERROR = 1
EXIT_ORPHANED = 2


def worker_dir(fleet_dir, worker_id: int) -> pathlib.Path:
    """Per-worker subdirectory (``worker-NN``) of the fleet directory."""
    return pathlib.Path(fleet_dir) / f"worker-{worker_id:02d}"


def worker_checkpoint_dir(fleet_dir, worker_id: int) -> pathlib.Path:
    """Where worker ``worker_id`` writes its lineage checkpoints."""
    return worker_dir(fleet_dir, worker_id) / "checkpoints"


def worker_log_path(fleet_dir, worker_id: int) -> pathlib.Path:
    """Worker ``worker_id``'s own JSONL event log (pre-merge)."""
    return worker_dir(fleet_dir, worker_id) / "events.jsonl"


@dataclass(frozen=True)
class WorkerSpec:
    """Everything one worker incarnation needs (crosses the fork)."""

    worker_id: int
    incarnation: int
    fleet_dir: str
    ring_epoch: int
    #: the fleet's engine config, as handed to the router.  The worker
    #: runs it with its own checkpoint directory (``max_subscribers``
    #: is the *full* single-engine bound per worker, so adoption after
    #: a rebalance is lossless)
    #: and ``checkpoint_every`` as its worker-owned cadence in folded
    #: records (0 = only on drain/adoption).
    engine: StreamConfig = field(default_factory=StreamConfig)
    rules_version: int = 0
    resume: bool = False
    #: duck-typed fault plan (see repro.faults.fleet.FleetPlan)
    plan: Optional[object] = None


def worker_main(
    spec: WorkerSpec,
    rules,
    hitlist,
    staged: Optional[Tuple[object, int]],
    command_queue,
    status_queue,
) -> None:
    """Process entry point (fork): serve the command queue until drain."""
    signal.signal(signal.SIGTERM, signal.SIG_IGN)
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    try:
        code = _serve(
            spec, rules, hitlist, staged, command_queue, status_queue
        )
    except BaseException:
        try:
            status_queue.put(
                (
                    "error",
                    spec.worker_id,
                    spec.incarnation,
                    traceback.format_exc(),
                )
            )
            time.sleep(0.05)  # let the queue feeder flush
        finally:
            os._exit(EXIT_ERROR)
    os._exit(code)


def _build_engine(
    spec: WorkerSpec, rules, hitlist, staged
) -> Tuple[StreamDetectionEngine, Dict[str, object]]:
    """Resume-or-fresh engine plus its live lineage dict."""
    ckpt_dir = worker_checkpoint_dir(spec.fleet_dir, spec.worker_id)
    log_path = worker_log_path(spec.fleet_dir, spec.worker_id)
    log_path.parent.mkdir(parents=True, exist_ok=True)
    config = replace(
        spec.engine,
        checkpoint_dir=ckpt_dir,
        checkpoint_every=0,  # the worker owns the cadence
    )
    resuming = spec.resume and load_latest(ckpt_dir) is not None
    # A resume reconciles in the engine: it continues under the
    # generation it checkpointed (the base rules, or the staged one when
    # the worker died after applying the swap) and re-stages a pending
    # swap at the checkpointed boundary, not a new one.
    build = StreamDetectionEngine.resume if resuming else StreamDetectionEngine
    engine = build(
        rules,
        hitlist,
        config,
        sink=JsonlEventSink(log_path, resume=resuming),
        rules_version=spec.rules_version,
        rule_source=RuleSource(
            lambda version: staged[0]
            if staged and staged[0].version == version
            else None
        ),
    )
    if spec.resume and not resuming:
        # A directory holding only torn-write .tmp leftovers means the
        # worker died mid-first-checkpoint, not a fresh start — the
        # lineage audit reads this counter to tell them apart.
        engine.metrics.tmp_only_fallbacks = tmp_leftover_count(ckpt_dir)
    if (
        staged is not None
        and engine.pending_rules is None
        and staged[0].version > engine.rules_version
    ):
        engine.stage_rules(*staged)
    lineage: Dict[str, object] = {
        "worker_id": spec.worker_id,
        "ring_epoch": spec.ring_epoch,
        "slot_counts": {},
    }
    if engine.lineage is not None:
        restored = engine.lineage.get("slot_counts") or {}
        # JSON round-trips dict keys as strings
        lineage["slot_counts"] = {
            int(slot): int(count) for slot, count in restored.items()
        }
        lineage["ring_epoch"] = max(
            spec.ring_epoch, int(engine.lineage.get("ring_epoch", 0))
        )
    engine.lineage = lineage
    return engine, lineage


def _serve(
    spec: WorkerSpec,
    rules,
    hitlist,
    staged,
    command_queue,
    status_queue,
) -> int:
    engine, lineage = _build_engine(spec, rules, hitlist, staged)
    slot_counts: Dict[int, int] = lineage["slot_counts"]  # type: ignore[assignment]
    heartbeat_dir = pathlib.Path(spec.fleet_dir) / "heartbeats"
    heartbeat_dir.mkdir(parents=True, exist_ok=True)
    parent = os.getppid()
    plan = spec.plan

    def ack(seq: int) -> None:
        status_queue.put(
            (
                "ack",
                spec.worker_id,
                spec.incarnation,
                seq,
                engine.records_processed,
                engine.metrics.events_emitted,
                engine.metrics.process_seconds,
            )
        )

    with HeartbeatWriter(str(heartbeat_dir), spec.worker_id):
        while True:
            try:
                message = command_queue.get(timeout=0.5)
            except queue_module.Empty:
                if os.getppid() != parent:
                    # the router died; a whole-fleet resume will replay
                    # anything past our last checkpoint
                    return EXIT_ORPHANED
                continue
            kind = message[0]
            if kind == "chunk":
                seq = message[1]
                if plan is not None:
                    action = plan.worker_action(
                        spec.worker_id, spec.incarnation, seq
                    )
                    if action is not None:
                        if action[0] == "crash":
                            os._exit(EXIT_ERROR)
                        time.sleep(action[1])  # hang; router kills us
                chunk = IndexedFlowChunk(*message[2])
                folded = engine.process_chunks(iter([chunk]))
                if folded != len(chunk):  # pragma: no cover - no guards
                    raise RuntimeError(
                        f"worker folded {folded}/{len(chunk)} records"
                    )
                for slot, count in message[3].items():
                    slot_counts[slot] = slot_counts.get(slot, 0) + count
                if (
                    spec.engine.checkpoint_every
                    and engine.metrics.records_since_checkpoint
                    >= spec.engine.checkpoint_every
                ):
                    engine.write_checkpoint()
                ack(seq)
            elif kind == "adopt":
                table_states, adopted_counts, epoch = message[1:]
                absorbed = 0
                for state in table_states:
                    absorbed += engine.table.absorb(state)
                for slot, count in adopted_counts.items():
                    slot_counts[slot] = (
                        slot_counts.get(slot, 0) + int(count)
                    )
                lineage["ring_epoch"] = int(epoch)
                # Persist immediately: the adopted evidence and slot
                # counts must be atomic with each other in lineage, or
                # a later resume would re-fold records whose evidence
                # was already absorbed.
                engine.write_checkpoint()
                status_queue.put(
                    (
                        "adopted",
                        spec.worker_id,
                        spec.incarnation,
                        absorbed,
                    )
                )
            elif kind == "checkpoint":
                if engine.metrics.records_since_checkpoint:
                    engine.write_checkpoint()
            elif kind == "drain":
                engine.drain()
                engine.sink.close()
                status_queue.put(
                    (
                        "drained",
                        spec.worker_id,
                        spec.incarnation,
                        {
                            name: getattr(engine.metrics, name)
                            for name in (
                                "records_processed",
                                "events_emitted",
                                "process_seconds",
                                "tmp_only_fallbacks",
                                "subscribers_tracked",
                            )
                        },
                    )
                )
                time.sleep(0.05)  # let the queue feeder flush
                return EXIT_OK
            else:  # pragma: no cover - protocol error
                raise RuntimeError(f"unknown fleet command {kind!r}")
