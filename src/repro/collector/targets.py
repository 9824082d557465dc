"""What the collector folds into: one engine, or a worker fleet.

:class:`~repro.collector.service.CollectorService` owns the socket
loop, the hold, validation, the journal file and the ready file; a
*target* owns the five rules that differ with where detection state
lives — journal order (:meth:`fold`), checkpoint, drain
(:meth:`finish`), resume (``resume_records``, :meth:`start`) and the
control-plane snapshots.  Each is a durability rule (tabulated in
``docs/collector.md``), not a preference.  The engine's journal is an
*oracle*: it must hold exactly what was folded, so a guard stop
journals the accepted prefix and a resume drops the uncheckpointed
tail the socket will not re-send.  The fleet's journal is also its
*replay source*: a worker death re-reads it up to the router's
admitted position, so every admitted row must already be readable
there, and a resume re-folds the journaled tail through the per-slot
checkpoint skips instead of dropping it.
"""

from __future__ import annotations

import pathlib
from typing import Callable, Optional, Union

from repro.netflow.parse import FlowChunk
from repro.pipeline.metrics import StreamMetrics
from repro.resilience.quarantine import QuarantineSink

__all__ = ["EngineTarget", "FleetTarget"]


class EngineTarget:
    """One in-process :class:`~repro.stream.processor.
    StreamDetectionEngine`, built with ``checkpoint_every=0``."""

    def __init__(self, engine) -> None:
        if not isinstance(engine.metrics, StreamMetrics):
            raise TypeError(
                "collector needs a stream-assembly engine (its metrics "
                "document carries the 'collector' section)"
            )
        if engine.config.checkpoint_every:
            raise ValueError(
                "collector engines must be built with "
                "checkpoint_every=0; the service owns the cadence "
                "(CollectorConfig.checkpoint_every)"
            )
        self.engine = engine
        self.quarantine = engine.quarantine
        self.stop_token = engine.stop_token

    def attach(self, config, collector) -> None:
        """Check ``config`` against the engine and surface the
        collector counters in its stream document."""
        if config.checkpoint_every and not self.engine.config.checkpoint_dir:
            raise ValueError(
                "checkpoint_every needs an engine checkpoint_dir"
            )
        self.engine.metrics.collector = collector

    @property
    def stopped(self) -> bool:
        """A guard (memory, deadline, signal) stopped the engine."""
        return self.engine.stopped

    @property
    def position(self) -> int:
        return self.engine.records_processed

    #: journal rows a resume keeps: the checkpoint's
    resume_records = position

    @property
    def since_checkpoint(self) -> int:
        return self.engine.metrics.records_since_checkpoint

    def start(self, journal, resume: bool) -> None:
        """Nothing to start: the caller built (or resumed) the engine."""

    def fold(self, chunk: FlowChunk, journal: Callable[..., None]) -> int:
        """Fold, then journal exactly the prefix the engine accepted.
        The rows were received before any stop, so they are
        ``admitted`` past the already-stopped guard."""
        processed = self.engine.process_chunks([chunk], admitted=True)
        journal(processed)
        return processed

    def checkpoint(self) -> None:
        self.engine.write_checkpoint()

    def finish(self, stopped: bool) -> None:
        self.engine.drain()

    def abort(self) -> None:
        """Nothing outlives the process."""

    def health(self) -> dict:
        return {
            "mode": "collector",
            "records_processed": self.engine.records_processed,
            "events_emitted": self.engine.metrics.events_emitted,
        }

    def metrics_dict(self) -> dict:
        return self.engine.metrics_dict()

    def subscriber(self, digest: str) -> dict:
        progress = self.engine.table.progress_of(digest)
        return {
            "digest": digest,
            "found": progress is not None,
            "progress": (
                None if progress is None else progress.to_state()
            ),
        }


class FleetTarget:
    """A :class:`~repro.fleet.service.FleetService` in push mode; the
    merged event log lands at ``events_out`` on drain."""

    #: the router has no guard of its own; the loop polls the token
    stopped = False
    #: a resume keeps every complete journal segment and replays them
    resume_records = None

    def __init__(
        self,
        fleet,
        events_out: Union[str, pathlib.Path],
        quarantine: Optional[QuarantineSink] = None,
    ) -> None:
        self.fleet = fleet
        self.events_out = pathlib.Path(events_out)
        self.quarantine = quarantine
        self.stop_token = fleet.stop_token
        self._collector = None
        self._last_checkpoint = 0

    def attach(self, config, collector) -> None:
        if config.journal is None:
            raise ValueError(
                "the fleet target needs a journal — it is the replay "
                "source for worker rebalance and resume"
            )
        self._collector = collector

    @property
    def position(self) -> int:
        metrics = self.fleet.metrics
        return metrics.records_routed + metrics.records_skipped

    @property
    def since_checkpoint(self) -> int:
        return self.position - self._last_checkpoint

    def start(self, journal, resume: bool) -> None:
        """Spawn the workers; a resume replays the journal first."""
        self.fleet.start_push(journal, resume=resume)
        self._last_checkpoint = self.position

    def fold(self, chunk: FlowChunk, journal: Callable[..., None]) -> int:
        """Journal every row and flush, then admit: a death replay
        must find each admitted row already readable."""
        journal(len(chunk), flush=True)
        self.fleet.admit_chunk(chunk)
        return len(chunk)

    def checkpoint(self) -> None:
        self.fleet.broadcast_checkpoint()
        self._last_checkpoint = self.position

    def finish(self, stopped: bool) -> None:
        self.fleet.finish_push(self.events_out, stopped)

    def abort(self) -> None:
        self.fleet.abort()

    def health(self) -> dict:
        document = self.fleet.stream_metrics()
        fleet = document.fleet
        return {
            "mode": "fleet-collector",
            "records_processed": document.records_processed,
            "events_emitted": document.events_emitted,
            "workers": fleet.workers,
            "ring_epoch": fleet.ring_epoch,
            "restarts": fleet.restarts,
            "rebalances": fleet.rebalances,
        }

    def metrics_dict(self) -> dict:
        document = self.fleet.stream_metrics()
        document.collector = self._collector
        return document.to_dict()

    def subscriber(self, digest: str) -> dict:
        # the router holds no detection state: that is what makes it
        # restartable from the ring + journal alone
        return {
            "digest": digest,
            "found": False,
            "progress": None,
            "note": "per-subscriber progress is worker-local in fleet mode",
        }
