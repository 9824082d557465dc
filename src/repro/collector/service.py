"""The long-running collector service: socket loop, fold, journal,
drain.

:class:`CollectorService` ties the pure ingest front
(:class:`~repro.collector.source.CollectorSource`) to the fold
*target* it is handed (:mod:`repro.collector.targets`) — one streaming
engine (:class:`~repro.stream.processor.StreamDetectionEngine`) or a
worker fleet: one UDP socket, one fold loop, one lock shared with the
HTTP control plane.  The points below describe the engine target; the
targets module says where the fleet target differs, and why.  Design
points that carry the robustness guarantees:

**Checkpoint cadence is service-owned.**  The engine is built with
``checkpoint_every=0`` because a checkpoint must never overtake the
journal: the pipeline's own cadence would write one mid-datagram,
before the records it covers are journaled.  The service instead
watches the target's ``since_checkpoint`` (which accumulates
across batches until a checkpoint resets it), and at a datagram
boundary — journal flushed and fsynced first — asks the target to
checkpoint every ``checkpoint_every`` folded records.

**Hold and fold.**  Datagrams decode straight into column blocks
(:class:`~repro.netflow.datagram.FlowBlock`); the service holds them
and validates, folds (one :class:`~repro.netflow.parse.FlowChunk`
through the target) and journals the held rows together.  Five things
flush the hold: (i) :data:`FOLD_ROWS` rows are held; (ii) the held
rows would reach ``checkpoint_every`` — checked after every datagram,
so checkpoints land on the datagram boundaries a per-datagram fold
gives; (iii) the oldest held row is ``poll_interval`` old, or the
socket times out; (iv) stop, ``max_datagrams``, drain; (v) a
control-plane snapshot (it holds the lock anyway, so ``/metrics`` and
``/subscribers/<digest>`` read their own writes).  A SIGKILL loses at
most the held rows, which were never journaled or checkpointed — the
contract the uncheckpointed tail always had.

**The journal is the delivered-set oracle.**  Every record that was
delivered, decodable, and valid is appended — *after* the fold
accepted it — to the journal (:mod:`repro.netflow.journal`, one
segment per fold).  Replaying the journal through a fresh engine must
reproduce the live run's event log byte for byte; the fault matrix
proves exactly that for every datagram fault.  The journal is fsynced
before every checkpoint so the invariant ``journal records >=
checkpoint records`` holds across kills, and :func:`truncate_journal`
restores equality on resume (dropping the uncheckpointed tail that the
resumed socket loop will not re-receive; for the fleet, which replays
its journal, only a torn last segment).

**Drain.**  A stop request (SIGTERM via the CLI's
:class:`~repro.runtime.shutdown.ShutdownCoordinator`, or a deadline)
is honoured at the next datagram boundary: the loop exits, the rows
still held — received before the stop, so folded as ``admitted`` past
the engine's already-stopped guard — are folded and journaled, the
journal is flushed, and :meth:`~repro.stream.processor.
StreamDetectionEngine.drain` persists the final checkpoint — nothing
the socket delivered is dropped, and the service returns
:data:`~repro.runtime.shutdown.EXIT_DRAINED` (3).  Consuming a bounded
input (``max_datagrams`` / ``idle_exit``) returns
:data:`~repro.runtime.shutdown.EXIT_COMPLETED` (0).
"""

from __future__ import annotations

import json
import os
import pathlib
import socket
import threading
import time
from dataclasses import dataclass
from typing import IO, List, Optional

from repro.collector.control import ControlPlane
from repro.collector.source import CollectorSource
from repro.collector.targets import EngineTarget, FleetTarget
from repro.netflow.datagram import FlowBlock
from repro.netflow.journal import encode_segment, open_journal
from repro.netflow.journal import truncate_journal
from repro.netflow.parse import FlowChunk
from repro.runtime.shutdown import EXIT_COMPLETED, EXIT_DRAINED

__all__ = [
    "CollectorConfig",
    "CollectorService",
    "FOLD_ROWS",
]

_MAX_DATAGRAM = 65535

#: Held rows that force a fold: enough to amortise the per-chunk numpy
#: overhead (folding each 25-row datagram alone costs 2.4x the CPU),
#: few enough that a kill loses 0.14 s of a 30k rec/s feed.
FOLD_ROWS = 4096


@dataclass(frozen=True)
class CollectorConfig:
    """Tuning of one collector service run."""

    bind_host: str = "127.0.0.1"
    #: 0 binds an ephemeral port (resolved port lands in the ready file)
    bind_port: int = 0
    control_host: str = "127.0.0.1"
    #: ``None`` disables the control plane; 0 binds ephemeral
    control_port: Optional[int] = 0
    #: drop an exporter's templates + pending after this much silence
    exporter_timeout: float = 300.0
    #: bound on buffered data-before-template sets per exporter
    pending_max_sets: int = 64
    #: seconds a pending set may wait for its template
    pending_ttl: float = 60.0
    #: sequence-reset detection window (see repro.collector.exporters)
    reset_window: int = 64
    #: SO_RCVBUF request; ``None`` keeps the OS default
    recv_buffer: Optional[int] = None
    #: exit 0 after this many seconds without a datagram; ``None`` runs
    #: until stopped
    idle_exit: Optional[float] = None
    #: exit 0 after receiving this many datagrams; ``None`` unbounded
    max_datagrams: Optional[int] = None
    #: service-owned checkpoint cadence in folded records; 0 disables
    checkpoint_every: int = 0
    #: delivered-set journal path; ``None`` disables
    journal: Optional[pathlib.Path] = None
    #: written (atomically) after both sockets are bound:
    #: ``{"udp_port": …, "control_port": …, "pid": …}``
    ready_file: Optional[pathlib.Path] = None
    #: socket timeout — the idle/stop/expiry poll cadence
    poll_interval: float = 0.2


class CollectorService:
    """One bound socket feeding one fold target.

    ``target`` is a stream engine (folded in process, see
    :class:`~repro.collector.targets.EngineTarget`) or a
    :class:`~repro.collector.targets.FleetTarget`; nothing else
    selects between them.
    """

    def __init__(
        self,
        target,
        source: Optional[CollectorSource] = None,
        config: Optional[CollectorConfig] = None,
    ) -> None:
        config = config or CollectorConfig()
        if not isinstance(target, FleetTarget):
            target = EngineTarget(target)
        self.target = target
        self.config = config
        self.source = source if source is not None else CollectorSource(
            quarantine=target.quarantine,
            pending_max_sets=config.pending_max_sets,
            pending_ttl=config.pending_ttl,
            reset_window=config.reset_window,
            exporter_timeout=config.exporter_timeout,
        )
        target.attach(config, self.source.metrics)
        self._lock = threading.Lock()
        self._journal: Optional[IO[bytes]] = None
        #: decoded, not yet validated blocks awaiting the next fold
        self._held: List[FlowBlock] = []
        self._held_rows = 0
        self._held_since = 0.0  # ``now`` of the oldest held datagram
        self.udp_port: Optional[int] = None
        self.control_port: Optional[int] = None
        self.datagrams_seen = 0
        #: rows the journal held after a resume cut it
        self.journal_kept: Optional[int] = None
        self._draining = False

    @property
    def engine(self):
        """The engine of an engine target."""
        return self.target.engine

    # -- control-plane snapshots (called from handler threads) ---------

    def health_snapshot(self) -> dict:
        with self._lock:
            self._fold()
            return {
                "status": "draining" if self._draining else "ok",
                "udp_port": self.udp_port,
                "control_port": self.control_port,
                "datagrams_received": (
                    self.source.metrics.datagrams_received
                ),
                "exporters_active": (
                    self.source.metrics.exporters_active
                ),
                **self.target.health(),
            }

    def metrics_snapshot(self) -> dict:
        with self._lock:
            self._fold()
            return self.target.metrics_dict()

    def subscriber_snapshot(self, digest: str) -> dict:
        with self._lock:
            self._fold()
            return self.target.subscriber(digest)

    # -- the loop ------------------------------------------------------

    def run(self, resume: bool = False) -> int:
        """Bind, serve, drain; returns the process exit code."""
        config = self.config
        sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        control: Optional[ControlPlane] = None
        try:
            if config.recv_buffer is not None:
                sock.setsockopt(
                    socket.SOL_SOCKET,
                    socket.SO_RCVBUF,
                    config.recv_buffer,
                )
            sock.bind((config.bind_host, config.bind_port))
            sock.settimeout(config.poll_interval)
            self.udp_port = sock.getsockname()[1]
            if config.control_port is not None:
                control = ControlPlane(
                    self, config.control_host, config.control_port
                )
                control.start()
                self.control_port = control.port
            self._start(resume)
            self._write_ready_file()
            exit_code = self._serve(sock)
            with self._lock:
                self._draining = exit_code == EXIT_DRAINED
                self._drain()
            return exit_code
        except BaseException:
            self.target.abort()
            raise
        finally:
            if control is not None:
                control.stop()
            if self._journal is not None:
                self._journal.close()
                self._journal = None
            sock.close()

    def _start(self, resume: bool = False) -> None:
        """Open the journal (refusing a file that is not one), then
        start the target; a ``resume`` first cuts the journal to what
        the target's resume rule keeps."""
        journal = self.config.journal
        if resume and journal is not None:
            self.journal_kept = truncate_journal(
                journal, self.target.resume_records
            )
        self._open_journal()
        self.target.start(journal, resume)

    def _serve(self, sock: socket.socket) -> int:
        config = self.config
        target = self.target
        token = target.stop_token
        last_data = time.monotonic()
        while True:
            if token is not None and token.stop_requested():
                return EXIT_DRAINED
            try:
                payload, addr = sock.recvfrom(_MAX_DATAGRAM)
            except socket.timeout:
                now = time.monotonic()
                with self._lock:
                    self._fold()
                    self.source.expire_exporters(now)
                if (
                    config.idle_exit is not None
                    and now - last_data >= config.idle_exit
                ):
                    return EXIT_COMPLETED
                continue
            last_data = time.monotonic()
            self.feed(payload, addr, last_data)
            if target.stopped:
                return EXIT_DRAINED
            if (
                config.max_datagrams is not None
                and self.datagrams_seen >= config.max_datagrams
            ):
                return EXIT_COMPLETED

    def feed(self, payload: bytes, addr=("", 0), now: float = 0.0) -> None:
        """One datagram through the service, socket-free: decode, hold,
        and fold when a flush trigger fires (see the module docstring).

        This is the loop :meth:`run` ships — the socket only supplies
        ``payload``, ``addr`` and the monotonic ``now`` — so tests and
        in-process benches drive it directly.
        """
        self.datagrams_seen += 1
        every = self.config.checkpoint_every
        with self._lock:
            blocks = self.source.decode(payload, addr, now)
            if blocks:
                if not self._held:
                    self._held_since = now
                self._held += blocks
                self._held_rows += sum(map(len, blocks))
            since = self.target.since_checkpoint
            if self._held and (
                self._held_rows >= FOLD_ROWS
                or now - self._held_since >= self.config.poll_interval
                or (every and since + self._held_rows >= every)
            ):
                self._fold()

    def _fold(self) -> None:
        """Validate the held rows and fold them as one chunk; the
        target says when (and how much of) the chunk is journaled.

        Holds the service lock (caller-acquired).  Counts what the
        target accepted, and checkpoints when the cadence is due,
        journal flushed and fsynced first.
        """
        if not self._held:
            return
        target = self.target
        columns = self.source.validate(self._held)
        self._held, self._held_rows = [], 0

        def journal(rows: int, flush: bool = False) -> None:
            # ``flush`` hands the rows to the OS: readable, not durable
            if self._journal is not None and rows:
                self._journal.write(encode_segment(columns[:, :rows]))
                if flush:
                    self._journal.flush()

        # validated: every field fits int64, so the view is exact
        first, _, src, dst, proto, _, dport, _, _, flags = columns.view("i8")
        self.source.metrics.records_folded += target.fold(
            FlowChunk(
                target.position, first, src, dst, proto, dport, flags
            ),
            journal,
        )
        if (
            self.config.checkpoint_every
            and target.since_checkpoint >= self.config.checkpoint_every
        ):
            self._flush_journal()
            target.checkpoint()

    def _drain(self) -> None:
        """Fold what is held, then journal before checkpoint, so resume
        truncation never loses a checkpointed record."""
        self._fold()
        self._flush_journal()
        self.target.finish(self._draining)

    # -- journal -------------------------------------------------------

    def _open_journal(self) -> None:
        if self.config.journal is not None:
            self._journal = open_journal(self.config.journal)

    def _flush_journal(self) -> None:
        if self._journal is None:
            return
        self._journal.flush()
        os.fsync(self._journal.fileno())

    # -- readiness -----------------------------------------------------

    def _write_ready_file(self) -> None:
        """Atomically publish the bound ports (tests/CI poll this)."""
        if self.config.ready_file is None:
            return
        path = pathlib.Path(self.config.ready_file)
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = json.dumps(
            {
                "udp_port": self.udp_port,
                "control_port": self.control_port,
                "pid": os.getpid(),
            },
            sort_keys=True,
        )
        tmp = path.with_suffix(path.suffix + ".tmp")
        tmp.write_text(payload, encoding="ascii")
        os.replace(tmp, path)
