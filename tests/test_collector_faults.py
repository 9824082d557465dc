"""The datagram fault matrix and the live-collector CLI soak.

The robustness contract under test: **detections from a faulted live
run are byte-identical to a file replay of exactly the records that
were delivered and decodable.**  The journal the collector appends
(post-fold) *is* that delivered-and-decodable set, so every cell of
the matrix runs the same differential —

1. apply one :class:`~repro.faults.DatagramPlan` fault kind to a clean
   export-datagram stream,
2. feed the delivered stream through :meth:`CollectorService.feed` —
   the loop the service ships, minus the socket — into a live
   :class:`StreamDetectionEngine`, journalling to a real file,
3. replay that journal through a *fresh* engine via the ordinary
   file-replay path,
4. compare the two event logs line for line, and the journal bytes
   with the record-at-a-time rendering of the same delivered set,
5. feed the same stream through the same service handed a two-worker
   :class:`FleetTarget`: its journal must equal the engine target's
   byte for byte and its merged log the engine's log.

Undecodable datagrams must be quarantined under typed
``datagram_<reason>`` slugs and must never kill the loop.  The soak
half (``pytest -m soak``) does the same through the real binary: UDP
socket, HTTP health plane, a real SIGTERM mid-ingest, ``--resume``,
and the journal-replay oracle across the kill — once per target.
"""

import json
import os
import pathlib
import signal
import subprocess
import sys
import threading
import time
import urllib.request

import pytest

from repro.collector import (
    CollectorConfig,
    CollectorService,
    CollectorSource,
    FleetTarget,
)
from repro.faults import (
    DATAGRAM_FAULT_KINDS,
    DatagramPlan,
    UdpReplayShim,
    encode_export_stream,
)
from repro.fleet import FleetConfig, FleetService, worker_checkpoint_dir
from repro.netflow.v9 import NetflowV9Codec
from repro.runtime import EXIT_DRAINED, StopToken
from repro.stream.checkpoint import load_latest
from tests.conftest import flow_row, journal_rows
from repro.stream import (
    MemoryEventSink,
    StreamConfig,
    StreamDetectionEngine,
)

_BATCH = 5


@pytest.fixture(scope="module")
def batches(gt_flows):
    """100 export batches: one datagram each, 5 records per batch."""
    flows = gt_flows[: 100 * _BATCH]
    return [
        flows[i : i + _BATCH] for i in range(0, len(flows), _BATCH)
    ]


@pytest.fixture(scope="module")
def clean_datagrams(batches):
    """The unfaulted stream: template on datagram 0, data-only after
    (routers refresh templates periodically, not per packet)."""
    return encode_export_stream(
        batches, lambda: NetflowV9Codec(source_id=3)
    )


def _fold_live(rules, hitlist, delivered, journal):
    """Drive the delivered stream through the shipped service loop.

    Returns (event lines, journal rows, collector metrics); the
    journal is the file at ``journal``, written by the service.
    """
    sink = MemoryEventSink()
    engine = StreamDetectionEngine(
        rules, hitlist, StreamConfig(checkpoint_every=0), sink
    )
    service = CollectorService(
        engine, config=CollectorConfig(journal=journal)
    )
    service._open_journal()
    try:
        for number, payload in enumerate(delivered):
            service.feed(payload, now=number * 0.001)
        service._drain()
    finally:
        service._journal.close()
    assert engine.records_processed == service.source.metrics.records_folded
    lines = [event.to_line() for event in sink.events]
    return lines, journal_rows(journal), service.source.metrics


def _fleet_service(rules, hitlist, directory, workers=2, **config):
    """The same service, handed a fleet target over ``directory``; a
    hung worker or a stuck drain fails the cell instead of the job."""
    fleet = FleetService(
        rules,
        hitlist,
        directory / "fleet",
        FleetConfig(workers=workers, hang_timeout=10.0, drain_timeout=30.0),
        stop_token=StopToken(),
    )
    return CollectorService(
        FleetTarget(fleet, directory / "merged.jsonl"),
        config=CollectorConfig(
            journal=directory / "journal.csv", control_port=None, **config
        ),
    )


def _fold_fleet(service, delivered, resume=False):
    """Start (or resume) the fleet service, feed, drain; returns the
    merged event lines."""
    try:
        service._start(resume)
        for number, payload in enumerate(delivered):
            service.feed(payload, now=number * 0.001)
        service._drain()
    except BaseException:
        service.target.abort()
        raise
    finally:
        if service._journal is not None:
            service._journal.close()
    return service.target.events_out.read_text().splitlines()


def _replay_oracle(rules, hitlist, journal):
    """File-replay the service's journal through a fresh engine."""
    sink = MemoryEventSink()
    engine = StreamDetectionEngine(
        rules, hitlist, StreamConfig(checkpoint_every=0), sink
    )
    engine.process_flowfile(journal)
    return [event.to_line() for event in sink.events]


@pytest.mark.faults
class TestDatagramFaultMatrix:
    @pytest.mark.parametrize("kind", DATAGRAM_FAULT_KINDS)
    def test_live_matches_delivered_set_replay(
        self, kind, rules, hitlist, batches, clean_datagrams, tmp_path
    ):
        factory = lambda: NetflowV9Codec(source_id=3)  # noqa: E731
        if kind == "data_before_template":
            delivered = encode_export_stream(
                batches, factory, defer_template=12
            )
        elif kind == "exporter_restart":
            delivered = encode_export_stream(
                batches, factory, restart_at=80
            )
        else:
            plan = DatagramPlan(kind, seed=5)
            delivered = plan.apply(clean_datagrams)

        path = tmp_path / "journal.csv"
        live, journal, metrics = _fold_live(
            rules, hitlist, delivered, path
        )

        # the contract: live == file replay of the delivered set
        assert live == _replay_oracle(rules, hitlist, path)
        assert len(journal) == metrics.records_folded
        # ... whichever target folds it
        sharded = _fleet_service(rules, hitlist, tmp_path / "sharded")
        assert _fold_fleet(sharded, delivered) == live
        assert sharded.config.journal.read_bytes() == path.read_bytes()
        assert sharded.source.metrics.to_dict() == metrics.to_dict()
        # the journal holds, row for row, what the record-at-a-time
        # adapter gives
        source = CollectorSource()
        assert journal == [
            flow_row(record)
            for number, payload in enumerate(delivered)
            for record in source.ingest(payload, now=number * 0.001)
        ]
        # the fault must not have silenced the stream entirely
        assert metrics.records_folded > 0, kind
        # every rejected datagram carries a typed reason
        assert all(
            reason.startswith("datagram_")
            for reason in metrics.quarantined_by_reason
        )
        assert (
            metrics.datagrams_decoded + metrics.datagrams_quarantined
            == len(delivered)
        )

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_clean_stream_any_fleet_width(
        self, workers, rules, hitlist, clean_datagrams, tmp_path
    ):
        path = tmp_path / "engine.csv"
        live, _journal, _metrics = _fold_live(
            rules, hitlist, clean_datagrams, path
        )
        assert live, "the stream must detect something"
        # cadence 200 on 5-row datagrams: checkpoints broadcast mid-run
        sharded = _fleet_service(
            rules, hitlist, tmp_path, workers, checkpoint_every=200
        )
        assert _fold_fleet(sharded, clean_datagrams) == live
        # the cadence cuts the fleet's folds (so its segments) apart
        assert journal_rows(sharded.config.journal) == journal_rows(path)
        fleet = sharded.target.fleet.metrics
        assert fleet.records_routed == _BATCH * len(clean_datagrams)
        assert fleet.restarts == fleet.rebalances == 0

    def test_fleet_kill_then_resume_refolds_the_journal_tail(
        self, rules, hitlist, batches, clean_datagrams, tmp_path
    ):
        """SIGKILL with 100 journaled rows past the last checkpoint and
        a half-written line behind them: the resume cuts the torn line,
        replays the journal through the per-slot skips — re-folding the
        tail the engine target would have dropped — and the finished
        run is byte-identical to one that was never killed."""
        path = tmp_path / "engine.csv"
        live, _journal, _metrics = _fold_live(
            rules, hitlist, clean_datagrams, path
        )
        first = _fleet_service(
            rules, hitlist, tmp_path, checkpoint_every=200
        )
        try:
            first._start()
            for number, payload in enumerate(clean_datagrams[:60]):
                first.feed(payload, now=number * 0.001)
            # 200 rows folded and checkpointed, 100 held: a snapshot
            # folds (journals, admits) them without a checkpoint
            assert first.health_snapshot()["records_processed"] == 300
            deadline = time.monotonic() + 30
            while not all(
                load_latest(worker_checkpoint_dir(tmp_path / "fleet", worker))
                for worker in range(2)
            ):
                assert time.monotonic() < deadline, "no checkpoint"
                time.sleep(0.02)
        finally:
            first.target.abort()  # no drain, no final checkpoint
            first._journal.close()
        journal = first.config.journal
        assert len(journal_rows(journal)) == 300
        with open(journal, "ab") as fh:
            fh.write(b"haystack-journal v1 sha256=")

        second = _fleet_service(
            rules, hitlist, tmp_path, checkpoint_every=200
        )
        factory = lambda: NetflowV9Codec(source_id=3)  # noqa: E731
        rest = encode_export_stream(batches[60:], factory)
        assert _fold_fleet(second, rest, resume=True) == live
        assert second.journal_kept == 300
        assert journal_rows(journal) == journal_rows(path)
        fleet = second.target.fleet.metrics
        # the checkpointed 200 were skipped, the tail of 100 re-folded
        assert fleet.records_skipped == 200
        assert fleet.records_routed == 300

    def test_drop_surfaces_sequence_gaps(
        self, rules, hitlist, clean_datagrams, tmp_path
    ):
        delivered = DatagramPlan("drop", seed=5).apply(clean_datagrams)
        assert len(delivered) < len(clean_datagrams)
        _live, journal, metrics = _fold_live(
            rules, hitlist, delivered, tmp_path / "journal.csv"
        )
        assert metrics.sequence_gaps > 0
        assert metrics.records_missed > 0
        # gap accounting measures exactly what was never delivered —
        # up to the last arrival: a loss at the very tail of the
        # stream is invisible until a later datagram reveals it
        last_seen = clean_datagrams.index(delivered[-1])
        interior_lost = (last_seen + 1) - len(delivered)
        assert metrics.records_missed == _BATCH * interior_lost
        assert len(journal) == _BATCH * len(delivered)

    def test_duplicate_folds_idempotently(
        self, rules, hitlist, clean_datagrams, tmp_path
    ):
        delivered = DatagramPlan("duplicate", seed=5).apply(
            clean_datagrams
        )
        assert len(delivered) > len(clean_datagrams)
        live, journal, metrics = _fold_live(
            rules, hitlist, delivered, tmp_path / "journal.csv"
        )
        assert metrics.duplicate_datagrams == len(delivered) - len(
            clean_datagrams
        )
        # duplicates are delivered, so the journal contains them — but
        # the min-merge evidence fold detects the same devices at the
        # same times as the clean stream (record_index shifts, since
        # duplicates occupy stream positions)
        clean_live, _j, _m = _fold_live(
            rules, hitlist, clean_datagrams, tmp_path / "clean.csv"
        )

        def without_index(lines):
            out = []
            for line in lines:
                event = json.loads(line)
                event.pop("record_index")
                out.append(event)
            return out

        assert without_index(live) == without_index(clean_live)

    def test_reorder_is_counted_not_dropped(
        self, rules, hitlist, clean_datagrams, tmp_path
    ):
        delivered = DatagramPlan("reorder", seed=5).apply(
            clean_datagrams
        )
        assert delivered != list(clean_datagrams)
        _live, journal, metrics = _fold_live(
            rules, hitlist, delivered, tmp_path / "journal.csv"
        )
        assert metrics.reordered_datagrams > 0
        # nothing was lost, only displaced: every record folds
        assert len(journal) == _BATCH * len(clean_datagrams)

    def test_exporter_restart_is_a_reset_not_a_gap(
        self, rules, hitlist, batches, tmp_path
    ):
        delivered = encode_export_stream(
            batches,
            lambda: NetflowV9Codec(source_id=3),
            restart_at=80,
        )
        _live, journal, metrics = _fold_live(
            rules, hitlist, delivered, tmp_path / "journal.csv"
        )
        assert metrics.sequence_resets == 1
        assert metrics.sequence_gaps == 0
        assert metrics.records_missed == 0
        assert len(journal) == _BATCH * len(batches)

    def test_data_before_template_buffers_then_flushes(
        self, rules, hitlist, batches, tmp_path
    ):
        delivered = encode_export_stream(
            batches,
            lambda: NetflowV9Codec(source_id=3),
            defer_template=12,
        )
        _live, journal, metrics = _fold_live(
            rules, hitlist, delivered, tmp_path / "journal.csv"
        )
        assert metrics.pending_buffered_sets == 12
        assert metrics.pending_flushed_sets == 12
        assert metrics.pending_flushed_records == 12 * _BATCH
        # nothing was lost: the early sets flushed when the template
        # landed, so the journal holds every record
        assert len(journal) == _BATCH * len(batches)

    def test_corrupt_datagrams_quarantined_typed(
        self, rules, hitlist, clean_datagrams, tmp_path
    ):
        # rate high enough that some corruptions hit structure (length
        # fields, version, set ids), not just record values
        delivered = DatagramPlan("corrupt", seed=11, rate=0.8).apply(
            clean_datagrams
        )
        _live, _journal, metrics = _fold_live(
            rules, hitlist, delivered, tmp_path / "journal.csv"
        )
        assert metrics.datagrams_quarantined > 0
        assert all(
            reason.startswith("datagram_")
            for reason in metrics.quarantined_by_reason
        )

    def test_truncation_never_escapes_typed_error(
        self, rules, hitlist, clean_datagrams, tmp_path
    ):
        delivered = DatagramPlan("truncate", seed=7, rate=0.6).apply(
            clean_datagrams
        )
        _live, _journal, metrics = _fold_live(
            rules, hitlist, delivered, tmp_path / "journal.csv"
        )
        assert metrics.datagrams_quarantined > 0
        assert set(metrics.quarantined_by_reason) <= {
            "datagram_truncated_header",
            "datagram_truncated_set",
            "datagram_corrupt_set_length",
            "datagram_truncated_template",
        }


@pytest.mark.soak
class TestCollectorCliSoak:
    """The real thing: ``python -m repro collect`` on a loopback UDP
    socket, health plane polled throughout, killed with a real SIGTERM
    mid-ingest, resumed, and differentially checked against a file
    replay of its own journal — folding into one engine, and into a
    two-worker fleet."""

    def _spawn(self, args, cwd):
        env = dict(os.environ)
        root = os.path.dirname(
            os.path.dirname(os.path.abspath(__file__))
        )
        env["PYTHONPATH"] = os.path.join(root, "src")
        return subprocess.Popen(
            [sys.executable, "-m", "repro", *args],
            cwd=cwd,
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )

    def _await_ready(self, proc, ready):
        for _ in range(150):
            if ready.exists():
                return json.loads(ready.read_text())
            if proc.poll() is not None:
                _out, err = proc.communicate()
                raise AssertionError(
                    f"collector died before ready: {err[-2000:]}"
                )
            time.sleep(0.1)
        raise AssertionError("ready file never appeared")

    def _get(self, port, path):
        with urllib.request.urlopen(
            f"http://127.0.0.1:{port}{path}", timeout=10
        ) as response:
            return json.load(response)

    def test_soak_sigterm_resume_and_replay_oracle(
        self, rules, hitlist, gt_flows, tmp_path
    ):
        self._soak(rules, hitlist, gt_flows, tmp_path, [])

    def test_fleet_soak_sigterm_resume_and_replay_oracle(
        self, rules, hitlist, gt_flows, tmp_path
    ):
        self._soak(
            rules, hitlist, gt_flows, tmp_path, ["--fleet-workers", "2"]
        )

    def _soak(self, rules, hitlist, gt_flows, tmp_path, target_args):
        from tests.conftest import write_artifacts

        artifacts = write_artifacts(tmp_path / "artifacts", rules, hitlist)

        flows = gt_flows[:6000]
        batches = [
            flows[i : i + 25] for i in range(0, len(flows), 25)
        ]
        factory = lambda: NetflowV9Codec(source_id=3)  # noqa: E731
        datagrams = encode_export_stream(batches, factory)
        ready = tmp_path / "ready.json"
        journal = tmp_path / "journal.csv"
        events = tmp_path / "events.jsonl"

        base = [
            "--quarantine-dir", str(tmp_path / "quarantine"),
            "collect",
            *target_args,
            "--artifacts", str(artifacts),
            "--bind", "127.0.0.1:0",
            "--events-out", str(events),
            "--journal", str(journal),
            "--checkpoint-dir", str(tmp_path / "ckpt"),
            "--checkpoint-every", "400",
            "--ready-file", str(ready),
        ]

        # ---- first life: ingest, health-poll, SIGTERM mid-stream ----
        proc = self._spawn(base, tmp_path)
        try:
            info = self._await_ready(proc, ready)
            health = self._get(info["control_port"], "/healthz")
            assert health["status"] == "ok"

            shim = UdpReplayShim(
                "127.0.0.1", info["udp_port"], pause=0.003
            )
            sender = threading.Thread(
                target=shim.send,
                args=([b"not an export packet"] + datagrams[:120],),
            )
            sender.start()
            time.sleep(0.2)
            # the control plane answers *during* ingest
            mid = self._get(info["control_port"], "/healthz")
            assert mid["status"] == "ok"
            assert mid["datagrams_received"] > 0
            metrics_mid = self._get(info["control_port"], "/metrics")
            assert "collector" in metrics_mid
            proc.send_signal(signal.SIGTERM)
            sender.join()
            _out, err = proc.communicate(timeout=120)
        finally:
            if proc.poll() is None:
                proc.kill()
        assert proc.returncode == EXIT_DRAINED, err
        assert "draining to checkpoint" in err
        checkpoints = list((tmp_path / "ckpt").rglob("ckpt-*.json"))
        assert checkpoints, "drain must persist a final checkpoint"
        # the undecodable datagram was sampled, whichever target ran
        (sample,) = (
            (tmp_path / "quarantine" / "quarantine.jsonl")
            .read_text()
            .splitlines()
        )
        assert json.loads(sample)["reason"].startswith("datagram_")

        first_records = len(journal_rows(journal))
        assert first_records > 0

        # ---- second life: resume, exporter re-announces template ----
        ready.unlink()
        proc = self._spawn(
            base + ["--resume", "--idle-exit", "2.0"], tmp_path
        )
        try:
            info = self._await_ready(proc, ready)
            rest = encode_export_stream(batches[120:], factory)
            UdpReplayShim(
                "127.0.0.1", info["udp_port"], pause=0.003
            ).send(rest)
            _out, err = proc.communicate(timeout=180)
        finally:
            if proc.poll() is None:
                proc.kill()
        assert proc.returncode == 0, err
        assert "journal truncated" in err

        # no double-counting across the kill: the journal's record
        # count equals what the resumed engine reports having folded
        final = journal_rows(journal)
        reported = dict(
            part.split("=")
            for part in err.splitlines()[-1].lstrip("# ").split()
        )
        assert int(reported["records"]) == len(final)
        assert len(final) > first_records  # second life made progress

        # ---- the oracle: file-replay the stitched journal ----------
        replay = self._spawn(
            [
                "stream", "run", str(journal),
                "--artifacts", str(artifacts),
                "--events-out", str(tmp_path / "replay.jsonl"),
            ],
            tmp_path,
        )
        _out, err = replay.communicate(timeout=300)
        assert replay.returncode == 0, err
        assert (
            events.read_bytes()
            == (tmp_path / "replay.jsonl").read_bytes()
        )
