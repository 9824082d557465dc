"""Fleet mode: ring, keying vectors, merge, and the equivalence proof.

The tentpole invariant — an N-worker fleet's merged event log is
byte-identical to a single engine's — is proven here for N ∈
{1, 2, 4, 8} on both admission modes (column chunks routed from a
file; chunks pushed one fold at a time as the live collector does),
plus drain/resume.  Fault-schedule equivalence (kills, hangs, rebalances,
router crashes) lives in ``test_fleet_faults.py``.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time

import pytest

from repro.faults.fleet import FleetPlan
from repro.fleet import (
    DEFAULT_RING_SLOTS,
    FleetConfig,
    FleetService,
    HashRing,
    merge_event_logs,
    run_fleet,
    truncate_log,
    worker_checkpoint_dir,
    worker_dir,
    worker_log_path,
)
from repro.netflow.parse import ColumnarDecodeStage
from repro.pipeline.events import JsonlEventSink
from repro.pipeline.flow import AddressKeying, SubscriberKeying
from repro.runtime import StopToken
from repro.stream import StreamConfig, StreamDetectionEngine
from repro.stream.checkpoint import tmp_leftover_count
from tests.conftest import write_artifacts


class TripAfter(StopToken):
    """Stop token that trips itself after N polls (in-process drain).

    The real-signal path (``--inject-sigterm-at``) is exercised by the
    CLI soak test; tier-1 proves the same drain/resume contract
    without signalling the pytest process.
    """

    def __init__(self, polls: int) -> None:
        super().__init__()
        self._polls = polls

    def stop_requested(self) -> bool:
        if not super().stop_requested():
            self._polls -= 1
            if self._polls <= 0:
                self.stop("trip-after")
        return super().stop_requested()


@pytest.fixture(scope="module")
def reference(rules, hitlist, gt_flowfile, tmp_path_factory):
    """Single-engine event log bytes — the equivalence oracle."""
    log = tmp_path_factory.mktemp("fleet-ref") / "single.jsonl"
    engine = StreamDetectionEngine(
        rules, hitlist, StreamConfig(), sink=JsonlEventSink(log)
    )
    engine.process_flowfile(gt_flowfile)
    engine.drain()
    engine.sink.close()
    data = log.read_bytes()
    assert engine.metrics.events_emitted > 0
    return data, engine.metrics.events_emitted


class TestHashRing:
    def test_round_robin_assignment_covers_all_workers(self):
        ring = HashRing(slots=8, workers=3)
        assert ring.assignment == [0, 1, 2, 0, 1, 2, 0, 1]
        assert ring.slots_of(0) == [0, 3, 6]
        assert ring.live_workers() == [0, 1, 2]

    def test_rejects_more_workers_than_slots(self):
        with pytest.raises(ValueError):
            HashRing(slots=2, workers=3)
        with pytest.raises(ValueError):
            HashRing(slots=4, workers=0)

    def test_quarantine_moves_slots_to_cyclic_successor(self):
        ring = HashRing(slots=8, workers=4)
        move = ring.quarantine(1)
        assert move["successor"] == 2
        assert move["slots"] == [1, 5]
        assert move["epoch"] == 1
        assert ring.worker_of(1) == 2
        assert ring.live_workers() == [0, 2, 3]
        # successor chain wraps past quarantined ids
        move = ring.quarantine(3)
        assert move["successor"] == 0
        with pytest.raises(ValueError):
            ring.quarantine(1)

    def test_last_live_worker_cannot_be_quarantined(self):
        ring = HashRing(slots=4, workers=2)
        ring.quarantine(0)
        with pytest.raises(RuntimeError):
            ring.quarantine(1)

    def test_persistence_round_trip(self, tmp_path):
        ring = HashRing(slots=8, workers=3)
        ring.quarantine(2)
        path = tmp_path / "ring.json"
        ring.save(path)
        loaded = HashRing.load(path)
        assert loaded is not None
        assert loaded.to_dict() == ring.to_dict()
        assert HashRing.load(tmp_path / "absent.json") is None


class TestKeyingGoldenVectors:
    """Pinned digests and shard numbers.

    The fleet's record → slot routing, the checkpoint key space, and
    every persisted lineage document depend on these exact values: a
    drift here silently reshuffles the ring and orphans old
    checkpoints, so the vectors are pinned as data.
    """

    VECTORS = [
        (0x0A000001, "bb90d3545f8bf67e", 62),
        (0x0A00FFFF, "626e57453f867f79", 57),
        (0xC0A80101, "61ca4dfa9c6a2cc8", 8),
    ]

    def test_subscriber_keying_digest_and_slot(self):
        keying = SubscriberKeying(salt="haystack", shards=64)
        for raw, digest, slot in self.VECTORS:
            assert keying.identity(raw) == (digest, slot)
            assert keying.ring_hash(raw) % 64 == slot

    def test_shard_count_changes_slot_not_digest(self):
        keying = SubscriberKeying(salt="haystack", shards=8)
        assert keying.identity(0x0A000001) == ("bb90d3545f8bf67e", 6)

    def test_address_keying_is_the_identity_hash(self):
        keying = AddressKeying(shards=64)
        assert keying.identity(0x0A000001) == ("10.0.0.1", 1)
        assert keying.ring_hash(0x0A000001) == 0x0A000001

    def test_default_ring_slots_pinned(self):
        # record → slot depends on this constant; changing it is a
        # breaking change to every persisted fleet directory
        assert DEFAULT_RING_SLOTS == 64


class TestMerge:
    def _write(self, path, indices):
        with open(path, "w") as fh:
            for index in indices:
                fh.write(
                    json.dumps({"record_index": index, "id": index})
                    + "\n"
                )

    def test_merge_orders_by_record_index(self, tmp_path):
        a = tmp_path / "a.jsonl"
        b = tmp_path / "b.jsonl"
        self._write(a, [0, 5, 7])
        self._write(b, [2, 3, 9])
        out = tmp_path / "merged.jsonl"
        count = merge_event_logs([a, b], out)
        assert count == 6
        merged = [
            json.loads(line)["record_index"]
            for line in out.read_text().splitlines()
        ]
        assert merged == [0, 2, 3, 5, 7, 9]

    def test_merge_skips_missing_logs(self, tmp_path):
        a = tmp_path / "a.jsonl"
        self._write(a, [1, 4])
        out = tmp_path / "merged.jsonl"
        assert merge_event_logs([a, tmp_path / "nope.jsonl"], out) == 2

    def test_merge_preserves_bytes(self, tmp_path):
        a = tmp_path / "a.jsonl"
        line = '{"record_index": 3, "x":  "kept   spacing"}\n'
        a.write_text(line)
        out = tmp_path / "merged.jsonl"
        merge_event_logs([a], out)
        assert out.read_text() == line

    def test_truncate_log_cuts_to_checkpointed_bytes(self, tmp_path):
        path = tmp_path / "w.jsonl"
        path.write_text("one\ntwo\nthree\n")
        truncate_log(path, len("one\n"))
        assert path.read_text() == "one\n"
        truncate_log(tmp_path / "absent.jsonl", 10)


class TestWorkerLayout:
    def test_paths_are_per_worker_and_zero_padded(self, tmp_path):
        assert worker_dir(tmp_path, 3) == tmp_path / "worker-03"
        assert (
            worker_checkpoint_dir(tmp_path, 3)
            == tmp_path / "worker-03" / "checkpoints"
        )
        assert (
            worker_log_path(tmp_path, 11)
            == tmp_path / "worker-11" / "events.jsonl"
        )


class TestTmpOnlyFallback:
    def test_tmp_leftover_count_distinguishes_fresh_from_torn(
        self, tmp_path
    ):
        assert tmp_leftover_count(tmp_path) == 0
        (tmp_path / "ckpt-000001.json.tmp").write_text("{")
        (tmp_path / "ckpt-000002.json.tmp").write_text("")
        assert tmp_leftover_count(tmp_path) == 2
        assert tmp_leftover_count(tmp_path / "absent") == 0


class TestWorkerStart:
    """A worker start reads its newest checkpoint once: choosing fresh
    vs resume is the engine's ``resume`` finding one or not, not a
    second load, SHA-256 check and unpack of the same file."""

    @staticmethod
    def _count_loads(monkeypatch):
        import importlib

        from repro.stream import checkpoint

        calls, original = [], checkpoint.load_latest

        def counting(directory):
            calls.append(directory)
            return original(directory)

        for name in (
            "repro.stream.checkpoint",
            "repro.stream.processor",
            "repro.fleet.worker",
        ):
            module = importlib.import_module(name)
            if hasattr(module, "load_latest"):
                monkeypatch.setattr(module, "load_latest", counting)
        return calls

    def test_resume_loads_the_checkpoint_once(
        self, rules, hitlist, gt_flowfile, tmp_path, monkeypatch
    ):
        from repro.fleet.worker import WorkerSpec, _build_engine

        fleet = str(tmp_path / "fleet")
        first, _ = _build_engine(
            WorkerSpec(0, 0, fleet, 0), rules, hitlist, None
        )
        first.process_flowfile(gt_flowfile, max_records=500)
        first.write_checkpoint()
        first.sink.close()
        calls = self._count_loads(monkeypatch)
        resumed, lineage = _build_engine(
            WorkerSpec(0, 1, fleet, 0, resume=True), rules, hitlist, None
        )
        resumed.sink.close()
        assert len(calls) == 1
        assert resumed.records_processed == 500
        assert resumed.metrics.resumed_from_generation is not None
        assert lineage["worker_id"] == 0

    def test_resume_with_only_tmp_leftovers_starts_fresh(
        self, rules, hitlist, tmp_path, monkeypatch
    ):
        from repro.fleet.worker import WorkerSpec, _build_engine

        fleet = tmp_path / "fleet"
        torn = worker_checkpoint_dir(fleet, 0) / "ckpt-0000000001.json.tmp"
        torn.parent.mkdir(parents=True)
        torn.write_text("{")
        worker_log_path(fleet, 0).write_text('{"stale": true}\n')
        calls = self._count_loads(monkeypatch)
        engine, _ = _build_engine(
            WorkerSpec(0, 1, str(fleet), 0, resume=True), rules, hitlist, None
        )
        engine.sink.close()
        assert len(calls) == 1
        assert engine.records_processed == 0
        assert engine.metrics.tmp_only_fallbacks == 1
        assert worker_log_path(fleet, 0).read_bytes() == b""


class TestForeignFormatRefusal:
    def test_resume_over_another_releases_checkpoints_says_so(
        self, rules, hitlist, gt_flowfile, tmp_path
    ):
        """A fleet directory whose workers' checkpoints were written in
        another format version: the resume reports that — the version
        found, the version read, what to do — not "no checkpoint"
        followed by a fleet that starts from record zero."""
        from repro.stream.checkpoint import CheckpointVersionError
        from tests.test_stream_faults import _write_v1

        for worker in range(2):
            _write_v1(
                worker_checkpoint_dir(tmp_path / "fleet", worker),
                5_000,
                {"state_version": 1, "tables": []},
            )
        with pytest.raises(CheckpointVersionError, match="format version 1"):
            run_fleet(
                rules,
                hitlist,
                gt_flowfile,
                tmp_path / "fleet",
                tmp_path / "merged.jsonl",
                FleetConfig(workers=2),
                resume=True,
            )


class TestEquivalence:
    """The headline proof: N workers == 1 engine, byte for byte."""

    @pytest.mark.parametrize("workers", [1, 2, 4, 8])
    @pytest.mark.parametrize("admission", ["pushed", "columnar"])
    def test_merged_log_matches_single_engine(
        self,
        rules,
        hitlist,
        gt_flowfile,
        gt_flows,
        reference,
        tmp_path,
        workers,
        admission,
    ):
        """``columnar``: the router decodes the file into chunks and
        routes row slices.  ``pushed``: chunks the size of a collector
        fold go through ``start_push`` + ``admit_chunk`` (the live
        collector's entry) and reach the workers as sub-chunks."""
        out = tmp_path / "merged.jsonl"
        config = FleetConfig(
            workers=workers,
            engine=StreamConfig(
                chunk_size=8192, checkpoint_every=20_000
            ),
        )
        if admission == "columnar":
            code, service = run_fleet(
                rules, hitlist, gt_flowfile, tmp_path / "fleet", out,
                config,
            )
        else:
            service = FleetService(
                rules, hitlist, tmp_path / "fleet", config
            )
            assert service.start_push(gt_flowfile) is False
            for chunk in ColumnarDecodeStage(4096).iter_chunks(gt_flowfile):
                service.admit_chunk(chunk)
            code = service.finish_push(out, stopped=False)
        expected, events = reference
        assert code == 0
        assert out.read_bytes() == expected
        metrics = service.metrics
        assert metrics.records_routed == len(gt_flows)
        assert metrics.records_skipped == 0
        assert metrics.merged_events == events
        assert metrics.restarts == 0 and metrics.rebalances == 0
        doc = service.stream_metrics().to_dict()
        assert doc["fleet"]["workers"] == workers
        assert doc["throughput"]["events"] == events
        assert doc["throughput"]["records"] == len(gt_flows)

    def test_drain_then_resume_matches_single_engine(
        self, rules, hitlist, gt_flowfile, gt_flows, reference, tmp_path
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
                    chunk_size=4096, checkpoint_every=10_000
                ),
            ),
            stop_token=TripAfter(polls=8),
        )
        assert code == 3  # EXIT_DRAINED: resumable early stop
        assert (
            service.metrics.records_routed
            + service.metrics.records_skipped
            < len(gt_flows)
        )
        code, service = run_fleet(
            rules,
            hitlist,
            gt_flowfile,
            tmp_path / "fleet",
            out,
            FleetConfig(
                workers=4,
                engine=StreamConfig(
                    chunk_size=4096, checkpoint_every=10_000
                ),
            ),
            resume=True,
        )
        expected, _ = reference
        assert code == 0
        assert service.metrics.records_skipped > 0
        assert out.read_bytes() == expected


# -- bad rows: the router's decode is the single engine's ---------------

_MALFORMED = "1,2,3"
_IMPOSSIBLE = (
    "100,160,10.0.0.1,93.184.216.34,999,40000,443,3,300,0x10",
    "100,160,10.0.0.2,93.184.216.34,6,40000,70000,3,300,0x10",
    "100,160,10.0.0.3,93.184.216.34,6,40000,443,3,300,0x1ff",
)
_BOUNDED = dict(hang_timeout=10.0, drain_timeout=30.0)


def _reaped_within(seconds: float) -> bool:
    import multiprocessing

    deadline = time.monotonic() + seconds
    while multiprocessing.active_children():
        if time.monotonic() > deadline:
            return False
        time.sleep(0.05)
    return True


@pytest.fixture(scope="module")
def bad_flowfile(gt_flowfile, tmp_path_factory):
    """The first 12k corpus lines with one malformed line and three
    impossible-valued rows planted early, so every later event's
    ``record_index`` depends on them being dropped, not folded."""
    lines = gt_flowfile.read_text().splitlines()[:12_000]
    lines[1500:1500] = [_IMPOSSIBLE[0], _MALFORMED, _IMPOSSIBLE[1]]
    lines.insert(4000, _IMPOSSIBLE[2])
    path = tmp_path_factory.mktemp("fleet-bad") / "flows.csv"
    path.write_text("\n".join(lines) + "\n")
    return path


class TestBadRows:
    def test_router_exception_reaps_workers_and_surfaces(
        self, rules, hitlist, bad_flowfile, tmp_path
    ):
        """No quarantine: the malformed line raises in the router, as
        it does in a single engine — and the workers (which ignore
        SIGTERM) are reaped, or interpreter exit would join them
        forever."""
        engine = StreamDetectionEngine(rules, hitlist, StreamConfig())
        with pytest.raises(ValueError, match="flow line has 3 fields"):
            engine.process_flowfile(bad_flowfile)
        started = time.monotonic()
        with pytest.raises(ValueError, match="flow line has 3 fields"):
            run_fleet(
                rules,
                hitlist,
                bad_flowfile,
                tmp_path / "fleet",
                tmp_path / "merged.jsonl",
                FleetConfig(
                    workers=2,
                    engine=StreamConfig(chunk_size=512),
                    **_BOUNDED,
                ),
            )
        assert _reaped_within(10.0)
        assert time.monotonic() - started < 60.0

    @pytest.mark.parametrize(
        "workers, plan",
        [
            (1, None),
            (2, None),
            (2, FleetPlan(kind="worker_crash", worker=1, at_batch=3)),
        ],
        ids=["n1", "n2", "n2-worker-crash"],
    )
    def test_quarantine_dir_matches_single_engine(
        self, rules, hitlist, bad_flowfile, tmp_path, workers, plan
    ):
        single_log = tmp_path / "single.jsonl"
        engine = StreamDetectionEngine(
            rules,
            hitlist,
            StreamConfig(quarantine_dir=tmp_path / "q-single"),
            sink=JsonlEventSink(single_log),
        )
        engine.process_flowfile(bad_flowfile)
        engine.drain()
        engine.sink.close()
        single = engine.metrics_dict()
        assert single["quarantine"]["total"] == 4
        assert engine.metrics.events_emitted > 0

        out = tmp_path / "merged.jsonl"
        code, service = run_fleet(
            rules,
            hitlist,
            bad_flowfile,
            tmp_path / "fleet",
            out,
            FleetConfig(
                workers=workers,
                engine=StreamConfig(
                    quarantine_dir=tmp_path / "q-fleet",
                    chunk_size=512,
                    checkpoint_every=2000,
                ),
                **_BOUNDED,
            ),
            plan=plan,
        )
        assert code == 0
        if plan is not None:
            assert service.metrics.restarts == 1
        assert out.read_bytes() == single_log.read_bytes()
        document = service.stream_metrics().to_dict()
        assert document["quarantine"] == single["quarantine"]
        assert (
            document["throughput"]["records"]
            == single["throughput"]["records"]
        )
        # one sample file, holding what the single engine's holds: the
        # restart's replay neither sampled nor counted a line twice
        samples = sorted(tmp_path.rglob("quarantine.jsonl"))
        assert samples == [
            tmp_path / "q-fleet" / "quarantine.jsonl",
            tmp_path / "q-single" / "quarantine.jsonl",
        ]
        assert samples[0].read_bytes() == samples[1].read_bytes()

    def test_config_echo_equals_single_engine(
        self, rules, hitlist, bad_flowfile, tmp_path
    ):
        """The fleet document echoes the flags it ran with, exactly as
        the single-engine document does."""
        from repro.cli import main as cli_main

        artifacts = write_artifacts(tmp_path / "art", rules, hitlist)

        def config_section(tag, *extra):
            metrics = tmp_path / f"metrics-{tag}.json"
            code = cli_main(
                [
                    "--quarantine-dir", str(tmp_path / f"q-{tag}"),
                    "stream", "run", str(bad_flowfile),
                    "--artifacts", str(artifacts),
                    "--threshold", "0.7",
                    "--max-subscribers", "1234",
                    "--ttl-seconds", "99",
                    "--checkpoint-dir", str(tmp_path / f"ck-{tag}"),
                    "--checkpoint-every", "500",
                    "--events-out", str(tmp_path / f"ev-{tag}.jsonl"),
                    "--stream-metrics-out", str(metrics),
                    *extra,
                ]
            )
            assert code == 0
            return json.loads(metrics.read_text())["config"]

        single = config_section("single")
        assert single == {
            "threshold": 0.7,
            "max_subscribers": 1234,
            "checkpoint_every": 500,
            "ttl_seconds": 99,
            "workers": 1,
        }
        assert config_section("fleet", "--fleet-workers", "2") == single


# -- CLI soak: real processes, real signals ---------------------------


def _children_of(pid):
    kids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                fields = fh.read().split()
            if int(fields[3]) == pid:
                kids.append(int(entry))
        except (OSError, IndexError, ValueError):
            continue
    return kids


@pytest.mark.soak
class TestFleetCliSoak:
    def _env(self):
        env = dict(os.environ)
        root = os.path.dirname(
            os.path.dirname(os.path.abspath(__file__))
        )
        env["PYTHONPATH"] = os.path.join(root, "src")
        return env

    def _fleet_args(
        self, flowfile, artifacts, tmp_path, tag, workers, extra=()
    ):
        return [
            "stream", "run", str(flowfile),
            "--artifacts", str(artifacts),
            "--fleet-workers", str(workers),
            "--chunk-size", "4096",
            "--checkpoint-dir", str(tmp_path / f"fleet-{tag}"),
            "--checkpoint-every", "10000",
            "--events-out", str(tmp_path / f"events-{tag}.jsonl"),
            *extra,
        ]

    def test_kill_one_worker_matches_single_worker_run(
        self, rules, hitlist, gt_flows, tmp_path_factory
    ):
        """SIGKILL a live worker process mid-run from outside; the
        supervised restart recovers and the merged log still matches a
        one-worker fleet of the same (enlarged) corpus."""
        from repro.netflow.flowfile import write_flow_file

        tmp_path = tmp_path_factory.mktemp("fleet-soak")
        artifacts = write_artifacts(tmp_path / "artifacts", rules, hitlist)
        # repeat the corpus so the run is long enough to kill into
        flowfile = tmp_path / "flows.csv"
        write_flow_file(flowfile, gt_flows * 4)

        reference = subprocess.run(
            [sys.executable, "-m", "repro"]
            + self._fleet_args(
                flowfile, artifacts, tmp_path, "one", workers=1
            ),
            env=self._env(),
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert reference.returncode == 0, reference.stderr

        process = subprocess.Popen(
            [sys.executable, "-m", "repro"]
            + self._fleet_args(
                flowfile, artifacts, tmp_path, "kill", workers=4
            ),
            env=self._env(),
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        # kill the first worker child to appear
        victim = None
        deadline = time.monotonic() + 60
        while victim is None and time.monotonic() < deadline:
            if process.poll() is not None:
                break
            kids = _children_of(process.pid)
            if kids:
                victim = kids[0]
                os.kill(victim, signal.SIGKILL)
        _, stderr = process.communicate(timeout=300)
        assert victim is not None, "no worker child ever appeared"
        assert process.returncode == 0, stderr
        assert "restarts=1" in stderr or "rebalances=" in stderr
        assert (tmp_path / "events-kill.jsonl").read_bytes() == (
            tmp_path / "events-one.jsonl"
        ).read_bytes()

    def test_cli_sigterm_drain_exits_3_and_resume_completes(
        self, rules, hitlist, gt_flowfile, tmp_path
    ):
        """A real kernel-delivered SIGTERM (--inject-sigterm-at) mid-
        fleet drains every worker to a checkpoint (exit 3); --resume
        completes byte-identically to an uninterrupted fleet."""
        artifacts = write_artifacts(tmp_path / "artifacts", rules, hitlist)

        def run(args):
            return subprocess.run(
                [sys.executable, "-m", "repro", *args],
                env=self._env(),
                capture_output=True,
                text=True,
                timeout=300,
            )

        clean = run(
            self._fleet_args(
                gt_flowfile, artifacts, tmp_path, "clean", workers=4
            )
        )
        assert clean.returncode == 0, clean.stderr

        killed = run(
            ["--drain-grace", "60"]
            + self._fleet_args(
                gt_flowfile,
                artifacts,
                tmp_path,
                "killed",
                workers=4,
                extra=["--inject-sigterm-at", "30000"],
            )
        )
        assert killed.returncode == 3, killed.stderr
        assert "drained" in killed.stderr
        # admission stopped at the injected index, not a chunk boundary
        assert " routed=30000 " in killed.stderr

        resumed = run(
            self._fleet_args(
                gt_flowfile,
                artifacts,
                tmp_path,
                "killed",
                workers=4,
                extra=["--resume"],
            )
        )
        assert resumed.returncode == 0, resumed.stderr
        assert "skipped=" in resumed.stderr
        assert (tmp_path / "events-killed.jsonl").read_bytes() == (
            tmp_path / "events-clean.jsonl"
        ).read_bytes()

    def test_cli_router_exception_exits_nonzero_without_hanging(
        self, rules, hitlist, bad_flowfile, tmp_path
    ):
        """A malformed line with no --quarantine-dir kills the router;
        the process must die with it, not sit in multiprocessing's
        exit handler joining workers that ignore SIGTERM."""
        artifacts = write_artifacts(tmp_path / "artifacts", rules, hitlist)
        crashed = subprocess.run(
            [sys.executable, "-m", "repro"]
            + self._fleet_args(
                bad_flowfile, artifacts, tmp_path, "bad", workers=2
            ),
            env=self._env(),
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert crashed.returncode not in (0, 3), crashed.stderr
        assert "flow line has 3 fields" in crashed.stderr
