"""The five workloads: set-up, one timed run, and the correctness gate.

Each workload feeds generated files to one public entry point in a
child process and reads back only what a user could: exit code, the
``--stream-metrics-out`` document, the event log and file sizes.

==============  ======================================================
text_haystack   stored-export replay: ``repro stream run F --columnar``
fleet_text      the same file through ``--fleet-workers 2``
chunks_dense    dense pre-decoded chunks -> ``process_chunks``
wire_live       open-loop v9 + IPFIX over loopback -> ``repro collect``
journal_replay  the collector's journal -> ``repro stream run J``
==============  ======================================================

Why these five, and which layer each one isolates, is recorded in
``BENCHMARK.json`` (``workloads[].why``) and ``README.md``.
"""

import hashlib
import json
import os
import pathlib
import shutil
import statistics
import sys
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from benchmarks.perf import OUTPUT, PERF_DIR, SRC
from benchmarks.perf import procs, wire

#: checkpoint cadence in records at scale 1.0 (scaled with the corpus,
#: so every run writes the same number of checkpoints)
CADENCE = {"text": 500_000, "chunks": 400_000, "wire": 150_000}
#: the engine's default table bound, scaled with the line count
TABLE_LINES = 1 << 16
#: offered load of the open-loop sender, records/s (see README:
#: the largest of 30k/20k/10k that calibrated to zero loss)
WIRE_RATE = 30_000
RECV_BUFFER = 8 << 20


@dataclass
class Bench:
    """What one invocation shares across workloads."""

    seed: int
    scale: float
    world: pathlib.Path  # hitlist.json + rules.json
    base: pathlib.Path  # scratch space under OUTPUT

    def cadence(self, kind: str) -> int:
        return max(1000, int(CADENCE[kind] * self.scale))

    @property
    def table(self) -> int:
        return max(64, int(TABLE_LINES * self.scale))


@dataclass
class Prepared:
    """One finished set-up: the files a workload's runs consume."""

    directory: pathlib.Path
    input: pathlib.Path
    records: int
    planted: int
    #: export datagrams in the input (wire corpora only)
    datagrams: int = 0
    #: event log an independent path already produced for this input
    reference_log: Optional[pathlib.Path] = None


@dataclass
class Sample:
    """One timed run, as seen from outside the program."""

    directory: pathlib.Path
    records: int  # attempted
    processed: int
    matched: Optional[int]  # None where the document does not say
    planted: int
    child: procs.ChildResult
    disk_bytes: int
    events_sha: str
    document: dict
    extras: Dict[str, float] = field(default_factory=dict)

    @property
    def failed(self) -> int:
        return self.records - self.processed

    def metrics(self) -> Dict[str, float]:
        return {
            "records_per_s": self.records / self.child.wall_s,
            "records_per_cpu_s": self.records / self.child.cpu_s,
            "peak_rss_mb": self.child.peak_rss_mb(),
            "disk_bytes_per_record": self.disk_bytes / self.records,
        }

    def problems(self) -> List[str]:
        found = []
        if self.failed:
            found.append(
                f"{self.failed} of {self.records} records not processed"
            )
        if self.matched is not None and self.matched != self.planted:
            found.append(
                f"matched {self.matched} != planted {self.planted}"
            )
        if self.extras.get("datagrams_lost") or self.extras.get(
            "sequence_gaps"
        ):
            found.append(
                f"wire lost {self.extras['datagrams_lost']:.0f} datagrams "
                f"({self.extras['sequence_gaps']:.0f} sequence gaps)"
            )
        return found


# -- the world: one real rule set, built once per source tree ----------


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "repro").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def ensure_world() -> pathlib.Path:
    """``hitlist.json`` + ``rules.json`` from the real rule pipeline.

    Built through ``repro artifacts`` (the deployment's own export
    step) once per state of ``src/`` and kept under ``output/``: it is
    the benchmark's build, not part of any run's set-up.
    """
    if not (SRC / "repro").is_dir():
        raise RuntimeError(f"no program to measure: {SRC / 'repro'} missing")
    world = OUTPUT / f"world-{_source_digest()}"
    if (world / "rules.json").exists():
        return world
    building = OUTPUT / f"{world.name}.building-{os.getpid()}"
    building.mkdir(parents=True)
    log = building / "build.log"
    result = procs.run(
        procs.repro_argv(
            "--subscribers", 2000, "--days", 2, "artifacts", building
        ),
        log,
        timeout=600.0,
    )
    procs.check(result, log, "repro artifacts")
    (building / "build_s.txt").write_text(f"{result.wall_s:.3f}\n")
    try:
        building.rename(world)
    except OSError:  # a concurrent run finished the same build first
        shutil.rmtree(building)
    return world


# -- shared pieces of set-up and run --------------------------------------


def _generate(bench: Bench, kind: str, out: pathlib.Path) -> dict:
    out.mkdir(parents=True, exist_ok=True)
    log = out / "corpus.log"
    result = procs.run(
        [
            sys.executable, str(PERF_DIR / "corpus.py"),
            "--kind", kind, "--seed", str(bench.seed),
            "--scale", repr(bench.scale),
            "--artifacts", str(bench.world), "--out", str(out),
        ],
        log,
    )
    procs.check(result, log, f"corpus {kind}")
    return json.loads((out / "manifest.json").read_text())


def _sha256(path: pathlib.Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _disk_bytes(run_dir: pathlib.Path) -> int:
    """Journal + event log + the newest checkpoint of every lineage."""
    total = 0
    for name in ("journal.csv", "events.jsonl"):
        path = run_dir / name
        if path.exists():
            total += path.stat().st_size
    newest: Dict[pathlib.Path, pathlib.Path] = {}
    for path in (run_dir / "ck").rglob("ckpt-*"):
        best = newest.get(path.parent)
        if best is None or path.name > best.name:
            newest[path.parent] = path
    return total + sum(path.stat().st_size for path in newest.values())


def _output_args(run_dir: pathlib.Path) -> list:
    return [
        "--checkpoint-dir", run_dir / "ck",
        "--events-out", run_dir / "events.jsonl",
        "--stream-metrics-out", run_dir / "metrics.json",
    ]


def _sample(run_dir, prepared, result, log, what) -> Sample:
    procs.check(result, log, what)
    document = json.loads((run_dir / "metrics.json").read_text())
    if "collector" in document:
        processed = document["collector"]["records"]["folded"]
    else:
        processed = document["throughput"]["records"]
    # the fleet document aggregates no match counter: its matches are
    # checked through the byte-identical log instead
    matched = (
        None if "fleet" in document else document["throughput"]["matched"]
    )
    return Sample(
        directory=run_dir,
        records=prepared.records,
        processed=processed,
        matched=matched,
        planted=prepared.planted,
        child=result,
        disk_bytes=_disk_bytes(run_dir),
        events_sha=_sha256(run_dir / "events.jsonl"),
        document=document,
    )


def stream_run(
    bench: Bench, prepared: Prepared, run_dir: pathlib.Path,
    cadence_kind: str, extra_args=(),
) -> Sample:
    """``repro stream run <input> --columnar ...`` in a child."""
    run_dir.mkdir(parents=True)
    log = run_dir / "child.log"
    result = procs.run(
        procs.repro_argv(
            "stream", "run", prepared.input, "--columnar",
            "--artifacts", bench.world,
            "--checkpoint-every", bench.cadence(cadence_kind),
            "--max-subscribers", bench.table,
            *_output_args(run_dir), *extra_args,
        ),
        log,
    )
    return _sample(run_dir, prepared, result, log, "repro stream run")


def _await_ready(path: pathlib.Path, started: float) -> tuple:
    """``(udp_port, seconds from spawn to the ready file)``."""
    deadline = started + 30.0
    while time.perf_counter() < deadline:
        if path.exists():
            ready_s = time.perf_counter() - started
            return json.loads(path.read_text())["udp_port"], ready_s
        time.sleep(0.005)
    raise RuntimeError("collector never wrote its ready file")


def collect_argv(bench: Bench, run_dir: pathlib.Path, extra_args=()) -> list:
    return procs.repro_argv(
        "collect", "--no-control", "--recv-buffer", RECV_BUFFER,
        "--artifacts", bench.world,
        "--journal", run_dir / "journal.csv",
        "--checkpoint-every", bench.cadence("wire"),
        "--max-subscribers", bench.table,
        "--ready-file", run_dir / "ready.json",
        "--idle-exit", 3,
        *_output_args(run_dir), *extra_args,
    )


def collect_run(
    bench: Bench, prepared: Prepared, run_dir: pathlib.Path
) -> Sample:
    """A child ``repro collect`` fed open loop over loopback UDP."""
    run_dir.mkdir(parents=True)
    log = run_dir / "child.log"
    child = procs.Child(
        collect_argv(
            bench, run_dir, ["--max-datagrams", prepared.datagrams]
        ),
        log,
    )
    try:
        port, ready_s = _await_ready(run_dir / "ready.json", child.started)
        report = wire.send_open_loop(
            port, prepared.input,
            WIRE_RATE * prepared.datagrams / prepared.records,
        )
        result = child.wait()
    except BaseException:
        child.abort()
        raise
    sample = _sample(run_dir, prepared, result, log, "repro collect")
    collector = sample.document["collector"]
    sample.extras = {
        "ready_s": ready_s,
        "drain_tail_s": result.ended - report.last_due,
        "generator_late_p99_ms": report.late_p99_ms,
        "generator_late_max_ms": report.late_max_ms,
        "datagrams_lost": report.sent - collector["datagrams"]["received"],
        "sequence_gaps": collector["sequence"]["gaps"],
        "journal_bytes": (run_dir / "journal.csv").stat().st_size,
    }
    return sample


# -- the five workloads -----------------------------------------------------


class Workload:
    name: str
    kind: str  # corpus kind its set-up generates
    #: set-ups per measurement (``setup_s`` is their median)
    setups = 5

    def prepare(self, bench: Bench, slot: pathlib.Path) -> Prepared:
        manifest = _generate(bench, self.kind, slot)
        return Prepared(
            directory=slot,
            input=slot / self.input_name,
            records=manifest["rows"],
            planted=manifest["planted"],
            datagrams=manifest.get("datagrams", 0),
        )

    def run(self, bench, prepared, run_dir) -> Sample:
        raise NotImplementedError

    def reference_sha(self, bench, prepared, sample, work) -> Optional[str]:
        """Event-log digest an independent path gives for this input,
        or ``None`` where the counts are the only oracle."""
        return None


class TextHaystack(Workload):
    name, kind, input_name = "text_haystack", "text", "flows.csv"

    def run(self, bench, prepared, run_dir):
        return stream_run(bench, prepared, run_dir, "text")


class FleetText(Workload):
    name, kind, input_name = "fleet_text", "text", "flows.csv"
    workers = 2

    def run(self, bench, prepared, run_dir):
        return stream_run(
            bench, prepared, run_dir, "text",
            ["--fleet-workers", self.workers],
        )

    def reference_sha(self, bench, prepared, sample, work):
        single = stream_run(bench, prepared, work / "single", "text")
        return single.events_sha


class ChunksDense(Workload):
    name, kind, input_name = "chunks_dense", "chunks", "chunks.npz"

    def run(self, bench, prepared, run_dir):
        run_dir.mkdir(parents=True)
        log = run_dir / "child.log"
        result = procs.run(
            [
                sys.executable, str(PERF_DIR / "run_chunks.py"),
                str(prepared.input),
                "--artifacts", str(bench.world),
                "--checkpoint-dir", str(run_dir / "ck"),
                "--checkpoint-every", str(bench.cadence("chunks")),
                "--max-subscribers", str(bench.table),
                "--events-out", str(run_dir / "events.jsonl"),
                "--metrics-out", str(run_dir / "metrics.json"),
            ],
            log,
        )
        return _sample(run_dir, prepared, result, log, "run_chunks")


class WireLive(Workload):
    name, kind, input_name = "wire_live", "wire", "wire.bin"

    def run(self, bench, prepared, run_dir):
        return collect_run(bench, prepared, run_dir)

    def reference_sha(self, bench, prepared, sample, work):
        journal = Prepared(
            directory=sample.directory,
            input=sample.directory / "journal.csv",
            records=sample.records,
            planted=sample.planted,
        )
        return stream_run(bench, journal, work / "replay", "wire").events_sha


class JournalReplay(Workload):
    name, kind, input_name = "journal_replay", "wire", "wire.bin"
    setups = 3  # each one runs the collector at its fixed rate

    def prepare(self, bench, slot):
        """Generate the wire corpus, then let the collector write the
        journal this workload reads (so set-up time here includes one
        collector run)."""
        datagrams = super().prepare(bench, slot)
        source = collect_run(bench, datagrams, slot / "source")
        if source.problems():
            raise RuntimeError(
                "journal_replay set-up: " + "; ".join(source.problems())
            )
        return Prepared(
            directory=slot,
            input=source.directory / "journal.csv",
            records=source.records,
            planted=source.planted,
            reference_log=source.directory / "events.jsonl",
        )

    def run(self, bench, prepared, run_dir):
        return stream_run(bench, prepared, run_dir, "wire")

    def reference_sha(self, bench, prepared, sample, work):
        return _sha256(prepared.reference_log)


BY_NAME = {
    cls.name: cls()
    for cls in (TextHaystack, FleetText, ChunksDense, WireLive, JournalReplay)
}
#: logs that must be byte-identical when both workloads ran on one seed
PAIRS = (("text_haystack", "fleet_text"), ("wire_live", "journal_replay"))


# -- measuring ----------------------------------------------------------------


def spread(values: List[float]) -> dict:
    """Median and quartiles of the samples (sample count stated)."""
    if len(values) < 2:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {
        "median": statistics.median(values),
        "q1": q1,
        "q3": q3,
        "n": len(values),
        "samples": values,
    }


@dataclass
class Measurement:
    workload: str
    setup_s: List[float]
    samples: List[Sample]
    prepared: Prepared
    errors: List[str]

    @property
    def attempted(self) -> int:
        return sum(sample.records for sample in self.samples)

    @property
    def failed(self) -> int:
        return sum(sample.failed for sample in self.samples)

    @property
    def events_sha(self) -> str:
        return self.samples[-1].events_sha

    def end_to_end(self) -> Dict[str, dict]:
        per_run = [sample.metrics() for sample in self.samples]
        stats = {
            name: spread([run[name] for run in per_run])
            for name in per_run[0]
        }
        stats["setup_s"] = spread(self.setup_s)
        return stats


class Session:
    """One workload's measurement, step by step.

    The full ledger interleaves the sessions of all five workloads
    (repeat 1 of each, then repeat 2, ...) so that every workload's
    samples span the whole run: this machine's speed drifts by 10-25 %
    over minutes, and samples taken in one block would hide that drift
    from their own quartiles.  Only the last set-up's files and the last
    run's outputs are kept on disk.
    """

    def __init__(self, workload: Workload, bench: Bench) -> None:
        self.workload, self.bench = workload, bench
        self.work = bench.base / workload.name
        shutil.rmtree(self.work, ignore_errors=True)
        self.setup_s: List[float] = []
        self.samples: List[Sample] = []
        self.prepared: Optional[Prepared] = None

    def set_up(self) -> None:
        if self.prepared is not None:
            shutil.rmtree(self.prepared.directory)
        started = time.perf_counter()
        self.prepared = self.workload.prepare(
            self.bench, self.work / f"setup-{len(self.setup_s)}"
        )
        self.setup_s.append(time.perf_counter() - started)

    def warm_up(self) -> None:
        self.workload.run(self.bench, self.prepared, self.work / "warmup")
        shutil.rmtree(self.work / "warmup")

    def run_once(self) -> None:
        if self.samples:
            shutil.rmtree(self.samples[-1].directory)
        self.samples.append(
            self.workload.run(
                self.bench, self.prepared,
                self.work / f"run-{len(self.samples)}",
            )
        )

    def finish(self) -> Measurement:
        """Apply the per-workload gate to what was measured."""
        errors = []
        for number, sample in enumerate(self.samples):
            errors += [f"run {number}: {text}" for text in sample.problems()]
        last = self.samples[-1]
        if any(s.events_sha != last.events_sha for s in self.samples):
            errors.append("event log differs between repeats of one input")
        reference = self.workload.reference_sha(
            self.bench, self.prepared, last, self.work
        )
        if reference is not None and reference != last.events_sha:
            errors.append("event log differs from the independent path's")
        return Measurement(
            self.workload.name, self.setup_s, self.samples, self.prepared,
            errors,
        )


def measure(
    workload: Workload,
    bench: Bench,
    setups: int = 1,
    repeats: Optional[int] = None,
    seconds: Optional[float] = None,
) -> Measurement:
    """One workload alone: ``setups`` set-ups, then either ``repeats``
    timed runs or as many as fit ``seconds`` (at least three)."""
    session = Session(workload, bench)
    for _ in range(setups):
        session.set_up()
    began = time.perf_counter()
    while True:
        done = len(session.samples)
        if repeats is not None:
            if done >= repeats:
                break
        elif done >= 3:
            spent = time.perf_counter() - began
            if spent + spent / done > seconds:
                break
        session.run_once()
    return session.finish()
