"""The traced pass: outside-in probes, spans, and the layer waterfall.

End-to-end repeats always run untraced, in child processes.  This pass
runs afterwards, in this process: it replays each workload's *input*
through the public functions of each layer in pipeline order, wrapping
every call in a span kept by the benchmark's own recorder (``name,
start, end, parent``; one ``Tracer`` per workload is the shared
identifier).  Nothing inside the program is instrumented — that is a
later change — so a probe sees a layer only through the calls a
library user could make.

What that cannot see is the point of ``trace.coverage.<workload>``:
the sum of a workload's top-level span self times over that workload's
end-to-end CPU.  The collector's socket receive, its lock, its
per-datagram entry into the engine and its journal write have no
public seam, so ``wire_live`` covers far less than ``chunks_dense``.

Probes import lazily and touch nothing ROADMAP schedules for deletion
(``process_tuples/process/process_pairs``, ``run_tuples/run_records/
run_pairs``, ``FleetService._admit``).  A probe whose function is gone
yields ``null`` with the reason, and never disturbs end-to-end numbers.
"""

import contextlib
import functools
import gc
import json
import pathlib
import shutil
import statistics
import sys
import time
from typing import Dict, List, Optional

from benchmarks.perf import OUTPUT, SRC
from benchmarks.perf import procs, wire, workloads

if str(SRC) not in sys.path:  # the probes call the program in-process
    sys.path.insert(0, str(SRC))

_MISSING = (ImportError, AttributeError)
#: records the wire replay holds before folding them as one chunk
_WIRE_WINDOW = 4096


# -- span recorder ----------------------------------------------------------


class Span:
    """``start``/``end`` are wall clock; ``cpu_s`` is this process's CPU
    time over the same interval, so that a span which waits (an
    ``fsync``) is not mistaken for one that computes."""

    __slots__ = ("name", "start", "end", "cpu_s", "parent", "records")

    def __init__(self, name, parent, records):
        self.name, self.parent, self.records = name, parent, records
        self.cpu_s = -time.process_time()
        self.start = self.end = time.perf_counter()

    def close(self) -> None:
        self.end = time.perf_counter()
        self.cpu_s += time.process_time()


class Tracer:
    """In-memory spans of one workload's replay."""

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.spans: List[Span] = []
        self._open: List[int] = []

    @contextlib.contextmanager
    def span(self, name: str, records: int = 0):
        parent = self._open[-1] if self._open else None
        span = Span(name, parent, records)
        self._open.append(len(self.spans))
        self.spans.append(span)
        try:
            yield span
        finally:
            span.close()
            self._open.pop()

    def totals(self) -> Dict[str, dict]:
        """Per span name, in order of first appearance: calls, records,
        total wall seconds, and self wall / self CPU seconds (a span's
        own minus what its child spans cover)."""
        child_wall = [0.0] * len(self.spans)
        child_cpu = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                child_wall[span.parent] += span.end - span.start
                child_cpu[span.parent] += span.cpu_s
        rows: Dict[str, dict] = {}
        for number, span in enumerate(self.spans):
            row = rows.setdefault(
                span.name,
                {"calls": 0, "records": 0, "total_s": 0.0,
                 "self_s": 0.0, "self_cpu_s": 0.0},
            )
            duration = span.end - span.start
            row["calls"] += 1
            row["records"] += span.records
            row["total_s"] += duration
            row["self_s"] += duration - child_wall[number]
            row["self_cpu_s"] += span.cpu_s - child_cpu[number]
        return rows

    def last(self, name: str) -> Optional[Span]:
        found = [span for span in self.spans if span.name == name]
        return found[-1] if found else None

    def write(self, path: pathlib.Path) -> None:
        path.write_text(
            json.dumps(
                {
                    "workload": self.workload,
                    "spans": [
                        {
                            "id": number, "name": span.name,
                            "start": span.start, "end": span.end,
                            "cpu_s": span.cpu_s, "parent": span.parent,
                            "records": span.records,
                        }
                        for number, span in enumerate(self.spans)
                    ],
                }
            )
            + "\n"
        )


# -- shared replay steps ----------------------------------------------------------


def _load_world(tracer: Tracer, world: pathlib.Path):
    from repro.core.serialization import hitlist_from_json, rules_from_json

    with tracer.span("core.artifacts_load"):
        hitlist = hitlist_from_json((world / "hitlist.json").read_text())
        rules = rules_from_json((world / "rules.json").read_text())
    return rules, hitlist


def _decode_text(tracer: Tracer, path: pathlib.Path) -> list:
    from repro.netflow.parse import ColumnarDecodeStage

    chunks = []
    decoding = iter(ColumnarDecodeStage().iter_chunks(path))
    while True:
        with tracer.span("netflow.text_decode") as span:
            chunk = next(decoding, None)
            span.records = 0 if chunk is None else len(chunk)
        if chunk is None:
            return chunks
        chunks.append(chunk)


class Fold:
    """``process_chunks`` chunk by chunk, with the workload's checkpoint
    cadence driven from here so that each checkpoint is its own span."""

    def __init__(self, tracer, bench, world, cadence, directory) -> None:
        from repro.stream import (
            JsonlEventSink,
            StreamConfig,
            StreamDetectionEngine,
        )

        shutil.rmtree(directory, ignore_errors=True)
        directory.mkdir(parents=True)
        self.tracer, self.cadence = tracer, cadence
        self.log = directory / "events.jsonl"
        self.sink = JsonlEventSink(self.log)
        rules, hitlist = world
        self.engine = StreamDetectionEngine(
            rules, hitlist,
            StreamConfig(
                max_subscribers=bench.table,
                checkpoint_dir=directory / "ck",
                columnar=True,
            ),
            self.sink,
        )
        self.pending = 0

    def feed(self, chunk) -> None:
        with self.tracer.span("pipeline.process_chunks", len(chunk)):
            self.engine.process_chunks([chunk])
        self.pending += len(chunk)
        if self.pending >= self.cadence:
            self._checkpoint()

    def _checkpoint(self) -> None:
        with self.tracer.span("stream.write_checkpoint"):
            self.engine.write_checkpoint()
        self.pending = 0

    def finish(self) -> str:
        """Final checkpoint + drain; the replay's event-log digest (it
        must equal the child's)."""
        try:
            if self.pending:
                self._checkpoint()
            with self.tracer.span("stream.drain"):
                self.engine.drain()
        finally:
            self.sink.close()
        return workloads._sha256(self.log)


def _fold_all(tracer, bench, world, chunks, cadence_kind) -> str:
    fold = Fold(
        tracer, bench, world, bench.cadence(cadence_kind),
        bench.base / "trace" / tracer.workload,
    )
    for chunk in chunks:
        fold.feed(chunk)
    return fold.finish()


# -- one replay per workload ----------------------------------------------------------


def _trace_text(tracer, bench, measurement, cadence_kind="text"):
    world = _load_world(tracer, bench.world)
    chunks = _decode_text(tracer, measurement.prepared.input)
    return _fold_all(tracer, bench, world, chunks, cadence_kind)


def _trace_fleet(tracer, bench, measurement):
    """What the router and workers do that has a public seam: decode,
    ring keying of every row, the fold, and the k-way merge."""
    from repro.fleet import merge_event_logs, worker_log_path
    from repro.pipeline import SubscriberKeying

    world = _load_world(tracer, bench.world)
    chunks = _decode_text(tracer, measurement.prepared.input)
    keying = SubscriberKeying(shards=64)
    for chunk in chunks:
        with tracer.span("pipeline.keying", len(chunk)):
            for raw in chunk.src.tolist():
                keying.identity(raw)
    digest = _fold_all(tracer, bench, world, chunks, "text")
    fleet_dir = measurement.samples[-1].directory / "ck"
    logs = [
        worker_log_path(fleet_dir, worker)
        for worker in range(workloads.FleetText.workers)
    ]
    with tracer.span("fleet.merge_event_logs") as span:
        span.records = merge_event_logs(
            logs, bench.base / "trace" / "merged.jsonl"
        )
    return digest


def _trace_chunks(tracer, bench, measurement):
    from benchmarks.perf.run_chunks import load_chunks

    world = _load_world(tracer, bench.world)
    with tracer.span("runner.load_chunks", measurement.prepared.records):
        chunks = load_chunks(measurement.prepared.input)
    return _fold_all(tracer, bench, world, chunks, "chunks")


def _trace_wire(tracer, bench, measurement, parts: Tracer):
    """Datagram by datagram through the collector's pure ingest front
    and the journal renderer; the delivered records are folded a small
    window at a time.  The service itself keeps no record alive past
    its datagram; holding tens of thousands here makes this process's
    garbage collector a visible part of every later ``ingest`` span
    (measured: 126 us per datagram at a 37,500-record window).

    Right after each ``ingest`` the same payload goes through the
    pieces of ingest that are public on their own, recorded under
    ``parts``: taken at the same moment, their difference from the
    ingest span (sequence accounting, exporter lookup, counters) is not
    swamped by this machine's drift.  For the same reason the cyclic
    collector runs between windows here, not whenever an allocation
    count happens to trip: a collection landing inside a 100 us span
    charges that span for every live object (measured: v9 decode 46 %
    slower than with collection moved out, the other spans unchanged).
    """
    from repro.collector import CollectorSource
    from repro.netflow.datagram import peek_header
    from repro.netflow.flowfile import format_flow
    from repro.netflow.ipfix import IpfixCodec
    from repro.netflow.parse import chunks_from_records
    from repro.netflow.v9 import NetflowV9Codec
    from repro.resilience.quarantine import validate_flow_record

    world = _load_world(tracer, bench.world)
    prepared = measurement.prepared
    source = CollectorSource()
    codecs = {9: NetflowV9Codec(), 10: IpfixCodec()}
    decode_span = {9: "netflow.v9_decode", 10: "netflow.ipfix_decode"}
    fold = Fold(
        tracer, bench, world, bench.cadence("wire"),
        bench.base / "trace" / tracer.workload,
    )
    interval = prepared.records / prepared.datagrams / workloads.WIRE_RATE
    window, folded = [], 0

    def flush():
        nonlocal folded
        with tracer.span("netflow.chunks_from_records", len(window)):
            chunks = list(chunks_from_records(window, start_index=folded))
        folded += len(window)
        window.clear()
        for chunk in chunks:
            fold.feed(chunk)
        gc.collect()

    collecting = gc.isenabled()
    gc.disable()
    try:
        for number, payload in enumerate(
            wire.iter_datagrams(prepared.input)
        ):
            with tracer.span("collector.ingest") as span:
                records = source.ingest(
                    payload, ("127.0.0.1", 9), number * interval
                )
                span.records = len(records)
            with tracer.span("netflow.format_flow", len(records)):
                for record in records:
                    format_flow(record)
            window += records
            if len(window) >= _WIRE_WINDOW:
                flush()

            with parts.span("netflow.peek_header", 1):
                version = peek_header(payload).version
            with parts.span(decode_span[version]) as span:
                flows = codecs[version].decode_message(payload).flows
                span.records = len(flows)
            with parts.span("collector.validate", len(flows)):
                for record in flows:
                    validate_flow_record(record)
        if window:
            flush()
    finally:
        if collecting:
            gc.enable()
    return fold.finish()


# -- standalone probes (not part of any workload's waterfall) ----------------------------------------------------------


def _probe_index(tracer, world) -> None:
    from repro.pipeline import EndpointDayIndex
    from repro.pipeline.swap import RuleGeneration

    rules, hitlist = world
    with tracer.span("pipeline.index_build"):
        index = EndpointDayIndex(hitlist.daily_endpoints)
        for day in tuple(index.days()):
            index.day(day)
    with tracer.span("rules.generation_prepare"):
        RuleGeneration.prepare(1, rules, hitlist, build_index=True)


def _probe_scan(tracer, bench, world) -> int:
    """``process_chunks`` over the 0 %-planted twin of ``chunks_dense``:
    mask + ``searchsorted``, no fold, no events."""
    from repro.stream import StreamConfig, StreamDetectionEngine

    from benchmarks.perf.run_chunks import load_chunks

    directory = bench.base / "trace" / "scan"
    manifest = workloads._generate(bench, "scan", directory)
    chunks = load_chunks(directory / "chunks.npz")
    rules, hitlist = world
    engine = StreamDetectionEngine(
        rules, hitlist, StreamConfig(columnar=True)
    )
    with tracer.span("pipeline.scan", manifest["rows"]):
        engine.process_chunks(chunks)
    if engine.metrics.flows_matched:
        raise RuntimeError("the 0 %-planted corpus matched the hitlist")
    return manifest["rows"]


def _probe_sink(tracer, bench, event_log: pathlib.Path) -> None:
    from repro.stream import JsonlEventSink, read_event_log

    events = read_event_log(event_log)
    target = bench.base / "trace" / "sink.jsonl"
    with JsonlEventSink(target) as sink:
        with tracer.span("pipeline.sink", len(events)):
            for event in events:
                sink.append(event)
            sink.flush(sync=True)


def _probe_checkpoint_load(tracer, directory: pathlib.Path) -> None:
    from repro.stream import load_latest

    with tracer.span("stream.checkpoint_load"):
        if load_latest(directory) is None:
            raise RuntimeError(f"no checkpoint under {directory}")


# -- probes that need a child process ----------------------------------------------------------


def _cli_startup(bench) -> procs.ChildResult:
    directory = bench.base / "trace" / "startup"
    directory.mkdir(parents=True, exist_ok=True)
    empty = directory / "empty.csv"
    empty.write_text("# haystack-flows v1 sampling=1\n")
    log = directory / "child.log"
    result = procs.run(
        procs.repro_argv(
            "stream", "run", empty, "--columnar",
            "--artifacts", bench.world,
        ),
        log,
    )
    procs.check(result, log, "repro stream run (empty)")
    return result


def _resume_ready_s(bench, run_dir: pathlib.Path) -> float:
    """Spawn to ready file of ``repro collect --resume`` on a finished
    run's directory; the resumed collector is then stopped."""
    (run_dir / "ready.json").unlink()
    child = procs.Child(
        workloads.collect_argv(bench, run_dir, ["--resume"]),
        run_dir / "resume.log",
    )
    try:
        _, ready_s = workloads._await_ready(
            run_dir / "ready.json", child.started
        )
    finally:
        child.abort()
    return ready_s


# -- the pass ------------------------------------------------------------------


def _waterfall(
    workload: str, rows: Dict[str, dict], cpu_s: float, startup_cpu_s: float
) -> float:
    """Print one workload's table; returns its coverage.

    ``share`` is a span's self CPU over the workload's end-to-end CPU:
    the ceiling for what a faster layer could save there.  The start-up
    row is not a span and not in the coverage: it is the CPU of a whole
    child on an empty input (interpreter, imports, artifact load),
    shown because at small scales it is most of a run.
    """
    covered = 0.0
    print(f"\nwaterfall {workload}  (end-to-end CPU {cpu_s:.3f} s)")
    print(f"  {'span':30s} {'calls':>7s} {'self s':>9s} {'self cpu s':>11s} "
          f"{'rec/s':>12s} {'share':>7s}")
    for name, row in rows.items():
        rate = row["records"] / row["total_s"] if row["total_s"] else 0.0
        covered += row["self_cpu_s"]
        print(
            f"  {name:30s} {row['calls']:7d} {row['self_s']:9.4f} "
            f"{row['self_cpu_s']:11.4f} {rate:12,.0f} "
            f"{row['self_cpu_s'] / cpu_s:7.3f}"
        )
    print(f"  {'trace.coverage':30s} {'':7s} {'':9s} {covered:11.4f} "
          f"{'':12s} {covered / cpu_s:7.3f}")
    print(f"  {'(child start-up, empty input)':30s} {'':7s} {'':9s} "
          f"{startup_cpu_s:11.4f} {'':12s} {startup_cpu_s / cpu_s:7.3f}")
    return covered / cpu_s


def traced_pass(bench, measured: dict):
    """Replay every workload under the recorder; derive the per-layer
    metrics.  ``measured`` holds each workload's untraced measurement.
    Returns ``(values, unavailable)``; a value is ``None`` exactly when
    ``unavailable`` says why."""
    values: Dict[str, Optional[float]] = {}
    gone: Dict[str, str] = {}  # replay or probe -> why it could not run
    errors: List[str] = []
    shutil.rmtree(bench.base / "trace", ignore_errors=True)

    def attempt(what: str, function, *args):
        try:
            return function(*args)
        except _MISSING as exc:
            gone[what] = f"{type(exc).__name__}: {exc}"
            return None

    def cpu_s(name: str) -> float:
        return statistics.median(
            sample.child.cpu_s for sample in measured[name].samples
        )

    def last(name: str):
        return measured[name].samples[-1]

    # 1. one replay per workload, in pipeline order
    probes = Tracer("probes")  # spans that belong to no waterfall
    replays = {
        "text_haystack": _trace_text,
        "fleet_text": _trace_fleet,
        "chunks_dense": _trace_chunks,
        "wire_live": functools.partial(_trace_wire, parts=probes),
        "journal_replay": functools.partial(
            _trace_text, cadence_kind="wire"
        ),
    }
    tracers = {name: Tracer(name) for name in replays}
    for name, replay in replays.items():
        digest = attempt(name, replay, tracers[name], bench, measured[name])
        if digest is not None and digest != measured[name].events_sha:
            errors.append(f"{name}: traced replay wrote a different log")

    # 2. standalone probes
    world = attempt("world", _load_world, probes, bench.world)
    scan_rows = None
    if world is not None:
        attempt("index", _probe_index, probes, world)
        scan_rows = attempt("scan", _probe_scan, probes, bench, world)
    dense = last("chunks_dense")
    attempt("sink", _probe_sink, probes, bench,
            dense.directory / "events.jsonl")
    attempt("checkpoint load", _probe_checkpoint_load, probes,
            dense.directory / "ck")

    # 3. derived per-layer metrics
    totals = {name: tracer.totals() for name, tracer in tracers.items()}
    totals["probes"] = probes.totals()

    def seconds(where: str, span: str) -> float:
        return totals[where].get(span, {}).get("total_s", 0.0)

    def rate(where: str, span: str) -> Optional[float]:
        spent = seconds(where, span)
        return totals[where][span]["records"] / spent if spent else None

    def millis(where: str, span: str) -> Optional[float]:
        return seconds(where, span) * 1e3 or None

    values["netflow.text_decode_records_per_s"] = rate(
        "text_haystack", "netflow.text_decode"
    )
    values["netflow.v9_decode_records_per_s"] = rate(
        "probes", "netflow.v9_decode"
    )
    values["netflow.ipfix_decode_records_per_s"] = rate(
        "probes", "netflow.ipfix_decode"
    )
    peeks = rate("probes", "netflow.peek_header")
    values["netflow.peek_header_ns"] = 1e9 / peeks if peeks else None
    values["netflow.format_flow_records_per_s"] = rate(
        "wire_live", "netflow.format_flow"
    )
    values["netflow.chunks_from_records_records_per_s"] = rate(
        "wire_live", "netflow.chunks_from_records"
    )
    values["collector.ingest_records_per_s"] = rate(
        "wire_live", "collector.ingest"
    )
    values["collector.validate_records_per_s"] = rate(
        "probes", "collector.validate"
    )
    ingest = totals["wire_live"].get("collector.ingest")
    values["collector.accounting_us_per_datagram"] = (
        (
            ingest["total_s"]
            - seconds("probes", "netflow.peek_header")
            - seconds("probes", "netflow.v9_decode")
            - seconds("probes", "netflow.ipfix_decode")
            - seconds("probes", "collector.validate")
        )
        / ingest["calls"] * 1e6
        if ingest else None
    )

    sample = last("wire_live")
    values["collector.sys_cpu_share"] = sample.child.sys_s / sample.child.cpu_s
    for key in ("ready_s", "drain_tail_s", "datagrams_lost",
                "generator_late_p99_ms"):
        values[f"collector.{key}"] = float(sample.extras[key])
    values["collector.journal_bytes_per_record"] = (
        sample.extras["journal_bytes"] / sample.records
    )
    values["collector.resume_ready_s"] = _resume_ready_s(
        bench, sample.directory
    )

    values["pipeline.keying_records_per_s"] = rate(
        "fleet_text", "pipeline.keying"
    )
    values["pipeline.index_build_ms"] = millis(
        "probes", "pipeline.index_build"
    )
    values["pipeline.scan_records_per_s"] = rate("probes", "pipeline.scan")
    fold_s = seconds("chunks_dense", "pipeline.process_chunks")
    values["pipeline.fold_matched_per_s"] = (
        dense.planted / (
            fold_s
            - seconds("probes", "pipeline.scan") * dense.records / scan_rows
        )
        if fold_s and scan_rows else None
    )
    values["pipeline.sink_events_per_s"] = rate("probes", "pipeline.sink")
    document = dense.document
    values["pipeline.matched_share"] = (
        document["throughput"]["matched"] / dense.records
    )
    values["pipeline.events_emitted"] = float(
        document["throughput"]["events"]
    )
    values["pipeline.state_evictions"] = float(
        document["state"]["evicted_lru"]
    )

    final = tracers["chunks_dense"].last("stream.write_checkpoint")
    values["stream.checkpoint_write_ms"] = (
        (final.end - final.start) * 1e3 if final else None
    )
    newest = max((dense.directory / "ck").glob("ckpt-*"), default=None)
    values["stream.checkpoint_bytes"] = (
        float(newest.stat().st_size) if newest else None
    )
    values["stream.checkpoint_load_ms"] = millis(
        "probes", "stream.checkpoint_load"
    )
    values["stream.checkpoint_share"] = (
        document["checkpoints"]["seconds"] / dense.child.wall_s
    )

    single = measured["text_haystack"].end_to_end()
    sharded = measured["fleet_text"].end_to_end()
    values["fleet.speedup_vs_single"] = (
        sharded["records_per_s"]["median"]
        / single["records_per_s"]["median"]
    )
    values["fleet.cpu_ratio_vs_single"] = (
        single["records_per_cpu_s"]["median"]
        / sharded["records_per_cpu_s"]["median"]
    )
    width1 = workloads.stream_run(
        bench, measured["fleet_text"].prepared,
        bench.base / "trace" / "width1", "text", ["--fleet-workers", 1],
    )
    if width1.events_sha != measured["fleet_text"].events_sha:
        errors.append("fleet width 1 wrote a different log")
    values["fleet.width1_records_per_s"] = width1.records / width1.child.wall_s
    values["fleet.merge_events_per_s"] = rate(
        "fleet_text", "fleet.merge_event_logs"
    )
    fleet_doc = last("fleet_text").document["fleet"]
    values["fleet.merge_share"] = (
        fleet_doc["merge_seconds"] / last("fleet_text").child.wall_s
    )
    per_worker = [w["records_processed"] for w in fleet_doc["per_worker"]]
    values["fleet.slot_skew"] = max(per_worker) / statistics.mean(per_worker)

    values["core.artifacts_load_ms"] = millis("probes", "core.artifacts_load")
    values["rules.generation_prepare_ms"] = millis(
        "probes", "rules.generation_prepare"
    )
    startup = _cli_startup(bench)
    values["cli.startup_s"] = startup.wall_s

    # 4. waterfalls, coverage, trace files
    OUTPUT.mkdir(exist_ok=True)
    for name, tracer in tracers.items():
        if name not in gone:
            values[f"trace.coverage.{name}"] = _waterfall(
                name, totals[name], cpu_s(name), startup.cpu_s
            )
        else:
            values[f"trace.coverage.{name}"] = None
        tracer.write(OUTPUT / f"trace-{name}.json")
    probes.write(OUTPUT / "trace-probes.json")

    if errors:
        raise RuntimeError("traced pass: " + "; ".join(errors))
    why = "; ".join(f"{what}: {text}" for what, text in gone.items())
    unavailable = {
        name: why for name, value in values.items() if value is None
    }
    return values, unavailable
