"""Live collector cost: ingest rate, decode overhead, drop accounting.

The collector design claims UDP ingest is a thin shell around the same
streaming fold the file-replay path uses: the datagram decode (header,
per-exporter template cache, sequence accounting, semantic validation)
is the only added work, faults are *accounted*, never amplified, and a
loopback socket can sustain far more than a border router exports.
This bench pins those claims with numbers:

* *decode overhead* — the same record set folded (a) from encoded
  export datagrams through :meth:`CollectorService.feed` (the shipped
  loop: column decode, hold, block validation, chunk fold) and (b) as
  pre-built column chunks through the bare engine; the ratio of added
  wall time is asserted bounded, tightly enough that a per-record
  decode creeping back fails the job;
* *loopback ingest rate* — a real bound socket, a real sender thread,
  ``max_datagrams`` records/s measured end to end and asserted above a
  (deliberately generous) floor;
* *drop accounting under burst* — a ``buffer_overflow`` burst loss
  must be accounted *exactly*: records folded plus records the gap
  accounting reports missed equals the records sent (asserted).

Results merge into ``BENCH_scaling.json`` under ``"collector"``.

``python benchmarks/bench_collector.py --quick`` runs a smaller
stream and skips the JSON merge (the CI invocation).
"""

import argparse
import json
import pathlib
import random
import sys
import threading
import time
import types

BENCH_PATH = (
    pathlib.Path(__file__).resolve().parents[1] / "BENCH_scaling.json"
)

_SUBSCRIBERS = 5_000
_BATCH = 25
#: collector fold may cost at most this much of the bare chunk fold
#: (hold-and-fold lands ~1.6x here; folding every datagram as its own
#: chunk is ~7x, and the per-record decode it all replaced was worse)
_DECODE_OVERHEAD_BOUND = 2.5
#: CI floor — any working machine folds orders of magnitude more
_INGEST_FLOOR_RECORDS_PER_SECOND = 1_000


def _world():
    """A synthetic deployment (bench_swap's idiom: fast, no capture)."""
    from repro.core.rules import DetectionRule, RuleSet

    daily = {
        0: {
            (0xC0A80001, 443): "a.example",
            (0xC0A80002, 80): "b.example",
        },
        1: {
            (0xC0A80001, 443): "a.example",
            (0xC0A80003, 8883): "c.example",
        },
    }
    hitlist = types.SimpleNamespace(daily_endpoints=daily)
    rules = RuleSet(
        [
            DetectionRule(
                class_name="cam",
                level="Product",
                domains=("a.example", "b.example", "c.example"),
            )
        ]
    )
    return rules, hitlist


def _flows(records):
    """A sorted two-day flow stream, ~10% hitlist matches."""
    from repro.netflow.records import FlowKey, FlowRecord
    from repro.timeutil import SECONDS_PER_DAY, STUDY_START

    rng = random.Random(7)
    endpoint_pool = [
        (0xC0A80001, 443),
        (0xC0A80002, 80),
        (0xC0A80003, 8883),
    ]
    rows = []
    for _ in range(records):
        day = rng.choice([0, 1])
        when = (
            STUDY_START
            + day * SECONDS_PER_DAY
            + rng.randrange(SECONDS_PER_DAY)
        )
        if rng.random() < 0.1:
            dst, dport = rng.choice(endpoint_pool)
        else:
            dst, dport = rng.randint(0x08000000, 0x08FFFFFF), 53
        src = 0x0A000000 + rng.randrange(_SUBSCRIBERS)
        rows.append(
            FlowRecord(
                key=FlowKey(
                    src_ip=src,
                    dst_ip=dst,
                    protocol=6,
                    src_port=40_000 + rng.randrange(20_000),
                    dst_port=dport,
                ),
                first_switched=when,
                last_switched=when + 30,
                packets=3,
                bytes=300,
                tcp_flags=0x10,
            )
        )
    rows.sort(key=lambda flow: flow.first_switched)
    return rows


def _datagrams(flows):
    from repro.faults import encode_export_stream
    from repro.netflow.v9 import NetflowV9Codec

    batches = [
        flows[i : i + _BATCH] for i in range(0, len(flows), _BATCH)
    ]
    return encode_export_stream(
        batches, lambda: NetflowV9Codec(source_id=3)
    )


def _engine(rules, hitlist):
    from repro.stream import (
        MemoryEventSink,
        StreamConfig,
        StreamDetectionEngine,
    )

    return StreamDetectionEngine(
        rules, hitlist, StreamConfig(checkpoint_every=0), MemoryEventSink()
    )


def _fold_chunks(rules, hitlist, flows):
    """Baseline: the bare engine folding pre-built column chunks."""
    from repro.netflow.parse import chunks_from_records

    engine = _engine(rules, hitlist)
    chunks = list(chunks_from_records(flows))
    started = time.perf_counter()
    engine.process_chunks(chunks)
    return time.perf_counter() - started, engine


def _fold_datagrams(rules, hitlist, datagrams):
    """The collector path: decode + account + hold + validate + fold,
    through the loop the service ships (``feed``), socket taken out."""
    from repro.collector import CollectorConfig, CollectorService

    engine = _engine(rules, hitlist)
    service = CollectorService(
        engine, config=CollectorConfig(control_port=None)
    )
    started = time.perf_counter()
    for number, payload in enumerate(datagrams):
        service.feed(payload, now=number * 0.0001)
    service._drain()
    return time.perf_counter() - started, engine, service.source


def _measure(runner, repeats):
    """Min-of-repeats wall time (noise floor, not the average)."""
    best = None
    for _ in range(repeats):
        result = runner()
        if best is None or result[0] < best[0]:
            best = result
    return best


def _loopback_rate(rules, hitlist, datagrams, records):
    """A real socket: bind, blast over loopback, measure end to end."""
    from repro.collector import CollectorConfig, CollectorService
    from repro.faults import UdpReplayShim

    engine = _engine(rules, hitlist)
    service = CollectorService(
        engine,
        config=CollectorConfig(
            control_port=None,
            max_datagrams=len(datagrams),
            idle_exit=2.0,  # safety net if the kernel drops datagrams
            recv_buffer=1 << 22,
            poll_interval=0.05,
        ),
    )
    outcome = {}
    ready = threading.Event()

    original = service._write_ready_file

    def signal_ready():
        original()
        ready.set()

    service._write_ready_file = signal_ready
    runner = threading.Thread(
        target=lambda: outcome.update(code=service.run())
    )
    started = time.perf_counter()
    runner.start()
    assert ready.wait(timeout=10.0), "collector never bound"
    # a light sender throttle: an unthrottled loopback blast outruns
    # the fold and measures kernel-drop behaviour, not throughput
    UdpReplayShim(
        "127.0.0.1", service.udp_port, pause=0.0002
    ).send(datagrams)
    runner.join(timeout=60.0)
    elapsed = time.perf_counter() - started
    assert outcome.get("code") == 0, outcome
    folded = service.source.metrics.records_folded
    return {
        "datagrams_sent": len(datagrams),
        "datagrams_received": service.source.metrics.datagrams_received,
        "records_folded": folded,
        "seconds": elapsed,
        "records_per_second": folded / elapsed if elapsed else 0.0,
    }


def _burst_accounting(rules, hitlist, datagrams, flows):
    """A contiguous burst loss is accounted exactly, never amplified."""
    from repro.faults import DatagramPlan

    delivered = DatagramPlan("buffer_overflow", seed=5, rate=0.2).apply(
        datagrams
    )
    lost = len(datagrams) - len(delivered)
    _seconds, _engine_, source = _fold_datagrams(
        rules, hitlist, delivered
    )
    metrics = source.metrics
    return {
        "datagrams_sent": len(datagrams),
        "datagrams_lost": lost,
        "records_folded": metrics.records_folded,
        "records_missed": metrics.records_missed,
        "sequence_gaps": metrics.sequence_gaps,
        "accounted": metrics.records_folded + metrics.records_missed,
        "expected": len(flows),
    }


def _run(records, repeats, merge):
    rules, hitlist = _world()
    flows = _flows(records)
    datagrams = _datagrams(flows)

    _fold_chunks(rules, hitlist, flows)  # warmup (caches, allocator)
    base_seconds, base_engine = _measure(
        lambda: _fold_chunks(rules, hitlist, flows), repeats
    )
    collect_seconds, collect_engine, _source = _measure(
        lambda: _fold_datagrams(rules, hitlist, datagrams), repeats
    )
    if [e.to_line() for e in collect_engine.sink.events] != [
        e.to_line() for e in base_engine.sink.events
    ]:
        print("FAIL: collector fold diverged from the chunk fold")
        return 1, None
    overhead = collect_seconds / base_seconds

    live = _loopback_rate(rules, hitlist, datagrams, records)
    burst = _burst_accounting(rules, hitlist, datagrams, flows)

    document = {
        "records": records,
        "chunk_records_per_second": records / base_seconds,
        "collector_records_per_second": records / collect_seconds,
        "decode_overhead_ratio": overhead,
        "decode_overhead_bound": _DECODE_OVERHEAD_BOUND,
        "loopback": live,
        "burst": burst,
        "events": len(collect_engine.sink.events),
    }
    print(
        f"collector bench: {records:,} records, chunk fold "
        f"{records / base_seconds:,.0f} rec/s vs datagram fold "
        f"{records / collect_seconds:,.0f} rec/s "
        f"(decode overhead {overhead:.2f}x), loopback "
        f"{live['records_per_second']:,.0f} rec/s, burst lost "
        f"{burst['datagrams_lost']} datagrams -> "
        f"{burst['records_missed']} records accounted missing"
    )
    if overhead > _DECODE_OVERHEAD_BOUND:
        print(
            f"FAIL: decode overhead {overhead:.2f}x exceeds "
            f"{_DECODE_OVERHEAD_BOUND}x bound"
        )
        return 1, None
    if (
        live["records_per_second"] < _INGEST_FLOOR_RECORDS_PER_SECOND
    ):
        print(
            f"FAIL: loopback ingest {live['records_per_second']:,.0f} "
            f"rec/s under the {_INGEST_FLOOR_RECORDS_PER_SECOND:,} floor"
        )
        return 1, None
    if burst["accounted"] != burst["expected"]:
        print(
            f"FAIL: burst accounting folded+missed="
            f"{burst['accounted']} != sent {burst['expected']}"
        )
        return 1, None
    if merge:
        merged = (
            json.loads(BENCH_PATH.read_text())
            if BENCH_PATH.exists()
            else {}
        )
        merged["collector"] = document
        BENCH_PATH.write_text(
            json.dumps(merged, indent=2, sort_keys=True) + "\n"
        )
    return 0, document


def bench_collector_ingest():
    """Pytest entry: full-size run, merged into BENCH_scaling.json."""
    status, document = _run(records=100_000, repeats=3, merge=True)
    assert status == 0
    assert (
        document["decode_overhead_ratio"] <= _DECODE_OVERHEAD_BOUND
    )
    assert document["burst"]["accounted"] == document["burst"]["expected"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="smaller stream, no BENCH_scaling.json merge (CI smoke)",
    )
    args = parser.parse_args(argv)
    if args.quick:
        status, _ = _run(records=20_000, repeats=3, merge=False)
        return status
    status, _ = _run(records=100_000, repeats=3, merge=True)
    return status


if __name__ == "__main__":
    sys.exit(main())
